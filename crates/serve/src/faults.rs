//! Deterministic fault injection for the serve path. Only compiled with the
//! `fault-injection` feature (enabled by the suite's dev-dependencies,
//! never by release builds), extending `logirec_core::faults` from the
//! training loop into serving.
//!
//! Three hook points:
//!
//! * [`ServeFaultPlan::maybe_stall`] — called inside the scoring span, so a
//!   scheduled stall pushes an otherwise-fast request past its deadline and
//!   exercises the late-exact → fallback demotion;
//! * [`ServeFaultPlan::take_connection_drop`] — consulted by the accept
//!   loop, dropping the next N accepted connections on the floor so the
//!   client's bounded-retry path is tested against real refused work;
//! * [`ServeFaultPlan::take_fold_in_reload`] — consulted by a fold-in after
//!   it built its candidate and before it publishes, forcing a reload into
//!   exactly the window where a lost update could happen.
//!
//! Torn/corrupt checkpoint files reuse the core helpers re-exported here
//! ([`truncate_file`], [`flip_bit`]) — corrupt the watched file on disk and
//! the reloader must reject it and keep serving last-good.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use logirec_core::faults::{flip_bit, truncate_file};

#[derive(Debug, Default)]
struct Inner {
    stall_us: AtomicU64,
    stalls_left: AtomicU64,
    conn_drops_left: AtomicU64,
    fold_in_reloads_left: AtomicU64,
}

/// Consumes one unit of a scheduled budget; false once it is spent.
fn take_one(left: &AtomicU64) -> bool {
    left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_ok()
}

/// A shared, thread-safe schedule of serve-path faults. Cloning shares the
/// schedule (the server and the test both see the same remaining budget).
#[derive(Debug, Clone, Default)]
pub struct ServeFaultPlan {
    inner: Arc<Inner>,
}

impl ServeFaultPlan {
    /// An empty plan (no faults fire until scheduled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules the next `times` scoring calls to stall for `dur` each.
    pub fn stall_scoring(&self, dur: Duration, times: u64) {
        self.inner.stall_us.store(dur.as_micros() as u64, Ordering::SeqCst);
        self.inner.stalls_left.store(times, Ordering::SeqCst);
    }

    /// Scoring-path hook: sleeps if a stall is scheduled, consuming one.
    pub fn maybe_stall(&self) {
        if take_one(&self.inner.stalls_left) {
            let us = self.inner.stall_us.load(Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(us));
        }
    }

    /// Schedules the next `n` accepted connections to be dropped.
    pub fn drop_connections(&self, n: u64) {
        self.inner.conn_drops_left.store(n, Ordering::SeqCst);
    }

    /// Accept-loop hook: true when the connection should be dropped,
    /// consuming one scheduled drop.
    pub fn take_connection_drop(&self) -> bool {
        take_one(&self.inner.conn_drops_left)
    }

    /// Schedules a forced reload inside each of the next `n` fold-in
    /// publish attempts, between reading the live snapshot and installing
    /// the candidate built from it.
    pub fn reload_during_fold_ins(&self, n: u64) {
        self.inner.fold_in_reloads_left.store(n, Ordering::SeqCst);
    }

    /// Fold-in hook: true when a reload should land now, consuming one.
    pub fn take_fold_in_reload(&self) -> bool {
        take_one(&self.inner.fold_in_reloads_left)
    }

    /// Stalls still scheduled (tests assert exhaustion).
    pub fn pending_stalls(&self) -> u64 {
        self.inner.stalls_left.load(Ordering::SeqCst)
    }

    /// Connection drops still scheduled.
    pub fn pending_connection_drops(&self) -> u64 {
        self.inner.conn_drops_left.load(Ordering::SeqCst)
    }

    /// Fold-in reloads still scheduled.
    pub fn pending_fold_in_reloads(&self) -> u64 {
        self.inner.fold_in_reloads_left.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalls_and_drops_fire_exactly_as_scheduled() {
        let plan = ServeFaultPlan::new();
        plan.stall_scoring(Duration::from_micros(1), 2);
        plan.maybe_stall();
        plan.maybe_stall();
        assert_eq!(plan.pending_stalls(), 0);
        plan.maybe_stall(); // budget exhausted: no-op

        plan.drop_connections(1);
        assert!(plan.take_connection_drop());
        assert!(!plan.take_connection_drop());
        // Clones share the schedule.
        let other = plan.clone();
        plan.drop_connections(1);
        assert!(other.take_connection_drop());
        assert!(!plan.take_connection_drop());

        plan.reload_during_fold_ins(2);
        assert!(plan.take_fold_in_reload());
        assert!(other.take_fold_in_reload());
        assert!(!plan.take_fold_in_reload());
        assert_eq!(plan.pending_fold_in_reloads(), 0);
    }
}
