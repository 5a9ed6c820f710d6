//! Peak-RSS readings from the kernel's own accounting in
//! `/proc/self/status`.
//!
//! Linux-only by nature: off Linux (or in containers without procfs) every
//! function returns `None` and the gauge is simply never set. The peak is
//! the kernel's high-water mark (`VmHWM`), so it covers every allocation
//! spike over the process's lifetime, not only the moments a caller
//! happens to read it.

use crate::Telemetry;

/// The gauge name used by [`set_peak_rss_gauge`] and the bench bins.
pub const PEAK_RSS_GAUGE: &str = "process.peak_rss_bytes";

/// A `kB` line of `/proc/self/status` (`VmRSS`, `VmHWM`, …), in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    let kib: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib * 1024)
}

/// Current resident set size (`VmRSS`) in bytes; `None` off Linux or when
/// procfs is unreadable.
pub fn current_rss_bytes() -> Option<u64> {
    status_bytes("VmRSS")
}

/// Peak resident set size over the process's lifetime (`VmHWM`) in bytes;
/// `None` off Linux or when procfs is unreadable.
pub fn sample_peak_rss_bytes() -> Option<u64> {
    status_bytes("VmHWM")
}

/// Reads the peak and sets the [`PEAK_RSS_GAUGE`] gauge on `tel`.
/// Returns the peak; a no-op `None` when it is unavailable (the gauge is
/// left unset rather than set to a lie).
pub fn set_peak_rss_gauge(tel: &Telemetry) -> Option<u64> {
    let peak = sample_peak_rss_bytes()?;
    tel.gauge(PEAK_RSS_GAUGE).set(peak as f64);
    Some(peak)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_monotone_when_available() {
        let Some(a) = sample_peak_rss_bytes() else {
            return; // not Linux / no procfs: the no-op contract
        };
        assert!(a > 0, "a live process has resident pages");
        // Touch some memory, then re-sample: the peak never decreases.
        let ballast = vec![1u8; 1 << 20];
        std::hint::black_box(&ballast);
        let b = sample_peak_rss_bytes().expect("procfs was readable a moment ago");
        assert!(b >= a, "peak went backwards: {a} -> {b}");
    }

    #[test]
    fn a_spike_between_reads_is_in_the_peak() {
        let Some(before) = sample_peak_rss_bytes() else {
            return; // not Linux / no procfs: the no-op contract
        };
        // Touch more memory than the peak so far and free it before the
        // next read: a high-water mark folded from samples would miss it.
        let spike = before as usize + (16 << 20);
        let ballast = vec![1u8; spike];
        std::hint::black_box(&ballast);
        drop(ballast);
        let after = sample_peak_rss_bytes().expect("procfs was readable a moment ago");
        assert!(after >= spike as u64, "peak {after} missed a {spike}-byte spike");
    }

    #[test]
    fn gauge_is_set_from_the_sample() {
        let tel = Telemetry::enabled();
        // Read the current size first: other tests allocate concurrently,
        // and only a peak read afterwards is sure to cover it.
        let current = current_rss_bytes().unwrap_or(0);
        match set_peak_rss_gauge(&tel) {
            None => assert_eq!(tel.gauge(PEAK_RSS_GAUGE).get(), 0.0),
            Some(peak) => {
                assert_eq!(tel.gauge(PEAK_RSS_GAUGE).get(), peak as f64);
                assert!(peak >= current / 2);
            }
        }
    }
}
