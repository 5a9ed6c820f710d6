//! A served user fold-in allocates its own row, not the catalog or the
//! context: over a chain of user fold-ins on small Ciao, each folding in the
//! same positives, the bytes one `ModelSnapshot::fold_in` allocates stay
//! flat as the chain grows and below one score buffer plus a few KiB, and
//! the candidate shares its tables with the snapshot it grew from.
//!
//! This binary installs its own counting global allocator. It counts per
//! thread, so work on other threads never enters a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use logirec_suite::core::{LogiRec, LogiRecConfig, Precision};
use logirec_suite::data::{DatasetSpec, Scale};
use logirec_suite::serve::{ModelSnapshot, ServeContext};

struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes as u64));
}

/// Bytes this thread has allocated so far (a reallocation counts its new
/// size).
fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// The two windows of the chain measured: fold-ins 11–30 and 1,001–1,020.
const WINDOWS: [std::ops::RangeInclusive<usize>; 2] = [11..=30, 1_001..=1_020];

#[test]
fn a_user_fold_in_allocates_its_row_not_the_catalog() {
    let ds = DatasetSpec::ciao(Scale::Small).generate(5);
    let model = LogiRec::new(LogiRecConfig::test_config(), &ds);
    let ctx = Arc::new(ServeContext::from_dataset(&ds));
    let mut snap = ModelSnapshot::build(model, Precision::F64, &ctx, "small").expect("valid");
    let positives = ds.train.items_of(0).to_vec();
    // Per window: the bytes of each fold-in, and how many fold-ins copied
    // the user finals, the seen filter and the training interactions.
    let mut bytes = [Vec::new(), Vec::new()];
    let mut copied = [[0usize; 3]; 2];
    for j in 1..=*WINDOWS[1].end() {
        let before = allocated();
        let (next, id) = snap.fold_in(false, &positives, None, None).expect("fold in");
        let spent = allocated() - before;
        assert_eq!(id, ds.n_users() + j - 1);
        if let Some(w) = WINDOWS.iter().position(|r| r.contains(&j)) {
            bytes[w].push(spent);
            let [user_finals, item_finals, scan_table] = next.shares_tables_with(&snap);
            assert!(item_finals && scan_table, "fold-in {j} copied the item side");
            let (grown, base) = (next.ctx(), snap.ctx());
            let shared = [
                user_finals,
                grown.seen().shares_storage_with(base.seen()),
                grown.train().shares_storage_with(base.train()),
            ];
            for (n, shared) in copied[w].iter_mut().zip(shared) {
                *n += usize::from(!shared);
            }
        }
        snap = next;
    }
    // An appended table is copied only when its buffer is full, into one
    // with room to double, so at most once per window.
    for (w, copies) in copied.iter().enumerate() {
        assert!(
            copies.iter().all(|&n| n <= 1),
            "window {w}: fold-ins that copied [user finals, seen, train]: {copies:?}"
        );
    }
    let [early, late] = bytes.map(median);
    let bound = 8 * ds.n_items() as u64 + 16 * 1024;
    assert!(early.abs_diff(late) <= 1024, "fold-in bytes grew with the chain: {early} → {late}");
    assert!(early.max(late) < bound, "a fold-in allocated {early} / {late} B (bound {bound})");
}
