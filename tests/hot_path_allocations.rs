//! What the per-request and per-row hot paths allocate: an approx read
//! allocates nothing the size of the catalog (the scan's walk keeps one
//! run's bounds, in a stack buffer), and a Lorentz RSGD step on a d = 64
//! row allocates nothing at all.
//!
//! This binary installs its own counting global allocator. It counts per
//! thread, so work on other threads never enters a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use logirec_suite::core::{LogiRec, LogiRecConfig, Precision};
use logirec_suite::data::{DatasetSpec, Scale};
use logirec_suite::hyperbolic::{lorentz, rsgd};
use logirec_suite::linalg::{Scalar, SplitMix64};
use logirec_suite::serve::{IndexConfig, ModelSnapshot, ServeContext};

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

#[test]
fn an_approx_read_allocates_nothing_the_size_of_the_catalog() {
    let ds = DatasetSpec::ciao(Scale::Small).generate(5);
    let model = LogiRec::new(LogiRecConfig::test_config(), &ds);
    let ctx = Arc::new(ServeContext::from_dataset(&ds));
    let index = Some(IndexConfig::default());
    for precision in [Precision::F64, Precision::F32] {
        let snap = ModelSnapshot::build_with_index(model.clone(), precision, &ctx, "small", index)
            .expect("valid");
        let bound = 8 * ds.n_items() as u64;
        for u in (0..ds.n_users()).step_by(37) {
            let before = allocated();
            let (items, _, report) =
                snap.approx_top_k(u, 10, None).expect("in range").expect("indexed");
            let spent = allocated() - before;
            assert_eq!(items.len(), 10);
            assert!(report.clusters_probed < report.clusters, "user {u}: {report:?}");
            assert!(
                spent < bound,
                "{precision:?} user {u}: an approx read allocated {spent} B (bound {bound})"
            );
        }
    }
}

fn one_lorentz_step_allocates_nothing<S: Scalar>() {
    let mut rng = SplitMix64::new(9);
    let tangent: Vec<S> = (0..64).map(|_| S::from_f64(0.3 * rng.normal())).collect();
    let grad: Vec<S> = (0..65).map(|_| S::from_f64(rng.normal())).collect();
    let mut x = lorentz::exp_origin(&tangent);
    let before = allocated();
    rsgd::lorentz_step(&mut x, &grad, 0.05);
    assert_eq!(allocated() - before, 0, "a d = 64 Lorentz step allocated");
    assert!(x.iter().all(|v| v.is_finite()));
}

#[test]
fn a_lorentz_step_on_a_d64_row_allocates_nothing() {
    one_lorentz_step_allocates_nothing::<f64>();
    one_lorentz_step_allocates_nothing::<f32>();
}
