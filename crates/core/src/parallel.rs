//! Scoped-thread row parallelism for the training hot loops.
//!
//! Forward/backward propagation, the per-row exp/log maps, and the
//! optimizer updates are all embarrassingly parallel over rows. At the
//! `paper` scale (Book: 79k users, 62k items) this is the difference
//! between minutes and hours per run; at test scale the helpers fall back
//! to straight loops.

use logirec_linalg::{Embedding, Scalar};

/// Rows below which spawning threads costs more than it saves.
const PAR_THRESHOLD: usize = 4_096;

/// Applies `f(row_index, row)` to every row of `out`, splitting across up
/// to `threads` scoped threads. Deterministic: each row is written by
/// exactly one thread and `f` must not depend on other rows of `out`.
pub fn for_each_row<S, F>(out: &mut Embedding<S>, threads: usize, f: F)
where
    S: Scalar,
    F: Fn(usize, &mut [S]) + Sync,
{
    split_rows(out, None, 0, threads, |r, row, _| f(r, row));
}

/// [`for_each_row`] over two tables with the same row count, split at the
/// same rows: `f(r, a_row, b_row)` writes row `r` of both, so a pass that
/// produces two tables (a layer and its running sum) reads its inputs once.
pub(crate) fn for_each_row_pair<S, F>(
    a: &mut Embedding<S>,
    b: &mut Embedding<S>,
    threads: usize,
    f: F,
) where
    S: Scalar,
    F: Fn(usize, &mut [S], &mut [S]) + Sync,
{
    assert_eq!(a.rows(), b.rows(), "paired tables differ in rows");
    split_rows(a, Some(b), 0, threads, f);
}

/// [`for_each_row`] with a `scratch_len` buffer per worker, handed to
/// `f(r, row, scratch)` for every row that worker writes: a per-row
/// temporary without a per-row allocation. `f` must not carry values from
/// one row to the next through it.
pub(crate) fn for_each_row_scratch<S, F>(
    out: &mut Embedding<S>,
    scratch_len: usize,
    threads: usize,
    f: F,
) where
    S: Scalar,
    F: Fn(usize, &mut [S], &mut [S]) + Sync,
{
    split_rows(out, None, scratch_len, threads, f);
}

/// The row splitter behind the `for_each_row*` helpers: rows go in
/// contiguous chunks of `rows / threads` (rounded up) to up to `threads`
/// scoped workers, or in one chunk on the calling thread at one thread or
/// below [`PAR_THRESHOLD`] rows. `f` gets each row of `a` with the same row
/// of `b`, or with the worker's `scratch_len` buffer when `b` is absent.
fn split_rows<S, F>(
    a: &mut Embedding<S>,
    b: Option<&mut Embedding<S>>,
    scratch_len: usize,
    threads: usize,
    f: F,
) where
    S: Scalar,
    F: Fn(usize, &mut [S], &mut [S]) + Sync,
{
    let rows = a.rows();
    if rows == 0 {
        return;
    }
    let (da, db) = (a.dim(), b.as_ref().map_or(0, |b| b.dim()));
    let threads = threads.max(1);
    let chunk_rows =
        if threads == 1 || rows < PAR_THRESHOLD { rows } else { rows.div_ceil(threads) };
    // Writes rows `base..base + n`, held in `a_rows` and `b_rows`.
    let run = |base: usize, n: usize, a_rows: &mut [S], b_rows: &mut [S]| {
        let mut scratch = vec![S::ZERO; scratch_len];
        for i in 0..n {
            let rb = if db == 0 { &mut scratch[..] } else { &mut b_rows[i * db..(i + 1) * db] };
            f(base + i, &mut a_rows[i * da..(i + 1) * da], rb);
        }
    };
    let mut a_rest = a.as_mut_slice();
    let mut b_rest = b.map_or(&mut [][..], |b| b.as_mut_slice());
    if chunk_rows == rows {
        run(0, rows, a_rest, b_rest);
        return;
    }
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for base in (0..rows).step_by(chunk_rows) {
            let n = chunk_rows.min(rows - base);
            let (a_rows, a_tail) = std::mem::take(&mut a_rest).split_at_mut(n * da);
            let (b_rows, b_tail) = std::mem::take(&mut b_rest).split_at_mut(n * db);
            (a_rest, b_rest) = (a_tail, b_tail);
            let run = &run;
            handles.push(scope.spawn(move || run(base, n, a_rows, b_rows)));
        }
        // Join explicitly and re-raise the first worker panic with its
        // original payload (std's scope exit would replace it with a generic
        // "a scoped thread panicked" message). Remaining threads are joined
        // by the scope during unwinding.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Runs `f(0), f(1), …, f(jobs - 1)` across up to `threads` scoped threads
/// and returns the results **in job order**. Jobs are statically chunked
/// (worker `w` gets a contiguous slice of job indices), so which worker
/// computes a job is fixed — but results are independent of that anyway:
/// every job sees only its own index.
///
/// This is the fan-out primitive for sharded gradient accumulation: jobs
/// are shards, and the caller feeds the ordered results into
/// [`crate::shard::merge_tree`].
pub fn map_jobs<T, F>(jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(jobs.max(1));
    if threads <= 1 || jobs <= 1 {
        return (0..jobs).map(f).collect();
    }
    let chunk = jobs.div_ceil(threads);
    let mut results: Vec<Vec<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let f = &f;
                let start = (w * chunk).min(jobs);
                let end = ((w + 1) * chunk).min(jobs);
                scope.spawn(move || (start..end).map(f).collect::<Vec<T>>())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut out = Vec::with_capacity(jobs);
    for part in &mut results {
        out.append(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use logirec_linalg::SplitMix64;

    #[test]
    fn parallel_matches_serial() {
        let mut rng = SplitMix64::new(1);
        let src: Embedding = Embedding::normal(PAR_THRESHOLD + 123, 7, 1.0, &mut rng);
        let mut serial: Embedding = Embedding::zeros(src.rows(), 7);
        for r in 0..src.rows() {
            let row = serial.row_mut(r);
            for (o, x) in row.iter_mut().zip(src.row(r)) {
                *o = x * 2.0 + r as f64;
            }
        }
        let mut parallel: Embedding = Embedding::zeros(src.rows(), 7);
        for_each_row(&mut parallel, 8, |r, row| {
            for (o, x) in row.iter_mut().zip(src.row(r)) {
                *o = x * 2.0 + r as f64;
            }
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn small_matrices_use_the_serial_path() {
        let mut m: Embedding = Embedding::zeros(10, 3);
        for_each_row(&mut m, 8, |r, row| row.fill(r as f64));
        for r in 0..10 {
            assert!(m.row(r).iter().all(|&x| x == r as f64));
        }
    }

    #[test]
    fn zero_width_rows_are_each_visited_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 4] {
            let mut m: Embedding = Embedding::zeros(PAR_THRESHOLD + 3, 0);
            let calls = AtomicUsize::new(0);
            for_each_row(&mut m, threads, |_, row| {
                assert!(row.is_empty());
                calls.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(calls.into_inner(), PAR_THRESHOLD + 3, "threads {threads}");
        }
    }

    #[test]
    fn single_thread_request_is_honored() {
        let mut m: Embedding = Embedding::zeros(PAR_THRESHOLD * 2, 2);
        for_each_row(&mut m, 1, |r, row| row.fill((r % 5) as f64));
        assert_eq!(m.row(6)[0], 1.0);
    }

    #[test]
    fn map_jobs_preserves_job_order() {
        for threads in [1usize, 2, 3, 8, 64] {
            let out = map_jobs(37, threads, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "threads {threads}");
        }
        assert!(map_jobs(0, 4, |i| i).is_empty());
        assert_eq!(map_jobs(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn map_jobs_panic_propagates_original_payload() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_jobs(8, 4, |i| {
                if i == 5 {
                    panic!("injected job panic at {i}");
                }
                i
            });
        }));
        let payload = result.expect_err("job panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("injected job panic"), "got: {msg:?}");
    }

    #[test]
    fn worker_panic_propagates_with_its_original_message() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Large enough to take the threaded path; the panic fires in a
            // worker thread, not the caller.
            let mut m: Embedding = Embedding::zeros(PAR_THRESHOLD + 1, 2);
            for_each_row(&mut m, 4, |r, _row| {
                if r == PAR_THRESHOLD / 2 {
                    panic!("injected worker panic at row {r}");
                }
            });
        }));
        let payload = result.expect_err("worker panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("injected worker panic"),
            "original panic message lost, got: {msg:?}"
        );
    }
}
