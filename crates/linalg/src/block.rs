//! The coarse copy of a row table that the exact top-K scan streams.
//!
//! [`RowBlocks`] rounds every row to `f32` and lays the rows out in blocks
//! of [`BLOCK_ROWS`], dimension-major inside each block: column `j` of rows
//! `16b … 16b+15` is sixteen contiguous values, one 64-byte line. The key
//! kernels keep one accumulator per row, so their inner loop is sixteen
//! independent lanes that LLVM vectorizes at the default target (four
//! packed `mulps`/`addps` chains on x86-64). A row of 65 coordinates costs
//! 260 bytes, half of its `f64` row, and the scan over it is bound by those
//! bytes (DESIGN.md, "Exact scan").
//!
//! The keys are **coarse**: an `f32` sum of the rounded coordinates, in the
//! kernel's own order. They only select candidates. Beside each row the
//! table keeps [`RowBlocks::norms`], an upper bound on the rounded row's
//! Euclidean norm, from which `logirec_core::scan` bounds how far a coarse
//! key can sit from the exact one; the scan then re-keys the few rows the
//! bound cannot rule out from the table it was built from, at that table's
//! precision.
//!
//! Sixteen lanes, not eight: four independent `addps` chains per block
//! instead of two. On the 8,836 × 65 catalog of the `scan` bench a whole
//! k = 10 query took 111–127 µs with sixteen lanes and 124–138 µs with
//! eight (alternating runs, 2-vCPU x86-64 guest).

use std::ops::Range;

use crate::{Embedding, Scalar};

/// Rows per block: sixteen `f32` lanes, one 64-byte cache line per column.
pub const BLOCK_ROWS: usize = 16;

/// A blocked `f32` copy of a row table and its row norms (see the module
/// docs).
#[derive(Debug, Clone, PartialEq)]
pub struct RowBlocks {
    rows: usize,
    dim: usize,
    /// `data[(b·dim + j)·BLOCK_ROWS + l]` is element `j` of row
    /// `b·BLOCK_ROWS + l`, rounded to `f32`; the lanes past the last row
    /// are zero.
    data: Vec<f32>,
    /// [`norm_bound`] of each rounded row.
    norms: Vec<f64>,
}

impl RowBlocks {
    /// Rounds and blocks a copy of `table`.
    pub fn new<S: Scalar>(table: &Embedding<S>) -> Self {
        Self::gather(table, 0..table.rows())
    }

    /// Rounds and blocks a copy of the rows of `table` in the order `order`
    /// lists them: row `r` of the blocked table is `table.row(order[r])`.
    /// The rows are read straight from `table`, with no reordered
    /// intermediate.
    pub fn gather<S: Scalar>(
        table: &Embedding<S>,
        order: impl ExactSizeIterator<Item = usize>,
    ) -> Self {
        let (rows, dim) = (order.len(), table.dim());
        let mut data = vec![0.0f32; rows.div_ceil(BLOCK_ROWS) * dim * BLOCK_ROWS];
        let mut norms = Vec::with_capacity(rows);
        let mut rounded = vec![0.0f32; dim];
        for (r, src) in order.enumerate() {
            for (x, &v) in rounded.iter_mut().zip(table.row(src)) {
                *x = v.to_f64() as f32;
            }
            let base = (r / BLOCK_ROWS) * dim * BLOCK_ROWS + r % BLOCK_ROWS;
            for (j, &x) in rounded.iter().enumerate() {
                data[base + j * BLOCK_ROWS] = x;
            }
            norms.push(norm_bound(&rounded));
        }
        Self { rows, dim, data, norms }
    }

    /// Number of rows of the blocked table.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// [`norm_bound`] of each rounded row, in row order.
    pub fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// `out[i] = Σ_j q_j·v_j` over the rounded row `rows.start + i`, summed
    /// in `f32` (one accumulator per row, columns in order) and widened.
    pub fn dot_keys(&self, q: &[f32], rows: Range<usize>, out: &mut [f64]) {
        self.keys_with(q, rows, out, dot_block);
    }

    /// `out[i] = Σ_j (q_j − v_j)²` over the rounded row `rows.start + i`,
    /// summed in `f32` as [`Self::dot_keys`] sums, and widened.
    pub fn dist_sq_keys(&self, q: &[f32], rows: Range<usize>, out: &mut [f64]) {
        self.keys_with(q, rows, out, dist_sq_block);
    }

    /// Runs `block_keys` (the keys of all lanes of one block) over every
    /// block that `rows` touches and leaves the keys of the rows in `rows`
    /// in `out`, widened and in row order; a block that `rows` starts or
    /// ends inside is computed whole and its lanes in range copied out.
    #[inline(always)]
    fn keys_with(
        &self,
        q: &[f32],
        rows: Range<usize>,
        out: &mut [f64],
        block_keys: fn(&[f32], &[f32]) -> [f32; BLOCK_ROWS],
    ) {
        assert_eq!(q.len(), self.dim, "query width");
        assert!(rows.start <= rows.end && rows.end <= self.rows, "row range");
        assert_eq!(out.len(), rows.len(), "key buffer length");
        let stride = self.dim * BLOCK_ROWS;
        let mut lane = rows.start % BLOCK_ROWS;
        let mut out = out;
        for block in self.data[rows.start / BLOCK_ROWS * stride..].chunks_exact(stride) {
            if out.is_empty() {
                break;
            }
            let take = (BLOCK_ROWS - lane).min(out.len());
            let (head, rest) = out.split_at_mut(take);
            for (o, key) in head.iter_mut().zip(&block_keys(block, q)[lane..]) {
                *o = f64::from(*key);
            }
            out = rest;
            lane = 0;
        }
    }
}

// The block kernels return their lanes as `f32` from a call of their own:
// inlined beside the widening to `f64`, LLVM packs the accumulators two
// lanes to a register to match `cvtps2pd`, which halves the kernel's
// throughput.

/// The dot products of `q` with the sixteen rows of one block.
#[inline(never)]
fn dot_block(block: &[f32], q: &[f32]) -> [f32; BLOCK_ROWS] {
    let mut acc = [0.0f32; BLOCK_ROWS];
    for (col, &qj) in block.chunks_exact(BLOCK_ROWS).zip(q) {
        let col: &[f32; BLOCK_ROWS] = col.try_into().expect("one block column");
        for l in 0..BLOCK_ROWS {
            acc[l] += qj * col[l];
        }
    }
    acc
}

/// The squared distances from `q` to the sixteen rows of one block.
#[inline(never)]
fn dist_sq_block(block: &[f32], q: &[f32]) -> [f32; BLOCK_ROWS] {
    let mut acc = [0.0f32; BLOCK_ROWS];
    for (col, &qj) in block.chunks_exact(BLOCK_ROWS).zip(q) {
        let col: &[f32; BLOCK_ROWS] = col.try_into().expect("one block column");
        for l in 0..BLOCK_ROWS {
            let d = qj - col[l];
            acc[l] += d * d;
        }
    }
    acc
}

/// An upper bound on the Euclidean norm `‖x‖₂` of an `f32` vector. The
/// squares of `f32` values are exact in `f64` and neither underflow nor
/// overflow there, so only the `f64` sum and root round, by a relative
/// `(n + 1)·2⁻⁵³` at most for `n` coordinates; the result is raised by
/// `(n + 2)·2⁻⁵²` to cover both. A NaN or infinite coordinate gives a NaN
/// or infinite bound.
pub fn norm_bound(x: &[f32]) -> f64 {
    let sum: f64 = x.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
    sum.sqrt() * (1.0 + (x.len() as f64 + 2.0) * f64::EPSILON)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn table(rows: &[&[f64]]) -> Embedding<f64> {
        let mut t = Embedding::zeros(0, rows[0].len());
        for row in rows {
            t.push_row(row);
        }
        t
    }

    /// The rounded row `r` of `table`.
    fn rounded(table: &Embedding<f64>, r: usize) -> Vec<f32> {
        table.row(r).iter().map(|&x| x as f32).collect()
    }

    #[test]
    fn keys_sum_the_rounded_rows_in_column_order() {
        let mut rng = SplitMix64::new(5);
        // 37 rows: two full blocks and a padded tail.
        let table = Embedding::<f64>::normal(37, 13, 1.7, &mut rng);
        let blocks = RowBlocks::new(&table);
        let q: Vec<f32> = (0..13).map(|_| (0.9 * rng.normal()) as f32).collect();
        let mut keys = vec![0.0; table.rows()];
        blocks.dot_keys(&q, 0..table.rows(), &mut keys);
        for (r, key) in keys.iter().enumerate() {
            let row = rounded(&table, r);
            let want = q.iter().zip(&row).fold(0.0f32, |acc, (a, b)| acc + a * b);
            assert_eq!(key.to_bits(), f64::from(want).to_bits(), "dot row {r}");
        }
        blocks.dist_sq_keys(&q, 0..table.rows(), &mut keys);
        for (r, key) in keys.iter().enumerate() {
            let row = rounded(&table, r);
            let want = q.iter().zip(&row).fold(0.0f32, |acc, (a, b)| acc + (a - b) * (a - b));
            assert_eq!(key.to_bits(), f64::from(want).to_bits(), "dist_sq row {r}");
        }
    }

    #[test]
    fn row_ranges_and_gathered_orders_key_like_the_whole_table() {
        let mut rng = SplitMix64::new(8);
        let table = Embedding::<f64>::normal(41, 6, 1.3, &mut rng);
        let q: Vec<f32> = (0..6).map(|_| (0.7 * rng.normal()) as f32).collect();
        let blocks = RowBlocks::new(&table);
        let mut whole = vec![0.0; 41];
        // Ranges that start and end inside a block, span blocks, cover one
        // row, end at the padded tail, or are empty.
        let ranges = [(0, 0), (3, 5), (5, 29), (16, 32), (15, 41), (40, 41), (41, 41)];
        for dot in [true, false] {
            let keys = |b: &RowBlocks, rows: Range<usize>, out: &mut [f64]| {
                if dot {
                    b.dot_keys(&q, rows, out)
                } else {
                    b.dist_sq_keys(&q, rows, out)
                }
            };
            keys(&blocks, 0..41, &mut whole);
            for (a, b) in ranges {
                let mut part = vec![f64::NAN; b - a];
                keys(&blocks, a..b, &mut part);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&part), bits(&whole[a..b]), "rows {a}..{b}");
            }
            let order: Vec<usize> = (0..41).map(|r| (r * 5) % 41).collect();
            let gathered = RowBlocks::gather(&table, order.iter().copied());
            let mut by_position = vec![0.0; 41];
            keys(&gathered, 0..41, &mut by_position);
            for (p, (key, &src)) in by_position.iter().zip(&order).enumerate() {
                assert_eq!(key.to_bits(), whole[src].to_bits(), "row {src}");
                assert_eq!(gathered.norms()[p], blocks.norms()[src], "norm of row {src}");
            }
        }
    }

    #[test]
    fn norms_bound_the_rounded_rows_from_above() {
        let mut rng = SplitMix64::new(12);
        let table = Embedding::<f64>::normal(20, 65, 3e4, &mut rng);
        let blocks = RowBlocks::new(&table);
        for r in 0..table.rows() {
            // The exact norm of the rounded row, to a relative 1e-15.
            let row = rounded(&table, r);
            let scale = row.iter().fold(0.0f64, |m, &x| m.max(f64::from(x).abs()));
            let sum: f64 = row.iter().map(|&x| (f64::from(x) / scale).powi(2)).sum();
            let norm = scale * sum.sqrt();
            assert!(blocks.norms()[r] >= norm, "row {r}");
            assert!(blocks.norms()[r] <= norm * (1.0 + 1e-12), "row {r}");
        }
        // f32 subnormals square exactly in f64, and a non-finite
        // coordinate gives a non-finite bound.
        let tiny = f32::from_bits(1);
        assert!(norm_bound(&[tiny, 0.0]) >= f64::from(tiny));
        assert!(!norm_bound(&[f32::INFINITY, 1.0]).is_finite());
        assert!(norm_bound(&[f32::NAN]).is_nan());
    }

    #[test]
    fn an_f32_table_is_copied_exactly() {
        // At f32 the coarse rows are the table's own rows, so the scan's
        // bound has only the two summation orders to cover.
        let mut rng = SplitMix64::new(3);
        let table = Embedding::<f32>::normal(19, 7, 2.0, &mut rng);
        let blocks = RowBlocks::new(&table);
        for r in 0..19 {
            for (j, &x) in table.row(r).iter().enumerate() {
                let at = (r / BLOCK_ROWS * 7 + j) * BLOCK_ROWS + r % BLOCK_ROWS;
                assert_eq!(blocks.data[at].to_bits(), x.to_bits(), "row {r}, column {j}");
            }
        }
    }

    #[test]
    fn layout_is_dimension_major_within_a_block() {
        let table = table(&[&[1.0, 2.0], &[3.0, 0.1]]);
        let blocks = RowBlocks::new(&table);
        assert_eq!(blocks.rows(), 2);
        assert_eq!(blocks.dim(), 2);
        assert_eq!(&blocks.data[..2], &[1.0, 3.0]);
        assert_eq!(&blocks.data[BLOCK_ROWS..BLOCK_ROWS + 2], &[2.0, 0.1f32]);
        // Beyond the f32 range a coordinate rounds to infinity.
        let huge = RowBlocks::new(&self::table(&[&[1e39, 0.0]]));
        assert_eq!(huge.data[0], f32::INFINITY);
        assert_eq!(huge.norms()[0], f64::INFINITY);
    }
}
