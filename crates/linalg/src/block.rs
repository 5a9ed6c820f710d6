//! A row table re-laid out for the exact top-K scan.
//!
//! [`RowBlocks`] copies a row-major table into blocks of [`BLOCK_ROWS`]
//! rows, dimension-major inside each block: column `j` of rows
//! `8b … 8b+7` is eight contiguous values. The key kernels keep one
//! accumulator per row, so their inner loop is eight independent lanes
//! that LLVM vectorizes at the default target (packed `mulpd`/`addpd` on
//! x86-64), while each row still sums its terms one at a time, left to
//! right — the order of the sequential `f64` [`Scalar::dot`] and
//! [`Scalar::dist_sq`]. Every key is therefore bit-identical to the
//! row-at-a-time reduction; only the memory layout changes.

use std::ops::Range;

use crate::{Embedding, Scalar};

/// Rows per block: eight `f64` lanes fill four 128-bit (or two 256-bit)
/// vector registers.
pub const BLOCK_ROWS: usize = 8;

/// A blocked copy of a row table (see the module docs). Only built for
/// precisions whose reductions are sequential
/// ([`Scalar::SEQUENTIAL_REDUCTIONS`]), the only case its kernels
/// reproduce bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct RowBlocks<S: Scalar = f64> {
    rows: usize,
    dim: usize,
    /// `data[(b·dim + j)·BLOCK_ROWS + l]` is element `j` of row
    /// `b·BLOCK_ROWS + l`; the lanes past the last row are zero.
    data: Vec<S>,
}

impl<S: Scalar> RowBlocks<S> {
    /// Blocks a copy of `table`.
    ///
    /// Panics unless `S` reduces sequentially: for chunked reductions
    /// (`f32`) the kernels would not reproduce [`Scalar::dot`].
    pub fn new(table: &Embedding<S>) -> Self {
        Self::gather(table, 0..table.rows())
    }

    /// Blocks a copy of the rows of `table` in the order `order` lists
    /// them: row `r` of the blocked table is `table.row(order[r])`. The
    /// rows are read straight from `table`, with no reordered intermediate.
    pub fn gather(table: &Embedding<S>, order: impl ExactSizeIterator<Item = usize>) -> Self {
        assert!(
            S::SEQUENTIAL_REDUCTIONS,
            "RowBlocks needs a sequential reduction order"
        );
        let (rows, dim) = (order.len(), table.dim());
        let mut data = vec![S::ZERO; rows.div_ceil(BLOCK_ROWS) * dim * BLOCK_ROWS];
        for (r, src) in order.enumerate() {
            let base = (r / BLOCK_ROWS) * dim * BLOCK_ROWS + r % BLOCK_ROWS;
            for (j, &x) in table.row(src).iter().enumerate() {
                data[base + j * BLOCK_ROWS] = x;
            }
        }
        Self { rows, dim, data }
    }

    /// Number of rows of the blocked table.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `out[i] = −⟨q, row rows.start + i⟩_L = −((−q₀)·v₀ + Σ_{j≥1} q_j·v_j)`,
    /// the Lorentz distance key, widened to `f64`. Bit-identical to
    /// `-lorentz::inner(q, row)`: the spatial sum starts from the empty
    /// reduction (`S::dot(&[], &[])`) and adds each product in order.
    pub fn lorentz_keys(&self, q: &[S], rows: Range<usize>, out: &mut [f64]) {
        assert_eq!(q.len(), self.dim, "query width");
        let start = S::dot(&[], &[]);
        let q0 = -q[0];
        self.keys_with(rows, out, |block, out| {
            let (time, space) = block.split_at(BLOCK_ROWS);
            let mut acc = [start; BLOCK_ROWS];
            for (col, &qj) in space.chunks_exact(BLOCK_ROWS).zip(&q[1..]) {
                for l in 0..BLOCK_ROWS {
                    acc[l] += qj * col[l];
                }
            }
            for l in 0..BLOCK_ROWS {
                out[l] = (-(q0 * time[l] + acc[l])).to_f64();
            }
        });
    }

    /// `out[i] = Σ_j (q_j − v_j)²` over row `rows.start + i`, the Euclidean
    /// distance key, widened to `f64`. Bit-identical to
    /// `Scalar::dist_sq(q, row)`.
    pub fn dist_sq_keys(&self, q: &[S], rows: Range<usize>, out: &mut [f64]) {
        assert_eq!(q.len(), self.dim, "query width");
        let start = S::dist_sq(&[], &[]);
        self.keys_with(rows, out, |block, out| {
            let mut acc = [start; BLOCK_ROWS];
            for (col, &qj) in block.chunks_exact(BLOCK_ROWS).zip(q) {
                for l in 0..BLOCK_ROWS {
                    let d = qj - col[l];
                    acc[l] += d * d;
                }
            }
            for l in 0..BLOCK_ROWS {
                out[l] = acc[l].to_f64();
            }
        });
    }

    /// Runs `block_keys` (the keys of all eight lanes of one block) over
    /// every block that `rows` touches and leaves the keys of the rows in
    /// `rows` in `out`, in row order. A full block writes straight into
    /// `out`; a block that `rows` starts or ends inside is computed whole
    /// into a scratch block and its lanes in range copied out.
    #[inline(always)]
    fn keys_with(
        &self,
        rows: Range<usize>,
        out: &mut [f64],
        block_keys: impl Fn(&[S], &mut [f64; BLOCK_ROWS]),
    ) {
        assert!(rows.start <= rows.end && rows.end <= self.rows, "row range");
        assert_eq!(out.len(), rows.len(), "key buffer length");
        let stride = self.dim * BLOCK_ROWS;
        let mut lane = rows.start % BLOCK_ROWS;
        let mut out = out;
        let mut edge = [0.0; BLOCK_ROWS];
        for block in self.data[rows.start / BLOCK_ROWS * stride..].chunks_exact(stride) {
            if out.is_empty() {
                break;
            }
            let take = (BLOCK_ROWS - lane).min(out.len());
            let (head, rest) = out.split_at_mut(take);
            match <&mut [f64; BLOCK_ROWS]>::try_from(&mut *head) {
                Ok(full) => block_keys(block, full),
                Err(_) => {
                    block_keys(block, &mut edge);
                    head.copy_from_slice(&edge[lane..lane + take]);
                }
            }
            out = rest;
            lane = 0;
        }
    }
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

    /// `-⟨q, v⟩_L` exactly as `lorentz::inner` spells it.
    fn lorentz_key(q: &[f64], v: &[f64]) -> f64 {
        -(-q[0] * v[0] + <f64 as Scalar>::dot(&q[1..], &v[1..]))
    }

    #[test]
    fn keys_match_the_row_reductions_bit_for_bit() {
        let mut rng = SplitMix64::new(5);
        // 19 rows: two full blocks and a padded tail.
        let table = Embedding::<f64>::normal(19, 13, 1.7, &mut rng);
        let blocks = RowBlocks::new(&table);
        let q = Embedding::<f64>::normal(1, 13, 0.9, &mut rng);
        let q = q.row(0);
        let mut keys = vec![0.0; table.rows()];
        blocks.lorentz_keys(q, 0..table.rows(), &mut keys);
        for (r, row) in table.iter_rows().enumerate() {
            assert_eq!(
                keys[r].to_bits(),
                lorentz_key(q, row).to_bits(),
                "lorentz row {r}"
            );
        }
        blocks.dist_sq_keys(q, 0..table.rows(), &mut keys);
        for (r, row) in table.iter_rows().enumerate() {
            let want = <f64 as Scalar>::dist_sq(q, row);
            assert_eq!(keys[r].to_bits(), want.to_bits(), "dist_sq row {r}");
        }
    }

    #[test]
    fn row_ranges_and_gathered_orders_key_like_the_whole_table() {
        let mut rng = SplitMix64::new(8);
        let table = Embedding::<f64>::normal(21, 6, 1.3, &mut rng);
        let q = Embedding::<f64>::normal(1, 6, 0.7, &mut rng);
        let q = q.row(0);
        let blocks = RowBlocks::new(&table);
        let mut whole = vec![0.0; 21];
        // Ranges that start and end inside a block, span blocks, cover one
        // row, end at the padded tail, or are empty.
        let ranges = [(0, 0), (3, 5), (5, 13), (8, 16), (7, 21), (20, 21), (21, 21)];
        for lorentz in [true, false] {
            let keys = |b: &RowBlocks<f64>, rows: Range<usize>, out: &mut [f64]| {
                if lorentz {
                    b.lorentz_keys(q, rows, out)
                } else {
                    b.dist_sq_keys(q, rows, out)
                }
            };
            keys(&blocks, 0..21, &mut whole);
            for (a, b) in ranges {
                let mut part = vec![f64::NAN; b - a];
                keys(&blocks, a..b, &mut part);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&part), bits(&whole[a..b]), "rows {a}..{b}");
            }
            let order: Vec<usize> = (0..21).map(|r| (r * 5) % 21).collect();
            let gathered = RowBlocks::gather(&table, order.iter().copied());
            let mut by_position = vec![0.0; 21];
            keys(&gathered, 0..21, &mut by_position);
            for (key, &src) in by_position.iter().zip(&order) {
                assert_eq!(key.to_bits(), whole[src].to_bits(), "row {src}");
            }
        }
    }

    #[test]
    fn signed_zero_sums_start_like_the_sequential_reduction() {
        // All spatial products are −0.0: the sum's sign depends on the
        // reduction's starting value, which the kernel must share.
        let table = table(&[&[0.0, -1.0, -2.0]]);
        let q = [0.0, 0.0, 0.0];
        let mut keys = [0.0];
        RowBlocks::new(&table).lorentz_keys(&q, 0..1, &mut keys);
        assert_eq!(keys[0].to_bits(), lorentz_key(&q, table.row(0)).to_bits());
    }

    #[test]
    fn layout_is_dimension_major_within_a_block() {
        let table = table(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let blocks = RowBlocks::new(&table);
        assert_eq!(blocks.rows(), 2);
        assert_eq!(blocks.dim(), 2);
        assert_eq!(&blocks.data[..2], &[1.0, 3.0]);
        assert_eq!(&blocks.data[BLOCK_ROWS..BLOCK_ROWS + 2], &[2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "sequential reduction order")]
    fn chunked_precisions_are_refused() {
        RowBlocks::new(&Embedding::<f32>::zeros(3, 4));
    }
}
