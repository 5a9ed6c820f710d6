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
        assert!(
            S::SEQUENTIAL_REDUCTIONS,
            "RowBlocks needs a sequential reduction order"
        );
        let (rows, dim) = (table.rows(), table.dim());
        let mut data = vec![S::ZERO; rows.div_ceil(BLOCK_ROWS) * dim * BLOCK_ROWS];
        for (r, row) in table.iter_rows().enumerate() {
            let base = (r / BLOCK_ROWS) * dim * BLOCK_ROWS + r % BLOCK_ROWS;
            for (j, &x) in row.iter().enumerate() {
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

    /// `out[r] = −⟨q, row r⟩_L = −((−q₀)·v₀ + Σ_{j≥1} q_j·v_j)`, the
    /// Lorentz distance key, widened to `f64`. Bit-identical to
    /// `-lorentz::inner(q, row)`: the spatial sum starts from the empty
    /// reduction (`S::dot(&[], &[])`) and adds each product in order.
    pub fn lorentz_keys(&self, q: &[S], out: &mut [f64]) {
        assert_eq!(q.len(), self.dim, "query width");
        assert_eq!(out.len(), self.rows, "key buffer length");
        let start = S::dot(&[], &[]);
        let q0 = -q[0];
        for (block, out) in self
            .data
            .chunks_exact(self.dim * BLOCK_ROWS)
            .zip(out.chunks_mut(BLOCK_ROWS))
        {
            let (time, space) = block.split_at(BLOCK_ROWS);
            let mut acc = [start; BLOCK_ROWS];
            for (col, &qj) in space.chunks_exact(BLOCK_ROWS).zip(&q[1..]) {
                for l in 0..BLOCK_ROWS {
                    acc[l] += qj * col[l];
                }
            }
            for (l, o) in out.iter_mut().enumerate() {
                *o = (-(q0 * time[l] + acc[l])).to_f64();
            }
        }
    }

    /// `out[r] = Σ_j (q_j − v_j)²`, the Euclidean distance key, widened to
    /// `f64`. Bit-identical to `Scalar::dist_sq(q, row)`.
    pub fn dist_sq_keys(&self, q: &[S], out: &mut [f64]) {
        assert_eq!(q.len(), self.dim, "query width");
        assert_eq!(out.len(), self.rows, "key buffer length");
        let start = S::dist_sq(&[], &[]);
        for (block, out) in self
            .data
            .chunks_exact(self.dim * BLOCK_ROWS)
            .zip(out.chunks_mut(BLOCK_ROWS))
        {
            let mut acc = [start; BLOCK_ROWS];
            for (col, &qj) in block.chunks_exact(BLOCK_ROWS).zip(q) {
                for l in 0..BLOCK_ROWS {
                    let d = qj - col[l];
                    acc[l] += d * d;
                }
            }
            for (o, &a) in out.iter_mut().zip(&acc) {
                *o = a.to_f64();
            }
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
        blocks.lorentz_keys(q, &mut keys);
        for (r, row) in table.iter_rows().enumerate() {
            assert_eq!(
                keys[r].to_bits(),
                lorentz_key(q, row).to_bits(),
                "lorentz row {r}"
            );
        }
        blocks.dist_sq_keys(q, &mut keys);
        for (r, row) in table.iter_rows().enumerate() {
            let want = <f64 as Scalar>::dist_sq(q, row);
            assert_eq!(keys[r].to_bits(), want.to_bits(), "dist_sq row {r}");
        }
    }

    #[test]
    fn signed_zero_sums_start_like_the_sequential_reduction() {
        // All spatial products are −0.0: the sum's sign depends on the
        // reduction's starting value, which the kernel must share.
        let table = table(&[&[0.0, -1.0, -2.0]]);
        let q = [0.0, 0.0, 0.0];
        let mut keys = [0.0];
        RowBlocks::new(&table).lorentz_keys(&q, &mut keys);
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
