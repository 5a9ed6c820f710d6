//! Row-major embedding storage.
//!
//! An [`Embedding`] is an `n × d` matrix whose rows are the latent vectors of
//! users, items, or tags. It is deliberately minimal: one contiguous
//! row-major buffer, row views, and the initialization schemes the paper's
//! models need.
//!
//! # Copy-on-write
//!
//! The buffer sits behind an `Arc`, so an `Embedding` keeps value semantics
//! while a clone costs one reference-count increment: the clone and the
//! original share every element until one of them writes. Every `&mut`
//! accessor ([`Embedding::row_mut`], [`Embedding::rows_mut2`],
//! [`Embedding::as_mut_slice`], [`Embedding::fill_zero`]) first makes the
//! buffer unique — one atomic check when it already is, one copy of the
//! table when it is shared — so a write through one handle is never visible
//! through another. Reads never check anything. This is what lets a serving
//! fold-in clone a whole model and pay only for the tables it appends to:
//! the tables it leaves alone stay shared with the live snapshot.
//!
//! # Appending to a shared table
//!
//! A handle sees only its own `rows × dim` prefix of the buffer, so
//! [`Embedding::push_row`] need not copy a shared table either. The buffer
//! records how far it has been written; a handle whose rows end exactly
//! there claims the next row with one compare-and-swap and writes it into
//! spare capacity, where no other handle looks (every other handle's rows
//! end at or before the claimed row). A handle that is not at that end (a
//! sibling appended first), or finds no spare capacity, copies its rows
//! once into a buffer with room to double. A chain of fold-ins, each
//! appending one row to a clone of the last, therefore copies a table only
//! when its capacity runs out, and never allocates per signup.
//!
//! The element type is generic over [`Scalar`] with an `f64` default, so the
//! plain `Embedding` spelling every existing caller uses still means the
//! double-precision matrix. The random initializers always *draw* in `f64`
//! (one stream regardless of precision) and round into `S`, which makes an
//! `f32` table the rounding of the corresponding `f64` table rather than a
//! different random model.

use std::fmt;
use std::mem::ManuallyDrop;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::ops;
use crate::rng::SplitMix64;
use crate::Scalar;

/// The allocation behind one or more [`Embedding`] handles: `cap` elements,
/// of which the first `written` are initialized.
///
/// Invariant: every handle's `rows × dim` prefix lies inside the written
/// part, and no element of any handle's prefix is written while another
/// handle exists. Writes happen either through a unique handle (the
/// `Arc`'s strong count is one, so nobody else can read) or into a range
/// [`Buffer::claim`] reserved past `written`, which no handle's prefix
/// reaches.
struct Buffer<S: Scalar> {
    ptr: NonNull<S>,
    cap: usize,
    written: AtomicUsize,
}

// SAFETY: `ptr` owns its allocation like a `Vec<S>` does, and `S: Scalar`
// is `Send + Sync`, so elements may be read, written and freed from any
// thread; access to them follows the invariant above (shared reads of
// prefixes, writes only to claimed or uniquely owned ranges). `cap` never
// changes, and `written` is atomic.
unsafe impl<S: Scalar> Send for Buffer<S> {}
unsafe impl<S: Scalar> Sync for Buffer<S> {}

impl<S: Scalar> Buffer<S> {
    fn from_vec(data: Vec<S>) -> Self {
        let mut data = ManuallyDrop::new(data);
        Self {
            ptr: NonNull::new(data.as_mut_ptr()).expect("Vec pointers are non-null"),
            cap: data.capacity(),
            written: AtomicUsize::new(data.len()),
        }
    }

    /// The first `n` elements. The caller's handle covers them, so they are
    /// written and, by the invariant, not written again while shared.
    fn prefix(&self, n: usize) -> &[S] {
        debug_assert!(n <= self.written.load(Ordering::Relaxed));
        // SAFETY: `n` elements from the start of a live allocation of `cap
        // ≥ n`, all initialized, none written while this borrow lasts.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), n) }
    }

    /// The first `n` elements, mutably; `&mut self` proves no other handle.
    fn prefix_mut(&mut self, n: usize) -> &mut [S] {
        debug_assert!(n <= *self.written.get_mut());
        // SAFETY: as in `prefix`, and the exclusive borrow of the only
        // handle's buffer rules out every other reader.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), n) }
    }

    /// Reserves `[at, at + len)` for the caller when its rows end at `at`,
    /// `at` is where the written part ends, and the capacity has room.
    /// Exactly one of several handles racing for the same `at` wins.
    ///
    /// `written` publishes no element: rows reach another thread only with
    /// a handle that covers them, through whatever hands that handle over,
    /// and a handle that resets `written` is unique, ordered after the
    /// other handles' writes by the `Arc` drop (release) and `get_mut`
    /// (acquire) that made it so. The compare-and-swap only decides who
    /// owns the range.
    fn claim(&self, at: usize, len: usize) -> bool {
        at + len <= self.cap
            && self
                .written
                .compare_exchange(at, at + len, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
    }

    /// Copies `src` to `[at, at + src.len())`.
    ///
    /// # Safety
    /// The range must have been reserved by a successful [`Buffer::claim`]
    /// and not written since.
    unsafe fn write_claimed(&self, at: usize, src: &[S]) {
        std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.as_ptr().add(at), src.len());
    }
}

impl<S: Scalar> Drop for Buffer<S> {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `cap` came from a `Vec<S>`; length 0 because
        // `S: Copy` has nothing to drop, so only the allocation is freed.
        unsafe { drop(Vec::from_raw_parts(self.ptr.as_ptr(), 0, self.cap)) }
    }
}

/// Dense row-major `n × d` matrix of scalars (default `f64`), with a
/// copy-on-write buffer (see the module docs). Equality compares shapes and
/// values, never whether two handles share storage.
#[derive(Clone)]
pub struct Embedding<S: Scalar = f64> {
    rows: usize,
    dim: usize,
    data: Arc<Buffer<S>>,
}

impl<S: Scalar> Embedding<S> {
    /// Zero-initialized `rows × dim` matrix.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self::from_vec(rows, dim, vec![S::ZERO; rows * dim])
    }

    fn from_vec(rows: usize, dim: usize, data: Vec<S>) -> Self {
        debug_assert_eq!(data.len(), rows * dim);
        Self { rows, dim, data: Arc::new(Buffer::from_vec(data)) }
    }

    /// Uniform init in `[-scale, scale)`, the classic MF/GCN initialization.
    pub fn uniform(rows: usize, dim: usize, scale: f64, rng: &mut SplitMix64) -> Self {
        let data = (0..rows * dim).map(|_| rng.uniform_in(-scale, scale)).collect();
        Self::from_vec(rows, dim, data)
    }

    /// Gaussian init with standard deviation `std`.
    pub fn normal(rows: usize, dim: usize, std: f64, rng: &mut SplitMix64) -> Self {
        let data = (0..rows * dim).map(|_| S::from_f64(rng.normal() * std)).collect();
        Self::from_vec(rows, dim, data)
    }

    /// "Burn-in" init used for Poincaré embeddings (Nickel & Kiela 2017):
    /// uniform in a small ball of radius `radius` around the origin so every
    /// point starts well inside the unit ball with room to spread out.
    pub fn poincare_burn_in(rows: usize, dim: usize, radius: f64, rng: &mut SplitMix64) -> Self {
        let mut m = Self::uniform(rows, dim, radius, rng);
        for r in 0..rows {
            ops::clip_norm(m.row_mut(r), S::from_f64(radius));
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension (columns).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[S] {
        &self.as_slice()[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable view of row `i` (copies a shared buffer first).
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [S] {
        let d = self.dim;
        &mut self.as_mut_slice()[i * d..(i + 1) * d]
    }

    /// Two disjoint mutable rows; panics if `i == j`. Copies a shared
    /// buffer first.
    pub fn rows_mut2(&mut self, i: usize, j: usize) -> (&mut [S], &mut [S]) {
        assert_ne!(i, j, "rows_mut2 requires distinct rows");
        let d = self.dim;
        let data = self.as_mut_slice();
        if i < j {
            let (a, b) = data.split_at_mut(j * d);
            (&mut a[i * d..(i + 1) * d], &mut b[..d])
        } else {
            let (a, b) = data.split_at_mut(i * d);
            (&mut b[..d], &mut a[j * d..(j + 1) * d])
        }
    }

    /// Flat view of the whole matrix.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        self.data.prefix(self.rows * self.dim)
    }

    /// Flat mutable view of the whole matrix (copies a shared buffer
    /// first).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        if !self.owns_buffer() {
            self.data = Arc::new(Buffer::from_vec(self.as_slice().to_vec()));
        }
        // SAFETY: the buffer is now this handle's alone (checked, or just
        // allocated), its first `rows × dim` elements are written, and the
        // returned borrow of `self` keeps any clone from being made.
        unsafe { std::slice::from_raw_parts_mut(self.data.ptr.as_ptr(), self.rows * self.dim) }
    }

    /// True when no other handle shares the buffer. Handles never make
    /// `Weak` references and `&mut self` keeps this one from being cloned,
    /// so a strong count of one decides it, without the locked
    /// compare-and-swap `Arc::get_mut` spends on the weak count — this
    /// check runs on every row a trainer writes. The acquire fence pairs
    /// with the release in each other handle's drop, ordering this
    /// handle's writes after everything they did with the buffer.
    #[inline]
    fn owns_buffer(&self) -> bool {
        let unique = Arc::strong_count(&self.data) == 1;
        if unique {
            fence(Ordering::Acquire);
        }
        unique
    }

    /// Sets every element to zero, reusing the allocation when this handle
    /// owns it alone (a shared buffer is left to its other owners and
    /// replaced by a fresh zeroed one — nothing to copy).
    pub fn fill_zero(&mut self) {
        let n = self.rows * self.dim;
        match Arc::get_mut(&mut self.data) {
            Some(data) => data.prefix_mut(n).fill(S::ZERO),
            None => self.data = Arc::new(Buffer::from_vec(vec![S::ZERO; n])),
        }
    }

    /// True when this handle and `other` share one buffer: a clone that
    /// neither side has written to since, or that only appended rows to.
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Iterator over row views.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[S]> {
        self.as_slice().chunks_exact(self.dim)
    }

    /// True when all entries are finite — the invariant every optimizer step
    /// in this workspace must maintain.
    pub fn all_finite(&self) -> bool {
        ops::all_finite(self.as_slice())
    }

    /// Appends one row to the bottom of the matrix. The streaming fold-in
    /// path uses this to grow a table without reallocating the existing
    /// rows into a new matrix. A shared buffer is written in place when
    /// this handle's rows end where the buffer's written part ends and it
    /// has spare capacity (see the module docs); otherwise the rows are
    /// copied once into a buffer with room to double.
    ///
    /// Panics if `row.len() != dim` (a shape bug, not a data error).
    pub fn push_row(&mut self, row: &[S]) {
        assert_eq!(row.len(), self.dim, "push_row requires a {}-dim row", self.dim);
        let n = self.rows * self.dim;
        if let Some(data) = Arc::get_mut(&mut self.data) {
            // No other handle: rows that handles since dropped appended
            // past this one's are unreachable, so their space is free.
            *data.written.get_mut() = n;
        }
        if self.data.claim(n, row.len()) {
            // SAFETY: the claim just reserved this range for this handle.
            unsafe { self.data.write_claimed(n, row) };
        } else {
            let mut data = Vec::with_capacity((2 * n).max(n + row.len()));
            data.extend_from_slice(self.as_slice());
            data.extend_from_slice(row);
            self.data = Arc::new(Buffer::from_vec(data));
        }
        self.rows += 1;
    }

    /// Converts every entry through `f64` into precision `T` (exact when
    /// widening `f32 → f64`, round-to-nearest when narrowing).
    pub fn cast<T: Scalar>(&self) -> Embedding<T> {
        let data = self.as_slice().iter().map(|v| T::from_f64(v.to_f64())).collect();
        Embedding::from_vec(self.rows, self.dim, data)
    }
}

impl<S: Scalar> PartialEq for Embedding<S> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.dim == other.dim && self.as_slice() == other.as_slice()
    }
}

impl<S: Scalar> fmt::Debug for Embedding<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Embedding")
            .field("rows", &self.rows)
            .field("dim", &self.dim)
            .field("data", &self.as_slice())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_accessors() {
        let m: Embedding = Embedding::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.dim(), 4);
        assert_eq!(m.as_slice().len(), 12);
    }

    #[test]
    fn row_views_are_disjoint_and_ordered() {
        let mut m = Embedding::zeros(3, 2);
        m.row_mut(0).copy_from_slice(&[1.0, 2.0]);
        m.row_mut(2).copy_from_slice(&[5.0, 6.0]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[0.0, 0.0]);
        assert_eq!(m.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn rows_mut2_both_orders() {
        let mut m = Embedding::zeros(4, 2);
        {
            let (a, b) = m.rows_mut2(1, 3);
            a[0] = 1.0;
            b[0] = 3.0;
        }
        {
            let (a, b) = m.rows_mut2(3, 1);
            assert_eq!(a[0], 3.0);
            assert_eq!(b[0], 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn rows_mut2_rejects_same_row() {
        let mut m: Embedding = Embedding::zeros(2, 2);
        let _ = m.rows_mut2(1, 1);
    }

    #[test]
    fn uniform_init_stays_in_range() {
        let mut rng = SplitMix64::new(1);
        let m = Embedding::uniform(100, 8, 0.1, &mut rng);
        assert!(m.as_slice().iter().all(|v| (-0.1..0.1).contains(v)));
    }

    #[test]
    fn burn_in_rows_stay_inside_radius() {
        let mut rng = SplitMix64::new(2);
        let m: Embedding = Embedding::poincare_burn_in(50, 16, 1e-3, &mut rng);
        for r in m.iter_rows() {
            assert!(crate::ops::norm(r) <= 1e-3 + 1e-12);
        }
    }

    #[test]
    fn f32_init_consumes_the_same_stream_as_f64() {
        let mut rng64 = SplitMix64::new(17);
        let mut rng32 = SplitMix64::new(17);
        let m64: Embedding<f64> = Embedding::uniform(6, 5, 0.3, &mut rng64);
        let m32: Embedding<f32> = Embedding::uniform(6, 5, 0.3, &mut rng32);
        // Same draw count → generators end in the same state…
        assert_eq!(rng64.state(), rng32.state());
        // …and every f32 entry is the rounding of the f64 entry.
        for (a, b) in m64.as_slice().iter().zip(m32.as_slice()) {
            assert_eq!(*b, *a as f32);
        }
    }

    #[test]
    fn push_row_grows_without_disturbing_existing_rows() {
        let mut m = Embedding::zeros(2, 3);
        m.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        m.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        let before = m.as_slice().to_vec();
        m.push_row(&[7.0, 8.0, 9.0]);
        assert_eq!(m.rows(), 3);
        assert_eq!(&m.as_slice()[..6], &before[..]);
        assert_eq!(m.row(2), &[7.0, 8.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "push_row requires")]
    fn push_row_rejects_wrong_width() {
        let mut m: Embedding = Embedding::zeros(1, 3);
        m.push_row(&[1.0, 2.0]);
    }

    fn sample() -> Embedding {
        let mut rng = SplitMix64::new(5);
        Embedding::normal(4, 3, 1.0, &mut rng)
    }

    type Write = fn(&mut Embedding);

    /// Every way to write through a `&mut Embedding`.
    fn writes() -> Vec<(&'static str, Write)> {
        vec![
            ("row_mut", |m| m.row_mut(1)[2] = 7.0),
            ("rows_mut2", |m| m.rows_mut2(3, 0).0[1] = 7.0),
            ("as_mut_slice", |m| m.as_mut_slice()[5] = 7.0),
            ("fill_zero", |m| m.fill_zero()),
            ("push_row", |m| m.push_row(&[7.0, 8.0, 9.0])),
        ]
    }

    #[test]
    fn a_clone_shares_storage_until_the_first_write() {
        let a = sample();
        let b = a.clone();
        assert!(b.shares_storage_with(&a));
        assert_eq!(a, b);
        // Reads never copy.
        assert_eq!(b.row(2), a.row(2));
        assert!(b.shares_storage_with(&a));
    }

    #[test]
    fn writing_to_a_clone_leaves_the_original_unchanged() {
        for (name, write) in writes() {
            let a = sample();
            let before = a.as_slice().to_vec();
            let mut b = a.clone();
            write(&mut b);
            assert_eq!(a.as_slice(), &before[..], "{name} on the clone changed the original");
            assert_eq!(a.rows(), 4, "{name}");
            assert_ne!(a, b, "{name} on the clone did not take effect");
            // Writing an element must copy; an append may share (below).
            if name != "push_row" {
                assert!(!b.shares_storage_with(&a), "{name}");
            }
        }
    }

    #[test]
    fn writing_to_the_original_leaves_a_clone_unchanged() {
        for (name, write) in writes() {
            let mut a = sample();
            let b = a.clone();
            let before = b.as_slice().to_vec();
            write(&mut a);
            assert_eq!(b.as_slice(), &before[..], "{name} on the original changed the clone");
            assert_eq!(b.rows(), 4, "{name}");
            assert_ne!(a, b, "{name} on the original did not take effect");
        }
    }

    #[test]
    fn writing_to_an_unshared_table_reuses_its_buffer() {
        let mut a = sample();
        let ptr = a.as_slice().as_ptr();
        a.row_mut(0)[0] = 1.0;
        a.fill_zero();
        assert_eq!(a.as_slice().as_ptr(), ptr);
        // A dropped clone leaves the buffer unique again.
        drop(a.clone());
        a.as_mut_slice()[0] = 2.0;
        assert_eq!(a.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn push_row_on_a_shared_table_copies_into_an_unshared_buffer() {
        let a = sample();
        let mut b = a.clone();
        b.push_row(&[7.0, 8.0, 9.0]);
        assert_eq!(b.rows(), 5);
        assert_eq!(&b.as_slice()[..12], a.as_slice());
        assert_eq!(b.row(4), &[7.0, 8.0, 9.0]);
        // The grown copy is owned alone: writing it does not copy again.
        let ptr = b.as_slice().as_ptr();
        b.row_mut(4)[0] = 1.0;
        assert_eq!(b.as_slice().as_ptr(), ptr);
    }

    /// `sample()` grown by one row, so its buffer has room for three more.
    fn roomy() -> Embedding {
        let mut m = sample();
        m.push_row(&[0.5, 0.5, 0.5]);
        m
    }

    #[test]
    fn push_row_at_the_end_of_a_shared_buffer_appends_in_place() {
        let a = roomy();
        let before = a.as_slice().to_vec();
        let mut b = a.clone();
        b.push_row(&[7.0, 8.0, 9.0]);
        assert!(b.shares_storage_with(&a), "the append copied the table");
        assert_eq!(a.rows(), 5);
        assert_eq!(a.as_slice(), &before[..]);
        assert_eq!(&b.as_slice()[..15], &before[..]);
        assert_eq!(b.row(5), &[7.0, 8.0, 9.0]);
        // A chain of clones keeps appending into the same buffer.
        let mut c = b.clone();
        c.push_row(&[1.0, 1.0, 1.0]);
        assert!(c.shares_storage_with(&a));
        assert_eq!(b.rows(), 6);
        assert_eq!(c.row(5), &[7.0, 8.0, 9.0]);
        assert_eq!(c.row(6), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn an_append_behind_a_sibling_copies() {
        let a = roomy();
        let (mut b, mut c) = (a.clone(), a.clone());
        b.push_row(&[7.0, 8.0, 9.0]);
        c.push_row(&[1.0, 2.0, 3.0]);
        assert!(b.shares_storage_with(&a));
        assert!(!c.shares_storage_with(&a), "c would overwrite b's row");
        assert_eq!(b.row(5), &[7.0, 8.0, 9.0]);
        assert_eq!(c.row(5), &[1.0, 2.0, 3.0]);
        assert_eq!(&c.as_slice()[..15], a.as_slice());
    }

    #[test]
    fn writing_after_an_in_place_append_still_copies() {
        let a = roomy();
        let before = a.as_slice().to_vec();
        let mut b = a.clone();
        b.push_row(&[7.0, 8.0, 9.0]);
        b.row_mut(0)[0] = 42.0;
        assert!(!b.shares_storage_with(&a));
        assert_eq!(a.as_slice(), &before[..]);
        assert_eq!(b.row(0)[0], 42.0);
        assert_eq!(b.row(5), &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn rows_a_dropped_clone_appended_are_reused() {
        let mut a = roomy();
        let ptr = a.as_slice().as_ptr();
        let mut b = a.clone();
        b.push_row(&[7.0, 8.0, 9.0]);
        drop(b);
        // `a` owns the buffer alone again; its next row takes b's place.
        a.push_row(&[1.0, 2.0, 3.0]);
        assert_eq!(a.as_slice().as_ptr(), ptr);
        assert_eq!(a.rows(), 6);
        assert_eq!(a.row(5), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn concurrent_appends_to_one_buffer_stay_apart() {
        let base = roomy();
        let before = base.as_slice().to_vec();
        // Every thread holds its clone before any of them appends, so all
        // eight race for the same spare row.
        let start = std::sync::Barrier::new(8);
        let grown: Vec<Embedding> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let mut m = base.clone();
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        m.push_row(&[t as f64; 3]);
                        m
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("append panicked")).collect()
        });
        assert_eq!(base.as_slice(), &before[..]);
        for (t, m) in grown.iter().enumerate() {
            assert_eq!(&m.as_slice()[..15], &before[..]);
            assert_eq!(m.row(5), &[t as f64; 3]);
        }
        let in_place = grown.iter().filter(|m| m.shares_storage_with(&base)).count();
        assert_eq!(in_place, 1, "exactly one append claims the spare row");
    }

    #[test]
    fn equality_compares_values_not_storage() {
        let a = sample();
        let b = sample();
        assert!(!b.shares_storage_with(&a));
        assert_eq!(a, b);
    }

    #[test]
    fn cast_round_trips_through_wider_precision() {
        let mut rng = SplitMix64::new(4);
        let m: Embedding<f32> = Embedding::normal(4, 3, 0.5, &mut rng);
        let wide: Embedding<f64> = m.cast();
        let back: Embedding<f32> = wide.cast();
        assert_eq!(m, back);
        assert_eq!(wide.rows(), 4);
        assert_eq!(wide.dim(), 3);
    }
}
