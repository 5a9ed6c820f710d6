//! A copy-on-write vector that appends in place.
//!
//! A [`CowVec`] keeps value semantics while a clone costs one
//! reference-count increment: the buffer sits behind an `Arc`, and the
//! clone and the original share every element until one of them writes.
//! [`CowVec::as_mut_slice`] (and [`CowVec::fill`]) first makes the buffer
//! unique — one atomic check when it already is, one copy when it is
//! shared — so a write through one handle is never visible through
//! another. Reads never check anything.
//!
//! # Appending to a shared buffer
//!
//! A handle sees only its own `len`-element prefix of the buffer, so
//! [`CowVec::extend_from_slice`] need not copy a shared buffer either. The
//! buffer records how far it has been written; a handle whose elements end
//! exactly there claims the next ones with one compare-and-swap and writes
//! them into spare capacity, where no other handle looks (every other
//! handle's prefix ends at or before the claimed range). A handle that is
//! not at that end (a sibling appended first), or finds no spare capacity,
//! copies its elements once into a buffer with room to double. A chain of
//! clones, each appending to the last, therefore copies only when the
//! capacity runs out.
//!
//! This is the one storage primitive behind the serving state that
//! fold-ins grow: the rows of an [`crate::Embedding`], and the flat CSR
//! arrays of the interaction set and the seen-item filter. Growing a
//! snapshot by one user then clones a handful of these and appends to a
//! few, sharing everything else with the live snapshot.

use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Arc;

/// The allocation behind one or more [`CowVec`] handles: `cap` elements,
/// of which the first `written` are initialized.
///
/// Invariant: every handle's prefix lies inside the written part, and no
/// element of any handle's prefix is written while another handle exists.
/// Writes happen either through a unique handle (the `Arc`'s strong count
/// is one, so nobody else can read) or into a range [`Buffer::claim`]
/// reserved past `written`, which no handle's prefix reaches.
struct Buffer<T> {
    ptr: NonNull<T>,
    cap: usize,
    written: AtomicUsize,
}

// SAFETY: `ptr` owns its allocation like a `Vec<T>` does, and `T: Send +
// Sync`, so elements may be read, written and freed from any thread;
// access to them follows the invariant above (shared reads of prefixes,
// writes only to claimed or uniquely owned ranges). `cap` never changes,
// and `written` is atomic.
unsafe impl<T: Send + Sync> Send for Buffer<T> {}
unsafe impl<T: Send + Sync> Sync for Buffer<T> {}

impl<T: Copy> Buffer<T> {
    fn from_vec(data: Vec<T>) -> Self {
        let mut data = ManuallyDrop::new(data);
        Self {
            ptr: NonNull::new(data.as_mut_ptr()).expect("Vec pointers are non-null"),
            cap: data.capacity(),
            written: AtomicUsize::new(data.len()),
        }
    }

    /// The first `n` elements. The caller's handle covers them, so they are
    /// written and, by the invariant, not written again while shared.
    fn prefix(&self, n: usize) -> &[T] {
        debug_assert!(n <= self.written.load(Ordering::Relaxed));
        // SAFETY: `n` elements from the start of a live allocation of `cap
        // ≥ n`, all initialized, none written while this borrow lasts.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), n) }
    }

    /// Reserves `[at, at + len)` for the caller when its prefix ends at
    /// `at`, `at` is where the written part ends, and the capacity has
    /// room. Exactly one of several handles racing for the same `at` wins.
    ///
    /// `written` publishes no element: elements reach another thread only
    /// with a handle that covers them, through whatever hands that handle
    /// over, and a handle that resets `written` is unique, ordered after
    /// the other handles' writes by the `Arc` drop (release) and `get_mut`
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
    unsafe fn write_claimed(&self, at: usize, src: &[T]) {
        std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.as_ptr().add(at), src.len());
    }
}

impl<T> Drop for Buffer<T> {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `cap` came from a `Vec<T>`; length 0 because
        // the elements are `Copy` (nothing to drop), so only the allocation
        // is freed.
        unsafe { drop(Vec::from_raw_parts(self.ptr.as_ptr(), 0, self.cap)) }
    }
}

/// A growable array of `Copy` elements with a copy-on-write, append-in-
/// place buffer (see the module docs). Dereferences to `[T]`.
pub struct CowVec<T: Copy + Send + Sync> {
    len: usize,
    buf: Arc<Buffer<T>>,
}

impl<T: Copy + Send + Sync> CowVec<T> {
    /// The elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        self.buf.prefix(self.len)
    }

    /// The elements, mutably (copies a shared buffer first).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if !self.owns_buffer() {
            self.buf = Arc::new(Buffer::from_vec(self.as_slice().to_vec()));
        }
        // SAFETY: the buffer is now this handle's alone (checked, or just
        // allocated), its first `len` elements are written, and the
        // returned borrow of `self` keeps any clone from being made.
        unsafe { std::slice::from_raw_parts_mut(self.buf.ptr.as_ptr(), self.len) }
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
        let unique = Arc::strong_count(&self.buf) == 1;
        if unique {
            fence(Ordering::Acquire);
        }
        unique
    }

    /// Sets every element to `value`, reusing the allocation when this
    /// handle owns it alone (a shared buffer is left to its other owners
    /// and replaced by a fresh one — nothing to copy).
    pub fn fill(&mut self, value: T) {
        if self.owns_buffer() {
            self.as_mut_slice().fill(value);
        } else {
            self.buf = Arc::new(Buffer::from_vec(vec![value; self.len]));
        }
    }

    /// Appends one element (see [`CowVec::extend_from_slice`]).
    pub fn push(&mut self, value: T) {
        self.extend_from_slice(std::slice::from_ref(&value));
    }

    /// Appends `values`. A shared buffer is written in place when this
    /// handle's elements end where the buffer's written part ends and it
    /// has spare capacity (see the module docs); otherwise the elements are
    /// copied once into a buffer with room to double.
    pub fn extend_from_slice(&mut self, values: &[T]) {
        if values.is_empty() {
            return;
        }
        let n = self.len;
        if let Some(buf) = Arc::get_mut(&mut self.buf) {
            // No other handle: elements that handles since dropped appended
            // past this one's are unreachable, so their space is free.
            *buf.written.get_mut() = n;
        }
        if self.buf.claim(n, values.len()) {
            // SAFETY: the claim just reserved this range for this handle.
            unsafe { self.buf.write_claimed(n, values) };
        } else {
            let mut data = Vec::with_capacity((2 * n).max(n + values.len()));
            data.extend_from_slice(self.as_slice());
            data.extend_from_slice(values);
            self.buf = Arc::new(Buffer::from_vec(data));
        }
        self.len += values.len();
    }

    /// True when this handle and `other` share one buffer: a clone that
    /// neither side has written to since, or that only appended to.
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

impl<T: Copy + Send + Sync> From<Vec<T>> for CowVec<T> {
    /// Takes over `data`'s allocation, spare capacity included.
    fn from(data: Vec<T>) -> Self {
        Self { len: data.len(), buf: Arc::new(Buffer::from_vec(data)) }
    }
}

impl<T: Copy + Send + Sync> Clone for CowVec<T> {
    fn clone(&self) -> Self {
        Self { len: self.len, buf: Arc::clone(&self.buf) }
    }
}

impl<T: Copy + Send + Sync> Deref for CowVec<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Send + Sync + fmt::Debug> fmt::Debug for CowVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_chain_of_clones_appends_into_one_buffer() {
        let mut a: CowVec<usize> = vec![1, 2, 3].into();
        a.push(4); // no room: copied once, into a buffer with room for 6
        let mut b = a.clone();
        b.push(5);
        let mut c = b.clone();
        c.push(6);
        assert!(b.shares_storage_with(&a) && c.shares_storage_with(&a));
        assert_eq!((&a[..], &b[..]), (&[1, 2, 3, 4][..], &[1, 2, 3, 4, 5][..]));
        assert_eq!(&c[..], &[1, 2, 3, 4, 5, 6]);
        // A sibling of `b` cannot append in place behind it, nor can a
        // handle whose buffer is full.
        let mut d = a.clone();
        d.push(9);
        c.push(7);
        assert!(!d.shares_storage_with(&a) && !c.shares_storage_with(&a));
        assert_eq!((&a[..], &d[..]), (&[1, 2, 3, 4][..], &[1, 2, 3, 4, 9][..]));
        assert_eq!(&c[..], &[1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn writes_copy_a_shared_buffer_and_reuse_an_unshared_one() {
        let a: CowVec<usize> = vec![1, 2, 3].into();
        let mut b = a.clone();
        b.as_mut_slice()[0] = 9;
        assert_eq!((&a[..], &b[..]), (&[1, 2, 3][..], &[9, 2, 3][..]));
        let ptr = b.as_ptr();
        b.fill(0);
        assert_eq!((b.as_ptr(), &b[..]), (ptr, &[0, 0, 0][..]));
        let mut empty: CowVec<usize> = Vec::new().into();
        empty.extend_from_slice(&[]);
        assert!(empty.is_empty());
    }
}
