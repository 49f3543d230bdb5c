//! Internal shared-memory primitives used by the reducer strategies.
//!
//! All `unsafe` in the crate funnels through this module plus the atomic
//! ops in [`crate::elem`]; each strategy documents the protocol that makes
//! its use of these primitives race-free.

use crate::elem::{AtomicElement, Element, ReduceOp};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An unchecked, shareable view of a `&mut [T]`.
///
/// Strategies hand copies of this to per-thread views; every access goes
/// through an `unsafe` method whose caller must uphold the strategy's
/// exclusivity or atomicity protocol.
pub(crate) struct SharedSlice<T> {
    ptr: *mut T,
    len: usize,
}

impl<T> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedSlice<T> {}

// SAFETY: access discipline is delegated to the unsafe accessor contracts.
unsafe impl<T: Send> Send for SharedSlice<T> {}
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T: Element> SharedSlice<T> {
    pub(crate) fn new(slice: &mut [T]) -> Self {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The underlying base pointer. Writing through it inherits the same
    /// contract as [`SharedSlice::combine`]: stay in bounds and respect
    /// the calling strategy's exclusivity protocol.
    #[inline(always)]
    pub(crate) fn as_mut_ptr(&self) -> *mut T {
        self.ptr
    }

    /// Non-atomic `slice[i] = O::combine(slice[i], v)`.
    ///
    /// # Safety
    /// `i < len`, and no other thread may access element `i` concurrently
    /// (exclusive ownership per the calling strategy's protocol).
    #[inline(always)]
    pub(crate) unsafe fn combine<O: ReduceOp<T>>(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        let p = self.ptr.add(i);
        #[cfg(feature = "verify")]
        {
            // Widened race window: load, perturbation point, store. A
            // schedule controller may deschedule this thread mid-RMW —
            // harmless under the exclusivity contract, a visible lost
            // update when a (deliberately broken) protocol violates it.
            let cur = *p;
            ompsim::verify::perturb_idx(ompsim::verify::HookPoint::SharedWrite, i as u64);
            *p = O::combine(cur, v);
        }
        #[cfg(not(feature = "verify"))]
        {
            *p = O::combine(*p, v);
        }
    }

    /// Atomic `slice[i] = O::combine(slice[i], v)`.
    ///
    /// # Safety
    /// `i < len`, and all concurrent accesses to element `i` must be atomic.
    #[inline(always)]
    pub(crate) unsafe fn combine_atomic<O: ReduceOp<T>>(&self, i: usize, v: T)
    where
        T: AtomicElement,
    {
        debug_assert!(i < self.len);
        T::atomic_combine::<O>(self.ptr.add(i), v);
    }
}

/// Pads (and aligns) `T` to a 64-byte cache line so per-thread entries in
/// a shared array never false-share. x86-64 and aarch64 both use 64-byte
/// lines (some Apple cores fetch 128, for which this still removes the
/// worst of the ping-pong).
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub(crate) T);

/// One write-once-per-phase slot per thread, used to pass per-thread view
/// data (privatized buffers, maps, queues) to the merge phase. Slots are
/// cache-line padded: adjacent threads write their slots concurrently at
/// the stash step, and pre-padding those writes shared a line.
///
/// Protocol: during the loop phase, only thread `t` touches slot `t`
/// (via [`Slots::put`]); a team barrier separates the phases; during the
/// merge phase slots are read-only ([`Slots::get`]) or drained by a single
/// thread ([`Slots::take`]).
pub(crate) struct Slots<V> {
    slots: Vec<CachePadded<UnsafeCell<Option<V>>>>,
}

// SAFETY: cross-thread access is mediated by the barrier protocol above.
unsafe impl<V: Send> Send for Slots<V> {}
unsafe impl<V: Send> Sync for Slots<V> {}

impl<V> Slots<V> {
    pub(crate) fn new(n: usize) -> Self {
        Slots {
            slots: (0..n).map(|_| CachePadded(UnsafeCell::new(None))).collect(),
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Stores `v` into slot `tid`, dropping any previous occupant.
    ///
    /// # Safety
    /// Only thread `tid` may call this, and not concurrently with `get`
    /// or `take` on the same slot.
    pub(crate) unsafe fn put(&self, tid: usize, v: V) {
        *self.slots[tid].0.get() = Some(v);
    }

    /// Reads slot `tid` (shared).
    ///
    /// # Safety
    /// No concurrent `put`/`take` on the same slot (post-barrier phase).
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get(&self, tid: usize) -> Option<&V> {
        (*self.slots[tid].0.get()).as_ref()
    }

    /// Empties slot `tid`.
    ///
    /// # Safety
    /// Requires exclusive access to the slot (single-threaded finish phase,
    /// or uniquely-assigned slot).
    pub(crate) unsafe fn take(&self, tid: usize) -> Option<V> {
        (*self.slots[tid].0.get()).take()
    }
}

/// Live/peak byte counter for a reduction's privatization memory — the
/// per-strategy analogue of the paper's max-RSS overhead measurement.
#[derive(Default)]
pub(crate) struct MemCounter {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl MemCounter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn add(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let mut peak = self.peak.load(Ordering::Relaxed);
        while live > peak {
            match self
                .peak
                .compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
    }

    pub(crate) fn sub(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    pub(crate) fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Splits `len` items into `nthreads` near-equal contiguous chunks and
/// returns thread `tid`'s `[lo, hi)` — the canonical ownership partition
/// used by merge phases and the keeper reducer.
#[inline]
pub(crate) fn chunk_of(tid: usize, nthreads: usize, len: usize) -> (usize, usize) {
    let base = len / nthreads;
    let extra = len % nthreads;
    let lo = tid * base + tid.min(extra);
    let hi = lo + base + usize::from(tid < extra);
    (lo, hi)
}

/// Inverse of [`chunk_of`]: which thread's chunk contains index `i`.
#[inline]
pub(crate) fn owner_of(i: usize, nthreads: usize, len: usize) -> usize {
    debug_assert!(i < len);
    // First guess by proportion, then correct by at most one step in each
    // direction (the chunks differ in size by at most one element).
    let mut t = (i * nthreads / len).min(nthreads - 1);
    loop {
        let (lo, hi) = chunk_of(t, nthreads, len);
        if i < lo {
            t -= 1;
        } else if i >= hi {
            t += 1;
        } else {
            return t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_exactly() {
        for len in [0usize, 1, 2, 10, 97, 1000] {
            for n in [1usize, 2, 3, 7, 56] {
                let mut expected_lo = 0;
                for t in 0..n {
                    let (lo, hi) = chunk_of(t, n, len);
                    assert_eq!(lo, expected_lo);
                    assert!(hi >= lo);
                    expected_lo = hi;
                }
                assert_eq!(expected_lo, len);
            }
        }
    }

    #[test]
    fn owner_of_matches_chunk_of() {
        for len in [1usize, 2, 10, 97, 1000] {
            for n in [1usize, 2, 3, 7, 56] {
                for i in 0..len {
                    let t = owner_of(i, n, len);
                    let (lo, hi) = chunk_of(t, n, len);
                    assert!(
                        lo <= i && i < hi,
                        "i={i} len={len} n={n} -> t={t} [{lo},{hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_slice_combine() {
        let mut v = vec![1.0f64, 2.0, 3.0];
        let s = SharedSlice::new(&mut v);
        unsafe {
            s.combine::<crate::Sum>(0, 10.0);
            s.combine_atomic::<crate::Sum>(2, 5.0);
        }
        assert_eq!(v, vec![11.0, 2.0, 8.0]);
    }

    #[test]
    fn slots_roundtrip() {
        let slots: Slots<Vec<i32>> = Slots::new(2);
        unsafe {
            slots.put(0, vec![1, 2]);
            slots.put(1, vec![3]);
            assert_eq!(slots.get(0).unwrap(), &vec![1, 2]);
            assert_eq!(slots.take(1), Some(vec![3]));
            assert_eq!(slots.take(1), None);
        }
        assert_eq!(slots.len(), 2);
    }

    #[test]
    fn mem_counter_tracks_peak() {
        let m = MemCounter::new();
        m.add(100);
        m.add(50);
        m.sub(120);
        m.add(10);
        assert_eq!(m.peak(), 150);
    }
}
