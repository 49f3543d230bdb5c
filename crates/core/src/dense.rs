//! `DenseReduction` — full per-thread privatization (§V-a).
//!
//! Mirrors the scheme the OpenMP standard prescribes for
//! `reduction(+: out[0:N])`: every thread gets a private, identity-
//! initialized copy of the whole array, and all copies are combined at the
//! end. Two deliberate differences from typical compiler implementations,
//! both from the paper:
//!
//! * private copies live on the **heap**, so no `OMP_STACKSIZE` tuning is
//!   needed (the paper calls the stack allocation a quality-of-
//!   implementation issue that crashes programs);
//! * the merge runs **in parallel**: after the team barrier, thread `t`
//!   accumulates *all* private copies over its contiguous slice of the
//!   output, in ascending thread order — the same summation order as a
//!   serial thread-by-thread merge, but with `nthreads`-way parallelism.
//!
//! Memory overhead is `nthreads × N × size_of::<T>()`, the paper's linear
//! growth that makes this scheme collapse at scale.

use crate::arena::AlignedBuf;
use crate::elem::{Element, ReduceOp};
use crate::reducer::{ReducerView, Reduction};
use crate::shared::{chunk_of, MemCounter, SharedSlice, Slots};
use crate::telemetry::{Counters, Telemetry, TelemetryBoard};
use std::marker::PhantomData;

/// Fully privatizing reducer; see the module docs.
pub struct DenseReduction<'a, T: Element, O: ReduceOp<T>> {
    out: SharedSlice<T>,
    slots: Slots<AlignedBuf<T>>,
    nthreads: usize,
    mem: MemCounter,
    telem: TelemetryBoard,
    _borrow: PhantomData<&'a mut [T]>,
    _op: PhantomData<O>,
}

impl<'a, T: Element, O: ReduceOp<T>> DenseReduction<'a, T, O> {
    /// Wraps `out` for reduction across `nthreads` threads.
    ///
    /// ```
    /// use spray::{reduce, DenseReduction, ReducerView, Reduction, Sum};
    /// use ompsim::{Schedule, ThreadPool};
    ///
    /// let pool = ThreadPool::new(2);
    /// let mut out = vec![0.0f64; 8];
    /// let red = DenseReduction::<f64, Sum>::new(&mut out, 2);
    /// reduce(&pool, &red, 0..80, Schedule::default(), |v, i| {
    ///     v.apply(i % 8, 1.0);
    /// });
    /// assert_eq!(red.memory_overhead(), 2 * 8 * 8); // threads × N × sizeof
    /// drop(red);
    /// assert!(out.iter().all(|&x| x == 10.0));
    /// ```
    pub fn new(out: &'a mut [T], nthreads: usize) -> Self {
        assert!(nthreads > 0);
        DenseReduction {
            out: SharedSlice::new(out),
            slots: Slots::new(nthreads),
            nthreads,
            mem: MemCounter::new(),
            telem: TelemetryBoard::new(nthreads),
            _borrow: PhantomData,
            _op: PhantomData,
        }
    }
}

/// Per-thread view: one private full-length buffer (256-byte aligned so
/// the parallel merge streams through the vector kernels).
pub struct DenseView<T, O> {
    buf: AlignedBuf<T>,
    _op: PhantomData<O>,
}

impl<T: Element, O: ReduceOp<T>> ReducerView<T> for DenseView<T, O> {
    #[inline(always)]
    fn apply(&mut self, i: usize, v: T) {
        let slot = &mut self.buf.as_mut_slice()[i];
        *slot = O::combine(*slot, v);
    }
}

impl<T: Element, O: ReduceOp<T>> Reduction<T> for DenseReduction<'_, T, O> {
    type View = DenseView<T, O>;

    fn view(&self, _tid: usize) -> DenseView<T, O> {
        // The eager full-size allocation is the point of this strategy.
        // `memory_overhead` reports the logical footprint (threads × N ×
        // sizeof), not the alignment padding.
        self.mem.add(self.out.len() * std::mem::size_of::<T>());
        DenseView {
            buf: AlignedBuf::new_identity::<O>(self.out.len()),
            _op: PhantomData,
        }
    }

    fn stash(&self, tid: usize, view: DenseView<T, O>) {
        // SAFETY: slot `tid` is written only by thread `tid`, pre-barrier.
        unsafe { self.slots.put(tid, view.buf) };
    }

    fn epilogue(&self, tid: usize) {
        // Parallel merge: this thread owns out[lo..hi) exclusively and
        // accumulates every thread's private copy over it, in thread order
        // (fixing the summation order irrespective of merge parallelism).
        let (lo, hi) = chunk_of(tid, self.nthreads, self.out.len());
        let mut merged = 0u64;
        for t in 0..self.nthreads {
            // SAFETY: post-barrier, slots are read-only.
            if let Some(buf) = unsafe { self.slots.get(t) } {
                // SAFETY: out[lo..hi) is written by this thread only.
                #[cfg(not(feature = "verify"))]
                unsafe {
                    crate::kernels::merge_into::<T, O>(
                        self.out.as_mut_ptr().add(lo),
                        buf.as_ptr().add(lo),
                        hi - lo,
                    );
                }
                // Verify builds keep the per-element combine — each
                // element is a schedule-perturbation hook site.
                #[cfg(feature = "verify")]
                for (i, &v) in buf.as_slice()[lo..hi]
                    .iter()
                    .enumerate()
                    .map(|(o, v)| (lo + o, v))
                {
                    unsafe { self.out.combine::<O>(i, v) };
                }
                merged += (hi - lo) as u64;
            }
        }
        if merged > 0 {
            self.telem
                .add_merged_bytes(tid, merged * std::mem::size_of::<T>() as u64);
        }
    }

    fn finish(&self) {
        for t in 0..self.nthreads {
            // SAFETY: single-threaded after the region.
            if let Some(buf) = unsafe { self.slots.take(t) } {
                // Mirrors `view`'s logical accounting; the buffer itself
                // returns its slab to the process-wide pool on drop.
                self.mem.sub(buf.len() * std::mem::size_of::<T>());
            }
        }
    }

    fn name(&self) -> String {
        "dense".into()
    }

    fn num_threads(&self) -> usize {
        self.nthreads
    }

    fn len(&self) -> usize {
        self.out.len()
    }

    fn memory_overhead(&self) -> usize {
        self.mem.peak()
    }

    fn telemetry(&self) -> Telemetry {
        self.telem.snapshot()
    }

    fn record_applies(&self, tid: usize, applies: u64) {
        self.telem.record(
            tid,
            &Counters {
                applies,
                ..Counters::default()
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce;
    use crate::Sum;
    use ompsim::{Schedule, ThreadPool};

    #[test]
    fn sums_into_existing_content() {
        let pool = ThreadPool::new(4);
        let mut out = vec![1.0f64; 10];
        let red = DenseReduction::<f64, Sum>::new(&mut out, 4);
        reduce(&pool, &red, 0..10, Schedule::default(), |v, i| {
            v.apply(i, i as f64);
        });
        drop(red);
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, 1.0 + i as f64);
        }
    }

    #[test]
    fn overlapping_updates_accumulate() {
        let pool = ThreadPool::new(3);
        let n = 100;
        let mut out = vec![0i64; n];
        let red = DenseReduction::<i64, Sum>::new(&mut out, 3);
        // Every thread updates every location.
        reduce(&pool, &red, 0..n, Schedule::dynamic(1), |v, _i| {
            for j in 0..n {
                v.apply(j, 1);
            }
        });
        drop(red);
        assert!(out.iter().all(|&x| x == n as i64));
    }

    #[test]
    fn memory_overhead_is_threads_times_len() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0.0f32; 1000];
        let red = DenseReduction::<f32, Sum>::new(&mut out, 4);
        reduce(&pool, &red, 0..1000, Schedule::default(), |v, i| {
            v.apply(i, 1.0);
        });
        assert_eq!(red.memory_overhead(), 4 * 1000 * 4);
    }

    #[test]
    fn reusable_across_regions() {
        let pool = ThreadPool::new(2);
        let mut out = vec![0u64; 16];
        let red = DenseReduction::<u64, Sum>::new(&mut out, 2);
        for _ in 0..3 {
            reduce(&pool, &red, 0..16, Schedule::default(), |v, i| {
                v.apply(i, 1);
            });
        }
        drop(red);
        assert!(out.iter().all(|&x| x == 3));
    }
}
