//! `AtomicReduction` — atomic read-modify-write on the original array
//! (§V-c).
//!
//! The library form of annotating every update with
//! `#pragma omp atomic update`, without touching the loop body. Neither
//! `view` nor the merge phase does any work, and no memory beyond the
//! original array is allocated — this is the paper's zero-overhead-memory
//! strategy, at the price of per-update atomic latency and potential cache-
//! line contention.
//!
//! Integer sums/mins/maxes use native fetch-ops; floating-point (and
//! products) go through CAS loops — see
//! [`AtomicElement`](crate::AtomicElement).

use crate::elem::{AtomicElement, ReduceOp};
use crate::reducer::{ReducerView, Reduction};
use crate::shared::SharedSlice;
use crate::telemetry::{Counters, Telemetry, TelemetryBoard};
use std::marker::PhantomData;

/// Atomically-updating reducer; see the module docs.
pub struct AtomicReduction<'a, T: AtomicElement, O: ReduceOp<T>> {
    out: SharedSlice<T>,
    nthreads: usize,
    telem: TelemetryBoard,
    _borrow: PhantomData<&'a mut [T]>,
    _op: PhantomData<O>,
}

impl<'a, T: AtomicElement, O: ReduceOp<T>> AtomicReduction<'a, T, O> {
    /// Wraps `out` for reduction across `nthreads` threads.
    ///
    /// ```
    /// use spray::{reduce, AtomicReduction, ReducerView, Reduction, Sum};
    /// use ompsim::{Schedule, ThreadPool};
    ///
    /// let pool = ThreadPool::new(4);
    /// let mut out = vec![0u64; 4];
    /// let red = AtomicReduction::<u64, Sum>::new(&mut out, 4);
    /// reduce(&pool, &red, 0..4000, Schedule::dynamic(16), |v, i| {
    ///     v.apply(i % 4, 1); // heavy contention, still exact
    /// });
    /// assert_eq!(red.memory_overhead(), 0); // no privatization at all
    /// drop(red);
    /// assert!(out.iter().all(|&x| x == 1000));
    /// ```
    pub fn new(out: &'a mut [T], nthreads: usize) -> Self {
        assert!(nthreads > 0);
        AtomicReduction {
            out: SharedSlice::new(out),
            nthreads,
            telem: TelemetryBoard::new(nthreads),
            _borrow: PhantomData,
            _op: PhantomData,
        }
    }
}

/// Per-thread view: just the shared array; every `apply` is atomic.
pub struct AtomicView<T, O> {
    out: SharedSlice<T>,
    _op: PhantomData<O>,
}

impl<T: AtomicElement, O: ReduceOp<T>> ReducerView<T> for AtomicView<T, O> {
    #[inline(always)]
    fn apply(&mut self, i: usize, v: T) {
        assert!(i < self.out.len(), "reduction index {i} out of bounds");
        // SAFETY: in-bounds (checked above); all loop-phase accesses to the
        // array in this strategy are atomic.
        unsafe { self.out.combine_atomic::<O>(i, v) };
    }
}

impl<T: AtomicElement, O: ReduceOp<T>> Reduction<T> for AtomicReduction<'_, T, O> {
    type View = AtomicView<T, O>;

    fn view(&self, _tid: usize) -> AtomicView<T, O> {
        AtomicView {
            out: self.out,
            _op: PhantomData,
        }
    }

    fn stash(&self, _tid: usize, _view: AtomicView<T, O>) {}

    fn epilogue(&self, _tid: usize) {}

    fn name(&self) -> String {
        "atomic".into()
    }

    fn num_threads(&self) -> usize {
        self.nthreads
    }

    fn len(&self) -> usize {
        self.out.len()
    }

    fn memory_overhead(&self) -> usize {
        0
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
    fn contended_single_location_is_exact() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0u64; 1];
        let red = AtomicReduction::<u64, Sum>::new(&mut out, 4);
        reduce(&pool, &red, 0..10_000, Schedule::dynamic(16), |v, _| {
            v.apply(0, 1);
        });
        let _ = red;
        assert_eq!(out[0], 10_000);
    }

    #[test]
    fn float_cas_sum_of_representables_is_exact() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0.0f32; 8];
        let red = AtomicReduction::<f32, Sum>::new(&mut out, 4);
        reduce(&pool, &red, 0..8000, Schedule::dynamic(7), |v, i| {
            v.apply(i % 8, 1.0);
        });
        let _ = red;
        assert!(out.iter().all(|&x| x == 1000.0));
    }

    #[test]
    fn zero_memory_overhead() {
        let pool = ThreadPool::new(2);
        let mut out = vec![0.0f64; 100];
        let red = AtomicReduction::<f64, Sum>::new(&mut out, 2);
        reduce(&pool, &red, 0..100, Schedule::default(), |v, i| {
            v.apply(i, 2.0);
        });
        assert_eq!(red.memory_overhead(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let pool = ThreadPool::new(1);
        let mut out = vec![0.0f64; 4];
        let red = AtomicReduction::<f64, Sum>::new(&mut out, 1);
        reduce(&pool, &red, 0..1, Schedule::default(), |v, _| {
            v.apply(4, 1.0);
        });
    }
}
