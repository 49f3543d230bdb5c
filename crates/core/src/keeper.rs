//! `KeeperReduction` — static ownership with update forwarding (§V-e).
//!
//! The array is statically partitioned into `nthreads` contiguous ranges;
//! thread `t` *keeps* range `t`. Updates to a thread's own range are
//! applied non-atomically, directly on the original storage. Updates to a
//! foreign range are recorded as `(index, value)` update requests in a
//! queue addressed to the owner. After the team barrier, each owner drains
//! all queues addressed to it and applies them to its own range — again
//! non-atomically, since ranges are disjoint.
//!
//! This strategy excels when "the updated indices on each thread closely
//! match the static ownership structure" (§VII), e.g. the convolution
//! back-propagation where the loop index nearly equals the update index;
//! then almost no requests are enqueued. The `bench` crate's
//! `ablation_keeper` binary shows the collapse when ownership is mismatched.
//!
//! # Safety protocol
//! * Loop phase: `out[lo_t..hi_t)` is written only by thread `t`;
//!   queue cell `(owner, writer)` is written only by thread `writer`.
//! * Team barrier.
//! * Epilogue: queue cell `(owner, writer)` is read only by thread `owner`,
//!   which applies requests to its own (exclusive) range.

use crate::elem::{Element, ReduceOp};
use crate::plan::RegionPlan;
use crate::reducer::{ReducerView, Reduction};
use crate::shared::{chunk_of, owner_of, MemCounter, SharedSlice};
use crate::telemetry::{Counters, Telemetry, TelemetryBoard};
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};

/// One update request: accumulate `value` at `index`.
type Request<T> = (u32, T);

/// Queue matrix: `cells[owner * nthreads + writer]`.
struct QueueMatrix<T> {
    cells: Vec<UnsafeCell<Vec<Request<T>>>>,
    nthreads: usize,
}

// SAFETY: the (owner, writer) phase protocol in the module docs ensures no
// cell is accessed by two threads without a barrier in between.
unsafe impl<T: Send> Send for QueueMatrix<T> {}
unsafe impl<T: Send> Sync for QueueMatrix<T> {}

impl<T> QueueMatrix<T> {
    fn new(nthreads: usize) -> Self {
        QueueMatrix {
            cells: (0..nthreads * nthreads)
                .map(|_| UnsafeCell::new(Vec::new()))
                .collect(),
            nthreads,
        }
    }

    /// Raw pointer to the queue from `writer` to `owner`.
    ///
    /// # Safety
    /// Dereference only under the phase protocol.
    #[inline]
    unsafe fn cell(&self, owner: usize, writer: usize) -> *mut Vec<Request<T>> {
        self.cells[owner * self.nthreads + writer].get()
    }
}

/// Statically-owned reducer with update forwarding; see the module docs.
pub struct KeeperReduction<'a, T: Element, O: ReduceOp<T>> {
    out: SharedSlice<T>,
    queues: QueueMatrix<T>,
    nthreads: usize,
    mem: MemCounter,
    telem: TelemetryBoard,
    /// Per-cell request counts from the most recent region,
    /// `counts[owner * nthreads + writer]`, recorded at stash. Feeds
    /// [`KeeperReduction::extract_plan`]; a plan is purely advisory here
    /// (it pre-sizes queues — there is no deviation concept, a region
    /// whose traffic differs just grows the queues as usual).
    plan_counts: Vec<AtomicU32>,
    _borrow: PhantomData<&'a mut [T]>,
    _op: PhantomData<O>,
}

impl<'a, T: Element, O: ReduceOp<T>> KeeperReduction<'a, T, O> {
    /// Wraps `out`, partitioning ownership into `nthreads` contiguous
    /// near-equal ranges.
    ///
    /// ```
    /// use spray::{reduce, KeeperReduction, ReducerView, Reduction, Sum};
    /// use ompsim::{Schedule, ThreadPool};
    ///
    /// let pool = ThreadPool::new(2);
    /// let mut out = vec![0.0f32; 100];
    /// let red = KeeperReduction::<f32, Sum>::new(&mut out, 2);
    /// // Static schedule: iteration i mostly updates index i, which the
    /// // same thread owns — almost nothing is forwarded.
    /// reduce(&pool, &red, 1..99, Schedule::default(), |v, i| {
    ///     v.apply(i - 1, 0.5);
    ///     v.apply(i + 1, 0.5);
    /// });
    /// drop(red);
    /// assert_eq!(out[50], 1.0);
    /// ```
    pub fn new(out: &'a mut [T], nthreads: usize) -> Self {
        assert!(nthreads > 0);
        KeeperReduction {
            out: SharedSlice::new(out),
            queues: QueueMatrix::new(nthreads),
            nthreads,
            mem: MemCounter::new(),
            telem: TelemetryBoard::new(nthreads),
            plan_counts: (0..nthreads * nthreads)
                .map(|_| AtomicU32::new(0))
                .collect(),
            _borrow: PhantomData,
            _op: PhantomData,
        }
    }

    /// Pre-sizes the forwarding queues from a recorded plan so the loop
    /// phase never reallocates mid-region. Returns `false` (and installs
    /// nothing) when the plan was recorded for a different shape.
    pub fn install_plan(&mut self, plan: &RegionPlan) -> bool {
        if !plan.matches_keeper(self.out.len(), self.nthreads) {
            return false;
        }
        let Some(counts) = plan.keeper_counts() else {
            return false;
        };
        for (cell, &count) in self.queues.cells.iter_mut().zip(counts) {
            // Capacity is accounted at stash (which sees the final
            // capacity either way), not here — avoids double counting.
            cell.get_mut().reserve(count as usize);
        }
        true
    }

    /// Captures the most recent region's forwarding traffic as a plan.
    /// Call after a region completes (the driver's barrier and `finish`
    /// make the counts coherent).
    pub fn extract_plan(&self) -> RegionPlan {
        let counts: Vec<u32> = self
            .plan_counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        RegionPlan::for_keeper(self.out.len(), self.nthreads, counts)
    }
}

/// Per-thread view: direct access to the owned range, queues for the rest.
pub struct KeeperView<T: Element, O> {
    out: SharedSlice<T>,
    queues: *const QueueMatrix<T>,
    tid: usize,
    nthreads: usize,
    lo: usize,
    hi: usize,
    /// Plain per-view counter, published to the padded board at stash.
    /// (Applies are counted by the driver's `CountedView` instead.)
    remote_enqueues: u64,
    _op: PhantomData<O>,
}

impl<T: Element, O: ReduceOp<T>> ReducerView<T> for KeeperView<T, O> {
    #[inline(always)]
    fn apply(&mut self, i: usize, v: T) {
        assert!(i < self.out.len(), "reduction index {i} out of bounds");
        if i >= self.lo && i < self.hi {
            // SAFETY: out[lo..hi) is exclusively this thread's during the
            // loop phase.
            unsafe { self.out.combine::<O>(i, v) };
        } else {
            self.remote_enqueues += 1;
            let owner = owner_of(i, self.nthreads, self.out.len());
            ompsim::verify::perturb_idx(ompsim::verify::HookPoint::QueuePush, owner as u64);
            // SAFETY: cell (owner, tid) is written only by this thread
            // pre-barrier; the parent reduction outlives the view.
            unsafe {
                (*(*self.queues).cell(owner, self.tid)).push((i as u32, v));
            }
        }
    }
}

impl<T: Element, O: ReduceOp<T>> Reduction<T> for KeeperReduction<'_, T, O> {
    type View = KeeperView<T, O>;

    fn view(&self, tid: usize) -> Self::View {
        assert!(
            self.out.len() < u32::MAX as usize,
            "keeper reduction stores indices as u32; array too large"
        );
        let (lo, hi) = chunk_of(tid, self.nthreads, self.out.len());
        KeeperView {
            out: self.out,
            queues: &self.queues,
            tid,
            nthreads: self.nthreads,
            lo,
            hi,
            remote_enqueues: 0,
            _op: PhantomData,
        }
    }

    fn stash(&self, tid: usize, view: Self::View) {
        // Queue contents already live in the shared matrix; account memory.
        let mut bytes = 0;
        for owner in 0..self.nthreads {
            // SAFETY: cell (owner, tid) belongs to this thread pre-barrier.
            let q = unsafe { &*self.queues.cell(owner, tid) };
            bytes += q.capacity() * std::mem::size_of::<Request<T>>();
            // Record this region's traffic for `extract_plan`. Cell
            // (owner, tid) is only ever stored by thread `tid`.
            self.plan_counts[owner * self.nthreads + tid].store(q.len() as u32, Ordering::Relaxed);
        }
        self.mem.add(bytes);
        self.telem.record(
            tid,
            &Counters {
                remote_enqueues: view.remote_enqueues,
                ..Counters::default()
            },
        );
    }

    fn epilogue(&self, tid: usize) {
        // Drain every queue addressed to this owner, in writer order (a
        // fixed order keeps repeated runs on the same schedule bitwise
        // reproducible for this strategy).
        let mut flushed = 0u64;
        for writer in 0..self.nthreads {
            ompsim::verify::perturb_idx(ompsim::verify::HookPoint::QueueDrain, writer as u64);
            // SAFETY: post-barrier, cell (tid, writer) is read only by the
            // owner `tid`.
            let q = unsafe { &mut *self.queues.cell(tid, writer) };
            for &(i, v) in q.iter() {
                // SAFETY: forwarded indices were validated in `apply` and
                // belong to this owner's exclusive range.
                unsafe { self.out.combine::<O>(i as usize, v) };
            }
            flushed += q.len() as u64;
            q.clear();
        }
        if flushed > 0 {
            self.telem.add_remote_flushed(
                tid,
                flushed,
                flushed * std::mem::size_of::<Request<T>>() as u64,
            );
        }
    }

    fn finish(&self) {
        // Release queue capacity so the next region starts clean and the
        // live-memory accounting returns to zero.
        for owner in 0..self.nthreads {
            for writer in 0..self.nthreads {
                // SAFETY: single-threaded after the region.
                let q = unsafe { &mut *self.queues.cell(owner, writer) };
                self.mem
                    .sub(q.capacity() * std::mem::size_of::<Request<T>>());
                *q = Vec::new();
            }
        }
    }

    fn name(&self) -> String {
        "keeper".into()
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
    fn matched_ownership_no_queues() {
        let pool = ThreadPool::new(4);
        let n = 1000;
        let mut out = vec![0i64; n];
        let red = KeeperReduction::<i64, Sum>::new(&mut out, 4);
        // Static default schedule: iteration i lands on the thread that
        // owns index i, so no requests should be queued.
        reduce(&pool, &red, 0..n, Schedule::default(), |v, i| {
            v.apply(i, 1);
        });
        assert_eq!(red.memory_overhead(), 0);
        drop(red);
        assert!(out.iter().all(|&x| x == 1));
    }

    #[test]
    fn cross_boundary_updates_forwarded() {
        let pool = ThreadPool::new(4);
        let n = 1000;
        let mut out = vec![0i64; n];
        let red = KeeperReduction::<i64, Sum>::new(&mut out, 4);
        // Scatter far away from the owned range: everything is forwarded.
        reduce(&pool, &red, 0..n, Schedule::default(), |v, i| {
            v.apply((i + n / 2) % n, 1);
        });
        drop(red);
        assert!(out.iter().all(|&x| x == 1));
    }

    #[test]
    fn stencil_halo_forwarding() {
        let pool = ThreadPool::new(4);
        let n = 128;
        let mut out = vec![0i64; n];
        let red = KeeperReduction::<i64, Sum>::new(&mut out, 4);
        reduce(&pool, &red, 1..n - 1, Schedule::default(), |v, i| {
            v.apply(i - 1, 1);
            v.apply(i, 1);
            v.apply(i + 1, 1);
        });
        drop(red);
        // Interior locations receive 3 contributions; near edges fewer
        // (iteration space is 1..n-1, so out[0] only hears from i=1 etc.).
        assert_eq!(out[0], 1);
        assert_eq!(out[1], 2);
        assert_eq!(out[n - 2], 2);
        assert_eq!(out[n - 1], 1);
        assert!(out[2..n - 2].iter().all(|&x| x == 3));
    }

    #[test]
    fn more_threads_than_elements() {
        let pool = ThreadPool::new(8);
        let mut out = vec![0i64; 3];
        let red = KeeperReduction::<i64, Sum>::new(&mut out, 8);
        reduce(&pool, &red, 0..100, Schedule::default(), |v, i| {
            v.apply(i % 3, 1);
        });
        drop(red);
        assert_eq!(out.iter().sum::<i64>(), 100);
    }

    #[test]
    fn telemetry_tracks_forwarding() {
        let pool = ThreadPool::new(4);
        let n = 1000;

        // Matched ownership: nothing forwarded, nothing flushed.
        let mut out = vec![0i64; n];
        let red = KeeperReduction::<i64, Sum>::new(&mut out, 4);
        reduce(&pool, &red, 0..n, Schedule::default(), |v, i| {
            v.apply(i, 1);
        });
        let t = red.telemetry().totals();
        assert_eq!(t.applies, n as u64);
        assert_eq!(t.remote_enqueues, 0);
        assert_eq!(t.remote_flushed, 0);

        // Mismatched scatter: every update forwarded, and conservation
        // holds — every enqueued request is flushed by its owner.
        let mut out = vec![0i64; n];
        let red = KeeperReduction::<i64, Sum>::new(&mut out, 4);
        reduce(&pool, &red, 0..n, Schedule::default(), |v, i| {
            v.apply((i + n / 2) % n, 1);
        });
        let t = red.telemetry().totals();
        assert_eq!(t.applies, n as u64);
        assert!(t.remote_enqueues > 0);
        assert_eq!(t.remote_enqueues, t.remote_flushed);
        assert!(t.merged_bytes > 0);
    }

    #[test]
    fn reusable_across_regions() {
        let pool = ThreadPool::new(3);
        let mut out = vec![0i64; 30];
        let red = KeeperReduction::<i64, Sum>::new(&mut out, 3);
        for _ in 0..4 {
            reduce(&pool, &red, 0..30, Schedule::default(), |v, i| {
                v.apply(29 - i, 1);
            });
        }
        drop(red);
        assert!(out.iter().all(|&x| x == 4));
    }
}
