//! The reduction abstraction and the parallel drivers.
//!
//! A [`Reduction`] wraps the output array for one parallel region and fixes
//! the *strategy*; it hands each team thread a [`ReducerView`], which is
//! the only thing the loop body sees (the analogue of the SPRAY reducer
//! object appearing inside the OpenMP `reduction` clause). The guarantee
//! is the paper's: *all contributions are visible in the original array
//! once the region ends*, while everything else (privatization, locking,
//! queuing, merge order) is strategy-private.

use crate::elem::Element;
use crate::strategy::Kernel;
use crate::telemetry::{PhaseBoard, Telemetry};
use ompsim::{Schedule, ScheduleInstance, ThreadPool};
use std::ops::Range;
use std::time::Instant;

/// A per-thread handle used by loop bodies to contribute updates.
///
/// `apply(i, v)` is the library form of the paper's `sout[i] += v`
/// (Rust has no overloadable compound index-assignment).
pub trait ReducerView<T: Element> {
    /// Accumulate `v` into logical location `i` of the wrapped array.
    ///
    /// # Panics
    /// May panic (or debug-assert, strategy-dependent) when `i` is out of
    /// bounds of the wrapped array. The block strategies check at block
    /// granularity in release builds: an index in a block past the array
    /// misses the view's base table, and every update the table does not
    /// resolve (a block's first touch in the region, a direct-owned
    /// partial trailing block) carries the full check, while updates into
    /// a resolved block are validated by a `debug_assert!`. A wild index
    /// can therefore produce garbage in the padding of a private block
    /// copy but never touches memory outside the reduction.
    fn apply(&mut self, i: usize, v: T);

    /// Runs `kernel.item(_, i)` for every `i` in `chunk` through this
    /// view and returns the applies made: the executor hands every
    /// schedule chunk of a [`Kernel`] region to the view through this
    /// method.
    ///
    /// The default counts through a [`CountedView`] that lives for the
    /// chunk, so the count is a chunk-local variable. The block views
    /// override it to run the chunk on a by-value copy of their hot
    /// fields (see [`crate::BlockView`]). Not part of the public API.
    #[doc(hidden)]
    #[inline]
    fn run_chunk<K: Kernel<T>>(&mut self, kernel: &K, chunk: Range<usize>) -> u64
    where
        Self: Sized,
    {
        let mut counted = CountedView::new(self);
        for i in chunk {
            kernel.item(&mut counted, i);
        }
        counted.applies()
    }
}

/// One reduction strategy bound to one output array.
///
/// # Lifecycle (driven by [`reduce`])
/// ```text
/// per thread t:  view(t)  →  body(view, i)*  →  stash(t, view)
///                                 ──── team barrier ────
///                             epilogue(t)          (merge phase)
/// single-threaded afterwards:  finish()            (cleanup/reset)
/// ```
///
/// Implementations must guarantee that after every thread has run
/// `epilogue`, the wrapped array contains the combined result, and that
/// after `finish` the object is ready for another region.
pub trait Reduction<T: Element>: Sync {
    /// Per-thread handle type. Views may hold raw pointers into the
    /// reduction's shared state; the driver keeps the reduction alive and
    /// in place while any view exists.
    type View: ReducerView<T>;

    /// Creates thread `tid`'s view. Kept cheap (the paper's `init`):
    /// strategies allocate lazily wherever possible.
    fn view(&self, tid: usize) -> Self::View;

    /// Returns thread `tid`'s view after the loop, making its private data
    /// available to the merge phase. Called exactly once per thread per
    /// region, before the team barrier.
    fn stash(&self, tid: usize, view: Self::View);

    /// Merge phase for thread `tid`, entered only after *all* threads have
    /// stashed (the driver puts a team barrier in between).
    fn epilogue(&self, tid: usize);

    /// Single-threaded cleanup after the region: release or reset
    /// region-scoped state. The default does nothing.
    fn finish(&self) {}

    /// Strategy label as used in the paper's plots (e.g. `block-CAS-1024`).
    fn name(&self) -> String;

    /// Team width this reduction was built for.
    fn num_threads(&self) -> usize;

    /// Length of the wrapped array.
    fn len(&self) -> usize;

    /// Whether the wrapped array is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of extra bytes this reduction allocated for
    /// privatization/bookkeeping — the per-strategy analogue of the
    /// paper's memory-overhead measurement.
    fn memory_overhead(&self) -> usize;

    /// Per-thread event counters accumulated since this reduction was
    /// constructed (see [`crate::Counters`] for field semantics). The
    /// default is all-zero, for wrappers and strategies with nothing to
    /// report. [`crate::RegionExecutor`] builds a fresh reduction per
    /// region, so reports it produces are per-region; a manually reused
    /// reduction keeps counting across regions.
    fn telemetry(&self) -> Telemetry {
        Telemetry::empty(self.num_threads())
    }

    /// Driver callback crediting thread `tid` with the `applies` its
    /// view made this region. The drivers count applies per schedule
    /// chunk, in a chunk-local counter ([`CountedView`] or the block
    /// views' chunk handle), instead of in a field of the strategy view:
    /// a view-resident counter is a loop-carried memory round-trip the
    /// hot path can't afford. Strategies with a telemetry board fold the
    /// count into it; the default drops it.
    fn record_applies(&self, _tid: usize, _applies: u64) {}
}

/// The view the closure drivers ([`reduce`], [`reduce_chunked`]) hand to
/// loop bodies, and the default [`ReducerView::run_chunk`] hands to a
/// [`Kernel`]: forwards every [`apply`](ReducerView::apply) to the
/// strategy view while counting it.
///
/// The counter lives here, in a wrapper built per schedule chunk, rather
/// than in the strategy views: the strategy view's own address escapes
/// into outlined slow paths (and the sret return of [`Reduction::view`]),
/// which turns a view-resident counter into a load-add-store chain whose
/// store-forwarding latency rivals the whole fast path. The wrapper's
/// counter stays in a register only if the chunk loop and the body are
/// inlined into one function; a per-chunk body kept out of line gets the
/// wrapper by reference and stores the counter on every apply.
/// [`ReducerView::run_chunk`] keeps the loop and the counter of a
/// [`Kernel`] region in one frame.
pub struct CountedView<'a, V> {
    inner: &'a mut V,
    applies: u64,
}

impl<'a, V> CountedView<'a, V> {
    /// Wraps a strategy view for one loop phase.
    pub fn new(inner: &'a mut V) -> Self {
        CountedView { inner, applies: 0 }
    }

    /// Applies counted so far.
    pub fn applies(&self) -> u64 {
        self.applies
    }
}

impl<T: Element, V: ReducerView<T>> ReducerView<T> for CountedView<'_, V> {
    #[inline(always)]
    fn apply(&mut self, i: usize, v: T) {
        self.applies += 1;
        self.inner.apply(i, v);
    }
}

/// Runs `body(view, i)` for every `i` in `range`, distributing iterations
/// over `pool` according to `schedule`, with all updates accumulated
/// through `red` — the analogue of
/// `#pragma omp parallel for reduction(+: sout[0:N])`.
///
/// # Panics
/// Panics if the pool width differs from `red.num_threads()`. A panic
/// inside `body` deadlocks the team (as in OpenMP, where a thread that
/// never reaches the implicit barrier hangs its team) — keep bodies
/// panic-free.
pub fn reduce<T, R, F>(pool: &ThreadPool, red: &R, range: Range<usize>, schedule: Schedule, body: F)
where
    T: Element,
    R: Reduction<T>,
    F: Fn(&mut CountedView<'_, R::View>, usize) + Sync,
{
    reduce_chunked(pool, red, range, schedule, |view, chunk| {
        for i in chunk {
            body(view, i);
        }
    });
}

/// Chunk-granular variant of [`reduce`]: `body` receives whole schedule
/// chunks, letting kernels hoist work out of the per-index path (e.g. the
/// CSR kernel's row loop).
pub fn reduce_chunked<T, R, F>(
    pool: &ThreadPool,
    red: &R,
    range: Range<usize>,
    schedule: Schedule,
    body: F,
) where
    T: Element,
    R: Reduction<T>,
    F: Fn(&mut CountedView<'_, R::View>, Range<usize>) + Sync,
{
    reduce_chunked_phased(
        pool,
        red,
        range,
        schedule,
        |view, chunk| {
            let mut counted = CountedView::new(view);
            body(&mut counted, chunk);
            counted.applies()
        },
        None,
    );
}

/// The driver behind [`reduce_chunked`] and the executor: `body(view,
/// chunk)` runs one schedule chunk on the thread's strategy view and
/// returns the applies it made. Optionally records per-phase wall times
/// into `phases` (one [`Instant`] pair per phase per thread — only taken
/// when a board is attached, so the untimed path stays untouched). The
/// [`crate::RegionExecutor`] is the only caller that attaches a board.
pub(crate) fn reduce_chunked_phased<T, R, F>(
    pool: &ThreadPool,
    red: &R,
    range: Range<usize>,
    schedule: Schedule,
    body: F,
    phases: Option<&PhaseBoard>,
) where
    T: Element,
    R: Reduction<T>,
    F: Fn(&mut R::View, Range<usize>) -> u64 + Sync,
{
    assert_eq!(
        pool.num_threads(),
        red.num_threads(),
        "reduction built for {} threads but pool has {}",
        red.num_threads(),
        pool.num_threads()
    );
    // Up-front sanity check, once per region instead of once per apply:
    // a nonempty iteration space over an empty output can only ever
    // scatter out of bounds. In-range indices are then validated by the
    // strategies themselves (block strategies: cold-path asserts at block
    // granularity, hot-path debug asserts — see `ReducerView::apply`).
    assert!(
        !red.is_empty() || range.is_empty(),
        "nonempty reduction range {range:?} over an empty output array"
    );
    let inst = ScheduleInstance::new(schedule, range, pool.num_threads());
    match phases {
        None => {
            pool.parallel(|team| {
                let tid = team.id();
                let mut view = red.view(tid);
                let mut applies = 0;
                for chunk in inst.chunks(tid) {
                    applies += body(&mut view, chunk);
                }
                red.record_applies(tid, applies);
                red.stash(tid, view);
                team.barrier();
                red.epilogue(tid);
            });
            red.finish();
        }
        Some(board) => {
            let region = pool.parallel_timed(|team| {
                let tid = team.id();
                let loop_start = Instant::now();
                let mut view = red.view(tid);
                let mut applies = 0;
                for chunk in inst.chunks(tid) {
                    applies += body(&mut view, chunk);
                }
                red.record_applies(tid, applies);
                red.stash(tid, view);
                let loop_time = loop_start.elapsed();
                let barrier_time = team.barrier_timed();
                let epilogue_start = Instant::now();
                red.epilogue(tid);
                board.record(tid, loop_time, barrier_time, epilogue_start.elapsed());
            });
            board.set_region(region);
            let finish_start = Instant::now();
            red.finish();
            board.set_finish(finish_start.elapsed());
        }
    }
}

/// Sequential reference reduction: applies `body` over `range` directly on
/// `out` with no parallelism or privatization. This is the baseline all
/// strategies must reproduce (up to floating-point reassociation).
pub fn reduce_seq<T, O, F>(out: &mut [T], range: Range<usize>, mut body: F)
where
    T: Element,
    O: crate::ReduceOp<T>,
    F: FnMut(&mut SeqView<'_, T, O>, usize),
{
    let mut view = SeqView {
        out,
        _op: std::marker::PhantomData,
    };
    for i in range {
        body(&mut view, i);
    }
}

/// View used by [`reduce_seq`].
pub struct SeqView<'a, T, O> {
    out: &'a mut [T],
    _op: std::marker::PhantomData<O>,
}

impl<T: Element, O: crate::ReduceOp<T>> ReducerView<T> for SeqView<'_, T, O> {
    #[inline(always)]
    fn apply(&mut self, i: usize, v: T) {
        self.out[i] = O::combine(self.out[i], v);
    }
}
