//! Persistent fork/join thread pool with OpenMP-style teams.
//!
//! # Hot-path design
//!
//! Production OpenMP runtimes do not take a mutex to start a region or to
//! pass a barrier; they publish work through atomics and let waiters spin
//! briefly before sleeping. This pool does the same:
//!
//! * **Region handoff** is an epoch-stamped job slot: the leader writes
//!   the type-erased closure pointer, bumps an `AtomicU64` epoch
//!   (release), and wakes any parked workers. Workers detect the new
//!   epoch with an acquire load — no lock on the fast path.
//! * **[`Team::barrier`]** is a central **sense-reversing barrier**: one
//!   `fetch_add` per arriving thread, and the last arriver resets the
//!   count and flips the shared sense flag that everyone else is
//!   watching. Each thread keeps its expected sense locally, so the
//!   barrier is reusable back-to-back with no reinitialization.
//! * **Graded waiting** everywhere: a bounded spin (with `spin_loop`
//!   hints), then a bounded run of `yield_now`, then a condvar park with
//!   a short timeout re-check. The bounds keep oversubscribed or 1-vCPU
//!   hosts from burning cycles, while uncontended handoffs stay in the
//!   spin phase and never touch a lock.
//!
//! A thread that panics inside a region can no longer strand its
//! teammates: barrier waits watch the team panic flag and abort with a
//! panic of their own, so the region unwinds everywhere and the pool
//! stays usable.

use crate::schedule::{Schedule, ScheduleInstance};
use std::cell::{Cell, UnsafeCell};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bounded-wait tuning. Spin counts are deliberately modest: a wasted
/// spin phase on a 1-vCPU container costs well under a microsecond,
/// while a hit avoids the park/unpark round trip entirely.
const SPIN_ROUNDS: u32 = 128;
const YIELD_ROUNDS: u32 = 32;
const PARK_RECHECK: Duration = Duration::from_millis(1);

/// Spin → yield → park until `ready` returns true. `parked` pairs a
/// mutex with a condvar; wakers notify under the mutex, and the short
/// `wait_timeout` re-check makes a lost wakeup cost at most
/// [`PARK_RECHECK`] instead of a deadlock.
fn wait_until(parked: &(Mutex<()>, Condvar), ready: impl Fn() -> bool) {
    for _ in 0..SPIN_ROUNDS {
        if ready() {
            return;
        }
        std::hint::spin_loop();
    }
    for _ in 0..YIELD_ROUNDS {
        if ready() {
            return;
        }
        std::thread::yield_now();
    }
    let (lock, cv) = parked;
    let mut guard = lock.lock().unwrap_or_else(|e| e.into_inner());
    while !ready() {
        let (g, _timeout) = cv
            .wait_timeout(guard, PARK_RECHECK)
            .unwrap_or_else(|e| e.into_inner());
        guard = g;
    }
}

/// Wake every thread parked on `parked`. Taking the mutex orders the
/// notify against a waiter that has checked `ready` but not yet slept.
fn notify_parked(parked: &(Mutex<()>, Condvar)) {
    let (lock, cv) = parked;
    drop(lock.lock().unwrap_or_else(|e| e.into_inner()));
    cv.notify_all();
}

/// Handle to the executing team, passed to every thread of a parallel
/// region. Mirrors what `omp_get_thread_num()` / `omp_get_num_threads()` /
/// `#pragma omp barrier` expose inside an OpenMP region.
pub struct Team<'a> {
    tid: usize,
    nthreads: usize,
    shared: &'a Shared,
    /// Sense-reversing barrier: the value the shared sense flag will take
    /// once the barrier this thread arrives at next has completed.
    barrier_sense: Cell<bool>,
}

impl<'a> Team<'a> {
    fn new(tid: usize, nthreads: usize, shared: &'a Shared) -> Self {
        // The shared sense only flips when all `nthreads` threads reach a
        // barrier — which cannot complete before this team member is
        // constructed — so reading it here is race-free.
        let barrier_sense = Cell::new(!shared.barrier_sense.load(Ordering::Acquire));
        Team {
            tid,
            nthreads,
            shared,
            barrier_sense,
        }
    }

    /// This thread's id within the team, `0..num_threads()`. The thread that
    /// called [`ThreadPool::parallel`] is always id 0.
    #[inline]
    pub fn id(&self) -> usize {
        self.tid
    }

    /// Number of threads executing the region.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.nthreads
    }

    /// Team-wide barrier: blocks until every thread of the team has called
    /// it. Equivalent to `#pragma omp barrier`.
    ///
    /// If a teammate panics out of the region without reaching the
    /// barrier, waiting threads detect the panic and abort the wait with
    /// a panic of their own (re-raised to the [`ThreadPool::parallel`]
    /// caller), instead of deadlocking as a raw barrier would.
    #[inline]
    pub fn barrier(&self) {
        crate::verify::perturb(crate::verify::HookPoint::BarrierEnter);
        let sense = self.barrier_sense.get();
        self.barrier_sense.set(!sense);
        if self.nthreads == 1 {
            return;
        }
        let prev = self.shared.barrier_arrived.fetch_add(1, Ordering::AcqRel);
        if prev + 1 == self.nthreads {
            // Last arriver: reset the count *before* flipping the sense,
            // so a thread that races into the next barrier finds a clean
            // counter.
            self.shared.barrier_arrived.store(0, Ordering::Release);
            self.shared.barrier_sense.store(sense, Ordering::Release);
            notify_parked(&self.shared.barrier_parked);
        } else {
            let shared = self.shared;
            wait_until(&shared.barrier_parked, || {
                shared.panicked.load(Ordering::Relaxed)
                    || shared.barrier_sense.load(Ordering::Acquire) == sense
            });
            if shared.barrier_sense.load(Ordering::Acquire) != sense
                && shared.panicked.load(Ordering::Relaxed)
            {
                panic!("ompsim: teammate panicked; aborting barrier wait");
            }
        }
    }

    /// [`barrier`](Team::barrier), returning how long this thread waited
    /// for its teammates. The wait time is a direct per-thread load
    /// imbalance signal: the slowest thread of a balanced region waits
    /// ~zero, everyone else waits out the stragglers. Used by spray's
    /// telemetry layer to attribute region time to the barrier phase.
    #[inline]
    pub fn barrier_timed(&self) -> Duration {
        let start = Instant::now();
        self.barrier();
        start.elapsed()
    }
}

/// Type-erased borrowed job pointer. The pool guarantees the closure
/// outlives every use: `parallel` does not return until all team threads
/// have finished the epoch.
#[derive(Copy, Clone)]
struct JobRef {
    f: *const (dyn Fn(&Team<'_>) + Sync),
}
// SAFETY: the pointee is `Sync` and `parallel` blocks until all uses end.
unsafe impl Send for JobRef {}

struct Shared {
    /// Monotonically increasing region counter; a changed epoch tells a
    /// worker a new job is available in `job`.
    epoch: AtomicU64,
    /// Written by the region leader strictly before the epoch bump that
    /// publishes it; read by workers strictly after observing the bump.
    job: UnsafeCell<Option<JobRef>>,
    /// Worker threads that have not yet finished the current epoch.
    remaining: AtomicUsize,
    shutdown: AtomicBool,
    /// Set when any team thread panicked during the current region.
    panicked: AtomicBool,
    /// Workers park here between regions.
    work_parked: (Mutex<()>, Condvar),
    /// The region leader parks here while draining `remaining`.
    done_parked: (Mutex<()>, Condvar),
    /// Sense-reversing team barrier state (see [`Team::barrier`]).
    barrier_arrived: AtomicUsize,
    barrier_sense: AtomicBool,
    barrier_parked: (Mutex<()>, Condvar),
}

// SAFETY: `job` is the only non-Sync field; the epoch/remaining protocol
// (release-publish before the bump, acquire-read after it, leader blocked
// until `remaining == 0`) gives it single-writer/quiescent-reader access.
unsafe impl Sync for Shared {}

/// A persistent pool of `n - 1` worker threads forming, together with the
/// calling thread, teams of `n` threads for [`ThreadPool::parallel`]
/// regions.
/// # Sharing one pool between jobs
///
/// A pool may be shared (e.g. behind an `Arc`) by any number of OS
/// threads: `parallel` takes an internal **region lock**, so concurrent
/// callers serialize — only one team is ever active (nested parallelism
/// is not supported, as in `OMP_NESTED=false`). This is what lets a
/// multi-tenant serving layer run many jobs' regions on one team of
/// workers without aliasing their per-region state.
///
/// The region lock sits at the **top** of the workspace's lock order:
/// callers must not hold any other lock a region body (or another
/// region-submitting thread) could need while calling `parallel` —
/// spray's arena slab-pool mutex is a leaf lock taken strictly outside
/// or strictly inside a region, never across one.
/// [`ThreadPool::regions_run`] counts completed regions, so a serving
/// layer can report how many regions its job stream actually coalesced
/// into.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    nthreads: usize,
    /// Serializes parallel regions: only one team may be active at a time
    /// (nested parallelism is not supported, as in `OMP_NESTED=false`).
    region_lock: Mutex<()>,
    /// Parallel regions completed on this pool (all callers combined).
    regions_run: AtomicU64,
}

impl ThreadPool {
    /// Creates a pool that runs parallel regions on `nthreads` threads
    /// (the caller plus `nthreads - 1` spawned workers).
    ///
    /// # Panics
    /// Panics if `nthreads == 0`.
    pub fn new(nthreads: usize) -> Self {
        assert!(nthreads > 0, "thread pool needs at least one thread");
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            job: UnsafeCell::new(None),
            remaining: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            work_parked: (Mutex::new(()), Condvar::new()),
            done_parked: (Mutex::new(()), Condvar::new()),
            barrier_arrived: AtomicUsize::new(0),
            barrier_sense: AtomicBool::new(false),
            barrier_parked: (Mutex::new(()), Condvar::new()),
        });
        let workers = (1..nthreads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ompsim-worker-{tid}"))
                    .spawn(move || worker_loop(&shared, tid, nthreads))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            nthreads,
            region_lock: Mutex::new(()),
            regions_run: AtomicU64::new(0),
        }
    }

    /// Number of threads in each team.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.nthreads
    }

    /// Parallel regions completed on this pool, across all callers —
    /// a batching serving layer's ground truth for "how many regions did
    /// this job stream actually cost".
    #[inline]
    pub fn regions_run(&self) -> u64 {
        self.regions_run.load(Ordering::Relaxed)
    }

    /// Runs `f` once on every team thread (including the caller, as thread
    /// 0) and returns when all of them have finished — the equivalent of
    /// `#pragma omp parallel`.
    ///
    /// # Panics
    /// If any team thread panics, the panic is captured and re-raised on
    /// the calling thread after the region completes. Threads blocked at a
    /// [`Team::barrier`] when a teammate panics abort their wait (see
    /// there), so panics propagate from barrier-ful regions too.
    pub fn parallel<F>(&self, f: F)
    where
        F: Fn(&Team<'_>) + Sync,
    {
        // Poison-tolerant: a leader panic unwinds through this guard (the
        // payload is re-raised below while it is held), which must not
        // brick the pool for later regions.
        let _region = self.region_lock.lock().unwrap_or_else(|e| e.into_inner());
        let erased: &(dyn Fn(&Team<'_>) + Sync) = &f;
        let job = JobRef {
            // Erase the lifetime: we block below until every worker is done.
            f: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(&Team<'_>) + Sync),
                    *const (dyn Fn(&Team<'_>) + Sync),
                >(erased as *const _)
            },
        };

        // Publish the job: slot and countdown first, then the epoch bump
        // (release) that workers synchronize on.
        // SAFETY: workers are quiescent between regions (they only touch
        // the slot after observing an epoch bump, and the previous region
        // drained `remaining` to 0), so this plain write is exclusive.
        unsafe { *self.shared.job.get() = Some(job) };
        self.shared
            .remaining
            .store(self.nthreads - 1, Ordering::Relaxed);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        if self.nthreads > 1 {
            notify_parked(&self.shared.work_parked);
        }

        // The caller participates as thread 0.
        let team = Team::new(0, self.nthreads, &self.shared);
        let leader_result = catch_unwind(AssertUnwindSafe(|| {
            crate::verify::enter_region(0);
            f(&team)
        }));
        if leader_result.is_err() {
            self.shared.panicked.store(true, Ordering::Relaxed);
        }

        // Join the epoch: wait for every worker to retire. The acquire
        // load pairs with the workers' release decrement, making all their
        // region writes visible to the caller.
        let shared = &*self.shared;
        wait_until(&shared.done_parked, || {
            shared.remaining.load(Ordering::Acquire) == 0
        });

        self.regions_run.fetch_add(1, Ordering::Relaxed);
        let worker_panicked = self.shared.panicked.swap(false, Ordering::Relaxed);
        if worker_panicked || leader_result.is_err() {
            // A panic may have left threads mid-barrier; restore the
            // arrival count so the next region starts clean.
            self.shared.barrier_arrived.store(0, Ordering::Release);
        }
        if let Err(payload) = leader_result {
            // Prefer the leader's own payload so callers see the original
            // panic message.
            std::panic::resume_unwind(payload);
        }
        if worker_panicked {
            panic!("ompsim: a thread panicked inside a parallel region");
        }
    }

    /// [`parallel`](ThreadPool::parallel), returning the wall time of the
    /// whole region including the pool's fork/join handoff. Subtracting
    /// the slowest thread's in-region time from this yields the pool's own
    /// overhead — the number spray's telemetry layer reports as
    /// `region_secs`.
    pub fn parallel_timed<F>(&self, f: F) -> Duration
    where
        F: Fn(&Team<'_>) + Sync,
    {
        let start = Instant::now();
        self.parallel(f);
        start.elapsed()
    }

    /// OpenMP-style `parallel for` over `range`: `body(tid, chunk)` is
    /// invoked for every chunk the schedule assigns to thread `tid`.
    /// Chunk-level granularity keeps per-index overhead out of the runtime.
    pub fn parallel_for<F>(&self, range: Range<usize>, schedule: Schedule, body: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let inst = ScheduleInstance::new(schedule, range, self.nthreads);
        self.parallel(|team| {
            for chunk in inst.chunks(team.id()) {
                body(team.id(), chunk);
            }
        });
    }

    /// Per-index convenience wrapper over [`ThreadPool::parallel_for`].
    pub fn for_each<F>(&self, range: Range<usize>, schedule: Schedule, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.parallel_for(range, schedule, |_tid, chunk| {
            for i in chunk {
                body(i);
            }
        });
    }

    /// Doubly-nested parallel loop with the iteration space flattened
    /// before scheduling — OpenMP's `collapse(2)`. `body(i, j)` runs once
    /// for every point of `rows × cols`.
    pub fn for_each_2d<F>(
        &self,
        rows: Range<usize>,
        cols: Range<usize>,
        schedule: Schedule,
        body: F,
    ) where
        F: Fn(usize, usize) + Sync,
    {
        let ncols = cols.end.saturating_sub(cols.start);
        let nrows = rows.end.saturating_sub(rows.start);
        if ncols == 0 || nrows == 0 {
            return;
        }
        let (r0, c0) = (rows.start, cols.start);
        // Decompose each chunk once and walk rows within it, instead of a
        // div + mod per index — the 2-D conv hot loop is why.
        self.parallel_for(0..nrows * ncols, schedule, |_tid, chunk| {
            let mut i = chunk.start / ncols;
            let mut j = chunk.start - i * ncols;
            for _ in chunk.clone() {
                body(r0 + i, c0 + j);
                j += 1;
                if j == ncols {
                    j = 0;
                    i += 1;
                }
            }
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        notify_parked(&self.shared.work_parked);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, tid: usize, nthreads: usize) {
    let mut last_epoch = 0u64;
    loop {
        wait_until(&shared.work_parked, || {
            shared.shutdown.load(Ordering::Acquire)
                || shared.epoch.load(Ordering::Acquire) != last_epoch
        });
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        last_epoch = shared.epoch.load(Ordering::Acquire);
        // SAFETY: the acquire epoch load above pairs with the leader's
        // release bump, ordering this read after the leader's slot write;
        // the leader does not reuse the slot until `remaining` drains.
        let job = unsafe { (*shared.job.get()).expect("epoch advanced without a job") };

        let team = Team::new(tid, nthreads, shared);
        // SAFETY: the leader blocks in `parallel` until `remaining == 0`,
        // so the borrowed closure behind `job.f` is still alive here.
        let result = catch_unwind(AssertUnwindSafe(|| {
            crate::verify::enter_region(tid);
            unsafe { (*job.f)(&team) }
        }));
        if result.is_err() {
            shared.panicked.store(true, Ordering::Relaxed);
        }

        if shared.remaining.fetch_sub(1, Ordering::Release) == 1 {
            notify_parked(&shared.done_parked);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    #[test]
    fn single_thread_pool_runs_on_caller() {
        let pool = ThreadPool::new(1);
        let hit = AtomicBool::new(false);
        pool.parallel(|team| {
            assert_eq!(team.id(), 0);
            assert_eq!(team.num_threads(), 1);
            hit.store(true, Ordering::Relaxed);
        });
        assert!(hit.into_inner());
    }

    #[test]
    fn every_thread_participates_once() {
        for n in [1, 2, 3, 4, 7, 16] {
            let pool = ThreadPool::new(n);
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel(|team| {
                counts[team.id()].fetch_add(1, Ordering::Relaxed);
            });
            for c in &counts {
                assert_eq!(c.load(Ordering::Relaxed), 1);
            }
        }
    }

    #[test]
    fn regions_are_reusable() {
        let pool = ThreadPool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.parallel(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.into_inner(), 400);
    }

    #[test]
    fn barrier_orders_phases() {
        let pool = ThreadPool::new(4);
        let phase1 = AtomicUsize::new(0);
        let ok = AtomicBool::new(true);
        pool.parallel(|team| {
            phase1.fetch_add(1, Ordering::SeqCst);
            team.barrier();
            // After the barrier every thread must observe all 4 increments.
            if phase1.load(Ordering::SeqCst) != 4 {
                ok.store(false, Ordering::SeqCst);
            }
        });
        assert!(ok.into_inner());
    }

    #[test]
    fn many_barriers_back_to_back() {
        // Sense reversal must survive consecutive barriers and regions.
        let pool = ThreadPool::new(3);
        for _ in 0..10 {
            let counter = AtomicUsize::new(0);
            pool.parallel(|team| {
                for phase in 0..25 {
                    counter.fetch_add(1, Ordering::SeqCst);
                    team.barrier();
                    assert_eq!(
                        counter.load(Ordering::SeqCst),
                        (phase + 1) * team.num_threads(),
                        "barrier let a thread run ahead"
                    );
                    team.barrier();
                }
            });
        }
    }

    #[test]
    fn panic_in_region_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel(|team| {
                if team.id() == team.num_threads() - 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err());
        // The pool must still be usable afterwards.
        let n = AtomicUsize::new(0);
        pool.parallel(|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.into_inner(), 4);
    }

    #[test]
    fn panic_on_leader_propagates() {
        let pool = ThreadPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel(|team| {
                if team.id() == 0 {
                    panic!("leader boom");
                }
            });
        }));
        assert!(caught.is_err());
        let n = AtomicUsize::new(0);
        pool.parallel(|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.into_inner(), 2);
    }

    #[test]
    fn panic_before_barrier_releases_waiters() {
        // A panicking teammate used to deadlock threads already waiting at
        // the barrier; now they abort the wait and the region unwinds.
        let pool = ThreadPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel(|team| {
                if team.id() == 1 {
                    panic!("dies before the barrier");
                }
                team.barrier();
            });
        }));
        assert!(caught.is_err());
        // Barrier state must be clean: both plain and barrier-ful regions
        // still work.
        let n = AtomicUsize::new(0);
        pool.parallel(|team| {
            n.fetch_add(1, Ordering::SeqCst);
            team.barrier();
            assert_eq!(n.load(Ordering::SeqCst), team.num_threads());
        });
        assert_eq!(n.into_inner(), 4);
    }

    #[test]
    fn for_each_covers_range_exactly_once() {
        let pool = ThreadPool::new(3);
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each(0..n, Schedule::default(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn for_each_2d_covers_cross_product() {
        let pool = ThreadPool::new(3);
        let (nr, nc) = (7, 11);
        let hits: Vec<AtomicUsize> = (0..nr * nc).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each_2d(2..2 + nr, 5..5 + nc, Schedule::dynamic(4), |i, j| {
            assert!((2..9).contains(&i) && (5..16).contains(&j));
            hits[(i - 2) * nc + (j - 5)].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn for_each_2d_chunks_crossing_row_boundaries() {
        // Chunk sizes that straddle rows exercise the row-walking carry.
        let pool = ThreadPool::new(2);
        let (nr, nc) = (5, 7);
        for chunk in [1, 2, 3, 5, 7, 11, 35] {
            let hits: Vec<AtomicUsize> = (0..nr * nc).map(|_| AtomicUsize::new(0)).collect();
            pool.for_each_2d(0..nr, 0..nc, Schedule::static_chunked(chunk), |i, j| {
                hits[i * nc + j].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "chunk size {chunk} missed or duplicated an index"
            );
        }
    }

    #[test]
    fn for_each_2d_empty_dimensions() {
        let pool = ThreadPool::new(2);
        pool.for_each_2d(0..0, 0..5, Schedule::default(), |_, _| unreachable!());
        pool.for_each_2d(0..5, 3..3, Schedule::default(), |_, _| unreachable!());
    }

    #[test]
    fn empty_range_is_fine() {
        let pool = ThreadPool::new(4);
        pool.for_each(10..10, Schedule::default(), |_| unreachable!());
    }

    #[test]
    fn concurrent_regions_from_many_threads_serialize() {
        let pool = std::sync::Arc::new(ThreadPool::new(2));
        let total = std::sync::Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = std::sync::Arc::clone(&pool);
                let total = std::sync::Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        pool.parallel(|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 25 * 2);
        assert_eq!(pool.regions_run(), 100);
    }

    #[test]
    fn barrier_timed_charges_the_fast_thread() {
        let pool = ThreadPool::new(2);
        let waits = [AtomicU64::new(0), AtomicU64::new(0)];
        pool.parallel(|team| {
            if team.id() == 1 {
                std::thread::sleep(Duration::from_millis(30));
            }
            let waited = team.barrier_timed();
            waits[team.id()].store(waited.as_nanos() as u64, Ordering::Relaxed);
        });
        let fast = Duration::from_nanos(waits[0].load(Ordering::Relaxed));
        let slow = Duration::from_nanos(waits[1].load(Ordering::Relaxed));
        // Thread 0 waits out thread 1's sleep; thread 1 barely waits.
        assert!(fast >= Duration::from_millis(20), "fast waited {fast:?}");
        assert!(slow < Duration::from_millis(20), "slow waited {slow:?}");
    }

    #[test]
    fn parallel_timed_covers_the_region() {
        let pool = ThreadPool::new(3);
        let wall = pool.parallel_timed(|_| std::thread::sleep(Duration::from_millis(10)));
        assert!(wall >= Duration::from_millis(10), "region took {wall:?}");
    }
}
