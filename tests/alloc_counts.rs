//! Allocation-count properties, read from the `memtrack` counting
//! allocator.
//!
//! `memtrack::total_allocations()` is process-wide, so any other test
//! running concurrently in the same binary inflates a measured window.
//! This binary therefore holds only counting tests, and each one holds
//! [`COUNTING`] for its whole body: the harness may run them on parallel
//! threads, but never two measurements at once.

mod common;

use common::{build_graph, run_regions_reused, PushKernel};
use ompsim::{Schedule, ThreadPool};
use spray::{reduce_strategy, Kernel, ReducerView, ReusableReducer, Strategy, Sum};
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: memtrack::CountingAlloc = memtrack::CountingAlloc;

/// Serializes the counting tests of this binary.
static COUNTING: Mutex<()> = Mutex::new(());

fn counting() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the next test may still measure.
    COUNTING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Privatizing every block of the array must allocate like a slab arena
/// (a handful of doubling slabs per thread), not like one-`Box<[T]>`-
/// per-block storage: strictly fewer heap allocations
/// than privatized blocks, for the whole region end to end.
#[test]
fn arena_allocates_slabs_not_per_block() {
    let _guard = counting();
    let n = 8192usize;
    let block = 64usize; // 128 blocks, each privatized by exactly one thread
    let pool = ThreadPool::new(4);
    let mut out = vec![0.0f64; n];

    struct TouchAll;
    impl Kernel<f64> for TouchAll {
        fn item<V: ReducerView<f64>>(&self, view: &mut V, i: usize) {
            view.apply(i, 1.0);
        }
    }

    let before = memtrack::total_allocations();
    let report = reduce_strategy::<f64, Sum, _>(
        Strategy::BlockPrivate { block_size: block },
        &pool,
        &mut out,
        0..n,
        Schedule::default(),
        &TouchAll,
    );
    let allocs = memtrack::total_allocations() - before;

    let privatized = report.counters.totals().fallback_privatizations;
    assert_eq!(
        privatized,
        (n / block) as u64,
        "every block privatizes once"
    );
    // The region's *entire* allocation count — bookkeeping vectors, slabs,
    // report strings and all — must stay below one allocation per
    // privatized block; boxed-slice storage alone would use one per block
    // before any bookkeeping.
    assert!(
        (allocs as u64) < privatized,
        "region allocated {allocs} times for {privatized} privatized blocks — \
         per-block allocation is back"
    );
    assert!(out.iter().all(|&x| x == 1.0));
}

/// Allocation ceiling of one warm planned-replay region, whatever the
/// array length and team width.
const WARM_REPLAY_ALLOCS: usize = 8;

/// Runs `regions` PageRank pushes through `reducer`, each recording or
/// replaying region plan 0, and returns the allocations they made.
fn planned_pushes(
    pool: &ThreadPool,
    reducer: &mut ReusableReducer<f64, Sum>,
    offsets: &[usize],
    targets: &[usize],
    ranks: &mut Vec<f64>,
    next: &mut Vec<f64>,
    regions: usize,
) -> usize {
    let n = ranks.len();
    let before = memtrack::total_allocations();
    for _ in 0..regions {
        next.iter_mut().for_each(|x| *x = 0.0);
        let kernel = PushKernel {
            offsets,
            targets,
            ranks,
        };
        reducer.run_planned(0, pool, next, 0..n, Schedule::default(), &kernel);
        std::mem::swap(ranks, next);
    }
    memtrack::total_allocations() - before
}

/// Region reuse must actually stop allocating: a PageRank-style loop that
/// drives a [`ReusableReducer`] region after region may not allocate new
/// privatization scratch once warm, and a warm planned replay stays under
/// a fixed per-region allocation ceiling.
#[test]
fn warm_pagerank_regions_do_not_allocate_scratch() {
    let _guard = counting();
    let n = 1 << 13;
    let block = 64;
    let (offsets, targets) = build_graph(n);
    let pool = ThreadPool::new(4);
    let mut ranks = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];

    for strategy in [
        Strategy::BlockPrivate { block_size: block },
        Strategy::BlockLock { block_size: block },
        Strategy::BlockCas { block_size: block },
    ] {
        let mut reducer = ReusableReducer::<f64, Sum>::new(strategy);

        // Warm-up: the first regions materialize base tables and private
        // block copies; `finish` retains them for the next region.
        run_regions_reused(
            &pool,
            &mut reducer,
            &offsets,
            &targets,
            &mut ranks,
            &mut next,
            2,
        );

        // Warm regions: all reducer scratch must come from the retained
        // pool. The only remaining allocations are the driver's per-region
        // bookkeeping (schedule instance, job dispatch), a small constant
        // per region independent of array length and block count.
        let regions = 5;
        let before = memtrack::total_allocations();
        run_regions_reused(
            &pool,
            &mut reducer,
            &offsets,
            &targets,
            &mut ranks,
            &mut next,
            regions,
        );
        let warm = memtrack::total_allocations() - before;

        // Fresh-reducer baseline over the same regions: every region pays
        // for base tables, slot vectors and private block copies anew.
        let before = memtrack::total_allocations();
        for _ in 0..regions {
            next.iter_mut().for_each(|x| *x = 0.0);
            let kernel = PushKernel {
                offsets: &offsets,
                targets: &targets,
                ranks: &ranks,
            };
            reduce_strategy::<f64, Sum, _>(
                strategy,
                &pool,
                &mut next,
                0..n,
                Schedule::default(),
                &kernel,
            );
            std::mem::swap(&mut ranks, &mut next);
        }
        let fresh = memtrack::total_allocations() - before;

        assert!(
            warm <= regions * 64,
            "{}: warm regions allocated {warm} times over {regions} regions \
             (> {} budget) — scratch is being rebuilt instead of reused",
            strategy.label(),
            regions * 64,
        );
        assert!(
            warm * 4 < fresh,
            "{}: warm path ({warm} allocs) should be far below the \
             fresh-reducer path ({fresh} allocs)",
            strategy.label(),
        );
    }

    // Planned-replay leg: once a plan is recorded and replayed, each
    // further replay allocates only a fixed handful of times for its
    // per-region bookkeeping, the same at every array length and team
    // width.
    for n in [1 << 10, 1 << 14] {
        let (offsets, targets) = build_graph(n);
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            for strategy in [
                Strategy::BlockPrivate { block_size: block },
                Strategy::BlockLock { block_size: block },
                Strategy::BlockCas { block_size: block },
            ] {
                let mut ranks = vec![1.0 / n as f64; n];
                let mut next = vec![0.0f64; n];
                let mut reducer = ReusableReducer::<f64, Sum>::new(strategy);
                // Warm-up: a recording region and the first replay, which
                // lays out the replayed private copies.
                planned_pushes(
                    &pool,
                    &mut reducer,
                    &offsets,
                    &targets,
                    &mut ranks,
                    &mut next,
                    2,
                );
                let regions = 5;
                let replays = reducer.planned_regions();
                let warm = planned_pushes(
                    &pool,
                    &mut reducer,
                    &offsets,
                    &targets,
                    &mut ranks,
                    &mut next,
                    regions,
                );
                assert_eq!(
                    reducer.planned_regions() - replays,
                    regions as u64,
                    "{} n={n} threads={threads}: a warm region did not replay",
                    strategy.label()
                );
                assert!(
                    warm <= regions * WARM_REPLAY_ALLOCS,
                    "{} n={n} threads={threads}: {warm} allocations over {regions} warm \
                     replays (ceiling {WARM_REPLAY_ALLOCS} per region)",
                    strategy.label()
                );
            }
        }
    }
}

/// A replayed plan whose shared blocks form one contiguous run lays the
/// run's private copies out in one slab on its first replay; the replays
/// after it must reuse that slab, allocating nothing at all.
#[test]
fn warm_windowed_replays_allocate_nothing() {
    let _guard = counting();
    let n = 1 << 12;
    let pool = ThreadPool::new(2);
    let mut out = vec![0.0f64; n];
    // Each of the two iterations, one per thread, adds 1 to every
    // element: both threads touch every block of 64 f64 (512 bytes, so
    // the arena packs the slots and the plan's shared run gets the
    // window).
    let touch_all = |v: &mut spray::CountedView<'_, _>, _: usize| {
        for i in 0..n {
            v.apply(i, 1.0);
        }
    };
    let mut red = spray::BlockPrivateReduction::<f64, Sum>::new(&mut out, 2, 64);
    spray::reduce(&pool, &red, 0..2, Schedule::default(), touch_all);
    let plan = red.extract_plan();
    assert_eq!(plan.shared_blocks(), n / 64, "every block is shared");
    assert!(red.install_plan(std::sync::Arc::new(plan)));
    // The first replay lays the run out.
    spray::reduce(&pool, &red, 0..2, Schedule::default(), touch_all);
    let before = memtrack::total_allocations();
    for _ in 0..5 {
        spray::reduce(&pool, &red, 0..2, Schedule::default(), touch_all);
    }
    let warm = memtrack::total_allocations() - before;
    assert!(!red.plan_deviated());
    drop(red);
    assert!(
        out.iter().all(|&x| x == 14.0),
        "seven regions of two passes"
    );
    assert_eq!(warm, 0, "warm windowed replays allocated {warm} times");
}
