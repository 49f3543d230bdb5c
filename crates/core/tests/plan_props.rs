//! Planned/unplanned equivalence properties for region plans.
//!
//! For every plannable strategy (the three block flavors and Keeper),
//! over randomized shapes (array length, update count, team width, block
//! size, schedule):
//!
//! * a recording region followed by replay regions produces exactly the
//!   same array as [`spray::reduce_seq`] — with `i64` elements the sum is
//!   associative, so "same as sequential" means bit-identical no matter
//!   how the plan reorders the merge;
//! * clean replays are counted in `planned_regions`;
//! * a **stale plan** — replaying a region whose index stream deviates
//!   from the recorded one — still produces the exact result (the block
//!   flavors privatize the deviating blocks and fall back to the
//!   dirty-list epilogue; Keeper plans are advisory queue sizing only).

use proptest::prelude::*;
use spray::{reduce_seq, Kernel, ReducerView, RegionExecutor, Strategy, Sum};

/// Scatter kernel whose footprint is a deterministic function of `seed`:
/// different seeds touch different index sets, which is exactly what a
/// stale plan needs to deviate.
struct Scatter {
    n: usize,
    seed: usize,
}

impl Kernel<i64> for Scatter {
    fn item<V: ReducerView<i64>>(&self, view: &mut V, i: usize) {
        view.apply((i * 7919 + self.seed * 131) % self.n, 1);
        view.apply((i * 31 + 7 + self.seed) % self.n, 2);
    }
}

fn expected(n: usize, updates: usize, seed: usize) -> Vec<i64> {
    let mut out = vec![0i64; n];
    let k = Scatter { n, seed };
    reduce_seq::<i64, Sum, _>(&mut out, 0..updates, |v, i| k.item(v, i));
    out
}

fn plannable(bs: usize) -> Vec<Strategy> {
    vec![
        Strategy::BlockPrivate { block_size: bs },
        Strategy::BlockLock { block_size: bs },
        Strategy::BlockCas { block_size: bs },
        Strategy::Keeper,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn planned_replay_is_bit_identical_to_unplanned(
        n in 8..200usize,
        updates in 1..300usize,
        threads in 1..5usize,
        bs in prop::sample::select(vec![4usize, 16, 64]),
        dynamic in prop::sample::select(vec![false, true]),
    ) {
        let pool = ompsim::ThreadPool::new(threads);
        let schedule = if dynamic {
            ompsim::Schedule::dynamic(3)
        } else {
            ompsim::Schedule::default()
        };
        let want = expected(n, updates, 0);
        let kernel = Scatter { n, seed: 0 };

        for strategy in plannable(bs) {
            let label = strategy.label();

            // Unplanned reference through the same executor machinery.
            let mut ex = RegionExecutor::<i64, Sum>::new(strategy);
            let mut unplanned = vec![0i64; n];
            ex.run(&pool, &mut unplanned, 0..updates, schedule, &kernel);
            prop_assert_eq!(&unplanned, &want, "{}: unplanned diverges", label);

            // Recording region + two replays, fresh output each region.
            let mut ex = RegionExecutor::<i64, Sum>::new(strategy);
            for region in 0..3u64 {
                let mut out = vec![0i64; n];
                let report =
                    ex.run_planned(7, &pool, &mut out, 0..updates, schedule, &kernel);
                prop_assert_eq!(
                    &out, &want,
                    "{}: planned region {} diverges", label, region
                );
                prop_assert!(
                    ex.plan_build_secs() >= 0.0,
                    "{}: negative plan build time", label
                );
                // With a static schedule the replayed footprint matches
                // the recorded one exactly, so every region after the
                // first must count as planned. (Dynamic chunk assignment
                // varies run to run; deviating replays may legitimately
                // re-record, so only the static case is pinned.)
                if !dynamic {
                    prop_assert_eq!(
                        report.planned_regions, region,
                        "{}: clean replay not counted at region {}", label, region
                    );
                }
            }
        }
    }

    #[test]
    fn stale_plan_falls_back_to_exact_result(
        n in 8..200usize,
        updates in 1..300usize,
        threads in 1..5usize,
        bs in prop::sample::select(vec![4usize, 16, 64]),
    ) {
        let pool = ompsim::ThreadPool::new(threads);
        let schedule = ompsim::Schedule::default();

        for strategy in plannable(bs) {
            let label = strategy.label();
            let mut ex = RegionExecutor::<i64, Sum>::new(strategy);

            // Record under kernel A...
            let mut out = vec![0i64; n];
            ex.run_planned(0, &pool, &mut out, 0..updates, schedule, &Scatter { n, seed: 1 });
            prop_assert_eq!(&out, &expected(n, updates, 1), "{}: recording", label);

            // ...then replay the SAME region id with kernel B, whose
            // index stream deviates. Must be exact, not merely close.
            let mut out = vec![0i64; n];
            ex.run_planned(0, &pool, &mut out, 0..updates, schedule, &Scatter { n, seed: 2 });
            prop_assert_eq!(&out, &expected(n, updates, 2), "{}: stale replay", label);

            // The rebuild self-heals: kernel B now replays cleanly.
            let planned_before = ex.planned_regions();
            let mut out = vec![0i64; n];
            ex.run_planned(0, &pool, &mut out, 0..updates, schedule, &Scatter { n, seed: 2 });
            prop_assert_eq!(&out, &expected(n, updates, 2), "{}: healed replay", label);
            prop_assert!(
                ex.planned_regions() > planned_before,
                "{}: healed plan should replay cleanly", label
            );
        }
    }
}

/// Regression: `clear_plans` used to drop the cached plans but leave
/// `planned_regions` and `plan_build_secs` at their pre-clear values, so
/// any report issued after an invalidation blended statistics from two
/// plan epochs. Clearing must zero both counters, and the executor must
/// re-record and replay cleanly in the fresh epoch.
#[test]
fn clear_plans_resets_statistics_and_rerecords() {
    let pool = ompsim::ThreadPool::new(3);
    let schedule = ompsim::Schedule::default();
    let (n, updates) = (64usize, 200usize);
    let want = expected(n, updates, 3);
    let kernel = Scatter { n, seed: 3 };

    for strategy in plannable(16) {
        let label = strategy.label();
        let mut ex = RegionExecutor::<i64, Sum>::new(strategy);
        for _ in 0..3 {
            let mut out = vec![0i64; n];
            ex.run_planned(1, &pool, &mut out, 0..updates, schedule, &kernel);
            assert_eq!(out, want, "{label}: pre-clear region diverges");
        }
        assert!(ex.planned_regions() > 0, "{label}: replays must be counted");
        assert!(
            ex.plan_build_secs() > 0.0,
            "{label}: recording must accrue build time"
        );

        ex.clear_plans();
        assert_eq!(
            ex.planned_regions(),
            0,
            "{label}: planned_regions survived clear_plans"
        );
        assert_eq!(
            ex.plan_build_secs(),
            0.0,
            "{label}: plan_build_secs survived clear_plans"
        );

        // Fresh epoch: one recording region, one clean replay.
        for _ in 0..2 {
            let mut out = vec![0i64; n];
            ex.run_planned(1, &pool, &mut out, 0..updates, schedule, &kernel);
            assert_eq!(out, want, "{label}: post-clear region diverges");
        }
        assert_eq!(
            ex.planned_regions(),
            1,
            "{label}: fresh epoch must count only post-clear replays"
        );
    }
}
