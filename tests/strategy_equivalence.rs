//! The crate's core guarantee (paper §IV): every reducer strategy yields
//! the same result as the sequential loop for associative & commutative
//! operations — bit-exact for integers, up to reassociation for floats.
//! Property-based over arbitrary update streams, schedules and team sizes.

use ompsim::{Schedule, ThreadPool};
use proptest::prelude::*;
use spray::{
    reduce_strategy, DeltaBatch, Kernel, Max, Min, PlanBudget, Prod, ReduceOp, ReducerView,
    RegionExecutor, ReusableReducer, Strategy, Sum,
};

/// An explicit update stream: iteration i performs updates[i].
struct StreamKernel<'a, T> {
    updates: &'a [Vec<(usize, T)>],
}

impl<T: spray::AtomicElement> Kernel<T> for StreamKernel<'_, T> {
    fn item<V: ReducerView<T>>(&self, view: &mut V, i: usize) {
        for &(idx, v) in &self.updates[i] {
            view.apply(idx, v);
        }
    }
}

fn sequential_apply<T: Copy, O: ReduceOp<T>>(out: &mut [T], updates: &[Vec<(usize, T)>]) {
    for step in updates {
        for &(idx, v) in step {
            out[idx] = O::combine(out[idx], v);
        }
    }
}

/// Strategy list exercised by the properties.
fn strategies(block: usize) -> Vec<Strategy> {
    Strategy::all(block)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn integer_sums_are_bit_exact(
        len in 1usize..80,
        threads in 1usize..6,
        block in prop::sample::select(vec![1usize, 3, 16, 64]),
        seed in any::<u64>(),
    ) {
        // Derive a deterministic update stream from the seed.
        let n_iters = 200;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
            .map(|_| {
                let k = (next() % 4) as usize;
                (0..k)
                    .map(|_| ((next() as usize) % len, (next() % 100) as i64 - 50))
                    .collect()
            })
            .collect();

        let mut expected = vec![0i64; len];
        sequential_apply::<i64, Sum>(&mut expected, &updates);

        let pool = ThreadPool::new(threads);
        let kernel = StreamKernel { updates: &updates };
        for strategy in strategies(block) {
            let mut out = vec![0i64; len];
            reduce_strategy::<i64, Sum, _>(
                strategy, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel,
            );
            prop_assert_eq!(&out, &expected, "strategy {}", strategy.label());
        }
    }

    #[test]
    fn float_sums_agree_within_reassociation(
        len in 1usize..60,
        threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        let n_iters = 150;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let updates: Vec<Vec<(usize, f64)>> = (0..n_iters)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        (
                            (next() as usize) % len,
                            ((next() % 1000) as f64 - 500.0) * 0.125,
                        )
                    })
                    .collect()
            })
            .collect();

        let mut expected = vec![0.0f64; len];
        sequential_apply::<f64, Sum>(&mut expected, &updates);
        let scale = expected.iter().fold(1.0f64, |a, &b| a.max(b.abs()));

        let pool = ThreadPool::new(threads);
        let kernel = StreamKernel { updates: &updates };
        for strategy in strategies(8) {
            let mut out = vec![0.0f64; len];
            reduce_strategy::<f64, Sum, _>(
                strategy, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel,
            );
            for (i, (&got, &want)) in out.iter().zip(&expected).enumerate() {
                prop_assert!(
                    (got - want).abs() <= 1e-9 * scale,
                    "strategy {} at {i}: {got} vs {want}", strategy.label()
                );
            }
        }
    }

    #[test]
    fn min_max_ops_agree_exactly(
        len in 1usize..40,
        threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        let n_iters = 100;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
            .map(|_| vec![((next() as usize) % len, (next() % 1000) as i64 - 500)])
            .collect();

        let pool = ThreadPool::new(threads);
        let kernel = StreamKernel { updates: &updates };

        // Min and Max are idempotent, so even float-style reassociation
        // cannot change the answer: require exact equality. (Map reducers
        // are Sum-only in spirit but implement any ReduceOp; include all.)
        let mut expected_min = vec![i64::MAX; len];
        sequential_apply::<i64, Min>(&mut expected_min, &updates);
        let mut expected_max = vec![i64::MIN; len];
        sequential_apply::<i64, Max>(&mut expected_max, &updates);

        for strategy in strategies(16) {
            let mut out = vec![i64::MAX; len];
            reduce_strategy::<i64, Min, _>(
                strategy, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel,
            );
            prop_assert_eq!(&out, &expected_min, "min {}", strategy.label());

            let mut out = vec![i64::MIN; len];
            reduce_strategy::<i64, Max, _>(
                strategy, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel,
            );
            prop_assert_eq!(&out, &expected_max, "max {}", strategy.label());
        }
    }

    /// The block reducers round requested block sizes up to powers of two
    /// so the hot path can index with shift/mask. Rounding must be purely
    /// an implementation detail: any requested size must produce the same
    /// bits as the sequential loop *and* as explicitly requesting the
    /// rounded (power-of-two) size.
    #[test]
    fn pow2_rounding_is_bit_exact(
        len in 1usize..120,
        threads in 1usize..6,
        block in prop::sample::select(vec![3usize, 5, 6, 7, 12, 24, 100]),
        seed in any::<u64>(),
    ) {
        let n_iters = 180;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
            .map(|_| {
                let k = (next() % 4) as usize;
                (0..k)
                    .map(|_| ((next() as usize) % len, (next() % 100) as i64 - 50))
                    .collect()
            })
            .collect();

        let mut expected = vec![0i64; len];
        sequential_apply::<i64, Sum>(&mut expected, &updates);

        let pool = ThreadPool::new(threads);
        let kernel = StreamKernel { updates: &updates };
        let pow2 = block.next_power_of_two();
        let flavors: [(Strategy, Strategy); 3] = [
            (
                Strategy::BlockPrivate { block_size: block },
                Strategy::BlockPrivate { block_size: pow2 },
            ),
            (
                Strategy::BlockLock { block_size: block },
                Strategy::BlockLock { block_size: pow2 },
            ),
            (
                Strategy::BlockCas { block_size: block },
                Strategy::BlockCas { block_size: pow2 },
            ),
        ];
        for (requested, rounded) in flavors {
            let mut out = vec![0i64; len];
            reduce_strategy::<i64, Sum, _>(
                requested, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel,
            );
            prop_assert_eq!(&out, &expected, "strategy {} vs sequential", requested.label());

            let mut out_pow2 = vec![0i64; len];
            reduce_strategy::<i64, Sum, _>(
                rounded, &pool, &mut out_pow2, 0..n_iters, Schedule::default(), &kernel,
            );
            prop_assert_eq!(&out, &out_pow2, "strategy {} vs {}", requested.label(), rounded.label());
        }
    }

    /// A [`ReusableReducer`] carries privatization scratch from one region
    /// to the next; every region must still produce exactly what a fresh
    /// sequential loop over that region's updates produces.
    #[test]
    fn region_reuse_matches_sequential(
        len in 1usize..80,
        threads in 1usize..5,
        block in prop::sample::select(vec![4usize, 7, 16]),
        seed in any::<u64>(),
    ) {
        let n_iters = 120;
        let n_regions = 4;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let pool = ThreadPool::new(threads);
        for strategy in strategies(block) {
            let mut reducer = ReusableReducer::<i64, Sum>::new(strategy);
            for region in 0..n_regions {
                let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
                    .map(|_| {
                        let k = (next() % 3) as usize;
                        (0..k)
                            .map(|_| ((next() as usize) % len, (next() % 40) as i64 - 20))
                            .collect()
                    })
                    .collect();
                let mut expected = vec![0i64; len];
                sequential_apply::<i64, Sum>(&mut expected, &updates);

                let kernel = StreamKernel { updates: &updates };
                let mut out = vec![0i64; len];
                reducer.run(&pool, &mut out, 0..n_iters, Schedule::default(), &kernel);
                prop_assert_eq!(
                    &out, &expected,
                    "strategy {} region {}", strategy.label(), region
                );
            }
        }
    }

    /// Planned execution must be bit-identical to unplanned execution for
    /// EVERY strategy — including [`Strategy::Dense`] and
    /// [`Strategy::MapHash`], which have no plannable path: `run_planned`
    /// must degrade to plain execution for them, never to a wrong answer.
    #[test]
    fn planned_matrix_is_bit_exact_for_every_strategy(
        len in 1usize..80,
        threads in 1usize..5,
        block in prop::sample::select(vec![4usize, 16, 64]),
        seed in any::<u64>(),
    ) {
        let n_iters = 150;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
            .map(|_| {
                let k = (next() % 4) as usize;
                (0..k)
                    .map(|_| ((next() as usize) % len, (next() % 100) as i64 - 50))
                    .collect()
            })
            .collect();

        let mut expected = vec![0i64; len];
        sequential_apply::<i64, Sum>(&mut expected, &updates);

        let pool = ThreadPool::new(threads);
        let kernel = StreamKernel { updates: &updates };
        for strategy in strategies(block) {
            let label = strategy.label();

            let mut unplanned = vec![0i64; len];
            reduce_strategy::<i64, Sum, _>(
                strategy, &pool, &mut unplanned, 0..n_iters, Schedule::default(), &kernel,
            );
            prop_assert_eq!(&unplanned, &expected, "{}: unplanned diverges", label);

            // Recording region + two replays against the same region id.
            let mut ex = RegionExecutor::<i64, Sum>::new(strategy);
            for region in 0..3 {
                let mut out = vec![0i64; len];
                ex.run_planned(0, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel);
                prop_assert_eq!(
                    &out, &expected,
                    "{}: planned region {} diverges from unplanned", label, region
                );
            }
        }
    }

    /// An arbitrary forced-migration schedule — any strategy pair, any
    /// region boundary — must preserve results: migration drains retained
    /// scratch and invalidates plans, so every region still matches the
    /// sequential loop bit-for-bit no matter when the executor switches.
    #[test]
    fn forced_migration_schedule_preserves_results(
        len in 1usize..80,
        threads in 1usize..5,
        seed in any::<u64>(),
        start in 0usize..10,
        switches in prop::collection::vec((0usize..6, 0usize..10), 0..4),
    ) {
        let n_iters = 120;
        let n_regions = 6;
        let all = strategies(16);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let pool = ThreadPool::new(threads);
        let mut ex = RegionExecutor::<i64, Sum>::new(all[start % all.len()]);
        for region in 0..n_regions {
            if let Some(&(_, target)) = switches.iter().find(|&&(r, _)| r == region) {
                ex.migrate_to(all[target % all.len()]);
            }
            let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
                .map(|_| {
                    let k = (next() % 3) as usize;
                    (0..k)
                        .map(|_| ((next() as usize) % len, (next() % 40) as i64 - 20))
                        .collect()
                })
                .collect();
            let mut expected = vec![0i64; len];
            sequential_apply::<i64, Sum>(&mut expected, &updates);

            let kernel = StreamKernel { updates: &updates };
            let mut out = vec![0i64; len];
            let report =
                ex.run_planned(0, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel);
            prop_assert_eq!(
                &out, &expected,
                "strategy {} region {} after {} migrations",
                report.strategy, region, ex.migrations()
            );
        }
    }

    /// Budget demotion on planned block-CAS: scratch budgets of
    /// unlimited, two private blocks per thread, and zero (every shared
    /// block demoted to in-place updates) must stay bit-exact with the
    /// sequential loop on the recording region, on clean replays of the
    /// budgeted plan, and on a deviating region that re-records under the
    /// budget. Every planned region's scratch stays within the budget,
    /// each report carries the budget (0 = unlimited), and the repeats of
    /// the recorded stream replay the budgeted plan cleanly.
    #[test]
    fn budgeted_block_cas_plans_are_bit_exact(
        len in 1usize..200,
        threads in 1usize..6,
        block in prop::sample::select(vec![2usize, 4, 8, 32, 128]),
        budget_kind in 0usize..3,
        seed in any::<u64>(),
    ) {
        let n_iters = 300;
        let budget = match budget_kind {
            0 => PlanBudget::UNLIMITED,
            1 => PlanBudget::new(2 * threads * block * std::mem::size_of::<i64>()),
            _ => PlanBudget::new(0),
        };
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Concentrated indices: threads share most blocks, so the plan
        // has shared blocks for the budget to demote.
        let hot = (len / 4).max(1);
        let mut stream = || -> Vec<Vec<(usize, i64)>> {
            (0..n_iters)
                .map(|_| {
                    let k = 1 + (next() % 3) as usize;
                    (0..k)
                        .map(|_| ((next() as usize) % hot, (next() % 100) as i64 - 50))
                        .collect()
                })
                .collect()
        };
        let pool = ThreadPool::new(threads);
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::BlockCas { block_size: block });
        ex.set_budget(budget);
        let mut updates = stream();
        // Recording region, two clean replays, then a deviating region.
        for region in 0..4 {
            if region == 3 {
                updates = stream();
            }
            let replays_before = ex.planned_regions();
            let mut expected = vec![0i64; len];
            sequential_apply::<i64, Sum>(&mut expected, &updates);

            let kernel = StreamKernel { updates: &updates };
            let mut out = vec![0i64; len];
            let report =
                ex.run_planned(0, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel);
            prop_assert_eq!(
                &out, &expected,
                "block-CAS-{} budget {:?} region {}", block, budget, region
            );
            if budget.is_unlimited() {
                prop_assert_eq!(report.budget_bytes, 0, "unlimited encodes as 0");
            } else {
                prop_assert_eq!(report.budget_bytes, budget.max_scratch_bytes);
                prop_assert!(
                    report.scratch_bytes <= budget.max_scratch_bytes,
                    "block-CAS-{} region {}: scratch {} over budget {:?}",
                    block, region, report.scratch_bytes, budget
                );
            }
            // The budgeted plan keeps replaying: each repeat of the
            // recorded stream is one more clean replay.
            if region == 1 || region == 2 {
                prop_assert_eq!(
                    ex.planned_regions(), replays_before + 1,
                    "block-CAS-{} budget {:?} region {}: replay deviated", block, budget, region
                );
            }
        }
    }

    /// Delta retraction round-trip: pushing transient contributions and
    /// then retracting them must be bit-identical to never having
    /// applied them. Covers both engine paths — the exact-inverse fast
    /// path (wrapping i64 Sum; odd i64 Prod, units of Z/2^64) and the
    /// refold fallback (f64 Sum, where `(a + x) - x` reassociates so
    /// the engine must re-fold the kept log instead of subtracting; and
    /// even i64 Prod factors, zero divisors with no inverse).
    #[test]
    fn delta_retraction_round_trips(
        len in 16usize..128,
        threads in 1usize..5,
        transient in 1usize..32,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let pool = ThreadPool::new(threads);

        // i64 Sum — wrapping integers round-trip via the exact inverse.
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::BlockCas { block_size: 64 });
        let mut out = vec![0i64; len];
        let mut baseline = DeltaBatch::new();
        for t in 0..len as u64 {
            baseline.push((next() as usize) % len, t, (next() % 1000) as i64 - 500);
        }
        ex.run_delta(&pool, &mut out, &baseline);
        let before = out.clone();

        let mut push = DeltaBatch::new();
        let mut tags: Vec<(usize, u64)> = Vec::new();
        for t in 0..transient as u64 {
            let idx = (next() as usize) % len;
            // Extremes included: overflow must wrap identically on
            // apply and retract.
            let v = match next() % 4 {
                0 => i64::MAX,
                1 => i64::MIN,
                _ => (next() % 1000) as i64 - 500,
            };
            push.push(idx, 1_000_000 + t, v);
            tags.push((idx, 1_000_000 + t));
        }
        ex.run_delta(&pool, &mut out, &push);
        let mut retract = DeltaBatch::new();
        for &(idx, tag) in &tags {
            retract.retract(idx, tag);
        }
        ex.run_delta(&pool, &mut out, &retract);
        prop_assert_eq!(&out, &before, "i64 Sum retraction round trip");

        // f64 Sum — no exact inverse exists (reassociation), so the
        // engine must refold from the log. Transients of wildly mixed
        // magnitude make naive `acc - x` visibly lossy: 1e16 swallows
        // the baseline's low bits.
        let mut ex = RegionExecutor::<f64, Sum>::new(Strategy::BlockPrivate { block_size: 64 });
        let mut out = vec![0.0f64; len];
        let mut baseline = DeltaBatch::new();
        for t in 0..len as u64 {
            baseline.push(
                (next() as usize) % len,
                t,
                ((next() % 1000) as f64 - 500.0) * 0.001 + 0.1,
            );
        }
        ex.run_delta(&pool, &mut out, &baseline);
        let before = out.clone();

        let mut push = DeltaBatch::new();
        let mut tags: Vec<(usize, u64)> = Vec::new();
        for t in 0..transient as u64 {
            let idx = (next() as usize) % len;
            let v = match next() % 3 {
                0 => 1e16,
                1 => -1e16,
                _ => 1e-9,
            };
            push.push(idx, 1_000_000 + t, v);
            tags.push((idx, 1_000_000 + t));
        }
        ex.run_delta(&pool, &mut out, &push);
        let mut retract = DeltaBatch::new();
        for &(idx, tag) in &tags {
            retract.retract(idx, tag);
        }
        ex.run_delta(&pool, &mut out, &retract);
        for (i, (&got, &want)) in out.iter().zip(&before).enumerate() {
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "f64 Sum retraction round trip at {}: {} vs {}", i, got, want
            );
        }

        // i64 Prod — odd factors take the exact inverse, even factors
        // are zero divisors and force the per-element refold fallback.
        let mut ex = RegionExecutor::<i64, Prod>::new(Strategy::BlockLock { block_size: 64 });
        let mut out = vec![1i64; len];
        let mut baseline = DeltaBatch::new();
        for t in 0..len as u64 {
            baseline.push((next() as usize) % len, t, ((next() % 7) as i64 * 2 + 1) - 6);
        }
        ex.run_delta(&pool, &mut out, &baseline);
        let before = out.clone();

        let mut push = DeltaBatch::new();
        let mut tags: Vec<(usize, u64)> = Vec::new();
        for t in 0..transient as u64 {
            let idx = (next() as usize) % len;
            // Mix units (odd) with zero divisors (even, including 0).
            let v = (next() % 9) as i64 - 4;
            push.push(idx, 1_000_000 + t, v);
            tags.push((idx, 1_000_000 + t));
        }
        ex.run_delta(&pool, &mut out, &push);
        let mut retract = DeltaBatch::new();
        for &(idx, tag) in &tags {
            retract.retract(idx, tag);
        }
        ex.run_delta(&pool, &mut out, &retract);
        prop_assert_eq!(&out, &before, "i64 Prod retraction round trip");
    }

    #[test]
    fn schedules_do_not_change_integer_results(
        threads in 1usize..5,
        chunk in 1usize..40,
        seed in any::<u64>(),
    ) {
        let len = 50;
        let n_iters = 120;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
            .map(|_| vec![((next() as usize) % len, (next() % 10) as i64)])
            .collect();

        let mut expected = vec![0i64; len];
        sequential_apply::<i64, Sum>(&mut expected, &updates);

        let pool = ThreadPool::new(threads);
        let kernel = StreamKernel { updates: &updates };
        for schedule in [
            Schedule::static_default(),
            Schedule::static_chunked(chunk),
            Schedule::dynamic(chunk),
            Schedule::guided(chunk),
        ] {
            let mut out = vec![0i64; len];
            reduce_strategy::<i64, Sum, _>(
                Strategy::BlockCas { block_size: 8 },
                &pool, &mut out, 0..n_iters, schedule, &kernel,
            );
            prop_assert_eq!(&out, &expected, "schedule {}", schedule.label());
        }
    }
}

#[test]
fn product_reduction_works() {
    // Deterministic multiplicative reduction across strategies.
    let len = 10;
    let n_iters = 30;
    let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
        .map(|i| vec![(i % len, if i % 7 == 0 { 2 } else { 1 })])
        .collect();
    let mut expected = vec![1i64; len];
    sequential_apply::<i64, Prod>(&mut expected, &updates);

    let pool = ThreadPool::new(3);
    let kernel = StreamKernel { updates: &updates };
    for strategy in strategies(4) {
        let mut out = vec![1i64; len];
        reduce_strategy::<i64, Prod, _>(
            strategy,
            &pool,
            &mut out,
            0..n_iters,
            Schedule::default(),
            &kernel,
        );
        assert_eq!(out, expected, "strategy {}", strategy.label());
    }
}
