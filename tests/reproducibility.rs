//! Reproducibility properties (paper §IV).
//!
//! The paper states that with a static schedule, the dense and
//! block-private SPRAY reducers "will exactly match the summation order of
//! the built-in OpenMP reduction" — i.e. per-thread partial sums in
//! iteration order, combined in ascending thread order. We verify the
//! testable consequences:
//!
//! * block-private is **bitwise identical to dense** for any team size
//!   (the paper: "the only difference lies in the treatment of unused
//!   elements");
//! * every strategy except atomics is bitwise **run-to-run stable** for a
//!   fixed schedule and team size (keeper and log replay in fixed writer
//!   order; maps merge under a lock but apply their own entries in a
//!   deterministic per-thread order);
//! * integer reductions are bitwise stable across *all* strategies and
//!   team sizes, atomics included (integer addition is associative);
//! * with one thread, dense reduces in exactly the sequential order.
//!
//! Note partial-sums-then-combine is *not* bitwise-equal to a running
//! sequential sum for floats at >1 thread — that is the reassociation
//! OpenMP (and the paper) explicitly permit.

use ompsim::{Schedule, ThreadPool};
use spray::{reduce_strategy, Kernel, ReducerView, RegionExecutor, Strategy, Sum};

/// Pathological float mix where reassociation is visible: alternating
/// large/small magnitudes.
fn tricky_value(i: usize) -> f64 {
    let m = [1e16, 1.0, -1e16, 3.5][i % 4];
    m * (1.0 + (i as f64) * 1e-3)
}

struct TrickyScatter {
    n_out: usize,
}

impl Kernel<f64> for TrickyScatter {
    fn item<V: ReducerView<f64>>(&self, view: &mut V, i: usize) {
        // Several iterations hit the same location, in iteration order.
        view.apply(i % self.n_out, tricky_value(i));
        view.apply((i + 1) % self.n_out, 0.5 * tricky_value(i));
    }
}

fn sequential(n_out: usize, iters: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; n_out];
    let kernel = TrickyScatter { n_out };
    spray::reduce_seq::<f64, Sum, _>(&mut out, 0..iters, |v, i| kernel.item(v, i));
    out
}

fn run(strategy: Strategy, threads: usize, n_out: usize, iters: usize) -> Vec<f64> {
    let pool = ThreadPool::new(threads);
    let mut out = vec![0.0f64; n_out];
    reduce_strategy::<f64, Sum, _>(
        strategy,
        &pool,
        &mut out,
        0..iters,
        Schedule::default(),
        &TrickyScatter { n_out },
    );
    out
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], label: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{label}: bit mismatch at {i}: {x:?} ({:#x}) vs {y:?} ({:#x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

#[test]
fn single_thread_dense_is_bitwise_sequential() {
    let (n_out, iters) = (16, 4096);
    let want = sequential(n_out, iters);
    let got = run(Strategy::Dense, 1, n_out, iters);
    assert_bitwise_eq(&got, &want, "dense x1");
    let got = run(Strategy::BlockPrivate { block_size: 4 }, 1, n_out, iters);
    assert_bitwise_eq(&got, &want, "block-private x1");
}

#[test]
fn block_private_matches_dense_order_exactly() {
    // The paper's exact claim: block-private has the same summation order
    // as dense ("the only difference lies in the treatment of unused
    // elements").
    let (n_out, iters) = (64, 2000);
    for threads in [3, 5] {
        let dense = run(Strategy::Dense, threads, n_out, iters);
        let blk = run(
            Strategy::BlockPrivate { block_size: 8 },
            threads,
            n_out,
            iters,
        );
        assert_bitwise_eq(&blk, &dense, &format!("x{threads}"));
        // Planned leg: a recording region, then two replays. Every thread
        // touches all eight 64-byte blocks, so each replay combines into
        // one contiguous run of private copies through the run window;
        // each region must still match dense bit for bit.
        let pool = ThreadPool::new(threads);
        let mut ex = RegionExecutor::<f64, Sum>::new(Strategy::BlockPrivate { block_size: 8 });
        for region in 0..3 {
            let mut out = vec![0.0f64; n_out];
            ex.run_planned(
                0,
                &pool,
                &mut out,
                0..iters,
                Schedule::default(),
                &TrickyScatter { n_out },
            );
            assert_bitwise_eq(&out, &dense, &format!("x{threads} planned region {region}"));
        }
        assert_eq!(ex.planned_regions(), 2, "x{threads}: both replays clean");
    }
}

#[test]
fn run_to_run_stability_for_deterministic_strategies() {
    // Keeper, dense, block-*, maps: fixed schedule + fixed team size
    // must give identical bits on every run (atomics are exempt).
    let (n_out, iters) = (32, 2048);
    for strategy in [
        Strategy::Dense,
        Strategy::BlockPrivate { block_size: 16 },
        Strategy::Keeper,
        Strategy::MapBTree,
        Strategy::MapHash,
    ] {
        let first = run(strategy, 4, n_out, iters);
        for rep in 0..3 {
            let again = run(strategy, 4, n_out, iters);
            assert_bitwise_eq(&again, &first, &format!("{} rep {rep}", strategy.label()));
        }
    }
}

#[test]
fn integer_results_reproducible_even_for_atomics() {
    // Integer addition is associative for real: every strategy including
    // atomics must give identical results across runs and thread counts.
    struct IntScatter;
    impl Kernel<i64> for IntScatter {
        fn item<V: ReducerView<i64>>(&self, view: &mut V, i: usize) {
            view.apply(i % 13, (i as i64 % 7) - 3);
        }
    }
    let mut reference: Option<Vec<i64>> = None;
    for threads in [1, 2, 4] {
        for strategy in Strategy::all(8) {
            let pool = ThreadPool::new(threads);
            let mut out = vec![0i64; 13];
            reduce_strategy::<i64, Sum, _>(
                strategy,
                &pool,
                &mut out,
                0..999,
                Schedule::default(),
                &IntScatter,
            );
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "{} x{threads}", strategy.label()),
            }
        }
    }
}
