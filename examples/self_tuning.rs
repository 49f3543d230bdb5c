//! The performance-portability endgame (paper §IX): let the library pick
//! the strategy.
//!
//! An executor under `ExecutorPolicy::Adaptive` scores every region's
//! telemetry (applies per element, contention, barrier wait) against its
//! cost model and migrates once the current strategy stays out of band
//! for `patience` consecutive regions. Here a PageRank-like push runs
//! dense for a while, then its frontier collapses to a sparse tail; the
//! executor follows the workload from atomics to privatized blocks and
//! back.
//!
//! ```sh
//! cargo run --release --example self_tuning
//! ```

use ompsim::{Schedule, ThreadPool};
use spray::{AdaptiveConfig, ExecutorPolicy, Kernel, ReducerView, RegionExecutor, Strategy, Sum};

/// A synthetic power-law-ish graph: mixed locality, the kind of workload
/// where the best strategy is not obvious.
struct Graph {
    targets: Vec<u32>,
    offsets: Vec<usize>,
}

impl Graph {
    fn synthetic(n: usize) -> Self {
        let mut targets = Vec::new();
        let mut offsets = vec![0usize];
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for u in 0..n {
            let deg = 2 + (next() % 6) as usize;
            for _ in 0..deg {
                // 70% local edges, 30% global (hot+cold mix).
                let v = if next() % 10 < 7 {
                    (u + 1 + (next() % 64) as usize) % n
                } else {
                    (next() % n as u64) as usize
                };
                targets.push(v as u32);
            }
            offsets.push(targets.len());
        }
        Graph { targets, offsets }
    }
}

/// One push sweep in which only every `stride`-th source is active.
struct Push<'g> {
    g: &'g Graph,
    stride: usize,
}

impl Kernel<f64> for Push<'_> {
    #[inline]
    fn item<V: ReducerView<f64>>(&self, view: &mut V, i: usize) {
        let u = i * self.stride;
        for &v in &self.g.targets[self.g.offsets[u]..self.g.offsets[u + 1]] {
            view.apply(v as usize, 1.0);
        }
    }
}

fn main() {
    let n = 500_000;
    let pool = ThreadPool::new(4);
    let g = Graph::synthetic(n);
    println!(
        "workload: {} scatters into {n} locations, {} threads\n",
        g.targets.len(),
        pool.num_threads()
    );

    let mut ex = RegionExecutor::<f64, Sum>::with_policy(
        Strategy::Atomic,
        ExecutorPolicy::Adaptive(AdaptiveConfig::default()),
    );
    let mut out = vec![0.0f64; n];
    for (phase, stride) in [("dense", 1), ("sparse", 64)] {
        let kernel = Push { g: &g, stride };
        let sources = n.div_ceil(stride);
        for round in 0..8 {
            out.fill(0.0);
            let report = ex.run(&pool, &mut out, 0..sources, Schedule::default(), &kernel);
            let applies = report.counters.totals().applies;
            println!(
                "{phase:<6} round {round}: {:<18} {:>7.2} ms  {:.2} applies/element",
                report.strategy,
                report.phases.region_secs * 1e3,
                applies as f64 / n as f64
            );
            assert_eq!(out.iter().sum::<f64>() as u64, applies);
        }
    }

    println!(
        "\n{} migrations ({:.3} ms in the migration protocol)",
        ex.migrations(),
        ex.migration_secs() * 1e3
    );
    for (label, regions) in ex.strategy_regions() {
        println!("  {label:<18} {regions} regions");
    }
}
