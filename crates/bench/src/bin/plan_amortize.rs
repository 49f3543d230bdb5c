//! Amortization of region plans: planned vs unplanned region time.
//!
//! For each plannable strategy (the three block flavors and Keeper) on
//! two region shapes —
//!
//! * **stream**: the ±1-neighbor streaming stencil scatter (the
//!   conv-backprop shape), where most blocks are thread-exclusive and a
//!   plan turns privatization into direct writes;
//! * **tmv**: transpose-SpMV on a random CSR matrix (the Fig. 14 shape),
//!   where the plan is spray's answer to MKL's `mkl_sparse_optimize()` —
//!
//! runs the *same* region stream twice through a [`RegionExecutor`]:
//! once unplanned (`run`) and once planned (`run_planned`, region 0
//! recording, the rest replaying), and reports steady-state per-region
//! time for each, the plan-build (inspection) time, and the break-even
//! region count — how many replays repay the inspection. MKL never
//! reports that cost; we always do.
//!
//! Prints CSV and writes `BENCH_plan_amortize.json`. With `--check`,
//! exits nonzero if any planned steady-state is slower than unplanned
//! beyond a fixed slack (CI smoke gate). Each row reports the
//! `scratch_bytes` the steady-state plan charges.

use bench::args::Opts;
use ompsim::{Schedule, ThreadPool};
use spray::{Kernel, ReducerView, RegionExecutor, Strategy, Sum};
use std::hint::black_box;
use std::io::Write;
use std::ops::Range;
use std::time::Instant;

#[global_allocator]
static ALLOC: memtrack::CountingAlloc = memtrack::CountingAlloc;

/// Streaming stencil scatter: iteration `i` touches `i-1, i, i+1`.
struct StencilKernel;

impl Kernel<f64> for StencilKernel {
    #[inline(always)]
    fn item<V: ReducerView<f64>>(&self, view: &mut V, i: usize) {
        view.apply(i - 1, black_box(1.0));
        view.apply(i, black_box(1.0));
        view.apply(i + 1, black_box(1.0));
    }
}

/// One measured configuration.
struct Row {
    shape: &'static str,
    strategy: String,
    threads: usize,
    unplanned_steady_secs: f64,
    planned_steady_secs: f64,
    plan_build_secs: f64,
    /// Replays needed to repay the plan-build cost; -1 when the planned
    /// path never wins at this size.
    break_even_regions: i64,
    planned_regions: u64,
    /// Scratch bytes the steady-state plan charges.
    scratch_bytes: usize,
}

fn plannable(block_size: usize) -> Vec<Strategy> {
    vec![
        Strategy::BlockPrivate { block_size },
        Strategy::BlockLock { block_size },
        Strategy::BlockCas { block_size },
        Strategy::Keeper,
    ]
}

/// Runs `regions` identical regions unplanned and planned, `reps` times,
/// returning the best steady-state per-region times (skipping the
/// allocation-paying first region and, for the planned run, the
/// recording region too).
#[allow(clippy::too_many_arguments)]
fn run_config<K: Kernel<f64>>(
    strategy: Strategy,
    pool: &ThreadPool,
    out_len: usize,
    range: Range<usize>,
    kernel: &K,
    regions: usize,
    reps: usize,
) -> Row {
    assert!(regions >= 3, "need a warm-up, a recording and a replay");
    let mut out = vec![0.0f64; out_len];
    let mut unplanned_steady = f64::INFINITY;
    let mut planned_steady = f64::INFINITY;
    let mut plan_build = f64::INFINITY;
    let mut planned_count = 0u64;
    let mut scratch_bytes = 0usize;
    for _ in 0..reps {
        let mut ex = RegionExecutor::<f64, Sum>::new(strategy);
        for r in 0..regions {
            out.fill(0.0);
            let t0 = Instant::now();
            ex.run(pool, &mut out, range.clone(), Schedule::default(), kernel);
            let dt = t0.elapsed().as_secs_f64();
            if r >= 1 {
                unplanned_steady = unplanned_steady.min(dt);
            }
        }
        black_box(&out);

        let mut ex = RegionExecutor::<f64, Sum>::new(strategy);
        for r in 0..regions {
            out.fill(0.0);
            let t0 = Instant::now();
            let report = ex.run_planned(
                0,
                pool,
                &mut out,
                range.clone(),
                Schedule::default(),
                kernel,
            );
            let dt = t0.elapsed().as_secs_f64();
            if r >= 2 {
                planned_steady = planned_steady.min(dt);
                scratch_bytes = report.scratch_bytes;
            }
        }
        black_box(&out);
        plan_build = plan_build.min(ex.plan_build_secs());
        planned_count = ex.planned_regions();
    }
    let gain = unplanned_steady - planned_steady;
    let break_even_regions = if gain > 0.0 {
        (plan_build / gain).ceil() as i64
    } else {
        -1
    };
    Row {
        shape: "",
        strategy: strategy.label(),
        threads: pool.num_threads(),
        unplanned_steady_secs: unplanned_steady,
        planned_steady_secs: planned_steady,
        plan_build_secs: plan_build,
        break_even_regions,
        planned_regions: planned_count,
        scratch_bytes,
    }
}

fn main() {
    let opts = Opts::parse();
    let n = opts.n.unwrap_or(if opts.quick { 1 << 14 } else { 1 << 18 });
    let regions = if opts.quick { 6 } else { 12 };
    let block_size = 1024usize;
    let a = spray_sparse::gen::random(n, n, 4 * n, 42);
    let x: Vec<f64> = (0..n)
        .map(|i| ((i % 1013) as f64).mul_add(1e-3, 1.0))
        .collect();

    println!("# plan_amortize: planned vs unplanned steady-state region seconds");
    println!(
        "# N = {n}, block_size = {block_size}, regions/run = {regions}, reps = {}",
        opts.reps
    );
    println!(
        "shape,strategy,threads,unplanned_steady_secs,planned_steady_secs,\
         plan_build_secs,break_even_regions,planned_regions,scratch_bytes"
    );

    let mut rows: Vec<Row> = Vec::new();
    for &threads in &opts.threads {
        let pool = ThreadPool::new(threads);
        for strategy in plannable(block_size) {
            let mut row = run_config(
                strategy,
                &pool,
                n,
                1..n - 1,
                &StencilKernel,
                regions,
                opts.reps,
            );
            row.shape = "stream";
            rows.push(row);
            let mut row = run_config(
                strategy,
                &pool,
                n,
                0..a.nrows(),
                &spray_sparse::TmvKernel { a: &a, x: &x },
                regions,
                opts.reps,
            );
            row.shape = "tmv";
            rows.push(row);
        }
    }

    for r in &rows {
        println!(
            "{},{},{},{:.6e},{:.6e},{:.6e},{},{},{}",
            r.shape,
            r.strategy,
            r.threads,
            r.unplanned_steady_secs,
            r.planned_steady_secs,
            r.plan_build_secs,
            r.break_even_regions,
            r.planned_regions,
            r.scratch_bytes
        );
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"n\": {n},\n  \"block_size\": {block_size},\n  \"regions_per_run\": {regions},\n  \
         \"reps\": {},\n  \"results\": [\n",
        opts.reps
    ));
    for (k, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shape\": \"{}\", \"strategy\": \"{}\", \"threads\": {}, \
             \"unplanned_steady_secs\": {:.6e}, \"planned_steady_secs\": {:.6e}, \
             \"plan_build_secs\": {:.6e}, \"break_even_regions\": {}, \
             \"planned_regions\": {}, \"scratch_bytes\": {}}}{}\n",
            r.shape,
            r.strategy,
            r.threads,
            r.unplanned_steady_secs,
            r.planned_steady_secs,
            r.plan_build_secs,
            r.break_even_regions,
            r.planned_regions,
            r.scratch_bytes,
            if k + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_plan_amortize.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_plan_amortize.json");
    eprintln!("wrote {path}");

    if opts.check {
        // Gate: a replayed plan must never make steady-state regions
        // slower than unplanned beyond slack (50% relative + 50 µs
        // absolute — smoke sizes jitter, the gate catches regressions
        // that make plans actively harmful, not noise).
        let mut bad = 0;
        for r in &rows {
            let limit = r.unplanned_steady_secs * 1.5 + 50e-6;
            if r.planned_steady_secs > limit {
                eprintln!(
                    "CHECK FAIL: {}/{} @{}t planned {:.3e}s > limit {:.3e}s (unplanned {:.3e}s)",
                    r.shape,
                    r.strategy,
                    r.threads,
                    r.planned_steady_secs,
                    limit,
                    r.unplanned_steady_secs
                );
                bad += 1;
            }
            // Each rep re-records once; every other region must replay
            // cleanly (the index stream is identical region to region).
            if r.planned_regions < (regions - 1) as u64 {
                eprintln!(
                    "CHECK FAIL: {}/{} @{}t only {} planned regions (want >= {})",
                    r.shape,
                    r.strategy,
                    r.threads,
                    r.planned_regions,
                    regions - 1
                );
                bad += 1;
            }
        }
        if bad > 0 {
            eprintln!("plan_amortize check: {bad} failure(s)");
            std::process::exit(1);
        }
        eprintln!("plan_amortize check: all configurations within slack");
    }
}
