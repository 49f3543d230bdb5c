//! Incremental (delta) reduction vs full recompute under streaming churn.
//!
//! The workload keeps a live set of tagged contributions (two per output
//! element) reduced into a `u64` Sum array. Each batch mutates a *churn
//! fraction* of the elements — clustered in a sliding window, the
//! streaming-locality shape delta blocks are built for — by retracting
//! one live contribution per mutated element and pushing a replacement.
//! Two paths produce the post-batch array:
//!
//! * **incremental** — [`spray::RegionExecutor::run_delta`] applies the
//!   batch against the retained result, staging only dirty delta
//!   blocks;
//! * **full recompute** — a planned [`spray::RegionExecutor::run`]
//!   re-scatters every live contribution from scratch (the plan replays
//!   across batches, so the baseline is judged at its steady state).
//!
//! Both must agree **bit-for-bit** (wrapping integer Sum is
//! order-independent), so every timed rep doubles as a correctness
//! check. Large churn fractions cross the dirty-fraction threshold and
//! flip the incremental path to its full-refold fallback — visible in
//! the `mode` column.
//!
//! Prints CSV and writes `BENCH_delta_sweep.json`. With `--check`,
//! exits nonzero unless the incremental path beats full recompute by
//! ≥ 3× at every churn fraction ≤ 1% (the paper-motivated streaming
//! gate), or any rep ever disagrees bit-wise.

use bench::args::Opts;
use ompsim::{Schedule, ThreadPool};
use spray::{DeltaBatch, JsonWriter, Kernel, ReducerView, RegionExecutor, Strategy, Sum};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

#[global_allocator]
static ALLOC: memtrack::CountingAlloc = memtrack::CountingAlloc;

/// Replays the full live contribution set: iteration `i` applies
/// contribution `i`. This is what "recompute from scratch" costs.
struct ReplayKernel<'a> {
    items: &'a [(u32, u64)],
}

impl Kernel<u64> for ReplayKernel<'_> {
    #[inline(always)]
    fn item<V: ReducerView<u64>>(&self, view: &mut V, i: usize) {
        let (idx, val) = self.items[i];
        view.apply(idx as usize, black_box(val));
    }
}

/// One measured (churn, threads) cell.
struct Row {
    churn: f64,
    threads: usize,
    batch_edits: usize,
    inc_secs: f64,
    full_secs: f64,
    speedup: f64,
    mode: String,
    dirty_blocks: u64,
    retractions: u64,
}

fn main() {
    let opts = Opts::parse();
    let n = opts.n.unwrap_or(if opts.quick { 1 << 15 } else { 1 << 18 });
    let per_elem = 2usize;
    let churns = if opts.churn.is_empty() {
        vec![0.0005, 0.001, 0.01, 0.1, 0.5]
    } else {
        opts.churn.clone()
    };
    let strategy = opts
        .strategy
        .unwrap_or(Strategy::BlockCas { block_size: 1024 });

    println!("# delta_sweep: incremental delta batches vs full recompute");
    println!(
        "# N = {n}, live contributions = {}, comparator = {}, reps = {}",
        n * per_elem,
        strategy.label(),
        opts.reps
    );
    println!("churn,threads,batch_edits,inc_secs,full_secs,speedup,mode,dirty_blocks,retractions");

    let mut rows: Vec<Row> = Vec::new();
    let mut mismatches = 0u64;
    for &threads in &opts.threads {
        let pool = ThreadPool::new(threads);
        for &churn in &churns {
            // Live set: `per_elem` tagged contributions per element.
            let mut items: Vec<(u32, u64, u64)> = (0..n * per_elem)
                .map(|j| {
                    let idx = (j / per_elem) as u32;
                    (idx, j as u64, (j as u64).wrapping_mul(0x9E37) % 1000 + 1)
                })
                .collect();
            let mut next_tag = items.len() as u64;

            let mut delta_out = vec![0u64; n];
            let mut ex = RegionExecutor::<u64, Sum>::new(strategy);
            let mut baseline = DeltaBatch::new();
            for &(idx, tag, val) in &items {
                baseline.push(idx as usize, tag, val);
            }
            ex.run_delta(&pool, &mut delta_out, &baseline);

            let mut full_ex = RegionExecutor::<u64, Sum>::new(strategy);
            let mut full_out = vec![0u64; n];

            let k = ((churn * n as f64).ceil() as usize).clamp(1, n);
            let mut inc_best = f64::INFINITY;
            let mut full_best = f64::INFINITY;
            let mut mode = String::new();
            let mut dirty_blocks = 0u64;
            let mut retractions = 0u64;
            for rep in 0..opts.reps {
                // Clustered churn: a sliding window of k elements, each
                // retracting one live contribution and pushing a fresh one.
                let start = (rep * k * 7) % n;
                let mut batch = DeltaBatch::new();
                for j in 0..k {
                    let e = (start + j) % n;
                    let slot = e * per_elem + rep % per_elem;
                    let (idx, tag, _) = items[slot];
                    batch.retract(idx as usize, tag);
                    let val = (next_tag.wrapping_mul(0x517C) % 1000) + 1;
                    batch.push(idx as usize, next_tag, val);
                    items[slot] = (idx, next_tag, val);
                    next_tag += 1;
                }

                let t0 = Instant::now();
                let report = ex.run_delta(&pool, &mut delta_out, &batch);
                let inc = t0.elapsed().as_secs_f64();
                inc_best = inc_best.min(inc);
                mode = report.strategy.clone();
                dirty_blocks = ex.dirty_blocks();
                retractions = ex.retractions();

                // Full recompute of the same post-batch live set. The
                // index stream never changes, so the recorded plan
                // replays — the baseline is judged warm.
                let replay: Vec<(u32, u64)> = items.iter().map(|&(i, _, v)| (i, v)).collect();
                let kernel = ReplayKernel { items: &replay };
                full_out.fill(0);
                let t0 = Instant::now();
                full_ex.run_planned(
                    0,
                    &pool,
                    &mut full_out,
                    0..replay.len(),
                    Schedule::default(),
                    &kernel,
                );
                let full = t0.elapsed().as_secs_f64();
                full_best = full_best.min(full);

                if full_out != delta_out {
                    mismatches += 1;
                    eprintln!(
                        "MISMATCH: churn {churn} @{threads}t rep {rep}: incremental result \
                         diverged from full recompute"
                    );
                }
            }
            rows.push(Row {
                churn,
                threads,
                batch_edits: 2 * k,
                inc_secs: inc_best,
                full_secs: full_best,
                speedup: full_best / inc_best,
                mode,
                dirty_blocks,
                retractions,
            });
        }
    }

    for r in &rows {
        println!(
            "{},{},{},{:.6e},{:.6e},{:.2},{},{},{}",
            r.churn,
            r.threads,
            r.batch_edits,
            r.inc_secs,
            r.full_secs,
            r.speedup,
            r.mode,
            r.dirty_blocks,
            r.retractions
        );
    }

    let mut w = JsonWriter::new();
    w.begin_obj()
        .field_u64("n", n as u64)
        .field_u64("live_contributions", (n * per_elem) as u64)
        .field_str("comparator", &strategy.label())
        .field_u64("reps", opts.reps as u64);
    w.key("results").begin_arr();
    for r in &rows {
        w.begin_obj()
            .field_f64("churn", r.churn)
            .field_u64("threads", r.threads as u64)
            .field_u64("batch_edits", r.batch_edits as u64)
            .field_f64("inc_secs", r.inc_secs)
            .field_f64("full_secs", r.full_secs)
            .field_f64("speedup", r.speedup)
            .field_str("mode", &r.mode)
            .field_u64("dirty_blocks", r.dirty_blocks)
            .field_u64("retractions", r.retractions)
            .end_obj();
    }
    w.end_arr().end_obj();
    let path = "BENCH_delta_sweep.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(w.finish().as_bytes()))
        .expect("write BENCH_delta_sweep.json");
    eprintln!("wrote {path}");

    if opts.check {
        // Gate: bit-identical always, and the incremental path must be
        // worth it — ≥ 3× over warm full recompute at every churn
        // fraction ≤ 1%.
        let mut bad = mismatches;
        for r in &rows {
            if r.churn <= 0.01 && r.speedup < 3.0 {
                eprintln!(
                    "CHECK FAIL: churn {} @{}t speedup {:.2}x < 3x (inc {:.3e}s, full {:.3e}s)",
                    r.churn, r.threads, r.speedup, r.inc_secs, r.full_secs
                );
                bad += 1;
            }
        }
        if bad > 0 {
            eprintln!("delta_sweep check: {bad} failure(s)");
            std::process::exit(1);
        }
        eprintln!("delta_sweep check: bit-identical, >=3x at <=1% churn");
    }
}
