//! Memory-budget degradation curve for planned block privatization.
//!
//! Steady-state planned-region seconds for `block-private` under a
//! shrinking [`PlanBudget`]: the full plan scratch first, then four
//! halvings, then zero. Each halving demotes more shared blocks to
//! lock-striped in-place combining; the curve must degrade smoothly — a
//! budget knob that falls off a cliff is not a knob.
//!
//! Prints CSV and writes `BENCH_budget_ladder.json`. With `--check`,
//! exits nonzero when the ladder is not monotone (a tighter budget
//! charging more plan scratch than a looser one, or more than its cap)
//! or when any adjacent halving costs more than 2x (plus jitter slack).

use bench::args::Opts;
use ompsim::verify::mix64;
use ompsim::{Schedule, ThreadPool};
use spray::{JsonWriter, Kernel, PlanBudget, ReducerView, RegionExecutor, Strategy, Sum};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

#[global_allocator]
static ALLOC: memtrack::CountingAlloc = memtrack::CountingAlloc;

/// Length of one same-block run in [`BlockedScatterKernel`].
const RUN: usize = 64;

/// Blocked scatter with intra-block locality: iterations advance in
/// runs of [`RUN`] consecutive offsets inside a pseudo-randomly chosen
/// block, and every thread ranges over every block — the shape of
/// stencil and element loops whose halo blocks are shared, i.e. the
/// workload region plans (and their budget) exist for. A uniformly
/// random scatter would instead measure the branch predictor on the
/// privatized-vs-demoted status check, which no planned workload hits.
struct BlockedScatterKernel {
    nblocks: usize,
    block_size: usize,
    seed: u64,
}

impl Kernel<f64> for BlockedScatterKernel {
    #[inline(always)]
    fn item<V: ReducerView<f64>>(&self, view: &mut V, i: usize) {
        let h = mix64(self.seed ^ (i / RUN) as u64);
        let b = h as usize % self.nblocks;
        let off = ((h >> 32) as usize + i % RUN) % self.block_size;
        view.apply(b * self.block_size + off, black_box(1.0));
    }
}

/// One point of the ladder.
struct Row {
    /// Budget label ("full", "full/4", "zero").
    point: String,
    /// The cap in force (`usize::MAX` when unlimited).
    cap: usize,
    steady_secs: f64,
    /// Plan scratch charged at this point.
    scratch_bytes: usize,
}

/// Best steady-state planned-region time under `budget`: record on
/// region 0, replay the rest, keep the best replay past the first.
#[allow(clippy::too_many_arguments)]
fn steady_planned<K: Kernel<f64>>(
    strategy: Strategy,
    budget: PlanBudget,
    pool: &ThreadPool,
    n: usize,
    updates: usize,
    kernel: &K,
    regions: usize,
    reps: usize,
) -> (f64, usize) {
    let mut out = vec![0.0f64; n];
    let mut steady = f64::INFINITY;
    let mut scratch = 0usize;
    for _ in 0..reps {
        let mut ex = RegionExecutor::<f64, Sum>::new(strategy);
        ex.set_budget(budget);
        for r in 0..regions {
            out.fill(0.0);
            let t0 = Instant::now();
            let report = ex.run_planned(0, pool, &mut out, 0..updates, Schedule::default(), kernel);
            let dt = t0.elapsed().as_secs_f64();
            if r >= 2 {
                steady = steady.min(dt);
                scratch = report.scratch_bytes;
            }
        }
        black_box(&out);
    }
    (steady, scratch)
}

fn main() {
    let opts = Opts::parse();
    let n = opts.n.unwrap_or(if opts.quick { 1 << 14 } else { 1 << 18 });
    let updates = 4 * n;
    let regions = if opts.quick { 4 } else { 8 };
    let block_size = 1024usize.min(n);
    // Max thread count: every block is shared by every thread, so the
    // full plan privatizes all of them — the largest scratch the
    // halvings can bite into.
    let threads = *opts.threads.iter().max().unwrap();

    println!("# budget_ladder: planned block-private under a halving scratch budget");
    println!(
        "# N = {n}, updates = {updates}, block_size = {block_size}, threads = {threads}, \
         regions/run = {regions}, reps = {}",
        opts.reps
    );
    println!("point,strategy,threads,steady_secs,scratch_bytes");

    let pool = ThreadPool::new(threads);
    let kernel = BlockedScatterKernel {
        nblocks: n / block_size,
        block_size,
        seed: 42,
    };
    let strategy = Strategy::BlockPrivate { block_size };
    let measure = |budget: PlanBudget| {
        steady_planned(
            strategy, budget, &pool, n, updates, &kernel, regions, opts.reps,
        )
    };
    // Full scratch first: the unbudgeted plan's footprint anchors the
    // halving ladder.
    let (steady, full_scratch) = measure(PlanBudget::UNLIMITED);
    let mut rows = vec![Row {
        point: "full".to_string(),
        cap: usize::MAX,
        steady_secs: steady,
        scratch_bytes: full_scratch,
    }];
    for halvings in 1..=4u32 {
        let cap = full_scratch >> halvings;
        let (steady, scratch) = measure(PlanBudget::new(cap));
        rows.push(Row {
            point: format!("full/{}", 1usize << halvings),
            cap,
            steady_secs: steady,
            scratch_bytes: scratch,
        });
    }
    let (steady, scratch) = measure(PlanBudget::new(0));
    rows.push(Row {
        point: "zero".to_string(),
        cap: 0,
        steady_secs: steady,
        scratch_bytes: scratch,
    });

    let label = strategy.label();
    for r in &rows {
        println!(
            "{},{label},{threads},{:.6e},{}",
            r.point, r.steady_secs, r.scratch_bytes
        );
    }

    let mut w = JsonWriter::new();
    w.begin_obj()
        .field_u64("n", n as u64)
        .field_u64("updates", updates as u64)
        .field_u64("block_size", block_size as u64)
        .field_u64("regions_per_run", regions as u64)
        .field_u64("reps", opts.reps as u64);
    w.key("results").begin_arr();
    for r in &rows {
        w.begin_obj()
            .field_str("point", &r.point)
            .field_str("strategy", &label)
            .field_u64("threads", threads as u64)
            .field_f64("steady_secs", r.steady_secs)
            .field_u64("scratch_bytes", r.scratch_bytes as u64)
            .end_obj();
    }
    w.end_arr().end_obj();
    let path = "BENCH_budget_ladder.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(w.finish().as_bytes()))
        .expect("write BENCH_budget_ladder.json");
    eprintln!("wrote {path}");

    if opts.check {
        let mut bad = 0;
        for pair in rows.windows(2) {
            let (loose, tight) = (&pair[0], &pair[1]);
            // Monotone: a tighter budget never charges more plan scratch
            // than a looser one, nor more than its own cap.
            if tight.scratch_bytes > loose.scratch_bytes.min(tight.cap) {
                eprintln!(
                    "CHECK FAIL: budget {} charged {} B of scratch (cap {}, {} charged {} B)",
                    tight.point, tight.scratch_bytes, tight.cap, loose.point, loose.scratch_bytes
                );
                bad += 1;
            }
            // No halving may cost more than 2x the previous point —
            // degradation must be a slope, not a cliff. 50 µs absolute
            // slack absorbs scheduler jitter on smoke-sized regions.
            let limit = loose.steady_secs * 2.0 + 50e-6;
            if tight.steady_secs > limit {
                eprintln!(
                    "CHECK FAIL: budget {} ({:.3e}s) > 2x budget {} ({:.3e}s): \
                     degradation cliff",
                    tight.point, tight.steady_secs, loose.point, loose.steady_secs
                );
                bad += 1;
            }
        }
        if bad > 0 {
            eprintln!("budget_ladder check: {bad} failure(s)");
            std::process::exit(1);
        }
        eprintln!("budget_ladder check: monotone scratch and smooth budget curve hold");
    }
}
