//! Per-apply overhead of the block reducers' hot path.
//!
//! Measures the cost of one `view.apply(i, v)` — a shift, one load from
//! the view's per-block base table, one branch and the combine — for
//! block-private, block-lock and block-CAS under two access patterns
//! (streaming and random-permutation scatter), against two baselines
//! measured in the *same* harness:
//!
//! * `apply_uncached` — the legacy path (full bounds assert + table
//!   lookup + hardware div/mod on every update); the spread against it
//!   is the win the hot-path layout buys;
//! * bare `apply` — the fast path without the `CountedView` wrapper
//!   (telemetry off); the spread against the wrapped loop is the *cost
//!   of telemetry*, which the acceptance bar requires to stay under 5%
//!   on the streaming pattern. Both loops are inlined into this bench, so
//!   the wrapper's counter stays in a register and the expected cost is
//!   one add per apply. `telemetry_overhead_pct` is the median, over
//!   reps, of each rep's counted/uncounted time ratio, minus one: the two
//!   loops run back to back in every rep, so a ratio within a rep cancels
//!   host drift that a ratio of two best-of-reps times (taken from
//!   different reps) does not.
//!
//! A fourth column, `kernel`, runs the same pattern as a `Kernel` region
//! through `RegionExecutor::run`, the path every workload takes: the
//! executor hands each schedule chunk to the view's `run_chunk`, which
//! for the block views runs the chunk on a by-value handle of the view's
//! hot fields. It is timed by the region report's loop phase, so it also
//! pays view creation and stash (negligible at this N). Those regions
//! are unplanned, so every apply goes through the base table.
//!
//! A fifth column, `replay`, runs the pattern as a 2-thread `Kernel`
//! region through `RegionExecutor::run_planned`: one recording region,
//! then the timed replays. It reports the slowest thread's loop phase
//! over that thread's share of the applies (ns per apply per thread, as
//! the one-thread columns). On the random pattern both threads touch
//! every block, so every block is shared and each replay combines through
//! the run window; on the stream pattern the blocks are exclusive except
//! the one at the seam, so the replay stays on the table path.
//!
//! A second section measures the **merge phase** (what the block
//! epilogues stream after the barrier): the fused `merge_refill_into`
//! kernel against the seed's two-pass equivalent (element-at-a-time
//! scalar merge, then a separate identity refill — exactly what the
//! pre-arena epilogue + `finish` pair did), and a same-buffer `memcpy`
//! as the machine's bandwidth ceiling. A real 4-thread block-private
//! region over the stream shape contributes its
//! `RunReport::merge_bandwidth` for cross-checking.
//!
//! The `--check` gates assert the fused kernel ≥ 1.5× the seed scalar
//! merge, and, on the random pattern, every flavor's fast path faster
//! than its uncached path: a random scatter touches a different block on
//! nearly every apply, so this is where a last-block cache would lose to
//! the plain lookup and the base table must not. Each margin is printed.
//!
//! Prints CSV and writes `BENCH_apply_overhead.json` with all numbers
//! per configuration.

use bench::args::Opts;
use spray::arena::AlignedBuf;
use spray::{
    kernels, reduce_dyn, BlockCasReduction, BlockLockReduction, BlockPrivateReduction, CountedView,
    Kernel, ReducerView, Reduction, RegionExecutor, Strategy, Sum,
};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

#[global_allocator]
static ALLOC: memtrack::CountingAlloc = memtrack::CountingAlloc;

/// One measured configuration.
struct Row {
    strategy: String,
    pattern: &'static str,
    /// Fast path through the driver's counting wrapper (telemetry on).
    cached_ns: f64,
    uncached_ns: f64,
    /// Fast path without the counting wrapper (telemetry off).
    uncounted_ns: f64,
    /// Median over reps of the counted/uncounted time ratio, minus one,
    /// in percent.
    telemetry_pct: f64,
    /// The pattern as a `Kernel` region through `RegionExecutor::run`.
    kernel_ns: f64,
    /// The pattern as 2-thread `Kernel` replays through `run_planned`.
    replay_ns: f64,
}

/// Iteration `k` applies `1.0` at the pattern's `k`-th index.
struct Scatter<'a>(&'a [usize]);

impl Kernel<f64> for Scatter<'_> {
    #[inline]
    fn item<V: ReducerView<f64>>(&self, view: &mut V, k: usize) {
        view.apply(self.0[k], black_box(1.0));
    }
}

/// Best ns per apply of `reps` one-thread `Kernel` regions of `idx`
/// through one `RegionExecutor` (scratch retained across regions, as in
/// an iterative solver), timed by each report's loop phase.
fn bench_kernel(strategy: Strategy, n: usize, idx: &[usize], reps: usize) -> f64 {
    let pool = ompsim::ThreadPool::new(1);
    let mut out = vec![0.0f64; n];
    let mut ex = RegionExecutor::<f64, Sum>::new(strategy);
    let mut best = f64::INFINITY;
    for _ in 0..reps + 1 {
        let report = ex.run(
            &pool,
            &mut out,
            0..idx.len(),
            ompsim::Schedule::default(),
            &Scatter(idx),
        );
        best = best.min(report.phases.loop_secs);
    }
    black_box(out.as_slice());
    best * 1e9 / idx.len() as f64
}

/// Team width of the `replay` column.
const REPLAY_THREADS: usize = 2;

/// Best per-thread ns per apply of `reps` planned replays of `idx` as a
/// [`REPLAY_THREADS`]-thread `Kernel` region through one
/// `RegionExecutor`, after one recording region: the slowest thread's
/// loop phase over its static share of the applies.
fn bench_replay(strategy: Strategy, n: usize, idx: &[usize], reps: usize) -> f64 {
    let pool = ompsim::ThreadPool::new(REPLAY_THREADS);
    let mut out = vec![0.0f64; n];
    let mut ex = RegionExecutor::<f64, Sum>::new(strategy);
    let mut best = f64::INFINITY;
    for rep in 0..reps + 2 {
        let report = ex.run_planned(
            0,
            &pool,
            &mut out,
            0..idx.len(),
            ompsim::Schedule::default(),
            &Scatter(idx),
        );
        // Region 0 records the plan; region 1 is the first replay, which
        // lays the run out.
        if rep >= 2 {
            best = best.min(report.phases.loop_secs);
        }
    }
    assert_eq!(
        ex.planned_regions() as usize,
        reps + 1,
        "{}: every replay must stay on the plan",
        strategy.label()
    );
    black_box(out.as_slice());
    best * 1e9 / idx.len().div_ceil(REPLAY_THREADS) as f64
}

/// Median of `xs` (mean of the middle two for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 0 {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

/// Merge-phase measurement: fused kernel vs seed-shaped scalar two-pass,
/// with a memcpy ceiling and a live region's reported bandwidth.
struct MergeRow {
    threads: usize,
    /// ns per merged element, fused `merge_refill_into` kernel.
    kernel_ns: f64,
    /// ns per merged element, seed shape: scalar merge pass + refill pass.
    scalar_ns: f64,
    /// Bytes/sec of the fused kernel over the merged footprint.
    kernel_bw: f64,
    /// Bytes/sec of the seed-shaped scalar merge.
    scalar_bw: f64,
    /// Same-buffer `memcpy` bandwidth (the streaming ceiling).
    memcpy_bw: f64,
    /// `RunReport::merge_bandwidth` of a real block-private region over
    /// the stream shape at `threads` threads.
    region_bw: f64,
}

/// Times the merge phase the way the block epilogues run it: `threads`
/// private full-array copies merged block-by-block into one output.
/// Copies are re-dirtied outside the timed sections; best-of-reps.
fn bench_merge(n: usize, block_size: usize, threads: usize, reps: usize) -> MergeRow {
    let mut out = AlignedBuf::<f64>::new_identity::<Sum>(n);
    let mut copies: Vec<AlignedBuf<f64>> = (0..threads)
        .map(|_| AlignedBuf::<f64>::new_identity::<Sum>(n))
        .collect();
    let dirty = |copies: &mut Vec<AlignedBuf<f64>>| {
        for c in copies.iter_mut() {
            c.as_mut_slice().fill(1.0);
        }
    };
    let merged_bytes = (threads * n * std::mem::size_of::<f64>()) as f64;

    let mut kernel = f64::INFINITY;
    let mut scalar = f64::INFINITY;
    let mut memcpy = f64::INFINITY;
    for _ in 0..reps + 1 {
        // Fused kernel: one pass merges and refills (what the arena-backed
        // epilogue streams).
        dirty(&mut copies);
        let t0 = Instant::now();
        for c in copies.iter_mut() {
            for lo in (0..n).step_by(block_size) {
                let len = block_size.min(n - lo);
                // SAFETY: disjoint buffers, in-bounds block ranges.
                unsafe {
                    kernels::merge_refill_into::<f64, Sum>(
                        out.as_mut_ptr().add(lo),
                        c.as_mut_ptr().add(lo),
                        len,
                    );
                }
            }
        }
        kernel = kernel.min(t0.elapsed().as_secs_f64());
        black_box(out.as_slice());

        // Seed shape: element-at-a-time merge pass (the old epilogue
        // loop), then a separate refill pass (the old `finish`).
        dirty(&mut copies);
        let t0 = Instant::now();
        for c in copies.iter_mut() {
            for lo in (0..n).step_by(block_size) {
                let len = block_size.min(n - lo);
                // SAFETY: as above.
                unsafe {
                    kernels::merge_into_scalar::<f64, Sum>(
                        out.as_mut_ptr().add(lo),
                        c.as_ptr().add(lo),
                        len,
                    );
                }
            }
            c.as_mut_slice().fill(0.0);
        }
        scalar = scalar.min(t0.elapsed().as_secs_f64());
        black_box(out.as_slice());

        // memcpy ceiling over the same footprint.
        dirty(&mut copies);
        let t0 = Instant::now();
        for c in copies.iter() {
            // SAFETY: disjoint same-length buffers.
            unsafe {
                std::ptr::copy_nonoverlapping(c.as_ptr(), out.as_mut_ptr(), n);
            }
        }
        memcpy = memcpy.min(t0.elapsed().as_secs_f64());
        black_box(out.as_slice());
    }

    // A real region on the stream shape: every thread privatizes its
    // chunk's blocks (block-private never claims), so the epilogue merges
    // ~the whole array once and the report carries the realized
    // bandwidth.
    let pool = ompsim::ThreadPool::new(threads);
    let mut out2 = vec![0.0f64; n];
    let report = reduce_dyn::<f64, Sum>(
        Strategy::BlockPrivate { block_size },
        &pool,
        &mut out2,
        1..n - 1,
        ompsim::Schedule::default(),
        &|v, i| {
            v.apply(i - 1, 0.25);
            v.apply(i, 0.5);
            v.apply(i + 1, 0.25);
        },
    );
    black_box(out2.as_slice());

    let per = 1e9 / (threads * n) as f64;
    MergeRow {
        threads,
        kernel_ns: kernel * per,
        scalar_ns: scalar * per,
        kernel_bw: merged_bytes / kernel,
        scalar_bw: merged_bytes / scalar,
        memcpy_bw: merged_bytes / memcpy,
        region_bw: report.merge_bandwidth,
    }
}

/// splitmix64, for a deterministic index permutation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn patterns(n: usize) -> Vec<(&'static str, Vec<usize>)> {
    // Streaming scatter: ascending with a ±1 neighbor touch, the
    // conv-backprop shape: long runs of applies into one block.
    let stream: Vec<usize> = (1..n - 1).flat_map(|i| [i - 1, i, i + 1]).collect();
    // Random permutation: nearly every apply switches blocks, so each
    // one pays a table load on a cold-ish line; isolates the lookup
    // plus shift/mask vs the legacy assert plus div/mod.
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = 0xC0FFEE;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    vec![("stream", stream), ("random", perm)]
}

/// Times `reps` single-threaded regions of `red`, timing only the apply
/// loop, and returns best ns/apply for the fast (table) and uncached
/// paths.
macro_rules! bench_flavor {
    ($ctor:ident, $bs:expr, $n:expr, $idx:expr, $reps:expr) => {{
        let mut out = vec![0.0f64; $n];
        let red = $ctor::<f64, Sum>::new(&mut out, 1, $bs);
        let name = red.name();
        let mut cached = f64::INFINITY;
        let mut uncached = f64::INFINITY;
        let mut uncounted = f64::INFINITY;
        // Counted over uncounted time, one ratio per timed rep.
        let mut ratios = Vec::with_capacity($reps + 1);
        for _ in 0..$reps + 1 {
            // Counted region — exactly what the drivers run: the fast
            // path through a `CountedView`, applies credited at the end.
            let mut view = red.view(0);
            let mut counted = CountedView::new(&mut view);
            let t0 = Instant::now();
            for &i in $idx {
                counted.apply(i, black_box(1.0));
            }
            let counted_dt = t0.elapsed().as_secs_f64();
            red.record_applies(0, counted.applies());
            red.stash(0, view);
            red.epilogue(0);
            red.finish();
            cached = cached.min(counted_dt);

            // Uncached region (legacy assert + table lookup + div/mod).
            let mut view = red.view(0);
            let t0 = Instant::now();
            for &i in $idx {
                view.apply_uncached(i, black_box(1.0));
            }
            let dt = t0.elapsed().as_secs_f64();
            red.stash(0, view);
            red.epilogue(0);
            red.finish();
            uncached = uncached.min(dt);

            // Same fast path, no counting wrapper (telemetry off).
            let mut view = red.view(0);
            let t0 = Instant::now();
            for &i in $idx {
                view.apply(i, black_box(1.0));
            }
            let dt = t0.elapsed().as_secs_f64();
            red.stash(0, view);
            red.epilogue(0);
            red.finish();
            uncounted = uncounted.min(dt);
            ratios.push(counted_dt / dt);
        }
        let per = 1e9 / $idx.len() as f64;
        Row {
            strategy: name,
            pattern: "",
            cached_ns: cached * per,
            uncached_ns: uncached * per,
            uncounted_ns: uncounted * per,
            telemetry_pct: 100.0 * (median(ratios) - 1.0),
            kernel_ns: 0.0,
            replay_ns: 0.0,
        }
    }};
}

fn main() {
    let opts = Opts::parse();
    let n = opts.n.unwrap_or(if opts.quick { 1 << 16 } else { 1 << 20 });
    let block_size = 1024usize;
    let reps = opts.reps;

    println!(
        "# apply_overhead: per-apply ns, fast path (telemetry on/off) vs legacy uncached path"
    );
    println!(
        "# N = {n}, block_size = {block_size}, reps = {reps}, 1 thread \
         ({REPLAY_THREADS} for replay_ns_per_apply)"
    );
    println!(
        "strategy,pattern,cached_ns_per_apply,uncached_ns_per_apply,\
         telemetry_off_ns_per_apply,telemetry_overhead_pct,speedup,kernel_ns_per_apply,\
         replay_ns_per_apply"
    );

    let mut rows: Vec<Row> = Vec::new();
    for (pattern, idx) in patterns(n) {
        for mut row in [
            bench_flavor!(BlockPrivateReduction, block_size, n, &idx, reps),
            bench_flavor!(BlockLockReduction, block_size, n, &idx, reps),
            bench_flavor!(BlockCasReduction, block_size, n, &idx, reps),
        ] {
            row.pattern = pattern;
            let strategy = row.strategy.parse().expect("block labels parse");
            row.kernel_ns = bench_kernel(strategy, n, &idx, reps);
            row.replay_ns = bench_replay(strategy, n, &idx, reps);
            println!(
                "{},{},{:.3},{:.3},{:.3},{:.2},{:.3},{:.3},{:.3}",
                row.strategy,
                row.pattern,
                row.cached_ns,
                row.uncached_ns,
                row.uncounted_ns,
                row.telemetry_pct,
                row.uncached_ns / row.cached_ns,
                row.kernel_ns,
                row.replay_ns
            );
            rows.push(row);
        }
    }

    // Merge phase: the stream shape at 4 threads (the acceptance
    // configuration), fused kernel vs seed scalar two-pass vs memcpy.
    let merge_threads = 4;
    let m = bench_merge(n, block_size, merge_threads, reps);
    let speedup = m.scalar_ns / m.kernel_ns;
    println!("# merge phase: stream shape, {merge_threads} threads, bytes/sec");
    println!(
        "merge,kernel_ns_per_elem,scalar_ns_per_elem,kernel_vs_scalar,\
         kernel_bw,scalar_bw,memcpy_bw,region_merge_bandwidth"
    );
    println!(
        "merge,{:.3},{:.3},{:.3},{:.3e},{:.3e},{:.3e},{:.3e}",
        m.kernel_ns, m.scalar_ns, speedup, m.kernel_bw, m.scalar_bw, m.memcpy_bw, m.region_bw
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"n\": {n},\n  \"block_size\": {block_size},\n  \"reps\": {reps},\n  \"results\": [\n"
    ));
    for r in rows.iter() {
        json.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"pattern\": \"{}\", \
             \"cached_ns_per_apply\": {:.3}, \"uncached_ns_per_apply\": {:.3}, \
             \"telemetry_off_ns_per_apply\": {:.3}, \"telemetry_overhead_pct\": {:.2}, \
             \"kernel_ns_per_apply\": {:.3}, \"replay_ns_per_apply\": {:.3}}},\n",
            r.strategy,
            r.pattern,
            r.cached_ns,
            r.uncached_ns,
            r.uncounted_ns,
            r.telemetry_pct,
            r.kernel_ns,
            r.replay_ns,
        ));
    }
    json.push_str(&format!(
        "    {{\"strategy\": \"merge-phase\", \"pattern\": \"stream\", \"threads\": {}, \
         \"kernel_merge_ns_per_apply\": {:.3}, \"scalar_merge_ns_per_apply\": {:.3}, \
         \"kernel_vs_scalar_speedup\": {:.3}, \"merge_bandwidth\": {:.6e}, \
         \"scalar_merge_bandwidth\": {:.6e}, \"memcpy_bandwidth\": {:.6e}, \
         \"region_merge_bandwidth\": {:.6e}}}\n",
        m.threads,
        m.kernel_ns,
        m.scalar_ns,
        speedup,
        m.kernel_bw,
        m.scalar_bw,
        m.memcpy_bw,
        m.region_bw
    ));
    json.push_str("  ]\n}\n");
    let path = "BENCH_apply_overhead.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_apply_overhead.json");
    eprintln!("wrote {path}");

    if opts.check {
        let mut failed = Vec::new();
        for r in rows.iter().filter(|r| r.pattern == "random") {
            let margin = r.uncached_ns / r.cached_ns;
            eprintln!(
                "check {}: random fast path {:.3} ns vs uncached {:.3} ns ({margin:.3}×)",
                r.strategy, r.cached_ns, r.uncached_ns
            );
            if r.cached_ns >= r.uncached_ns {
                failed.push(r.strategy.clone());
            }
        }
        assert!(
            failed.is_empty(),
            "apply acceptance: on the random pattern the fast path must beat \
             the uncached path for every flavor; failed: {failed:?}"
        );
        assert!(
            speedup >= 1.5,
            "merge kernel acceptance: fused kernel must be ≥ 1.5× the seed \
             scalar merge on the stream shape (got {speedup:.3}×; kernel \
             {:.3} ns/elem vs scalar {:.3} ns/elem)",
            m.kernel_ns,
            m.scalar_ns
        );
        eprintln!("check ok: fused merge kernel {speedup:.3}× the seed scalar merge");
    }
}
