//! # bench — harness regenerating the SPRAY paper's tables and figures
//!
//! One binary per figure (run with `--release`):
//!
//! | Paper figure | Binary | What it prints |
//! |---|---|---|
//! | Fig. 11 | `fig11_conv_speedup` | conv-backprop speedup over sequential per strategy × thread count |
//! | Fig. 12 | `fig12_optlevels` | best absolute conv-backprop times for this build profile (run under `--profile opt1`/`opt2`/`release` to sweep optimization levels) |
//! | Fig. 13 | `fig13_blocksizes` | block-reducer scalability across block sizes |
//! | Fig. 14 | `fig14_s3dkt3m2` | transpose-SpMV time & memory on the banded s3dkt3m2 stand-in, incl. simulated MKL baselines |
//! | Fig. 15 | `fig15_debr` | same on the de Bruijn (debr) stand-in |
//! | Fig. 16 | `fig16_lulesh` | LULESH proxy whole-run time & memory, incl. the 8-copy domain scheme |
//! | §IV/§V discussion | `ablation_schedule`, `ablation_keeper`, `ablation_atomics` | schedule/chunk, keeper-ownership and atomic-op ablations |
//! | §VII remarks | `summary_table` | every strategy × all three workloads, time and memory side by side |
//! | hot path | `apply_overhead` | per-apply ns of the block reducers' cached fast path (telemetry on and off) vs the legacy assert+div/mod path, per access pattern (writes `BENCH_apply_overhead.json`) |
//! | telemetry | `telemetry_smoke` | runs a scatter under every strategy family, prints each `RunReport` as JSON and re-parses it, asserting counters are populated (CI gate) |
//! | region plans | `plan_amortize` | planned vs unplanned steady-state region time for the block flavors and Keeper on streaming-scatter and transpose-SpMV shapes, plus plan-build cost and break-even region count (writes `BENCH_plan_amortize.json`; `--check` turns it into a CI gate) |
//! | adaptive execution | `adaptive_shift` | dense front-loaded region stream with a sparse tail, run fixed (block-private, atomic) vs adaptive: per-phase steady-state time plus migration count/seconds and per-strategy region counts (writes `BENCH_adaptive_shift.json`; `--check` turns it into a CI gate) |
//! | — | `plot_ascii` | renders any results CSV as an ASCII chart |
//!
//! Every binary prints CSV to stdout (`column -s, -t` renders it) plus
//! `#`-prefixed context lines. Common flags: `--threads 1,2,4`,
//! `--quick` (shrink the workload), `--reps N`.

#![warn(missing_docs)]

use std::time::Instant;

pub mod args;
pub mod json;
pub mod plot;
pub mod spmv_fig;
pub mod workloads;

/// Result of timing one configuration.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Best (minimum) wall time over all repetitions, seconds.
    pub best: f64,
    /// Mean wall time, seconds.
    pub mean: f64,
    /// Repetitions measured.
    pub reps: usize,
}

/// Runs `f` `reps` times (after one untimed warm-up) and reports best and
/// mean wall time. The paper repeats runs ≥10× and reports means; `--reps`
/// controls the same here.
pub fn time_reps(reps: usize, mut f: impl FnMut()) -> Timing {
    f(); // warm-up: page in buffers, warm the pool
    let mut total = 0.0;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        best = best.min(dt);
    }
    Timing {
        best,
        mean: total / reps as f64,
        reps,
    }
}

/// Formats a byte count for CSV output as MiB.
pub fn fmt_mib(b: usize) -> String {
    format!("{:.2}", b as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_reps_counts() {
        let mut calls = 0;
        let t = time_reps(3, || calls += 1);
        assert_eq!(calls, 4); // warm-up + 3
        assert_eq!(t.reps, 3);
        assert!(t.best <= t.mean + 1e-12);
    }

    #[test]
    fn fmt_mib_scales() {
        assert_eq!(fmt_mib(1024 * 1024), "1.00");
        assert_eq!(fmt_mib(0), "0.00");
    }
}
