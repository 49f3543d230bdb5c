//! Online strategy adaptation for the region executor.
//!
//! The paper frames strategy choice as depending on "the hardware,
//! application, and input data" (§I) — but a strategy picked once, up
//! front, can drift out of fit on a long-running workload (PageRank's
//! frontier collapsing, a histogram's key distribution shifting from hot
//! to scattered). This module closes the loop: after
//! every region the executor scores its *current* strategy against the
//! telemetry that region actually recorded, and when the score stays out
//! of band for [`AdaptiveConfig::patience`] consecutive regions it
//! migrates to the candidate the signals recommend.
//!
//! The cost model is deliberately made of the signals the repo already
//! measures (nothing new is instrumented):
//!
//! * **applies per element** — region applies / output length, the
//!   sparsity axis of §VII's summary. Privatizing strategies pay
//!   per-touched-block setup + merge, so they want density; atomics and
//!   keeper want sparsity.
//! * **contention ratio** — [`crate::Counters::contention_ratio`]
//!   (ownership-race losses + keeper forwards per apply).
//! * **barrier fraction** — [`crate::PhaseTimes::barrier_fraction`], the
//!   load-imbalance signal.
//! * **plan deviation** — a replayed [`crate::RegionPlan`] that deviated
//!   this region (the footprint moved under a cached plan).
//!
//! [`score`] maps those to a single mismatch number whose **hysteresis
//! band is `[0, 1]`**: each component is normalized so `1.0` sits exactly
//! at its configured limit, and the score is the worst component (plus a
//! deviation surcharge). One bad region never migrates — the executor
//! migrates only after `patience` consecutive out-of-band regions, and
//! the streak resets on any in-band region, so oscillating workloads
//! settle rather than thrash.
//!
//! Migration itself is performed by
//! [`crate::RegionExecutor::migrate_to`]; see DESIGN.md §"Adaptive
//! execution" for the drain/invalidate/switch protocol and the `verify`
//! hook that makes planted migration schedules replayable from a seed.

use crate::strategy::Strategy;

/// How a [`crate::RegionExecutor`] picks its strategy across regions.
#[derive(Debug, Clone, Default)]
pub enum ExecutorPolicy {
    /// Keep the construction-time strategy for every region (the
    /// pre-adaptive behavior; migrations still happen if the caller
    /// invokes [`crate::RegionExecutor::migrate_to`] explicitly).
    #[default]
    Fixed,
    /// Score every region's telemetry and migrate when the cost model
    /// says the current strategy is mismatched.
    Adaptive(AdaptiveConfig),
}

/// Tuning knobs for the adaptive cost model; see the module docs for the
/// model itself. The defaults encode §VII's qualitative summary with
/// round numbers — they are hysteresis thresholds, not measurements, and
/// every one of them is overridable.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Strategies the executor may migrate between. Forced-migration
    /// testing (the `verify` feature) indexes into this list, so keep it
    /// stable for a given seed.
    pub candidates: Vec<Strategy>,
    /// Applies/element at or above which a *non*-privatizing strategy
    /// (atomic, keeper) is considered mismatched: every element is hit
    /// this many times, so privatized blocks amortize.
    pub dense_applies_per_elem: f64,
    /// Applies/element at or below which a privatizing strategy is
    /// considered mismatched: the merge walks a footprint that saw
    /// almost no updates.
    pub sparse_applies_per_elem: f64,
    /// Contention ratio ([`crate::Counters::contention_ratio`]) above
    /// which the current strategy is considered mismatched.
    pub contention_limit: f64,
    /// Barrier fraction ([`crate::PhaseTimes::barrier_fraction`]) above
    /// which the current strategy is considered mismatched.
    pub barrier_limit: f64,
    /// Consecutive out-of-band regions required before migrating (the
    /// hysteresis depth; at least 1).
    pub patience: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            candidates: default_candidates(1024),
            dense_applies_per_elem: 4.0,
            sparse_applies_per_elem: 0.5,
            contention_limit: 0.05,
            barrier_limit: 0.5,
            patience: 3,
        }
    }
}

impl AdaptiveConfig {
    /// A config whose organic migration decisions depend **only** on the
    /// density signal (applies per element): the contention and barrier
    /// components are disabled by setting their limits to zero, which the
    /// cost model treats as "never out of band on this axis".
    ///
    /// Density is a pure function of the workload, so under this config
    /// the whole migration sequence is deterministic for a fixed job
    /// stream — the envelope the differential verify oracles
    /// (`check_adaptive_seed`, the service fuzz case) need: timing-borne
    /// signals would let wall-clock noise change *which* strategies run,
    /// and no seeded controller can replay that.
    pub fn density_only(candidates: Vec<Strategy>) -> Self {
        AdaptiveConfig {
            candidates,
            contention_limit: 0.0,
            barrier_limit: 0.0,
            ..AdaptiveConfig::default()
        }
    }
}

/// The default migration candidate set: the paper's competitive subset
/// at `block_size`, plus a second `BlockPrivate` granularity (4×), so
/// the adaptive layer can migrate block *size* — not just strategy
/// family — when density says blocks should be coarser.
pub fn default_candidates(block_size: usize) -> Vec<Strategy> {
    let mut v = Strategy::competitive(block_size);
    v.push(Strategy::BlockPrivate {
        block_size: block_size.saturating_mul(4),
    });
    v
}

/// The per-region signals the cost model consumes, extracted from one
/// region's [`crate::RunReport`] by the executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionSignals {
    /// Total applies this region / output array length.
    pub applies_per_element: f64,
    /// [`crate::Counters::contention_ratio`] of the region's totals.
    pub contention_ratio: f64,
    /// [`crate::PhaseTimes::barrier_fraction`] of the region.
    pub barrier_fraction: f64,
    /// A cached plan was replayed and deviated this region.
    pub deviated: bool,
}

/// Whether `s` pays per-touched-footprint privatization + merge costs
/// (wants density), as opposed to updating in place or forwarding
/// (wants sparsity).
fn privatizes(s: Strategy) -> bool {
    !matches!(s, Strategy::Atomic | Strategy::Keeper)
}

/// Scores how mismatched `current` is to the observed `sig`.
///
/// The hysteresis band is `[0, 1]`: each component is normalized so 1.0
/// sits at its configured limit, the score is the **worst** component,
/// and a deviating plan replay adds a 0.5 surcharge (deviation alone
/// re-records and heals, so it only tips a migration when paired with a
/// borderline mismatch). A region with zero applies scores 0 — there is
/// no evidence to migrate on.
pub fn score(current: Strategy, sig: &RegionSignals, cfg: &AdaptiveConfig) -> f64 {
    let d = sig.applies_per_element;
    if d <= 0.0 {
        return 0.0;
    }
    let mut worst: f64 = 0.0;
    if privatizes(current) && cfg.sparse_applies_per_elem > 0.0 && d < cfg.sparse_applies_per_elem {
        worst = worst.max(cfg.sparse_applies_per_elem / d);
    }
    if !privatizes(current) && cfg.dense_applies_per_elem > 0.0 {
        worst = worst.max(d / cfg.dense_applies_per_elem);
    }
    if cfg.contention_limit > 0.0 {
        worst = worst.max(sig.contention_ratio / cfg.contention_limit);
    }
    if cfg.barrier_limit > 0.0 {
        worst = worst.max(sig.barrier_fraction / cfg.barrier_limit);
    }
    if sig.deviated {
        worst += 0.5;
    }
    worst
}

/// The candidate the signals recommend, given that [`score`] already
/// left the band. Always returns a member of `cfg.candidates` or
/// `current` itself (in which case the executor stays put).
pub fn recommend(current: Strategy, sig: &RegionSignals, cfg: &AdaptiveConfig) -> Strategy {
    let d = sig.applies_per_element;
    let pick = |want: fn(&Strategy) -> bool| cfg.candidates.iter().copied().find(want);
    // Sparse tail on a privatizing strategy: update in place, or forward
    // to the owner when atomics are not on offer.
    if privatizes(current) && d > 0.0 && d < cfg.sparse_applies_per_elem {
        if let Some(s) = pick(|s| matches!(s, Strategy::Atomic)) {
            return s;
        }
        if let Some(s) = pick(|s| matches!(s, Strategy::Keeper)) {
            return s;
        }
    }
    // Dense stream on an in-place strategy, or a contended claim-based
    // one: privatize. Granularity scales with density — very dense
    // regions amortize coarser blocks (fewer resolves and merge steps).
    let wants_blocks = (!privatizes(current) && d >= cfg.dense_applies_per_elem)
        || sig.contention_ratio > cfg.contention_limit;
    if wants_blocks {
        let mut sizes: Vec<usize> = cfg
            .candidates
            .iter()
            .filter_map(|s| match s {
                Strategy::BlockPrivate { block_size } => Some(*block_size),
                _ => None,
            })
            .collect();
        sizes.sort_unstable();
        if !sizes.is_empty() {
            let bs = if d >= 4.0 * cfg.dense_applies_per_elem {
                *sizes.last().unwrap()
            } else {
                sizes[0]
            };
            let target = Strategy::BlockPrivate { block_size: bs };
            if target != current {
                return target;
            }
        }
        if let Some(s) = pick(|s| matches!(s, Strategy::Dense)) {
            return s;
        }
    }
    current
}

/// Per-executor adaptive bookkeeping (lives inside
/// [`crate::RegionExecutor`] when the policy is
/// [`ExecutorPolicy::Adaptive`]).
#[derive(Debug, Clone)]
pub(crate) struct AdaptiveState {
    /// The cost-model configuration.
    pub(crate) cfg: AdaptiveConfig,
    /// Consecutive out-of-band regions so far.
    pub(crate) streak: u32,
    /// Regions this executor has completed (the `idx` fed to the
    /// `verify` migration hook, so planted schedules replay by region
    /// order).
    pub(crate) region_seq: u64,
}

impl AdaptiveState {
    pub(crate) fn new(cfg: AdaptiveConfig) -> Self {
        AdaptiveState {
            cfg,
            streak: 0,
            region_seq: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(density: f64) -> RegionSignals {
        RegionSignals {
            applies_per_element: density,
            contention_ratio: 0.0,
            barrier_fraction: 0.0,
            deviated: false,
        }
    }

    #[test]
    fn default_candidates_cover_two_block_granularities() {
        let sizes: Vec<usize> = default_candidates(1024)
            .into_iter()
            .filter_map(|s| match s {
                Strategy::BlockPrivate { block_size } => Some(block_size),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, vec![1024, 4096]);
    }

    #[test]
    fn density_only_disables_timing_borne_signals() {
        let cfg = AdaptiveConfig::density_only(default_candidates(64));
        let bc = Strategy::BlockCas { block_size: 64 };
        // Pathological contention and barrier waits: still in band.
        let noisy = RegionSignals {
            applies_per_element: 2.0,
            contention_ratio: 1.0,
            barrier_fraction: 1.0,
            deviated: false,
        };
        assert!(score(bc, &noisy, &cfg) <= 1.0);
        // The density axis still works both ways.
        assert!(score(bc, &sig(1.0 / 16.0), &cfg) > 1.0);
        assert!(score(Strategy::Atomic, &sig(16.0), &cfg) > 1.0);
    }

    #[test]
    fn score_band_tracks_density_mismatch() {
        let cfg = AdaptiveConfig::default();
        let bp = Strategy::BlockPrivate { block_size: 1024 };
        // Dense stream on a privatizer: at home.
        assert!(score(bp, &sig(16.0), &cfg) <= 1.0);
        // Sparse tail on a privatizer: far out of band (0.5 / (1/16) = 8).
        assert!(score(bp, &sig(1.0 / 16.0), &cfg) > 4.0);
        // The mirror image for atomics.
        assert!(score(Strategy::Atomic, &sig(1.0 / 16.0), &cfg) <= 1.0);
        assert!(score(Strategy::Atomic, &sig(16.0), &cfg) > 1.0);
        // No applies: no evidence, never out of band.
        assert_eq!(score(bp, &sig(0.0), &cfg), 0.0);
    }

    #[test]
    fn score_penalizes_contention_barrier_and_deviation() {
        let cfg = AdaptiveConfig::default();
        let bc = Strategy::BlockCas { block_size: 1024 };
        let mut s = sig(2.0);
        let base = score(bc, &s, &cfg);
        s.contention_ratio = 2.0 * cfg.contention_limit;
        assert!(score(bc, &s, &cfg) >= 2.0_f64.max(base));
        s.contention_ratio = 0.0;
        s.barrier_fraction = 2.0 * cfg.barrier_limit;
        assert!(score(bc, &s, &cfg) >= 2.0);
        s.barrier_fraction = 0.0;
        s.deviated = true;
        assert_eq!(score(bc, &s, &cfg), base + 0.5);
    }

    #[test]
    fn recommend_flips_between_atomic_and_blocks() {
        let cfg = AdaptiveConfig::default();
        let bp = Strategy::BlockPrivate { block_size: 1024 };
        // Privatizer gone sparse → atomic.
        assert_eq!(recommend(bp, &sig(1.0 / 16.0), &cfg), Strategy::Atomic);
        // Atomic gone moderately dense → the finer BlockPrivate.
        assert_eq!(recommend(Strategy::Atomic, &sig(6.0), &cfg), bp);
        // Atomic gone very dense → the coarser granularity.
        assert_eq!(
            recommend(Strategy::Atomic, &sig(64.0), &cfg),
            Strategy::BlockPrivate { block_size: 4096 }
        );
        // Contended CAS claims at moderate density → full privatization.
        let contended = RegionSignals {
            applies_per_element: 2.0,
            contention_ratio: 0.2,
            barrier_fraction: 0.0,
            deviated: false,
        };
        assert_eq!(
            recommend(Strategy::BlockCas { block_size: 1024 }, &contended, &cfg),
            bp
        );
        // In-band signals recommend staying put, on both sides of the
        // density band.
        assert_eq!(recommend(bp, &sig(8.0), &cfg), bp);
        for in_place in [Strategy::Atomic, Strategy::Keeper] {
            assert_eq!(recommend(in_place, &sig(0.25), &cfg), in_place);
        }
        // Recommendations are drawn from the candidate list: with no
        // atomic/keeper candidate, a sparse privatizer stays put.
        let narrow = AdaptiveConfig {
            candidates: vec![bp],
            ..AdaptiveConfig::default()
        };
        assert_eq!(recommend(bp, &sig(0.01), &narrow), bp);
    }
}
