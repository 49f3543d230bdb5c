//! Differential concurrency-verification oracle.
//!
//! The oracle runs every strategy over the same seeded scatter kernel —
//! unplanned, plan-recording, and plan-replaying — and compares each
//! result against the sequential reduction: bit-for-bit for integer
//! elements, within a tight reassociation tolerance for floats. On its
//! own (`check_seed`) it is an always-compiled correctness sweep; under
//! the `verify` feature the `fuzz` module pairs it with ompsim's
//! seeded schedule controller so every sweep runs under a replayable
//! perturbed interleaving, turning the oracle into a schedule fuzzer
//! (PCT-style randomized preemption, fault injection, and a planted-bug
//! canary). The `schedule_fuzz` bench binary drives it from the CLI;
//! DESIGN.md's "Verification" section maps the hook points.

use crate::{reduce_seq, Counters, Kernel, ReducerView, RegionExecutor, Strategy, Sum};
use ompsim::verify::mix64;
use ompsim::{Schedule, ThreadPool};
use std::fmt;

/// Deterministic scatter kernel: iteration `i` applies two updates at
/// pseudo-random indices derived from `(seed, i)` — the shape the
/// proptest oracles use, shared here so fuzz failures replay under the
/// exact kernel that found them.
pub struct ScatterKernel {
    /// Output array length (indices are reduced mod `n`).
    pub n: usize,
    /// Stream seed: each seed is a distinct scatter pattern.
    pub seed: u64,
}

impl ScatterKernel {
    #[inline(always)]
    fn hash(&self, i: usize) -> u64 {
        mix64(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

impl Kernel<i64> for ScatterKernel {
    #[inline(always)]
    fn item<V: ReducerView<i64>>(&self, view: &mut V, i: usize) {
        let h = self.hash(i);
        view.apply((h as usize) % self.n, 1 + ((h >> 32) % 5) as i64);
        view.apply(((h >> 16) as usize) % self.n, 3);
    }
}

impl Kernel<f64> for ScatterKernel {
    #[inline(always)]
    fn item<V: ReducerView<f64>>(&self, view: &mut V, i: usize) {
        let h = self.hash(i);
        view.apply(
            (h as usize) % self.n,
            ((h % 1000) as f64).mul_add(1e-3, 1.0),
        );
        view.apply(((h >> 16) as usize) % self.n, 0.5);
    }
}

/// Which executor path produced a checked result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `RegionExecutor::run`.
    Unplanned,
    /// `run_planned`, first region (plan recording).
    Recording,
    /// `run_planned`, replay number `n` (1-based).
    Replay(usize),
    /// Region `n` (0-based) of the multi-region adaptive sweep
    /// ([`check_adaptive_seed`]), which may migrate strategies between
    /// regions.
    AdaptiveRegion(usize),
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Unplanned => write!(f, "unplanned"),
            Mode::Recording => write!(f, "recording"),
            Mode::Replay(n) => write!(f, "replay{n}"),
            Mode::AdaptiveRegion(n) => write!(f, "adaptive-region{n}"),
        }
    }
}

/// A differential failure: one element disagreed with the sequential
/// reduction. `Display` prints a one-line repro-oriented description.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Seed whose sweep failed (the one-line repro handle).
    pub seed: u64,
    /// Strategy label (paper naming).
    pub strategy: String,
    /// Executor path that produced the bad result.
    pub mode: Mode,
    /// Element type of the failing sweep (`"i64"` / `"f64"`).
    pub elem: &'static str,
    /// First disagreeing element index.
    pub index: usize,
    /// Parallel result at `index`.
    pub got: String,
    /// Sequential result at `index`.
    pub want: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {}: {} ({}, {}) out[{}] = {} != sequential {}",
            self.seed, self.strategy, self.mode, self.elem, self.index, self.got, self.want
        )
    }
}

/// Oracle workload parameters.
#[derive(Debug, Clone)]
pub struct OracleCfg {
    /// Output array length.
    pub n: usize,
    /// Loop iterations per region (two applies each).
    pub updates: usize,
    /// Team size.
    pub threads: usize,
    /// Block size for the block-flavor strategies.
    pub block_size: usize,
    /// Strategies to sweep.
    pub strategies: Vec<Strategy>,
    /// Also run the f64 sweep (tolerance compare).
    pub check_floats: bool,
    /// Use a `dynamic` loop schedule instead of the default static one.
    pub dynamic: bool,
    /// Planned replays per strategy after the recording region.
    pub replays: usize,
}

impl OracleCfg {
    /// The CI smoke shape: small array, heavy overlap, every strategy.
    pub fn quick(threads: usize) -> Self {
        let block_size = 32;
        OracleCfg {
            n: 512,
            updates: 4096,
            threads,
            block_size,
            strategies: Strategy::all(block_size),
            check_floats: true,
            dynamic: false,
            replays: 2,
        }
    }
}

/// Per-seed summary: every `(strategy, mode)` region that ran and its
/// telemetry counter totals, in execution order. Under a deterministic
/// schedule (static, non-claiming strategies) the whole vector is a
/// replayable fingerprint.
#[derive(Debug, Clone, Default)]
pub struct OracleStats {
    /// Parallel regions executed by the sweep.
    pub regions: usize,
    /// `("strategy/elem/mode", counter totals)` per region, in order.
    pub reports: Vec<(String, Counters)>,
}

fn check_elem<T, CMP>(
    pool: &ThreadPool,
    cfg: &OracleCfg,
    seed: u64,
    elem: &'static str,
    same: CMP,
    stats: &mut OracleStats,
) -> Result<(), Box<Mismatch>>
where
    T: crate::AtomicElement + fmt::Debug + Default + Copy,
    ScatterKernel: Kernel<T>,
    crate::Sum: crate::ReduceOp<T>,
    CMP: Fn(T, T) -> bool,
{
    let schedule = if cfg.dynamic {
        Schedule::Dynamic { chunk: 3 }
    } else {
        Schedule::default()
    };
    let kernel = ScatterKernel { n: cfg.n, seed };
    let mut want = vec![T::default(); cfg.n];
    reduce_seq::<T, Sum, _>(&mut want, 0..cfg.updates, |v, i| kernel.item(v, i));

    let check = |out: &[T], strategy: &Strategy, mode: Mode| -> Result<(), Box<Mismatch>> {
        for (i, (&got, &w)) in out.iter().zip(want.iter()).enumerate() {
            if !same(got, w) {
                return Err(Box::new(Mismatch {
                    seed,
                    strategy: strategy.label(),
                    mode,
                    elem,
                    index: i,
                    got: format!("{got:?}"),
                    want: format!("{w:?}"),
                }));
            }
        }
        Ok(())
    };

    for &strategy in &cfg.strategies {
        let mut ex = RegionExecutor::<T, Sum>::new(strategy);
        let mut out = vec![T::default(); cfg.n];
        let report = ex.run(pool, &mut out, 0..cfg.updates, schedule, &kernel);
        stats.regions += 1;
        stats.reports.push((
            format!("{}/{elem}/unplanned", strategy.label()),
            report.counters.totals(),
        ));
        check(&out, &strategy, Mode::Unplanned)?;

        let mut ex = RegionExecutor::<T, Sum>::new(strategy);
        for r in 0..=cfg.replays {
            let mode = if r == 0 {
                Mode::Recording
            } else {
                Mode::Replay(r)
            };
            let mut out = vec![T::default(); cfg.n];
            let report = ex.run_planned(1, pool, &mut out, 0..cfg.updates, schedule, &kernel);
            stats.regions += 1;
            stats.reports.push((
                format!("{}/{elem}/{mode}", strategy.label()),
                report.counters.totals(),
            ));
            check(&out, &strategy, mode)?;
        }
    }
    Ok(())
}

/// Runs the full differential sweep for one seed: every configured
/// strategy, unplanned + recording + replays, i64 exactly and (when
/// configured) f64 within reassociation tolerance. Returns the region
/// fingerprint on success, the first mismatch otherwise.
pub fn check_seed(
    pool: &ThreadPool,
    cfg: &OracleCfg,
    seed: u64,
) -> Result<OracleStats, Box<Mismatch>> {
    let mut stats = OracleStats::default();
    check_elem::<i64, _>(pool, cfg, seed, "i64", |a, b| a == b, &mut stats)?;
    if cfg.check_floats {
        // Reassociation-only tolerance: each element accumulates a few
        // hundred O(1) contributions, so true reassociation error is
        // ~1e-13 relative; 1e-9 passes every legal merge order and still
        // flags any lost or doubled update (magnitude >= 0.5).
        let same = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
        check_elem::<f64, _>(pool, cfg, seed, "f64", same, &mut stats)?;
    }
    Ok(stats)
}

/// Per-seed summary of one adaptive differential sweep
/// ([`check_adaptive_seed`]).
#[derive(Debug, Clone, Default)]
pub struct AdaptiveStats {
    /// Regions executed across all executors and element sweeps.
    pub regions: usize,
    /// Strategy migrations the adaptive executors performed (cost-model
    /// decisions plus, under an active `verify` session, planted ones).
    pub migrations: u64,
    /// The i64 adaptive executor's final per-strategy region counts.
    pub strategy_regions: Vec<(String, u64)>,
}

/// Regions per phase of the adaptive sweep's shifted workload.
const ADAPTIVE_PHASE_REGIONS: usize = 4;

fn check_adaptive_elem<T, CMP>(
    pool: &ThreadPool,
    cfg: &OracleCfg,
    seed: u64,
    elem: &'static str,
    same: CMP,
    stats: &mut AdaptiveStats,
) -> Result<(), Box<Mismatch>>
where
    T: crate::AtomicElement + fmt::Debug + Default + Copy,
    ScatterKernel: Kernel<T>,
    crate::Sum: crate::ReduceOp<T>,
    CMP: Fn(T, T) -> bool,
{
    let schedule = if cfg.dynamic {
        Schedule::Dynamic { chunk: 3 }
    } else {
        Schedule::default()
    };
    let candidates = crate::default_candidates(cfg.block_size);
    let acfg = crate::AdaptiveConfig {
        candidates: candidates.clone(),
        patience: 2,
        // Zero disables the timing-fed components (barrier fraction,
        // claim contention): the oracle's cost model is then a pure
        // function of the deterministic density signal, so the whole
        // migration sequence — cost-model and planted alike — replays
        // bit-for-bit from the seed.
        contention_limit: 0.0,
        barrier_limit: 0.0,
        ..crate::AdaptiveConfig::default()
    };
    let mut adaptive = RegionExecutor::<T, Sum>::with_policy(
        Strategy::BlockPrivate {
            block_size: cfg.block_size,
        },
        crate::ExecutorPolicy::Adaptive(acfg),
    );
    let mut fixed: Vec<RegionExecutor<T, Sum>> =
        candidates.iter().map(|&s| RegionExecutor::new(s)).collect();

    for r in 0..2 * ADAPTIVE_PHASE_REGIONS {
        // Phase 0: dense front-loaded stream (8 applies/element); phase
        // 1: sparse tail (1/8). The kernel pattern is fixed per phase so
        // cached plans replay within a phase and are invalidated by
        // migrations between them.
        let phase = (r / ADAPTIVE_PHASE_REGIONS) as u64;
        let updates = if phase == 0 {
            cfg.n * 8
        } else {
            (cfg.n / 8).max(1)
        };
        let kernel = ScatterKernel {
            n: cfg.n,
            seed: mix64(seed ^ phase),
        };
        let mut want = vec![T::default(); cfg.n];
        reduce_seq::<T, Sum, _>(&mut want, 0..updates, |v, i| kernel.item(v, i));

        let check = |out: &[T], strategy: String| -> Result<(), Box<Mismatch>> {
            for (i, (&got, &w)) in out.iter().zip(want.iter()).enumerate() {
                if !same(got, w) {
                    return Err(Box::new(Mismatch {
                        seed,
                        strategy,
                        mode: Mode::AdaptiveRegion(r),
                        elem,
                        index: i,
                        got: format!("{got:?}"),
                        want: format!("{w:?}"),
                    }));
                }
            }
            Ok(())
        };

        let mut out = vec![T::default(); cfg.n];
        let report = adaptive.run_planned(phase, pool, &mut out, 0..updates, schedule, &kernel);
        stats.regions += 1;
        check(&out, format!("adaptive({})", report.strategy))?;

        for ex in &mut fixed {
            let mut out = vec![T::default(); cfg.n];
            ex.run_planned(phase, pool, &mut out, 0..updates, schedule, &kernel);
            stats.regions += 1;
            check(&out, ex.strategy().label())?;
        }
    }
    stats.migrations += adaptive.migrations();
    if elem == "i64" {
        stats.strategy_regions = adaptive.strategy_regions().to_vec();
    }
    Ok(())
}

/// Differential oracle over the adaptive executor: a multi-region sweep
/// whose workload shifts from a dense front-loaded stream to a sparse
/// tail mid-run, executed by an [`crate::ExecutorPolicy::Adaptive`]
/// executor **and** every fixed candidate over the same regions, each
/// region compared against the sequential reduction — bit-for-bit for
/// i64, within reassociation tolerance for f64 (when configured).
///
/// Always compiled: without the `verify` feature (or with no session
/// installed) migrations come from the cost model alone, and the
/// dense→sparse shift is steep enough that at least one always fires.
/// Under an active `verify` session, `migrate_per_mille` plants *forced*
/// migrations at seed-chosen region boundaries on top — the planted
/// schedule is a pure function of the session seed, so any failure
/// replays from one line (see `fuzz::migration_case`).
pub fn check_adaptive_seed(
    pool: &ThreadPool,
    cfg: &OracleCfg,
    seed: u64,
) -> Result<AdaptiveStats, Box<Mismatch>> {
    let mut stats = AdaptiveStats::default();
    check_adaptive_elem::<i64, _>(pool, cfg, seed, "i64", |a, b| a == b, &mut stats)?;
    if cfg.check_floats {
        // Same reassociation-only tolerance as `check_seed`; migration
        // changes the merge order, never the contribution set, so it
        // must stay within this band.
        let same = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
        check_adaptive_elem::<f64, _>(pool, cfg, seed, "f64", same, &mut stats)?;
    }
    Ok(stats)
}

/// Seed budget for fuzz loops in tests/CI: `SPRAY_FUZZ_SEEDS` when set
/// and parseable, `default` otherwise. The TSan job runs the same tests
/// with a smaller budget through this knob.
pub fn seed_budget(default: u64) -> u64 {
    std::env::var("SPRAY_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[cfg(feature = "verify")]
pub mod fuzz {
    //! Schedule fuzzing on top of the differential oracle (requires the
    //! `verify` feature): each case installs a seeded
    //! [`ompsim::verify`] controller, so the oracle sweep runs under a
    //! replayable perturbed interleaving.

    use super::*;
    use crate::block::BlockBrokenCasReduction;
    use crate::reduce;
    use ompsim::verify::{self, FaultSpec, HookPoint, VerifyConfig, NPOINTS};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// PCT-style parameters derived deterministically from the seed:
    /// preemption probability, per-thread budget, and (for a quarter of
    /// seeds) real delays instead of yields.
    pub fn params_for_seed(seed: u64) -> VerifyConfig {
        let h = mix64(seed ^ 0x5EED_F00D);
        VerifyConfig {
            seed,
            preempt_per_mille: (50 + h % 450) as u16,
            budget: (16 + ((h >> 16) % 120)) as u32,
            delay_nanos: if (h >> 32) % 4 == 0 { 20_000 } else { 0 },
            migrate_per_mille: 0,
            fault: None,
        }
    }

    /// A session that counts hook crossings but never perturbs. Fault
    /// cases hold one over their unperturbed regions: a region run with
    /// no session would cross the hooks of whatever session another test
    /// installed meanwhile, charging that session's preemptions and fault
    /// counts.
    fn inert_session() -> verify::VerifySession {
        verify::install(VerifyConfig {
            preempt_per_mille: 0,
            ..VerifyConfig::default()
        })
    }

    /// Everything one fuzz iteration observed: the oracle verdict plus
    /// the controller's replay fingerprint.
    pub struct FuzzOutcome {
        /// The differential-oracle verdict for this seed.
        pub result: Result<OracleStats, Box<Mismatch>>,
        /// Preemptions the controller charged (all threads).
        pub preemptions: u64,
        /// Hook crossings, indexed like [`HookPoint::ALL`].
        pub hook_totals: [u64; NPOINTS],
        /// Per-thread merge orders (block index sequences).
        pub merge_orders: Vec<Vec<u64>>,
    }

    /// One fuzz iteration: install the seed's controller, run the full
    /// differential sweep under it, return verdict + fingerprint.
    pub fn fuzz_case(cfg: &OracleCfg, seed: u64) -> FuzzOutcome {
        let session = verify::install(params_for_seed(seed));
        let pool = ThreadPool::new(cfg.threads);
        let result = check_seed(&pool, cfg, seed);
        drop(pool);
        let merge_orders = (0..cfg.threads.min(verify::MAX_THREADS))
            .map(|t| session.merge_order(t))
            .collect();
        FuzzOutcome {
            result,
            preemptions: session.preemptions(),
            hook_totals: session.totals(),
            merge_orders,
        }
    }

    /// Forced-migration fuzz parameters, derived deterministically from
    /// the seed: moderate preemption plus a high
    /// `migrate_per_mille`, so most seeds plant at least one forced
    /// migration somewhere in the adaptive sweep's decision stream.
    pub fn migration_params_for_seed(seed: u64) -> VerifyConfig {
        let h = mix64(seed ^ 0x4D16_7A7E);
        VerifyConfig {
            seed,
            preempt_per_mille: (50 + h % 250) as u16,
            budget: (16 + ((h >> 16) % 64)) as u32,
            delay_nanos: 0,
            migrate_per_mille: (250 + ((h >> 24) % 500)) as u16,
            fault: None,
        }
    }

    /// Everything one forced-migration fuzz iteration observed.
    pub struct MigrationOutcome {
        /// The adaptive differential-oracle verdict for this seed.
        pub result: Result<AdaptiveStats, Box<Mismatch>>,
        /// Migrations the adaptive executors performed (planted +
        /// cost-model).
        pub migrations: u64,
        /// [`HookPoint::MigrationDecision`] crossings the controller saw
        /// (region boundaries + mid-drain crossings).
        pub decision_crossings: u64,
    }

    /// One forced-migration fuzz iteration: install the seed's
    /// controller (preemption + planted migrations), run
    /// [`check_adaptive_seed`] under it, return verdict + counts. The
    /// planted migration schedule is a pure function of the seed and
    /// the (serialized) region order, so a failing seed replays exactly
    /// from `schedule_fuzz --migrations --seed-start <seed> --seeds 1`.
    pub fn migration_case(cfg: &OracleCfg, seed: u64) -> MigrationOutcome {
        let session = verify::install(migration_params_for_seed(seed));
        let pool = ThreadPool::new(cfg.threads);
        let result = check_adaptive_seed(&pool, cfg, seed);
        drop(pool);
        let decision_crossings = session.total(HookPoint::MigrationDecision);
        MigrationOutcome {
            migrations: result.as_ref().map(|s| s.migrations).unwrap_or(0),
            result,
            decision_crossings,
        }
    }

    /// One migration fault-injection iteration: plant a panic at a
    /// seed-chosen [`HookPoint::MigrationDecision`] crossing — which,
    /// under the seed's high forced-migration rate, frequently lands on
    /// the crossing *inside* a migration drain — and demand that (a)
    /// the sweep panics instead of deadlocking or corrupting state, and
    /// (b) the same pool then reruns the sweep unperturbed to the exact
    /// sequential result (no updates lost to the aborted migration).
    pub fn migration_fault_case(threads: usize, seed: u64) -> Result<(), String> {
        let h = mix64(seed ^ 0x4D16_FA17);
        // The sweep crosses the decision hook once per adaptive region
        // (16+ per sweep) plus once per migration drain; the first few
        // crossings are always reachable.
        let nth = 1 + h % 6;
        let mut cfg = OracleCfg::quick(threads);
        cfg.check_floats = false;

        let session = verify::install(VerifyConfig {
            seed,
            preempt_per_mille: 100,
            budget: 64,
            delay_nanos: 0,
            migrate_per_mille: 700,
            fault: Some(FaultSpec {
                tid: 0, // ignored: migration faults match on `nth` alone
                point: HookPoint::MigrationDecision,
                nth,
            }),
        });
        let pool = ThreadPool::new(threads);
        // The injected panic would spam stderr through the default hook;
        // the session lock already serializes fault cases, so a
        // temporary silent hook is safe.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _ = check_adaptive_seed(&pool, &cfg, seed);
        }))
        .is_err();
        std::panic::set_hook(default_hook);
        if !poisoned {
            return Err(format!(
                "seed {seed}: injected fault at migration_decision #{nth} never fired"
            ));
        }
        drop(session);

        // The pool must survive the aborted migration (the fault fires
        // on the orchestrating thread, between regions), and an
        // unperturbed rerun must be exact — nothing drained into the
        // void.
        let _inert = inert_session();
        match check_adaptive_seed(&pool, &cfg, seed) {
            Ok(_) => Ok(()),
            Err(m) => Err(format!(
                "seed {seed}: post-fault rerun diverged after migration_decision #{nth}: {m}"
            )),
        }
    }

    /// Arena-retention fingerprint check: the seeded controller must see
    /// the **same** hook sequence whether a region runs on freshly
    /// allocated arena slabs or on scratch retained (and
    /// identity-refilled) from a previous region. Storage is an
    /// implementation detail — if recycled arena blocks changed any hook
    /// crossing (an extra privatization, a skipped merge step, a
    /// reordered drain) the replay fingerprint would no longer be a pure
    /// function of the seed and one-line repros would lie. Two legs:
    ///
    /// 1. fixed-strategy regions (block-private + dense, the two arena
    ///    planes: block slabs and dense [`crate::arena::AlignedBuf`]
    ///    replicas drawn from the same slab pool) run `fresh` (new
    ///    executor, new arena, per region) and
    ///    `retained` (one executor, recycled scratch) under the same
    ///    seeded controller — hook totals and per-thread merge orders
    ///    must match exactly;
    /// 2. two identical planted-migration adaptive sweeps — whose drain
    ///    path merges out of arena-backed retained scratch — must agree
    ///    on migration and decision-crossing counts.
    ///
    /// Returns `Err` describing the first divergence.
    pub fn arena_case(threads: usize, seed: u64) -> Result<(), String> {
        let n = 256usize;
        let block_size = 32usize;
        let updates = 8 * n;
        let regions = 3usize;
        let strategies = [Strategy::BlockPrivate { block_size }, Strategy::Dense];

        let kernel = ScatterKernel { n, seed };
        let mut want = vec![0i64; n];
        reduce_seq::<i64, Sum, _>(&mut want, 0..updates, |v, i| kernel.item(v, i));

        // Runs `regions` identical regions per strategy under the seed's
        // controller and returns the fingerprint. `retain` reuses one
        // executor, so regions after the first run on recycled,
        // identity-refilled arena scratch; otherwise every region gets a
        // fresh executor and therefore a fresh arena.
        let fingerprint = |retain: bool| -> Result<([u64; NPOINTS], Vec<Vec<u64>>), String> {
            let session = verify::install(params_for_seed(seed));
            let pool = ThreadPool::new(threads);
            for &strategy in &strategies {
                let mut ex = RegionExecutor::<i64, Sum>::new(strategy);
                for r in 0..regions {
                    if !retain && r > 0 {
                        ex = RegionExecutor::new(strategy);
                    }
                    let mut out = vec![0i64; n];
                    ex.run(&pool, &mut out, 0..updates, Schedule::default(), &kernel);
                    if out != want {
                        return Err(format!(
                            "seed {seed}: {} region {r} ({} scratch) diverged from sequential",
                            strategy.label(),
                            if retain { "retained" } else { "fresh" },
                        ));
                    }
                }
            }
            drop(pool);
            let orders = (0..threads.min(verify::MAX_THREADS))
                .map(|t| session.merge_order(t))
                .collect();
            Ok((session.totals(), orders))
        };

        let (fresh_totals, fresh_orders) = fingerprint(false)?;
        let (retained_totals, retained_orders) = fingerprint(true)?;
        for (p, (&f, &r)) in fresh_totals.iter().zip(retained_totals.iter()).enumerate() {
            if f != r {
                return Err(format!(
                    "seed {seed}: hook {} crossed {f} times on fresh scratch but {r} on \
                     retained arena scratch",
                    HookPoint::ALL[p].name()
                ));
            }
        }
        if fresh_orders != retained_orders {
            return Err(format!(
                "seed {seed}: per-thread merge orders diverged between fresh and retained \
                 arena scratch: fresh {fresh_orders:?}, retained {retained_orders:?}"
            ));
        }

        // Migration-drain leg: the drain merges out of arena-backed
        // retained scratch, and its serialized decision stream must stay
        // a pure function of the seed.
        let mut cfg = OracleCfg::quick(threads);
        cfg.check_floats = false;
        let drain = || -> Result<(u64, u64), String> {
            let outcome = migration_case(&cfg, seed);
            outcome
                .result
                .map_err(|m| format!("seed {seed}: migration leg: {m}"))?;
            Ok((outcome.migrations, outcome.decision_crossings))
        };
        let first = drain()?;
        let second = drain()?;
        if first != second {
            return Err(format!(
                "seed {seed}: migration drain fingerprint (migrations, decision crossings) \
                 diverged across identical seeded runs: {first:?} vs {second:?}"
            ));
        }
        Ok(())
    }

    /// The planted-bug canary: runs the deliberately broken block-CAS
    /// reduction (ownership CAS dropped — see
    /// [`crate::block::BlockBrokenCasReduction`]) under the seed's
    /// controller, with every thread hammering one block. Returns `true`
    /// when the schedule exposed the race (lost updates), i.e. the
    /// fuzzer *caught* the bug on this seed.
    pub fn broken_case(threads: usize, seed: u64) -> bool {
        let n = 64;
        let updates = 20_000usize;
        let session = verify::install(VerifyConfig {
            seed,
            preempt_per_mille: 120,
            budget: 4096,
            delay_nanos: 0,
            migrate_per_mille: 0,
            fault: None,
        });
        let pool = ThreadPool::new(threads);
        let mut out = vec![0i64; n];
        let red = BlockBrokenCasReduction::<i64, Sum>::new(&mut out, threads, n);
        reduce(&pool, &red, 0..updates, Schedule::default(), |v, i| {
            let h = mix64(seed ^ i as u64);
            v.apply((h as usize) % n, 1);
        });
        drop(red);
        drop(pool);
        drop(session);
        // Every apply added exactly 1, so any schedule that loses an
        // update shows up as a short total.
        let got: i64 = out.iter().sum();
        got != updates as i64
    }

    /// Round-robin kernel: iteration `i` hits `i % n`. With a static
    /// schedule every thread deterministically touches every block,
    /// enqueues remote keeper traffic, and merges at least one block —
    /// which makes every fault point below *guaranteed reachable*.
    struct RoundRobinKernel {
        n: usize,
    }

    impl Kernel<i64> for RoundRobinKernel {
        #[inline(always)]
        fn item<V: ReducerView<i64>>(&self, view: &mut V, i: usize) {
            view.apply(i % self.n, 1);
        }
    }

    /// One fault-injection iteration: derive a guaranteed-reachable
    /// `(strategy, hook, tid)` from the seed, inject a panic at that
    /// crossing, and demand that (a) the region panics instead of
    /// deadlocking, and (b) the same pool and executor then run the
    /// region cleanly to the exact sequential result — proving the
    /// barrier's panic detection and the executor's scratch/plan
    /// recovery survive a mid-region death.
    pub fn fault_case(threads: usize, seed: u64) -> Result<(), String> {
        let n = 256usize;
        let block_size = 32usize;
        let updates = 16 * n;
        let h = mix64(seed ^ 0xFA17);

        let mut combos: Vec<(Strategy, HookPoint)> = vec![
            (Strategy::BlockCas { block_size }, HookPoint::BarrierEnter),
            (Strategy::BlockCas { block_size }, HookPoint::SharedWrite),
            (Strategy::BlockCas { block_size }, HookPoint::OwnershipClaim),
            (Strategy::BlockPrivate { block_size }, HookPoint::MergeStep),
            (Strategy::Keeper, HookPoint::QueueDrain),
            (Strategy::Keeper, HookPoint::BarrierEnter),
        ];
        if threads > 1 {
            combos.push((Strategy::Keeper, HookPoint::QueuePush));
        }
        let (strategy, point) = combos[(h % combos.len() as u64) as usize];
        let tid = ((h >> 8) % threads as u64) as usize;
        // Low crossing numbers are reachable for every point above;
        // BarrierEnter is crossed exactly once per thread per region.
        let nth = if point == HookPoint::BarrierEnter {
            1
        } else {
            1 + (h >> 16) % 3
        };

        let session = verify::install(VerifyConfig {
            seed,
            preempt_per_mille: 100,
            budget: 64,
            delay_nanos: 0,
            migrate_per_mille: 0,
            fault: Some(FaultSpec { tid, point, nth }),
        });
        let pool = ThreadPool::new(threads);
        let kernel = RoundRobinKernel { n };
        let mut ex = RegionExecutor::<i64, Sum>::new(strategy);
        let mut out = vec![0i64; n];
        // The injected panic (and the teammates it poisons) would spam
        // stderr through the default hook; the session lock already
        // serializes fault cases, so a temporary silent hook is safe.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            ex.run(&pool, &mut out, 0..updates, Schedule::default(), &kernel);
        }))
        .is_err();
        std::panic::set_hook(default_hook);
        if !poisoned {
            return Err(format!(
                "seed {seed}: injected fault at {} #{nth} on tid {tid} ({}) never fired",
                point.name(),
                strategy.label()
            ));
        }
        drop(session);

        // The pool and the executor must both survive the poisoned
        // region: rerun the same region on the same objects, unperturbed,
        // and demand the exact sequential result.
        let _inert = inert_session();
        let mut out = vec![0i64; n];
        ex.run(&pool, &mut out, 0..updates, Schedule::default(), &kernel);
        let mut want = vec![0i64; n];
        reduce_seq::<i64, Sum, _>(&mut want, 0..updates, |v, i| kernel.item(v, i));
        if out != want {
            return Err(format!(
                "seed {seed}: post-fault rerun of {} diverged after {} fault on tid {tid}",
                strategy.label(),
                point.name()
            ));
        }
        Ok(())
    }

    /// Everything one delta fuzz iteration observed.
    pub struct DeltaOutcome {
        /// `Ok` when every incremental batch — across both the
        /// exact-inverse leg and the refold leg, with migrations in
        /// between — matched the never-incremental reference bit-for-bit.
        pub result: Result<(), String>,
        /// Preemptions the controller charged (all threads).
        pub preemptions: u64,
        /// [`HookPoint::DeltaApply`] crossings — proof the sweep staged
        /// dirty blocks rather than silently recomputing.
        pub delta_applies: u64,
        /// Retractions the executors processed across both legs.
        pub retractions: u64,
        /// Strategy migrations performed between batches.
        pub migrations: u64,
    }

    /// One delta fuzz iteration: stream seeded churn batches (pushes of
    /// fresh tags plus retractions of earlier rounds' live tags) through
    /// [`RegionExecutor::run_delta`] under the seed's schedule
    /// controller, and demand the incremental result stays bit-identical
    /// to replaying the surviving contributions from scratch. Two legs
    /// share the seed's stream: an `i64` Sum leg (wrapping inverse, so
    /// retractions take the exact-inverse fast path when the dirty
    /// fraction allows) and an `i64` Min leg (no inverse — every batch
    /// refolds its dirty blocks from the contribution log). Both legs
    /// migrate strategies mid-stream — the delta state must survive
    /// every switch — and every third round scatters updates array-wide
    /// to force the full-refold fallback.
    pub fn delta_case(threads: usize, seed: u64) -> DeltaOutcome {
        use crate::{DeltaBatch, Min};

        let n = 768usize;
        let session = verify::install(params_for_seed(seed));
        let pool = ThreadPool::new(threads);
        let mut h = mix64(seed ^ 0xDE17_A5EE);
        let mut step = move || {
            h = mix64(h.wrapping_add(0x9E37_79B9_7F4A_7C15));
            h
        };
        let mut result = Ok(());
        let mut retractions = 0u64;
        let mut migrations = 0u64;

        // Leg 1: wrapping Sum — retractions may use the exact inverse.
        let init: Vec<i64> = (0..n).map(|i| (i as i64 % 17) - 8).collect();
        let mut out = init.clone();
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::BlockPrivate { block_size: 64 });
        let mut live: Vec<(usize, u64, i64)> = Vec::new();
        let mut next_tag = 0u64;
        for round in 0..6u64 {
            let mut batch = DeltaBatch::new();
            for _ in 0..6 {
                if live.len() > 3 {
                    let at = step() as usize % live.len();
                    let (idx, tag, _) = live.remove(at);
                    batch.retract(idx, tag);
                    retractions += 1;
                }
            }
            // Clustered rounds stay incremental; every third round
            // scatters array-wide and trips the full-refold fallback.
            let spread = round % 3 == 2;
            let base = (round as usize * 131) % n;
            for _ in 0..40 {
                let idx = if spread {
                    step() as usize % n
                } else {
                    (base + step() as usize % 128) % n
                };
                let val = (step() % 41) as i64 - 20;
                batch.push(idx, next_tag, val);
                live.push((idx, next_tag, val));
                next_tag += 1;
            }
            ex.run_delta(&pool, &mut out, &batch);
            let mut want = init.clone();
            for &(idx, _, v) in &live {
                want[idx] = want[idx].wrapping_add(v);
            }
            if out != want {
                result = Err(format!(
                    "seed {seed}: sum leg round {round} diverged from full replay"
                ));
                break;
            }
            if round == 1 {
                ex.migrate_to(Strategy::BlockLock { block_size: 16 });
            }
            if round == 3 {
                ex.migrate_to(Strategy::Atomic);
            }
        }
        migrations += ex.migrations();

        // Leg 2: Min has no inverse — every retraction refolds the
        // block's log, and the retracted minimum must resurface the
        // runner-up exactly.
        if result.is_ok() {
            let minit = vec![i64::MAX; n];
            let mut mout = minit.clone();
            let mut mex = RegionExecutor::<i64, Min>::new(Strategy::BlockCas { block_size: 64 });
            let mut mlive: Vec<(usize, u64, i64)> = Vec::new();
            let mut mtag = 0u64;
            for round in 0..5u64 {
                let mut batch = DeltaBatch::new();
                for _ in 0..5 {
                    if mlive.len() > 2 {
                        let at = step() as usize % mlive.len();
                        let (idx, tag, _) = mlive.remove(at);
                        batch.retract(idx, tag);
                        retractions += 1;
                    }
                }
                let base = (round as usize * 197) % n;
                for _ in 0..32 {
                    let idx = (base + step() as usize % 160) % n;
                    let val = (step() % 1000) as i64 - 500;
                    batch.push(idx, mtag, val);
                    mlive.push((idx, mtag, val));
                    mtag += 1;
                }
                mex.run_delta(&pool, &mut mout, &batch);
                let mut want = minit.clone();
                for &(idx, _, v) in &mlive {
                    want[idx] = want[idx].min(v);
                }
                if mout != want {
                    result = Err(format!(
                        "seed {seed}: min leg round {round} diverged from full replay"
                    ));
                    break;
                }
                if round == 2 {
                    mex.migrate_to(Strategy::BlockLock { block_size: 32 });
                }
            }
            migrations += mex.migrations();
        }

        drop(pool);
        DeltaOutcome {
            result,
            preemptions: session.preemptions(),
            delta_applies: session.total(HookPoint::DeltaApply),
            retractions,
            migrations,
        }
    }

    /// One delta fault-injection iteration: plant a panic at a
    /// seed-chosen [`HookPoint::DeltaApply`] crossing — mid-stage on a
    /// worker thread, before any staged block commits — and demand that
    /// (a) the batch panics instead of deadlocking, (b) the previously
    /// committed result is left bit-for-bit untouched (poison, not
    /// corrupt), and (c) the same executor then replays the identical
    /// batch unperturbed to the exact full-replay result, proving the
    /// aborted transaction left the retained delta state fully
    /// retryable.
    pub fn delta_fault_case(threads: usize, seed: u64) -> Result<(), String> {
        use crate::DeltaBatch;

        // 16 delta blocks (64 elements each), ten live contributions per
        // element: the churn batch below dirties every block, and the
        // logs are heavy enough that staging takes the *parallel* path —
        // spread across the whole team, each tid crossing DeltaApply at
        // least twice.
        let n = 1024usize;
        let per_elem = 10usize;
        let h = mix64(seed ^ 0xDE17_FA17);
        let tid = (h % threads as u64) as usize;
        let nth = 1 + (h >> 8) % 2;

        let pool = ThreadPool::new(threads);
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::BlockCas { block_size: 64 });
        let mut out = vec![0i64; n];
        // Baseline batch, committed before the faulting controller is
        // installed.
        let mut batch = DeltaBatch::new();
        for r in 0..per_elem {
            for i in 0..n {
                batch.push(i, (r * n + i) as u64, 1);
            }
        }
        let inert = inert_session();
        ex.run_delta(&pool, &mut out, &batch);
        drop(inert);
        let before = out.clone();

        // Churn touching every block: retract one baseline tag per block
        // and replace it.
        let mut churn = DeltaBatch::new();
        let mut touched = Vec::new();
        for b in 0..(n >> 6) {
            let idx = (b << 6) + mix64(h ^ b as u64) as usize % 64;
            churn.retract(idx, idx as u64);
            churn.push(idx, (per_elem * n + b) as u64, -5);
            touched.push(idx);
        }

        let session = verify::install(VerifyConfig {
            seed,
            preempt_per_mille: 100,
            budget: 64,
            delay_nanos: 0,
            migrate_per_mille: 0,
            fault: Some(FaultSpec {
                tid,
                point: HookPoint::DeltaApply,
                nth,
            }),
        });
        // Silent hook for the same reason as `fault_case`.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            ex.run_delta(&pool, &mut out, &churn);
        }))
        .is_err();
        std::panic::set_hook(default_hook);
        if !poisoned {
            return Err(format!(
                "seed {seed}: injected fault at delta_apply #{nth} on tid {tid} never fired"
            ));
        }
        if out != before {
            return Err(format!(
                "seed {seed}: fault at delta_apply #{nth} on tid {tid} corrupted the \
                 committed result"
            ));
        }
        drop(session);

        // The executor must survive the mid-stage death: replay the same
        // batch on the same objects, unperturbed, and demand the exact
        // full-replay result.
        let inert = inert_session();
        ex.run_delta(&pool, &mut out, &churn);
        drop(inert);
        let mut want = vec![per_elem as i64; n];
        for &idx in &touched {
            want[idx] = per_elem as i64 - 1 - 5;
        }
        if out != want {
            return Err(format!(
                "seed {seed}: post-fault replay diverged after delta_apply #{nth} on tid {tid}"
            ));
        }
        let committed = out.clone();

        // Second plant, on the *serial* staging path this time: a tiny
        // batch stages on the caller thread (bound as tid 0), and the
        // same poison-not-corrupt contract must hold there.
        let mut small = DeltaBatch::new();
        small.retract(touched[0], (per_elem * n) as u64);
        small.push(touched[0], (per_elem * n + 100) as u64, 3);
        let session = verify::install(VerifyConfig {
            seed,
            preempt_per_mille: 0,
            budget: 0,
            delay_nanos: 0,
            migrate_per_mille: 0,
            fault: Some(FaultSpec {
                tid: 0,
                point: HookPoint::DeltaApply,
                nth: 1,
            }),
        });
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            ex.run_delta(&pool, &mut out, &small);
        }))
        .is_err();
        std::panic::set_hook(default_hook);
        if !poisoned {
            return Err(format!(
                "seed {seed}: serial-path fault at delta_apply #1 on tid 0 never fired"
            ));
        }
        if out != committed {
            return Err(format!(
                "seed {seed}: serial-path fault corrupted the committed result"
            ));
        }
        drop(session);
        let _inert = inert_session();
        ex.run_delta(&pool, &mut out, &small);
        want[touched[0]] = per_elem as i64 - 1 + 3;
        if out != want {
            return Err(format!(
                "seed {seed}: post-fault serial replay diverged on tid 0"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_correct_strategies() {
        let pool = ThreadPool::new(3);
        let cfg = OracleCfg::quick(3);
        let stats = check_seed(&pool, &cfg, 7).expect("all strategies agree with sequential");
        // 11 strategies x 2 element types x (1 unplanned + 1 recording
        // + 2 replays) regions.
        assert_eq!(stats.regions, cfg.strategies.len() * 2 * (2 + cfg.replays));
        assert_eq!(stats.reports.len(), stats.regions);
    }

    #[test]
    fn oracle_works_under_dynamic_schedules() {
        let pool = ThreadPool::new(2);
        let mut cfg = OracleCfg::quick(2);
        cfg.dynamic = true;
        cfg.check_floats = false;
        cfg.replays = 1;
        check_seed(&pool, &cfg, 11).expect("dynamic schedule stays exact");
    }

    #[test]
    fn adaptive_oracle_accepts_and_cost_model_migrates() {
        // With no verify session installed (or without the feature at
        // all), migrations come from the cost model alone: the sweep's
        // dense→sparse shift must trigger at least one, and every
        // region — adaptive and fixed alike — must match sequential.
        let pool = ThreadPool::new(3);
        let cfg = OracleCfg::quick(3);
        let stats = check_adaptive_seed(&pool, &cfg, 7).expect("adaptive sweep matches sequential");
        assert!(
            stats.migrations >= 1,
            "dense→sparse shift must migrate: {stats:?}"
        );
        // 8 regions x (1 adaptive + 7 fixed candidates) x 2 elem types.
        assert_eq!(stats.regions, 8 * (1 + 7) * 2);
        // The i64 adaptive executor ran more than one strategy.
        assert!(stats.strategy_regions.len() >= 2, "{stats:?}");
        let total: u64 = stats.strategy_regions.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 8);
    }

    #[cfg(feature = "verify")]
    #[test]
    fn delta_fuzz_case_is_deterministic_and_replays_faults() {
        let first = fuzz::delta_case(3, 42);
        first.result.expect("delta stream matches full replay");
        assert!(
            first.delta_applies > 0,
            "incremental legs must stage dirty blocks"
        );
        assert!(first.retractions > 0, "churn must retract live tags");
        assert!(first.migrations >= 3, "legs migrate mid-stream");
        let second = fuzz::delta_case(3, 42);
        second.result.expect("delta stream matches full replay");
        assert_eq!(first.delta_applies, second.delta_applies);
        assert_eq!(first.preemptions, second.preemptions);
        fuzz::delta_fault_case(3, 42).expect("planted delta-apply fault replays");
    }

    #[test]
    fn seed_budget_defaults_and_parses() {
        // Not set in the test environment unless CI exported it; both
        // ways the call must return something sane.
        let b = seed_budget(17);
        assert!(b > 0);
    }
}
