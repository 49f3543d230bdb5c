//! The unified region executor — the **single** strategy-dispatch site.
//!
//! Every runtime-dispatched path into a reduction region routes through
//! [`RegionExecutor::run`]: [`crate::reduce_strategy`] (one-shot regions),
//! [`crate::reduce_dyn`] (closure bodies) and [`ReusableReducer`] (the
//! region-reuse API, now an alias of the executor). The `match` over
//! [`Strategy`] variants in [`RegionExecutor::run`] is the only place in
//! the workspace that turns a `Strategy` value into a concrete
//! [`Reduction`].
//!
//! The executor also owns two cross-cutting concerns:
//!
//! * **scratch retention** — block-reducer allocations are detached after
//!   each region ([`crate::BlockReduction::into_scratch`]) and re-attached
//!   to the next region's array, so iterative solvers allocate only on
//!   their first iteration, for *every* caller;
//! * **telemetry** — each region runs under the phased driver, which
//!   times the loop / barrier-wait / epilogue / finish phases, and the
//!   strategy's own counters are snapshotted into the returned
//!   [`RunReport`].

use crate::adaptive::{recommend, score, AdaptiveState, ExecutorPolicy, RegionSignals};
use crate::atomic::AtomicReduction;
use crate::block::{
    BlockCasReduction, BlockCasScratch, BlockLockReduction, BlockLockScratch,
    BlockPrivateReduction, BlockPrivateScratch,
};
use crate::delta::{run_delta_engine, DeltaBatch, DeltaState, DELTA_BLOCK_BITS};
use crate::dense::DenseReduction;
use crate::elem::{AtomicElement, ReduceOp};
use crate::keeper::KeeperReduction;
use crate::map::{BTreeMapReduction, HashMapReduction};
use crate::plan::{PlanBudget, PlanCache};
use crate::reducer::{reduce_chunked_phased, ReducerView, Reduction};
use crate::strategy::{Kernel, Strategy};
use crate::telemetry::{PhaseBoard, PhaseTimes, RunReport, Telemetry};
use ompsim::{Schedule, ThreadPool};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// State an executor may share with concurrent sessions: the region-plan
/// cache and the service-level telemetry sinks.
///
/// [`RegionExecutor`] splits into two layers:
///
/// * **session state** — the executor value itself: retained scratch,
///   adaptive policy/streak, migration counters, per-strategy region
///   tallies. Each job/session owns one; it is `&mut self` and never
///   shared.
/// * **shared state** — this type, behind an [`Arc`]: the [`PlanCache`]
///   (one recording serves every session replaying the same region id)
///   and the job/batch sinks the reduction service folds its admission
///   telemetry into.
///
/// [`RegionExecutor::new`]/[`with_policy`](RegionExecutor::with_policy)
/// wrap a private `ExecutorShared`, preserving the old single-owner
/// behavior exactly; [`RegionExecutor::with_shared`] attaches a session
/// to an existing one. Scratch is *never* shared — each session retains
/// its own, so concurrent sessions on one [`ompsim::ThreadPool`] (whose
/// region lock serializes the parallel phases) cannot alias block
/// copies. The process-wide [`crate::arena`] slab pool recycles slabs
/// *between* sessions' regions, which is safe for the same reason: a
/// slab is only pooled after `into_scratch`/drop detaches it.
///
/// # Lock order
///
/// All interior mutability here is leaf-level: the [`PlanCache`] mutex
/// (see its docs) and relaxed atomics for the sinks. Nothing in this
/// type calls into the pool or the arena while holding a lock.
#[derive(Debug, Default)]
pub struct ExecutorShared {
    plans: PlanCache,
    /// Jobs admitted through a reduction service using this shared state.
    jobs: AtomicU64,
    /// Service regions that coalesced two or more same-shape jobs.
    batched_regions: AtomicU64,
}

impl ExecutorShared {
    /// Fresh shared state: empty plan cache, zeroed sinks.
    pub fn new() -> Self {
        ExecutorShared::default()
    }

    /// The shared region-plan cache.
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// Records one admitted job (service sink); a job's queue wait
    /// travels on its own result.
    pub fn note_job(&self) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one region that batched `jobs` same-shape jobs (counted
    /// as batched only when two or more coalesced).
    pub fn note_region(&self, jobs: u64) {
        if jobs >= 2 {
            self.batched_regions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Jobs admitted so far.
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Regions that coalesced two or more jobs.
    pub fn batched_regions(&self) -> u64 {
        self.batched_regions.load(Ordering::Relaxed)
    }
}

/// Block-reducer scratch carried between regions, keyed by flavor.
enum RetainedScratch<T> {
    None,
    Private(BlockPrivateScratch<T>),
    Lock(BlockLockScratch<T>),
    Cas(BlockCasScratch<T>),
}

/// Runs reduction regions for a [`Strategy`], retaining block-reducer
/// scratch across regions and reporting telemetry per region.
///
/// [`reduce_strategy`](crate::reduce_strategy) builds a throwaway executor
/// per call; keep one alive across regions to get reuse: after each
/// [`run`](RegionExecutor::run) the block reducers' scratch (per-thread
/// base tables, block options, ownership table) is detached and
/// re-attached to the next region's array, so iterative solvers whose
/// *output array changes between iterations* (PageRank swapping rank
/// vectors, SSSP relaxation rounds, LULESH force sweeps) allocate only on
/// the first iteration.
///
/// Non-block strategies construct fresh per region — their setup is either
/// inherently cheap (atomic, keeper) or not shaped for retention (dense
/// replicas are the memory problem the paper exists to avoid; maps
/// drain on merge).
///
/// If the array length, team width or block size changes between calls,
/// the stale scratch is discarded and that region starts fresh — always
/// correct, just re-allocating. [`clear`](RegionExecutor::clear) drops the
/// scratch explicitly (e.g. before a long idle phase).
pub struct RegionExecutor<T: crate::Element, O: ReduceOp<T>> {
    strategy: Strategy,
    scratch: RetainedScratch<T>,
    /// Plan cache + service sinks, possibly shared with concurrent
    /// sessions; see [`ExecutorShared`] and
    /// [`RegionExecutor::run_planned`].
    shared: Arc<ExecutorShared>,
    /// Adaptive bookkeeping when the policy is
    /// [`ExecutorPolicy::Adaptive`]; `None` for fixed executors.
    adaptive: Option<AdaptiveState>,
    /// Strategy migrations performed (adaptive decisions and explicit
    /// [`migrate_to`](RegionExecutor::migrate_to) calls alike).
    migrations: u64,
    /// Cumulative seconds spent inside the migration protocol.
    migration_secs: f64,
    /// Regions run per strategy label, in first-use order.
    strategy_regions: Vec<(String, u64)>,
    /// Scratch-memory budget applied to every region: block-flavor plans
    /// are reshaped with [`crate::RegionPlan::with_budget`] (costly shared
    /// blocks demoted to in-place updates). Unlimited by default.
    budget: PlanBudget,
    /// Retained delta-region state ([`RegionExecutor::run_delta`]):
    /// baseline array, per-block tag-sorted contribution logs, result
    /// mirror. Lazily created on the first delta region and independent
    /// of the strategy — migrations leave it intact.
    delta: Option<DeltaState<T>>,
    /// Block granularity (log2) the next fresh delta state will use.
    delta_block_bits: u32,
    /// Delta regions run so far (cumulative).
    delta_regions: u64,
    /// Dirty blocks staged across delta regions (cumulative).
    dirty_blocks: u64,
    /// Retractions applied across delta regions (cumulative).
    retractions: u64,
    _op: PhantomData<fn() -> O>,
}

/// The region-reuse API name from earlier revisions; the executor *is*
/// the reusable reducer now that dispatch and retention live in one type.
pub type ReusableReducer<T, O> = RegionExecutor<T, O>;

impl<T: crate::Element, O: ReduceOp<T>> std::fmt::Debug for RegionExecutor<T, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionExecutor")
            .field("strategy", &self.strategy)
            .field("retained", &!matches!(self.scratch, RetainedScratch::None))
            .finish()
    }
}

impl<T: AtomicElement, O: ReduceOp<T>> RegionExecutor<T, O> {
    /// An executor for `strategy`, with no scratch retained yet. The
    /// strategy stays fixed; for online migration use
    /// [`with_policy`](RegionExecutor::with_policy).
    pub fn new(strategy: Strategy) -> Self {
        Self::with_policy(strategy, ExecutorPolicy::Fixed)
    }

    /// An executor that starts on `strategy` and selects strategies per
    /// `policy`: [`ExecutorPolicy::Fixed`] behaves exactly like
    /// [`new`](RegionExecutor::new); [`ExecutorPolicy::Adaptive`] scores
    /// every region's telemetry against the cost model in
    /// [`crate::AdaptiveConfig`] and, after `patience` consecutive
    /// out-of-band regions, migrates via
    /// [`migrate_to`](RegionExecutor::migrate_to).
    pub fn with_policy(strategy: Strategy, policy: ExecutorPolicy) -> Self {
        Self::with_shared(strategy, policy, Arc::new(ExecutorShared::new()))
    }

    /// A session attached to existing shared state: the plan cache (and
    /// service sinks) in `shared` are used instead of a private one, so
    /// concurrent sessions replay each other's recordings. Session state
    /// (scratch, adaptive policy, migration counters) stays private.
    ///
    /// Sessions sharing one cache should either use disjoint region ids
    /// or run the same strategy over the same shape per id — a plan
    /// recorded at a mismatched shape is rejected on install (the session
    /// re-records), which is always correct but forfeits the sharing.
    /// Note that [`clear_plans`](RegionExecutor::clear_plans) and the
    /// migration protocol clear the *shared* cache, starting a new epoch
    /// for every attached session.
    pub fn with_shared(
        strategy: Strategy,
        policy: ExecutorPolicy,
        shared: Arc<ExecutorShared>,
    ) -> Self {
        RegionExecutor {
            strategy,
            scratch: RetainedScratch::None,
            shared,
            adaptive: match policy {
                ExecutorPolicy::Fixed => None,
                ExecutorPolicy::Adaptive(cfg) => Some(AdaptiveState::new(cfg)),
            },
            migrations: 0,
            migration_secs: 0.0,
            strategy_regions: Vec::new(),
            budget: PlanBudget::UNLIMITED,
            delta: None,
            delta_block_bits: DELTA_BLOCK_BITS,
            delta_regions: 0,
            dirty_blocks: 0,
            retractions: 0,
            _op: PhantomData,
        }
    }

    /// Caps the scratch memory subsequent regions may spend on
    /// privatization. Block-flavor plans are reshaped on their next
    /// (re)build — costliest shared blocks demote to budget-free in-place
    /// updates until the plan's copies fit. Retained scratch and
    /// already-cached plans are untouched until they rebuild; pair with
    /// [`clear_plans`](RegionExecutor::clear_plans) to apply a tighter
    /// budget immediately.
    pub fn set_budget(&mut self, budget: PlanBudget) {
        self.budget = budget;
    }

    /// The scratch budget applied to regions (unlimited by default).
    pub fn budget(&self) -> PlanBudget {
        self.budget
    }

    /// The shared state this session is attached to.
    pub fn shared(&self) -> &Arc<ExecutorShared> {
        &self.shared
    }

    /// The strategy this executor dispatches to.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The executor's strategy-selection policy.
    pub fn policy(&self) -> ExecutorPolicy {
        match &self.adaptive {
            Some(st) => ExecutorPolicy::Adaptive(st.cfg.clone()),
            None => ExecutorPolicy::Fixed,
        }
    }

    /// Strategy migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Cumulative seconds spent inside the migration protocol.
    pub fn migration_secs(&self) -> f64 {
        self.migration_secs
    }

    /// Regions run per strategy label, in first-use order.
    pub fn strategy_regions(&self) -> &[(String, u64)] {
        &self.strategy_regions
    }

    /// Switches strategy for subsequent regions. Retained scratch is kept:
    /// the dispatch only re-attaches it when the new strategy is the same
    /// block flavor with a matching shape, and discards it otherwise.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
    }

    /// Drops any retained scratch (e.g. before a long idle phase).
    pub fn clear(&mut self) {
        self.scratch = RetainedScratch::None;
    }

    /// Drops every cached region plan (e.g. when the caller knows the
    /// sparsity pattern changed wholesale and stale plans would only pay
    /// one wasted recording region each to heal).
    ///
    /// The plan statistics ([`planned_regions`](RegionExecutor::planned_regions),
    /// [`plan_build_secs`](RegionExecutor::plan_build_secs)) are reset
    /// with the plans: they describe the cache being discarded, and
    /// carrying them across the clear would blend two planning epochs in
    /// every later [`RunReport`] (a post-migration report would claim
    /// replays and build time the new strategy never performed).
    ///
    /// With [`with_shared`](RegionExecutor::with_shared) sessions this
    /// clears the **shared** [`PlanCache`] and bumps its epoch: sessions
    /// mid-region at the clear finish on the `Arc` they already hold
    /// (exact either way) and their post-region recording/replay credit
    /// is epoch-rejected — see [`PlanCache`] for the full contract.
    pub fn clear_plans(&mut self) {
        self.shared.plans.clear();
    }

    /// Switches to `strategy` using the migration protocol, updating the
    /// migration telemetry. Works under either policy — the adaptive
    /// layer calls it when the cost model (or a planted `verify`
    /// schedule) decides to move, and callers may force a migration
    /// explicitly. A no-op if `strategy` is already current.
    ///
    /// Protocol, in order:
    /// 1. **Drain** — retained block scratch is dropped. Every region
    ///    publishes its contributions through `finish` before the
    ///    executor detaches scratch, so at a region boundary the scratch
    ///    holds no pending updates; dropping it completes the old
    ///    strategy's epoch.
    /// 2. **Invalidate** — cached [`RegionPlan`](crate::RegionPlan)s describe the old
    ///    strategy's execution shape; [`clear_plans`](RegionExecutor::clear_plans)
    ///    drops them (and their stats epoch) so the new strategy
    ///    re-records lazily on its first planned region.
    /// 3. **Switch** — the strategy value is replaced; the next region
    ///    dispatches to the new reduction.
    ///
    /// Under the `verify` feature a [`ompsim::verify::migration_choice`]
    /// crossing sits between drain and invalidation (it never forces,
    /// `n_choices` = 0) so the fault injector can land a panic *inside*
    /// the migration window; the executor stays consistent there —
    /// scratch already dropped, plans and strategy untouched — so a
    /// caught panic leaves it runnable on the old strategy.
    pub fn migrate_to(&mut self, strategy: Strategy) {
        if strategy == self.strategy {
            return;
        }
        let t0 = Instant::now();
        self.scratch = RetainedScratch::None;
        ompsim::verify::migration_choice(self.migrations, 0);
        self.clear_plans();
        self.strategy = strategy;
        self.migration_secs += t0.elapsed().as_secs_f64();
        self.migrations += 1;
    }

    /// Regions (cumulative, cache-wide) that replayed a cached plan
    /// without deviating — shared-cache sessions see each other's replays.
    pub fn planned_regions(&self) -> u64 {
        self.shared.plans.planned_regions()
    }

    /// Cumulative seconds spent building region plans (cache-wide).
    pub fn plan_build_secs(&self) -> f64 {
        self.shared.plans.plan_build_secs()
    }

    /// Runs one region: executes `kernel` over `range` on `pool`, reducing
    /// into `out` with the configured strategy, under the phased (timed)
    /// driver. Block flavors reuse scratch retained by the previous call.
    ///
    /// This method contains the workspace's only `Strategy` → reduction
    /// dispatch; every other entry point delegates here.
    pub fn run<K: Kernel<T>>(
        &mut self,
        pool: &ThreadPool,
        out: &mut [T],
        range: Range<usize>,
        schedule: Schedule,
        kernel: &K,
    ) -> RunReport {
        self.run_inner(pool, out, range, schedule, kernel, None)
    }

    /// Like [`run`](RegionExecutor::run), but caches and replays a
    /// [`RegionPlan`](crate::RegionPlan) for the region identified by `region`.
    ///
    /// The first call with a given id runs in **recording mode**: the
    /// region executes exactly as unplanned would, except the footprint it
    /// discovers anyway (touched blocks, conflicts, forwarding traffic) is
    /// kept and distilled into a plan after the region. Subsequent calls
    /// **replay** the plan: block flavors skip the ownership CAS /
    /// first-touch checks for plan-exclusive blocks (direct writes into
    /// `out`), privatize only plan-listed shared blocks, and merge with
    /// the plan's balanced sparse schedule; Keeper pre-sizes its
    /// forwarding queues. If a region's index stream deviates from the
    /// recorded one, the block flavors privatize the deviating blocks,
    /// fall back to the dirty-list epilogue, and the plan is rebuilt from
    /// the region's actual footprint — always correct, just unamortized.
    ///
    /// Plan construction time is accumulated in
    /// [`plan_build_secs`](RegionExecutor::plan_build_secs) and clean
    /// replays in [`RunReport::planned_regions`] — the inspection cost MKL's
    /// inspector/executor leaves out of its timed loop, reported here so
    /// comparisons stay fair. Strategies without a planned path (dense,
    /// maps, atomic) execute exactly as
    /// [`run`](RegionExecutor::run) would.
    pub fn run_planned<K: Kernel<T>>(
        &mut self,
        region: u64,
        pool: &ThreadPool,
        out: &mut [T],
        range: Range<usize>,
        schedule: Schedule,
        kernel: &K,
    ) -> RunReport {
        self.run_inner(pool, out, range, schedule, kernel, Some(region))
    }

    fn run_inner<K: Kernel<T>>(
        &mut self,
        pool: &ThreadPool,
        out: &mut [T],
        range: Range<usize>,
        schedule: Schedule,
        kernel: &K,
        region: Option<u64>,
    ) -> RunReport {
        let n = pool.num_threads();
        let retained = std::mem::replace(&mut self.scratch, RetainedScratch::None);
        // A cached plan was replayed and deviated this region (one of the
        // adaptive cost model's inputs); set inside the block arms.
        let mut replay_deviated = false;
        // Planned privatization footprint (the quantity the budget
        // constrains), when a plan was replayed or recorded this region;
        // regions without a plan report their measured overhead instead.
        let mut plan_scratch: Option<usize> = None;
        // One-shot arm: construct, execute, drop.
        macro_rules! fresh {
            ($red:expr) => {
                execute(pool, &$red, range, schedule, kernel)
            };
        }
        // Block arm: re-attach retained scratch of the matching flavor
        // (shape mismatches are discarded inside `from_scratch`), install
        // the cached plan if the caller named a region, execute, detach
        // the scratch for the next region. A failed install (shape
        // mismatch) or a deviating replay rebuilds the plan from the
        // region's recorded footprint. One expansion per flavor replaces
        // the three hand-written copies the old `ReusableReducer` carried.
        macro_rules! block {
            ($Red:ident, $Scratch:path, $bs:expr) => {{
                let mut red = match retained {
                    $Scratch(s) => $Red::<T, O>::from_scratch(out, n, $bs, s),
                    _ => $Red::<T, O>::new(out, n, $bs),
                };
                let (cached, epoch) = match region {
                    Some(id) => self.shared.plans.lookup(id),
                    None => (None, 0),
                };
                if let Some(plan) = &cached {
                    plan_scratch = Some(plan.scratch_bytes(std::mem::size_of::<T>()));
                }
                let installed = match cached {
                    Some(plan) => red.install_plan(plan),
                    None => false,
                };
                let report = execute(pool, &red, range, schedule, kernel);
                if let Some(id) = region {
                    if installed && !red.plan_deviated() {
                        self.shared.plans.note_replay(epoch);
                    } else {
                        replay_deviated = installed;
                        let t0 = Instant::now();
                        // Reshape the recorded footprint to the session's
                        // scratch budget before caching: replays then
                        // privatize only the copies the budget affords.
                        let plan = red
                            .extract_plan()
                            .with_budget(std::mem::size_of::<T>(), self.budget);
                        let build_secs = t0.elapsed().as_secs_f64();
                        plan_scratch = Some(plan.scratch_bytes(std::mem::size_of::<T>()));
                        // Epoch-checked: a concurrent clear_plans since
                        // the lookup drops this recording instead of
                        // resurrecting a pre-clear footprint.
                        self.shared
                            .plans
                            .record(id, Arc::new(plan), build_secs, epoch);
                    }
                }
                self.scratch = $Scratch(red.into_scratch());
                report
            }};
        }
        let mut report = match self.strategy {
            Strategy::Dense => fresh!(DenseReduction::<T, O>::new(out, n)),
            Strategy::MapBTree => fresh!(BTreeMapReduction::<T, O>::new(out, n)),
            Strategy::MapHash => fresh!(HashMapReduction::<T, O>::new(out, n)),
            Strategy::Atomic => fresh!(AtomicReduction::<T, O>::new(out, n)),
            Strategy::BlockPrivate { block_size } => {
                block!(BlockPrivateReduction, RetainedScratch::Private, block_size)
            }
            Strategy::BlockLock { block_size } => {
                block!(BlockLockReduction, RetainedScratch::Lock, block_size)
            }
            Strategy::BlockCas { block_size } => {
                block!(BlockCasReduction, RetainedScratch::Cas, block_size)
            }
            Strategy::Keeper => {
                let mut red = KeeperReduction::<T, O>::new(out, n);
                let (cached, epoch) = match region {
                    Some(id) => self.shared.plans.lookup(id),
                    None => (None, 0),
                };
                let installed = match cached {
                    Some(plan) => red.install_plan(&plan),
                    None => false,
                };
                let report = execute(pool, &red, range, schedule, kernel);
                if let Some(id) = region {
                    // A keeper plan is advisory (queue pre-sizing), so a
                    // replayed region is planned even when traffic shifts.
                    if installed {
                        self.shared.plans.note_replay(epoch);
                    } else {
                        let t0 = Instant::now();
                        let plan = red.extract_plan();
                        let build_secs = t0.elapsed().as_secs_f64();
                        self.shared
                            .plans
                            .record(id, Arc::new(plan), build_secs, epoch);
                    }
                }
                report
            }
        };
        self.tally_region(&report.strategy);
        report.scratch_bytes = plan_scratch.unwrap_or(report.memory_overhead);
        report.budget_bytes = if self.budget.is_unlimited() {
            0
        } else {
            self.budget.max_scratch_bytes
        };
        self.adaptive_step(&report, out.len(), replay_deviated);
        report.planned_regions = self.shared.plans.planned_regions();
        report
    }

    /// Counts one region under `label` in
    /// [`strategy_regions`](RegionExecutor::strategy_regions), cloning
    /// the label only the first time it appears.
    fn tally_region(&mut self, label: &str) {
        match self.strategy_regions.iter_mut().find(|(l, _)| l == label) {
            Some((_, count)) => *count += 1,
            None => self.strategy_regions.push((label.to_owned(), 1)),
        }
    }

    /// Runs one **delta region**: applies `batch`'s changed contributions
    /// and retractions against the previous result in `out`, touching
    /// only the dirty blocks. See [`crate::DeltaBatch`] and the
    /// `crate::delta` module docs for the canonical (tag-ordered)
    /// semantics, the exact-inverse fast path, and the
    /// [`crate::DELTA_DIRTY_FALLBACK`] full-refold threshold.
    ///
    /// The first call captures `out`'s current content as the fold
    /// baseline and allocates the retained delta state (per-block
    /// contribution logs + result mirror); subsequent calls require
    /// `out` to be the unmodified result of the previous delta region.
    /// Interleaved *full* regions into the same array invalidate the
    /// mirror — call [`reset_delta`](RegionExecutor::reset_delta)
    /// afterwards to re-baseline.
    ///
    /// Transactional: validation failures (out-of-bounds index,
    /// retraction of an unknown tag, duplicate live tag) and planted
    /// `verify` faults at the [`ompsim::verify::HookPoint::DeltaApply`]
    /// crossing panic *during staging*, before anything commits — the
    /// previous result and delta state stay intact (poison, not
    /// corrupt). Strategy migrations leave the delta state intact: it
    /// is strategy-independent.
    pub fn run_delta(
        &mut self,
        pool: &ThreadPool,
        out: &mut [T],
        batch: &DeltaBatch<T>,
    ) -> RunReport {
        let t0 = Instant::now();
        let bits = self.delta_block_bits;
        let state = self.delta.get_or_insert_with(|| DeltaState::new(out, bits));
        let stats = run_delta_engine::<T, O>(state, pool, out, batch);
        self.delta_regions += 1;
        self.dirty_blocks += stats.dirty_blocks;
        self.retractions += stats.retractions;
        self.tally_region("delta");
        let scratch = self.delta.as_ref().map_or(0, |d| d.scratch_bytes());
        let region_secs = t0.elapsed().as_secs_f64();
        // Delta telemetry rides the standard counters: `applies` counts
        // the batch's edits, `block_first_touches` the staged blocks
        // (every staged block is resolved fresh from the retained log),
        // and `merged_bytes` the committed element bytes (so
        // `merge_bandwidth` reports commit throughput).
        let mut counters = Telemetry::empty(pool.num_threads());
        counters.per_thread[0].applies = batch.len() as u64;
        counters.per_thread[0].block_first_touches = stats.staged_blocks;
        counters.per_thread[0].merged_bytes =
            stats.changed_elements * std::mem::size_of::<T>() as u64;
        let phases = PhaseTimes {
            loop_secs: stats.stage_secs,
            barrier_secs: 0.0,
            epilogue_secs: stats.commit_secs,
            finish_secs: 0.0,
            region_secs,
        };
        let merge_bandwidth = RunReport::derive_merge_bandwidth(&counters, &phases);
        RunReport {
            strategy: if stats.full_refold {
                "delta-full-refold".into()
            } else {
                "delta".into()
            },
            memory_overhead: scratch,
            scratch_bytes: scratch,
            budget_bytes: if self.budget.is_unlimited() {
                0
            } else {
                self.budget.max_scratch_bytes
            },
            planned_regions: self.shared.plans.planned_regions(),
            counters,
            phases,
            merge_bandwidth,
        }
    }

    /// Delta regions run so far (cumulative).
    pub fn delta_regions(&self) -> u64 {
        self.delta_regions
    }

    /// Dirty blocks staged across delta regions (cumulative).
    pub fn dirty_blocks(&self) -> u64 {
        self.dirty_blocks
    }

    /// Retractions applied across delta regions (cumulative).
    pub fn retractions(&self) -> u64 {
        self.retractions
    }

    /// Drops the retained delta state. The next
    /// [`run_delta`](RegionExecutor::run_delta) re-baselines from the
    /// output array it is handed (prior tags are forgotten — retracting
    /// them afterwards panics). Counters are kept: they describe work
    /// already done.
    pub fn reset_delta(&mut self) {
        self.delta = None;
    }

    /// Sets the delta block granularity (log2 elements per dirty-tracking
    /// block) used when the delta state is (re)created; existing state is
    /// unaffected. Defaults to [`crate::DELTA_BLOCK_BITS`].
    pub fn set_delta_block_bits(&mut self, bits: u32) {
        self.delta_block_bits = bits;
    }

    /// The adaptive policy's post-region decision: score this region's
    /// signals, and migrate once the score has been out of the `[0, 1]`
    /// hysteresis band for `patience` consecutive regions. Under the
    /// `verify` feature the schedule controller can instead *force* a
    /// migration to a planted candidate at any region boundary, making
    /// the whole migration sequence a pure function of the seed. A no-op
    /// for fixed-policy executors.
    fn adaptive_step(&mut self, report: &RunReport, len: usize, deviated: bool) {
        let Some(st) = self.adaptive.as_mut() else {
            return;
        };
        let seq = st.region_seq;
        st.region_seq += 1;
        let ncand = st.cfg.candidates.len() as u64;
        let target = if let Some(k) = ompsim::verify::migration_choice(seq, ncand) {
            st.streak = 0;
            st.cfg.candidates.get(k as usize).copied()
        } else {
            let totals = report.counters.totals();
            let signals = RegionSignals {
                applies_per_element: if len == 0 {
                    0.0
                } else {
                    totals.applies as f64 / len as f64
                },
                contention_ratio: totals.contention_ratio(),
                barrier_fraction: report.phases.barrier_fraction(),
                deviated,
                scratch_pressure: if report.budget_bytes == 0 {
                    0.0
                } else {
                    report.scratch_bytes as f64 / report.budget_bytes as f64
                },
            };
            if score(self.strategy, &signals, &st.cfg) > 1.0 {
                st.streak += 1;
                if st.streak >= st.cfg.patience.max(1) {
                    st.streak = 0;
                    Some(recommend(self.strategy, &signals, &st.cfg))
                } else {
                    None
                }
            } else {
                st.streak = 0;
                None
            }
        };
        if let Some(target) = target {
            self.migrate_to(target);
        }
    }
}

/// Runs one constructed reduction under the phased driver and assembles
/// its [`RunReport`] (strategy label, memory overhead, counters, phases).
fn execute<T, R, K>(
    pool: &ThreadPool,
    red: &R,
    range: Range<usize>,
    schedule: Schedule,
    kernel: &K,
) -> RunReport
where
    T: crate::Element,
    R: Reduction<T>,
    K: Kernel<T>,
{
    let board = PhaseBoard::new(pool.num_threads());
    // Each schedule chunk goes to the strategy view whole, so a view can
    // run the chunk's loop on a copy of its hot fields held in registers.
    reduce_chunked_phased(
        pool,
        red,
        range,
        schedule,
        |view, chunk| view.run_chunk(kernel, chunk),
        Some(&board),
    );
    let counters = red.telemetry();
    let phases = board.summarize();
    let merge_bandwidth = RunReport::derive_merge_bandwidth(&counters, &phases);
    RunReport {
        strategy: red.name(),
        memory_overhead: red.memory_overhead(),
        // Patched by `run_inner` after plan bookkeeping settles.
        scratch_bytes: 0,
        budget_bytes: 0,
        planned_regions: 0,
        counters,
        phases,
        merge_bandwidth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducer::ReducerView;
    use crate::{reduce_seq, reduce_strategy, Sum};

    struct Histogram<'a> {
        data: &'a [usize],
    }
    impl Kernel<i64> for Histogram<'_> {
        fn item<V: ReducerView<i64>>(&self, view: &mut V, i: usize) {
            view.apply(self.data[i], 1);
        }
    }

    fn expected(data: &[usize], n_bins: usize) -> Vec<i64> {
        let mut out = vec![0i64; n_bins];
        reduce_seq::<i64, Sum, _>(&mut out, 0..data.len(), |v, i| v.apply(data[i], 1));
        out
    }

    #[test]
    fn clear_then_run_discards_stale_scratch() {
        // Warm an executor's scratch at one shape, then perturb every
        // component of the shape key (array length, team width, block
        // size), clear() and run again: each region must match a fresh
        // run, never reading stale retained blocks.
        for strategy in [
            Strategy::BlockPrivate { block_size: 16 },
            Strategy::BlockLock { block_size: 16 },
            Strategy::BlockCas { block_size: 16 },
        ] {
            let data: Vec<usize> = (0..4_000).map(|i| (i * 131) % 200).collect();
            let pool4 = ompsim::ThreadPool::new(4);
            let mut ex = RegionExecutor::<i64, Sum>::new(strategy);
            let mut out = vec![0i64; 200];
            ex.run(
                &pool4,
                &mut out,
                0..data.len(),
                Schedule::default(),
                &Histogram { data: &data },
            );
            assert_eq!(out, expected(&data, 200), "warm-up {strategy:?}");
            assert!(format!("{ex:?}").contains("retained: true"));

            // (a) length change.
            let small: Vec<usize> = data.iter().map(|&d| d % 73).collect();
            let mut out = vec![0i64; 73];
            ex.clear();
            ex.run(
                &pool4,
                &mut out,
                0..small.len(),
                Schedule::default(),
                &Histogram { data: &small },
            );
            assert_eq!(out, expected(&small, 73), "len change {strategy:?}");

            // (b) team-width change.
            let pool2 = ompsim::ThreadPool::new(2);
            let mut out = vec![0i64; 73];
            ex.clear();
            ex.run(
                &pool2,
                &mut out,
                0..small.len(),
                Schedule::default(),
                &Histogram { data: &small },
            );
            assert_eq!(out, expected(&small, 73), "width change {strategy:?}");

            // (c) block-size change (same flavor, new hyperparameter).
            let bigger = match strategy {
                Strategy::BlockPrivate { .. } => Strategy::BlockPrivate { block_size: 64 },
                Strategy::BlockLock { .. } => Strategy::BlockLock { block_size: 64 },
                _ => Strategy::BlockCas { block_size: 64 },
            };
            ex.set_strategy(bigger);
            let mut out = vec![0i64; 73];
            ex.clear();
            ex.run(
                &pool2,
                &mut out,
                0..small.len(),
                Schedule::default(),
                &Histogram { data: &small },
            );
            assert_eq!(out, expected(&small, 73), "block-size change {strategy:?}");
        }
    }

    #[test]
    fn planned_replay_skips_ownership_discovery() {
        // After the recording region, a clean replay pre-resolves every
        // block from the plan: the hot path must never hit the cold
        // `resolve` (no first-touches, no conflicts) and the region must
        // count as planned.
        let pool = ompsim::ThreadPool::new(4);
        let data: Vec<usize> = (0..8_000).map(|i| (i * 131) % 500).collect();
        let kernel = Histogram { data: &data };
        for strategy in [
            Strategy::BlockPrivate { block_size: 16 },
            Strategy::BlockLock { block_size: 16 },
            Strategy::BlockCas { block_size: 16 },
        ] {
            let mut ex = RegionExecutor::<i64, Sum>::new(strategy);
            let mut out = vec![0i64; 500];
            let recording = ex.run_planned(
                3,
                &pool,
                &mut out,
                0..data.len(),
                Schedule::default(),
                &kernel,
            );
            assert_eq!(recording.planned_regions, 0);
            assert!(recording.counters.totals().block_first_touches > 0);
            assert!(ex.plan_build_secs() > 0.0);

            let mut out = vec![0i64; 500];
            let replay = ex.run_planned(
                3,
                &pool,
                &mut out,
                0..data.len(),
                Schedule::default(),
                &kernel,
            );
            assert_eq!(out, expected(&data, 500), "{strategy:?}");
            assert_eq!(replay.planned_regions, 1, "{strategy:?}");
            assert_eq!(
                replay.counters.totals().block_first_touches,
                0,
                "{strategy:?}: replay should never take the cold resolve path"
            );
            assert_eq!(replay.counters.totals().ownership_conflicts, 0);
        }
    }

    #[test]
    fn distinct_region_ids_cache_distinct_plans() {
        // Two alternating workloads under different ids replay cleanly
        // from the second round on; under a single shared id each switch
        // would deviate and re-record.
        let pool = ompsim::ThreadPool::new(2);
        let a: Vec<usize> = (0..2_000).map(|i| (i * 7) % 100).collect();
        let b: Vec<usize> = (0..2_000).map(|i| (i * 13 + 50) % 100).collect();
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::BlockCas { block_size: 8 });
        for round in 0..3u64 {
            for (id, data) in [(0u64, &a), (1u64, &b)] {
                let mut out = vec![0i64; 100];
                let report = ex.run_planned(
                    id,
                    &pool,
                    &mut out,
                    0..data.len(),
                    Schedule::default(),
                    &Histogram { data },
                );
                assert_eq!(out, expected(data, 100));
                // Regions run in sequence; the first round records both
                // plans, every later region is a clean replay.
                let seq = round * 2 + id;
                assert_eq!(report.planned_regions, seq.saturating_sub(1));
            }
        }
        assert_eq!(ex.planned_regions(), 4);
    }

    #[test]
    fn shape_change_without_clear_is_still_correct() {
        // Even without clear(), from_scratch discards mismatched scratch.
        let pool = ompsim::ThreadPool::new(3);
        let data: Vec<usize> = (0..3_000).map(|i| (i * 7) % 150).collect();
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::BlockCas { block_size: 32 });
        let mut out = vec![0i64; 150];
        ex.run(
            &pool,
            &mut out,
            0..data.len(),
            Schedule::default(),
            &Histogram { data: &data },
        );

        let small: Vec<usize> = data.iter().map(|&d| d % 31).collect();
        let mut out = vec![0i64; 31];
        ex.run(
            &pool,
            &mut out,
            0..small.len(),
            Schedule::default(),
            &Histogram { data: &small },
        );
        assert_eq!(out, expected(&small, 31));
    }

    /// Scatter whose density (applies per output element) is dialed by
    /// the caller: `updates` kernel iterations hash-spread over `bins`.
    struct DialedScatter {
        bins: usize,
    }
    impl Kernel<i64> for DialedScatter {
        fn item<V: ReducerView<i64>>(&self, view: &mut V, i: usize) {
            view.apply((i.wrapping_mul(7919)) % self.bins, 1);
        }
    }

    #[test]
    fn adaptive_migrates_on_sparsity_shift() {
        // Dense phase (16 applies/element) keeps BlockPrivate in band;
        // after the workload turns sparse (1/16 applies/element) the
        // score leaves the band and, after `patience` regions, the
        // executor must migrate to Atomic — while every region's result
        // stays exact.
        let pool = ompsim::ThreadPool::new(4);
        let bins = 4096;
        let cfg = crate::AdaptiveConfig {
            candidates: crate::default_candidates(64),
            patience: 3,
            ..crate::AdaptiveConfig::default()
        };
        let mut ex = RegionExecutor::<i64, Sum>::with_policy(
            Strategy::BlockPrivate { block_size: 64 },
            crate::ExecutorPolicy::Adaptive(cfg),
        );
        let kernel = DialedScatter { bins };
        let mut last = None;
        for phase in 0..2 {
            let updates = if phase == 0 { bins * 16 } else { bins / 16 };
            for _ in 0..6 {
                let mut out = vec![0i64; bins];
                let report = ex.run_planned(
                    phase,
                    &pool,
                    &mut out,
                    0..updates,
                    Schedule::default(),
                    &kernel,
                );
                let mut expected = vec![0i64; bins];
                for i in 0..updates {
                    expected[(i.wrapping_mul(7919)) % bins] += 1;
                }
                assert_eq!(out, expected, "phase {phase}");
                last = Some(report);
            }
            if phase == 0 {
                assert_eq!(ex.migrations(), 0, "dense phase must stay put");
                assert!(matches!(ex.strategy(), Strategy::BlockPrivate { .. }));
            }
        }
        assert_eq!(ex.strategy(), Strategy::Atomic);
        assert_eq!(ex.migrations(), 1);
        assert!(ex.migration_secs() > 0.0);
        // The last report names the new strategy; the executor's region
        // tally keeps both epochs.
        assert_eq!(last.unwrap().strategy, "atomic");
        let labels: Vec<&str> = ex
            .strategy_regions()
            .iter()
            .map(|(l, _)| l.as_str())
            .collect();
        assert_eq!(labels, ["block-private-64", "atomic"]);
        let regions: u64 = ex.strategy_regions().iter().map(|(_, n)| n).sum();
        assert_eq!(regions, 12);
    }

    #[test]
    fn fixed_policy_never_migrates() {
        let pool = ompsim::ThreadPool::new(2);
        let bins = 2048;
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::BlockPrivate { block_size: 64 });
        let kernel = DialedScatter { bins };
        for _ in 0..8 {
            // Persistently sparse: adaptive would migrate, fixed must not.
            let mut out = vec![0i64; bins];
            ex.run(&pool, &mut out, 0..bins / 16, Schedule::default(), &kernel);
        }
        assert_eq!(ex.migrations(), 0);
        assert_eq!(ex.strategy(), Strategy::BlockPrivate { block_size: 64 });
        assert!(matches!(ex.policy(), crate::ExecutorPolicy::Fixed));
    }

    #[test]
    fn explicit_migration_preserves_results_and_resets_plan_epoch() {
        // migrate_to works on fixed executors too: results stay exact
        // across the switch, and the plan cache + its stats restart as a
        // fresh epoch (recording once, then replaying).
        let pool = ompsim::ThreadPool::new(3);
        let data: Vec<usize> = (0..4_000).map(|i| (i * 131) % 200).collect();
        let kernel = Histogram { data: &data };
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::BlockPrivate { block_size: 16 });
        for _ in 0..3 {
            let mut out = vec![0i64; 200];
            ex.run_planned(
                0,
                &pool,
                &mut out,
                0..data.len(),
                Schedule::default(),
                &kernel,
            );
            assert_eq!(out, expected(&data, 200));
        }
        assert_eq!(ex.planned_regions(), 2);
        assert!(ex.plan_build_secs() > 0.0);

        ex.migrate_to(Strategy::BlockCas { block_size: 64 });
        assert_eq!(ex.migrations(), 1);
        assert_eq!(ex.planned_regions(), 0, "plan stats must restart");
        assert_eq!(ex.plan_build_secs(), 0.0);

        for round in 0..2 {
            let mut out = vec![0i64; 200];
            let report = ex.run_planned(
                0,
                &pool,
                &mut out,
                0..data.len(),
                Schedule::default(),
                &kernel,
            );
            assert_eq!(out, expected(&data, 200), "round {round}");
            assert_eq!(report.planned_regions, round as u64);
        }
        // Migrating to the current strategy is a no-op.
        ex.migrate_to(Strategy::BlockCas { block_size: 64 });
        assert_eq!(ex.migrations(), 1);
    }

    #[test]
    fn concurrent_sessions_share_plans_and_survive_clears() {
        // Four OS threads, each with its own session, all attached to one
        // ExecutorShared and one pool. They hammer the same two region
        // ids (same strategy, same shape) while one thread periodically
        // clears the shared cache — every region must stay exact, and the
        // shared cache must have served replays across sessions.
        //
        // Lock-order coverage: each region takes, in order, the plan-cache
        // mutex (lookup, released), the pool's region lock (parallel),
        // the arena slab-pool mutex (scratch acquire/release, inside the
        // region), then the plan-cache mutex again (record/note_replay,
        // released) — never nested, so no interleaving can deadlock.
        use std::sync::atomic::{AtomicU64, Ordering};
        let pool = std::sync::Arc::new(ompsim::ThreadPool::new(2));
        let shared = std::sync::Arc::new(ExecutorShared::new());
        let data: std::sync::Arc<Vec<usize>> =
            std::sync::Arc::new((0..2_000).map(|i| (i * 131) % 100).collect());
        let want = expected(&data, 100);
        let errors = std::sync::Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|s| {
                let pool = std::sync::Arc::clone(&pool);
                let shared = std::sync::Arc::clone(&shared);
                let data = std::sync::Arc::clone(&data);
                let want = want.clone();
                let errors = std::sync::Arc::clone(&errors);
                std::thread::spawn(move || {
                    let mut ex = RegionExecutor::<i64, Sum>::with_shared(
                        Strategy::BlockCas { block_size: 16 },
                        ExecutorPolicy::Fixed,
                        shared,
                    );
                    for round in 0..20u64 {
                        if s == 0 && round % 7 == 3 {
                            ex.clear_plans();
                        }
                        let mut out = vec![0i64; 100];
                        ex.run_planned(
                            round % 2,
                            &pool,
                            &mut out,
                            0..data.len(),
                            Schedule::default(),
                            &Histogram { data: &data },
                        );
                        if out != want {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(errors.load(Ordering::Relaxed), 0);
        assert!(shared.plans().len() <= 2);
        // The service sinks are untouched by plain sessions.
        assert_eq!(shared.jobs(), 0);
        assert_eq!(shared.batched_regions(), 0);

        // Cross-session sharing, deterministically: a brand-new session
        // attached to the same shared state replays a plan it never
        // recorded (the cache retains whatever epoch survived the races;
        // one warm-up run re-records if a clear landed last).
        let mut fresh = RegionExecutor::<i64, Sum>::with_shared(
            Strategy::BlockCas { block_size: 16 },
            ExecutorPolicy::Fixed,
            std::sync::Arc::clone(&shared),
        );
        let mut out = vec![0i64; 100];
        fresh.run_planned(
            0,
            &pool,
            &mut out,
            0..data.len(),
            Schedule::default(),
            &Histogram { data: &data },
        );
        let before = shared.plans().planned_regions();
        let mut out = vec![0i64; 100];
        fresh.run_planned(
            0,
            &pool,
            &mut out,
            0..data.len(),
            Schedule::default(),
            &Histogram { data: &data },
        );
        assert_eq!(out, want);
        assert_eq!(shared.plans().planned_regions(), before + 1);
    }

    #[test]
    fn executor_reports_match_reduce_strategy_reports() {
        let pool = ompsim::ThreadPool::new(2);
        let data: Vec<usize> = (0..1_000).map(|i| i % 50).collect();
        let kernel = Histogram { data: &data };
        for strategy in Strategy::all(16) {
            let mut out = vec![0i64; 50];
            let via_fn = reduce_strategy::<i64, Sum, _>(
                strategy,
                &pool,
                &mut out,
                0..data.len(),
                Schedule::default(),
                &kernel,
            );
            let mut out2 = vec![0i64; 50];
            let mut ex = RegionExecutor::<i64, Sum>::new(strategy);
            let via_ex = ex.run(
                &pool,
                &mut out2,
                0..data.len(),
                Schedule::default(),
                &kernel,
            );
            assert_eq!(out, out2);
            assert_eq!(via_fn.strategy, via_ex.strategy);
            assert_eq!(
                via_fn.counters.totals().applies,
                via_ex.counters.totals().applies,
                "{}",
                strategy.label()
            );
        }
    }

    #[test]
    fn run_delta_maintains_result_and_counters() {
        let pool = ompsim::ThreadPool::new(4);
        let n = 2048;
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::BlockPrivate { block_size: 64 });
        let mut out = vec![0i64; n];
        // Baseline batch, then churn with retractions; the executor's
        // delta counters accumulate across regions.
        let mut batch = crate::DeltaBatch::new();
        // Clustered in the first 128 elements: 2 of 32 delta blocks
        // dirty, well under the full-refold threshold.
        for k in 0..200u64 {
            batch.push((k as usize * 37) % 128, k, k as i64 + 1);
        }
        let r1 = ex.run_delta(&pool, &mut out, &batch);
        assert_eq!(r1.strategy, "delta");
        assert_eq!(ex.delta_regions(), 1);
        assert!(ex.dirty_blocks() > 0);
        assert_eq!(ex.retractions(), 0);

        let mut b2 = crate::DeltaBatch::new();
        b2.retract((5 * 37) % 128, 5);
        b2.retract((9 * 37) % 128, 9);
        b2.push(3, 1000, -7);
        ex.run_delta(&pool, &mut out, &b2);
        assert_eq!(ex.delta_regions(), 2);
        assert_eq!(ex.retractions(), 2);

        // Reference: replay all surviving contributions sequentially.
        let mut want = vec![0i64; n];
        for k in 0..200u64 {
            if k == 5 || k == 9 {
                continue;
            }
            want[(k as usize * 37) % 128] += k as i64 + 1;
        }
        want[3] += -7;
        assert_eq!(out, want);
        assert!(ex
            .strategy_regions()
            .iter()
            .any(|(l, c)| l == "delta" && *c == 2));

        // A later full region leaves the delta counters intact.
        let data: Vec<usize> = (0..500).map(|i| i % 50).collect();
        let mut full = vec![0i64; 50];
        ex.run(
            &pool,
            &mut full,
            0..data.len(),
            Schedule::default(),
            &Histogram { data: &data },
        );
        assert_eq!(ex.delta_regions(), 2);
        assert_eq!(ex.retractions(), 2);
    }

    #[test]
    fn run_delta_survives_migration() {
        // The delta state is strategy-independent: an explicit migration
        // between batches must not lose logs or tags.
        let pool = ompsim::ThreadPool::new(2);
        let n = 512;
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::BlockCas { block_size: 32 });
        let mut out = vec![0i64; n];
        let mut batch = crate::DeltaBatch::new();
        batch.push(10, 1, 100);
        batch.push(300, 2, 7);
        ex.run_delta(&pool, &mut out, &batch);
        ex.migrate_to(Strategy::Atomic);
        let mut b2 = crate::DeltaBatch::new();
        b2.retract(10, 1);
        ex.run_delta(&pool, &mut out, &b2);
        assert_eq!(out[10], 0);
        assert_eq!(out[300], 7);
        assert_eq!(ex.migrations(), 1);
    }

    #[test]
    fn reset_delta_rebaselines_from_out() {
        let pool = ompsim::ThreadPool::new(2);
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::Atomic);
        let mut out = vec![1i64; 128];
        let mut b = crate::DeltaBatch::new();
        b.push(0, 1, 10);
        ex.run_delta(&pool, &mut out, &b);
        assert_eq!(out[0], 11);
        ex.reset_delta();
        // After reset the old tag is forgotten; the same tag is fresh
        // and folds over the *current* content as the new baseline.
        let mut b = crate::DeltaBatch::new();
        b.push(0, 1, 10);
        ex.run_delta(&pool, &mut out, &b);
        assert_eq!(out[0], 21);
    }
}
