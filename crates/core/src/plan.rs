//! Region plans — the inspector/executor layer that amortizes ownership
//! discovery across repeated regions.
//!
//! The paper's strongest TMV baseline is MKL's inspector/executor, which
//! wins Fig. 14 by paying a one-time index inspection (`mkl_sparse_optimize`)
//! that the timed loop never repays. Spray's reducers, by contrast,
//! re-discover block ownership, first-touch sets and conflicts from scratch
//! on every region — even though the workloads this workspace runs
//! (PageRank / CC / SSSP iterations, LULESH timesteps, repeated TMV)
//! replay the same sparsity pattern thousands of times.
//!
//! A [`RegionPlan`] captures what one region's index stream taught us:
//!
//! * per thread, the set of touched blocks, each classified **exclusive**
//!   (only this thread touched it) or **shared** (two or more threads did);
//! * a merge schedule that assigns each shared block to exactly one merging
//!   thread, balanced by the number of contributing copies instead of the
//!   stride-by-`nthreads` dense probe over all `nblocks × nthreads` slots;
//! * for the keeper strategy, the `(owner, writer)` forwarded-update counts,
//!   used to pre-size the remote queues.
//!
//! Plans are built in *recording mode*: the first region for a given id runs
//! unplanned, its per-thread touched/dirty lists (which the block reducers
//! now keep anyway, for the sparse epilogue) are read back, and the plan is
//! cached by [`crate::RegionExecutor`] under a caller-supplied region id.
//! Replayed regions skip the ownership CAS/lock claims entirely: exclusive
//! blocks write directly into the output array, shared blocks are
//! privatized up front, and the epilogue visits only the `(thread, block)`
//! pairs the plan marks dirty. A region whose index stream deviates from
//! the recorded one falls back to the dirty-list epilogue (still exact) and
//! triggers a rebuild — see [`crate::BlockReduction::install_plan`].
//!
//! Unlike MKL's untimed inspection, the cost of building a plan is measured
//! and reported (`RegionExecutor::plan_build_secs`), so the comparison the
//! `plan_amortize` bench makes is fair: it shows both the steady-state win
//! and the number of regions needed to repay the recording overhead.

/// An explicit scratch-memory budget for the plan layer: the planner
/// keeps the summed bytes of up-front privatized copies at or under
/// `max_scratch_bytes` by demoting the costliest shared blocks to
/// per-element atomic updates (zero scratch, paid in contention). The
/// resulting time-memory curve is observable through
/// [`crate::RunReport`]'s `scratch_bytes`/`budget_bytes` fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanBudget {
    /// Upper bound on privatized scratch bytes (`usize::MAX` = unlimited).
    pub max_scratch_bytes: usize,
}

impl PlanBudget {
    /// No budget: the planner privatizes every shared block.
    pub const UNLIMITED: PlanBudget = PlanBudget {
        max_scratch_bytes: usize::MAX,
    };

    /// A budget of `max_scratch_bytes` bytes.
    pub fn new(max_scratch_bytes: usize) -> PlanBudget {
        PlanBudget { max_scratch_bytes }
    }

    /// Whether this budget never constrains anything.
    pub fn is_unlimited(&self) -> bool {
        self.max_scratch_bytes == usize::MAX
    }
}

impl Default for PlanBudget {
    fn default() -> Self {
        PlanBudget::UNLIMITED
    }
}

/// One thread's planned block footprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadBlocks {
    /// Blocks only this thread touched — written directly into the output
    /// array during replay, no ownership claim and no merge needed.
    pub exclusive: Vec<u32>,
    /// Blocks touched by two or more threads — privatized up front during
    /// replay and merged by the plan's schedule.
    pub shared: Vec<u32>,
    /// Shared blocks demoted to per-element atomic updates by a
    /// [`PlanBudget`]: no private copy, no merge, zero scratch.
    pub atomic: Vec<u32>,
}

/// Strategy-specific payload of a [`RegionPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum PlanKind {
    /// Block reducers: per-thread footprints plus the balanced merge
    /// schedule (`merge[tid]` lists the shared blocks thread `tid` merges).
    Block {
        block_size: usize,
        per_thread: Vec<ThreadBlocks>,
        merge: Vec<Vec<u32>>,
    },
    /// Keeper: forwarded-update counts, `counts[owner * nthreads + writer]`.
    Keeper { counts: Vec<u32> },
}

/// A cached inspection of one region's index stream; see the module docs.
///
/// Plans are array-*agnostic*: they record block indices, not addresses, so
/// a plan survives iterative solvers that swap their output buffer every
/// iteration (PageRank's rank-vector swap). They are shape-*specific*:
/// installing a plan checks array length, team width and block size, and a
/// mismatch rejects the plan (the executor then rebuilds it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPlan {
    len: usize,
    nthreads: usize,
    kind: PlanKind,
}

impl RegionPlan {
    /// Builds a block-reducer plan from per-thread touched-block lists
    /// (one list per team thread, entries unique within a list), with an
    /// LPT-balanced merge schedule over the shared blocks.
    pub(crate) fn for_blocks(
        len: usize,
        nthreads: usize,
        block_size: usize,
        touched: &[Vec<u32>],
    ) -> RegionPlan {
        assert_eq!(touched.len(), nthreads);
        let nblocks = len.div_ceil(block_size.max(1));
        // Occupancy: how many threads touched each block (saturating — only
        // the 1 vs ≥2 distinction matters).
        let mut occ = vec![0u8; nblocks];
        for list in touched {
            for &b in list {
                let o = &mut occ[b as usize];
                *o = o.saturating_add(1);
            }
        }
        let per_thread: Vec<ThreadBlocks> = touched
            .iter()
            .map(|list| {
                let mut tb = ThreadBlocks::default();
                for &b in list {
                    if occ[b as usize] == 1 {
                        tb.exclusive.push(b);
                    } else {
                        tb.shared.push(b);
                    }
                }
                // Sorted lists give the replay's pre-seeding pass a
                // forward-only sweep over the base table.
                tb.exclusive.sort_unstable();
                tb.shared.sort_unstable();
                tb
            })
            .collect();
        // Shared blocks, each once, with its copy count as merge cost.
        let shared: Vec<(u32, u64)> = occ
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o >= 2)
            .map(|(b, &o)| (b as u32, o as u64))
            .collect();
        let merge = lpt_schedule(&shared, nthreads);
        RegionPlan {
            len,
            nthreads,
            kind: PlanKind::Block {
                block_size,
                per_thread,
                merge,
            },
        }
    }

    /// Builds a keeper plan from the `(owner, writer)` forwarded-update
    /// count matrix (`counts[owner * nthreads + writer]`).
    pub(crate) fn for_keeper(len: usize, nthreads: usize, counts: Vec<u32>) -> RegionPlan {
        assert_eq!(counts.len(), nthreads * nthreads);
        RegionPlan {
            len,
            nthreads,
            kind: PlanKind::Keeper { counts },
        }
    }

    /// Array length the plan was recorded against.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plan covers no blocks / forwards at all.
    pub fn is_empty(&self) -> bool {
        self.planned_blocks() == 0
            && self
                .keeper_counts()
                .is_none_or(|c| c.iter().all(|&x| x == 0))
    }

    /// Team width the plan was recorded against.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Whether this plan fits a block reduction of the given shape.
    pub(crate) fn matches_block(&self, len: usize, nthreads: usize, block_size: usize) -> bool {
        matches!(self.kind, PlanKind::Block { block_size: bs, .. } if bs == block_size)
            && self.len == len
            && self.nthreads == nthreads
    }

    /// Whether this plan fits a keeper reduction of the given shape.
    pub(crate) fn matches_keeper(&self, len: usize, nthreads: usize) -> bool {
        matches!(self.kind, PlanKind::Keeper { .. }) && self.len == len && self.nthreads == nthreads
    }

    /// Thread `tid`'s planned footprint (block plans only).
    pub(crate) fn thread_blocks(&self, tid: usize) -> Option<&ThreadBlocks> {
        match &self.kind {
            PlanKind::Block { per_thread, .. } => per_thread.get(tid),
            PlanKind::Keeper { .. } => None,
        }
    }

    /// Shared blocks thread `tid` merges during the planned epilogue.
    pub(crate) fn merge_list(&self, tid: usize) -> &[u32] {
        match &self.kind {
            PlanKind::Block { merge, .. } => &merge[tid],
            PlanKind::Keeper { .. } => &[],
        }
    }

    /// Keeper forwarded-update counts (`None` for block plans).
    pub(crate) fn keeper_counts(&self) -> Option<&[u32]> {
        match &self.kind {
            PlanKind::Keeper { counts } => Some(counts),
            PlanKind::Block { .. } => None,
        }
    }

    /// Distinct `(thread, block)` pairs the plan covers (0 for keeper).
    pub fn planned_blocks(&self) -> usize {
        match &self.kind {
            PlanKind::Block { per_thread, .. } => per_thread
                .iter()
                .map(|t| t.exclusive.len() + t.shared.len())
                .sum(),
            PlanKind::Keeper { .. } => 0,
        }
    }

    /// Blocks classified exclusive (direct-write on replay; 0 for keeper).
    pub fn exclusive_blocks(&self) -> usize {
        match &self.kind {
            PlanKind::Block { per_thread, .. } => {
                per_thread.iter().map(|t| t.exclusive.len()).sum()
            }
            PlanKind::Keeper { .. } => 0,
        }
    }

    /// Distinct blocks classified shared (privatize + merge on replay).
    pub fn shared_blocks(&self) -> usize {
        match &self.kind {
            PlanKind::Block { merge, .. } => merge.iter().map(Vec::len).sum(),
            PlanKind::Keeper { .. } => 0,
        }
    }

    /// Whether any thread has budget-demoted blocks (cheap form of
    /// `atomic_blocks() > 0`, used by `install_plan` to decide whether the
    /// demoted-update stripe locks are needed).
    pub(crate) fn has_atomic(&self) -> bool {
        match &self.kind {
            PlanKind::Block { per_thread, .. } => per_thread.iter().any(|t| !t.atomic.is_empty()),
            PlanKind::Keeper { .. } => false,
        }
    }

    /// Distinct blocks demoted to atomic updates by a [`PlanBudget`].
    pub fn atomic_blocks(&self) -> usize {
        match &self.kind {
            PlanKind::Block { per_thread, .. } => {
                let mut seen = std::collections::BTreeSet::new();
                for t in per_thread {
                    seen.extend(t.atomic.iter().copied());
                }
                seen.len()
            }
            PlanKind::Keeper { .. } => 0,
        }
    }

    /// Estimated up-front privatized scratch a replay of this plan
    /// allocates: one `block_size`-element copy per `(thread, shared
    /// block)` pair, at `elem_bytes` per element. Keeper plans report 0
    /// (their queues are sized by forward counts, not block copies).
    pub fn scratch_bytes(&self, elem_bytes: usize) -> usize {
        match &self.kind {
            PlanKind::Block {
                block_size,
                per_thread,
                ..
            } => {
                let copies: usize = per_thread.iter().map(|t| t.shared.len()).sum();
                copies * block_size * elem_bytes
            }
            PlanKind::Keeper { .. } => 0,
        }
    }

    /// Reshapes a block plan to fit `budget`: while the estimated
    /// privatized scratch ([`RegionPlan::scratch_bytes`]) exceeds the
    /// budget, the costliest shared block (most contributing copies, ties
    /// on lower block id) is demoted from privatize-and-merge to
    /// per-element atomic updates, and the merge schedule is rebalanced
    /// over the survivors. Exclusive blocks are untouched (direct writes
    /// cost no scratch), so the curve degrades smoothly from "all
    /// privatized" to "all shared traffic atomic". Keeper plans and
    /// unlimited budgets pass through unchanged.
    pub fn with_budget(&self, elem_bytes: usize, budget: PlanBudget) -> RegionPlan {
        if budget.is_unlimited() {
            return self.clone();
        }
        let PlanKind::Block {
            block_size,
            per_thread,
            ..
        } = &self.kind
        else {
            return self.clone();
        };
        let block_bytes = block_size * elem_bytes;
        // Copy counts per shared block (recomputed from the footprints so
        // a plan already reshaped once can be reshaped again).
        let mut copies = std::collections::BTreeMap::<u32, u64>::new();
        for t in per_thread {
            for &b in t.shared.iter().chain(&t.atomic) {
                *copies.entry(b).or_insert(0) += 1;
            }
        }
        let mut total: usize = copies.values().map(|&c| c as usize * block_bytes).sum();
        // Costliest first; ties demote the lower block id first so the
        // reshape is deterministic.
        let mut order: Vec<(u32, u64)> = copies.iter().map(|(&b, &c)| (b, c)).collect();
        order.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut demoted = std::collections::BTreeSet::new();
        for (b, c) in order {
            if total <= budget.max_scratch_bytes {
                break;
            }
            demoted.insert(b);
            total -= c as usize * block_bytes;
        }
        let per_thread: Vec<ThreadBlocks> = per_thread
            .iter()
            .map(|t| {
                let mut tb = ThreadBlocks {
                    exclusive: t.exclusive.clone(),
                    ..ThreadBlocks::default()
                };
                for &b in t.shared.iter().chain(&t.atomic) {
                    if demoted.contains(&b) {
                        tb.atomic.push(b);
                    } else {
                        tb.shared.push(b);
                    }
                }
                tb.shared.sort_unstable();
                tb.atomic.sort_unstable();
                tb
            })
            .collect();
        let survivors: Vec<(u32, u64)> = copies
            .iter()
            .filter(|(b, _)| !demoted.contains(b))
            .map(|(&b, &c)| (b, c))
            .collect();
        let merge = lpt_schedule(&survivors, self.nthreads);
        RegionPlan {
            len: self.len,
            nthreads: self.nthreads,
            kind: PlanKind::Block {
                block_size: *block_size,
                per_thread,
                merge,
            },
        }
    }
}

/// A thread-safe region-plan cache shared by concurrent executor
/// sessions, keyed by caller-supplied region id.
///
/// Before the reduction service existed, the plan cache was a plain
/// `BTreeMap` field of [`crate::RegionExecutor`] and the executor was the
/// single owner. Splitting it out gives many sessions one cache (same
/// workload shape → one recording, every session replays), and makes
/// `clear`-vs-in-flight-recording races well-defined via an **epoch**:
///
/// * [`PlanCache::lookup`] returns the cached plan *and* the epoch it was
///   read under;
/// * [`PlanCache::record`] / [`PlanCache::note_replay`] take that epoch
///   back and become no-ops if a [`PlanCache::clear`] intervened — a
///   session that spent a region recording against a cache that was
///   invalidated mid-region must not resurrect pre-clear footprints (or
///   their build-time/replay stats) into the new epoch.
///
/// Stale replays are safe without any locking across the region: `lookup`
/// hands out an [`Arc`](std::sync::Arc), so a concurrently cleared plan stays alive for
/// the session already replaying it, and a replay of a plan that no
/// longer matches the traffic self-heals through the deviation path.
///
/// # Lock order
///
/// The internal mutex is a **leaf lock**: it is held only for the short
/// lookup/record/clear critical sections and never while calling into
/// [`ompsim::ThreadPool::parallel`] (which takes the pool's region lock),
/// nor while taking the [`crate::arena`] slab-pool lock (block scratch is
/// acquired/released inside regions, strictly after any plan-cache access
/// completes). Callers must keep it that way: never invoke pool or arena
/// operations from code holding this lock. The
/// `concurrent_sessions_share_plans_and_survive_clears` test in
/// `executor.rs` exercises sessions racing lookups, recordings and clears
/// against each other on one pool.
#[derive(Debug, Default)]
pub struct PlanCache {
    state: std::sync::Mutex<PlanCacheState>,
}

#[derive(Debug, Default)]
struct PlanCacheState {
    plans: std::collections::BTreeMap<u64, std::sync::Arc<RegionPlan>>,
    /// Bumped by every [`PlanCache::clear`]; recordings and replay stats
    /// from a previous epoch are dropped on arrival.
    epoch: u64,
    planned_regions: u64,
    plan_build_secs: f64,
}

impl PlanCache {
    /// An empty cache at epoch 0.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The cached plan for `id` (if any) and the epoch it was read under;
    /// pass the epoch back to [`PlanCache::record`]/[`PlanCache::note_replay`].
    pub fn lookup(&self, id: u64) -> (Option<std::sync::Arc<RegionPlan>>, u64) {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (st.plans.get(&id).cloned(), st.epoch)
    }

    /// Caches `plan` under `id`, charging `build_secs` to the inspection
    /// budget — unless the cache was cleared since `epoch` was read, in
    /// which case the recording is dropped and `false` is returned.
    pub fn record(
        &self,
        id: u64,
        plan: std::sync::Arc<RegionPlan>,
        build_secs: f64,
        epoch: u64,
    ) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.epoch != epoch {
            return false;
        }
        st.plans.insert(id, plan);
        st.plan_build_secs += build_secs;
        true
    }

    /// Counts one clean (non-deviating) replay — unless the cache was
    /// cleared since `epoch` was read.
    pub fn note_replay(&self, epoch: u64) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.epoch != epoch {
            return false;
        }
        st.planned_regions += 1;
        true
    }

    /// Drops every cached plan and resets the replay/build-time stats,
    /// starting a new epoch. In-flight sessions holding pre-clear `Arc`s
    /// finish their region on the stale plan (exact either way); their
    /// post-region `record`/`note_replay` calls are epoch-rejected.
    pub fn clear(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.plans.clear();
        st.epoch += 1;
        st.planned_regions = 0;
        st.plan_build_secs = 0.0;
    }

    /// Clean replays counted in the current epoch.
    pub fn planned_regions(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .planned_regions
    }

    /// Seconds spent building plans in the current epoch.
    pub fn plan_build_secs(&self) -> f64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .plan_build_secs
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .plans
            .len()
    }

    /// Whether no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current epoch (bumped once per [`PlanCache::clear`]).
    pub fn epoch(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).epoch
    }
}

/// Longest-processing-time greedy schedule of weighted items over
/// `nworkers` workers: items in descending cost order, each to the
/// currently least-loaded worker. Deterministic: ties break on lower item
/// id, then lower worker id; each worker's list comes back sorted
/// ascending (forward sweeps over the scratch). Shared by the planned
/// merge epilogue and the delta engine's staging pass — both need every
/// thread to derive the *same* schedule independently, with no
/// coordination, from the same published costs.
pub(crate) fn lpt_schedule(costs: &[(u32, u64)], nworkers: usize) -> Vec<Vec<u32>> {
    let mut order: Vec<(u32, u64)> = costs.to_vec();
    order.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nworkers];
    let mut load = vec![0u64; nworkers];
    for (b, cost) in order {
        let t = (0..nworkers).min_by_key(|&t| (load[t], t)).unwrap_or(0);
        load[t] += cost;
        lists[t].push(b);
    }
    for list in &mut lists {
        list.sort_unstable();
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_exclusive_and_shared() {
        // Thread 0 touches {0,1,2}, thread 1 touches {2,3}: block 2 shared.
        let plan = RegionPlan::for_blocks(4 * 16, 2, 16, &[vec![0, 1, 2], vec![2, 3]]);
        assert_eq!(plan.thread_blocks(0).unwrap().exclusive, vec![0, 1]);
        assert_eq!(plan.thread_blocks(0).unwrap().shared, vec![2]);
        assert_eq!(plan.thread_blocks(1).unwrap().exclusive, vec![3]);
        assert_eq!(plan.thread_blocks(1).unwrap().shared, vec![2]);
        assert_eq!(plan.exclusive_blocks(), 3);
        assert_eq!(plan.shared_blocks(), 1);
        assert_eq!(plan.planned_blocks(), 5);
        assert!(!plan.is_empty());
        // The single shared block lands on exactly one merger.
        let merged: usize = (0..2).map(|t| plan.merge_list(t).len()).sum();
        assert_eq!(merged, 1);
    }

    #[test]
    fn merge_schedule_balances_by_copy_count() {
        // Four shared blocks with copy counts 4, 2, 2, 2 over two mergers:
        // greedy puts the heavy block alone-ish — loads 4+2 vs 2+2, never
        // 4+2+2 vs 2.
        let shared = [(0u32, 4u64), (1, 2), (2, 2), (3, 2)];
        let merge = lpt_schedule(&shared, 2);
        let load = |l: &[u32]| -> u64 {
            l.iter()
                .map(|b| shared.iter().find(|s| s.0 == *b).unwrap().1)
                .sum()
        };
        let (a, b) = (load(&merge[0]), load(&merge[1]));
        assert_eq!(a + b, 10);
        assert!(a.abs_diff(b) <= 2, "unbalanced schedule: {merge:?}");
        // Every block appears exactly once.
        let mut all: Vec<u32> = merge.concat();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn shape_matching() {
        let plan = RegionPlan::for_blocks(100, 2, 16, &[vec![0], vec![1]]);
        assert!(plan.matches_block(100, 2, 16));
        assert!(!plan.matches_block(101, 2, 16));
        assert!(!plan.matches_block(100, 3, 16));
        assert!(!plan.matches_block(100, 2, 32));
        assert!(!plan.matches_keeper(100, 2));

        let kp = RegionPlan::for_keeper(100, 2, vec![0, 3, 4, 0]);
        assert!(kp.matches_keeper(100, 2));
        assert!(!kp.matches_keeper(100, 4));
        assert!(!kp.matches_block(100, 2, 16));
        assert_eq!(kp.keeper_counts(), Some(&[0, 3, 4, 0][..]));
        assert!(!kp.is_empty());
        assert!(RegionPlan::for_keeper(100, 2, vec![0; 4]).is_empty());
    }

    #[test]
    fn plan_cache_epoch_rejects_stale_recordings() {
        use std::sync::Arc;
        let cache = PlanCache::new();
        let plan = Arc::new(RegionPlan::for_blocks(100, 2, 16, &[vec![0], vec![1]]));
        let (hit, epoch) = cache.lookup(7);
        assert!(hit.is_none());
        assert_eq!(epoch, 0);

        // A recording against the epoch it looked up under lands.
        assert!(cache.record(7, Arc::clone(&plan), 0.25, epoch));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.plan_build_secs(), 0.25);
        let (hit, epoch) = cache.lookup(7);
        assert!(hit.is_some());
        assert!(cache.note_replay(epoch));
        assert_eq!(cache.planned_regions(), 1);

        // A clear in the middle of a session's region invalidates the
        // session's pending recording *and* its replay credit.
        let (stale, old_epoch) = cache.lookup(7);
        assert!(stale.is_some(), "session read the plan before the clear");
        cache.clear();
        assert_eq!(cache.epoch(), 1);
        assert!(cache.is_empty());
        assert!(!cache.record(7, plan, 0.5, old_epoch));
        assert!(!cache.note_replay(old_epoch));
        assert_eq!(cache.len(), 0, "stale recording must not resurrect");
        assert_eq!(cache.planned_regions(), 0);
        assert_eq!(cache.plan_build_secs(), 0.0);
        // The Arc handed out before the clear is still usable.
        assert!(stale.unwrap().matches_block(100, 2, 16));
    }

    #[test]
    fn budget_demotes_costliest_shared_blocks() {
        // Blocks of 16 i64s = 128 bytes/copy. Block 5 has 3 copies (384 B),
        // block 2 has 2 (256 B): 640 B total privatized scratch.
        let t = vec![vec![2, 5], vec![2, 5], vec![5]];
        let plan = RegionPlan::for_blocks(1024, 3, 16, &t);
        assert_eq!(plan.scratch_bytes(8), 640);
        assert_eq!(plan.atomic_blocks(), 0);

        // Unlimited budget: untouched.
        assert_eq!(plan.with_budget(8, PlanBudget::UNLIMITED), plan);

        // 300-byte budget: the costlier block 5 demotes to atomic, block 2
        // stays privatized (256 B <= 300).
        let tight = plan.with_budget(8, PlanBudget::new(300));
        assert_eq!(tight.scratch_bytes(8), 256);
        assert_eq!(tight.atomic_blocks(), 1);
        assert_eq!(tight.shared_blocks(), 1);
        assert_eq!(tight.thread_blocks(0).unwrap().shared, vec![2]);
        assert_eq!(tight.thread_blocks(0).unwrap().atomic, vec![5]);
        assert_eq!(tight.thread_blocks(2).unwrap().shared, Vec::<u32>::new());
        assert_eq!(tight.thread_blocks(2).unwrap().atomic, vec![5]);
        let merged: Vec<u32> = (0..3).flat_map(|t| tight.merge_list(t).to_vec()).collect();
        assert_eq!(merged, vec![2]);

        // Zero budget: every shared block goes atomic; reshaping twice is
        // idempotent.
        let zero = plan.with_budget(8, PlanBudget::new(0));
        assert_eq!(zero.scratch_bytes(8), 0);
        assert_eq!(zero.atomic_blocks(), 2);
        assert_eq!(zero.shared_blocks(), 0);
        assert_eq!(zero.with_budget(8, PlanBudget::new(0)), zero);
        // Demoted copies re-promote if the budget relaxes again.
        assert_eq!(zero.with_budget(8, PlanBudget::new(1024)), plan);
    }

    #[test]
    fn empty_and_deterministic() {
        let a = RegionPlan::for_blocks(1000, 3, 64, &[vec![], vec![], vec![]]);
        assert!(a.is_empty());
        // Same inputs → identical plan (merge schedule included).
        let t = vec![vec![0, 5, 9], vec![5, 9, 2], vec![9, 7]];
        let p1 = RegionPlan::for_blocks(1000, 3, 64, &t);
        let p2 = RegionPlan::for_blocks(1000, 3, 64, &t);
        assert_eq!(p1, p2);
    }
}
