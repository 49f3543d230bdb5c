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

/// One thread's planned block footprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadBlocks {
    /// Blocks only this thread touched — written directly into the output
    /// array during replay, no ownership claim and no merge needed.
    pub exclusive: Vec<u32>,
    /// Blocks touched by two or more threads — privatized up front during
    /// replay and merged by the plan's schedule.
    pub shared: Vec<u32>,
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
