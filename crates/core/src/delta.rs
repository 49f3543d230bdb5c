//! Incremental (delta) regions: re-reduce only what changed.
//!
//! Iterative workloads re-run full reduction regions even when only a
//! handful of inputs changed between iterations ("Redundant Array
//! Computation Elimination" names this inter-iteration redundancy as the
//! next order of magnitude for these kernels). A delta region instead
//! submits a [`DeltaBatch`] — the *changed* contributions plus
//! *retractions* of previously-submitted ones — against the previous
//! result, and [`crate::RegionExecutor::run_delta`] touches only the
//! dirty blocks.
//!
//! # Canonical semantics
//!
//! Every contribution carries a caller-chosen `u64` **tag**, unique per
//! output index. The maintained result is defined *independently of
//! history*:
//!
//! ```text
//! result[i] = fold(init[i], values tagged at i, in ascending tag order)
//! ```
//!
//! where `init` is the output array's content when the delta state was
//! created. Because the definition names a single canonical fold order,
//! "incremental must equal full recompute" is a meaningful bit-identical
//! test even for floats — both sides fold the same entries in the same
//! order — and the differential oracle in `verify::fuzz` is not circular.
//!
//! # Fast path vs refold
//!
//! * **Exact inverses** (wrapping integer `Sum` always; wrapping integer
//!   `Prod` for *odd* retracted values — the units of Z/2^k): the staged
//!   value is computed from the previous value with
//!   [`crate::ReduceOp::try_retract`] + `combine`, touching O(changes)
//!   work. Sound because wrapping integer ops are exactly associative
//!   and commutative, so any evaluation order is bit-identical to the
//!   canonical fold.
//! * **Everything else** (floats, `Min`/`Max`, even `Prod` values): the
//!   changed element is *refolded* from the block's contribution log in
//!   canonical order — a per-dirty-block re-reduce.
//! * **Dirty-fraction fallback**: when more than
//!   [`DELTA_DIRTY_FALLBACK`] of the blocks are dirty, per-block
//!   bookkeeping stops paying for itself and the engine refolds *every*
//!   block (a full re-reduce, still bit-identical by construction).
//!
//! # Transactionality (poison, not corrupt)
//!
//! A batch runs as **stage → commit**. Staging computes each dirty
//! block's replacement log and values *without mutating the state*,
//! crossing the [`ompsim::verify::HookPoint::DeltaApply`] hook per
//! block; validation failures (out-of-bounds index, retraction of an
//! unknown tag, duplicate tag) and injected verify faults all panic
//! here. Only after every block staged cleanly does the hook-free
//! commit install logs and values — so a mid-stage panic leaves the
//! previous result and state untouched, and the caller can continue
//! from the pre-batch state.

use crate::elem::ReduceOp;
use crate::plan::lpt_schedule;
use crate::shared::Slots;
use crate::Element;
use ompsim::verify::{perturb_idx, HookPoint};
use ompsim::ThreadPool;
use std::ops::Range;
use std::time::Instant;

/// Default delta-block granularity (`1 << DELTA_BLOCK_BITS` elements).
/// Smaller than the privatization block sizes on purpose: dirty tracking
/// wants resolution, not merge amortization.
pub const DELTA_BLOCK_BITS: u32 = 6;

/// Dirty-block fraction above which the engine abandons per-dirty-block
/// staging and refolds every block (full re-reduce). See DESIGN.md §11.
pub const DELTA_DIRTY_FALLBACK: f64 = 0.25;

/// Estimated staging cost (log entries + edits) below which the engine
/// stages on the caller thread instead of forking the pool: a streaming
/// batch touching a handful of blocks finishes before a fork/join would
/// even wake the team.
const SERIAL_STAGE_COST: u64 = 8192;

/// A set of changed contributions and retractions against the previous
/// delta result. Built by the caller, consumed by
/// [`crate::RegionExecutor::run_delta`].
///
/// Tags must be unique per output index at any point in time; retracting
/// and re-pushing the same `(idx, tag)` within one batch replaces that
/// contribution's value.
#[derive(Debug, Clone)]
pub struct DeltaBatch<T> {
    updates: Vec<(usize, u64, T)>,
    retractions: Vec<(usize, u64)>,
}

impl<T: Element> Default for DeltaBatch<T> {
    fn default() -> Self {
        DeltaBatch::new()
    }
}

impl<T: Element> DeltaBatch<T> {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch {
            updates: Vec::new(),
            retractions: Vec::new(),
        }
    }

    /// Adds contribution `val` tagged `tag` at output index `idx`. The
    /// tag must not already be live at `idx` (unless this batch also
    /// retracts it); the region panics otherwise.
    pub fn push(&mut self, idx: usize, tag: u64, val: T) {
        self.updates.push((idx, tag, val));
    }

    /// Retracts the contribution tagged `tag` at output index `idx`. The
    /// tag must be live at `idx`; the region panics otherwise.
    pub fn retract(&mut self, idx: usize, tag: u64) {
        self.retractions.push((idx, tag));
    }

    /// Total edits (updates + retractions) in the batch.
    pub fn len(&self) -> usize {
        self.updates.len() + self.retractions.len()
    }

    /// Whether the batch carries no edits.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty() && self.retractions.is_empty()
    }

    /// The queued updates, in push order.
    pub fn updates(&self) -> &[(usize, u64, T)] {
        &self.updates
    }

    /// The queued retractions, in push order.
    pub fn retractions(&self) -> &[(usize, u64)] {
        &self.retractions
    }

    /// Empties the batch, keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.updates.clear();
        self.retractions.clear();
    }
}

/// Retained per-executor delta state: the baseline array, the per-block
/// tag-sorted contribution logs, and the maintained result mirror.
pub(crate) struct DeltaState<T> {
    pub(crate) block_bits: u32,
    pub(crate) len: usize,
    /// Output content when the state was created — the fold's seed.
    init: Vec<T>,
    /// Per block: live contributions `(offset, tag, value)`, sorted by
    /// `(offset, tag)` — so one element's entries are contiguous and in
    /// canonical (ascending-tag) fold order.
    logs: Vec<Vec<(u32, u64, T)>>,
    /// The maintained result (mirror of the caller's output array).
    vals: Vec<T>,
}

impl<T: Element> DeltaState<T> {
    pub(crate) fn new(out: &[T], block_bits: u32) -> Self {
        let nblocks = out.len().div_ceil(1usize << block_bits);
        DeltaState {
            block_bits,
            len: out.len(),
            init: out.to_vec(),
            logs: vec![Vec::new(); nblocks],
            vals: out.to_vec(),
        }
    }

    pub(crate) fn nblocks(&self) -> usize {
        self.logs.len()
    }

    /// Bytes the state holds beyond the caller's output array.
    pub(crate) fn scratch_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(u32, u64, T)>();
        2 * self.len * std::mem::size_of::<T>()
            + self
                .logs
                .iter()
                .map(|l| l.capacity() * entry)
                .sum::<usize>()
    }

    #[cfg(test)]
    pub(crate) fn log_entries(&self) -> u64 {
        self.logs.iter().map(|l| l.len() as u64).sum()
    }

    /// The canonical result recomputed from scratch (init + full logs),
    /// sequentially — the reference the incremental path must match
    /// bit-identically. Used by tests and the fuzz oracle.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn recompute_full<O: ReduceOp<T>>(&self) -> Vec<T> {
        let mut out = self.init.clone();
        for (b, log) in self.logs.iter().enumerate() {
            let base = b << self.block_bits;
            for &(off, _, v) in log {
                let i = base + off as usize;
                out[i] = O::combine(out[i], v);
            }
        }
        out
    }
}

/// One dirty block's half-open ranges into the batch's sorted edit
/// arrays (block-major order, so each block's edits are contiguous).
struct BlockEdits {
    block: u32,
    ups: Range<usize>,
    rets: Range<usize>,
}

/// A block's staged replacement, computed without mutating the state.
struct StagedBlock<T> {
    log: Vec<(u32, u64, T)>,
    /// Replacement values for the offsets this batch changed (or, in
    /// full-refold mode, every offset with live contributions).
    changed: Vec<(u32, T)>,
}

/// What one delta region did, for the executor's report and counters.
pub(crate) struct DeltaRunStats {
    /// Blocks the batch actually edited.
    pub dirty_blocks: u64,
    /// Retractions applied.
    pub retractions: u64,
    /// Whether the dirty fraction tripped the full-refold fallback.
    pub full_refold: bool,
    /// Blocks staged (== dirty unless full refold).
    pub staged_blocks: u64,
    /// Elements whose value was (re)written at commit.
    pub changed_elements: u64,
    pub stage_secs: f64,
    pub commit_secs: f64,
}

/// Runs one delta region: validates and groups the batch, stages every
/// affected block in parallel (LPT over estimated per-block cost, on the
/// caller's pool), then commits. See the module docs for semantics.
pub(crate) fn run_delta_engine<T: Element, O: ReduceOp<T>>(
    state: &mut DeltaState<T>,
    pool: &ThreadPool,
    out: &mut [T],
    batch: &DeltaBatch<T>,
) -> DeltaRunStats {
    assert!(
        out.len() == state.len,
        "spray-delta: output length {} does not match delta state length {}",
        out.len(),
        state.len
    );
    let bits = state.block_bits;

    // Group the batch's edits per block by sorting — two cache-friendly
    // sorts instead of a per-edit tree walk, which dominated streaming
    // batch cost. Validation panics in this phase (and in staging below)
    // all fire before any commit.
    let mask = (1usize << bits) - 1;
    let mut ups: Vec<(u32, u32, u64, T)> = Vec::with_capacity(batch.updates.len());
    for &(idx, tag, val) in &batch.updates {
        assert!(
            idx < state.len,
            "spray-delta: update index {idx} out of bounds (len {})",
            state.len
        );
        ups.push(((idx >> bits) as u32, (idx & mask) as u32, tag, val));
    }
    let mut rets: Vec<(u32, u32, u64)> = Vec::with_capacity(batch.retractions.len());
    for &(idx, tag) in &batch.retractions {
        assert!(
            idx < state.len,
            "spray-delta: retraction index {idx} out of bounds (len {})",
            state.len
        );
        rets.push(((idx >> bits) as u32, (idx & mask) as u32, tag));
    }
    ups.sort_unstable_by_key(|&(b, off, tag, _)| (b, off, tag));
    rets.sort_unstable();
    if let Some(w) = ups
        .windows(2)
        .find(|w| (w[0].0, w[0].1, w[0].2) == (w[1].0, w[1].1, w[1].2))
    {
        panic!(
            "spray-delta: duplicate tag {} pushed at index {} within one batch",
            w[0].2,
            ((w[0].0 as usize) << bits) + w[0].1 as usize
        );
    }
    // Block-major order makes each dirty block's edits contiguous: one
    // two-pointer walk yields the per-block ranges, sorted by block.
    let mut edits: Vec<BlockEdits> = Vec::new();
    let (mut ui, mut ri) = (0usize, 0usize);
    while ui < ups.len() || ri < rets.len() {
        let b = match (ups.get(ui), rets.get(ri)) {
            (Some(u), Some(r)) => u.0.min(r.0),
            (Some(u), None) => u.0,
            (None, Some(r)) => r.0,
            (None, None) => unreachable!(),
        };
        let (u0, r0) = (ui, ri);
        while ui < ups.len() && ups[ui].0 == b {
            ui += 1;
        }
        while ri < rets.len() && rets[ri].0 == b {
            ri += 1;
        }
        edits.push(BlockEdits {
            block: b,
            ups: u0..ui,
            rets: r0..ri,
        });
    }

    let dirty = edits.len();
    let nblocks = state.nblocks();
    let full_refold = dirty > 0 && (dirty as f64) > DELTA_DIRTY_FALLBACK * nblocks as f64;
    let staged_ids: Vec<u32> = if full_refold {
        (0..nblocks as u32).collect()
    } else {
        edits.iter().map(|e| e.block).collect()
    };

    // One exact-inverse probe per op/type: retracting the identity from
    // itself succeeds exactly for the wrapping-integer groups (and for
    // nothing else), which is precisely the set of ops whose evaluation
    // order is bit-exact — the precondition of the fast path.
    let exact = O::try_retract(O::identity(), O::identity()).is_some();

    // --- Stage: read-only over the state, disjoint slot writes. -------
    let t0 = Instant::now();
    let slots: Slots<StagedBlock<T>> = Slots::new(staged_ids.len());
    if !staged_ids.is_empty() {
        // `edits` is sorted by block, so a block's edit ranges resolve
        // with one binary search; blocks staged only for the full-refold
        // pass get empty ranges.
        let block_edits = |b: u32| -> (Range<usize>, Range<usize>) {
            match edits.binary_search_by_key(&b, |e| e.block) {
                Ok(k) => (edits[k].ups.clone(), edits[k].rets.clone()),
                Err(_) => (0..0, 0..0),
            }
        };
        let costs: Vec<(u32, u64)> = staged_ids
            .iter()
            .map(|&b| {
                let (u, r) = block_edits(b);
                let edit_cost = u.len() + r.len();
                (b, (state.logs[b as usize].len() + edit_cost + 1) as u64)
            })
            .collect();
        // Streaming batches are usually tiny — a handful of dirty blocks
        // against a pool fork/join that costs more than the staging
        // itself. Stage small work on the caller (bound as tid 0, the
        // same id it holds inside a parallel region, so injected faults
        // and hook counts stay reachable); fork only when the work can
        // amortize the join.
        let total_cost: u64 = costs.iter().map(|&(_, c)| c).sum();
        let serial =
            pool.num_threads() == 1 || staged_ids.len() < 4 || total_cost < SERIAL_STAGE_COST;
        if serial {
            ompsim::verify::enter_region(0);
            for (slot, &b) in staged_ids.iter().enumerate() {
                perturb_idx(HookPoint::DeltaApply, b as u64);
                let (u, r) = block_edits(b);
                let sb = stage_block::<T, O>(state, b, &ups[u], &rets[r], full_refold, exact);
                // SAFETY: single-threaded; each slot written once.
                unsafe { slots.put(slot, sb) };
            }
        } else {
            let sched = lpt_schedule(&costs, pool.num_threads());
            let state_ref: &DeltaState<T> = state;
            let ids_ref = &staged_ids;
            let slots_ref = &slots;
            let sched_ref = &sched;
            let ups_ref = &ups;
            let rets_ref = &rets;
            let block_edits_ref = &block_edits;
            pool.parallel(move |team| {
                for &b in &sched_ref[team.id()] {
                    perturb_idx(HookPoint::DeltaApply, b as u64);
                    let (u, r) = block_edits_ref(b);
                    let sb = stage_block::<T, O>(
                        state_ref,
                        b,
                        &ups_ref[u],
                        &rets_ref[r],
                        full_refold,
                        exact,
                    );
                    let slot = ids_ref.binary_search(&b).unwrap();
                    // SAFETY: the LPT lists partition `staged_ids`, so each
                    // slot is written exactly once, by one thread, and read
                    // only after the region's closing barrier.
                    unsafe { slots_ref.put(slot, sb) };
                }
            });
        }
    }
    let stage_secs = t0.elapsed().as_secs_f64();

    // --- Commit: hook-free, infallible. -------------------------------
    let t1 = Instant::now();
    let mut changed_elements = 0u64;
    for (slot, &b) in staged_ids.iter().enumerate() {
        // SAFETY: the staging region ended (barrier); single-threaded now.
        let sb = unsafe { slots.take(slot) }.expect("spray-delta: staged block missing");
        let base = (b as usize) << bits;
        state.logs[b as usize] = sb.log;
        for &(off, v) in &sb.changed {
            let i = base + off as usize;
            state.vals[i] = v;
            out[i] = v;
            changed_elements += 1;
        }
    }
    let commit_secs = t1.elapsed().as_secs_f64();

    DeltaRunStats {
        dirty_blocks: dirty as u64,
        retractions: batch.retractions.len() as u64,
        full_refold,
        staged_blocks: staged_ids.len() as u64,
        changed_elements,
        stage_secs,
        commit_secs,
    }
}

/// Stages one block: prunes retracted entries out of the log, merges the
/// batch's updates in (panicking on unknown or duplicate tags), and
/// computes replacement values for the changed offsets — by exact
/// inverse where `exact` holds and every retracted value cooperates, by
/// canonical refold otherwise.
fn stage_block<T: Element, O: ReduceOp<T>>(
    state: &DeltaState<T>,
    b: u32,
    ups: &[(u32, u32, u64, T)],
    rets: &[(u32, u32, u64)],
    refold_all: bool,
    exact: bool,
) -> StagedBlock<T> {
    let old = &state.logs[b as usize];
    let base = (b as usize) << state.block_bits;

    // 1. Prune retractions out of the (sorted) old log, capturing the
    //    retracted values for the fast path. Both sides are sorted by
    //    (offset, tag), so one merge pass detects unknown tags.
    let mut retracted: Vec<(u32, T)> = Vec::with_capacity(rets.len());
    let mut pruned: Vec<(u32, u64, T)> = Vec::with_capacity(old.len());
    let mut ri = 0usize;
    for &(off, tag, v) in old {
        if ri < rets.len() {
            let (_, roff, rtag) = rets[ri];
            if (roff, rtag) == (off, tag) {
                retracted.push((off, v));
                ri += 1;
                continue;
            }
            if (roff, rtag) < (off, tag) {
                panic!(
                    "spray-delta: retraction of unknown tag {rtag} at index {}",
                    base + roff as usize
                );
            }
        }
        pruned.push((off, tag, v));
    }
    if ri < rets.len() {
        let (_, roff, rtag) = rets[ri];
        panic!(
            "spray-delta: retraction of unknown tag {rtag} at index {}",
            base + roff as usize
        );
    }

    // 2. Merge the updates in, rejecting tags still live at the index.
    let mut log: Vec<(u32, u64, T)> = Vec::with_capacity(pruned.len() + ups.len());
    let (mut pi, mut ui) = (0usize, 0usize);
    while pi < pruned.len() || ui < ups.len() {
        let take_up = if pi >= pruned.len() {
            true
        } else if ui >= ups.len() {
            false
        } else {
            let pk = (pruned[pi].0, pruned[pi].1);
            let uk = (ups[ui].1, ups[ui].2);
            if pk == uk {
                panic!(
                    "spray-delta: duplicate tag {} at index {} (retract it first)",
                    uk.1,
                    base + uk.0 as usize
                );
            }
            uk < pk
        };
        if take_up {
            let (_, off, tag, val) = ups[ui];
            log.push((off, tag, val));
            ui += 1;
        } else {
            log.push(pruned[pi]);
            pi += 1;
        }
    }

    // 3. Replacement values. In full-refold mode every offset with live
    //    or edited contributions is recomputed (a fully-retracted offset
    //    has no log entries but must reset to init — the edit offsets
    //    cover it).
    let mut changed_offs: Vec<u32> = if refold_all {
        log.iter()
            .map(|e| e.0)
            .chain(rets.iter().map(|r| r.1))
            .collect()
    } else {
        rets.iter()
            .map(|r| r.1)
            .chain(ups.iter().map(|u| u.1))
            .collect()
    };
    changed_offs.sort_unstable();
    changed_offs.dedup();

    let mut changed: Vec<(u32, T)> = Vec::with_capacity(changed_offs.len());
    let mut r_lo = 0usize;
    let mut u_lo = 0usize;
    for &off in &changed_offs {
        let i = base + off as usize;
        while r_lo < retracted.len() && retracted[r_lo].0 < off {
            r_lo += 1;
        }
        let r_hi = r_lo + retracted[r_lo..].partition_point(|r| r.0 <= off);
        while u_lo < ups.len() && ups[u_lo].1 < off {
            u_lo += 1;
        }
        let u_hi = u_lo + ups[u_lo..].partition_point(|u| u.1 <= off);

        let v = if refold_all {
            refold::<T, O>(&log, off, state.init[i])
        } else {
            fast_or_refold::<T, O>(
                state.vals[i],
                &retracted[r_lo..r_hi],
                &ups[u_lo..u_hi],
                exact,
            )
            .unwrap_or_else(|| refold::<T, O>(&log, off, state.init[i]))
        };
        changed.push((off, v));
        r_lo = r_hi;
        u_lo = u_hi;
    }

    StagedBlock { log, changed }
}

/// Exact-inverse fast path for one element: retract each retracted value
/// and combine the new ones. `None` when the op/type has no exact
/// inverses or a specific value (even integer product) declines.
fn fast_or_refold<T: Element, O: ReduceOp<T>>(
    mut v: T,
    retracted: &[(u32, T)],
    ups: &[(u32, u32, u64, T)],
    exact: bool,
) -> Option<T> {
    if !exact {
        return None;
    }
    for &(_, rv) in retracted {
        v = O::try_retract(v, rv)?;
    }
    for &(_, _, _, uv) in ups {
        v = O::combine(v, uv);
    }
    Some(v)
}

/// Canonical fold of one element from its (contiguous, tag-ascending)
/// log entries.
fn refold<T: Element, O: ReduceOp<T>>(log: &[(u32, u64, T)], off: u32, init: T) -> T {
    let lo = log.partition_point(|e| e.0 < off);
    let hi = lo + log[lo..].partition_point(|e| e.0 <= off);
    let mut v = init;
    for &(_, _, uv) in &log[lo..hi] {
        v = O::combine(v, uv);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Max, Min, Prod, Sum};
    use ompsim::ThreadPool;

    fn apply_engine<T: Element, O: ReduceOp<T>>(
        state: &mut DeltaState<T>,
        pool: &ThreadPool,
        out: &mut [T],
        batch: &DeltaBatch<T>,
    ) -> DeltaRunStats {
        run_delta_engine::<T, O>(state, pool, out, batch)
    }

    #[test]
    fn incremental_matches_canonical_recompute_i64_sum() {
        let pool = ThreadPool::new(4);
        let n = 1000;
        let mut out = vec![1i64; n];
        let mut state = DeltaState::new(&out, DELTA_BLOCK_BITS);
        let mut h = 0x1234_5678_u64;
        let step = |s: &mut u64| {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        };
        let mut live: Vec<(usize, u64)> = Vec::new();
        for round in 0..12u64 {
            let mut batch = DeltaBatch::new();
            // Retract a few contributions committed in earlier rounds
            // (same-batch tags are not retractable by design).
            for _ in 0..8 {
                if live.len() > 4 {
                    let at = (step(&mut h) as usize) % live.len();
                    let (idx, tag) = live.remove(at);
                    batch.retract(idx, tag);
                }
            }
            for k in 0..40 {
                let idx = (step(&mut h) as usize) % n;
                let tag = round * 1000 + k;
                batch.push(idx, tag, (step(&mut h) as i64) % 97);
                live.push((idx, tag));
            }
            let stats = apply_engine::<i64, Sum>(&mut state, &pool, &mut out, &batch);
            assert!(stats.dirty_blocks > 0);
            assert_eq!(out, state.recompute_full::<Sum>(), "round {round}");
        }
    }

    #[test]
    fn float_sum_refold_is_bit_identical_to_canonical() {
        let pool = ThreadPool::new(2);
        let n = 128;
        let mut out = vec![0.5f64; n];
        let mut state = DeltaState::new(&out, 4);
        let mut batch = DeltaBatch::new();
        // Non-associative shape: a huge value, tiny values, then the huge
        // value retracted — exact inverses would get this wrong, the
        // canonical refold cannot.
        batch.push(7, 1, 1e16);
        for t in 2..30u64 {
            batch.push(7, t, 1.0);
        }
        apply_engine::<f64, Sum>(&mut state, &pool, &mut out, &batch);
        let mut b2 = DeltaBatch::new();
        b2.retract(7, 1);
        b2.push(7, 100, 2.5);
        apply_engine::<f64, Sum>(&mut state, &pool, &mut out, &b2);
        let reference = state.recompute_full::<Sum>();
        assert_eq!(out[7].to_bits(), reference[7].to_bits());
        assert_eq!(out, reference);
    }

    #[test]
    fn min_max_retraction_refolds() {
        let pool = ThreadPool::new(2);
        let n = 64;
        let mut out = vec![i64::MAX; n];
        let mut state = DeltaState::new(&out, 4);
        let mut batch = DeltaBatch::new();
        batch.push(3, 1, -100);
        batch.push(3, 2, 5);
        batch.push(3, 3, 7);
        apply_engine::<i64, Min>(&mut state, &pool, &mut out, &batch);
        assert_eq!(out[3], -100);
        // Retracting the current minimum must resurface the next one —
        // only the kept log makes this possible.
        let mut b2 = DeltaBatch::new();
        b2.retract(3, 1);
        apply_engine::<i64, Min>(&mut state, &pool, &mut out, &b2);
        assert_eq!(out[3], 5);
        assert_eq!(out, state.recompute_full::<Min>());

        let mut out = vec![f64::NEG_INFINITY; n];
        let mut state = DeltaState::new(&out, 4);
        let mut batch = DeltaBatch::new();
        batch.push(9, 1, 3.5);
        batch.push(9, 2, 2.0);
        apply_engine::<f64, Max>(&mut state, &pool, &mut out, &batch);
        assert_eq!(out[9], 3.5);
        let mut b2 = DeltaBatch::new();
        b2.retract(9, 1);
        apply_engine::<f64, Max>(&mut state, &pool, &mut out, &b2);
        assert_eq!(out[9], 2.0);
    }

    #[test]
    fn prod_even_values_refold_odd_values_invert() {
        let pool = ThreadPool::new(2);
        let mut out = vec![1u64; 64];
        let mut state = DeltaState::new(&out, 4);
        let mut batch = DeltaBatch::new();
        batch.push(5, 1, 6); // even: no inverse
        batch.push(5, 2, 35); // odd: exact inverse
        batch.push(5, 3, 3);
        apply_engine::<u64, Prod>(&mut state, &pool, &mut out, &batch);
        assert_eq!(out[5], 6 * 35 * 3);
        for tag in [1u64, 2, 3] {
            let mut b = DeltaBatch::new();
            b.retract(5, tag);
            apply_engine::<u64, Prod>(&mut state, &pool, &mut out, &b);
            assert_eq!(
                out,
                state.recompute_full::<Prod>(),
                "after retracting {tag}"
            );
        }
        assert_eq!(out[5], 1);
    }

    #[test]
    fn dirty_fraction_trips_full_refold() {
        let pool = ThreadPool::new(4);
        let n = 1 << 10; // 16 blocks at bits=6
        let mut out = vec![0i64; n];
        let mut state = DeltaState::new(&out, DELTA_BLOCK_BITS);
        // Touch 1 block: incremental.
        let mut b = DeltaBatch::new();
        b.push(0, 1, 4);
        let stats = apply_engine::<i64, Sum>(&mut state, &pool, &mut out, &b);
        assert!(!stats.full_refold);
        assert_eq!(stats.staged_blocks, 1);
        // Touch every other block: > 25% dirty, full refold.
        let mut b = DeltaBatch::new();
        for blk in (0..16).step_by(2) {
            b.push(blk << DELTA_BLOCK_BITS, 100 + blk as u64, 1);
        }
        let stats = apply_engine::<i64, Sum>(&mut state, &pool, &mut out, &b);
        assert!(stats.full_refold);
        assert_eq!(stats.staged_blocks, 16);
        assert_eq!(stats.dirty_blocks, 8);
        assert_eq!(out, state.recompute_full::<Sum>());
    }

    #[test]
    #[should_panic(expected = "retraction of unknown tag")]
    fn unknown_retraction_panics_before_commit() {
        let pool = ThreadPool::new(2);
        let mut out = vec![0i64; 64];
        let mut state = DeltaState::new(&out, 4);
        let mut b = DeltaBatch::new();
        b.retract(3, 42);
        apply_engine::<i64, Sum>(&mut state, &pool, &mut out, &b);
    }

    #[test]
    #[should_panic(expected = "duplicate tag")]
    fn duplicate_live_tag_panics() {
        let pool = ThreadPool::new(2);
        let mut out = vec![0i64; 64];
        let mut state = DeltaState::new(&out, 4);
        let mut b = DeltaBatch::new();
        b.push(3, 7, 1);
        apply_engine::<i64, Sum>(&mut state, &pool, &mut out, &b);
        let mut b = DeltaBatch::new();
        b.push(3, 7, 2);
        apply_engine::<i64, Sum>(&mut state, &pool, &mut out, &b);
    }

    #[test]
    fn failed_batch_leaves_state_untouched() {
        let pool = ThreadPool::new(2);
        let mut out = vec![0i64; 256];
        let mut state = DeltaState::new(&out, 4);
        let mut b = DeltaBatch::new();
        b.push(10, 1, 5);
        b.push(200, 2, 7);
        apply_engine::<i64, Sum>(&mut state, &pool, &mut out, &b);
        let before = out.clone();
        let entries = state.log_entries();
        // A batch with a good edit and a bad retraction must change
        // nothing: the panic fires during staging, before any commit.
        let mut bad = DeltaBatch::new();
        bad.push(11, 3, 100);
        bad.retract(200, 999);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            apply_engine::<i64, Sum>(&mut state, &pool, &mut out, &bad);
        }));
        assert!(r.is_err());
        assert_eq!(out, before);
        assert_eq!(state.log_entries(), entries);
        assert_eq!(out, state.recompute_full::<Sum>());
        // And the state is still usable.
        let mut ok = DeltaBatch::new();
        ok.retract(200, 2);
        apply_engine::<i64, Sum>(&mut state, &pool, &mut out, &ok);
        assert_eq!(out[200], 0);
    }

    #[test]
    fn retract_and_repush_same_tag_in_one_batch_replaces() {
        let pool = ThreadPool::new(2);
        let mut out = vec![0i64; 64];
        let mut state = DeltaState::new(&out, 4);
        let mut b = DeltaBatch::new();
        b.push(3, 7, 10);
        apply_engine::<i64, Sum>(&mut state, &pool, &mut out, &b);
        let mut b = DeltaBatch::new();
        b.retract(3, 7);
        b.push(3, 7, 4);
        apply_engine::<i64, Sum>(&mut state, &pool, &mut out, &b);
        assert_eq!(out[3], 4);
        assert_eq!(state.log_entries(), 1);
    }

    #[test]
    fn parallel_staging_matches_canonical() {
        // Heavy logs + an over-threshold dirty fraction: the full-refold
        // batch's staging cost clears SERIAL_STAGE_COST, so this is the
        // forked (LPT-scheduled) staging path, not the caller-serial one.
        let pool = ThreadPool::new(4);
        let n = 4096usize;
        let per_elem = 4usize;
        let mut out = vec![0i64; n];
        let mut state = DeltaState::new(&out, DELTA_BLOCK_BITS);
        let mut b = DeltaBatch::new();
        for r in 0..per_elem {
            for i in 0..n {
                b.push(i, (r * n + i) as u64, (i as i64 % 9) - 4);
            }
        }
        apply_engine::<i64, Sum>(&mut state, &pool, &mut out, &b);
        // Spread churn dirtying well over DELTA_DIRTY_FALLBACK of the
        // blocks: every block refolds, in parallel.
        let mut churn = DeltaBatch::new();
        for k in 0..n / 2 {
            let i = k * 2;
            churn.retract(i, i as u64);
            churn.push(i, (per_elem * n + k) as u64, 100);
        }
        let stats = apply_engine::<i64, Sum>(&mut state, &pool, &mut out, &churn);
        assert!(stats.full_refold);
        assert_eq!(stats.staged_blocks, state.nblocks() as u64);
        let costs: u64 = state.logs.iter().map(|l| l.len() as u64 + 1).sum();
        assert!(
            costs >= super::SERIAL_STAGE_COST,
            "test must exercise the parallel path"
        );
        assert_eq!(out, state.recompute_full::<Sum>());
    }
}
