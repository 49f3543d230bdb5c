//! `BlockReduction` — lazy, block-granular privatization (§V-d).
//!
//! The array is divided into fixed-size blocks which are handled on first
//! touch. Three flavors, as in the paper:
//!
//! * **block-private** ([`BlockPrivateReduction`]): a thread that touches a
//!   block allocates a private, identity-initialized copy of just that
//!   block. Same summation order as the dense strategy — the only
//!   difference is that untouched blocks are never materialized.
//! * **block-lock** ([`BlockLockReduction`]): threads may acquire exclusive
//!   *ownership* of blocks **in the original array** (ownership table
//!   guarded by a lock) and then update them directly, non-atomically;
//!   blocks already owned by another thread fall back to privatization.
//! * **block-CAS** ([`BlockCasReduction`]): same ownership scheme, but
//!   ownership is claimed with a compare-and-swap instead of a lock.
//!
//! The block size trades block-allocation count against wasted work on
//! untouched elements inside touched blocks (Fig. 13 of the paper sweeps
//! it; the `bench` crate regenerates that sweep). Strategy names carry the
//! block size, e.g. `block-CAS-1024`.
//!
//! # Hot-path layout
//!
//! `apply(i, v)` is the whole point of the library — it must cost as close
//! to a plain `out[i] += v` as possible. Three decisions keep it there:
//!
//! * **Power-of-two blocks.** Block sizes are rounded **up to the next
//!   power of two** at construction (user-visible: `block-CAS-100` becomes
//!   `block-CAS-128`, and [`Reduction::name`] reports the rounded size).
//!   `i / block_size` and `i % block_size` compile to a shift and a mask
//!   instead of hardware division.
//! * **Per-block base table.** Each view keeps one pointer per block: the
//!   base of the storage this thread writes that block through this
//!   region (the original array for a direct-owned block, the private
//!   copy otherwise), as the C++ `AWBlockReduction` does. A resolved
//!   block costs one table load, one branch and the combine, whichever
//!   block was touched last, so a scatter that switches blocks on every
//!   update (PageRank's push) stays on the fast path. The table doubles
//!   as the status table: small sentinel values below any real pointer
//!   mark a block as not yet resolved (null) or a direct-owned trailing
//!   partial block; only those take the slow path.
//!   Private copies are allocated at the full (padded) block size so
//!   every in-block offset is valid; a direct block enters the table only
//!   when it lies wholly inside the array.
//! * **Run window.** A replayed [`RegionPlan`] names each thread's shared
//!   blocks before the region starts. When they form one contiguous run
//!   `lo..hi`, at least half of the thread's planned blocks, and the
//!   arena packs slots with no padding (blocks of 64 bytes or more), the
//!   view lays their private copies out back to back in one slab, in
//!   block order, and carries a window `(base, start = lo·block_size,
//!   len)`: an apply tests `i - start < len` and combines into
//!   `base[i - start]`, so the store address comes from registers, with
//!   no table load. The window ends at the array's end, so indices in the
//!   last copy's padding still take the table path. Everything else
//!   (unplanned and recording regions, exclusive and deviating blocks,
//!   runs with gaps, runs outnumbered by the thread's exclusive blocks)
//!   keeps the table, and a chunk handle without a window runs the table
//!   path alone, without the window test. The run's table
//!   entries point at the same slots, so the epilogue, `finish`, plan
//!   extraction, scratch retention and the `verify` hooks see the same
//!   storage and merge order either way, and results stay bit-identical.
//!   The layout happens once, at the first replay that finds the run not
//!   laid out; the [`crate::arena`] docs say where the old slabs go and
//!   why never to the pool.
//! * **Chunk handle.** A loop that calls `apply` on the view itself
//!   reloads the window, the table pointer and length, shift and mask on
//!   every update, because the view's address escapes (`view`'s return
//!   slot, `stash`). The executor instead hands each schedule chunk of a
//!   [`crate::Kernel`] region to [`ReducerView::run_chunk`], which runs
//!   the chunk on a by-value copy of those fields plus a chunk-local
//!   apply count; its slow path receives the table slice and the view's
//!   core, never the copy, so the hot fields stay in registers.
//! * **Debug-only index assert.** The per-apply bounds `assert!` became a
//!   `debug_assert!`; release builds bounds-check at block granularity:
//!   the table lookup misses for blocks past the end, and every slow-path
//!   update (first touch, partial trailing block) carries the full check.
//!   The chunked drivers perform their own up-front range checks, so a
//!   wild index cannot touch memory outside the reduction: table entries
//!   only accept offsets inside their (valid) storage.
//!
//! Per-thread state that different threads write concurrently (the stash
//! slots, the CAS ownership words) is cache-line padded to kill false
//! sharing; see [`crate::shared`].
//!
//! # Region reuse
//!
//! [`Reduction::finish`] does not free a view's table/blocks scratch; it
//! resets it (touched table entries back to unknown, ownership cleared;
//! the fused merge epilogue already refilled dirty private copies with
//! the identity) and retains it — arena slabs included — so a reduction
//! driven through many regions allocates only on its first. For
//! iterative solvers that rebind the output array every iteration
//! (PageRank's swap of rank vectors), [`BlockReduction::into_scratch`] /
//! [`BlockReduction::from_scratch`] detach the scratch from the borrow and
//! reattach it to the next region's array — see also
//! [`crate::ReusableReducer`] for the strategy-dispatched form.
//!
//! # Safety protocol
//! During the loop phase a block of the original array is written only by
//! its unique owner (lock/CAS flavors) and all other contributions go to
//! private copies. After the team barrier, private copies of block `b` are
//! merged by a single thread — the unplanned epilogue's `b % nthreads`,
//! or the one merger a plan's schedule names — in ascending thread order;
//! owners no longer write. Either way the merger is a pure function of
//! `b`, so no location is ever written by two threads without intervening
//! synchronization.

use crate::arena::{BlockArena, BlockRef};
use crate::elem::{Element, ReduceOp};
use crate::kernels;
use crate::plan::RegionPlan;
use crate::reducer::{ReducerView, Reduction};
use crate::shared::{CachePadded, MemCounter, SharedSlice, Slots};
use crate::strategy::Kernel;
use crate::telemetry::{Counters, Telemetry, TelemetryBoard};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const UNOWNED: usize = usize::MAX;

// Base-table sentinels. A table entry is either the base of the storage
// the view writes a block through (never in the first page of the
// address space) or one of these small values, which send the apply to
// the slow path. Unknown is null, so a fresh table is all-unknown.
/// Not yet resolved this region.
const UNKNOWN: usize = 0;
/// Direct-owned trailing block shorter than the block size: its masked
/// offsets would run past the array, so every update is checked per index.
const PARTIAL_DIRECT: usize = 1;
/// Entries above this are storage bases.
const LAST_SENTINEL: usize = PARTIAL_DIRECT;

/// Outcome of an ownership claim attempt, distinguished so the telemetry
/// layer can tell a *lost race* (another thread owns the block — a
/// contention event) from the block-private flavor's by-design refusal.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// The block was unowned; the claiming thread now owns it.
    Won,
    /// The claiming thread already owned the block.
    Retained,
    /// The claim failed: another thread owns the block, or the flavor
    /// never grants direct ownership.
    Lost,
}

/// How block ownership of the original array is acquired.
///
/// Implementation detail of the block flavors; sealed (the only
/// implementors are the `*Seal` types below).
#[doc(hidden)]
pub trait Ownership: Send + Sync {
    /// Whether this flavor grants direct ownership at all. `false` for the
    /// block-private flavor, whose lost claims are by design and must not
    /// count as contention.
    const DIRECT: bool;
    /// Builds the ownership state for `nblocks`.
    fn new(nblocks: usize) -> Self;
    /// Tries to claim block `b` for thread `tid`.
    fn try_claim(&self, b: usize, tid: usize) -> Claim;
    /// Resets all ownership (single-threaded, between regions).
    fn reset(&self);
    /// Bytes used by the ownership table.
    fn footprint(&self) -> usize;
}

/// No direct ownership: everything privatizes (block-private flavor).
struct NoOwnership;

impl Ownership for NoOwnership {
    const DIRECT: bool = false;
    fn new(_nblocks: usize) -> Self {
        NoOwnership
    }
    #[inline(always)]
    fn try_claim(&self, _b: usize, _tid: usize) -> Claim {
        Claim::Lost
    }
    fn reset(&self) {}
    fn footprint(&self) -> usize {
        0
    }
}

/// Lock-guarded ownership table (block-lock flavor).
struct LockOwnership {
    table: Mutex<Vec<usize>>,
}

impl Ownership for LockOwnership {
    const DIRECT: bool = true;
    fn new(nblocks: usize) -> Self {
        LockOwnership {
            table: Mutex::new(vec![UNOWNED; nblocks]),
        }
    }

    fn try_claim(&self, b: usize, tid: usize) -> Claim {
        let mut t = self.table.lock().unwrap();
        if t[b] == UNOWNED {
            t[b] = tid;
            Claim::Won
        } else if t[b] == tid {
            Claim::Retained
        } else {
            Claim::Lost
        }
    }

    fn reset(&self) {
        self.table.lock().unwrap().fill(UNOWNED);
    }

    fn footprint(&self) -> usize {
        self.table.lock().unwrap().len() * std::mem::size_of::<usize>()
    }
}

/// CAS-based ownership table (block-CAS flavor). Every ownership word
/// sits on its own cache line: threads race CASes on *different* blocks
/// during first-touch storms, and packed words would false-share.
struct CasOwnership {
    table: Vec<CachePadded<AtomicUsize>>,
}

impl Ownership for CasOwnership {
    const DIRECT: bool = true;
    fn new(nblocks: usize) -> Self {
        CasOwnership {
            table: (0..nblocks)
                .map(|_| CachePadded(AtomicUsize::new(UNOWNED)))
                .collect(),
        }
    }

    #[inline]
    fn try_claim(&self, b: usize, tid: usize) -> Claim {
        match self.table[b]
            .0
            .compare_exchange(UNOWNED, tid, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => Claim::Won,
            Err(cur) if cur == tid => Claim::Retained,
            Err(_) => Claim::Lost,
        }
    }

    fn reset(&self) {
        for e in &self.table {
            e.0.store(UNOWNED, Ordering::Relaxed);
        }
    }

    fn footprint(&self) -> usize {
        self.table.len() * std::mem::size_of::<CachePadded<AtomicUsize>>()
    }
}

/// A view's retained bookkeeping: one base-table entry and one optional
/// private copy per block, plus the region's footprint lists. Lives in
/// the reduction's slots between regions.
///
/// The `touched`/`dirty` lists are the sparse-epilogue index: `touched`
/// records every block the thread resolved this region (whatever the
/// outcome), `dirty` the subset with a privatized copy that received
/// contributions. They are retained through [`Reduction::finish`] — so a
/// [`RegionPlan`] can be extracted from the last region's footprint — and
/// cleared when the next region's view starts.
struct ViewScratch<T> {
    /// Per-block base table (see [`BlockView`]). Table invariant: every
    /// entry above [`LAST_SENTINEL`] points to storage covering offsets
    /// `0..=mask` of its block that belongs to this thread for the
    /// region. Only `touched` blocks hold non-null entries, and
    /// [`Reduction::finish`] nulls them again.
    table: Vec<*mut T>,
    /// Per-block handle into `arena`'s slabs (`None` = never privatized).
    blocks: Vec<Option<BlockRef<T>>>,
    /// The aligned slab storage behind `blocks`; owns the allocations, so
    /// it must outlive every handle in `blocks` (they travel together).
    arena: BlockArena<T>,
    touched: Vec<u32>,
    dirty: Vec<u32>,
}

// SAFETY: the table's pointers target the reduction's output (borrowed
// for the reduction's lifetime) or this scratch's own arena slabs; the
// region protocol on the module serializes every access to them.
unsafe impl<T: Send> Send for ViewScratch<T> {}

impl<T: Element> ViewScratch<T> {
    /// Bookkeeping bytes per block: one table entry and one copy handle.
    const BYTES_PER_BLOCK: usize =
        std::mem::size_of::<*mut T>() + std::mem::size_of::<Option<BlockRef<T>>>();

    /// Nulls the entries of the last region's touched blocks. Scratch
    /// leaving its reduction passes `refill = Some(block_size)`: a copy
    /// still live then belongs to a region that unwound before its merge
    /// epilogue, and is refilled with the identity first, because the
    /// next region treats every held copy as identity. After a normal
    /// `finish` no entry is live, so nothing is refilled.
    fn reset_table<O: ReduceOp<T>>(&mut self, refill: Option<usize>) {
        for &b in &self.touched {
            let b = b as usize;
            if let (Some(n), Some(blk)) = (refill, self.live_copy(b)) {
                // SAFETY: copies are allocated at the full block size,
                // and no region is active, so the copy is ours alone.
                unsafe { kernels::refill_into::<T, O>(blk.as_ptr(), n) };
            }
            self.table[b] = std::ptr::null_mut();
        }
    }

    /// Block `b`'s private copy if it received this region's
    /// contributions — its table entry is the copy itself. An untouched
    /// retained copy stays identity and needs no merge.
    fn live_copy(&self, b: usize) -> Option<BlockRef<T>> {
        self.blocks[b].filter(|blk| std::ptr::eq(self.table[b], blk.as_ptr()))
    }
}

/// Detached block-reducer scratch (ownership table + per-thread view
/// bookkeeping), produced by [`BlockReduction::into_scratch`] and consumed
/// by [`BlockReduction::from_scratch`]. Lets iterative solvers that rebind
/// the output array every iteration carry the allocations across regions.
pub struct BlockScratch<T, W> {
    owners: W,
    per_thread: Vec<Option<ViewScratch<T>>>,
    block_size: usize,
    len: usize,
    flavor: &'static str,
}

/// Generic block reducer; use the [`BlockPrivateReduction`],
/// [`BlockLockReduction`] or [`BlockCasReduction`] aliases.
pub struct BlockReduction<'a, T: Element, O: ReduceOp<T>, W: Ownership> {
    out: SharedSlice<T>,
    /// `log2(block_size)`; the block size is always a power of two.
    shift: u32,
    /// `block_size - 1`.
    mask: usize,
    nblocks: usize,
    owners: W,
    slots: Slots<ViewScratch<T>>,
    nthreads: usize,
    mem: MemCounter,
    telem: TelemetryBoard,
    flavor: &'static str,
    /// Installed region plan; replayed regions skip ownership claims.
    plan: Option<Arc<RegionPlan>>,
    /// Sticky flag: some view touched a block outside the installed plan.
    /// The executor reads it after the region to decide on a rebuild; it
    /// is never reset because the executor builds a fresh reduction (over
    /// retained scratch) per region.
    deviated: AtomicBool,
    _borrow: PhantomData<&'a mut [T]>,
    _op: PhantomData<O>,
}

/// Lazy per-thread block privatization (no direct ownership).
pub type BlockPrivateReduction<'a, T, O> = BlockReduction<'a, T, O, NoOwnershipSeal>;
/// Direct block ownership acquired under a lock, privatization fallback.
pub type BlockLockReduction<'a, T, O> = BlockReduction<'a, T, O, LockOwnershipSeal>;
/// Direct block ownership acquired by CAS, privatization fallback.
pub type BlockCasReduction<'a, T, O> = BlockReduction<'a, T, O, CasOwnershipSeal>;

/// Detached scratch of a [`BlockPrivateReduction`].
pub type BlockPrivateScratch<T> = BlockScratch<T, NoOwnershipSeal>;
/// Detached scratch of a [`BlockLockReduction`].
pub type BlockLockScratch<T> = BlockScratch<T, LockOwnershipSeal>;
/// Detached scratch of a [`BlockCasReduction`].
pub type BlockCasScratch<T> = BlockScratch<T, CasOwnershipSeal>;

// Public seals so the aliases can be named without exposing the Ownership
// trait itself.
#[doc(hidden)]
pub struct NoOwnershipSeal(NoOwnership);
#[doc(hidden)]
pub struct LockOwnershipSeal(LockOwnership);
#[doc(hidden)]
pub struct CasOwnershipSeal(CasOwnership);

macro_rules! impl_seal {
    ($seal:ident, $inner:ty) => {
        impl Ownership for $seal {
            const DIRECT: bool = <$inner>::DIRECT;
            fn new(nblocks: usize) -> Self {
                $seal(<$inner>::new(nblocks))
            }
            #[inline(always)]
            fn try_claim(&self, b: usize, tid: usize) -> Claim {
                self.0.try_claim(b, tid)
            }
            fn reset(&self) {
                self.0.reset()
            }
            fn footprint(&self) -> usize {
                self.0.footprint()
            }
        }
    };
}
impl_seal!(NoOwnershipSeal, NoOwnership);
impl_seal!(LockOwnershipSeal, LockOwnership);
impl_seal!(CasOwnershipSeal, CasOwnership);

/// **Deliberately broken** ownership used only by the verification
/// harness: block-CAS with the CAS dropped. `try_claim` does a plain
/// load / perturb / store — two threads can both observe `UNOWNED` (or
/// each other's claim) and both walk away believing they own the block,
/// after which their direct writes race on `out` and drop updates. The
/// schedule fuzzer must catch this within its seed budget; it proves the
/// harness can see the exact class of bug the real protocol prevents.
#[cfg(feature = "verify")]
#[doc(hidden)]
pub struct BrokenCasOwnershipSeal(CasOwnership);

#[cfg(feature = "verify")]
impl Ownership for BrokenCasOwnershipSeal {
    const DIRECT: bool = true;
    fn new(nblocks: usize) -> Self {
        BrokenCasOwnershipSeal(CasOwnership::new(nblocks))
    }
    fn try_claim(&self, b: usize, tid: usize) -> Claim {
        let cur = self.0.table[b].0.load(Ordering::Relaxed);
        // The bug: the check and the store are separate steps, and the
        // perturbation point invites a context switch between them.
        ompsim::verify::perturb_idx(ompsim::verify::HookPoint::OwnershipClaim, b as u64);
        if cur == tid {
            Claim::Retained
        } else {
            // Steals occupied blocks too — a second thread that raced the
            // claim window "wins" alongside the first.
            self.0.table[b].0.store(tid, Ordering::Relaxed);
            Claim::Won
        }
    }
    fn reset(&self) {
        self.0.reset()
    }
    fn footprint(&self) -> usize {
        self.0.footprint()
    }
}

/// Verification-only reduction over the broken ownership above. Never
/// use outside the fuzz harness.
#[cfg(feature = "verify")]
#[doc(hidden)]
pub type BlockBrokenCasReduction<'a, T, O> = BlockReduction<'a, T, O, BrokenCasOwnershipSeal>;

#[cfg(feature = "verify")]
impl<'a, T: Element, O: ReduceOp<T>> BlockBrokenCasReduction<'a, T, O> {
    /// Constructs the planted-bug reduction (verification harness only).
    pub fn new(out: &'a mut [T], nthreads: usize, block_size: usize) -> Self {
        Self::with_flavor(out, nthreads, block_size, "block-brokenCAS")
    }
}

impl<'a, T: Element, O: ReduceOp<T>, W: Ownership> BlockReduction<'a, T, O, W> {
    fn with_flavor(
        out: &'a mut [T],
        nthreads: usize,
        block_size: usize,
        flavor: &'static str,
    ) -> Self {
        assert!(nthreads > 0);
        assert!(block_size > 0, "block size must be > 0");
        // Round up so in-block indexing is shift/mask, not div/mod.
        let block_size = block_size.next_power_of_two();
        let len = out.len();
        let nblocks = len.div_ceil(block_size);
        BlockReduction {
            out: SharedSlice::new(out),
            shift: block_size.trailing_zeros(),
            mask: block_size - 1,
            nblocks,
            owners: W::new(nblocks),
            slots: Slots::new(nthreads),
            nthreads,
            mem: MemCounter::new(),
            telem: TelemetryBoard::new(nthreads),
            flavor,
            plan: None,
            deviated: AtomicBool::new(false),
            _borrow: PhantomData,
            _op: PhantomData,
        }
    }

    /// The effective block size (requested size rounded up to a power of
    /// two).
    #[inline]
    pub fn block_size(&self) -> usize {
        1usize << self.shift
    }

    /// Block `b`'s range in the array (the last block may be short).
    #[inline]
    fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        let lo = b << self.shift;
        lo..((lo + self.block_size()).min(self.out.len()))
    }

    /// Folds `blk`, a private copy of block `b`, into the output and
    /// refills it with the identity; returns the elements merged. The
    /// merge step of both epilogue walks.
    ///
    /// # Safety
    /// After the team barrier, by block `b`'s one merger this region:
    /// nothing else writes the block in `out`, and `blk`'s thread stopped
    /// writing the copy at the barrier.
    unsafe fn merge_copy(&self, b: usize, blk: BlockRef<T>) -> u64 {
        let range = self.block_range(b);
        // SAFETY: per the contract; copies hold a full block, so
        // `range.len()` elements are in bounds of both. The fused kernel
        // refills the copy in the same pass over its bytes.
        #[cfg(not(feature = "verify"))]
        unsafe {
            kernels::merge_refill_into::<T, O>(
                self.out.as_mut_ptr().add(range.start),
                blk.as_ptr(),
                range.len(),
            );
        }
        // Verify builds keep the seed's per-element combine (each element
        // is a perturbation hook site) and refill separately — refilling
        // has no hooks.
        #[cfg(feature = "verify")]
        unsafe {
            let s = blk.as_slice(range.len());
            for (off, i) in range.clone().enumerate() {
                self.out.combine::<O>(i, s[off]);
            }
            kernels::refill_into::<T, O>(blk.as_ptr(), range.len());
        }
        range.len() as u64
    }

    /// Detaches the retained scratch (run [`Reduction::finish`] first,
    /// which the drivers do automatically) so it can be re-attached to a
    /// reduction over another array with [`BlockReduction::from_scratch`].
    pub fn into_scratch(self) -> BlockScratch<T, W> {
        BlockScratch {
            per_thread: (0..self.nthreads)
                .map(|t| {
                    // SAFETY: `self` is owned; no region is active.
                    let mut s = unsafe { self.slots.take(t) };
                    // A region that unwound skipped `finish`: no entry may
                    // outlive the array it points into, and no copy may
                    // carry its contributions into the next region.
                    if let Some(s) = &mut s {
                        s.reset_table::<O>(Some(self.block_size()));
                    }
                    s
                })
                .collect(),
            owners: self.owners,
            block_size: 1usize << self.shift,
            len: self.out.len(),
            flavor: self.flavor,
        }
    }

    /// Rebuilds a reduction over `out` reusing `scratch`'s allocations.
    ///
    /// The scratch must come from a reduction of the same flavor. If its
    /// shape does not match (different effective block size, array length
    /// or team width), it is dropped and the reduction starts fresh —
    /// still correct, just re-allocating.
    pub fn from_scratch(
        out: &'a mut [T],
        nthreads: usize,
        block_size: usize,
        scratch: BlockScratch<T, W>,
    ) -> Self {
        let mut red = Self::with_flavor(out, nthreads, block_size, scratch.flavor);
        let matches = scratch.block_size == red.block_size()
            && scratch.len == red.out.len()
            && scratch.per_thread.len() == nthreads;
        if matches {
            red.owners = scratch.owners;
            for (t, s) in scratch.per_thread.into_iter().enumerate() {
                if let Some(s) = s {
                    // Carried allocations count toward this reduction's
                    // footprint — `memory_overhead` stays comparable to a
                    // fresh region's.
                    red.mem
                        .add(s.table.len() * ViewScratch::<T>::BYTES_PER_BLOCK);
                    red.mem.add(
                        s.blocks.iter().flatten().count()
                            * red.block_size()
                            * std::mem::size_of::<T>(),
                    );
                    // SAFETY: `red` is freshly built; no region is active.
                    unsafe { red.slots.put(t, s) };
                }
            }
        }
        red
    }

    /// Installs a [`RegionPlan`] for the next region. Returns `false`
    /// (plan rejected, region runs unplanned) if the plan's shape — array
    /// length, team width, effective block size — does not match.
    ///
    /// Planned regions never touch the ownership table: exclusive blocks
    /// are pre-marked for direct writes, shared blocks are privatized up
    /// front, and any block *outside* the plan privatizes (never claims)
    /// and raises the deviation flag, so a stale plan degrades to the
    /// dirty-list epilogue instead of racing a planned direct owner.
    pub fn install_plan(&mut self, plan: Arc<RegionPlan>) -> bool {
        if plan.matches_block(self.out.len(), self.nthreads, self.block_size()) {
            self.plan = Some(plan);
            true
        } else {
            false
        }
    }

    /// Whether the last region touched blocks outside the installed plan
    /// (always `false` when no plan is installed). Sticky for the lifetime
    /// of this reduction object; see the field docs.
    pub fn plan_deviated(&self) -> bool {
        self.deviated.load(Ordering::Relaxed)
    }

    /// Builds a [`RegionPlan`] from the last region's recorded footprint
    /// (the per-thread touched-block lists the sparse epilogue keeps).
    /// Call between regions; `&mut self` guarantees no region is active.
    /// After a planned region the footprint includes the plan's own blocks
    /// plus any deviations, so rebuilding on deviation is self-healing.
    pub fn extract_plan(&mut self) -> RegionPlan {
        let touched: Vec<Vec<u32>> = (0..self.nthreads)
            // SAFETY: `&mut self` — no region is active, slots are ours.
            .map(|t| unsafe { self.slots.get(t) }.map_or(Vec::new(), |s| s.touched.clone()))
            .collect();
        RegionPlan::for_blocks(self.out.len(), self.nthreads, self.block_size(), &touched)
    }
}

impl<'a, T: Element, O: ReduceOp<T>> BlockPrivateReduction<'a, T, O> {
    /// Wraps `out` with lazily privatized blocks of `block_size` elements
    /// (rounded up to a power of two).
    pub fn new(out: &'a mut [T], nthreads: usize, block_size: usize) -> Self {
        Self::with_flavor(out, nthreads, block_size, "block-private")
    }
}

impl<'a, T: Element, O: ReduceOp<T>> BlockLockReduction<'a, T, O> {
    /// Wraps `out` with lock-claimed direct block ownership
    /// (`block_size` rounded up to a power of two).
    pub fn new(out: &'a mut [T], nthreads: usize, block_size: usize) -> Self {
        Self::with_flavor(out, nthreads, block_size, "block-lock")
    }
}

impl<'a, T: Element, O: ReduceOp<T>> BlockCasReduction<'a, T, O> {
    /// Wraps `out` with CAS-claimed direct block ownership
    /// (`block_size` rounded up to a power of two).
    ///
    /// ```
    /// use spray::{reduce, BlockCasReduction, ReducerView, Reduction, Sum};
    /// use ompsim::{Schedule, ThreadPool};
    ///
    /// let pool = ThreadPool::new(2);
    /// let mut out = vec![0.0f64; 4096];
    /// let red = BlockCasReduction::<f64, Sum>::new(&mut out, 2, 256);
    /// reduce(&pool, &red, 0..4096, Schedule::default(), |v, i| {
    ///     v.apply(i, 2.0);
    /// });
    /// // Disjoint static chunks: every block is direct-owned, so no
    /// // private copies were allocated (bookkeeping only).
    /// assert!(red.memory_overhead() < 4096);
    /// drop(red);
    /// assert!(out.iter().all(|&x| x == 2.0));
    /// ```
    pub fn new(out: &'a mut [T], nthreads: usize, block_size: usize) -> Self {
        Self::with_flavor(out, nthreads, block_size, "block-CAS")
    }
}

/// Per-thread view for all block flavors.
///
/// `apply(i, v)` first tests the replay's run window (one subtract, one
/// compare, then the combine; see the module docs). Outside it, the apply
/// is `i >> shift`, one load from the per-block base table, one branch
/// and the combine; only an unresolved entry (a sentinel) takes the slow
/// path. Split in two on purpose: the window, the table and the
/// shift/mask stay direct, everything else lives in an inner core struct,
/// and the slow path borrows **only** `self.core` plus the table's
/// contents, never the hot fields themselves.
///
/// The view's own address escapes (into [`Reduction::view`]'s return
/// slot and [`Reduction::stash`]), so a loop calling
/// [`apply`](ReducerView::apply) on it reloads the hot fields on every
/// update; [`ReducerView::run_chunk`] runs a [`Kernel`] chunk on a
/// by-value copy of them instead (see the module docs). Apply *counting*
/// never lives in the view: a view-resident counter is a loop-carried
/// load-add-store chain whose store-forwarding latency rivals the whole
/// fast path; the drivers count per chunk and credit the total via
/// [`Reduction::record_applies`].
pub struct BlockView<T, O, W> {
    /// This replay's run of private copies ([`Window::NONE`] elsewhere).
    win: Window<T>,
    /// One entry per block: a storage base or a sentinel (see
    /// [`ViewScratch::table`] for the invariant). Retained across
    /// regions with the rest of the scratch; its length never changes
    /// during a region.
    table: Vec<*mut T>,
    /// `log2(block_size)`.
    shift: u32,
    /// `block_size - 1`.
    mask: usize,
    core: ViewCore<T, O, W>,
}

/// A replay's run of private copies addressed without the base table:
/// `out[i]` of this thread lives at `base[i - start]` whenever
/// `i - start < len` (wrapping). Invariant: `base..base + len` are the
/// private copies of the run's blocks, back to back in block order, each
/// also the block's table entry, and `start + len` is at most the array
/// length.
#[derive(Clone, Copy)]
struct Window<T> {
    base: *mut T,
    start: usize,
    len: usize,
}

impl<T> Window<T> {
    /// The empty window: every apply takes the table path.
    const NONE: Self = Window {
        base: std::ptr::null_mut(),
        start: 0,
        len: 0,
    };
}

/// The part of a [`BlockView`] whose address escapes into the slow path;
/// see the view's docs for why the hot fields stay outside.
struct ViewCore<T, O, W> {
    out: SharedSlice<T>,
    /// Borrow of the parent reduction's ownership table; valid for the
    /// region because the driver keeps the reduction alive and pinned.
    owners: *const W,
    blocks: Vec<Option<BlockRef<T>>>,
    /// Aligned slab storage behind `blocks` (see [`ViewScratch`]).
    arena: BlockArena<T>,
    shift: u32,
    mask: usize,
    len: usize,
    tid: usize,
    /// Private-copy bytes gained this region: new privatizations, and a
    /// relaid run's copies.
    allocated_bytes: usize,
    /// Private-copy bytes a run layout dropped this region.
    released_bytes: usize,
    /// Blocks resolved this region (footprint; drives plan extraction).
    touched: Vec<u32>,
    /// Blocks privatized this region (drives the sparse epilogue/finish).
    dirty: Vec<u32>,
    /// Replaying an installed plan: `resolve` must not claim ownership.
    planned: bool,
    /// This view touched a block outside its plan.
    deviated: bool,
    /// Cold-path event counters (touched only on first touches).
    counters: Counters,
    _op: PhantomData<O>,
}

impl<T: Element, O: ReduceOp<T>, W: Ownership> ViewCore<T, O, W> {
    /// Any update whose table entry is not a storage base: first touch,
    /// a direct-owned partial trailing block, or a block past the array.
    ///
    /// This is the release-mode bounds check: the full index assert runs
    /// here, so `table[b]` never sees a block past the array, and the
    /// fast path only accepts offsets inside a block's (valid) storage.
    ///
    /// Kept out of line, and deliberately not `#[cold]` (scatters that
    /// touch many blocks take this path once per block and region, and
    /// a size-optimized body regressed them). Left to itself, LLVM
    /// inlines this body into every chunk loop, and those loops ran
    /// slower although their fast path was unchanged (2-vCPU Xeon host):
    /// perfbench tmv-debr's `step_s.p50` read 2.71 ms against 2.61 ms out
    /// of line, and `apply_overhead`'s cached rows 1.26–1.52 ns (stream)
    /// and 1.50–1.56 ns (random) per apply against 1.09 ns and
    /// 1.34–1.40 ns. The fast path weights its branch to here with
    /// [`unlikely`].
    #[inline(never)]
    fn apply_slow(&mut self, table: &mut [*mut T], i: usize, v: T) {
        assert!(
            i < self.len,
            "reduction index {i} out of bounds (len {})",
            self.len
        );
        self.apply_entry(table, i >> self.shift, i, i & self.mask, v);
    }

    /// The legacy `apply` path, kept as the `apply_overhead` baseline:
    /// full bounds assert, table lookup and hardware div/mod on every
    /// update.
    fn apply_uncached(&mut self, table: &mut [*mut T], i: usize, v: T) {
        assert!(
            i < self.len,
            "reduction index {i} out of bounds (len {})",
            self.len
        );
        // Runtime-valued divisor: the compiler cannot prove it is a power
        // of two, so this costs a hardware divide — exactly what the
        // legacy generic-block-size path paid.
        let bs = self.mask + 1;
        self.apply_entry(table, i / bs, i, i % bs, v);
    }

    /// Services `out[i] ⊕= v` through block `b`'s table entry, resolving
    /// the block first if this region has not touched it; `off` is `i`'s
    /// offset in the block. The caller has checked `i < len`.
    #[inline(always)]
    fn apply_entry(&mut self, table: &mut [*mut T], b: usize, i: usize, off: usize, v: T) {
        let mut e = table[b];
        if e as usize == UNKNOWN {
            e = self.resolve(table, b);
        }
        match e as usize {
            // SAFETY: this thread exclusively owns block `b` of `out`
            // during the loop phase (ownership protocol), and `i < len`.
            PARTIAL_DIRECT => unsafe { self.out.combine::<O>(i, v) },
            // SAFETY: table invariant — a non-sentinel entry covers
            // offsets `0..=mask` of block `b` and belongs to this thread
            // for the region; `off <= mask`.
            _ => unsafe { combine_at::<T, O>(e.add(off), i, v) },
        }
    }

    /// Block `b`'s table entry for a direct-owned block: the block's base
    /// in `out` when it lies wholly inside the array, so every masked
    /// offset stays in bounds; otherwise [`PARTIAL_DIRECT`].
    fn direct_entry(&self, b: usize) -> *mut T {
        let lo = b << self.shift;
        if lo + self.mask < self.len {
            // SAFETY: `lo + mask < len`, so the offset is inside `out`.
            unsafe { self.out.as_mut_ptr().add(lo) }
        } else {
            PARTIAL_DIRECT as *mut T
        }
    }

    /// Block `b`'s private copy: the one retained from an earlier region
    /// (already identity-filled by the fused merge epilogue), or a fresh
    /// one carved out of the thread's aligned arena at the full
    /// (power-of-two) length even for the trailing partial block — that
    /// keeps the table invariant and costs at most one block of slack.
    /// The arena refills the slot in place (no construct-then-copy) and
    /// only allocates when a slab fills, so privatizing `k` blocks costs
    /// `O(log k)` heap allocations, not `k`.
    fn private_copy(&mut self, b: usize) -> BlockRef<T> {
        match self.blocks[b] {
            Some(blk) => blk,
            None => {
                let blk = self.arena.alloc_identity::<O>();
                self.blocks[b] = Some(blk);
                self.allocated_bytes += (self.mask + 1) * std::mem::size_of::<T>();
                blk
            }
        }
    }

    /// The window over this thread's planned run of private copies, blocks
    /// `lo..hi`. Lays the copies out back to back in one slab first,
    /// unless an earlier replay already did; the layout keeps no copy of
    /// a block outside the run (every held copy is identity between
    /// regions, so nothing is lost).
    fn run_window(&mut self, lo: usize, hi: usize) -> Window<T> {
        let stride = self.mask + 1;
        let laid_out = |first: BlockRef<T>| {
            (lo..hi).all(|b| {
                self.blocks[b].is_some_and(|blk| {
                    blk.as_ptr() == first.as_ptr().wrapping_add((b - lo) * stride)
                })
            })
        };
        let first = match self.blocks[lo] {
            Some(first) if laid_out(first) => first,
            _ => {
                let copy_bytes = stride * std::mem::size_of::<T>();
                self.released_bytes += self.blocks.iter().flatten().count() * copy_bytes;
                self.allocated_bytes += (hi - lo) * copy_bytes;
                self.blocks.fill(None);
                for (b, slot) in (lo..hi).zip(self.arena.lay_out_run::<O>(hi - lo)) {
                    self.blocks[b] = Some(slot);
                }
                self.blocks[lo].expect("the run was just laid out")
            }
        };
        let start = lo << self.shift;
        Window {
            base: first.as_ptr(),
            start,
            len: (hi << self.shift).min(self.len) - start,
        }
    }

    /// First touch of block `b` by this thread.
    ///
    /// In planned mode this only runs for blocks *outside* the plan (the
    /// plan pre-resolves its own blocks): the deviation privatizes — never
    /// claims, so it cannot race a planned direct owner — and raises the
    /// deviation flag so the epilogue falls back to the dirty lists and
    /// the executor rebuilds the plan.
    #[cold]
    fn resolve(&mut self, table: &mut [*mut T], b: usize) -> *mut T {
        self.counters.block_first_touches += 1;
        ompsim::verify::perturb_idx(ompsim::verify::HookPoint::OwnershipClaim, b as u64);
        let claim = if self.planned {
            self.deviated = true;
            Claim::Lost
        } else {
            // SAFETY: the parent reduction outlives the view (driver
            // contract).
            unsafe { &*self.owners }.try_claim(b, self.tid)
        };
        let e = match claim {
            Claim::Won | Claim::Retained => self.direct_entry(b),
            Claim::Lost => {
                if W::DIRECT && !self.planned {
                    // Lost to another thread — contention. The
                    // block-private flavor loses every claim by design
                    // (`DIRECT == false`) and records privatizations only.
                    self.counters.ownership_conflicts += 1;
                }
                self.counters.fallback_privatizations += 1;
                self.dirty.push(b as u32);
                self.private_copy(b).as_ptr()
            }
        };
        self.touched.push(b as u32);
        table[b] = e;
        e
    }
}

/// `*p = O::combine(*p, v)` for logical index `i`. Under `verify` the
/// read-modify-write is split around a `SharedWrite` perturbation point
/// (see `SharedSlice::combine`): the target may be the shared output
/// array.
///
/// # Safety
/// `p` is valid for reads and writes, and no other thread accesses it
/// during the loop phase.
#[inline(always)]
unsafe fn combine_at<T: Element, O: ReduceOp<T>>(p: *mut T, i: usize, v: T) {
    #[cfg(feature = "verify")]
    {
        let cur = *p;
        ompsim::verify::perturb_idx(ompsim::verify::HookPoint::SharedWrite, i as u64);
        *p = O::combine(cur, v);
    }
    #[cfg(not(feature = "verify"))]
    {
        let _ = i;
        *p = O::combine(*p, v);
    }
}

impl<T: Element, O: ReduceOp<T>, W: Ownership> BlockView<T, O, W> {
    /// The legacy `apply` path. Kept (hidden) as the in-harness baseline
    /// for the `apply_overhead` microbenchmark so the fast path's gain is
    /// measured against the real legacy cost, not a reconstruction. Not
    /// part of the public API, and left uncounted.
    #[doc(hidden)]
    pub fn apply_uncached(&mut self, i: usize, v: T) {
        self.core.apply_uncached(&mut self.table, i, v);
    }
}

/// `out[i] ⊕= v` for a view: into the run window when `WINDOW` is set and
/// `i` falls inside it; otherwise through the base table, `i >> shift`,
/// one table load, one branch and the combine when the entry is a
/// storage base; anything else goes to `core`'s slow path. The one fast
/// path of both [`BlockView::apply`](ReducerView::apply) and
/// [`ChunkView`]'s.
#[inline(always)]
fn apply_fast<const WINDOW: bool, T: Element, O: ReduceOp<T>, W: Ownership>(
    win: Window<T>,
    table: &mut [*mut T],
    shift: u32,
    mask: usize,
    core: &mut ViewCore<T, O, W>,
    i: usize,
    v: T,
) {
    debug_assert!(i < core.len, "reduction index {i} out of bounds");
    let k = i.wrapping_sub(win.start);
    if WINDOW && k < win.len {
        // SAFETY: window invariant — `base..base + len` is this thread's
        // private storage for the region, and `k < len`.
        return unsafe { combine_at::<T, O>(win.base.add(k), i, v) };
    }
    match table.get(i >> shift) {
        // SAFETY: table invariant — a non-sentinel entry covers offsets
        // `0..=mask` of its block and belongs to this thread for the
        // region.
        Some(&e) if e as usize > LAST_SENTINEL => unsafe {
            combine_at::<T, O>(e.add(i & mask), i, v)
        },
        _ => {
            unlikely();
            core.apply_slow(table, i, v)
        }
    }
}

/// Marks the branch that calls it as rarely taken. Inlined away, it
/// leaves only the branch weight, and that is what keeps a chunk loop's
/// hot fields in registers: the register allocator may then hold them in
/// caller-saved registers and spill them around the slow-path call only,
/// instead of reloading some from the stack on every apply.
#[cold]
#[inline]
fn unlikely() {}

impl<T: Element, O: ReduceOp<T>, W: Ownership> ReducerView<T> for BlockView<T, O, W> {
    #[inline(always)]
    fn apply(&mut self, i: usize, v: T) {
        apply_fast::<true, _, _, _>(
            self.win,
            &mut self.table,
            self.shift,
            self.mask,
            &mut self.core,
            i,
            v,
        );
    }

    /// Runs the chunk on a [`ChunkView`] over this view's fields. A view
    /// without a window gets a handle without the window test, so its
    /// loop is the table path alone.
    #[inline]
    fn run_chunk<K: Kernel<T>>(&mut self, kernel: &K, chunk: Range<usize>) -> u64 {
        if self.win.len == 0 {
            self.run_chunk_on::<false, K>(kernel, chunk)
        } else {
            self.run_chunk_on::<true, K>(kernel, chunk)
        }
    }
}

impl<T: Element, O: ReduceOp<T>, W: Ownership> BlockView<T, O, W> {
    /// [`ReducerView::run_chunk`] on a handle with (`WINDOW`) or without
    /// the window test.
    #[inline(always)]
    fn run_chunk_on<const WINDOW: bool, K: Kernel<T>>(
        &mut self,
        kernel: &K,
        chunk: Range<usize>,
    ) -> u64 {
        let mut handle = ChunkView::<T, O, W, WINDOW> {
            win: self.win,
            table: &mut self.table,
            shift: self.shift,
            mask: self.mask,
            applies: 0,
            core: &mut self.core,
        };
        for i in chunk {
            kernel.item(&mut handle, i);
        }
        handle.applies
    }
}

/// A [`BlockView`]'s hot fields copied by value for one schedule chunk
/// of a [`Kernel`] region: the run window, the table pointer and length,
/// shift, mask and the chunk's apply count. The kernel receives it by
/// reference, but once its body is inlined into the chunk loop nothing
/// takes the handle's address — the slow path receives the table slice
/// and the [`ViewCore`], never the handle — so every field stays in a
/// register and an apply costs the window test when `WINDOW` is set
/// (and, outside the window, the table load) and the combine, with no
/// store besides the combine's.
struct ChunkView<'v, T, O, W, const WINDOW: bool> {
    win: Window<T>,
    table: &'v mut [*mut T],
    shift: u32,
    mask: usize,
    applies: u64,
    core: &'v mut ViewCore<T, O, W>,
}

impl<T: Element, O: ReduceOp<T>, W: Ownership, const WINDOW: bool> ReducerView<T>
    for ChunkView<'_, T, O, W, WINDOW>
{
    #[inline(always)]
    fn apply(&mut self, i: usize, v: T) {
        self.applies += 1;
        apply_fast::<WINDOW, _, _, _>(self.win, self.table, self.shift, self.mask, self.core, i, v);
    }
}

impl<T: Element, O: ReduceOp<T>, W: Ownership> Reduction<T> for BlockReduction<'_, T, O, W> {
    type View = BlockView<T, O, W>;

    fn view(&self, tid: usize) -> Self::View {
        // SAFETY: slot `tid` is touched only by thread `tid` pre-barrier.
        let scratch = match unsafe { self.slots.take(tid) } {
            // Scratch retained by `finish` from an earlier region: already
            // reset (table entries unknown, private copies identity-filled
            // by the merge epilogue). The footprint lists still hold the
            // *previous* region's record (kept for plan extraction); they
            // restart empty here.
            Some(s) => s,
            None => {
                // Only bookkeeping is allocated here (the paper's cheap
                // `init`): one null table entry and one empty option per
                // block. The arena itself starts slab-less; its first slab
                // is carved on the first fallback privatization.
                self.mem
                    .add(self.nblocks * ViewScratch::<T>::BYTES_PER_BLOCK);
                ViewScratch {
                    table: vec![std::ptr::null_mut(); self.nblocks],
                    blocks: (0..self.nblocks).map(|_| None).collect(),
                    // A view privatizes each block at most once.
                    arena: BlockArena::new(self.mask + 1).capped(self.nblocks),
                    touched: Vec::new(),
                    dirty: Vec::new(),
                }
            }
        };
        let ViewScratch {
            mut table,
            blocks,
            arena,
            mut touched,
            mut dirty,
        } = scratch;
        touched.clear();
        dirty.clear();
        let mut core = ViewCore {
            out: self.out,
            owners: &self.owners,
            blocks,
            arena,
            shift: self.shift,
            mask: self.mask,
            len: self.out.len(),
            tid,
            allocated_bytes: 0,
            released_bytes: 0,
            touched,
            dirty,
            planned: self.plan.is_some(),
            deviated: false,
            counters: Counters::default(),
            _op: PhantomData,
        };
        // Replay: fill the table from the plan so the loop phase never
        // claims ownership — exclusive blocks write straight into `out`,
        // shared blocks go to (pre-allocated) private copies. Blocks the
        // plan lists but the region never touches stay identity/unwritten
        // and merge as no-ops. Shared blocks that form one contiguous run
        // get the window, laid out before the copies are seeded, when they
        // are at least half of the thread's planned blocks: with fewer,
        // most applies would miss the window and pay its test on top of
        // the table path.
        let mut win = Window::NONE;
        if let Some(plan) = self.plan.as_deref() {
            if let Some(tb) = plan.thread_blocks(tid) {
                for &b in &tb.exclusive {
                    table[b as usize] = core.direct_entry(b as usize);
                    core.touched.push(b);
                }
                if let (Some(&lo), Some(&last)) = (tb.shared.first(), tb.shared.last()) {
                    let (lo, hi) = (lo as usize, last as usize + 1);
                    // Sorted and unique: a run exactly when it has no gap.
                    if hi - lo == tb.shared.len()
                        && tb.shared.len() >= tb.exclusive.len()
                        && core.arena.slots_are_contiguous()
                    {
                        win = core.run_window(lo, hi);
                    }
                }
                for &b in &tb.shared {
                    table[b as usize] = core.private_copy(b as usize).as_ptr();
                    core.touched.push(b);
                    core.dirty.push(b);
                }
            }
        }
        BlockView {
            win,
            table,
            shift: self.shift,
            mask: self.mask,
            core,
        }
    }

    fn stash(&self, tid: usize, view: Self::View) {
        // `allocated_bytes` counts only copies gained this region;
        // retained ones are still accounted from their region.
        self.mem.sub(view.core.released_bytes);
        self.mem.add(view.core.allocated_bytes);
        self.telem.record(tid, &view.core.counters);
        if view.core.deviated {
            self.deviated.store(true, Ordering::Relaxed);
        }
        // SAFETY: slot `tid` is written only by thread `tid`, pre-barrier.
        unsafe {
            self.slots.put(
                tid,
                ViewScratch {
                    table: view.table,
                    blocks: view.core.blocks,
                    arena: view.core.arena,
                    touched: view.core.touched,
                    dirty: view.core.dirty,
                },
            )
        };
    }

    fn epilogue(&self, tid: usize) {
        // Sparse merge: visit only `(thread, block)` pairs that privatized
        // a copy this region, instead of probing all nblocks × nthreads
        // slots. With a clean plan the schedule is the plan's (balanced by
        // copy count); otherwise each thread walks the team's dirty lists
        // and merges the blocks it owns (`b % nthreads == tid`, the same
        // assignment the dense probe used). Either way, for a fixed block
        // the contributions merge in ascending thread order, matching the
        // dense strategy's order.
        let mut merged_elems = 0u64;
        let clean_plan = self
            .plan
            .as_deref()
            .filter(|_| !self.deviated.load(Ordering::Relaxed));
        if let Some(plan) = clean_plan {
            for &b in plan.merge_list(tid) {
                let b = b as usize;
                ompsim::verify::perturb_idx(ompsim::verify::HookPoint::MergeStep, b as u64);
                for t in 0..self.nthreads {
                    // SAFETY: post-barrier, slots are read-only.
                    let Some(scratch) = (unsafe { self.slots.get(t) }) else {
                        continue;
                    };
                    // The table (reset only after the epilogue) identifies
                    // the threads holding a live copy this region; the
                    // copy handle alone would also sweep identity copies
                    // retained from earlier regions.
                    if let Some(blk) = scratch.live_copy(b) {
                        // SAFETY: the plan's schedule names this thread
                        // block `b`'s one merger.
                        merged_elems += unsafe { self.merge_copy(b, blk) };
                    }
                }
            }
        } else {
            for t in 0..self.nthreads {
                // SAFETY: post-barrier, slots are read-only.
                let Some(scratch) = (unsafe { self.slots.get(t) }) else {
                    continue;
                };
                for &b in &scratch.dirty {
                    let b = b as usize;
                    if b % self.nthreads != tid {
                        continue;
                    }
                    ompsim::verify::perturb_idx(ompsim::verify::HookPoint::MergeStep, b as u64);
                    // SAFETY: `b % nthreads` is a pure function of `b`, so
                    // this thread is block `b`'s one merger.
                    merged_elems += unsafe { self.merge_copy(b, scratch.blocks[b].unwrap()) };
                }
            }
        }
        if merged_elems > 0 {
            self.telem
                .add_merged_bytes(tid, merged_elems * std::mem::size_of::<T>() as u64);
        }
    }

    /// Resets for the next region **without freeing**: table entries of
    /// touched blocks go back to unknown and ownership is cleared unless a plan
    /// made it moot. Dirty private copies were already refilled with the
    /// identity by the fused merge epilogue — one streaming pass instead
    /// of a merge pass here plus a refill pass there — and untouched
    /// retained copies are already identity. The footprint lists are
    /// retained so [`BlockReduction::extract_plan`] can read the region's
    /// record; the next region's views clear them. `memory_overhead` keeps
    /// reporting the peak, which further regions no longer grow.
    fn finish(&self) {
        for t in 0..self.nthreads {
            // SAFETY: single-threaded after the region.
            if let Some(mut s) = unsafe { self.slots.take(t) } {
                s.reset_table::<O>(None);
                unsafe { self.slots.put(t, s) };
            }
        }
        // Planned regions never claim, so the table is already clear.
        if self.plan.is_none() {
            self.owners.reset();
        }
    }

    fn name(&self) -> String {
        format!("{}-{}", self.flavor, self.block_size())
    }

    fn num_threads(&self) -> usize {
        self.nthreads
    }

    fn len(&self) -> usize {
        self.out.len()
    }

    fn memory_overhead(&self) -> usize {
        self.mem.peak() + self.owners.footprint()
    }

    fn telemetry(&self) -> Telemetry {
        self.telem.snapshot()
    }

    fn record_applies(&self, tid: usize, applies: u64) {
        self.telem.record(
            tid,
            &Counters {
                applies,
                ..Counters::default()
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce;
    use crate::Sum;
    use ompsim::{Schedule, ThreadPool};

    #[test]
    fn block_private_overlapping_updates() {
        let pool = ThreadPool::new(4);
        let n = 1000;
        let mut out = vec![0i64; n];
        let red = BlockPrivateReduction::<i64, Sum>::new(&mut out, 4, 64);
        reduce(&pool, &red, 0..n, Schedule::dynamic(7), |v, i| {
            v.apply(i, 1);
            v.apply((i + 1) % n, 1);
        });
        drop(red);
        assert!(out.iter().all(|&x| x == 2));
    }

    #[test]
    fn block_lock_overlapping_updates() {
        let pool = ThreadPool::new(4);
        let n = 1000;
        let mut out = vec![0i64; n];
        let red = BlockLockReduction::<i64, Sum>::new(&mut out, 4, 64);
        reduce(&pool, &red, 0..n, Schedule::dynamic(7), |v, i| {
            v.apply(i, 1);
            v.apply((i + 1) % n, 1);
        });
        drop(red);
        assert!(out.iter().all(|&x| x == 2));
    }

    #[test]
    fn block_cas_overlapping_updates() {
        let pool = ThreadPool::new(4);
        let n = 1000;
        let mut out = vec![0i64; n];
        let red = BlockCasReduction::<i64, Sum>::new(&mut out, 4, 64);
        reduce(&pool, &red, 0..n, Schedule::dynamic(7), |v, i| {
            v.apply(i, 1);
            v.apply((i + 1) % n, 1);
        });
        drop(red);
        assert!(out.iter().all(|&x| x == 2));
    }

    #[test]
    fn last_partial_block_handled() {
        let pool = ThreadPool::new(2);
        let n = 130; // not a multiple of the block size
        let mut out = vec![0i64; n];
        let red = BlockPrivateReduction::<i64, Sum>::new(&mut out, 2, 64);
        reduce(&pool, &red, 0..n, Schedule::default(), |v, i| {
            v.apply(i, 3);
        });
        drop(red);
        assert!(out.iter().all(|&x| x == 3));
    }

    #[test]
    fn last_partial_block_direct_owned() {
        // Direct ownership of a trailing short block must stay out of
        // the base table (table invariant) yet still apply correctly.
        let pool = ThreadPool::new(2);
        let n = 100; // blocks of 64 -> block 1 covers 64..100 only
        let mut out = vec![0i64; n];
        let red = BlockCasReduction::<i64, Sum>::new(&mut out, 2, 64);
        reduce(&pool, &red, 0..n, Schedule::default(), |v, i| {
            v.apply(i, 7);
        });
        drop(red);
        assert!(out.iter().all(|&x| x == 7));
    }

    /// Applies index 99, then 120, through `red` (len 100, block 64) on a
    /// one-thread pool; returns whether the region panicked.
    fn padding_apply_panics<R: Reduction<i64>>(red: &R) -> bool {
        let pool = ThreadPool::new(1);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reduce(&pool, red, 0..1, Schedule::default(), |v, _| {
                v.apply(99, 1);
                v.apply(120, 1);
            });
        }))
        .is_err()
    }

    #[test]
    fn padding_of_direct_partial_block_panics() {
        // Index 99 makes the thread the direct owner of block 1, which
        // covers 64..100 of a 128-element stride; 120 lies in its
        // padding, past the array. Debug builds catch it in the fast
        // path's `debug_assert!`; this test has teeth under `--release`,
        // where only the block-granular checks guard `out`.
        let mut out = vec![0i64; 100];
        let red = BlockLockReduction::<i64, Sum>::new(&mut out, 1, 64);
        assert!(padding_apply_panics(&red), "block-lock accepted index 120");
        let mut out = vec![0i64; 100];
        let red = BlockCasReduction::<i64, Sum>::new(&mut out, 1, 64);
        assert!(padding_apply_panics(&red), "block-CAS accepted index 120");
    }

    /// Applies every index of `.0` on each kernel iteration.
    struct ApplyAll(&'static [usize]);

    impl crate::Kernel<i64> for ApplyAll {
        fn item<V: ReducerView<i64>>(&self, view: &mut V, _: usize) {
            for &i in self.0 {
                view.apply(i, 1);
            }
        }
    }

    /// Runs [`ApplyAll`] over an output of `len` elements as a
    /// one-iteration `Kernel` region of `RegionExecutor::run` on a
    /// one-thread pool, the chunk-handle path every workload takes;
    /// returns whether the region panicked.
    fn kernel_region_panics(
        strategy: crate::Strategy,
        len: usize,
        indices: &'static [usize],
    ) -> bool {
        let pool = ThreadPool::new(1);
        let mut out = vec![0i64; len];
        let mut ex = crate::RegionExecutor::<i64, Sum>::new(strategy);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ex.run(
                &pool,
                &mut out,
                0..1,
                Schedule::default(),
                &ApplyAll(indices),
            );
        }))
        .is_err()
    }

    #[test]
    fn kernel_path_panics_on_block_past_the_end() {
        // Len 128 in blocks of 64 has two full blocks; 70 gives block 1
        // a storage base in the table (a private copy or, when owned, the
        // array itself), and 130 lies in a third block, past the table.
        // Without debug asserts only the chunk handle's table-length
        // check stops it from landing in block 1's storage.
        for strategy in [
            crate::Strategy::BlockPrivate { block_size: 64 },
            crate::Strategy::BlockLock { block_size: 64 },
            crate::Strategy::BlockCas { block_size: 64 },
        ] {
            assert!(
                kernel_region_panics(strategy, 128, &[70, 130]),
                "{} accepted index 130",
                strategy.label()
            );
        }
    }

    #[test]
    fn kernel_path_padding_of_direct_partial_block_panics() {
        // As `padding_of_direct_partial_block_panics`, through the chunk
        // handle: 99 makes the thread the direct owner of the partial
        // block 64..100, and 120 lies in its padding.
        for strategy in [
            crate::Strategy::BlockLock { block_size: 64 },
            crate::Strategy::BlockCas { block_size: 64 },
        ] {
            assert!(
                kernel_region_panics(strategy, 100, &[99, 120]),
                "{} accepted index 120",
                strategy.label()
            );
        }
    }

    /// The three block flavors at block size 64.
    const FLAVORS_64: [crate::Strategy; 3] = [
        crate::Strategy::BlockPrivate { block_size: 64 },
        crate::Strategy::BlockLock { block_size: 64 },
        crate::Strategy::BlockCas { block_size: 64 },
    ];

    /// Zeroes `out`, runs [`ApplyAll`] over `indices` as a two-iteration
    /// `Kernel` region of `run_planned` (one iteration per thread of
    /// `pool`), and checks that each index received exactly 2.
    fn planned_apply_all(
        ex: &mut crate::RegionExecutor<i64, Sum>,
        pool: &ThreadPool,
        out: &mut [i64],
        indices: &'static [usize],
    ) {
        out.fill(0);
        ex.run_planned(0, pool, out, 0..2, Schedule::default(), &ApplyAll(indices));
        for (i, &x) in out.iter().enumerate() {
            let want = if indices.contains(&i) { 2 } else { 0 };
            assert_eq!(x, want, "{}: out[{i}]", ex.strategy().label());
        }
    }

    #[test]
    fn windowed_replay_panics_on_block_past_the_end() {
        // Both threads touch both blocks of a len-100 array, so every
        // replay gives each thread the shared run of blocks 0..2 and a
        // window that ends at index 100. 130 lies in a third block,
        // outside the window and past the table; without debug asserts
        // only the table path's length check stops it.
        let pool = ThreadPool::new(2);
        for strategy in FLAVORS_64 {
            let mut out = vec![0i64; 100];
            let mut ex = crate::RegionExecutor::<i64, Sum>::new(strategy);
            for _ in 0..2 {
                planned_apply_all(&mut ex, &pool, &mut out, &[10, 90]);
            }
            assert_eq!(ex.planned_regions(), 1, "{}", strategy.label());
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let kernel = ApplyAll(&[10, 90, 130]);
                ex.run_planned(0, &pool, &mut out, 0..2, Schedule::default(), &kernel);
            }))
            .is_err();
            assert!(panicked, "{} accepted index 130", strategy.label());
        }
    }

    #[test]
    fn windowed_replay_outside_its_plan_is_exact_and_rerecords() {
        // Blocks 0 and 1 are shared (a windowed run); 250 lies in block
        // 3, outside the plan. The deviating replay privatizes it on the
        // table path, stays exact, and records a plan that covers it,
        // which the next region replays cleanly.
        let pool = ThreadPool::new(2);
        for strategy in FLAVORS_64 {
            let mut out = vec![0i64; 300];
            let mut ex = crate::RegionExecutor::<i64, Sum>::new(strategy);
            for _ in 0..2 {
                planned_apply_all(&mut ex, &pool, &mut out, &[10, 90]);
            }
            assert_eq!(ex.planned_regions(), 1, "{}", strategy.label());
            planned_apply_all(&mut ex, &pool, &mut out, &[10, 90, 250]);
            assert_eq!(ex.planned_regions(), 1, "{} deviated", strategy.label());
            let plan = ex.plan(0).expect("plan recorded");
            for t in 0..2 {
                let tb = plan.thread_blocks(t).unwrap();
                assert_eq!(tb.shared, vec![0, 1, 3], "{}", strategy.label());
            }
            planned_apply_all(&mut ex, &pool, &mut out, &[10, 90, 250]);
            assert_eq!(ex.planned_regions(), 2, "{} replays", strategy.label());
        }
    }

    #[test]
    fn first_windowed_replay_leaves_one_run_slab() {
        // 63 blocks of 64 f64 (512 bytes), the last one partial; both
        // threads touch every block, so the recording grows several
        // doubling slabs and the plan shares the whole array.
        let pool = ThreadPool::new(2);
        let n: usize = 4000;
        let run_bytes = n.div_ceil(64) * 64 * std::mem::size_of::<f64>();
        let mut out = vec![0.0f64; n];
        let mut red = BlockPrivateReduction::<f64, Sum>::new(&mut out, 2, 64);
        let body = |v: &mut crate::CountedView<'_, _>, _: usize| {
            for i in 0..n {
                v.apply(i, 1.0);
            }
        };
        let arenas = |red: &BlockPrivateReduction<'_, f64, Sum>| -> Vec<(usize, usize)> {
            (0..2)
                .map(|t| {
                    // SAFETY: no region is active.
                    let s = unsafe { red.slots.get(t) }.unwrap();
                    (s.arena.slab_count(), s.arena.slab_bytes())
                })
                .collect()
        };
        reduce(&pool, &red, 0..2, Schedule::default(), body);
        assert!(arenas(&red).iter().all(|&(slabs, _)| slabs > 1));
        let plan = red.extract_plan();
        assert!(red.install_plan(Arc::new(plan)));

        // One replay driven by hand to read the windows: the run starts
        // at 0 and the window ends at the array's end, not the padding's.
        let views: Vec<_> = (0..2).map(|t| red.view(t)).collect();
        for v in &views {
            assert_eq!((v.win.start, v.win.len), (0, n));
        }
        for (t, v) in views.into_iter().enumerate() {
            red.stash(t, v);
        }
        for t in 0..2 {
            red.epilogue(t);
        }
        red.finish();
        assert_eq!(arenas(&red), vec![(1, run_bytes); 2]);

        // Later replays find the run in place.
        reduce(&pool, &red, 0..2, Schedule::default(), body);
        assert_eq!(arenas(&red), vec![(1, run_bytes); 2]);
        assert!(!red.plan_deviated());
        drop(red);
        assert!(out.iter().all(|&x| x == 4.0));
    }

    #[test]
    fn replay_window_needs_the_run_to_be_half_the_footprint() {
        // Thread 0 touches blocks 0..=5, thread 1 blocks 5..=9: each has
        // a one-block shared run beside four or five exclusive blocks, so
        // neither replay view gets a window.
        let pool = ThreadPool::new(2);
        let mut out = vec![0i64; 640];
        let mut red = BlockPrivateReduction::<i64, Sum>::new(&mut out, 2, 64);
        let body = |v: &mut crate::CountedView<'_, _>, i: usize| {
            for b in 0..5 {
                v.apply((5 * i + b) * 64, 1);
            }
            v.apply(5 * 64 + i, 1);
        };
        reduce(&pool, &red, 0..2, Schedule::default(), body);
        let plan = red.extract_plan();
        assert_eq!(plan.shared_blocks(), 1);
        assert!(red.install_plan(Arc::new(plan)));
        let views: Vec<_> = (0..2).map(|t| red.view(t)).collect();
        for v in &views {
            assert_eq!(v.win.len, 0, "a one-block run among five blocks");
        }
        for (t, v) in views.into_iter().enumerate() {
            red.stash(t, v);
        }
        for t in 0..2 {
            red.epilogue(t);
        }
        red.finish();
        reduce(&pool, &red, 0..2, Schedule::default(), body);
        assert!(!red.plan_deviated());
        drop(red);
        // Two regions; index 320 is hit by both threads in each.
        for b in (0..10).filter(|&b| b != 5) {
            assert_eq!(out[b * 64], 2, "block {b}");
        }
        assert_eq!(out[320..323], [4, 2, 0]);
    }

    /// Iteration `i` adds `[1, 2, 3]` at `i..i + 3`.
    struct Runs;

    impl crate::Kernel<i64> for Runs {
        fn item<V: ReducerView<i64>>(&self, view: &mut V, i: usize) {
            view.apply(i, 1);
            view.apply(i + 1, 2);
            view.apply(i + 2, 3);
        }
    }

    #[test]
    fn kernel_path_runs_match_sequential_and_count_every_element() {
        // Runs of three straddle block seams (blocks of 16) and end in the
        // partial trailing block of a 100-element array, so the chunk
        // handle's applies take the table path, first touches and the
        // per-element slow path; each element counts as one apply.
        let n = 100;
        let mut want = vec![0i64; n];
        for i in 0..n - 2 {
            for (k, v) in [1, 2, 3].into_iter().enumerate() {
                want[i + k] += v;
            }
        }
        let pool = ThreadPool::new(3);
        for strategy in [
            crate::Strategy::BlockPrivate { block_size: 16 },
            crate::Strategy::BlockLock { block_size: 16 },
            crate::Strategy::BlockCas { block_size: 16 },
        ] {
            let mut out = vec![0i64; n];
            let report = crate::RegionExecutor::<i64, Sum>::new(strategy).run(
                &pool,
                &mut out,
                0..n - 2,
                Schedule::dynamic(5),
                &Runs,
            );
            assert_eq!(out, want, "{}", strategy.label());
            assert_eq!(
                report.counters.totals().applies,
                3 * (n as u64 - 2),
                "{}",
                strategy.label()
            );
        }
    }

    #[test]
    fn block_size_larger_than_array() {
        let pool = ThreadPool::new(2);
        let mut out = vec![0i64; 10];
        let red = BlockCasReduction::<i64, Sum>::new(&mut out, 2, 4096);
        reduce(&pool, &red, 0..10, Schedule::default(), |v, i| {
            v.apply(i, 1);
        });
        drop(red);
        assert!(out.iter().all(|&x| x == 1));
    }

    #[test]
    fn non_pow2_block_sizes_round_up() {
        let mut a = vec![0.0f64; 1000];
        let red = BlockPrivateReduction::<f64, Sum>::new(&mut a, 2, 100);
        assert_eq!(red.block_size(), 128);
        assert_eq!(red.name(), "block-private-128");
        drop(red);

        // Correctness with a rounded size and interleaved (non-chunk)
        // access, forcing both flavors of block resolution.
        let pool = ThreadPool::new(3);
        let n = 777;
        let mut out = vec![0i64; n];
        let red = BlockLockReduction::<i64, Sum>::new(&mut out, 3, 100);
        reduce(&pool, &red, 0..n, Schedule::dynamic(5), |v, i| {
            v.apply((i * 31) % n, 1);
        });
        drop(red);
        assert_eq!(out.iter().sum::<i64>(), n as i64);
    }

    #[test]
    fn untouched_blocks_never_materialize() {
        let pool = ThreadPool::new(2);
        let n = 1_000_000;
        let mut out = vec![0.0f64; n];
        let red = BlockPrivateReduction::<f64, Sum>::new(&mut out, 2, 1024);
        reduce(&pool, &red, 0..10, Schedule::default(), |v, i| {
            v.apply(i, 1.0);
        });
        // Only block 0 gets privatized (plus per-view bookkeeping), far
        // below the dense nthreads*n*8 bytes.
        assert!(red.memory_overhead() < 2 * n);
    }

    #[test]
    fn names_carry_block_size() {
        let mut a = vec![0.0f64; 1];
        let mut b = vec![0.0f64; 1];
        let mut c = vec![0.0f64; 1];
        assert_eq!(
            BlockPrivateReduction::<f64, Sum>::new(&mut a, 1, 256).name(),
            "block-private-256"
        );
        assert_eq!(
            BlockLockReduction::<f64, Sum>::new(&mut b, 1, 1024).name(),
            "block-lock-1024"
        );
        assert_eq!(
            BlockCasReduction::<f64, Sum>::new(&mut c, 1, 4096).name(),
            "block-CAS-4096"
        );
    }

    #[test]
    fn reusable_across_regions_with_ownership_reset() {
        let pool = ThreadPool::new(2);
        let mut out = vec![0i64; 100];
        let red = BlockCasReduction::<i64, Sum>::new(&mut out, 2, 16);
        for _ in 0..3 {
            reduce(&pool, &red, 0..100, Schedule::default(), |v, i| {
                v.apply(i, 1);
            });
        }
        drop(red);
        assert!(out.iter().all(|&x| x == 3));
    }

    #[test]
    fn repeated_regions_do_not_grow_peak_memory() {
        // finish() retains + resets scratch: region 2..n must re-use it.
        // Static schedule so each thread touches the same blocks every
        // region (dynamic chunk assignment would legitimately privatize
        // new blocks in later regions).
        let pool = ThreadPool::new(2);
        let mut out = vec![0i64; 10_000];
        let red = BlockPrivateReduction::<i64, Sum>::new(&mut out, 2, 128);
        reduce(&pool, &red, 0..10_000, Schedule::default(), |v, i| {
            v.apply(i, 1);
        });
        let peak_after_one = red.memory_overhead();
        for _ in 0..5 {
            reduce(&pool, &red, 0..10_000, Schedule::default(), |v, i| {
                v.apply(i, 1);
            });
        }
        assert_eq!(red.memory_overhead(), peak_after_one);
        drop(red);
        assert!(out.iter().all(|&x| x == 6));
    }

    #[test]
    fn scratch_detaches_and_reattaches_across_arrays() {
        // PageRank-style: the output buffer changes each region, the
        // scratch rides along.
        let pool = ThreadPool::new(3);
        let n = 500;
        let mut a = vec![0i64; n];
        let mut b = vec![0i64; n];

        let red = BlockCasReduction::<i64, Sum>::new(&mut a, 3, 32);
        reduce(&pool, &red, 0..n, Schedule::dynamic(7), |v, i| {
            v.apply((i + 1) % n, 1);
        });
        let scratch = red.into_scratch();

        let red = BlockCasReduction::<i64, Sum>::from_scratch(&mut b, 3, 32, scratch);
        reduce(&pool, &red, 0..n, Schedule::dynamic(7), |v, i| {
            v.apply((i + 1) % n, 2);
        });
        drop(red);

        assert!(a.iter().all(|&x| x == 1));
        assert!(b.iter().all(|&x| x == 2));
    }

    #[test]
    fn scratch_of_unwound_region_reattaches_cleanly() {
        // Thread 0 panics mid-loop; thread 1 has already resolved block 3
        // of `a` and stashed its view before the barrier aborts, so
        // neither the epilogue nor `finish` runs. Block-CAS claimed the
        // block in place: detaching must null its table entry, or the
        // next region over `b` would write block 3 into `a`.
        // Block-private holds the update in a private copy: detaching
        // must refill it, or the next region would fold it into `b` as if
        // the copy were the identity.
        fn unwind_then_reattach<W: Ownership>(flavor: &'static str) -> (Vec<i64>, Vec<i64>) {
            let pool = ThreadPool::new(2);
            let mut a = vec![0i64; 256];
            let mut b = vec![0i64; 256];
            let red = BlockReduction::<i64, Sum, W>::with_flavor(&mut a, 2, 64, flavor);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                reduce(&pool, &red, 0..2, Schedule::default(), |v, i| {
                    assert!(i != 0, "planted failure");
                    v.apply(200, 1);
                });
            }));
            assert!(r.is_err());
            let scratch = red.into_scratch();

            let red = BlockReduction::<i64, Sum, W>::from_scratch(&mut b, 2, 64, scratch);
            reduce(&pool, &red, 0..256, Schedule::default(), |v, i| {
                v.apply(i, 1);
            });
            drop(red);
            (a, b)
        }

        for (flavor, (a, b), a200) in [
            (
                "block-CAS",
                unwind_then_reattach::<CasOwnershipSeal>("block-CAS"),
                1,
            ),
            (
                "block-private",
                unwind_then_reattach::<NoOwnershipSeal>("block-private"),
                0,
            ),
        ] {
            for (i, &x) in b.iter().enumerate() {
                assert_eq!(x, 1, "{flavor}: b[{i}]");
            }
            for (i, &x) in a.iter().enumerate() {
                assert_eq!(x, if i == 200 { a200 } else { 0 }, "{flavor}: a[{i}]");
            }
        }
    }

    #[test]
    fn telemetry_distinguishes_flavors() {
        let pool = ThreadPool::new(4);
        let n = 4096;

        // Every thread folds its whole static chunk into the same four
        // blocks, so each block has one CAS winner and three losers —
        // conflicts and fallback privatizations are guaranteed however
        // the threads interleave.
        let mut out = vec![0i64; n];
        let red = BlockCasReduction::<i64, Sum>::new(&mut out, 4, 16);
        reduce(&pool, &red, 0..n, Schedule::default(), |v, i| {
            v.apply(i % 64, 1);
        });
        let t = red.telemetry().totals();
        assert_eq!(t.applies, n as u64);
        assert_eq!(t.block_first_touches, 4 * 4, "one per block per thread");
        assert_eq!(
            t.ownership_conflicts,
            3 * 4,
            "three losers per block: {t:?}"
        );
        assert_eq!(t.fallback_privatizations, 3 * 4);
        assert!(t.merged_bytes > 0);

        // The block-private flavor privatizes everything by design:
        // privatizations, yes — conflicts, never.
        let mut out = vec![0i64; n];
        let red = BlockPrivateReduction::<i64, Sum>::new(&mut out, 4, 16);
        reduce(&pool, &red, 0..n, Schedule::dynamic(3), |v, i| {
            v.apply(i, 1);
        });
        let t = red.telemetry().totals();
        assert_eq!(t.applies, n as u64);
        assert_eq!(t.ownership_conflicts, 0);
        assert_eq!(t.fallback_privatizations, t.block_first_touches);

        // An uncontended static sweep with CAS: all blocks direct-owned,
        // nothing privatized, nothing merged.
        let mut out = vec![0i64; n];
        let red = BlockCasReduction::<i64, Sum>::new(&mut out, 4, 1024);
        reduce(&pool, &red, 0..n, Schedule::default(), |v, i| {
            v.apply(i, 1);
        });
        let t = red.telemetry().totals();
        assert_eq!(t.fallback_privatizations, 0, "uncontended: {t:?}");
        assert_eq!(t.merged_bytes, 0);
    }

    #[test]
    fn mismatched_scratch_is_discarded_not_misused() {
        let pool = ThreadPool::new(2);
        let mut a = vec![0i64; 100];
        let red = BlockPrivateReduction::<i64, Sum>::new(&mut a, 2, 16);
        reduce(&pool, &red, 0..100, Schedule::default(), |v, i| {
            v.apply(i, 1);
        });
        let scratch = red.into_scratch();

        // Different length: the scratch cannot be reused; fresh start.
        let mut b = vec![0i64; 300];
        let red = BlockPrivateReduction::<i64, Sum>::from_scratch(&mut b, 2, 16, scratch);
        reduce(&pool, &red, 0..300, Schedule::default(), |v, i| {
            v.apply(i, 1);
        });
        drop(red);
        assert!(b.iter().all(|&x| x == 1));
    }
}
