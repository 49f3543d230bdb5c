//! Aligned block arena: slab-backed storage for privatized blocks.
//!
//! The seed code allocated every private block copy as its own
//! `vec![O::identity(); n].into_boxed_slice()` — one heap allocation per
//! (thread, block), at whatever alignment the allocator felt like. The
//! C++ SPRAY exemplars instead carve block copies out of
//! `aligned_alloc(256)` slabs so the merge loops run over full aligned
//! cache lines. This module is that storage plane:
//!
//! * A `BlockArena` is **per thread, per region**: each view owns one,
//!   carves fixed-stride block slots out of contiguous slabs, and retains
//!   it across regions through the existing scratch-retention path
//!   ([`crate::BlockReduction::into_scratch`] and friends), so a warm
//!   region allocates nothing.
//! * Slabs start at [`MIN_SLAB_BYTES`] and double, so a thread that
//!   privatizes `k` blocks pays `O(log k)` allocations instead of `k`.
//!   A block view caps its arena at its block count (it privatizes each
//!   block at most once), and no slab reserves slots past the cap: a view
//!   that privatizes all of its 1024 blocks gets 1024 slots, not the 2047
//!   that doubling alone would carve.
//! * Freed slabs (a dropped arena — strategy migration, mismatched
//!   scratch, region teardown) are **recycled through an `ArenaPool`**
//!   instead of returned to the allocator, so the next region's arenas
//!   start warm even across strategies. Every arena shares one
//!   process-wide pool; only crate tests build a pool of their own.
//! * A replayed region plan can ask for a **run**: `n` block slots back
//!   to back at the start of one slab (`BlockArena::lay_out_run`), so
//!   a block view addresses a contiguous range of private copies from one
//!   base pointer. An arena whose lone slab already holds `n` slots keeps
//!   it and reassigns the slots in place. Any other arena frees its slabs
//!   to the allocator, not the pool, and carves one slab of exactly `n`
//!   slots. An arena that has laid out a run never pools a slab again:
//!   the run slab, and any slab grown later for blocks outside the run,
//!   go back to the allocator when dropped. The run replaces the view's
//!   scratch rather than adding to it, so the pool never holds a second
//!   copy of it: a reducer rebuilt for every solve would otherwise leave
//!   such slabs pooled beside the next solve's freshly laid-out run.
//!
//! # Alignment contract
//!
//! Slab bases are aligned to [`SLAB_ALIGN`] (256 bytes, matching the C++
//! exemplars' `aligned_alloc(256)`). Block strides are padded to a
//! multiple of 64 bytes when the element size divides 64, so every block
//! base is at least cache-line aligned (and 256-byte aligned whenever the
//! stride is a multiple of 256 — true for all power-of-two blocks of
//! ≥ 256 bytes). Exotic element sizes fall back to element alignment,
//! which is all the kernels require; `BlockArena::alignment` reports
//! the actual guarantee.
//!
//! # Aliasing discipline
//!
//! The arena exposes raw [`BlockRef`] pointers, never references, and the
//! slab memory is only ever accessed through them — the same discipline
//! as `shared.rs`'s `SharedSlice`. Each block slot is written by
//! exactly one thread during the loop phase and read/refilled by exactly
//! one (possibly different) thread after the team barrier; block strides
//! are cache-line separated so two threads merging different blocks of
//! one arena never false-share.

use crate::elem::{Element, ReduceOp};
use crate::kernels;
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::{Arc, OnceLock};

/// Alignment of every slab base, matching the C++ exemplars'
/// `aligned_alloc(256)`.
pub const SLAB_ALIGN: usize = 256;

/// Smallest slab: one page's worth of blocks, so tiny-block arenas do not
/// allocate per block and the slab pool never fills with confetti.
pub const MIN_SLAB_BYTES: usize = 4096;

/// Hard cap on a single slab's block count (doubling stops here).
const MAX_SLAB_BLOCKS: usize = 1024;

/// One raw slab allocation. Never moves once allocated; blocks carved
/// from it stay valid until the arena drops. Remembers the [`ArenaPool`]
/// it was drawn from and returns there on drop; a slab with no pool (a
/// run slab, or one a run replaced) goes back to the allocator.
struct Slab {
    ptr: NonNull<u8>,
    layout: Layout,
    pool: Option<Arc<ArenaPool>>,
}

// SAFETY: a Slab is just an owned allocation; the arena's access
// discipline (documented on the module) governs the memory itself.
unsafe impl Send for Slab {}
unsafe impl Sync for Slab {}

impl Drop for Slab {
    fn drop(&mut self) {
        match &self.pool {
            Some(pool) => pool.release(self.ptr, self.layout),
            // SAFETY: every slab was allocated with exactly `layout`
            // (pooled slabs are matched by exact layout).
            None => unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.layout) },
        }
    }
}

/// A raw pointer to one block slot inside a `BlockArena` slab.
///
/// Deliberately a pointer, not a reference: the loop phase writes blocks
/// through per-thread views while the merge phase reads (and refills)
/// them through shared scratch, and the region protocol — not the borrow
/// checker — serializes those accesses. Copyable so the hot path can keep
/// it in a register.
#[derive(Clone, Copy, Debug)]
pub struct BlockRef<T>(NonNull<T>);

// SAFETY: access discipline is the region protocol documented on the
// module; the pointee is plain `T: Element` data.
unsafe impl<T: Send> Send for BlockRef<T> {}
unsafe impl<T: Send> Sync for BlockRef<T> {}

impl<T: Element> BlockRef<T> {
    /// The block's base pointer.
    #[inline(always)]
    pub fn as_ptr(self) -> *mut T {
        self.0.as_ptr()
    }

    /// The first `n` elements as a shared slice.
    ///
    /// # Safety
    /// `n` must not exceed the arena's block length, and no thread may
    /// write the block while the slice lives.
    #[inline(always)]
    pub unsafe fn as_slice<'a>(self, n: usize) -> &'a [T] {
        std::slice::from_raw_parts(self.0.as_ptr(), n)
    }
}

/// Slab-backed allocator of fixed-size block copies; see the module docs.
pub(crate) struct BlockArena<T> {
    slabs: Vec<Slab>,
    /// Logical elements per block (what callers asked for).
    block_elems: usize,
    /// Physical elements per block slot (padded for alignment).
    stride: usize,
    /// Block slots handed out of the newest slab.
    next: usize,
    /// Block slots in the newest slab.
    cap: usize,
    /// Block slots carved across all slabs.
    carved: usize,
    /// Most blocks this arena will be asked for (see `BlockArena::capped`).
    max_blocks: usize,
    /// Total slab bytes currently owned (diagnostic).
    slab_bytes: usize,
    /// Where slabs are drawn from and recycled to.
    pool: Arc<ArenaPool>,
    /// Whether new slabs return to `pool` when dropped; cleared for good
    /// by the first [`BlockArena::lay_out_run`].
    recycles: bool,
    _elem: std::marker::PhantomData<T>,
}

// SAFETY: the arena owns its slabs; see the module's aliasing discipline.
unsafe impl<T: Send> Send for BlockArena<T> {}
unsafe impl<T: Send> Sync for BlockArena<T> {}

impl<T: Element> BlockArena<T> {
    /// Creates an empty arena handing out blocks of `block_elems`
    /// elements, recycled through the process-wide slab pool. Nothing is
    /// allocated until the first [`BlockArena::alloc_identity`].
    pub fn new(block_elems: usize) -> Self {
        Self::with_pool(block_elems, global_pool().clone())
    }

    /// Like [`BlockArena::new`], but drawing slabs from (and releasing
    /// them back to) `pool` — a test's private pool, so concurrently
    /// running tests cannot take each other's recycled slabs.
    pub(crate) fn with_pool(block_elems: usize, pool: Arc<ArenaPool>) -> Self {
        assert!(block_elems > 0, "arena block length must be > 0");
        let size = std::mem::size_of::<T>();
        // Pad the stride so consecutive blocks start on cache-line
        // boundaries whenever the element size allows it.
        let stride = if size > 0 && 64 % size == 0 {
            block_elems.next_multiple_of(64 / size)
        } else {
            block_elems
        };
        BlockArena {
            slabs: Vec::new(),
            block_elems,
            stride,
            next: 0,
            cap: 0,
            carved: 0,
            max_blocks: usize::MAX,
            slab_bytes: 0,
            pool,
            recycles: true,
            _elem: std::marker::PhantomData,
        }
    }

    /// Sizes slabs for at most `max_blocks` blocks in total: a new slab
    /// never reserves more slots than remain below the cap. A sizing
    /// bound, not a limit — an arena asked for more keeps growing.
    pub(crate) fn capped(mut self, max_blocks: usize) -> Self {
        self.max_blocks = max_blocks;
        self
    }

    /// The alignment guarantee (in bytes) of every block this arena hands
    /// out: 256 for strides that are multiples of 256, otherwise the
    /// largest power of two dividing both the stride and [`SLAB_ALIGN`].
    pub fn alignment(&self) -> usize {
        let stride_bytes = self.stride * std::mem::size_of::<T>();
        if stride_bytes == 0 {
            return SLAB_ALIGN;
        }
        let align_from_stride = 1usize << stride_bytes.trailing_zeros().min(63);
        align_from_stride
            .min(SLAB_ALIGN)
            .max(std::mem::align_of::<T>())
    }

    /// Total slab bytes currently owned by this arena.
    #[cfg(test)]
    pub(crate) fn slab_bytes(&self) -> usize {
        self.slab_bytes
    }

    /// Hands out one identity-filled block. The refill happens in place
    /// in the slab (no construct-then-copy); warm slabs make this an
    /// allocation-free bump plus a fill.
    pub fn alloc_identity<O: ReduceOp<T>>(&mut self) -> BlockRef<T> {
        if self.next == self.cap {
            self.grow();
        }
        let slab = self.slabs.last().expect("grow() pushed a slab");
        // SAFETY: slot `next` is inside the newest slab (next < cap) and
        // the offset stays within the slab's layout by construction.
        let ptr = unsafe { (slab.ptr.as_ptr() as *mut T).add(self.next * self.stride) };
        self.next += 1;
        debug_assert!(
            (ptr as usize) % self.alignment() == 0,
            "arena block {ptr:p} violates the {}-byte alignment contract",
            self.alignment()
        );
        // SAFETY: freshly carved slot, exclusively ours, `block_elems`
        // elements fit in the stride.
        unsafe { kernels::refill_into::<T, O>(ptr, self.block_elems) };
        // SAFETY: slab pointers are non-null.
        BlockRef(unsafe { NonNull::new_unchecked(ptr) })
    }

    /// Whether consecutive slots lie exactly one block apart (the stride
    /// needs no padding), so a run laid out by
    /// [`BlockArena::lay_out_run`] is one contiguous array of elements.
    pub(crate) fn slots_are_contiguous(&self) -> bool {
        self.stride == self.block_elems
    }

    /// Lays out `n` identity-filled block slots back to back at the start
    /// of one slab and returns them in order. Every block handed out
    /// before is void afterwards: the caller drops its old handles.
    ///
    /// An arena whose lone slab already has `n` slots reuses it in place;
    /// the slots it handed out hold only the identity between regions (the
    /// block epilogues refill every copy they merge), so only slots never
    /// carved need a fill. Any other arena frees its slabs to the
    /// allocator, not the pool, before it carves one slab of exactly `n`
    /// slots. From then on no slab of this arena returns to the pool: not
    /// the run slab, and not the slabs grown later for blocks outside the
    /// run (see the module docs).
    pub(crate) fn lay_out_run<O: ReduceOp<T>>(
        &mut self,
        n: usize,
    ) -> impl Iterator<Item = BlockRef<T>> {
        assert!(n > 0, "a run has at least one block");
        if self.slabs.len() != 1 || self.cap < n {
            for slab in &mut self.slabs {
                slab.pool = None;
            }
            self.slabs.clear();
            self.slab_bytes = 0;
            self.carved = 0;
            self.next = 0;
            self.cap = 0;
            self.recycles = false;
            self.push_slab(n, false);
        }
        let base = self.slabs[0].ptr.as_ptr() as *mut T;
        if self.next < n {
            // SAFETY: slots `next..n` lie inside the lone slab (`n <= cap`)
            // and no handle to them is live.
            unsafe {
                kernels::refill_into::<T, O>(
                    base.add(self.next * self.stride),
                    (n - self.next) * self.stride,
                )
            };
        }
        self.next = n;
        let stride = self.stride;
        // SAFETY: slot `k < n <= cap` starts inside the lone slab, whose
        // pointer is non-null.
        (0..n).map(move |k| BlockRef(unsafe { NonNull::new_unchecked(base.add(k * stride)) }))
    }

    /// Allocates the next slab: doubling sizes up to the slots left under
    /// the cap, drawn from the slab pool when a matching recycled slab
    /// exists.
    fn grow(&mut self) {
        let stride_bytes = self.stride * std::mem::size_of::<T>().max(1);
        let min_blocks = MIN_SLAB_BYTES.div_ceil(stride_bytes).max(1);
        let doubled = if self.cap == 0 {
            min_blocks
        } else {
            (self.cap * 2).clamp(min_blocks, MAX_SLAB_BLOCKS.max(min_blocks))
        };
        let blocks = doubled.min(self.max_blocks.saturating_sub(self.carved).max(1));
        self.push_slab(blocks, self.recycles);
    }

    /// Adds a slab of `blocks` slots, drawn from the pool when a recycled
    /// slab of exactly that layout exists; `pooled` says whether it
    /// returns there when dropped.
    fn push_slab(&mut self, blocks: usize, pooled: bool) {
        let bytes = blocks * self.stride * std::mem::size_of::<T>().max(1);
        let align = SLAB_ALIGN.max(std::mem::align_of::<T>());
        let layout = Layout::from_size_align(bytes, align).expect("slab layout must be valid");
        let ptr = self.pool.acquire(layout).unwrap_or_else(|| {
            // SAFETY: layout has non-zero size (block_elems > 0).
            let raw = unsafe { std::alloc::alloc(layout) };
            NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout))
        });
        self.slabs.push(Slab {
            ptr,
            layout,
            pool: pooled.then(|| self.pool.clone()),
        });
        self.slab_bytes += bytes;
        self.carved += blocks;
        self.next = 0;
        self.cap = blocks;
    }

    /// Slabs currently owned.
    #[cfg(test)]
    pub(crate) fn slab_count(&self) -> usize {
        self.slabs.len()
    }
}

/// A recycled-slab entry in transit between arenas.
#[cfg(not(miri))]
struct Entry {
    ptr: NonNull<u8>,
    layout: Layout,
}

// SAFETY: entries are owned allocations in transit between arenas.
#[cfg(not(miri))]
unsafe impl Send for Entry {}

/// Upper bound on pooled bytes per pool; beyond it, released slabs are
/// freed.
#[cfg(not(miri))]
const MAX_POOLED_BYTES: usize = 64 << 20;

/// A recycling pool for dropped slabs, so region teardown, strategy
/// migration and mismatched-scratch paths hand their slabs to the next
/// arena instead of the allocator. Exact-layout matching keeps reuse
/// trivially sound; each pool is bounded so pathological layout churn
/// degrades to plain allocation, never unbounded growth.
///
/// There is one process-wide pool ([`BlockArena::new`], [`AlignedBuf`]).
/// Slabs carry their owning pool ([`Slab`]) and return there on drop, so
/// a crate test can give its arenas a private pool.
///
/// # Concurrent executor sessions
///
/// A pool is *expected* to be hit by many sessions at once (each
/// session's views own their arenas; only detached slabs pass through
/// here). That is sound by construction: a slab enters the pool
/// exclusively via `Slab::drop`, i.e. only after its owning arena — and
/// every `BlockRef` carved from it — is gone, so `acquire`/`release`
/// transfer whole-slab ownership between sessions and two live arenas
/// can never share a slab.
///
/// # Lock order
///
/// The entries mutex is a **leaf lock**, held only for the few
/// instructions of `acquire`/`release`. Arena growth happens inside
/// parallel regions (under the pool's region lock) and scratch teardown
/// happens outside them, but neither path takes any other lock while
/// holding this one — in particular never [`ompsim::ThreadPool::parallel`].
/// The whole order is pool region lock → this mutex.
/// The `slab_pool_is_safe_under_concurrent_sessions` test races
/// allocate/write/verify/drop cycles from several OS threads to pin the
/// exclusivity claim down.
///
/// Recycling is disabled under Miri: a static cache would be reported as
/// a leak, and the allocation path itself is exactly what Miri should
/// see.
pub(crate) struct ArenaPool {
    #[cfg(not(miri))]
    entries: std::sync::Mutex<Vec<Entry>>,
}

impl ArenaPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ArenaPool {
            #[cfg(not(miri))]
            entries: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Bytes currently held in the pool awaiting reuse.
    #[cfg(test)]
    pub(crate) fn pooled_bytes(&self) -> usize {
        #[cfg(not(miri))]
        {
            let pool = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            pool.iter().map(|e| e.layout.size()).sum()
        }
        #[cfg(miri)]
        {
            0
        }
    }

    /// Takes a recycled slab with exactly `layout`, if one is pooled.
    #[cfg(not(miri))]
    pub(crate) fn acquire(&self, layout: Layout) -> Option<NonNull<u8>> {
        let mut pool = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let idx = pool.iter().position(|e| e.layout == layout)?;
        Some(pool.swap_remove(idx).ptr)
    }

    #[cfg(miri)]
    pub(crate) fn acquire(&self, _layout: Layout) -> Option<NonNull<u8>> {
        None
    }

    /// Returns a slab to the pool, or frees it when the pool is full.
    #[cfg(not(miri))]
    pub(crate) fn release(&self, ptr: NonNull<u8>, layout: Layout) {
        let mut pool = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let pooled: usize = pool.iter().map(|e| e.layout.size()).sum();
        if pooled + layout.size() <= MAX_POOLED_BYTES {
            pool.push(Entry { ptr, layout });
        } else {
            drop(pool);
            // SAFETY: `ptr` was allocated with exactly `layout`.
            unsafe { std::alloc::dealloc(ptr.as_ptr(), layout) };
        }
    }

    #[cfg(miri)]
    pub(crate) fn release(&self, ptr: NonNull<u8>, layout: Layout) {
        // SAFETY: `ptr` was allocated with exactly `layout`.
        unsafe { std::alloc::dealloc(ptr.as_ptr(), layout) };
    }
}

#[cfg(not(miri))]
impl Drop for ArenaPool {
    /// Frees the pooled slabs: a test's private pool would otherwise leak
    /// them.
    fn drop(&mut self) {
        let entries = self.entries.get_mut().unwrap_or_else(|e| e.into_inner());
        for e in entries.drain(..) {
            // SAFETY: pooled slabs were allocated with exactly `layout`
            // and are owned by the pool alone.
            unsafe { std::alloc::dealloc(e.ptr.as_ptr(), e.layout) };
        }
    }
}

/// The default process-wide pool (see [`ArenaPool`]).
pub(crate) fn global_pool() -> &'static Arc<ArenaPool> {
    static GLOBAL: OnceLock<Arc<ArenaPool>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(ArenaPool::new()))
}

/// Thin wrappers over the global pool, kept for the non-arena users
/// ([`AlignedBuf`]) and the pool-direct tests.
mod pool {
    use std::alloc::Layout;
    use std::ptr::NonNull;

    pub(super) fn acquire(layout: Layout) -> Option<NonNull<u8>> {
        super::global_pool().acquire(layout)
    }

    pub(super) fn release(ptr: NonNull<u8>, layout: Layout) {
        super::global_pool().release(ptr, layout)
    }
}

/// One contiguous aligned buffer (the dense strategy's full-length
/// private copy), drawn from and recycled through the same slab pool as
/// the block arenas.
pub struct AlignedBuf<T> {
    ptr: NonNull<T>,
    len: usize,
    layout: Layout,
}

// SAFETY: an AlignedBuf is an owned allocation of plain `T` data.
unsafe impl<T: Send> Send for AlignedBuf<T> {}
unsafe impl<T: Sync> Sync for AlignedBuf<T> {}

impl<T: Element> AlignedBuf<T> {
    /// Allocates a 256-byte-aligned buffer of `len` elements and fills it
    /// with the operator identity, in place.
    pub fn new_identity<O: ReduceOp<T>>(len: usize) -> Self {
        let size = std::mem::size_of::<T>();
        let bytes = (len * size).next_multiple_of(64).max(64);
        let align = SLAB_ALIGN.max(std::mem::align_of::<T>());
        let layout = Layout::from_size_align(bytes, align).expect("buffer layout must be valid");
        let ptr = pool::acquire(layout).unwrap_or_else(|| {
            // SAFETY: layout size is >= 64, never zero.
            let raw = unsafe { std::alloc::alloc(layout) };
            NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout))
        });
        let ptr = ptr.cast::<T>();
        // SAFETY: freshly acquired allocation of at least `len` elements.
        unsafe { kernels::refill_into::<T, O>(ptr.as_ptr(), len) };
        AlignedBuf { ptr, len, layout }
    }

    /// Logical length in elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base pointer.
    #[inline(always)]
    pub fn as_ptr(&self) -> *const T {
        self.ptr.as_ptr()
    }

    /// Mutable base pointer.
    #[inline(always)]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr.as_ptr()
    }

    /// Contents as a shared slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: owned allocation of `len` initialized elements.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Contents as a mutable slice.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: owned allocation of `len` initialized elements, `&mut`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        pool::release(self.ptr.cast::<u8>(), self.layout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::{Min, Sum};

    #[test]
    fn blocks_are_identity_filled_and_aligned() {
        let mut arena = BlockArena::<f64>::new(128);
        assert_eq!(arena.alignment(), 256, "1 KiB stride ⇒ full slab alignment");
        for _ in 0..20 {
            let blk = arena.alloc_identity::<Sum>();
            assert_eq!((blk.as_ptr() as usize) % 256, 0);
            // SAFETY: freshly allocated, no other accessor.
            assert!(unsafe { blk.as_slice(128) }.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn small_blocks_are_cache_line_aligned() {
        // 16 i32 = 64 bytes: stride pads to one cache line exactly.
        let mut arena = BlockArena::<i32>::new(16);
        assert!(arena.alignment() >= 64);
        let a = arena.alloc_identity::<Min>();
        let b = arena.alloc_identity::<Min>();
        assert_eq!((a.as_ptr() as usize) % 64, 0);
        assert_eq!((b.as_ptr() as usize) % 64, 0);
        // SAFETY: fresh blocks.
        assert!(unsafe { a.as_slice(16) }.iter().all(|&x| x == i32::MAX));
    }

    #[test]
    fn odd_block_lengths_pad_but_report_logical_len() {
        let mut arena = BlockArena::<f64>::new(100); // not a power of two
        assert_eq!(arena.block_elems, 100);
        let blk = arena.alloc_identity::<Sum>();
        assert_eq!((blk.as_ptr() as usize) % arena.alignment(), 0);
        // SAFETY: fresh block.
        assert!(unsafe { blk.as_slice(100) }.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn slabs_double_not_per_block() {
        let mut arena = BlockArena::<f64>::new(512); // 4 KiB blocks
        let mut refs = Vec::new();
        for _ in 0..100 {
            refs.push(arena.alloc_identity::<Sum>());
        }
        // 100 blocks must take far fewer than 100 slabs.
        assert!(
            arena.slabs.len() <= 8,
            "expected O(log n) slabs, got {}",
            arena.slabs.len()
        );
        // All blocks distinct.
        let mut addrs: Vec<usize> = refs.iter().map(|r| r.as_ptr() as usize).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 100);
    }

    #[test]
    fn capped_arena_reserves_only_allowed_blocks() {
        // 4 KiB blocks: doubling alone carves 1+2+...+64 = 127 slots for
        // 65 blocks; capped at 65, the last slab takes only the 2 left.
        let k = 65;
        let mut arena = BlockArena::<f64>::new(512).capped(k);
        let stride_bytes = 512 * std::mem::size_of::<f64>();
        for _ in 0..k {
            arena.alloc_identity::<Sum>();
        }
        assert_eq!(arena.slab_bytes(), k * stride_bytes);
        assert!(arena.slabs.len() <= 8, "still O(log k) slabs");
        // Asking past the cap still works (one block per slab).
        arena.alloc_identity::<Sum>();
        assert_eq!(arena.slab_bytes(), (k + 1) * stride_bytes);
    }

    #[test]
    fn writes_survive_and_blocks_are_disjoint() {
        let mut arena = BlockArena::<u64>::new(33);
        let blocks: Vec<_> = (0..10).map(|_| arena.alloc_identity::<Sum>()).collect();
        for (k, blk) in blocks.iter().enumerate() {
            for off in 0..33 {
                // SAFETY: each block written by this thread only.
                unsafe { *blk.as_ptr().add(off) = (k * 100 + off) as u64 };
            }
        }
        for (k, blk) in blocks.iter().enumerate() {
            // SAFETY: reads after all writes.
            let s = unsafe { blk.as_slice(33) };
            for (off, &v) in s.iter().enumerate() {
                assert_eq!(v, (k * 100 + off) as u64);
            }
        }
    }

    #[test]
    fn aligned_buf_roundtrip() {
        let mut buf = AlignedBuf::<f32>::new_identity::<Sum>(1000);
        assert_eq!(buf.len(), 1000);
        assert_eq!((buf.as_ptr() as usize) % SLAB_ALIGN, 0);
        assert!(buf.as_slice().iter().all(|&x| x == 0.0));
        buf.as_mut_slice()[999] = 7.0;
        assert_eq!(buf.as_slice()[999], 7.0);
    }

    #[cfg(not(miri))]
    #[test]
    fn slab_pool_is_safe_under_concurrent_sessions() {
        // Several OS threads race allocate/write/verify/drop cycles through
        // their own arenas. Slabs migrate between threads via the process
        // pool, but ownership of a whole slab transfers only on Slab::drop,
        // so no two live arenas may ever alias memory. Each thread writes a
        // thread-unique pattern and re-reads it after allocating more blocks
        // (which may draw recycled slabs): any cross-thread aliasing shows
        // up as a corrupted pattern.
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    for round in 0..20u64 {
                        let mut arena = BlockArena::<u64>::new(37);
                        let blocks: Vec<_> =
                            (0..12).map(|_| arena.alloc_identity::<Sum>()).collect();
                        for (k, blk) in blocks.iter().enumerate() {
                            for off in 0..37 {
                                let v =
                                    t * 1_000_000 + round * 1_000 + (k as u64) * 37 + off as u64;
                                // SAFETY: block owned by this thread's arena.
                                unsafe { *blk.as_ptr().add(off) = v };
                            }
                        }
                        // Force extra slab traffic while the pattern is live.
                        let extra: Vec<_> = (0..8).map(|_| arena.alloc_identity::<Sum>()).collect();
                        for (k, blk) in blocks.iter().enumerate() {
                            // SAFETY: reads after this thread's writes.
                            let s = unsafe { blk.as_slice(37) };
                            for (off, &v) in s.iter().enumerate() {
                                let want =
                                    t * 1_000_000 + round * 1_000 + (k as u64) * 37 + off as u64;
                                assert_eq!(v, want, "slab aliased across sessions");
                            }
                        }
                        drop(extra);
                        drop(blocks);
                        // Arena drop returns slabs to the pool for other threads.
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[cfg(not(miri))]
    #[test]
    fn dropped_arena_slabs_are_recycled() {
        // Two same-shape arenas in sequence: the second must draw its
        // slab from the pool, not the allocator. The pool is this test's
        // own, so tests running concurrently cannot take the slab first.
        let pool = Arc::new(ArenaPool::new());
        let mut arena = BlockArena::<u64>::with_pool(512, pool.clone());
        let first = arena.alloc_identity::<Sum>().as_ptr();
        drop(arena);
        assert!(pool.pooled_bytes() > 0, "a dropped slab must be pooled");
        let mut arena = BlockArena::<u64>::with_pool(512, pool.clone());
        let second = arena.alloc_identity::<Sum>().as_ptr();
        assert_eq!(first, second, "the second arena must reuse the slab");
        assert_eq!(pool.pooled_bytes(), 0);
    }

    #[cfg(not(miri))]
    #[test]
    fn runs_replace_slabs_without_pooling_them() {
        let pool = Arc::new(ArenaPool::new());
        let mut arena = BlockArena::<f64>::with_pool(512, pool.clone()).capped(16);
        assert!(arena.slots_are_contiguous());
        let old: Vec<_> = (0..7).map(|_| arena.alloc_identity::<Sum>()).collect();
        // SAFETY: the block is this test's own.
        unsafe { *old[3].as_ptr() = 5.0 };
        assert!(arena.slab_count() > 1);
        // Several slabs: all of them go to the allocator, and the run gets
        // one slab of exactly its slots, identity-filled.
        let run: Vec<_> = arena.lay_out_run::<Sum>(12).collect();
        let bytes = 12 * 512 * std::mem::size_of::<f64>();
        assert_eq!((arena.slab_count(), arena.slab_bytes()), (1, bytes));
        assert_eq!(pool.pooled_bytes(), 0, "replaced slabs must not pool");
        let first = run[0].as_ptr();
        for (k, slot) in run.iter().enumerate() {
            assert_eq!(slot.as_ptr(), first.wrapping_add(k * 512));
        }
        // SAFETY: the run's slots are this test's own.
        let elems = unsafe { std::slice::from_raw_parts(first, 12 * 512) };
        assert!(elems.iter().all(|&x| x == 0.0));
        // A lone slab with room is reassigned in place.
        assert_eq!(arena.lay_out_run::<Sum>(9).next().unwrap().as_ptr(), first);
        assert_eq!(arena.slab_count(), 1);
        // A longer run replaces it, without pooling it.
        assert_eq!(arena.lay_out_run::<Sum>(14).count(), 14);
        assert_eq!(arena.slab_bytes(), 14 * 512 * std::mem::size_of::<f64>());
        assert_eq!(pool.pooled_bytes(), 0, "run slabs must not pool");
        // A block outside the full run grows a slab, which does not pool
        // either when the arena drops.
        arena.alloc_identity::<Sum>();
        assert_eq!(arena.slab_count(), 2);
        drop(arena);
        assert_eq!(pool.pooled_bytes(), 0, "an arena with a run never pools");
    }
}
