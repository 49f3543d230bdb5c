//! Vectorized merge/refill kernels for the block data plane.
//!
//! The merge phase of every privatizing strategy is the same contiguous
//! sweep — `out[i] = op(out[i], priv[i])` over a block — and the refill
//! that readies a private copy for the next region is a contiguous
//! identity fill. The C++ SPRAY exemplars hand both loops to
//! `#pragma omp simd aligned`; this module is the Rust analogue, with
//! three tiers:
//!
//! * **Scalar-unrolled (default, stable).** Straight-line 8-wide bodies
//!   with no loop-carried dependency, written so LLVM's auto-vectorizer
//!   turns them into full-width vector code on any stable toolchain.
//! * **`std::simd` (nightly, `--features simd`).** Explicit
//!   `portable_simd` vectors, dispatched per concrete element type. The
//!   dispatch is a monomorphization-time `TypeId` comparison — the branch
//!   folds away, there is no runtime cost and no `unsafe` specialization.
//! * **Fused merge-then-refill.** The epilogue's merge and `finish`'s
//!   identity refill visit the same block back to back; fusing them into
//!   one pass streams each private block through the core once instead of
//!   twice.
//!
//! # Operator dispatch contract
//!
//! The `simd` tier combines lanes by [`ReduceOp::KIND`], exactly like the
//! atomic fast paths in `elem.rs` pick `fetch_add` by `KIND`: a
//! custom `ReduceOp` whose `combine` disagrees with its declared `KIND`
//! semantics on the built-in numeric types is out of contract there and
//! here alike. The identity value is *not* re-derived from the kind — it
//! is taken from `O::identity()` — so custom identities survive. The
//! scalar tiers call `O::combine` directly and carry no such caveat.
//!
//! # Alignment
//!
//! Kernels accept any element-aligned pointers (the destination is the
//! user's own output array, which is only element-aligned) and
//! `debug_assert!` that much; the [`crate::arena`] hands out 64/256-byte
//! aligned source blocks so the SIMD loads on the private side hit full
//! aligned lines. The `simd` tier uses unaligned vector ops, which on
//! every ISA that matters are penalty-free when the address happens to be
//! aligned — the arena makes that the common case without making
//! misalignment unsound.

use crate::elem::{Element, ReduceOp};

/// Unroll width of the scalar tier. Eight 64-bit lanes is one 512-bit
/// vector or two 256-bit halves — wide enough for full-width
/// auto-vectorization, small enough that the tail loop stays cheap.
pub const UNROLL: usize = 8;

#[inline(always)]
fn debug_assert_elem_aligned<T>(ptr: *const T) {
    debug_assert!(
        (ptr as usize) % std::mem::align_of::<T>() == 0,
        "kernel pointer {ptr:p} is not aligned to {}",
        std::mem::align_of::<T>()
    );
}

/// Merges `n` contiguous elements: `dst[i] = O::combine(dst[i], src[i])`.
///
/// # Safety
/// `dst` and `src` must each be valid for `n` elements, element-aligned,
/// non-overlapping, and not concurrently accessed by another thread.
#[inline]
pub unsafe fn merge_into<T: Element, O: ReduceOp<T>>(dst: *mut T, src: *const T, n: usize) {
    debug_assert_elem_aligned(dst);
    debug_assert_elem_aligned(src);
    #[cfg(feature = "simd")]
    if simd::merge::<T, O>(dst, src, n) {
        return;
    }
    let mut i = 0;
    while i + UNROLL <= n {
        // Eight independent combines: no loop-carried dependency, so the
        // auto-vectorizer emits one (or two) full-width vector ops.
        macro_rules! lane {
            ($k:expr) => {{
                let d = dst.add(i + $k);
                *d = O::combine(*d, *src.add(i + $k));
            }};
        }
        lane!(0);
        lane!(1);
        lane!(2);
        lane!(3);
        lane!(4);
        lane!(5);
        lane!(6);
        lane!(7);
        i += UNROLL;
    }
    while i < n {
        let d = dst.add(i);
        *d = O::combine(*d, *src.add(i));
        i += 1;
    }
}

/// Fills `n` contiguous elements with the operator identity, in place.
///
/// This is the arena's refill path: the seed code built a fresh
/// `vec![O::identity(); n]` per block, paying an allocation plus an
/// unaligned fill; the arena refills its existing aligned slab instead.
///
/// # Safety
/// `dst` must be valid for `n` elements, element-aligned, and not
/// concurrently accessed by another thread.
#[inline]
pub unsafe fn refill_into<T: Element, O: ReduceOp<T>>(dst: *mut T, n: usize) {
    debug_assert_elem_aligned(dst);
    #[cfg(feature = "simd")]
    if simd::refill::<T, O>(dst, n) {
        return;
    }
    let id = O::identity();
    for i in 0..n {
        *dst.add(i) = id;
    }
}

/// Fused merge-then-refill: `dst[i] = O::combine(dst[i], src[i])` and
/// `src[i] = O::identity()` in one pass over `src`.
///
/// The value just loaded for the merge is still in a register when the
/// identity store retires, so the private block is streamed through the
/// core once; the separate-pass formulation (epilogue merge, then a
/// `finish`-time refill sweep) loads it twice.
///
/// # Safety
/// Same contract as [`merge_into`], plus `src` must be writable.
#[inline]
pub unsafe fn merge_refill_into<T: Element, O: ReduceOp<T>>(dst: *mut T, src: *mut T, n: usize) {
    debug_assert_elem_aligned(dst);
    debug_assert_elem_aligned(src);
    #[cfg(feature = "simd")]
    if simd::merge_refill::<T, O>(dst, src, n) {
        return;
    }
    let id = O::identity();
    let mut i = 0;
    while i + UNROLL <= n {
        macro_rules! lane {
            ($k:expr) => {{
                let s = src.add(i + $k);
                let d = dst.add(i + $k);
                let v = *s;
                *s = id;
                *d = O::combine(*d, v);
            }};
        }
        lane!(0);
        lane!(1);
        lane!(2);
        lane!(3);
        lane!(4);
        lane!(5);
        lane!(6);
        lane!(7);
        i += UNROLL;
    }
    while i < n {
        let s = src.add(i);
        let d = dst.add(i);
        let v = *s;
        *s = id;
        *d = O::combine(*d, v);
        i += 1;
    }
}

/// Element-at-a-time merge, kept as the in-harness baseline for the
/// `apply_overhead` microbenchmark (the same role
/// `BlockView::apply_uncached` plays for the apply path): it reproduces
/// the seed epilogue's shape — one combine per loop iteration through a
/// raw pointer — so the kernel tiers are measured against the real legacy
/// cost, not a reconstruction.
///
/// # Safety
/// Same contract as [`merge_into`].
#[inline(never)]
pub unsafe fn merge_into_scalar<T: Element, O: ReduceOp<T>>(dst: *mut T, src: *const T, n: usize) {
    for i in 0..n {
        // `black_box` pins the index so LLVM cannot autovectorize the
        // baseline out from under the comparison: the whole point of this
        // function is one combine per loop iteration, matching the
        // element-at-a-time codegen the seed epilogue produced.
        let i = std::hint::black_box(i);
        let d = dst.add(i);
        *d = O::combine(*d, std::ptr::read(src.add(i)));
    }
}

/// Safe slice form of [`refill_into`].
pub fn refill_slice<T: Element, O: ReduceOp<T>>(dst: &mut [T]) {
    // SAFETY: exclusive, valid, element-aligned.
    unsafe { refill_into::<T, O>(dst.as_mut_ptr(), dst.len()) }
}

/// Explicit `portable_simd` tier. Each entry point returns `true` when it
/// handled the call (the element type is one of the built-in numerics),
/// `false` to fall back to the scalar-unrolled tier; the `TypeId`
/// comparisons resolve at monomorphization time.
#[cfg(feature = "simd")]
mod simd {
    use crate::elem::{Element, OpKind, ReduceOp};
    use std::any::TypeId;
    use std::simd::{cmp::SimdOrd, num::SimdFloat, Simd, SimdElement};

    /// 64 bytes of lanes per vector op, whatever the element width.
    const fn lanes<T>() -> usize {
        64 / std::mem::size_of::<T>()
    }

    /// Reads `O::identity()` as the concrete lane type. Only called after
    /// the `TypeId` equality proves `T == E`, which makes the transmute a
    /// no-op copy.
    #[inline(always)]
    fn identity_as<T: Element, O: ReduceOp<T>, E: Copy + 'static>() -> E {
        debug_assert_eq!(TypeId::of::<T>(), TypeId::of::<E>());
        // SAFETY: T == E (checked above), so sizes and layouts match.
        unsafe { std::mem::transmute_copy::<T, E>(&O::identity()) }
    }

    macro_rules! dispatch {
        (@case $T:ty, $O:ty, $handler:ident, ($($arg:expr),*), $t:ty) => {
            if TypeId::of::<$T>() == TypeId::of::<$t>() {
                typed::$handler::<$t, { lanes::<$t>() }>(
                    $($arg as _,)*
                    <$O as ReduceOp<$T>>::KIND,
                    identity_as::<$T, $O, $t>(),
                );
                return true;
            }
        };
        ($T:ty, $O:ty, $handler:ident($($arg:expr),*)) => {{
            dispatch!(@case $T, $O, $handler, ($($arg),*), f32);
            dispatch!(@case $T, $O, $handler, ($($arg),*), f64);
            dispatch!(@case $T, $O, $handler, ($($arg),*), i32);
            dispatch!(@case $T, $O, $handler, ($($arg),*), i64);
            dispatch!(@case $T, $O, $handler, ($($arg),*), u32);
            dispatch!(@case $T, $O, $handler, ($($arg),*), u64);
            dispatch!(@case $T, $O, $handler, ($($arg),*), usize);
            false
        }};
    }

    /// SIMD merge; `true` iff handled.
    ///
    /// # Safety
    /// Same contract as [`super::merge_into`].
    #[inline(always)]
    pub unsafe fn merge<T: Element, O: ReduceOp<T>>(dst: *mut T, src: *const T, n: usize) -> bool {
        dispatch!(T, O, merge(dst, src, n))
    }

    /// SIMD refill; `true` iff handled.
    ///
    /// # Safety
    /// Same contract as [`super::refill_into`].
    #[inline(always)]
    pub unsafe fn refill<T: Element, O: ReduceOp<T>>(dst: *mut T, n: usize) -> bool {
        dispatch!(T, O, refill(dst, n))
    }

    /// SIMD fused merge+refill; `true` iff handled.
    ///
    /// # Safety
    /// Same contract as [`super::merge_refill_into`].
    #[inline(always)]
    pub unsafe fn merge_refill<T: Element, O: ReduceOp<T>>(
        dst: *mut T,
        src: *mut T,
        n: usize,
    ) -> bool {
        dispatch!(T, O, merge_refill(dst, src, n))
    }

    /// Marker trait gathering the per-type SIMD ops the typed kernels
    /// need, so one generic body serves floats and integers.
    pub(super) trait SimdCombine: SimdElement {
        fn combine<const L: usize>(
            kind: OpKind,
            a: Simd<Self, L>,
            b: Simd<Self, L>,
        ) -> Simd<Self, L>;
        fn combine1(kind: OpKind, a: Self, b: Self) -> Self;
    }

    macro_rules! impl_simd_combine {
        (float: $($t:ty),*) => {$(
            impl SimdCombine for $t {
                #[inline(always)]
                fn combine<const L: usize>(
                    kind: OpKind,
                    a: Simd<Self, L>,
                    b: Simd<Self, L>,
                ) -> Simd<Self, L> {
                    match kind {
                        OpKind::Sum => a + b,
                        OpKind::Prod => a * b,
                        OpKind::Min => a.simd_min(b),
                        OpKind::Max => a.simd_max(b),
                    }
                }
                #[inline(always)]
                fn combine1(kind: OpKind, a: Self, b: Self) -> Self {
                    match kind {
                        OpKind::Sum => a + b,
                        OpKind::Prod => a * b,
                        OpKind::Min => a.min(b),
                        OpKind::Max => a.max(b),
                    }
                }
            }
        )*};
        (int: $($t:ty),*) => {$(
            impl SimdCombine for $t {
                #[inline(always)]
                fn combine<const L: usize>(
                    kind: OpKind,
                    a: Simd<Self, L>,
                    b: Simd<Self, L>,
                ) -> Simd<Self, L> {
                    match kind {
                        OpKind::Sum => a + b,
                        OpKind::Prod => a * b,
                        OpKind::Min => a.simd_min(b),
                        OpKind::Max => a.simd_max(b),
                    }
                }
                #[inline(always)]
                fn combine1(kind: OpKind, a: Self, b: Self) -> Self {
                    match kind {
                        OpKind::Sum => a.wrapping_add(b),
                        OpKind::Prod => a.wrapping_mul(b),
                        OpKind::Min => a.min(b),
                        OpKind::Max => a.max(b),
                    }
                }
            }
        )*};
    }
    impl_simd_combine!(float: f32, f64);
    impl_simd_combine!(int: i32, i64, u32, u64, usize);

    mod typed {
        use super::{OpKind, Simd, SimdCombine};

        #[inline]
        pub(super) unsafe fn merge<E, const L: usize>(
            dst: *mut E,
            src: *const E,
            n: usize,
            kind: OpKind,
            _id: E,
        ) where
            E: SimdCombine,
        {
            let mut i = 0;
            while i + L <= n {
                let a = Simd::<E, L>::from_slice(std::slice::from_raw_parts(dst.add(i), L));
                let b = Simd::<E, L>::from_slice(std::slice::from_raw_parts(src.add(i), L));
                let c = E::combine::<L>(kind, a, b);
                c.copy_to_slice(std::slice::from_raw_parts_mut(dst.add(i), L));
                i += L;
            }
            while i < n {
                let d = dst.add(i);
                *d = E::combine1(kind, *d, *src.add(i));
                i += 1;
            }
        }

        #[inline]
        pub(super) unsafe fn refill<E, const L: usize>(dst: *mut E, n: usize, _kind: OpKind, id: E)
        where
            E: SimdCombine,
        {
            let idv = Simd::<E, L>::splat(id);
            let mut i = 0;
            while i + L <= n {
                idv.copy_to_slice(std::slice::from_raw_parts_mut(dst.add(i), L));
                i += L;
            }
            while i < n {
                *dst.add(i) = id;
                i += 1;
            }
        }

        #[inline]
        pub(super) unsafe fn merge_refill<E, const L: usize>(
            dst: *mut E,
            src: *mut E,
            n: usize,
            kind: OpKind,
            id: E,
        ) where
            E: SimdCombine,
        {
            let idv = Simd::<E, L>::splat(id);
            let mut i = 0;
            while i + L <= n {
                let a = Simd::<E, L>::from_slice(std::slice::from_raw_parts(dst.add(i), L));
                let b = Simd::<E, L>::from_slice(std::slice::from_raw_parts(src.add(i), L));
                idv.copy_to_slice(std::slice::from_raw_parts_mut(src.add(i), L));
                let c = E::combine::<L>(kind, a, b);
                c.copy_to_slice(std::slice::from_raw_parts_mut(dst.add(i), L));
                i += L;
            }
            while i < n {
                let s = src.add(i);
                let d = dst.add(i);
                let v = *s;
                *s = id;
                *d = E::combine1(kind, *d, v);
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::{Max, Min, Prod, Sum};

    fn seq_merge<T: Element, O: ReduceOp<T>>(dst: &mut [T], src: &[T]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = O::combine(*d, s);
        }
    }

    #[test]
    fn merge_matches_sequential_all_lengths() {
        // Every length from empty through several unroll widths plus odd
        // tails, so both the wide loop and the scalar tail are covered.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 130] {
            let src: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 3.0).collect();
            let mut a: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut b = a.clone();
            seq_merge::<f64, Sum>(&mut a, &src);
            // SAFETY: disjoint, valid slices of `n` elements.
            unsafe { merge_into::<f64, Sum>(b.as_mut_ptr(), src.as_ptr(), n) };
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn merge_all_ops_integer_exact() {
        let n = 37;
        let src: Vec<i64> = (0..n).map(|i| (i as i64 * 7919) % 101 - 50).collect();
        macro_rules! check {
            ($op:ty) => {{
                let mut a: Vec<i64> = (0..n).map(|i| i as i64 - 10).collect();
                let mut b = a.clone();
                seq_merge::<i64, $op>(&mut a, &src);
                // SAFETY: disjoint, valid slices of `n` elements.
                unsafe { merge_into::<i64, $op>(b.as_mut_ptr(), src.as_ptr(), n) };
                assert_eq!(a, b, stringify!($op));
            }};
        }
        check!(Sum);
        check!(Prod);
        check!(Min);
        check!(Max);
    }

    #[test]
    fn merge_all_elem_types() {
        macro_rules! check {
            ($t:ty, $conv:expr) => {{
                let n = 21;
                let conv = $conv;
                let src: Vec<$t> = (0..n).map(|i| conv(i + 1)).collect();
                let mut a: Vec<$t> = (0..n).map(conv).collect();
                let mut b = a.clone();
                seq_merge::<$t, Sum>(&mut a, &src);
                // SAFETY: disjoint, valid slices of `n` elements.
                unsafe { merge_into::<$t, Sum>(b.as_mut_ptr(), src.as_ptr(), n) };
                assert_eq!(a, b, stringify!($t));
            }};
        }
        check!(f32, |i: usize| i as f32 * 0.25);
        check!(f64, |i: usize| i as f64 * 0.25);
        check!(i32, |i: usize| i as i32 - 5);
        check!(i64, |i: usize| i as i64 - 5);
        check!(u32, |i: usize| i as u32);
        check!(u64, |i: usize| i as u64);
        check!(usize, |i: usize| i);
    }

    #[test]
    fn refill_writes_identity() {
        let mut v = vec![3.25f64; 19];
        refill_slice::<f64, Sum>(&mut v);
        assert!(v.iter().all(|&x| x == 0.0));
        let mut v = vec![0i32; 9];
        refill_slice::<i32, Min>(&mut v);
        assert!(v.iter().all(|&x| x == i32::MAX));
    }

    #[test]
    fn fused_merge_refill_merges_and_resets() {
        for n in [1usize, 8, 13, 32, 65] {
            let mut dst: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut src: Vec<f64> = (0..n).map(|i| 100.0 + i as f64).collect();
            let mut expect = dst.clone();
            seq_merge::<f64, Sum>(&mut expect, &src);
            // SAFETY: disjoint, valid, exclusively borrowed slices.
            unsafe { merge_refill_into::<f64, Sum>(dst.as_mut_ptr(), src.as_mut_ptr(), n) };
            assert_eq!(dst, expect, "n={n}");
            assert!(src.iter().all(|&x| x == 0.0), "n={n}");
        }
    }

    #[test]
    fn scalar_reference_agrees() {
        let n = 50;
        let src: Vec<u64> = (0..n as u64).collect();
        let mut a: Vec<u64> = vec![7; n];
        let mut b = a.clone();
        // SAFETY: disjoint, valid slices.
        unsafe {
            merge_into::<u64, Sum>(a.as_mut_ptr(), src.as_ptr(), n);
            merge_into_scalar::<u64, Sum>(b.as_mut_ptr(), src.as_ptr(), n);
        }
        assert_eq!(a, b);
    }
}
