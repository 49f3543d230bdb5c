//! Arena-backed storage properties.
//!
//! The block/dense strategies carve their private copies out of aligned
//! slab arenas ([`spray::arena`]) instead of one `Box<[T]>` per block.
//! Storage is an implementation detail: results must be bit-identical to
//! the sequential reference for every `Element` type, including
//! odd/non-power-of-two block sizes and arrays whose last block is short
//! (the epilogue's partial-tail path). Update values are chosen exactly
//! representable so float results are associativity-proof and the
//! comparison can be exact.
//!
//! The arena's allocation shape (slabs, not one allocation per block) is
//! checked in `alloc_counts.rs`, a test binary of its own, because it
//! reads the process-wide allocation counter.

use ompsim::{Schedule, ThreadPool};
use proptest::prelude::*;
use spray::{
    reduce_strategy, AtomicElement, Kernel, Max, Min, ReduceOp, ReducerView, Strategy, Sum,
};

/// An explicit update stream: iteration `i` performs `updates[i]`.
struct StreamKernel<'a, T> {
    updates: &'a [Vec<(usize, T)>],
}

impl<T: AtomicElement> Kernel<T> for StreamKernel<'_, T> {
    fn item<V: ReducerView<T>>(&self, view: &mut V, i: usize) {
        for &(idx, v) in &self.updates[i] {
            view.apply(idx, v);
        }
    }
}

/// The strategies whose private storage moved onto the arena/aligned-buf
/// plane: the three block flavors and dense.
fn arena_strategies(block: usize) -> Vec<Strategy> {
    vec![
        Strategy::Dense,
        Strategy::BlockPrivate { block_size: block },
        Strategy::BlockLock { block_size: block },
        Strategy::BlockCas { block_size: block },
    ]
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Runs every arena-backed strategy over a derived update stream and
/// requires bit-identity with the sequential loop. `to_val` maps a small
/// integer (0..8) to the element type, so sums stay exactly
/// representable for floats.
fn check_bit_identity<T, O>(
    len: usize,
    threads: usize,
    block: usize,
    seed: u64,
    to_val: fn(u64) -> T,
) where
    T: AtomicElement + PartialEq + std::fmt::Debug,
    O: ReduceOp<T>,
{
    let n_iters = 120;
    let mut state = seed | 1;
    let updates: Vec<Vec<(usize, T)>> = (0..n_iters)
        .map(|_| {
            let k = (splitmix64(&mut state) % 4) as usize;
            (0..k)
                .map(|_| {
                    let idx = (splitmix64(&mut state) as usize) % len;
                    let v = to_val(splitmix64(&mut state) % 8);
                    (idx, v)
                })
                .collect()
        })
        .collect();
    let init: Vec<T> = (0..len as u64).map(|i| to_val(i % 8)).collect();

    let mut expected = init.clone();
    for step in &updates {
        for &(idx, v) in step {
            expected[idx] = O::combine(expected[idx], v);
        }
    }

    let pool = ThreadPool::new(threads);
    let kernel = StreamKernel { updates: &updates };
    for strategy in arena_strategies(block) {
        let mut out = init.clone();
        reduce_strategy::<T, O, _>(
            strategy,
            &pool,
            &mut out,
            0..n_iters,
            Schedule::default(),
            &kernel,
        );
        assert_eq!(
            out,
            expected,
            "{} (len {len}, threads {threads}, block {block})",
            strategy.label()
        );
    }
}

macro_rules! identity_props {
    ($($test:ident: $t:ty, $op:ty, $conv:expr;)*) => {$(
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]
            #[test]
            fn $test(
                len in 1usize..300,
                threads in 1usize..5,
                // Odd, non-power-of-two and degenerate block sizes; the
                // block reducers round up to a power of two internally.
                block in prop::sample::select(vec![1usize, 3, 7, 48, 100, 257, 1024]),
                seed in any::<u64>(),
            ) {
                check_bit_identity::<$t, $op>(len, threads, block, seed, $conv);
            }
        }
    )*};
}

identity_props! {
    sums_bit_exact_f32: f32, Sum, |x| x as f32;
    sums_bit_exact_f64: f64, Sum, |x| x as f64;
    sums_bit_exact_i32: i32, Sum, |x| x as i32;
    sums_bit_exact_i64: i64, Sum, |x| x as i64;
    sums_bit_exact_u32: u32, Sum, |x| x as u32;
    sums_bit_exact_u64: u64, Sum, |x| x;
    sums_bit_exact_usize: usize, Sum, |x| x as usize;
    min_bit_exact_f64: f64, Min, |x| x as f64;
    max_bit_exact_i64: i64, Max, |x| x as i64;
}
