//! # spray — sparse reductions of arrays
//!
//! A Rust reproduction of the SPRAY library from *"Spray: Sparse Reductions
//! of Arrays in OpenMP"* (Hückelheim & Doerfert, 2021). SPRAY targets
//! parallel loops in which a large array is collaboratively updated with an
//! associative & commutative operation (`out[idx] += v`) and each thread
//! touches only part of the array. Fully privatizing the array per thread
//! (what OpenMP's `reduction` clause prescribes) wastes memory and time;
//! annotating every update as atomic is invasive and contention-prone.
//!
//! SPRAY separates the *intent* — safely accumulate concurrent
//! contributions — from the *strategy*. You pick a reducer, the loop body
//! stays the same:
//!
//! ```
//! use spray::{reduce, BlockCasReduction, ReducerView, Sum};
//! use ompsim::{Schedule, ThreadPool};
//!
//! let pool = ThreadPool::new(4);
//! let n = 1000;
//! let inp: Vec<f64> = (0..n).map(|i| i as f64).collect();
//! let mut out = vec![0.0f64; n];
//!
//! // Equivalent of Fig. 7 of the paper: a 2-point scatter with
//! // loop-carried reduction dependencies, parallelized safely.
//! let sout = BlockCasReduction::<f64, Sum>::new(&mut out, 4, 256);
//! reduce(&pool, &sout, 1..n - 1, Schedule::default(), |view, i| {
//!     view.apply(i - 1, 0.5 * inp[i]);
//!     view.apply(i + 1, 0.5 * inp[i]);
//! });
//! drop(sout); // all contributions are now visible in `out`
//! # assert!((out[500] - 500.0).abs() < 1e-9);
//! ```
//!
//! Swapping `BlockCasReduction` for [`DenseReduction`], [`AtomicReduction`],
//! [`KeeperReduction`], … changes only that one line — or use the
//! runtime-valued [`Strategy`] with [`reduce_strategy`]/[`reduce_dyn`].
//!
//! ## Strategies
//!
//! | Type | Paper name | Memory | Sweet spot |
//! |------|------------|--------|------------|
//! | [`DenseReduction`] | dense | `threads × N` | tiny arrays, few threads |
//! | [`BTreeMapReduction`] / [`HashMapReduction`] | map | per touched entry | (not competitive; baseline) |
//! | [`AtomicReduction`] | atomic | none | sparse, low-contention updates |
//! | [`BlockPrivateReduction`] | block-private | touched blocks | high temporal+spatial locality |
//! | [`BlockLockReduction`] | block-lock | fallback blocks | high locality, mostly-exclusive blocks |
//! | [`BlockCasReduction`] | block-CAS | fallback blocks | like block-lock, lock-free claim |
//! | [`KeeperReduction`] | keeper | forwarded updates | updates aligned with static ownership |
//!
//! Every strategy guarantees the same result as a sequential loop up to
//! floating-point reassociation (the same assumption OpenMP reductions
//! make); integer reductions are exact and the crate's property tests
//! verify cross-strategy agreement bit-for-bit on integers.
//!
//! ## Relationship to the C++ original
//!
//! The C++ library overloads `operator[]`/`+=` on reducer objects placed in
//! an OpenMP `reduction` clause. Rust has no compound index assignment to
//! overload, so views expose [`ReducerView::apply`]; the OpenMP
//! `declare reduction` init/combine machinery maps onto
//! [`Reduction::view`]/[`Reduction::stash`]/[`Reduction::epilogue`], driven
//! by [`reduce`] over an [`ompsim::ThreadPool`].

#![warn(missing_docs)]
#![cfg_attr(feature = "simd", feature(portable_simd))]

mod adaptive;
pub mod arena;
mod argmax;
mod atomic;
mod block;
mod delta;
mod dense;
mod elem;
mod executor;
mod kahan;
mod keeper;
pub mod kernels;
mod map;
pub mod nd;
mod plan;
mod reducer;
mod shared;
mod strategy;
mod telemetry;
pub mod verify;

pub use adaptive::{
    default_candidates, recommend, score as adaptive_score, AdaptiveConfig, ExecutorPolicy,
    RegionSignals,
};
pub use argmax::{MaxAt, MinAt, ValueAt};
pub use atomic::{AtomicReduction, AtomicView};
pub use block::{
    BlockCasReduction, BlockCasScratch, BlockLockReduction, BlockLockScratch,
    BlockPrivateReduction, BlockPrivateScratch, BlockReduction, BlockScratch, BlockView,
};
pub use delta::{DeltaBatch, DELTA_BLOCK_BITS, DELTA_DIRTY_FALLBACK};
pub use dense::{DenseReduction, DenseView};
pub use elem::{
    AtomicElement, Element, Max, Min, OpKind, OrdOps, Prod, ProdOps, ReduceOp, Sum, SumOps,
};
pub use executor::{RegionExecutor, ReusableReducer};
pub use kahan::Kahan64;
pub use keeper::{KeeperReduction, KeeperView};
pub use map::{BTreeMapReduction, HashMapReduction, MapLike, MapOpView, MapReduction};
pub use plan::{RegionPlan, ThreadBlocks};
pub use reducer::{
    reduce, reduce_chunked, reduce_seq, CountedView, ReducerView, Reduction, SeqView,
};
pub use strategy::{reduce_dyn, reduce_strategy, Kernel, ParseStrategyError, Strategy};
pub use telemetry::{Counters, JsonWriter, PhaseTimes, RunReport, Telemetry};
