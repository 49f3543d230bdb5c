//! Runtime-selectable strategies.
//!
//! The paper's headline usability claim is that the reduction scheme is a
//! one-line change, decoupled from the loop body. [`Strategy`] is the Rust
//! form of that: a value describing which reducer to use, dispatched to the
//! fully monomorphized implementation by [`reduce_strategy`] (zero-cost,
//! kernel written once against the [`Kernel`] trait) or
//! [`reduce_dyn`] (closure-friendly, one virtual call per update).

use crate::elem::{AtomicElement, ReduceOp};
use crate::executor::RegionExecutor;
use crate::reducer::ReducerView;
use crate::telemetry::RunReport;
use ompsim::{Schedule, ThreadPool};
use std::ops::Range;

/// A reduction strategy choice, including its hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Full per-thread privatization (OpenMP's built-in scheme).
    Dense,
    /// Per-thread `BTreeMap` accumulation.
    MapBTree,
    /// Per-thread `HashMap` accumulation.
    MapHash,
    /// Atomic updates on the original array.
    Atomic,
    /// Lazy per-thread privatization of `block_size`-element blocks.
    BlockPrivate {
        /// Elements per block.
        block_size: usize,
    },
    /// Direct block ownership via a lock, privatization fallback.
    BlockLock {
        /// Elements per block.
        block_size: usize,
    },
    /// Direct block ownership via CAS, privatization fallback.
    BlockCas {
        /// Elements per block.
        block_size: usize,
    },
    /// Static ownership ranges with update forwarding.
    Keeper,
}

impl Strategy {
    /// The label used in the paper's plots (e.g. `block-CAS-1024`).
    pub fn label(&self) -> String {
        match self {
            Strategy::Dense => "dense".into(),
            Strategy::MapBTree => "map-btree".into(),
            Strategy::MapHash => "map-hash".into(),
            Strategy::Atomic => "atomic".into(),
            Strategy::BlockPrivate { block_size } => format!("block-private-{block_size}"),
            Strategy::BlockLock { block_size } => format!("block-lock-{block_size}"),
            Strategy::BlockCas { block_size } => format!("block-CAS-{block_size}"),
            Strategy::Keeper => "keeper".into(),
        }
    }

    /// All strategies with a given block size — the full set §V evaluates.
    pub fn all(block_size: usize) -> Vec<Strategy> {
        vec![
            Strategy::Dense,
            Strategy::MapBTree,
            Strategy::MapHash,
            Strategy::Atomic,
            Strategy::BlockPrivate { block_size },
            Strategy::BlockLock { block_size },
            Strategy::BlockCas { block_size },
            Strategy::Keeper,
        ]
    }

    /// The competitive subset the paper keeps after §VII's first-cut
    /// ("map-based reductions were not competitive and are not included in
    /// the remaining discussion").
    pub fn competitive(block_size: usize) -> Vec<Strategy> {
        vec![
            Strategy::Dense,
            Strategy::Atomic,
            Strategy::BlockPrivate { block_size },
            Strategy::BlockLock { block_size },
            Strategy::BlockCas { block_size },
            Strategy::Keeper,
        ]
    }
}

/// Error from parsing a [`Strategy`] with `str::parse`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError(String);

impl std::fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid strategy '{}': expected dense | map-btree | map-hash | atomic | \
             keeper | block-private[-N] | block-lock[-N] | block-cas[-N]",
            self.0
        )
    }
}

impl std::error::Error for ParseStrategyError {}

impl std::str::FromStr for Strategy {
    type Err = ParseStrategyError;

    /// Parses the label format produced by [`Strategy::label`]
    /// (case-insensitive; block strategies default to block size 1024 when
    /// the suffix is omitted, e.g. `block-cas` ≡ `block-CAS-1024`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseStrategyError(s.to_string());
        let lower = s.trim().to_ascii_lowercase();
        match lower.as_str() {
            "dense" => return Ok(Strategy::Dense),
            "map-btree" => return Ok(Strategy::MapBTree),
            "map-hash" => return Ok(Strategy::MapHash),
            "atomic" => return Ok(Strategy::Atomic),
            "keeper" => return Ok(Strategy::Keeper),
            _ => {}
        }
        for (prefix, make) in [
            ("block-private", Strategy::BlockPrivate { block_size: 0 }),
            ("block-lock", Strategy::BlockLock { block_size: 0 }),
            ("block-cas", Strategy::BlockCas { block_size: 0 }),
        ] {
            if let Some(rest) = lower.strip_prefix(prefix) {
                let block_size = match rest {
                    "" => 1024,
                    _ => rest
                        .strip_prefix('-')
                        .and_then(|n| n.parse::<usize>().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(err)?,
                };
                return Ok(match make {
                    Strategy::BlockPrivate { .. } => Strategy::BlockPrivate { block_size },
                    Strategy::BlockLock { .. } => Strategy::BlockLock { block_size },
                    _ => Strategy::BlockCas { block_size },
                });
            }
        }
        Err(err())
    }
}

/// A reduction loop body, written once and monomorphized against every
/// strategy's concrete view type.
pub trait Kernel<T: crate::Element>: Sync {
    /// Executes iteration `i`, contributing updates through `view`.
    fn item<V: ReducerView<T>>(&self, view: &mut V, i: usize);
}

/// Runs `kernel` over `range` on `pool`, reducing into `out` with the
/// chosen `strategy`. Fully monomorphized per strategy.
///
/// This is a one-shot convenience over [`RegionExecutor`]: it builds a
/// throwaway executor per call, so nothing is retained between regions.
/// Iterative callers should hold a [`RegionExecutor`] (alias
/// [`crate::ReusableReducer`]) instead.
pub fn reduce_strategy<T, O, K>(
    strategy: Strategy,
    pool: &ThreadPool,
    out: &mut [T],
    range: Range<usize>,
    schedule: Schedule,
    kernel: &K,
) -> RunReport
where
    T: AtomicElement,
    O: ReduceOp<T>,
    K: Kernel<T>,
{
    RegionExecutor::<T, O>::new(strategy).run(pool, out, range, schedule, kernel)
}

struct ClosureKernel<'f, T>(&'f (dyn Fn(&mut dyn ReducerView<T>, usize) + Sync));

impl<T: crate::Element> Kernel<T> for ClosureKernel<'_, T> {
    #[inline]
    fn item<V: ReducerView<T>>(&self, view: &mut V, i: usize) {
        (self.0)(view, i);
    }
}

/// Closure-friendly variant of [`reduce_strategy`]: the body receives a
/// `&mut dyn ReducerView`, costing one virtual call per update. Use
/// [`Kernel`] + [`reduce_strategy`] in performance-critical code.
pub fn reduce_dyn<T, O>(
    strategy: Strategy,
    pool: &ThreadPool,
    out: &mut [T],
    range: Range<usize>,
    schedule: Schedule,
    body: &(dyn Fn(&mut dyn ReducerView<T>, usize) + Sync),
) -> RunReport
where
    T: AtomicElement,
    O: ReduceOp<T>,
{
    reduce_strategy::<T, O, _>(strategy, pool, out, range, schedule, &ClosureKernel(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReusableReducer, Sum};

    #[test]
    fn labels_match_paper_naming() {
        assert_eq!(Strategy::Dense.label(), "dense");
        assert_eq!(
            Strategy::BlockCas { block_size: 1024 }.label(),
            "block-CAS-1024"
        );
        assert_eq!(Strategy::Keeper.label(), "keeper");
    }

    #[test]
    fn parse_roundtrips_labels() {
        // Every label the library can emit must parse back to the same
        // variant, across block sizes (catches label drift like the
        // capitalized `block-CAS-1024`) and for both strategy sets.
        for bs in [1, 16, 512, 1024, 4096] {
            for s in Strategy::all(bs)
                .into_iter()
                .chain(Strategy::competitive(bs))
            {
                assert_eq!(s.label().parse::<Strategy>().unwrap(), s, "{}", s.label());
            }
        }
    }

    #[test]
    fn parse_defaults_and_rejects() {
        assert_eq!(
            "block-cas".parse::<Strategy>().unwrap(),
            Strategy::BlockCas { block_size: 1024 }
        );
        assert_eq!(
            "Block-Lock-64".parse::<Strategy>().unwrap(),
            Strategy::BlockLock { block_size: 64 }
        );
        for bad in [
            "",
            "blocky",
            "block-cas-0",
            "block-cas-x",
            "dense-4",
            "log",
            "hybrid",
            "segmented",
        ] {
            assert!(bad.parse::<Strategy>().is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn all_contains_every_strategy() {
        assert_eq!(Strategy::all(256).len(), 8);
        assert_eq!(Strategy::competitive(256).len(), 6);
    }

    struct Histogram<'a> {
        data: &'a [usize],
    }
    impl Kernel<i64> for Histogram<'_> {
        fn item<V: ReducerView<i64>>(&self, view: &mut V, i: usize) {
            view.apply(self.data[i], 1);
        }
    }

    #[test]
    fn every_strategy_agrees_with_sequential() {
        let pool = ThreadPool::new(4);
        let n_bins = 97;
        let data: Vec<usize> = (0..10_000).map(|i| (i * 7919) % n_bins).collect();

        let mut expected = vec![0i64; n_bins];
        for &d in &data {
            expected[d] += 1;
        }

        let kernel = Histogram { data: &data };
        for strategy in Strategy::all(16) {
            let mut out = vec![0i64; n_bins];
            let report = reduce_strategy::<i64, Sum, _>(
                strategy,
                &pool,
                &mut out,
                0..data.len(),
                Schedule::default(),
                &kernel,
            );
            assert_eq!(out, expected, "strategy {} wrong", report.strategy);
        }
    }

    #[test]
    fn reusable_reducer_matches_fresh_runs() {
        let pool = ThreadPool::new(3);
        let n_bins = 97;
        let data: Vec<usize> = (0..5_000).map(|i| (i * 7919) % n_bins).collect();
        let kernel = Histogram { data: &data };

        for strategy in Strategy::all(16) {
            let mut reducer = ReusableReducer::<i64, Sum>::new(strategy);
            // Alternate between two buffers (PageRank-style swap) over
            // several regions; each region must match a fresh run.
            let mut bufs = [vec![0i64; n_bins], vec![0i64; n_bins]];
            for region in 0..4 {
                let out = &mut bufs[region % 2];
                out.fill(0);
                reducer.run(&pool, out, 0..data.len(), Schedule::default(), &kernel);

                let mut expected = vec![0i64; n_bins];
                reduce_strategy::<i64, Sum, _>(
                    strategy,
                    &pool,
                    &mut expected,
                    0..data.len(),
                    Schedule::default(),
                    &kernel,
                );
                assert_eq!(
                    *out,
                    expected,
                    "strategy {} region {region}",
                    strategy.label()
                );
            }
        }
    }

    #[test]
    fn reduce_dyn_matches() {
        let pool = ThreadPool::new(2);
        let mut out = vec![0i64; 10];
        reduce_dyn::<i64, Sum>(
            Strategy::Keeper,
            &pool,
            &mut out,
            0..100,
            Schedule::default(),
            &|v, i| v.apply(i % 10, 1),
        );
        assert!(out.iter().all(|&x| x == 10));
    }
}
