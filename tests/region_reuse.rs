//! Region reuse must not change results: a PageRank loop driven through
//! one retained [`ReusableReducer`] matches the same loop run with a fresh
//! reducer per region. The allocation side of reuse (warm regions stop
//! allocating scratch) is checked in `alloc_counts.rs`.

mod common;

use common::{build_graph, run_regions_reused, PushKernel};
use ompsim::{Schedule, ThreadPool};
use spray::{reduce_strategy, ReusableReducer, Strategy, Sum};

#[test]
fn reused_pagerank_matches_fresh_run() {
    // The reused reducer's ranks after k regions equal a fresh-reducer
    // run's ranks after k regions.
    let n = 1 << 10;
    let (offsets, targets) = build_graph(n);
    let pool = ThreadPool::new(3);
    let strategy = Strategy::BlockCas { block_size: 32 };
    let regions = 4;

    let mut ranks_reused = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut reducer = ReusableReducer::<f64, Sum>::new(strategy);
    run_regions_reused(
        &pool,
        &mut reducer,
        &offsets,
        &targets,
        &mut ranks_reused,
        &mut next,
        regions,
    );

    let mut ranks_fresh = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..regions {
        next.iter_mut().for_each(|x| *x = 0.0);
        let kernel = PushKernel {
            offsets: &offsets,
            targets: &targets,
            ranks: &ranks_fresh,
        };
        reduce_strategy::<f64, Sum, _>(
            strategy,
            &pool,
            &mut next,
            0..n,
            Schedule::default(),
            &kernel,
        );
        std::mem::swap(&mut ranks_fresh, &mut next);
    }

    for (i, (&a, &b)) in ranks_reused.iter().zip(&ranks_fresh).enumerate() {
        assert!(
            (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0),
            "rank {i}: reused {a} vs fresh {b}"
        );
    }
}
