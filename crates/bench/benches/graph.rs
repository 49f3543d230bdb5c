//! Criterion micro-benchmark for the graph workloads (the paper's §VI-B
//! graph-proxy motivation made concrete): one PageRank push iteration and
//! one BFS per strategy on a de Bruijn graph.

use criterion::{criterion_group, criterion_main, Criterion};
use ompsim::ThreadPool;
use spray::Strategy;
use spray_graph::{bfs, in_degrees, pagerank, Graph};

fn bench_graph(c: &mut Criterion) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pool = ThreadPool::new(threads);
    let g = Graph::de_bruijn(15); // 32k vertices

    let strategies = [
        Strategy::Dense,
        Strategy::Atomic,
        Strategy::BlockCas { block_size: 1024 },
        Strategy::Keeper,
        Strategy::BlockPrivate { block_size: 1024 },
    ];

    let mut group = c.benchmark_group("graph_pagerank_10it");
    group.sample_size(10);
    for strategy in strategies {
        group.bench_function(strategy.label(), |b| {
            b.iter(|| pagerank(&pool, &g, strategy, 0.85, 0.0, 10))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("graph_bfs");
    group.sample_size(10);
    for strategy in strategies {
        group.bench_function(strategy.label(), |b| b.iter(|| bfs(&pool, &g, 1, strategy)));
    }
    group.finish();

    let mut group = c.benchmark_group("graph_degree_histogram");
    group.sample_size(10);
    for strategy in strategies {
        group.bench_function(strategy.label(), |b| {
            b.iter(|| in_degrees(&pool, &g, strategy))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_graph);
criterion_main!(benches);
