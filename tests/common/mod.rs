//! A push-style PageRank loop shared by the region-reuse tests.

use ompsim::{Schedule, ThreadPool};
use spray::{Kernel, ReducerView, ReusableReducer, Sum};

/// Push-style PageRank step: iteration `u` scatters `rank[u] / deg(u)`
/// to each out-neighbor of `u`. Borrows everything; applying it never
/// allocates.
pub struct PushKernel<'a> {
    pub offsets: &'a [usize],
    pub targets: &'a [usize],
    pub ranks: &'a [f64],
}

impl Kernel<f64> for PushKernel<'_> {
    fn item<V: ReducerView<f64>>(&self, view: &mut V, u: usize) {
        let row = self.offsets[u]..self.offsets[u + 1];
        let deg = row.len().max(1) as f64;
        let share = self.ranks[u] / deg;
        for &v in &self.targets[row] {
            view.apply(v, share);
        }
    }
}

/// Deterministic synthetic graph: ring edges plus a few long-range hops,
/// so updates hit both the streaming and the scattered block paths.
pub fn build_graph(n: usize) -> (Vec<usize>, Vec<usize>) {
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::new();
    offsets.push(0);
    for u in 0..n {
        targets.push((u + 1) % n);
        targets.push((u + n - 1) % n);
        targets.push((u * 7919 + 13) % n);
        offsets.push(targets.len());
    }
    (offsets, targets)
}

/// Runs `regions` PageRank pushes through one retained `reducer`,
/// swapping the rank vectors after each.
pub fn run_regions_reused(
    pool: &ThreadPool,
    reducer: &mut ReusableReducer<f64, Sum>,
    offsets: &[usize],
    targets: &[usize],
    ranks: &mut Vec<f64>,
    next: &mut Vec<f64>,
    regions: usize,
) {
    let n = ranks.len();
    for _ in 0..regions {
        next.iter_mut().for_each(|x| *x = 0.0);
        let kernel = PushKernel {
            offsets,
            targets,
            ranks,
        };
        reducer.run(pool, next, 0..n, Schedule::default(), &kernel);
        std::mem::swap(ranks, next);
    }
}
