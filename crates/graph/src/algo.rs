//! Graph algorithms whose scatter phases run on spray reductions.

use crate::Graph;
use ompsim::{Schedule, ThreadPool};
use spray::{reduce_strategy, Kernel, Min, ReducerView, ReusableReducer, RunReport, Strategy, Sum};

/// Outcome of [`pagerank`].
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// Per-vertex rank (sums to 1).
    pub ranks: Vec<f64>,
    /// Power iterations performed.
    pub iterations: usize,
    /// Whether the L1 tolerance was reached within the iteration budget.
    pub converged: bool,
    /// The final power iteration's region report (phase times, per-thread
    /// counters) — the steady-state behavior of the scatter, after
    /// reducer scratch has warmed up. `None` only for a zero-iteration
    /// budget.
    pub report: Option<RunReport>,
    /// Rank pushes applied across *all* iterations (sum of every region's
    /// `applies` totals) — edge traversals actually performed.
    pub total_applies: u64,
}

/// Pushes each vertex `u`'s contribution `damping · rank/outdeg` to its
/// successors. Computing it per vertex inside the parallel push spares a
/// serial pass over all vertices before every region. A dangling vertex
/// has no successors and pushes nothing; its mass is spread through the
/// base rank instead.
struct PushKernel<'a> {
    g: &'a Graph,
    ranks: &'a [f64],
    damping: f64,
}

impl Kernel<f64> for PushKernel<'_> {
    #[inline]
    fn item<V: ReducerView<f64>>(&self, view: &mut V, u: usize) {
        let succ = self.g.out_neighbors(u);
        let c = self.damping * self.ranks[u] / succ.len() as f64;
        for &v in succ {
            view.apply(v as usize, c);
        }
    }
}

/// The vertices without out-edges, ascending. They are counted first so
/// the list is allocated once, at its exact size.
fn dangling_vertices(g: &Graph) -> Vec<u32> {
    let n = g.num_vertices();
    let is_dangling = |&u: &usize| g.out_degree(u) == 0;
    let mut list = Vec::with_capacity((0..n).filter(is_dangling).count());
    list.extend((0..n).filter(is_dangling).map(|u| u as u32));
    list
}

/// The rank every vertex starts a power iteration with: the teleport
/// share plus the dangling vertices' mass, spread uniformly.
fn base_rank(ranks: &[f64], dangling: &[u32], damping: f64) -> f64 {
    let n = ranks.len() as f64;
    let mut mass = 0.0;
    for &u in dangling {
        mass += ranks[u as usize];
    }
    (1.0 - damping) / n + damping * mass / n
}

/// PageRank by push-style power iteration: each vertex scatters
/// `damping · rank/outdeg` to its successors (a sum reduction with
/// data-dependent indices — the paper's Fig. 5 pattern). Dangling mass is
/// redistributed uniformly.
///
/// The push runs under `Schedule::dynamic(64)`, which balances threads by
/// the edges they push rather than the vertices they own: on power-law
/// graphs a static vertex split is badly skewed (on R-MAT, out-degree
/// follows the vertex's bit pattern, and a two-thread static split hands
/// thread 0 about three quarters of the edges).
pub fn pagerank(
    pool: &ThreadPool,
    g: &Graph,
    strategy: Strategy,
    damping: f64,
    tol: f64,
    max_iters: usize,
) -> PageRankResult {
    let n = g.num_vertices();
    assert!(n > 0, "empty graph");
    let mut ranks = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let dangling = dangling_vertices(g);
    // Reducer scratch survives the rank-vector swap: block strategies
    // allocate their base tables and private copies once, on the first
    // power iteration.
    let mut reducer = ReusableReducer::<f64, Sum>::new(strategy);
    let mut last_report = None;
    let mut total_applies = 0u64;

    for it in 1..=max_iters {
        next.fill(base_rank(&ranks, &dangling, damping));
        let kernel = PushKernel {
            g,
            ranks: &ranks,
            damping,
        };
        // The push pattern is the graph's CSR structure — identical every
        // power iteration — so one recorded plan replays for all of them.
        let report = reducer.run_planned(0, pool, &mut next, 0..n, Schedule::dynamic(64), &kernel);
        total_applies += report.counters.totals().applies;
        last_report = Some(report);
        let delta: f64 = ranks.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut ranks, &mut next);
        if delta < tol {
            return PageRankResult {
                ranks,
                iterations: it,
                converged: true,
                report: last_report,
                total_applies,
            };
        }
    }
    PageRankResult {
        ranks,
        iterations: max_iters,
        converged: false,
        report: last_report,
        total_applies,
    }
}

struct LabelKernel<'a> {
    g: &'a Graph,
    prev: &'a [u64],
}

impl Kernel<u64> for LabelKernel<'_> {
    #[inline]
    fn item<V: ReducerView<u64>>(&self, view: &mut V, u: usize) {
        let l = self.prev[u];
        for &v in self.g.out_neighbors(u) {
            view.apply(v as usize, l);
        }
    }
}

/// Connected components by min-label propagation — a **min** reduction
/// with data-dependent indices (exercising the non-`+=` compound
/// assignments the SPRAY interface allows). The graph is treated as
/// undirected only if it is symmetric; symmetrize first otherwise.
/// Returns the per-vertex component label (the minimum vertex id of the
/// component).
pub fn connected_components(pool: &ThreadPool, g: &Graph, strategy: Strategy) -> Vec<u64> {
    let n = g.num_vertices();
    let mut labels: Vec<u64> = (0..n as u64).collect();
    let mut reducer = ReusableReducer::<u64, Min>::new(strategy);
    loop {
        let prev = labels.clone();
        let kernel = LabelKernel { g, prev: &prev };
        // Label propagation scatters along the fixed edge set every
        // round: the first round's plan serves all later rounds.
        reducer.run_planned(0, pool, &mut labels, 0..n, Schedule::default(), &kernel);
        if labels == prev {
            return labels;
        }
    }
}

struct RelaxKernel<'a> {
    g: &'a Graph,
    frontier: &'a [u32],
    next_dist: u64,
}

impl Kernel<u64> for RelaxKernel<'_> {
    #[inline]
    fn item<V: ReducerView<u64>>(&self, view: &mut V, i: usize) {
        let u = self.frontier[i] as usize;
        for &v in self.g.out_neighbors(u) {
            view.apply(v as usize, self.next_dist);
        }
    }
}

/// Level-synchronous BFS from `src`: every level relaxes the frontier's
/// out-edges with a **min** reduction on the distance array. Returns
/// per-vertex hop distance (`u64::MAX` if unreachable).
pub fn bfs(pool: &ThreadPool, g: &Graph, src: usize, strategy: Strategy) -> Vec<u64> {
    let n = g.num_vertices();
    assert!(src < n, "source {src} out of range");
    let mut dist = vec![u64::MAX; n];
    dist[src] = 0;
    let mut frontier: Vec<u32> = vec![src as u32];
    let mut level = 0u64;
    let mut reducer = ReusableReducer::<u64, Min>::new(strategy);
    while !frontier.is_empty() {
        let kernel = RelaxKernel {
            g,
            frontier: &frontier,
            next_dist: level + 1,
        };
        // Deliberately unplanned: the frontier (and with it the iteration
        // range and scatter footprint) changes every level, so a recorded
        // plan would deviate immediately and only add rebuild cost.
        reducer.run(
            pool,
            &mut dist,
            0..frontier.len(),
            Schedule::default(),
            &kernel,
        );
        level += 1;
        frontier = (0..n)
            .filter(|&v| dist[v] == level)
            .map(|v| v as u32)
            .collect();
    }
    dist
}

struct DegreeKernel<'a> {
    g: &'a Graph,
}

impl Kernel<u64> for DegreeKernel<'_> {
    #[inline]
    fn item<V: ReducerView<u64>>(&self, view: &mut V, u: usize) {
        for &v in self.g.out_neighbors(u) {
            view.apply(v as usize, 1);
        }
    }
}

/// In-degree of every vertex — a pure scatter histogram (Fig. 5 of the
/// paper with `fn ≡ 1`).
pub fn in_degrees(pool: &ThreadPool, g: &Graph, strategy: Strategy) -> Vec<u64> {
    let n = g.num_vertices();
    let mut deg = vec![0u64; n];
    let kernel = DegreeKernel { g };
    reduce_strategy::<u64, Sum, _>(strategy, pool, &mut deg, 0..n, Schedule::default(), &kernel);
    deg
}

struct TriangleKernel<'a> {
    g: &'a Graph,
}

impl Kernel<u64> for TriangleKernel<'_> {
    #[inline]
    fn item<V: ReducerView<u64>>(&self, view: &mut V, u: usize) {
        // For every wedge u—v, u—w (v < w neighbors of u), check edge v—w;
        // if present, credit all three corners. Assumes a symmetric graph
        // with sorted neighbor lists.
        let nu = self.g.out_neighbors(u);
        for (a, &v) in nu.iter().enumerate() {
            let v = v as usize;
            if v <= u {
                continue; // count each triangle once via its smallest vertex
            }
            for &w in &nu[a + 1..] {
                let w = w as usize;
                if w <= u || w == v {
                    continue;
                }
                if self.g.out_neighbors(v).binary_search(&(w as u32)).is_ok() {
                    view.apply(u, 1);
                    view.apply(v, 1);
                    view.apply(w, 1);
                }
            }
        }
    }
}

/// Per-vertex triangle counts on a symmetric graph with sorted adjacency
/// (as produced by [`Graph::from_edges`]) — the classic GAP kernel, whose
/// per-corner credit scatter is again a data-dependent sum reduction.
/// Returns per-vertex counts; the total number of triangles is
/// `sum(counts) / 3`.
pub fn triangle_counts(pool: &ThreadPool, g: &Graph, strategy: Strategy) -> Vec<u64> {
    let n = g.num_vertices();
    let mut tri = vec![0u64; n];
    let kernel = TriangleKernel { g };
    reduce_strategy::<u64, Sum, _>(strategy, pool, &mut tri, 0..n, Schedule::default(), &kernel);
    tri
}

/// K-core decomposition by iterative peeling on a symmetric graph: each
/// round removes all vertices whose remaining degree is below `k`,
/// recomputing degrees with the scatter-sum reduction until a fixed point.
/// Returns the membership mask of the `k`-core (which may be empty).
pub fn k_core(pool: &ThreadPool, g: &Graph, k: u64, strategy: Strategy) -> Vec<bool> {
    let n = g.num_vertices();
    let mut alive = vec![true; n];
    loop {
        // Degrees restricted to alive vertices, via the reduction.
        struct AliveDegrees<'a> {
            g: &'a Graph,
            alive: &'a [bool],
        }
        impl Kernel<u64> for AliveDegrees<'_> {
            #[inline]
            fn item<V: ReducerView<u64>>(&self, view: &mut V, u: usize) {
                if self.alive[u] {
                    for &v in self.g.out_neighbors(u) {
                        if self.alive[v as usize] {
                            view.apply(v as usize, 1);
                        }
                    }
                }
            }
        }
        let mut deg = vec![0u64; n];
        let kernel = AliveDegrees { g, alive: &alive };
        reduce_strategy::<u64, Sum, _>(
            strategy,
            pool,
            &mut deg,
            0..n,
            Schedule::default(),
            &kernel,
        );
        let mut changed = false;
        for u in 0..n {
            if alive[u] && deg[u] < k {
                alive[u] = false;
                changed = true;
            }
        }
        if !changed {
            return alive;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    fn seq_bfs(g: &Graph, src: usize) -> Vec<u64> {
        let mut dist = vec![u64::MAX; g.num_vertices()];
        let mut q = std::collections::VecDeque::new();
        dist[src] = 0;
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            for &v in g.out_neighbors(u) {
                let v = v as usize;
                if dist[v] == u64::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn bfs_on_path_counts_hops() {
        let g = Graph::path(10);
        let d = bfs(&pool(), &g, 3, Strategy::Atomic);
        for v in 0..10 {
            assert_eq!(d[v], (v as i64 - 3).unsigned_abs());
        }
    }

    #[test]
    fn bfs_matches_sequential_on_de_bruijn() {
        let g = Graph::de_bruijn(8);
        let want = seq_bfs(&g, 1);
        for strategy in [
            Strategy::Atomic,
            Strategy::BlockCas { block_size: 32 },
            Strategy::Keeper,
            Strategy::Dense,
        ] {
            let got = bfs(&pool(), &g, 1, strategy);
            assert_eq!(got, want, "strategy {}", strategy.label());
        }
    }

    #[test]
    fn bfs_unreachable_stays_max() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 0)]);
        let d = bfs(&pool(), &g, 0, Strategy::Atomic);
        assert_eq!(d, vec![0, 1, u64::MAX, u64::MAX]);
    }

    #[test]
    fn cc_identifies_components() {
        // Two components: {0,1,2} (path) and {3,4} (edge); vertex 5 alone.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).symmetrized();
        for strategy in [Strategy::Atomic, Strategy::BlockLock { block_size: 4 }] {
            let l = connected_components(&pool(), &g, strategy);
            assert_eq!(l, vec![0, 0, 0, 3, 3, 5], "strategy {}", strategy.label());
        }
    }

    #[test]
    fn cc_single_component_on_cycle() {
        let g = Graph::cycle(64).symmetrized();
        let l = connected_components(&pool(), &g, Strategy::Keeper);
        assert!(l.iter().all(|&x| x == 0));
    }

    #[test]
    fn pagerank_uniform_on_regular_graph() {
        // On a directed cycle every vertex is symmetric: ranks are uniform.
        let n = 100;
        let g = Graph::cycle(n);
        let r = pagerank(
            &pool(),
            &g,
            Strategy::BlockCas { block_size: 16 },
            0.85,
            1e-12,
            200,
        );
        assert!(r.converged);
        for &x in &r.ranks {
            assert!((x - 1.0 / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn pagerank_is_a_distribution_with_dangling_nodes() {
        // Vertex 2 dangles; mass must still sum to 1.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (3, 0)]);
        let r = pagerank(&pool(), &g, Strategy::Atomic, 0.85, 1e-12, 500);
        assert!(r.converged);
        let total: f64 = r.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
        // The sink-fed vertex outranks its feeder.
        assert!(r.ranks[2] > r.ranks[3]);
    }

    /// Push-style power iteration with the contribution pass kept apart
    /// from the push: every iteration first divides each rank by its
    /// out-degree into a contribution vector, then `scatter(contrib,
    /// next)` adds the contributions to `next`. Returns the ranks and the
    /// iteration count.
    fn separate_pass_pagerank(
        g: &Graph,
        damping: f64,
        tol: f64,
        max_iters: usize,
        mut scatter: impl FnMut(&[f64], &mut [f64]),
    ) -> (Vec<f64>, usize) {
        let n = g.num_vertices();
        let mut ranks = vec![1.0 / n as f64; n];
        let mut contrib = vec![0.0f64; n];
        let mut next = vec![0.0f64; n];
        for it in 1..=max_iters {
            let mut dangling = 0.0;
            for u in 0..n {
                let d = g.out_degree(u);
                if d == 0 {
                    dangling += ranks[u];
                    contrib[u] = 0.0;
                } else {
                    contrib[u] = damping * ranks[u] / d as f64;
                }
            }
            next.fill((1.0 - damping) / n as f64 + damping * dangling / n as f64);
            scatter(&contrib, &mut next);
            let delta: f64 = ranks.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut ranks, &mut next);
            if delta < tol {
                return (ranks, it);
            }
        }
        (ranks, max_iters)
    }

    /// The first vertex whose rank differs in any bit, if one does.
    fn first_bit_difference(got: &[f64], want: &[f64]) -> Option<(usize, f64, f64)> {
        assert_eq!(got.len(), want.len());
        (0..got.len())
            .find(|&u| got[u].to_bits() != want[u].to_bits())
            .map(|u| (u, got[u], want[u]))
    }

    #[test]
    fn pagerank_is_bit_identical_to_a_separate_contribution_pass() {
        // At one thread a block-CAS push owns every block and adds into
        // the ranks in push order, and a dense push adds into one
        // zero-filled private copy merged afterwards; each must match the
        // same scatter after a separate contribution pass bit for bit.
        // R-MAT leaves many vertices without out-edges, so the dangling
        // mass is exercised too.
        let g = Graph::from_csr_pattern(&spray_sparse::gen::rmat(12, 8, 7));
        let n = g.num_vertices();
        assert!((0..n).any(|u| g.out_degree(u) == 0), "no dangling vertex");
        let (damping, tol, max_iters) = (0.85, 1e-10, 200);
        let pool = ThreadPool::new(1);

        let (want, iterations) = separate_pass_pagerank(&g, damping, tol, max_iters, |c, next| {
            for (u, &cu) in c.iter().enumerate() {
                for &v in g.out_neighbors(u) {
                    next[v as usize] += cu;
                }
            }
        });
        let strategy = Strategy::BlockCas { block_size: 1024 };
        let got = pagerank(&pool, &g, strategy, damping, tol, max_iters);
        assert!(got.converged);
        assert_eq!(got.iterations, iterations);
        assert_eq!(first_bit_difference(&got.ranks, &want), None, "block-CAS");

        let (want, iterations) = separate_pass_pagerank(&g, damping, tol, max_iters, |c, next| {
            let mut private = vec![0.0f64; n];
            for (u, &cu) in c.iter().enumerate() {
                for &v in g.out_neighbors(u) {
                    private[v as usize] += cu;
                }
            }
            for (x, p) in next.iter_mut().zip(&private) {
                *x += p;
            }
        });
        let got = pagerank(&pool, &g, Strategy::Dense, damping, tol, max_iters);
        assert!(got.converged);
        assert_eq!(got.iterations, iterations);
        assert_eq!(first_bit_difference(&got.ranks, &want), None, "dense");
    }

    #[test]
    fn in_degrees_match_manual_count() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 1), (3, 1), (1, 4), (4, 0)]);
        let deg = in_degrees(&pool(), &g, Strategy::Atomic);
        assert_eq!(deg, vec![1, 3, 0, 0, 1]);
    }

    #[test]
    fn triangles_on_known_graphs() {
        // A single triangle.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).symmetrized();
        let t = triangle_counts(&pool(), &g, Strategy::Atomic);
        assert_eq!(t, vec![1, 1, 1]);

        // K4 has 4 triangles; every vertex is in 3 of them.
        let mut edges = Vec::new();
        for a in 0..4 {
            for b in a + 1..4 {
                edges.push((a, b));
            }
        }
        let k4 = Graph::from_edges(4, &edges).symmetrized();
        let t = triangle_counts(&pool(), &k4, Strategy::BlockCas { block_size: 2 });
        assert_eq!(t, vec![3, 3, 3, 3]);
        assert_eq!(t.iter().sum::<u64>() / 3, 4);

        // A path has none.
        let p = Graph::path(6);
        let t = triangle_counts(&pool(), &p, Strategy::Keeper);
        assert!(t.iter().all(|&x| x == 0));
    }

    #[test]
    fn k_core_peels_correctly() {
        // K4 plus a pendant path: the 3-core is exactly the K4.
        let mut edges = Vec::new();
        for a in 0..4 {
            for b in a + 1..4 {
                edges.push((a, b));
            }
        }
        edges.push((3, 4));
        edges.push((4, 5));
        let g = Graph::from_edges(6, &edges).symmetrized();

        let core3 = k_core(&pool(), &g, 3, Strategy::Atomic);
        assert_eq!(core3, vec![true, true, true, true, false, false]);
        // 1-core keeps everything connected by at least one edge.
        let core1 = k_core(&pool(), &g, 1, Strategy::Keeper);
        assert!(core1.iter().all(|&x| x));
        // 4-core is empty (K4 vertices have degree 3).
        let core4 = k_core(&pool(), &g, 4, Strategy::BlockCas { block_size: 4 });
        assert!(core4.iter().all(|&x| !x));
    }

    #[test]
    fn pagerank_strategies_agree() {
        let g = Graph::de_bruijn(8);
        let a = pagerank(&pool(), &g, Strategy::Dense, 0.85, 1e-12, 100);
        for strategy in [Strategy::Atomic, Strategy::Keeper, Strategy::MapHash] {
            let b = pagerank(&pool(), &g, strategy, 0.85, 1e-12, 100);
            assert_eq!(a.iterations, b.iterations);
            for (x, y) in a.ranks.iter().zip(&b.ranks) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }
}
