//! Streaming graph mutations on delta reductions.
//!
//! The batch algorithms in [`crate::algo`] re-run every scatter from
//! scratch when the graph changes. This module keeps the scatter arrays
//! *live* across edge insertions and deletions using
//! [`spray::RegionExecutor::run_delta`]: each power-iteration or
//! label-propagation round submits only the contributions that changed
//! — retracting a source's previous tagged pushes and re-applying its
//! current ones — so the executor touches only the dirty delta blocks.
//!
//! * [`StreamingGraph`] — mutable adjacency (edge insert/delete, no
//!   duplicate edges) with a CSR [`Graph`] snapshot for recompute-based
//!   differential testing;
//! * [`StreamingPageRank`] — warm-started incremental PageRank: after a
//!   small mutation the first iteration re-applies only the mutated
//!   sources, and the ripple widens outward like a frontier;
//! * [`StreamingComponents`] — incremental min-label propagation on the
//!   `u64` Min refold path: edge insertions warm-start (labels only
//!   fall), deletions auto-detect and re-baseline via
//!   [`spray::RegionExecutor::reset_delta`]. Labels at the fixed point
//!   equal a from-scratch [`crate::connected_components`] exactly.

use crate::Graph;
use ompsim::ThreadPool;
use spray::{DeltaBatch, Min, RegionExecutor, Strategy, Sum};

/// A directed graph under edge-level mutation. Adjacency lists stay
/// sorted and duplicate-free; [`snapshot`](StreamingGraph::snapshot)
/// yields the equivalent immutable CSR [`Graph`] for differential
/// recomputes.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingGraph {
    adj: Vec<Vec<u32>>,
    m: usize,
}

impl StreamingGraph {
    /// An edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        StreamingGraph {
            adj: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Builds from an edge list (duplicates collapse to one edge).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = StreamingGraph::new(n);
        for &(u, v) in edges {
            g.insert_edge(u, v);
        }
        g
    }

    /// Inserts the directed edge `u → v`; returns `false` if it was
    /// already present. Self-loops are allowed.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn insert_edge(&mut self, u: usize, v: usize) -> bool {
        let n = self.num_vertices();
        assert!(u < n && v < n, "edge ({u},{v}) out of range");
        match self.adj[u].binary_search(&(v as u32)) {
            Ok(_) => false,
            Err(at) => {
                self.adj[u].insert(at, v as u32);
                self.m += 1;
                true
            }
        }
    }

    /// Removes the directed edge `u → v`; returns `false` if absent.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        let n = self.num_vertices();
        assert!(u < n && v < n, "edge ({u},{v}) out of range");
        match self.adj[u].binary_search(&(v as u32)) {
            Ok(at) => {
                self.adj[u].remove(at);
                self.m -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Out-neighbors of `u`, sorted.
    #[inline]
    pub fn out_neighbors(&self, u: usize) -> &[u32] {
        &self.adj[u]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// The current edge set as an immutable CSR [`Graph`].
    pub fn snapshot(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.m);
        for (u, nb) in self.adj.iter().enumerate() {
            for &v in nb {
                edges.push((u, v as usize));
            }
        }
        Graph::from_edges(self.num_vertices(), &edges)
    }
}

/// What the last contribution committed for one source looks like: its
/// tag generation, the pushed value, and the exact target list — needed
/// to retract it when the source changes.
#[derive(Debug, Clone)]
struct AppliedSource<T> {
    gen: u32,
    value: T,
    targets: Vec<u32>,
}

#[inline]
fn source_tag(u: usize, gen: u32) -> u64 {
    ((u as u64) << 32) | gen as u64
}

/// What one incremental update did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Power iterations / propagation rounds run.
    pub rounds: usize,
    /// Source re-applications across all rounds (retract + push pairs,
    /// or first-time pushes).
    pub reapplied_sources: u64,
    /// Individual retractions submitted across all rounds.
    pub retractions: u64,
    /// Full re-baselines forced (always 0 for PageRank; for components,
    /// 1 when an edge deletion was detected).
    pub resets: u64,
    /// Whether the update reached its fixed point / tolerance.
    pub converged: bool,
}

/// Warm-started incremental PageRank over a [`StreamingGraph`].
///
/// The pure scatter sum `S[v] = Σ_{u→v} damping·rank[u]/deg(u)` lives
/// in a delta region: every power iteration retracts and re-pushes only
/// sources whose contribution or target list changed since the last
/// committed value, and `rank'[v] = base + S[v]` is formed from the
/// incrementally maintained `S`. After [`update`](Self::update)
/// converges, a small edge mutation leaves almost every source's
/// committed contribution valid, so the next update's first iteration
/// stages only the mutated sources' delta blocks.
pub struct StreamingPageRank {
    damping: f64,
    tol: f64,
    contrib_tol: f64,
    max_iters: usize,
    ex: RegionExecutor<f64, Sum>,
    scatter: Vec<f64>,
    ranks: Vec<f64>,
    next: Vec<f64>,
    applied: Vec<AppliedSource<f64>>,
}

impl StreamingPageRank {
    /// A fresh solver for `n` vertices with the given scatter strategy.
    pub fn new(n: usize, strategy: Strategy, damping: f64, tol: f64, max_iters: usize) -> Self {
        assert!(n > 0, "empty graph");
        StreamingPageRank {
            damping,
            tol,
            contrib_tol: 0.0,
            max_iters,
            ex: RegionExecutor::new(strategy),
            scatter: vec![0.0; n],
            ranks: vec![1.0 / n as f64; n],
            next: vec![0.0; n],
            applied: vec![
                AppliedSource {
                    gen: 0,
                    value: 0.0,
                    targets: Vec::new(),
                };
                n
            ],
        }
    }

    /// Skip re-applying a source whose contribution moved by at most
    /// `eps` (and whose targets are unchanged). `0.0` (the default)
    /// re-applies on any bitwise change; a small positive `eps` prunes
    /// the long convergence tail at a bounded accuracy cost.
    pub fn set_contrib_tol(&mut self, eps: f64) {
        self.contrib_tol = eps;
    }

    /// The current rank vector.
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// The scatter executor (telemetry: `delta_regions`, `dirty_blocks`,
    /// `retractions`).
    pub fn executor(&self) -> &RegionExecutor<f64, Sum> {
        &self.ex
    }

    /// Runs warm-started power iterations against the graph's current
    /// edge set until the rank vector moves less than `tol` in L1.
    pub fn update(&mut self, pool: &ThreadPool, g: &StreamingGraph) -> StreamStats {
        let n = self.ranks.len();
        assert_eq!(g.num_vertices(), n, "graph/solver size mismatch");
        let mut stats = StreamStats::default();
        let mut contrib = vec![0.0f64; n];
        for it in 1..=self.max_iters {
            let mut dangling = 0.0;
            for (u, c) in contrib.iter_mut().enumerate() {
                let d = g.out_degree(u);
                if d == 0 {
                    dangling += self.ranks[u];
                    *c = 0.0;
                } else {
                    *c = self.damping * self.ranks[u] / d as f64;
                }
            }
            let base = (1.0 - self.damping) / n as f64 + self.damping * dangling / n as f64;

            let mut batch = DeltaBatch::new();
            for (u, &c) in contrib.iter().enumerate() {
                let cur = &self.applied[u];
                let targets_changed = cur.targets.as_slice() != g.out_neighbors(u);
                let moved = (c - cur.value).abs() > self.contrib_tol
                    || (c != cur.value && self.contrib_tol == 0.0);
                if !targets_changed && !moved {
                    continue;
                }
                let old_tag = source_tag(u, cur.gen);
                for &v in &cur.targets {
                    batch.retract(v as usize, old_tag);
                    stats.retractions += 1;
                }
                let gen = cur.gen + 1;
                let tag = source_tag(u, gen);
                for &v in g.out_neighbors(u) {
                    batch.push(v as usize, tag, c);
                }
                self.applied[u] = AppliedSource {
                    gen,
                    value: c,
                    targets: g.out_neighbors(u).to_vec(),
                };
                stats.reapplied_sources += 1;
            }
            if !batch.is_empty() {
                self.ex.run_delta(pool, &mut self.scatter, &batch);
            }
            stats.rounds = it;

            for v in 0..n {
                self.next[v] = base + self.scatter[v];
            }
            let delta: f64 = self
                .ranks
                .iter()
                .zip(&self.next)
                .map(|(a, b)| (a - b).abs())
                .sum();
            std::mem::swap(&mut self.ranks, &mut self.next);
            if delta < self.tol {
                stats.converged = true;
                return stats;
            }
        }
        stats
    }
}

/// Incremental connected components by min-label propagation over a
/// [`StreamingGraph`] (treat the graph as symmetric — insert both
/// directions of every undirected edge).
///
/// Labels ride the `u64` Min refold path: each propagation round
/// retracts a changed source's previous label pushes and re-applies its
/// current label, so quiescent regions of the graph stage no delta
/// blocks at all. Insertions warm-start (a new edge can only lower
/// labels). A deletion can require labels to *rise*, which monotone
/// propagation cannot do — [`update`](Self::update) detects any
/// previously-applied edge that has disappeared and re-baselines:
/// labels reset to vertex ids, the delta state resets, and propagation
/// reconverges (still incrementally round-over-round).
pub struct StreamingComponents {
    strategy: Strategy,
    ex: RegionExecutor<u64, Min>,
    labels: Vec<u64>,
    applied: Vec<AppliedSource<u64>>,
}

impl StreamingComponents {
    /// A fresh solver for `n` vertices with the given scatter strategy.
    pub fn new(n: usize, strategy: Strategy) -> Self {
        StreamingComponents {
            strategy,
            ex: RegionExecutor::new(strategy),
            labels: (0..n as u64).collect(),
            applied: vec![
                AppliedSource {
                    gen: 0,
                    value: u64::MAX,
                    targets: Vec::new(),
                };
                n
            ],
        }
    }

    /// The current per-vertex component labels (minimum vertex id of
    /// the component, once [`update`](Self::update) has converged).
    pub fn labels(&self) -> &[u64] {
        &self.labels
    }

    /// The scatter executor (telemetry: `delta_regions`, `dirty_blocks`,
    /// `retractions`).
    pub fn executor(&self) -> &RegionExecutor<u64, Min> {
        &self.ex
    }

    /// True when some previously-applied target edge of `u` no longer
    /// exists — the deletion case monotone propagation cannot absorb.
    fn lost_edges(&self, g: &StreamingGraph) -> bool {
        self.applied.iter().enumerate().any(|(u, cur)| {
            cur.targets
                .iter()
                .any(|v| g.adj[u].binary_search(v).is_err())
        })
    }

    /// Propagates labels to the fixed point for the graph's current
    /// edge set.
    pub fn update(&mut self, pool: &ThreadPool, g: &StreamingGraph) -> StreamStats {
        let n = self.labels.len();
        assert_eq!(g.num_vertices(), n, "graph/solver size mismatch");
        let mut stats = StreamStats::default();
        if self.lost_edges(g) {
            // Re-baseline: identity labels, fresh delta state, forgotten
            // tags. The rounds below rebuild the fixed point.
            self.labels = (0..n as u64).collect();
            self.ex = RegionExecutor::new(self.strategy);
            for a in &mut self.applied {
                a.gen = 0;
                a.value = u64::MAX;
                a.targets.clear();
            }
            stats.resets = 1;
        }
        loop {
            let mut batch = DeltaBatch::new();
            for u in 0..n {
                let cur = &self.applied[u];
                let targets_changed = cur.targets.as_slice() != g.out_neighbors(u);
                if !targets_changed && cur.value == self.labels[u] {
                    continue;
                }
                let old_tag = source_tag(u, cur.gen);
                for &v in &cur.targets {
                    batch.retract(v as usize, old_tag);
                    stats.retractions += 1;
                }
                let gen = cur.gen + 1;
                let tag = source_tag(u, gen);
                for &v in g.out_neighbors(u) {
                    batch.push(v as usize, tag, self.labels[u]);
                }
                self.applied[u] = AppliedSource {
                    gen,
                    value: self.labels[u],
                    targets: g.out_neighbors(u).to_vec(),
                };
                stats.reapplied_sources += 1;
            }
            if batch.is_empty() {
                stats.converged = true;
                return stats;
            }
            self.ex.run_delta(pool, &mut self.labels, &batch);
            stats.rounds += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{connected_components, pagerank};

    #[test]
    fn streaming_graph_mutates_and_snapshots() {
        let mut g = StreamingGraph::from_edges(4, &[(0, 1), (0, 2), (0, 1), (2, 3)]);
        assert_eq!(g.num_edges(), 3, "duplicates collapse");
        assert!(!g.insert_edge(0, 1));
        assert!(g.insert_edge(3, 0));
        assert!(g.remove_edge(0, 2));
        assert!(!g.remove_edge(0, 2));
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.num_edges(), 3);
        let snap = g.snapshot();
        assert_eq!(snap, Graph::from_edges(4, &[(0, 1), (2, 3), (3, 0)]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn streaming_graph_bad_edge_panics() {
        let mut g = StreamingGraph::new(2);
        g.insert_edge(0, 5);
    }

    /// Seeded pseudo-random digraph: every vertex gets a couple of
    /// deterministic out-edges plus a ring to keep things connected.
    fn churn_graph(n: usize, seed: u64) -> StreamingGraph {
        let mut g = StreamingGraph::new(n);
        let mut h = seed | 1;
        let mut step = move || {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            h
        };
        for u in 0..n {
            g.insert_edge(u, (u + 1) % n);
            for _ in 0..3 {
                g.insert_edge(u, step() as usize % n);
            }
        }
        g
    }

    #[test]
    fn incremental_pagerank_tracks_recompute_under_churn() {
        let pool = ThreadPool::new(4);
        let n = 200;
        let (damping, tol, iters) = (0.85, 1e-12, 200);
        let mut g = churn_graph(n, 0xA11CE);
        let strat = Strategy::BlockCas { block_size: 64 };
        let mut spr = StreamingPageRank::new(n, strat, damping, tol, iters);

        let s0 = spr.update(&pool, &g);
        assert!(s0.converged);
        let full = pagerank(&pool, &g.snapshot(), strat, damping, tol, iters);
        for (a, b) in spr.ranks().iter().zip(&full.ranks) {
            assert!((a - b).abs() < 1e-9, "cold start diverged: {a} vs {b}");
        }

        // Small churn: one insertion, one deletion. The warm restart's
        // first iteration re-applies only the mutated sources.
        assert!(g.insert_edge(7, 123));
        assert!(g.remove_edge(40, 41));
        let s1 = spr.update(&pool, &g);
        assert!(s1.converged);
        assert!(s1.retractions > 0, "mutated sources must retract");
        assert!(
            s1.rounds < s0.rounds,
            "warm start must converge faster than cold ({} vs {})",
            s1.rounds,
            s0.rounds
        );
        let full = pagerank(&pool, &g.snapshot(), strat, damping, tol, iters);
        for (a, b) in spr.ranks().iter().zip(&full.ranks) {
            assert!((a - b).abs() < 1e-9, "post-churn diverged: {a} vs {b}");
        }
        assert!(spr.executor().delta_regions() > 0);
        assert!(spr.executor().retractions() >= s1.retractions);
    }

    #[test]
    fn incremental_components_equal_recompute_exactly() {
        let pool = ThreadPool::new(3);
        let n = 64;
        // Two undirected paths: components {0..31} and {32..63}.
        let mut g = StreamingGraph::new(n);
        for i in 0..n - 1 {
            if i != 31 {
                g.insert_edge(i, i + 1);
                g.insert_edge(i + 1, i);
            }
        }
        let strat = Strategy::BlockPrivate { block_size: 32 };
        let mut sc = StreamingComponents::new(n, strat);
        let s0 = sc.update(&pool, &g);
        assert!(s0.converged && s0.resets == 0);
        assert_eq!(
            sc.labels(),
            connected_components(&pool, &g.snapshot(), strat)
        );
        assert_eq!(sc.labels()[40], 32);

        // Insertion bridges the halves: warm start, labels only fall.
        g.insert_edge(10, 50);
        g.insert_edge(50, 10);
        let s1 = sc.update(&pool, &g);
        assert!(s1.converged && s1.resets == 0, "insertion must warm-start");
        assert_eq!(
            sc.labels(),
            connected_components(&pool, &g.snapshot(), strat)
        );
        assert!(sc.labels().iter().all(|&l| l == 0));

        // Deletion splits them again: auto-detected re-baseline.
        g.remove_edge(10, 50);
        g.remove_edge(50, 10);
        let s2 = sc.update(&pool, &g);
        assert!(s2.converged);
        assert_eq!(s2.resets, 1, "deletion must force a re-baseline");
        assert_eq!(
            sc.labels(),
            connected_components(&pool, &g.snapshot(), strat)
        );
        assert_eq!(sc.labels()[40], 32);
    }

    #[test]
    fn quiescent_update_stages_nothing() {
        let pool = ThreadPool::new(2);
        let g = churn_graph(80, 7);
        let strat = Strategy::Atomic;
        let mut sc = StreamingComponents::new(80, strat);
        sc.update(&pool, &g);
        let regions_before = sc.executor().delta_regions();
        // No mutation: the fixed point is already committed.
        let s = sc.update(&pool, &g);
        assert!(s.converged);
        assert_eq!(s.rounds, 0);
        assert_eq!(s.reapplied_sources, 0);
        assert_eq!(sc.executor().delta_regions(), regions_before);
    }
}
