//! # spray-graph — graph algorithms on spray reductions
//!
//! §VI-B of the paper frames the CSR transpose product as "a proxy for
//! sparse reductions that occur in graph problems", citing PageRank in the
//! GAP benchmark suite. This crate runs the actual graph algorithms, each
//! built around a sparse scatter that any [`spray::Strategy`] can
//! accumulate:
//!
//! * [`pagerank`] — power iteration; scatters `rank/outdeg` to successors
//!   with a **sum** reduction;
//! * [`connected_components`] — label propagation; scatters labels with a
//!   **min** reduction (exercising the non-`+=` operators);
//! * [`bfs`] — level-synchronous breadth-first search; relaxes distances
//!   with a **min** reduction over the frontier's neighbors;
//! * [`in_degrees`] / [`triangle_counts`] — degree histogram and the GAP
//!   triangle-counting kernel, both scatter-sum reductions;
//! * [`sssp`] — weighted shortest paths by Bellman–Ford rounds, a **min**
//!   reduction over `f64` distances (the float-CAS path of §III);
//! * [`StreamingGraph`] + [`StreamingPageRank`] / [`StreamingComponents`]
//!   — edge insertions/deletions tracked by incremental (delta)
//!   reductions: each round retracts and re-pushes only changed sources.

#![warn(missing_docs)]

mod algo;
mod graph;
mod sssp;
mod stream;

pub use algo::{
    bfs, connected_components, in_degrees, k_core, pagerank, triangle_counts, PageRankResult,
};
pub use graph::Graph;
pub use sssp::{sssp, WeightedGraph};
pub use stream::{StreamStats, StreamingComponents, StreamingGraph, StreamingPageRank};
