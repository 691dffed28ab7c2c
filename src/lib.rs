#![warn(missing_docs)]
//! # smp-bcc — parallel biconnected components for shared memory
//!
//! A Rust reproduction of Cong & Bader, *An Experimental Study of
//! Parallel Biconnected Components Algorithms on Symmetric
//! Multiprocessors (SMPs)* (IPDPS 2005): the sequential Tarjan baseline
//! plus the three parallel pipelines the paper studies (TV-SMP, TV-opt,
//! TV-filter) on top of from-scratch SMP implementations of the
//! underlying primitives (prefix sums, list ranking, radix sort,
//! Shiloach–Vishkin connectivity, BFS and work-stealing spanning trees,
//! Euler tours, tree computations).
//!
//! ## Quick start
//!
//! ```
//! use smp_bcc::{bcc, Algorithm, GraphBuilder};
//!
//! // A triangle and a pendant edge: one block + one bridge.
//! let g = GraphBuilder::new(4)
//!     .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
//!     .build()
//!     .unwrap();
//! let result = bcc(&g, Algorithm::TvFilter);
//! assert_eq!(result.num_components, 2);
//! assert_eq!(result.articulation_points(&g), vec![2]);
//! assert_eq!(result.bridges(&g), vec![3]); // edge index of (2,3)
//! ```
//!
//! For explicit control over thread count, telemetry and scratch reuse
//! use the [`BccConfig`] builder; each run returns the labels plus a
//! structured [`PhaseReport`]:
//!
//! ```
//! use smp_bcc::{Algorithm, BccConfig, Pool};
//! use smp_bcc::graph::gen;
//!
//! let g = gen::random_connected(10_000, 40_000, 42);
//! let pool = Pool::new(4);
//! let run = BccConfig::new(Algorithm::TvOpt).run(&pool, &g).unwrap();
//! println!(
//!     "{} components in {:?} (imbalance {:.2})",
//!     run.result.num_components, run.report.total, run.report.imbalance
//! );
//! ```
//!
//! Once the components are known, the [`query`] engine serves
//! connectivity-under-failure questions from a build-once index:
//!
//! ```
//! use smp_bcc::query::Failure;
//! use smp_bcc::{BiconnectivityIndex, Pool};
//! use smp_bcc::graph::gen;
//!
//! let g = gen::two_cliques_sharing_vertex(4); // cut vertex 3
//! let pool = Pool::new(2);
//! let idx = BiconnectivityIndex::from_graph(&pool, &g).unwrap();
//! assert!(idx.same_block(0, 3) && !idx.same_block(0, 5));
//! assert!(!idx.survives_failure(0, 5, Failure::Vertex(3)));
//! ```
//!
//! To keep answering while the graph changes, the [`serve`] layer runs
//! that index as a daemon: sharded stores, queries answered on the
//! thread that submits them, and one batching writer per shard plus a
//! migration coordinator, with per-answer latency and snapshot-lag
//! histograms (see `examples/live_queries.rs` and `docs/ALGORITHMS.md`
//! §12 and §16).

pub use bcc_connectivity as connectivity;
pub use bcc_core as algorithms;
pub use bcc_euler as euler;
pub use bcc_graph as graph;
pub use bcc_primitives as primitives;
pub use bcc_query as query;
pub use bcc_serve as serve;
pub use bcc_smp as smp;

pub use bcc_core::{
    double_bfs_upper_bound, Algorithm, BccConfig, BccError, BccResult, BccRun, PhaseReport, Step,
    StepReport,
};
pub use bcc_graph::{Csr, Edge, Graph, GraphBuilder, GraphData, MappedCsr};
pub use bcc_query::{BiconnectivityIndex, IndexStore};
pub use bcc_smp::{Pool, Telemetry, TelemetrySnapshot};

/// One-call convenience API: runs `alg` on `g` with a machine-sized
/// pool, handling disconnected inputs transparently.
pub fn bcc(g: &Graph, alg: Algorithm) -> BccResult {
    let pool = Pool::machine();
    BccConfig::new(alg)
        .run_any(&pool, g)
        .expect("per-component driver accepts any graph")
        .result
}
