#![warn(missing_docs)]
//! Biconnected components algorithms for shared-memory multiprocessors.
//!
//! Reproduction of Cong & Bader, *An Experimental Study of Parallel
//! Biconnected Components Algorithms on Symmetric Multiprocessors
//! (SMPs)*, IPDPS 2005. Five algorithms over a common input
//! representation ([`bcc_graph::Graph`], an edge list):
//!
//! * [`Algorithm::Sequential`] — Tarjan's DFS baseline ([`tarjan`]).
//! * [`Algorithm::TvSmp`] — coarse-grained Tarjan–Vishkin emulation.
//! * [`Algorithm::TvOpt`] — the engineered variant (merged rooting,
//!   cache-friendly tour, prefix sums).
//! * [`Algorithm::TvFilter`] — the paper's new algorithm: filter
//!   non-essential edges through a BFS tree + spanning forest of the
//!   remainder, run TV on ≤ 2(n−1) edges, place filtered edges by
//!   condition 1.
//! * [`Algorithm::FastBcc`] — the skeleton-based successor: tree tags
//!   computed directly on the BFS tree — no Euler tour, no list
//!   ranking — for an O(n) auxiliary footprint. It shares TV-filter's
//!   certificate pipeline ([`fast_bcc`]), which differs between the
//!   two only in the tags step.
//!
//! The entry point is the [`BccConfig`] builder; each run returns the
//! component labels plus a structured [`PhaseReport`] (per-step times,
//! barrier-wait and load-imbalance when the pool carries a
//! [`bcc_smp::Telemetry`] sink).
//!
//! ```
//! use bcc_core::{Algorithm, BccConfig};
//! use bcc_graph::gen;
//! use bcc_smp::Pool;
//!
//! let g = gen::two_cliques_sharing_vertex(4); // two blocks, one cut vertex
//! let pool = Pool::new(2);
//! let run = BccConfig::new(Algorithm::TvFilter).run(&pool, &g).unwrap();
//! assert_eq!(run.result.num_components, 2);
//! assert_eq!(run.result.articulation_points(&g), vec![3]);
//! assert_eq!(run.report.algorithm, "TV-filter");
//! ```

pub mod aux_graph;
pub mod block_cut;
pub mod counting;
pub mod fast_bcc;
pub mod low_high;
pub mod phase;
pub mod pipeline;
pub mod schmidt;
pub mod tarjan;
pub mod verify;

pub use aux_graph::{build_aux_graph, build_aux_graph_fused, build_aux_graph_fused_ws, AuxGraph};
pub use block_cut::{two_edge_connected_components, BlockCutTree};
pub use counting::double_bfs_upper_bound;
pub use low_high::{compute_low_high, compute_low_high_two_pass, compute_low_high_ws, LowHigh};
pub use phase::{PhaseRecorder, PhaseReport, PipelineStats, Step, StepReport};
pub use pipeline::{Algorithm, BccConfig, BccError, BccResult, BccRun};
pub use schmidt::{chain_decomposition, ChainDecomposition};
pub use tarjan::tarjan_bcc;

/// Reusable scratch-buffer arena, re-exported from [`bcc_smp`] so
/// [`BccConfig::workspace`] is usable without a second crate
/// dependency.
pub use bcc_smp::{BccWorkspace, WorkspaceStats};
