#![warn(missing_docs)]
//! Parallel connectivity and spanning-tree algorithms.
//!
//! Three ways to get a spanning structure, mirroring the paper's §3:
//!
//! * [`sv`] — the Shiloach–Vishkin graft-and-shortcut connected
//!   components algorithm on an edge list, recording the grafting edges
//!   to obtain a spanning forest. TV's step 1 and step 6 both use it.
//! * [`bfs`] — level-synchronous breadth-first search producing a
//!   *rooted* tree directly (merging the paper's Spanning-tree and
//!   Root-tree steps), and the BFS tree required by TV-filter's
//!   correctness lemmas (Lemma 1 needs T to be a BFS tree).
//! * [`traversal`] — the Bader–Cong work-stealing graph-traversal
//!   spanning tree, the fastest rooted-spanning-tree method of their
//!   earlier study, used by TV-opt.
//!
//! [`boruvka`] adds the parallel minimum spanning forest of the
//! authors' companion study (paper ref. \[4\]); [`seq`] holds the
//! sequential baselines (union-find, DFS tree) the tests use as
//! oracles.

pub mod as_sync;
pub mod bfs;
pub mod boruvka;
pub mod seq;
pub mod sv;
pub mod traversal;
pub mod tuning;

pub use as_sync::awerbuch_shiloach;
pub use bfs::{bfs_tree, bfs_tree_par, bfs_tree_seq, bfs_tree_ws, BfsDirection, BfsTree};
pub use boruvka::{minimum_spanning_forest, MsfResult, WeightedEdge};
pub use sv::{
    connected_components, connected_components_masked_with_ws, connected_components_with,
    connected_components_with_ws, SvResult,
};
pub use traversal::work_stealing_tree;
pub use tuning::{BfsStrategy, SvVariant, TraversalTuning};
