#![warn(missing_docs)]
//! # bcc-query — a concurrent biconnectivity query engine
//!
//! The pipelines in `bcc-core` stop at labels: a per-edge component
//! array and a [`BlockCutTree`](bcc_core::BlockCutTree). The paper's
//! motivating application — "which single failures disconnect whom" in
//! a fault-tolerant network — is a *query* workload: build the structure once, then answer
//! millions of point questions about it. This crate is that serving
//! layer:
//!
//! * [`BiconnectivityIndex`] — an immutable, `Sync` index built from a
//!   graph's BCC labels and block-cut tree. Point queries run in
//!   O(log n): [`same_block`](BiconnectivityIndex::same_block),
//!   [`is_articulation`](BiconnectivityIndex::is_articulation),
//!   [`is_bridge`](BiconnectivityIndex::is_bridge),
//!   [`survives_failure`](BiconnectivityIndex::survives_failure), and
//!   the output-sensitive
//!   [`vertex_cut_between`](BiconnectivityIndex::vertex_cut_between).
//! * [`QueryBatch`] / [`run_batch`] — fans a slice of [`Query`] values
//!   across a [`Pool`](bcc_smp::Pool) with block partitioning; answers
//!   are bit-identical to the point-query path.
//! * [`IndexStore`] — an epoch-based snapshot store: readers grab an
//!   `Arc` snapshot and are never blocked; writers stage edge updates
//!   on a [`Txn`] and commit them as one new epoch, rebuilding only
//!   the connected components the batch touches (untouched components
//!   ride over by `Arc`; each snapshot's [`CommitStats`] says how much
//!   was reused).
//! * [`naive`] — BFS reference implementations the property tests
//!   check every query against.
//!
//! ```
//! use bcc_query::BiconnectivityIndex;
//! use bcc_graph::gen;
//! use bcc_smp::Pool;
//!
//! // Two 4-cliques sharing vertex 3: one cut vertex, two blocks.
//! let g = gen::two_cliques_sharing_vertex(4);
//! let pool = Pool::new(2);
//! let idx = BiconnectivityIndex::from_graph(&pool, &g).unwrap();
//! assert!(idx.is_articulation(3));
//! assert!(!idx.same_block(0, 5));
//! assert_eq!(idx.vertex_cut_between(0, 5), vec![3]);
//! assert!(!idx.survives_failure(0, 5, bcc_query::Failure::Vertex(3)));
//! ```

pub mod batch;
mod build;
pub mod index;
pub mod naive;
pub mod store;

pub use batch::{run_batch, Answer, Query, QueryBatch};
pub use index::{BiconnectivityIndex, ComponentIndex, Failure};
pub use store::{CommitStats, EdgeUpdate, IndexStore, Snapshot, Txn};
