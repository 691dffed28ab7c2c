#![warn(missing_docs)]
//! # bcc-serve — a sharded biconnectivity query daemon
//!
//! The workspace's serving layer: everything PRs 1–5 built — the
//! epoch-snapshot [`IndexStore`](bcc_query::IndexStore), pool-parallel
//! batches, component-scoped transactional commits — driven like
//! production and measured in production's units (throughput, tail
//! latency, staleness) instead of the paper's batch wall-clock.
//!
//! * [`ShardedStore`] — connected components partitioned across
//!   independent stores behind an atomic routing table; a commit only
//!   stalls the shard it touches, and cross-shard inserts migrate the
//!   donor component with reader-consistent ordering.
//! * [`Request`] / [`Response`] — the typed request surface *and* the
//!   TCP wire format's data model; one [`Daemon::submit`] entry point
//!   serves in-process callers, workload drivers, and the socket.
//! * [`Daemon`] — queries answered on the thread that submits them,
//!   from the routed shard's current snapshot (never blocking on
//!   commits, never handed to another thread); one writer thread per
//!   shard draining the update stream with group-commit batching
//!   ([`ServeConfig::batch_max`] / [`ServeConfig::flush_interval`]),
//!   a migration coordinator for cross-shard inserts, and
//!   watermark-based admission control shedding update load with
//!   typed rejections.
//! * [`net`] — a length-prefixed binary protocol over TCP
//!   (`bcc-serve --listen` / `bcc-serve-client`), std-only; each
//!   connection thread answers its own queries, in request order.
//! * [`LatencyHistogram`] — HDR-style log-linear recorder behind the
//!   p50/p99/p999 latency and snapshot-lag numbers in [`ServeReport`].
//! * [`workload`] — closed-loop and open-loop (fixed-arrival-rate,
//!   coordinated-omission-free) drivers over read-heavy, churn-heavy,
//!   and adversarial hot-component mixes; the `serve/*` benchmark
//!   cells and the `bcc-serve` binary are thin wrappers around
//!   [`run_workload`].
//!
//! ```
//! use bcc_serve::{component_grid, Daemon, ServeConfig, ShardedStore};
//! use bcc_query::Query;
//! use bcc_smp::Pool;
//! use std::sync::Arc;
//!
//! use bcc_serve::Request;
//!
//! let pool = Pool::new(2);
//! let g = component_grid(120, 4, 42);
//! let store = Arc::new(ShardedStore::new(&pool, &g, 2).unwrap());
//! let daemon = Daemon::spawn(Arc::clone(&store), ServeConfig::default());
//! daemon
//!     .submit(Request::Query { id: 1, query: Query::SameBlock(0, 5) })
//!     .unwrap();
//! let report = daemon.shutdown();
//! assert_eq!(report.answered, 1);
//! ```

pub mod api;
pub mod daemon;
pub mod hist;
pub mod net;
pub mod shard;
pub mod wire;
pub mod workload;

pub use api::{RejectReason, Request, Response, SubmitError};
pub use daemon::{Admission, Daemon, ReplySink, ServeConfig, ServeConfigBuilder, ServeReport};
pub use hist::LatencyHistogram;
pub use net::{run_net_workload, NetClient, NetFrontend, NetWorkloadReport};
pub use shard::{LaggedAnswer, MigrateOutcome, ServeError, ShardCommit, ShardedStore};
pub use wire::{WireError, MAX_FRAME};
pub use workload::{component_grid, run_workload, Mode, Profile, WorkloadConfig, WorkloadReport};
