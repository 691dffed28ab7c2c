#![warn(missing_docs)]
//! SPMD execution substrate for the `smp-bcc` workspace.
//!
//! The algorithms in Cong & Bader's IPDPS 2005 study are written in the
//! classic SMP style: `p` POSIX threads execute the *same* program over
//! block-partitioned index ranges, separated by software barriers. This
//! crate reproduces that model:
//!
//! * [`Pool`] — runs an SPMD closure on `p` threads; a dispatch that
//!   states less work than [`GRAIN`] runs on the calling thread instead
//!   ([`Pool::run_sized`]).
//! * [`Ctx`] — per-thread view (thread id, thread count, barrier,
//!   block-partition helpers).
//! * [`Barrier`] — a sense-reversing centralized software barrier, the
//!   same construction the paper's implementation uses.
//! * [`shared`] — disjoint-write shared slices, the unsafe-but-audited
//!   idiom that replaces the paper's unconstrained C pointers.
//! * [`atomic`] — reinterpreting `&mut [u32]` as `&[AtomicU32]` for
//!   CAS-based phases (grafting, BFS claiming).
//! * [`dynamic`] — a shared chunk counter for dynamically scheduled
//!   loops (load balancing irregular frontiers), with degree-aware
//!   weighted chunking for skewed index spaces.
//! * [`bitmap`] — cache-line-aligned atomic bitmaps (bottom-up BFS
//!   frontiers).
//! * [`queue`] — a bounded MPMC work queue with a shutdown signal, the
//!   hand-off channel between the serving layer's free-running reader
//!   and writer threads (which are *not* SPMD phases).
//! * [`telemetry`] — opt-in per-thread counters (barrier wait, busy
//!   time, phase counts, snapshot lag) for attributing parallel
//!   overhead and serving staleness.
//! * [`workspace`] — a typed reusable-buffer arena so steady-state
//!   repeated runs perform near-zero heap allocation.
//!
//! # Example
//!
//! ```
//! use bcc_smp::Pool;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = Pool::new(4);
//! let data: Vec<u64> = (0..10_000).collect();
//! let total = AtomicU64::new(0);
//! pool.run(|ctx| {
//!     let range = ctx.block_range(data.len());
//!     let local: u64 = data[range].iter().sum();
//!     total.fetch_add(local, Ordering::Relaxed);
//!     ctx.barrier();
//! });
//! assert_eq!(total.load(Ordering::Relaxed), 10_000 * 9_999 / 2);
//! ```

pub mod atomic;
pub mod barrier;
pub mod bitmap;
pub mod dynamic;
pub mod pool;
pub mod queue;
pub mod rss;
pub mod shared;
pub mod telemetry;
pub mod workspace;

pub use barrier::Barrier;
pub use bitmap::Bitmap;
pub use dynamic::ChunkCounter;
pub use pool::{Ctx, Pool, PoolBuilder, GRAIN};
pub use queue::{MpmcQueue, PopResult, TryPushError};
pub use shared::SharedSlice;
pub use telemetry::{Telemetry, TelemetrySnapshot};
pub use workspace::{BccWorkspace, CountingAlloc, WorkspaceStats};

/// Sentinel used throughout the workspace for "no vertex / no index".
pub const NIL: u32 = u32::MAX;
