//! Benchmark harness regenerating every figure and table of the paper.
//!
//! Every BENCH document comes from one trial-major runner
//! (`runner::run_cells`) over cells built by four front-ends, each a
//! `bcc-bench` subcommand:
//!
//! * [`grid`] — graph families × algorithms × thread counts × ablation
//!   points, the `store-multi` commit cells, and the `serve` SLO cells
//!   (`bcc-bench grid` / `serve`), plus the `compare` regression gate;
//! * [`prims`] — per-kernel cells for the vectorized primitives
//!   (`bcc-bench prims`);
//! * [`xl`] — 10M-vertex-class sweeps over mmap-backed inputs with
//!   peak RSS gated beside time (`bcc-bench xl`);
//! * [`paper`] — the paper's figures, table and ablations as named
//!   presets (`bcc-bench paper fig4`).

pub mod grid;
pub mod json;
pub mod paper;
pub mod prims;
pub mod runner;
pub mod xl;
