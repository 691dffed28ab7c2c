//! Per-step timing, the instrumentation behind the paper's Fig. 4
//! (execution-time breakdown at fixed processor count).
//!
//! [`PhaseReport`] is the one timing record a run produces
//! ([`BccRun::report`](crate::BccRun::report)): per-step durations
//! *plus* per-step barrier-wait and load-imbalance (when the pool
//! carries a [`Telemetry`] sink), the input sizes that contextualize
//! them (n, m, effective/filtered edge counts), and the run's
//! machine-independent [`PipelineStats`].

use bcc_smp::telemetry::{Telemetry, TelemetrySnapshot};
use bcc_smp::{BccWorkspace, WorkspaceStats};
use std::time::{Duration, Instant};

/// Identifies one pipeline step (the rows of the paper's Fig. 4).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Spanning-tree construction (TV-filter and FAST-BCC: the BFS
    /// tree).
    SpanningTree,
    /// Euler-tour construction (classic or DFS-order).
    EulerTour,
    /// Root-tree / tree computations (preorder, sizes, depths).
    RootTree,
    /// Low-high values.
    LowHigh,
    /// Label-edge: building the auxiliary graph (paper Alg. 1).
    LabelEdge,
    /// Connected components of the auxiliary graph + label write-back.
    ConnectedComponents,
    /// TV-filter and FAST-BCC only: the certificate T ∪ F and the
    /// placement of every input edge.
    Filtering,
}

impl Step {
    /// All steps in the paper's Fig. 4 order.
    pub const ALL: [Step; 7] = [
        Step::SpanningTree,
        Step::EulerTour,
        Step::RootTree,
        Step::LowHigh,
        Step::LabelEdge,
        Step::ConnectedComponents,
        Step::Filtering,
    ];

    /// Display name, as the paper's Fig. 4 labels the step.
    pub fn name(self) -> &'static str {
        match self {
            Step::SpanningTree => "Spanning-tree",
            Step::EulerTour => "Euler-tour",
            Step::RootTree => "Root",
            Step::LowHigh => "Low-high",
            Step::LabelEdge => "Label-edge",
            Step::ConnectedComponents => "Connected-comp",
            Step::Filtering => "Filtering",
        }
    }
}

/// Machine-independent work counters, filled by every pipeline run.
///
/// Wall-clock on a given host mixes algorithm work with hardware
/// effects; these counters capture the *work* side of the paper's
/// analysis (e.g. TV-filter's `edges_after_filter <= 2(n-1)`) so the
/// reproduction claims can be checked on any machine.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Edges of the input graph.
    pub input_edges: usize,
    /// Edges actually fed to steps 4–6 (the certificate for TV-filter
    /// and FAST-BCC, `input_edges` otherwise).
    pub effective_edges: usize,
    /// Edges removed by filtering (TV-filter and FAST-BCC only).
    pub filtered_edges: usize,
    /// Vertices of the auxiliary graph (n + nontree edges considered).
    pub aux_vertices: u32,
    /// Edges of the auxiliary graph (|R'_c| — the paper's Fig. 1
    /// quantity).
    pub aux_edges: usize,
    /// Graft rounds of the spanning-tree SV run: TV-SMP's step 1, or
    /// the forest-of-`G − T` run of TV-filter and FAST-BCC (0 for
    /// TV-opt, whose tree comes from a traversal).
    pub sv_rounds_spanning: u32,
    /// Graft rounds of the step-6 SV run.
    pub sv_rounds_cc: u32,
    /// BFS levels (TV-filter and FAST-BCC only; the `O(d)` term of
    /// Alg. 2). On a disconnected input, the other components' trees
    /// count one level below vertex 0.
    pub bfs_levels: u32,
    /// Vertices discovered per BFS level (TV-filter and FAST-BCC only;
    /// empty otherwise). Feeds effective-diameter estimates in the benchmarks.
    pub bfs_frontier_sizes: Vec<u32>,
    /// BFS levels the direction-optimizing heuristic ran bottom-up
    /// (0 under the pure top-down strategy).
    pub bfs_bottom_up_levels: u32,
    /// Chosen direction per BFS level, compactly: `T` = top-down,
    /// `B` = bottom-up (e.g. `"TTBBT"`; empty when no BFS ran).
    pub bfs_directions: String,
}

/// One step of a [`PhaseReport`]: duration plus the telemetry split for
/// exactly this step's pool activity.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Which step.
    pub step: Step,
    /// Accumulated wall-clock time of the step.
    pub duration: Duration,
    /// Total barrier-wait time across all threads during the step
    /// (zero without a telemetry sink).
    pub barrier_wait: Duration,
    /// Load-imbalance ratio (max busy / mean busy) of the step's pool
    /// phases; `1.0` without a telemetry sink or pool work.
    pub imbalance: f64,
    /// Per-thread busy time during the step (empty without telemetry).
    pub busy: Vec<Duration>,
    /// Bytes freshly heap-allocated through the run's [`BccWorkspace`]
    /// during the step (arena misses; 0 in the steady state when every
    /// take hits).
    pub alloc_bytes: u64,
}

impl StepReport {
    /// Display name of the step.
    pub fn name(&self) -> &'static str {
        self.step.name()
    }
}

/// Structured record of one pipeline run: sizes, per-step breakdown,
/// and synchronization/imbalance statistics.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Algorithm display name (matching the paper's figures).
    pub algorithm: &'static str,
    /// SPMD thread count of the pool that ran the pipeline.
    pub threads: usize,
    /// Input vertices.
    pub n: u32,
    /// Input edges.
    pub m: usize,
    /// Edges fed to steps 4–6 (the certificate for TV-filter and
    /// FAST-BCC).
    pub effective_edges: usize,
    /// Edges removed by filtering (TV-filter and FAST-BCC only).
    pub filtered_edges: usize,
    /// Per-step reports in execution order (only steps that ran).
    pub steps: Vec<StepReport>,
    /// End-to-end wall-clock time (≥ step sum; includes glue).
    pub total: Duration,
    /// `Pool::run` phases issued during the run (0 without telemetry).
    pub phase_runs: u64,
    /// Barrier episodes completed during the run (0 without telemetry).
    pub barrier_episodes: u64,
    /// Total barrier-wait time across threads (zero without telemetry).
    pub barrier_wait: Duration,
    /// Whole-run load-imbalance ratio (`1.0` without telemetry).
    pub imbalance: f64,
    /// Bytes freshly heap-allocated through the run's [`BccWorkspace`]
    /// (arena misses).
    pub alloc_bytes: u64,
    /// Fraction of workspace takes served from the arena shelf
    /// (`1.0` when every take hit, or when the run took nothing).
    pub arena_hit_rate: f64,
    /// The run's machine-independent work counters.
    pub stats: PipelineStats,
}

impl PhaseReport {
    /// Sum of the per-step durations (excludes glue; `<= total`).
    pub fn step_sum(&self) -> Duration {
        self.steps.iter().map(|s| s.duration).sum()
    }

    /// The report for `step`, if that step ran.
    pub fn step(&self, step: Step) -> Option<&StepReport> {
        self.steps.iter().find(|s| s.step == step)
    }
}

/// Accumulates per-step durations and telemetry deltas while a pipeline
/// runs; [`finish`](PhaseRecorder::finish)ing it yields the
/// [`PhaseReport`]. Repeated steps (the certificate pipeline's two
/// filtering sub-phases, per-component reruns) merge into one entry.
pub struct PhaseRecorder<'a> {
    order: Vec<Step>,
    accum: [Option<StepAccum>; 7],
    telem: Option<&'a Telemetry>,
    first: Option<TelemetrySnapshot>,
    prev: Option<TelemetrySnapshot>,
    ws: &'a BccWorkspace,
    ws_first: WorkspaceStats,
    ws_prev: WorkspaceStats,
}

struct StepAccum {
    duration: Duration,
    barrier_wait: Duration,
    busy: Vec<Duration>,
    alloc_bytes: u64,
}

fn step_index(step: Step) -> usize {
    Step::ALL.iter().position(|&s| s == step).unwrap()
}

impl<'a> PhaseRecorder<'a> {
    /// A recorder reading telemetry deltas from `telem` (pass the
    /// pool's sink, or `None` for timing-only reports) and observing
    /// the run's arena `ws`: each step's arena-miss bytes land in
    /// [`StepReport::alloc_bytes`], and the whole-run delta fills
    /// [`PhaseReport::alloc_bytes`] / [`PhaseReport::arena_hit_rate`].
    pub fn new(telem: Option<&'a Telemetry>, ws: &'a BccWorkspace) -> Self {
        let first = telem.map(|t| t.snapshot());
        let ws_first = ws.stats();
        PhaseRecorder {
            order: Vec::new(),
            accum: Default::default(),
            telem,
            first: first.clone(),
            prev: first,
            ws,
            ws_first,
            ws_prev: ws_first,
        }
    }

    /// Times `f` as one execution of `step`, attributing the pool's
    /// telemetry movement during `f` to that step.
    pub fn step<T>(&mut self, step: Step, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let duration = start.elapsed();

        let (barrier_wait, busy) = match self.telem {
            None => (Duration::ZERO, Vec::new()),
            Some(t) => {
                let now = t.snapshot();
                let delta = now.delta_since(self.prev.as_ref().unwrap());
                self.prev = Some(now);
                (delta.total_barrier_wait(), delta.busy)
            }
        };

        let ws_now = self.ws.stats();
        let alloc_bytes = ws_now.delta_since(&self.ws_prev).bytes_allocated;
        self.ws_prev = ws_now;

        let slot = &mut self.accum[step_index(step)];
        match slot {
            None => {
                self.order.push(step);
                *slot = Some(StepAccum {
                    duration,
                    barrier_wait,
                    busy,
                    alloc_bytes,
                });
            }
            Some(acc) => {
                acc.duration += duration;
                acc.barrier_wait += barrier_wait;
                acc.alloc_bytes += alloc_bytes;
                if acc.busy.len() < busy.len() {
                    acc.busy.resize(busy.len(), Duration::ZERO);
                }
                for (a, b) in acc.busy.iter_mut().zip(busy) {
                    *a += b;
                }
            }
        }
        out
    }

    /// Builds the report. `total` should be the pipeline's end-to-end
    /// time; sizes and `stats` come from the finished run.
    pub fn finish(
        mut self,
        algorithm: &'static str,
        threads: usize,
        n: u32,
        m: usize,
        stats: PipelineStats,
        total: Duration,
    ) -> PhaseReport {
        let steps = self
            .order
            .iter()
            .map(|&step| {
                let acc = self.accum[step_index(step)].take().unwrap();
                StepReport {
                    step,
                    duration: acc.duration,
                    barrier_wait: acc.barrier_wait,
                    imbalance: imbalance_of(&acc.busy),
                    busy: acc.busy,
                    alloc_bytes: acc.alloc_bytes,
                }
            })
            .collect();

        let whole_run = self
            .telem
            .map(|t| t.snapshot().delta_since(self.first.as_ref().unwrap()));
        let (phase_runs, barrier_episodes, barrier_wait, imbalance) = match &whole_run {
            None => (0, 0, Duration::ZERO, 1.0),
            Some(delta) => (
                delta.phase_runs,
                delta.barrier_episodes,
                delta.total_barrier_wait(),
                delta.imbalance(),
            ),
        };
        let ws_delta = self.ws.stats().delta_since(&self.ws_first);

        PhaseReport {
            algorithm,
            threads,
            n,
            m,
            effective_edges: stats.effective_edges,
            filtered_edges: stats.filtered_edges,
            steps,
            total,
            phase_runs,
            barrier_episodes,
            barrier_wait,
            imbalance,
            alloc_bytes: ws_delta.bytes_allocated,
            arena_hit_rate: ws_delta.hit_rate(),
            stats,
        }
    }
}

fn imbalance_of(busy: &[Duration]) -> f64 {
    let max = busy.iter().max().copied().unwrap_or_default();
    let sum: Duration = busy.iter().sum();
    if sum.is_zero() {
        return 1.0;
    }
    max.as_secs_f64() / (sum.as_secs_f64() / busy.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_merges_repeated_steps_in_first_seen_order() {
        let ws = BccWorkspace::new();
        let mut rec = PhaseRecorder::new(None, &ws);
        rec.step(Step::Filtering, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        rec.step(Step::SpanningTree, || ());
        rec.step(Step::Filtering, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let report = rec.finish(
            "TV-filter",
            2,
            10,
            20,
            PipelineStats::default(),
            Duration::from_secs(1),
        );
        assert_eq!(report.steps.len(), 2);
        assert_eq!(report.steps[0].step, Step::Filtering);
        assert_eq!(report.steps[1].step, Step::SpanningTree);
        assert!(report.steps[0].duration >= Duration::from_millis(4));
        assert!(report.step(Step::LowHigh).is_none());
        assert!(report.step(Step::Filtering).is_some());
    }

    #[test]
    fn recorder_attributes_telemetry_deltas_per_step() {
        use bcc_smp::Pool;
        use std::sync::Arc;
        let sink = Arc::new(Telemetry::new(2));
        let pool = Pool::builder()
            .threads(2)
            .telemetry(Arc::clone(&sink))
            .build();
        let ws = BccWorkspace::new();
        let mut rec = PhaseRecorder::new(Some(&sink), &ws);
        rec.step(Step::SpanningTree, || {
            pool.run(|ctx| {
                if ctx.tid() == 0 {
                    std::thread::sleep(Duration::from_millis(10));
                }
            });
        });
        rec.step(Step::EulerTour, || {
            // No pool work: deltas must be zero for this step.
        });
        let report = rec.finish(
            "TV-opt",
            2,
            5,
            5,
            PipelineStats::default(),
            Duration::from_millis(20),
        );
        let st = report.step(Step::SpanningTree).unwrap();
        assert!(st.busy[0] >= Duration::from_millis(5), "{:?}", st.busy);
        assert!(st.imbalance > 1.0);
        let et = report.step(Step::EulerTour).unwrap();
        assert_eq!(et.busy.iter().sum::<Duration>(), Duration::ZERO);
        assert_eq!(et.imbalance, 1.0);
        assert_eq!(report.phase_runs, 1);
        assert_eq!(report.barrier_episodes, 1);
    }
}
