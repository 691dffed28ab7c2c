//! The one trial-major runner every BENCH document comes from, plus the
//! two cell kinds more than one cell set shares: pipeline cells (one
//! [`BccConfig`] on one named graph and pool) and kernel cells (one
//! timed closure, such as a `prims` kernel or its serial twin).
//!
//! Trials run **trial-major** (round-robin over every cell, repeated
//! `trials` times) rather than back-to-back per cell: a host-scheduler
//! burst lasts far longer than one cell's handful of consecutive
//! trials, so per-cell batching lets a burst poison *all* of a cell's
//! samples at once. Spreading each cell's trials across the whole run
//! lets the min-of-trials gate metric escape any single burst.

use crate::grid::entry_key;
use crate::json::Json;
use bcc_connectivity::bfs::bfs_tree_seq;
use bcc_core::{Algorithm, BccConfig, BccWorkspace, PhaseReport, TraversalTuning};
use bcc_graph::{Csr, Graph};
use bcc_smp::{rss, Pool, Telemetry};
use std::cell::OnceCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version stamp for the BENCH document layout; bump on breaking schema
/// changes. `compare` reads any version listed in
/// [`COMPAT_SCHEMA_VERSIONS`].
///
/// v2 adds the `geo` family, the per-entry `tuning` spec and traversal
/// work counters (`sv_rounds_*`, `bfs_*`), and the per-family shape
/// summary (`families[].effective_diameter_90`). Everything since is
/// additive within v2 — documents without a field stay comparable on
/// the shared cells: the workspace ablation (`workspace`,
/// `alloc_bytes`, `arena_hit_rate`, the `/ws-off` key suffix); the
/// `store-multi` commit cells (`batch`, the [`bcc_query::CommitStats`]
/// medians, the `/batch<k>` suffix); the `serve`/`serve-net` SLO cells
/// (`seconds` is their p99 latency; `mode` and `admission` add the
/// `/closed`, `/open` and `/shed` suffixes);
/// `peak_rss_bytes` (per-trial peak resident set, max over trials,
/// Linux only); the `prims` kernel cells (`reps`); and the
/// pipeline work counters `effective_edges`, `aux_vertices` and
/// `aux_edges`.
pub const SCHEMA_VERSION: u64 = 2;

/// Schema versions `compare` can still read (v1 documents predate the
/// tuning/diameter fields; their entries simply carry fewer keys).
pub const COMPAT_SCHEMA_VERSIONS: [u64; 2] = [1, 2];

/// One BENCH entry's measurement: set up when constructed, one sample
/// per [`trial`](Cell::trial), reduced by [`entry`](Cell::entry).
pub(crate) trait Cell {
    /// Runs one timed trial and keeps its sample.
    fn trial(&mut self);
    /// Reduces the kept samples to the cell's BENCH entry.
    fn entry(&self) -> Json;
}

/// A cell set, in run order.
pub(crate) type Cells<'a> = Vec<Box<dyn Cell + 'a>>;

/// Runs `trials` rounds trial-major over `cells` and returns their
/// entries in cell order; `name` labels the progress lines.
pub(crate) fn run_cells(
    name: &str,
    cells: &mut [Box<dyn Cell + '_>],
    trials: usize,
    progress: &mut dyn FnMut(&str),
) -> Vec<Json> {
    let trials = trials.max(1);
    for round in 1..=trials {
        for cell in cells.iter_mut() {
            cell.trial();
        }
        progress(&format!("{name} trial round {round}/{trials} complete"));
    }
    cells
        .iter()
        .map(|cell| {
            let e = cell.entry();
            let secs = e.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
            let rss = e.get("peak_rss_bytes").and_then(Json::as_f64);
            let rss = rss.map_or(String::new(), |b| {
                format!(", peak rss {:.1} MiB", b / 1048576.0)
            });
            progress(&format!(
                "{:<52} {:>11.3?}{rss}",
                entry_key(&e).unwrap_or_default(),
                Duration::from_secs_f64(secs),
            ));
            e
        })
        .collect()
}

/// A BENCH document: the schema stamp, `experiment`, the thread counts
/// and trial count every run records, the run's own `header` fields,
/// then the family summaries and the entries.
pub(crate) fn document(
    experiment: &str,
    threads: &[usize],
    trials: usize,
    header: Vec<(&str, Json)>,
    families: Vec<Json>,
    entries: Vec<Json>,
) -> Json {
    let mut fields = vec![
        ("schema_version", Json::num(SCHEMA_VERSION as f64)),
        ("experiment", Json::str(experiment)),
        (
            "threads",
            Json::Arr(threads.iter().map(|&p| Json::num(p as f64)).collect()),
        ),
        ("trials", Json::num(trials.max(1) as f64)),
    ];
    fields.extend(header);
    fields.push(("families", Json::Arr(families)));
    fields.push(("entries", Json::Arr(entries)));
    Json::obj(fields)
}

/// 1, 2, 4, ... up to and always including `max` (and always at least
/// {1, 2}, so speedup columns exist even on one-core machines).
pub fn thread_sweep(max: usize) -> Vec<usize> {
    let max = max.max(2);
    let mut ps = vec![];
    let mut p = 1;
    while p < max {
        ps.push(p);
        p *= 2;
    }
    ps.push(max);
    ps.dedup();
    ps
}

/// One pool per thread count, each with its own telemetry sink (the
/// recorder reads deltas, so cells may share a pool).
pub(crate) fn telemetry_pools(threads: &[usize]) -> Vec<Pool> {
    threads
        .iter()
        .map(|&p| {
            Pool::builder()
                .threads(p)
                .telemetry(Arc::new(Telemetry::new(p)))
                .build()
        })
        .collect()
}

/// Lower median.
pub(crate) fn median_f64(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[(xs.len() - 1) / 2]
}

/// One trial's named metrics, in entry order.
pub(crate) type Sample = Vec<(&'static str, f64)>;

/// `fields` followed by each metric's median over `samples`, with
/// `seconds_min` — the minimum of the `seconds` samples, the gate
/// metric — right after `seconds`. Host noise only ever adds time, so
/// the min converges to the true cost long before the median settles.
pub(crate) fn median_entry(mut fields: Vec<(&str, Json)>, samples: &[Sample]) -> Json {
    for (i, &(name, _)) in samples[0].iter().enumerate() {
        let xs: Vec<f64> = samples.iter().map(|s| s[i].1).collect();
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        fields.push((name, Json::num(median_f64(xs))));
        if name == "seconds" {
            fields.push(("seconds_min", Json::num(min)));
        }
    }
    Json::obj(fields)
}

/// A named input graph, plus the labeling its pipeline cells must all
/// reproduce: canonical labels are identical across algorithms, thread
/// counts and ablation points, so the first finished run fixes a
/// fingerprint and every later run is checked against it.
pub(crate) struct Instance {
    /// Family name in the document.
    pub(crate) name: String,
    /// The graph.
    pub(crate) graph: Graph,
    labels: OnceCell<u64>,
}

impl Instance {
    /// `graph` named `name`.
    pub(crate) fn new(name: impl Into<String>, graph: Graph) -> Self {
        Instance {
            name: name.into(),
            graph,
            labels: OnceCell::new(),
        }
    }

    /// Shape summary: the 90th-percentile effective diameter (smallest
    /// BFS depth from vertex 0 reaching 90% of the reachable vertices),
    /// the statistic the direction-optimizing heuristic's payoff
    /// depends on.
    pub(crate) fn summary(&self) -> Json {
        let g = &self.graph;
        let tree = bfs_tree_seq(&Csr::build(g), 0);
        Json::obj(vec![
            ("family", Json::str(self.name.as_str())),
            ("n", Json::num(g.n())),
            ("m", Json::num(g.m() as f64)),
            ("bfs_levels", Json::num(tree.levels)),
            (
                "effective_diameter_90",
                Json::num(tree.effective_diameter(0.9)),
            ),
        ])
    }
}

/// One pipeline run per trial: `alg` on one [`Instance`].
pub(crate) struct PipelineCell<'a> {
    inst: &'a Instance,
    pool: &'a Pool,
    config: BccConfig,
    tuning: Option<TraversalTuning>,
    workspace: Option<bool>,
    reports: Vec<PhaseReport>,
    peaks: Vec<u64>,
}

impl<'a> PipelineCell<'a> {
    /// `tuning` and `workspace` are the cell's ablation axes; `None`
    /// leaves the axis out of the entry (and its key) and runs the
    /// default. `workspace: Some(true)` shares one arena across the
    /// cell's trials, so trials past the first run in the
    /// zero-allocation steady state; `Some(false)` and `None` allocate
    /// fresh per run, like a one-shot caller.
    pub(crate) fn new(
        inst: &'a Instance,
        pool: &'a Pool,
        alg: Algorithm,
        tuning: Option<TraversalTuning>,
        workspace: Option<bool>,
    ) -> Self {
        let mut config = BccConfig::new(alg);
        if let Some(t) = tuning {
            config = config.tuning(t);
        }
        if workspace == Some(true) {
            config = config.workspace(Arc::new(BccWorkspace::new()));
        }
        PipelineCell {
            inst,
            pool,
            config,
            tuning,
            workspace,
            reports: vec![],
            peaks: vec![],
        }
    }
}

impl Cell for PipelineCell<'_> {
    fn trial(&mut self) {
        // Reset the kernel's peak-RSS watermark so the post-run reading
        // reflects this trial's high-water mark (no-op off Linux; the
        // entry then omits the field).
        let rss = rss::reset_peak().is_ok();
        let (alg, family) = (self.config.algorithm().name(), &self.inst.name);
        let run = self
            .config
            .run(self.pool, &self.inst.graph)
            .unwrap_or_else(|e| panic!("{alg} on {family}: {e}"));
        if let Some(peak) = rss.then(rss::peak_rss_bytes).flatten() {
            self.peaks.push(peak);
        }
        let labels = fnv1a(&run.result.edge_comp);
        assert_eq!(
            labels,
            *self.inst.labels.get_or_init(|| labels),
            "{alg} p={} on {family}: labeling differs from the instance's other cells",
            self.pool.threads()
        );
        self.reports.push(run.report);
    }

    /// Field-wise medians over the trial reports. The entry carries no
    /// `speedup_vs_sequential` yet; [`fill_speedups`] adds it once the
    /// family's Sequential cell has run.
    fn entry(&self) -> Json {
        let reports = &self.reports;
        let med = |f: &dyn Fn(&PhaseReport) -> f64| median_f64(reports.iter().map(f).collect());
        // Per-phase medians, keyed by step name in first-seen order.
        let mut phase_names: Vec<&'static str> = vec![];
        for s in reports.iter().flat_map(|r| &r.steps) {
            if !phase_names.contains(&s.name()) {
                phase_names.push(s.name());
            }
        }
        let phases = phase_names.iter().map(|&name| {
            let secs = med(&|r| {
                r.steps
                    .iter()
                    .find(|s| s.name() == name)
                    .map_or(0.0, |s| s.duration.as_secs_f64())
            });
            Json::Arr(vec![Json::str(name), Json::num(secs)])
        });
        // Work counters are deterministic per (graph, tuning) except SV
        // rounds under races; take the last trial (all trials agree in
        // practice, and the last is past any warm-up).
        let stats = &reports[reports.len() - 1].stats;
        let mut fields = vec![
            ("family", Json::str(self.inst.name.as_str())),
            ("algorithm", Json::str(reports[0].algorithm)),
            ("n", Json::num(self.inst.graph.n())),
            ("m", Json::num(self.inst.graph.m() as f64)),
            ("threads", Json::num(self.pool.threads() as f64)),
            ("seconds", Json::num(med(&|r| r.total.as_secs_f64()))),
            (
                "seconds_min",
                Json::num(
                    reports
                        .iter()
                        .map(|r| r.total.as_secs_f64())
                        .fold(f64::INFINITY, f64::min),
                ),
            ),
            ("phases", Json::Arr(phases.collect())),
            ("phase_runs", Json::num(med(&|r| r.phase_runs as f64))),
            (
                "barrier_episodes",
                Json::num(med(&|r| r.barrier_episodes as f64)),
            ),
            (
                "barrier_wait_seconds",
                Json::num(med(&|r| r.barrier_wait.as_secs_f64())),
            ),
            ("imbalance", Json::num(med(&|r| r.imbalance))),
            // Allocation telemetry: bytes the run's arena had to freshly
            // allocate (0 once warm) and the arena's hit rate. Medians,
            // so a shared-arena cell with ≥2 trials reports its steady
            // state.
            ("alloc_bytes", Json::num(med(&|r| r.alloc_bytes as f64))),
            ("arena_hit_rate", Json::num(med(&|r| r.arena_hit_rate))),
            ("effective_edges", Json::num(stats.effective_edges as f64)),
            ("aux_vertices", Json::num(stats.aux_vertices)),
            ("aux_edges", Json::num(stats.aux_edges as f64)),
        ];
        if let Some(on) = self.workspace {
            fields.push(("workspace", Json::str(if on { "on" } else { "off" })));
        }
        // Peak resident set: a high-water metric, so the max over
        // trials.
        if let Some(&peak) = self.peaks.iter().max() {
            fields.push(("peak_rss_bytes", Json::num(peak as f64)));
        }
        if let Some(t) = &self.tuning {
            fields.push(("tuning", Json::str(t.spec())));
            fields.push(("sv_rounds_spanning", Json::num(stats.sv_rounds_spanning)));
            fields.push(("sv_rounds_cc", Json::num(stats.sv_rounds_cc)));
            fields.push(("bfs_levels", Json::num(stats.bfs_levels)));
            fields.push((
                "bfs_bottom_up_levels",
                Json::num(stats.bfs_bottom_up_levels),
            ));
            // One char per BFS level; a pathological-diameter input
            // would otherwise dump megabytes of 'T's into the document,
            // so cap it (the level count is always exact in
            // `bfs_levels`).
            let mut dirs = stats.bfs_directions.clone();
            if dirs.len() > 96 {
                dirs.truncate(96);
                dirs.push('+');
            }
            fields.push(("bfs_directions", Json::str(dirs)));
        }
        Json::obj(fields)
    }
}

/// FNV-1a over a labeling.
fn fnv1a(labels: &[u32]) -> u64 {
    labels.iter().fold(0xcbf2_9ce4_8422_2325, |h, &l| {
        (h ^ u64::from(l)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Adds `speedup_vs_sequential` to every pipeline entry (the ones with
/// `phases`): the Sequential p = 1 median of the same graph (family and
/// n) over the entry's, or 0 where that cell did not run.
pub(crate) fn fill_speedups(entries: &mut [Json]) {
    let graph = |e: &Json| (e.get("family").cloned(), e.get("n").and_then(Json::as_u64));
    let secs = |e: &Json| e.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
    let baselines: Vec<_> = entries
        .iter()
        .filter(|e| {
            e.get("algorithm").and_then(Json::as_str) == Some(Algorithm::Sequential.name())
                && e.get("threads").and_then(Json::as_u64) == Some(1)
        })
        .map(|e| (graph(e), secs(e)))
        .collect();
    for e in entries.iter_mut().filter(|e| e.get("phases").is_some()) {
        let (key, seconds) = (graph(e), secs(e));
        let speedup = baselines
            .iter()
            .find(|(k, _)| *k == key && seconds > 0.0)
            .map_or(0.0, |(_, base)| base / seconds);
        if let Json::Obj(fields) = e {
            fields.push(("speedup_vs_sequential".into(), Json::num(speedup)));
        }
    }
}

/// A timed closure: each trial runs it `reps` times back-to-back and
/// records the per-invocation mean, so microsecond kernels sample far
/// above timer and pool-wake noise.
pub(crate) struct KernelCell<'a> {
    fields: Vec<(&'static str, Json)>,
    reps: u32,
    run: Box<dyn FnMut() + 'a>,
    samples: Vec<Sample>,
}

impl<'a> KernelCell<'a> {
    /// `fields` identify the entry. Set-up ends with one untimed round
    /// of `reps` invocations, which populates the closure's arena and
    /// caches so every timed trial runs in the steady state.
    pub(crate) fn new(
        fields: Vec<(&'static str, Json)>,
        reps: u32,
        mut run: impl FnMut() + 'a,
    ) -> Self {
        for _ in 0..reps {
            run();
        }
        KernelCell {
            fields,
            reps,
            run: Box::new(run),
            samples: vec![],
        }
    }
}

impl Cell for KernelCell<'_> {
    fn trial(&mut self) {
        let t = Instant::now();
        for _ in 0..self.reps {
            (self.run)();
        }
        let secs = t.elapsed().as_secs_f64() / f64::from(self.reps);
        self.samples.push(vec![("seconds", secs)]);
    }

    fn entry(&self) -> Json {
        median_entry(self.fields.clone(), &self.samples)
    }
}
