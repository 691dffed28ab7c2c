//! The experiment grid — graph families × algorithms × thread counts ×
//! ablation points, the `store-multi` commit cells, and the `serve` /
//! `serve-net` SLO cells — reduced to a `BENCH_bcc.json` document, plus
//! the regression comparator behind `bcc-bench compare`.
//!
//! Keeping this in the library (rather than the binary) makes the
//! schema testable: the golden-schema test emits a grid, parses it
//! back, and checks every field the plotting and CI tooling relies on.

use crate::json::Json;
use crate::runner::{
    document, fill_speedups, median_entry, run_cells, telemetry_pools, thread_sweep, Cell, Cells,
    Instance, PipelineCell, Sample, COMPAT_SCHEMA_VERSIONS,
};
use bcc_core::Algorithm;
use bcc_graph::{gen, Edge, Graph, GraphBuilder};
use bcc_query::IndexStore;
use bcc_serve::{
    component_grid, run_net_workload, run_workload, Admission, Daemon, Mode, NetFrontend, Profile,
    ServeConfig, ShardedStore, WorkloadConfig,
};
use bcc_smp::Pool;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Graph families the grid sweeps — the paper's three workload shapes
/// (random sparse graphs, regular meshes, the articulation-heavy chain
/// of cycles) plus a low-effective-diameter spatial network.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Family {
    /// `random_connected(n, 4n)` — the paper's random sparse inputs.
    RandomSparse,
    /// `geometric(n, deg ≈ 12, n long-range chords)` — a spatial
    /// network with enough random chords to give it a genuinely low
    /// effective diameter (small-world shape).
    Geo,
    /// `torus(k, k)` with `k = floor(sqrt(n))` — the mesh family.
    Torus,
    /// `cycle_chain(n/8, 8)` — many small blocks joined by bridges.
    CycleChain,
}

impl Family {
    /// Every family, in presentation order.
    pub const ALL: [Family; 4] = [
        Family::RandomSparse,
        Family::Geo,
        Family::Torus,
        Family::CycleChain,
    ];

    /// Name used in the JSON document.
    pub fn name(self) -> &'static str {
        match self {
            Family::RandomSparse => "random-sparse",
            Family::Geo => "geo",
            Family::Torus => "torus",
            Family::CycleChain => "cycle-chain",
        }
    }

    /// The instance of this family with roughly `n` vertices.
    pub fn generate(self, n: u32, seed: u64) -> Graph {
        match self {
            Family::RandomSparse => gen::random_connected(n, 4 * n as usize, seed),
            Family::Geo => gen::geometric(n, 12.0, (n as usize).max(4), seed),
            Family::Torus => {
                let k = (n as f64).sqrt().floor().max(3.0) as u32;
                gen::torus(k, k)
            }
            Family::CycleChain => gen::cycle_chain((n / 8).max(2), 8, seed),
        }
    }
}

/// The allocation-ablation axis: which workspace regimes each parallel
/// cell runs under.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WorkspaceMode {
    /// One arena per cell, shared across every trial: from the second
    /// trial on, the pipeline runs in its zero-allocation steady state.
    /// This is the regime long-lived callers see and the default.
    On,
    /// A fresh transient arena per run: every trial pays the cold-start
    /// allocation cost.
    Off,
    /// Both regimes, as separate ablation series (`off` cells carry a
    /// `/ws-off` key suffix so `on` cells stay comparable with
    /// documents that predate the ablation).
    Both,
}

impl WorkspaceMode {
    /// The ablation points this mode expands to (`true` = shared arena).
    pub fn points(self) -> Vec<bool> {
        match self {
            WorkspaceMode::On => vec![true],
            WorkspaceMode::Off => vec![false],
            WorkspaceMode::Both => vec![true, false],
        }
    }

    /// Name used in the JSON document and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            WorkspaceMode::On => "on",
            WorkspaceMode::Off => "off",
            WorkspaceMode::Both => "both",
        }
    }
}

impl std::str::FromStr for WorkspaceMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "on" => Ok(WorkspaceMode::On),
            "off" => Ok(WorkspaceMode::Off),
            "both" => Ok(WorkspaceMode::Both),
            other => Err(format!("unknown workspace mode {other:?} (on|off|both)")),
        }
    }
}

/// The cell sets a grid document can carry, one `bcc-bench` subcommand
/// each; `bcc-bench` without a subcommand runs all three.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CellSet {
    /// `bcc-bench grid`: the algorithm cells plus the `store-multi`
    /// commit-latency cells (incremental vs from-scratch
    /// [`IndexStore`] commits across batch sizes).
    Grid,
    /// `bcc-bench serve`: the `bcc-serve` daemon under its workload
    /// profiles, in-process (`serve/*`) and over loopback TCP
    /// (`serve-net/*`), swept over the thread count of the pool the
    /// shards share.
    Serve,
    /// `bcc-bench prims`: each parallel primitive beside its serial
    /// twin (see [`crate::prims`]).
    Prims,
}

impl CellSet {
    /// Every set, in document order.
    pub const ALL: [CellSet; 3] = [CellSet::Grid, CellSet::Serve, CellSet::Prims];

    /// Name used in the JSON document and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            CellSet::Grid => "grid",
            CellSet::Serve => "serve",
            CellSet::Prims => "prims",
        }
    }
}

/// Grid parameters (what the `bcc-bench` CLI parses into).
#[derive(Clone, Debug)]
pub struct GridConfig {
    /// Target vertex count per family instance.
    pub n: u32,
    /// Thread counts to sweep (must contain 1 for speedup baselines).
    pub threads: Vec<usize>,
    /// Timed repetitions per cell; medians are reported.
    pub trials: usize,
    /// Workload seed.
    pub seed: u64,
    /// Marks the document as a smoke run (small sizes, CI-friendly).
    pub smoke: bool,
    /// Allocation-ablation axis: whether parallel cells share one arena
    /// across trials, allocate fresh per run, or run both series.
    pub workspace: WorkspaceMode,
    /// When set, the algorithm cells run on this one on-disk graph
    /// (text edge list or `.bccsr`, sniffed by [`bcc_graph::io::load`])
    /// as the single `file` family instead of the generated families.
    /// The store/serve cells still use their generated instances.
    pub input: Option<PathBuf>,
}

impl GridConfig {
    /// The default full-size grid for `max_threads` threads.
    ///
    /// 50k vertices puts the per-vertex arrays past L2 so the
    /// pipelines measure the memory system, not the cache.
    pub fn full(max_threads: usize) -> GridConfig {
        GridConfig {
            n: 50_000,
            threads: thread_sweep(max_threads),
            trials: 3,
            seed: 42,
            smoke: false,
            workspace: WorkspaceMode::On,
            input: None,
        }
    }

    /// A CI-sized grid: seconds, not minutes, on one core.
    pub fn smoke(max_threads: usize) -> GridConfig {
        GridConfig {
            n: 600,
            trials: 2,
            smoke: true,
            ..GridConfig::full(max_threads)
        }
    }
}

/// Runs `sets` of the grid and returns the `BENCH_bcc.json` document.
/// `progress` receives one line per trial round and per finished cell
/// (pass `|_| {}` to silence it).
pub fn run_grid(cfg: &GridConfig, sets: &[CellSet], mut progress: impl FnMut(&str)) -> Json {
    assert!(cfg.threads.contains(&1), "thread sweep must include 1");
    let mut families: Vec<Json> = vec![];
    let mut entries: Vec<Json> = vec![];
    for set in sets {
        let (f, e) = match set {
            CellSet::Grid => grid_cells(cfg, &mut progress),
            CellSet::Serve => serve_cells(cfg, &mut progress),
            CellSet::Prims => crate::prims::prims_cells(cfg, &mut progress),
        };
        families.extend(f);
        entries.extend(e);
    }
    document(
        "bcc-grid",
        &cfg.threads,
        cfg.trials,
        vec![
            ("smoke", Json::Bool(cfg.smoke)),
            ("n", Json::num(cfg.n)),
            ("seed", Json::num(cfg.seed as f64)),
            ("workspace", Json::str(cfg.workspace.name())),
            (
                "cells",
                Json::Arr(sets.iter().map(|s| Json::str(s.name())).collect()),
            ),
        ],
        families,
        entries,
    )
}

/// The algorithm cells (families × threads × algorithms × ablation
/// points) and then the `store-multi` cells, as (family summaries,
/// entries). Instances and pools are built once; every trial round
/// reuses them.
fn grid_cells(cfg: &GridConfig, progress: &mut dyn FnMut(&str)) -> (Vec<Json>, Vec<Json>) {
    let instances: Vec<Instance> = match &cfg.input {
        Some(path) => {
            let g = bcc_graph::io::load(path)
                .unwrap_or_else(|e| panic!("loading {}: {e}", path.display()));
            vec![Instance::new("file", g)]
        }
        None => Family::ALL
            .iter()
            .map(|f| Instance::new(f.name(), f.generate(cfg.n, cfg.seed)))
            .collect(),
    };
    let pools = telemetry_pools(&cfg.threads);
    // Tarjan's DFS has no arena: one cell per thread count; the
    // parallel pipelines get one per workspace point.
    let mut cells: Cells = vec![];
    for inst in &instances {
        for pool in &pools {
            for alg in Algorithm::ALL {
                if alg == Algorithm::Sequential {
                    cells.push(Box::new(PipelineCell::new(inst, pool, alg, None)));
                    continue;
                }
                for ws in cfg.workspace.points() {
                    cells.push(Box::new(PipelineCell::new(inst, pool, alg, Some(ws))));
                }
            }
        }
    }
    let mut entries = run_cells("grid", &mut cells, cfg.trials, progress);
    fill_speedups(&mut entries);
    let mut families: Vec<Json> = instances.iter().map(Instance::summary).collect();

    let g = store_family_graph(cfg.n, cfg.seed);
    let part_n = (cfg.n / STORE_PARTS).max(8);
    let mut cells: Cells = vec![];
    for (i, pool) in pools.iter().enumerate() {
        for batch in STORE_BATCHES {
            for full in [false, true] {
                let seed = cfg.seed ^ (((i as u64) << 32) | ((batch as u64) << 1));
                cells.push(Box::new(StoreCell {
                    g: &g,
                    p: pool.threads(),
                    batch,
                    full,
                    part_n,
                    store: IndexStore::new(pool.clone(), g.clone())
                        .expect("store family instance indexes"),
                    state: seed | full as u64,
                    samples: vec![],
                }));
            }
        }
    }
    entries.extend(run_cells("store", &mut cells, cfg.trials, progress));
    families.push(Json::obj(vec![
        ("family", Json::str("store-multi")),
        ("n", Json::num(g.n())),
        ("m", Json::num(g.m() as f64)),
        ("components", Json::num(f64::from(STORE_PARTS))),
    ]));
    (families, entries)
}

/// Connected components in the store-commit benchmark instance. With
/// batches confined to one of them, an incremental commit's rebuild
/// region is `1/STORE_PARTS` of the graph — the locality the
/// component-scoped commit is supposed to monetize.
pub const STORE_PARTS: u32 = 16;

/// Batch sizes the store-commit cells sweep: a point update, a burst,
/// and a bulk load.
pub const STORE_BATCHES: [usize; 3] = [1, 64, 4096];

/// Splitmix-flavored LCG for shaping deterministic update batches.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// The store-commit instance: [`STORE_PARTS`] disjoint random connected
/// components of ~`n / STORE_PARTS` vertices each, laid out on
/// contiguous vertex ranges. Kept sparse enough (half the complete
/// graph at tiny sizes) that the first component always has absent
/// chords left to insert.
fn store_family_graph(n: u32, seed: u64) -> Graph {
    let part_n = (n / STORE_PARTS).max(8);
    let part_m = (3 * part_n as usize)
        .min(gen::max_edges(part_n) / 2)
        .max(part_n as usize);
    let mut edges = Vec::with_capacity(STORE_PARTS as usize * part_m);
    for p in 0..STORE_PARTS {
        let off = p * part_n;
        let sub = gen::random_connected(part_n, part_m, seed.wrapping_add(p as u64));
        edges.extend(sub.edges().iter().map(|e| Edge::new(e.u + off, e.v + off)));
    }
    GraphBuilder::new(part_n * STORE_PARTS)
        .edges(edges)
        .build()
        .unwrap()
}

/// Picks up to `want` distinct vertex pairs inside the first component
/// (ids `< part_n`) that are *not* edges of `g`. Returns fewer when the
/// component runs out of absent chords (tiny smoke instances under the
/// 4096 batch).
fn absent_chords(g: &Graph, part_n: u32, want: usize, state: &mut u64) -> Vec<(u32, u32)> {
    let mut present: std::collections::BTreeSet<u64> = g.edges().iter().map(|e| e.key()).collect();
    let mut out = Vec::with_capacity(want.min(1024));
    let mut attempts = 0usize;
    let cap = want * 20 + 1000;
    while out.len() < want && attempts < cap {
        attempts += 1;
        let u = (lcg(state) % u64::from(part_n)) as u32;
        let v = (lcg(state) % u64::from(part_n)) as u32;
        if u != v && present.insert(Edge::new(u, v).key()) {
            out.push((u, v));
        }
    }
    out
}

/// One `store-multi` cell: an [`IndexStore`] over the many-component
/// instance. Each trial inserts a batch of absent chords confined to
/// the first component, times the commit (incremental or full), and
/// reverts untimed so every round commits against the same
/// steady-state graph.
struct StoreCell<'a> {
    g: &'a Graph,
    p: usize,
    batch: usize,
    full: bool,
    part_n: u32,
    store: IndexStore,
    state: u64,
    samples: Vec<Sample>,
}

impl Cell for StoreCell<'_> {
    fn trial(&mut self) {
        let before = self.store.load();
        let chords = absent_chords(&before.graph, self.part_n, self.batch, &mut self.state);
        let mut txn = self.store.begin();
        for &(u, v) in &chords {
            txn.insert(u, v);
        }
        let t = Instant::now();
        let snap = if self.full {
            txn.commit_full()
        } else {
            txn.commit()
        }
        .expect("store commit");
        let secs = t.elapsed().as_secs_f64();
        let s = &snap.stats;
        // The median batch actually committed (smaller than `batch`
        // only when a tiny smoke component runs out of absent chords),
        // then how much of the index the commit rebuilt.
        self.samples.push(vec![
            ("batch_effective", chords.len() as f64),
            ("seconds", secs),
            ("components_rebuilt", f64::from(s.components_rebuilt)),
            ("components_reused", f64::from(s.components_reused)),
            ("vertices_rebuilt", f64::from(s.vertices_rebuilt)),
            ("edges_rebuilt", s.edges_rebuilt as f64),
            ("reused_fraction", s.reused_fraction),
        ]);
        let mut txn = self.store.begin();
        for &(u, v) in &chords {
            txn.remove(u, v);
        }
        txn.commit().expect("store revert");
    }

    fn entry(&self) -> Json {
        let alg = if self.full {
            "commit-full"
        } else {
            "commit-incremental"
        };
        median_entry(
            vec![
                ("family", Json::str("store-multi")),
                ("algorithm", Json::str(alg)),
                ("n", Json::num(self.g.n())),
                ("m", Json::num(self.g.m() as f64)),
                ("threads", Json::num(self.p as f64)),
                ("batch", Json::num(self.batch as f64)),
            ],
            &self.samples,
        )
    }
}

/// Components in the serve-cell instance (each a contiguous ring plus
/// random chords; see [`component_grid`]).
pub const SERVE_PARTS: u32 = 8;

/// Shards the serve cells split the store across.
pub const SERVE_SHARDS: usize = 4;

/// Per-shard commit-p99 field names, one per shard writer.
const SHARD_COMMIT_P99: [&str; SERVE_SHARDS] = [
    "commit_p99_seconds_shard0",
    "commit_p99_seconds_shard1",
    "commit_p99_seconds_shard2",
    "commit_p99_seconds_shard3",
];

/// One serve-cell scenario: drive profile and mode, plus whether the
/// cell arms admission control. `shed` cells run a deliberately
/// oversubscribed update stream against tight watermarks, measuring
/// the read tail *while* admission control sheds (the SLO claim:
/// rejections, not latency collapse).
#[derive(Copy, Clone)]
struct ServeScenario {
    profile: Profile,
    mode: Mode,
    shed: bool,
}

/// The scenarios each thread count runs, at open-loop arrival `rate`.
/// In-process: the read-heavy profile under both drive modes, then the
/// churn-heavy and adversarial hot-component profiles open-loop — the
/// mode where queueing behind commits shows up as tail latency instead
/// of silently reducing the offered load — plus an update storm
/// (10/90 mix) at 4x the rate against armed admission watermarks:
/// sheds must be nonzero and reads must survive.
///
/// Over loopback TCP (`net`): the read-heavy SLO path and the storm,
/// proving the daemon sheds with typed `Rejected(Overloaded)` frames on
/// the wire. The storm's multiplier is higher there because one client
/// connection sends serially — the wire rate must still outrun the
/// backlog watermark.
fn serve_scenarios(net: bool, rate: f64) -> Vec<ServeScenario> {
    use Profile::*;
    let cell = |profile, rate: Option<f64>, shed| ServeScenario {
        profile,
        mode: rate.map_or(Mode::Closed, |rate| Mode::Open { rate }),
        shed,
    };
    if net {
        return vec![
            cell(ReadHeavy, Some(rate), false),
            cell(UpdateStorm, Some(rate * 16.0), true),
        ];
    }
    vec![
        cell(ReadHeavy, None, false),
        cell(ReadHeavy, Some(rate), false),
        cell(ChurnHeavy, Some(rate), false),
        cell(HotComponent, Some(rate), false),
        cell(UpdateStorm, Some(rate * 4.0), true),
    ]
}

/// Watermarks the overload (`shed`) cells arm. The backlog watermark
/// sits below what one writer flush window accumulates under the
/// storm's update arrival rate, so admission control demonstrably
/// engages inside even the smoke grid's 120ms window; the queue-depth
/// watermark keeps sheds typed (`Overloaded`) instead of degrading to
/// `QueueFull` when commits stall outright.
const SHED_ADMISSION: Admission = Admission {
    shed_queue_depth: Some(512),
    shed_backlog: Some(48),
};

/// The `serve` cells, then the `serve-net` cells, as (family
/// summaries, entries). Each cell owns one [`ShardedStore`], reused
/// across trials so churn runs against a warm, steady-state store.
fn serve_cells(cfg: &GridConfig, progress: &mut dyn FnMut(&str)) -> (Vec<Json>, Vec<Json>) {
    let n = cfg.n.max(3 * SERVE_PARTS);
    let g = component_grid(n, SERVE_PARTS, cfg.seed);
    let mut families = vec![];
    let mut entries = vec![];
    for net in [false, true] {
        // Arrival rate and measurement window, sized so the smoke grid
        // stays CI-friendly while the full grid queues for real.
        // Loopback round-trips are ~10x a queue hop, so the socket
        // cells drive at a rate one client connection can sustain
        // without self-queueing.
        let rate = match (net, cfg.smoke) {
            (false, true) => 20_000.0,
            (false, false) => 100_000.0,
            (true, true) => 5_000.0,
            (true, false) => 20_000.0,
        };
        let duration = Duration::from_millis(if cfg.smoke { 120 } else { 400 });
        let mut cells: Cells = vec![];
        for &p in &cfg.threads {
            for sc in serve_scenarios(net, rate) {
                cells.push(Box::new(ServeCell {
                    g: &g,
                    p,
                    net,
                    sc,
                    load: WorkloadConfig {
                        profile: sc.profile,
                        mode: sc.mode,
                        duration,
                        parts: SERVE_PARTS,
                        seed: cfg.seed,
                    },
                    store: Arc::new(
                        ShardedStore::new(&Pool::new(p), &g, SERVE_SHARDS)
                            .expect("serve instance shards"),
                    ),
                    samples: vec![],
                }));
            }
        }
        let family = if net { "serve-net" } else { "serve" };
        entries.extend(run_cells(family, &mut cells, cfg.trials, progress));
        let mut summary = vec![
            ("family", Json::str(family)),
            ("n", Json::num(g.n())),
            ("m", Json::num(g.m() as f64)),
            ("components", Json::num(f64::from(SERVE_PARTS))),
            ("shards", Json::num(SERVE_SHARDS as f64)),
            ("duration_seconds", Json::num(duration.as_secs_f64())),
            ("open_rate", Json::num(rate)),
        ];
        if net {
            summary.push(("transport", Json::str("tcp-loopback")));
        }
        families.push(Json::obj(summary));
    }
    (families, entries)
}

/// One serve cell: each trial spawns a fresh [`Daemon`] over the cell's
/// store and drives it with [`run_workload`] — or, for `net` cells,
/// through a [`NetFrontend`] on loopback with [`run_net_workload`]: one
/// connection, length-prefixed frames, responses matched by request id.
/// The gate metric (`seconds`) is the p99 query latency; for `net`
/// cells the round-trip p99 (scheduled arrival to response on the
/// client), so it prices the codec and the socket alongside the daemon.
struct ServeCell<'a> {
    g: &'a Graph,
    p: usize,
    net: bool,
    sc: ServeScenario,
    load: WorkloadConfig,
    store: Arc<ShardedStore>,
    samples: Vec<Sample>,
}

impl Cell for ServeCell<'_> {
    fn trial(&mut self) {
        const NS: f64 = 1e-9;
        let sc = self.sc;
        let daemon = Daemon::spawn(
            Arc::clone(&self.store),
            ServeConfig::builder()
                .flush_interval(Duration::from_millis(1))
                .admission(if sc.shed {
                    SHED_ADMISSION
                } else {
                    Admission::default()
                })
                .build(),
        );
        let (sample, serve) = if self.net {
            let frontend = NetFrontend::spawn(daemon, "127.0.0.1:0").expect("loopback listener");
            let r = run_net_workload(frontend.local_addr(), &self.load, self.g.n())
                .expect("loopback workload");
            let l = &r.latency;
            let sample = vec![
                ("seconds", l.quantile(0.99) as f64 * NS),
                ("responses_per_sec", r.responses_per_sec()),
                ("answered", r.answered as f64),
                ("accepted", r.accepted as f64),
                ("shed_count", r.shed as f64),
                ("rejected_other", r.rejected_other as f64),
                ("latency_p50_seconds", l.quantile(0.50) as f64 * NS),
                ("latency_p999_seconds", l.quantile(0.999) as f64 * NS),
                ("latency_max_seconds", l.max() as f64 * NS),
            ];
            (sample, frontend.shutdown())
        } else {
            let r = run_workload(daemon, &self.load);
            let s = &r.serve;
            let mut sample = vec![
                ("seconds", s.latency.quantile(0.99) as f64 * NS),
                ("queries_per_sec", r.queries_per_sec()),
                ("answered", s.answered as f64),
                ("latency_p50_seconds", s.latency.quantile(0.50) as f64 * NS),
                (
                    "latency_p999_seconds",
                    s.latency.quantile(0.999) as f64 * NS,
                ),
                ("latency_max_seconds", s.latency.max() as f64 * NS),
                ("lag_commits_p50", s.lag_commits.quantile(0.50) as f64),
                ("lag_commits_p99", s.lag_commits.quantile(0.99) as f64),
                ("lag_commits_max", s.lag_commits.max() as f64),
                (
                    "lag_wall_p99_seconds",
                    s.lag_wall.quantile(0.99) as f64 * NS,
                ),
                ("updates_applied", s.updates_applied as f64),
                ("commits", s.commits as f64),
                ("migrations", s.migrations as f64),
                ("shed_count", s.shed_updates as f64),
                (
                    "commit_p50_seconds",
                    s.commit_latency.quantile(0.50) as f64 * NS,
                ),
                (
                    "commit_p99_seconds",
                    s.commit_latency.quantile(0.99) as f64 * NS,
                ),
            ];
            for (shard, name) in SHARD_COMMIT_P99.into_iter().enumerate() {
                let h = s.shard_commit_latency.get(shard);
                sample.push((name, h.map_or(0.0, |h| h.quantile(0.99) as f64 * NS)));
            }
            (sample, r.serve)
        };
        if let Some(e) = &serve.writer_error {
            let (profile, mode) = (sc.profile.name(), sc.mode.name());
            panic!("serve writer failed ({profile} / {mode} p={}): {e}", self.p);
        }
        self.samples.push(sample);
    }

    fn entry(&self) -> Json {
        let sc = self.sc;
        let rate = match sc.mode {
            Mode::Open { rate } => rate,
            Mode::Closed => 0.0,
        };
        median_entry(
            vec![
                (
                    "family",
                    Json::str(if self.net { "serve-net" } else { "serve" }),
                ),
                ("algorithm", Json::str(sc.profile.name())),
                ("n", Json::num(self.g.n())),
                ("m", Json::num(self.g.m() as f64)),
                ("threads", Json::num(self.p as f64)),
                ("mode", Json::str(sc.mode.name())),
                ("rate", Json::num(rate)),
                // Admission policy: part of the cell's identity (it
                // lands in the entry key) so the overload cell gates
                // against itself.
                (
                    "admission",
                    Json::str(if sc.shed { "shed" } else { "open" }),
                ),
            ],
            &self.samples,
        )
    }
}

/// One regression found by [`compare`].
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// `family/algorithm/n/threads` key of the offending entry.
    pub key: String,
    /// Which gated metric regressed: `"seconds_min"` (time) or
    /// `"peak_rss_bytes"` (space).
    pub metric: &'static str,
    /// Baseline value, in the metric's unit (seconds or bytes).
    pub baseline: f64,
    /// Candidate value, in the metric's unit.
    pub candidate: f64,
    /// Regression in percent (`(candidate/baseline - 1) * 100`,
    /// calibration applied for the time metric).
    pub slowdown_pct: f64,
}

/// Structural problems that stop a comparison before it starts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompareError {
    /// A document is not a `bcc-grid` object with an `entries` array.
    MalformedDocument(&'static str),
    /// A document carries a `schema_version` outside
    /// [`COMPAT_SCHEMA_VERSIONS`] (or none at all).
    SchemaMismatch,
}

impl std::fmt::Display for CompareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompareError::MalformedDocument(which) => {
                write!(f, "{which} document is not a bcc-grid BENCH file")
            }
            CompareError::SchemaMismatch => {
                write!(
                    f,
                    "unsupported schema_version (supported: {COMPAT_SCHEMA_VERSIONS:?})"
                )
            }
        }
    }
}

impl std::error::Error for CompareError {}

/// The key `compare` matches entries by:
/// `family/algorithm/n<n>/p<threads>` plus the ablation suffixes the
/// entry's fields dictate (`None` for an entry missing a key field).
pub fn entry_key(e: &Json) -> Option<String> {
    let mut key = format!(
        "{}/{}/n{}/p{}",
        e.get("family")?.as_str()?,
        e.get("algorithm")?.as_str()?,
        e.get("n")?.as_u64()?,
        e.get("threads")?.as_u64()?,
    );
    // The allocation ablation suffixes only its *off* cells, so default
    // (`on`) cells keep the keys older documents used and stay
    // comparable against them.
    if e.get("workspace").and_then(Json::as_str) == Some("off") {
        key.push_str("/ws-off");
    }
    // Store-commit cells are one series per batch size.
    if let Some(b) = e.get("batch").and_then(Json::as_u64) {
        key.push_str(&format!("/batch{b}"));
    }
    // Serve cells are one series per drive mode (closed vs open).
    if let Some(m) = e.get("mode").and_then(Json::as_str) {
        key.push('/');
        key.push_str(m);
    }
    // Overload cells (admission watermarks armed, oversubscribed
    // arrivals) are their own series — they gate shed behaviour, not
    // steady-state latency.
    if e.get("admission").and_then(Json::as_str) == Some("shed") {
        key.push_str("/shed");
    }
    Some(key)
}

/// Residual slowdowns smaller than this many seconds never flag:
/// timer granularity and scheduler jitter move microsecond-scale cells
/// by double-digit percentages that no amount of calibration removes.
/// The gate therefore catches regressions of at least
/// `max(threshold_pct, MIN_ABS_REGRESSION_SECS)`.
const MIN_ABS_REGRESSION_SECS: f64 = 50e-6;

/// Peak-RSS growth smaller than this many bytes never flags: allocator
/// arena rounding, thread-stack placement, and page-cache attribution
/// move small processes by a few MiB run to run. 16 MiB is far above
/// that jitter and far below the O(m) arrays whose accidental return
/// the space gate exists to catch at xl sizes.
const MIN_ABS_RSS_REGRESSION_BYTES: f64 = 16.0 * 1024.0 * 1024.0;

/// Compares two BENCH documents; entries are matched by
/// [`entry_key`] and flagged when the
/// candidate's `seconds_min` (falling back to the median `seconds` for
/// v1 documents) exceeds the baseline's by more than `threshold_pct`
/// percent **after machine-speed calibration**, under **two**
/// calibrations at once: the median candidate/baseline ratio over all
/// shared cells (the global host-speed factor) and the median over the
/// entry's own family. Host drift is correlated in arbitrary subsets
/// of the grid (whole-machine slowdowns, one family's working set
/// landing at different cache-aliasing offsets, one thread count
/// scheduling differently), and each calibration is blind to the
/// subsets the other one absorbs — but a real kernel regression stands
/// out against *both* medians, because the grid's other cells and the
/// family's other cells both anchor them. The residual slowdown must
/// also exceed `MIN_ABS_REGRESSION_SECS`. Entries present on only
/// one side are skipped (grids of different sizes — or a v1 baseline
/// against a v2 candidate — stay comparable on their shared cells).
/// Overload cells (keys ending `/shed`) still anchor the calibration
/// medians but are exempt from flagging on time — their tail latency
/// is load-dependent by construction; see the inline comment in the
/// gating loop for the rationale and where their contract is gated
/// instead.
///
/// `peak_rss_bytes` is gated as a **second, independent metric** under
/// `rss_threshold_pct` on every shared cell where *both* documents
/// carry it (a baseline that predates the field — or a non-Linux host
/// that omits it — is tolerated, its cells simply aren't space-gated).
/// Peak RSS needs no machine-speed calibration: it measures the
/// algorithm's working set, not the host's clock — so the gate is a
/// plain ratio test with its own absolute floor
/// (`MIN_ABS_RSS_REGRESSION_BYTES`), which keeps small-process
/// allocator jitter quiet while catching an accidentally-rematerialized
/// O(m) array at xl sizes.
pub fn compare(
    baseline: &Json,
    candidate: &Json,
    threshold_pct: f64,
    rss_threshold_pct: f64,
) -> Result<Vec<Regression>, CompareError> {
    type Entries = Vec<(String, f64, Option<f64>)>;
    let doc = |j: &Json, which| -> Result<Entries, CompareError> {
        let entries = j
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or(CompareError::MalformedDocument(which))?;
        entries
            .iter()
            .map(|e| {
                let key = entry_key(e).ok_or(CompareError::MalformedDocument(which))?;
                // Gate on the min-of-trials when the document carries it
                // (v2); fall back to the median `seconds` (v1).
                let secs = e
                    .get("seconds_min")
                    .and_then(Json::as_f64)
                    .or_else(|| e.get("seconds").and_then(Json::as_f64))
                    .ok_or(CompareError::MalformedDocument(which))?;
                let rss = e.get("peak_rss_bytes").and_then(Json::as_f64);
                Ok((key, secs, rss))
            })
            .collect()
    };
    let sv = |j: &Json| j.get("schema_version").and_then(Json::as_u64);
    let readable = |j: &Json| sv(j).is_some_and(|v| COMPAT_SCHEMA_VERSIONS.contains(&v));
    if !readable(baseline) || !readable(candidate) {
        return Err(CompareError::SchemaMismatch);
    }
    let base = doc(baseline, "baseline")?;
    let cand = doc(candidate, "candidate")?;
    // Machine-speed calibration: shared CI runners (and laptops) drift
    // wholesale between runs, so an absolute per-cell gate flags
    // everything on a slow day and nothing on a fast one. The drift is
    // additionally correlated in subsets (one family, one thread
    // count), so a cell must look regressed against both the global
    // median ratio *and* its family's before it flags — whichever
    // median absorbs the drift pattern clears the innocent cell, while
    // a genuinely regressed kernel stands out against both.
    let family_of = |key: &str| key.split('/').next().unwrap_or("").to_string();
    let shared: Vec<(&String, f64, f64)> = base
        .iter()
        .filter_map(|(key, b, _)| {
            let (_, c, _) = cand.iter().find(|(k, _, _)| k == key)?;
            (*b > 0.0).then_some((key, *b, *c))
        })
        .collect();
    let median_ratio = |pick: &dyn Fn(&str) -> bool| -> Option<f64> {
        let mut ratios: Vec<f64> = shared
            .iter()
            .filter(|(key, _, _)| pick(key))
            .map(|(_, b, c)| c / b)
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (!ratios.is_empty()).then(|| ratios[ratios.len() / 2])
    };
    let global_factor = median_ratio(&|_| true).unwrap_or(1.0);
    let mut regressions = vec![];
    for (key, b, c) in &shared {
        // Overload (`…/shed`) cells never *flag* on time: under
        // deliberate shedding, *which* requests get answered is itself
        // load-dependent, so their tail latency is bimodal run-to-run
        // (observed ~2x spread in the min-of-trials on a 1-core host)
        // and would flap any cross-run threshold. They stay in the
        // calibration medians above — they ride the same transport and
        // scheduler drift as their family and the medians are robust
        // to their noise — but their own contract (sheds nonzero and
        // typed, read p99 within a band of the same run's non-shed
        // cells) is asserted in-run by the CI serve-smoke step.
        if key.ends_with("/shed") {
            continue;
        }
        let fam = family_of(key);
        let fam_cells = shared
            .iter()
            .filter(|(k, _, _)| family_of(k) == fam)
            .count();
        // A family needs a few cells for its median to be meaningful;
        // otherwise the global factor stands in for it.
        let fam_factor = if fam_cells >= 4 {
            median_ratio(&|k| family_of(k) == fam).unwrap_or(global_factor)
        } else {
            global_factor
        };
        // Judge against the more forgiving of the two calibrations.
        let calibrated = b * global_factor.max(fam_factor);
        if c / calibrated > 1.0 + threshold_pct / 100.0 && c - calibrated > MIN_ABS_REGRESSION_SECS
        {
            regressions.push(Regression {
                key: (*key).clone(),
                metric: "seconds_min",
                baseline: *b,
                candidate: *c,
                slowdown_pct: (c / calibrated - 1.0) * 100.0,
            });
        }
    }
    // The space gate: uncalibrated ratio test on cells where both
    // sides report the watermark.
    for (key, _, b_rss) in &base {
        let Some((_, _, Some(c_rss))) = cand.iter().find(|(k, _, _)| k == key) else {
            continue;
        };
        let Some(b_rss) = b_rss else { continue };
        if *b_rss > 0.0
            && c_rss / b_rss > 1.0 + rss_threshold_pct / 100.0
            && c_rss - b_rss > MIN_ABS_RSS_REGRESSION_BYTES
        {
            regressions.push(Regression {
                key: key.clone(),
                metric: "peak_rss_bytes",
                baseline: *b_rss,
                candidate: *c_rss,
                slowdown_pct: (c_rss / b_rss - 1.0) * 100.0,
            });
        }
    }
    regressions.sort_by(|a, b| b.slowdown_pct.partial_cmp(&a.slowdown_pct).unwrap());
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> Json {
        tiny_grid_full(WorkspaceMode::On, 1)
    }

    fn tiny_grid_full(workspace: WorkspaceMode, trials: usize) -> Json {
        let cfg = GridConfig {
            n: 80,
            threads: vec![1, 2],
            trials,
            seed: 7,
            workspace,
            ..GridConfig::smoke(2)
        };
        run_grid(&cfg, &[CellSet::Grid], |_| {})
    }

    /// The algorithm cells of a `grid` document (the `store-multi`
    /// cells ride along in the same set).
    fn pipeline_entries(doc: &Json) -> Vec<&Json> {
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        entries
            .iter()
            .filter(|e| e.get("phases").is_some())
            .collect()
    }

    #[test]
    fn store_commit_cells_emit_incremental_and_full_series() {
        let cfg = GridConfig {
            n: 320,
            threads: vec![1, 2],
            seed: 7,
            ..GridConfig::smoke(2)
        };
        let doc = run_grid(&cfg, &[CellSet::Grid], |_| {});
        assert_eq!(doc.get("cells"), Some(&Json::Arr(vec![Json::str("grid")])));
        // The family summary rides along with the per-algorithm ones.
        let fams = doc.get("families").and_then(Json::as_arr).unwrap();
        let store_fam = fams
            .iter()
            .find(|f| f.get("family").and_then(Json::as_str) == Some("store-multi"))
            .expect("store-multi family summary");
        assert_eq!(
            store_fam.get("components").and_then(Json::as_u64),
            Some(u64::from(STORE_PARTS))
        );
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        let store_cells: Vec<&Json> = entries
            .iter()
            .filter(|e| e.get("family").and_then(Json::as_str) == Some("store-multi"))
            .collect();
        // threads × batch sizes × {incremental, full}.
        assert_eq!(store_cells.len(), 2 * STORE_BATCHES.len() * 2);
        // Keys stay unique: the batch suffix disambiguates the series.
        let keys: std::collections::BTreeSet<String> =
            store_cells.iter().map(|e| entry_key(e).unwrap()).collect();
        assert_eq!(keys.len(), store_cells.len());
        for e in &store_cells {
            let alg = e.get("algorithm").and_then(Json::as_str).unwrap();
            let batch = e.get("batch").and_then(Json::as_u64).unwrap();
            assert!(STORE_BATCHES.contains(&(batch as usize)));
            let key = entry_key(e).unwrap();
            assert!(key.ends_with(&format!("/batch{batch}")), "{key}");
            for field in [
                "seconds",
                "seconds_min",
                "batch_effective",
                "reused_fraction",
            ] {
                assert!(
                    e.get(field).and_then(Json::as_f64).is_some(),
                    "missing {field} in {key}"
                );
            }
            let effective = e.get("batch_effective").and_then(Json::as_f64).unwrap();
            assert!(effective >= 1.0, "{key}: no chords committed");
            let rebuilt = e.get("components_rebuilt").and_then(Json::as_u64).unwrap();
            let reused = e.get("components_reused").and_then(Json::as_u64).unwrap();
            match alg {
                // The batch is confined to the first component: the
                // incremental commit rebuilds exactly it and carries
                // the other 15 over by Arc.
                "commit-incremental" => {
                    assert_eq!(rebuilt, 1, "{key}");
                    assert_eq!(reused, u64::from(STORE_PARTS) - 1, "{key}");
                    assert!(
                        e.get("reused_fraction").and_then(Json::as_f64).unwrap() > 0.9,
                        "{key}"
                    );
                }
                // The escape hatch rebuilds everything.
                "commit-full" => {
                    assert_eq!(rebuilt, u64::from(STORE_PARTS), "{key}");
                    assert_eq!(reused, 0, "{key}");
                }
                other => panic!("unexpected store algorithm {other}"),
            }
        }
    }

    #[test]
    fn serve_cells_emit_slo_series() {
        let cfg = GridConfig {
            n: 320,
            threads: vec![1, 2],
            seed: 7,
            ..GridConfig::smoke(2)
        };
        let doc = run_grid(&cfg, &[CellSet::Serve], |_| {});
        // The serve and serve-net family summaries are the whole
        // families array.
        let fams = doc.get("families").and_then(Json::as_arr).unwrap();
        assert_eq!(fams.len(), 2);
        for f in fams {
            assert_eq!(
                f.get("shards").and_then(Json::as_u64),
                Some(SERVE_SHARDS as u64)
            );
        }
        assert_eq!(
            fams[1].get("transport").and_then(Json::as_str),
            Some("tcp-loopback")
        );
        let text = doc.pretty();
        let parsed = crate::json::parse(&text).expect("serve BENCH json must parse");
        let entries = parsed.get("entries").and_then(Json::as_arr).unwrap();
        // threads × (in-process scenarios + loopback-TCP scenarios).
        assert_eq!(
            entries.len(),
            2 * (serve_scenarios(false, 1.0).len() + serve_scenarios(true, 1.0).len())
        );
        let keys: std::collections::BTreeSet<String> =
            entries.iter().map(|e| entry_key(e).unwrap()).collect();
        assert_eq!(keys.len(), entries.len());
        for e in entries {
            let key = entry_key(e).unwrap();
            let family = e.get("family").and_then(Json::as_str).unwrap();
            let mode = e.get("mode").and_then(Json::as_str).unwrap();
            assert!(matches!(mode, "closed" | "open"), "{key}");
            // Keys end with the drive mode plus the suffix the
            // admission field dictates.
            let mut tail = format!("/{mode}");
            if e.get("admission").and_then(Json::as_str) == Some("shed") {
                tail.push_str("/shed");
            }
            assert!(key.ends_with(&tail), "{key} vs {tail}");
            // Closed-loop cells drive as fast as backpressure allows;
            // open-loop cells carry their arrival rate.
            let rate = e.get("rate").and_then(Json::as_f64).unwrap();
            assert_eq!(mode == "closed", rate == 0.0, "{key}");
            let common = ["seconds", "seconds_min", "answered", "shed_count"];
            let fields: &[&str] = if family == "serve" {
                &[
                    "queries_per_sec",
                    "latency_p50_seconds",
                    "latency_p999_seconds",
                    "lag_commits_p50",
                    "lag_commits_p99",
                    "lag_commits_max",
                    "lag_wall_p99_seconds",
                    "updates_applied",
                    "commits",
                    "commit_p99_seconds",
                    "commit_p99_seconds_shard0",
                ]
            } else {
                assert_eq!(family, "serve-net", "{key}");
                &["responses_per_sec", "accepted", "rejected_other"]
            };
            for field in common.iter().chain(fields) {
                assert!(
                    e.get(field).and_then(Json::as_f64).is_some(),
                    "missing {field} in {key}"
                );
            }
            assert!(
                e.get("answered").and_then(Json::as_f64).unwrap() > 0.0,
                "{key}: no queries answered"
            );
            // Quantiles are ordered: p50 ≤ p99 (= seconds) ≤ p999.
            let p50 = e.get("latency_p50_seconds").and_then(Json::as_f64).unwrap();
            let p99 = e.get("seconds").and_then(Json::as_f64).unwrap();
            let p999 = e
                .get("latency_p999_seconds")
                .and_then(Json::as_f64)
                .unwrap();
            assert!(p50 <= p99 && p99 <= p999, "{key}: {p50} / {p99} / {p999}");
            if family != "serve" {
                continue;
            }
            // Churn profiles commit; read-heavy ones may too (1% mix).
            if e.get("algorithm").and_then(Json::as_str) == Some("churn-heavy") {
                assert!(
                    e.get("commits").and_then(Json::as_f64).unwrap() > 0.0,
                    "{key}: churn profile never committed"
                );
            }
        }
    }

    #[test]
    fn golden_schema_round_trips() {
        let doc = tiny_grid();
        let text = doc.pretty();
        let parsed = crate::json::parse(&text).expect("emitted BENCH json must parse");
        assert_eq!(parsed.get("schema_version").and_then(Json::as_u64), Some(2));
        assert_eq!(
            parsed.get("experiment").and_then(Json::as_str),
            Some("bcc-grid")
        );
        // Per-family shape summaries carry the effective diameter; the
        // store-multi summary follows them.
        let fams = parsed.get("families").and_then(Json::as_arr).unwrap();
        assert_eq!(fams.len(), Family::ALL.len() + 1);
        for f in &fams[..Family::ALL.len()] {
            let d = f
                .get("effective_diameter_90")
                .and_then(Json::as_u64)
                .unwrap();
            let levels = f.get("bfs_levels").and_then(Json::as_u64).unwrap();
            assert!(d >= 1 && d <= levels, "diameter {d} vs levels {levels}");
        }
        let entries = pipeline_entries(&parsed);
        // families × threads × (Sequential + 4 parallel).
        assert_eq!(entries.len(), 4 * 2 * (1 + 4));
        let mut algs_seen = std::collections::BTreeSet::new();
        for e in &entries {
            algs_seen.insert(e.get("algorithm").and_then(Json::as_str).unwrap());
            for field in [
                "seconds",
                "speedup_vs_sequential",
                "phase_runs",
                "barrier_episodes",
                "barrier_wait_seconds",
                "imbalance",
                "alloc_bytes",
                "arena_hit_rate",
                "effective_edges",
                "aux_vertices",
                "aux_edges",
            ] {
                assert!(
                    e.get(field).and_then(Json::as_f64).is_some(),
                    "missing {field}"
                );
            }
            assert!(e.get("phases").and_then(Json::as_arr).is_some());
            assert!(e.get("imbalance").and_then(Json::as_f64).unwrap() >= 1.0);
            // BFS counters + workspace axis on parallel cells only; no
            // entry names a traversal configuration.
            let seq = e.get("algorithm").and_then(Json::as_str) == Some("Sequential");
            assert!(e.get("tuning").is_none());
            assert_eq!(e.get("bfs_levels").is_none(), seq);
            assert_eq!(e.get("workspace").is_none(), seq);
            if !seq {
                assert_eq!(e.get("workspace").and_then(Json::as_str), Some("on"));
                assert!(e.get("bfs_directions").and_then(Json::as_str).is_some());
            }
        }
        let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(algs_seen.into_iter().collect::<Vec<_>>(), {
            let mut sorted = names.clone();
            sorted.sort();
            sorted
        });
        // Parallel entries carry per-phase breakdowns; the Sequential
        // baseline legitimately has none.
        let tv = entries
            .iter()
            .find(|e| e.get("algorithm").and_then(Json::as_str) == Some("TV-filter"))
            .unwrap();
        assert!(!tv.get("phases").and_then(Json::as_arr).unwrap().is_empty());
    }

    #[test]
    fn workspace_ablation_emits_on_and_off_series() {
        let doc = tiny_grid_full(WorkspaceMode::Both, 2);
        assert_eq!(doc.get("workspace").and_then(Json::as_str), Some("both"));
        let entries = pipeline_entries(&doc);
        // Sequential once, 4 parallel algorithms × 2 workspace points.
        assert_eq!(entries.len(), 4 * 2 * (1 + 4 * 2));
        // Keys stay unique; exactly the off-cells carry the suffix.
        let keys: Vec<String> = entries.iter().map(|e| entry_key(e).unwrap()).collect();
        assert_eq!(
            keys.iter().collect::<std::collections::BTreeSet<_>>().len(),
            entries.len()
        );
        for (e, key) in entries.into_iter().zip(&keys) {
            let ws = e.get("workspace").and_then(Json::as_str);
            assert_eq!(ws == Some("off"), key.ends_with("/ws-off"), "{key}");
            let alloc = e.get("alloc_bytes").and_then(Json::as_f64).unwrap();
            match ws {
                // Shared arena + 2 trials: the warm trial's 0 is the
                // reported median.
                Some("on") => assert_eq!(alloc, 0.0, "{key}"),
                // Fresh arena per run: every trial pays cold-start.
                Some("off") => assert!(alloc > 0.0, "{key}"),
                _ => {}
            }
        }
    }

    #[test]
    fn file_input_replaces_generated_families() {
        // A real on-disk dataset: write a text edge list, point the
        // grid at it, and the algorithm cells run on the single `file`
        // family instead of the four generated ones (the store cells
        // keep their generated instance).
        let dir = std::env::temp_dir().join(format!("bcc-grid-input-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("input.txt");
        let g = bcc_graph::gen::random_connected(60, 150, 7);
        bcc_graph::io::write_text(&g, &mut std::fs::File::create(&path).unwrap()).unwrap();
        let cfg = GridConfig {
            n: 60,
            threads: vec![1, 2],
            trials: 1,
            seed: 7,
            input: Some(path.clone()),
            ..GridConfig::smoke(2)
        };
        let doc = run_grid(&cfg, &[CellSet::Grid], |_| {});
        let fams = doc.get("families").and_then(Json::as_arr).unwrap();
        assert_eq!(fams[0].get("family").and_then(Json::as_str), Some("file"));
        assert_eq!(fams[0].get("n").and_then(Json::as_u64), Some(60));
        assert_eq!(
            fams[1].get("family").and_then(Json::as_str),
            Some("store-multi")
        );
        let entries = pipeline_entries(&doc);
        // One family × 2 thread counts × (Sequential + 4 parallel).
        assert_eq!(entries.len(), 2 * (1 + 4));
        let rss_available = bcc_smp::rss::reset_peak().is_ok();
        for e in entries {
            assert_eq!(e.get("family").and_then(Json::as_str), Some("file"));
            assert_eq!(e.get("n").and_then(Json::as_u64), Some(60));
            // Where the kernel exposes the watermark, every cell
            // carries its peak resident set.
            if rss_available {
                let peak = e.get("peak_rss_bytes").and_then(Json::as_f64).unwrap();
                assert!(peak > 0.0);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequential_speedup_is_one_at_p1() {
        let doc = tiny_grid();
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        for e in entries {
            if e.get("algorithm").and_then(Json::as_str) == Some("Sequential")
                && e.get("threads").and_then(Json::as_u64) == Some(1)
            {
                let s = e
                    .get("speedup_vs_sequential")
                    .and_then(Json::as_f64)
                    .unwrap();
                assert!((s - 1.0).abs() < 1e-9, "got {s}");
            }
        }
    }

    /// Rescales the gate's timing fields (`seconds` and `seconds_min`)
    /// of every entry by `f(index, old)`.
    fn rescale_entries(doc: &Json, f: &dyn Fn(usize, f64) -> f64) -> Json {
        let mut scaled = doc.clone();
        if let Json::Obj(fields) = &mut scaled {
            let entries = fields
                .iter_mut()
                .find(|(k, _)| k == "entries")
                .map(|(_, v)| v)
                .unwrap();
            if let Json::Arr(list) = entries {
                for (i, e) in list.iter_mut().enumerate() {
                    if let Json::Obj(entry) = e {
                        for (k, v) in entry.iter_mut() {
                            if k == "seconds" || k == "seconds_min" {
                                let old = v.as_f64().unwrap();
                                *v = Json::num(f(i, old));
                            }
                        }
                    }
                }
            }
        }
        scaled
    }

    #[test]
    fn compare_flags_injected_regression_and_only_it() {
        let base = tiny_grid();
        // Inject a 50%+ slowdown into exactly one entry.
        let slowed = rescale_entries(&base, &|i, s| if i == 5 { s * 1.5 + 1.0 } else { s });
        assert_eq!(compare(&base, &base, 10.0, 25.0).unwrap(), vec![]);
        let regs = compare(&base, &slowed, 25.0, 25.0).unwrap();
        assert_eq!(regs.len(), 1, "exactly the injected cell: {regs:?}");
        assert!(regs[0].slowdown_pct > 25.0);
        // The reverse direction (speedup) is not a regression.
        assert_eq!(compare(&slowed, &base, 25.0, 25.0).unwrap(), vec![]);
    }

    #[test]
    fn compare_calibrates_out_uniform_machine_drift() {
        let base = tiny_grid();
        // A uniformly 2x-slower host: every cell doubles. The gate must
        // stay quiet — and still catch a cell that regressed on top of
        // the drift.
        let drifted = rescale_entries(&base, &|_, s| s * 2.0);
        assert_eq!(compare(&base, &drifted, 10.0, 25.0).unwrap(), vec![]);
        // Drift plus one real (large, past the absolute noise floor)
        // regression: exactly that cell flags.
        let drifted_plus =
            rescale_entries(&base, &|i, s| if i == 3 { s * 6.0 + 1.0 } else { s * 2.0 });
        let regs = compare(&base, &drifted_plus, 25.0, 25.0).unwrap();
        assert_eq!(regs.len(), 1, "exactly the regressed cell: {regs:?}");
    }

    #[test]
    fn compare_exempts_shed_cells_from_the_time_gate() {
        // Five serve cells, one of them an overload (`…/shed`) cell.
        // Overload tails are load-dependent by design, so an arbitrary
        // slowdown there must stay quiet while the same slowdown on a
        // steady-state cell still flags.
        let entry = |profile: &str, shed: bool, secs: f64| {
            let admission = if shed { "shed" } else { "open" };
            format!(
                "{{\"family\": \"serve\", \"algorithm\": \"{profile}\", \
                 \"n\": 600, \"threads\": 1, \"mode\": \"open\", \
                 \"admission\": \"{admission}\", \
                 \"seconds\": {secs}, \"seconds_min\": {secs}}}"
            )
        };
        let doc = |shed_secs: f64, churn_secs: f64| {
            crate::json::parse(&format!(
                "{{\"schema_version\": 2, \"entries\": [{}, {}, {}, {}, {}]}}",
                entry("read-heavy", false, 0.010),
                entry("churn-heavy", false, churn_secs),
                entry("hot-component", false, 0.012),
                entry("plain", false, 0.014),
                entry("update-storm", true, shed_secs),
            ))
            .unwrap()
        };
        let base = doc(0.020, 0.011);
        // The shed cell 100x slower: exempt, quiet.
        assert_eq!(
            compare(&base, &doc(2.0, 0.011), 10.0, 25.0).unwrap(),
            vec![]
        );
        // A steady-state cell 100x slower: flagged as usual.
        let regs = compare(&base, &doc(0.020, 1.1), 10.0, 25.0).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].key.ends_with("/open"), "{}", regs[0].key);
    }

    /// Sets `peak_rss_bytes` on every entry to `f(index)` (None removes
    /// the field — a baseline predating the metric).
    fn with_rss(doc: &Json, f: &dyn Fn(usize) -> Option<f64>) -> Json {
        let mut out = doc.clone();
        if let Json::Obj(fields) = &mut out {
            let entries = fields
                .iter_mut()
                .find(|(k, _)| k == "entries")
                .map(|(_, v)| v)
                .unwrap();
            if let Json::Arr(list) = entries {
                for (i, e) in list.iter_mut().enumerate() {
                    if let Json::Obj(entry) = e {
                        entry.retain(|(k, _)| k != "peak_rss_bytes");
                        if let Some(v) = f(i) {
                            entry.push(("peak_rss_bytes".to_string(), Json::num(v)));
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn compare_gates_peak_rss_as_a_second_metric() {
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        let plain = tiny_grid();
        let base = with_rss(&plain, &|_| Some(GIB));
        // Identical RSS: quiet.
        assert_eq!(compare(&base, &base, 10.0, 25.0).unwrap(), vec![]);
        // One cell grows 2x (past both the ratio and the 16 MiB
        // floor): exactly it flags, on the space metric, with the raw
        // byte values.
        let bloated = with_rss(&plain, &|i| Some(if i == 4 { 2.0 * GIB } else { GIB }));
        let regs = compare(&base, &bloated, 10.0, 25.0).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "peak_rss_bytes");
        assert_eq!(regs[0].baseline, GIB);
        assert_eq!(regs[0].candidate, 2.0 * GIB);
        assert!((regs[0].slowdown_pct - 100.0).abs() < 1e-9);
        // Under the ratio threshold: quiet.
        let mild = with_rss(&plain, &|_| Some(1.2 * GIB));
        assert_eq!(compare(&base, &mild, 10.0, 25.0).unwrap(), vec![]);
        // Over the ratio but under the absolute floor (small process):
        // quiet.
        let tiny = with_rss(&plain, &|_| Some(8.0 * 1024.0 * 1024.0));
        let tiny_grown = with_rss(&plain, &|_| Some(14.0 * 1024.0 * 1024.0));
        assert_eq!(compare(&tiny, &tiny_grown, 10.0, 25.0).unwrap(), vec![]);
        // Missing on either side (old baseline, non-Linux candidate):
        // tolerated, not flagged.
        let absent = with_rss(&plain, &|_| None);
        assert_eq!(compare(&absent, &bloated, 10.0, 25.0).unwrap(), vec![]);
        assert_eq!(compare(&bloated, &absent, 10.0, 25.0).unwrap(), vec![]);
        // Shrinking is not a regression.
        assert_eq!(compare(&bloated, &base, 10.0, 25.0).unwrap(), vec![]);
        // Time regressions still gate independently of RSS parity.
        let slowed = rescale_entries(&base, &|i, s| if i == 5 { s * 1.5 + 1.0 } else { s });
        let regs = compare(&base, &slowed, 25.0, 25.0).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "seconds_min");
    }

    #[test]
    fn compare_rejects_malformed_and_mismatched_documents() {
        let good = tiny_grid();
        let junk = crate::json::parse("{\"entries\": [{}]}").unwrap();
        assert!(matches!(
            compare(&junk, &junk, 10.0, 25.0),
            Err(CompareError::SchemaMismatch) | Err(CompareError::MalformedDocument(_))
        ));
        let mut other = good.clone();
        if let Json::Obj(fields) = &mut other {
            for (k, v) in fields.iter_mut() {
                if k == "schema_version" {
                    *v = Json::num(99.0);
                }
            }
        }
        assert_eq!(
            compare(&good, &other, 10.0, 25.0),
            Err(CompareError::SchemaMismatch)
        );
        // A v1 document is still readable against a v2 one (matching
        // falls back to the shared keys).
        let mut v1 = good.clone();
        if let Json::Obj(fields) = &mut v1 {
            for (k, v) in fields.iter_mut() {
                if k == "schema_version" {
                    *v = Json::num(1.0);
                }
            }
        }
        assert_eq!(compare(&v1, &good, 10.0, 25.0), Ok(vec![]));
    }

    #[test]
    fn thread_sweep_always_has_one_and_two() {
        assert_eq!(thread_sweep(1), vec![1, 2]);
        assert_eq!(thread_sweep(2), vec![1, 2]);
        assert_eq!(thread_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_sweep(6), vec![1, 2, 4, 6]);
    }
}
