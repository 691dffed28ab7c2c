//! `bcc-bench paper <preset>`: the paper's figures, table and ablations
//! as named presets over the shared runner. Each preset writes a
//! schema-v2 document (`experiment: "bcc-paper"`) that `compare` reads
//! like any other.
//!
//! | preset | paper | instances (default n) | cells |
//! |---|---|---|---|
//! | `fig3` | Fig. 3 | random, m ∈ {4n, 6n, 10n, n·log₂n} (100k) | Sequential at p = 1; TV-SMP, TV-opt, TV-filter at every p |
//! | `fig4` | Fig. 4 | random, m ∈ {4n, 10n, n·log₂n} (100k) | TV-SMP, TV-opt, TV-filter at every p; `phases` is the figure |
//! | `paper-scale` | §5 sizes | random, m ∈ {4n, n·log₂n} (1M) | as `fig3` |
//! | `table-dense` | §1, Woo–Sahni | 70% / 90% of K_n at n/2 and n (2000) | Sequential at p = 1; TV-filter at the largest p |
//! | `ablation-filter` | §4 | random, m ∈ {1, 2, 4, 6, 10, 16, 24}·n; a path of max(n/10, 1000) (100k) | TV-opt, TV-filter at the largest p |
//! | `ablation-tour` | §3.2 | random tree (500k) | five tour + tree-computation constructions at the largest p |
//! | `ablation-spanning` | §3.2 | random, m ∈ {2n, 8n} (200k) | SV, AS, BFS and work-stealing spanning trees at the largest p |
//!
//! Pipeline cells run the default [`BccConfig`](bcc_core::BccConfig)
//! the way a one-shot caller does — the fast traversal tuning (recorded
//! in the entry) and a fresh scratch arena per run — and carry the
//! work counters (`effective_edges`, `aux_vertices`, `aux_edges`,
//! `sv_rounds_*`, `bfs_*`). The ablations are kernel cells timing one
//! construction per trial (after one untimed warm-up run), with the
//! variant in `algorithm`.

use crate::json::Json;
use crate::runner::{
    document, fill_speedups, run_cells, telemetry_pools, thread_sweep, Cell, Cells, Instance,
    KernelCell, PipelineCell,
};
use bcc_connectivity::as_sync::awerbuch_shiloach;
use bcc_connectivity::bfs::{bfs_tree_par, bfs_tree_seq};
use bcc_connectivity::sv::connected_components;
use bcc_connectivity::traversal::work_stealing_tree;
use bcc_core::{Algorithm, TraversalTuning};
use bcc_euler::{dfs_euler_tour, euler_tour_classic, rooted_euler_tour, tree_computations, Ranker};
use bcc_graph::{gen, Csr};
use bcc_smp::Pool;
use std::hint::black_box;

/// A named paper experiment; see the module table.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Preset {
    /// Fig. 3: time vs density vs p.
    Fig3,
    /// Fig. 4: the per-step breakdown.
    Fig4,
    /// The paper's own instance sizes.
    PaperScale,
    /// The Woo–Sahni dense instances.
    TableDense,
    /// §4: filtering vs density, and the chain that defeats it.
    AblationFilter,
    /// §3.2: Euler-tour constructions.
    AblationTour,
    /// §3.2: spanning-tree algorithms.
    AblationSpanning,
}

impl Preset {
    /// Every preset, in the order EXPERIMENTS.md presents them.
    pub const ALL: [Preset; 7] = [
        Preset::PaperScale,
        Preset::Fig3,
        Preset::Fig4,
        Preset::TableDense,
        Preset::AblationFilter,
        Preset::AblationTour,
        Preset::AblationSpanning,
    ];

    /// Name on the CLI and in the document.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Fig3 => "fig3",
            Preset::Fig4 => "fig4",
            Preset::PaperScale => "paper-scale",
            Preset::TableDense => "table-dense",
            Preset::AblationFilter => "ablation-filter",
            Preset::AblationTour => "ablation-tour",
            Preset::AblationSpanning => "ablation-spanning",
        }
    }

    /// The vertex count the preset runs at unless `--n` overrides it.
    pub fn default_n(self) -> u32 {
        match self {
            Preset::PaperScale => 1_000_000,
            Preset::TableDense => 2_000,
            Preset::AblationTour => 500_000,
            Preset::AblationSpanning => 200_000,
            Preset::Fig3 | Preset::Fig4 | Preset::AblationFilter => 100_000,
        }
    }

    /// The named instances at `n`.
    fn instances(self, n: u32, seed: u64) -> Vec<Instance> {
        let random = |k: u32| {
            let m = (k as usize * n as usize)
                .max(n as usize - 1)
                .min(gen::max_edges(n));
            Instance::new(format!("random-{k}n"), gen::random_connected(n, m, seed))
        };
        let log_n = 32 - n.leading_zeros();
        let chain = |len: u32| Instance::new("chain", gen::path(len));
        match self {
            Preset::Fig3 => [4, 6, 10, log_n].map(random).into(),
            Preset::Fig4 => [4, 10, log_n].map(random).into(),
            Preset::PaperScale => [4, log_n].map(random).into(),
            Preset::TableDense => [n / 2, n]
                .into_iter()
                .flat_map(|n| [70, 90].map(|pct| (n, pct)))
                .map(|(n, pct)| {
                    let g = gen::dense_percent(n, f64::from(pct) / 100.0, seed);
                    Instance::new(format!("dense-{pct}"), g)
                })
                .collect(),
            Preset::AblationFilter => {
                let mut v: Vec<_> = [1, 2, 4, 6, 10, 16, 24].map(random).into();
                v.push(chain((n / 10).max(1_000)));
                v
            }
            Preset::AblationTour => vec![Instance::new("random-tree", gen::random_tree(n, seed))],
            Preset::AblationSpanning => [2, 8].map(random).into(),
        }
    }

    /// The pipeline presets' algorithms, and whether the parallel ones
    /// sweep every thread count (else they run at the largest only).
    /// Sequential always runs once, at p = 1.
    fn pipelines(self) -> (&'static [Algorithm], bool) {
        use Algorithm::*;
        match self {
            Preset::Fig3 | Preset::PaperScale => (&[Sequential, TvSmp, TvOpt, TvFilter], true),
            Preset::Fig4 => (&[TvSmp, TvOpt, TvFilter], true),
            Preset::TableDense => (&[Sequential, TvFilter], false),
            Preset::AblationFilter => (&[TvOpt, TvFilter], false),
            _ => (&[], false),
        }
    }
}

impl std::str::FromStr for Preset {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        Preset::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Preset::ALL.iter().map(|p| p.name()).collect();
                format!("unknown preset {s:?} ({})", names.join("|"))
            })
    }
}

/// Preset parameters (what `bcc-bench paper` parses into).
#[derive(Clone, Debug)]
pub struct PaperConfig {
    /// Vertex count; `None` runs the preset's [`Preset::default_n`].
    pub n: Option<u32>,
    /// Thread counts (ascending; the last is "the largest p").
    pub threads: Vec<usize>,
    /// Timed repetitions per cell (medians reported, min gated).
    pub trials: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for PaperConfig {
    fn default() -> Self {
        PaperConfig {
            n: None,
            threads: thread_sweep(Pool::default_threads()),
            trials: 3,
            seed: 42,
        }
    }
}

/// A kernel cell timing one construction per trial, after one untimed
/// warm-up run.
fn kernel<'a>(fields: Vec<(&'static str, Json)>, run: impl FnMut() + 'a) -> Box<dyn Cell + 'a> {
    Box::new(KernelCell::new(fields, 1, run))
}

/// Runs `preset` and returns its BENCH document. `progress` receives
/// one line per trial round and per finished cell.
pub fn run_paper(preset: Preset, cfg: &PaperConfig, mut progress: impl FnMut(&str)) -> Json {
    assert!(cfg.threads.contains(&1), "thread sweep must include 1");
    let n = cfg.n.unwrap_or(preset.default_n());
    let instances = preset.instances(n, cfg.seed);
    let pools = telemetry_pools(&cfg.threads);
    let top = pools.last().expect("at least one thread count");
    // Per-instance inputs the ablation closures borrow.
    let bfs_parents: Vec<Vec<u32>> = match preset {
        Preset::AblationTour => instances
            .iter()
            .map(|inst| bfs_tree_seq(&Csr::build(&inst.graph), 0).parent)
            .collect(),
        _ => vec![],
    };

    let mut cells: Cells = vec![];
    for (i, inst) in instances.iter().enumerate() {
        let g = &inst.graph;
        let fields = |algorithm: &str| {
            vec![
                ("family", Json::str(inst.name.as_str())),
                ("algorithm", Json::str(algorithm)),
                ("n", Json::num(g.n())),
                ("m", Json::num(g.m() as f64)),
                ("threads", Json::num(top.threads() as f64)),
            ]
        };
        let edges = || g.edges().to_vec();
        match preset {
            Preset::AblationTour => {
                let parent = &bfs_parents[i];
                for (name, ranker) in [
                    ("classic+seq-rank", Ranker::Sequential),
                    ("classic+wyllie", Ranker::Wyllie),
                    ("classic+helman-jaja", Ranker::HelmanJaja),
                ] {
                    cells.push(kernel(fields(name), move || {
                        let t = euler_tour_classic(top, g.n(), edges(), 0, ranker);
                        black_box(tree_computations(top, &t, 0).preorder[1]);
                    }));
                }
                cells.push(kernel(fields("rooted+helman-jaja"), move || {
                    let t = rooted_euler_tour(top, g.n(), edges(), parent, 0, Ranker::HelmanJaja);
                    black_box(tree_computations(top, &t, 0).preorder[1]);
                }));
                cells.push(kernel(fields("dfs-order+prefix-sums"), move || {
                    let t = dfs_euler_tour(top, g.n(), edges(), parent, 0);
                    black_box(tree_computations(top, &t, 0).preorder[1]);
                }));
            }
            Preset::AblationSpanning => {
                // The edge-list algorithms are unrooted; the traversals
                // need adjacency, so they pay the CSR build, and come
                // out rooted.
                let (n, edges) = (g.n(), g.edges());
                cells.push(kernel(fields("shiloach-vishkin"), move || {
                    black_box(connected_components(top, n, edges).num_components);
                }));
                cells.push(kernel(fields("awerbuch-shiloach"), move || {
                    black_box(awerbuch_shiloach(top, n, edges).num_components);
                }));
                cells.push(kernel(fields("bfs"), move || {
                    black_box(bfs_tree_par(top, &Csr::build(g), 0).reached);
                }));
                cells.push(kernel(fields("work-stealing"), move || {
                    black_box(work_stealing_tree(top, &Csr::build(g), 0).reached);
                }));
            }
            _ => {
                let (algs, sweep) = preset.pipelines();
                for pool in &pools {
                    for &alg in algs {
                        let seq = alg == Algorithm::Sequential;
                        let p = pool.threads();
                        if (seq && p != 1) || (!seq && !sweep && p != top.threads()) {
                            continue;
                        }
                        let tuning = (!seq).then(TraversalTuning::fast);
                        cells.push(Box::new(PipelineCell::new(inst, pool, alg, tuning, None)));
                    }
                }
            }
        }
    }
    let mut entries = run_cells(preset.name(), &mut cells, cfg.trials, &mut progress);
    fill_speedups(&mut entries);
    document(
        "bcc-paper",
        &cfg.threads,
        cfg.trials,
        vec![
            ("preset", Json::str(preset.name())),
            ("n", Json::num(n)),
            ("seed", Json::num(cfg.seed as f64)),
        ],
        instances.iter().map(Instance::summary).collect(),
        entries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{compare, entry_key};

    /// Runs `preset` at a tiny `n` over p ∈ {1, 2}: one entry per
    /// (instance, variant, p) row — `cells` in all — with unique keys,
    /// and the document self-compares clean.
    fn check(preset: Preset, n: u32, cells: usize) -> Json {
        let cfg = PaperConfig {
            n: Some(n),
            threads: vec![1, 2],
            trials: 1,
            seed: 7,
        };
        let doc = crate::json::parse(&run_paper(preset, &cfg, |_| {}).pretty()).unwrap();
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        assert_eq!(entries.len(), cells);
        let keys: std::collections::BTreeSet<String> =
            entries.iter().map(|e| entry_key(e).unwrap()).collect();
        assert_eq!(keys.len(), entries.len());
        assert_eq!(compare(&doc, &doc, 10.0, 25.0).unwrap(), vec![]);
        doc
    }

    #[test]
    fn fig3() {
        // 4 densities × (Sequential + 3 parallel × 2 thread counts).
        let doc = check(Preset::Fig3, 64, 4 * (1 + 3 * 2));
        for e in doc.get("entries").and_then(Json::as_arr).unwrap() {
            let speedup = e.get("speedup_vs_sequential").and_then(Json::as_f64);
            assert!(speedup.unwrap() > 0.0);
        }
    }

    #[test]
    fn fig4() {
        let doc = check(Preset::Fig4, 64, 3 * 3 * 2);
        for e in doc.get("entries").and_then(Json::as_arr).unwrap() {
            assert!(!e.get("phases").and_then(Json::as_arr).unwrap().is_empty());
            assert!(e.get("aux_edges").and_then(Json::as_u64).is_some());
        }
    }

    #[test]
    fn paper_scale() {
        check(Preset::PaperScale, 64, 2 * (1 + 3 * 2));
    }

    #[test]
    fn table_dense() {
        // {n/2, n} × {70%, 90%} × (Sequential + TV-filter at p = 2).
        check(Preset::TableDense, 40, 4 * 2);
    }

    #[test]
    fn ablation_filter() {
        // 7 densities + the chain, × (TV-opt + TV-filter at p = 2).
        check(Preset::AblationFilter, 64, 8 * 2);
    }

    #[test]
    fn ablation_tour() {
        check(Preset::AblationTour, 64, 5);
    }

    #[test]
    fn ablation_spanning() {
        check(Preset::AblationSpanning, 64, 2 * 4);
    }
}
