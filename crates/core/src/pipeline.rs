//! The four biconnected-components algorithms of the paper's study —
//! `Sequential`, `TV-SMP`, `TV-opt`, and `TV-filter` — plus the
//! skeleton-based `FAST-BCC` successor ([`crate::fast_bcc`]).
//!
//! All parallel pipelines share steps 4–6 (Low-high, Label-edge,
//! Connected-components — `tv_tail`); they differ in how the rooted
//! spanning tree and its tags are produced. TV-filter and FAST-BCC
//! shrink the edge set to a sparse certificate first and share one
//! pipeline ([`crate::fast_bcc`]) that differs only in the tags step.
//!
//! **Disconnected inputs in one pass.** The paper's pipelines assume a
//! connected graph. Each one here joins its spanning step's forest into
//! one tree instead, rooted at vertex 0: every other component's root —
//! its smallest vertex r — hangs off vertex 0 by a virtual edge
//! `(r, 0)`, and the tags, low/high and Alg. 1 run on that tree
//! unchanged. A virtual edge is the only edge between r's component and
//! the rest, so it is a bridge, hence a block of its own, and no
//! condition of Alg. 1 links across it: the subtree below r is the
//! whole component, so no nontree edge escapes it (condition 3 never
//! joins a child of r to r's own tree edge), r is an ancestor of its
//! whole component (condition 2 never names r), and r has the smallest
//! preorder there (condition 1 never picks r, but for a self-loop on
//! r). The virtual edges live only in the tree arrays — the tree-edge
//! list and the roots' parent slots — never in the edge list or the
//! CSR, so the label write-back covers the m real edges, and every
//! per-vertex array keeps n slots. The roots come from the spanning
//! step itself: SV's component-minimum labels for TV-SMP, a forest
//! traversal that restarts at the smallest unreached vertex for the
//! others. [`BccConfig::run`] and [`BccConfig::run_any`] run the same
//! pipeline; `run` fails when the forest has more than one component.
//!
//! The entry point is [`BccConfig`]: select an algorithm, optionally a
//! telemetry sink and a workspace, then [`run`](BccConfig::run) it on a
//! pool. Each run yields a [`BccRun`] — the component labels plus a
//! structured [`PhaseReport`] (per-step durations, barrier-wait and
//! load-imbalance when the pool carries telemetry) that regenerates the
//! paper's Fig. 4 breakdown.
//!
//! ```
//! use bcc_core::{Algorithm, BccConfig};
//! use bcc_graph::gen;
//! use bcc_smp::Pool;
//!
//! let pool = Pool::new(2);
//! let g = gen::two_cliques_sharing_vertex(4);
//! let run = BccConfig::new(Algorithm::TvFilter).run(&pool, &g).unwrap();
//! assert_eq!(run.result.num_components, 2);
//! assert!(run.report.step_sum() <= run.report.total);
//! ```

use crate::aux_graph::build_aux_graph_fused_ws;
use crate::low_high::compute_low_high_ws;
use crate::phase::{PhaseRecorder, PhaseReport, PipelineStats, Step};
use crate::tarjan::tarjan_bcc;
use crate::verify::canonicalize_edge_labels;
use bcc_connectivity::sv::connected_components_with_ws;
use bcc_connectivity::traversal::work_stealing_forest;
use bcc_euler::{dfs_euler_tour_ws, euler_tour_classic_ws, tree_computations_ws, Ranker, TreeInfo};
use bcc_graph::{Csr, Edge, Graph};
use bcc_smp::telemetry::Telemetry;
use bcc_smp::{BccWorkspace, Pool, SharedSlice, NIL};
use std::sync::Arc;
use std::time::Instant;

/// Algorithm selector for [`BccConfig`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Tarjan's linear-time DFS (the paper's sequential baseline).
    Sequential,
    /// Direct SMP emulation of Tarjan–Vishkin (paper §3.1).
    TvSmp,
    /// Algorithm-engineered TV (paper §3.2).
    TvOpt,
    /// TV with non-essential-edge filtering (paper §4, Alg. 2).
    TvFilter,
    /// Skeleton-based sparse-certificate biconnectivity (Dong, Wang,
    /// Gu & Sun, SPAA 2023): tree tags computed directly on the BFS
    /// tree — no Euler tour, no list ranking — for an O(n) auxiliary
    /// footprint.
    FastBcc,
}

impl Algorithm {
    /// All algorithms, in presentation order (the paper's four, then
    /// the FAST-BCC successor).
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Sequential,
        Algorithm::TvSmp,
        Algorithm::TvOpt,
        Algorithm::TvFilter,
        Algorithm::FastBcc,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Sequential => "Sequential",
            Algorithm::TvSmp => "TV-SMP",
            Algorithm::TvOpt => "TV-opt",
            Algorithm::TvFilter => "TV-filter",
            Algorithm::FastBcc => "FAST-BCC",
        }
    }
}

/// Why a computation could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BccError {
    /// The parallel TV pipelines require a connected input graph; use
    /// [`BccConfig::run_any`] for general graphs.
    Disconnected,
    /// An edge update named vertex id `u32::MAX`, the reserved `NIL`
    /// sentinel: no `u32` vertex count can include it.
    ReservedVertex(u32),
}

impl std::fmt::Display for BccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BccError::Disconnected => {
                write!(f, "input graph is not connected (TV requires connectivity)")
            }
            BccError::ReservedVertex(v) => {
                write!(f, "vertex id {v} is reserved (ids must be below u32::MAX)")
            }
        }
    }
}

impl std::error::Error for BccError {}

/// Per-edge biconnected components of a connected graph.
#[derive(Clone, Debug)]
pub struct BccResult {
    /// Canonical component label per edge (`0..num_components`, numbered
    /// by first appearance in the edge list) — identical across
    /// algorithms and thread counts.
    pub edge_comp: Vec<u32>,
    /// Number of biconnected components.
    pub num_components: u32,
    /// Machine-independent work counters.
    pub stats: PipelineStats,
}

impl BccResult {
    /// Articulation (cut) vertices, ascending.
    pub fn articulation_points(&self, g: &Graph) -> Vec<u32> {
        crate::verify::articulation_points(g, &self.edge_comp)
    }

    /// Bridge edges (edge indices), ascending.
    pub fn bridges(&self, g: &Graph) -> Vec<u32> {
        crate::verify::bridges(g, &self.edge_comp)
    }
}

/// Configured biconnected-components computation: the algorithm, an
/// optional telemetry sink and an optional scratch workspace. Every
/// parallel pipeline runs one traversal configuration: FastSV for its
/// Shiloach–Vishkin steps and the direction-optimizing BFS for its BFS
/// trees.
///
/// ```
/// use bcc_core::{Algorithm, BccConfig};
/// use bcc_graph::gen;
/// use bcc_smp::Pool;
///
/// let pool = Pool::new(2);
/// let g = gen::torus(4, 4);
/// let run = BccConfig::new(Algorithm::TvSmp).run(&pool, &g).unwrap();
/// assert_eq!(run.result.num_components, 1);
/// assert_eq!(run.report.algorithm, "TV-SMP");
/// ```
#[derive(Clone, Debug)]
pub struct BccConfig {
    alg: Algorithm,
    telemetry: Option<Arc<Telemetry>>,
    workspace: Option<Arc<BccWorkspace>>,
}

impl BccConfig {
    /// A configuration running `alg` with telemetry taken from the pool
    /// if it has any, and a private workspace per run.
    pub fn new(alg: Algorithm) -> Self {
        BccConfig {
            alg,
            telemetry: None,
            workspace: None,
        }
    }

    /// Reads telemetry deltas from `sink` instead of the pool's own
    /// sink. Pass the sink the pool was built with
    /// ([`Pool::builder`]) — a sink the pool does not record into
    /// yields all-zero synchronization stats.
    pub fn telemetry(mut self, sink: Arc<Telemetry>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Draws every scratch buffer of the run from `ws` and returns the
    /// buffers there afterwards. Sharing one workspace across runs puts
    /// the pipeline in its zero-allocation steady state: a second run of
    /// the same (or a smaller) graph serves all scratch from the arena
    /// shelf instead of the system allocator. Arena movement lands in
    /// [`PhaseReport::alloc_bytes`] / [`PhaseReport::arena_hit_rate`].
    /// Without this, each run uses a private transient workspace (same
    /// results, no cross-run reuse).
    pub fn workspace(mut self, ws: Arc<BccWorkspace>) -> Self {
        self.workspace = Some(ws);
        self
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.alg
    }

    /// Runs on a **connected** graph (the paper's setting). Fails with
    /// [`BccError::Disconnected`] when the spanning step finds more than
    /// one component; use [`run_any`](BccConfig::run_any) for general
    /// graphs.
    pub fn run(&self, pool: &Pool, g: &Graph) -> Result<BccRun, BccError> {
        self.execute(pool, g, true)
    }

    /// Runs on an arbitrary (possibly disconnected) graph in one pass:
    /// the configured algorithm labels every component at once, its
    /// spanning forest rooted at a virtual root (see the module docs),
    /// with labels canonical over the whole edge list.
    pub fn run_any(&self, pool: &Pool, g: &Graph) -> Result<BccRun, BccError> {
        self.execute(pool, g, false)
    }

    fn execute(&self, pool: &Pool, g: &Graph, connected: bool) -> Result<BccRun, BccError> {
        let start = Instant::now();
        let ws = self.resolve_workspace();
        let mut rec = PhaseRecorder::new(self.sink(pool), &ws);
        let result = run_pipeline(pool, g, self.alg, connected, &ws, &mut rec)?;
        Ok(self.package(pool, g, rec, result, start))
    }

    fn resolve_workspace(&self) -> Arc<BccWorkspace> {
        self.workspace
            .clone()
            .unwrap_or_else(|| Arc::new(BccWorkspace::new()))
    }

    fn sink<'a>(&'a self, pool: &'a Pool) -> Option<&'a Telemetry> {
        self.telemetry
            .as_deref()
            .or_else(|| pool.telemetry().map(Arc::as_ref))
    }

    fn package(
        &self,
        pool: &Pool,
        g: &Graph,
        rec: PhaseRecorder,
        result: BccResult,
        start: Instant,
    ) -> BccRun {
        let report = rec.finish(
            self.alg.name(),
            pool.threads(),
            g.n(),
            g.m(),
            result.stats.clone(),
            start.elapsed(),
        );
        BccRun { result, report }
    }
}

/// Output of one [`BccConfig`] run: the labels and the breakdown.
#[derive(Clone, Debug)]
pub struct BccRun {
    /// Component labels and flat counters (the classic result type).
    pub result: BccResult,
    /// Structured per-step breakdown with synchronization stats.
    pub report: PhaseReport,
}

/// Dispatches one pipeline run into `rec`. With `connected`, a
/// parallel pipeline fails with [`BccError::Disconnected`] once its
/// spanning step finds more than one component.
fn run_pipeline(
    pool: &Pool,
    g: &Graph,
    alg: Algorithm,
    connected: bool,
    ws: &BccWorkspace,
    rec: &mut PhaseRecorder,
) -> Result<BccResult, BccError> {
    match alg {
        Algorithm::Sequential => Ok(sequential_impl(g)),
        Algorithm::TvSmp => tv_smp_impl(pool, g, connected, ws, rec),
        Algorithm::TvOpt => tv_opt_impl(pool, g, connected, ws, rec),
        Algorithm::TvFilter | Algorithm::FastBcc => {
            crate::fast_bcc::certificate_impl(pool, g, alg, connected, ws, rec)
        }
    }
}

/// Components of a forest traversal's spanning forest: its roots, the
/// vertices without a parent edge.
pub(crate) fn forest_roots(parent_eid: &[u32]) -> usize {
    parent_eid.iter().filter(|&&eid| eid == NIL).count()
}

pub(crate) fn sequential_impl(g: &Graph) -> BccResult {
    let mut comp = tarjan_bcc(g);
    let num_components = canonicalize_edge_labels(&mut comp);
    let stats = PipelineStats {
        input_edges: g.m(),
        effective_edges: g.m(),
        ..PipelineStats::default()
    };
    BccResult {
        edge_comp: comp,
        num_components,
        stats,
    }
}

fn tv_smp_impl(
    pool: &Pool,
    g: &Graph,
    connected: bool,
    ws: &BccWorkspace,
    rec: &mut PhaseRecorder,
) -> Result<BccResult, BccError> {
    let n = g.n();
    if let Some(r) = trivial_result(g) {
        return Ok(r);
    }

    // Step 1: Spanning-tree (Shiloach–Vishkin on the edge list): a
    // spanning forest, labelled by component minima.
    let sv = rec.step(Step::SpanningTree, || {
        connected_components_with_ws(pool, n, g.edges(), ws)
    });
    if connected && sv.num_components != 1 {
        sv.recycle(ws);
        return Err(BccError::Disconnected);
    }
    let mut is_tree = ws.take_filled(g.m(), false);
    for &i in &sv.tree_edges {
        is_tree[i as usize] = true;
    }
    // The forest plus a virtual edge (r, 0) per other root r
    // (`label[r] == r`) is a spanning tree of n − 1 edges.
    let root = 0u32;
    let mut tree_edges: Vec<Edge> = ws.take(n as usize);
    tree_edges.extend(sv.tree_edges.iter().map(|&i| g.edges()[i as usize]));
    tree_edges.extend(
        (1..n)
            .filter(|&v| sv.label[v as usize] == v)
            .map(|r| Edge::new(r, root)),
    );
    sv.recycle(ws);

    // Step 2: Euler-tour (circular adjacency by sorting + cross
    // pointers + Helman–JáJá list ranking).
    let tour = rec.step(Step::EulerTour, || {
        euler_tour_classic_ws(pool, n, tree_edges, root, Ranker::HelmanJaja, ws)
    });

    // Step 3: Root-tree / tree computations.
    let info = rec.step(Step::RootTree, || {
        tree_computations_ws(pool, &tour, root, ws)
    });

    // Steps 4–6.
    let tail = tv_tail(pool, n, g.edges(), &is_tree, &info, ws, rec);
    tour.recycle(ws);
    info.recycle(ws);
    ws.give(is_tree);
    ws.give(tail.aux_vertex_labels);
    let stats = PipelineStats {
        input_edges: g.m(),
        effective_edges: g.m(),
        aux_vertices: tail.aux_vertices,
        aux_edges: tail.aux_edges,
        ..PipelineStats::default()
    };
    Ok(finalize(tail.edge_labels, stats))
}

fn tv_opt_impl(
    pool: &Pool,
    g: &Graph,
    connected: bool,
    ws: &BccWorkspace,
    rec: &mut PhaseRecorder,
) -> Result<BccResult, BccError> {
    let n = g.n();
    if let Some(r) = trivial_result(g) {
        return Ok(r);
    }

    // Step 1 (merged with rooting): adjacency conversion + traversal,
    // rooted at vertex 0. CSR and the work-stealing traversal manage
    // their own storage (per-thread deques, atomics) and are not
    // arena-threaded.
    let root = 0u32;
    let st = rec.step(Step::SpanningTree, || {
        let csr = Csr::build(g);
        work_stealing_forest(pool, &csr)
    });
    if connected && forest_roots(&st.parent_eid) != 1 {
        return Err(BccError::Disconnected);
    }
    let mut is_tree = ws.take_filled(g.m(), false);
    let mut tree_edges: Vec<Edge> = ws.take(n as usize);
    for v in 1..n {
        let eid = st.parent_eid[v as usize];
        if eid == NIL {
            tree_edges.push(Edge::new(v, root));
        } else {
            is_tree[eid as usize] = true;
            tree_edges.push(g.edges()[eid as usize]);
        }
    }

    // Step 2: cache-friendly DFS-order Euler tour.
    let tour = rec.step(Step::EulerTour, || {
        dfs_euler_tour_ws(pool, n, tree_edges, &st.parent, root, ws)
    });

    // Step 3: tree computations by prefix sums over the tour.
    let info = rec.step(Step::RootTree, || {
        tree_computations_ws(pool, &tour, root, ws)
    });

    let tail = tv_tail(pool, n, g.edges(), &is_tree, &info, ws, rec);
    tour.recycle(ws);
    info.recycle(ws);
    ws.give(is_tree);
    ws.give(tail.aux_vertex_labels);
    let stats = PipelineStats {
        input_edges: g.m(),
        effective_edges: g.m(),
        aux_vertices: tail.aux_vertices,
        aux_edges: tail.aux_edges,
        ..PipelineStats::default()
    };
    Ok(finalize(tail.edge_labels, stats))
}

/// Output of the shared tail: raw (non-canonical) labels.
pub(crate) struct TailOutput {
    /// Label per input edge.
    pub(crate) edge_labels: Vec<u32>,
    /// Label per auxiliary vertex; `aux_vertex_labels[v]` for `v < n` is
    /// the component of tree edge `(v, p(v))` (the certificate pipeline
    /// places every input edge through it).
    pub(crate) aux_vertex_labels: Vec<u32>,
    /// Auxiliary-graph vertex count (n + nontree edges considered).
    pub(crate) aux_vertices: u32,
    /// Auxiliary-graph edge count (|R'_c|).
    pub(crate) aux_edges: usize,
}

/// Steps 4–6: Low-high (the O(n)-space level sweep,
/// [`compute_low_high_ws`]), Label-edge (fused count→scan→emit
/// realization of Alg. 1), Connected-components.
///
/// All scratch is drawn from `ws`; only `edge_labels` (which becomes
/// the result for TV-SMP/TV-opt) and `aux_vertex_labels` (returned for
/// the certificate pipeline's placement pass) survive — callers give
/// them back once done.
pub(crate) fn tv_tail(
    pool: &Pool,
    n: u32,
    edges: &[Edge],
    is_tree_edge: &[bool],
    info: &TreeInfo,
    ws: &BccWorkspace,
    rec: &mut PhaseRecorder,
) -> TailOutput {
    let m = edges.len();

    // Step 4: Low-high.
    let lh = rec.step(Step::LowHigh, || {
        compute_low_high_ws(pool, edges, is_tree_edge, info, ws)
    });

    // Step 5: Label-edge.
    let aux = rec.step(Step::LabelEdge, || {
        build_aux_graph_fused_ws(pool, n, edges, is_tree_edge, info, &lh, ws)
    });
    lh.recycle(ws);

    // Step 6: Connected-components of the auxiliary graph, written back
    // to the input edges.
    let aux_vertices = aux.num_vertices;
    let aux_edges = aux.edges.len();
    let out = rec.step(Step::ConnectedComponents, || {
        let cc = connected_components_with_ws(pool, aux.num_vertices, &aux.edges, ws);
        let mut edge_labels = vec![0u32; m];
        {
            let out = SharedSlice::new(&mut edge_labels);
            let labels: &[u32] = &cc.label;
            let ni: &[u32] = &aux.nontree_index;
            pool.run(|ctx| {
                for i in ctx.block_range(m) {
                    let e = edges[i];
                    let label = if is_tree_edge[i] {
                        // Aux vertex of a tree edge is its child endpoint.
                        let c = if info.parent[e.v as usize] == e.u {
                            e.v
                        } else {
                            e.u
                        };
                        labels[c as usize]
                    } else {
                        labels[(n + ni[i]) as usize]
                    };
                    unsafe { out.write(i, label) };
                }
            });
        }
        ws.give(cc.tree_edges);
        TailOutput {
            edge_labels,
            aux_vertex_labels: cc.label,
            aux_vertices,
            aux_edges,
        }
    });
    aux.recycle(ws);
    out
}

/// Canonicalizes labels into the result.
pub(crate) fn finalize(mut comp: Vec<u32>, stats: PipelineStats) -> BccResult {
    let num_components = canonicalize_edge_labels(&mut comp);
    BccResult {
        edge_comp: comp,
        num_components,
        stats,
    }
}

/// Graphs with no edges need no pipeline.
pub(crate) fn trivial_result(g: &Graph) -> Option<BccResult> {
    (g.m() == 0).then(|| BccResult {
        edge_comp: vec![],
        num_components: 0,
        stats: PipelineStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::gen;
    use bcc_graph::GraphBuilder;

    fn all_agree(g: &Graph, p: usize) {
        let pool = Pool::new(p);
        let base = sequential_impl(g);
        for alg in [
            Algorithm::TvSmp,
            Algorithm::TvOpt,
            Algorithm::TvFilter,
            Algorithm::FastBcc,
        ] {
            let r = BccConfig::new(alg)
                .run(&pool, g)
                .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()))
                .result;
            assert_eq!(
                r.num_components,
                base.num_components,
                "{} count (p={p})",
                alg.name()
            );
            assert_eq!(r.edge_comp, base.edge_comp, "{} labels (p={p})", alg.name());
        }
    }

    #[test]
    fn structured_families() {
        for p in [1, 2, 4] {
            all_agree(&gen::cycle(10), p);
            all_agree(&gen::path(10), p);
            all_agree(&gen::star(10), p);
            all_agree(&gen::complete(7), p);
            all_agree(&gen::torus(3, 5), p);
            all_agree(&gen::two_cliques_sharing_vertex(4), p);
            all_agree(&gen::cycle_chain(4, 5, 0), p);
            all_agree(&gen::random_tree(60, p as u64), p);
        }
    }

    #[test]
    fn random_sparse_graphs() {
        for seed in 0..8u64 {
            let g = gen::random_connected(200, 420, seed);
            all_agree(&g, 1);
            all_agree(&g, 4);
        }
    }

    #[test]
    fn random_denser_graphs() {
        for seed in 0..4u64 {
            let g = gen::random_connected(120, 1500, seed);
            all_agree(&g, 3);
        }
    }

    #[test]
    fn dense_instances() {
        let g = gen::dense_percent(60, 0.7, 1);
        // dense_percent may be disconnected in principle; this instance
        // is far above the connectivity threshold.
        assert!(bcc_graph::validate::is_connected(&g));
        all_agree(&g, 2);
    }

    #[test]
    fn two_vertices_one_edge() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build().unwrap();
        all_agree(&g, 2);
        let pool = Pool::new(2);
        let r = BccConfig::new(Algorithm::TvFilter)
            .run(&pool, &g)
            .unwrap()
            .result;
        assert_eq!(r.num_components, 1);
    }

    #[test]
    fn no_edges_trivial() {
        let pool = Pool::new(2);
        let g = GraphBuilder::new(1).build().unwrap();
        for alg in Algorithm::ALL {
            let r = BccConfig::new(alg).run(&pool, &g).unwrap().result;
            assert_eq!(r.num_components, 0);
            assert!(r.edge_comp.is_empty());
        }
    }

    #[test]
    fn disconnected_rejected_by_parallel_algorithms() {
        let pool = Pool::new(2);
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (2, 3)])
            .build()
            .unwrap();
        for alg in [
            Algorithm::TvSmp,
            Algorithm::TvOpt,
            Algorithm::TvFilter,
            Algorithm::FastBcc,
        ] {
            assert_eq!(
                BccConfig::new(alg).run(&pool, &g).unwrap_err(),
                BccError::Disconnected,
                "{}",
                alg.name()
            );
        }
        // Sequential handles it.
        let r = BccConfig::new(Algorithm::Sequential)
            .run(&pool, &g)
            .unwrap()
            .result;
        assert_eq!(r.num_components, 2);
    }

    #[test]
    fn derived_outputs() {
        let g = gen::cycle_chain(3, 4, 0); // 3 cycles + 2 bridges
        let pool = Pool::new(2);
        let r = BccConfig::new(Algorithm::TvFilter)
            .run(&pool, &g)
            .unwrap()
            .result;
        assert_eq!(r.num_components, 5);
        assert_eq!(r.bridges(&g).len(), 2);
        // Cut vertices: both endpoints of each bridge.
        assert_eq!(r.articulation_points(&g).len(), 4);
    }

    #[test]
    fn stats_capture_the_filter_invariant() {
        let n = 500u32;
        let g = gen::random_connected(n, 5_000, 4);
        let pool = Pool::new(2);
        let f = BccConfig::new(Algorithm::TvFilter)
            .run(&pool, &g)
            .unwrap()
            .result;
        assert_eq!(f.stats.input_edges, 5_000);
        assert!(f.stats.effective_edges <= 2 * (n as usize - 1));
        assert_eq!(
            f.stats.filtered_edges,
            f.stats.input_edges - f.stats.effective_edges
        );
        assert!(f.stats.filtered_edges >= 5_000 - 2 * (n as usize - 1));
        assert!(f.stats.bfs_levels >= 2);
        // Aux graph of the reduced set is tiny relative to TV-opt's.
        let o = BccConfig::new(Algorithm::TvOpt)
            .run(&pool, &g)
            .unwrap()
            .result;
        assert_eq!(o.stats.effective_edges, 5_000);
        assert!(f.stats.aux_vertices < o.stats.aux_vertices);
        assert!(f.stats.aux_edges < o.stats.aux_edges);
    }

    #[test]
    fn phases_are_populated() {
        let g = gen::random_connected(300, 900, 2);
        let pool = Pool::new(2);
        let r = BccConfig::new(Algorithm::TvFilter)
            .run(&pool, &g)
            .unwrap()
            .report;
        assert!(r.total >= r.step_sum() / 2);
        assert!(r.step(Step::Filtering).unwrap().duration.as_nanos() > 0);
        let r = BccConfig::new(Algorithm::TvOpt)
            .run(&pool, &g)
            .unwrap()
            .report;
        assert!(r.step(Step::Filtering).is_none());
    }

    #[test]
    fn report_step_sum_is_bounded_by_total() {
        let g = gen::random_connected(400, 1_200, 7);
        for p in [1, 2] {
            let pool = Pool::new(p);
            for alg in Algorithm::ALL {
                let run = BccConfig::new(alg).run(&pool, &g).unwrap();
                assert!(
                    run.report.step_sum() <= run.report.total,
                    "{} p={p}: step_sum {:?} > total {:?}",
                    alg.name(),
                    run.report.step_sum(),
                    run.report.total
                );
            }
        }
    }

    #[test]
    fn report_carries_sizes_and_steps() {
        let g = gen::random_connected(300, 2_000, 5);
        let pool = Pool::new(2);
        let run = BccConfig::new(Algorithm::TvFilter).run(&pool, &g).unwrap();
        let rep = &run.report;
        assert_eq!(rep.algorithm, "TV-filter");
        assert_eq!(rep.threads, 2);
        assert_eq!(rep.n, 300);
        assert_eq!(rep.m, 2_000);
        assert_eq!(rep.effective_edges, run.result.stats.effective_edges);
        assert_eq!(rep.filtered_edges, run.result.stats.filtered_edges);
        assert!(rep.effective_edges <= 2 * 299);
        assert!(rep.step(crate::phase::Step::Filtering).is_some());
        assert!(rep.step(crate::phase::Step::LowHigh).is_some());
        // Without telemetry the synchronization stats are inert.
        assert_eq!(rep.phase_runs, 0);
        assert_eq!(rep.imbalance, 1.0);
    }

    #[test]
    fn telemetry_pool_fills_synchronization_stats() {
        let g = gen::random_connected(300, 900, 3);
        let sink = Arc::new(Telemetry::new(2));
        let pool = Pool::builder()
            .threads(2)
            .telemetry(Arc::clone(&sink))
            .build();
        let run = BccConfig::new(Algorithm::TvOpt).run(&pool, &g).unwrap();
        assert!(run.report.phase_runs > 0, "pool phases must be counted");
        assert!(run.report.barrier_episodes >= run.report.phase_runs);
        assert!(run.report.imbalance >= 1.0);
        // The same sink passed explicitly reads identically.
        let run2 = BccConfig::new(Algorithm::TvOpt)
            .telemetry(Arc::clone(&sink))
            .run(&pool, &g)
            .unwrap();
        assert!(run2.report.phase_runs > 0);
    }

    #[test]
    fn former_free_function_surface_is_covered_by_the_builder() {
        // The deprecated free functions (biconnected_components,
        // sequential, tv_smp, tv_opt, tv_filter) are gone; this pins
        // their ported call patterns.
        let g = gen::torus(4, 5);
        let pool = Pool::new(2);
        let base = BccConfig::new(Algorithm::Sequential)
            .run(&pool, &g)
            .unwrap()
            .result;
        for run in [
            BccConfig::new(Algorithm::TvFilter).run(&pool, &g),
            BccConfig::new(Algorithm::TvSmp).run(&pool, &g),
            BccConfig::new(Algorithm::TvOpt).run(&pool, &g),
        ] {
            assert_eq!(run.unwrap().result.edge_comp, base.edge_comp);
        }
    }

    #[test]
    fn matches_sequential_on_disconnected_random_graphs() {
        for seed in 0..6u64 {
            let g = gen::random_gnm(120, 100, seed); // typically disconnected
            let pool1 = Pool::new(1);
            let base = BccConfig::new(Algorithm::Sequential)
                .run_any(&pool1, &g)
                .unwrap()
                .result;
            for p in [1, 3] {
                let pool = Pool::new(p);
                for alg in [
                    Algorithm::TvSmp,
                    Algorithm::TvOpt,
                    Algorithm::TvFilter,
                    Algorithm::FastBcc,
                ] {
                    let r = BccConfig::new(alg).run_any(&pool, &g).unwrap().result;
                    assert_eq!(r.edge_comp, base.edge_comp, "{} seed={seed}", alg.name());
                    assert_eq!(r.num_components, base.num_components);
                }
            }
        }
    }

    #[test]
    fn connected_input_short_circuits() {
        let g = gen::cycle(12);
        let pool = Pool::new(2);
        let r = BccConfig::new(Algorithm::TvOpt)
            .run_any(&pool, &g)
            .unwrap()
            .result;
        assert_eq!(r.num_components, 1);
    }

    #[test]
    fn isolated_vertices_and_empty_components() {
        let g = GraphBuilder::new(7)
            .edges([(1, 2), (2, 3), (3, 1), (5, 6)])
            .build()
            .unwrap();
        let pool = Pool::new(2);
        let run = BccConfig::new(Algorithm::TvFilter)
            .run_any(&pool, &g)
            .unwrap();
        let r = &run.result;
        assert_eq!(r.num_components, 2);
        assert_eq!(r.edge_comp[0], r.edge_comp[1]);
        assert_eq!(r.edge_comp[1], r.edge_comp[2]);
        assert_ne!(r.edge_comp[3], r.edge_comp[0]);
        // The stitched report still respects the step-sum bound.
        assert!(run.report.step_sum() <= run.report.total);
    }

    #[test]
    fn no_edges_at_all() {
        let g = GraphBuilder::new(4).build().unwrap();
        let pool = Pool::new(2);
        let r = BccConfig::new(Algorithm::TvOpt)
            .run_any(&pool, &g)
            .unwrap()
            .result;
        assert_eq!(r.num_components, 0);
    }
}
