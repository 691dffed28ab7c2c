//! Standalone calls of each layer's public functions on the workload's
//! own graph (traced run only): the kernels the pipelines compose,
//! timed one by one so a change to one layer shows where it lands.

use crate::gen::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;
use bcc_connectivity::{bfs_tree, connected_components_masked_with_ws, work_stealing_tree};
use bcc_connectivity::{SvVariant, TraversalTuning};
use bcc_core::{build_aux_graph_fused, compute_low_high};
use bcc_euler::{bfs_tree_info, dfs_euler_tour, euler_tour_classic, tree_computations, Ranker};
use bcc_graph::{Csr, Edge, Graph};
use bcc_primitives::{exclusive_scan_par, list_rank_hj, par_radix_sort_u64};
use bcc_smp::{BccWorkspace, Pool, NIL};
use std::hint::black_box;

/// Repetitions of each call; the reported time is their median.
const REPS: usize = 3;

/// Times `f` `REPS` times inside spans named `name`; records the median
/// as `<name>_s` and returns the last result.
fn timed<T>(tracer: &Tracer, out: &mut Outcome, name: &'static str, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..REPS {
        last = Some(tracer.span(name, None, |_| black_box(f())));
    }
    out.metric(
        &format!("{name}_s"),
        median(&tracer.durations(name)).unwrap_or(0.0),
        "s",
    );
    last.expect("REPS > 0")
}

pub fn run(pool: &Pool, g: &Graph, seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let (n, m) = (g.n(), g.m());
    // Edge list plus the owned CSR built from it (offsets, neighbor and
    // edge-id arrays): what every pipeline touches at least once.
    out.metric(
        "graph.working_set_bytes",
        (8 * m + 8 * (n as usize + 1) + 16 * m) as f64,
        "bytes",
    );
    timed(tracer, out, "graph.csr_build", || Csr::build_par(pool, g));

    let cc = timed(tracer, out, "connectivity.cc", || {
        bcc_connectivity::connected_components(pool, n, g.edges())
    });
    out.metric("connectivity.sv_rounds", cc.rounds as f64, "count");
    let mut labels = cc.label;
    let k = bcc_connectivity::sv::normalize_labels(pool, &mut labels);
    let split = timed(tracer, out, "graph.split", || g.split_by_labels(&labels, k));

    // The largest component stands in for the connected inputs the
    // per-component pipelines see.
    let part = split
        .parts
        .iter()
        .max_by_key(|p| p.graph.m())
        .expect("at least one part");
    let lc = &part.graph;
    let nl = lc.n();
    let csr = Csr::build_par(pool, lc);
    let tuning = TraversalTuning::default();
    let bfs = timed(tracer, out, "connectivity.bfs", || {
        bfs_tree(pool, &csr, 0, &tuning)
    });
    out.metric("connectivity.bfs_levels", bfs.levels as f64, "count");
    out.metric(
        "connectivity.bfs_bottom_up_levels",
        bfs.bottom_up_levels() as f64,
        "count",
    );
    timed(tracer, out, "connectivity.work_stealing", || {
        work_stealing_tree(pool, &csr, 0)
    });
    let mut is_tree = vec![false; lc.m()];
    let mut tree_edges: Vec<Edge> = Vec::with_capacity(nl as usize);
    for &eid in &bfs.parent_eid {
        if eid != NIL {
            is_tree[eid as usize] = true;
            tree_edges.push(lc.edges()[eid as usize]);
        }
    }
    let ws = BccWorkspace::new();
    timed(tracer, out, "connectivity.sv_masked", || {
        let keep = |i: usize| !is_tree[i];
        connected_components_masked_with_ws(pool, nl, lc.edges(), &keep, SvVariant::FastSv, &ws)
    });

    timed(tracer, out, "euler.tour_classic", || {
        euler_tour_classic(pool, nl, tree_edges.clone(), 0, Ranker::HelmanJaja)
    });
    let tour = timed(tracer, out, "euler.tour_dfs", || {
        dfs_euler_tour(pool, nl, tree_edges.clone(), &bfs.parent, 0)
    });
    let info = timed(tracer, out, "euler.tree_compute", || {
        tree_computations(pool, &tour, 0)
    });
    timed(tracer, out, "euler.bfs_tree_info", || {
        bfs_tree_info(pool, &bfs.parent, &bfs.level, 0)
    });

    // A list of 2(n−1) nodes in random order: the Euler-tour shape
    // TV-SMP ranks.
    let len = 2 * (nl.max(2) - 1);
    let mut order: Vec<u32> = (0..len).collect();
    let mut rng = Rng::derive(seed, 0x11);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut succ = vec![NIL; len as usize];
    for w in order.windows(2) {
        succ[w[0] as usize] = w[1];
    }
    timed(tracer, out, "primitives.list_rank", || {
        list_rank_hj(pool, &succ, order[0])
    });
    let keys: Vec<u64> = g.edges().iter().map(|e| e.key()).collect();
    timed(tracer, out, "primitives.sort", || {
        let mut k = keys.clone();
        par_radix_sort_u64(pool, &mut k);
        k
    });
    let degrees = g.degrees();
    timed(tracer, out, "primitives.scan", || {
        let mut d = degrees.clone();
        exclusive_scan_par(pool, &mut d);
        d
    });

    let lh = timed(tracer, out, "core.low_high", || {
        compute_low_high(pool, lc.edges(), &is_tree, &info)
    });
    let aux = timed(tracer, out, "core.label_edge", || {
        build_aux_graph_fused(pool, nl, lc.edges(), &is_tree, &info, &lh)
    });
    out.metric("core.aux_edges", aux.edges.len() as f64, "count");
}
