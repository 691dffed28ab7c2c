//! Driver for arbitrary (possibly disconnected) graphs.
//!
//! The TV pipelines require a connected input (the paper assumes one).
//! This driver splits a general graph into connected components with
//! Shiloach–Vishkin, runs the chosen algorithm on each induced
//! subgraph, and stitches the per-edge labels back together. It backs
//! [`BccConfig::run_any`](crate::BccConfig::run_any); the per-subgraph
//! step times accumulate into one [`PhaseRecorder`], so the final
//! report reads like a single run over the whole edge list.

use crate::phase::PhaseRecorder;
use crate::pipeline::{run_connected, Algorithm, BccError, BccResult};
use crate::verify::canonicalize_edge_labels;
use bcc_connectivity::sv::{connected_components_with_ws, normalize_labels_ws};
use bcc_connectivity::tuning::TraversalTuning;
use bcc_euler::Ranker;
use bcc_graph::{Edge, Graph, GraphBuilder};
use bcc_smp::{BccWorkspace, Pool};

/// Biconnected components of an arbitrary simple graph: per connected
/// component, using `alg`; labels are canonical over the whole edge
/// list. The connectivity precondition of the TV pipelines is satisfied
/// by construction, so the only way this fails is a future error
/// variant — callers that know better may `expect`.
pub(crate) fn run_per_component(
    pool: &Pool,
    g: &Graph,
    alg: Algorithm,
    ranker: Ranker,
    tuning: TraversalTuning,
    ws: &BccWorkspace,
    rec: &mut PhaseRecorder,
) -> Result<BccResult, BccError> {
    if alg == Algorithm::Sequential {
        return run_connected(pool, g, alg, ranker, tuning, ws, rec);
    }
    let cc = connected_components_with_ws(pool, g.n(), g.edges(), tuning.sv, ws);
    if cc.num_components <= 1 {
        // Connected (or empty): run directly.
        cc.recycle(ws);
        return run_connected(pool, g, alg, ranker, tuning, ws, rec);
    }
    let mut comp_of = cc.label;
    ws.give(cc.tree_edges);
    let k = normalize_labels_ws(pool, &mut comp_of, ws) as usize;

    // Local vertex ids: position of each vertex within its component.
    let n = g.n() as usize;
    let mut counts = ws.take_filled(k, 0u32);
    let mut local = ws.take_filled(n, 0u32);
    for v in 0..n {
        let c = comp_of[v] as usize;
        local[v] = counts[c];
        counts[c] += 1;
    }

    // Partition edges by component. The nested per-subgraph vectors
    // stay plain: their count and sizes vary by input and the subgraph
    // edge lists are consumed by `Graph::new` below.
    let mut sub_edges: Vec<Vec<Edge>> = vec![Vec::new(); k];
    let mut sub_orig: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (i, e) in g.edges().iter().enumerate() {
        let c = comp_of[e.u as usize] as usize;
        debug_assert_eq!(c, comp_of[e.v as usize] as usize);
        sub_edges[c].push(Edge::new(local[e.u as usize], local[e.v as usize]));
        sub_orig[c].push(i as u32);
    }

    // Solve each component; merge labels with disjoint offsets. The
    // shared recorder accumulates the per-step times across subgraphs.
    let mut edge_comp = vec![0u32; g.m()];
    let mut stats = crate::phase::PipelineStats {
        input_edges: g.m(),
        ..Default::default()
    };
    let mut base = 0u32;
    for c in 0..k {
        if sub_edges[c].is_empty() {
            continue;
        }
        let sub = GraphBuilder::new(counts[c])
            .edges(std::mem::take(&mut sub_edges[c]))
            .build()
            .unwrap();
        let r = run_connected(pool, &sub, alg, ranker, tuning, ws, rec)?;
        for (j, &orig) in sub_orig[c].iter().enumerate() {
            edge_comp[orig as usize] = base + r.edge_comp[j];
        }
        base += r.num_components;
        stats.effective_edges += r.stats.effective_edges;
        stats.filtered_edges += r.stats.filtered_edges;
        stats.aux_vertices += r.stats.aux_vertices;
        stats.aux_edges += r.stats.aux_edges;
        stats.sv_rounds_spanning = stats.sv_rounds_spanning.max(r.stats.sv_rounds_spanning);
        stats.sv_rounds_cc = stats.sv_rounds_cc.max(r.stats.sv_rounds_cc);
        // BFS shape stats: keep the deepest component's profile.
        if r.stats.bfs_levels > stats.bfs_levels {
            stats.bfs_levels = r.stats.bfs_levels;
            stats.bfs_bottom_up_levels = r.stats.bfs_bottom_up_levels;
            stats.bfs_frontier_sizes = r.stats.bfs_frontier_sizes.clone();
            stats.bfs_directions = r.stats.bfs_directions.clone();
        }
    }
    ws.give(comp_of);
    ws.give(counts);
    ws.give(local);
    let num_components = canonicalize_edge_labels(&mut edge_comp);
    debug_assert_eq!(num_components, base);
    Ok(BccResult {
        edge_comp,
        num_components,
        stats,
    })
}

/// The single-component pipeline unit: runs `config` on a graph the
/// caller knows is **connected** — typically one part of
/// [`Graph::split_by_labels`](bcc_graph::Graph::split_by_labels) — and
/// derives its block-cut tree in one go.
///
/// This is the rebuild granule of component-scoped incremental commits
/// (bcc-query's `IndexStore`): a commit extracts each touched component
/// as a relabeled subgraph and pushes it through here, sharing the
/// config's workspace so a k-component rebuild stays in the arena's
/// zero-allocation steady state. Fails with [`BccError::Disconnected`]
/// if the connectivity precondition is violated.
pub fn component_pipeline(
    pool: &Pool,
    g: &Graph,
    config: &crate::pipeline::BccConfig,
) -> Result<(crate::pipeline::BccRun, crate::block_cut::BlockCutTree), BccError> {
    let run = config.run(pool, g)?;
    let tree = crate::block_cut::BlockCutTree::build(g, &run.result);
    Ok((run, tree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::BccConfig;
    use bcc_graph::gen;

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

    #[test]
    fn component_pipeline_runs_one_connected_part() {
        // Two 5-cycles joined by a bridge: 3 blocks, 2 cut vertices.
        let g = gen::cycle_chain(2, 5, 0);
        let pool = Pool::new(2);
        let config = BccConfig::new(Algorithm::TvFilter);
        let (run, tree) = component_pipeline(&pool, &g, &config).unwrap();
        assert_eq!(run.result.num_components, 3);
        assert_eq!(tree.num_blocks, 3);
        assert_eq!(tree.articulation, run.result.articulation_points(&g));

        // The connectivity precondition is enforced, not assumed.
        let split = GraphBuilder::new(4)
            .edges([(0, 1), (2, 3)])
            .build()
            .unwrap();
        assert_eq!(
            component_pipeline(&pool, &split, &config).unwrap_err(),
            BccError::Disconnected
        );
    }
}
