//! Component-scoped pipeline runs.
//!
//! [`BccConfig::run_any`](crate::BccConfig::run_any) labels a
//! disconnected graph in one pipeline pass, under a virtual root (see
//! [`crate::pipeline`]); no per-component driver remains. What lives
//! here is the other direction: [`component_pipeline`], the unit a
//! caller runs on one component it has already split off.

use crate::pipeline::BccError;
use bcc_graph::Graph;
use bcc_smp::Pool;

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
    use crate::pipeline::{Algorithm, BccConfig};
    use bcc_graph::{gen, GraphBuilder};

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
