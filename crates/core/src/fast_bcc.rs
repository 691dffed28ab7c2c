//! The certificate pipeline shared by TV-filter (the paper's Alg. 2)
//! and FAST-BCC (Dong, Wang, Gu & Sun, "Provably Fast and
//! Space-Efficient Parallel Biconnectivity", adapted to this codebase's
//! BFS + FastSV substrate).
//!
//! Both algorithms shrink G to a sparse certificate T ∪ F before the
//! shared tail and place every filtered edge afterwards; they differ
//! only in how the tree tags (preorder, subtree size, depth) of T are
//! produced:
//!
//! 1. **Skeleton** — a BFS spanning forest T (the existing
//!    direction-optimizing BFS from vertex 0, restarted at the smallest
//!    unreached vertex until every component is reached,
//!    [`bfs_forest_ws`]). Each restart's root hangs off vertex 0 by a
//!    virtual edge, so T plus those edges is a BFS tree of G plus them,
//!    and Lemma 1 of the paper (§4), which requires a BFS tree for
//!    certificate correctness, holds per component; the tags and the
//!    tail run on that tree (see [`crate::pipeline`]).
//! 2. **Tags** — TV-filter runs TV-opt's tags on T: a DFS-order Euler
//!    tour, then prefix sums over it (the paper's "run TV-opt on
//!    T ∪ F"). FAST-BCC computes them *directly on the BFS tree* by
//!    level-synchronous sweeps ([`bcc_euler::bfs_tree_info_ws`]): a BFS
//!    tree's levels are depths, so sizes aggregate bottom-up and
//!    preorder numbers distribute top-down, one O(n)-work round per
//!    level. No tour, no ranking.
//! 3. **Certificate** — a spanning forest F of G − T found by running
//!    SV over the *full* edge list with tree edges masked out by an
//!    O(1) predicate ([`connected_components_masked_with_ws`]); the
//!    certificate T ∪ F (≤ 2(n−1) edges) replaces G for the tail. No
//!    compacted candidate copy, no id-remap table — the masked run
//!    reports original edge ids.
//! 4. **Tail** — the shared low/high → fused label-edge → SV tail on
//!    the certificate ([`crate::pipeline`]).
//! 5. **Placement** — every edge outside the certificate is a nontree
//!    edge of T, and aux-graph condition 1 links each nontree edge's
//!    larger-preorder endpoint x to that edge's aux vertex, so after
//!    connectivity `aux_label[x]` *is* its component: placement is O(1)
//!    per edge with zero O(m) scratch.
//!
//! Peak auxiliary space is therefore O(n): the BFS arrays, the tree
//! tags (and TV-filter's tour of T), the certificate, low/high, and the
//! aux graph are all a few words per vertex. The only O(m)-sized
//! allocations are the ones every pipeline shares — the CSR adjacency
//! (input preparation) and the result itself (one label per edge) —
//! with zero O(m) scratch stacked on top. This is what the
//! `bcc-bench xl` tier measures at n = 10M+.

use crate::phase::{PhaseRecorder, PipelineStats, Step};
use crate::pipeline::{
    finalize, forest_roots, trivial_result, tv_tail, Algorithm, BccError, BccResult,
};
use bcc_connectivity::bfs::bfs_forest_ws;
use bcc_connectivity::sv::connected_components_masked_with_ws;
use bcc_connectivity::tuning::TraversalTuning;
use bcc_connectivity::BfsDirection;
use bcc_euler::{bfs_tree_info_ws, dfs_euler_tour_ws, tree_computations_ws};
use bcc_graph::{Csr, Edge, Graph};
use bcc_smp::{BccWorkspace, Pool, SharedSlice, NIL};

/// The certificate pipeline, dispatched from [`crate::pipeline`] for
/// [`Algorithm::TvFilter`] and [`Algorithm::FastBcc`]; `alg` selects
/// only the tags step. With `connected`, fails with
/// [`BccError::Disconnected`] when the BFS forest has more than one
/// tree.
pub(crate) fn certificate_impl(
    pool: &Pool,
    g: &Graph,
    alg: Algorithm,
    tuning: TraversalTuning,
    connected: bool,
    ws: &BccWorkspace,
    rec: &mut PhaseRecorder,
) -> Result<BccResult, BccError> {
    let n = g.n();
    let m = g.m();
    let edges = g.edges();
    if let Some(r) = trivial_result(g) {
        return Ok(r);
    }

    // Adjacency conversion is input preparation shared by every BFS
    // strategy: keep it out of the Spanning-tree step so the ablation
    // columns compare traversals, not CSR construction (it still counts
    // toward `total`).
    let csr = Csr::build(g);

    // Step 1: BFS skeleton T, a BFS forest from vertex 0.
    let root = 0u32;
    let mut bfs = rec.step(Step::SpanningTree, || {
        bfs_forest_ws(pool, &csr, &tuning, ws)
    });
    if connected && forest_roots(&bfs.parent_eid) != 1 {
        bfs.recycle(ws);
        return Err(BccError::Disconnected);
    }
    let parent: &[u32] = &bfs.parent;
    let parent_eid: &[u32] = &bfs.parent_eid;

    // Step 2: tags of T plus the virtual edges. A vertex other than 0
    // without a parent edge is a component root, a child of vertex 0.
    let info = if alg == Algorithm::TvFilter {
        let mut tree_edges: Vec<Edge> = ws.take(n as usize);
        tree_edges.extend((1..n).map(|v| match parent_eid[v as usize] {
            NIL => Edge::new(v, root),
            eid => edges[eid as usize],
        }));
        let tour = rec.step(Step::EulerTour, || {
            dfs_euler_tour_ws(pool, n, tree_edges, parent, root, ws)
        });
        let info = rec.step(Step::RootTree, || {
            tree_computations_ws(pool, &tour, root, ws)
        });
        tour.recycle(ws);
        info
    } else {
        rec.step(Step::RootTree, || {
            bfs_tree_info_ws(pool, parent, &bfs.level, root, ws)
        })
    };

    // Step 3 (Filtering): certificate T ∪ F. F is a spanning forest of
    // G − T computed in place — `keep` masks T by an O(1) parent test,
    // so no candidate list or id remap is ever materialized. The test
    // is on the parent *pair*, not the edge id: a duplicate of a tree
    // edge connects its endpoints in G − T without adding any
    // connectivity beyond T, so letting it into F can displace a real
    // forest edge and break the certificate (the paper's lemma assumes
    // a simple graph). Masking every tree-parallel edge restores that
    // setting; the parallels are placed by the condition-1 rule below,
    // which gives each exactly its tree twin's label.
    let (cert_edges, cert_is_tree, forest_rounds) = rec.step(Step::Filtering, || {
        let forest = connected_components_masked_with_ws(
            pool,
            n,
            edges,
            &|i| {
                let e = edges[i];
                parent[e.u as usize] != e.v && parent[e.v as usize] != e.u
            },
            tuning.sv,
            ws,
        );
        let mut cert_edges: Vec<Edge> = ws.take(2 * n as usize);
        let mut cert_is_tree: Vec<bool> = ws.take(2 * n as usize);
        for v in 0..n {
            let eid = parent_eid[v as usize];
            if eid != NIL {
                cert_edges.push(edges[eid as usize]);
                cert_is_tree.push(true);
            }
        }
        for &i in &forest.tree_edges {
            cert_edges.push(edges[i as usize]);
            cert_is_tree.push(false);
        }
        let forest_rounds = forest.rounds;
        forest.recycle(ws);
        (cert_edges, cert_is_tree, forest_rounds)
    });

    // Steps 4–6 on the certificate.
    let tail = tv_tail(pool, n, &cert_edges, &cert_is_tree, &info, tuning, ws, rec);

    // Placement (step 4 of Alg. 2): tree edges take their child
    // endpoint's aux label; every other edge — certificate-F and
    // filtered alike — takes its larger-preorder endpoint's (condition
    // 1 ties that aux vertex to the edge's own). `comp` escapes as the
    // result, so it is allocated plain rather than from the workspace.
    let mut comp = vec![0u32; m];
    rec.step(Step::Filtering, || {
        let comp_s = SharedSlice::new(&mut comp);
        let aux: &[u32] = &tail.aux_vertex_labels;
        let pre = &info.preorder;
        pool.run(|ctx| {
            for i in ctx.block_range(m) {
                let e = edges[i];
                let child = if parent_eid[e.u as usize] == i as u32 {
                    e.u
                } else if parent_eid[e.v as usize] == i as u32 {
                    e.v
                } else {
                    // Nontree: deeper (larger-preorder) endpoint.
                    if pre[e.u as usize] > pre[e.v as usize] {
                        e.u
                    } else {
                        e.v
                    }
                };
                // SAFETY: `block_range` gives each edge index to exactly
                // one thread, so no other thread touches slot i.
                unsafe { comp_s.write(i, aux[child as usize]) };
            }
        });
    });

    let stats = PipelineStats {
        input_edges: m,
        effective_edges: cert_edges.len(),
        filtered_edges: m - cert_edges.len(),
        aux_vertices: tail.aux_vertices,
        aux_edges: tail.aux_edges,
        sv_rounds_spanning: forest_rounds,
        sv_rounds_cc: tail.sv_rounds_cc,
        bfs_levels: bfs.levels,
        bfs_bottom_up_levels: bfs.bottom_up_levels(),
        bfs_directions: bfs
            .directions
            .iter()
            .map(|d| match d {
                BfsDirection::TopDown => 'T',
                BfsDirection::BottomUp => 'B',
            })
            .collect(),
        bfs_frontier_sizes: std::mem::take(&mut bfs.frontier_sizes),
    };
    info.recycle(ws);
    bfs.recycle(ws);
    ws.give(cert_edges);
    ws.give(cert_is_tree);
    // `tail.edge_labels` (per-certificate-edge labels) is superseded by
    // the placement pass; it is a plain allocation, so drop it.
    drop(tail.edge_labels);
    ws.give(tail.aux_vertex_labels);
    Ok(finalize(comp, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{sequential_impl, BccConfig};
    use bcc_graph::{gen, GraphBuilder};

    fn agree(g: &Graph, p: usize) {
        let pool = Pool::new(p);
        let base = sequential_impl(g);
        let r = BccConfig::new(Algorithm::FastBcc)
            .run(&pool, g)
            .unwrap()
            .result;
        assert_eq!(r.num_components, base.num_components, "count (p={p})");
        assert_eq!(r.edge_comp, base.edge_comp, "labels (p={p})");
    }

    #[test]
    fn families() {
        for p in [1, 2, 4] {
            agree(&gen::cycle(12), p);
            agree(&gen::path(12), p);
            agree(&gen::star(12), p);
            agree(&gen::complete(7), p);
            agree(&gen::torus(3, 5), p);
            agree(&gen::two_cliques_sharing_vertex(5), p);
            agree(&gen::cycle_chain(4, 5, 0), p);
            agree(&gen::random_tree(80, p as u64), p);
        }
    }

    #[test]
    fn random_graphs() {
        for seed in 0..6u64 {
            agree(&gen::random_connected(250, 600, seed), 1);
            agree(&gen::random_connected(250, 600, seed), 4);
        }
    }

    #[test]
    fn duplicate_edges_share_their_tree_twin_label() {
        // Parallel edges biconnect their endpoints; the duplicate is a
        // nontree edge placed via its deeper endpoint's aux label.
        let g = GraphBuilder::new(3)
            .edges([(0, 1), (0, 1), (1, 2)])
            .build()
            .unwrap();
        agree(&g, 2);
        let pool = Pool::new(2);
        let r = BccConfig::new(Algorithm::FastBcc)
            .run(&pool, &g)
            .unwrap()
            .result;
        assert_eq!(r.edge_comp[0], r.edge_comp[1]);
        assert_ne!(r.edge_comp[0], r.edge_comp[2]);
    }

    #[test]
    fn certificate_is_sparse() {
        let n = 400u32;
        let g = gen::random_connected(n, 6_000, 3);
        let pool = Pool::new(2);
        let r = BccConfig::new(Algorithm::FastBcc)
            .run(&pool, &g)
            .unwrap()
            .result;
        assert_eq!(r.stats.input_edges, 6_000);
        assert!(r.stats.effective_edges <= 2 * (n as usize - 1));
        assert_eq!(
            r.stats.filtered_edges,
            r.stats.input_edges - r.stats.effective_edges
        );
        assert!(r.stats.bfs_levels >= 2);
    }

    #[test]
    fn workspace_steady_state() {
        use std::sync::Arc;
        let ws = Arc::new(BccWorkspace::new());
        let pool = Pool::new(2);
        let g = gen::random_connected(300, 900, 7);
        let cfg = BccConfig::new(Algorithm::FastBcc).workspace(Arc::clone(&ws));
        let first = cfg.run(&pool, &g).unwrap().result;
        let before = ws.stats();
        let again = cfg.run(&pool, &g).unwrap().result;
        assert_eq!(first.edge_comp, again.edge_comp);
        let delta = ws.stats().delta_since(&before);
        assert_eq!(delta.misses, 0, "steady-state rerun must not miss");
    }
}
