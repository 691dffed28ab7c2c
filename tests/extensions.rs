//! Integration tests for the extensions beyond the paper's core: the
//! synchronous Awerbuch–Shiloach algorithm, the
//! double-BFS counting corollary, parallel derived outputs, and R-MAT
//! workloads — disconnected, with isolated vertices — through
//! `run_any`'s one pass.

use smp_bcc::algorithms::verify::{
    articulation_points, articulation_points_par, bridges, bridges_par,
};
use smp_bcc::connectivity::as_sync::awerbuch_shiloach;
use smp_bcc::connectivity::seq::components_union_find;
use smp_bcc::graph::gen;
use smp_bcc::{bcc, double_bfs_upper_bound, Algorithm, BccConfig, Pool};

#[test]
fn awerbuch_shiloach_agrees_with_union_find_at_scale() {
    let g = gen::rmat(13, 40_000, 0.45, 0.25, 0.15, 9);
    let oracle = components_union_find(g.n(), g.edges());
    for p in [1, 4] {
        let pool = Pool::new(p);
        let r = awerbuch_shiloach(&pool, g.n(), g.edges());
        assert_eq!(r.num_components, oracle.count, "p={p}");
    }
}

#[test]
fn rmat_graphs_through_per_component_driver() {
    for seed in 0..3u64 {
        let g = gen::rmat(10, 3000, 0.57, 0.19, 0.19, seed);
        let base = bcc(&g, Algorithm::Sequential);
        for alg in [Algorithm::TvSmp, Algorithm::TvOpt, Algorithm::TvFilter] {
            let pool = Pool::new(3);
            let r = BccConfig::new(alg).run_any(&pool, &g).unwrap().result;
            assert_eq!(r.edge_comp, base.edge_comp, "{} seed={seed}", alg.name());
        }
    }
}

#[test]
fn double_bfs_bound_via_facade() {
    let pool = Pool::new(2);
    let g = gen::random_connected(400, 1600, 5);
    let truth = bcc(&g, Algorithm::Sequential).num_components;
    let bound = double_bfs_upper_bound(&pool, &g).unwrap();
    assert!(bound >= truth);
    // At the paper's density the bound is exact for this seed.
    assert_eq!(bound, truth);
}

#[test]
fn parallel_derivations_match_on_big_instance() {
    let g = gen::random_connected(5_000, 12_000, 8);
    let r = bcc(&g, Algorithm::TvFilter);
    let pool = Pool::new(4);
    let mut seq_art = articulation_points(&g, &r.edge_comp);
    seq_art.sort_unstable();
    assert_eq!(articulation_points_par(&pool, &g, &r.edge_comp), seq_art);
    assert_eq!(
        bridges_par(&pool, &g, &r.edge_comp),
        bridges(&g, &r.edge_comp)
    );
}

#[test]
fn block_cut_tree_and_two_ecc_from_parallel_results() {
    use smp_bcc::algorithms::{two_edge_connected_components, BlockCutTree};
    let g = gen::barbell(5, 3);
    let pool = Pool::new(3);
    let r = BccConfig::new(Algorithm::TvFilter)
        .run(&pool, &g)
        .unwrap()
        .result;
    let t = BlockCutTree::build(&g, &r);
    assert_eq!(t.num_blocks, 2 + 3); // two cliques + three bridges
    assert_eq!(t.articulation.len(), 4); // both clique gates + 2 path vertices
                                         // Tree property.
    assert_eq!(t.edges.len() as u32, t.num_nodes() - 1);

    let l = two_edge_connected_components(&pool, &g, &r);
    let mut classes = l.clone();
    classes.sort_unstable();
    classes.dedup();
    // Two clique classes + 2 singleton path vertices.
    assert_eq!(classes.len(), 4);
}

#[test]
fn lca_consistent_with_bcc_ancestry() {
    use smp_bcc::connectivity::bfs::bfs_tree_seq;
    use smp_bcc::euler::{dfs_euler_tour, tree_computations, LcaIndex};
    use smp_bcc::Csr;
    let tree = gen::random_tree(500, 11);
    let pool = Pool::new(2);
    let csr = Csr::build(&tree);
    let bfs = bfs_tree_seq(&csr, 0);
    let tour = dfs_euler_tour(&pool, tree.n(), tree.edges().to_vec(), &bfs.parent, 0);
    let info = tree_computations(&pool, &tour, 0);
    let lca = LcaIndex::build(&pool, &info);
    // is_ancestor(a, d) <=> lca(a, d) == a.
    for u in (0..500u32).step_by(17) {
        for v in (0..500u32).step_by(23) {
            assert_eq!(info.is_ancestor(u, v), lca.lca(u, v) == u, "({u},{v})");
        }
    }
}

#[test]
fn schmidt_cross_checks_the_pipeline_at_scale() {
    use smp_bcc::algorithms::chain_decomposition;
    // 20k vertices — far beyond the brute-force oracles' reach.
    let g = gen::random_connected(20_000, 50_000, 13);
    let pool = Pool::new(4);
    let r = BccConfig::new(Algorithm::TvFilter)
        .run(&pool, &g)
        .unwrap()
        .result;
    let d = chain_decomposition(&g);
    let mut art = r.articulation_points(&g);
    art.sort_unstable();
    assert_eq!(art, d.articulation);
    assert_eq!(r.bridges(&g), d.bridges);
    // Consistency: biconnected iff exactly one block and no cut vertices.
    assert_eq!(d.is_biconnected(), r.num_components == 1 && art.is_empty());
}

#[test]
fn facade_one_call_api_handles_everything() {
    // Disconnected, self-contained call with machine pool.
    let g = gen::rmat(9, 1200, 0.5, 0.2, 0.2, 1);
    let r = bcc(&g, Algorithm::TvFilter);
    let base = bcc(&g, Algorithm::Sequential);
    assert_eq!(r.edge_comp, base.edge_comp);
    assert_eq!(r.num_components, base.num_components);
}
