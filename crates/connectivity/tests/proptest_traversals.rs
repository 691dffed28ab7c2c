//! Property tests for the traversal kernels.
//!
//! Two oracles:
//!
//! * The direction-optimizing BFS must produce the **same `level[]`** as
//!   the sequential queue BFS on every graph (direction switching
//!   changes the order of discovery within a level, never the level
//!   itself), and its parent array must be a valid BFS tree: the parent
//!   edge exists in the graph and `level[parent[v]] == level[v] - 1`.
//!   The drawn graphs are dense enough (8n–16n edges on 1,500–3,000
//!   vertices) that a frontier passes the pool grain and the traversal
//!   takes at least one bottom-up level, which every case asserts.
//! * FastSV must give the **same labels** as sequential union-find (both
//!   label each vertex with its component minimum) on random,
//!   disconnected, and self-loop/duplicate-edge inputs, with a spanning
//!   forest of n − k edges that spans the oracle's partition and holds
//!   no self-loop.

use bcc_connectivity::bfs::{bfs_forest_ws, bfs_tree, bfs_tree_seq, BfsTree, TraversalTuning};
use bcc_connectivity::seq::components_union_find;
use bcc_connectivity::sv::{connected_components, SvResult};
use bcc_graph::{gen, Csr, Edge, Graph, GraphBuilder};
use bcc_smp::{BccWorkspace, Pool};
use proptest::prelude::*;

const NIL: u32 = u32::MAX;

/// Strategy: a connected random graph dense enough that the BFS goes
/// bottom-up for a level or more.
fn dense_connected_graph() -> impl Strategy<Value = Graph> {
    (1500u32..3000, 8usize..17, any::<u64>())
        .prop_map(|(n, degree, seed)| gen::random_connected(n, degree * n as usize, seed))
}

/// Strategy: a raw edge list over `n` vertices that may contain
/// self-loops, duplicate edges, and isolated vertices — the shape the
/// SV kernels see from the step-6 auxiliary graph.
fn raw_edge_list() -> impl Strategy<Value = (u32, Vec<Edge>)> {
    (4u32..60, 0usize..150, any::<u64>()).prop_flat_map(|(n, m, _seed)| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n), 0..m.max(1)),
        )
            .prop_map(|(n, pairs)| {
                let edges = pairs.into_iter().map(|(u, v)| Edge::new(u, v)).collect();
                (n, edges)
            })
    })
}

/// Every reached non-root vertex sits one level below its parent, and
/// its parent edge really joins the two.
fn check_bfs_tree_valid(g: &Graph, tree: &BfsTree, root: u32) {
    assert_eq!(tree.parent[root as usize], root);
    assert_eq!(tree.level[root as usize], 0);
    let mut reached = 0;
    for v in 0..g.n() {
        let p = tree.parent[v as usize];
        if p == NIL {
            assert_eq!(tree.level[v as usize], NIL, "unreached vertex has a level");
            assert_eq!(tree.parent_eid[v as usize], NIL);
            continue;
        }
        reached += 1;
        if v == root {
            continue;
        }
        assert_eq!(
            tree.level[p as usize] + 1,
            tree.level[v as usize],
            "parent level must be child level - 1 (v={v})"
        );
        let eid = tree.parent_eid[v as usize];
        if eid == NIL {
            // A forest's restarted root hangs off the root by a virtual
            // edge.
            assert_eq!(p, root, "only the root adopts without an edge (v={v})");
            continue;
        }
        let e = g.edges()[eid as usize];
        assert!(
            (e.u == v && e.v == p) || (e.u == p && e.v == v),
            "parent_eid {eid} does not join {v} and {p}"
        );
    }
    assert_eq!(reached, tree.reached, "reached count mismatch");
}

/// FastSV's result against union-find: the same component minima,
/// n − k forest edges spanning the same partition, no self-loop.
fn check_against_union_find(n: u32, edges: &[Edge], r: &SvResult) {
    let oracle = components_union_find(n, edges);
    assert_eq!(r.label, oracle.label, "component minima");
    assert_eq!(r.num_components, oracle.count);
    assert_eq!(r.tree_edges.len() as u32, n - oracle.count);
    let forest: Vec<Edge> = r.tree_edges.iter().map(|&i| edges[i as usize]).collect();
    assert!(
        forest.iter().all(|e| e.u != e.v),
        "self-loop in the spanning forest"
    );
    assert_eq!(
        components_union_find(n, &forest).label,
        oracle.label,
        "the forest spans the oracle's partition"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn hybrid_bfs_levels_match_sequential_oracle(
        g in dense_connected_graph(),
        root_pick in any::<u32>(),
    ) {
        let root = root_pick % g.n();
        let csr = Csr::build(&g);
        let oracle = bfs_tree_seq(&csr, root);
        for p in [1usize, 2] {
            let pool = Pool::new(p);
            let tree = bfs_tree(&pool, &csr, root, &TraversalTuning);
            prop_assert_eq!(&tree.level, &oracle.level, "p={}", p);
            prop_assert_eq!(tree.reached, oracle.reached);
            prop_assert_eq!(tree.levels, oracle.levels);
            check_bfs_tree_valid(&g, &tree, root);
            prop_assert!(tree.bottom_up_levels() >= 1, "p={} {:?}", p, tree.directions);
            prop_assert_eq!(tree.tree_edge_ids().len(), tree.reached as usize - 1);
        }
    }

    #[test]
    fn hybrid_bfs_forest_matches_sequential_oracle_per_component(
        (na, nb) in (1800u32..2200, 1300u32..1700),
        seeds in (any::<u64>(), any::<u64>()),
        gap in 1u32..40,
    ) {
        // Component A on 0..na, `gap` isolated vertices, component B,
        // both at 12n edges. A is the larger, so the forest's one
        // bottom-up phase starts at A's fat level, not after its last.
        let a = gen::random_connected(na, 12 * na as usize, seeds.0);
        let b = gen::random_connected(nb, 12 * nb as usize, seeds.1);
        let base = na + gap;
        let edges = a
            .edges()
            .iter()
            .map(|e| (e.u, e.v))
            .chain(b.edges().iter().map(|e| (e.u + base, e.v + base)));
        let g = GraphBuilder::new(base + nb).edges(edges).build().unwrap();
        let csr = Csr::build(&g);
        let seq_a = bfs_tree_seq(&csr, 0);
        let seq_b = bfs_tree_seq(&csr, base);
        let pool = Pool::new(2);
        let f = bfs_forest_ws(&pool, &csr, &BccWorkspace::new());
        prop_assert_eq!(f.reached, g.n());
        check_bfs_tree_valid(&g, &f, 0);
        prop_assert!(f.bottom_up_levels() >= 1, "{:?}", f.directions);
        for v in 0..g.n() as usize {
            let want = if v < na as usize {
                seq_a.level[v]
            } else if v < base as usize {
                // An isolated vertex is a leaf of vertex 0.
                prop_assert_eq!(f.parent[v], 0);
                1
            } else {
                // B hangs off vertex 0 one level down, from its
                // smallest vertex.
                seq_b.level[v] + 1
            };
            prop_assert_eq!(f.level[v], want, "v={}", v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fastsv_partition_matches_classic_on_random_graphs(
        n in 6u32..80,
        m in 0usize..200,
        big in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // random_gnm is frequently disconnected at these densities.
        // Scaled by 40, most inputs pass the grain, so the sweep races
        // the pool's threads.
        let scale = if big { 40 } else { 1 };
        let n = n * scale;
        let g = gen::random_gnm(n, (m * scale as usize).min(gen::max_edges(n)), seed);
        let pool = Pool::new(2);
        let r = connected_components(&pool, g.n(), g.edges());
        check_against_union_find(g.n(), g.edges(), &r);
    }

    #[test]
    fn fastsv_matches_classic_on_self_loops_and_duplicates((n, edges) in raw_edge_list()) {
        let pool = Pool::new(2);
        let r = connected_components(&pool, n, &edges);
        check_against_union_find(n, &edges, &r);
    }
}
