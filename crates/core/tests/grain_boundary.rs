//! Kernels and `run_any` on inputs that straddle the pool grain.
//!
//! * Level-synchronous kernels: long paths (one vertex, two arcs per BFS
//!   level) on both sides of a lattice strip whose columns are BFS
//!   levels of more than `GRAIN` vertices. Narrow levels run on the
//!   calling thread, wide ones on the pool.
//! * `run_any`'s one pass over a disconnected input: one component
//!   above `GRAIN` edges beside hundreds of small ones and isolated
//!   vertices, and optionally a second component above the grain after
//!   the small ones. The spanning step restarts once per component; a
//!   small component's restart runs on the calling thread, the second
//!   giant's on the pool.
//!
//! The results must not depend on which side of the grain ran them.

use bcc_connectivity::bfs::{bfs_tree, bfs_tree_seq, BfsTree};
use bcc_connectivity::seq::assert_valid_rooted_tree;
use bcc_connectivity::TraversalTuning;
use bcc_core::{compute_low_high, compute_low_high_two_pass, Algorithm, BccConfig};
use bcc_euler::{bfs_tree_info, dfs_euler_tour, tree_computations, TreeInfo};
use bcc_graph::{gen, Csr, Edge, Graph, GraphBuilder};
use bcc_smp::{Pool, Telemetry, GRAIN};
use std::sync::Arc;

const PATH: u32 = 150;
const ROWS: u32 = GRAIN as u32 + 400;
const COLS: u32 = 3;

/// Path `0..PATH`, whose end is joined to every vertex of the strip's
/// first column; the strip is a `ROWS × COLS` lattice; a second path
/// hangs off the last column's row 0.
fn path_strip_path() -> Graph {
    let cell = |r: u32, c: u32| PATH + c * ROWS + r;
    let tail = PATH + ROWS * COLS;
    let mut edges: Vec<(u32, u32)> = (1..PATH).map(|v| (v - 1, v)).collect();
    for r in 0..ROWS {
        edges.push((PATH - 1, cell(r, 0)));
        for c in 0..COLS {
            if r + 1 < ROWS {
                edges.push((cell(r, c), cell(r + 1, c)));
            }
            if c + 1 < COLS {
                edges.push((cell(r, c), cell(r, c + 1)));
            }
        }
    }
    edges.push((cell(0, COLS - 1), tail));
    edges.extend((tail + 1..tail + PATH).map(|v| (v - 1, v)));
    GraphBuilder::new(tail + PATH).edges(edges).build().unwrap()
}

fn assert_bfs_tree(g: &Graph, t: &BfsTree, want: &BfsTree, what: &str) {
    assert_eq!(t.level, want.level, "{what}");
    assert_eq!(t.frontier_sizes, want.frontier_sizes, "{what}");
    assert_eq!(t.reached, g.n(), "{what}");
    assert_valid_rooted_tree(g, &t.parent, 0);
    for v in 1..g.n() as usize {
        let p = t.parent[v];
        assert_eq!(t.level[v], t.level[p as usize] + 1, "{what}: v={v}");
        let e = g.edges()[t.parent_eid[v] as usize];
        assert!(
            (e.u, e.v) == (v as u32, p) || (e.v, e.u) == (v as u32, p),
            "{what}: v={v} parent edge {e:?}"
        );
    }
}

/// The Euler-tour tree computations on the same tree: parent, size and
/// depth are tree-determined; preorders may differ in sibling order.
fn assert_matches_tour(g: &Graph, t: &BfsTree, info: &TreeInfo, pool: &Pool, what: &str) {
    let tree: Vec<Edge> = t
        .tree_edge_ids()
        .iter()
        .map(|&i| g.edges()[i as usize])
        .collect();
    let tour = dfs_euler_tour(pool, g.n(), tree, &t.parent, 0);
    let want = tree_computations(pool, &tour, 0);
    assert_eq!(info.parent, want.parent, "{what}");
    assert_eq!(info.size, want.size, "{what}");
    assert_eq!(info.depth, want.depth, "{what}");
    for v in 0..g.n() {
        assert_eq!(
            info.vertex_at_preorder[info.preorder[v as usize] as usize],
            v
        );
        if v != 0 {
            assert!(
                info.is_ancestor(info.parent[v as usize], v),
                "{what}: v={v}"
            );
        }
    }
}

#[test]
fn levels_on_both_sides_of_the_grain_agree_with_the_references() {
    let g = path_strip_path();
    let csr = Csr::build(&g);
    let want = bfs_tree_seq(&csr, 0);
    let widest = *want.frontier_sizes.iter().max().unwrap() as usize;
    assert!(widest >= GRAIN && want.frontier_sizes.contains(&1));
    assert!(
        csr.degree(PATH - 1) > GRAIN,
        "the hub's level is above the grain"
    );

    let mut is_tree = vec![false; g.m()];
    for e in want.tree_edge_ids() {
        is_tree[e as usize] = true;
    }
    for p in [1, 2, 4] {
        let pool = Pool::new(p);
        for tuning in [TraversalTuning::classic(), TraversalTuning::fast()] {
            let t = bfs_tree(&pool, &csr, 0, &tuning);
            assert_bfs_tree(&g, &t, &want, &format!("p={p} {tuning:?}"));
        }
        let info = bfs_tree_info(&pool, &want.parent, &want.level, 0);
        assert_matches_tour(&g, &want, &info, &pool, &format!("p={p}"));
        let lh = compute_low_high(&pool, g.edges(), &is_tree, &info);
        let reference = compute_low_high_two_pass(&pool, g.edges(), &is_tree, &info);
        assert_eq!(lh.low, reference.low, "p={p}");
        assert_eq!(lh.high, reference.high, "p={p}");
    }
}

#[test]
fn narrow_levels_dispatch_no_pool_phase() {
    let g = path_strip_path();
    let csr = Csr::build(&g);
    let sink = Arc::new(Telemetry::new(2));
    let pool = Pool::builder()
        .threads(2)
        .telemetry(Arc::clone(&sink))
        .build();
    let t = bfs_tree(&pool, &csr, 0, &TraversalTuning::classic());
    let bfs_phases = sink.snapshot().phase_runs;
    let info = bfs_tree_info(&pool, &t.parent, &t.level, 0);
    let info_phases = sink.snapshot().phase_runs - bfs_phases;
    assert_eq!(info.size[0], g.n());
    // ~2 * PATH + COLS levels, of which only the hub's and the strip's
    // columns reach the grain.
    assert!(t.levels > 2 * PATH);
    assert!(bfs_phases <= COLS as u64 + 2, "{bfs_phases} BFS phases");
    assert!(info_phases <= 2 * COLS as u64 + 8, "{info_phases} phases");
}

/// A 48 × 48 torus (4,608 edges, above the grain) on the lowest ids,
/// then `small` components cycling through single edges, triangles and
/// 5-cycles, then — with `second_giant` — a random component whose
/// BFS levels reach the grain, then 30 isolated vertices. The torus's
/// ids do not depend on `small`, so neither does its traversal.
fn giant_and_small(small: u32, second_giant: bool) -> Graph {
    let torus = gen::torus(48, 48);
    assert!(torus.m() >= GRAIN);
    let mut edges: Vec<Edge> = torus.edges().to_vec();
    let mut next = torus.n();
    for i in 0..small {
        let size = [2, 3, 5][i as usize % 3];
        let ring = (0..size).map(|j| Edge::new(next + j, next + (j + 1) % size));
        // A 2-ring is one edge listed twice; keep the simple graph.
        edges.extend(ring.take(if size == 2 { 1 } else { size as usize }));
        next += size;
    }
    if second_giant {
        let giant = gen::random_connected(1_500, 9_000, 7);
        assert!(giant.m() >= GRAIN);
        edges.extend(
            giant
                .edges()
                .iter()
                .map(|e| Edge::new(e.u + next, e.v + next)),
        );
        next += giant.n();
    }
    GraphBuilder::new(next + 30).edges(edges).build().unwrap()
}

const PARALLEL: [Algorithm; 4] = [
    Algorithm::TvSmp,
    Algorithm::TvOpt,
    Algorithm::TvFilter,
    Algorithm::FastBcc,
];

#[test]
fn run_any_labels_match_sequential_on_both_sides_of_the_grain() {
    for second_giant in [false, true] {
        let g = giant_and_small(200, second_giant);
        let want = BccConfig::new(Algorithm::Sequential)
            .run_any(&Pool::new(1), &g)
            .unwrap()
            .result;
        for p in [1, 2, 4] {
            let pool = Pool::new(p);
            for alg in PARALLEL {
                let r = BccConfig::new(alg).run_any(&pool, &g).unwrap().result;
                let what = format!("{} p={p} second_giant={second_giant}", alg.name());
                assert_eq!(r.edge_comp, want.edge_comp, "{what}");
                assert_eq!(r.num_components, want.num_components, "{what}");
            }
        }
    }
}

#[test]
fn small_components_dispatch_no_pool_phase() {
    let sink = Arc::new(Telemetry::new(2));
    let pool = Pool::builder()
        .threads(2)
        .telemetry(Arc::clone(&sink))
        .build();
    let (few, many) = (giant_and_small(50, false), giant_and_small(200, false));
    for alg in PARALLEL {
        let episodes = |g: &Graph| {
            let run = BccConfig::new(alg).run_any(&pool, g).unwrap();
            run.report.barrier_episodes
        };
        let (a, b) = (episodes(&few), episodes(&many));
        assert!(a > 0, "{}: the giant runs on the pool", alg.name());
        assert_eq!(a, b, "{}: 150 more small components", alg.name());
    }
}
