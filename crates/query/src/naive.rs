//! Naive BFS reference implementations of every query.
//!
//! These recompute each answer from the raw graph in O(n + m) (or
//! O(n·(n + m)) for [`vertex_cut_between_bfs`]) per call — useless for
//! serving, indispensable for testing: the property tests check the
//! indexed answers against these on random graphs. Semantics match
//! [`crate::BiconnectivityIndex`] exactly, including the edge cases
//! (`u == v`, disconnected pairs, failures naming `u`/`v`, absent
//! edges). Inputs are assumed to be simple graphs (no duplicate
//! edges), which everything in this workspace produces.

use crate::batch::{Answer, Query};
use crate::index::Failure;
use bcc_graph::{Csr, Edge, Graph};

/// BFS reachability from `u` to `v` over `csr`, skipping `skip_vertex`
/// entirely and every edge whose normalized key equals `skip_edge`.
fn reachable(csr: &Csr, u: u32, v: u32, skip_vertex: Option<u32>, skip_edge: Option<u64>) -> bool {
    if Some(u) == skip_vertex || Some(v) == skip_vertex {
        return false;
    }
    if u == v {
        return true;
    }
    let mut seen = vec![false; csr.n() as usize];
    let mut queue = std::collections::VecDeque::new();
    seen[u as usize] = true;
    queue.push_back(u);
    while let Some(x) = queue.pop_front() {
        for &y in csr.neighbors(x) {
            if Some(y) == skip_vertex || seen[y as usize] {
                continue;
            }
            if Some(Edge::new(x, y).key()) == skip_edge {
                continue;
            }
            if y == v {
                return true;
            }
            seen[y as usize] = true;
            queue.push_back(y);
        }
    }
    false
}

/// Are `u` and `v` connected? (Plain BFS.)
pub fn connected_bfs(g: &Graph, u: u32, v: u32) -> bool {
    reachable(&Csr::build(g), u, v, None, None)
}

/// Are `u` and `v` still connected after failure `f`? (BFS on the
/// graph with the failed vertex or edge removed.)
pub fn survives_failure_bfs(g: &Graph, u: u32, v: u32, f: Failure) -> bool {
    match f {
        Failure::Vertex(x) => {
            if u == v {
                return x != u;
            }
            reachable(&Csr::build(g), u, v, Some(x), None)
        }
        Failure::Edge(x, y) => {
            if u == v {
                return true;
            }
            reachable(&Csr::build(g), u, v, None, Some(Edge::new(x, y).key()))
        }
    }
}

/// Every vertex `w ∉ {u, v}` whose removal disconnects `u` from `v`.
/// Empty when `u == v` or when they are not connected. Ascending.
pub fn vertex_cut_between_bfs(g: &Graph, u: u32, v: u32) -> Vec<u32> {
    let csr = Csr::build(g);
    if u == v || !reachable(&csr, u, v, None, None) {
        return Vec::new();
    }
    (0..g.n())
        .filter(|&w| w != u && w != v && !reachable(&csr, u, v, Some(w), None))
        .collect()
}

/// Do `u` and `v` share a biconnected component? A pair of distinct
/// vertices does iff they are connected and no third vertex separates
/// them (Menger); `u == v` is true by convention.
pub fn same_block_bfs(g: &Graph, u: u32, v: u32) -> bool {
    if u == v {
        return true;
    }
    connected_bfs(g, u, v) && vertex_cut_between_bfs(g, u, v).is_empty()
}

/// Is `v` a cut vertex: does its failure separate two of its
/// neighbours?
pub fn is_articulation_bfs(g: &Graph, v: u32) -> bool {
    let csr = Csr::build(g);
    let Some((&a, rest)) = csr.neighbors(v).split_first() else {
        return false;
    };
    rest.iter().any(|&b| !reachable(&csr, a, b, Some(v), None))
}

/// The reference answer to any [`Query`], one BFS function per kind —
/// what [`BiconnectivityIndex::answer`](crate::BiconnectivityIndex::answer)
/// must return.
pub fn answer(g: &Graph, q: &Query) -> Answer {
    match *q {
        Query::Connected(u, v) => Answer::Bool(connected_bfs(g, u, v)),
        Query::SameBlock(u, v) => Answer::Bool(same_block_bfs(g, u, v)),
        Query::IsArticulation(v) => Answer::Bool(is_articulation_bfs(g, v)),
        Query::IsBridge(u, v) => Answer::Bool(is_bridge_bfs(g, u, v)),
        Query::VertexCutBetween(u, v) => Answer::Vertices(vertex_cut_between_bfs(g, u, v)),
        Query::SurvivesFailure(u, v, f) => Answer::Bool(survives_failure_bfs(g, u, v, f)),
    }
}

/// Is `{u, v}` an existing edge whose removal disconnects its
/// endpoints?
pub fn is_bridge_bfs(g: &Graph, u: u32, v: u32) -> bool {
    let key = Edge::new(u, v).key();
    g.edges().iter().any(|e| e.key() == key) && !reachable(&Csr::build(g), u, v, None, Some(key))
}
