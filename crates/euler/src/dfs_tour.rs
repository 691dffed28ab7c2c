//! Cache-friendly DFS-order Euler tour (the TV-opt construction).
//!
//! Given a tree that is *already rooted* (TV-opt merges Spanning-tree
//! and Root-tree, so a parent array is available), emit the Euler tour
//! in depth-first order: consecutive tour arcs are consecutive in
//! memory, so every tree computation downstream is a prefix sum over a
//! contiguous array instead of a list ranking over scattered pointers
//! (paper §3.2; Cong & Bader ICPP 2004).
//!
//! The children structure is built in parallel (counting sort by parent
//! with a shared scan); the emit pass is a single sequential DFS — the
//! O(n) term the original achieves in O(n/p) w.h.p. via randomized
//! splitting. On the target machines the emit is a small fraction of
//! the pipeline (EXPERIMENTS.md quantifies it), and the prefix-sum tree
//! computations that follow are fully parallel.

use crate::tour::EulerTour;
use bcc_graph::Edge;
use bcc_smp::atomic::as_atomic_u32;
use bcc_smp::{BccWorkspace, Pool, SharedSlice, NIL};
use std::sync::atomic::Ordering;

/// Builds a DFS-order Euler tour of the rooted tree `edges` /
/// `parent` (with `parent[root] == root`).
///
/// `edges` must be the tree's edge list; `parent` must orient exactly
/// those edges (every non-root vertex's parent edge is in `edges`).
pub fn dfs_euler_tour(
    pool: &Pool,
    n: u32,
    edges: Vec<Edge>,
    parent: &[u32],
    root: u32,
) -> EulerTour {
    dfs_euler_tour_ws(pool, n, edges, parent, root, &BccWorkspace::new())
}

/// [`dfs_euler_tour`] with all scratch and the tour's arrays taken
/// from `ws`; return the tour's buffers with [`EulerTour::recycle`].
pub fn dfs_euler_tour_ws(
    pool: &Pool,
    n: u32,
    edges: Vec<Edge>,
    parent: &[u32],
    root: u32,
    ws: &BccWorkspace,
) -> EulerTour {
    let n_us = n as usize;
    assert_eq!(parent.len(), n_us);
    assert!(root < n);
    assert_eq!(parent[root as usize], root);
    assert_eq!(edges.len() + 1, n_us, "tree must have n-1 edges");
    let t = edges.len();
    if t == 0 {
        return EulerTour {
            n,
            edges,
            pos: vec![],
            order: vec![],
        };
    }

    // Children CSR keyed by parent: counting sort over tree edges.
    let mut child_count = ws.take_filled(n_us, 0u32);
    {
        let cc = as_atomic_u32(&mut child_count);
        let edges_ro: &[Edge] = &edges;
        let parent_ro = parent;
        pool.run(|ctx| {
            for i in ctx.block_range(t) {
                let e = edges_ro[i];
                let p = tree_edge_parent(e, parent_ro);
                cc[p as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    let mut offsets = ws.take_filled(n_us + 1, 0u32);
    offsets[1..].copy_from_slice(&child_count);
    bcc_primitives::scan::inclusive_scan_par_ws(pool, &mut offsets[1..], ws);

    // child_arc[slot] = the advance arc (parent -> child) of each child.
    let mut cursor = ws.take_filled(n_us, 0u32);
    let mut child_arc = ws.take_filled(t, NIL);
    {
        let cur = as_atomic_u32(&mut cursor);
        let ca = SharedSlice::new(&mut child_arc);
        let offsets_ro: &[u32] = &offsets;
        let edges_ro: &[Edge] = &edges;
        pool.run(|ctx| {
            for i in ctx.block_range(t) {
                let e = edges_ro[i];
                let p = tree_edge_parent(e, parent);
                let adv = if e.u == p {
                    2 * i as u32
                } else {
                    2 * i as u32 + 1
                };
                let slot = offsets_ro[p as usize] + cur[p as usize].fetch_add(1, Ordering::Relaxed);
                unsafe { ca.write(slot as usize, adv) };
            }
        });
    }

    // Sequential DFS emit: iterative, O(n), contiguous writes.
    let num_arcs = 2 * t;
    let mut pos = ws.take_filled(num_arcs, NIL);
    let mut order = ws.take_filled(num_arcs, NIL);
    let mut counter = 0u32;
    // Stack entries: (vertex, next child slot, entering advance arc).
    let mut stack: Vec<(u32, u32, u32)> = ws.take(64);
    stack.push((root, offsets[root as usize], NIL));
    while let Some(&mut (v, ref mut next_slot, enter)) = stack.last_mut() {
        if *next_slot < offsets[v as usize + 1] {
            let adv = child_arc[*next_slot as usize];
            *next_slot += 1;
            let child_edge = edges[(adv / 2) as usize];
            let child = if adv & 1 == 0 {
                child_edge.v
            } else {
                child_edge.u
            };
            pos[adv as usize] = counter;
            order[counter as usize] = adv;
            counter += 1;
            stack.push((child, offsets[child as usize], adv));
        } else {
            stack.pop();
            if enter != NIL {
                let ret = enter ^ 1;
                pos[ret as usize] = counter;
                order[counter as usize] = ret;
                counter += 1;
            }
        }
    }
    assert_eq!(counter as usize, num_arcs, "tour must cover every arc");

    ws.give(stack);
    ws.give(child_count);
    ws.give(offsets);
    ws.give(cursor);
    ws.give(child_arc);

    EulerTour {
        n,
        edges,
        pos,
        order,
    }
}

/// The parent-side endpoint of a tree edge under `parent`.
#[inline]
fn tree_edge_parent(e: Edge, parent: &[u32]) -> u32 {
    if parent[e.v as usize] == e.u {
        e.u
    } else {
        debug_assert_eq!(
            parent[e.u as usize], e.v,
            "edge {e:?} is not oriented by the parent array"
        );
        e.v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tour::assert_valid_tour;
    use crate::tree_compute::tree_computations;
    use bcc_connectivity::bfs::bfs_tree_seq;
    use bcc_graph::{gen, Csr};

    fn rooted_tree_of(g: &bcc_graph::Graph, root: u32) -> (Vec<Edge>, Vec<u32>) {
        // Use a BFS tree of the (tree) graph to obtain a parent array.
        let csr = Csr::build(g);
        let t = bfs_tree_seq(&csr, root);
        (g.edges().to_vec(), t.parent)
    }

    #[test]
    fn valid_tour_on_random_trees() {
        for seed in 0..4u64 {
            let g = gen::random_tree(400, seed);
            for p in [1, 4] {
                let pool = Pool::new(p);
                for root in [0u32, 200] {
                    let (edges, parent) = rooted_tree_of(&g, root);
                    let tour = dfs_euler_tour(&pool, 400, edges, &parent, root);
                    assert_valid_tour(&tour, root);
                }
            }
        }
    }

    #[test]
    fn tour_positions_are_dfs_contiguous() {
        // In a DFS tour, `order` is by construction position-sorted and
        // a subtree occupies a contiguous arc range.
        let g = gen::binary_tree(63);
        let pool = Pool::new(2);
        let (edges, parent) = rooted_tree_of(&g, 0);
        let tour = dfs_euler_tour(&pool, 63, edges, &parent, 0);
        assert_valid_tour(&tour, 0);
        let info = tree_computations(&pool, &tour, 0);
        // Depth of each child is parent depth + 1.
        for v in 1..63u32 {
            assert_eq!(
                info.depth[v as usize],
                info.depth[info.parent[v as usize] as usize] + 1
            );
        }
    }

    #[test]
    fn matches_classic_tour_semantics() {
        // Classic and DFS tours differ as sequences but must induce the
        // same parents, sizes, and depths.
        use crate::tour::{euler_tour_classic, Ranker};
        let g = gen::random_tree(500, 7);
        let pool = Pool::new(3);
        let root = 5u32;

        let classic = euler_tour_classic(&pool, 500, g.edges().to_vec(), root, Ranker::HelmanJaja);
        let ic = tree_computations(&pool, &classic, root);

        let (edges, parent) = rooted_tree_of(&g, root);
        let dfs = dfs_euler_tour(&pool, 500, edges, &parent, root);
        let id = tree_computations(&pool, &dfs, root);

        assert_eq!(ic.size, id.size);
        assert_eq!(ic.depth, id.depth);
        // Parents may differ only if the BFS parent array differs from
        // tour-derived rooting — same root, same tree ⇒ same parents.
        assert_eq!(ic.parent, id.parent);
    }

    #[test]
    fn singleton_and_single_edge() {
        let pool = Pool::new(1);
        let tour = dfs_euler_tour(&pool, 1, vec![], &[0], 0);
        assert_eq!(tour.num_arcs(), 0);

        let tour = dfs_euler_tour(&pool, 2, vec![Edge::new(1, 0)], &[0, 0], 0);
        assert_valid_tour(&tour, 0);
        assert_eq!(tour.num_arcs(), 2);
        // Edge stored as (1,0): advance arc is 2*0+1 = (0 -> 1).
        assert_eq!(tour.order, vec![1, 0]);
    }

    #[test]
    fn path_rooted_mid() {
        let g = gen::path(9);
        let pool = Pool::new(2);
        let (edges, parent) = rooted_tree_of(&g, 4);
        let tour = dfs_euler_tour(&pool, 9, edges, &parent, 4);
        assert_valid_tour(&tour, 4);
        let info = tree_computations(&pool, &tour, 4);
        assert_eq!(info.size[4], 9);
        assert_eq!(info.depth[0], 4);
        assert_eq!(info.depth[8], 4);
    }
}
