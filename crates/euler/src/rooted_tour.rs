//! Sort-free Euler-tour construction for already-rooted trees.
//!
//! The classic construction ([`crate::tour`]) sorts arcs because the
//! spanning tree arrives as a bare edge set. When the tree is already
//! rooted (parent array) — as with the BFS or work-stealing trees — the
//! tour successor function can be written down directly from a children
//! CSR, in O(1) per arc and fully in parallel, leaving list ranking as
//! the only non-trivial step. This is the construction style of Cong &
//! Bader's ICPP 2004 Euler-tour paper, and sits between the two
//! extremes the ablation compares:
//!
//! | construction | sort | ranking | emit |
//! |---|---|---|---|
//! | classic | parallel radix sort | required | — |
//! | **rooted (this)** | none | required | — |
//! | DFS-order | none | none | sequential O(n) |

use crate::tour::EulerTour;
use crate::tour::Ranker;
use crate::twin;
use bcc_graph::Edge;
use bcc_smp::atomic::as_atomic_u32;
use bcc_smp::{BccWorkspace, Pool, SharedSlice, NIL};
use std::sync::atomic::Ordering;

/// Builds the Euler tour of the rooted tree `edges`/`parent` without
/// sorting: tour successors come straight from a children CSR, then the
/// chosen list-ranking algorithm assigns positions.
pub fn rooted_euler_tour(
    pool: &Pool,
    n: u32,
    edges: Vec<Edge>,
    parent: &[u32],
    root: u32,
    ranker: Ranker,
) -> EulerTour {
    rooted_euler_tour_ws(pool, n, edges, parent, root, ranker, &BccWorkspace::new())
}

/// [`rooted_euler_tour`] with all scratch and the tour's arrays taken
/// from `ws`; return the tour's buffers with [`EulerTour::recycle`].
pub fn rooted_euler_tour_ws(
    pool: &Pool,
    n: u32,
    edges: Vec<Edge>,
    parent: &[u32],
    root: u32,
    ranker: Ranker,
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
    let num_arcs = 2 * t;

    // Children CSR (parallel counting sort by parent), remembering each
    // child's slot so "next sibling" is a constant-time lookup.
    let mut child_count = ws.take_filled(n_us, 0u32);
    {
        let cc = as_atomic_u32(&mut child_count);
        let edges_ro: &[Edge] = &edges;
        pool.run(|ctx| {
            for i in ctx.block_range(t) {
                let p = edge_parent(edges_ro[i], parent);
                cc[p as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    let mut offsets = ws.take_filled(n_us + 1, 0u32);
    offsets[1..].copy_from_slice(&child_count);
    bcc_primitives::scan::inclusive_scan_par_ws(pool, &mut offsets[1..], ws);

    let mut cursor = ws.take_filled(n_us, 0u32);
    let mut child_arc = ws.take_filled(t, NIL); // advance arcs, grouped by parent
    let mut slot_of = ws.take_filled(n_us, NIL); // child vertex -> its slot
    let mut adv_arc = ws.take_filled(n_us, NIL); // child vertex -> its advance arc
    {
        let cur = as_atomic_u32(&mut cursor);
        let ca = SharedSlice::new(&mut child_arc);
        let so = SharedSlice::new(&mut slot_of);
        let aa = SharedSlice::new(&mut adv_arc);
        let offsets_ro: &[u32] = &offsets;
        let edges_ro: &[Edge] = &edges;
        pool.run(|ctx| {
            for i in ctx.block_range(t) {
                let e = edges_ro[i];
                let p = edge_parent(e, parent);
                let c = e.other(p);
                let adv = if e.u == p {
                    2 * i as u32
                } else {
                    2 * i as u32 + 1
                };
                let slot = offsets_ro[p as usize] + cur[p as usize].fetch_add(1, Ordering::Relaxed);
                // SAFETY: slots are claimed uniquely by the cursor; each
                // child vertex appears in exactly one tree edge.
                unsafe {
                    ca.write(slot as usize, adv);
                    so.write(c as usize, slot);
                    aa.write(c as usize, adv);
                }
            }
        });
    }

    // Tour successors, one O(1) rule per arc.
    let mut succ = ws.take_filled(num_arcs, NIL);
    {
        let succ_s = SharedSlice::new(&mut succ);
        let child_arc_ro: &[u32] = &child_arc;
        let slot_ro: &[u32] = &slot_of;
        let adv_ro: &[u32] = &adv_arc;
        let offsets_ro: &[u32] = &offsets;
        let edges_ro: &[Edge] = &edges;
        pool.run(|ctx| {
            for i in ctx.block_range(t) {
                let e = edges_ro[i];
                let p = edge_parent(e, parent);
                let c = e.other(p);
                let adv = adv_ro[c as usize];
                let ret = twin(adv);
                // After descending into c: c's first child, or back up.
                let c_lo = offsets_ro[c as usize];
                let c_hi = offsets_ro[c as usize + 1];
                let after_adv = if c_lo < c_hi {
                    child_arc_ro[c_lo as usize]
                } else {
                    ret
                };
                // After returning from c: next sibling, or close out p.
                let slot = slot_ro[c as usize];
                let p_hi = offsets_ro[p as usize + 1];
                let after_ret = if slot + 1 < p_hi {
                    child_arc_ro[slot as usize + 1]
                } else if p == root {
                    NIL // tour ends back at the root
                } else {
                    twin(adv_ro[p as usize])
                };
                unsafe {
                    succ_s.write(adv as usize, after_adv);
                    succ_s.write(ret as usize, after_ret);
                }
            }
        });
    }

    let start = child_arc[offsets[root as usize] as usize];
    let pos = ranker.rank(pool, &succ, start, ws);
    let mut order = ws.take_filled(num_arcs, NIL);
    {
        let order_s = SharedSlice::new(&mut order);
        let pos_ro: &[u32] = &pos;
        pool.run(|ctx| {
            for a in ctx.block_range(num_arcs) {
                unsafe { order_s.write(pos_ro[a] as usize, a as u32) };
            }
        });
    }

    ws.give(child_count);
    ws.give(offsets);
    ws.give(cursor);
    ws.give(child_arc);
    ws.give(slot_of);
    ws.give(adv_arc);
    ws.give(succ);

    EulerTour {
        n,
        edges,
        pos,
        order,
    }
}

/// The parent-side endpoint of a tree edge under `parent`.
#[inline]
fn edge_parent(e: Edge, parent: &[u32]) -> u32 {
    if parent[e.v as usize] == e.u {
        e.u
    } else {
        debug_assert_eq!(parent[e.u as usize], e.v);
        e.v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tour::assert_valid_tour;
    use crate::tree_compute::tree_computations;
    use bcc_graph::{gen, Csr, Graph};

    fn rooted(g: &Graph, root: u32) -> Vec<u32> {
        let csr = Csr::build(g);
        let mut parent = vec![NIL; g.n() as usize];
        parent[root as usize] = root;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for &w in csr.neighbors(v) {
                if parent[w as usize] == NIL {
                    parent[w as usize] = v;
                    stack.push(w);
                }
            }
        }
        parent
    }

    #[test]
    fn valid_tours_on_families() {
        for (g, root) in [
            (gen::path(20), 0u32),
            (gen::path(20), 10),
            (gen::star(15), 0),
            (gen::star(15), 7),
            (gen::binary_tree(31), 0),
            (gen::random_tree(200, 3), 42),
        ] {
            let parent = rooted(&g, root);
            for p in [1, 4] {
                let pool = Pool::new(p);
                let tour = rooted_euler_tour(
                    &pool,
                    g.n(),
                    g.edges().to_vec(),
                    &parent,
                    root,
                    Ranker::HelmanJaja,
                );
                assert_valid_tour(&tour, root);
            }
        }
    }

    #[test]
    fn tree_computations_match_dfs_construction() {
        let g = gen::random_tree(400, 9);
        let root = 5u32;
        let parent = rooted(&g, root);
        let pool = Pool::new(3);
        let a = rooted_euler_tour(
            &pool,
            g.n(),
            g.edges().to_vec(),
            &parent,
            root,
            Ranker::Sequential,
        );
        let b = crate::dfs_tour::dfs_euler_tour(&pool, g.n(), g.edges().to_vec(), &parent, root);
        let ia = tree_computations(&pool, &a, root);
        let ib = tree_computations(&pool, &b, root);
        assert_eq!(ia.parent, ib.parent);
        assert_eq!(ia.size, ib.size);
        assert_eq!(ia.depth, ib.depth);
        // Preorders may differ (child order differs) but both are valid
        // permutations rooted at 0.
        assert_eq!(ia.preorder[root as usize], 0);
        assert_eq!(ib.preorder[root as usize], 0);
    }

    #[test]
    fn rankers_agree_on_structure() {
        // The parallel children-CSR build is order-nondeterministic, so
        // tour positions differ run to run at p > 1; what every ranker
        // must agree on is validity and the derived tree structure.
        let g = gen::random_tree(300, 1);
        let parent = rooted(&g, 0);
        let pool = Pool::new(4);
        let mut infos = Vec::new();
        for ranker in [Ranker::Sequential, Ranker::Wyllie, Ranker::HelmanJaja] {
            let tour = rooted_euler_tour(&pool, g.n(), g.edges().to_vec(), &parent, 0, ranker);
            assert_valid_tour(&tour, 0);
            infos.push(tree_computations(&pool, &tour, 0));
        }
        for w in infos.windows(2) {
            assert_eq!(w[0].parent, w[1].parent);
            assert_eq!(w[0].size, w[1].size);
            assert_eq!(w[0].depth, w[1].depth);
        }
        // At p = 1 the construction is fully deterministic and rankers
        // must produce bit-identical positions.
        let pool1 = Pool::new(1);
        let a = rooted_euler_tour(
            &pool1,
            g.n(),
            g.edges().to_vec(),
            &parent,
            0,
            Ranker::Sequential,
        );
        let b = rooted_euler_tour(
            &pool1,
            g.n(),
            g.edges().to_vec(),
            &parent,
            0,
            Ranker::Wyllie,
        );
        assert_eq!(a.pos, b.pos);
    }

    #[test]
    fn singleton_and_pair() {
        let pool = Pool::new(2);
        let tour = rooted_euler_tour(&pool, 1, vec![], &[0], 0, Ranker::Sequential);
        assert_eq!(tour.num_arcs(), 0);
        let tour = rooted_euler_tour(
            &pool,
            2,
            vec![Edge::new(0, 1)],
            &[0, 0],
            0,
            Ranker::Sequential,
        );
        assert_valid_tour(&tour, 0);
    }
}
