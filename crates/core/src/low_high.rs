//! The Low-high step (paper step 4).
//!
//! `low(v)` = smallest preorder number that is either in v's subtree or
//! adjacent to v's subtree by a nontree edge; `high(v)` the largest.
//! Every nontree edge must be inspected — the cost TV-filter attacks by
//! shrinking the edge set first.
//!
//! SMP realization: per-vertex keys
//! `low(u) = min(pre(u), min{pre(w) : (u,w) nontree})` (and `high`
//! alike) scattered with atomic min/max, then a level-synchronous
//! bottom-up sweep over the tree: vertices bucketed by depth,
//! deepest level first, each vertex folding its values into its
//! parent. O(n + m) work and O(n) space, low and high in the same
//! passes; every pipeline runs it. [`compute_low_high_two_pass`]
//! aggregates with O(n log n) sparse tables instead — the equivalence
//! reference the tests check the sweep against.

use bcc_euler::TreeInfo;
use bcc_graph::Edge;
use bcc_primitives::{Extremum, RangeTable};
use bcc_smp::atomic::{as_atomic_u32, fetch_max_u32, fetch_min_u32};
use bcc_smp::workspace::{alloc_cap, alloc_filled, give_opt};
use bcc_smp::{BccWorkspace, Pool, SharedSlice};

/// Per-vertex low/high values, in preorder numbers.
#[derive(Clone, Debug)]
pub struct LowHigh {
    /// `low[v]`, a preorder number.
    pub low: Vec<u32>,
    /// `high[v]`, a preorder number.
    pub high: Vec<u32>,
}

impl LowHigh {
    /// Returns both arrays to `ws` for reuse.
    pub fn recycle(self, ws: &BccWorkspace) {
        ws.give(self.low);
        ws.give(self.high);
    }
}

/// Levels narrower than this are folded on the calling thread instead
/// of paying a pool round (wake, block split, barrier). At this value
/// the sweep beat the range table in every pipeline on both repository
/// benchmark workloads (R-MAT and road lattice) at p = 2.
const SERIAL_LEVEL: usize = 4096;

/// Computes low/high for all vertices with the level sweep.
///
/// `is_tree_edge[i]` flags the spanning-tree edges within `edges`;
/// `info` is the rooted-tree data for that spanning tree.
pub fn compute_low_high(
    pool: &Pool,
    edges: &[Edge],
    is_tree_edge: &[bool],
    info: &TreeInfo,
) -> LowHigh {
    low_high_level_sweep(pool, edges, is_tree_edge, info, None)
}

/// [`compute_low_high`] with the result and all scratch taken from
/// `ws`; return the result's arrays with [`LowHigh::recycle`].
pub fn compute_low_high_ws(
    pool: &Pool,
    edges: &[Edge],
    is_tree_edge: &[bool],
    info: &TreeInfo,
    ws: &BccWorkspace,
) -> LowHigh {
    low_high_level_sweep(pool, edges, is_tree_edge, info, Some(ws))
}

/// The sparse-table reference construction: keys scattered into
/// preorder order, two [`RangeTable`]s (range min and range max over
/// the keys), and one O(1) query per vertex over its preorder-contiguous
/// subtree interval. O(n log n) work and space. Kept for the
/// equivalence tests; the pipelines use the sweep of
/// [`compute_low_high`].
pub fn compute_low_high_two_pass(
    pool: &Pool,
    edges: &[Edge],
    is_tree_edge: &[bool],
    info: &TreeInfo,
) -> LowHigh {
    let n = info.preorder.len();
    let m = edges.len();

    let mut key_min: Vec<u32> = (0..n as u32).collect();
    let mut key_max: Vec<u32> = (0..n as u32).collect();
    {
        let kmin = as_atomic_u32(&mut key_min);
        let kmax = as_atomic_u32(&mut key_max);
        let pre = &info.preorder;
        pool.run(|ctx| {
            for i in ctx.block_range(m) {
                if is_tree_edge[i] {
                    continue;
                }
                let e = edges[i];
                let pu = pre[e.u as usize];
                let pv = pre[e.v as usize];
                fetch_min_u32(&kmin[pu as usize], pv);
                fetch_min_u32(&kmin[pv as usize], pu);
                fetch_max_u32(&kmax[pu as usize], pv);
                fetch_max_u32(&kmax[pv as usize], pu);
            }
        });
    }

    let tmin = RangeTable::build(pool, &key_min, Extremum::Min);
    let tmax = RangeTable::build(pool, &key_max, Extremum::Max);

    let mut low = vec![0u32; n];
    let mut high = vec![0u32; n];
    {
        let low_s = SharedSlice::new(&mut low);
        let high_s = SharedSlice::new(&mut high);
        pool.run(|ctx| {
            for v in ctx.block_range(n) {
                let r = info.subtree_interval(v as u32);
                unsafe {
                    low_s.write(v, tmin.query(r.start, r.end));
                    high_s.write(v, tmax.query(r.start, r.end));
                }
            }
        });
    }
    LowHigh { low, high }
}

/// Level-synchronous bottom-up aggregation: vertices are bucketed by
/// depth; sweeping levels deepest-first, each vertex folds its value
/// into its parent with an atomic min/max. One barrier per level of at
/// least [`SERIAL_LEVEL`] vertices; narrower levels run serially.
fn low_high_level_sweep(
    pool: &Pool,
    edges: &[Edge],
    is_tree_edge: &[bool],
    info: &TreeInfo,
    ws: Option<&BccWorkspace>,
) -> LowHigh {
    let n = info.preorder.len();
    let m = edges.len();

    // Per-VERTEX keys this time (no preorder indirection needed).
    let mut low: Vec<u32> = alloc_filled(ws, n, 0);
    let mut high: Vec<u32> = alloc_filled(ws, n, 0);
    {
        let low_s = SharedSlice::new(&mut low);
        let high_s = SharedSlice::new(&mut high);
        let pre = &info.preorder;
        pool.run(|ctx| {
            for v in ctx.block_range(n) {
                let p = pre[v];
                unsafe {
                    low_s.write(v, p);
                    high_s.write(v, p);
                }
            }
        });
    }
    {
        let lo = as_atomic_u32(&mut low);
        let hi = as_atomic_u32(&mut high);
        let pre = &info.preorder;
        pool.run(|ctx| {
            for i in ctx.block_range(m) {
                if is_tree_edge[i] {
                    continue;
                }
                let e = edges[i];
                let pu = pre[e.u as usize];
                let pv = pre[e.v as usize];
                fetch_min_u32(&lo[e.u as usize], pv);
                fetch_min_u32(&lo[e.v as usize], pu);
                fetch_max_u32(&hi[e.u as usize], pv);
                fetch_max_u32(&hi[e.v as usize], pu);
            }
        });
    }

    // Bucket vertices by depth (counting sort).
    let max_depth = info.depth.iter().copied().max().unwrap_or(0) as usize;
    let mut bucket_of = alloc_filled(ws, max_depth + 2, 0u32);
    for &d in &info.depth {
        bucket_of[d as usize + 1] += 1;
    }
    for d in 0..=max_depth {
        bucket_of[d + 1] += bucket_of[d];
    }
    let mut by_level = alloc_filled(ws, n, 0u32);
    {
        let mut cursor: Vec<u32> = alloc_cap(ws, bucket_of.len());
        cursor.extend_from_slice(&bucket_of);
        for v in 0..n as u32 {
            let d = info.depth[v as usize] as usize;
            by_level[cursor[d] as usize] = v;
            cursor[d] += 1;
        }
        give_opt(ws, cursor);
    }

    // Sweep levels deepest-first.
    {
        let lo = as_atomic_u32(&mut low);
        let hi = as_atomic_u32(&mut high);
        let fold = |v: u32| {
            let v = v as usize;
            let p = info.parent[v] as usize;
            fetch_min_u32(&lo[p], lo[v].load(std::sync::atomic::Ordering::Relaxed));
            fetch_max_u32(&hi[p], hi[v].load(std::sync::atomic::Ordering::Relaxed));
        };
        for d in (1..=max_depth).rev() {
            let level = &by_level[bucket_of[d] as usize..bucket_of[d + 1] as usize];
            if level.len() < SERIAL_LEVEL {
                level.iter().for_each(|&v| fold(v));
            } else {
                pool.run(|ctx| ctx.block_range(level.len()).for_each(|k| fold(level[k])));
            }
        }
    }

    give_opt(ws, bucket_of);
    give_opt(ws, by_level);

    LowHigh { low, high }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_connectivity::bfs::bfs_tree_seq;
    use bcc_euler::{dfs_euler_tour, tree_computations};
    use bcc_graph::{gen, Csr, Graph, GraphBuilder};
    use bcc_smp::NIL;

    /// Builds (edges, is_tree, info) for `g` rooted at `root` using a
    /// BFS tree.
    fn setup(g: &Graph, root: u32, pool: &Pool) -> (Vec<Edge>, Vec<bool>, TreeInfo) {
        let csr = Csr::build(g);
        let bfs = bfs_tree_seq(&csr, root);
        let mut is_tree = vec![false; g.m()];
        for &e in &bfs.tree_edge_ids() {
            is_tree[e as usize] = true;
        }
        let tree_edges: Vec<Edge> = bfs
            .tree_edge_ids()
            .iter()
            .map(|&i| g.edges()[i as usize])
            .collect();
        let tour = dfs_euler_tour(pool, g.n(), tree_edges, &bfs.parent, root);
        let info = tree_computations(pool, &tour, root);
        (g.edges().to_vec(), is_tree, info)
    }

    /// O(n·m) oracle straight from the definition.
    fn oracle(edges: &[Edge], is_tree: &[bool], info: &TreeInfo) -> (Vec<u32>, Vec<u32>) {
        let n = info.preorder.len();
        let mut low = vec![0u32; n];
        let mut high = vec![0u32; n];
        for v in 0..n as u32 {
            let mut lo = u32::MAX;
            let mut hi = 0u32;
            for d in 0..n as u32 {
                if info.is_ancestor(v, d) {
                    lo = lo.min(info.preorder[d as usize]);
                    hi = hi.max(info.preorder[d as usize]);
                    for (i, e) in edges.iter().enumerate() {
                        if is_tree[i] {
                            continue;
                        }
                        if e.u == d {
                            lo = lo.min(info.preorder[e.v as usize]);
                            hi = hi.max(info.preorder[e.v as usize]);
                        }
                        if e.v == d {
                            lo = lo.min(info.preorder[e.u as usize]);
                            hi = hi.max(info.preorder[e.u as usize]);
                        }
                    }
                }
            }
            low[v as usize] = lo;
            high[v as usize] = hi;
        }
        (low, high)
    }

    #[test]
    fn level_sweep_on_deep_tree() {
        // Worst case for the sweep: a path rooted at one end.
        let g = gen::path(300);
        let pool = Pool::new(2);
        let (edges, is_tree, info) = setup(&g, 0, &pool);
        let a = compute_low_high(&pool, &edges, &is_tree, &info);
        let b = compute_low_high_two_pass(&pool, &edges, &is_tree, &info);
        assert_eq!(a.low, b.low);
        assert_eq!(a.high, b.high);
    }

    /// Vertices on the tree's most populous level.
    fn widest_level(info: &TreeInfo) -> usize {
        let mut width = vec![0usize; info.preorder.len()];
        for &d in &info.depth {
            width[d as usize] += 1;
        }
        width.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn fused_matches_two_pass_and_ws_rerun_is_all_hits() {
        // The small inputs fold every level serially; the n = 20k ones
        // have BFS levels of at least SERIAL_LEVEL vertices, so the
        // sweep's pool-parallel branch runs too.
        let small = (0..4u64).map(|seed| gen::random_connected(150, 450, seed));
        let wide = (0..3u64).map(|seed| gen::random_connected(20_000, 80_000, seed));
        for (k, g) in small.chain(wide).enumerate() {
            for p in [1, 3] {
                let pool = Pool::new(p);
                let (edges, is_tree, info) = setup(&g, 0, &pool);
                if g.n() as usize > SERIAL_LEVEL {
                    assert!(widest_level(&info) >= SERIAL_LEVEL, "input {k}");
                }
                let a = compute_low_high(&pool, &edges, &is_tree, &info);
                let b = compute_low_high_two_pass(&pool, &edges, &is_tree, &info);
                assert_eq!(a.low, b.low, "input {k} p={p}");
                assert_eq!(a.high, b.high, "input {k} p={p}");

                let ws = BccWorkspace::new();
                compute_low_high_ws(&pool, &edges, &is_tree, &info, &ws).recycle(&ws);
                let before = ws.stats();
                let again = compute_low_high_ws(&pool, &edges, &is_tree, &info, &ws);
                assert_eq!(again.low, b.low, "input {k} p={p}");
                assert_eq!(again.high, b.high, "input {k} p={p}");
                again.recycle(&ws);
                let delta = ws.stats().delta_since(&before);
                assert_eq!(delta.misses, 0, "input {k} p={p}: rerun must not miss");
            }
        }
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..6u64 {
            let g = gen::random_connected(60, 150, seed);
            for p in [1, 4] {
                let pool = Pool::new(p);
                let (edges, is_tree, info) = setup(&g, 0, &pool);
                let lh = compute_low_high(&pool, &edges, &is_tree, &info);
                let (olow, ohigh) = oracle(&edges, &is_tree, &info);
                assert_eq!(lh.low, olow, "low seed={seed} p={p}");
                assert_eq!(lh.high, ohigh, "high seed={seed} p={p}");
            }
        }
    }

    #[test]
    fn tree_low_high_are_subtree_extremes() {
        // With no nontree edges, low(v)=pre(v) and high(v)=pre(v)+size(v)-1.
        let g = gen::random_tree(100, 5);
        let pool = Pool::new(2);
        let (edges, is_tree, info) = setup(&g, 0, &pool);
        let lh = compute_low_high(&pool, &edges, &is_tree, &info);
        for v in 0..100u32 {
            assert_eq!(lh.low[v as usize], info.preorder[v as usize]);
            assert_eq!(
                lh.high[v as usize],
                info.preorder[v as usize] + info.size[v as usize] - 1
            );
        }
    }

    #[test]
    fn cycle_low_of_everyone_is_zero() {
        // On a cycle rooted anywhere, the single back edge links the
        // deepest vertex to the root: low(v)=0 for all v.
        let g = gen::cycle(12);
        let pool = Pool::new(3);
        let (edges, is_tree, info) = setup(&g, 4, &pool);
        assert_eq!(is_tree.iter().filter(|&&t| !t).count(), 1);
        let lh = compute_low_high(&pool, &edges, &is_tree, &info);
        for v in 0..12u32 {
            let _ = v;
        }
        // Every vertex's subtree contains or touches the back edge's
        // endpoints chain down to preorder 0 only along one branch;
        // check against the oracle instead of hand-reasoning.
        let (olow, ohigh) = oracle(&edges, &is_tree, &info);
        assert_eq!(lh.low, olow);
        assert_eq!(lh.high, ohigh);
        assert_eq!(lh.low[info.root as usize], 0);
        assert_eq!(lh.high[info.root as usize], 11);
    }

    #[test]
    fn singleton_graph() {
        let g = GraphBuilder::new(1).build().unwrap();
        let pool = Pool::new(2);
        let (edges, is_tree, info) = setup(&g, 0, &pool);
        let lh = compute_low_high(&pool, &edges, &is_tree, &info);
        assert_eq!(lh.low, vec![0]);
        assert_eq!(lh.high, vec![0]);
    }

    #[test]
    fn nontree_flags_nil_consistency() {
        // parent_edge of root is NIL; make sure setup produced sane data.
        let g = gen::complete(6);
        let pool = Pool::new(1);
        let (_, is_tree, info) = setup(&g, 2, &pool);
        assert_eq!(info.parent_edge[2], NIL);
        assert_eq!(is_tree.iter().filter(|&&t| t).count(), 5);
    }
}
