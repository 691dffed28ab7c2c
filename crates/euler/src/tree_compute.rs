//! Rooting and tree computations from Euler-tour positions.
//!
//! Once every arc knows its tour position, the tree structure falls out
//! of comparisons and prefix sums (paper step 3, *Root-tree*, and the
//! aggregations feeding step 4):
//!
//! * an arc is an **advance** (parent → child) iff it precedes its twin;
//! * `preorder(v)` = number of advance arcs up to and including v's
//!   advance arc (inclusive prefix sum of advance flags in tour order);
//! * `size(v)` = half the tour span between v's advance and retreat
//!   arcs, inclusive;
//! * `depth(v)` = advance-minus-retreat balance at v's advance arc.

use crate::tour::EulerTour;
use crate::twin;
use bcc_smp::atomic::as_atomic_u32;
use bcc_smp::{BccWorkspace, Pool, SharedSlice, NIL};
use std::sync::atomic::Ordering;

/// Rooted-tree data derived from an Euler tour.
#[derive(Clone, Debug)]
pub struct TreeInfo {
    /// The root the tour started at.
    pub root: u32,
    /// `parent[v]`; `parent[root] == root`.
    pub parent: Vec<u32>,
    /// Index into the tour's tree-edge list of v's parent edge (`NIL`
    /// for the root).
    pub parent_edge: Vec<u32>,
    /// Preorder number, `preorder[root] == 0`, a permutation of `0..n`.
    pub preorder: Vec<u32>,
    /// `vertex_at_preorder[q]` = the vertex with preorder number `q`.
    pub vertex_at_preorder: Vec<u32>,
    /// Subtree sizes (`size[root] == n`).
    pub size: Vec<u32>,
    /// Depth from the root (`depth[root] == 0`).
    pub depth: Vec<u32>,
}

impl TreeInfo {
    /// Half-open preorder interval `[pre(v), pre(v) + size(v))` covering
    /// exactly v's subtree.
    #[inline]
    pub fn subtree_interval(&self, v: u32) -> std::ops::Range<usize> {
        let lo = self.preorder[v as usize] as usize;
        lo..lo + self.size[v as usize] as usize
    }

    /// True if `a` is an ancestor of `d` (or equal): subtree containment
    /// via preorder intervals.
    #[inline]
    pub fn is_ancestor(&self, a: u32, d: u32) -> bool {
        let pa = self.preorder[a as usize];
        let pd = self.preorder[d as usize];
        pd >= pa && pd < pa + self.size[a as usize]
    }

    /// Returns every array to `ws` for reuse.
    pub fn recycle(self, ws: &BccWorkspace) {
        ws.give(self.parent);
        ws.give(self.parent_edge);
        ws.give(self.preorder);
        ws.give(self.vertex_at_preorder);
        ws.give(self.size);
        ws.give(self.depth);
    }
}

/// Derives rooting, preorder, subtree sizes, and depths from `tour`.
pub fn tree_computations(pool: &Pool, tour: &EulerTour, root: u32) -> TreeInfo {
    tree_computations_ws(pool, tour, root, &BccWorkspace::new())
}

/// [`tree_computations`] with all scratch and the result arrays taken
/// from `ws`; return the result's arrays with [`TreeInfo::recycle`].
pub fn tree_computations_ws(
    pool: &Pool,
    tour: &EulerTour,
    root: u32,
    ws: &BccWorkspace,
) -> TreeInfo {
    let n = tour.n as usize;
    let num_arcs = tour.num_arcs();
    let t = num_arcs / 2;

    if n == 1 {
        return TreeInfo {
            root,
            parent: vec![root],
            parent_edge: vec![NIL],
            preorder: vec![0],
            vertex_at_preorder: vec![root],
            size: vec![1],
            depth: vec![0],
        };
    }

    // Rooting: the earlier arc of each twin pair points parent → child.
    let mut parent = ws.take_filled(n, NIL);
    let mut parent_edge = ws.take_filled(n, NIL);
    let mut adv_arc = ws.take_filled(n, NIL); // v's advance arc
    {
        let par_s = SharedSlice::new(&mut parent);
        let pe_s = SharedSlice::new(&mut parent_edge);
        let aa_s = SharedSlice::new(&mut adv_arc);
        pool.run(|ctx| {
            for i in ctx.block_range(t) {
                let e = tour.edges[i];
                let fwd = 2 * i as u32; // u -> v
                let (adv, child, par) = if tour.pos[fwd as usize] < tour.pos[twin(fwd) as usize] {
                    (fwd, e.v, e.u)
                } else {
                    (twin(fwd), e.u, e.v)
                };
                // Each child vertex has exactly one advance arc (its
                // parent edge), so these writes are disjoint.
                unsafe {
                    par_s.write(child as usize, par);
                    pe_s.write(child as usize, i as u32);
                    aa_s.write(child as usize, adv);
                }
            }
            if ctx.is_leader() {
                unsafe { par_s.write(root as usize, root) };
            }
        });
    }

    // Advance flags in tour order, scanned inclusively: S[j] = number of
    // advance arcs at positions <= j.
    let mut adv_scan = ws.take_filled(num_arcs, 0u32);
    let mut depth_scan = ws.take_filled(num_arcs, 0i32);
    {
        let as_s = SharedSlice::new(&mut adv_scan);
        let ds_s = SharedSlice::new(&mut depth_scan);
        pool.run(|ctx| {
            for j in ctx.block_range(num_arcs) {
                let a = tour.order[j];
                let advance = tour.pos[a as usize] < tour.pos[twin(a) as usize];
                unsafe {
                    as_s.write(j, u32::from(advance));
                    ds_s.write(j, if advance { 1 } else { -1 });
                }
            }
        });
    }
    bcc_primitives::scan::inclusive_scan_par_ws(pool, &mut adv_scan, ws);
    bcc_primitives::scan::inclusive_scan_par_ws(pool, &mut depth_scan, ws);

    // Per-vertex quantities.
    let mut preorder = ws.take_filled(n, 0u32);
    let mut size = ws.take_filled(n, 0u32);
    let mut depth = ws.take_filled(n, 0u32);
    {
        let pre_s = SharedSlice::new(&mut preorder);
        let size_s = SharedSlice::new(&mut size);
        let dep_s = SharedSlice::new(&mut depth);
        let adv_arc_ro: &[u32] = &adv_arc;
        let adv_scan_ro: &[u32] = &adv_scan;
        let depth_scan_ro: &[i32] = &depth_scan;
        pool.run(|ctx| {
            for v in ctx.block_range(n) {
                if v as u32 == root {
                    unsafe {
                        pre_s.write(v, 0);
                        size_s.write(v, n as u32);
                        dep_s.write(v, 0);
                    }
                    continue;
                }
                let a = adv_arc_ro[v];
                debug_assert_ne!(a, NIL, "vertex {v} missing from tour");
                let pa = tour.pos[a as usize] as usize;
                let pr = tour.pos[twin(a) as usize] as usize;
                unsafe {
                    pre_s.write(v, adv_scan_ro[pa]);
                    size_s.write(v, (pr - pa).div_ceil(2) as u32);
                    dep_s.write(v, depth_scan_ro[pa] as u32);
                }
            }
        });
    }

    // Inverse preorder permutation.
    let mut vertex_at_preorder = ws.take_filled(n, 0u32);
    {
        let inv_s = SharedSlice::new(&mut vertex_at_preorder);
        let pre_ro: &[u32] = &preorder;
        pool.run(|ctx| {
            for v in ctx.block_range(n) {
                unsafe { inv_s.write(pre_ro[v] as usize, v as u32) };
            }
        });
    }

    ws.give(adv_arc);
    ws.give(adv_scan);
    ws.give(depth_scan);

    TreeInfo {
        root,
        parent,
        parent_edge,
        preorder,
        vertex_at_preorder,
        size,
        depth,
    }
}

/// Derives the same [`TreeInfo`] directly from a **BFS** tree's
/// `parent`/`level` arrays — no Euler tour, no list ranking (the
/// FAST-BCC skeleton path).
///
/// A BFS tree's levels *are* depths (every parent sits exactly one
/// level up), which makes every tree computation level-synchronous:
/// vertices are counting-sorted by level, subtree sizes aggregate
/// bottom-up one level per round, and preorder numbers distribute
/// top-down one level per round. Auxiliary space is O(n) — one
/// children-CSR plus the level buckets — versus the tour path's arc
/// arrays and ranking scratch; rounds are O(tree depth), which is
/// O(graph diameter) for a BFS tree, and a round over a level of
/// fewer than [`GRAIN`](bcc_smp::GRAIN) vertices runs on the calling
/// thread ([`Pool::run_sized`]) instead of the pool.
///
/// Preconditions: `parent[root] == root`, every vertex is reached
/// (`parent[v] != NIL`), and `level[v]` is v's BFS depth. Sibling
/// order (hence the exact preorder permutation) is unspecified but
/// valid; all consumers ([`TreeInfo::is_ancestor`], low/high, the
/// aux-graph conditions) depend only on preorder/size consistency.
/// `parent_edge` is filled with `NIL` — the tail kernels never read
/// it, and the skeleton path has no per-tree-edge numbering.
pub fn bfs_tree_info(pool: &Pool, parent: &[u32], level: &[u32], root: u32) -> TreeInfo {
    bfs_tree_info_ws(pool, parent, level, root, &BccWorkspace::new())
}

/// [`bfs_tree_info`] with all scratch and the result arrays taken from
/// `ws`; return the result's arrays with [`TreeInfo::recycle`].
pub fn bfs_tree_info_ws(
    pool: &Pool,
    parent: &[u32],
    level: &[u32],
    root: u32,
    ws: &BccWorkspace,
) -> TreeInfo {
    let n = parent.len();
    debug_assert_eq!(level.len(), n);
    debug_assert_eq!(parent[root as usize], root);

    if n == 1 {
        return TreeInfo {
            root,
            parent: vec![root],
            parent_edge: vec![NIL],
            preorder: vec![0],
            vertex_at_preorder: vec![root],
            size: vec![1],
            depth: vec![0],
        };
    }

    // Owned copies of the inputs (TreeInfo owns its arrays) plus the
    // inert parent_edge.
    let mut parent_c = ws.take_filled(n, 0u32);
    let mut depth = ws.take_filled(n, 0u32);
    let parent_edge = ws.take_filled(n, NIL);
    {
        let par_s = SharedSlice::new(&mut parent_c);
        let dep_s = SharedSlice::new(&mut depth);
        pool.run(|ctx| {
            for v in ctx.block_range(n) {
                unsafe {
                    par_s.write(v, parent[v]);
                    dep_s.write(v, level[v]);
                }
            }
        });
    }

    // Bucket vertices by level (counting sort, the low/high sweep's
    // idiom) so each level is a contiguous slice.
    let max_depth = level.iter().copied().max().unwrap_or(0) as usize;
    let mut bucket_of = ws.take_filled(max_depth + 2, 0u32);
    for &d in level {
        bucket_of[d as usize + 1] += 1;
    }
    for d in 0..=max_depth {
        bucket_of[d + 1] += bucket_of[d];
    }
    let mut by_level = ws.take_filled(n, 0u32);
    {
        let mut cursor: Vec<u32> = ws.take(bucket_of.len());
        cursor.extend_from_slice(&bucket_of);
        for v in 0..n as u32 {
            let d = level[v as usize] as usize;
            by_level[cursor[d] as usize] = v;
            cursor[d] += 1;
        }
        ws.give(cursor);
    }

    // Children CSR: counts by atomic increment, offsets by scan, then a
    // racy scatter (sibling order is whatever the scatter produced —
    // any order yields a valid preorder).
    let mut child_off = ws.take_filled(n + 1, 0u32);
    {
        let cnt = as_atomic_u32(&mut child_off[1..]);
        pool.run(|ctx| {
            for v in ctx.block_range(n) {
                if v as u32 != root {
                    cnt[parent[v] as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }
    bcc_primitives::scan::inclusive_scan_par_ws(pool, &mut child_off, ws);
    let mut children = ws.take_filled(n - 1, 0u32);
    {
        let mut cursor: Vec<u32> = ws.take(n);
        cursor.extend_from_slice(&child_off[..n]);
        let cur = as_atomic_u32(&mut cursor);
        let ch_s = SharedSlice::new(&mut children);
        pool.run(|ctx| {
            for v in ctx.block_range(n) {
                if v as u32 != root {
                    let slot = cur[parent[v] as usize].fetch_add(1, Ordering::Relaxed);
                    unsafe { ch_s.write(slot as usize, v as u32) };
                }
            }
        });
        ws.give(cursor);
    }

    // Subtree sizes bottom-up: one round per level, deepest first, on
    // the pool only when the level holds at least GRAIN vertices. A
    // vertex at level d reads only children (level d + 1), already
    // final — no atomics.
    let mut size = ws.take_filled(n, 1u32);
    {
        let size_s = SharedSlice::new(&mut size);
        let children_ro: &[u32] = &children;
        let off_ro: &[u32] = &child_off;
        for d in (0..max_depth).rev() {
            let lvl = &by_level[bucket_of[d] as usize..bucket_of[d + 1] as usize];
            pool.run_sized(lvl.len(), |ctx| {
                for k in ctx.block_range(lvl.len()) {
                    let v = lvl[k] as usize;
                    let mut s = 1u32;
                    for &c in &children_ro[off_ro[v] as usize..off_ro[v + 1] as usize] {
                        s += size_s.get(c as usize);
                    }
                    unsafe { size_s.write(v, s) };
                }
            });
        }
    }
    debug_assert_eq!(size[root as usize] as usize, n);

    // Preorder top-down: each vertex hands its children disjoint
    // subranges of its own interval (serial per parent; parents of one
    // level run in parallel when the level holds at least GRAIN).
    let mut preorder = ws.take_filled(n, 0u32);
    {
        let pre_s = SharedSlice::new(&mut preorder);
        let children_ro: &[u32] = &children;
        let off_ro: &[u32] = &child_off;
        let size_ro: &[u32] = &size;
        for d in 0..max_depth {
            let lvl = &by_level[bucket_of[d] as usize..bucket_of[d + 1] as usize];
            pool.run_sized(lvl.len(), |ctx| {
                for k in ctx.block_range(lvl.len()) {
                    let v = lvl[k] as usize;
                    let mut cursor = pre_s.get(v) + 1;
                    for &c in &children_ro[off_ro[v] as usize..off_ro[v + 1] as usize] {
                        unsafe { pre_s.write(c as usize, cursor) };
                        cursor += size_ro[c as usize];
                    }
                }
            });
        }
    }

    // Inverse preorder permutation.
    let mut vertex_at_preorder = ws.take_filled(n, 0u32);
    {
        let inv_s = SharedSlice::new(&mut vertex_at_preorder);
        let pre_ro: &[u32] = &preorder;
        pool.run(|ctx| {
            for v in ctx.block_range(n) {
                unsafe { inv_s.write(pre_ro[v] as usize, v as u32) };
            }
        });
    }

    ws.give(bucket_of);
    ws.give(by_level);
    ws.give(child_off);
    ws.give(children);

    TreeInfo {
        root,
        parent: parent_c,
        parent_edge,
        preorder,
        vertex_at_preorder,
        size,
        depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tour::{euler_tour_classic, Ranker};
    use bcc_graph::{gen, Csr, Edge, GraphBuilder};

    /// Sequential DFS oracle for preorder/size/depth given a rooted tree.
    fn oracle(n: u32, edges: &[Edge], root: u32) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
        let g = GraphBuilder::new(n).edges(edges.to_vec()).build().unwrap();
        let csr = Csr::build(&g);
        let n = n as usize;
        let mut parent = vec![NIL; n];
        let mut pre = vec![0u32; n];
        let mut size = vec![1u32; n];
        let mut depth = vec![0u32; n];
        parent[root as usize] = root;
        // DFS that mirrors the tour's child order is unnecessary: only
        // *relative structure* (parent, sizes, depth) is compared;
        // preorder is checked for permutation + ancestry consistency.
        let mut order = vec![];
        let mut stack = vec![root];
        let mut counter = 0u32;
        while let Some(v) = stack.pop() {
            pre[v as usize] = counter;
            counter += 1;
            order.push(v);
            for &w in csr.neighbors(v) {
                if parent[w as usize] == NIL && w != root {
                    parent[w as usize] = v;
                    depth[w as usize] = depth[v as usize] + 1;
                    stack.push(w);
                }
            }
        }
        for &v in order.iter().rev() {
            if v != root {
                let p = parent[v as usize];
                size[p as usize] += size[v as usize];
            }
        }
        (parent, pre, size, depth)
    }

    fn check_tree(n: u32, edges: Vec<Edge>, root: u32, p: usize) {
        let pool = Pool::new(p);
        let tour = euler_tour_classic(&pool, n, edges.clone(), root, Ranker::HelmanJaja);
        let info = tree_computations(&pool, &tour, root);
        let (oparent, _opre, osize, odepth) = oracle(n, &edges, root);

        assert_eq!(info.parent, oparent, "parents (n={n} root={root})");
        assert_eq!(info.size, osize, "sizes");
        assert_eq!(info.depth, odepth, "depths");

        // Preorder is a permutation with root first.
        let mut sorted = info.preorder.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &x)| x == i as u32));
        assert_eq!(info.preorder[root as usize], 0);

        // Preorder/size ancestry: child interval nested in parent's.
        for v in 0..n {
            if v != root {
                let pv = info.parent[v as usize];
                assert!(info.is_ancestor(pv, v));
                assert!(!info.is_ancestor(v, pv));
                let ci = info.subtree_interval(v);
                let pi = info.subtree_interval(pv);
                assert!(pi.start <= ci.start && ci.end <= pi.end);
            }
        }

        // Inverse permutation consistent.
        for v in 0..n {
            assert_eq!(
                info.vertex_at_preorder[info.preorder[v as usize] as usize],
                v
            );
        }

        // parent_edge indexes the correct tree edge.
        for v in 0..n {
            if v == root {
                assert_eq!(info.parent_edge[v as usize], NIL);
            } else {
                let e = edges[info.parent_edge[v as usize] as usize];
                let p = info.parent[v as usize];
                assert!((e.u == v && e.v == p) || (e.v == v && e.u == p));
            }
        }
    }

    #[test]
    fn path_tree() {
        check_tree(10, gen::path(10).into_edges(), 0, 2);
        check_tree(10, gen::path(10).into_edges(), 9, 2);
        check_tree(10, gen::path(10).into_edges(), 4, 3);
    }

    #[test]
    fn star_and_binary_trees() {
        check_tree(20, gen::star(20).into_edges(), 0, 2);
        check_tree(20, gen::star(20).into_edges(), 11, 4);
        check_tree(31, gen::binary_tree(31).into_edges(), 0, 3);
    }

    #[test]
    fn random_trees_various_roots_and_threads() {
        for seed in 0..3u64 {
            let g = gen::random_tree(300, seed);
            for p in [1, 4] {
                for root in [0u32, 150, 299] {
                    check_tree(300, g.edges().to_vec(), root, p);
                }
            }
        }
    }

    #[test]
    fn singleton() {
        let pool = Pool::new(2);
        let tour = euler_tour_classic(&pool, 1, vec![], 0, Ranker::Sequential);
        let info = tree_computations(&pool, &tour, 0);
        assert_eq!(info.preorder, vec![0]);
        assert_eq!(info.size, vec![1]);
        assert_eq!(info.parent, vec![0]);
    }

    #[test]
    fn two_vertices() {
        check_tree(2, vec![Edge::new(0, 1)], 0, 1);
        check_tree(2, vec![Edge::new(0, 1)], 1, 2);
    }

    /// Oracle for the BFS-skeleton path: recompute sizes/depths
    /// sequentially from the parent array itself.
    fn check_bfs_info(n: u32, edges: Vec<Edge>, root: u32, p: usize) {
        use bcc_connectivity::bfs::bfs_tree_seq;
        let g = GraphBuilder::new(n).edges(edges).build().unwrap();
        let csr = Csr::build(&g);
        let bfs = bfs_tree_seq(&csr, root);
        assert_eq!(bfs.reached, n, "test graphs must be connected");

        let pool = Pool::new(p);
        let info = bfs_tree_info(&pool, &bfs.parent, &bfs.level, root);
        let ws = bcc_smp::BccWorkspace::default();
        let info_ws = bfs_tree_info_ws(&pool, &bfs.parent, &bfs.level, root, &ws);

        let n = n as usize;
        assert_eq!(info.parent, bfs.parent);
        assert_eq!(info.depth, bfs.level);
        assert_eq!(info.parent_edge, vec![NIL; n]);

        // Sequential size oracle from the parent array (children
        // counted by repeated parent-chasing is O(n^2); instead
        // accumulate leaf-up by sorting on depth).
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(bfs.level[v as usize]));
        let mut osize = vec![1u32; n];
        for &v in &order {
            if v != root {
                osize[bfs.parent[v as usize] as usize] += osize[v as usize];
            }
        }
        assert_eq!(info.size, osize, "sizes");

        // Preorder is a permutation with root first; subtree intervals
        // nest; inverse permutation consistent.
        let mut sorted = info.preorder.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &x)| x == i as u32));
        assert_eq!(info.preorder[root as usize], 0);
        for v in 0..n as u32 {
            if v != root {
                let pv = info.parent[v as usize];
                assert!(info.is_ancestor(pv, v));
                assert!(!info.is_ancestor(v, pv));
                let ci = info.subtree_interval(v);
                let pi = info.subtree_interval(pv);
                assert!(pi.start <= ci.start && ci.end <= pi.end);
            }
            assert_eq!(
                info.vertex_at_preorder[info.preorder[v as usize] as usize],
                v
            );
        }

        // The ws-backed variant agrees on everything deterministic.
        assert_eq!(info_ws.parent, info.parent);
        assert_eq!(info_ws.depth, info.depth);
        assert_eq!(info_ws.size, info.size);
        info_ws.recycle(&ws);
    }

    #[test]
    fn bfs_info_paths_stars_trees() {
        check_bfs_info(10, gen::path(10).into_edges(), 0, 2);
        check_bfs_info(10, gen::path(10).into_edges(), 9, 1);
        check_bfs_info(20, gen::star(20).into_edges(), 0, 2);
        check_bfs_info(20, gen::star(20).into_edges(), 7, 3);
        check_bfs_info(31, gen::binary_tree(31).into_edges(), 0, 2);
    }

    #[test]
    fn bfs_info_random_trees_and_graphs() {
        for seed in 0..3u64 {
            let t = gen::random_tree(300, seed);
            for p in [1, 4] {
                for root in [0u32, 150, 299] {
                    check_bfs_info(300, t.edges().to_vec(), root, p);
                }
            }
            // Connected non-tree graph: BFS picks a subset of edges.
            let g = gen::geometric(200, 6.0, 8, seed);
            check_bfs_info(g.n(), g.edges().to_vec(), 0, 2);
        }
    }

    #[test]
    fn bfs_info_singleton() {
        let pool = Pool::new(1);
        let info = bfs_tree_info(&pool, &[0], &[0], 0);
        assert_eq!(info.preorder, vec![0]);
        assert_eq!(info.size, vec![1]);
        assert_eq!(info.parent, vec![0]);
        assert_eq!(info.parent_edge, vec![NIL]);
    }

    /// The BFS-skeleton tags must agree with the Euler-tour tags when
    /// both are given the *same* tree (sizes and depths are
    /// tree-determined; preorders may differ only in sibling order).
    #[test]
    fn bfs_info_matches_tour_tags_on_trees() {
        use bcc_connectivity::bfs::bfs_tree_seq;
        for seed in 0..3u64 {
            let t = gen::random_tree(200, seed);
            let pool = Pool::new(2);
            let csr = Csr::build(&t);
            let bfs = bfs_tree_seq(&csr, 0);
            let info_bfs = bfs_tree_info(&pool, &bfs.parent, &bfs.level, 0);
            let tour = euler_tour_classic(&pool, 200, t.edges().to_vec(), 0, Ranker::HelmanJaja);
            let info_tour = tree_computations(&pool, &tour, 0);
            // On a tree the BFS tree IS the tree, so everything
            // tree-determined must match exactly.
            assert_eq!(info_bfs.parent, info_tour.parent);
            assert_eq!(info_bfs.size, info_tour.size);
            assert_eq!(info_bfs.depth, info_tour.depth);
        }
    }
}
