//! Lowest common ancestors by binary lifting.
//!
//! A standard companion to the Euler-tour tree computations: once
//! parents and depths are known, an O(n log n) jump table answers
//! `lca(u, v)` in O(log n). The table build is level-parallel (level k
//! is a data-parallel gather from level k−1, on the pool from
//! [`GRAIN`](bcc_smp::GRAIN) vertices up). Used by downstream
//! consumers of the rooted spanning tree (e.g. cycle analysis of
//! nontree edges, as in the paper's Lemma 2 proof).

use crate::tree_compute::TreeInfo;
use bcc_smp::{Pool, SharedSlice};

/// Binary-lifting LCA index over a rooted tree.
pub struct LcaIndex {
    /// `up[k][v]` = the 2^k-th ancestor of `v` (root maps to itself).
    up: Vec<Vec<u32>>,
    depth: Vec<u32>,
}

impl LcaIndex {
    /// Builds the index from rooted-tree data.
    ///
    /// ```
    /// use bcc_euler::{dfs_euler_tour, tree_computations, LcaIndex};
    /// use bcc_graph::Edge;
    /// use bcc_smp::Pool;
    ///
    /// // The path 0 - 1 - 2 rooted at 0.
    /// let pool = Pool::new(1);
    /// let edges = vec![Edge::new(0, 1), Edge::new(1, 2)];
    /// let tour = dfs_euler_tour(&pool, 3, edges, &[0, 0, 1], 0);
    /// let info = tree_computations(&pool, &tour, 0);
    /// let lca = LcaIndex::build(&pool, &info);
    /// assert_eq!(lca.lca(2, 0), 0);
    /// assert_eq!(lca.path_length(0, 2), 2);
    /// ```
    pub fn build(pool: &Pool, info: &TreeInfo) -> Self {
        Self::from_forest(pool, &info.parent, &info.depth)
    }

    /// Builds the index from raw parent/depth arrays — any rooted tree
    /// or forest, not just ones that came out of an Euler tour (the
    /// query engine lifts block-cut trees this way). Every root must
    /// satisfy `parent[r] == r` and `depth[r] == 0`; for forests,
    /// [`LcaIndex::lca`] is only meaningful when `u` and `v` share a
    /// tree (callers check connectivity first).
    pub fn from_forest(pool: &Pool, parent: &[u32], depth: &[u32]) -> Self {
        let n = parent.len();
        assert_eq!(n, depth.len(), "parent/depth length mismatch");
        let mut levels = 1usize;
        while (1usize << levels) < n.max(2) {
            levels += 1;
        }
        let mut up: Vec<Vec<u32>> = Vec::with_capacity(levels);
        up.push(parent.to_vec());
        for k in 1..levels {
            let prev = &up[k - 1];
            let mut cur = vec![0u32; n];
            {
                let cur_s = SharedSlice::new(&mut cur);
                pool.run_sized(n, |ctx| {
                    for v in ctx.block_range(n) {
                        unsafe { cur_s.write(v, prev[prev[v] as usize]) };
                    }
                });
            }
            up.push(cur);
        }
        LcaIndex {
            up,
            depth: depth.to_vec(),
        }
    }

    /// Depth of `v` (0 at the root).
    #[inline]
    pub fn depth(&self, v: u32) -> u32 {
        self.depth[v as usize]
    }

    /// The ancestor of `v` that is `steps` levels up (clamped at root).
    pub fn ancestor(&self, v: u32, steps: u32) -> u32 {
        let mut v = v;
        let mut s = steps.min(self.depth[v as usize]);
        let mut k = 0;
        while s > 0 {
            if s & 1 == 1 {
                v = self.up[k][v as usize];
            }
            s >>= 1;
            k += 1;
        }
        v
    }

    /// Lowest common ancestor of `u` and `v`.
    pub fn lca(&self, u: u32, v: u32) -> u32 {
        let mut u = u;
        let mut v = v;
        // Equalize depths.
        if self.depth(u) < self.depth(v) {
            std::mem::swap(&mut u, &mut v);
        }
        u = self.ancestor(u, self.depth(u) - self.depth(v));
        if u == v {
            return u;
        }
        for k in (0..self.up.len()).rev() {
            if self.up[k][u as usize] != self.up[k][v as usize] {
                u = self.up[k][u as usize];
                v = self.up[k][v as usize];
            }
        }
        self.up[0][u as usize]
    }

    /// Number of tree edges on the path between `u` and `v`.
    pub fn path_length(&self, u: u32, v: u32) -> u32 {
        let a = self.lca(u, v);
        self.depth(u) + self.depth(v) - 2 * self.depth(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs_tour::dfs_euler_tour;
    use crate::tree_compute::tree_computations;
    use bcc_graph::gen;

    fn info_of(tree: &bcc_graph::Graph, root: u32, pool: &Pool) -> TreeInfo {
        // Root via a BFS-like walk: reuse classic tour machinery.
        let csr = bcc_graph::Csr::build(tree);
        let mut parent = vec![bcc_smp::NIL; tree.n() as usize];
        parent[root as usize] = root;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for &w in csr.neighbors(v) {
                if parent[w as usize] == bcc_smp::NIL {
                    parent[w as usize] = v;
                    stack.push(w);
                }
            }
        }
        let tour = dfs_euler_tour(pool, tree.n(), tree.edges().to_vec(), &parent, root);
        tree_computations(pool, &tour, root)
    }

    /// Brute-force LCA by walking parents.
    fn lca_oracle(info: &TreeInfo, mut u: u32, mut v: u32) -> u32 {
        while info.depth[u as usize] > info.depth[v as usize] {
            u = info.parent[u as usize];
        }
        while info.depth[v as usize] > info.depth[u as usize] {
            v = info.parent[v as usize];
        }
        while u != v {
            u = info.parent[u as usize];
            v = info.parent[v as usize];
        }
        u
    }

    #[test]
    fn matches_oracle_on_random_trees() {
        for seed in 0..4u64 {
            let tree = gen::random_tree(300, seed);
            for p in [1, 3] {
                let pool = Pool::new(p);
                let info = info_of(&tree, 0, &pool);
                let idx = LcaIndex::build(&pool, &info);
                let mut x = 12345u64;
                for _ in 0..300 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let u = (x >> 16) as u32 % 300;
                    let v = (x >> 40) as u32 % 300;
                    let want = lca_oracle(&info, u, v);
                    assert_eq!(idx.lca(u, v), want, "lca({u},{v}) seed={seed}");
                    assert_eq!(
                        idx.path_length(u, v),
                        info.depth[u as usize] + info.depth[v as usize]
                            - 2 * info.depth[want as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn lca_identities() {
        let pool = Pool::new(2);
        let tree = gen::binary_tree(63);
        let info = info_of(&tree, 0, &pool);
        let idx = LcaIndex::build(&pool, &info);
        for v in 0..63u32 {
            assert_eq!(idx.lca(v, v), v);
            assert_eq!(idx.lca(0, v), 0);
            assert_eq!(idx.path_length(v, v), 0);
            if v != 0 {
                let p = info.parent[v as usize];
                assert_eq!(idx.lca(v, p), p);
                assert_eq!(idx.path_length(v, p), 1);
            }
        }
        // Siblings 1 and 2 meet at the root.
        assert_eq!(idx.lca(1, 2), 0);
        // Cousins in a complete binary tree.
        assert_eq!(idx.lca(3, 5), 0);
        assert_eq!(idx.lca(3, 4), 1);
    }

    #[test]
    fn ancestor_clamps_at_root() {
        let pool = Pool::new(1);
        let tree = gen::path(10);
        let info = info_of(&tree, 0, &pool);
        let idx = LcaIndex::build(&pool, &info);
        assert_eq!(idx.ancestor(9, 3), 6);
        assert_eq!(idx.ancestor(9, 9), 0);
        assert_eq!(idx.ancestor(9, 1000), 0);
    }

    #[test]
    fn from_forest_handles_multiple_roots() {
        let pool = Pool::new(2);
        // Two trees: a path 0-1-2 rooted at 0 and a star 3-{4,5} rooted
        // at 3.
        let parent = vec![0, 0, 1, 3, 3, 3];
        let depth = vec![0, 1, 2, 0, 1, 1];
        let idx = LcaIndex::from_forest(&pool, &parent, &depth);
        assert_eq!(idx.lca(2, 1), 1);
        assert_eq!(idx.lca(2, 0), 0);
        assert_eq!(idx.lca(4, 5), 3);
        assert_eq!(idx.path_length(4, 5), 2);
        assert_eq!(idx.ancestor(2, 2), 0);
        assert_eq!(idx.ancestor(5, 7), 3); // clamps at its own root
    }

    #[test]
    fn singleton_tree() {
        let pool = Pool::new(2);
        let tree = bcc_graph::GraphBuilder::new(1).build().unwrap();
        let info = info_of(&tree, 0, &pool);
        let idx = LcaIndex::build(&pool, &info);
        assert_eq!(idx.lca(0, 0), 0);
    }
}
