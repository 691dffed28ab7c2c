//! Index construction: one block-cut tree per connected component.
//!
//! A from-scratch build labels connected components, splits the graph
//! with [`Graph::split_by_labels`], and labels each part through
//! [`BiconnectivityIndex::build_component`] — the same granule the
//! incremental `IndexStore` commits use, so a full build and a commit
//! that happens to touch every component do identical work. Every
//! part is labeled by Hopcroft–Tarjan's DFS ([`Algorithm::Sequential`])
//! on the calling thread: the paper's Fig. 3 finds the TV pipelines
//! ahead of the sequential DFS only on large inputs with several
//! processors, and on the 2-vCPU reference host the DFS is ahead on
//! every component the benchmarks and CI serve (docs/ALGORITHMS.md
//! §11). The index passes over a part go through [`Pool::run_sized`]:
//! the home-block sweep (one visit per edge) and each lifting level
//! (one per tree node) wake the workers only from
//! [`GRAIN`](bcc_smp::GRAIN) elements up. The rooting DFS is
//! sequential over the block-cut tree, which has at most `2n` nodes
//! and `n` edges regardless of how dense the component is.

use crate::index::{BiconnectivityIndex, ComponentIndex};
use bcc_connectivity::sv::{connected_components_with_ws, normalize_labels_ws};
use bcc_core::{Algorithm, BccConfig, BccError, BccResult, BlockCutTree};
use bcc_euler::LcaIndex;
use bcc_graph::{Edge, Graph, SplitPart};
use bcc_smp::atomic::as_atomic_u32;
use bcc_smp::{BccWorkspace, Pool, NIL};
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl ComponentIndex {
    /// Builds one component's index from its relabeled subgraph `sub`,
    /// the local→graph vertex map `verts`, the subgraph's (canonical)
    /// BCC labeling, and the block-cut tree derived from it.
    pub(crate) fn build(
        pool: &Pool,
        sub: &Graph,
        verts: &[u32],
        r: &BccResult,
        t: &BlockCutTree,
    ) -> Self {
        let n = sub.n() as usize;
        let m = sub.m();
        let num_blocks = t.num_blocks;
        let nodes = t.num_nodes() as usize;

        // Vertex → tree node. Cut vertices own their cut node; every
        // other vertex maps to its home block, found by one sweep over
        // the edges (parallel from `GRAIN` edges up). All edges of a
        // non-cut vertex carry the same block label, so racing stores
        // write the same value — they go through atomics to keep the
        // benign race defined.
        let mut node = vec![NIL; n];
        for (i, &v) in t.articulation.iter().enumerate() {
            node[v as usize] = num_blocks + i as u32;
        }
        {
            let node_a = as_atomic_u32(&mut node);
            let edges = sub.edges();
            let cut_index = &t.cut_index;
            pool.run_sized(m, |ctx| {
                for i in ctx.block_range(m) {
                    let b = r.edge_comp[i];
                    let e = edges[i];
                    for v in [e.u, e.v] {
                        if cut_index[v as usize] == NIL {
                            node_a[v as usize].store(b, Ordering::Relaxed);
                        }
                    }
                }
            });
        }

        // Root the tree: parent/depth by DFS, preorder assigned at
        // visit time (subtree intervals are contiguous), sizes by a
        // reverse-preorder accumulation.
        let csr = t.adjacency();
        let mut parent = vec![NIL; nodes];
        let mut depth = vec![0u32; nodes];
        let mut pre = vec![0u32; nodes];
        let mut order = Vec::with_capacity(nodes);
        let mut next_pre = 0u32;
        let mut stack = Vec::new();
        for root in 0..nodes as u32 {
            if parent[root as usize] != NIL {
                continue;
            }
            parent[root as usize] = root;
            stack.push(root);
            while let Some(x) = stack.pop() {
                pre[x as usize] = next_pre;
                next_pre += 1;
                order.push(x);
                for &y in csr.neighbors(x) {
                    if parent[y as usize] == NIL {
                        parent[y as usize] = x;
                        depth[y as usize] = depth[x as usize] + 1;
                        stack.push(y);
                    }
                }
            }
        }
        let mut size = vec![1u32; nodes];
        for &x in order.iter().rev() {
            let p = parent[x as usize];
            if p != x {
                size[p as usize] += size[x as usize];
            }
        }

        // Binary-lifting ancestor table, level-parallel from `GRAIN`
        // tree nodes up.
        let lca = LcaIndex::from_forest(pool, &parent, &depth);

        // Bridge table: blocks of exactly one edge, keyed in *graph*
        // ids for binary search straight off a query's endpoints.
        let mut block_size = vec![0u32; num_blocks as usize];
        for i in 0..m {
            block_size[r.edge_comp[i] as usize] += 1;
        }
        let mut bridges: Vec<(u64, u32)> = sub
            .edges()
            .iter()
            .enumerate()
            .filter(|(i, _)| block_size[r.edge_comp[*i] as usize] == 1)
            .map(|(i, e)| {
                let key = Edge::new(verts[e.u as usize], verts[e.v as usize]).key();
                (key, r.edge_comp[i])
            })
            .collect();
        bridges.sort_unstable();
        let (bridge_keys, bridge_block) = bridges.into_iter().unzip();

        ComponentIndex {
            verts: verts.to_vec(),
            num_blocks,
            articulation: t.articulation.clone(),
            cut_index: t.cut_index.clone(),
            node,
            lca,
            pre,
            size,
            bridge_keys,
            bridge_block,
        }
    }
}

impl BiconnectivityIndex {
    /// Builds one split part's index, or `None` for an edgeless part
    /// (an isolated vertex, which owns no block-cut structure).
    /// `verts` is the part's local→graph map — `part.verts` for a
    /// from-scratch build, or the composition through the commit
    /// region for an incremental one. The part is labeled by
    /// [`Algorithm::Sequential`] on the calling thread.
    pub(crate) fn build_component(
        pool: &Pool,
        part: &SplitPart,
        verts: &[u32],
    ) -> Result<Option<Arc<ComponentIndex>>, BccError> {
        let g = &part.graph;
        if g.m() == 0 {
            return Ok(None);
        }
        let run = BccConfig::new(Algorithm::Sequential).run(pool, g)?;
        let tree = BlockCutTree::build(g, &run.result);
        Ok(Some(Arc::new(ComponentIndex::build(
            pool,
            g,
            verts,
            &run.result,
            &tree,
        ))))
    }

    /// Assembles the composite from the routing arrays and the
    /// per-component indices, deriving the global summaries
    /// (articulation list, block/bridge totals, component count).
    pub(crate) fn assemble(
        n: u32,
        slot: Vec<u32>,
        local: Vec<u32>,
        comps: Vec<Option<Arc<ComponentIndex>>>,
    ) -> Self {
        let mut articulation: Vec<u32> = comps
            .iter()
            .flatten()
            .flat_map(|c| c.articulation.iter().map(|&lv| c.verts[lv as usize]))
            .collect();
        articulation.sort_unstable();
        let num_blocks = comps.iter().flatten().map(|c| c.num_blocks).sum();
        let num_bridges = comps.iter().flatten().map(|c| c.bridge_keys.len()).sum();
        let mut seen = vec![false; comps.len()];
        let mut num_components = 0u32;
        for &s in &slot {
            if !seen[s as usize] {
                seen[s as usize] = true;
                num_components += 1;
            }
        }
        BiconnectivityIndex {
            n,
            slot,
            local,
            comps,
            articulation,
            num_blocks,
            num_bridges,
            num_components,
        }
    }

    /// One-call build: labels connected components on `pool`, splits
    /// the graph, and labels each component into its own
    /// [`ComponentIndex`] by Hopcroft–Tarjan's DFS. Works for any
    /// input — disconnected graphs and isolated vertices included.
    pub fn from_graph(pool: &Pool, g: &Graph) -> Result<Self, BccError> {
        Self::from_graph_with(pool, g, &BccWorkspace::new())
    }

    /// [`from_graph`](Self::from_graph) drawing the connectivity pass's
    /// scratch from `ws`. Long-lived callers that rebuild repeatedly
    /// (the epoch store) pass one workspace across rebuilds so that
    /// pass reuses its buffers instead of allocating them afresh.
    pub fn from_graph_with(pool: &Pool, g: &Graph, ws: &BccWorkspace) -> Result<Self, BccError> {
        let cc = connected_components_with_ws(pool, g.n(), g.edges(), ws);
        let mut labels = cc.label;
        ws.give(cc.tree_edges);
        let k = normalize_labels_ws(pool, &mut labels, ws);
        let split = g.split_by_labels(&labels, k);
        let mut comps = Vec::with_capacity(k as usize);
        for part in &split.parts {
            comps.push(Self::build_component(pool, part, &part.verts)?);
        }
        // `labels` doubles as the slot array: normalized component
        // labels are exactly the part indices.
        Ok(Self::assemble(g.n(), labels, split.local, comps))
    }
}
