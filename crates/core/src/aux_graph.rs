//! The Label-edge step: building the auxiliary graph (paper Alg. 1).
//!
//! Vertices of the auxiliary graph G′ are the edges of G: tree edge
//! `(v, p(v))` maps to vertex `v`; the j-th nontree edge maps to vertex
//! `n + j` (j assigned by a prefix sum over nontree flags). Edges of G′
//! encode the relation R′_c, tested per input edge:
//!
//! 1. nontree `(u, v)` with `pre(v) < pre(u)` → `{u, n + j}`;
//! 2. nontree `(u, v)` with u, v unrelated → `{u, v}`;
//! 3. tree `(u, p(u))` with `w = p(u) ≠ root` and some nontree edge
//!    leaving u's subtree above or around w
//!    (`low(u) < pre(w)` or `high(u) ≥ pre(w) + size(w)`) → `{u, w}`.
//!
//! Two constructions are provided:
//!
//! * [`build_aux_graph`] — the literal paper realization: discovered
//!   edges land in a 3m-slot scratch array (one region per condition,
//!   exactly as the paper allocates `L′`) and are compacted by prefix
//!   sums — no concurrent writes, EREW-style. Kept as the equivalence
//!   reference.
//! * [`build_aux_graph_fused`] — what the pipelines run: a count pass
//!   evaluates conditions 1–3 per edge into **per-thread counters**, an
//!   O(P) serial exclusive scan assigns each thread its output ranges,
//!   and an emit pass writes the nontree numbering and an exactly-sized
//!   edge list directly. The count pass records each edge's expensive
//!   decision — condition 2 for nontree edges, condition 3 for tree
//!   edges; they are mutually exclusive, so one bit per edge — in a
//!   [`Bitmap`] decision cache, and the emit pass reads it back one
//!   word per 64 edges instead of re-touching the preorder/low/high/size
//!   arrays. The 3m scratch, its EMPTY-fill sweep, and the two
//!   compaction sweeps all disappear (scratch drops from 3m slots to
//!   m/64 + m + O(P)); both passes walk the same word-aligned contiguous
//!   block partition, so the nontree numbering is bit-identical to the
//!   prefix-sum numbering for every thread count.

use crate::low_high::LowHigh;
use bcc_euler::TreeInfo;
use bcc_graph::Edge;
use bcc_primitives::compact::compact_with;
use bcc_primitives::scan::exclusive_scan_par;
use bcc_smp::{BccWorkspace, Bitmap, Pool, SharedSlice, NIL};

/// The auxiliary graph G′ plus the nontree-edge numbering needed to map
/// component labels back to input edges.
#[derive(Clone, Debug)]
pub struct AuxGraph {
    /// `n + (number of nontree edges)`.
    pub num_vertices: u32,
    /// Auxiliary edge list.
    pub edges: Vec<Edge>,
    /// Per input edge: its nontree ordinal `j` (`NIL` for tree edges);
    /// the aux vertex of nontree edge `i` is `n + nontree_index[i]`.
    pub nontree_index: Vec<u32>,
}

impl AuxGraph {
    /// Returns the graph's owned arrays to `ws` for reuse.
    pub fn recycle(self, ws: &BccWorkspace) {
        ws.give(self.edges);
        ws.give(self.nontree_index);
    }
}

/// Builds the auxiliary graph (paper Alg. 1), literal 3-region
/// realization. Reference implementation — the pipelines run
/// [`build_aux_graph_fused`].
pub fn build_aux_graph(
    pool: &Pool,
    n: u32,
    edges: &[Edge],
    is_tree_edge: &[bool],
    info: &TreeInfo,
    lh: &LowHigh,
) -> AuxGraph {
    let m = edges.len();

    // Number the nontree edges by prefix sum.
    let mut nontree_index = vec![0u32; m];
    {
        let ni = SharedSlice::new(&mut nontree_index);
        pool.run(|ctx| {
            for i in ctx.block_range(m) {
                unsafe { ni.write(i, u32::from(!is_tree_edge[i])) };
            }
        });
    }
    let num_nontree = exclusive_scan_par(pool, &mut nontree_index);
    {
        // Blank out the slots of tree edges (their scan values are
        // meaningless).
        let ni = SharedSlice::new(&mut nontree_index);
        pool.run(|ctx| {
            for i in ctx.block_range(m) {
                if is_tree_edge[i] {
                    unsafe { ni.write(i, NIL) };
                }
            }
        });
    }

    // The 3m-slot scratch L′: regions [0,m), [m,2m), [2m,3m) hold the
    // candidates of conditions 1, 2, 3.
    const EMPTY: Edge = Edge { u: NIL, v: NIL };
    let mut scratch = vec![EMPTY; 3 * m];
    {
        let ls = SharedSlice::new(&mut scratch);
        let pre = &info.preorder;
        let ni: &[u32] = &nontree_index;
        pool.run(|ctx| {
            for i in ctx.block_range(m) {
                let e = edges[i];
                if !is_tree_edge[i] {
                    let (pu, pv) = (pre[e.u as usize], pre[e.v as usize]);
                    // Condition 1: attach the nontree edge's aux vertex
                    // to the tree edge of its larger-preorder endpoint.
                    let x = if pu > pv { e.u } else { e.v };
                    unsafe { ls.write(i, Edge::new(x, n + ni[i])) };
                    // Condition 2: unrelated endpoints join their two
                    // tree edges.
                    if !info.is_ancestor(e.u, e.v) && !info.is_ancestor(e.v, e.u) {
                        unsafe { ls.write(m + i, e) };
                    }
                } else {
                    // Condition 3: tree edge (c, w = p(c)); if some
                    // nontree edge escapes c's subtree past w, join the
                    // tree edges of c and w.
                    let c = if info.parent[e.v as usize] == e.u {
                        e.v
                    } else {
                        e.u
                    };
                    let w = info.parent[c as usize];
                    if w != info.root {
                        let pw = pre[w as usize];
                        let escapes = lh.low[c as usize] < pw
                            || lh.high[c as usize] >= pw + info.size[w as usize];
                        if escapes {
                            unsafe { ls.write(2 * m + i, Edge::new(c, w)) };
                        }
                    }
                }
            }
        });
    }

    // Compact L′ into the aux edge list by prefix sums.
    let aux_edges = compact_with(pool, &scratch, |_, e| e.u != NIL);

    AuxGraph {
        num_vertices: n + num_nontree,
        edges: aux_edges,
        nontree_index,
    }
}

/// Condition 2: the nontree edge's endpoints are unrelated in the tree.
#[inline]
fn cond2_holds(e: Edge, info: &TreeInfo) -> bool {
    !info.is_ancestor(e.u, e.v) && !info.is_ancestor(e.v, e.u)
}

/// Condition 3: for tree edge `e = (c, w = p(c))` with `w ≠ root`,
/// returns `Some((c, w))` when a nontree edge escapes `c`'s subtree
/// past `w`.
#[inline]
fn cond3_emit(e: Edge, info: &TreeInfo, lh: &LowHigh) -> Option<(u32, u32)> {
    let c = if info.parent[e.v as usize] == e.u {
        e.v
    } else {
        e.u
    };
    let w = info.parent[c as usize];
    if w == info.root {
        return None;
    }
    let pw = info.preorder[w as usize];
    let escapes = lh.low[c as usize] < pw || lh.high[c as usize] >= pw + info.size[w as usize];
    escapes.then_some((c, w))
}

/// Builds the auxiliary graph in two fused passes: per-thread
/// count → O(P) scan → direct emit. Produces the same nontree
/// numbering as [`build_aux_graph`] and the same edge *multiset* up to
/// emission order (downstream connected components are
/// order-insensitive).
pub fn build_aux_graph_fused(
    pool: &Pool,
    n: u32,
    edges: &[Edge],
    is_tree_edge: &[bool],
    info: &TreeInfo,
    lh: &LowHigh,
) -> AuxGraph {
    build_aux_graph_fused_ws(pool, n, edges, is_tree_edge, info, lh, &BccWorkspace::new())
}

/// [`build_aux_graph_fused`] with the result and scratch taken from
/// `ws`; return the result's arrays with [`AuxGraph::recycle`].
pub fn build_aux_graph_fused_ws(
    pool: &Pool,
    n: u32,
    edges: &[Edge],
    is_tree_edge: &[bool],
    info: &TreeInfo,
    lh: &LowHigh,
    ws: &BccWorkspace,
) -> AuxGraph {
    let m = edges.len();
    let p = pool.threads();
    const EMPTY: Edge = Edge { u: NIL, v: NIL };

    // Count pass: per-thread (nontree, emitted) totals over the same
    // word-aligned contiguous block partition the emit pass will walk.
    // Each edge's expensive decision — condition 2 (ancestry test) for
    // nontree edges, condition 3 (low/high escape test) for tree edges —
    // is recorded in `decisions` so the emit pass never re-evaluates it;
    // word-aligned ownership makes the bitmap stores plain, not atomic.
    let decisions = Bitmap::new_in(m, ws);
    let mut nontree_counts = ws.take_filled(p + 1, 0u32);
    let mut emit_counts = ws.take_filled(p + 1, 0u32);
    {
        let nc = SharedSlice::new(&mut nontree_counts);
        let ec = SharedSlice::new(&mut emit_counts);
        let decisions = &decisions;
        pool.run(|ctx| {
            let mut nontree = 0u32;
            let mut emit = 0u32;
            for w in ctx.block_range_of(Bitmap::word_range_of(0..m)) {
                let hi = (w * 64 + 64).min(m);
                let mut bits = 0u64;
                for i in w * 64..hi {
                    let e = edges[i];
                    let hit = if !is_tree_edge[i] {
                        nontree += 1;
                        emit += 1; // condition 1 always emits
                        cond2_holds(e, info)
                    } else {
                        cond3_emit(e, info, lh).is_some()
                    };
                    bits |= u64::from(hit) << (i % 64);
                    emit += u32::from(hit);
                }
                decisions.store_word_unsync(w, bits);
            }
            // SAFETY: slot tid+1 is written by this thread only.
            unsafe {
                nc.write(ctx.tid() + 1, nontree);
                ec.write(ctx.tid() + 1, emit);
            }
        });
    }
    // Serial exclusive scans over P+1 counters.
    for t in 0..p {
        nontree_counts[t + 1] += nontree_counts[t];
        emit_counts[t + 1] += emit_counts[t];
    }
    let num_nontree = nontree_counts[p];
    let total_emit = emit_counts[p] as usize;

    // Emit pass: every thread owns the output ranges its counts claimed.
    let mut nontree_index = ws.take_filled(m, 0u32);
    // Capacity is the *bound* (every nontree edge emits once for
    // condition 1 and at most once for condition 2, every tree edge at
    // most once for condition 3), not `total_emit`: the bound depends
    // only on the edge list and the tree-edge *count*, so a rerun over
    // a different (racily chosen) spanning tree of the same graph
    // requests the same arena class — `total_emit` varies with the
    // tree and would flake the zero-miss steady state across runs.
    let mut aux_edges: Vec<Edge> = ws.take(m + num_nontree as usize);
    aux_edges.resize(total_emit, EMPTY);
    {
        let ni = SharedSlice::new(&mut nontree_index);
        let out = SharedSlice::new(&mut aux_edges);
        let nontree_base: &[u32] = &nontree_counts;
        let emit_base: &[u32] = &emit_counts;
        let decisions = &decisions;
        pool.run(|ctx| {
            let mut j = nontree_base[ctx.tid()];
            let mut k = emit_base[ctx.tid()] as usize;
            for w in ctx.block_range_of(Bitmap::word_range_of(0..m)) {
                let hi = (w * 64 + 64).min(m);
                // One load answers 64 edges' cached decisions.
                let bits = decisions.load_word(w);
                for i in w * 64..hi {
                    let e = edges[i];
                    let hit = bits >> (i % 64) & 1 == 1;
                    if !is_tree_edge[i] {
                        let (pu, pv) = (info.preorder[e.u as usize], info.preorder[e.v as usize]);
                        let x = if pu > pv { e.u } else { e.v };
                        // SAFETY: i is in this thread's block; k stays
                        // within the [emit_base[tid], emit_base[tid+1])
                        // range the count pass reserved (both passes walk
                        // the same blocks and the decision bits fix the
                        // emit count).
                        unsafe {
                            ni.write(i, j);
                            out.write(k, Edge::new(x, n + j));
                        }
                        k += 1;
                        j += 1;
                        if hit {
                            unsafe { out.write(k, e) };
                            k += 1;
                        }
                    } else {
                        unsafe { ni.write(i, NIL) };
                        if hit {
                            // c and w are two cheap parent reads; the
                            // cached bit already paid the escape test.
                            let c = if info.parent[e.v as usize] == e.u {
                                e.v
                            } else {
                                e.u
                            };
                            let wv = info.parent[c as usize];
                            unsafe { out.write(k, Edge::new(c, wv)) };
                            k += 1;
                        }
                    }
                }
            }
            debug_assert_eq!(j, nontree_base[ctx.tid() + 1]);
            debug_assert_eq!(k, emit_base[ctx.tid() + 1] as usize);
        });
    }
    decisions.recycle(ws);
    ws.give(nontree_counts);
    ws.give(emit_counts);

    AuxGraph {
        num_vertices: n + num_nontree,
        edges: aux_edges,
        nontree_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::low_high::compute_low_high;
    use bcc_connectivity::bfs::bfs_tree_seq;
    use bcc_euler::{dfs_euler_tour, tree_computations};
    use bcc_graph::{gen, Csr, Graph};
    use bcc_smp::Pool;

    fn build_for(g: &Graph, root: u32, p: usize) -> (AuxGraph, TreeInfo, Vec<bool>) {
        let pool = Pool::new(p);
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
        let tour = dfs_euler_tour(&pool, g.n(), tree_edges, &bfs.parent, root);
        let info = tree_computations(&pool, &tour, root);
        let lh = compute_low_high(&pool, g.edges(), &is_tree, &info);
        let aux = build_aux_graph(&pool, g.n(), g.edges(), &is_tree, &info, &lh);
        (aux, info, is_tree)
    }

    #[test]
    fn tree_input_produces_no_aux_edges() {
        let g = gen::random_tree(40, 1);
        let (aux, _, _) = build_for(&g, 0, 2);
        assert!(aux.edges.is_empty());
        assert_eq!(aux.num_vertices, 40);
    }

    #[test]
    fn nontree_numbering_is_dense_and_disjoint() {
        let g = gen::random_connected(50, 120, 3);
        let (aux, _, is_tree) = build_for(&g, 0, 3);
        let mut seen = vec![false; 120 - 49];
        for (i, &tree) in is_tree.iter().enumerate() {
            if tree {
                assert_eq!(aux.nontree_index[i], NIL);
            } else {
                let j = aux.nontree_index[i] as usize;
                assert!(!seen[j], "duplicate nontree ordinal {j}");
                seen[j] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
        assert_eq!(aux.num_vertices, 50 + (120 - 49));
    }

    #[test]
    fn cycle_aux_graph_connects_everything() {
        // A cycle is one biconnected component: its aux graph (n-1 tree
        // edges + 1 nontree edge as vertices) must be connected.
        let g = gen::cycle(8);
        let (aux, info, _) = build_for(&g, 0, 2);
        // Vertices in play: 1..8 (tree-edge children) and 8 + 0.
        let comp = bcc_connectivity::seq::components_union_find(aux.num_vertices, &aux.edges);
        let mut labels: Vec<u32> = (1..8u32).map(|v| comp.label[v as usize]).collect();
        labels.push(comp.label[8]);
        labels.dedup();
        assert_eq!(labels.len(), 1, "aux graph of a cycle must be connected");
        assert_eq!(info.root, 0);
    }

    #[test]
    fn aux_edges_respect_vertex_bounds() {
        for seed in 0..4u64 {
            let g = gen::random_connected(60, 140, seed);
            let (aux, _, _) = build_for(&g, 0, 4);
            for e in &aux.edges {
                assert!(e.u < aux.num_vertices && e.v < aux.num_vertices);
                assert_ne!(e.u, e.v);
            }
        }
    }

    #[test]
    fn paper_example_sizes_hold_for_small_biconnected_graph() {
        // For any biconnected graph the aux graph has m vertices in play
        // (n-1 tree + m-n+1 nontree) and they form one component.
        let g = gen::complete(5);
        let (aux, _, _) = build_for(&g, 0, 1);
        let comp = bcc_connectivity::seq::components_union_find(aux.num_vertices, &aux.edges);
        let mut reps: Vec<u32> = (1..5u32).map(|v| comp.label[v as usize]).collect();
        for j in 0..(10 - 4) as u32 {
            reps.push(comp.label[(5 + j) as usize]);
        }
        reps.sort_unstable();
        reps.dedup();
        assert_eq!(reps.len(), 1);
    }

    #[test]
    fn fused_matches_three_region_build_as_multiset() {
        for seed in 0..5u64 {
            let g = gen::random_connected(80, 220, seed);
            for p in [1, 3, 4] {
                let pool = Pool::new(p);
                let csr = Csr::build(&g);
                let bfs = bfs_tree_seq(&csr, 0);
                let mut is_tree = vec![false; g.m()];
                for &e in &bfs.tree_edge_ids() {
                    is_tree[e as usize] = true;
                }
                let tree_edges: Vec<Edge> = bfs
                    .tree_edge_ids()
                    .iter()
                    .map(|&i| g.edges()[i as usize])
                    .collect();
                let tour = dfs_euler_tour(&pool, g.n(), tree_edges, &bfs.parent, 0);
                let info = tree_computations(&pool, &tour, 0);
                let lh = compute_low_high(&pool, g.edges(), &is_tree, &info);
                let a = build_aux_graph(&pool, g.n(), g.edges(), &is_tree, &info, &lh);
                let b = build_aux_graph_fused(&pool, g.n(), g.edges(), &is_tree, &info, &lh);
                assert_eq!(a.num_vertices, b.num_vertices, "seed={seed} p={p}");
                assert_eq!(a.nontree_index, b.nontree_index, "seed={seed} p={p}");
                let key = |e: &Edge| (e.u.min(e.v), e.u.max(e.v));
                let mut ae: Vec<_> = a.edges.iter().map(key).collect();
                let mut be: Vec<_> = b.edges.iter().map(key).collect();
                ae.sort_unstable();
                be.sort_unstable();
                assert_eq!(ae, be, "edge multiset seed={seed} p={p}");

                // ws rerun is all hits.
                let ws = bcc_smp::BccWorkspace::new();
                let warm =
                    build_aux_graph_fused_ws(&pool, g.n(), g.edges(), &is_tree, &info, &lh, &ws);
                warm.recycle(&ws);
                let before = ws.stats();
                let again =
                    build_aux_graph_fused_ws(&pool, g.n(), g.edges(), &is_tree, &info, &lh, &ws);
                assert_eq!(again.nontree_index, a.nontree_index);
                assert_eq!(again.edges.len(), b.edges.len());
                again.recycle(&ws);
                let delta = ws.stats().delta_since(&before);
                assert_eq!(delta.misses, 0, "steady-state rerun must not miss");
            }
        }
    }

    #[test]
    fn thread_count_invariance_of_the_partition() {
        // The aux graph itself is NOT identical across thread counts:
        // the parallel children-CSR build behind the DFS tour assigns
        // child order nondeterministically, so preorder numbers — and
        // with them the condition-1 edges — can differ. What must be
        // invariant is the *partition* the aux graph induces on the
        // input edges.
        let g = gen::random_connected(80, 200, 9);
        let (a1, i1, t1) = build_for(&g, 0, 1);
        let (a4, i4, t4) = build_for(&g, 0, 4);
        assert_eq!(a1.num_vertices, a4.num_vertices);
        assert_eq!(a1.nontree_index, a4.nontree_index);
        assert_eq!(t1, t4, "BFS tree is deterministic");

        let partition = |aux: &AuxGraph, info: &TreeInfo, is_tree: &[bool]| -> Vec<u32> {
            let cc = bcc_connectivity::seq::components_union_find(aux.num_vertices, &aux.edges);
            let mut labels: Vec<u32> = (0..g.m())
                .map(|i| {
                    let e = g.edges()[i];
                    if is_tree[i] {
                        let c = if info.parent[e.v as usize] == e.u {
                            e.v
                        } else {
                            e.u
                        };
                        cc.label[c as usize]
                    } else {
                        cc.label[(g.n() + aux.nontree_index[i]) as usize]
                    }
                })
                .collect();
            crate::verify::canonicalize_edge_labels(&mut labels);
            labels
        };
        assert_eq!(partition(&a1, &i1, &t1), partition(&a4, &i4, &t4));
    }
}
