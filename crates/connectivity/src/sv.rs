//! Shiloach–Vishkin-family connected components with spanning-forest
//! recording: the classic synchronous graft-and-shortcut rounds and a
//! FastSV-style asynchronous variant.
//!
//! **Classic** ([`SvVariant::Classic`]): rounds of (a) *graft* — for
//! every edge whose endpoints currently have different roots, CAS the
//! larger root onto the smaller label — and (b) *shortcut* —
//! pointer-jump every vertex until the structure is flat, iterated to a
//! fixpoint. Work is O((n + m) · rounds) with O(log n) rounds, and the
//! fixpoint check costs one extra verification round.
//!
//! **FastSV** ([`SvVariant::FastSv`]): each edge is resolved *completely*
//! in a single sweep — chase both endpoints to their roots (halving the
//! paths walked as we go), hook the higher root onto the lower by CAS,
//! and on a lost race re-chase and retry instead of deferring to a next
//! round. A lost CAS means another thread merged that root, so total
//! retries are bounded by the n − 1 possible merges; after one sweep
//! plus a flattening pass the labeling is final — no verification
//! round, `rounds == 1` whenever there are edges.
//!
//! FastSV's sweep makes only three kinds of write to the label array
//! (the concurrent-hook spec; Liu–Tarjan's link/compress framework):
//!
//! * the **hook CAS** `label[hi]: hi → lo`, with `lo < hi` both roots
//!   when read. It succeeds only while `hi` is still a root, so each
//!   root is hooked at most once and records one forest edge;
//! * the **halving CAS** `label[x]: d → dd`, where `d` is `x`'s parent
//!   and `dd ≠ d` was `d`'s parent when read. It lowers a non-root slot
//!   to an ancestor in the same tree, and never touches a root slot;
//! * the **flatten stores** of each vertex's root, made after the
//!   sweep's barrier, when no hook can move a root any more.
//!
//! Each write replaces a slot's value by a smaller one, so labels only
//! decrease, every parent pointer goes to a smaller id, and the pointer
//! structure is acyclic at every instant: a winning hook merges two
//! trees that are distinct at that instant (`hi` reachable from `lo`
//! would force `hi ≤ lo < hi`). Every value a slot ever holds was read
//! along the chain of an endpoint of a kept edge, so it lies in the
//! slot's component. The trees left after the sweep are therefore the
//! components, and the n − k winning edges form a spanning forest of
//! the kept edges (the paper's observation that "grafting defines the
//! parent relationship naturally", §3.2). Classic SV's grafts and
//! shortcut stores keep the same invariants round by round.

use crate::tuning::SvVariant;
use bcc_graph::Edge;
use bcc_smp::atomic::as_atomic_u32;
use bcc_smp::{BccWorkspace, Pool, SharedSlice, NIL};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Output of [`connected_components`].
#[derive(Clone, Debug)]
pub struct SvResult {
    /// `label[v]` is the component representative (the minimum-reachable
    /// grafting fixpoint; equal labels ⇔ same component).
    pub label: Vec<u32>,
    /// Indices into the input edge list forming a spanning forest:
    /// exactly `n - num_components` edges.
    pub tree_edges: Vec<u32>,
    /// Number of connected components (isolated vertices included).
    pub num_components: u32,
    /// Graft rounds executed (exposed for the benchmarks). Classic runs
    /// O(log n) rounds plus a verification round; FastSV resolves every
    /// edge in its single sweep, so this is 1 whenever edges exist.
    pub rounds: u32,
}

impl SvResult {
    /// Returns the result's owned arrays to `ws` for reuse. Call this
    /// instead of dropping when the result came from a `_ws`
    /// constructor with a long-lived arena.
    pub fn recycle(self, ws: &BccWorkspace) {
        ws.give(self.label);
        ws.give(self.tree_edges);
    }
}

/// Connected components over `edges` on vertex set `0..n` with the
/// default variant ([`SvVariant::FastSv`]).
///
/// ```
/// use bcc_connectivity::sv::connected_components;
/// use bcc_graph::Edge;
/// use bcc_smp::Pool;
///
/// let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(3, 4)];
/// let r = connected_components(&Pool::new(2), 5, &edges);
/// assert_eq!(r.num_components, 2);
/// assert_eq!(r.tree_edges.len(), 3); // spanning forest
/// assert_eq!(r.label[0], r.label[2]);
/// assert_ne!(r.label[0], r.label[3]);
/// ```
pub fn connected_components(pool: &Pool, n: u32, edges: &[Edge]) -> SvResult {
    connected_components_with(pool, n, edges, SvVariant::FastSv)
}

/// Connected components with an explicit algorithm [`SvVariant`].
pub fn connected_components_with(
    pool: &Pool,
    n: u32,
    edges: &[Edge],
    variant: SvVariant,
) -> SvResult {
    connected_components_with_ws(pool, n, edges, variant, &BccWorkspace::new())
}

/// [`connected_components_with`] with the result's arrays and all
/// scratch taken from `ws`; return them with [`SvResult::recycle`].
pub fn connected_components_with_ws(
    pool: &Pool,
    n: u32,
    edges: &[Edge],
    variant: SvVariant,
    ws: &BccWorkspace,
) -> SvResult {
    connected_components_masked_with_ws(pool, n, edges, &|_| true, variant, ws)
}

/// [`connected_components_with_ws`] restricted to the edge subset where
/// `keep(i)` is true, without materializing that subset.
///
/// The recorded `tree_edges` index the **full** input list, so callers
/// filtering a graph in place (TV-filter and FAST-BCC mask out BFS-tree
/// edges to find their certificate's non-tree forest) get original edge
/// ids back with zero O(m) scratch — the predicate replaces a compacted
/// copy of the kept edges.
pub fn connected_components_masked_with_ws(
    pool: &Pool,
    n: u32,
    edges: &[Edge],
    keep: &(impl Fn(usize) -> bool + Sync),
    variant: SvVariant,
    ws: &BccWorkspace,
) -> SvResult {
    let mut label: Vec<u32> = ws.take_iota(n as usize);
    // graft_edge[r] = index of the edge that hooked root r (NIL if r
    // was never hooked). Each slot is written at most once.
    let mut graft_edge: Vec<u32> = ws.take_filled(n as usize, NIL);
    let mut rounds = 0u32;
    if n > 0 && !edges.is_empty() {
        let label_a = as_atomic_u32(&mut label);
        let graft_a = as_atomic_u32(&mut graft_edge);
        rounds = match variant {
            SvVariant::Classic => classic_sv(pool, label_a, graft_a, edges, keep),
            SvVariant::FastSv => fast_sv(pool, label_a, graft_a, edges, keep),
        };
    }
    let mut tree_edges: Vec<u32> = ws.take(graft_edge.len());
    tree_edges.extend(graft_edge.iter().copied().filter(|&e| e != NIL));
    ws.give(graft_edge);
    SvResult {
        label,
        num_components: n - tree_edges.len() as u32,
        tree_edges,
        rounds,
    }
}

/// The classic synchronous graft-and-shortcut rounds (paper §3.2).
/// Returns the number of rounds.
fn classic_sv(
    pool: &Pool,
    label_a: &[AtomicU32],
    graft_a: &[AtomicU32],
    edges: &[Edge],
    keep: &(impl Fn(usize) -> bool + Sync),
) -> u32 {
    let (n_us, m) = (label_a.len(), edges.len());
    let changed = AtomicBool::new(true);
    let shortcut_live = AtomicBool::new(true);
    let round_ctr = AtomicU32::new(0);

    pool.run(|ctx| {
        loop {
            // --- check fixpoint from the previous round ---
            ctx.barrier();
            if !changed.load(Ordering::Acquire) {
                break;
            }
            ctx.barrier();
            if ctx.is_leader() {
                changed.store(false, Ordering::Release);
                round_ctr.fetch_add(1, Ordering::Relaxed);
            }
            ctx.barrier();

            // --- graft phase ---
            let mut local_changed = false;
            for i in ctx.block_range(m) {
                if !keep(i) {
                    continue;
                }
                let e = edges[i];
                let ru = find_root(label_a, e.u);
                let rv = find_root(label_a, e.v);
                if ru == rv {
                    continue;
                }
                let (hi, lo) = if ru > rv { (ru, rv) } else { (rv, ru) };
                if label_a[hi as usize]
                    .compare_exchange(hi, lo, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // This root merges exactly once: record the edge.
                    let prev = graft_a[hi as usize].swap(i as u32, Ordering::Relaxed);
                    debug_assert_eq!(prev, NIL);
                }
                // A lost CAS means someone grafted hi concurrently; the
                // edge is reconsidered next round if still needed.
                local_changed = true;
            }
            if local_changed {
                changed.store(true, Ordering::Release);
            }
            ctx.barrier();

            // --- shortcut phase: jump until flat ---
            loop {
                ctx.barrier();
                if ctx.is_leader() {
                    shortcut_live.store(false, Ordering::Release);
                }
                ctx.barrier();
                let mut any = false;
                for v in ctx.block_range(n_us) {
                    let d = label_a[v].load(Ordering::Relaxed);
                    let dd = label_a[d as usize].load(Ordering::Relaxed);
                    if d != dd {
                        label_a[v].store(dd, Ordering::Relaxed);
                        any = true;
                    }
                }
                if any {
                    shortcut_live.store(true, Ordering::Release);
                }
                ctx.barrier();
                if !shortcut_live.load(Ordering::Acquire) {
                    break;
                }
            }
        }
    });
    round_ctr.load(Ordering::Relaxed)
}

/// FastSV-style asynchronous hooking: one sweep over the edges with
/// in-place CAS retry and path halving, then one flattening pass.
/// Returns the number of rounds (always 1).
fn fast_sv(
    pool: &Pool,
    label_a: &[AtomicU32],
    graft_a: &[AtomicU32],
    edges: &[Edge],
    keep: &(impl Fn(usize) -> bool + Sync),
) -> u32 {
    pool.run(|ctx| {
        // --- single hooking sweep: resolve each edge to completion ---
        for i in ctx.block_range(edges.len()) {
            if !keep(i) {
                continue;
            }
            let e = edges[i];
            loop {
                let ru = find_root_halving(label_a, e.u);
                let rv = find_root_halving(label_a, e.v);
                if ru == rv {
                    break;
                }
                let (hi, lo) = if ru > rv { (ru, rv) } else { (rv, ru) };
                if label_a[hi as usize]
                    .compare_exchange(hi, lo, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // Only the winner writes this slot; it is read
                    // after the pool's join.
                    graft_a[hi as usize].store(i as u32, Ordering::Relaxed);
                    break;
                }
                // Lost the race: another thread merged `hi` — re-chase
                // the (new) roots and retry. Total retries across all
                // threads are bounded by the n - 1 possible merges.
            }
        }
        ctx.barrier();
        // --- flatten: the forest is now fixed, so one pass of
        // walk-to-root stores suffices (stores only ever write root
        // values, which are chain minima, preserving monotonicity
        // for concurrent walkers). Root slots are left untouched.
        for v in ctx.block_range(label_a.len()) {
            let r = find_root(label_a, v as u32);
            if label_a[v].load(Ordering::Relaxed) != r {
                label_a[v].store(r, Ordering::Relaxed);
            }
        }
    });
    1
}

/// Follows labels to the current root (labels only decrease, so this
/// walk terminates even under concurrent updates).
#[inline]
fn find_root(label: &[AtomicU32], v: u32) -> u32 {
    let mut x = v;
    loop {
        let d = label[x as usize].load(Ordering::Acquire);
        if d == x {
            return x;
        }
        x = d;
    }
}

/// [`find_root`] with one-pass path halving: at each non-root `x` whose
/// grandparent `dd` differs from its parent `d`, CAS `x`'s slot from
/// `d` to `dd` and continue from `dd`. A vertex that already points at
/// its root is read, never written, so a flat region costs two loads
/// and no locked read-modify-write; a lost CAS (another thread lowered
/// the slot first) or a spurious weak failure only skips that halving.
///
/// The loads and the halving CAS are `Relaxed`: the label array is the
/// only shared data, and no label publishes other memory. The
/// invariants of the module doc hold per slot under every interleaving
/// coherence allows: a slot's values only decrease, `dd` was read from
/// the chain `x` lies on, and a slot observed as a non-root never reads
/// as a root again. The graft record is ordered by the pool's join,
/// not by any label.
#[inline]
fn find_root_halving(label: &[AtomicU32], v: u32) -> u32 {
    let mut x = v;
    loop {
        let d = label[x as usize].load(Ordering::Relaxed);
        if d == x {
            return x;
        }
        let dd = label[d as usize].load(Ordering::Relaxed);
        if dd == d {
            return d;
        }
        let _ =
            label[x as usize].compare_exchange_weak(d, dd, Ordering::Relaxed, Ordering::Relaxed);
        x = dd;
    }
}

/// Relabels `label` so components are numbered `0..k` in order of their
/// smallest vertex, in parallel. Returns `k`.
pub fn normalize_labels(pool: &Pool, label: &mut [u32]) -> u32 {
    normalize_labels_ws(pool, label, &BccWorkspace::new())
}

/// [`normalize_labels`] with scratch taken from (and returned to) `ws`.
pub fn normalize_labels_ws(pool: &Pool, label: &mut [u32], ws: &BccWorkspace) -> u32 {
    let n = label.len();
    if n == 0 {
        return 0;
    }
    // A vertex is a representative iff label[v] == v.
    let mut index = ws.take_filled(n, 0u32);
    {
        let idx_s = SharedSlice::new(&mut index);
        let label_ro: &[u32] = label;
        pool.run(|ctx| {
            for v in ctx.block_range(n) {
                unsafe { idx_s.write(v, u32::from(label_ro[v] == v as u32)) };
            }
        });
    }
    let k = bcc_primitives::scan::exclusive_scan_par_ws(pool, &mut index, ws);
    {
        let label_s = SharedSlice::new(label);
        let index_ro: &[u32] = &index;
        pool.run(|ctx| {
            for v in ctx.block_range(n) {
                let rep = label_s.get(v) as usize;
                unsafe { label_s.write(v, index_ro[rep]) };
            }
        });
    }
    ws.give(index);
    k
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::seq;
    use bcc_graph::{gen, Graph, GraphBuilder};

    const VARIANTS: [SvVariant; 2] = [SvVariant::Classic, SvVariant::FastSv];

    fn check_against_oracle(g: &Graph, p: usize, variant: SvVariant) {
        let pool = Pool::new(p);
        let res = connected_components_with(&pool, g.n(), g.edges(), variant);
        let oracle = seq::components_union_find(g.n(), g.edges());

        // Same partition (labels equal iff oracle labels equal).
        for e in g.edges() {
            assert_eq!(
                res.label[e.u as usize], res.label[e.v as usize],
                "edge endpoints must share a label ({variant:?})"
            );
        }
        let mut pairs: Vec<(u32, u32)> = res
            .label
            .iter()
            .zip(oracle.label.iter())
            .map(|(&a, &b)| (a, b))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut by_ours: Vec<u32> = pairs.iter().map(|&(a, _)| a).collect();
        let mut by_oracle: Vec<u32> = pairs.iter().map(|&(_, b)| b).collect();
        by_ours.sort_unstable();
        by_ours.dedup();
        by_oracle.sort_unstable();
        by_oracle.dedup();
        assert_eq!(by_ours.len(), pairs.len(), "label mapping not 1:1");
        assert_eq!(by_oracle.len(), pairs.len(), "label mapping not 1:1");

        assert_eq!(res.num_components, oracle.count);

        // Tree edges form a spanning forest: right count, acyclic.
        assert_eq!(res.tree_edges.len() as u32, g.n() - oracle.count);
        let forest: Vec<_> = res
            .tree_edges
            .iter()
            .map(|&i| g.edges()[i as usize])
            .collect();
        let fres = seq::components_union_find(g.n(), &forest);
        assert_eq!(
            fres.count, oracle.count,
            "forest must connect exactly the same components ({variant:?})"
        );
    }

    #[test]
    fn matches_oracle_on_families() {
        for variant in VARIANTS {
            for p in [1, 2, 4] {
                check_against_oracle(&gen::path(50), p, variant);
                check_against_oracle(&gen::cycle(33), p, variant);
                check_against_oracle(&gen::star(40), p, variant);
                check_against_oracle(&gen::complete(20), p, variant);
                check_against_oracle(&gen::torus(4, 5), p, variant);
                check_against_oracle(&gen::random_connected(500, 1500, p as u64), p, variant);
                // Disconnected:
                check_against_oracle(&gen::random_gnm(500, 400, p as u64), p, variant);
            }
        }
    }

    #[test]
    fn self_loops_and_duplicate_edges() {
        // `Graph` forbids self-loops, but the SV kernels take raw edge
        // lists (step 6 feeds them auxiliary-graph edges), so they must
        // tolerate loops and duplicates directly.
        let edges = vec![
            Edge::new(0, 0),
            Edge::new(0, 1),
            Edge::new(1, 0),
            Edge::new(2, 2),
            Edge::new(3, 4),
            Edge::new(3, 4),
        ];
        let oracle = seq::components_union_find(6, &edges);
        assert_eq!(oracle.count, 4); // {0,1} {2} {3,4} {5}
        for variant in VARIANTS {
            for p in [1, 3] {
                let pool = Pool::new(p);
                let r = connected_components_with(&pool, 6, &edges, variant);
                assert_eq!(r.num_components, 4, "{variant:?}");
                assert_eq!(r.tree_edges.len(), 2);
                assert_eq!(r.label[0], r.label[1]);
                assert_eq!(r.label[3], r.label[4]);
                assert_ne!(r.label[0], r.label[2]);
                // A self-loop is never a tree edge.
                for &i in &r.tree_edges {
                    let e = edges[i as usize];
                    assert_ne!(e.u, e.v);
                }
            }
        }
    }

    #[test]
    fn empty_and_trivial() {
        let pool = Pool::new(2);
        for variant in VARIANTS {
            let empty = GraphBuilder::new(0).build().unwrap();
            let r = connected_components_with(&pool, empty.n(), empty.edges(), variant);
            assert_eq!(r.num_components, 0);
            assert!(r.tree_edges.is_empty());
            assert_eq!(r.rounds, 0);

            let isolated = GraphBuilder::new(5).build().unwrap();
            let r = connected_components_with(&pool, isolated.n(), isolated.edges(), variant);
            assert_eq!(r.num_components, 5);
            assert_eq!(r.label, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn single_edge() {
        let pool = Pool::new(3);
        let g = GraphBuilder::new(2).edges([(0, 1)]).build().unwrap();
        for variant in VARIANTS {
            let r = connected_components_with(&pool, g.n(), g.edges(), variant);
            assert_eq!(r.num_components, 1);
            assert_eq!(r.tree_edges, vec![0]);
        }
    }

    #[test]
    fn parallel_edges_between_components_yield_single_tree_edge_each_merge() {
        // Many edges between the same pair of big stars: only one merge.
        let mut edges = vec![];
        for v in 1..10u32 {
            edges.push((0, v));
        }
        for v in 11..20u32 {
            edges.push((10, v));
        }
        edges.push((3, 13));
        edges.push((4, 14));
        edges.push((5, 15));
        let g = GraphBuilder::new(20).edges(edges).build().unwrap();
        for variant in VARIANTS {
            for p in [1, 4] {
                let pool = Pool::new(p);
                let r = connected_components_with(&pool, g.n(), g.edges(), variant);
                assert_eq!(r.num_components, 1);
                assert_eq!(r.tree_edges.len(), 19);
            }
        }
    }

    #[test]
    fn normalize_labels_gives_dense_ids() {
        let pool = Pool::new(2);
        let g = gen::random_gnm(100, 60, 5);
        let mut r = connected_components(&pool, g.n(), g.edges());
        let k = normalize_labels(&pool, &mut r.label);
        assert_eq!(k, r.num_components);
        let max = r.label.iter().copied().max().unwrap();
        assert_eq!(max + 1, k);
        // Still a valid labeling of the same partition.
        let oracle = seq::components_union_find(g.n(), g.edges());
        for e in g.edges() {
            assert_eq!(r.label[e.u as usize], r.label[e.v as usize]);
        }
        assert_eq!(oracle.count, k);
    }

    #[test]
    fn fastsv_labels_are_flat_and_minimal() {
        // After FastSV, every label must point directly at the component
        // minimum (flattening is part of the algorithm, not a cleanup).
        let g = gen::random_connected(400, 900, 9);
        let pool = Pool::new(4);
        let r = connected_components_with(&pool, g.n(), g.edges(), SvVariant::FastSv);
        let oracle = seq::components_union_find(g.n(), g.edges());
        // Component minimum per oracle label.
        let mut min_of = std::collections::HashMap::new();
        for v in 0..g.n() {
            let e = min_of.entry(oracle.label[v as usize]).or_insert(v);
            if v < *e {
                *e = v;
            }
        }
        for v in 0..g.n() {
            assert_eq!(r.label[v as usize], min_of[&oracle.label[v as usize]]);
        }
    }

    #[test]
    fn ws_variants_match_plain_and_reach_zero_miss_steady_state() {
        let ws = BccWorkspace::new();
        let pool = Pool::new(4);
        let g = gen::random_gnm(300, 500, 11);
        for variant in VARIANTS {
            let plain = connected_components_with(&pool, g.n(), g.edges(), variant);
            // Warm-up run populates the shelves; the rerun must be all hits.
            let mut warm = connected_components_with_ws(&pool, g.n(), g.edges(), variant, &ws);
            assert_eq!(warm.num_components, plain.num_components);
            normalize_labels_ws(&pool, &mut warm.label, &ws);
            warm.recycle(&ws);
            let before = ws.stats();
            let mut again = connected_components_with_ws(&pool, g.n(), g.edges(), variant, &ws);
            assert_eq!(again.num_components, plain.num_components);
            assert_eq!(again.tree_edges.len(), plain.tree_edges.len());
            let k = normalize_labels_ws(&pool, &mut again.label, &ws);
            assert_eq!(k, again.num_components);
            again.recycle(&ws);
            let delta = ws.stats().delta_since(&before);
            assert_eq!(delta.misses, 0, "steady-state rerun must not miss");
        }
    }

    #[test]
    fn masked_matches_materialized_subset() {
        // Keep only even-indexed edges; the masked run must agree with
        // running on the physically filtered list, and its tree_edges
        // must index the full list (all even, and only kept edges).
        let ws = BccWorkspace::new();
        for seed in 0..3u64 {
            let g = gen::random_gnm(200, 500, seed);
            let subset: Vec<Edge> = g
                .edges()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == 0)
                .map(|(_, &e)| e)
                .collect();
            for variant in VARIANTS {
                for p in [1, 4] {
                    let pool = Pool::new(p);
                    let masked = connected_components_masked_with_ws(
                        &pool,
                        g.n(),
                        g.edges(),
                        &|i| i % 2 == 0,
                        variant,
                        &ws,
                    );
                    let dense = connected_components_with(&pool, g.n(), &subset, variant);
                    assert_eq!(masked.num_components, dense.num_components, "{variant:?}");
                    assert_eq!(masked.tree_edges.len(), dense.tree_edges.len());
                    for &i in &masked.tree_edges {
                        assert_eq!(i % 2, 0, "tree edge {i} was masked out");
                    }
                    // Same partition.
                    for v in 0..g.n() as usize {
                        for w in 0..g.n() as usize {
                            if v < w {
                                assert_eq!(
                                    masked.label[v] == masked.label[w],
                                    dense.label[v] == dense.label[w],
                                );
                            }
                        }
                    }
                    masked.recycle(&ws);
                }
            }
        }
    }

    /// Contention shapes for the concurrent-hook specs (this module's
    /// and [`crate::as_sync`]'s): edge orders that make threads hook,
    /// halve and lose CAS races on the same slots.
    pub(crate) fn contention_shapes() -> Vec<(&'static str, u32, Vec<Edge>)> {
        // A path listed from its top end down: every hook moves the
        // root a neighbouring block is chasing.
        let n = 3000u32;
        let path = (1..n).rev().map(|v| Edge::new(v, v - 1)).collect();
        // A mid-id hub whose spokes appear twice, once per orientation,
        // in the same order: at p = 2k, threads k apart race on a spoke.
        let hub = n / 2;
        let spokes: Vec<u32> = (0..n).filter(|&v| v != hub).collect();
        let mut star: Vec<Edge> = spokes.iter().map(|&s| Edge::new(hub, s)).collect();
        star.extend(spokes.iter().map(|&s| Edge::new(s, hub)));
        // Two cliques interleaved with hundreds of parallel edges
        // between three fixed pairs across them.
        let k = 40u32;
        let clique = |base: u32| {
            (0..k).flat_map(move |a| (a + 1..k).map(move |b| Edge::new(base + b, base + a)))
        };
        let cross = (0..300u32).map(|i| Edge::new(k - 1 - i % 3, 2 * k - 1 - i % 3));
        let mut clusters = Vec::new();
        for ((a, b), c) in clique(0).zip(clique(k)).zip(cross.cycle()) {
            clusters.extend([a, c, b]);
        }
        // A self-loop on every vertex, between edges that pair them up.
        let loops = (0..n)
            .flat_map(|v| [Edge::new(v, v), Edge::new(v ^ 1, v), Edge::new(v, v)])
            .collect();
        vec![
            ("descending path", n, path),
            ("doubled hub", n, star),
            ("joined clusters", 2 * k, clusters),
            ("self-loops", n, loops),
        ]
    }

    #[test]
    fn concurrent_hooks_match_union_find_under_contention() {
        let runs = if cfg!(debug_assertions) { 10 } else { 100 };
        let ws = BccWorkspace::new();
        for (shape, n, edges) in contention_shapes() {
            for masked in [false, true] {
                let keep = |i: usize| !masked || i % 3 != 1;
                let kept: Vec<Edge> = (0..edges.len())
                    .filter(|&i| keep(i))
                    .map(|i| edges[i])
                    .collect();
                let oracle = seq::components_union_find(n, &kept);
                for p in [2, 4, 8] {
                    let pool = Pool::new(p);
                    for variant in VARIANTS {
                        for run in 0..runs {
                            let what =
                                format!("{shape} masked={masked} p={p} {variant:?} run {run}");
                            let r = connected_components_masked_with_ws(
                                &pool, n, &edges, &keep, variant, &ws,
                            );
                            assert_eq!(r.label, oracle.label, "{what}: component minima");
                            assert_eq!(r.num_components, oracle.count, "{what}");
                            assert_eq!(r.tree_edges.len() as u32, n - oracle.count, "{what}");
                            assert!(r.tree_edges.iter().all(|&i| keep(i as usize)), "{what}");
                            let forest: Vec<Edge> =
                                r.tree_edges.iter().map(|&i| edges[i as usize]).collect();
                            let spans = seq::components_union_find(n, &forest);
                            assert_eq!(spans.label, oracle.label, "{what}: forest partition");
                            r.recycle(&ws);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rounds_are_reported_and_fastsv_is_strictly_lower() {
        let pool = Pool::new(2);
        let g = gen::path(1000);
        let classic = connected_components_with(&pool, g.n(), g.edges(), SvVariant::Classic);
        let fast = connected_components_with(&pool, g.n(), g.edges(), SvVariant::FastSv);
        assert_eq!(classic.num_components, 1);
        assert_eq!(fast.num_components, 1);
        assert!(classic.rounds >= 2, "classic pays a verification round");
        assert_eq!(fast.rounds, 1, "FastSV resolves everything in one sweep");
        assert!(fast.rounds < classic.rounds);
    }
}
