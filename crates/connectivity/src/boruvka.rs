//! Parallel Borůvka minimum spanning forest.
//!
//! The paper's §1 cites the authors' companion study of shared-memory
//! minimum spanning forests \[4\] (Bader & Cong, IPDPS 2004) among the
//! fundamental primitives of their research programme; this module is
//! that algorithm in the same SPMD style as the rest of the crate:
//! rounds of
//!
//! 1. every component finds its minimum incident edge (parallel over
//!    edges, atomic min on a packed `(weight, edge id)` key — the edge
//!    id tie-break totally orders keys, making the MSF unique and the
//!    output deterministic);
//! 2. components hook along their chosen edges, synchronously: targets
//!    are computed against frozen labels, then applied after a barrier
//!    with the classic 2-cycle breaker (the strict key order makes
//!    longer cycles impossible, so breaking mutual pairs suffices);
//! 3. pointer jumping flattens the labels.
//!
//! O(log n) rounds; each round is O(n + m) work.

use bcc_smp::atomic::as_atomic_u32;
use bcc_smp::{Pool, NIL};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// An undirected edge with a `u32` weight.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WeightedEdge {
    /// First endpoint.
    pub u: u32,
    /// Second endpoint.
    pub v: u32,
    /// Weight.
    pub w: u32,
}

impl WeightedEdge {
    /// Creates a weighted edge.
    pub fn new(u: u32, v: u32, w: u32) -> Self {
        WeightedEdge { u, v, w }
    }
}

/// Output of [`minimum_spanning_forest`].
#[derive(Clone, Debug)]
pub struct MsfResult {
    /// Indices of the forest edges, ascending; `n - num_components`
    /// entries. Unique (hence thread-count independent) because ties
    /// break on edge index.
    pub tree_edges: Vec<u32>,
    /// Sum of the forest's weights.
    pub total_weight: u64,
    /// Connected components (isolated vertices included).
    pub num_components: u32,
    /// Borůvka rounds executed.
    pub rounds: u32,
}

const NO_KEY: u64 = u64::MAX;

/// Computes the minimum spanning forest of the weighted graph on
/// vertices `0..n`. Self loops are ignored; parallel edges are fine
/// (the cheapest, lowest-index one wins).
pub fn minimum_spanning_forest(pool: &Pool, n: u32, edges: &[WeightedEdge]) -> MsfResult {
    let n_us = n as usize;
    let m = edges.len();
    assert!(m < (1usize << 32), "edge indices must fit in u32");
    let mut label: Vec<u32> = (0..n).collect();
    let mut target = vec![NIL; n_us];
    let mut picked = vec![false; m];
    let mut rounds = 0u32;

    if n > 0 && m > 0 {
        let label_a = as_atomic_u32(&mut label);
        let target_a = as_atomic_u32(&mut target);
        let best: Vec<AtomicU64> = (0..n_us).map(|_| AtomicU64::new(NO_KEY)).collect();
        let changed = AtomicBool::new(true);
        let live = AtomicBool::new(true);
        let round_ctr = std::sync::atomic::AtomicU32::new(0);
        let picked_flags: Vec<AtomicBool> = (0..m).map(|_| AtomicBool::new(false)).collect();

        pool.run(|ctx| {
            loop {
                ctx.barrier();
                if !changed.load(Ordering::Acquire) {
                    break;
                }
                ctx.barrier();
                if ctx.is_leader() {
                    changed.store(false, Ordering::Release);
                    round_ctr.fetch_add(1, Ordering::Relaxed);
                }
                // Reset the per-root minima.
                for v in ctx.block_range(n_us) {
                    best[v].store(NO_KEY, Ordering::Relaxed);
                }
                ctx.barrier();

                // 1: each component's minimum incident edge.
                for i in ctx.block_range(m) {
                    let e = edges[i];
                    if e.u == e.v {
                        continue;
                    }
                    let ru = find(label_a, e.u);
                    let rv = find(label_a, e.v);
                    if ru == rv {
                        continue;
                    }
                    let key = ((e.w as u64) << 32) | i as u64;
                    fetch_min_u64(&best[ru as usize], key);
                    fetch_min_u64(&best[rv as usize], key);
                }
                ctx.barrier();

                // 2a: compute hook targets against the frozen labels
                // (no label writes happen in this sub-phase, so `find`
                // results are phase-1 roots for every thread).
                for r in ctx.block_range(n_us) {
                    let key = best[r].load(Ordering::Relaxed);
                    let tgt = if key == NO_KEY {
                        NIL
                    } else {
                        let i = (key & 0xFFFF_FFFF) as usize;
                        let e = edges[i];
                        let ru = find(label_a, e.u);
                        let rv = find(label_a, e.v);
                        debug_assert!(r as u32 == ru || r as u32 == rv);
                        if r as u32 == ru {
                            rv
                        } else {
                            ru
                        }
                    };
                    target_a[r].store(tgt, Ordering::Relaxed);
                }
                ctx.barrier();

                // 2b: apply hooks. Only mutual (2-cycle) picks need
                // breaking — the strict total order on keys rules out
                // longer cycles — and the mutual pair always chose the
                // same edge, so exactly one side records it.
                let mut local_changed = false;
                for r in ctx.block_range(n_us) {
                    let tgt = target_a[r].load(Ordering::Relaxed);
                    if tgt == NIL {
                        continue;
                    }
                    let mutual = target_a[tgt as usize].load(Ordering::Relaxed) == r as u32;
                    if mutual && (r as u32) < tgt {
                        continue; // the smaller root of a mutual pair stays
                    }
                    let key = best[r].load(Ordering::Relaxed);
                    let i = (key & 0xFFFF_FFFF) as usize;
                    label_a[r].store(tgt, Ordering::Relaxed);
                    picked_flags[i].store(true, Ordering::Relaxed);
                    local_changed = true;
                }
                if local_changed {
                    changed.store(true, Ordering::Release);
                }
                ctx.barrier();

                // 3: pointer jumping until flat.
                loop {
                    ctx.barrier();
                    if ctx.is_leader() {
                        live.store(false, Ordering::Release);
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
                        live.store(true, Ordering::Release);
                    }
                    ctx.barrier();
                    if !live.load(Ordering::Acquire) {
                        break;
                    }
                }
            }
        });
        rounds = round_ctr.load(Ordering::Relaxed);
        for (i, f) in picked_flags.iter().enumerate() {
            picked[i] = f.load(Ordering::Relaxed);
        }
    }

    let tree_edges: Vec<u32> = (0..m as u32).filter(|&i| picked[i as usize]).collect();
    let total_weight: u64 = tree_edges.iter().map(|&i| edges[i as usize].w as u64).sum();
    let num_components = n - tree_edges.len() as u32;
    MsfResult {
        tree_edges,
        total_weight,
        num_components,
        rounds,
    }
}

#[inline]
fn find(label: &[std::sync::atomic::AtomicU32], v: u32) -> u32 {
    let mut x = v;
    loop {
        let d = label[x as usize].load(Ordering::Acquire);
        if d == x {
            return x;
        }
        x = d;
    }
}

#[inline]
fn fetch_min_u64(a: &AtomicU64, value: u64) -> bool {
    let mut cur = a.load(Ordering::Relaxed);
    while value < cur {
        match a.compare_exchange_weak(cur, value, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(seen) => cur = seen,
        }
    }
    false
}

/// Sequential Kruskal oracle (unique MSF under the same (w, index)
/// tie-break); used by the tests and available as a baseline.
pub fn kruskal(n: u32, edges: &[WeightedEdge]) -> MsfResult {
    let mut order: Vec<u32> = (0..edges.len() as u32)
        .filter(|&i| edges[i as usize].u != edges[i as usize].v)
        .collect();
    order.sort_unstable_by_key(|&i| ((edges[i as usize].w as u64) << 32) | i as u64);
    let mut parent: Vec<u32> = (0..n).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let g = parent[parent[x as usize] as usize];
            parent[x as usize] = g;
            x = g;
        }
        x
    }
    let mut tree_edges = Vec::new();
    let mut total_weight = 0u64;
    for i in order {
        let e = edges[i as usize];
        let ru = find(&mut parent, e.u);
        let rv = find(&mut parent, e.v);
        if ru != rv {
            parent[ru.max(rv) as usize] = ru.min(rv);
            tree_edges.push(i);
            total_weight += e.w as u64;
        }
    }
    tree_edges.sort_unstable();
    let num_components = n - tree_edges.len() as u32;
    MsfResult {
        tree_edges,
        total_weight,
        num_components,
        rounds: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn random_weighted(n: u32, m: usize, seed: u64, max_w: u32) -> Vec<WeightedEdge> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| {
                WeightedEdge::new(
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(0..max_w),
                )
            })
            .collect()
    }

    #[test]
    fn hand_worked_square_with_diagonal() {
        // 0-1 (1), 1-2 (2), 2-3 (3), 3-0 (4), 0-2 (5): MSF = first three.
        let edges = vec![
            WeightedEdge::new(0, 1, 1),
            WeightedEdge::new(1, 2, 2),
            WeightedEdge::new(2, 3, 3),
            WeightedEdge::new(3, 0, 4),
            WeightedEdge::new(0, 2, 5),
        ];
        for p in [1, 4] {
            let pool = Pool::new(p);
            let r = minimum_spanning_forest(&pool, 4, &edges);
            assert_eq!(r.tree_edges, vec![0, 1, 2]);
            assert_eq!(r.total_weight, 6);
            assert_eq!(r.num_components, 1);
        }
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..8u64 {
            let n = 200;
            let edges = random_weighted(n, 700, seed, 1000);
            let want = kruskal(n, &edges);
            for p in [1, 3] {
                let pool = Pool::new(p);
                let got = minimum_spanning_forest(&pool, n, &edges);
                assert_eq!(got.tree_edges, want.tree_edges, "seed={seed} p={p}");
                assert_eq!(got.total_weight, want.total_weight);
                assert_eq!(got.num_components, want.num_components);
            }
        }
    }

    #[test]
    fn duplicate_weights_tie_break_deterministically() {
        // All weights equal: MSF must still be unique (lowest indices).
        let n = 50;
        let edges = random_weighted(n, 300, 9, 1);
        let want = kruskal(n, &edges);
        for p in [1, 4] {
            let pool = Pool::new(p);
            let got = minimum_spanning_forest(&pool, n, &edges);
            assert_eq!(got.tree_edges, want.tree_edges, "p={p}");
        }
    }

    #[test]
    fn disconnected_and_self_loops() {
        let edges = vec![
            WeightedEdge::new(0, 1, 5),
            WeightedEdge::new(2, 2, 1), // self loop: ignored
            WeightedEdge::new(3, 4, 2),
        ];
        let pool = Pool::new(2);
        let r = minimum_spanning_forest(&pool, 6, &edges);
        assert_eq!(r.tree_edges, vec![0, 2]);
        assert_eq!(r.num_components, 4); // {0,1}, {2}, {3,4}, {5}
        assert_eq!(r.total_weight, 7);
    }

    #[test]
    fn empty_inputs() {
        let pool = Pool::new(2);
        let r = minimum_spanning_forest(&pool, 0, &[]);
        assert_eq!(r.num_components, 0);
        let r = minimum_spanning_forest(&pool, 5, &[]);
        assert_eq!(r.num_components, 5);
        assert!(r.tree_edges.is_empty());
    }

    #[test]
    fn logarithmic_rounds_on_paths() {
        // A weighted path: Borůvka halves components per round.
        let n = 4096u32;
        let mut rng = StdRng::seed_from_u64(3);
        let edges: Vec<WeightedEdge> = (1..n)
            .map(|v| WeightedEdge::new(v - 1, v, rng.gen_range(0..1_000_000)))
            .collect();
        let pool = Pool::new(2);
        let r = minimum_spanning_forest(&pool, n, &edges);
        assert_eq!(r.num_components, 1);
        assert_eq!(r.tree_edges.len() as u32, n - 1);
        assert!(r.rounds <= 16, "{} rounds", r.rounds);
    }

    #[test]
    fn msf_weight_is_minimal_against_random_spanning_trees() {
        use bcc_graph::gen;
        // Any spanning tree's weight is >= the MSF's.
        let g = gen::random_connected(120, 400, 5);
        let mut rng = StdRng::seed_from_u64(7);
        let edges: Vec<WeightedEdge> = g
            .edges()
            .iter()
            .map(|e| WeightedEdge::new(e.u, e.v, rng.gen_range(1..1000)))
            .collect();
        let pool = Pool::new(2);
        let msf = minimum_spanning_forest(&pool, g.n(), &edges);
        // Compare against the BFS tree's weight.
        let csr = bcc_graph::Csr::build(&g);
        let bfs = crate::bfs::bfs_tree_seq(&csr, 0);
        let bfs_weight: u64 = bfs
            .tree_edge_ids()
            .iter()
            .map(|&i| edges[i as usize].w as u64)
            .sum();
        assert!(msf.total_weight <= bfs_weight);
    }
}
