//! Classic Euler-tour construction (sort + cross pointers + list rank).
//!
//! This is the construction TV-SMP pays for (paper §3.1): the spanning
//! tree arrives as a bare edge set, so a circular adjacency list with
//! cross pointers must be built on the fly. We sort the 2(n−1) arcs by
//! source with the parallel radix sort on packed `(source << 32) | arc`
//! keys (the paper uses the Helman–JáJá sample sort), link each arc to
//! the next arc around its source (circularly), and set the tour
//! successor `succ[a] = next_around(twin(a))`. Ranking the successor
//! list yields each arc's position in the tour.
//!
//! (The paper additionally sorts by `(min, max)` to pair anti-parallel
//! arcs; our arc layout makes twins adjacent by construction — arc
//! `2i`/`2i+1` — so that sort is unnecessary. EXPERIMENTS.md notes this
//! deviation.)

use crate::twin;
use bcc_graph::Edge;
use bcc_primitives::{
    list_rank_hj_ws, list_rank_seq_ws, list_rank_wyllie_ws, par_radix_sort_u64_ws,
};
use bcc_smp::{BccWorkspace, Pool, SharedSlice, NIL};

/// Which list-ranking algorithm positions the tour.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Ranker {
    /// Sequential walk (baseline).
    Sequential,
    /// Wyllie pointer jumping, O(n log n) work — the PRAM emulation.
    Wyllie,
    /// Helman–JáJá sampled sublists, O(n) work.
    HelmanJaja,
}

impl Ranker {
    /// Ranks the successor list `succ` from `head` with this algorithm,
    /// scratch and result drawn from `ws` — the step both tour
    /// constructions share.
    pub(crate) fn rank(self, pool: &Pool, succ: &[u32], head: u32, ws: &BccWorkspace) -> Vec<u32> {
        match self {
            Ranker::Sequential => list_rank_seq_ws(succ, head, ws),
            Ranker::Wyllie => list_rank_wyllie_ws(pool, succ, head, ws),
            Ranker::HelmanJaja => list_rank_hj_ws(pool, succ, head, ws),
        }
    }
}

/// An Euler tour of a tree given as an edge list.
#[derive(Clone, Debug)]
pub struct EulerTour {
    /// Number of tree vertices.
    pub n: u32,
    /// The tree edges; arc `2i`/`2i+1` belong to `edges[i]`.
    pub edges: Vec<Edge>,
    /// `pos[a]` = position of arc `a` in the tour, `0..2(n-1)`.
    pub pos: Vec<u32>,
    /// The arc at each tour position (inverse of `pos`).
    pub order: Vec<u32>,
}

impl EulerTour {
    /// Number of arcs (2 × edges).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.pos.len()
    }

    /// Source vertex of arc `a`.
    #[inline]
    pub fn arc_src(&self, a: u32) -> u32 {
        let e = self.edges[(a / 2) as usize];
        if a & 1 == 0 {
            e.u
        } else {
            e.v
        }
    }

    /// Destination vertex of arc `a`.
    #[inline]
    pub fn arc_dst(&self, a: u32) -> u32 {
        self.arc_src(twin(a))
    }

    /// Returns the tour's buffers (edges, pos, order) to `ws` for
    /// reuse once the tour is no longer needed.
    pub fn recycle(self, ws: &BccWorkspace) {
        ws.give(self.edges);
        ws.give(self.pos);
        ws.give(self.order);
    }
}

/// Builds the Euler tour of the tree `edges` on vertices `0..n`, started
/// at `root` (the tour begins with an arc out of `root`).
///
/// `edges` must form a spanning tree of `0..n` (exactly `n - 1` edges,
/// connected, acyclic) with `n >= 1`; for `n == 1` the tour is empty.
pub fn euler_tour_classic(
    pool: &Pool,
    n: u32,
    edges: Vec<Edge>,
    root: u32,
    ranker: Ranker,
) -> EulerTour {
    euler_tour_classic_ws(pool, n, edges, root, ranker, &BccWorkspace::new())
}

/// [`euler_tour_classic`] with every internal buffer (and the tour's
/// own arrays) drawn from `ws`; return the tour's buffers with
/// [`EulerTour::recycle`].
pub fn euler_tour_classic_ws(
    pool: &Pool,
    n: u32,
    edges: Vec<Edge>,
    root: u32,
    ranker: Ranker,
    ws: &BccWorkspace,
) -> EulerTour {
    assert!(n >= 1);
    assert!(root < n);
    assert_eq!(
        edges.len() as u32 + 1,
        n,
        "a tree on {n} vertices has n-1 edges"
    );
    let t = edges.len();
    let num_arcs = 2 * t;
    if t == 0 {
        return EulerTour {
            n,
            edges,
            pos: vec![],
            order: vec![],
        };
    }

    // Arc ids are `u32` throughout the tour, with `NIL` reserved.
    assert!(
        num_arcs < NIL as usize,
        "{num_arcs} arcs overflow the u32 arc ids"
    );

    // Sort arcs by source to form the circular adjacency list, as
    // packed `(source << 32) | arc` keys. Any within-source circular
    // order yields a valid Euler tour.
    let mut keys: Vec<u64> = ws.take_filled(num_arcs, 0);
    {
        let keys_s = SharedSlice::new(&mut keys);
        pool.run(|ctx| {
            for i in ctx.block_range(t) {
                let e = edges[i];
                let a = 2 * i as u64;
                unsafe {
                    keys_s.write(2 * i, ((e.u as u64) << 32) | a);
                    keys_s.write(2 * i + 1, ((e.v as u64) << 32) | (a + 1));
                }
            }
        });
    }
    par_radix_sort_u64_ws(pool, &mut keys, ws);

    // next_around: successor within the source's circular arc list.
    // Position j links to j+1 unless j+1 starts a new source group, in
    // which case it wraps to its own group's start.
    let mut next_around = ws.take_filled(num_arcs, NIL);
    {
        // group_start[j] = index of the first position of j's group —
        // computable per position by binary search on the packed key's
        // source half, so the loop parallelizes without a stitch.
        let na = SharedSlice::new(&mut next_around);
        let keys_ro: &[u64] = &keys;
        pool.run(|ctx| {
            for j in ctx.block_range(num_arcs) {
                let src = keys_ro[j] >> 32;
                let next = if j + 1 < num_arcs && (keys_ro[j + 1] >> 32) == src {
                    keys_ro[j + 1] as u32
                } else {
                    // Wrap to the first arc of this source group.
                    let g = keys_ro.partition_point(|&k| (k >> 32) < src);
                    keys_ro[g] as u32
                };
                unsafe { na.write(keys_ro[j] as u32 as usize, next) };
            }
        });
    }

    // Tour successor: succ[a] = next arc around dst(a) after twin(a).
    let mut succ = ws.take_filled(num_arcs, NIL);
    {
        let succ_s = SharedSlice::new(&mut succ);
        let na: &[u32] = &next_around;
        pool.run(|ctx| {
            for a in ctx.block_range(num_arcs) {
                unsafe { succ_s.write(a, na[twin(a as u32) as usize]) };
            }
        });
    }

    // Break the circuit at the first arc out of `root` in sorted order.
    let start = {
        // Binary search the sorted keys for the first arc with src=root.
        let lo = keys.partition_point(|&k| (k >> 32) < root as u64);
        assert!(
            lo < num_arcs && (keys[lo] >> 32) == root as u64,
            "root {root} has no incident tree edge"
        );
        keys[lo] as u32
    };
    // The arc whose successor is `start`: its twin is the arc circularly
    // before `start` in root's adjacency group — equivalently the unique
    // b with next_around[b] == start; then pred = twin(b). Find b by
    // scanning root's group (average O(degree)).
    {
        let mut b = start;
        while next_around[b as usize] != start {
            b = next_around[b as usize];
        }
        succ[twin(b) as usize] = NIL;
    }

    // Rank the successor list.
    let pos = ranker.rank(pool, &succ, start, ws);

    // Inverse permutation.
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

    ws.give(keys);
    ws.give(next_around);
    ws.give(succ);

    EulerTour {
        n,
        edges,
        pos,
        order,
    }
}

/// Checks the Euler-tour invariants (used by tests and debug builds):
/// consecutive arcs are head-to-tail, the tour starts and ends at
/// `root`, and every arc appears exactly once.
pub fn assert_valid_tour(tour: &EulerTour, root: u32) {
    let num_arcs = tour.num_arcs();
    if num_arcs == 0 {
        return;
    }
    assert_eq!(tour.order.len(), num_arcs);
    let mut seen = vec![false; num_arcs];
    for j in 0..num_arcs {
        let a = tour.order[j];
        assert!(!seen[a as usize], "arc {a} appears twice");
        seen[a as usize] = true;
        assert_eq!(tour.pos[a as usize] as usize, j, "pos/order mismatch");
        if j + 1 < num_arcs {
            assert_eq!(
                tour.arc_dst(a),
                tour.arc_src(tour.order[j + 1]),
                "tour not contiguous at position {j}"
            );
        }
    }
    assert_eq!(tour.arc_src(tour.order[0]), root, "tour must start at root");
    assert_eq!(
        tour.arc_dst(tour.order[num_arcs - 1]),
        root,
        "tour must end at root"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::gen;

    fn tree_edges(g: &bcc_graph::Graph) -> Vec<Edge> {
        g.edges().to_vec()
    }

    #[test]
    fn single_vertex_tree() {
        let pool = Pool::new(2);
        let tour = euler_tour_classic(&pool, 1, vec![], 0, Ranker::Sequential);
        assert_eq!(tour.num_arcs(), 0);
        assert_valid_tour(&tour, 0);
    }

    #[test]
    fn single_edge_tree() {
        let pool = Pool::new(2);
        let tour = euler_tour_classic(&pool, 2, vec![Edge::new(0, 1)], 0, Ranker::Sequential);
        assert_eq!(tour.num_arcs(), 2);
        assert_valid_tour(&tour, 0);
        // Arc (0→1) then (1→0).
        assert_eq!(tour.order, vec![0, 1]);
    }

    #[test]
    fn path_tree_all_rankers_agree() {
        let pool = Pool::new(4);
        let g = gen::path(50);
        for ranker in [Ranker::Sequential, Ranker::Wyllie, Ranker::HelmanJaja] {
            let tour = euler_tour_classic(&pool, 50, tree_edges(&g), 0, ranker);
            assert_valid_tour(&tour, 0);
        }
    }

    #[test]
    fn random_trees_valid_tours_any_root() {
        for seed in 0..4u64 {
            let g = gen::random_tree(200, seed);
            for p in [1, 3] {
                let pool = Pool::new(p);
                for root in [0u32, 7, 199] {
                    let tour =
                        euler_tour_classic(&pool, 200, tree_edges(&g), root, Ranker::HelmanJaja);
                    assert_valid_tour(&tour, root);
                }
            }
        }
    }

    #[test]
    fn star_tree_tour() {
        let pool = Pool::new(2);
        let g = gen::star(30);
        // Root at the hub and at a leaf.
        for root in [0u32, 5] {
            let tour = euler_tour_classic(&pool, 30, tree_edges(&g), root, Ranker::Wyllie);
            assert_valid_tour(&tour, root);
        }
    }

    #[test]
    fn large_tree_parallel_rankers_match_sequential_positions() {
        let g = gen::random_tree(3000, 99);
        let pool1 = Pool::new(1);
        let seq = euler_tour_classic(&pool1, 3000, tree_edges(&g), 0, Ranker::Sequential);
        let pool = Pool::new(4);
        let wy = euler_tour_classic(&pool, 3000, tree_edges(&g), 0, Ranker::Wyllie);
        let hj = euler_tour_classic(&pool, 3000, tree_edges(&g), 0, Ranker::HelmanJaja);
        // The tour structure (succ list) is identical, so positions are too.
        assert_eq!(seq.pos, wy.pos);
        assert_eq!(seq.pos, hj.pos);
    }

    #[test]
    fn ws_construction_matches_plain_and_hits_on_rerun() {
        let g = gen::random_tree(800, 11);
        let pool = Pool::new(4);
        let ws = bcc_smp::BccWorkspace::new();
        let plain = euler_tour_classic(&pool, g.n(), tree_edges(&g), 0, Ranker::HelmanJaja);
        for _ in 0..2 {
            let tour =
                euler_tour_classic_ws(&pool, g.n(), tree_edges(&g), 0, Ranker::HelmanJaja, &ws);
            assert_valid_tour(&tour, 0);
            assert_eq!(tour.pos, plain.pos, "ws must not change the tour");
            tour.recycle(&ws);
        }
        let s0 = ws.stats();
        let tour = euler_tour_classic_ws(&pool, g.n(), tree_edges(&g), 0, Ranker::HelmanJaja, &ws);
        tour.recycle(&ws);
        assert_eq!(
            ws.stats().delta_since(&s0).misses,
            0,
            "steady-state tour construction must not allocate"
        );
    }

    #[test]
    #[should_panic]
    fn wrong_edge_count_rejected() {
        let pool = Pool::new(1);
        let _ = euler_tour_classic(&pool, 3, vec![Edge::new(0, 1)], 0, Ranker::Sequential);
    }
}
