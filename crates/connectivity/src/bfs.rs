//! Breadth-first search trees and forests: sequential, level-synchronous
//! top-down, and direction-optimizing hybrid.
//!
//! TV-filter's correctness (paper Lemma 1) requires the primary spanning
//! tree to be a **BFS** tree: a nontree edge of a BFS tree never joins an
//! ancestor/descendant pair more than one level apart. Any
//! level-synchronous expansion produces one, which leaves the expansion
//! *direction* free per level:
//!
//! * **top-down** — frontier vertices claim unvisited neighbors by CAS
//!   (examines every out-arc of the frontier);
//! * **bottom-up** — unvisited vertices scan their own arcs for a
//!   frontier member and adopt the first one found (examines at most
//!   one *hit* per unvisited vertex, and no CAS: each vertex claims
//!   itself).
//!
//! The hybrid ([`BfsStrategy::Hybrid`]) switches by the standard
//! frontier-edge heuristic (Beamer et al., SC'12): go bottom-up when the
//! frontier's out-arcs exceed `remaining_arcs / α`, return top-down when
//! the frontier shrinks below `n / β`. Bottom-up runs as a **single
//! contiguous phase**: the first sweep covers every vertex, later sweeps
//! revisit only the survivors of the previous one (the unvisited set
//! only shrinks), and once the exit condition fires the sweep never
//! re-engages — near the end of the traversal the entry test becomes
//! trivially true and re-entering would pay a full sweep for a handful
//! of claims. On low-diameter graphs the one or two "fat" levels carry
//! almost all edges, and the bottom-up sweep short-circuits most of
//! their examinations — a work reduction, so it pays at any thread
//! count. Frontier membership during bottom-up sweeps is a shared
//! [`Bitmap`], and the unvisited set is a second bitmap swept
//! word-at-a-time (64 vertices per load, claims cleared with one plain
//! store per word); top-down levels pull degree-weighted chunks from a
//! [`ChunkCounter`] so hub vertices cannot serialize a chunk behind one
//! thread. A level whose frontier has fewer out-arcs than the pool grain
//! runs top-down on the calling thread, and never switches bottom-up:
//! on a high-diameter graph (a road lattice has ~2,000 levels of a few
//! thousand arcs each) one pool round per level would cost more than
//! the level's work, and a sweep over every unvisited vertex would cost
//! more than the frontier's arcs.
//!
//! **Forests.** [`bfs_forest_ws`] runs the same traversal over a graph
//! that may be disconnected. It starts at vertex 0; when a tree is
//! exhausted it restarts at the smallest unreached vertex, found by one
//! scan pointer over `parent` (O(n) in total), and hangs that root off
//! vertex 0 at level 1, as if a virtual edge joined them. A degree-0
//! vertex becomes such a leaf of vertex 0 up front, without a round, so
//! it never enters the bottom-up sweep domain. The result is the BFS
//! tree of G plus the virtual edges: every parent sits exactly one
//! level up and every edge of G spans at most one level, which is what
//! Lemma 1 needs.

use crate::next_root;
use crate::tuning::{BfsStrategy, TraversalTuning};
use bcc_graph::Csr;
use bcc_smp::atomic::as_atomic_u32;
use bcc_smp::{BccWorkspace, Bitmap, ChunkCounter, Pool, GRAIN, NIL};
use std::sync::atomic::Ordering;

/// How one BFS level was discovered (recorded per level for telemetry
/// and the `bcc-bench` ablation columns).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BfsDirection {
    /// Frontier-expands-outward (classic).
    TopDown,
    /// Unvisited-vertices-look-back (direction-optimized sweep).
    BottomUp,
}

/// A rooted BFS tree — partial if the graph is disconnected — or, from
/// [`bfs_forest_ws`], a BFS forest spanning every vertex.
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// `parent[v]`; `parent[root] == root`, unreachable vertices `NIL`.
    /// In a forest the root is vertex 0, and every other component's
    /// smallest vertex has parent 0 as well.
    pub parent: Vec<u32>,
    /// Edge id (index into the graph's edge list) of the parent edge;
    /// `NIL` for the root, unreachable vertices, and a forest's other
    /// component roots.
    pub parent_eid: Vec<u32>,
    /// `level[v]` = BFS depth; `u32::MAX` if unreachable. A forest's
    /// other component roots are at level 1.
    pub level: Vec<u32>,
    /// Number of vertices reached (including the root).
    pub reached: u32,
    /// Number of BFS levels (eccentricity of the root + 1); this is the
    /// `O(d)` factor in TV-filter's running time.
    pub levels: u32,
    /// Vertices discovered at each depth (`frontier_sizes[0] == 1`, the
    /// root; `frontier_sizes.len() == levels`). The raw material for
    /// effective-diameter estimates. A forest's restarted trees count at
    /// their depth below vertex 0.
    pub frontier_sizes: Vec<u32>,
    /// Direction used to discover each depth (`directions[0]` is the
    /// root's trivial `TopDown`); parallel to `frontier_sizes`.
    pub directions: Vec<BfsDirection>,
}

impl BfsTree {
    /// Returns the tree's large per-vertex arrays to `ws` for reuse.
    /// `frontier_sizes` and `directions` are dropped plainly — they are
    /// tiny (one slot per level) and routinely escape into telemetry.
    pub fn recycle(self, ws: &BccWorkspace) {
        ws.give(self.parent);
        ws.give(self.parent_eid);
        ws.give(self.level);
    }

    /// Indices of the tree edges (one per reached non-root vertex).
    pub fn tree_edge_ids(&self) -> Vec<u32> {
        let mut ids = Vec::with_capacity(self.reached.saturating_sub(1) as usize);
        ids.extend(self.parent_eid.iter().copied().filter(|&e| e != NIL));
        ids
    }

    /// Number of levels that were discovered bottom-up.
    pub fn bottom_up_levels(&self) -> u32 {
        self.directions
            .iter()
            .filter(|&&d| d == BfsDirection::BottomUp)
            .count() as u32
    }

    /// Effective diameter at quantile `q` (e.g. `0.9`): the smallest
    /// depth by which at least `q * reached` vertices have been
    /// discovered. Returns 0 for empty trees.
    pub fn effective_diameter(&self, q: f64) -> u32 {
        let target = (q * self.reached as f64).ceil() as u64;
        let mut cum = 0u64;
        for (d, &s) in self.frontier_sizes.iter().enumerate() {
            cum += u64::from(s);
            if cum >= target {
                return d as u32;
            }
        }
        self.frontier_sizes.len().saturating_sub(1) as u32
    }
}

/// Sequential queue BFS tree from `root` — the oracle the tests hold
/// [`bfs_tree`] to.
pub fn bfs_tree_seq(csr: &Csr, root: u32) -> BfsTree {
    let n = csr.n() as usize;
    let mut parent = vec![NIL; n];
    let mut parent_eid = vec![NIL; n];
    let mut level = vec![u32::MAX; n];
    if n == 0 {
        return BfsTree {
            parent,
            parent_eid,
            level,
            reached: 0,
            levels: 0,
            frontier_sizes: vec![],
            directions: vec![],
        };
    }
    parent[root as usize] = root;
    level[root as usize] = 0;
    let mut frontier = vec![root];
    let mut next = Vec::new();
    let mut reached = 1u32;
    let mut depth = 0u32;
    let mut frontier_sizes = vec![1u32];
    while !frontier.is_empty() {
        depth += 1;
        for &v in &frontier {
            for (w, eid) in csr.arcs(v) {
                if parent[w as usize] == NIL {
                    parent[w as usize] = v;
                    parent_eid[w as usize] = eid;
                    level[w as usize] = depth;
                    reached += 1;
                    next.push(w);
                }
            }
        }
        if !next.is_empty() {
            frontier_sizes.push(next.len() as u32);
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    let directions = vec![BfsDirection::TopDown; frontier_sizes.len()];
    BfsTree {
        parent,
        parent_eid,
        level,
        reached,
        levels: depth, // last increment found an empty level
        frontier_sizes,
        directions,
    }
}

/// Level-synchronous parallel BFS tree from `root` with the default
/// tuning (direction-optimizing hybrid).
pub fn bfs_tree_par(pool: &Pool, csr: &Csr, root: u32) -> BfsTree {
    bfs_tree(pool, csr, root, &TraversalTuning::default())
}

/// Per-chunk edge budget for degree-weighted frontier scheduling.
const EDGE_BUDGET: usize = 2048;

/// Bitmap words (64 vertices each) per dynamically scheduled bottom-up
/// sweep chunk: small enough that dynamic scheduling still balances a
/// skewed word, large enough that the chunk counter's atomic is cold.
const SWEEP_WORDS_PER_CHUNK: usize = 16;

/// BFS tree from `root` under explicit [`TraversalTuning`].
///
/// Top-down levels CAS-claim neighbors from dynamically scheduled,
/// degree-weighted frontier chunks; a level whose frontier has fewer
/// than [`GRAIN`] out-arcs runs on the calling thread, so a long thin
/// stretch of levels costs no pool round per level. Bottom-up levels
/// sweep the unvisited vertices against a frontier bitmap. The hybrid
/// applies the direction optimization at every thread count.
pub fn bfs_tree(pool: &Pool, csr: &Csr, root: u32, tuning: &TraversalTuning) -> BfsTree {
    bfs_tree_ws(pool, csr, root, tuning, &BccWorkspace::new())
}

/// [`bfs_tree`] with the tree's per-vertex arrays, the frontiers, the
/// bottom-up bitmaps, and the unvisited-domain scratch taken from `ws`;
/// return the tree's buffers with [`BfsTree::recycle`]. (Per-thread
/// frontier chunks of a pool level remain ordinary allocations.)
pub fn bfs_tree_ws(
    pool: &Pool,
    csr: &Csr,
    root: u32,
    tuning: &TraversalTuning,
    ws: &BccWorkspace,
) -> BfsTree {
    traverse(pool, csr, Some(root), tuning, ws)
}

/// The BFS forest of the whole graph: [`bfs_tree_ws`]'s traversal from
/// vertex 0, restarted at the smallest unreached vertex until every
/// vertex is reached (see the module docs). Each restart's root hangs
/// off vertex 0 by a virtual edge: parent 0, level 1, no parent edge,
/// so the vertices without a parent edge are exactly one root per
/// component.
pub fn bfs_forest_ws(
    pool: &Pool,
    csr: &Csr,
    tuning: &TraversalTuning,
    ws: &BccWorkspace,
) -> BfsTree {
    traverse(pool, csr, None, tuning, ws)
}

/// The one BFS body: the tree of `root`, or with `None` the forest
/// whose restarts hang off vertex 0.
fn traverse(
    pool: &Pool,
    csr: &Csr,
    root: Option<u32>,
    tuning: &TraversalTuning,
    ws: &BccWorkspace,
) -> BfsTree {
    let n = csr.n() as usize;
    let forest = root.is_none();
    let first = root.unwrap_or(0);
    let mut parent = ws.take_filled(n, NIL);
    let mut parent_eid = ws.take_filled(n, NIL);
    let mut level = ws.take_filled(n, u32::MAX);
    let mut frontier_sizes = Vec::new();
    let mut directions = Vec::new();
    let mut reached = 0u32;
    // Vertices a traversal can reach: the β exit test's `n`.
    let mut live = n;
    if n > 0 {
        parent[first as usize] = first;
        level[first as usize] = 0;
        reached = 1;
        record(&mut frontier_sizes, &mut directions, 0, 1, false);
    }
    if forest {
        // Degree-0 vertices are leaves of vertex 0 from the start: no
        // restart visits them and no bottom-up sweep scans them.
        let mut isolated = 0u32;
        for v in 1..n {
            if csr.degree(v as u32) == 0 {
                parent[v] = first;
                level[v] = 1;
                isolated += 1;
            }
        }
        if isolated > 0 {
            record(&mut frontier_sizes, &mut directions, 1, isolated, false);
        }
        reached += isolated;
        live -= isolated as usize;
    }
    let hybrid = tuning.bfs == BfsStrategy::Hybrid;
    let alpha = tuning.alpha.max(1) as usize;
    let beta = tuning.beta.max(1) as usize;

    let parent_a = as_atomic_u32(&mut parent);
    let eid_a = as_atomic_u32(&mut parent_eid);
    let level_a = as_atomic_u32(&mut level);
    // Claims `w` for `v` at `depth`; true for the one caller that wins.
    let claim = |v: u32, w: u32, eid: u32, depth: u32| {
        let slot = &parent_a[w as usize];
        let won = slot.load(Ordering::Relaxed) == NIL
            && slot
                .compare_exchange(NIL, v, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
        if won {
            eid_a[w as usize].store(eid, Ordering::Relaxed);
            level_a[w as usize].store(depth, Ordering::Relaxed);
        }
        won
    };

    // Two frontier buffers, swapped per level: a level costs no
    // allocation however many trees the forest has.
    let mut frontier: Vec<u32> = ws.take(n);
    let mut next: Vec<u32> = ws.take(n);
    let mut remaining_arcs = 2 * csr.m();

    // Allocated on the first bottom-up level, reused afterwards.
    let mut frontier_bm: Option<Bitmap> = None;
    // Bit v set ⇔ v still unclaimed after the previous bottom-up sweep:
    // the sweep domain only shrinks, so later levels never rescan what
    // an earlier level already claimed. A bitmap instead of a `Vec<u32>`
    // domain: 32× less sweep-state traffic, zero words answer 64
    // vertices in one load, and claims clear their bit with one
    // whole-word store at the end of the word (each thread owns whole
    // words of the sweep, so no atomics).
    let mut unvisited: Option<Bitmap> = None;
    let mut bottom_up = false;
    let mut bottom_up_done = false;

    let mut tree_root = (n > 0).then_some(first);
    let mut scan = 0usize;
    while let Some(r) = tree_root {
        frontier.clear();
        frontier.push(r);
        let mut frontier_arcs = csr.degree(r);
        remaining_arcs -= frontier_arcs;
        let mut depth = level_a[r as usize].load(Ordering::Relaxed);

        while !frontier.is_empty() {
            if hybrid {
                // Beamer's direction heuristic, evaluated pre-expansion.
                // Bottom-up is a single contiguous phase per traversal,
                // forest restarts included: once the frontier thins
                // back out the sweep never re-engages — late levels have
                // few unvisited vertices, so a re-entered sweep would
                // pay the full vertex scan for almost no claims (and the
                // shrinking `remaining_arcs` makes the entry test
                // trivially true near the end, which used to cause T/B
                // thrash).
                if !bottom_up && !bottom_up_done {
                    bottom_up = frontier.len() > 1
                        && frontier_arcs >= GRAIN
                        && frontier_arcs * alpha > remaining_arcs;
                } else if bottom_up {
                    bottom_up = frontier.len() * beta >= live;
                    bottom_up_done = !bottom_up;
                }
            }
            depth += 1;
            next.clear();

            let next_arcs = if bottom_up {
                let bm = frontier_bm.get_or_insert_with(|| Bitmap::new_in(n, ws));
                bm.clear();
                for &v in &frontier {
                    // Single-threaded fill phase: no other thread touches
                    // the bitmap until the next pool barrier.
                    bm.set_unsync(v as usize);
                }
                // Sweep domain: every unvisited vertex on the first
                // bottom-up level (the bitmap is built from `parent` in
                // one word-partitioned pass), then only the survivors of
                // the previous sweep.
                let unvis = unvisited.get_or_insert_with(|| {
                    let unvis = Bitmap::new_in(n, ws);
                    pool.run(|ctx| {
                        for w in ctx.block_range_of(Bitmap::word_range_of(0..n)) {
                            let hi = (w * 64 + 64).min(n);
                            let mut bits = 0u64;
                            for (b, p) in parent_a[w * 64..hi].iter().enumerate() {
                                bits |= u64::from(p.load(Ordering::Relaxed) == NIL) << b;
                            }
                            unvis.store_word_unsync(w, bits);
                        }
                    });
                    unvis
                });
                let work = ChunkCounter::new(unvis.words().max(1), SWEEP_WORDS_PER_CHUNK);
                let unvis_ro: &Bitmap = unvis;
                let parts = pool.run_map(|_ctx| {
                    let mut local = Vec::new();
                    let mut local_arcs = 0usize;
                    while let Some(words) = work.next_chunk() {
                        for w in words {
                            // One load answers 64 vertices; claimed bits
                            // are cleared with one plain whole-word store
                            // (this thread owns the word for the sweep).
                            let bits = unvis_ro.load_word(w);
                            let mut remaining = bits;
                            let mut probe = bits;
                            while probe != 0 {
                                let b = probe.trailing_zeros() as usize;
                                probe &= probe - 1;
                                let v = (w * 64 + b) as u32;
                                // Scan only the neighbor slice until the
                                // first frontier hit; the parallel
                                // edge-id slice is touched once, on the
                                // hit.
                                let nbrs = csr.neighbors(v);
                                if let Some(k) = nbrs.iter().position(|&x| bm.test(x as usize)) {
                                    // Only this thread owns v: plain
                                    // stores, no CAS.
                                    let x = nbrs[k];
                                    let eid = csr.edge_ids(v)[k];
                                    parent_a[v as usize].store(x, Ordering::Relaxed);
                                    eid_a[v as usize].store(eid, Ordering::Relaxed);
                                    level_a[v as usize].store(depth, Ordering::Relaxed);
                                    local.push(v);
                                    local_arcs += nbrs.len();
                                    remaining &= !(1u64 << b);
                                }
                            }
                            if remaining != bits {
                                unvis_ro.store_word_unsync(w, remaining);
                            }
                        }
                    }
                    (local, local_arcs)
                });
                concat_parts(parts, &mut next)
            } else if frontier_arcs < GRAIN || pool.threads() == 1 {
                // A narrow level on the calling thread, straight into
                // `next`.
                let mut arcs = 0usize;
                for &v in &frontier {
                    for (w, eid) in csr.arcs(v) {
                        if claim(v, w, eid, depth) {
                            next.push(w);
                            arcs += csr.degree(w);
                        }
                    }
                }
                arcs
            } else {
                let work = ChunkCounter::weighted(frontier.len(), EDGE_BUDGET, |i| {
                    csr.degree(frontier[i])
                });
                let frontier_ro: &[u32] = &frontier;
                let parts = pool.run_map(|_ctx| {
                    let mut local = Vec::new();
                    let mut local_arcs = 0usize;
                    while let Some(chunk) = work.next_chunk() {
                        for &v in &frontier_ro[chunk] {
                            for (w, eid) in csr.arcs(v) {
                                if claim(v, w, eid, depth) {
                                    local.push(w);
                                    local_arcs += csr.degree(w);
                                }
                            }
                        }
                    }
                    (local, local_arcs)
                });
                concat_parts(parts, &mut next)
            };

            reached += next.len() as u32;
            remaining_arcs -= next_arcs;
            frontier_arcs = next_arcs;
            if !next.is_empty() {
                let count = next.len() as u32;
                record(
                    &mut frontier_sizes,
                    &mut directions,
                    depth,
                    count,
                    bottom_up,
                );
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        // The next tree, if any, hangs off the first root one level
        // down, by a virtual edge that no array but `parent` records.
        tree_root = if forest {
            next_root(parent_a, &mut scan)
        } else {
            None
        };
        if let Some(r) = tree_root {
            parent_a[r as usize].store(first, Ordering::Relaxed);
            level_a[r as usize].store(1, Ordering::Relaxed);
            reached += 1;
            record(&mut frontier_sizes, &mut directions, 1, 1, false);
        }
    }

    ws.give(frontier);
    ws.give(next);
    if let Some(u) = unvisited {
        u.recycle(ws);
    }
    if let Some(bm) = frontier_bm {
        bm.recycle(ws);
    }

    BfsTree {
        parent,
        parent_eid,
        level,
        reached,
        levels: frontier_sizes.len() as u32,
        frontier_sizes,
        directions,
    }
}

/// Adds `count` vertices discovered at `depth` to the per-level
/// profile; a depth any tree reached bottom-up is marked bottom-up.
fn record(
    sizes: &mut Vec<u32>,
    dirs: &mut Vec<BfsDirection>,
    depth: u32,
    count: u32,
    bottom_up: bool,
) {
    let d = depth as usize;
    if d == sizes.len() {
        sizes.push(0);
        dirs.push(BfsDirection::TopDown);
    }
    sizes[d] += count;
    if bottom_up {
        dirs[d] = BfsDirection::BottomUp;
    }
}

/// Appends per-thread `(vertices, arc_count)` buffers to `next`;
/// returns the total arc count.
fn concat_parts(parts: Vec<(Vec<u32>, usize)>, next: &mut Vec<u32>) -> usize {
    let mut arcs = 0usize;
    for (b, a) in parts {
        next.extend_from_slice(&b);
        arcs += a;
    }
    arcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::assert_valid_rooted_tree;
    use bcc_graph::{gen, GraphBuilder};

    #[test]
    fn seq_levels_on_path() {
        let g = gen::path(6);
        let csr = Csr::build(&g);
        let t = bfs_tree_seq(&csr, 0);
        assert_eq!(t.level, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(t.reached, 6);
        assert_eq!(t.levels, 6); // includes final empty-frontier level
        assert_eq!(t.parent, vec![0, 0, 1, 2, 3, 4]);
        assert_eq!(t.tree_edge_ids().len(), 5);
        assert_eq!(t.frontier_sizes, vec![1; 6]);
        assert_eq!(t.effective_diameter(1.0), 5);
        assert_eq!(t.bottom_up_levels(), 0);
    }

    #[test]
    fn bfs_tree_property_levels_differ_by_one() {
        // In a BFS tree, every graph edge spans at most one level.
        let g = gen::random_connected(800, 3000, 17);
        let csr = Csr::build(&g);
        for tuning in [TraversalTuning::classic(), TraversalTuning::fast()] {
            for p in [1, 4] {
                let pool = Pool::new(p);
                let t = bfs_tree(&pool, &csr, 0, &tuning);
                assert_eq!(t.reached, g.n());
                assert_valid_rooted_tree(&g, &t.parent, 0);
                for e in g.edges() {
                    let lu = t.level[e.u as usize] as i64;
                    let lv = t.level[e.v as usize] as i64;
                    assert!((lu - lv).abs() <= 1, "edge {e:?} spans levels {lu},{lv}");
                }
                // Parent is exactly one level up.
                for v in 0..g.n() {
                    if v != 0 {
                        let p = t.parent[v as usize];
                        assert_eq!(t.level[v as usize], t.level[p as usize] + 1);
                    }
                }
            }
        }
    }

    #[test]
    fn hybrid_switches_bottom_up_on_dense_graphs_and_matches_seq_levels() {
        // A dense random graph has 2-3 BFS levels carrying nearly all
        // edges: the heuristic must fire, and levels must still match
        // the sequential oracle exactly.
        let g = gen::random_connected(2000, 30_000, 5);
        let csr = Csr::build(&g);
        let s = bfs_tree_seq(&csr, 0);
        for p in [1, 4] {
            let pool = Pool::new(p);
            let t = bfs_tree(&pool, &csr, 0, &TraversalTuning::fast());
            assert_eq!(t.level, s.level, "p={p}");
            assert_eq!(t.levels, s.levels);
            assert_eq!(t.frontier_sizes, s.frontier_sizes);
            assert!(
                t.bottom_up_levels() >= 1,
                "direction heuristic never fired: {:?} (sizes {:?})",
                t.directions,
                t.frontier_sizes
            );
            assert_valid_rooted_tree(&g, &t.parent, 0);
        }
    }

    #[test]
    fn parent_eid_points_to_real_edges() {
        let g = gen::torus(5, 7);
        let csr = Csr::build(&g);
        let pool = Pool::new(3);
        for tuning in [TraversalTuning::classic(), TraversalTuning::fast()] {
            let t = bfs_tree(&pool, &csr, 3, &tuning);
            for v in 0..g.n() {
                let eid = t.parent_eid[v as usize];
                if v == 3 {
                    assert_eq!(eid, NIL);
                    continue;
                }
                let e = g.edges()[eid as usize];
                let p = t.parent[v as usize];
                assert!((e.u == v && e.v == p) || (e.v == v && e.u == p));
            }
        }
    }

    #[test]
    fn disconnected_graph_partial_tree() {
        let g = GraphBuilder::new(5)
            .edges([(0, 1), (1, 2), (3, 4)])
            .build()
            .unwrap();
        let csr = Csr::build(&g);
        let t = bfs_tree_seq(&csr, 0);
        assert_eq!(t.reached, 3);
        assert_eq!(t.parent[3], NIL);
        assert_eq!(t.parent[4], NIL);
        // The hybrid agrees on partial trees.
        let pool = Pool::new(2);
        let h = bfs_tree(&pool, &csr, 0, &TraversalTuning::fast());
        assert_eq!(h.reached, 3);
        assert_eq!(h.level, t.level);
    }

    #[test]
    fn par_bfs_forced_parallel_path_small_graph() {
        // Force the parallel path by using a graph above the threshold.
        let g = gen::random_connected(5000, 15_000, 2);
        let csr = Csr::build(&g);
        let pool = Pool::new(4);
        let s = bfs_tree_seq(&csr, 100);
        for tuning in [TraversalTuning::classic(), TraversalTuning::fast()] {
            let t = bfs_tree(&pool, &csr, 100, &tuning);
            assert_eq!(t.reached, 5000);
            assert_valid_rooted_tree(&g, &t.parent, 100);
            // Levels must match the sequential BFS (levels are unique
            // even though parents are not).
            assert_eq!(t.level, s.level);
            assert_eq!(t.levels, s.levels);
            assert_eq!(t.frontier_sizes, s.frontier_sizes);
        }
    }

    #[test]
    fn effective_diameter_quantiles() {
        let t = BfsTree {
            parent: vec![],
            parent_eid: vec![],
            level: vec![],
            reached: 100,
            levels: 4,
            frontier_sizes: vec![1, 9, 80, 10],
            directions: vec![BfsDirection::TopDown; 4],
        };
        assert_eq!(t.effective_diameter(0.05), 1);
        assert_eq!(t.effective_diameter(0.9), 2);
        assert_eq!(t.effective_diameter(1.0), 3);
    }

    #[test]
    fn ws_variant_matches_and_reaches_zero_miss_steady_state() {
        let ws = BccWorkspace::new();
        let g = gen::random_connected(2000, 30_000, 5);
        let csr = Csr::build(&g);
        let pool = Pool::new(4);
        for tuning in [TraversalTuning::classic(), TraversalTuning::fast()] {
            let plain = bfs_tree(&pool, &csr, 0, &tuning);
            let warm = bfs_tree_ws(&pool, &csr, 0, &tuning, &ws);
            assert_eq!(warm.level, plain.level);
            warm.recycle(&ws);
            let before = ws.stats();
            let again = bfs_tree_ws(&pool, &csr, 0, &tuning, &ws);
            assert_eq!(again.level, plain.level);
            assert_eq!(again.frontier_sizes, plain.frontier_sizes);
            again.recycle(&ws);
            let delta = ws.stats().delta_since(&before);
            assert_eq!(delta.misses, 0, "steady-state rerun must not miss");
        }
    }

    #[test]
    fn forest_roots_every_component_at_its_smallest_vertex() {
        // Components {0..3} (a path), {4} isolated, {5, 6, 7} (a
        // triangle), {8} isolated, and a random part on 9..; every
        // other component's root hangs off vertex 0.
        let mut edges = vec![(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (7, 5)];
        let part = gen::random_gnm(300, 400, 3);
        edges.extend(part.edges().iter().map(|e| (e.u + 9, e.v + 9)));
        let g = GraphBuilder::new(309).edges(edges).build().unwrap();
        let csr = Csr::build(&g);
        let n = g.n();
        let cc = crate::seq::components_union_find(n, g.edges());
        for tuning in [TraversalTuning::classic(), TraversalTuning::fast()] {
            for p in [1, 2, 4] {
                let pool = Pool::new(p);
                let f = bfs_forest_ws(&pool, &csr, &tuning, &BccWorkspace::new());
                let what = format!("p={p} {tuning:?}");
                assert_eq!(f.reached, n, "{what}");
                assert_eq!(f.levels as usize, f.frontier_sizes.len());
                let roots = f.parent_eid.iter().filter(|&&e| e == NIL).count();
                assert_eq!(roots as u32, cc.count, "{what}: one root each");
                for v in 0..n {
                    let (p, l) = (f.parent[v as usize], f.level[v as usize]);
                    if cc.label[v as usize] == v {
                        // The component's smallest vertex is vertex 0 or
                        // a leaf of it.
                        let top = u32::from(v != 0);
                        assert_eq!((p, l), (0, top), "{what}: root {v}");
                        assert_eq!(f.parent_eid[v as usize], NIL);
                        // Its tree is a BFS tree of the component.
                        let t = bfs_tree_seq(&csr, v);
                        for w in 0..n as usize {
                            if t.parent[w] != NIL {
                                assert_eq!(f.level[w], t.level[w] + top, "{what}: w={w}");
                            }
                        }
                        continue;
                    }
                    assert_eq!(l, f.level[p as usize] + 1, "{what}: v={v}");
                    let e = g.edges()[f.parent_eid[v as usize] as usize];
                    assert!((e.u, e.v) == (v, p) || (e.v, e.u) == (v, p), "{what}");
                }
            }
        }
    }

    #[test]
    fn forest_of_a_connected_graph_is_its_tree_from_vertex_0() {
        let g = gen::random_connected(2000, 30_000, 5);
        let csr = Csr::build(&g);
        let s = bfs_tree_seq(&csr, 0);
        let pool = Pool::new(4);
        let f = bfs_forest_ws(&pool, &csr, &TraversalTuning::fast(), &BccWorkspace::new());
        assert_eq!(f.level, s.level);
        assert_eq!(f.frontier_sizes, s.frontier_sizes);
        assert_valid_rooted_tree(&g, &f.parent, 0);
        assert!(f.bottom_up_levels() >= 1, "{:?}", f.directions);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        let csr = Csr::build(&g);
        let t = bfs_tree_seq(&csr, 0);
        assert_eq!(t.reached, 0);
        let pool = Pool::new(2);
        let h = bfs_tree(&pool, &csr, 0, &TraversalTuning::fast());
        assert_eq!(h.reached, 0);
        assert_eq!(h.levels, 0);
        let f = bfs_forest_ws(&pool, &csr, &TraversalTuning::fast(), &BccWorkspace::new());
        assert_eq!((f.reached, f.levels), (0, 0));
    }
}
