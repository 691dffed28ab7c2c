//! Work-stealing graph-traversal rooted spanning tree (Bader–Cong).
//!
//! The paper's TV-opt replaces the Shiloach–Vishkin spanning tree with
//! the authors' earlier "work-stealing graph-traversal spanning tree"
//! [Bader & Cong, IPDPS 2004]: every thread performs a DFS-like
//! traversal from its own sub-root, claiming vertices with CAS; idle
//! threads steal unexpanded vertices from busy ones. The result is a
//! *rooted* spanning tree (parent array) produced in one pass — merging
//! the paper's Spanning-tree and Root-tree steps.
//!
//! A tree starts as a DFS on the calling thread and moves to the pool
//! once that DFS has scanned [`GRAIN`] arcs with vertices left to
//! expand, seeding the pool with its stack: a tree smaller than the
//! grain costs no pool round. [`work_stealing_forest`] continues the
//! same traversal past the first tree, rooted at vertex 0: it restarts
//! at the smallest unreached vertex and hangs that root off vertex 0,
//! as if a virtual edge joined them — a rooted spanning tree of G plus
//! the virtual edges.
//!
//! Expected running time O((n + m)/p) with high probability on graphs
//! whose traversal frontier stays wide.

use crate::next_root;
use bcc_graph::Csr;
use bcc_smp::atomic::as_atomic_u32;
use bcc_smp::{Pool, GRAIN, NIL};
use crossbeam_deque::{Steal, Stealer, Worker};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Rooted spanning tree produced by the work-stealing traversal.
#[derive(Clone, Debug)]
pub struct SpanningTree {
    /// `parent[v]`; `parent[root] == root`; `NIL` if unreachable. In a
    /// forest the root is vertex 0, and every other component's
    /// smallest vertex has parent 0 as well.
    pub parent: Vec<u32>,
    /// Edge id of the parent edge (index into the edge list); `NIL` for
    /// the root, unreachable vertices, and a forest's other component
    /// roots.
    pub parent_eid: Vec<u32>,
    /// Vertices reached.
    pub reached: u32,
}

/// Computes a rooted spanning tree of the component containing `root`
/// by parallel work-stealing traversal.
pub fn work_stealing_tree(pool: &Pool, csr: &Csr, root: u32) -> SpanningTree {
    traverse(pool, csr, Some(root))
}

/// [`work_stealing_tree`]'s traversal from vertex 0, restarted at the
/// smallest unreached vertex until every vertex is reached. Each
/// restart's root hangs off vertex 0 by a virtual edge: parent 0, no
/// parent edge, so the vertices without a parent edge are exactly one
/// root per component. A degree-0 vertex is such a root with no tree
/// below it.
pub fn work_stealing_forest(pool: &Pool, csr: &Csr) -> SpanningTree {
    traverse(pool, csr, None)
}

/// The one traversal body: the tree of `root`, or with `None` the
/// forest whose restarts hang off vertex 0.
fn traverse(pool: &Pool, csr: &Csr, root: Option<u32>) -> SpanningTree {
    let n = csr.n() as usize;
    let forest = root.is_none();
    let first = root.unwrap_or(0);
    let mut parent = vec![NIL; n];
    let mut parent_eid = vec![NIL; n];
    let mut reached = 0u32;
    {
        let parent_a = as_atomic_u32(&mut parent);
        let eid_a = as_atomic_u32(&mut parent_eid);
        let mut stack: Vec<u32> = Vec::new();
        let mut tree_root = (n > 0).then_some(first);
        let mut scan = 0usize;
        while let Some(r) = tree_root {
            parent_a[r as usize].store(first, Ordering::Relaxed);
            reached += 1;
            stack.push(r);
            // Sequential DFS until the tree proves wider than the grain.
            let mut arcs = 0usize;
            while arcs < GRAIN || pool.threads() == 1 {
                let Some(v) = stack.pop() else { break };
                arcs += csr.degree(v);
                for (w, eid) in csr.arcs(v) {
                    if parent_a[w as usize].load(Ordering::Relaxed) == NIL {
                        parent_a[w as usize].store(v, Ordering::Relaxed);
                        eid_a[w as usize].store(eid, Ordering::Relaxed);
                        reached += 1;
                        stack.push(w);
                    }
                }
            }
            if !stack.is_empty() {
                reached += steal_rest(pool, csr, parent_a, eid_a, &mut stack);
            }
            tree_root = if forest {
                next_root(parent_a, &mut scan)
            } else {
                None
            };
        }
    }
    SpanningTree {
        parent,
        parent_eid,
        reached,
    }
}

/// Finishes a tree on the pool: the claimed but unexpanded `seeds` go
/// to thread 0's deque, and every thread pops, steals and claims until
/// each claimed vertex is expanded. Returns the vertices claimed here.
fn steal_rest(
    pool: &Pool,
    csr: &Csr,
    parent_a: &[AtomicU32],
    eid_a: &[AtomicU32],
    seeds: &mut Vec<u32>,
) -> u32 {
    let p = pool.threads();
    // Per-thread LIFO deques; each claimed vertex is pushed exactly once
    // and popped exactly once, so `expanded == claimed` signals drain.
    let workers: Vec<Worker<u32>> = (0..p).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<u32>> = workers.iter().map(Worker::stealer).collect();
    let seeded = seeds.len();
    for v in seeds.drain(..) {
        workers[0].push(v);
    }
    let claimed = AtomicUsize::new(seeded);
    let expanded = AtomicUsize::new(0);

    // Hand each thread its own worker through a mutex-free slot vector.
    let slots: Vec<std::sync::Mutex<Option<Worker<u32>>>> = workers
        .into_iter()
        .map(|w| std::sync::Mutex::new(Some(w)))
        .collect();

    pool.run(|ctx| {
        let worker = slots[ctx.tid()].lock().unwrap().take().unwrap();
        let mut spins = 0u32;
        loop {
            let v = worker.pop().or_else(|| {
                // Steal round-robin starting after our own id.
                for k in 1..p {
                    let s = &stealers[(ctx.tid() + k) % p];
                    loop {
                        match s.steal() {
                            Steal::Success(v) => return Some(v),
                            Steal::Empty => break,
                            Steal::Retry => continue,
                        }
                    }
                }
                None
            });
            match v {
                Some(v) => {
                    spins = 0;
                    for (w, eid) in csr.arcs(v) {
                        if parent_a[w as usize].load(Ordering::Relaxed) == NIL
                            && parent_a[w as usize]
                                .compare_exchange(NIL, v, Ordering::AcqRel, Ordering::Acquire)
                                .is_ok()
                        {
                            eid_a[w as usize].store(eid, Ordering::Relaxed);
                            claimed.fetch_add(1, Ordering::Relaxed);
                            worker.push(w);
                        }
                    }
                    expanded.fetch_add(1, Ordering::AcqRel);
                }
                None => {
                    // Quiescent when every claimed vertex is expanded.
                    if expanded.load(Ordering::Acquire) == claimed.load(Ordering::Acquire) {
                        break;
                    }
                    bcc_smp::barrier::backoff(&mut spins);
                }
            }
        }
    });

    (claimed.load(Ordering::Relaxed) - seeded) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::assert_valid_rooted_tree;
    use bcc_graph::{gen, GraphBuilder};

    #[test]
    fn sequential_path_small_graphs() {
        let g = gen::cycle(10);
        let csr = Csr::build(&g);
        let pool = Pool::new(1);
        let t = work_stealing_tree(&pool, &csr, 0);
        assert_eq!(t.reached, 10);
        assert_valid_rooted_tree(&g, &t.parent, 0);
    }

    #[test]
    fn parallel_spans_random_graphs() {
        let g = gen::random_connected(20_000, 60_000, 5);
        let csr = Csr::build(&g);
        for p in [2, 4, 8] {
            let pool = Pool::new(p);
            let t = work_stealing_tree(&pool, &csr, 7);
            assert_eq!(t.reached, g.n(), "p={p}");
            assert_valid_rooted_tree(&g, &t.parent, 7);
        }
    }

    #[test]
    fn parent_eids_match_edges() {
        let g = gen::random_connected(5000, 12_000, 9);
        let csr = Csr::build(&g);
        let pool = Pool::new(4);
        let t = work_stealing_tree(&pool, &csr, 0);
        for v in 1..g.n() {
            let eid = t.parent_eid[v as usize];
            assert_ne!(eid, NIL);
            let e = g.edges()[eid as usize];
            let p = t.parent[v as usize];
            assert!((e.u == v && e.v == p) || (e.v == v && e.u == p));
        }
    }

    #[test]
    fn unreachable_vertices_stay_nil() {
        let g = GraphBuilder::new(6)
            .edges([(0, 1), (1, 2), (3, 4), (4, 5)])
            .build()
            .unwrap();
        let csr = Csr::build(&g);
        let pool = Pool::new(2);
        let t = work_stealing_tree(&pool, &csr, 0);
        assert_eq!(t.reached, 3);
        assert_eq!(t.parent[3], NIL);
        assert_eq!(t.parent[5], NIL);
    }

    #[test]
    fn forest_hangs_each_component_root_off_vertex_0() {
        // A path component, isolated vertices, and a component above the
        // grain placed last, so its restart runs on the pool.
        let big = gen::random_connected(6000, 12_000, 4);
        let mut edges = vec![(0, 1), (1, 2), (4, 5)];
        edges.extend(big.edges().iter().map(|e| (e.u + 8, e.v + 8)));
        let g = GraphBuilder::new(6008).edges(edges).build().unwrap();
        let csr = Csr::build(&g);
        let n = g.n();
        let cc = crate::seq::components_union_find(n, g.edges());
        for p in [1, 2, 4] {
            let pool = Pool::new(p);
            let t = work_stealing_forest(&pool, &csr);
            assert_eq!(t.reached, n, "p={p}");
            for v in 0..n {
                let par = t.parent[v as usize];
                let eid = t.parent_eid[v as usize];
                if cc.label[v as usize] == v {
                    assert_eq!((par, eid), (0, NIL), "p={p}: root {v}");
                    continue;
                }
                let e = g.edges()[eid as usize];
                assert!((e.u, e.v) == (v, par) || (e.v, e.u) == (v, par));
                // Parent edges climb to the component's root.
                let mut x = v;
                while t.parent_eid[x as usize] != NIL {
                    x = t.parent[x as usize];
                }
                assert_eq!(x, cc.label[v as usize], "p={p}: v={v}");
            }
        }
    }

    #[test]
    fn star_graph_contention() {
        // All vertices adjacent to the hub: maximal CAS contention.
        let g = gen::star(30_000);
        let csr = Csr::build(&g);
        let pool = Pool::new(4);
        let t = work_stealing_tree(&pool, &csr, 0);
        assert_eq!(t.reached, 30_000);
        for v in 1..30_000 {
            assert_eq!(t.parent[v as usize], 0);
        }
    }

    #[test]
    fn path_graph_serial_dependency() {
        // A long path defeats parallelism but must still be correct.
        let g = gen::path(20_000);
        let csr = Csr::build(&g);
        let pool = Pool::new(4);
        let t = work_stealing_tree(&pool, &csr, 0);
        assert_eq!(t.reached, 20_000);
        assert_valid_rooted_tree(&g, &t.parent, 0);
    }
}
