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
//! Expected running time O((n + m)/p) with high probability on graphs
//! whose traversal frontier stays wide.

use bcc_graph::Csr;
use bcc_smp::atomic::as_atomic_u32;
use bcc_smp::{Pool, GRAIN, NIL};
use crossbeam_deque::{Steal, Stealer, Worker};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Rooted spanning tree produced by the work-stealing traversal.
#[derive(Clone, Debug)]
pub struct SpanningTree {
    /// `parent[v]`; `parent[root] == root`; `NIL` if unreachable.
    pub parent: Vec<u32>,
    /// Edge id of the parent edge (index into the edge list); `NIL` for
    /// the root / unreachable vertices.
    pub parent_eid: Vec<u32>,
    /// Vertices reached.
    pub reached: u32,
}

/// Computes a rooted spanning tree of the component containing `root`
/// by parallel work-stealing traversal.
pub fn work_stealing_tree(pool: &Pool, csr: &Csr, root: u32) -> SpanningTree {
    let n = csr.n() as usize;
    let p = pool.threads();
    let mut parent = vec![NIL; n];
    let mut parent_eid = vec![NIL; n];
    if n == 0 {
        return SpanningTree {
            parent,
            parent_eid,
            reached: 0,
        };
    }
    parent[root as usize] = root;

    if p == 1 || n < GRAIN {
        // Sequential DFS traversal; same output contract.
        let mut stack = vec![root];
        let mut reached = 1u32;
        while let Some(v) = stack.pop() {
            for (w, eid) in csr.arcs(v) {
                if parent[w as usize] == NIL {
                    parent[w as usize] = v;
                    parent_eid[w as usize] = eid;
                    reached += 1;
                    stack.push(w);
                }
            }
        }
        return SpanningTree {
            parent,
            parent_eid,
            reached,
        };
    }

    let parent_a = as_atomic_u32(&mut parent);
    let eid_a = as_atomic_u32(&mut parent_eid);

    // Per-thread LIFO deques; each claimed vertex is pushed exactly once
    // and popped exactly once, so `expanded == claimed` signals drain.
    let workers: Vec<Worker<u32>> = (0..p).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<u32>> = workers.iter().map(Worker::stealer).collect();
    workers[0].push(root);
    let claimed = AtomicUsize::new(1);
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

    let reached = claimed.load(Ordering::Relaxed) as u32;
    SpanningTree {
        parent,
        parent_eid,
        reached,
    }
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
