//! Compressed sparse row (adjacency) representation.
//!
//! Traversal-based steps (BFS trees, work-stealing spanning tree, the
//! sequential Tarjan baseline, DFS-order Euler tours) need neighbor
//! queries; [`Csr`] provides them, carrying the *edge index* alongside
//! each arc so per-edge results (biconnected-component labels) can be
//! written back to the edge list the pipeline started from.
//!
//! Converting the edge list into CSR is itself one of the representation
//! conversions whose cost the paper calls out. The build is serial: a
//! degree count, a prefix sum, a scatter pass that writes each arc's
//! edge id straight into place, and a sequential pass that fills in the
//! neighbors, so every vertex's arcs keep edge-list order. (On a 2-vCPU
//! host a parallel build lost to it at p = 2: atomic cursors contend on
//! hub vertices, and an atomic-free owner-scatter only broke even at
//! m = 1.7M.) A *mapped* graph skips the conversion entirely — `.bccsr`
//! files carry the adjacency arrays on disk, and [`Csr::build`] on one
//! is an `Arc` clone of the mapping.

use crate::bccsr::MappedCsr;
use crate::edge::{Graph, GraphData};
use bcc_smp::Pool;
use std::sync::Arc;

/// Adjacency structure: for each vertex, a slice of `(neighbor, edge id)`
/// arcs. Every undirected edge appears as two arcs.
///
/// Backed either by owned arrays (built from an in-memory edge list) or
/// by a shared `.bccsr` mapping (zero-copy, zero build cost); the
/// accessor surface is identical.
#[derive(Clone, Debug)]
pub struct Csr {
    repr: CsrRepr,
}

#[derive(Clone, Debug)]
enum CsrRepr {
    Owned {
        n: u32,
        /// `offsets[v]..offsets[v+1]` indexes `adj`/`eid` for vertex `v`.
        offsets: Vec<usize>,
        adj: Vec<u32>,
        eid: Vec<u32>,
    },
    Mapped(Arc<MappedCsr>),
}

impl Csr {
    /// Builds the adjacency of an edge list: each vertex's arcs appear
    /// in edge-list order. On a mapped graph this is an O(1) `Arc` clone
    /// of the on-disk adjacency — no materialization.
    pub fn build(g: &Graph) -> Self {
        if let GraphData::Mapped(m) = g.data() {
            return Csr {
                repr: CsrRepr::Mapped(Arc::clone(m)),
            };
        }
        let (n, m, edges) = (g.n() as usize, g.m(), g.edges());
        assert!(
            2 * m <= u32::MAX as usize,
            "{m} edges overflow u32 arc positions"
        );
        let mut offsets = vec![0usize; n + 1];
        for e in edges {
            offsets[e.u as usize + 1] += 1;
            offsets[e.v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Edge ids scatter into place through a cursor of arc positions
        // (u32, like the ids themselves): one random write stream of 4
        // bytes per arc.
        let mut cursor: Vec<u32> = offsets[..n].iter().map(|&o| o as u32).collect();
        let mut eid = vec![0u32; 2 * m];
        for (i, e) in edges.iter().enumerate() {
            eid[cursor[e.u as usize] as usize] = i as u32;
            cursor[e.u as usize] += 1;
            eid[cursor[e.v as usize] as usize] = i as u32;
            cursor[e.v as usize] += 1;
        }
        drop(cursor);
        // Neighbors in one sequential pass: arc k of v leads to the far
        // end of its edge. This gather beat scattering neighbors as a
        // second random write stream (1.3-1.5x slower on a random graph
        // with m = 1.7M) and needs no packed (neighbor, id) staging
        // array, which cost 16 bytes per edge at the build's peak.
        let mut adj = vec![0u32; 2 * m];
        for v in 0..n {
            for k in offsets[v]..offsets[v + 1] {
                let e = edges[eid[k] as usize];
                adj[k] = e.u ^ e.v ^ v as u32;
            }
        }
        Csr {
            repr: CsrRepr::Owned {
                n: g.n(),
                offsets,
                adj,
                eid,
            },
        }
    }

    /// [`Csr::build`]: the benchmark's per-layer trace times the CSR
    /// build through this name. The pool is unused; the serial build won
    /// every measured input at p = 2.
    pub fn build_par(_pool: &Pool, g: &Graph) -> Self {
        Csr::build(g)
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> u32 {
        match &self.repr {
            CsrRepr::Owned { n, .. } => *n,
            CsrRepr::Mapped(m) => m.n(),
        }
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        match &self.repr {
            CsrRepr::Owned { adj, .. } => adj.len() / 2,
            CsrRepr::Mapped(m) => m.m(),
        }
    }

    /// True if the adjacency is served from a mapped `.bccsr` file.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, CsrRepr::Mapped(_))
    }

    /// Neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        match &self.repr {
            CsrRepr::Owned { offsets, adj, .. } => {
                &adj[offsets[v as usize]..offsets[v as usize + 1]]
            }
            CsrRepr::Mapped(m) => m.neighbors(v),
        }
    }

    /// Edge ids of the arcs out of `v`, parallel to [`Csr::neighbors`].
    #[inline]
    pub fn edge_ids(&self, v: u32) -> &[u32] {
        match &self.repr {
            CsrRepr::Owned { offsets, eid, .. } => {
                &eid[offsets[v as usize]..offsets[v as usize + 1]]
            }
            CsrRepr::Mapped(m) => m.edge_ids(v),
        }
    }

    /// `(neighbor, edge id)` pairs out of `v`.
    #[inline]
    pub fn arcs(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.edge_ids(v).iter().copied())
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        match &self.repr {
            CsrRepr::Owned { offsets, .. } => offsets[v as usize + 1] - offsets[v as usize],
            CsrRepr::Mapped(m) => m.degree(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> Graph {
        GraphBuilder::new(5)
            .edges([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
            .build()
            .unwrap()
    }

    fn sorted_arcs(csr: &Csr, v: u32) -> Vec<(u32, u32)> {
        let mut a: Vec<_> = csr.arcs(v).collect();
        a.sort_unstable();
        a
    }

    #[test]
    fn sequential_build_matches_hand_answer() {
        let csr = Csr::build(&sample());
        assert_eq!(csr.n(), 5);
        assert_eq!(csr.m(), 5);
        assert_eq!(sorted_arcs(&csr, 0), vec![(1, 0), (2, 1)]);
        assert_eq!(sorted_arcs(&csr, 2), vec![(0, 1), (1, 2), (3, 3)]);
        assert_eq!(csr.degree(4), 1);
    }

    #[test]
    fn build_par_equals_build_arc_for_arc_in_edge_list_order() {
        use crate::gen;
        // A parallel edge, and endpoints given in both orders.
        let small = GraphBuilder::new(4)
            .edges([(0, 1), (2, 0), (0, 3), (1, 2), (1, 0), (3, 2)])
            .build()
            .unwrap();
        for g in [small, gen::random_connected(2000, 20_000, 42)] {
            let seq = Csr::build(&g);
            // Each vertex's arcs, in edge-list order.
            let mut want: Vec<Vec<(u32, u32)>> = vec![Vec::new(); g.n() as usize];
            for (i, e) in g.edges().iter().enumerate() {
                want[e.u as usize].push((e.v, i as u32));
                want[e.v as usize].push((e.u, i as u32));
            }
            for p in [1, 2, 4] {
                let par = Csr::build_par(&Pool::new(p), &g);
                assert_eq!((par.n(), par.m()), (seq.n(), seq.m()));
                for v in 0..g.n() {
                    let arcs: Vec<_> = par.arcs(v).collect();
                    assert_eq!(arcs, seq.arcs(v).collect::<Vec<_>>(), "p={p} v={v}");
                    assert_eq!(arcs, want[v as usize], "p={p} v={v}");
                }
            }
        }
    }

    #[test]
    fn empty_and_isolated_vertices() {
        let g = GraphBuilder::new(4).edge(1, 2).build().unwrap();
        let csr = Csr::build(&g);
        assert!(csr.neighbors(0).is_empty());
        assert!(csr.neighbors(3).is_empty());
        assert_eq!(csr.neighbors(1), &[2]);

        let empty = GraphBuilder::new(0).build().unwrap();
        let csr = Csr::build(&empty);
        assert_eq!(csr.n(), 0);
        assert_eq!(csr.m(), 0);
    }

    #[test]
    fn edge_ids_point_back_to_edge_list() {
        let g = sample();
        let csr = Csr::build(&g);
        for v in 0..g.n() {
            for (w, id) in csr.arcs(v) {
                let e = g.edges()[id as usize];
                assert!(
                    (e.u == v && e.v == w) || (e.v == v && e.u == w),
                    "arc ({v},{w}) id {id} mismatches edge {e:?}"
                );
            }
        }
    }

    #[test]
    fn mapped_build_is_zero_copy_and_equivalent() {
        use crate::gen;
        let g = gen::random_connected(300, 900, 11);
        let mut path = std::env::temp_dir();
        path.push(format!("bcc-csr-test-{}.bccsr", std::process::id()));
        g.save_bccsr(&path).unwrap();
        let mg = crate::bccsr::MappedCsr::open_graph(&path).unwrap();

        let owned = Csr::build(&g);
        let mapped = Csr::build(&mg);
        assert!(mapped.is_mapped() && !owned.is_mapped());
        let pool = Pool::new(4);
        let mapped_par = Csr::build_par(&pool, &mg);
        assert!(mapped_par.is_mapped());
        for v in 0..g.n() {
            assert_eq!(sorted_arcs(&mapped, v), sorted_arcs(&owned, v), "v={v}");
            assert_eq!(mapped.degree(v), owned.degree(v));
        }
        std::fs::remove_file(&path).unwrap();
    }
}
