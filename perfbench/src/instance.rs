//! The serving instance and its operation stream.
//!
//! The instance is `parts` disjoint components of the workload's own
//! family (R-MAT or road lattice) plus a few short *probe paths*. Every
//! family update inserts or removes a chord `(u, v)` whose endpoints
//! already share a block: such an edge changes no block, cut vertex,
//! bridge or connectivity answer, yet each commit still rebuilds the
//! touched component through the pipeline. So every family query can be
//! checked against an index of the initial graph while updates load the
//! writers for real. Probe paths carry the freshness measurement: a
//! chord between a path's two ends flips `SameBlock(ends)`.

use crate::gen::{self, Rng};
use bcc_core::{Algorithm, BccConfig};
use bcc_graph::{Csr, Edge, Graph, GraphBuilder};
use bcc_query::{EdgeUpdate, Failure, Query};
use bcc_smp::Pool;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Family {
    Rmat,
    Road,
}

pub struct Instance {
    pub graph: Graph,
    /// `(first vertex, vertex count)` of each family part.
    pub parts: Vec<(u32, u32)>,
    /// Original edges of each part (targets of `IsBridge`).
    pub part_edges: Vec<Vec<Edge>>,
    /// Block-preserving chords of each part.
    pub chords: Vec<Vec<(u32, u32)>>,
    /// The two ends of each probe path.
    pub probes: Vec<(u32, u32)>,
}

/// Chords sampled per part.
const CHORDS_PER_PART: usize = 64;
pub const PROBE_PATHS: u32 = 8;
const PROBE_LEN: u32 = 16;

impl Instance {
    pub fn new(family: Family, parts: u32, part_size: u32, seed: u64, pool: &Pool) -> Instance {
        let mut edges = Vec::new();
        let mut ranges = Vec::new();
        for c in 0..parts {
            let lo = c * part_size;
            let part_seed = Rng::derive(seed, 0x5e7e + c as u64).next_u64();
            match family {
                Family::Rmat => {
                    let scale = part_size.trailing_zeros();
                    assert_eq!(1 << scale, part_size, "R-MAT parts are powers of two");
                    edges.extend(gen::rmat(scale, 8, lo, part_seed, 1));
                }
                Family::Road => {
                    let side = (part_size as f64).sqrt() as u32;
                    assert_eq!(side * side, part_size, "road parts are squares");
                    edges.extend(gen::road(side, side, 0.7, lo, part_seed));
                }
            }
            ranges.push((lo, part_size));
        }
        let mut probes = Vec::new();
        for j in 0..PROBE_PATHS {
            let first = parts * part_size + j * PROBE_LEN;
            edges.extend(gen::path(first, PROBE_LEN));
            probes.push((first, first + PROBE_LEN - 1));
        }
        let n = parts * part_size + PROBE_PATHS * PROBE_LEN;
        let graph = GraphBuilder::new(n)
            .lenient()
            .edges(edges)
            .build()
            .expect("instance edges are in range");

        let mut part_edges = vec![Vec::new(); parts as usize];
        for &e in graph.edges() {
            let c = (e.u / part_size) as usize;
            if c < parts as usize {
                part_edges[c].push(e);
            }
        }
        let labels = BccConfig::new(Algorithm::Sequential)
            .run_any(pool, &graph)
            .expect("Sequential accepts any graph")
            .result
            .edge_comp;
        let chords = block_chords(&graph, &labels, &ranges, seed);
        Instance {
            graph,
            parts: ranges,
            part_edges,
            chords,
            probes,
        }
    }
}

/// Non-edges `(u, v)` of each part whose ends share a block: two edges
/// `u–w`, `w–v` with one block label give such a pair.
fn block_chords(
    g: &Graph,
    labels: &[u32],
    parts: &[(u32, u32)],
    seed: u64,
) -> Vec<Vec<(u32, u32)>> {
    let csr = Csr::build(g);
    let mut rng = Rng::derive(seed, 0xc0);
    parts
        .iter()
        .map(|&(lo, len)| {
            let mut found: Vec<(u32, u32)> = Vec::new();
            for _ in 0..len * 8 {
                if found.len() == CHORDS_PER_PART {
                    break;
                }
                let w = lo + rng.below(len as u64) as u32;
                let arcs: Vec<(u32, u32)> = csr.arcs(w).collect();
                if arcs.len() < 2 {
                    continue;
                }
                let (u, e1) = arcs[rng.below(arcs.len() as u64) as usize];
                let (v, e2) = arcs[rng.below(arcs.len() as u64) as usize];
                if u == v || labels[e1 as usize] != labels[e2 as usize] {
                    continue;
                }
                let pair = (u.min(v), u.max(v));
                if csr.neighbors(u).contains(&v) || found.contains(&pair) {
                    continue;
                }
                found.push(pair);
            }
            found
        })
        .collect()
}

/// A family operation: a query to check, or a chord toggle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Query(Query),
    Update(EdgeUpdate),
}

/// The deterministic family operation stream: 90% queries, 10% chord
/// toggles, parts chosen uniformly.
pub struct OpStream<'a> {
    inst: &'a Instance,
    rng: Rng,
    /// Per part: whether each chord is currently inserted.
    on: Vec<Vec<bool>>,
}

impl<'a> OpStream<'a> {
    pub fn new(inst: &'a Instance, seed: u64) -> Self {
        OpStream {
            inst,
            rng: Rng::derive(seed, 0x0b5),
            on: inst.chords.iter().map(|c| vec![false; c.len()]).collect(),
        }
    }

    /// The two ends of probe path `j`.
    pub fn probe(&self, j: usize) -> (u32, u32) {
        self.inst.probes[j]
    }

    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    fn vert(&mut self, c: usize) -> u32 {
        let (lo, len) = self.inst.parts[c];
        lo + self.rng.below(len as u64) as u32
    }

    pub fn next_op(&mut self) -> Op {
        let c = self.rng.below(self.inst.parts.len() as u64) as usize;
        if self.rng.below(10) == 0 && !self.inst.chords[c].is_empty() {
            let i = self.rng.below(self.on[c].len() as u64) as usize;
            let (u, v) = self.inst.chords[c][i];
            self.on[c][i] = !self.on[c][i];
            return Op::Update(if self.on[c][i] {
                EdgeUpdate::Insert(u, v)
            } else {
                EdgeUpdate::Remove(u, v)
            });
        }
        let (u, v, x) = (self.vert(c), self.vert(c), self.vert(c));
        Op::Query(match self.rng.below(100) {
            0..=24 => Query::Connected(u, v),
            25..=54 => Query::SameBlock(u, v),
            55..=69 => Query::IsArticulation(x),
            70..=79 => {
                let es = &self.inst.part_edges[c];
                if es.is_empty() {
                    Query::IsArticulation(x)
                } else {
                    let e = es[self.rng.below(es.len() as u64) as usize];
                    Query::IsBridge(e.u, e.v)
                }
            }
            80..=94 => Query::SurvivesFailure(u, v, Failure::Vertex(x)),
            _ => Query::VertexCutBetween(u, v),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_query::BiconnectivityIndex;

    fn small(family: Family) -> Instance {
        let size = if family == Family::Rmat { 1024 } else { 900 };
        Instance::new(family, 4, size, 9, &Pool::new(2))
    }

    #[test]
    fn same_seed_same_op_stream() {
        let a = small(Family::Rmat);
        let b = small(Family::Rmat);
        assert_eq!(a.graph.edges(), b.graph.edges());
        assert_eq!(a.chords, b.chords);
        let xs: Vec<Op> = {
            let mut s = OpStream::new(&a, 5);
            (0..5000).map(|_| s.next_op()).collect()
        };
        let ys: Vec<Op> = {
            let mut s = OpStream::new(&b, 5);
            (0..5000).map(|_| s.next_op()).collect()
        };
        assert_eq!(xs, ys);
        let updates = xs.iter().filter(|o| matches!(o, Op::Update(_))).count();
        assert!((350..650).contains(&updates), "{updates} updates in 5000");
    }

    #[test]
    fn chords_preserve_every_answer() {
        let pool = Pool::new(2);
        for family in [Family::Rmat, Family::Road] {
            let inst = small(family);
            assert!(inst.chords.iter().all(|c| !c.is_empty()));
            let before = BiconnectivityIndex::from_graph(&pool, &inst.graph).unwrap();
            let mut edges = inst.graph.edges().to_vec();
            for c in &inst.chords {
                edges.extend(c.iter().map(|&(u, v)| Edge::new(u, v)));
            }
            let with = GraphBuilder::new(inst.graph.n())
                .edges(edges)
                .build()
                .unwrap();
            let after = BiconnectivityIndex::from_graph(&pool, &with).unwrap();
            let mut s = OpStream::new(&inst, 1);
            for _ in 0..3000 {
                if let Op::Query(q) = s.next_op() {
                    assert_eq!(before.answer(&q), after.answer(&q), "{q:?}");
                }
            }
        }
    }
}
