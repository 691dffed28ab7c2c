//! Component-wise subgraph extraction with stable relabeling.
//!
//! bcc-query's per-component drivers (the index build and the
//! incremental `IndexStore` commits) need the same decomposition: a
//! vertex labeling partitions the graph, and each class becomes a
//! standalone [`Graph`] in compact local ids. (bcc-core's `run_any`
//! partitions in a loop of its own, with scratch from the run's
//! workspace.) [`Graph::split_by_labels`]
//! performs that extraction once and keeps *both* directions of the
//! renaming — `local[v]` maps a parent vertex into its part, and each
//! part's `verts` maps back out — plus the edge provenance
//! (`edge_orig`), so per-part results (component labels, index
//! structures) can be stitched back onto the parent graph without a
//! search.
//!
//! Local ids are assigned in ascending parent-vertex order, so any
//! per-part list that is sorted in local ids (articulation points, for
//! instance) stays sorted after mapping through `verts`.

use crate::edge::{Edge, Graph};

/// One class of a [`Graph::split_by_labels`] partition: the induced
/// subgraph in compact local ids plus the maps tying it to the parent.
#[derive(Clone, Debug)]
pub struct SplitPart {
    /// Local → parent vertex id, strictly ascending (`verts[l]` is the
    /// parent vertex that became local id `l`).
    pub verts: Vec<u32>,
    /// The induced subgraph over this class, in local ids; edge order
    /// follows the parent edge list.
    pub graph: Graph,
    /// Per local edge: its index in the parent edge list.
    pub edge_orig: Vec<u32>,
}

/// A whole-graph partition produced by [`Graph::split_by_labels`].
#[derive(Clone, Debug)]
pub struct ComponentSplit {
    /// Parent vertex → its local id within `parts[labels[v]]` (the
    /// inverse of each part's `verts`).
    pub local: Vec<u32>,
    /// One part per label `0..k`, in label order. Labels with no
    /// vertices yield empty parts.
    pub parts: Vec<SplitPart>,
}

impl Graph {
    /// Splits the graph into the subgraphs induced by a vertex labeling
    /// with labels `0..k` — typically connected-component labels, where
    /// by definition no edge crosses classes. Panics if `labels` does
    /// not cover every vertex, a label is `>= k`, or an edge spans two
    /// classes.
    pub fn split_by_labels(&self, labels: &[u32], k: u32) -> ComponentSplit {
        let n = self.n() as usize;
        assert_eq!(labels.len(), n, "labels must cover every vertex");
        let mut local = vec![0u32; n];
        let mut verts: Vec<Vec<u32>> = vec![Vec::new(); k as usize];
        for v in 0..n {
            let c = labels[v] as usize;
            assert!(c < k as usize, "label {c} out of range (k = {k})");
            local[v] = verts[c].len() as u32;
            verts[c].push(v as u32);
        }
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); k as usize];
        let mut edge_orig: Vec<Vec<u32>> = vec![Vec::new(); k as usize];
        for (i, e) in self.edges().iter().enumerate() {
            let c = labels[e.u as usize];
            assert_eq!(
                c, labels[e.v as usize],
                "edge {e:?} spans labels {c} and {}",
                labels[e.v as usize]
            );
            edges[c as usize].push(Edge::new(local[e.u as usize], local[e.v as usize]));
            edge_orig[c as usize].push(i as u32);
        }
        let parts = verts
            .into_iter()
            .zip(edges)
            .zip(edge_orig)
            .map(|((verts, edges), edge_orig)| SplitPart {
                graph: Graph::from_vec(verts.len() as u32, edges),
                verts,
                edge_orig,
            })
            .collect();
        ComponentSplit { local, parts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn splits_components_with_inverse_maps() {
        // Triangle {0,2,4}, edge {1,5}, isolated 3.
        let g = GraphBuilder::new(6)
            .edges([(0, 2), (2, 4), (4, 0), (1, 5)])
            .build()
            .unwrap();
        let labels = [0, 1, 0, 2, 0, 1];
        let s = g.split_by_labels(&labels, 3);
        assert_eq!(s.parts.len(), 3);

        let tri = &s.parts[0];
        assert_eq!(tri.verts, vec![0, 2, 4]);
        assert_eq!(tri.graph.n(), 3);
        assert_eq!(tri.graph.m(), 3);
        assert_eq!(tri.edge_orig, vec![0, 1, 2]);

        let pair = &s.parts[1];
        assert_eq!(pair.verts, vec![1, 5]);
        assert_eq!(pair.graph.edges(), &[Edge::new(0, 1)]);
        assert_eq!(pair.edge_orig, vec![3]);

        let iso = &s.parts[2];
        assert_eq!(iso.verts, vec![3]);
        assert_eq!(iso.graph.m(), 0);

        // Round trip: local is the inverse of each part's verts.
        for (p, part) in s.parts.iter().enumerate() {
            for (l, &v) in part.verts.iter().enumerate() {
                assert_eq!(labels[v as usize] as usize, p);
                assert_eq!(s.local[v as usize] as usize, l);
            }
        }
        // Part edges name the same endpoints as their originals.
        for part in &s.parts {
            for (e, &orig) in part.graph.edges().iter().zip(&part.edge_orig) {
                let o = g.edges()[orig as usize];
                assert_eq!(part.verts[e.u as usize], o.u);
                assert_eq!(part.verts[e.v as usize], o.v);
            }
        }
    }

    #[test]
    fn local_ids_ascend_with_parent_ids() {
        let g = GraphBuilder::new(8)
            .edges([(7, 1), (1, 3), (3, 7), (0, 2)])
            .build()
            .unwrap();
        let labels = [1, 0, 1, 0, 1, 1, 1, 0];
        let s = g.split_by_labels(&labels, 2);
        for part in &s.parts {
            assert!(part.verts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_label_class_yields_empty_part() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build().unwrap();
        let s = g.split_by_labels(&[1, 1], 3);
        assert_eq!(s.parts[0].verts.len(), 0);
        assert_eq!(s.parts[2].graph.n(), 0);
        assert_eq!(s.parts[1].graph.m(), 1);
    }

    #[test]
    #[should_panic]
    fn rejects_edges_spanning_labels() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build().unwrap();
        let _ = g.split_by_labels(&[0, 1], 2);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_labels() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build().unwrap();
        let _ = g.split_by_labels(&[5, 5], 2);
    }
}
