//! The pipeline oracle: the labelings of FAST-BCC, TV-filter, TV-SMP
//! and TV-opt are pinned **bit-for-bit** to the Sequential
//! (Hopcroft–Tarjan) baseline — not merely "same partition". All
//! canonicalize labels by first edge occurrence, so identical
//! `edge_comp` vectors are the exact correctness statement, and any
//! future divergence in the tree tags, the certificate, the placement
//! rule or the shared tail fails loudly here.
//!
//! Coverage: every generator family (structured and random), raw edge
//! streams with self-loops (sanitized by the lenient builder, as real
//! ingestion does) and duplicate edges (preserved by the strict
//! builder, so the pipelines see them), disconnected graphs and
//! single-vertex components through `run_any`, and an in-memory vs
//! mmap-backed `.bccsr` equivalence case.

use bcc_core::{Algorithm, BccConfig, BccResult};
use bcc_graph::{bccsr, gen, io, Edge, Graph, GraphBuilder};
use bcc_smp::Pool;
use proptest::prelude::*;

/// Sequential labeling via the per-component driver (the oracle).
fn oracle(g: &Graph) -> BccResult {
    BccConfig::new(Algorithm::Sequential)
        .run_any(&Pool::new(1), g)
        .unwrap()
        .result
}

/// Asserts every parallel pipeline reproduces the oracle labeling
/// bit-for-bit at 1 and 3 threads.
fn assert_pinned(g: &Graph, what: &str) {
    let base = oracle(g);
    for p in [1usize, 3] {
        let pool = Pool::new(p);
        for alg in [
            Algorithm::FastBcc,
            Algorithm::TvFilter,
            Algorithm::TvSmp,
            Algorithm::TvOpt,
        ] {
            let r = BccConfig::new(alg).run_any(&pool, g).unwrap().result;
            assert_eq!(
                r.edge_comp,
                base.edge_comp,
                "{} p={p} on {what}",
                alg.name()
            );
            assert_eq!(r.num_components, base.num_components, "{what}");
        }
    }
}

#[test]
fn structured_families_are_pinned() {
    let cases: Vec<(&str, Graph)> = vec![
        ("path", gen::path(40)),
        ("cycle", gen::cycle(41)),
        ("star", gen::star(30)),
        ("complete", gen::complete(12)),
        ("binary-tree", gen::binary_tree(63)),
        ("torus", gen::torus(5, 7)),
        ("wheel", gen::wheel(19)),
        ("ladder", gen::ladder(14)),
        ("hypercube", gen::hypercube(5)),
        ("barbell", gen::barbell(6, 4)),
        ("bipartite", gen::complete_bipartite(4, 7)),
        ("two-cliques", gen::two_cliques_sharing_vertex(5)),
        ("cycle-chain", gen::cycle_chain(6, 5, 3)),
        ("single-vertex", GraphBuilder::new(1).build().unwrap()),
        ("edgeless", GraphBuilder::new(5).build().unwrap()),
    ];
    for (what, g) in &cases {
        assert_pinned(g, what);
    }
}

#[test]
fn random_families_are_pinned() {
    for seed in 0..3u64 {
        assert_pinned(&gen::random_tree(90, seed), "random-tree");
        assert_pinned(&gen::random_connected(120, 360, seed), "random-connected");
        assert_pinned(&gen::random_gnm(100, 80, seed), "gnm-disconnected");
        assert_pinned(&gen::dense_percent(28, 0.5, seed), "dense");
        assert_pinned(&gen::rmat(7, 300, 0.57, 0.19, 0.19, seed), "rmat");
        assert_pinned(&gen::geometric(200, 7.0, 12, seed), "geometric");
    }
}

#[test]
fn mapped_bccsr_input_is_equivalent() {
    // The xl tier's input path: the same graph through the in-memory
    // edge list and through an mmap-backed `.bccsr` must label
    // identically (the mapped file stores edges in its own order, so
    // compare against the *mapped* oracle — bit-for-bit is defined per
    // edge list).
    let dir = std::env::temp_dir();
    let path = dir.join(format!("bcc-fastbcc-oracle-{}.bccsr", std::process::id()));
    let g = gen::geometric(300, 8.0, 30, 17);
    bccsr::write(&path, &g).unwrap();
    let mapped = io::load(&path).unwrap();
    assert!(mapped.is_mapped());
    assert_pinned(&mapped, "mapped-bccsr");
    // Same partition as the in-memory run, stated on shared edge keys:
    // two edges share a label in-memory iff they do mapped.
    let mem = BccConfig::new(Algorithm::FastBcc)
        .run_any(&Pool::new(2), &g)
        .unwrap()
        .result;
    let dsk = BccConfig::new(Algorithm::FastBcc)
        .run_any(&Pool::new(2), &mapped)
        .unwrap()
        .result;
    assert_eq!(mem.num_components, dsk.num_components);
    let label_by_key = |g: &Graph, r: &BccResult| {
        let mut v: Vec<(u64, u32)> = g
            .edges()
            .iter()
            .zip(&r.edge_comp)
            .map(|(e, &c)| (e.key(), c))
            .collect();
        v.sort_unstable();
        v
    };
    let a = label_by_key(&g, &mem);
    let b = label_by_key(&mapped, &dsk);
    // Keys align (same edge set); labels must induce the same blocks.
    let mut rename = std::collections::HashMap::new();
    for ((ka, ca), (kb, cb)) in a.iter().zip(&b) {
        assert_eq!(ka, kb);
        assert_eq!(*rename.entry(ca).or_insert(cb), cb, "partition differs");
    }
    let _ = std::fs::remove_file(path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Raw edge streams: self-loops (dropped by the lenient builder)
    // over an arbitrary pair soup — frequently disconnected, with
    // isolated vertices and single-vertex components.
    #[test]
    fn lenient_pair_soup_is_pinned(
        n in 2u32..50,
        pairs in proptest::collection::vec((0u32..50, 0u32..50), 0..120),
    ) {
        let n = n.max(pairs.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(1));
        let g = GraphBuilder::new(n)
            .lenient()
            .edges(pairs.into_iter().map(Edge::from))
            .build()
            .unwrap();
        assert_pinned(&g, "pair-soup");
    }

    // Duplicate edges reach the pipelines verbatim: a connected base
    // with copies of existing edges appended (strict build preserves
    // them). Each duplicate is a trivial cycle with its twin, so the
    // labelings exercise the certificate's handling of parallel
    // nontree edges.
    #[test]
    fn duplicate_edges_are_pinned(
        n in 4u32..40,
        extra in 1usize..30,
        seed in any::<u64>(),
    ) {
        let m = (2 * n as usize).min(gen::max_edges(n));
        let base = gen::random_connected(n, m, seed);
        let mut edges = base.edges().to_vec();
        for i in 0..extra {
            edges.push(base.edges()[(seed as usize + i * 7) % m]);
        }
        let g = GraphBuilder::new(n).edges(edges).build().unwrap();
        assert_pinned(&g, "duplicates");
    }

    // Disconnected soups where whole components are single vertices.
    #[test]
    fn sparse_disconnected_is_pinned(
        n in 10u32..80,
        m in 0usize..60,
        seed in any::<u64>(),
    ) {
        let g = gen::random_gnm(n, m.min(gen::max_edges(n)), seed);
        assert_pinned(&g, "sparse-gnm");
    }
}
