//! Shard writers on one shared pool. Every shard's store rebuilds on a
//! clone of the pool `ShardedStore::new` was given, so two writers
//! whose components are above `GRAIN` vertices run their connectivity
//! and index passes through the same workers at once: their pool
//! phases must take turns, not deadlock, and every answer must still
//! match the BFS oracle ([`naive`]) over the edges the writers left
//! behind.
//!
//! The graph is the one the store's rebuild-rule tests use, with a
//! second above-grain component so that each of two shards owns one:
//! two random connected components of `GRAIN + 100` vertices, three
//! 40-vertex rings and a few isolated vertices.

use bcc_graph::{gen, Csr, Edge, Graph, GraphBuilder};
use bcc_query::{naive, EdgeUpdate, Failure, Query};
use bcc_serve::ShardedStore;
use bcc_smp::{Pool, GRAIN};
use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Vertices per above-grain component; component `c` owns ids
/// `c * BIG..(c + 1) * BIG`.
const BIG: u32 = GRAIN as u32 + 100;
/// Vertices per ring.
const RING: u32 = 40;
/// Commits each writer makes.
const ROUNDS: u32 = 3;

/// The two big components, then three rings, then eight isolated
/// vertices.
fn graph() -> Graph {
    let mut edges = Vec::new();
    for c in 0..2 {
        let part = gen::random_connected(BIG, 3 * BIG as usize / 2, 7 + c as u64);
        edges.extend(
            part.edges()
                .iter()
                .map(|e| Edge::new(c * BIG + e.u, c * BIG + e.v)),
        );
    }
    for r in 0..3 {
        let b = 2 * BIG + r * RING;
        edges.extend((0..RING).map(|i| Edge::new(b + i, b + (i + 1) % RING)));
    }
    GraphBuilder::new(2 * BIG + 3 * RING + 8)
        .edges(edges)
        .build()
        .unwrap()
}

/// Component `c`'s batches: each adds a chord and drops one of the
/// component's original edges.
fn batches(g: &Graph, c: u32) -> Vec<Vec<EdgeUpdate>> {
    let present: HashSet<u64> = g.edges().iter().map(|e| e.key()).collect();
    let own: Vec<Edge> = g
        .edges()
        .iter()
        .filter(|e| e.u / BIG == c && e.u < 2 * BIG)
        .copied()
        .collect();
    let mut chords = (1..BIG)
        .map(|i| Edge::new(c * BIG, c * BIG + i))
        .filter(|e| !present.contains(&e.key()));
    (0..ROUNDS as usize)
        .map(|r| {
            let chord = chords.next().unwrap();
            let gone = own[r * 97 % own.len()];
            vec![
                EdgeUpdate::Insert(chord.u, chord.v),
                EdgeUpdate::Remove(gone.u, gone.v),
            ]
        })
        .collect()
}

/// `g` with `updates` applied in order.
fn apply(g: &Graph, updates: impl IntoIterator<Item = EdgeUpdate>) -> Graph {
    let mut edges: HashSet<u64> = g.edges().iter().map(|e| e.key()).collect();
    for up in updates {
        match up {
            EdgeUpdate::Insert(u, v) => edges.insert(Edge::new(u, v).key()),
            EdgeUpdate::Remove(u, v) => edges.remove(&Edge::new(u, v).key()),
        };
    }
    let edges = edges
        .into_iter()
        .map(|k| Edge::new((k >> 32) as u32, k as u32));
    GraphBuilder::new(g.n()).edges(edges).build().unwrap()
}

#[test]
fn shard_writers_commit_at_once_on_one_shared_pool() {
    let g = graph();
    let pool = Pool::new(2);
    let store = Arc::new(ShardedStore::new(&pool, &g, 2).unwrap());
    // Greedy balance gives each shard one of the two big components.
    let shards = [store.shard_of(0), store.shard_of(BIG)];
    assert_ne!(shards[0], shards[1]);

    let work = [batches(&g, 0), batches(&g, 1)];
    let mut writers = Vec::new();
    for (c, s) in shards.into_iter().enumerate() {
        let (go, next) = mpsc::channel::<()>();
        let (done, finished) = mpsc::channel();
        let store = Arc::clone(&store);
        let batches = work[c].clone();
        let handle = std::thread::spawn(move || {
            for batch in &batches {
                next.recv().unwrap();
                let out = store.commit_shard(s, batch).unwrap();
                assert_eq!(out.applied, batch.len());
                assert!(out.strays.is_empty() && out.cross_shard.is_empty());
                assert!(out.stats.unwrap().vertices_rebuilt >= BIG);
                done.send(()).unwrap();
            }
        });
        writers.push((go, finished, handle));
    }
    // Each round releases both writers, then waits for each on its own
    // channel: a writer that panics drops its sender, which ends the
    // wait at once, and one stuck on the pool runs out the timeout.
    for _ in 0..ROUNDS {
        for (go, _, _) in &writers {
            go.send(()).unwrap();
        }
        for (_, finished, _) in &writers {
            finished
                .recv_timeout(Duration::from_secs(300))
                .expect("a shard writer failed or deadlocked on the shared pool");
        }
    }
    for (_, _, handle) in writers {
        handle.join().unwrap();
    }

    let g = apply(&g, work.into_iter().flatten().flatten());
    let csr = Csr::build(&g);
    let mut state = 0x5eed_u64;
    let mut below = |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % bound
    };
    for _ in 0..100 {
        // `v` one or two steps from `u`, so the per-vertex BFS behind
        // the cut oracle stops early; `w` anywhere.
        let u = below(g.n() as usize) as u32;
        let mut v = u;
        for _ in 0..=below(2) {
            if csr.degree(v) > 0 {
                v = csr.neighbors(v)[below(csr.degree(v))];
            }
        }
        let w = below(g.n() as usize) as u32;
        for q in [
            Query::Connected(u, w),
            Query::SameBlock(u, v),
            Query::IsArticulation(u),
            Query::IsBridge(u, v),
            Query::VertexCutBetween(u, v),
            Query::SurvivesFailure(u, w, Failure::Vertex(v)),
        ] {
            assert_eq!(store.answer(&q).unwrap(), naive::answer(&g, &q), "{q:?}");
        }
    }
}
