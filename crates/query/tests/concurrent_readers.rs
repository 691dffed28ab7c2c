//! Multi-thread stress test for the reader hand-off (satellite of the
//! bcc-serve PR): while a writer thread commits continuously, reader
//! threads must
//!
//! 1. always observe a **fully consistent** snapshot — every answer
//!    from a loaded snapshot matches a naive BFS oracle evaluated on
//!    that epoch's graph (a torn snapshot, where the index and graph
//!    mix two epochs, would diverge from the oracle), and
//! 2. keep making progress through `load()` **during** commits — the
//!    publication ring never parks a reader behind the writer's
//!    multi-millisecond rebuild.
//!
//! The writer toggles the store between two known graph states, so
//! every published epoch's answers are known in advance from the
//! epoch's parity: even epochs are a 2-cycle-covered ring, odd epochs
//! are the ring cut open in two places. Each reader checks the loaded
//! snapshot's answers against the precomputed oracle for its parity.

use bcc_query::{naive, Failure, IndexStore, Query, Snapshot};
use bcc_smp::Pool;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Ring size: big enough that a commit (one whole-component rebuild)
/// takes real time on any machine, so readers demonstrably overlap it.
const N: u32 = 2_000;
const COMMITS: u64 = 30;

/// The even-epoch graph: a ring 0–1–…–(N−1)–0.
fn ring() -> bcc_graph::Graph {
    bcc_graph::gen::cycle(N)
}

/// The two edges the writer toggles: removing both cuts the ring into
/// two paths; re-inserting restores it.
const CUTS: [(u32, u32); 2] = [(0, 1), (N / 2, N / 2 + 1)];

/// The probe queries every reader re-asks on every loaded snapshot.
fn probes() -> Vec<Query> {
    vec![
        Query::Connected(0, N / 2),
        Query::Connected(1, N / 2),
        Query::SameBlock(0, N / 2),
        Query::IsArticulation(N / 4),
        Query::IsBridge(N / 4, N / 4 + 1),
        Query::SurvivesFailure(2, N / 4, Failure::Vertex(3)),
        Query::SurvivesFailure(2, N / 4, Failure::Edge(10, 11)),
        Query::VertexCutBetween(2, N / 4),
    ]
}

/// Naive BFS answers for one graph state, computed edge-list-up —
/// entirely independent of the index under test.
fn oracle(g: &bcc_graph::Graph) -> Vec<bcc_query::Answer> {
    probes().iter().map(|q| naive::answer(g, q)).collect()
}

fn check_snapshot(snap: &Snapshot, even: &[bcc_query::Answer], odd: &[bcc_query::Answer]) {
    let expected = if snap.epoch.is_multiple_of(2) {
        even
    } else {
        odd
    };
    for (q, want) in probes().iter().zip(expected) {
        let got = snap.index.answer(q);
        assert_eq!(
            &got, want,
            "epoch {} answered {q:?} inconsistently with its oracle",
            snap.epoch
        );
    }
}

#[test]
fn readers_stay_consistent_and_unblocked_under_commit_storm() {
    let even_graph = ring();
    let odd_graph = {
        let edges: Vec<(u32, u32)> = even_graph
            .edges()
            .iter()
            .map(|e| (e.u, e.v))
            .filter(|&(u, v)| !CUTS.contains(&(u.min(v), u.max(v))))
            .collect();
        bcc_graph::GraphBuilder::new(N)
            .edges(edges)
            .build()
            .unwrap()
    };
    let even_oracle = oracle(&even_graph);
    let odd_oracle = oracle(&odd_graph);
    // Sanity: the two states must actually disagree somewhere.
    assert_ne!(even_oracle, odd_oracle);

    let store = Arc::new(IndexStore::new(Pool::new(2), ring()).unwrap());
    let committing = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let overlapped = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for _ in 0..2 {
            let store = Arc::clone(&store);
            let committing = Arc::clone(&committing);
            let done = Arc::clone(&done);
            let overlapped = Arc::clone(&overlapped);
            let (even_oracle, odd_oracle) = (even_oracle.clone(), odd_oracle.clone());
            s.spawn(move || {
                let mut loads = 0u64;
                let mut max_epoch = 0u64;
                while !done.load(Ordering::Acquire) {
                    let during_before = committing.load(Ordering::Acquire);
                    let snap = store.load();
                    let during_after = committing.load(Ordering::Acquire);
                    if during_before && during_after {
                        // This load started and finished inside a
                        // commit window: the reader made progress
                        // while the writer was rebuilding.
                        overlapped.fetch_add(1, Ordering::Relaxed);
                    }
                    // Epochs never run backwards from a reader's view
                    // of its own load sequence... within one thread.
                    assert!(snap.epoch >= max_epoch, "epochs ran backwards");
                    max_epoch = snap.epoch;
                    // Lag is bounded by what was published.
                    assert!(store.lag_of(&snap) <= store.latest_epoch());
                    check_snapshot(&snap, &even_oracle, &odd_oracle);
                    loads += 1;
                }
                loads
            });
        }

        let writer = {
            let store = Arc::clone(&store);
            let committing = Arc::clone(&committing);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let t0 = Instant::now();
                for round in 0..COMMITS {
                    let mut txn = store.begin();
                    for &(u, v) in &CUTS {
                        if round % 2 == 0 {
                            txn.remove(u, v);
                        } else {
                            txn.insert(u, v);
                        }
                    }
                    committing.store(true, Ordering::Release);
                    let snap = txn.commit().unwrap();
                    committing.store(false, Ordering::Release);
                    assert_eq!(snap.epoch, round + 1);
                }
                done.store(true, Ordering::Release);
                t0.elapsed()
            })
        };
        writer.join().unwrap();
    });

    assert_eq!(store.load().epoch, COMMITS);
    assert_eq!(store.latest_epoch(), COMMITS);
    // Readers completed loads strictly inside commit windows — i.e.
    // load() did not serialize behind the writer's rebuild. Commit
    // windows dominate the writer's wall time (each one rebuilds a
    // 1000+-vertex component), so seeing zero overlapped loads across
    // 30 commits would mean readers were blocked.
    assert!(
        overlapped.load(Ordering::Relaxed) > 0,
        "no read ever completed during a commit window"
    );
}
