//! The store's one rebuild rule: every component is labeled by
//! Hopcroft–Tarjan on the committing thread, and the store's pool runs
//! only the passes that reach `GRAIN` elements, the region's FastSV
//! sweep among them. Both tests run on one graph that has a
//! component on each side of the grain: a random connected component
//! of `GRAIN + 100` vertices, three 40-vertex rings and a few isolated
//! vertices.
//!
//! Every answer is checked against [`naive`], BFS over the snapshot's
//! own edge list, which shares no code with the labeling.

use bcc_core::{Algorithm, BccConfig};
use bcc_graph::{gen, Csr, Edge, Graph, GraphBuilder};
use bcc_query::{naive, Failure, IndexStore, Query, Snapshot, Txn};
use bcc_smp::{Pool, Telemetry, GRAIN};
use std::sync::Arc;

/// Vertices of the above-grain component, ids `0..BIG`.
const BIG: u32 = GRAIN as u32 + 100;
/// Vertices per ring.
const RING: u32 = 40;

/// The big component, then three rings (`ring(0..3)`), then eight
/// isolated vertices.
fn rule_graph() -> Graph {
    let mut edges = gen::random_connected(BIG, 3 * BIG as usize / 2, 7)
        .edges()
        .to_vec();
    for r in 0..3 {
        let b = ring(r);
        edges.extend((0..RING).map(|i| Edge::new(b + i, b + (i + 1) % RING)));
    }
    GraphBuilder::new(ring(3) + 8).edges(edges).build().unwrap()
}

/// First vertex of ring `r`.
fn ring(r: u32) -> u32 {
    BIG + r * RING
}

/// Draws query endpoints: first endpoints half from the big component
/// and half from the rest; second endpoints mostly a short walk away,
/// so most pairs share a component and the O(n) BFS per candidate cut
/// vertex stays cheap.
struct Sampler {
    csr: Csr,
    n: u32,
    state: u64,
}

impl Sampler {
    fn below(&mut self, bound: usize) -> usize {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.state >> 33) as usize % bound
    }

    fn first(&mut self) -> u32 {
        if self.below(2) == 0 {
            self.below(BIG as usize) as u32
        } else {
            BIG + self.below((self.n - BIG) as usize) as u32
        }
    }

    /// The end of a random walk of `1..=3` steps from `u`.
    fn near(&mut self, u: u32) -> u32 {
        let mut x = u;
        for _ in 0..=self.below(3) {
            let degree = self.csr.degree(x);
            if degree == 0 {
                break;
            }
            let i = self.below(degree);
            x = self.csr.neighbors(x)[i];
        }
        x
    }

    /// A short walk from `u` seven times in eight, any vertex else.
    fn near_or_any(&mut self, u: u32) -> u32 {
        if self.below(8) == 0 {
            self.below(self.n as usize) as u32
        } else {
            self.near(u)
        }
    }
}

/// Checks 200 sampled queries of every kind against the oracle.
fn check_against_oracle(snap: &Snapshot) {
    let g = &snap.graph;
    let mut s = Sampler {
        csr: Csr::build(g),
        n: g.n(),
        state: snap.epoch ^ 0x5eed,
    };
    for _ in 0..200 {
        let u = s.first();
        let (v, far, x) = (s.near(u), s.near_or_any(u), s.near_or_any(u));
        let a = s.near(u);
        let b = s.near(a);
        for q in [
            Query::Connected(u, far),
            Query::SameBlock(u, v),
            Query::IsArticulation(u),
            Query::IsBridge(a, b),
            Query::VertexCutBetween(u, v),
            Query::SurvivesFailure(u, far, Failure::Vertex(x)),
            Query::SurvivesFailure(u, far, Failure::Edge(a, b)),
        ] {
            assert_eq!(
                snap.index.answer(&q),
                naive::answer(g, &q),
                "epoch {}: {q:?}",
                snap.epoch
            );
        }
    }
}

/// Commits what `stage` stages and checks that the region the commit
/// rebuilt had `region` vertices.
fn commit(store: &IndexStore, region: u32, stage: impl FnOnce(&mut Txn)) -> Arc<Snapshot> {
    let mut txn = store.begin();
    stage(&mut txn);
    let snap = txn.commit().unwrap();
    assert_eq!(snap.stats.vertices_rebuilt, region, "epoch {}", snap.epoch);
    snap
}

#[test]
fn commits_on_both_sides_of_the_grain_match_the_bfs_oracle() {
    let store = IndexStore::new(Pool::new(2), rule_graph()).unwrap();
    check_against_oracle(&store.load());

    // A chord into ring 0: a below-grain region.
    let r0 = ring(0);
    let snap = commit(&store, RING, |t| {
        t.insert(r0, r0 + RING / 2);
    });
    check_against_oracle(&snap);

    // A non-bridge edge of the big component goes: an above-grain
    // region, whose connectivity and index passes run on the pool.
    let g = &snap.graph;
    let e = *g
        .edges()
        .iter()
        .find(|e| e.u < BIG && !naive::is_bridge_bfs(g, e.u, e.v))
        .unwrap();
    let snap = commit(&store, BIG, |t| {
        t.remove(e.u, e.v);
    });
    check_against_oracle(&snap);

    // Ring 1 merges into the big component, then splits off again;
    // both commits rebuild the merged region.
    let (x, r1) = (e.u, ring(1));
    let snap = commit(&store, BIG + RING, |t| {
        t.insert(x, r1);
    });
    assert!(snap.index.is_bridge(x, r1));
    check_against_oracle(&snap);
    let snap = commit(&store, BIG + RING, |t| {
        t.remove(x, r1);
    });
    assert!(!snap.index.connected(x, r1));
    check_against_oracle(&snap);
}

#[test]
fn below_grain_commit_takes_fewer_pool_phases_than_tv_filter() {
    let sink = Arc::new(Telemetry::new(2));
    let pool = Pool::builder()
        .threads(2)
        .telemetry(Arc::clone(&sink))
        .build();
    let store = IndexStore::new(pool.clone(), rule_graph()).unwrap();

    let before = sink.snapshot().phase_runs;
    let r0 = ring(0);
    commit(&store, RING, |t| {
        t.insert(r0, r0 + RING / 2);
    });
    let commit_phases = sink.snapshot().phase_runs - before;
    // The ring's region (40 vertices, 41 edges) is below the grain at
    // every step, its FastSV sweep included: the commit wakes no worker.
    assert_eq!(commit_phases, 0, "a chord into a {RING}-vertex ring");

    let before = sink.snapshot().phase_runs;
    BccConfig::new(Algorithm::TvFilter)
        .run(&pool, &gen::cycle(RING))
        .unwrap();
    let tv_filter_phases = sink.snapshot().phase_runs - before;
    assert!(
        commit_phases < tv_filter_phases,
        "a chord into a {RING}-vertex ring took {commit_phases} pool phases, \
         one TV-filter run of the ring {tv_filter_phases}"
    );
}
