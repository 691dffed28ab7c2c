//! Sharding the component-scoped store: commits only stall the shard
//! they touch.
//!
//! A single [`IndexStore`] already scopes each commit to the connected
//! components its batch touches, but all commits still serialize on
//! one commit lock and readers of untouched components still observe
//! the store-wide epoch bump. [`ShardedStore`] splits the graph's
//! connected components across `S` independent `IndexStore`s. Every
//! shard spans the **full global vertex-id space** but holds only its
//! owned components' edges — a vertex owned elsewhere is simply
//! isolated there. That one invariant makes cross-shard queries
//! correct with no translation layer: if `u` and `v` live in different
//! shards they are in different components of the real graph, and the
//! shard `u` routes to answers exactly that (`v` is isolated → not
//! connected, not same-block, cannot be separated from anything).
//!
//! # Routing
//!
//! A per-vertex atomic routing table maps vertex → shard. Queries read
//! it once (`Acquire`) and answer entirely from the routed shard's
//! snapshot. Same-shard updates batch into that shard's transaction.
//! A cross-shard insert `{u, v}` is a *component migration*: `v`'s
//! whole component moves into `u`'s shard in three steps, each of
//! which leaves every reader-visible state consistent —
//!
//! 1. commit the component's edges plus the new edge into `u`'s shard
//!    (readers routed to `v`'s old shard still see the pre-merge
//!    component there; readers routed to `u`'s shard already see the
//!    merged one),
//! 2. flip the moved vertices' routing entries to `u`'s shard,
//! 3. commit the removal of the moved edges from the old shard
//!    (cleanup; nothing routes there anymore).
//!
//! Readers between steps observe either the old consistent state or
//! the new consistent state, never a torn mix, because every answer
//! comes from a single epoch snapshot of a single shard.
//!
//! # Parallel writers
//!
//! Each shard carries a *writer lock* (separate from the store's
//! internal commit lock), so commits on different shards proceed in
//! parallel. All shards share one SPMD pool: components are relabeled
//! on the committing writer's own thread, and only the pool phases —
//! each region's FastSV sweep, and the passes over
//! [`GRAIN`](bcc_smp::GRAIN) elements and up — take turns on the
//! pool's workers. Two calls are the store's only
//! write paths, and together they are the protocol the daemon's
//! per-shard writer threads and migration coordinator run:
//!
//! * [`commit_shard`](ShardedStore::commit_shard) holds shard `s`'s
//!   writer lock, re-checks every staged update's routing *under the
//!   lock*, commits the ones that still belong, and hands back
//!   *strays* (re-routed by a migration while they sat in the queue)
//!   and *cross-shard inserts* for the caller to re-dispatch. It never
//!   takes a second lock, so shard writers cannot deadlock.
//! * [`migrate`](ShardedStore::migrate) (the coordinator path) locks
//!   the two shards **in index order**, re-checks routing, and only
//!   then runs the three-step migration. Routing entries flip *only*
//!   while both involved writer locks are held — which is what makes
//!   the flush-time re-check sound: while a shard writer holds its
//!   lock, no component can migrate into or out of that shard.

use bcc_core::BccError;
use bcc_graph::{Edge, Graph, GraphBuilder};
use bcc_query::{Answer, CommitStats, EdgeUpdate, IndexStore, Query, Snapshot};
use bcc_smp::Pool;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Why a serving-layer operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// An update or query named a vertex outside the store's fixed
    /// vertex universe (`>= n`). The daemon's id space is sized at
    /// startup; grow it by building a new store.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// The store's vertex-universe size.
        n: u32,
    },
    /// A shard rebuild failed inside `bcc-core`.
    Rebuild(BccError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} outside the store's universe (n = {n})")
            }
            ServeError::Rebuild(e) => write!(f, "shard rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<BccError> for ServeError {
    fn from(e: BccError) -> Self {
        ServeError::Rebuild(e)
    }
}

/// What one [`ShardedStore::commit_shard`] call did.
#[derive(Debug, Default)]
pub struct ShardCommit {
    /// Updates resolved by this call: committed into the shard, or
    /// discharged as no-ops (self-loops, removals of edges that cannot
    /// exist because they would span shards).
    pub applied: usize,
    /// Rebuild statistics of the commit (`None` when nothing needed
    /// committing).
    pub stats: Option<CommitStats>,
    /// Same-shard updates whose component migrated to another shard
    /// between enqueue and flush; the caller re-dispatches them to the
    /// owning shard.
    pub strays: Vec<EdgeUpdate>,
    /// Inserts that turned out to span shards at flush time; the
    /// caller hands them to the migration coordinator.
    pub cross_shard: Vec<EdgeUpdate>,
}

/// What one [`ShardedStore::migrate`] call did.
#[derive(Debug, Default)]
pub struct MigrateOutcome {
    /// Whether a cross-shard migration actually ran (`false` when the
    /// endpoints already shared a shard by the time the locks were
    /// held — the insert still committed).
    pub migrated: bool,
    /// Vertices moved between shards.
    pub migrated_vertices: usize,
    /// `(shard, rebuild statistics)` per commit issued.
    pub stats: Vec<(usize, CommitStats)>,
}

/// An answer plus the snapshot-lag it was served at.
#[derive(Clone, Debug)]
pub struct LaggedAnswer {
    /// The answer itself.
    pub answer: Answer,
    /// How many commits behind its shard's latest epoch the answering
    /// snapshot was.
    pub lag_commits: u64,
    /// Wall-clock age of the answering snapshot.
    pub lag_wall: Duration,
}

/// `S` independent component-partitioned [`IndexStore`]s behind an
/// atomic routing table (see the [module docs](self)).
pub struct ShardedStore {
    shards: Vec<IndexStore>,
    /// Per-shard writer locks (see the module docs). Distinct from the
    /// stores' internal commit locks: these serialize the *routing
    /// re-check + commit* critical section, and migrations hold two of
    /// them (index order) while flipping routing entries.
    writer_locks: Vec<Mutex<()>>,
    routing: Vec<AtomicU32>,
    n: u32,
}

impl ShardedStore {
    /// Partitions `g`'s connected components across `num_shards`
    /// stores (greedy balance by vertex count, largest first) and
    /// builds each shard's epoch-0 index. Every shard's store rebuilds
    /// on a clone of `pool`: clones share its workers and serialize
    /// their phases (see the module docs for what runs there).
    pub fn new(pool: &Pool, g: &Graph, num_shards: usize) -> Result<Self, ServeError> {
        assert!(num_shards >= 1, "need at least one shard");
        let n = g.n();

        // Component labels of the seed graph.
        let cc = bcc_connectivity::sv::connected_components(pool, n, g.edges());
        let mut labels = cc.label;
        let k = bcc_connectivity::sv::normalize_labels(pool, &mut labels);

        // Greedy balance: biggest components first, each to the
        // currently lightest shard.
        let mut comp_size = vec![0u64; k as usize];
        for &l in &labels {
            comp_size[l as usize] += 1;
        }
        let mut order: Vec<u32> = (0..k).collect();
        order.sort_by_key(|&c| std::cmp::Reverse(comp_size[c as usize]));
        let mut shard_load = vec![0u64; num_shards];
        let mut comp_shard = vec![0u32; k as usize];
        for c in order {
            let s = (0..num_shards).min_by_key(|&s| shard_load[s]).unwrap();
            comp_shard[c as usize] = s as u32;
            shard_load[s] += comp_size[c as usize];
        }

        let routing: Vec<AtomicU32> = labels
            .iter()
            .map(|&l| AtomicU32::new(comp_shard[l as usize]))
            .collect();

        // Each shard: the full vertex universe, only its own edges.
        let mut shard_edges: Vec<Vec<Edge>> = vec![Vec::new(); num_shards];
        for &e in g.edges() {
            let s = comp_shard[labels[e.u as usize] as usize] as usize;
            shard_edges[s].push(e);
        }
        let shards = shard_edges
            .into_iter()
            .map(|edges| {
                IndexStore::new(
                    pool.clone(),
                    GraphBuilder::new(n).edges(edges).build().unwrap(),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let writer_locks = (0..shards.len()).map(|_| Mutex::new(())).collect();

        Ok(ShardedStore {
            shards,
            writer_locks,
            routing,
            n,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Size of the fixed vertex universe.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The shard currently owning vertex `v`.
    pub fn shard_of(&self, v: u32) -> usize {
        self.routing[v as usize].load(Ordering::Acquire) as usize
    }

    /// The shard-local store at index `s` (tests, lag probes).
    pub fn shard(&self, s: usize) -> &IndexStore {
        &self.shards[s]
    }

    /// Latest published epoch of every shard.
    pub fn latest_epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.latest_epoch()).collect()
    }

    /// The vertex a query routes by: every query's answer is local to
    /// one component, and that component's shard is the first-named
    /// vertex's (cross-component pairs short out identically in any
    /// shard that isolates one of them).
    fn route_vertex(q: &Query) -> u32 {
        match *q {
            Query::Connected(u, _)
            | Query::SameBlock(u, _)
            | Query::IsBridge(u, _)
            | Query::VertexCutBetween(u, _)
            | Query::SurvivesFailure(u, _, _) => u,
            Query::IsArticulation(v) => v,
        }
    }

    fn check_vertex(&self, v: u32) -> Result<(), ServeError> {
        if v >= self.n {
            return Err(ServeError::VertexOutOfRange {
                vertex: v,
                n: self.n,
            });
        }
        Ok(())
    }

    fn check_query(&self, q: &Query) -> Result<(), ServeError> {
        use bcc_query::Failure;
        let check = |v| self.check_vertex(v);
        match *q {
            Query::IsArticulation(v) => check(v),
            Query::Connected(u, v)
            | Query::SameBlock(u, v)
            | Query::IsBridge(u, v)
            | Query::VertexCutBetween(u, v) => check(u).and_then(|_| check(v)),
            Query::SurvivesFailure(u, v, f) => {
                check(u)?;
                check(v)?;
                match f {
                    Failure::Vertex(x) => check(x),
                    Failure::Edge(a, b) => check(a).and_then(|_| check(b)),
                }
            }
        }
    }

    /// Routes and answers one query from the owning shard's current
    /// snapshot.
    pub fn answer(&self, q: &Query) -> Result<Answer, ServeError> {
        self.check_query(q)?;
        let shard = &self.shards[self.shard_of(Self::route_vertex(q))];
        Ok(shard.load().index.answer(q))
    }

    /// Like [`answer`](Self::answer), also reporting the snapshot-lag
    /// the answer was served at — in commits behind the shard's latest
    /// epoch and in snapshot wall-clock age.
    pub fn answer_with_lag(&self, q: &Query) -> Result<LaggedAnswer, ServeError> {
        self.check_query(q)?;
        let shard = &self.shards[self.shard_of(Self::route_vertex(q))];
        let snap = shard.load();
        let answer = snap.index.answer(q);
        Ok(LaggedAnswer {
            answer,
            lag_commits: shard.lag_of(&snap),
            lag_wall: snap.age(),
        })
    }

    /// Commits `batch` into shard `s` under its writer lock, re-checking
    /// each update's routing there (see the module docs). Returns what
    /// was applied plus the updates that no longer belong to `s` —
    /// never taking a second lock, so any number of per-shard writers
    /// can run concurrently.
    pub fn commit_shard(&self, s: usize, batch: &[EdgeUpdate]) -> Result<ShardCommit, ServeError> {
        let mut out = ShardCommit::default();
        if batch.is_empty() {
            return Ok(out);
        }
        let _guard = self.writer_locks[s].lock().unwrap();
        let mut txn = self.shards[s].begin();
        let mut staged = 0usize;
        for &up in batch {
            let (u, v) = match up {
                EdgeUpdate::Insert(u, v) | EdgeUpdate::Remove(u, v) => (u, v),
            };
            self.check_vertex(u)?;
            self.check_vertex(v)?;
            if u == v {
                out.applied += 1;
                continue;
            }
            let (su, sv) = (self.shard_of(u), self.shard_of(v));
            if su == s && sv == s {
                txn.push(up);
                staged += 1;
            } else if su == sv {
                // A migration moved the component while this update
                // queued; it belongs to shard `su` now.
                out.strays.push(up);
            } else {
                match up {
                    // Edges never span shards: such a removal is a no-op.
                    EdgeUpdate::Remove(..) => out.applied += 1,
                    EdgeUpdate::Insert(..) => out.cross_shard.push(up),
                }
            }
        }
        if staged > 0 {
            let snap = txn.commit()?;
            out.applied += staged;
            out.stats = Some(snap.stats);
        }
        Ok(out)
    }

    /// The coordinator path for an insert whose endpoints route to
    /// different shards: locks both writer locks in index order,
    /// re-checks routing under them, and either migrates `v`'s
    /// component into `u`'s shard or — if a racing resolution already
    /// merged their routing — plain-commits the insert.
    pub fn migrate(&self, u: u32, v: u32) -> Result<MigrateOutcome, ServeError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        let mut out = MigrateOutcome::default();
        if u == v {
            return Ok(out);
        }
        loop {
            let (su, sv) = (self.shard_of(u), self.shard_of(v));
            if su == sv {
                let _guard = self.writer_locks[su].lock().unwrap();
                if self.shard_of(u) != su || self.shard_of(v) != su {
                    continue; // routing moved before we held the lock
                }
                let mut txn = self.shards[su].begin();
                txn.insert(u, v);
                let snap = txn.commit()?;
                out.stats.push((su, snap.stats));
                return Ok(out);
            }
            let (lo, hi) = (su.min(sv), su.max(sv));
            let _g1 = self.writer_locks[lo].lock().unwrap();
            let _g2 = self.writer_locks[hi].lock().unwrap();
            if self.shard_of(u) != su || self.shard_of(v) != sv {
                continue;
            }
            self.migrate_locked(u, su, v, sv, &mut out)?;
            return Ok(out);
        }
    }

    /// Moves `v`'s whole component from shard `sv` into `su` and adds
    /// the new edge `{u, v}` (see the module docs for why each step
    /// keeps readers consistent). Caller holds **both** shards' writer
    /// locks — routing entries only ever flip inside this function,
    /// under those locks.
    fn migrate_locked(
        &self,
        u: u32,
        su: usize,
        v: u32,
        sv: usize,
        out: &mut MigrateOutcome,
    ) -> Result<(), ServeError> {
        let donor: Arc<Snapshot> = self.shards[sv].load();
        let moved_verts: Vec<u32> = match donor.index.component_handle(v) {
            Some(c) => c.vertices().to_vec(),
            None => vec![v], // isolated vertex: nothing but v moves
        };
        let moved_edges: Vec<Edge> = donor
            .graph
            .edges()
            .iter()
            .filter(|e| donor.index.connected(e.u, v))
            .copied()
            .collect();

        // 1. The receiving shard gains the component and the new edge.
        let mut txn = self.shards[su].begin();
        for e in &moved_edges {
            txn.insert(e.u, e.v);
        }
        txn.insert(u, v);
        let snap = txn.commit()?;
        out.stats.push((su, snap.stats));

        // 2. Route the moved vertices to their new home.
        for &w in &moved_verts {
            self.routing[w as usize].store(su as u32, Ordering::Release);
        }

        // 3. Cleanup: the donor shard drops the moved edges.
        if !moved_edges.is_empty() {
            let mut txn = self.shards[sv].begin();
            for e in &moved_edges {
                txn.remove(e.u, e.v);
            }
            let snap = txn.commit()?;
            out.stats.push((sv, snap.stats));
        }

        out.migrated = true;
        out.migrated_vertices = moved_verts.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_query::Failure;

    /// Disjoint 5-cycles on contiguous ranges: component c owns
    /// vertices 5c .. 5c+4.
    fn cycles(k: u32) -> Graph {
        GraphBuilder::new(5 * k)
            .edges((0..k).flat_map(|c| (0..5).map(move |i| (5 * c + i, 5 * c + (i + 1) % 5))))
            .build()
            .unwrap()
    }

    #[test]
    fn construction_partitions_components_not_vertices() {
        let pool = Pool::new(2);
        let store = ShardedStore::new(&pool, &cycles(6), 3).unwrap();
        assert_eq!(store.num_shards(), 3);
        // Every component's 5 vertices share a shard.
        for c in 0..6u32 {
            let s = store.shard_of(5 * c);
            for i in 1..5 {
                assert_eq!(store.shard_of(5 * c + i), s);
            }
        }
        // Greedy balance on equal sizes: two components per shard.
        let mut per_shard = [0u32; 3];
        for c in 0..6u32 {
            per_shard[store.shard_of(5 * c)] += 1;
        }
        assert_eq!(per_shard, [2, 2, 2]);
    }

    #[test]
    fn cross_shard_queries_short_out_correctly() {
        let pool = Pool::new(2);
        let store = ShardedStore::new(&pool, &cycles(4), 2).unwrap();
        // Pick two vertices guaranteed to sit in different shards.
        let (a, b) = (
            0u32,
            (0..4)
                .map(|c| 5 * c)
                .find(|&v| store.shard_of(v) != store.shard_of(0))
                .unwrap(),
        );
        assert!(!store.answer(&Query::Connected(a, b)).unwrap().as_bool());
        assert!(!store.answer(&Query::SameBlock(a, b)).unwrap().as_bool());
        assert!(!store.answer(&Query::IsBridge(a, b)).unwrap().as_bool());
        // A failure in another component cannot separate a and its ring
        // neighbours.
        assert!(store
            .answer(&Query::SurvivesFailure(a, 2, Failure::Vertex(b)))
            .unwrap()
            .as_bool());
        assert_eq!(
            store.answer(&Query::VertexCutBetween(a, b)).unwrap(),
            Answer::Vertices(Vec::new())
        );
    }

    /// Applies one update the way the daemon's writers do: an insert
    /// whose endpoints route to different shards migrates, anything
    /// else commits into the shard its first endpoint routes to.
    fn commit(store: &ShardedStore, up: EdgeUpdate) {
        match up {
            EdgeUpdate::Insert(u, v) if store.shard_of(u) != store.shard_of(v) => {
                assert!(store.migrate(u, v).unwrap().migrated);
            }
            EdgeUpdate::Insert(u, _) | EdgeUpdate::Remove(u, _) => {
                let out = store.commit_shard(store.shard_of(u), &[up]).unwrap();
                assert_eq!(out.applied, 1, "{up:?}");
                assert!(out.strays.is_empty() && out.cross_shard.is_empty());
            }
        }
    }

    #[test]
    fn same_shard_updates_commit_only_that_shard() {
        let pool = Pool::new(2);
        let store = ShardedStore::new(&pool, &cycles(4), 2).unwrap();
        let s0 = store.shard_of(0);
        let before = store.latest_epochs();
        let out = store
            .commit_shard(s0, &[EdgeUpdate::Remove(0, 1), EdgeUpdate::Remove(2, 3)])
            .unwrap();
        assert_eq!(out.applied, 2);
        assert!(out.stats.is_some());
        assert!(out.strays.is_empty() && out.cross_shard.is_empty());
        let after = store.latest_epochs();
        for s in 0..2 {
            let expect = before[s] + if s == s0 { 1 } else { 0 };
            assert_eq!(after[s], expect, "only the touched shard advances");
        }
        // Ring minus two edges: 0 and the far side disconnect… no —
        // removing (0,1) and (2,3) leaves the path 3-4-0 and 1-2.
        assert!(!store.answer(&Query::Connected(1, 4)).unwrap().as_bool());
        assert!(store.answer(&Query::Connected(3, 0)).unwrap().as_bool());
    }

    #[test]
    fn cross_shard_insert_migrates_the_component() {
        let pool = Pool::new(2);
        let store = ShardedStore::new(&pool, &cycles(4), 2).unwrap();
        let b = (0..4)
            .map(|c| 5 * c)
            .find(|&v| store.shard_of(v) != store.shard_of(0))
            .unwrap();
        let out = store.migrate(0, b).unwrap();
        assert!(out.migrated);
        assert_eq!(out.migrated_vertices, 5);
        // One commit into the receiving shard, one cleanup of the donor.
        let shards: Vec<usize> = out.stats.iter().map(|&(s, _)| s).collect();
        assert_eq!(shards, [store.shard_of(0), 1 - store.shard_of(0)]);
        // The whole donor component now routes to 0's shard…
        for i in 0..5 {
            assert_eq!(store.shard_of(b + i), store.shard_of(0));
        }
        // …and the merged component answers as one: {0,b} is a bridge
        // between the two rings.
        assert!(store.answer(&Query::Connected(0, b + 2)).unwrap().as_bool());
        assert!(store.answer(&Query::IsBridge(0, b)).unwrap().as_bool());
        assert!(!store
            .answer(&Query::SurvivesFailure(1, b + 1, Failure::Edge(0, b)))
            .unwrap()
            .as_bool());
        // The donor shard dropped the edges it no longer owns.
        let donor = store.shard(1 - store.shard_of(0)); // two shards
        assert!(donor.load().graph.m() < 10);
    }

    #[test]
    fn migration_then_removal_round_trips() {
        let pool = Pool::new(2);
        let store = ShardedStore::new(&pool, &cycles(2), 2).unwrap();
        commit(&store, EdgeUpdate::Insert(0, 5));
        assert!(store.answer(&Query::Connected(0, 7)).unwrap().as_bool());
        // Removing the link splits them again — both components stay in
        // the merged shard (splits don't migrate back), and queries
        // remain correct.
        commit(&store, EdgeUpdate::Remove(0, 5));
        assert!(!store.answer(&Query::Connected(0, 7)).unwrap().as_bool());
        assert!(store.answer(&Query::Connected(5, 7)).unwrap().as_bool());
        assert_eq!(store.shard_of(0), store.shard_of(5));
    }

    #[test]
    fn commit_hands_back_what_a_migration_moved() {
        let pool = Pool::new(2);
        let store = ShardedStore::new(&pool, &cycles(4), 2).unwrap();
        let old = store.shard_of(5);
        assert_ne!(store.shard_of(0), old);
        // A vertex of another component that stays in 5's old shard.
        let far = (0..4)
            .map(|c| 5 * c)
            .find(|&v| v != 5 && store.shard_of(v) == old)
            .unwrap();
        assert!(store.migrate(0, 5).unwrap().migrated);
        let before = store.latest_epochs();
        // Queued for the old shard before the migration moved 5..9 out.
        let stray = EdgeUpdate::Insert(6, 8);
        let cross = EdgeUpdate::Insert(far, 6);
        let out = store
            .commit_shard(old, &[stray, cross, EdgeUpdate::Remove(far, 6)])
            .unwrap();
        assert_eq!(out.strays, [stray]);
        assert_eq!(out.cross_shard, [cross]);
        // The removal spans shards, so its edge cannot exist: a no-op.
        assert_eq!(out.applied, 1);
        assert!(out.stats.is_none());
        assert_eq!(store.latest_epochs(), before, "nothing committed");
    }

    #[test]
    fn matches_unsharded_oracle_through_random_churn() {
        let pool = Pool::new(2);
        let g = cycles(6);
        let store = ShardedStore::new(&pool, &g, 3).unwrap();
        let oracle = IndexStore::new(pool.clone(), g).unwrap();
        let mut state = 0x5eed_u64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let n = 30u64;
        for round in 0..40 {
            let (a, b) = ((lcg() % n) as u32, (lcg() % n) as u32);
            let up = if round % 3 == 0 {
                EdgeUpdate::Remove(a, b)
            } else {
                EdgeUpdate::Insert(a, b)
            };
            commit(&store, up);
            let mut txn = oracle.begin();
            txn.push(up);
            txn.commit().unwrap();

            let snap = oracle.load();
            for _ in 0..8 {
                let (u, v, x) = ((lcg() % n) as u32, (lcg() % n) as u32, (lcg() % n) as u32);
                for q in [
                    Query::Connected(u, v),
                    Query::SameBlock(u, v),
                    Query::IsArticulation(x),
                    Query::IsBridge(u, v),
                    Query::VertexCutBetween(u, v),
                    Query::SurvivesFailure(u, v, Failure::Vertex(x)),
                ] {
                    assert_eq!(
                        store.answer(&q).unwrap(),
                        snap.index.answer(&q),
                        "round {round}: {q:?} diverged from unsharded oracle"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_range_vertices_are_rejected() {
        let pool = Pool::new(1);
        let store = ShardedStore::new(&pool, &cycles(1), 1).unwrap();
        assert!(matches!(
            store.commit_shard(0, &[EdgeUpdate::Insert(0, 99)]),
            Err(ServeError::VertexOutOfRange { vertex: 99, n: 5 })
        ));
        assert!(matches!(
            store.migrate(99, 0),
            Err(ServeError::VertexOutOfRange { vertex: 99, n: 5 })
        ));
        assert!(store.answer(&Query::Connected(0, 99)).is_err());
        assert!(store
            .answer(&Query::SurvivesFailure(0, 1, Failure::Vertex(99)))
            .is_err());
    }
}
