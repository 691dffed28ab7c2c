//! Epoch-based snapshot store with component-scoped incremental
//! commits: serve queries while rebuilding only what changed.
//!
//! The store keeps the current [`Snapshot`] behind an `Arc`. Readers
//! call [`IndexStore::load`] and query the snapshot they got — they
//! hold it for as long as they like and are never blocked, even while
//! a writer rebuilds (the classic read-copy-update discipline: old
//! epochs stay alive until the last reader drops its `Arc`). Writers
//! open a transaction with [`IndexStore::begin`], stage edge updates
//! on the [`Txn`], and publish a new epoch with [`Txn::commit`].
//!
//! # Reader hand-off
//!
//! Publication goes through a small ring of slots rather than one
//! `RwLock`'d cell: the writer installs the next epoch into the slot
//! *after* the current head, then advances the head index with a
//! release store. A reader picks the head slot and clones the `Arc`
//! inside — the only mutual exclusion is a per-slot mutex whose
//! critical section is a single pointer clone, and reader and writer
//! only meet on the same slot if the writer laps the entire ring
//! between the reader's head load and its clone (and even then the
//! reader just gets a *newer* snapshot). `load` is therefore
//! wait-free in practice: no reader ever waits for a rebuild, and
//! concurrent readers never serialize behind one another on a shared
//! writer lock. [`IndexStore::latest_epoch`] reads the freshest
//! published epoch number without touching the ring at all, which is
//! what the serving layer uses to measure snapshot lag.
//!
//! # Component-scoped commits
//!
//! Biconnectivity is local to connected components, so a commit only
//! rebuilds the components its batch touches. The batch is folded to
//! its net per-edge effect, the touched components (including merges
//! from cross-component inserts and splits from removals) are
//! collected into a *region*, the region is extracted as a relabeled
//! subgraph ([`Graph::split_by_labels`]) and pushed through the same
//! per-component pipeline unit a full build uses
//! ([`bcc_core::component_pipeline`], sharing the store's
//! [`BccWorkspace`] arena) — and every untouched component's
//! [`ComponentIndex`](crate::ComponentIndex) is carried into the new
//! snapshot's composite index by `Arc`, verbatim. The cost of a commit
//! is proportional to the affected region, not the graph; each
//! snapshot's [`CommitStats`] records exactly how much was rebuilt
//! versus reused. [`Txn::commit_full`] forces the old
//! whole-graph rebuild (the benchmark baseline, and an escape hatch).

use crate::index::BiconnectivityIndex;
use bcc_core::{Algorithm, BccConfig, BccError};
use bcc_graph::{Edge, Graph, GraphBuilder};
use bcc_smp::{BccWorkspace, Pool, NIL};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One staged update: an edge appears or disappears.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// Add the edge `{u, v}` (grows the vertex set if needed; self
    /// loops and duplicates are ignored).
    Insert(u32, u32),
    /// Remove the edge `{u, v}` (a no-op if absent; vertices remain).
    Remove(u32, u32),
}

/// What one commit did: how much of the index was rebuilt and how much
/// rode over from the previous epoch untouched. Recorded on every
/// [`Snapshot`]; the `store_commit` benchmark cells aggregate these.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CommitStats {
    /// Updates in the committed batch (before net folding).
    pub batch: usize,
    /// Edges actually added (absent before, present after).
    pub inserts: usize,
    /// Edges actually removed (present before, absent after).
    pub removes: usize,
    /// Connected components rebuilt through the pipeline (isolated
    /// vertices included).
    pub components_rebuilt: u32,
    /// Components whose index was reused by pointer from the previous
    /// epoch.
    pub components_reused: u32,
    /// Vertices inside the rebuilt region.
    pub vertices_rebuilt: u32,
    /// Edges inside the rebuilt region.
    pub edges_rebuilt: usize,
    /// Fraction of vertices *not* rebuilt: `1 − vertices_rebuilt / n`.
    pub reused_fraction: f64,
    /// True for whole-graph rebuilds (epoch 0, [`Txn::commit_full`]).
    pub full_rebuild: bool,
    /// Wall-clock time the commit itself took (fold + classify +
    /// rebuild + publish), measured under the commit lock. Serving
    /// layers attribute per-shard commit latency from this without
    /// timing around the call.
    pub seconds: f64,
}

impl CommitStats {
    /// `self` with [`seconds`](CommitStats::seconds) stamped from an
    /// elapsed duration (builder-style; used at publish time).
    pub(crate) fn timed(mut self, elapsed: Duration) -> CommitStats {
        self.seconds = elapsed.as_secs_f64();
        self
    }
}

/// An immutable published epoch: the graph as of the last commit, the
/// index serving it, and what that commit cost.
pub struct Snapshot {
    /// Monotonic epoch counter, 0 for the initial build.
    pub epoch: u64,
    /// The graph this epoch was built from.
    pub graph: Graph,
    /// The query index over `graph`.
    pub index: BiconnectivityIndex,
    /// What the commit that published this epoch rebuilt.
    pub stats: CommitStats,
    /// When this epoch was published.
    created: Instant,
}

impl Snapshot {
    /// Monotonic epoch counter, 0 for the initial build (accessor form
    /// of the public field, for callers generic over snapshot-like
    /// types).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The instant this epoch was published.
    pub fn created_at(&self) -> Instant {
        self.created
    }

    /// Wall-clock age of this snapshot: how long ago it was published.
    /// Together with [`IndexStore::latest_epoch`] this is the
    /// snapshot-lag a serving reader reports per answer.
    pub fn age(&self) -> Duration {
        self.created.elapsed()
    }
}

/// Number of slots in the publication ring. Any value ≥ 2 is correct
/// (see the module docs); 8 keeps a writer from lapping readers even
/// under pathological commit rates.
const PUBLISH_SLOTS: usize = 8;

/// The publication side of the store: a ring of recent snapshots plus
/// the freshest epoch number, written only under the commit lock.
struct PublishRing {
    slots: Box<[Mutex<Arc<Snapshot>>]>,
    head: AtomicUsize,
    latest_epoch: AtomicU64,
}

impl PublishRing {
    fn new(initial: Arc<Snapshot>) -> Self {
        let epoch = initial.epoch;
        PublishRing {
            slots: (0..PUBLISH_SLOTS)
                .map(|_| Mutex::new(Arc::clone(&initial)))
                .collect(),
            head: AtomicUsize::new(0),
            latest_epoch: AtomicU64::new(epoch),
        }
    }

    fn load(&self) -> Arc<Snapshot> {
        let head = self.head.load(Ordering::Acquire);
        Arc::clone(&self.slots[head % PUBLISH_SLOTS].lock().unwrap())
    }

    /// Caller holds the store's commit lock (single writer).
    fn publish(&self, next: &Arc<Snapshot>) {
        let head = self.head.load(Ordering::Relaxed) + 1;
        *self.slots[head % PUBLISH_SLOTS].lock().unwrap() = Arc::clone(next);
        self.head.store(head, Ordering::Release);
        self.latest_epoch.store(next.epoch, Ordering::Release);
    }
}

/// A write transaction: stage updates, then [`commit`](Txn::commit)
/// them as one atomic epoch. Obtained from [`IndexStore::begin`];
/// dropping a transaction without committing discards its updates.
/// Transactions stage independently — only `commit` serializes against
/// other writers.
#[must_use = "a transaction does nothing until committed"]
pub struct Txn<'a> {
    store: &'a IndexStore,
    updates: Vec<EdgeUpdate>,
}

impl Txn<'_> {
    /// Stages an edge insertion (grows the vertex set if needed; self
    /// loops and duplicates are ignored at commit).
    pub fn insert(&mut self, u: u32, v: u32) -> &mut Self {
        self.updates.push(EdgeUpdate::Insert(u, v));
        self
    }

    /// Stages an edge removal (a no-op at commit if the edge is
    /// absent; vertices remain).
    pub fn remove(&mut self, u: u32, v: u32) -> &mut Self {
        self.updates.push(EdgeUpdate::Remove(u, v));
        self
    }

    /// Stages one prebuilt update.
    pub fn push(&mut self, update: EdgeUpdate) -> &mut Self {
        self.updates.push(update);
        self
    }

    /// Stages a whole batch of prebuilt updates.
    pub fn extend(&mut self, updates: impl IntoIterator<Item = EdgeUpdate>) -> &mut Self {
        self.updates.extend(updates);
        self
    }

    /// Number of staged updates.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True if nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The staged updates, in order.
    pub fn updates(&self) -> &[EdgeUpdate] {
        &self.updates
    }

    /// Applies the staged updates and publishes the next epoch,
    /// rebuilding only the touched components; returns the new
    /// snapshot. An empty transaction is a no-op returning the current
    /// snapshot. On an error — a rebuild failure, or
    /// [`BccError::ReservedVertex`] for an insert naming `u32::MAX` —
    /// the previous epoch stays published and nothing is lost: the
    /// failed batch was owned by this (consumed) transaction.
    pub fn commit(self) -> Result<Arc<Snapshot>, BccError> {
        self.store.commit_updates(&self.updates, false)
    }

    /// Like [`commit`](Txn::commit) but rebuilds the whole index from
    /// scratch regardless of what the batch touches. The benchmark
    /// baseline, and an escape hatch if incremental state is ever in
    /// doubt.
    pub fn commit_full(self) -> Result<Arc<Snapshot>, BccError> {
        self.store.commit_updates(&self.updates, true)
    }
}

/// A long-lived store publishing [`Snapshot`]s of a mutating graph.
pub struct IndexStore {
    pool: Pool,
    current: PublishRing,
    /// Serializes commits so concurrent writers cannot lose each
    /// other's updates; readers never take this.
    commit_lock: Mutex<()>,
    /// One pipeline scratch arena shared across every rebuild: after
    /// the first commit, reconstruction runs in its zero-allocation
    /// steady state (commits are serialized by `commit_lock`, so the
    /// arena never sees two rebuilds at once).
    workspace: Arc<BccWorkspace>,
    /// Labeling algorithm used by every rebuild (full and incremental).
    algorithm: Algorithm,
}

impl IndexStore {
    /// Builds epoch 0 from `g` and takes ownership of the pool used
    /// for every rebuild. Fails if the initial index build does.
    /// Rebuilds run TV-filter; use
    /// [`with_algorithm`](IndexStore::with_algorithm) to choose.
    pub fn new(pool: Pool, g: Graph) -> Result<Self, BccError> {
        Self::with_algorithm(pool, g, Algorithm::TvFilter)
    }

    /// [`new`](IndexStore::new) with an explicit labeling [`Algorithm`]
    /// for every rebuild. All algorithms produce identical canonical
    /// labels; [`Algorithm::FastBcc`] bounds each rebuild's auxiliary
    /// space by O(n) — the choice for stores whose graphs dwarf the
    /// n=50k grid.
    pub fn with_algorithm(pool: Pool, g: Graph, algorithm: Algorithm) -> Result<Self, BccError> {
        let t0 = Instant::now();
        let workspace = Arc::new(BccWorkspace::new());
        let index = BiconnectivityIndex::from_graph_with(&pool, &g, algorithm, &workspace)?;
        let stats = CommitStats {
            batch: 0,
            inserts: 0,
            removes: 0,
            components_rebuilt: index.num_components(),
            components_reused: 0,
            vertices_rebuilt: g.n(),
            edges_rebuilt: g.m(),
            reused_fraction: 0.0,
            full_rebuild: true,
            seconds: 0.0,
        }
        .timed(t0.elapsed());
        Ok(IndexStore {
            pool,
            current: PublishRing::new(Arc::new(Snapshot {
                epoch: 0,
                graph: g,
                index,
                stats,
                created: Instant::now(),
            })),
            commit_lock: Mutex::new(()),
            workspace,
            algorithm,
        })
    }

    /// Opens a write transaction. Stage updates on it, then
    /// [`Txn::commit`].
    pub fn begin(&self) -> Txn<'_> {
        Txn {
            store: self,
            updates: Vec::new(),
        }
    }

    /// The current snapshot. Cheap (one `Arc` clone from the
    /// publication ring — readers never wait on a rebuild; see the
    /// module docs); hold the result as long as needed.
    pub fn load(&self) -> Arc<Snapshot> {
        self.current.load()
    }

    /// The freshest published epoch number — one atomic load, no ring
    /// traffic. `latest_epoch() - snap.epoch` is a snapshot's lag in
    /// commits; see [`lag_of`](IndexStore::lag_of).
    pub fn latest_epoch(&self) -> u64 {
        self.current.latest_epoch.load(Ordering::Acquire)
    }

    /// How many commits behind the latest published epoch `snap` is
    /// (saturating: a snapshot loaded *after* the epoch counter was
    /// read can only make the lag smaller, never negative).
    pub fn lag_of(&self, snap: &Snapshot) -> u64 {
        self.latest_epoch().saturating_sub(snap.epoch)
    }

    /// Cumulative hit/miss counters of the rebuild arena (for tests
    /// and telemetry).
    pub fn workspace_stats(&self) -> bcc_smp::WorkspaceStats {
        self.workspace.stats()
    }

    /// Caps the rebuild arena's shelved capacity at `max_bytes`,
    /// dropping the largest idle buffers first. Useful after a burst
    /// of large commits when the store is expected to go quiet.
    pub fn trim_workspace(&self, max_bytes: usize) {
        self.workspace.trim(max_bytes);
    }

    fn commit_updates(
        &self,
        updates: &[EdgeUpdate],
        full: bool,
    ) -> Result<Arc<Snapshot>, BccError> {
        let _serial = self.commit_lock.lock().unwrap();
        self.commit_locked(updates, full)
    }

    /// The commit body; caller holds `commit_lock`.
    fn commit_locked(&self, updates: &[EdgeUpdate], full: bool) -> Result<Arc<Snapshot>, BccError> {
        if updates.is_empty() {
            return Ok(self.load());
        }
        let t0 = Instant::now();
        let prev = self.load();
        let old_n = prev.graph.n();

        // Fold the batch to its net per-edge effect (last op wins).
        // Opposing insert/remove pairs of the same edge cancel *before*
        // anything downstream sees them, so a churny stream that undoes
        // itself within one transaction costs no component rebuild —
        // and the vertex set grows only from edges whose net effect is
        // an insert: a cancelled insert naming a brand-new vertex
        // leaves no phantom vertex behind.
        let mut ops: BTreeMap<u64, bool> = BTreeMap::new();
        for &u in updates {
            match u {
                EdgeUpdate::Insert(a, b) => {
                    if a != b {
                        ops.insert(Edge::new(a, b).key(), true);
                    }
                }
                EdgeUpdate::Remove(a, b) => {
                    if a != b {
                        ops.insert(Edge::new(a, b).key(), false);
                    }
                }
            }
        }
        // A net insert naming the reserved id `u32::MAX` is refused
        // here, before anything is built: the previous epoch stays
        // published and the store keeps committing.
        let mut new_n = old_n;
        for (&key, &is_insert) in &ops {
            if is_insert {
                let hi = ((key >> 32) as u32).max(key as u32);
                new_n = new_n.max(hi.checked_add(1).ok_or(BccError::ReservedVertex(hi))?);
            }
        }

        // Classify against the previous edge set, marking the touched
        // components: a real removal touches its edge's component, a
        // real insertion touches both endpoints' (merging them if they
        // differ). Duplicate inserts and absent removes touch nothing.
        let mut touched = vec![false; prev.index.comps.len()];
        let mut edges: Vec<Edge> = Vec::with_capacity(prev.graph.m() + ops.len());
        let mut removes = 0usize;
        for &e in prev.graph.edges() {
            match ops.remove(&e.key()) {
                Some(false) => {
                    removes += 1;
                    touched[prev.index.slot[e.u as usize] as usize] = true;
                }
                _ => edges.push(e), // kept (possibly a duplicate insert)
            }
        }
        let mut inserts = 0usize;
        for (&key, &is_insert) in &ops {
            if !is_insert {
                continue; // removing an absent edge: no-op
            }
            let e = Edge::new((key >> 32) as u32, key as u32);
            inserts += 1;
            for v in [e.u, e.v] {
                if v < old_n {
                    touched[prev.index.slot[v as usize] as usize] = true;
                }
            }
            edges.push(e);
        }
        let graph = GraphBuilder::new(new_n).edges(edges).build().unwrap();

        if full {
            let index = BiconnectivityIndex::from_graph_with(
                &self.pool,
                &graph,
                self.algorithm,
                &self.workspace,
            )?;
            let stats = CommitStats {
                batch: updates.len(),
                inserts,
                removes,
                components_rebuilt: index.num_components(),
                components_reused: 0,
                vertices_rebuilt: new_n,
                edges_rebuilt: graph.m(),
                reused_fraction: 0.0,
                full_rebuild: true,
                seconds: 0.0,
            };
            return Ok(self.publish(&prev, graph, index, stats.timed(t0.elapsed())));
        }

        // The rebuild region: every vertex of a touched component plus
        // every newly created vertex.
        let mut region_verts: Vec<u32> = Vec::new();
        let mut region_local = vec![NIL; new_n as usize];
        for v in 0..old_n {
            if touched[prev.index.slot[v as usize] as usize] {
                region_local[v as usize] = region_verts.len() as u32;
                region_verts.push(v);
            }
        }
        for v in old_n..new_n {
            region_local[v as usize] = region_verts.len() as u32;
            region_verts.push(v);
        }

        if region_verts.is_empty() {
            // Every update folded to a no-op: bump the epoch, reuse the
            // whole index.
            let stats = CommitStats {
                batch: updates.len(),
                inserts,
                removes,
                components_rebuilt: 0,
                components_reused: prev.index.num_components(),
                vertices_rebuilt: 0,
                edges_rebuilt: 0,
                reused_fraction: 1.0,
                full_rebuild: false,
                seconds: 0.0,
            };
            let index = prev.index.clone();
            return Ok(self.publish(&prev, graph, index, stats.timed(t0.elapsed())));
        }

        // Extract the region as a relabeled subgraph. A kept edge lies
        // entirely inside or entirely outside the region (its endpoints
        // share a component); an inserted edge is always inside.
        let rn = region_verts.len() as u32;
        let mut region_edges: Vec<Edge> = Vec::new();
        for &e in graph.edges() {
            let lu = region_local[e.u as usize];
            if lu != NIL {
                debug_assert_ne!(region_local[e.v as usize], NIL);
                region_edges.push(Edge::new(lu, region_local[e.v as usize]));
            }
        }
        let edges_rebuilt = region_edges.len();

        // Re-derive the region's connectivity (this is where merges
        // and splits resolve) and split it into connected parts.
        let ws = &self.workspace;
        let cc = bcc_connectivity::sv::connected_components_with_ws(
            &self.pool,
            rn,
            &region_edges,
            bcc_connectivity::SvVariant::FastSv,
            ws,
        );
        let mut labels = cc.label;
        ws.give(cc.tree_edges);
        let k = bcc_connectivity::sv::normalize_labels_ws(&self.pool, &mut labels, ws);
        let region_graph = GraphBuilder::new(rn).edges(region_edges).build().unwrap();
        let split = region_graph.split_by_labels(&labels, k);
        ws.give(labels);

        // Stitch: untouched components ride over by `Arc`; each region
        // part takes a freed slot (or a fresh one) and is rebuilt
        // through the per-component pipeline. Freed slots beyond the
        // part count (merges) stay as unreferenced `None`s.
        let mut comps = prev.index.comps.clone();
        let mut slot = prev.index.slot.clone();
        let mut local = prev.index.local.clone();
        slot.resize(new_n as usize, 0);
        local.resize(new_n as usize, 0);
        let freed: Vec<usize> = (0..touched.len()).filter(|&s| touched[s]).collect();
        let reused = prev.index.num_components() - freed.len() as u32;
        for &s in &freed {
            comps[s] = None;
        }
        let mut free_slots = freed.into_iter();
        let config = BccConfig::new(self.algorithm).workspace(Arc::clone(ws));
        let mut rebuilt = 0u32;
        for part in &split.parts {
            let s = free_slots.next().unwrap_or_else(|| {
                comps.push(None);
                comps.len() - 1
            });
            let verts_global: Vec<u32> = part
                .verts
                .iter()
                .map(|&rl| region_verts[rl as usize])
                .collect();
            for (l, &gv) in verts_global.iter().enumerate() {
                slot[gv as usize] = s as u32;
                local[gv as usize] = l as u32;
            }
            comps[s] =
                BiconnectivityIndex::build_component(&self.pool, part, &verts_global, &config)?;
            rebuilt += 1;
        }
        let index = BiconnectivityIndex::assemble(new_n, slot, local, comps);
        let stats = CommitStats {
            batch: updates.len(),
            inserts,
            removes,
            components_rebuilt: rebuilt,
            components_reused: reused,
            vertices_rebuilt: rn,
            edges_rebuilt,
            reused_fraction: 1.0 - rn as f64 / new_n as f64,
            full_rebuild: false,
            seconds: 0.0,
        };
        Ok(self.publish(&prev, graph, index, stats.timed(t0.elapsed())))
    }

    /// Installs the next epoch into the publication ring — one slot
    /// store plus two atomic releases, independent of graph size.
    fn publish(
        &self,
        prev: &Snapshot,
        graph: Graph,
        index: BiconnectivityIndex,
        stats: CommitStats,
    ) -> Arc<Snapshot> {
        let next = Arc::new(Snapshot {
            epoch: prev.epoch + 1,
            graph,
            index,
            stats,
            created: Instant::now(),
        });
        self.current.publish(&next);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Failure;
    use bcc_graph::gen;

    #[test]
    fn reserved_vertex_id_is_a_typed_error_and_the_store_keeps_committing() {
        let store = IndexStore::new(Pool::new(2), gen::cycle(6)).unwrap();
        let mut txn = store.begin();
        txn.insert(0, u32::MAX);
        assert_eq!(txn.commit().err(), Some(BccError::ReservedVertex(u32::MAX)));
        assert_eq!(
            store.latest_epoch(),
            0,
            "the failed batch published nothing"
        );
        let mut txn = store.begin();
        txn.insert(0, 6);
        let snap = txn.commit().unwrap();
        assert_eq!((snap.epoch, snap.graph.n()), (1, 7));
        assert_eq!(snap.index.num_bridges(), 1);
    }

    #[test]
    fn fast_bcc_store_matches_default_across_commits() {
        // Same initial graph, same update stream, different rebuild
        // algorithms — every published snapshot must agree.
        let g = gen::random_connected(120, 300, 17);
        let a = IndexStore::new(Pool::new(2), g.clone()).unwrap();
        let b = IndexStore::with_algorithm(Pool::new(2), g, Algorithm::FastBcc).unwrap();
        for (u, v) in [(0u32, 60u32), (5, 90), (121, 122), (10, 121)] {
            let mut ta = a.begin();
            ta.insert(u, v);
            ta.commit().unwrap();
            let mut tb = b.begin();
            tb.insert(u, v);
            tb.commit().unwrap();
            let sa = a.load();
            let sb = b.load();
            assert_eq!(sa.index.num_blocks(), sb.index.num_blocks());
            assert_eq!(sa.index.num_bridges(), sb.index.num_bridges());
            assert_eq!(
                sa.index.articulation_points(),
                sb.index.articulation_points()
            );
            for x in (0..sa.graph.n()).step_by(7) {
                for y in (0..sa.graph.n()).step_by(11) {
                    assert_eq!(sa.index.same_block(x, y), sb.index.same_block(x, y));
                }
            }
        }
    }

    #[test]
    fn epochs_advance_and_old_snapshots_survive() {
        let store = IndexStore::new(Pool::new(2), gen::cycle(6)).unwrap();
        let before = store.load();
        assert_eq!(before.epoch, 0);
        assert!(before.stats.full_rebuild);
        assert!(before.index.articulation_points().is_empty());

        // Cut the cycle open: edge (0,1) gone, the rest becomes a path.
        let mut txn = store.begin();
        txn.remove(0, 1);
        assert_eq!(txn.len(), 1);
        let after = txn.commit().unwrap();
        assert_eq!(after.epoch, 1);
        assert_eq!(after.index.articulation_points(), &[2, 3, 4, 5]);
        assert!(after.index.is_bridge(1, 2));
        assert_eq!(after.stats.removes, 1);
        assert!(!after.stats.full_rebuild);

        // The pre-update snapshot still answers from its own epoch. On
        // the new path 1-2-3-4-5-0, vertex 1 is a leaf (harmless) but
        // vertex 5 now separates 0 from 3.
        assert!(before.index.same_block(0, 3));
        assert!(before.index.survives_failure(0, 3, Failure::Vertex(5)));
        assert!(after.index.survives_failure(0, 3, Failure::Vertex(1)));
        assert!(!after.index.survives_failure(0, 3, Failure::Vertex(5)));
    }

    #[test]
    fn empty_commit_is_a_no_op() {
        let store = IndexStore::new(Pool::new(1), gen::cycle(4)).unwrap();
        let a = store.begin().commit().unwrap();
        assert_eq!(a.epoch, 0);
        assert!(Arc::ptr_eq(&a, &store.load()));
    }

    #[test]
    fn inserts_grow_the_vertex_set_and_heal_cuts() {
        let store = IndexStore::new(Pool::new(2), gen::path(4)).unwrap();
        // Close the path into a cycle, and hang a brand-new vertex 4.
        let mut txn = store.begin();
        txn.insert(3, 0)
            .insert(0, 4)
            .insert(0, 0) // self loop: ignored
            .insert(0, 1); // duplicate: ignored
        let snap = txn.commit().unwrap();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.graph.n(), 5);
        assert_eq!(snap.graph.m(), 5); // 4 path/cycle edges + pendant
        assert_eq!(snap.index.articulation_points(), &[0]);
        assert!(snap.index.same_block(1, 3)); // now on a cycle
        assert!(snap.index.survives_failure(1, 3, Failure::Vertex(2)));
        assert_eq!(snap.stats.batch, 4);
        assert_eq!(snap.stats.inserts, 2); // net of the loop + duplicate
        assert_eq!(snap.stats.components_rebuilt, 1);
    }

    #[test]
    fn cancelled_opposing_updates_fold_to_a_no_op() {
        let store = IndexStore::new(Pool::new(1), gen::cycle(5)).unwrap();
        let before = store.load();

        // Insert edges naming brand-new vertices, then cancel every
        // one of them inside the same transaction; sprinkle in the
        // other no-op shapes (absent remove, duplicate insert).
        let mut txn = store.begin();
        txn.insert(0, 9)
            .insert(9, 42)
            .remove(0, 9)
            .remove(9, 42)
            .remove(1, 77) // remove of an absent edge
            .insert(2, 3); // duplicate of an existing edge
        let snap = txn.commit().unwrap();

        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.graph.n(), 5, "cancelled inserts must not grow n");
        assert_eq!(snap.graph.m(), 5);
        assert_eq!(snap.stats.inserts, 0);
        assert_eq!(snap.stats.removes, 0);
        assert_eq!(snap.stats.components_rebuilt, 0, "no-op batch rebuilt");
        assert_eq!(snap.stats.reused_fraction, 1.0);
        // The single component rides over by pointer, untouched.
        assert!(Arc::ptr_eq(
            before.index.component_handle(0).unwrap(),
            snap.index.component_handle(0).unwrap()
        ));

        // Remove-then-reinsert of a present edge also cancels.
        let mut txn = store.begin();
        txn.remove(0, 1).insert(0, 1);
        let snap2 = txn.commit().unwrap();
        assert_eq!(snap2.epoch, 2);
        assert_eq!(snap2.stats.components_rebuilt, 0);
        assert_eq!(snap2.graph.m(), 5);

        // Last op still wins when the pair does NOT cancel: insert
        // then remove of a *present* edge is a real removal.
        let mut txn = store.begin();
        txn.insert(0, 1).remove(0, 1);
        let snap3 = txn.commit().unwrap();
        assert_eq!(snap3.stats.removes, 1);
        assert_eq!(snap3.graph.m(), 4);
        assert!(snap3.index.is_bridge(1, 2));
    }

    #[test]
    fn epoch_accessors_and_lag() {
        let store = IndexStore::new(Pool::new(1), gen::cycle(4)).unwrap();
        let old = store.load();
        assert_eq!(old.epoch(), 0);
        assert_eq!(store.latest_epoch(), 0);
        assert_eq!(store.lag_of(&old), 0);
        let t0 = old.created_at();

        std::thread::sleep(Duration::from_millis(2));
        let mut txn = store.begin();
        txn.remove(0, 1);
        let new = txn.commit().unwrap();

        assert_eq!(new.epoch(), 1);
        assert_eq!(store.latest_epoch(), 1);
        assert_eq!(store.lag_of(&old), 1, "held snapshot is one commit behind");
        assert_eq!(store.lag_of(&new), 0);
        assert!(new.created_at() > t0);
        assert!(old.age() >= new.age());
    }

    #[test]
    fn removal_can_disconnect() {
        let store = IndexStore::new(Pool::new(2), gen::cycle_chain(2, 4, 0)).unwrap();
        let mut txn = store.begin();
        txn.remove(3, 4); // the bridge
        let snap = txn.commit().unwrap();
        assert!(!snap.index.connected(0, 5));
        assert!(!snap.index.survives_failure(0, 5, Failure::Vertex(2)));
        assert_eq!(snap.stats.components_rebuilt, 2); // the split halves
                                                      // Removing an absent edge is a no-op but still bumps the epoch.
        let mut txn = store.begin();
        txn.remove(0, 5);
        let snap2 = txn.commit().unwrap();
        assert_eq!(snap2.epoch, 2);
        assert_eq!(snap2.graph.m(), snap.graph.m());
        assert_eq!(snap2.stats.components_rebuilt, 0);
        assert_eq!(snap2.stats.reused_fraction, 1.0);
    }

    #[test]
    fn untouched_components_are_reused_by_pointer() {
        // Three disjoint 5-cycles; edit only the middle one.
        let g = GraphBuilder::new(15)
            .edges((0..3).flat_map(|c| (0..5).map(move |i| (c * 5 + i, c * 5 + (i + 1) % 5))))
            .build()
            .unwrap();
        let store = IndexStore::new(Pool::new(2), g).unwrap();
        let before = store.load();
        assert_eq!(before.index.num_components(), 3);

        let mut txn = store.begin();
        txn.remove(5, 6);
        let after = txn.commit().unwrap();
        assert_eq!(after.stats.components_rebuilt, 1);
        assert_eq!(after.stats.components_reused, 2);
        assert_eq!(after.stats.vertices_rebuilt, 5);
        assert!((after.stats.reused_fraction - 2.0 / 3.0).abs() < 1e-9);

        // Untouched components: the *same* Arc, not an equal rebuild.
        for v in [0, 4, 10, 14] {
            assert!(Arc::ptr_eq(
                before.index.component_handle(v).unwrap(),
                after.index.component_handle(v).unwrap()
            ));
        }
        // The touched one was rebuilt.
        assert!(!Arc::ptr_eq(
            before.index.component_handle(5).unwrap(),
            after.index.component_handle(7).unwrap()
        ));
        assert!(after.index.is_bridge(6, 7));

        // A cross-component insert merges exactly the two endpoints'
        // components and leaves the third alone.
        let mut txn = store.begin();
        txn.insert(0, 10);
        let merged = txn.commit().unwrap();
        assert_eq!(merged.stats.components_rebuilt, 1);
        assert_eq!(merged.index.num_components(), 2); // merged pair + middle
        assert!(merged.index.connected(0, 10));
        assert!(Arc::ptr_eq(
            after.index.component_handle(7).unwrap(),
            merged.index.component_handle(7).unwrap()
        ));
    }

    #[test]
    fn incremental_matches_full_rebuild() {
        let store = IndexStore::new(Pool::new(2), gen::cycle_chain(3, 4, 1)).unwrap();
        let mut txn = store.begin();
        txn.extend([
            EdgeUpdate::Remove(3, 4),
            EdgeUpdate::Insert(0, 9),
            EdgeUpdate::Insert(13, 14), // new vertex
        ]);
        let inc = txn.commit().unwrap();

        let pool = Pool::new(2);
        let full = BiconnectivityIndex::from_graph(&pool, &inc.graph).unwrap();
        assert_eq!(inc.index.articulation_points(), full.articulation_points());
        assert_eq!(inc.index.num_blocks(), full.num_blocks());
        assert_eq!(inc.index.num_bridges(), full.num_bridges());
        assert_eq!(inc.index.num_components(), full.num_components());
        let n = inc.graph.n();
        for u in 0..n {
            for v in 0..n {
                assert_eq!(inc.index.connected(u, v), full.connected(u, v));
                assert_eq!(inc.index.same_block(u, v), full.same_block(u, v));
            }
        }
    }

    #[test]
    fn readers_keep_serving_across_concurrent_commits() {
        let store = IndexStore::new(Pool::new(2), gen::cycle(8)).unwrap();
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut answered = 0u64;
                for _ in 0..200 {
                    let snap = store.load();
                    // Within one snapshot, answers are consistent no
                    // matter what writers publish meanwhile.
                    if snap.index.connected(0, 4) {
                        assert!(snap.index.same_block(0, 4));
                        assert!(!snap.index.survives_failure(0, 4, Failure::Vertex(0)));
                    }
                    answered += 1;
                }
                answered
            });
            let writer = s.spawn(|| {
                for round in 0..20 {
                    let mut txn = store.begin();
                    if round % 2 == 0 {
                        txn.remove(0, 1).remove(4, 5);
                    } else {
                        txn.insert(0, 1).insert(4, 5);
                    }
                    txn.commit().unwrap();
                }
            });
            assert_eq!(reader.join().unwrap(), 200);
            writer.join().unwrap();
        });
        assert_eq!(store.load().epoch, 20);
    }
}
