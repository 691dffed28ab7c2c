//! The serving daemon: queries answered on the thread that submits
//! them, per-shard writer threads plus a migration coordinator over
//! the update stream, and watermark-based admission control in front
//! of the writers.
//!
//! ```text
//!  submit(Query) ───▶ answer on the calling thread from the routed
//!  (drivers, TCP      shard's snapshot ─▶ latency + lag records
//!   connection)                         └▶ reply (returned / sink)
//!
//!                 route   ┌─────────────┐
//!  submit(Update) ──┬──▶  │ shard 0 MPMC│ ──▶ writer 0 ─commit─▶ shard 0
//!    │ admission    ├──▶  │ shard 1 MPMC│ ──▶ writer 1 ─commit─▶ shard 1
//!    │ watermarks   ⋮     └─────────────┘         ⋮ (writer lock +
//!    ▼ shed ⇒ Rejected    ┌─────────────┐           routing re-check)
//!  (typed, counted)       │ coordinator │ ──▶ cross-shard migrations
//!                         └─────────────┘     (both locks, in order)
//! ```
//!
//! * **Queries** are answered on the thread that submits them — the
//!   in-process caller of [`Daemon::submit`], or the TCP connection
//!   thread that decoded the frame — against the current snapshot of
//!   the shard the query routes to. Snapshots are lock-free, so an
//!   answer never waits on a commit or on another thread, and one
//!   caller's reads and writes take effect in the order it sent them:
//!   a query sent before an update is answered before that update is
//!   even admitted. Each answering thread keeps the latency and lag
//!   records; they merge into one [`ServeReport`] at shutdown.
//! * **Shard writers**: one thread per shard drains that shard's
//!   queue with group-commit batching ([`ServeConfig::batch_max`] /
//!   [`ServeConfig::flush_interval`]) and commits under the shard's
//!   writer lock via [`ShardedStore::commit_shard`] — shards have
//!   dedicated SPMD pools, so commits on different shards genuinely
//!   overlap. Inserts that span shards go to a **coordinator** thread
//!   which runs the lock-ordered migration path
//!   ([`ShardedStore::migrate`]); updates a migration re-routed while
//!   they queued come back from the commit as strays and resolve the
//!   same way.
//! * **Admission control** ([`Admission`]): updates are *shed* — with
//!   a typed [`SubmitError::Overloaded`], never a silent drop — when
//!   the owning shard's queue is deeper than
//!   [`Admission::shed_queue_depth`] or the daemon-wide count of
//!   admitted-but-uncommitted updates exceeds
//!   [`Admission::shed_backlog`] (the staleness watermark: that
//!   backlog is exactly how far snapshots trail the offered stream).
//!   Sheds count into [`ServeReport::shed_updates`] and the
//!   [`Telemetry`] sink. Queries are never shed; protecting the read
//!   tail is the point of shedding writes.
//! * **Shutdown** closes the shard queues (writers flush their last
//!   batches, re-dispatching strays), then the coordinator queue — so
//!   nothing admitted before [`Daemon::shutdown`] is lost.

use crate::api::{RejectReason, Request, Response, SubmitError};
use crate::hist::LatencyHistogram;
use crate::shard::{ServeError, ShardedStore};
use bcc_query::{Answer, EdgeUpdate, Query};
use bcc_smp::{MpmcQueue, PopResult, Telemetry, TryPushError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capacity of each shard's update queue and of the coordinator's.
const UPDATE_CAPACITY: usize = 1024;

/// Load-shedding watermarks. `None` disables a watermark; with both
/// disabled the daemon never sheds (full queues still refuse with
/// [`SubmitError::QueueFull`] on the non-blocking path).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Admission {
    /// Shed an update when its target queue already holds at least
    /// this many items.
    pub shed_queue_depth: Option<usize>,
    /// Shed an update when the daemon-wide count of admitted-but-not-
    /// yet-committed updates reaches this. This is the staleness
    /// watermark: snapshots trail the offered stream by exactly this
    /// backlog, so bounding it bounds how stale answers can get under
    /// overload.
    pub shed_backlog: Option<usize>,
}

/// Tuning for a [`Daemon`]. Build one with
/// [`ServeConfig::builder`]; the fields stay public for
/// struct-update syntax but new code should prefer the builder.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// A writer commits as soon as this many updates are staged…
    pub batch_max: usize,
    /// …or as soon as the oldest staged update is this old.
    pub flush_interval: Duration,
    /// Load-shedding watermarks (default: disabled).
    pub admission: Admission,
    /// Optional sink receiving per-answer snapshot-lag observations
    /// and shed counts (the same channel `PhaseReport` reads), so a
    /// daemon run and a pipeline run report staleness uniformly.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_max: 64,
            flush_interval: Duration::from_millis(2),
            admission: Admission::default(),
            telemetry: None,
        }
    }
}

impl ServeConfig {
    /// Starts configuring a daemon (mirrors `BccConfig`'s builder
    /// style).
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }
}

/// Builder for [`ServeConfig`] — see [`ServeConfig::builder`].
#[derive(Clone, Debug)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Group-commit batch bound (default 64).
    pub fn batch_max(mut self, batch_max: usize) -> Self {
        self.config.batch_max = batch_max;
        self
    }

    /// Group-commit staleness bound (default 2 ms).
    pub fn flush_interval(mut self, interval: Duration) -> Self {
        self.config.flush_interval = interval;
        self
    }

    /// Load-shedding watermarks (default disabled).
    pub fn admission(mut self, admission: Admission) -> Self {
        self.config.admission = admission;
        self
    }

    /// Telemetry sink for snapshot-lag and shed observations.
    pub fn telemetry(mut self, sink: Arc<Telemetry>) -> Self {
        self.config.telemetry = Some(sink);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> ServeConfig {
        self.config
    }
}

/// Where [`Daemon::submit_with_reply`] delivers a request's
/// [`Response`]; it runs on the submitting thread before the call
/// returns.
pub type ReplySink = Box<dyn FnOnce(Response)>;

/// What the threads that answer queries recorded. Each TCP connection
/// thread keeps its own and merges it into the daemon's when the peer
/// hangs up; in-process callers record into the daemon's directly.
#[derive(Default)]
pub(crate) struct AnswerLog {
    answered: u64,
    errors: u64,
    /// Answers that came back `true`/non-empty — a cheap checksum so
    /// the benchmark work cannot be optimized away and profiles can
    /// sanity-check their query mix.
    positive: u64,
    latency: LatencyHistogram,
    lag_commits: LatencyHistogram,
    lag_wall: LatencyHistogram,
}

impl AnswerLog {
    fn merge(&mut self, other: &AnswerLog) {
        self.answered += other.answered;
        self.errors += other.errors;
        self.positive += other.positive;
        self.latency.merge(&other.latency);
        self.lag_commits.merge(&other.lag_commits);
        self.lag_wall.merge(&other.lag_wall);
    }
}

/// The response to an update whose submission returned `admitted`.
pub(crate) fn update_response(id: u64, admitted: &Result<(), SubmitError>) -> Response {
    match admitted {
        Ok(()) => Response::Accepted { id },
        Err(e) => Response::Rejected {
            id,
            reason: e.reason(),
        },
    }
}

/// What one writer (or the coordinator) accumulated.
struct WriterReport {
    updates_applied: u64,
    commits: u64,
    migrations: u64,
    commit_latency: LatencyHistogram,
    /// Commit wall time per shard (from `CommitStats::seconds`).
    shard_commit_latency: Vec<LatencyHistogram>,
    error: Option<ServeError>,
}

impl WriterReport {
    fn new(num_shards: usize) -> Self {
        WriterReport {
            updates_applied: 0,
            commits: 0,
            migrations: 0,
            commit_latency: LatencyHistogram::new(),
            shard_commit_latency: (0..num_shards).map(|_| LatencyHistogram::new()).collect(),
            error: None,
        }
    }

    /// Folds one commit's `(shard, stats)` attribution in.
    fn record_stats(&mut self, stats: &[(usize, bcc_query::CommitStats)]) {
        for &(s, st) in stats {
            self.commits += 1;
            self.shard_commit_latency[s].record_duration(Duration::from_secs_f64(st.seconds));
        }
    }
}

/// Merged end-of-run statistics for one daemon lifetime.
#[derive(Debug)]
pub struct ServeReport {
    /// Queries answered, over every answering thread.
    pub answered: u64,
    /// Queries rejected (out-of-range vertices).
    pub query_errors: u64,
    /// Answers that were `true` / non-empty (a checksum of the query
    /// mix).
    pub positive: u64,
    /// Per-answer latency (ns), from the query's arrival stamp (the
    /// `issued` of [`Daemon::submit_at`]; the decode instant over TCP)
    /// to its answer.
    pub latency: LatencyHistogram,
    /// Per-answer snapshot lag in commits behind the shard's latest
    /// epoch (histogram over answers; values are commit counts).
    pub lag_commits: LatencyHistogram,
    /// Per-answer snapshot age in nanoseconds.
    pub lag_wall: LatencyHistogram,
    /// Updates the writers applied.
    pub updates_applied: u64,
    /// Updates shed by admission control (each one was answered with a
    /// typed `Overloaded` rejection — nothing is dropped silently).
    pub shed_updates: u64,
    /// Shard commits the writers issued.
    pub commits: u64,
    /// Cross-shard migrations performed.
    pub migrations: u64,
    /// Per-commit-batch apply latency (ns), queue-side: what one
    /// writer's flush cost end to end.
    pub commit_latency: LatencyHistogram,
    /// Per-shard commit wall time (ns, from `CommitStats::seconds`) —
    /// index `s` is shard `s`, so where commit time concentrated shows
    /// per shard.
    pub shard_commit_latency: Vec<LatencyHistogram>,
    /// First writer error, if any (that writer stops on one).
    pub writer_error: Option<ServeError>,
}

/// A running serving instance (see the [module docs](self)).
pub struct Daemon {
    store: Arc<ShardedStore>,
    /// One update queue per shard.
    shard_queues: Vec<Arc<MpmcQueue<EdgeUpdate>>>,
    /// Updates whose endpoints route to different shards.
    coordinator: Arc<MpmcQueue<EdgeUpdate>>,
    admission: Admission,
    /// Updates admitted but not yet committed (the staleness backlog).
    backlog: Arc<AtomicU64>,
    shed: AtomicU64,
    telemetry: Option<Arc<Telemetry>>,
    /// Answers given in process, plus those of connections that have
    /// hung up.
    answers: Mutex<AnswerLog>,
    writers: Vec<JoinHandle<WriterReport>>,
    coordinator_thread: JoinHandle<WriterReport>,
}

impl Daemon {
    /// Spawns one writer per shard and the migration coordinator over
    /// `store`.
    pub fn spawn(store: Arc<ShardedStore>, config: ServeConfig) -> Daemon {
        assert!(config.batch_max >= 1, "writer batches need at least 1");
        let backlog = Arc::new(AtomicU64::new(0));

        let shard_queues: Vec<_> = (0..store.num_shards())
            .map(|_| Arc::new(MpmcQueue::new(UPDATE_CAPACITY)))
            .collect();
        let coordinator = Arc::new(MpmcQueue::new(UPDATE_CAPACITY));
        let writers = shard_queues
            .iter()
            .enumerate()
            .map(|(s, q)| {
                let store = Arc::clone(&store);
                let q = Arc::clone(q);
                let coord = Arc::clone(&coordinator);
                let backlog = Arc::clone(&backlog);
                let (batch_max, flush) = (config.batch_max, config.flush_interval);
                std::thread::spawn(move || {
                    shard_writer_loop(&store, s, &q, &coord, &backlog, batch_max, flush)
                })
            })
            .collect();
        let coordinator_thread = {
            let store = Arc::clone(&store);
            let coord = Arc::clone(&coordinator);
            let backlog = Arc::clone(&backlog);
            std::thread::spawn(move || coordinator_loop(&store, &coord, &backlog))
        };

        Daemon {
            store,
            shard_queues,
            coordinator,
            admission: config.admission,
            backlog,
            shed: AtomicU64::new(0),
            telemetry: config.telemetry,
            answers: Mutex::default(),
            writers,
            coordinator_thread,
        }
    }

    /// The store this daemon serves.
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    /// Submits one [`Request`] arriving *now*. A query is answered on
    /// this thread before the call returns; an update blocks while its
    /// writer queue is full (closed-loop backpressure), though admission
    /// control may shed it *before* blocking — see [`SubmitError`] for
    /// the full refusal contract.
    pub fn submit(&self, request: Request) -> Result<(), SubmitError> {
        self.submit_at(request, Instant::now())
    }

    /// [`submit`](Self::submit) with an explicit arrival stamp
    /// (open-loop drivers pass the *scheduled* arrival, so time spent
    /// behind schedule is charged to latency).
    pub fn submit_at(&self, request: Request, issued: Instant) -> Result<(), SubmitError> {
        self.submit_inner(request, issued, None, true)
    }

    /// Non-blocking [`submit`](Self::submit): an update whose queue is
    /// full returns [`SubmitError::QueueFull`] immediately instead of
    /// waiting. (Queries never wait.)
    pub fn try_submit(&self, request: Request) -> Result<(), SubmitError> {
        self.submit_inner(request, Instant::now(), None, false)
    }

    /// Non-blocking submit that also hands the request's [`Response`]
    /// — a query's answer, an update's acceptance, or the typed
    /// rejection of either — to `reply` before it returns.
    pub fn submit_with_reply(&self, request: Request, reply: ReplySink) -> Result<(), SubmitError> {
        self.submit_inner(request, Instant::now(), Some(reply), false)
    }

    fn submit_inner(
        &self,
        request: Request,
        issued: Instant,
        reply: Option<ReplySink>,
        blocking: bool,
    ) -> Result<(), SubmitError> {
        let (response, result) = match request {
            Request::Query { id, query } => {
                let mut log = self.answers.lock().expect("answer log poisoned");
                let response = self.answer(id, &query, issued, &mut log);
                let result = match response {
                    Response::Rejected { .. } => Err(SubmitError::Invalid(request)),
                    _ => Ok(()),
                };
                (response, result)
            }
            Request::Update { id, update } => {
                let result = self.submit_update_inner(request, update, blocking);
                (update_response(id, &result), result)
            }
        };
        if let Some(reply) = reply {
            reply(response);
        }
        result
    }

    /// Answers `query` on the calling thread from the routed shard's
    /// current snapshot, recording its latency (from `issued`) and
    /// snapshot lag into `log`. An out-of-range query is answered with
    /// a typed `Invalid` rejection and counted as an error.
    pub(crate) fn answer(
        &self,
        id: u64,
        query: &Query,
        issued: Instant,
        log: &mut AnswerLog,
    ) -> Response {
        let Ok(lagged) = self.store.answer_with_lag(query) else {
            log.errors += 1;
            return Response::Rejected {
                id,
                reason: RejectReason::Invalid,
            };
        };
        log.latency.record_duration(issued.elapsed());
        log.lag_commits.record(lagged.lag_commits);
        log.lag_wall.record_duration(lagged.lag_wall);
        if let Some(t) = &self.telemetry {
            t.record_snapshot_lag(lagged.lag_commits, lagged.lag_wall);
        }
        log.answered += 1;
        log.positive += match &lagged.answer {
            Answer::Bool(b) => *b as u64,
            Answer::Vertices(v) => (!v.is_empty()) as u64,
        };
        Response::Answer {
            id,
            answer: lagged.answer,
        }
    }

    /// Folds the answer records of a connection that hung up into the
    /// daemon's.
    pub(crate) fn merge_answers(&self, log: &AnswerLog) {
        self.answers.lock().expect("answer log poisoned").merge(log);
    }

    fn submit_update_inner(
        &self,
        request: Request,
        update: EdgeUpdate,
        blocking: bool,
    ) -> Result<(), SubmitError> {
        let (u, v) = match update {
            EdgeUpdate::Insert(u, v) | EdgeUpdate::Remove(u, v) => (u, v),
        };
        let n = self.store.n();
        if u >= n || v >= n {
            return Err(SubmitError::Invalid(request));
        }
        // Route: anything whose endpoints currently live in different
        // shards goes to the coordinator, everything else to the owning
        // shard's writer. Removes ride the coordinator too — not
        // because a cross-shard remove does anything (it is a no-op by
        // definition), but because an insert/remove pair for the same
        // edge must stay FIFO, and while the insert is still pending
        // the remove reads the same cross-shard routing and must land
        // in the same queue behind it. The routing read here is
        // advisory — writers re-check under their locks — so a stale
        // read only costs a re-dispatch.
        let (su, sv) = (self.store.shard_of(u), self.store.shard_of(v));
        let queue = if su == sv {
            &self.shard_queues[su]
        } else {
            &self.coordinator
        };

        // Admission watermarks, checked before any queueing so a shed
        // never occupies queue room.
        let overloaded = self
            .admission
            .shed_queue_depth
            .is_some_and(|wm| queue.len() >= wm)
            || self
                .admission
                .shed_backlog
                .is_some_and(|wm| self.backlog.load(Ordering::Relaxed) >= wm as u64);
        if overloaded {
            self.shed.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = &self.telemetry {
                t.record_shed(1);
            }
            return Err(SubmitError::Overloaded(request));
        }

        self.backlog.fetch_add(1, Ordering::Relaxed);
        let pushed = if blocking {
            queue.push(update).map_err(|_| TryPushError::Closed(update))
        } else {
            queue.try_push(update)
        };
        pushed.map_err(|e| {
            self.backlog.fetch_sub(1, Ordering::Relaxed);
            match e {
                TryPushError::Full(_) => SubmitError::QueueFull(request),
                TryPushError::Closed(_) => SubmitError::ShuttingDown(request),
            }
        })
    }

    /// Queries waiting to be answered: always 0, because every query
    /// is answered on the thread that submits it. Kept so callers that
    /// sample it keep building.
    pub fn queued_queries(&self) -> usize {
        0
    }

    /// Updates admitted but not yet committed (queued plus staged).
    pub fn update_backlog(&self) -> u64 {
        self.backlog.load(Ordering::Relaxed)
    }

    /// Updates shed by admission control so far.
    pub fn shed_updates(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Drains the update queues, stops every writer, and merges their
    /// statistics with the answer records. Everything *admitted* before
    /// this call is answered or applied (shed updates were refused at
    /// the door, visibly).
    pub fn shutdown(self) -> ServeReport {
        let Daemon {
            store,
            shard_queues,
            coordinator,
            shed,
            answers,
            writers,
            coordinator_thread,
            ..
        } = self;
        let answers = answers.into_inner().expect("answer log poisoned");
        let mut report = ServeReport {
            answered: answers.answered,
            query_errors: answers.errors,
            positive: answers.positive,
            latency: answers.latency,
            lag_commits: answers.lag_commits,
            lag_wall: answers.lag_wall,
            updates_applied: 0,
            shed_updates: shed.into_inner(),
            commits: 0,
            migrations: 0,
            commit_latency: LatencyHistogram::new(),
            shard_commit_latency: (0..store.num_shards())
                .map(|_| LatencyHistogram::new())
                .collect(),
            writer_error: None,
        };
        // Shard writers first (they may still push migrations to the
        // coordinator while draining), coordinator last.
        for q in &shard_queues {
            q.close();
        }
        let mut merge_writer = |wr: WriterReport| {
            report.updates_applied += wr.updates_applied;
            report.commits += wr.commits;
            report.migrations += wr.migrations;
            report.commit_latency.merge(&wr.commit_latency);
            for (dst, src) in report
                .shard_commit_latency
                .iter_mut()
                .zip(&wr.shard_commit_latency)
            {
                dst.merge(src);
            }
            if report.writer_error.is_none() {
                report.writer_error = wr.error;
            }
        };
        for w in writers {
            merge_writer(w.join().expect("writer thread panicked"));
        }
        coordinator.close();
        merge_writer(
            coordinator_thread
                .join()
                .expect("coordinator thread panicked"),
        );
        report
    }
}

/// One shard's writer: group-commits its queue into the shard via
/// [`ShardedStore::commit_shard`], re-dispatching what no longer
/// belongs here (strays to their shard, cross-shard inserts to the
/// coordinator).
fn shard_writer_loop(
    store: &ShardedStore,
    shard: usize,
    updates: &MpmcQueue<EdgeUpdate>,
    coordinator: &MpmcQueue<EdgeUpdate>,
    backlog: &AtomicU64,
    batch_max: usize,
    flush_interval: Duration,
) -> WriterReport {
    let mut wr = WriterReport::new(store.num_shards());
    let mut staged: Vec<EdgeUpdate> = Vec::with_capacity(batch_max);
    let mut deadline: Option<Instant> = None;

    let flush = |staged: &mut Vec<EdgeUpdate>, wr: &mut WriterReport| -> bool {
        if staged.is_empty() {
            return true;
        }
        let t0 = Instant::now();
        let out = match store.commit_shard(shard, staged) {
            Ok(out) => out,
            Err(e) => {
                wr.error = Some(e);
                return false;
            }
        };
        wr.commit_latency.record_duration(t0.elapsed());
        wr.updates_applied += out.applied as u64;
        backlog.fetch_sub(out.applied as u64, Ordering::Relaxed);
        if let Some(st) = out.stats {
            wr.record_stats(&[(shard, st)]);
        }
        staged.clear();
        // Re-dispatch what moved out from under us (see
        // `resolve_stray`).
        out.cross_shard
            .into_iter()
            .chain(out.strays)
            .all(|up| resolve_stray(store, coordinator, up, wr, backlog))
    };

    loop {
        let wait = match deadline {
            Some(d) => d.saturating_duration_since(Instant::now()),
            None => Duration::from_millis(50),
        };
        match updates.pop_timeout(wait) {
            PopResult::Item(u) => {
                if staged.is_empty() {
                    deadline = Some(Instant::now() + flush_interval);
                }
                staged.push(u);
                if staged.len() >= batch_max {
                    if !flush(&mut staged, &mut wr) {
                        updates.close();
                        break;
                    }
                    deadline = None;
                }
            }
            PopResult::TimedOut => {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    if !flush(&mut staged, &mut wr) {
                        updates.close();
                        break;
                    }
                    deadline = None;
                }
            }
            PopResult::Closed => {
                flush(&mut staged, &mut wr);
                break;
            }
        }
    }
    wr
}

/// Re-dispatches an update a shard commit handed back. A cross-shard
/// insert goes to the coordinator (blocking is fine: the coordinator
/// drains independently and the caller holds no locks); anything else
/// — or anything once the coordinator has closed in the shutdown tail
/// — resolves inline, so an admitted update is never lost. Strays are
/// rare (only a racing migration produces them), so the extra small
/// commit beats queue-juggling. Returns `false` on a store error
/// (recorded in `wr`).
fn resolve_stray(
    store: &ShardedStore,
    coordinator: &MpmcQueue<EdgeUpdate>,
    up: EdgeUpdate,
    wr: &mut WriterReport,
    backlog: &AtomicU64,
) -> bool {
    if let EdgeUpdate::Insert(u, v) = up {
        if store.shard_of(u) != store.shard_of(v) && coordinator.push(up).is_ok() {
            return true;
        }
    }
    resolve_inline(store, up, wr, backlog)
}

/// Resolves one update inline against current routing: inserts go
/// through [`ShardedStore::migrate`] (both writer locks in index order
/// when the endpoints span shards, a plain commit when they already
/// share one), removes commit into their shard — or resolve as no-ops
/// when the endpoints really are in different shards, where no edge
/// can exist.
fn resolve_inline(
    store: &ShardedStore,
    up: EdgeUpdate,
    wr: &mut WriterReport,
    backlog: &AtomicU64,
) -> bool {
    match up {
        EdgeUpdate::Insert(u, v) => match store.migrate(u, v) {
            Ok(out) => {
                wr.updates_applied += 1;
                backlog.fetch_sub(1, Ordering::Relaxed);
                wr.migrations += out.migrated as u64;
                wr.record_stats(&out.stats);
                true
            }
            Err(e) => {
                wr.error = Some(e);
                false
            }
        },
        EdgeUpdate::Remove(u, v) => loop {
            let (su, sv) = (store.shard_of(u), store.shard_of(v));
            if su != sv {
                // Different shards ⇒ different components ⇒ the edge
                // does not exist; the remove is a committed no-op.
                wr.updates_applied += 1;
                backlog.fetch_sub(1, Ordering::Relaxed);
                return true;
            }
            match store.commit_shard(su, &[up]) {
                Ok(out) => {
                    wr.updates_applied += out.applied as u64;
                    backlog.fetch_sub(out.applied as u64, Ordering::Relaxed);
                    if let Some(st) = out.stats {
                        wr.record_stats(&[(su, st)]);
                    }
                    if out.strays.is_empty() {
                        return true;
                    }
                    // Routing moved underneath the commit; re-read and
                    // retry (the only possible stray is `up` itself).
                }
                Err(e) => {
                    wr.error = Some(e);
                    return false;
                }
            }
        },
    }
}

/// The migration coordinator: serially resolves updates whose
/// endpoints routed to different shards at submit time — inserts by
/// migrating (both writer locks, index order; see
/// `ShardedStore::migrate`), removes by committing wherever the
/// endpoints now live. Serializing these through one thread is what
/// keeps an insert/remove pair for the same edge FIFO while its
/// routing is in flux.
fn coordinator_loop(
    store: &ShardedStore,
    queue: &MpmcQueue<EdgeUpdate>,
    backlog: &AtomicU64,
) -> WriterReport {
    let mut wr = WriterReport::new(store.num_shards());
    while let Some(up) = queue.pop() {
        if !resolve_inline(store, up, &mut wr, backlog) {
            queue.close();
            break;
        }
    }
    wr
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::GraphBuilder;
    use bcc_query::Query;
    use bcc_smp::Pool;

    #[test]
    fn closed_coordinator_resolves_hand_backs_inline() {
        // Two 5-cycles, one per shard.
        let g = GraphBuilder::new(10)
            .edges((0..10).map(|i| (i, i / 5 * 5 + (i + 1) % 5)))
            .build()
            .unwrap();
        let store = ShardedStore::new(&Pool::new(2), &g, 2).unwrap();
        let home = store.shard_of(0);
        assert_ne!(store.shard_of(5), home);
        let coordinator = MpmcQueue::new(1);
        coordinator.close();
        let backlog = AtomicU64::new(2);
        let mut wr = WriterReport::new(2);

        // A cross-shard insert handed back in the shutdown tail: with
        // the coordinator gone it migrates inline.
        let up = EdgeUpdate::Insert(0, 5);
        assert!(resolve_stray(&store, &coordinator, up, &mut wr, &backlog));
        assert_eq!(wr.migrations, 1);
        assert_eq!(store.shard_of(5), home);

        // An update queued for 5's old shard before that migration
        // commits into the shard its component lives in now.
        let before = wr.shard_commit_latency[home].count();
        let up = EdgeUpdate::Remove(5, 6);
        assert!(resolve_stray(&store, &coordinator, up, &mut wr, &backlog));
        assert_eq!(wr.shard_commit_latency[home].count(), before + 1);
        assert!(store.answer(&Query::IsBridge(6, 7)).unwrap().as_bool());

        assert!(wr.error.is_none());
        assert_eq!(wr.updates_applied, 2);
        assert_eq!(backlog.load(Ordering::Relaxed), 0);
    }
}
