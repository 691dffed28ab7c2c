//! The serving daemon: reader threads over an MPMC query queue,
//! per-shard writer threads (or one group-commit writer) over the
//! update stream, and watermark-based admission control in front of
//! both.
//!
//! ```text
//!                       ┌────────────┐   answer from routed shard's
//!  submit(Query) ───▶   │ query MPMC │ ──▶ reader 0..R ── snapshot
//!  (drivers, TCP)       └────────────┘      │ latency + lag hists
//!                                           ▼ reply sink (TCP path)
//!                 route   ┌─────────────┐
//!  submit(Update) ──┬──▶  │ shard 0 MPMC│ ──▶ writer 0 ─commit─▶ shard 0
//!    │ admission    ├──▶  │ shard 1 MPMC│ ──▶ writer 1 ─commit─▶ shard 1
//!    │ watermarks   ⋮     └─────────────┘         ⋮ (writer lock +
//!    ▼ shed ⇒ Rejected    ┌─────────────┐           routing re-check)
//!  (typed, counted)       │ coordinator │ ──▶ cross-shard migrations
//!                         └─────────────┘     (both locks, in order)
//! ```
//!
//! * **Readers** pull [`QueryJob`]s and answer each against the
//!   current snapshot of the shard the query routes to — never
//!   blocking on commits. Each reader owns its latency/lag histograms;
//!   they merge into one [`ServeReport`] at shutdown.
//! * **Writers** ([`Writers::PerShard`], the default): one thread per
//!   shard drains that shard's queue with group-commit batching
//!   ([`ServeConfig::batch_max`] / [`ServeConfig::flush_interval`])
//!   and commits under the shard's writer lock via
//!   [`ShardedStore::commit_shard`] — shards have dedicated SPMD
//!   pools, so commits on different shards genuinely overlap. Inserts
//!   that span shards go to a **coordinator** thread which runs the
//!   lock-ordered migration path ([`ShardedStore::migrate`]).
//!   [`Writers::Single`] keeps PR 6's one-writer loop for the
//!   `writers=1` ablation.
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
//! * **Shutdown** closes the query queue first (readers drain and
//!   exit), then the shard queues (writers flush their last batches,
//!   re-dispatching strays), then the coordinator queue — so nothing
//!   submitted before [`Daemon::shutdown`] is lost.

use crate::api::{RejectReason, Request, Response, SubmitError};
use crate::hist::LatencyHistogram;
use crate::shard::{ApplySummary, ServeError, ShardedStore};
use bcc_query::{Answer, EdgeUpdate, Query};
use bcc_smp::{MpmcQueue, PopResult, Telemetry, TryPushError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Writer topology: the `writers=1` vs `writers=per-shard` ablation
/// knob.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Writers {
    /// One group-commit writer thread funnels every update through
    /// [`ShardedStore::apply`] (PR 6's topology).
    Single,
    /// One writer thread per shard plus a migration coordinator; the
    /// default. Commits on different shards proceed in parallel.
    PerShard,
}

impl Writers {
    /// Stable name used in benchmark cell keys (`w1` / `wps`).
    pub fn name(self) -> &'static str {
        match self {
            Writers::Single => "w1",
            Writers::PerShard => "wps",
        }
    }
}

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
    /// Reader threads pulling from the query queue.
    pub readers: usize,
    /// Query-queue capacity: the closed-loop outstanding-request bound.
    pub queue_capacity: usize,
    /// Capacity of each update queue (one total for
    /// [`Writers::Single`]; one per shard plus the coordinator's for
    /// [`Writers::PerShard`]).
    pub update_capacity: usize,
    /// A writer commits as soon as this many updates are staged…
    pub batch_max: usize,
    /// …or as soon as the oldest staged update is this old.
    pub flush_interval: Duration,
    /// Writer topology (default [`Writers::PerShard`]).
    pub writers: Writers,
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
            readers: 1,
            queue_capacity: 1024,
            update_capacity: 1024,
            batch_max: 64,
            flush_interval: Duration::from_millis(2),
            writers: Writers::PerShard,
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
    /// Reader threads pulling from the query queue (default 1).
    pub fn readers(mut self, readers: usize) -> Self {
        self.config.readers = readers;
        self
    }

    /// Query-queue capacity (default 1024).
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.config.queue_capacity = cap;
        self
    }

    /// Per-writer update-queue capacity (default 1024).
    pub fn update_capacity(mut self, cap: usize) -> Self {
        self.config.update_capacity = cap;
        self
    }

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

    /// Writer topology (default [`Writers::PerShard`]).
    pub fn writers(mut self, writers: Writers) -> Self {
        self.config.writers = writers;
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

/// A query's answer (or rejection) delivered asynchronously — the TCP
/// front-end hands one per connection-submitted query so the reader
/// thread can write the response frame.
pub type ReplySink = Box<dyn FnOnce(Response) + Send>;

/// One queued query: what to ask and when it (nominally) arrived.
/// Open-loop drivers stamp the *scheduled* arrival time, so queueing
/// delay counts against latency (no coordinated omission).
pub struct QueryJob {
    /// The query to answer.
    pub query: Query,
    /// Arrival instant that latency is measured from.
    pub issued: Instant,
    /// Correlation id echoed into the reply (0 when uncorrelated).
    id: u64,
    /// Where to deliver the [`Response`], if anywhere.
    reply: Option<ReplySink>,
}

impl std::fmt::Debug for QueryJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryJob")
            .field("query", &self.query)
            .field("issued", &self.issued)
            .field("id", &self.id)
            .field("reply", &self.reply.is_some())
            .finish()
    }
}

/// What one reader accumulated.
struct ReaderReport {
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
    /// Queries answered across all readers.
    pub answered: u64,
    /// Queries rejected (out-of-range vertices).
    pub query_errors: u64,
    /// Answers that were `true` / non-empty (see `ReaderReport`).
    pub positive: u64,
    /// Per-answer latency (ns), from `QueryJob::issued` to answered.
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
    /// Writer threads that served the update stream (1 for
    /// [`Writers::Single`], shard count for [`Writers::PerShard`];
    /// excludes the migration coordinator).
    pub writer_threads: usize,
    /// Per-commit-batch apply latency (ns), queue-side: what one
    /// writer's flush cost end to end.
    pub commit_latency: LatencyHistogram,
    /// Per-shard commit wall time (ns, from `CommitStats::seconds`) —
    /// index `s` is shard `s`. The `writers=1` vs `writers=per-shard`
    /// ablation reads these to show where commit time concentrated.
    pub shard_commit_latency: Vec<LatencyHistogram>,
    /// First writer error, if any (that writer stops on one).
    pub writer_error: Option<ServeError>,
}

/// A running serving instance (see the [module docs](self)).
pub struct Daemon {
    store: Arc<ShardedStore>,
    queries: Arc<MpmcQueue<QueryJob>>,
    /// One queue for [`Writers::Single`], one per shard otherwise.
    update_queues: Vec<Arc<MpmcQueue<EdgeUpdate>>>,
    /// Cross-shard inserts ([`Writers::PerShard`] only).
    coordinator: Option<Arc<MpmcQueue<EdgeUpdate>>>,
    admission: Admission,
    /// Updates admitted but not yet committed (the staleness backlog).
    backlog: Arc<AtomicU64>,
    shed: AtomicU64,
    telemetry: Option<Arc<Telemetry>>,
    readers: Vec<JoinHandle<ReaderReport>>,
    writers: Vec<JoinHandle<WriterReport>>,
    coordinator_thread: Option<JoinHandle<WriterReport>>,
    writer_threads: usize,
}

impl Daemon {
    /// Spawns the reader pool and the writer topology over `store`.
    pub fn spawn(store: Arc<ShardedStore>, config: ServeConfig) -> Daemon {
        assert!(config.readers >= 1, "need at least one reader");
        assert!(config.batch_max >= 1, "writer batches need at least 1");
        let queries = Arc::new(MpmcQueue::new(config.queue_capacity));
        let backlog = Arc::new(AtomicU64::new(0));

        let readers = (0..config.readers)
            .map(|_| {
                let store = Arc::clone(&store);
                let queries = Arc::clone(&queries);
                let telemetry = config.telemetry.clone();
                std::thread::spawn(move || reader_loop(&store, &queries, telemetry.as_deref()))
            })
            .collect();

        let num_shards = store.num_shards();
        let (update_queues, coordinator, writers, coordinator_thread, writer_threads) =
            match config.writers {
                Writers::Single => {
                    let q = Arc::new(MpmcQueue::new(config.update_capacity));
                    let writer = {
                        let store = Arc::clone(&store);
                        let q = Arc::clone(&q);
                        let backlog = Arc::clone(&backlog);
                        let (batch_max, flush) = (config.batch_max, config.flush_interval);
                        std::thread::spawn(move || {
                            single_writer_loop(&store, &q, &backlog, batch_max, flush)
                        })
                    };
                    (vec![q], None, vec![writer], None, 1)
                }
                Writers::PerShard => {
                    let shard_queues: Vec<_> = (0..num_shards)
                        .map(|_| Arc::new(MpmcQueue::new(config.update_capacity)))
                        .collect();
                    let coord = Arc::new(MpmcQueue::new(config.update_capacity));
                    let writers = (0..num_shards)
                        .map(|s| {
                            let store = Arc::clone(&store);
                            let q = Arc::clone(&shard_queues[s]);
                            let coord = Arc::clone(&coord);
                            let backlog = Arc::clone(&backlog);
                            let (batch_max, flush) = (config.batch_max, config.flush_interval);
                            std::thread::spawn(move || {
                                shard_writer_loop(&store, s, &q, &coord, &backlog, batch_max, flush)
                            })
                        })
                        .collect();
                    let coordinator_thread = {
                        let store = Arc::clone(&store);
                        let coord = Arc::clone(&coord);
                        let backlog = Arc::clone(&backlog);
                        std::thread::spawn(move || coordinator_loop(&store, &coord, &backlog))
                    };
                    (
                        shard_queues,
                        Some(coord),
                        writers,
                        Some(coordinator_thread),
                        num_shards,
                    )
                }
            };

        Daemon {
            store,
            queries,
            update_queues,
            coordinator,
            admission: config.admission,
            backlog,
            shed: AtomicU64::new(0),
            telemetry: config.telemetry,
            readers,
            writers,
            coordinator_thread,
            writer_threads,
        }
    }

    /// The store this daemon serves.
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    /// Submits one [`Request`] arriving *now*, blocking while the
    /// target queue is full (closed-loop backpressure). Admission
    /// control may still shed an update *before* blocking — see
    /// [`SubmitError`] for the full refusal contract.
    pub fn submit(&self, request: Request) -> Result<(), SubmitError> {
        self.submit_at(request, Instant::now())
    }

    /// [`submit`](Self::submit) with an explicit arrival stamp
    /// (open-loop drivers pass the *scheduled* arrival, so time spent
    /// waiting for queue room is charged to latency).
    pub fn submit_at(&self, request: Request, issued: Instant) -> Result<(), SubmitError> {
        self.submit_inner(request, issued, None, true)
    }

    /// Non-blocking [`submit`](Self::submit): a full queue returns
    /// [`SubmitError::QueueFull`] immediately instead of waiting. The
    /// TCP front-end uses this so a socket thread never stalls on a
    /// saturated daemon.
    pub fn try_submit(&self, request: Request) -> Result<(), SubmitError> {
        self.submit_inner(request, Instant::now(), None, false)
    }

    /// Non-blocking submit attaching a reply sink to a query (the
    /// answer or rejection is delivered on the reader thread). For an
    /// update request the sink is invoked synchronously with the
    /// acceptance/rejection before this returns.
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
        match request {
            Request::Query { id, query } => {
                let job = QueryJob {
                    query,
                    issued,
                    id,
                    reply,
                };
                if blocking {
                    self.queries
                        .push(job)
                        .map_err(|_| SubmitError::ShuttingDown(request))
                } else {
                    self.queries.try_push(job).map_err(|e| match e {
                        TryPushError::Full(_) => SubmitError::QueueFull(request),
                        TryPushError::Closed(_) => SubmitError::ShuttingDown(request),
                    })
                }
            }
            Request::Update { id, update } => {
                let result = self.submit_update_inner(request, update, blocking);
                if let Some(reply) = reply {
                    reply(match &result {
                        Ok(()) => Response::Accepted { id },
                        Err(e) => Response::Rejected {
                            id,
                            reason: e.reason(),
                        },
                    });
                }
                result
            }
        }
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
        // shards goes to the coordinator (when it exists), everything
        // else to the owning shard's writer. Removes ride the
        // coordinator too — not because a cross-shard remove does
        // anything (it is a no-op by definition), but because an
        // insert/remove pair for the same edge must stay FIFO, and
        // while the insert is still pending the remove reads the same
        // cross-shard routing and must land in the same queue behind
        // it. The routing read here is advisory — writers re-check
        // under their locks — so a stale read only costs a
        // re-dispatch.
        let queue = match &self.coordinator {
            Some(coord) if self.store.shard_of(u) != self.store.shard_of(v) => coord,
            _ => {
                let s = self.store.shard_of(u);
                &self.update_queues[s.min(self.update_queues.len() - 1)]
            }
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

    /// Queries waiting in the queue right now.
    pub fn queued_queries(&self) -> usize {
        self.queries.len()
    }

    /// Updates admitted but not yet committed (queued plus staged).
    pub fn update_backlog(&self) -> u64 {
        self.backlog.load(Ordering::Relaxed)
    }

    /// Updates shed by admission control so far.
    pub fn shed_updates(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Drains the queues, stops every thread, and merges their
    /// statistics. Everything *admitted* before this call is answered
    /// or applied (shed updates were refused at the door, visibly).
    pub fn shutdown(mut self) -> ServeReport {
        self.queries.close();
        let num_shards = self.store.num_shards();
        let mut report = ServeReport {
            answered: 0,
            query_errors: 0,
            positive: 0,
            latency: LatencyHistogram::new(),
            lag_commits: LatencyHistogram::new(),
            lag_wall: LatencyHistogram::new(),
            updates_applied: 0,
            shed_updates: 0,
            commits: 0,
            migrations: 0,
            writer_threads: self.writer_threads,
            commit_latency: LatencyHistogram::new(),
            shard_commit_latency: (0..num_shards).map(|_| LatencyHistogram::new()).collect(),
            writer_error: None,
        };
        for r in self.readers.drain(..) {
            let rr = r.join().expect("reader thread panicked");
            report.answered += rr.answered;
            report.query_errors += rr.errors;
            report.positive += rr.positive;
            report.latency.merge(&rr.latency);
            report.lag_commits.merge(&rr.lag_commits);
            report.lag_wall.merge(&rr.lag_wall);
        }
        // Shard writers first (they may still push migrations to the
        // coordinator while draining), coordinator last.
        for q in &self.update_queues {
            q.close();
        }
        let merge_writer = |report: &mut ServeReport, wr: WriterReport| {
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
        for w in self.writers.drain(..) {
            let wr = w.join().expect("writer thread panicked");
            merge_writer(&mut report, wr);
        }
        if let Some(c) = &self.coordinator {
            c.close();
        }
        if let Some(t) = self.coordinator_thread.take() {
            let wr = t.join().expect("coordinator thread panicked");
            merge_writer(&mut report, wr);
        }
        report.shed_updates = self.shed.load(Ordering::Relaxed);
        report
    }
}

fn reader_loop(
    store: &ShardedStore,
    queries: &MpmcQueue<QueryJob>,
    telemetry: Option<&Telemetry>,
) -> ReaderReport {
    let mut rr = ReaderReport {
        answered: 0,
        errors: 0,
        positive: 0,
        latency: LatencyHistogram::new(),
        lag_commits: LatencyHistogram::new(),
        lag_wall: LatencyHistogram::new(),
    };
    while let Some(job) = queries.pop() {
        match store.answer_with_lag(&job.query) {
            Err(_) => {
                rr.errors += 1;
                if let Some(reply) = job.reply {
                    reply(Response::Rejected {
                        id: job.id,
                        reason: RejectReason::Invalid,
                    });
                }
            }
            Ok(lagged) => {
                rr.latency.record_duration(job.issued.elapsed());
                rr.lag_commits.record(lagged.lag_commits);
                rr.lag_wall.record_duration(lagged.lag_wall);
                if let Some(t) = telemetry {
                    t.record_snapshot_lag(lagged.lag_commits, lagged.lag_wall);
                }
                rr.answered += 1;
                rr.positive += match &lagged.answer {
                    Answer::Bool(b) => *b as u64,
                    Answer::Vertices(v) => (!v.is_empty()) as u64,
                };
                if let Some(reply) = job.reply {
                    reply(Response::Answer {
                        id: job.id,
                        answer: lagged.answer,
                    });
                }
            }
        }
    }
    rr
}

fn single_writer_loop(
    store: &ShardedStore,
    updates: &MpmcQueue<EdgeUpdate>,
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
        match store.apply(staged) {
            Ok(ApplySummary {
                migrations, stats, ..
            }) => {
                wr.commit_latency.record_duration(t0.elapsed());
                wr.updates_applied += staged.len() as u64;
                backlog.fetch_sub(staged.len() as u64, Ordering::Relaxed);
                wr.migrations += migrations as u64;
                wr.record_stats(&stats);
                staged.clear();
                true
            }
            Err(e) => {
                wr.error = Some(e);
                false
            }
        }
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
                        // Fail fast: close the intake so producers
                        // get an error instead of a full-queue stall.
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
        // Re-dispatch what moved out from under us. Cross-shard
        // inserts go to the coordinator (blocking is fine: the
        // coordinator drains independently and we hold no locks);
        // strays commit directly into their new shard — they are rare
        // (only produced by a racing migration), so the extra small
        // commit beats queue-juggling.
        for up in out.cross_shard {
            if coordinator.push(up).is_err() {
                // Coordinator already closed (shutdown tail): migrate
                // inline so the admitted update is not lost.
                if !resolve_inline(store, up, wr, backlog) {
                    return false;
                }
            }
        }
        for up in out.strays {
            if !resolve_stray(store, coordinator, up, wr, backlog) {
                return false;
            }
        }
        true
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

/// Re-resolves a stray update against current routing: same-shard ones
/// commit into their new shard, cross-shard inserts go to the
/// coordinator (or migrate inline if it already closed). Returns
/// `false` on a store error (recorded in `wr`).
fn resolve_stray(
    store: &ShardedStore,
    coordinator: &MpmcQueue<EdgeUpdate>,
    up: EdgeUpdate,
    wr: &mut WriterReport,
    backlog: &AtomicU64,
) -> bool {
    let mut pending = vec![up];
    while let Some(up) = pending.pop() {
        let (u, v) = match up {
            EdgeUpdate::Insert(u, v) | EdgeUpdate::Remove(u, v) => (u, v),
        };
        let (su, sv) = (store.shard_of(u), store.shard_of(v));
        if su != sv {
            match up {
                EdgeUpdate::Remove(..) => {
                    wr.updates_applied += 1;
                    backlog.fetch_sub(1, Ordering::Relaxed);
                }
                EdgeUpdate::Insert(..) => {
                    if coordinator.push(up).is_err() && !resolve_inline(store, up, wr, backlog) {
                        return false;
                    }
                }
            }
            continue;
        }
        match store.commit_shard(su, &[up]) {
            Ok(out) => {
                wr.updates_applied += out.applied as u64;
                backlog.fetch_sub(out.applied as u64, Ordering::Relaxed);
                if let Some(st) = out.stats {
                    wr.record_stats(&[(su, st)]);
                }
                pending.extend(out.strays);
                pending.extend(out.cross_shard);
            }
            Err(e) => {
                wr.error = Some(e);
                return false;
            }
        }
    }
    true
}

/// Resolves one coordinator-routed update inline: inserts migrate
/// (locking both shards in index order), removes commit into their
/// shard — or resolve as no-ops when the endpoints really are in
/// different shards, where no edge can exist.
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
