//! The serve phase: `bcc-serve` behind `NetFrontend` on loopback TCP,
//! driven open loop by one client connection (a sender and a receiver
//! thread). Windows at the nominal rate give the query latencies and
//! the freshness of updates; in the traced run, rate ramps on the same
//! connection give the highest rate that keeps the query p99 under its
//! limit with nothing failed and no backlog left behind.

use crate::instance::{Instance, Op, OpStream, PROBE_PATHS};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Outcome;
use bcc_query::{Answer, BiconnectivityIndex, EdgeUpdate, Query};
use bcc_serve::{
    wire, Daemon, NetClient, NetFrontend, RejectReason, Request, Response, ServeConfig,
    ShardedStore,
};
use bcc_smp::Pool;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Shards of the served store.
const SHARDS: usize = 2;
/// The open-loop rate the latency metrics are measured at (ops/s).
const NOMINAL_RATE: f64 = 10_000.0;
/// Query p99 a ramp step must stay under.
const P99_LIMIT: Duration = Duration::from_millis(10);
/// Windows at the nominal rate.
pub const NOMINAL_WINDOWS: usize = 5;
/// Rate ramps per run; one stall on a shared host can end one ramp
/// early, so the run reports their median.
const RAMPS: usize = 3;
/// Coarse ramp steps (10k ops/s and up, 1.25× apart).
const COARSE_STEPS: i32 = 8;
/// Windows budgeted per run for all ramps: the coarse steps plus the
/// fine ones between the last pass and the first failure.
pub const RAMP_WINDOWS: usize = RAMPS * 10;
/// Growth of the update backlog (admitted, not yet committed) across a
/// ramp step beyond which the writers are falling behind: two full
/// group-commit batches per shard.
const BACKLOG_GROWTH_LIMIT: f64 = 256.0;
/// Share of query slots given to freshness probes.
const PROBE_SHARE: u64 = 3; // one in three
/// Freshness samples the nominal windows must collect (p99 needs 1,000).
const MIN_VISIBLE: usize = 1_000;
/// Operations a ramp step sends at least.
const MIN_STEP_OPS: f64 = 1_500.0;
/// Set-ups per run; `setup_s` takes their median.
const SETUP_REPS: usize = 7;
/// How long the client waits for stragglers after a window.
const DRAIN_WAIT: Duration = Duration::from_secs(2);

/// What a request was, so its response can be checked.
#[derive(Clone, Debug)]
enum Kind {
    Query(Query),
    /// `SameBlock` on probe path `path`, sent when `toggles` toggles had
    /// been sent and `seen` of them observed.
    Probe {
        path: usize,
        toggles: u64,
        seen: u64,
    },
    Update,
    /// The chord toggle of probe path `path`.
    Toggle {
        path: usize,
    },
}

struct OpRec {
    sched: Instant,
    window: usize,
    kind: Kind,
}

/// Per probe path: toggles sent, toggles observed, and when the latest
/// toggle was scheduled. After `t` toggles the chord is present iff `t`
/// is odd.
#[derive(Clone)]
struct PathState {
    sent: u64,
    seen: u64,
    sched: Instant,
    dead: bool,
}

#[derive(Default)]
struct WindowAcc {
    sent: u64,
    received: u64,
    query_lat: Vec<f64>,
    visible: Vec<f64>,
    queue_full: u64,
    overloaded: u64,
    rejected_other: u64,
    wrong: u64,
    resp_bytes: u64,
    last_recv: Option<Instant>,
}

struct Shared {
    ops: Vec<OpRec>,
    windows: Vec<WindowAcc>,
    paths: Vec<PathState>,
    messages: Vec<String>,
    closed: bool,
}

struct Client {
    shared: Arc<(Mutex<Shared>, Condvar)>,
    sender: NetClient,
    receiver: Option<std::thread::JoinHandle<()>>,
}

/// One open-loop window's results.
struct Window {
    sent: u64,
    failed: u64,
    wrong: u64,
    query_lat: Vec<f64>,
    visible: Vec<f64>,
    queue_full: u64,
    overloaded: u64,
    /// Time from the end of the send schedule to the last response.
    drain: Duration,
    wall: Duration,
    bytes: u64,
    send_s: Vec<f64>,
    late: Vec<f64>,
    queue_depth_max: usize,
    backlog_max: u64,
    /// Mean update backlog over the window's last third minus its first.
    backlog_growth: f64,
}

pub struct ServeParams {
    pub nominal: Duration,
    pub ramp_step: Duration,
}

fn lock(s: &Mutex<Shared>) -> std::sync::MutexGuard<'_, Shared> {
    s.lock().expect("client state poisoned")
}

/// Builds the store, daemon and front-end (the timed set-up).
fn spawn(pool: &Pool, inst: &Instance) -> NetFrontend {
    let store = Arc::new(ShardedStore::new(pool, &inst.graph, SHARDS).expect("store builds"));
    let daemon = Daemon::spawn(store, ServeConfig::default());
    NetFrontend::spawn(daemon, "127.0.0.1:0").expect("loopback listener")
}

pub fn run(
    inst: &Instance,
    params: &ServeParams,
    threads: usize,
    seed: u64,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let pool = Pool::new(threads);
    // Reference answers: nothing the stream does changes them.
    let index = Arc::new(BiconnectivityIndex::from_graph(&pool, &inst.graph).expect("index"));

    let mut setups = Vec::new();
    let mut frontend = None;
    for _ in 0..SETUP_REPS {
        if let Some(f) = frontend.take() {
            drop(NetFrontend::shutdown(f));
        }
        let t0 = Instant::now();
        let f = tracer.span("serve.setup", None, |_| spawn(&pool, inst));
        setups.push(t0.elapsed().as_secs_f64());
        frontend = Some(f);
    }
    let frontend = frontend.expect("at least one set-up");
    let setup = median(&setups).expect("set-up samples");
    out.add_setup(setup);
    out.metric("serve.setup_s", setup, "s");

    let mut stream = OpStream::new(inst, seed);
    let mut client = NetClient::connect(frontend.local_addr()).expect("connect");

    if tracer.enabled() {
        idle_rtt(&mut client, &mut stream, tracer, out);
    }
    let mut client = Client::start(client, inst, Arc::clone(&index));

    // Nominal rate: a few windows, each extended until it holds its share
    // of the freshness samples. Query latencies are medians over the
    // windows; freshness percentiles pool them (a p99 needs 1,000).
    let names = ["query_p50_s", "serve.query_p99_s"];
    let mut per_window: [Vec<f64>; 2] = Default::default();
    let mut nominal = Vec::new();
    for _ in 0..NOMINAL_WINDOWS {
        let w = client.window(
            NOMINAL_RATE,
            params.nominal,
            params.nominal * 4,
            &mut stream,
            &frontend,
            tracer,
        );
        out.attempt(w.sent);
        out.fail_count(w.failed - w.wrong);
        if w.wrong > 0 {
            out.wrong(format!("{} wrong answers at the nominal rate", w.wrong));
        }
        for (i, q) in [0.5, 0.99].into_iter().enumerate() {
            match percentile(&w.query_lat, q) {
                Ok(v) => per_window[i].push(v),
                Err(e) => eprintln!("serve: no {}: {e:?}", names[i]),
            }
        }
        nominal.push(w);
    }
    for (name, xs) in names.iter().zip(&per_window) {
        if let Some(m) = median(xs) {
            out.metric(name, m, "s");
        }
    }
    let visible: Vec<f64> = nominal
        .iter()
        .flat_map(|w| w.visible.iter().copied())
        .collect();
    for (name, q) in [
        ("serve.update_visible_p50_s", 0.5),
        ("serve.update_visible_p99_s", 0.99),
    ] {
        match percentile(&visible, q) {
            Ok(v) => out.metric(name, v, "s"),
            Err(e) => eprintln!("serve: no {name}: {e:?}"),
        }
    }
    // Probe cadence while a toggle is pending: the freshness resolution.
    let probe_rate = NOMINAL_RATE * 0.9 / PROBE_SHARE as f64;
    out.metric(
        "serve.visible_resolution_s",
        PROBE_PATHS as f64 / probe_rate,
        "s",
    );

    if tracer.enabled() {
        // Rate ramps on the same connection; `serve.max_rate_ops` is
        // the median of their results. A ramp whose first step fails
        // found no rate that passes and counts as 0.
        let maxima: Vec<f64> = (0..RAMPS)
            .map(|_| {
                client
                    .ramp(params.ramp_step, &mut stream, &frontend, tracer, out)
                    .unwrap_or(0.0)
            })
            .collect();
        if let Some(m) = median(&maxima) {
            out.metric("serve.max_rate_ops", m, "ops/s");
        }
        layer_metrics(&nominal, inst, seed, &frontend, tracer, out);
    }
    // Shutting the front-end down closes the connection, which ends the
    // client's receiver thread.
    let report = frontend.shutdown();
    for m in client.stop() {
        eprintln!("serve: {m}");
    }
    if let Some(e) = &report.writer_error {
        out.fail(format!("writer error: {e}"));
    }
    if tracer.enabled() {
        out.metric(
            "query.lag_commits_p99",
            report.lag_commits.quantile(0.99) as f64,
            "count",
        );
        out.metric(
            "serve.commit_p99_s",
            report.commit_latency.quantile_duration(0.99).as_secs_f64(),
            "s",
        );
        out.metric(
            "serve.updates_per_commit",
            report.updates_applied as f64 / report.commits.max(1) as f64,
            "count",
        );
    }
}

/// Closed-loop round trips against the idle server.
fn idle_rtt(client: &mut NetClient, stream: &mut OpStream, tracer: &Tracer, out: &mut Outcome) {
    let mut rtts = Vec::new();
    let mut id = u64::MAX / 2;
    while rtts.len() < 2_000 {
        if let Op::Query(query) = stream.next_op() {
            let t0 = Instant::now();
            let resp = client
                .call(&Request::Query { id, query })
                .expect("idle round trip");
            let t1 = Instant::now();
            tracer.record("serve.net.rtt_idle", None, Some(id), t0, t1);
            if !matches!(resp, Response::Answer { .. }) {
                out.wrong(format!("idle query answered {resp:?}"));
            }
            rtts.push((t1 - t0).as_secs_f64());
            id += 1;
        }
    }
    out.metric("serve.net.rtt_idle_s", median(&rtts).unwrap_or(0.0), "s");
}

/// A ramp step passes when nothing failed, the query p99 stayed under
/// its limit, the responses drained within it, and the update backlog
/// did not grow.
fn ramp_step_passes(rate: f64, w: &Window) -> bool {
    let p99 = percentile(&w.query_lat, 0.99).unwrap_or(f64::INFINITY);
    let passed = w.failed == 0
        && p99 <= P99_LIMIT.as_secs_f64()
        && w.drain <= P99_LIMIT
        && w.backlog_growth <= BACKLOG_GROWTH_LIMIT;
    eprintln!(
        "ramp {rate:>7.0}/s: sent {} failed {} p99 {:.2} ms drain {:.2} ms backlog {:+.0} -> {}",
        w.sent,
        w.failed,
        p99 * 1e3,
        w.drain.as_secs_f64() * 1e3,
        w.backlog_growth,
        if passed { "pass" } else { "fail" }
    );
    passed
}

impl Client {
    fn start(client: NetClient, inst: &Instance, index: Arc<BiconnectivityIndex>) -> Client {
        let now = Instant::now();
        let shared = Arc::new((
            Mutex::new(Shared {
                ops: Vec::new(),
                windows: Vec::new(),
                paths: vec![
                    PathState {
                        sent: 0,
                        seen: 0,
                        sched: now,
                        dead: false,
                    };
                    inst.probes.len()
                ],
                messages: Vec::new(),
                closed: false,
            }),
            Condvar::new(),
        ));
        let mut rx = client.try_clone().expect("clone connection");
        let receiver = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || loop {
                let resp = match rx.recv() {
                    Ok(Some(r)) => r,
                    Ok(None) | Err(_) => {
                        let (m, cv) = &*shared;
                        lock(m).closed = true;
                        cv.notify_all();
                        return;
                    }
                };
                let now = Instant::now();
                let (m, cv) = &*shared;
                let mut s = lock(m);
                on_response(&mut s, &index, resp, now);
                cv.notify_all();
            })
        };
        Client {
            shared,
            sender: client,
            receiver: Some(receiver),
        }
    }

    /// One rate ramp: 1.25× steps from the nominal rate up to the first
    /// that fails, then 1.05× steps up from the last that passed.
    /// Returns the throughput achieved at the highest passing step.
    fn ramp(
        &mut self,
        step: Duration,
        stream: &mut OpStream,
        frontend: &NetFrontend,
        tracer: &Tracer,
        out: &mut Outcome,
    ) -> Option<f64> {
        let mut try_rate = |rate: f64| -> Option<f64> {
            let w = self.window(rate, step, step, stream, frontend, tracer);
            if w.wrong > 0 {
                out.wrong(format!("{} wrong answers at {rate:.0} ops/s", w.wrong));
            }
            ramp_step_passes(rate, &w).then(|| w.sent as f64 / w.wall.as_secs_f64())
        };
        let mut best = None;
        let (mut pass_rate, mut fail_rate) = (0.0, f64::INFINITY);
        for k in 0..COARSE_STEPS {
            let rate = NOMINAL_RATE * 1.25f64.powi(k);
            match try_rate(rate) {
                Some(achieved) => (best, pass_rate) = (Some(achieved), rate),
                None => {
                    fail_rate = rate;
                    break;
                }
            }
        }
        let mut rate = pass_rate * 1.05;
        while best.is_some() && rate < fail_rate / 1.02 {
            match try_rate(rate) {
                Some(achieved) => best = Some(achieved),
                None => break,
            }
            rate *= 1.05;
        }
        best
    }

    /// Runs one open-loop window at `rate` for `dur`, going on up to
    /// `max_dur` until it has enough freshness samples, then waits for
    /// its responses.
    #[allow(clippy::too_many_arguments)]
    fn window(
        &mut self,
        rate: f64,
        dur: Duration,
        max_dur: Duration,
        stream: &mut OpStream,
        frontend: &NetFrontend,
        tracer: &Tracer,
    ) -> Window {
        let (m, cv) = &*self.shared;
        let window = {
            let mut s = lock(m);
            s.windows.push(WindowAcc::default());
            s.windows.len() - 1
        };
        let tick = Duration::from_secs_f64(1.0 / rate);
        // Long enough for a p99 with ten samples beyond it.
        let dur = dur.max(Duration::from_secs_f64(MIN_STEP_OPS / rate));
        let start = Instant::now();
        let mut send_s = Vec::new();
        let mut late = Vec::new();
        let (mut bytes, mut depth_max) = (0u64, 0usize);
        let mut backlog: Vec<u64> = Vec::new();
        let mut toggle_turn = false;
        let mut probe_rr = 0usize;
        let mut k = 0u64;
        let mut end = start + dur;
        loop {
            let at = start + tick.mul_f64(k as f64);
            if at >= end {
                let enough = lock(m).windows[window].visible.len() >= MIN_VISIBLE / NOMINAL_WINDOWS;
                if enough || at >= start + max_dur {
                    break;
                }
                end = at + dur / 4;
            }
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let op = stream.next_op();
            let probe_slot = stream.rng().below(PROBE_SHARE) == 0;
            let req = {
                let mut s = lock(m);
                let id = s.ops.len() as u64;
                let (req, kind) = match op {
                    Op::Query(_) if probe_slot => {
                        let n = s.paths.len();
                        // Probe a path with a toggle in flight, else any.
                        let j = (0..n)
                            .map(|i| (probe_rr + i) % n)
                            .find(|&j| !s.paths[j].dead && s.paths[j].seen < s.paths[j].sent)
                            .unwrap_or(probe_rr % n);
                        probe_rr = j + 1;
                        let p = &s.paths[j];
                        let (a, b) = stream.probe(j);
                        let kind = Kind::Probe {
                            path: j,
                            toggles: p.sent,
                            seen: p.seen,
                        };
                        (
                            Request::Query {
                                id,
                                query: Query::SameBlock(a, b),
                            },
                            kind,
                        )
                    }
                    Op::Query(query) => (Request::Query { id, query }, Kind::Query(query)),
                    Op::Update(update) => {
                        toggle_turn = !toggle_turn;
                        let ready = (0..s.paths.len())
                            .find(|&j| !s.paths[j].dead && s.paths[j].seen == s.paths[j].sent);
                        match ready {
                            Some(j) if toggle_turn => {
                                let p = &mut s.paths[j];
                                p.sent += 1;
                                p.sched = at;
                                let (a, b) = stream.probe(j);
                                let update = if p.sent % 2 == 1 {
                                    EdgeUpdate::Insert(a, b)
                                } else {
                                    EdgeUpdate::Remove(a, b)
                                };
                                (Request::Update { id, update }, Kind::Toggle { path: j })
                            }
                            _ => (Request::Update { id, update }, Kind::Update),
                        }
                    }
                };
                s.ops.push(OpRec {
                    sched: at,
                    window,
                    kind,
                });
                s.windows[window].sent += 1;
                req
            };
            let t0 = Instant::now();
            if self.sender.send(&req).is_err() {
                lock(m)
                    .messages
                    .push("connection closed while sending".to_string());
                break;
            }
            let t1 = Instant::now();
            if tracer.enabled() {
                tracer.record("serve.net.send", None, Some(req.id()), t0, t1);
                send_s.push((t1 - t0).as_secs_f64());
                late.push(t0.saturating_duration_since(at).as_secs_f64());
                let mut buf = Vec::new();
                wire::encode_request(&req, &mut buf);
                bytes += buf.len() as u64 + 4;
                if k.is_multiple_of(16) {
                    depth_max = depth_max.max(frontend.daemon().queued_queries());
                }
            }
            if k.is_multiple_of(16) {
                backlog.push(frontend.daemon().update_backlog());
            }
            k += 1;
        }
        let send_end = Instant::now();
        let deadline = send_end + DRAIN_WAIT;
        let mut s = lock(m);
        while s.windows[window].received < s.windows[window].sent && !s.closed {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            s = cv
                .wait_timeout(s, deadline - now)
                .expect("client state poisoned")
                .0;
        }
        let acc = std::mem::take(&mut s.windows[window]);
        let missing = acc.sent - acc.received;
        if missing > 0 {
            s.messages
                .push(format!("{missing} responses missing in window {window}"));
        }
        let last = acc.last_recv.unwrap_or(send_end);
        let third = backlog.len() / 3;
        let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64;
        Window {
            sent: acc.sent,
            failed: acc.wrong + acc.queue_full + acc.overloaded + acc.rejected_other + missing,
            wrong: acc.wrong,
            query_lat: acc.query_lat,
            visible: acc.visible,
            queue_full: acc.queue_full,
            overloaded: acc.overloaded,
            drain: last.saturating_duration_since(send_end),
            wall: last.saturating_duration_since(start),
            bytes: bytes + acc.resp_bytes,
            send_s,
            late,
            queue_depth_max: depth_max,
            backlog_max: backlog.iter().copied().max().unwrap_or(0),
            backlog_growth: mean(&backlog[backlog.len() - third..]) - mean(&backlog[..third]),
        }
    }

    /// Joins the receiver once the server has closed the connection;
    /// returns the failure messages collected.
    fn stop(mut self) -> Vec<String> {
        if let Some(h) = self.receiver.take() {
            h.join().expect("receiver thread panicked");
        }
        let (m, _) = &*self.shared;
        std::mem::take(&mut lock(m).messages)
    }
}

/// Checks one response against what its request was.
fn on_response(s: &mut Shared, index: &BiconnectivityIndex, resp: Response, now: Instant) {
    let id = resp.id() as usize;
    let Some(rec) = s.ops.get(id) else {
        s.messages.push(format!("response for unknown id {id}"));
        return;
    };
    let (sched, w, kind) = (rec.sched, rec.window, rec.kind.clone());
    let mut buf = Vec::new();
    wire::encode_response(&resp, &mut buf);
    let mut wrong = None;
    let acc = &mut s.windows[w];
    acc.received += 1;
    acc.resp_bytes += buf.len() as u64 + 4;
    acc.last_recv = Some(now);
    let lat = now.saturating_duration_since(sched).as_secs_f64();
    match (&resp, &kind) {
        (Response::Rejected { reason, .. }, _) => {
            match reason {
                RejectReason::QueueFull => acc.queue_full += 1,
                RejectReason::Overloaded => acc.overloaded += 1,
                _ => acc.rejected_other += 1,
            }
            // A refused toggle never applies: retire its path.
            if let Kind::Toggle { path } = kind {
                s.paths[path].dead = true;
            }
        }
        (Response::Answer { answer, .. }, Kind::Query(q)) => {
            acc.query_lat.push(lat);
            let want = index.answer(q);
            if *answer != want {
                acc.wrong += 1;
                wrong = Some(format!("{q:?} answered {answer:?}, expected {want:?}"));
            }
        }
        (
            Response::Answer { answer, .. },
            Kind::Probe {
                path,
                toggles,
                seen,
            },
        ) => {
            acc.query_lat.push(lat);
            let p = &mut s.paths[*path];
            let now_state = *answer == Answer::Bool(toggles % 2 == 1);
            if now_state {
                if p.seen < *toggles {
                    p.seen = *toggles;
                    acc.visible
                        .push(now.saturating_duration_since(p.sched).as_secs_f64());
                }
            } else if *seen >= *toggles || p.seen >= *toggles {
                // The toggle was already observed: a stale answer now
                // means a snapshot went backwards.
                acc.wrong += 1;
                wrong = Some(format!(
                    "probe path {path} answered {answer:?} after toggle {toggles} was visible"
                ));
            }
        }
        (Response::Accepted { .. }, Kind::Update | Kind::Toggle { .. }) => {}
        (other, kind) => {
            acc.wrong += 1;
            wrong = Some(format!("{kind:?} got {other:?}"));
        }
    }
    if let Some(msg) = wrong {
        if s.messages.len() < 8 {
            s.messages.push(msg);
        }
    }
}

/// Per-layer numbers of the serve path (traced run).
fn layer_metrics(
    nominal: &[Window],
    inst: &Instance,
    seed: u64,
    frontend: &NetFrontend,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let all = |f: fn(&Window) -> &Vec<f64>| -> Vec<f64> {
        nominal.iter().flat_map(|w| f(w).iter().copied()).collect()
    };
    let sum = |f: fn(&Window) -> u64| -> u64 { nominal.iter().map(f).sum() };
    out.metric(
        "serve.net.send_s",
        median(&all(|w| &w.send_s)).unwrap_or(0.0),
        "s",
    );
    out.metric(
        "serve.client_late_p99_s",
        percentile(&all(|w| &w.late), 0.99).unwrap_or(0.0),
        "s",
    );
    out.metric(
        "serve.net.bytes_per_op",
        sum(|w| w.bytes) as f64 / sum(|w| w.sent).max(1) as f64,
        "bytes",
    );
    let depth = nominal.iter().map(|w| w.queue_depth_max).max().unwrap_or(0);
    out.metric("serve.queue_depth_max", depth as f64, "count");
    let backlog = nominal.iter().map(|w| w.backlog_max).max().unwrap_or(0);
    out.metric("serve.update_backlog_max", backlog as f64, "count");
    out.metric(
        "serve.rejected_queue_full",
        sum(|w| w.queue_full) as f64,
        "count",
    );
    out.metric(
        "serve.rejected_overloaded",
        sum(|w| w.overloaded) as f64,
        "count",
    );

    // Wire codec alone, on the stream's own requests.
    let mut stream = OpStream::new(inst, seed ^ 0x77);
    let reqs: Vec<Request> = (0..100_000u64)
        .map(|id| match stream.next_op() {
            Op::Query(query) => Request::Query { id, query },
            Op::Update(update) => Request::Update { id, update },
        })
        .collect();
    let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(reqs.len());
    let t0 = Instant::now();
    for r in &reqs {
        let mut b = Vec::with_capacity(32);
        wire::encode_request(r, &mut b);
        bufs.push(b);
    }
    let t1 = Instant::now();
    let mut ok = 0usize;
    for (b, r) in bufs.iter().zip(&reqs) {
        ok += (wire::decode_request(b).as_ref() == Ok(r)) as usize;
    }
    let t2 = Instant::now();
    tracer.record("serve.wire.encode", None, None, t0, t1);
    tracer.record("serve.wire.decode", None, None, t1, t2);
    out.attempt(1);
    if ok != reqs.len() {
        out.wrong(format!("{} wire round trips differ", reqs.len() - ok));
    }
    let per = |d: Duration| d.as_nanos() as f64 / reqs.len() as f64;
    out.metric("serve.wire.encode_ns", per(t1 - t0), "ns");
    out.metric("serve.wire.decode_ns", per(t2 - t1), "ns");

    // The same schedule in process: Daemon::submit_with_reply, no socket,
    // once the writers have drained what the ramp left queued.
    let daemon = frontend.daemon();
    let deadline = Instant::now() + DRAIN_WAIT;
    while daemon.update_backlog() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let lat: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let tick = Duration::from_secs_f64(1.0 / NOMINAL_RATE);
    let start = Instant::now();
    let mut stream = OpStream::new(inst, seed ^ 0x99);
    let mut k = 0u64;
    let mut sent_queries = 0usize;
    while k < (NOMINAL_RATE as u64) * 2 {
        let at = start + tick.mul_f64(k as f64);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        let (req, is_query) = match stream.next_op() {
            Op::Query(query) => (Request::Query { id: k, query }, true),
            Op::Update(update) => (Request::Update { id: k, update }, false),
        };
        let sink_lat = Arc::clone(&lat);
        let sink: bcc_serve::ReplySink = Box::new(move |resp: Response| {
            if matches!(resp, Response::Answer { .. }) {
                sink_lat
                    .lock()
                    .expect("latency sink poisoned")
                    .push(at.elapsed().as_secs_f64());
            }
        });
        sent_queries += is_query as usize;
        if daemon.submit_with_reply(req, sink).is_err() {
            out.fail("in-process submit refused".to_string());
        }
        k += 1;
    }
    let deadline = Instant::now() + DRAIN_WAIT;
    while lat.lock().expect("latency sink poisoned").len() < sent_queries
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let lat = lat.lock().expect("latency sink poisoned").clone();
    out.metric(
        "serve.inproc_p50_s",
        percentile(&lat, 0.5).unwrap_or(0.0),
        "s",
    );
    out.metric(
        "serve.inproc_p99_s",
        percentile(&lat, 0.99).unwrap_or(0.0),
        "s",
    );

    // The store alone: replay queries through ShardedStore::answer on
    // one thread, and commit the update stream one update at a time.
    let store = daemon.store();
    let mut stream = OpStream::new(inst, seed ^ 0xaa);
    let queries: Vec<Query> = std::iter::from_fn(|| Some(stream.next_op()))
        .filter_map(|o| match o {
            Op::Query(q) => Some(q),
            Op::Update(_) => None,
        })
        .take(50_000)
        .collect();
    let t0 = Instant::now();
    for q in &queries {
        std::hint::black_box(store.answer(q).expect("in range"));
    }
    let t1 = Instant::now();
    tracer.record("query.answer", None, None, t0, t1);
    out.metric(
        "query.answer_s",
        (t1 - t0).as_secs_f64() / queries.len() as f64,
        "s",
    );
    let mut commits = Vec::new();
    while commits.len() < 1_000 {
        if let Op::Update(up) = stream.next_op() {
            let (EdgeUpdate::Insert(u, _) | EdgeUpdate::Remove(u, _)) = up;
            let s = store.shard_of(u);
            let t0 = Instant::now();
            let c = store.commit_shard(s, &[up]).expect("commit");
            let t1 = Instant::now();
            tracer.record("query.commit", None, None, t0, t1);
            if c.applied != 1 {
                out.wrong(format!("commit of {up:?} applied {}", c.applied));
            }
            commits.push((t1 - t0).as_secs_f64());
        }
    }
    out.metric(
        "query.commit_p50_s",
        percentile(&commits, 0.5).unwrap_or(0.0),
        "s",
    );
    out.metric(
        "query.commit_p99_s",
        percentile(&commits, 0.99).unwrap_or(0.0),
        "s",
    );
}
