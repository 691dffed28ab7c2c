//! End-to-end tests for the bcc-serve daemon: full spawn → submit →
//! shutdown lifecycles over every profile/mode pair, the telemetry
//! and migration paths, per-shard commit attribution, admission-control
//! shedding, and the TCP front-end — all through the typed
//! [`Request`] / [`Response`] surface.

use bcc_graph::GraphBuilder;
use bcc_query::{Answer, EdgeUpdate, Query};
use bcc_serve::{
    component_grid, run_net_workload, run_workload, Admission, Daemon, Mode, NetClient,
    NetFrontend, Profile, RejectReason, Request, Response, ServeConfig, ShardedStore, SubmitError,
    WorkloadConfig,
};
use bcc_smp::{Pool, Telemetry};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn small_store(n: u32, parts: u32, shards: usize) -> Arc<ShardedStore> {
    let pool = Pool::new(2);
    let g = component_grid(n, parts, 11);
    Arc::new(ShardedStore::new(&pool, &g, shards).unwrap())
}

fn query(q: Query) -> Request {
    Request::Query { id: 0, query: q }
}

fn update(u: EdgeUpdate) -> Request {
    Request::Update { id: 0, update: u }
}

#[test]
fn known_queries_are_counted_and_classified() {
    let store = small_store(60, 3, 2);
    let daemon = Daemon::spawn(Arc::clone(&store), ServeConfig::default());
    // Component 0 owns 0..20, component 1 owns 20..40: three queries
    // answer true, two answer false.
    for q in [
        Query::Connected(0, 5),
        Query::Connected(1, 10),
        Query::SameBlock(0, 0),
        Query::Connected(0, 25), // cross component: false
        Query::SameBlock(5, 35), // cross component: false
    ] {
        daemon.submit(query(q)).unwrap();
    }
    let report = daemon.shutdown();
    assert_eq!(report.answered, 5);
    assert_eq!(report.query_errors, 0);
    assert_eq!(report.positive, 3);
    assert_eq!(report.latency.count(), 5);
    assert_eq!(report.lag_commits.count(), 5);
    // Quiet store: every answer came from the latest epoch.
    assert_eq!(report.lag_commits.max(), 0);
}

#[test]
fn submissions_after_shutdown_are_refused() {
    let store = small_store(60, 3, 2);
    let daemon = Daemon::spawn(Arc::clone(&store), ServeConfig::default());
    daemon.submit(query(Query::Connected(0, 1))).unwrap();
    let report = daemon.shutdown();
    assert_eq!(report.answered, 1);
    // A fresh daemon on the same store works; the dead one's queues
    // are gone (shutdown consumed it), so this is about store reuse.
    let daemon = Daemon::spawn(store, ServeConfig::default());
    daemon.submit(update(EdgeUpdate::Insert(0, 1))).unwrap();
    let report = daemon.shutdown();
    assert_eq!(report.updates_applied, 1);
}

#[test]
fn out_of_range_updates_are_invalid_at_submit() {
    let store = small_store(60, 3, 2);
    let daemon = Daemon::spawn(store, ServeConfig::default());
    let req = update(EdgeUpdate::Insert(0, 10_000));
    match daemon.submit(req) {
        Err(SubmitError::Invalid(r)) => assert_eq!(r, req),
        other => panic!("expected Invalid, got {other:?}"),
    }
    let report = daemon.shutdown();
    assert_eq!(report.updates_applied, 0);
    assert_eq!(report.shed_updates, 0);
}

#[test]
fn replies_arrive_before_submit_returns() {
    let daemon = Daemon::spawn(small_store(60, 3, 2), ServeConfig::default());
    let got = Rc::new(RefCell::new(Vec::new()));
    let sink = |got: &Rc<RefCell<Vec<Response>>>| -> bcc_serve::ReplySink {
        let got = Rc::clone(got);
        Box::new(move |resp| got.borrow_mut().push(resp))
    };
    let ok = Request::Query {
        id: 1,
        query: Query::Connected(0, 5),
    };
    daemon.submit_with_reply(ok, sink(&got)).unwrap();
    // Out of range: refused as invalid, and the sink still hears why.
    let bad = Request::Query {
        id: 2,
        query: Query::Connected(0, 10_000),
    };
    assert_eq!(
        daemon.submit_with_reply(bad, sink(&got)),
        Err(SubmitError::Invalid(bad))
    );
    assert_eq!(
        *got.borrow(),
        [
            Response::Answer {
                id: 1,
                answer: Answer::Bool(true)
            },
            Response::Rejected {
                id: 2,
                reason: RejectReason::Invalid
            }
        ]
    );
    assert_eq!(daemon.queued_queries(), 0);
    let report = daemon.shutdown();
    assert_eq!(report.answered, 1);
    assert_eq!(report.query_errors, 1);
}

#[test]
fn every_profile_and_mode_runs_clean() {
    for profile in Profile::ALL {
        for mode in [Mode::Closed, Mode::Open { rate: 3_000.0 }] {
            let store = small_store(120, 4, 2);
            let daemon = Daemon::spawn(
                Arc::clone(&store),
                ServeConfig::builder()
                    .batch_max(16)
                    .flush_interval(Duration::from_millis(1))
                    .build(),
            );
            let report = run_workload(
                daemon,
                &WorkloadConfig {
                    profile,
                    mode,
                    duration: Duration::from_millis(60),
                    parts: 4,
                    seed: 5,
                },
            );
            assert!(
                report.serve.writer_error.is_none(),
                "{} / {} writer failed",
                profile.name(),
                mode.name()
            );
            assert_eq!(report.serve.answered, report.offered_queries);
            assert_eq!(report.serve.updates_applied, report.offered_updates);
            assert!(
                report.serve.answered > 0,
                "{} answered none",
                profile.name()
            );
        }
    }
}

#[test]
fn telemetry_sink_sees_every_answer_lag() {
    let sink = Arc::new(Telemetry::new(1));
    let store = small_store(120, 4, 2);
    let daemon = Daemon::spawn(
        Arc::clone(&store),
        ServeConfig::builder()
            .telemetry(Arc::clone(&sink))
            .batch_max(4)
            .flush_interval(Duration::from_micros(200))
            .build(),
    );
    let report = run_workload(
        daemon,
        &WorkloadConfig {
            profile: Profile::ChurnHeavy,
            mode: Mode::Closed,
            duration: Duration::from_millis(80),
            parts: 4,
            seed: 17,
        },
    );
    let snap = sink.snapshot();
    assert_eq!(snap.snapshot_lag_samples, report.serve.answered);
    // Sink and report describe the same distribution.
    assert_eq!(
        snap.snapshot_lag_commits_max,
        report.serve.lag_commits.max()
    );
    assert!(snap.snapshot_lag_mean_wall() > Duration::ZERO);
}

#[test]
fn cross_shard_churn_migrates_and_stays_correct() {
    // Two components, one per shard; the writers repeatedly link and
    // unlink them through the daemon while queries hammer both.
    let pool = Pool::new(2);
    let g = component_grid(40, 2, 3);
    let store = Arc::new(ShardedStore::new(&pool, &g, 2).unwrap());
    assert_ne!(store.shard_of(0), store.shard_of(20));
    let daemon = Daemon::spawn(
        Arc::clone(&store),
        ServeConfig::builder()
            .batch_max(1) // every update commits immediately
            .build(),
    );
    for round in 0..10 {
        daemon
            .submit(update(if round % 2 == 0 {
                EdgeUpdate::Insert(0, 20)
            } else {
                EdgeUpdate::Remove(0, 20)
            }))
            .unwrap();
        for _ in 0..20 {
            daemon.submit(query(Query::Connected(0, 25))).unwrap();
            daemon.submit(query(Query::SameBlock(3, 8))).unwrap();
        }
    }
    let report = daemon.shutdown();
    assert!(report.writer_error.is_none());
    assert_eq!(report.answered, 400);
    assert!(report.migrations >= 1, "no migration happened");
    // Settled state (last update was a removal): disconnected again,
    // and both components live in the once-receiving shard.
    assert!(!store.answer(&Query::Connected(0, 25)).unwrap().as_bool());
    assert_eq!(store.shard_of(0), store.shard_of(20));
}

#[test]
fn per_shard_writers_attribute_commits_to_their_shard() {
    // Updates confined to each shard's components must show up in that
    // shard's commit-latency histogram and nowhere else.
    let store = small_store(120, 4, 2);
    let daemon = Daemon::spawn(
        Arc::clone(&store),
        ServeConfig::builder().batch_max(1).build(),
    );
    // Pick two components that landed in different shards (greedy
    // balancing fills both shards, but which components pair up
    // depends on label order — probe instead of assuming).
    let a = 0u32;
    let b = (1..4)
        .map(|c| c * 30)
        .find(|&v| store.shard_of(v) != store.shard_of(a))
        .expect("two shards over four components must both be populated");
    for _ in 0..5 {
        daemon.submit(update(EdgeUpdate::Insert(a, a + 2))).unwrap();
        daemon.submit(update(EdgeUpdate::Insert(b, b + 2))).unwrap();
    }
    let report = daemon.shutdown();
    assert!(report.writer_error.is_none());
    assert_eq!(report.updates_applied, 10);
    let counts: Vec<u64> = report
        .shard_commit_latency
        .iter()
        .map(|h| h.count())
        .collect();
    assert_eq!(counts.len(), 2);
    assert!(
        counts.iter().all(|&c| c > 0),
        "both shards should commit: {counts:?}"
    );
    assert_eq!(report.commit_latency.count(), report.commits);
}

#[test]
fn overload_sheds_updates_with_typed_rejections_in_process() {
    let store = small_store(120, 4, 2);
    // Degenerate watermark: a backlog of 0 sheds every update before
    // it queues, making the contract deterministic.
    let daemon = Daemon::spawn(
        Arc::clone(&store),
        ServeConfig::builder()
            .admission(Admission {
                shed_queue_depth: None,
                shed_backlog: Some(0),
            })
            .build(),
    );
    let req = update(EdgeUpdate::Insert(0, 5));
    for _ in 0..7 {
        match daemon.submit(req) {
            Err(SubmitError::Overloaded(r)) => assert_eq!(r, req),
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
    assert_eq!(daemon.shed_updates(), 7);
    // Queries are never shed by the update watermarks.
    daemon.submit(query(Query::Connected(0, 1))).unwrap();
    let report = daemon.shutdown();
    assert_eq!(report.shed_updates, 7);
    assert_eq!(report.updates_applied, 0);
    assert_eq!(report.answered, 1);
}

#[test]
fn shed_counts_flow_into_the_telemetry_sink() {
    let sink = Arc::new(Telemetry::new(1));
    let store = small_store(60, 3, 2);
    let daemon = Daemon::spawn(
        store,
        ServeConfig::builder()
            .telemetry(Arc::clone(&sink))
            .admission(Admission {
                shed_queue_depth: None,
                shed_backlog: Some(0),
            })
            .build(),
    );
    for _ in 0..3 {
        let _ = daemon.submit(update(EdgeUpdate::Insert(0, 5)));
    }
    daemon.shutdown();
    assert_eq!(sink.snapshot().sheds, 3);
}

#[test]
fn tcp_round_trip_matches_in_process_answers() {
    let store = small_store(120, 4, 2);
    let daemon = Daemon::spawn(Arc::clone(&store), ServeConfig::default());
    let frontend = NetFrontend::spawn(daemon, "127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(frontend.local_addr()).unwrap();
    // The socket path and the store must agree on every answer.
    for (id, q) in [
        Query::Connected(0, 5),
        Query::Connected(0, 45),
        Query::SameBlock(3, 8),
        Query::IsArticulation(1),
        Query::VertexCutBetween(0, 9),
    ]
    .into_iter()
    .enumerate()
    {
        let resp = client
            .call(&Request::Query {
                id: id as u64,
                query: q,
            })
            .unwrap();
        let expect = store.answer(&q).unwrap();
        assert_eq!(
            resp,
            Response::Answer {
                id: id as u64,
                answer: expect
            }
        );
    }
    let resp = client
        .call(&Request::Update {
            id: 99,
            update: EdgeUpdate::Insert(0, 9),
        })
        .unwrap();
    assert_eq!(resp, Response::Accepted { id: 99 });
    drop(client);
    let report = frontend.shutdown();
    assert_eq!(report.answered, 5);
    assert_eq!(report.updates_applied, 1);
}

#[test]
fn open_loop_tcp_workload_accounts_for_every_request() {
    let store = small_store(120, 4, 2);
    let daemon = Daemon::spawn(
        store,
        ServeConfig::builder()
            .batch_max(16)
            .flush_interval(Duration::from_millis(1))
            .build(),
    );
    let frontend = NetFrontend::spawn(daemon, "127.0.0.1:0").unwrap();
    let report = run_net_workload(
        frontend.local_addr(),
        &WorkloadConfig {
            profile: Profile::ChurnHeavy,
            mode: Mode::Open { rate: 3_000.0 },
            duration: Duration::from_millis(120),
            parts: 4,
            seed: 7,
        },
        120,
    )
    .unwrap();
    let offered = report.offered_queries + report.offered_updates;
    assert!(offered > 0);
    assert_eq!(
        report.answered + report.accepted + report.shed + report.rejected_other,
        offered,
        "every request must get exactly one response"
    );
    assert_eq!(report.latency.count(), offered);
    let serve = frontend.shutdown();
    assert_eq!(serve.answered, report.answered);
    assert_eq!(serve.updates_applied, report.accepted);
}

#[test]
fn overloaded_daemon_sheds_over_tcp_while_reads_flow() {
    let store = small_store(120, 4, 2);
    let daemon = Daemon::spawn(
        store,
        ServeConfig::builder()
            .admission(Admission {
                shed_queue_depth: None,
                shed_backlog: Some(0),
            })
            .build(),
    );
    let frontend = NetFrontend::spawn(daemon, "127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(frontend.local_addr()).unwrap();
    for id in 0..4 {
        let resp = client
            .call(&Request::Update {
                id,
                update: EdgeUpdate::Insert(0, 5),
            })
            .unwrap();
        assert_eq!(
            resp,
            Response::Rejected {
                id,
                reason: RejectReason::Overloaded
            }
        );
        // Reads keep answering while update load sheds.
        let resp = client
            .call(&Request::Query {
                id: 100 + id,
                query: Query::Connected(0, 5),
            })
            .unwrap();
        assert!(matches!(resp, Response::Answer { .. }));
    }
    drop(client);
    let report = frontend.shutdown();
    assert_eq!(report.shed_updates, 4);
    assert_eq!(report.answered, 4);
    assert_eq!(report.updates_applied, 0);
}

/// One client connection whose responses a background thread collects,
/// so a pipelined burst never waits on the test to read them.
struct Pipelined {
    client: NetClient,
    next_id: u64,
    responses: mpsc::Receiver<Response>,
    early: HashMap<u64, Response>,
    receiver: JoinHandle<()>,
}

impl Pipelined {
    fn connect(addr: SocketAddr) -> Pipelined {
        let client = NetClient::connect(addr).unwrap();
        let mut rx = client.try_clone().unwrap();
        let (tx, responses) = mpsc::channel();
        let receiver = std::thread::spawn(move || {
            while let Ok(Some(resp)) = rx.recv() {
                if tx.send(resp).is_err() {
                    return;
                }
            }
        });
        Pipelined {
            client,
            next_id: 0,
            responses,
            early: HashMap::new(),
            receiver,
        }
    }

    /// Sends the request `make(id)` under the next id; returns the id.
    fn send(&mut self, make: impl FnOnce(u64) -> Request) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.client.send(&make(id)).unwrap();
        id
    }

    /// Waits for the response to request `id`, keeping the others.
    fn response(&mut self, id: u64) -> Response {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !self.early.contains_key(&id) {
            let left = deadline.saturating_duration_since(Instant::now());
            let resp = self
                .responses
                .recv_timeout(left)
                .unwrap_or_else(|e| panic!("no response to request {id}: {e}"));
            self.early.insert(resp.id(), resp);
        }
        self.early.remove(&id).unwrap()
    }

    /// Every response still unclaimed once the server has hung up.
    fn rest(self) -> Vec<Response> {
        self.receiver.join().unwrap();
        let mut rest: Vec<Response> = self.early.into_values().collect();
        rest.extend(self.responses.try_iter());
        rest
    }
}

#[test]
fn one_connection_reads_and_writes_in_the_order_sent() {
    // A 30-vertex ring the burst queries read, and a path 30..=45:
    // `SameBlock(30, 45)` holds exactly while the chord (30, 45) is in.
    const BURST: u64 = 4_000;
    const TOGGLES: u64 = 8;
    let (a, b) = (30, 45);
    let ring = (0..30).map(|i| (i, (i + 1) % 30));
    let path = (30..45).map(|i| (i, i + 1));
    let g = GraphBuilder::new(46)
        .edges(ring.chain(path))
        .build()
        .unwrap();
    let store = Arc::new(ShardedStore::new(&Pool::new(2), &g, 2).unwrap());
    let daemon = Daemon::spawn(
        store,
        ServeConfig::builder()
            .flush_interval(Duration::from_micros(100))
            .build(),
    );
    let frontend = NetFrontend::spawn(daemon, "127.0.0.1:0").unwrap();
    let mut conn = Pipelined::connect(frontend.local_addr());
    let probe = |id| Request::Query {
        id,
        query: Query::SameBlock(a, b),
    };
    // The chord's state after `t` toggles: in iff `t` is odd.
    let state = |t: u64| Answer::Bool(t % 2 == 1);
    let mut queries = 0;
    for t in 1..=TOGGLES {
        // A burst, a probe, then the toggle that flips the probe's
        // answer: sent in that order, the probe must see the state
        // before the toggle however long the burst takes to answer.
        for _ in 0..BURST {
            conn.send(|id| Request::Query {
                id,
                query: Query::Connected(0, 15),
            });
        }
        let before = conn.send(probe);
        let update = if t % 2 == 1 {
            EdgeUpdate::Insert(a, b)
        } else {
            EdgeUpdate::Remove(a, b)
        };
        let toggle = conn.send(|id| Request::Update { id, update });
        queries += BURST + 1;
        assert_eq!(
            conn.response(before),
            Response::Answer {
                id: before,
                answer: state(t - 1)
            },
            "the probe sent before toggle {t} did not get the state before it"
        );
        assert_eq!(conn.response(toggle), Response::Accepted { id: toggle });
        // Probe until toggle `t` shows; once it has, no later probe
        // may answer the state before it.
        let deadline = Instant::now() + Duration::from_secs(5);
        let (mut seen, mut after) = (false, 0);
        while after < 3 {
            assert!(Instant::now() < deadline, "toggle {t} never showed");
            let id = conn.send(probe);
            queries += 1;
            match conn.response(id) {
                Response::Answer { answer, .. } if answer == state(t) => {
                    seen = true;
                    after += 1;
                }
                resp => assert!(
                    !seen,
                    "probe answered {resp:?} after toggle {t} was visible"
                ),
            }
        }
    }
    let report = frontend.shutdown();
    // No read waits in a queue, so none is refused: every burst query
    // was answered.
    let rest = conn.rest();
    assert_eq!(rest.len() as u64, TOGGLES * BURST);
    assert!(rest.iter().all(|r| matches!(
        r,
        Response::Answer {
            answer: Answer::Bool(true),
            ..
        }
    )));
    assert_eq!(report.answered, queries);
    assert_eq!(report.updates_applied, TOGGLES);
}

#[test]
fn answers_over_concurrent_connections_add_up_in_one_report() {
    let sink = Arc::new(Telemetry::new(1));
    let daemon = Daemon::spawn(
        small_store(120, 4, 2),
        ServeConfig::builder()
            .telemetry(Arc::clone(&sink))
            .flush_interval(Duration::from_micros(200))
            .build(),
    );
    let frontend = NetFrontend::spawn(daemon, "127.0.0.1:0").unwrap();
    let addr = frontend.local_addr();
    // Two connections at once, each on its own component: queries with
    // a chord toggled every tenth request, and on the first connection
    // one out-of-range query.
    let clients: Vec<_> = (0..2u32)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                let (lo, mut answered, mut invalid) = (c * 30, 0u64, 0u64);
                for i in 0..600u32 {
                    let id = u64::from(i);
                    let req = match i % 20 {
                        9 => Request::Update {
                            id,
                            update: EdgeUpdate::Insert(lo, lo + 15),
                        },
                        19 => Request::Update {
                            id,
                            update: EdgeUpdate::Remove(lo, lo + 15),
                        },
                        _ if c == 0 && i == 300 => Request::Query {
                            id,
                            query: Query::Connected(0, 10_000),
                        },
                        _ => Request::Query {
                            id,
                            query: Query::SameBlock(lo + i % 30, lo + i * 7 % 30),
                        },
                    };
                    match client.call(&req).unwrap() {
                        Response::Answer { .. } => answered += 1,
                        Response::Accepted { .. } => {}
                        Response::Rejected {
                            reason: RejectReason::Invalid,
                            ..
                        } => invalid += 1,
                        other => panic!("connection {c}: {req:?} got {other:?}"),
                    }
                }
                (answered, invalid)
            })
        })
        .collect();
    let (mut answered, mut invalid) = (0, 0);
    for client in clients {
        let (a, i) = client.join().unwrap();
        answered += a;
        invalid += i;
    }
    assert_eq!(invalid, 1);
    let report = frontend.shutdown();
    assert_eq!(report.answered, answered);
    assert_eq!(report.query_errors, invalid);
    assert_eq!(report.lag_commits.count(), answered);
    assert_eq!(sink.snapshot().snapshot_lag_samples, answered);
}
