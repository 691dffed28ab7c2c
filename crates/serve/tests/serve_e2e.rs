//! End-to-end tests for the bcc-serve daemon: full spawn → submit →
//! shutdown lifecycles over every profile/mode pair, the telemetry
//! and migration paths, per-shard commit attribution, admission-control
//! shedding, and the TCP front-end — all through the typed
//! [`Request`] / [`Response`] surface.

use bcc_query::{EdgeUpdate, Query};
use bcc_serve::{
    component_grid, run_net_workload, run_workload, Admission, Daemon, Mode, NetClient,
    NetFrontend, Profile, RejectReason, Request, Response, ServeConfig, ShardedStore, SubmitError,
    WorkloadConfig,
};
use bcc_smp::{Pool, Telemetry};
use std::sync::Arc;
use std::time::Duration;

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
fn every_profile_and_mode_runs_clean() {
    for profile in Profile::ALL {
        for mode in [Mode::Closed, Mode::Open { rate: 3_000.0 }] {
            let store = small_store(120, 4, 2);
            let daemon = Daemon::spawn(
                Arc::clone(&store),
                ServeConfig::builder()
                    .readers(2)
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
            .readers(2)
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
    // unlink them through the daemon while readers hammer queries.
    let pool = Pool::new(2);
    let g = component_grid(40, 2, 3);
    let store = Arc::new(ShardedStore::new(&pool, &g, 2).unwrap());
    assert_ne!(store.shard_of(0), store.shard_of(20));
    let daemon = Daemon::spawn(
        Arc::clone(&store),
        ServeConfig::builder()
            .readers(2)
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
            .readers(2)
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
