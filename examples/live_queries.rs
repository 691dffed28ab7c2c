//! Live biconnectivity serving — an in-process [`smp_bcc::serve`]
//! daemon answering resilience queries while link failures stream in.
//!
//! Builds a multi-component graph (rings with redundant chords),
//! shards it across per-component [`smp_bcc::IndexStore`]s, and spawns
//! the daemon: one writer thread per shard group-committing edge
//! updates, while each query is answered from a lock-free snapshot on
//! the thread that submits it. The main thread then
//! plays operator-under-fire for a few seconds — toggling chord
//! failures through the update queue while firing connectivity and
//! survives-failure queries — and prints the SLO view a monitoring
//! system would alert on: latency p50/p99/p999 and how stale (in
//! commits and in wall time) the answered snapshots were.
//!
//! ```text
//! cargo run --release --example live_queries [n] [parts] [shards] [secs] [seed]
//! ```

use smp_bcc::query::{EdgeUpdate, Failure, Query};
use smp_bcc::serve::{component_grid, Daemon, Request, ServeConfig, ShardedStore};
use smp_bcc::Pool;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |i: usize, default: u64| -> u64 {
        args.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
    };
    let n = arg(1, 20_000) as u32;
    let parts = arg(2, 8) as u32;
    let shards = arg(3, 4) as usize;
    let secs = arg(4, 2);
    let seed = arg(5, 42);

    // ---- Build and shard the index ------------------------------------
    let pool = Pool::machine();
    let g = component_grid(n, parts, seed);
    println!(
        "graph: {} vertices, {} edges in {parts} components",
        g.n(),
        g.m()
    );
    let t0 = Instant::now();
    let store = Arc::new(ShardedStore::new(&pool, &g, shards).expect("index build"));
    println!(
        "sharded store: {} shards built in {:?} on {} threads\n",
        store.num_shards(),
        t0.elapsed(),
        pool.threads()
    );

    // ---- Spawn the daemon ---------------------------------------------
    let daemon = Daemon::spawn(
        Arc::clone(&store),
        ServeConfig::builder()
            .batch_max(32)
            .flush_interval(Duration::from_millis(1))
            .build(),
    );
    println!("daemon up: {shards} writers, queries answered here, streaming for {secs}s...");

    // ---- Stream failures while querying --------------------------------
    // Each component is a contiguous ring `lo..hi`; we fail and restore
    // the chord (lo, lo + span/2) — a redundant link, so the component
    // stays connected but its block structure flips.
    let span = n / parts;
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut rng = seed | 1;
    let mut step = |m: u64| {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) % m
    };
    let mut offered_queries = 0u64;
    let mut offered_updates = 0u64;
    let mut link_down = vec![false; parts as usize];
    while Instant::now() < deadline {
        let c = step(parts as u64) as u32;
        let lo = c * span;
        let mid = lo + span / 2;

        // One link event per round: fail or restore component c's chord.
        let update = if link_down[c as usize] {
            EdgeUpdate::Insert(lo, mid)
        } else {
            EdgeUpdate::Remove(lo, mid)
        };
        link_down[c as usize] = !link_down[c as usize];
        if daemon.submit(Request::Update { id: 0, update }).is_err() {
            break;
        }
        offered_updates += 1;

        // A burst of resilience queries, mostly against the component
        // under churn (the interesting case for snapshot lag).
        for _ in 0..64 {
            let u = lo + step(span as u64) as u32;
            let v = lo + step(span as u64) as u32;
            let q = match step(4) {
                0 => Query::Connected(u, v),
                1 => Query::SameBlock(u, v),
                2 => Query::SurvivesFailure(u, v, Failure::Edge(lo, lo + 1)),
                _ => Query::SurvivesFailure(u, v, Failure::Vertex(mid)),
            };
            if daemon.submit(Request::Query { id: 0, query: q }).is_err() {
                break;
            }
            offered_queries += 1;
        }
    }

    // ---- Report ---------------------------------------------------------
    let report = daemon.shutdown();
    if let Some(e) = &report.writer_error {
        eprintln!("writer failed: {e}");
        std::process::exit(1);
    }
    assert_eq!(report.answered + report.query_errors, offered_queries);
    assert_eq!(report.updates_applied, offered_updates);

    let lat = &report.latency;
    println!(
        "\nanswered {} queries ({} positive)",
        report.answered, report.positive
    );
    println!(
        "latency:  p50 {:?}  p99 {:?}  p999 {:?}  max {:?}",
        lat.quantile_duration(0.50),
        lat.quantile_duration(0.99),
        lat.quantile_duration(0.999),
        Duration::from_nanos(lat.max()),
    );
    println!(
        "snapshot lag: p50 {} / p99 {} / max {} commits behind; age p99 {:?}",
        report.lag_commits.quantile(0.50),
        report.lag_commits.quantile(0.99),
        report.lag_commits.max(),
        report.lag_wall.quantile_duration(0.99),
    );
    println!(
        "writer:   {} link events in {} commits ({} cross-shard migrations), commit p99 {:?}",
        report.updates_applied,
        report.commits,
        report.migrations,
        report.commit_latency.quantile_duration(0.99),
    );
}
