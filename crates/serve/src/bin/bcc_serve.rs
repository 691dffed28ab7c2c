//! `bcc-serve` — run the sharded biconnectivity daemon under a
//! configurable workload and print its SLO numbers, or expose it on a
//! TCP socket for `bcc-serve-client` to drive.
//!
//! ```text
//! bcc-serve [--n 50000] [--parts 16] [--shards 4] [--graph <path>]
//!           [--profile read-heavy|churn-heavy|hot-component|update-storm]
//!           [--mode closed|open] [--rate 50000] [--secs 2]
//!           [--batch 64] [--flush-ms 2] [--seed 42]
//!           [--shed-depth N] [--shed-backlog N]
//!           [--listen ADDR]
//! ```
//!
//! By default the daemon serves a generated multi-component instance;
//! `--graph` loads a real dataset instead (text edge list or mmap-ready
//! `.bccsr`, sniffed by `bcc_graph::io::load`), with `--parts` still
//! shaping how the workload spreads its queries and updates across
//! vertex ranges.
//!
//! With `--listen ADDR` the in-process workload driver is skipped:
//! the daemon binds `ADDR` (use port 0 for an ephemeral port; the
//! bound address is printed on stdout as `listening ADDR n N`), serves
//! the wire protocol until `--secs` elapses — or, with `--secs 0`,
//! until stdin reaches EOF so a parent process can manage the
//! lifetime — then shuts down and prints the same report.
//!
//! An unknown flag, a flag without a value, or a value that does not
//! parse prints the usage and exits 2.

mod flags;

use bcc_serve::{
    component_grid, run_workload, Admission, Daemon, Mode, NetFrontend, Profile, ServeConfig,
    ServeReport, ShardedStore, WorkloadConfig,
};
use bcc_smp::Pool;
use flags::{parse_flags, set};
use std::io::Read;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "bcc-serve: sharded biconnectivity query daemon\n\
     --n N          vertices (default 50000)\n\
     --parts K      components in the instance (default 16)\n\
     --graph PATH   serve a graph file (text or .bccsr) instead\n\
     --shards S     store shards, one writer thread each (default 4)\n\
     --profile P    read-heavy | churn-heavy | hot-component | update-storm\n\
     --mode M       closed | open (default open)\n\
     --rate Q       open-loop arrivals/sec (default 50000)\n\
     --secs T       drive duration in seconds (default 2)\n\
     --batch B      writer group-commit size (default 64)\n\
     --flush-ms F   writer flush interval (default 2)\n\
     --seed X       instance + workload seed (default 42)\n\
     --shed-depth N   shed updates once a writer queue holds N\n\
     --shed-backlog N shed updates once N are uncommitted\n\
     --listen ADDR  serve the wire protocol on ADDR instead of\n\
                    driving an in-process workload (port 0 for\n\
                    ephemeral; --secs 0 serves until stdin EOF)";

fn print_report(s: &ServeReport) {
    println!(
        "latency    p50 {:?}  p99 {:?}  p999 {:?}  max {:?}",
        s.latency.quantile_duration(0.50),
        s.latency.quantile_duration(0.99),
        s.latency.quantile_duration(0.999),
        Duration::from_nanos(s.latency.max()),
    );
    println!(
        "snapshot lag  p50 {} / p99 {} commits behind; age p99 {:?}",
        s.lag_commits.quantile(0.50),
        s.lag_commits.quantile(0.99),
        s.lag_wall.quantile_duration(0.99),
    );
    println!(
        "writers[{}]: {} updates in {} commits ({} migrations, {} shed), commit p99 {:?}",
        s.shard_commit_latency.len(),
        s.updates_applied,
        s.commits,
        s.migrations,
        s.shed_updates,
        s.commit_latency.quantile_duration(0.99),
    );
    for (i, h) in s.shard_commit_latency.iter().enumerate() {
        if h.count() > 0 {
            println!(
                "  shard {i}: {} commits, p50 {:?}  p99 {:?}",
                h.count(),
                h.quantile_duration(0.50),
                h.quantile_duration(0.99),
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let (mut n, mut parts, mut shards) = (50_000u32, 16u32, 4usize);
    let (mut profile, mut closed, mut rate, mut secs) = (Profile::ReadHeavy, false, 50_000.0, 2.0);
    let (mut batch_max, mut flush_ms, mut seed) = (64usize, 2u64, 42u64);
    let mut admission = Admission::default();
    let (mut graph_path, mut listen): (Option<String>, Option<String>) = (None, None);
    let parsed = parse_flags(&args, |key, val| {
        Ok(match key {
            "--n" => set(&mut n, val),
            "--parts" => set(&mut parts, val),
            "--graph" => {
                graph_path = Some(val.to_string());
                true
            }
            "--shards" => set(&mut shards, val),
            "--profile" => {
                profile = val.parse()?;
                true
            }
            "--mode" => match val {
                "closed" | "open" => {
                    closed = val == "closed";
                    true
                }
                _ => false,
            },
            "--rate" => set(&mut rate, val),
            "--secs" => set(&mut secs, val),
            "--batch" => set(&mut batch_max, val),
            "--flush-ms" => set(&mut flush_ms, val),
            "--seed" => set(&mut seed, val),
            "--shed-depth" => val
                .parse()
                .map(|d| admission.shed_queue_depth = Some(d))
                .is_ok(),
            "--shed-backlog" => val
                .parse()
                .map(|b| admission.shed_backlog = Some(b))
                .is_ok(),
            "--listen" => {
                listen = Some(val.to_string());
                true
            }
            other => return Err(format!("unknown flag {other}")),
        })
    });
    if let Err(e) = parsed {
        eprintln!("bcc-serve: {e}\n{USAGE}");
        std::process::exit(2);
    }
    let mode = if closed {
        Mode::Closed
    } else {
        Mode::Open { rate }
    };

    // A real dataset (`--graph`) replaces the generated instance; the
    // workload still spreads itself over `--parts` vertex ranges.
    let g = match &graph_path {
        Some(path) => bcc_graph::io::load(path).unwrap_or_else(|e| {
            eprintln!("bcc-serve: {path}: {e}");
            std::process::exit(2);
        }),
        None => component_grid(n, parts, seed),
    };
    let n = g.n();
    // Every shard commits on this pool; components are relabeled on
    // the writer's own thread.
    let pool = Pool::new(2);
    let store = Arc::new(ShardedStore::new(&pool, &g, shards).expect("seed build"));
    let config = ServeConfig::builder()
        .batch_max(batch_max)
        .flush_interval(Duration::from_millis(flush_ms))
        .admission(admission)
        .build();
    let daemon = Daemon::spawn(Arc::clone(&store), config);

    if let Some(addr) = listen {
        let frontend = NetFrontend::spawn(daemon, addr.as_str()).unwrap_or_else(|e| {
            eprintln!("bcc-serve: bind {addr}: {e}");
            std::process::exit(2);
        });
        // Machine-readable: clients parse the bound address and the
        // vertex count (the workload generator needs the layout).
        println!("listening {} n {n}", frontend.local_addr());
        if secs > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(secs));
        } else {
            // Serve until whoever spawned us closes our stdin.
            let mut sink = Vec::new();
            let _ = std::io::stdin().read_to_end(&mut sink);
        }
        let report = frontend.shutdown();
        if let Some(e) = &report.writer_error {
            eprintln!("writer error: {e}");
            std::process::exit(1);
        }
        println!(
            "served {} answers, {} update commits over TCP",
            report.answered, report.updates_applied
        );
        print_report(&report);
        return;
    }

    println!(
        "instance: {}n = {n}, {parts} components, {shards} shards; \
         profile {}, mode {}",
        graph_path
            .as_deref()
            .map(|p| format!("{p}, "))
            .unwrap_or_default(),
        profile.name(),
        mode.name()
    );
    let report = run_workload(
        daemon,
        &WorkloadConfig {
            profile,
            mode,
            duration: Duration::from_secs_f64(secs),
            parts,
            seed,
        },
    );

    if let Some(e) = &report.serve.writer_error {
        eprintln!("writer error: {e}");
        std::process::exit(1);
    }
    println!(
        "drove {} queries + {} updates in {:?} ({:.0} answered queries/s)",
        report.offered_queries,
        report.offered_updates,
        report.wall,
        report.queries_per_sec()
    );
    print_report(&report.serve);
}
