//! A miniature of the paper's Fig. 3 from the public API: execution
//! time of the three parallel TV algorithms on a random graph, swept
//! over thread counts.
//!
//! ```text
//! cargo run --release --example scaling_study [n] [m] [max_threads]
//! ```

use smp_bcc::graph::gen;
use smp_bcc::serve::{
    component_grid, run_workload, Daemon, Mode, Profile, ServeConfig, ShardedStore, WorkloadConfig,
};
use smp_bcc::{Algorithm, BccConfig, Pool, Telemetry};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let m: usize = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4 * n as usize);
    let max_p: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(8);

    println!("random connected graph: n = {n}, m = {m}");
    let g = gen::random_connected(n, m, 42);

    let seq = BccConfig::new(Algorithm::Sequential)
        .run(&Pool::new(1), &g)
        .unwrap();
    println!(
        "Sequential (Tarjan): {:?}  [{} components]\n",
        seq.report.total, seq.result.num_components
    );

    println!(
        "{:>4} {:>12} {:>12} {:>12}   (speedup vs sequential)",
        "p", "TV-SMP", "TV-opt", "TV-filter"
    );
    let mut p = 1;
    let mut traversal_note = String::new();
    while p <= max_p {
        let pool = Pool::new(p);
        let mut cells = Vec::new();
        for alg in [Algorithm::TvSmp, Algorithm::TvOpt, Algorithm::TvFilter] {
            let run = BccConfig::new(alg).run(&pool, &g).unwrap();
            let r = &run.result;
            assert_eq!(
                r.edge_comp,
                seq.result.edge_comp,
                "{} must agree",
                alg.name()
            );
            let speedup = seq.report.total.as_secs_f64() / run.report.total.as_secs_f64();
            cells.push(format!("{:>8.0?}({speedup:4.2})", run.report.total));
            if alg == Algorithm::TvFilter {
                // Largest thread count wins (the loop ascends).
                traversal_note = format!(
                    "TV-filter traversal work at p = {p}: BFS ran {} levels \
                     ({} bottom-up, schedule {}); spanning-forest SV took {} \
                     round(s), step-6 SV {} round(s).",
                    r.stats.bfs_levels,
                    r.stats.bfs_bottom_up_levels,
                    r.stats.bfs_directions,
                    r.stats.sv_rounds_spanning,
                    r.stats.sv_rounds_cc,
                );
            }
        }
        println!("{:>4} {} {} {}", p, cells[0], cells[1], cells[2]);
        p *= 2;
    }
    println!("\n{traversal_note}");

    println!(
        "\nNote: on a machine with few physical cores the speedup curves are\n\
         flat; the *relative ordering* (TV-SMP slowest, TV-filter fastest on\n\
         non-sparse inputs) is the paper's reproducible shape."
    );

    // ---- Snapshot lag under churn --------------------------------------
    // The serving layer reports staleness through the same `Telemetry`
    // sink the pipelines use, so a batch run and a daemon run read
    // uniformly. Sweep the shard pools' thread counts over a
    // churn-heavy workload and print the lag stats straight from the
    // shared sink.
    let serve_n = (n / 10).clamp(1_200, 100_000);
    println!("\nsnapshot lag under churn (90/10 read/update, closed loop, n = {serve_n}):");
    let g = component_grid(serve_n, 8, 42);
    println!(
        "{:>4} {:>12} {:>16} {:>14} {:>12}",
        "p", "queries/s", "lag mean(commits)", "lag max", "age mean"
    );
    let mut p = 1;
    while p <= max_p {
        let sink = Arc::new(Telemetry::new(p));
        let store = Arc::new(ShardedStore::new(&Pool::new(p), &g, 4).unwrap());
        let daemon = Daemon::spawn(
            store,
            ServeConfig::builder()
                .telemetry(Arc::clone(&sink))
                .flush_interval(Duration::from_millis(1))
                .build(),
        );
        let report = run_workload(
            daemon,
            &WorkloadConfig {
                profile: Profile::ChurnHeavy,
                mode: Mode::Closed,
                duration: Duration::from_millis(400),
                parts: 8,
                seed: 42,
            },
        );
        if let Some(e) = &report.serve.writer_error {
            panic!("writer failed at p = {p}: {e}");
        }
        let lag = sink.snapshot();
        assert_eq!(lag.snapshot_lag_samples, report.serve.answered);
        println!(
            "{:>4} {:>12.0} {:>17.3} {:>14} {:>12.1?}",
            p,
            report.queries_per_sec(),
            lag.snapshot_lag_mean_commits(),
            lag.snapshot_lag_commits_max,
            lag.snapshot_lag_mean_wall(),
        );
        p *= 2;
    }
}
