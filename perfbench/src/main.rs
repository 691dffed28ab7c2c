//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bcc-rmat --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload builds one input family from `--seed`, labels it with
//! all five pipelines (the batch phase), then serves an instance of the
//! same family over loopback TCP under mixed reads and writes (the serve
//! phase). Every output it times is checked. The last stdout line is one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `perfbench/README.md`.

mod batch;
mod gen;
mod instance;
mod layers;
mod serve;
mod stats;
mod trace;

use instance::{Family, Instance};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// Pool width of every run: the two cores of the reference host.
const THREADS: usize = 2;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "seq_s",
    "tv_smp_s",
    "tv_opt_s",
    "tv_filter_s",
    "fast_bcc_s",
    "fast_bcc_rss_bytes",
    "query_p50_s",
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub fn per_layer() -> Vec<String> {
    let mut v: Vec<String> = [
        "graph.build_s",
        "graph.csr_build_s",
        "graph.split_s",
        "graph.working_set_bytes",
        "connectivity.cc_s",
        "connectivity.bfs_s",
        "connectivity.bfs_levels",
        "connectivity.bfs_bottom_up_levels",
        "connectivity.sv_masked_s",
        "connectivity.sv_rounds",
        "connectivity.work_stealing_s",
        "euler.tour_classic_s",
        "euler.tour_dfs_s",
        "euler.tree_compute_s",
        "euler.bfs_tree_info_s",
        "primitives.list_rank_s",
        "primitives.sort_s",
        "primitives.scan_s",
        "core.low_high_s",
        "core.label_edge_s",
        "core.aux_edges",
        "core.filter_keep_ratio",
        "query.answer_s",
        "query.commit_p50_s",
        "query.commit_p99_s",
        "query.lag_commits_p99",
        "serve.query_p99_s",
        "serve.update_visible_p50_s",
        "serve.update_visible_p99_s",
        "serve.max_rate_ops",
        "serve.setup_s",
        "serve.inproc_p50_s",
        "serve.inproc_p99_s",
        "serve.queue_depth_max",
        "serve.update_backlog_max",
        "serve.commit_p99_s",
        "serve.updates_per_commit",
        "serve.rejected_queue_full",
        "serve.rejected_overloaded",
        "serve.client_late_p99_s",
        "serve.visible_resolution_s",
        "serve.wire.encode_ns",
        "serve.wire.decode_ns",
        "serve.net.rtt_idle_s",
        "serve.net.send_s",
        "serve.net.bytes_per_op",
        "trace.batch_overhead_ratio",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for (alg, name) in batch::ALGS {
        for &step in batch::steps_of(alg) {
            v.push(format!("{name}.{}_s", batch::step_name(step)));
        }
        v.push(format!("{name}.outside_steps_s"));
        if alg != bcc_core::Algorithm::Sequential {
            v.push(format!("{name}.barrier_episodes"));
            v.push(format!("{name}.barrier_wait_s"));
            v.push(format!("{name}.imbalance"));
        }
    }
    v
}

/// What one run measured and whether its outputs were right.
#[derive(Default)]
pub struct Outcome {
    metrics: BTreeMap<String, (f64, &'static str)>,
    setup: Vec<f64>,
    attempted: u64,
    failed: u64,
    wrong: bool,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records the median of `xs` (seconds) as `name`.
    pub fn sample(&mut self, name: &str, xs: impl IntoIterator<Item = f64>) {
        let xs: Vec<f64> = xs.into_iter().collect();
        if let Some(m) = stats::median(&xs) {
            self.metric(name, m, "s");
        }
    }

    /// Adds one phase's set-up time to `setup_s`.
    pub fn add_setup(&mut self, seconds: f64) {
        self.setup.push(seconds);
    }

    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// An operation failed (refused or missing), without a wrong answer.
    pub fn fail(&mut self, msg: String) {
        eprintln!("failed: {msg}");
        self.failed += 1;
    }

    pub fn fail_count(&mut self, n: u64) {
        self.failed += n;
    }

    /// A checked output was wrong.
    pub fn wrong(&mut self, msg: String) {
        eprintln!("WRONG: {msg}");
        self.failed += 1;
        self.wrong = true;
    }

    /// Compares one timed labeling with Sequential's.
    pub fn check_labels(&mut self, what: &str, got: &[u32], want: &[u32]) {
        self.attempt(1);
        if got != want {
            let diff = got.iter().zip(want).filter(|(a, b)| a != b).count();
            self.wrong(format!("{what}: {diff} edge labels differ from Sequential"));
        }
    }
}

/// Sizes of one workload.
#[derive(Copy, Clone)]
pub struct Config {
    pub family: Family,
    /// R-MAT scale, or the side of the square road lattice.
    pub batch_size: u32,
    pub serve_parts: u32,
    pub serve_part_size: u32,
}

pub fn config(workload: &str, smoke: bool) -> Option<Config> {
    let c = |family, batch_size, serve_parts, serve_part_size| Config {
        family,
        batch_size,
        serve_parts,
        serve_part_size,
    };
    Some(match (workload, smoke) {
        ("bcc-rmat", false) => c(Family::Rmat, 19, 16, 1 << 10),
        ("bcc-road", false) => c(Family::Road, 1024, 16, 32 * 32),
        ("bcc-rmat", true) => c(Family::Rmat, 12, 4, 1 << 10),
        ("bcc-road", true) => c(Family::Road, 64, 4, 30 * 30),
        _ => return None,
    })
}

pub const WORKLOADS: [&str; 2] = ["bcc-rmat", "bcc-road"];

/// Runs one workload; `seconds` is split between the batch trials, the
/// nominal-rate serve windows and, when traced, the rate ramps.
pub fn run(cfg: &Config, seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let input = match cfg.family {
        Family::Rmat => batch::BatchInput {
            n: 1 << cfg.batch_size,
            edges: gen::rmat(cfg.batch_size, 8, 0, seed, THREADS),
            lenient: true,
        },
        Family::Road => batch::BatchInput {
            n: cfg.batch_size * cfg.batch_size,
            edges: gen::road(cfg.batch_size, cfg.batch_size, 0.7, 0, seed),
            lenient: false,
        },
    };
    let budget = Duration::from_secs_f64(seconds * 0.6);
    let g = batch::run(&input, budget, THREADS, tracer, &mut out);
    drop(input);
    if tracer.enabled() {
        layers::run(&bcc_smp::Pool::new(THREADS), &g, seed, tracer, &mut out);
    }
    drop(g);

    let pool = bcc_smp::Pool::new(THREADS);
    let inst = Instance::new(
        cfg.family,
        cfg.serve_parts,
        cfg.serve_part_size,
        seed,
        &pool,
    );
    let params = serve::ServeParams {
        nominal: Duration::from_secs_f64(seconds * 0.25 / serve::NOMINAL_WINDOWS as f64),
        ramp_step: Duration::from_secs_f64(seconds * 0.25 / serve::RAMP_WINDOWS as f64),
    };
    serve::run(&inst, &params, THREADS, seed, tracer, &mut out);
    let setup: f64 = out.setup.iter().sum();
    out.metric("setup_s", setup, "s");
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(cfg) = config(&args.workload, false) else {
        eprintln!(
            "perfbench: unknown workload {:?} (expected one of {WORKLOADS:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let tracer = Tracer::new(args.trace);
    let out = run(&cfg, args.seed, args.seconds, &tracer);

    let wanted: Vec<String> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    let missing: Vec<&String> = wanted
        .iter()
        .filter(|k| !out.metrics.contains_key(*k))
        .collect();
    if !missing.is_empty() {
        eprintln!("perfbench: no value for {missing:?}");
        return ExitCode::from(3);
    }
    if args.trace {
        let path = PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tracer.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let metrics: Vec<String> = wanted
        .iter()
        .map(|k| {
            let (v, unit) = out.metrics[k];
            format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        !out.wrong,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if out.wrong {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_every_workload_end_to_end() {
        for w in WORKLOADS {
            for traced in [false, true] {
                let cfg = config(w, true).unwrap();
                let tracer = Tracer::new(traced);
                let out = run(&cfg, 3, 4.0, &tracer);
                assert!(!out.wrong, "{w}: wrong output");
                assert_eq!(out.failed, 0, "{w}: failed operations");
                let wanted: Vec<String> = if traced {
                    per_layer()
                } else {
                    END_TO_END.iter().map(|s| s.to_string()).collect()
                };
                for k in &wanted {
                    assert!(out.metrics.contains_key(k), "{w}: no {k}");
                }
            }
        }
    }

    #[test]
    fn metric_names_match_the_benchmark_file() {
        let layer = per_layer();
        assert!(layer.len() <= 128);
        let mut all: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
        all.extend(layer);
        all.extend(WORKLOADS.iter().map(|s| s.to_string()));
        let file =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(file.matches("\"name\":").count(), all.len());
        for k in &all {
            assert!(k.len() <= 64 && k.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                file.contains(&format!("\"name\": \"{k}\"")),
                "{k} not in BENCHMARK.json"
            );
        }
    }
}
