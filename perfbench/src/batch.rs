//! The batch phase: build the workload's graph, label it with all five
//! pipelines through `BccConfig::run_any`, and check every labeling
//! against Sequential's.

use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;
use bcc_core::schmidt::chain_decomposition;
use bcc_core::{verify, Algorithm, BccConfig, BccRun, Step};
use bcc_graph::{Edge, Graph, GraphBuilder};
use bcc_smp::{Pool, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The five pipelines with their metric prefixes, in presentation order.
pub const ALGS: [(Algorithm, &str); 5] = [
    (Algorithm::Sequential, "seq"),
    (Algorithm::TvSmp, "tv_smp"),
    (Algorithm::TvOpt, "tv_opt"),
    (Algorithm::TvFilter, "tv_filter"),
    (Algorithm::FastBcc, "fast_bcc"),
];

/// The `PhaseReport` steps each parallel pipeline runs, as metric names.
pub fn steps_of(alg: Algorithm) -> &'static [Step] {
    use Step::*;
    match alg {
        Algorithm::Sequential => &[],
        Algorithm::TvSmp | Algorithm::TvOpt => &[
            SpanningTree,
            EulerTour,
            RootTree,
            LowHigh,
            LabelEdge,
            ConnectedComponents,
        ],
        Algorithm::TvFilter => &[
            SpanningTree,
            Filtering,
            EulerTour,
            RootTree,
            LowHigh,
            LabelEdge,
            ConnectedComponents,
        ],
        Algorithm::FastBcc => &[
            SpanningTree,
            RootTree,
            Filtering,
            LowHigh,
            LabelEdge,
            ConnectedComponents,
        ],
    }
}

pub fn step_name(step: Step) -> &'static str {
    match step {
        Step::SpanningTree => "spanning_tree",
        Step::EulerTour => "euler_tour",
        Step::RootTree => "root_tree",
        Step::LowHigh => "low_high",
        Step::LabelEdge => "label_edge",
        Step::ConnectedComponents => "connected_components",
        Step::Filtering => "filtering",
    }
}

/// Builds of the generated edges before the trials; one more precedes
/// each trial round, so the set-up median spans the whole phase.
const SETUP_REPS: usize = 5;

/// Generated edges plus the build policy they need.
pub struct BatchInput {
    pub n: u32,
    pub edges: Vec<Edge>,
    /// R-MAT output carries self loops and duplicates.
    pub lenient: bool,
}

fn build(n: u32, edges: Vec<Edge>, lenient: bool) -> Graph {
    let b = GraphBuilder::new(n);
    let b = if lenient { b.lenient() } else { b };
    b.edges(edges)
        .build()
        .expect("generated edges are in range")
}

/// Sets up, warms up, and runs interleaved timed trials of every
/// pipeline for `budget`; returns the graph for the traced run's
/// per-layer calls.
pub fn run(
    input: &BatchInput,
    budget: Duration,
    threads: usize,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Graph {
    // Set-up: GraphBuilder::build of the generated edges (the copy that
    // feeds it is not timed).
    let mut setups = Vec::new();
    let timed_build = |setups: &mut Vec<f64>| {
        let edges = input.edges.clone();
        let t0 = Instant::now();
        let built = tracer.span("graph.build", None, |_| {
            build(input.n, edges, input.lenient)
        });
        setups.push(t0.elapsed().as_secs_f64());
        built
    };
    let mut g = timed_build(&mut setups);
    for _ in 1..SETUP_REPS {
        g = timed_build(&mut setups);
    }

    let plain = Pool::new(threads);
    let telemetry_pool = Pool::builder()
        .threads(threads)
        .telemetry(Arc::new(Telemetry::new(threads)))
        .build();

    // FAST-BCC's peak RSS over the RSS just before it, measured on the
    // first pipeline run so no freed heap from earlier runs masks it.
    // This run is also FAST-BCC's warm-up.
    let _ = bcc_smp::rss::reset_peak();
    let before = bcc_smp::rss::current_rss_bytes();
    let warm = Instant::now();
    let first_fast = run_one(&plain, &g, Algorithm::FastBcc);
    let mut round_time = warm.elapsed();
    if let (Some(before), Some(peak)) = (before, bcc_smp::rss::peak_rss_bytes()) {
        out.metric(
            "fast_bcc_rss_bytes",
            peak.saturating_sub(before) as f64,
            "bytes",
        );
    }

    // Sequential is the oracle; cross-check it once against Schmidt's
    // chain decomposition, which shares no code with it.
    let warm = Instant::now();
    let seq = run_one(&plain, &g, Algorithm::Sequential).result;
    round_time += warm.elapsed();
    out.attempt(1);
    if let Err(e) = cross_check(&plain, &g, &seq.edge_comp) {
        out.wrong(format!(
            "Sequential labels fail the chain-decomposition check: {e}"
        ));
    }
    out.check_labels(
        "fast_bcc warm-up",
        &first_fast.result.edge_comp,
        &seq.edge_comp,
    );
    for &(alg, name) in &ALGS[1..4] {
        let warm = Instant::now();
        let r = run_one(&plain, &g, alg);
        round_time += warm.elapsed();
        out.check_labels(
            &format!("{name} warm-up"),
            &r.result.edge_comp,
            &seq.edge_comp,
        );
    }

    // Interleaved trials: each round runs every pipeline once, starting
    // one later each round, so host drift hits all of them alike. Rounds
    // run while the next one, timed like the last, still fits the
    // budget. A traced run alternates untraced rounds with rounds on a
    // telemetry pool inside spans; comparing the two gives the tracing
    // overhead.
    let start = Instant::now();
    let min_rounds = if tracer.enabled() { 2 } else { 1 };
    let mut round = 0usize;
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); ALGS.len()];
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); ALGS.len()];
    let mut reports: Vec<Vec<BccRun>> = (0..ALGS.len()).map(|_| Vec::new()).collect();
    while round < min_rounds || start.elapsed() + round_time <= budget {
        let round_start = Instant::now();
        drop(timed_build(&mut setups));
        let tracing = tracer.enabled() && round % 2 == 1;
        for k in 0..ALGS.len() {
            let i = (k + round) % ALGS.len();
            let (alg, name) = ALGS[i];
            let pool = if tracing { &telemetry_pool } else { &plain };
            let t0 = Instant::now();
            let run = if tracing {
                tracer.span(format!("{name}.run_any"), None, |id| {
                    let run = run_one(pool, &g, alg);
                    let mut at = t0;
                    for st in &run.report.steps {
                        let end = at + st.duration;
                        tracer.record(format!("{name}.{}", step_name(st.step)), id, None, at, end);
                        at = end;
                    }
                    run
                })
            } else {
                run_one(pool, &g, alg)
            };
            let secs = t0.elapsed().as_secs_f64();
            out.check_labels(name, &run.result.edge_comp, &seq.edge_comp);
            if tracing {
                traced[i].push(secs);
                reports[i].push(run);
            } else {
                untraced[i].push(secs);
            }
        }
        round += 1;
        round_time = round_start.elapsed();
    }
    for (i, &(_, name)) in ALGS.iter().enumerate() {
        out.sample(&format!("{name}_s"), untraced[i].iter().copied());
    }
    let setup = median(&setups).expect("set-up samples");
    out.add_setup(setup);
    out.metric("graph.build_s", setup, "s");
    if tracer.enabled() {
        layer_metrics(&g, &reports, &untraced, &traced, tracer, out);
    }
    g
}

fn run_one(pool: &Pool, g: &Graph, alg: Algorithm) -> BccRun {
    BccConfig::new(alg)
        .run_any(pool, g)
        .expect("run_any accepts any graph")
}

/// Per-layer numbers from the traced rounds: Fig. 4 steps, the time
/// outside them, pool synchronization, and the filter's keep ratio.
fn layer_metrics(
    g: &Graph,
    reports: &[Vec<BccRun>],
    untraced: &[Vec<f64>],
    traced: &[Vec<f64>],
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let med = |xs: Vec<f64>| median(&xs).unwrap_or(0.0);
    for (i, &(alg, name)) in ALGS.iter().enumerate() {
        for &step in steps_of(alg) {
            let key = format!("{name}.{}", step_name(step));
            out.metric(&format!("{key}_s"), med(tracer.durations(&key)), "s");
        }
        out.metric(
            &format!("{name}.outside_steps_s"),
            med(tracer.self_times(&format!("{name}.run_any"))),
            "s",
        );
        if alg == Algorithm::Sequential {
            continue;
        }
        let runs = &reports[i];
        out.metric(
            &format!("{name}.barrier_episodes"),
            med(runs
                .iter()
                .map(|r| r.report.barrier_episodes as f64)
                .collect()),
            "count",
        );
        out.metric(
            &format!("{name}.barrier_wait_s"),
            med(runs
                .iter()
                .map(|r| r.report.barrier_wait.as_secs_f64())
                .collect()),
            "s",
        );
        out.metric(
            &format!("{name}.imbalance"),
            med(runs.iter().map(|r| r.report.imbalance).collect()),
            "ratio",
        );
    }
    let filter = &reports[3];
    if let Some(r) = filter.first() {
        out.metric(
            "core.filter_keep_ratio",
            r.report.effective_edges as f64 / g.m().max(1) as f64,
            "ratio",
        );
    }
    let total = |v: &[Vec<f64>]| v.iter().map(|x| median(x).unwrap_or(0.0)).sum::<f64>();
    out.metric(
        "trace.batch_overhead_ratio",
        total(traced) / total(untraced).max(1e-12) - 1.0,
        "ratio",
    );
}

/// Compares the articulation points and bridges derived from `labels`
/// (`bcc_core::verify`) with Schmidt's chain decomposition of every
/// connected component.
fn cross_check(pool: &Pool, g: &Graph, labels: &[u32]) -> Result<(), String> {
    let mut cc = bcc_connectivity::connected_components(pool, g.n(), g.edges()).label;
    let k = bcc_connectivity::sv::normalize_labels(pool, &mut cc);
    let split = g.split_by_labels(&cc, k);
    let mut arts = Vec::new();
    let mut bridges = Vec::new();
    for part in &split.parts {
        if part.graph.m() == 0 {
            continue;
        }
        let d = chain_decomposition(&part.graph);
        arts.extend(d.articulation.iter().map(|&v| part.verts[v as usize]));
        bridges.extend(d.bridges.iter().map(|&e| part.edge_orig[e as usize]));
    }
    arts.sort_unstable();
    bridges.sort_unstable();
    let want_arts = verify::articulation_points(g, labels);
    let want_bridges = verify::bridges(g, labels);
    if arts != want_arts {
        return Err(format!(
            "{} cut vertices vs {} from the labels",
            arts.len(),
            want_arts.len()
        ));
    }
    if bridges != want_bridges {
        return Err(format!(
            "{} bridges vs {} from the labels",
            bridges.len(),
            want_bridges.len()
        ));
    }
    Ok(())
}
