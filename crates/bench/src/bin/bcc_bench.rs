//! `bcc-bench` — the paper's experiments, one subcommand per cell set.
//!
//! ```text
//! bcc-bench [grid|serve|prims] [--smoke] [--n <vertices>] [--p <max threads>]
//!           [--trials <k>] [--seed <u64>] [--workspace on|off|both]
//!           [--input <graph file>] [--out <path>]
//! bcc-bench paper <preset> [--n <vertices>] [--p <max threads>] [--trials <k>]
//!           [--seed <u64>] [--out <path>]
//! bcc-bench xl --graph <family>=<path> [--graph ...] [--p <max threads>]
//!           [--trials <k>] [--tv-cap <n>] [--smoke] [--out <path>]
//! bcc-bench compare <baseline.json> <candidate.json> [--threshold <pct>]
//!           [--rss-threshold <pct>]
//! bcc-bench ingest <graph file> [--keep <out.bccsr>]
//! ```
//!
//! Every BENCH document comes from one trial-major runner
//! (`bcc_bench::runner`); the subcommand picks its cells:
//!
//! * `grid` — every graph family × every algorithm × p ∈ {1, 2, 4, …,
//!   max} × workspace point, plus the `store-multi` commit-latency cells
//!   (incremental vs from-scratch `IndexStore` commits across batch
//!   sizes). `--workspace` selects the allocation-ablation axis: `on`
//!   (default) shares one scratch arena per cell across trials so warm
//!   trials run in the zero-allocation steady state, `off` allocates
//!   fresh per run, `both` emits the two as separate series. `--input`
//!   benches a real on-disk dataset (text edge list or mapped `.bccsr`)
//!   as the single `file` family instead of the generators.
//! * `serve` — the `bcc-serve` daemon under closed- and open-loop
//!   workload profiles, in-process and over loopback TCP, reporting
//!   queries/s and latency/snapshot-lag quantiles.
//! * `prims` — the parallel primitives (scan / compaction / radix
//!   sort), each beside its serial twin, and the bitmap drain.
//! * no subcommand — all three into one `BENCH_bcc.json`; `--smoke`
//!   shrinks any of them to CI size.
//! * `paper` — one of the paper's figures, table or ablations as a
//!   named preset (`bcc_bench::paper`).
//! * `xl` — the 10M-vertex-class tier (`bcc_bench::xl`): it sweeps
//!   mmap-backed `.bccsr` inputs from `bcc-convert gen`, gates
//!   `peak_rss_bytes` alongside time, and caps the O(m)-scratch
//!   pipelines at `--tv-cap` vertices while FAST-BCC runs everywhere.
//! * `compare` exits non-zero when the candidate document is more than
//!   `--threshold` percent slower than the baseline on any matching
//!   cell (or `--rss-threshold` percent larger in peak RSS).
//! * `ingest` is the out-of-core equivalence check: it converts a text
//!   edge list to `.bccsr` (or takes one directly), builds biconnected
//!   components from both the in-memory and the mmap-backed graph, and
//!   exits non-zero unless the labelings match bit-for-bit — reporting
//!   peak RSS of the from-disk build against the CSR file size.

use bcc_bench::grid::{self, CellSet, GridConfig};
use bcc_bench::json::{self, Json};
use bcc_bench::paper::{self, PaperConfig, Preset};
use bcc_bench::runner::thread_sweep;
use bcc_bench::xl::{self, XlConfig, XlInput};
use bcc_core::{Algorithm, BccConfig};
use bcc_graph::{bccsr, io, GraphBuilder};
use bcc_smp::{rss, Pool};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first() {
        Some(c) if !c.starts_with('-') => (c.as_str(), &args[1..]),
        _ => ("", &args[..]),
    };
    match cmd {
        "" => run_grid_cli(rest, &CellSet::ALL),
        "grid" => run_grid_cli(rest, &[CellSet::Grid]),
        "serve" => run_grid_cli(rest, &[CellSet::Serve]),
        "prims" => run_grid_cli(rest, &[CellSet::Prims]),
        "paper" => run_paper_cli(rest),
        "xl" => run_xl_cli(rest),
        "compare" => run_compare(rest),
        "ingest" => run_ingest(rest),
        other => bad_usage(&format!("unknown subcommand {other}")),
    }
}

fn bad_usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!("usage: bcc-bench [grid|serve|prims] [--smoke] [--n <vertices>] [--p <max threads>] [--trials <k>] [--seed <u64>] [--workspace on|off|both] [--input <graph file>] [--out <path>]");
    eprintln!("       bcc-bench paper <{}> [--n <vertices>] [--p <max threads>] [--trials <k>] [--seed <u64>] [--out <path>]", Preset::ALL.map(Preset::name).join("|"));
    eprintln!("       bcc-bench xl --graph <family>=<path> [--graph ...] [--p <max threads>] [--trials <k>] [--tv-cap <n>] [--smoke] [--out <path>]");
    eprintln!("       bcc-bench compare <baseline.json> <candidate.json> [--threshold <pct>] [--rss-threshold <pct>]");
    eprintln!("       bcc-bench ingest <graph file> [--keep <out.bccsr>]");
    ExitCode::from(2)
}

/// Walks `--key value` flags (`--smoke` takes no value), handing each
/// pair to `set`, which returns whether the value parsed or an error
/// message for a flag it does not know.
fn parse_flags(
    args: &[String],
    mut set: impl FnMut(&str, &str) -> Result<bool, String>,
) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        if key == "--smoke" {
            i += 1;
            continue;
        }
        let val = args.get(i + 1).ok_or(format!("missing value for {key}"))?;
        if !set(key, val)? {
            return Err(format!("bad value for {key}: {val}"));
        }
        i += 2;
    }
    Ok(())
}

/// Writes `doc` to `out` and reports its cell count.
fn write_doc(doc: &Json, out: &str) -> ExitCode {
    if let Err(e) = std::fs::write(out, doc.pretty()) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let cells = doc
        .get("entries")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    eprintln!("wrote {cells} cells to {out}");
    ExitCode::SUCCESS
}

fn run_grid_cli(args: &[String], sets: &[CellSet]) -> ExitCode {
    let machine = Pool::default_threads();
    let mut cfg = if args.iter().any(|a| a == "--smoke") {
        GridConfig::smoke(machine)
    } else {
        GridConfig::full(machine)
    };
    let mut out = String::from("BENCH_bcc.json");
    let parsed = parse_flags(args, |key, val| {
        Ok(match key {
            "--n" => val.parse().map(|n| cfg.n = n).is_ok(),
            "--p" => val.parse().map(|p| cfg.threads = thread_sweep(p)).is_ok(),
            "--trials" => val.parse().map(|t| cfg.trials = t).is_ok(),
            "--seed" => val.parse().map(|s| cfg.seed = s).is_ok(),
            "--workspace" => {
                cfg.workspace = val
                    .parse()
                    .map_err(|e| format!("bad value for --workspace: {e}"))?;
                true
            }
            "--input" => {
                cfg.input = Some(PathBuf::from(val));
                true
            }
            "--out" => {
                out = val.to_string();
                true
            }
            other => return Err(format!("unknown flag {other}")),
        })
    });
    if let Err(e) = parsed {
        return bad_usage(&e);
    }
    let names: Vec<&str> = sets.iter().map(|s| s.name()).collect();
    eprintln!(
        "bcc-bench {}: n={} threads={:?} trials={} seed={} workspace={}{}{}",
        names.join("+"),
        cfg.n,
        cfg.threads,
        cfg.trials,
        cfg.seed,
        cfg.workspace.name(),
        cfg.input
            .as_deref()
            .map(|p| format!(" input={}", p.display()))
            .unwrap_or_default(),
        if cfg.smoke { " (smoke)" } else { "" }
    );
    write_doc(
        &grid::run_grid(&cfg, sets, |line| eprintln!("  {line}")),
        &out,
    )
}

fn run_paper_cli(args: &[String]) -> ExitCode {
    let Some(preset) = args.first() else {
        return bad_usage("paper needs a preset");
    };
    let preset: Preset = match preset.parse() {
        Ok(p) => p,
        Err(e) => return bad_usage(&e),
    };
    let mut cfg = PaperConfig::default();
    let mut out = format!("BENCH_{}.json", preset.name());
    let parsed = parse_flags(&args[1..], |key, val| {
        Ok(match key {
            "--n" => val.parse().map(|n| cfg.n = Some(n)).is_ok(),
            "--p" => val.parse().map(|p| cfg.threads = thread_sweep(p)).is_ok(),
            "--trials" => val.parse().map(|t| cfg.trials = t).is_ok(),
            "--seed" => val.parse().map(|s| cfg.seed = s).is_ok(),
            "--out" => {
                out = val.to_string();
                true
            }
            other => return Err(format!("unknown flag {other}")),
        })
    });
    if let Err(e) = parsed {
        return bad_usage(&e);
    }
    eprintln!(
        "bcc-bench paper {}: n={} threads={:?} trials={} seed={}",
        preset.name(),
        cfg.n.unwrap_or(preset.default_n()),
        cfg.threads,
        cfg.trials,
        cfg.seed
    );
    write_doc(
        &paper::run_paper(preset, &cfg, |line| eprintln!("  {line}")),
        &out,
    )
}

fn run_xl_cli(args: &[String]) -> ExitCode {
    let mut cfg = XlConfig {
        smoke: args.iter().any(|a| a == "--smoke"),
        ..XlConfig::default()
    };
    let mut out = String::from("BENCH_xl.json");
    let parsed = parse_flags(args, |key, val| {
        Ok(match key {
            "--graph" => match val.split_once('=') {
                Some((family, path)) if !family.is_empty() && !path.is_empty() => {
                    cfg.inputs.push(XlInput {
                        family: family.to_string(),
                        path: PathBuf::from(path),
                    });
                    true
                }
                _ => return Err(format!("--graph needs <family>=<path>, got {val:?}")),
            },
            "--p" => val.parse().map(|p| cfg.threads = thread_sweep(p)).is_ok(),
            "--trials" => val.parse().map(|t| cfg.trials = t).is_ok(),
            "--tv-cap" => val.parse().map(|c| cfg.tv_cap = c).is_ok(),
            "--out" => {
                out = val.to_string();
                true
            }
            other => return Err(format!("unknown flag {other}")),
        })
    });
    if let Err(e) = parsed {
        return bad_usage(&e);
    }
    if cfg.inputs.is_empty() {
        return bad_usage("xl needs at least one --graph <family>=<path>");
    }
    write_doc(&xl::run_xl(&cfg, |line| eprintln!("{line}")), &out)
}

/// The out-of-core ingest equivalence check. Loads the input (text
/// edge list or `.bccsr`), ensures a `.bccsr` twin exists (converting
/// text to a temp file, or to `--keep`'s path), builds biconnected
/// components from the mmap-backed graph *and* from the in-memory
/// graph, and exits non-zero unless the per-edge labelings are
/// bit-for-bit identical. The from-disk build runs first, against a
/// freshly reset kernel RSS watermark, so its reported peak-RSS delta
/// measures the build alone — the number the "from-disk builds stay
/// near the CSR file size" claim is checked against.
fn run_ingest(args: &[String]) -> ExitCode {
    let mut input: Option<PathBuf> = None;
    let mut keep: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--keep" {
            let Some(val) = args.get(i + 1) else {
                return bad_usage("missing value for --keep");
            };
            keep = Some(PathBuf::from(val));
            i += 2;
        } else if input.is_none() {
            input = Some(PathBuf::from(&args[i]));
            i += 1;
        } else {
            return bad_usage(&format!("unexpected ingest argument {}", args[i]));
        }
    }
    let Some(input) = input else {
        return bad_usage("ingest needs a graph file");
    };

    let fail = |msg: std::fmt::Arguments| -> ExitCode {
        eprintln!("bcc-bench ingest: {msg}");
        ExitCode::FAILURE
    };
    let loaded = match io::load(&input) {
        Ok(g) => g,
        Err(e) => return fail(format_args!("{}: {e}", input.display())),
    };
    // Ensure the .bccsr twin exists. Temp files are cleaned up at the
    // end; `--keep` persists the conversion.
    let (bccsr_path, temp) = if loaded.is_mapped() {
        (input.clone(), false)
    } else {
        let out = keep.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("bcc-ingest-{}.bccsr", std::process::id()))
        });
        if let Err(e) = bccsr::write(&out, &loaded) {
            return fail(format_args!("writing {}: {e}", out.display()));
        }
        (out, keep.is_none())
    };
    let cleanup = || {
        if temp {
            std::fs::remove_file(&bccsr_path).ok();
        }
    };
    // Peak-RSS delta of one ingest path: the watermark is reset, `f`
    // builds a (Graph, Csr) pair, and the delta over the pre-build RSS
    // is that path's own footprint — the resident cost of going from
    // bytes on disk to a query-ready adjacency structure.
    let measure =
        |f: &dyn Fn() -> Result<bcc_graph::Graph, String>| -> Result<(bcc_graph::Graph, Option<u64>), String> {
            let before = rss::current_rss_bytes();
            let rss_ok = rss::reset_peak().is_ok();
            let g = f()?;
            let csr = bcc_graph::Csr::build(&g);
            let delta = match (rss_ok, before, rss::peak_rss_bytes()) {
                (true, Some(b), Some(p)) => Some(p.saturating_sub(b)),
                _ => None,
            };
            drop(csr);
            Ok((g, delta))
        };
    let file_bytes = std::fs::metadata(&bccsr_path).map(|m| m.len()).unwrap_or(0);
    let report_rss = |label: &str, delta: Option<u64>| match delta {
        Some(d) => println!(
            "{label} ingest: peak RSS delta {d} bytes ({:.2}x the .bccsr file)",
            d as f64 / file_bytes.max(1) as f64
        ),
        None => println!("{label} ingest: peak RSS unavailable on this platform"),
    };

    // From-disk ingest: verified open plus a CSR that borrows the
    // mapping zero-copy, so the delta is dominated by the page cache
    // of the file itself (~1x file size, the out-of-core claim).
    let (mapped, disk_delta) = match measure(&|| {
        bcc_graph::MappedCsr::open_graph(&bccsr_path)
            .map_err(|e| format!("{}: {e}", bccsr_path.display()))
    }) {
        Ok(r) => r,
        Err(e) => {
            cleanup();
            return fail(format_args!("{e}"));
        }
    };
    println!(
        "ingest: {} ({} vertices, {} edges, .bccsr {} bytes)",
        input.display(),
        mapped.n(),
        mapped.m(),
        file_bytes
    );
    report_rss("from-disk", disk_delta);

    // In-memory ingest of the same edges: the owned edge list plus a
    // materialized CSR — the ~2x spike the mapped path avoids.
    let (in_mem, mem_delta) = match measure(&|| {
        GraphBuilder::new(mapped.n())
            .edges(mapped.edges().iter().copied())
            .build()
            .map_err(|e| format!("rebuilding in-memory twin: {e}"))
    }) {
        Ok(r) => r,
        Err(e) => {
            cleanup();
            return fail(format_args!("{e}"));
        }
    };
    report_rss("in-memory", mem_delta);
    drop(loaded);

    // The equivalence gate: identical per-edge labels from both
    // storage backends, through the full parallel pipeline.
    let pool = Pool::new(Pool::default_threads());
    let run = |g: &bcc_graph::Graph| -> Result<(Vec<u32>, u32), bcc_core::BccError> {
        let run = BccConfig::new(Algorithm::TvFilter).run_any(&pool, g)?;
        Ok((run.result.edge_comp, run.result.num_components))
    };
    let (disk_labels, disk_comps) = match run(&mapped) {
        Ok(r) => r,
        Err(e) => {
            cleanup();
            return fail(format_args!("from-disk build failed: {e}"));
        }
    };
    let (mem_labels, mem_comps) = match run(&in_mem) {
        Ok(r) => r,
        Err(e) => {
            cleanup();
            return fail(format_args!("in-memory build failed: {e}"));
        }
    };
    cleanup();

    if disk_labels != mem_labels || disk_comps != mem_comps {
        let diverge = disk_labels
            .iter()
            .zip(&mem_labels)
            .position(|(a, b)| a != b);
        return fail(format_args!(
            "labelings diverge: {disk_comps} vs {mem_comps} components, first differing edge {diverge:?}"
        ));
    }
    println!(
        "labels: identical across {} edges ({} biconnected components)",
        disk_labels.len(),
        disk_comps
    );
    ExitCode::SUCCESS
}

fn run_compare(args: &[String]) -> ExitCode {
    let mut paths: Vec<&String> = vec![];
    let mut threshold = 25.0f64;
    let mut rss_threshold = 25.0f64;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--threshold" || args[i] == "--rss-threshold" {
            let flag = &args[i];
            let Some(val) = args.get(i + 1) else {
                return bad_usage(&format!("missing value for {flag}"));
            };
            match val.parse() {
                Ok(t) if flag == "--threshold" => threshold = t,
                Ok(t) => rss_threshold = t,
                Err(_) => return bad_usage(&format!("bad value for {flag}: {val}")),
            }
            i += 2;
        } else {
            paths.push(&args[i]);
            i += 1;
        }
    }
    let [base_path, cand_path] = paths[..] else {
        return bad_usage("compare needs exactly two BENCH files");
    };
    let load = |path: &str| -> Result<json::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let (base, cand) = match (load(base_path), load(cand_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match grid::compare(&base, &cand, threshold, rss_threshold) {
        Err(e) => {
            eprintln!("compare failed: {e}");
            ExitCode::FAILURE
        }
        Ok(regressions) if regressions.is_empty() => {
            eprintln!(
                "no regressions above {threshold}% time / {rss_threshold}% rss \
                 ({base_path} -> {cand_path})"
            );
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            eprintln!(
                "{} cell(s) regressed (thresholds: {threshold}% time, {rss_threshold}% rss):",
                regressions.len()
            );
            for r in &regressions {
                if r.metric == "peak_rss_bytes" {
                    const MIB: f64 = 1024.0 * 1024.0;
                    eprintln!(
                        "  {:<40} [rss] {:>9.1} MiB -> {:>9.1} MiB  (+{:.1}%)",
                        r.key,
                        r.baseline / MIB,
                        r.candidate / MIB,
                        r.slowdown_pct
                    );
                } else {
                    eprintln!(
                        "  {:<40} {:>10.6}s -> {:>10.6}s  (+{:.1}%)",
                        r.key, r.baseline, r.candidate, r.slowdown_pct
                    );
                }
            }
            ExitCode::FAILURE
        }
    }
}
