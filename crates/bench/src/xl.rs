//! The xl tier: 10M-vertex-class sweeps over streamed on-disk inputs,
//! with peak RSS as a first-class gated metric.
//!
//! The main grid ([`crate::grid`]) generates its instances in memory,
//! which caps it well below the scale where the space story of the
//! algorithms separates. The xl tier instead consumes `.bccsr` files
//! produced by `bcc-convert gen` (see `bcc_graph::gen_stream`): the
//! graph is mmap-backed, the generators never held two edge copies,
//! and every cell's trial runs between a kernel peak-RSS watermark
//! reset and a read — so `peak_rss_bytes` measures the *algorithm's*
//! anonymous working set on top of the file-backed input, the number
//! the FAST-BCC pipeline exists to shrink.
//!
//! FAST-BCC runs on every input; the Euler-tour pipelines (and the
//! Sequential baseline) run only where `n <= tv_cap` — the escape
//! hatch for hosts where an O(m)-scratch pipeline at the full input
//! size would swap or OOM. Cells share one workspace arena across
//! their trials (the steady-state regime long-lived callers see, and
//! the fair one for a high-water metric: the arena's buffers *are*
//! the algorithm's scratch); the arena is dropped between cells so
//! one pipeline's retained scratch never becomes the next cell's RSS
//! floor — at xl sizes every scratch buffer is past the allocator's
//! mmap threshold and returns to the kernel on drop.
//!
//! The emitted document is schema-v2 ([`crate::runner::SCHEMA_VERSION`])
//! with `experiment: "bcc-xl"`: `bcc-bench compare` gates its cells —
//! `seconds_min` under the calibrated time thresholds and
//! `peak_rss_bytes` under the uncalibrated space threshold — exactly
//! like grid cells.

use crate::json::Json;
use crate::runner::{
    document, fill_speedups, run_cells, telemetry_pools, thread_sweep, Cells, Instance,
    PipelineCell,
};
use bcc_core::Algorithm;
use bcc_smp::Pool;
use std::path::PathBuf;

/// One on-disk input: `--graph <family>=<path>` on the CLI. The family
/// string names the entry series (`rmat/FAST-BCC/n.../p...`), so two
/// inputs must not share it.
#[derive(Clone, Debug)]
pub struct XlInput {
    /// Series name in the document (e.g. `rmat`, `geo`).
    pub family: String,
    /// The `.bccsr` (or text) file, loaded via [`bcc_graph::io::load`].
    /// Must be **connected** — the tier runs the connected-input
    /// pipelines directly, and `bcc-convert gen` guarantees it.
    pub path: PathBuf,
}

/// xl-tier parameters (what `bcc-bench xl` parses into).
#[derive(Clone, Debug)]
pub struct XlConfig {
    /// The inputs, one series of cells each.
    pub inputs: Vec<XlInput>,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Timed repetitions per cell (medians reported, min gated).
    pub trials: usize,
    /// Largest `n` the Sequential + Euler-tour pipelines still run at;
    /// FAST-BCC ignores the cap. `u64::MAX` (the default) runs
    /// everything everywhere.
    pub tv_cap: u64,
    /// Marks the document as a smoke run (CI-sized inputs).
    pub smoke: bool,
}

impl Default for XlConfig {
    fn default() -> Self {
        XlConfig {
            inputs: vec![],
            threads: thread_sweep(Pool::default_threads()),
            trials: 2,
            tv_cap: u64::MAX,
            smoke: false,
        }
    }
}

/// Runs the xl tier and returns the BENCH document. `progress` receives
/// one line per loaded input and per finished cell.
pub fn run_xl(cfg: &XlConfig, mut progress: impl FnMut(&str)) -> Json {
    assert!(!cfg.inputs.is_empty(), "xl needs at least one --graph");
    assert!(cfg.threads.contains(&1), "thread sweep must include 1");
    let pools = telemetry_pools(&cfg.threads);
    let mut families: Vec<Json> = vec![];
    let mut entries: Vec<Json> = vec![];
    for input in &cfg.inputs {
        let inst = Instance::new(
            input.family.as_str(),
            bcc_graph::io::load(&input.path)
                .unwrap_or_else(|e| panic!("loading {}: {e}", input.path.display())),
        );
        let g = &inst.graph;
        let capped = u64::from(g.n()) > cfg.tv_cap;
        progress(&format!(
            "{}: n = {}, m = {} ({}){}",
            input.family,
            g.n(),
            g.m(),
            input.path.display(),
            if capped {
                "; n > tv-cap, FAST-BCC only"
            } else {
                ""
            },
        ));
        families.push(Json::obj(vec![
            ("family", Json::str(input.family.as_str())),
            ("n", Json::num(g.n())),
            ("m", Json::num(g.m() as f64)),
            ("path", Json::str(input.path.display().to_string())),
            ("mapped", Json::Bool(g.is_mapped())),
        ]));
        // Sequential runs at p = 1 only (without it, speedup columns
        // report 0); every parallel cell shares one arena across its
        // trials.
        let mut cells: Cells = vec![];
        for alg in Algorithm::ALL {
            for pool in &pools {
                let seq = alg == Algorithm::Sequential;
                if (capped && alg != Algorithm::FastBcc) || (seq && pool.threads() != 1) {
                    continue;
                }
                let cell = PipelineCell::new(&inst, pool, alg, (!seq).then_some(true));
                cells.push(Box::new(cell));
            }
        }
        // One cell at a time: each cell, arena included, drops before
        // the next one's first trial.
        for cell in cells {
            entries.extend(run_cells(
                &input.family,
                &mut [cell],
                cfg.trials,
                &mut progress,
            ));
        }
    }
    fill_speedups(&mut entries);
    document(
        "bcc-xl",
        &cfg.threads,
        cfg.trials,
        vec![
            ("smoke", Json::Bool(cfg.smoke)),
            ("tv_cap", Json::num(cfg.tv_cap as f64)),
        ],
        families,
        entries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::compare;
    use bcc_graph::gen_stream;
    use bcc_smp::rss;

    fn xl_smoke_doc() -> Json {
        let dir = std::env::temp_dir();
        let rmat = dir.join(format!("bcc-xl-test-rmat-{}.bccsr", std::process::id()));
        let geo = dir.join(format!("bcc-xl-test-geo-{}.bccsr", std::process::id()));
        gen_stream::rmat_to_bccsr(&rmat, 9, 2000, 0.57, 0.19, 0.19, 7).unwrap();
        gen_stream::geometric_to_bccsr(&geo, 400, 8.0, 20, 7).unwrap();
        let cfg = XlConfig {
            inputs: vec![
                XlInput {
                    family: "rmat".into(),
                    path: rmat.clone(),
                },
                XlInput {
                    family: "geo".into(),
                    path: geo.clone(),
                },
            ],
            threads: vec![1, 2],
            trials: 2,
            tv_cap: u64::MAX,
            smoke: true,
        };
        let doc = run_xl(&cfg, |_| {});
        let _ = std::fs::remove_file(rmat);
        let _ = std::fs::remove_file(geo);
        doc
    }

    #[test]
    fn xl_cells_cover_all_algorithms_and_gate_cleanly() {
        let doc = xl_smoke_doc();
        let text = doc.pretty();
        let parsed = crate::json::parse(&text).expect("xl BENCH json must parse");
        assert_eq!(parsed.get("schema_version").and_then(Json::as_u64), Some(2));
        assert_eq!(
            parsed.get("experiment").and_then(Json::as_str),
            Some("bcc-xl")
        );
        let fams = parsed.get("families").and_then(Json::as_arr).unwrap();
        assert_eq!(fams.len(), 2);
        for f in fams {
            assert_eq!(f.get("mapped"), Some(&Json::Bool(true)));
        }
        let entries = parsed.get("entries").and_then(Json::as_arr).unwrap();
        // Per family: Sequential at p=1 + 4 parallel × 2 thread counts.
        assert_eq!(entries.len(), 2 * (1 + 4 * 2));
        let rss_available = rss::reset_peak().is_ok();
        let mut fast_bcc_seen = 0;
        for e in entries {
            let alg = e.get("algorithm").and_then(Json::as_str).unwrap();
            if alg == "FAST-BCC" {
                fast_bcc_seen += 1;
            }
            assert!(e.get("seconds_min").and_then(Json::as_f64).is_some());
            if rss_available {
                let peak = e.get("peak_rss_bytes").and_then(Json::as_f64).unwrap();
                assert!(peak > 0.0);
            }
        }
        assert_eq!(fast_bcc_seen, 2 * 2);
        // The xl document self-compares clean under both gates.
        assert_eq!(compare(&parsed, &parsed, 10.0, 25.0).unwrap(), vec![]);
    }

    #[test]
    fn tv_cap_restricts_to_fast_bcc() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bcc-xl-test-cap-{}.bccsr", std::process::id()));
        gen_stream::geometric_to_bccsr(&path, 300, 6.0, 10, 1).unwrap();
        let cfg = XlConfig {
            inputs: vec![XlInput {
                family: "geo".into(),
                path: path.clone(),
            }],
            threads: vec![1, 2],
            trials: 1,
            tv_cap: 100, // below n = 300: only FAST-BCC runs
            smoke: true,
        };
        let doc = run_xl(&cfg, |_| {});
        let _ = std::fs::remove_file(path);
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        assert_eq!(entries.len(), 2);
        for e in entries {
            assert_eq!(e.get("algorithm").and_then(Json::as_str), Some("FAST-BCC"));
        }
    }
}
