//! Command-line graph analyzer: read a graph from a text file (or
//! generate one), report its biconnected structure, and optionally
//! write the per-edge component labels back out.
//!
//! ```text
//! cargo run --release --example analyze_file -- <graph.txt> [out.txt]
//! cargo run --release --example analyze_file -- --demo
//! ```
//!
//! File format (`#` comments allowed):
//!
//! ```text
//! p <n> <m>
//! e <u> <v>
//! ```

use smp_bcc::graph::{gen, io};
use smp_bcc::{Algorithm, BccConfig, Pool};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let g = match args.first().map(String::as_str) {
        Some("--demo") | None => {
            eprintln!(
                "(no file given: analyzing a demo R-MAT graph; pass a path to analyze your own)"
            );
            gen::rmat(12, 20_000, 0.57, 0.19, 0.19, 42)
        }
        Some(path) => {
            let file = std::fs::File::open(path).unwrap_or_else(|e| {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1);
            });
            io::load_text(file).unwrap_or_else(|e| {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(1);
            })
        }
    };

    let pool = Pool::machine();
    let run = BccConfig::new(Algorithm::TvFilter)
        .run_any(&pool, &g)
        .expect("per-component driver accepts any graph");
    let r = &run.result;

    let arts = r.articulation_points(&g);
    let bridges = r.bridges(&g);
    let connected = smp_bcc::graph::validate::count_components(&g);

    println!("vertices:               {}", g.n());
    println!("edges:                  {}", g.m());
    println!("connected components:   {connected}");
    println!("biconnected components: {}", r.num_components);
    println!("articulation points:    {}", arts.len());
    println!("bridges:                {}", bridges.len());

    // Block size distribution.
    let mut sizes = std::collections::HashMap::new();
    for &c in &r.edge_comp {
        *sizes.entry(c).or_insert(0usize) += 1;
    }
    let mut hist: Vec<usize> = sizes.values().copied().collect();
    hist.sort_unstable_by(|a, b| b.cmp(a));
    println!("largest blocks (edges): {:?}", &hist[..hist.len().min(8)]);
    println!("analysis time:          {:?}", run.report.total);

    if let Some(out_path) = args.get(1).filter(|_| args[0] != "--demo") {
        let mut out = std::io::BufWriter::new(std::fs::File::create(out_path).unwrap());
        writeln!(out, "# edge_index u v component").unwrap();
        for (i, e) in g.edges().iter().enumerate() {
            writeln!(out, "{} {} {} {}", i, e.u, e.v, r.edge_comp[i]).unwrap();
        }
        println!("wrote per-edge labels to {out_path}");
    }
}
