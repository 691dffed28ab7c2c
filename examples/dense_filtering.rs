//! Demonstrates the paper's §4 insight: TV-filter discards
//! non-essential edges, so steps 4–6 run on at most 2(n−1) edges no
//! matter how dense the input. On dense graphs the win is dramatic.
//!
//! ```text
//! cargo run --release --example dense_filtering [n] [seed]
//! ```

use smp_bcc::graph::gen;
use smp_bcc::{Algorithm, BccConfig, Pool};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2_000);
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);

    let pool = Pool::machine();
    println!("n = {n}, {} threads\n", pool.threads());
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>8}",
        "m", "TV-opt", "TV-filter", "Sequential", "ratio"
    );

    // Sweep density from sparse (m = 2n) toward dense (m = n log n and
    // beyond): the filter's advantage grows with density because it
    // caps the effective edge count at 2(n-1).
    let densities: &[usize] = &[2, 4, 8, 16, 32];
    for &d in densities {
        let m = (n as usize * d).min(gen::max_edges(n));
        let g = gen::random_connected(n, m, seed);

        let opt = BccConfig::new(Algorithm::TvOpt).run(&pool, &g).unwrap();
        let filter = BccConfig::new(Algorithm::TvFilter).run(&pool, &g).unwrap();
        let seq = BccConfig::new(Algorithm::Sequential)
            .run(&pool, &g)
            .unwrap();
        assert_eq!(
            opt.result.edge_comp, filter.result.edge_comp,
            "algorithms must agree"
        );
        assert_eq!(opt.result.edge_comp, seq.result.edge_comp);

        let ratio = opt.report.total.as_secs_f64() / filter.report.total.as_secs_f64();
        println!(
            "{:>10} {:>12.3?} {:>12.3?} {:>12.3?} {:>7.2}x",
            m, opt.report.total, filter.report.total, seq.report.total, ratio
        );
    }

    println!(
        "\nTV-filter considers at most 2(n-1) = {} edges in its Low-high /",
        2 * (n - 1)
    );
    println!("Label-edge / Connected-components steps regardless of m.");
}
