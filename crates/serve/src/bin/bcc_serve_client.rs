//! `bcc-serve-client` — drive a `bcc-serve --listen` daemon over TCP
//! with the same deterministic workloads the in-process driver uses,
//! and print round-trip SLO numbers measured from the client side.
//!
//! ```text
//! bcc-serve-client --addr HOST:PORT --n N
//!                  [--profile read-heavy|churn-heavy|hot-component|update-storm]
//!                  [--mode closed|open] [--rate 20000] [--secs 2]
//!                  [--parts 16] [--seed 42]
//! ```
//!
//! `--n` must match the served instance's vertex count (the workload
//! generator needs the component layout); `bcc-serve --listen` prints
//! it as `listening ADDR n N` at startup. An unknown flag, a flag
//! without a value, or a value that does not parse prints the usage
//! and exits 2.

mod flags;

use bcc_serve::{run_net_workload, Mode, Profile, WorkloadConfig};
use flags::{parse_flags, set};
use std::time::Duration;

const USAGE: &str = "bcc-serve-client: TCP workload driver for bcc-serve --listen\n\
     --addr A       server address (required), e.g. 127.0.0.1:7731\n\
     --n N          served instance's vertex count (required)\n\
     --profile P    read-heavy | churn-heavy | hot-component | update-storm\n\
     --mode M       closed | open (default open)\n\
     --rate Q       open-loop arrivals/sec (default 20000)\n\
     --secs T       drive duration in seconds (default 2)\n\
     --parts K      component count of the served instance\n\
     --seed X       workload seed (default 42)";

fn bad_usage(msg: &str) -> ! {
    eprintln!("bcc-serve-client: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let (mut addr, mut n) = (String::new(), 0u32);
    let (mut profile, mut closed, mut rate, mut secs) = (Profile::ReadHeavy, false, 20_000.0, 2.0);
    let (mut parts, mut seed) = (16u32, 42u64);
    let parsed = parse_flags(&args, |key, val| {
        Ok(match key {
            "--addr" => set(&mut addr, val),
            "--n" => set(&mut n, val),
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
            "--parts" => set(&mut parts, val),
            "--seed" => set(&mut seed, val),
            other => return Err(format!("unknown flag {other}")),
        })
    });
    if let Err(e) = parsed {
        bad_usage(&e);
    }
    if addr.is_empty() || n == 0 {
        bad_usage("--addr and --n are required");
    }
    let cfg = WorkloadConfig {
        profile,
        mode: if closed {
            Mode::Closed
        } else {
            Mode::Open { rate }
        },
        duration: Duration::from_secs_f64(secs),
        parts,
        seed,
    };

    let report = match run_net_workload(addr.as_str(), &cfg, n) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bcc-serve-client: {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "offered {} queries + {} updates in {:?} ({:.0} responses/s)",
        report.offered_queries,
        report.offered_updates,
        report.wall,
        report.responses_per_sec()
    );
    println!(
        "answered {}  accepted {}  shed {}  rejected {}",
        report.answered, report.accepted, report.shed, report.rejected_other
    );
    println!(
        "round-trip  p50 {:?}  p99 {:?}  p999 {:?}  max {:?}",
        report.latency.quantile_duration(0.50),
        report.latency.quantile_duration(0.99),
        report.latency.quantile_duration(0.999),
        Duration::from_nanos(report.latency.max()),
    );
    let lost = (report.offered_queries + report.offered_updates)
        .saturating_sub(report.answered + report.accepted + report.shed + report.rejected_other);
    if lost > 0 {
        eprintln!("bcc-serve-client: {lost} requests got no response");
        std::process::exit(1);
    }
}
