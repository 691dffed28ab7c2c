//! The `prims` bench tier: per-kernel cells for the parallel
//! primitives (scan, compaction, radix sort) and the bitmap drain,
//! emitted into the same BENCH document as the algorithm grid and gated
//! by the same `compare`.
//!
//! Each parallel kernel runs beside its serial twin, on the same data
//! in the same process, so whether the pool pays is checkable from one
//! document:
//!
//! | cell              | measures                                         |
//! |-------------------|--------------------------------------------------|
//! | `scan-u32`        | `inclusive_scan_par_ws` over `u32`               |
//! | `scan-u32-seq`    | its serial twin, `inclusive_scan_seq`            |
//! | `scan-u64`        | `inclusive_scan_par_ws` over `u64`               |
//! | `scan-u64-seq`    | `inclusive_scan_seq` over `u64`                  |
//! | `compact-u32`     | bitmap-flag + popcount-offset `compact_with_ws`  |
//! | `compact-u32-seq` | `iter().filter().collect()`                      |
//! | `radix-u64`       | `par_radix_sort_u64_ws` (LSD radix sort)         |
//! | `radix-u64-seq`   | `sort_unstable`                                  |
//! | `bitmap-foreach`  | the word-at-a-time `for_each_one` drain           |
//!
//! The parallel kernels sweep the configured thread counts; the serial
//! cells run once, at p = 1. Every cell works on the tier's one element
//! count (2^18, or 2^14 with `--smoke`), cache-resident on purpose: the
//! algorithm grid already covers the memory-bound regime. Each sample
//! times `reps` back-to-back invocations and reports the
//! per-invocation mean (a `KernelCell`, whose set-up runs one untimed
//! round so every timed trial is steady state); trials are trial-major
//! like the rest of the grid, and `seconds_min` is the gate metric.

use crate::grid::GridConfig;
use crate::json::Json;
use crate::runner::{run_cells, Cells, KernelCell};
use bcc_primitives::compact::compact_with_ws;
use bcc_primitives::scan::{inclusive_scan_par_ws, inclusive_scan_seq};
use bcc_primitives::sort::par_radix_sort_u64_ws;
use bcc_smp::{BccWorkspace, Bitmap, Pool};
use std::hint::black_box;

/// Element count of every cell: L2-resident at full size (1 MiB of
/// u32), tiny for the CI smoke grid.
fn elems(cfg: &GridConfig) -> usize {
    if cfg.smoke {
        1 << 14
    } else {
        1 << 18
    }
}

/// Back-to-back invocations per timed sample. Kernel invocations at
/// these sizes are microseconds to milliseconds; batching them puts
/// each sample far above timer and pool-wake noise.
fn reps(cfg: &GridConfig) -> u32 {
    if cfg.smoke {
        64
    } else {
        16
    }
}

/// Deterministic fill (splitmix64) — no `rand` dependency, same data
/// on every host for a given seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fill_u64(n: usize, seed: u64) -> Vec<u64> {
    let mut s = seed;
    (0..n).map(|_| splitmix64(&mut s)).collect()
}

/// Kernel names, in cell order: each parallel kernel, then its serial
/// twin (`-seq`), then the serial bitmap drain.
const KERNELS: [&str; 9] = [
    "scan-u32",
    "scan-u32-seq",
    "scan-u64",
    "scan-u64-seq",
    "compact-u32",
    "compact-u32-seq",
    "radix-u64",
    "radix-u64-seq",
    "bitmap-foreach",
];

/// Whether kernel `name` runs on the calling thread alone, and so gets
/// one cell at p = 1 instead of a thread sweep.
fn is_serial(name: &str) -> bool {
    name.ends_with("-seq") || name == "bitmap-foreach"
}

/// Bitmap of `n` half-dense random bits — the regime the BFS sweep and
/// compaction scatter see — with the tail past `n` masked off.
fn random_bitmap(words: &[u64], n: usize) -> Bitmap {
    let bm = Bitmap::new(n);
    for (w, &bits) in words.iter().take(bm.words()).enumerate() {
        let hi = n - w * 64;
        let mask = if hi >= 64 { !0 } else { (1u64 << hi) - 1 };
        bm.store_word_unsync(w, bits & mask);
    }
    bm
}

/// One invocation of kernel `name` over its own `n`-element working
/// set (deterministic in `seed`, the same for a kernel and its twin)
/// and arena. The scans mutate their buffer in place, and the result
/// of one rep is a valid input for the next (wrapping adds), so the
/// timed region is the kernel alone. The sorts copy the same shuffled
/// keys in before every rep, since `sort_unstable` finishes a sorted
/// input in one pass. The compaction predicate keeps ~half the
/// elements (low bit of random data), matching the tree/nontree splits
/// the pipeline compacts.
fn kernel<'a>(name: &str, n: usize, seed: u64, pool: &'a Pool) -> Box<dyn FnMut() + 'a> {
    let words = fill_u64(n, seed);
    let mut u32s: Vec<u32> = words.iter().map(|&x| x as u32).collect();
    let ws = BccWorkspace::new();
    let mut keys = words.clone();
    match name {
        "scan-u32" => Box::new(move || inclusive_scan_par_ws(pool, &mut u32s, &ws)),
        "scan-u32-seq" => Box::new(move || inclusive_scan_seq(&mut u32s)),
        "scan-u64" => Box::new(move || inclusive_scan_par_ws(pool, &mut keys, &ws)),
        "scan-u64-seq" => Box::new(move || inclusive_scan_seq(&mut keys)),
        "compact-u32" => Box::new(move || {
            let out = compact_with_ws(pool, &u32s, |_, &x| x & 1 == 0, &ws);
            black_box(out.len());
            ws.give(out);
        }),
        "compact-u32-seq" => Box::new(move || {
            let out: Vec<u32> = u32s.iter().copied().filter(|&x| x & 1 == 0).collect();
            black_box(out.len());
        }),
        "radix-u64" => Box::new(move || {
            keys.copy_from_slice(&words);
            par_radix_sort_u64_ws(pool, &mut keys, &ws);
        }),
        "radix-u64-seq" => Box::new(move || {
            keys.copy_from_slice(&words);
            keys.sort_unstable();
        }),
        "bitmap-foreach" => {
            let bm = random_bitmap(&words, n);
            Box::new(move || {
                let mut acc = 0u64;
                bm.for_each_one(|i| acc = acc.wrapping_add(i as u64));
                black_box(acc);
            })
        }
        _ => unreachable!("unknown kernel {name}"),
    }
}

/// The kernel cells as `(family summaries, entries)` in the grid's
/// document shape. Parallel kernels sweep `cfg.threads`; the serial
/// cells emit one cell at p = 1.
pub(crate) fn prims_cells(
    cfg: &GridConfig,
    progress: &mut dyn FnMut(&str),
) -> (Vec<Json>, Vec<Json>) {
    let pools: Vec<Pool> = cfg.threads.iter().map(|&p| Pool::new(p)).collect();
    let (n, reps) = (elems(cfg), reps(cfg));
    let mut cells: Cells = vec![];
    for name in KERNELS {
        let sweep = if is_serial(name) {
            &pools[..1]
        } else {
            &pools[..]
        };
        for pool in sweep {
            let fields = vec![
                ("family", Json::str("prims")),
                ("algorithm", Json::str(name)),
                ("n", Json::num(n as f64)),
                ("threads", Json::num(pool.threads() as f64)),
                ("reps", Json::num(f64::from(reps))),
            ];
            let run = kernel(name, n, cfg.seed, pool);
            cells.push(Box::new(KernelCell::new(fields, reps, run)));
        }
    }
    let entries = run_cells("prims", &mut cells, cfg.trials, progress);
    let family = Json::obj(vec![
        ("family", Json::str("prims")),
        ("n", Json::num(n as f64)),
        ("reps", Json::num(f64::from(reps))),
    ]);
    (vec![family], entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel constructs and runs, the names are unique, and
    /// each parallel kernel has a serial twin.
    #[test]
    fn kernels_build_and_run() {
        let pool = Pool::new(2);
        for name in KERNELS {
            let mut k = kernel(name, 130, 7, &pool);
            k();
            k();
        }
        let names: std::collections::BTreeSet<_> = KERNELS.iter().collect();
        assert_eq!(names.len(), KERNELS.len());
        for name in KERNELS.iter().filter(|k| !is_serial(k)) {
            assert!(KERNELS.contains(&format!("{name}-seq").as_str()), "{name}");
        }
    }

    /// The bitmap builder masks tail bits past `len`, so the drain
    /// kernel never sees ghost indices.
    #[test]
    fn bitmap_build_respects_length() {
        for n in [1usize, 63, 64, 65, 130] {
            let bm = random_bitmap(&fill_u64(n, 9), n);
            let mut max_seen = 0;
            bm.for_each_one(|i| max_seen = max_seen.max(i));
            assert!(max_seen < n, "bit {max_seen} >= len {n}");
        }
    }
}
