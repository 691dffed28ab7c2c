//! The `prims` bench tier: per-kernel cells for the vectorized
//! primitives substrate (word-level scan, popcount compaction, bitmap
//! sweeps, the radix histogram), emitted into the same `BENCH_bcc.json`
//! document as the algorithm grid and gated by the same `compare`.
//!
//! Each vectorized kernel is paired with a frozen pre-vectorization
//! reference running in the same process on the same data:
//!
//! | cell                  | measures                                   |
//! |-----------------------|--------------------------------------------|
//! | `scan-u32`/`scan-u64` | dispatched add-scan (AVX-512F on down)     |
//! | `scan-u32-generic`    | the generic `ScanElem` carried loop — the  |
//! | `scan-u64-generic`    | pre-vectorization scalar path, via a bench |
//! |                       | newtype that keeps the default block hooks |
//! | `compact-u32`         | bitmap-flag + popcount-offset compaction   |
//! | `compact-u32-scan-ref`| frozen u32-flag + full-scan reference      |
//! | `radix-u64`           | LSD radix sort (unrolled histogram pass)   |
//! | `bitmap-foreach`      | word-at-a-time `for_each_one` drain        |
//! | `bitmap-iter-ref`     | per-bit `iter_ones` drain (the old idiom)  |
//!
//! The reference cells carry a `-generic`/`-ref` suffix in their
//! `algorithm` field, so the "vectorized ≥ 1.5× the scalar path" claim
//! is checkable from the committed document alone — no pre-PR checkout
//! required — and both series are regression-gated cell-by-cell.
//!
//! Sizes are cache-resident on purpose: the kernels are measured where
//! their arithmetic shows, not where DRAM bandwidth hides it (the
//! algorithm grid already covers the memory-bound regime). The scan
//! cells go one step further and run L1-resident with 64x the reps —
//! an add-scan does one add per element, so even an L2 working set
//! drowns the in-register prefix in load/store traffic. Each sample
//! times `reps` back-to-back invocations and reports the
//! per-invocation mean (a `KernelCell`, whose set-up runs one untimed
//! round so every timed trial is steady state); trials are trial-major
//! like the rest of the grid, and `seconds_min` is the gate metric.

use crate::grid::GridConfig;
use crate::json::Json;
use crate::runner::{run_cells, Cells, KernelCell};
use bcc_primitives::compact::{compact_with_ws, reference};
use bcc_primitives::kernels;
use bcc_primitives::scan::{inclusive_scan_par_ws, ScanElem};
use bcc_primitives::sort::par_radix_sort_u64_ws;
use bcc_smp::{BccWorkspace, Bitmap, Pool};
use std::hint::black_box;

/// Base element count: L2-resident at full size (1 MiB of u32), tiny
/// for the CI smoke grid.
fn elems(cfg: &GridConfig) -> usize {
    if cfg.smoke {
        1 << 14
    } else {
        1 << 18
    }
}

/// Back-to-back invocations per timed sample. Kernel invocations at
/// these sizes are tens-to-hundreds of microseconds; batching them puts
/// each sample far above timer and pool-wake noise.
fn reps(cfg: &GridConfig) -> u32 {
    if cfg.smoke {
        64
    } else {
        16
    }
}

/// Per-kernel working-set size and rep count. Scan kernels shrink the
/// working set 64x (full size: 2^12 elements — 16/32 KiB, inside L1d
/// on anything current) and scale reps up by the same factor, so a
/// sample covers the same element count as the other cells.
fn kernel_shape(which: usize, cfg: &GridConfig) -> (usize, u32) {
    let (n, reps) = (elems(cfg), reps(cfg));
    if which < 4 {
        (n >> 6, reps * 64)
    } else {
        (n, reps)
    }
}

/// `u32` scan input with the *generic* `ScanElem` path: only the
/// required items are provided, so the provided block hooks stay at
/// their naive carried-loop defaults — bit-identical in shape to the
/// pre-vectorization scalar path.
#[derive(Copy, Clone)]
struct GenericU32(u32);
impl ScanElem for GenericU32 {
    const ZERO: Self = GenericU32(0);
    #[inline]
    fn combine(self, other: Self) -> Self {
        GenericU32(self.0.wrapping_add(other.0))
    }
}

/// [`GenericU32`]'s u64 twin.
#[derive(Copy, Clone)]
struct GenericU64(u64);
impl ScanElem for GenericU64 {
    const ZERO: Self = GenericU64(0);
    #[inline]
    fn combine(self, other: Self) -> Self {
        GenericU64(self.0.wrapping_add(other.0))
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

/// Kernel names, in cell order; the `-generic`/`-ref` suffix marks a
/// frozen reference series. The first four are the scan kernels
/// [`kernel_shape`] runs L1-resident.
const KERNELS: [&str; 9] = [
    "scan-u32",
    "scan-u32-generic",
    "scan-u64",
    "scan-u64-generic",
    "compact-u32",
    "compact-u32-scan-ref",
    "radix-u64",
    "bitmap-foreach",
    "bitmap-iter-ref",
];

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

/// One invocation of kernel `which` over its own ~`n`-element working
/// set (deterministic in `seed`) and arena. Scan and sort kernels
/// mutate their buffer in place; the result of one rep is a valid input
/// for the next (wrapping adds, already-sorted keys cost the same as
/// shuffled ones through a radix pass), so the timed region is the
/// kernel alone — no per-rep re-initialization. The compaction
/// predicate keeps ~half the elements (low bit of random data),
/// matching the tree/nontree splits the pipeline compacts.
fn kernel<'a>(which: usize, n: usize, seed: u64, pool: &'a Pool) -> Box<dyn FnMut() + 'a> {
    let words = fill_u64(n, seed ^ (which as u64) << 32);
    let mut u32s: Vec<u32> = words.iter().map(|&x| x as u32).collect();
    let ws = BccWorkspace::new();
    match which {
        0 => Box::new(move || inclusive_scan_par_ws(pool, &mut u32s, &ws)),
        1 => {
            let mut v: Vec<GenericU32> = u32s.into_iter().map(GenericU32).collect();
            Box::new(move || inclusive_scan_par_ws(pool, &mut v, &ws))
        }
        2 => {
            let mut v = words;
            Box::new(move || inclusive_scan_par_ws(pool, &mut v, &ws))
        }
        3 => {
            let mut v: Vec<GenericU64> = words.into_iter().map(GenericU64).collect();
            Box::new(move || inclusive_scan_par_ws(pool, &mut v, &ws))
        }
        4 => Box::new(move || {
            let out = compact_with_ws(pool, &u32s, |_, &x| x & 1 == 0, &ws);
            black_box(out.len());
            ws.give(out);
        }),
        5 => Box::new(move || {
            let out = reference::compact_with_scan(pool, &u32s, |_, &x| x & 1 == 0);
            black_box(out.len());
        }),
        6 => {
            let mut v = words;
            Box::new(move || par_radix_sort_u64_ws(pool, &mut v, &ws))
        }
        7 => {
            let bm = random_bitmap(&words, n);
            Box::new(move || {
                let mut acc = 0u64;
                bm.for_each_one(|i| acc = acc.wrapping_add(i as u64));
                black_box(acc);
            })
        }
        8 => {
            let bm = random_bitmap(&words, n);
            Box::new(move || {
                black_box(bm.iter_ones().fold(0u64, |a, i| a.wrapping_add(i as u64)));
            })
        }
        _ => unreachable!("kernel index out of range"),
    }
}

/// The kernel cells as `(family summaries, entries)` in the grid's
/// document shape. Parallel kernels sweep `cfg.threads`; the serial
/// bitmap drains (the last two kernels) emit one cell at p = 1.
pub(crate) fn prims_cells(
    cfg: &GridConfig,
    progress: &mut dyn FnMut(&str),
) -> (Vec<Json>, Vec<Json>) {
    let pools: Vec<Pool> = cfg.threads.iter().map(|&p| Pool::new(p)).collect();
    let simd = kernels::simd_level();
    let mut cells: Cells = vec![];
    for (which, name) in KERNELS.into_iter().enumerate() {
        let sweep = if which < 7 { &pools[..] } else { &pools[..1] };
        let (n, reps) = kernel_shape(which, cfg);
        for pool in sweep {
            let fields = vec![
                ("family", Json::str("prims")),
                ("algorithm", Json::str(name)),
                ("n", Json::num(n as f64)),
                ("threads", Json::num(pool.threads() as f64)),
                ("reps", Json::num(f64::from(reps))),
                ("simd", Json::str(simd)),
            ];
            let run = kernel(which, n, cfg.seed, pool);
            cells.push(Box::new(KernelCell::new(fields, reps, run)));
        }
    }
    let entries = run_cells("prims", &mut cells, cfg.trials, progress);
    let family = Json::obj(vec![
        ("family", Json::str("prims")),
        ("n", Json::num(elems(cfg) as f64)),
        ("reps", Json::num(f64::from(reps(cfg)))),
        ("simd", Json::str(simd)),
    ]);
    (vec![family], entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel variant constructs and runs, and the names are
    /// unique.
    #[test]
    fn kernels_build_and_run() {
        let pool = Pool::new(2);
        for which in 0..KERNELS.len() {
            let mut k = kernel(which, 130, 7, &pool);
            k();
            k();
        }
        let names: std::collections::BTreeSet<_> = KERNELS.iter().collect();
        assert_eq!(names.len(), KERNELS.len());
    }

    /// The generic newtypes really take the default (naive) block
    /// hooks: a scan through them matches the vectorized u32 scan
    /// value-for-value.
    #[test]
    fn generic_newtype_scan_matches_dispatched_scan() {
        let pool = Pool::new(2);
        let ws = BccWorkspace::new();
        let base: Vec<u32> = fill_u64(1000, 3).iter().map(|&x| x as u32).collect();
        let mut fast = base.clone();
        let mut slow: Vec<GenericU32> = base.iter().map(|&x| GenericU32(x)).collect();
        inclusive_scan_par_ws(&pool, &mut fast, &ws);
        inclusive_scan_par_ws(&pool, &mut slow, &ws);
        assert!(fast.iter().zip(&slow).all(|(&a, b)| a == b.0));
    }

    /// The bitmap builder masks tail bits past `len`, so the drain
    /// kernels never see ghost indices.
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
