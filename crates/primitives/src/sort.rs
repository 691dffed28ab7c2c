//! Parallel LSD radix sort on packed `u64` keys.
//!
//! TV-SMP needs a sort to group arcs by source vertex (the circular
//! adjacency list of its Euler tour). The paper uses the Helman–JáJá
//! sample sort; the tour packs each arc as a `(source << 32) | arc` key
//! and sorts those with this radix sort instead (EXPERIMENTS.md notes
//! the deviation).

use bcc_smp::{BccWorkspace, Ctx, Pool, SharedSlice, GRAIN};

/// Parallel LSD radix sort of `u64` keys (8 passes of 8 bits), stable.
///
/// Each pass: per-thread 256-bin histograms over block-partitioned input,
/// a (256 × p) exclusive scan by thread 0 in bin-major order (stability),
/// then a scatter with per-thread cursors. At p = 1, or below [`GRAIN`]
/// keys, the keys are sorted on the calling thread with `sort_unstable`
/// instead.
pub fn par_radix_sort_u64(pool: &Pool, a: &mut [u64]) {
    par_radix_sort_u64_ws(pool, a, &BccWorkspace::new())
}

/// [`par_radix_sort_u64`] with the O(n) double-buffer and O(256·p)
/// histogram taken from (and returned to) `ws`.
pub fn par_radix_sort_u64_ws(pool: &Pool, a: &mut [u64], ws: &BccWorkspace) {
    let n = a.len();
    let p = pool.threads();
    if p == 1 || n < GRAIN {
        a.sort_unstable();
        return;
    }
    const BINS: usize = 256;
    let mut buf: Vec<u64> = ws.take_filled(n, 0);
    let mut hist: Vec<usize> = ws.take_filled(BINS * p, 0);

    // Skip passes whose byte is constant across the array (common when
    // keys are packed (u,v) pairs with small vertex counts).
    let all_or: u64 = a.iter().fold(0, |acc, &x| acc | x);

    let mut src_is_a = true;
    for pass in 0..8 {
        let shift = pass * 8;
        if (all_or >> shift) & 0xFF == 0 && pass > 0 {
            continue;
        }
        hist.iter_mut().for_each(|h| *h = 0);
        {
            let (src, dst): (&mut [u64], &mut [u64]) = if src_is_a {
                (a, &mut buf)
            } else {
                (&mut buf, a)
            };
            let src_s = SharedSlice::new(src);
            let dst_s = SharedSlice::new(dst);
            let hist_s = SharedSlice::new(&mut hist);
            pool.run(|ctx: &Ctx| {
                let t = ctx.tid();
                let r = ctx.block_range(n);
                // Histogram own block. Four interleaved histograms break
                // the store-to-load forwarding dependency on same-bin
                // streaks (sorted or low-entropy bytes otherwise
                // serialize every increment on one counter), and the
                // 4-wide unroll keeps four loads in flight down a
                // purely sequential, prefetch-friendly stream.
                let block: &[u64] = unsafe { src_s.slice_mut(r.start, r.end) };
                let mut local = [[0usize; BINS]; 4];
                let mut quads = block.chunks_exact(4);
                for q in &mut quads {
                    local[0][((q[0] >> shift) & 0xFF) as usize] += 1;
                    local[1][((q[1] >> shift) & 0xFF) as usize] += 1;
                    local[2][((q[2] >> shift) & 0xFF) as usize] += 1;
                    local[3][((q[3] >> shift) & 0xFF) as usize] += 1;
                }
                for &x in quads.remainder() {
                    local[0][((x >> shift) & 0xFF) as usize] += 1;
                }
                let [l0, l1, l2, l3] = &local;
                for (b, (&c0, (&c1, (&c2, &c3)))) in
                    l0.iter().zip(l1.iter().zip(l2.iter().zip(l3))).enumerate()
                {
                    unsafe { hist_s.write(b * ctx.threads() + t, c0 + c1 + c2 + c3) };
                }
                ctx.barrier();
                // Thread 0: exclusive scan in bin-major order => stable.
                if ctx.is_leader() {
                    let h = unsafe { hist_s.slice_mut(0, BINS * ctx.threads()) };
                    crate::scan::exclusive_scan_seq(h);
                }
                ctx.barrier();
                // Scatter with per-thread cursors.
                let mut cursors = [0usize; BINS];
                for (b, c) in cursors.iter_mut().enumerate() {
                    *c = hist_s.get(b * ctx.threads() + t);
                }
                for i in r {
                    let x = src_s.get(i);
                    let b = ((x >> shift) & 0xFF) as usize;
                    unsafe { dst_s.write(cursors[b], x) };
                    cursors[b] += 1;
                }
            });
        }
        src_is_a = !src_is_a;
    }
    if !src_is_a {
        a.copy_from_slice(&buf);
    }
    ws.give(buf);
    ws.give(hist);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_u64s(n: usize, seed: u64, max: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..max)).collect()
    }

    #[test]
    fn radix_sort_matches_std() {
        for p in [1, 2, 4] {
            let pool = Pool::new(p);
            for n in [0usize, 1, 100, 1 << 14, 100_000] {
                let mut a = random_u64s(n, 3 * n as u64 + p as u64, u64::MAX);
                let mut want = a.clone();
                want.sort_unstable();
                par_radix_sort_u64(&pool, &mut a);
                assert_eq!(a, want, "p={p} n={n}");
            }
        }
    }

    #[test]
    fn radix_sort_small_key_range_uses_pass_skip() {
        let pool = Pool::new(4);
        let mut a = random_u64s(60_000, 5, 1 << 16); // only 2 live bytes
        let mut want = a.clone();
        want.sort_unstable();
        par_radix_sort_u64(&pool, &mut a);
        assert_eq!(a, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn radix_sort_equals_std(v in proptest::collection::vec(any::<u64>(), 0..4000),
                                 p in 1usize..5) {
            let pool = Pool::new(p);
            let mut a = v.clone();
            let mut want = v;
            want.sort_unstable();
            par_radix_sort_u64(&pool, &mut a);
            prop_assert_eq!(a, want);
        }
    }
}
