//! Popcount-based stream compaction over bitmap flags.
//!
//! The paper's Alg. 1 discovers auxiliary-graph edges into a sparse 3m
//! slot array and "compacts L' into G' using prefix sums"; this module is
//! that step: keep the elements satisfying a predicate, preserving order,
//! with work split across the pool.
//!
//! The flag array is a [`Bitmap`], not a `u32` per element — 32× less
//! flag traffic — and the prefix sum over flags collapses to one
//! `popcnt` per 64 elements: each thread popcounts the words it owns
//! (word-aligned partitioning, plain stores, no atomics), an O(p) scan
//! of the per-thread counts yields block offsets, and the scatter walks
//! set bits with [`Bitmap::for_each_one_in`]. Two pool dispatches
//! instead of three (flag+count fuses what used to be flag then scan),
//! the predicate runs exactly once per element, and the output is
//! written once per slot through spare capacity — no fill-then-overwrite
//! pass. Both passes go through [`Pool::run_sized`], so below
//! [`GRAIN`](bcc_smp::GRAIN) elements they run on the calling thread as
//! one block and are no pool phase, the rule the scans follow. Its
//! serial twin is an `iter().filter().collect()`: the tests use it as
//! the oracle, and the `prims` bench tier times it beside
//! `compact-u32`.

use bcc_smp::{BccWorkspace, Bitmap, Ctx, Pool, SharedSlice};
use std::mem::MaybeUninit;

/// Flag pass fused with the count: each thread owns whole bitmap words
/// ([`Bitmap::word_range_of`] partitioning), evaluates `keep` exactly
/// once per element while packing its words, and popcounts as it goes.
/// On return `counts[t]` is the number of kept elements before thread
/// `t`'s block and `counts[p]` the grand total (below the grain one
/// block covers everything and the later ones are empty).
fn flag_and_count<F>(pool: &Pool, n: usize, flags: &Bitmap, counts: &mut [u64], keep: F)
where
    F: Fn(usize) -> bool + Sync,
{
    debug_assert_eq!(counts.len(), pool.threads() + 1);
    counts[0] = 0;
    let counts_s = SharedSlice::new(counts);
    pool.run_sized(n, |ctx: &Ctx| {
        let words = ctx.block_range_of(Bitmap::word_range_of(0..n));
        let mut local = 0u64;
        for w in words {
            let hi = (w * 64 + 64).min(n);
            let mut bits = 0u64;
            for i in w * 64..hi {
                bits |= u64::from(keep(i)) << (i % 64);
            }
            flags.store_word_unsync(w, bits);
            local += u64::from(bits.count_ones());
        }
        unsafe { counts_s.write(ctx.tid() + 1, local) };
    });
    crate::scan::inclusive_scan_seq(counts);
}

/// Scatter pass: thread `t` starts its cursor at `counts[t]` and walks
/// its own words' set bits, writing `emit(i)` once per kept element
/// into `out`'s spare capacity (then `set_len` publishes them).
fn scatter<T, G>(pool: &Pool, n: usize, flags: &Bitmap, counts: &[u64], out: &mut Vec<T>, emit: G)
where
    T: Copy + Send + Sync,
    G: Fn(usize) -> T + Sync,
{
    let total = counts[pool.threads()] as usize;
    debug_assert!(out.is_empty());
    let spare = &mut out.spare_capacity_mut()[..total];
    let out_s = SharedSlice::new(spare);
    pool.run_sized(n, |ctx: &Ctx| {
        let words = ctx.block_range_of(Bitmap::word_range_of(0..n));
        let mut cursor = counts[ctx.tid()] as usize;
        flags.for_each_one_in(words.start * 64..words.end * 64, |i| {
            unsafe { out_s.write(cursor, MaybeUninit::new(emit(i))) };
            cursor += 1;
        });
        debug_assert_eq!(cursor, counts[ctx.tid() + 1] as usize);
    });
    // SAFETY: every slot in 0..total was written exactly once — the
    // cursors partition 0..total by construction of `counts`.
    unsafe { out.set_len(total) };
}

/// Returns the elements `a[i]` for which `keep(i, a[i])` is true, in
/// order, using the parallel flag+popcount → scatter pipeline (scratch
/// from a fresh arena; see [`compact_with_ws`]).
///
/// ```
/// use bcc_primitives::compact::compact_with;
/// use bcc_smp::Pool;
///
/// let evens = compact_with(&Pool::new(2), &[1u32, 2, 3, 4], |_, &x| x % 2 == 0);
/// assert_eq!(evens, vec![2, 4]);
/// ```
pub fn compact_with<T, F>(pool: &Pool, a: &[T], keep: F) -> Vec<T>
where
    T: Copy + Send + Sync + 'static,
    F: Fn(usize, &T) -> bool + Sync,
{
    compact_with_ws(pool, a, keep, &BccWorkspace::new())
}

/// [`compact_with`] with every buffer drawn from `ws`: the bitmap lines
/// and count scratch are returned to the arena before this function
/// returns, and the *output* vector is also taken from `ws` — the
/// caller owns it and decides when (whether) to give it back.
pub fn compact_with_ws<T, F>(pool: &Pool, a: &[T], keep: F, ws: &BccWorkspace) -> Vec<T>
where
    T: Copy + Send + Sync + 'static,
    F: Fn(usize, &T) -> bool + Sync,
{
    compact_by(pool, a.len(), |i| keep(i, &a[i]), |i| a[i], ws)
}

/// Returns the *indices* `i` with `flag(i)` true, in ascending order
/// (scratch from a fresh arena; see [`compact_indices_ws`]).
pub fn compact_indices<F>(pool: &Pool, n: usize, flag: F) -> Vec<u32>
where
    F: Fn(usize) -> bool + Sync,
{
    compact_indices_ws(pool, n, flag, &BccWorkspace::new())
}

/// [`compact_indices`] with scratch and output drawn from `ws` (the
/// caller owns the returned vector).
pub fn compact_indices_ws<F>(pool: &Pool, n: usize, flag: F, ws: &BccWorkspace) -> Vec<u32>
where
    F: Fn(usize) -> bool + Sync,
{
    compact_by(pool, n, flag, |i| i as u32, ws)
}

/// The one compaction body: flag+count, then scatter `emit(i)` for
/// every kept `i`, with bitmap, counts and output drawn from `ws`.
fn compact_by<T, F, G>(pool: &Pool, n: usize, keep: F, emit: G, ws: &BccWorkspace) -> Vec<T>
where
    T: Copy + Send + Sync + 'static,
    F: Fn(usize) -> bool + Sync,
    G: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return ws.take(0);
    }
    let flags = Bitmap::new_in(n, ws);
    let mut counts: Vec<u64> = ws.take_filled(pool.threads() + 1, 0);
    flag_and_count(pool, n, &flags, &mut counts, keep);
    let total = counts[pool.threads()] as usize;
    let mut out: Vec<T> = ws.take(total);
    if total > 0 {
        scatter(pool, n, &flags, &counts, &mut out, emit);
    }
    flags.recycle(ws);
    ws.give(counts);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_smp::{Telemetry, GRAIN};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn keeps_evens_in_order() {
        let pool = Pool::new(4);
        let a: Vec<u32> = (0..1000).collect();
        let out = compact_with(&pool, &a, |_, &x| x % 2 == 0);
        assert_eq!(out.len(), 500);
        assert!(out.iter().enumerate().all(|(i, &x)| x == 2 * i as u32));
    }

    #[test]
    fn empty_input_and_empty_output() {
        let pool = Pool::new(3);
        let none: Vec<u32> = vec![];
        assert!(compact_with(&pool, &none, |_, _| true).is_empty());
        let a = vec![1u32, 2, 3];
        assert!(compact_with(&pool, &a, |_, _| false).is_empty());
        assert!(compact_indices(&pool, 0, |_| true).is_empty());
    }

    #[test]
    fn keep_all_is_identity() {
        let pool = Pool::new(2);
        let a: Vec<u64> = (0..777).map(|i| i * 3).collect();
        assert_eq!(compact_with(&pool, &a, |_, _| true), a);
    }

    #[test]
    fn indices_of_multiples() {
        let pool = Pool::new(4);
        let idx = compact_indices(&pool, 100, |i| i % 7 == 0);
        assert_eq!(
            idx,
            (0..100)
                .filter(|i| i % 7 == 0)
                .map(|i| i as u32)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn predicate_runs_exactly_once_per_element() {
        let pool = Pool::new(4);
        let a: Vec<u32> = (0..5000).collect();
        let calls = AtomicUsize::new(0);
        let out = compact_with(&pool, &a, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x % 3 == 0
        });
        assert_eq!(out.len(), a.iter().filter(|&&x| x % 3 == 0).count());
        assert_eq!(calls.load(Ordering::Relaxed), a.len());
        calls.store(0, Ordering::Relaxed);
        let idx = compact_indices(&pool, a.len(), |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i % 3 == 0
        });
        assert_eq!(idx.len(), out.len());
        assert_eq!(calls.load(Ordering::Relaxed), a.len());
    }

    #[test]
    fn below_grain_compaction_is_not_a_pool_phase() {
        for p in [2, 3] {
            let sink = Arc::new(Telemetry::new(p));
            let pool = Pool::builder()
                .threads(p)
                .telemetry(Arc::clone(&sink))
                .build();
            let a: Vec<u32> = (0..GRAIN as u32 - 1).collect();
            let odd = compact_with(&pool, &a, |_, &x| x % 2 == 1);
            assert_eq!(
                odd,
                a.iter().copied().filter(|x| x % 2 == 1).collect::<Vec<_>>()
            );
            assert_eq!(sink.snapshot().phase_runs, 0, "p={p}");
            let idx = compact_indices(&pool, GRAIN, |i| i % 3 == 0);
            assert_eq!(idx.len(), GRAIN.div_ceil(3));
            assert_eq!(sink.snapshot().phase_runs, 2, "p={p}");
        }
    }

    #[test]
    fn ws_variants_match_plain() {
        let pool = Pool::new(4);
        let ws = bcc_smp::BccWorkspace::new();
        let a: Vec<u32> = (0..2000).map(|i| i * 7 % 613).collect();
        for _ in 0..2 {
            let got = compact_with_ws(&pool, &a, |_, &x| x % 3 == 0, &ws);
            assert_eq!(got, compact_with(&pool, &a, |_, &x| x % 3 == 0));
            ws.give(got);
            let idx = compact_indices_ws(&pool, a.len(), |i| a[i].is_multiple_of(5), &ws);
            assert_eq!(
                idx,
                compact_indices(&pool, a.len(), |i| a[i].is_multiple_of(5))
            );
            ws.give(idx);
        }
        let s = ws.stats();
        assert_eq!(s.misses + s.hits, 12, "3 takes per ws call");
        assert!(s.misses <= 3, "second round must be all hits, got {s:?}");
    }

    proptest! {
        #[test]
        fn matches_iterator_filter(v in proptest::collection::vec(any::<u32>(), 0..800),
                                   p in 1usize..5) {
            let pool = Pool::new(p);
            let got = compact_with(&pool, &v, |_, &x| x % 3 == 1);
            let want: Vec<u32> = v.iter().copied().filter(|&x| x % 3 == 1).collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn matches_iterator_filter_across_moduli(v in proptest::collection::vec(any::<u32>(), 0..800),
                                                 m in 1u32..7, p in 1usize..5) {
            let pool = Pool::new(p);
            let got = compact_with(&pool, &v, |_, &x| x % m == 0);
            let want: Vec<u32> = v.iter().copied().filter(|&x| x % m == 0).collect();
            prop_assert_eq!(got, want);
        }
    }
}
