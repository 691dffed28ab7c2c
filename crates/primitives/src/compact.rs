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
//! pass. The earlier u32-flag path survives in
//! [`reference`](mod@reference) as the bench baseline and test oracle.

use bcc_smp::{BccWorkspace, Bitmap, Ctx, Pool, SharedSlice};
use std::mem::MaybeUninit;

/// Flag pass fused with the count: each thread owns whole bitmap words
/// ([`Bitmap::word_range_of`] partitioning), evaluates `keep` exactly
/// once per element while packing its words, and popcounts as it goes.
/// On return `counts[t]` is the number of kept elements before thread
/// `t`'s block and `counts[p]` the grand total.
fn flag_and_count<F>(pool: &Pool, n: usize, flags: &Bitmap, counts: &mut [u64], keep: F)
where
    F: Fn(usize) -> bool + Sync,
{
    debug_assert_eq!(counts.len(), pool.threads() + 1);
    counts[0] = 0;
    let counts_s = SharedSlice::new(counts);
    pool.run(|ctx: &Ctx| {
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
    pool.run(|ctx: &Ctx| {
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
/// order, using the parallel flag+popcount → scatter pipeline.
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
    T: Copy + Send + Sync,
    F: Fn(usize, &T) -> bool + Sync,
{
    let n = a.len();
    if n == 0 {
        return vec![];
    }
    let flags = Bitmap::new(n);
    let mut counts = vec![0u64; pool.threads() + 1];
    flag_and_count(pool, n, &flags, &mut counts, |i| keep(i, &a[i]));
    let total = counts[pool.threads()] as usize;
    let mut out: Vec<T> = Vec::with_capacity(total);
    if total > 0 {
        scatter(pool, n, &flags, &counts, &mut out, |i| a[i]);
    }
    out
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
    let n = a.len();
    if n == 0 {
        return ws.take(0);
    }
    let flags = Bitmap::new_in(n, ws);
    let mut counts: Vec<u64> = ws.take_filled(pool.threads() + 1, 0);
    flag_and_count(pool, n, &flags, &mut counts, |i| keep(i, &a[i]));
    let total = counts[pool.threads()] as usize;
    let mut out: Vec<T> = ws.take(total);
    if total > 0 {
        scatter(pool, n, &flags, &counts, &mut out, |i| a[i]);
    }
    flags.recycle(ws);
    ws.give(counts);
    out
}

/// Returns the *indices* `i` with `flag(i)` true, in ascending order.
pub fn compact_indices<F>(pool: &Pool, n: usize, flag: F) -> Vec<u32>
where
    F: Fn(usize) -> bool + Sync,
{
    if n == 0 {
        return vec![];
    }
    let flags = Bitmap::new(n);
    let mut counts = vec![0u64; pool.threads() + 1];
    flag_and_count(pool, n, &flags, &mut counts, &flag);
    let total = counts[pool.threads()] as usize;
    let mut out: Vec<u32> = Vec::with_capacity(total);
    if total > 0 {
        scatter(pool, n, &flags, &counts, &mut out, |i| i as u32);
    }
    out
}

/// [`compact_indices`] with scratch and output drawn from `ws` (the
/// caller owns the returned vector).
pub fn compact_indices_ws<F>(pool: &Pool, n: usize, flag: F, ws: &BccWorkspace) -> Vec<u32>
where
    F: Fn(usize) -> bool + Sync,
{
    if n == 0 {
        return ws.take(0);
    }
    let flags = Bitmap::new_in(n, ws);
    let mut counts: Vec<u64> = ws.take_filled(pool.threads() + 1, 0);
    flag_and_count(pool, n, &flags, &mut counts, &flag);
    let total = counts[pool.threads()] as usize;
    let mut out: Vec<u32> = ws.take(total);
    if total > 0 {
        scatter(pool, n, &flags, &counts, &mut out, |i| i as u32);
    }
    flags.recycle(ws);
    ws.give(counts);
    out
}

/// The pre-PR scan-flag compaction, frozen verbatim as the `prims`
/// bench baseline and a differential-test oracle. Known costs the live
/// path removes: a `u32` flag per element, a full parallel scan over
/// those flags, the predicate evaluated twice per kept element, and a
/// fill-then-overwrite of the output. Do not "fix" or use it outside
/// benches/tests.
pub mod reference {
    use crate::scan::exclusive_scan_par;
    use bcc_smp::{Pool, SharedSlice};

    /// Pre-PR [`compact_with`](super::compact_with): u32 flags → scan →
    /// re-evaluating scatter.
    pub fn compact_with_scan<T, F>(pool: &Pool, a: &[T], keep: F) -> Vec<T>
    where
        T: Copy + Send + Sync,
        F: Fn(usize, &T) -> bool + Sync,
    {
        let n = a.len();
        if n == 0 {
            return vec![];
        }
        // Flags as u32 for the scan.
        let mut pos = vec![0u32; n];
        {
            let pos_s = SharedSlice::new(&mut pos);
            pool.run(|ctx| {
                for i in ctx.block_range(n) {
                    unsafe { pos_s.write(i, u32::from(keep(i, &a[i]))) };
                }
            });
        }
        let total = exclusive_scan_par(pool, &mut pos) as usize;
        let mut out: Vec<T> = Vec::with_capacity(total);
        if total == 0 {
            return out;
        }
        out.resize(total, a[0]);
        {
            let out_s = SharedSlice::new(&mut out);
            let pos_ro: &[u32] = &pos;
            pool.run(|ctx| {
                for i in ctx.block_range(n) {
                    if keep(i, &a[i]) {
                        unsafe { out_s.write(pos_ro[i] as usize, a[i]) };
                    }
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        fn matches_frozen_scan_reference(v in proptest::collection::vec(any::<u32>(), 0..800),
                                         m in 1u32..7, p in 1usize..5) {
            let pool = Pool::new(p);
            let got = compact_with(&pool, &v, |_, &x| x % m == 0);
            let want = reference::compact_with_scan(&pool, &v, |_, &x| x % m == 0);
            prop_assert_eq!(got, want);
        }
    }
}
