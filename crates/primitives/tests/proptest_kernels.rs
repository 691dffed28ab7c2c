//! Property tests for the parallel primitives, each checked against a
//! serial oracle written inline here: a carried `wrapping_add` loop for
//! the scans, a `filter` collect for compaction, a per-bit `test(i)`
//! probe for the bitmap drains.
//!
//! Scan and compaction lengths fall on both sides of [`GRAIN`], so
//! every case reaches the calling-thread path or the pool path, and
//! sub-slice offsets keep the scans' block boundaries off any
//! alignment.

use bcc_primitives::compact::{compact_indices_ws, compact_with_ws};
use bcc_primitives::scan::{exclusive_scan_par_ws, inclusive_scan_par_ws};
use bcc_smp::{BccWorkspace, Bitmap, Pool, GRAIN};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Scalar oracle: inclusive wrapping add-scan.
fn oracle_incl<T: Copy>(a: &[T], zero: T, add: impl Fn(T, T) -> T) -> Vec<T> {
    let mut c = zero;
    a.iter()
        .map(|&x| {
            c = add(c, x);
            c
        })
        .collect()
}

/// Scalar oracle: exclusive wrapping add-scan and its total.
fn oracle_excl<T: Copy>(a: &[T], zero: T, add: impl Fn(T, T) -> T) -> (Vec<T>, T) {
    let mut c = zero;
    let out = a
        .iter()
        .map(|&x| {
            let before = c;
            c = add(c, x);
            before
        })
        .collect();
    (out, c)
}

/// Strategy: a length below 300 or within 150 of [`GRAIN`].
fn len_around_grain() -> impl Strategy<Value = usize> {
    (0usize..300, any::<bool>()).prop_map(|(len, big)| if big { GRAIN - 150 + len } else { len })
}

/// Strategy: a u64 buffer of [`len_around_grain`] elements, plus a
/// window offset.
fn scan_input() -> impl Strategy<Value = (Vec<u64>, usize)> {
    (len_around_grain(), 0usize..7).prop_flat_map(|(len, off)| {
        (
            proptest::collection::vec(any::<u64>(), len..len + 1),
            Just(off),
        )
    })
}

proptest! {
    // The pool-parallel scans agree with the oracle across thread
    // counts, for `u64` and `u32` elements.
    #[test]
    fn parallel_scans_match_oracle((base, off) in scan_input(), threads in 1usize..4) {
        let pool = Pool::new(threads);
        let ws = BccWorkspace::new();
        let src = &base[off.min(base.len())..];

        let mut got = src.to_vec();
        inclusive_scan_par_ws(&pool, &mut got, &ws);
        prop_assert_eq!(&got, &oracle_incl(src, 0, u64::wrapping_add));

        let mut got = src.to_vec();
        let total = exclusive_scan_par_ws(&pool, &mut got, &ws);
        let (want, want_total) = oracle_excl(src, 0, u64::wrapping_add);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(total, want_total);

        let src32: Vec<u32> = src.iter().map(|&x| x as u32).collect();
        let mut got = src32.clone();
        inclusive_scan_par_ws(&pool, &mut got, &ws);
        prop_assert_eq!(&got, &oracle_incl(&src32, 0, u32::wrapping_add));
    }

    // Popcount compaction returns exactly the kept elements in order
    // and evaluates the predicate exactly once per element.
    #[test]
    fn compaction_matches_filter_oracle(
        xs in len_around_grain()
            .prop_flat_map(|len| proptest::collection::vec(any::<u32>(), len..len + 1)),
        threads in 1usize..4,
        modulus in 2u32..5,
    ) {
        let pool = Pool::new(threads);
        let ws = BccWorkspace::new();
        let keep = |x: u32| x.is_multiple_of(modulus);
        let want: Vec<u32> = xs.iter().copied().filter(|&x| keep(x)).collect();

        let calls = AtomicUsize::new(0);
        let got = compact_with_ws(&pool, &xs, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            keep(x)
        }, &ws);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(calls.load(Ordering::Relaxed), xs.len());

        let idx = compact_indices_ws(&pool, xs.len(), |i| keep(xs[i]), &ws);
        let via_idx: Vec<u32> = idx.iter().map(|&i| xs[i as usize]).collect();
        prop_assert_eq!(&via_idx, &want);
    }

    // The word-level bitmap drains (`for_each_one`, `count_ones_in`,
    // and the ranged variant) agree with a per-bit probe oracle on
    // arbitrary bit patterns and ranges.
    #[test]
    fn bitmap_word_kernels_match_bit_oracle(
        words in proptest::collection::vec(any::<u64>(), 1..8),
        len_in_last in 0usize..64,
        (lo, hi) in (0usize..500, 0usize..500),
    ) {
        let len = ((words.len() - 1) * 64 + len_in_last).max(1);
        let bm = Bitmap::new(len);
        for (w, &bits) in words.iter().take(bm.words()).enumerate() {
            let live = len - w * 64;
            let mask = if live >= 64 { !0 } else { (1u64 << live) - 1 };
            bm.store_word_unsync(w, bits & mask);
        }
        let ones: Vec<usize> = (0..len).filter(|&i| bm.test(i)).collect();

        let mut seen = vec![];
        bm.for_each_one(|i| seen.push(i));
        prop_assert_eq!(&seen, &ones);
        prop_assert_eq!(bm.count_ones(), ones.len() as u64);

        let (lo, hi) = (lo.min(len), hi.min(len));
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let want: Vec<usize> = ones.iter().copied().filter(|&i| lo <= i && i < hi).collect();
        let mut seen = vec![];
        bm.for_each_one_in(lo..hi, |i| seen.push(i));
        prop_assert_eq!(&seen, &want);
        prop_assert_eq!(bm.count_ones_in(lo..hi), want.len() as u64);
    }
}
