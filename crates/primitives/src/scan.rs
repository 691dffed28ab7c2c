//! Prefix sums (scans), sequential and block-parallel.
//!
//! The parallel scan is the Helman–JáJá SMP formulation: each thread
//! scans its block locally, thread 0 scans the p block totals, and a
//! second parallel sweep adds each block's offset. Two barriers, O(n/p +
//! p) time per thread — the building block the paper uses to replace list
//! ranking wherever the data is already in traversal order. Below
//! [`GRAIN`] elements, or at p = 1, the scan runs on the calling thread.
//!
//! Every scan, sequential or parallel, runs one block body: a carried
//! loop over [`ScanElem::combine`]. A faster body does not pay here: a
//! pipeline's scans take under 1 ms of a 0.3–0.9 s run, and tiled and
//! vector bodies moved no pipeline end to end (docs/ALGORITHMS.md §14).

use bcc_smp::{BccWorkspace, Ctx, Pool, SharedSlice, GRAIN};

/// Trait for scannable element types (associative op with identity).
/// The integer impls combine by wrapping addition.
pub trait ScanElem: Copy + Send + Sync {
    /// Identity element of the scan operator.
    const ZERO: Self;
    /// The associative combine operator.
    fn combine(self, other: Self) -> Self;
}

macro_rules! impl_scan_elem_for_int {
    ($($t:ty),*) => {$(
        impl ScanElem for $t {
            const ZERO: Self = 0;
            #[inline]
            fn combine(self, other: Self) -> Self {
                self.wrapping_add(other)
            }
        }
    )*};
}
impl_scan_elem_for_int!(u8, u16, u32, u64, usize, i32, i64, isize);

/// In-place inclusive scan of `a` (`a[i] := a[0] ⊕ … ⊕ a[i]`); returns
/// the total.
#[inline]
fn scan_block<T: ScanElem>(a: &mut [T]) -> T {
    let mut acc = T::ZERO;
    for x in a.iter_mut() {
        acc = acc.combine(*x);
        *x = acc;
    }
    acc
}

/// In-place exclusive scan of `a` seeded with `carry`
/// (`a[i] := carry ⊕ a[0] ⊕ … ⊕ a[i-1]`); returns the inclusive total.
#[inline]
fn scan_block_exclusive<T: ScanElem>(a: &mut [T], carry: T) -> T {
    let mut acc = carry;
    for x in a.iter_mut() {
        let v = *x;
        *x = acc;
        acc = acc.combine(v);
    }
    acc
}

/// Reduces `a` under the combine operator (no stores). The parallel
/// exclusive scan's first phase only needs block totals, so skipping
/// the phase-1 stores halves its write traffic.
#[inline]
fn sum_block<T: ScanElem>(a: &[T]) -> T {
    a.iter().fold(T::ZERO, |acc, &x| acc.combine(x))
}

/// In-place sequential inclusive scan: `a[i] = a[0] + ... + a[i]`.
pub fn inclusive_scan_seq<T: ScanElem>(a: &mut [T]) {
    scan_block(a);
}

/// In-place sequential exclusive scan: `a[i] = a[0] + ... + a[i-1]`.
/// Returns the total (the inclusive sum of all elements).
pub fn exclusive_scan_seq<T: ScanElem>(a: &mut [T]) -> T {
    scan_block_exclusive(a, T::ZERO)
}

/// In-place parallel inclusive scan over `a` using `pool`, with its
/// scratch drawn from a fresh arena (see [`inclusive_scan_par_ws`]).
pub fn inclusive_scan_par<T: ScanElem + 'static>(pool: &Pool, a: &mut [T]) {
    inclusive_scan_par_ws(pool, a, &BccWorkspace::new());
}

/// In-place parallel exclusive scan over `a`; returns the total.
///
/// ```
/// use bcc_primitives::scan::exclusive_scan_par;
/// use bcc_smp::Pool;
///
/// let pool = Pool::new(2);
/// let mut a = vec![3u32, 1, 4, 1, 5];
/// let total = exclusive_scan_par(&pool, &mut a);
/// assert_eq!(a, vec![0, 3, 4, 8, 9]);
/// assert_eq!(total, 14);
/// ```
pub fn exclusive_scan_par<T: ScanElem + 'static>(pool: &Pool, a: &mut [T]) -> T {
    exclusive_scan_par_ws(pool, a, &BccWorkspace::new())
}

/// In-place parallel inclusive scan with the O(p) block-totals scratch
/// taken from (and returned to) `ws`.
pub fn inclusive_scan_par_ws<T: ScanElem + 'static>(pool: &Pool, a: &mut [T], ws: &BccWorkspace) {
    scan_par(pool, a, true, ws);
}

/// In-place parallel exclusive scan with the O(p) block-totals scratch
/// taken from (and returned to) `ws`; returns the total.
pub fn exclusive_scan_par_ws<T: ScanElem + 'static>(
    pool: &Pool,
    a: &mut [T],
    ws: &BccWorkspace,
) -> T {
    scan_par(pool, a, false, ws)
}

fn scan_par<T: ScanElem + 'static>(
    pool: &Pool,
    a: &mut [T],
    inclusive: bool,
    ws: &BccWorkspace,
) -> T {
    let n = a.len();
    let p = pool.threads();
    if p == 1 || n < GRAIN {
        return if inclusive {
            scan_block(a)
        } else {
            scan_block_exclusive(a, T::ZERO)
        };
    }
    let mut block_totals = ws.take_filled(p + 1, T::ZERO);
    let a_s = SharedSlice::new(a);
    let totals_s = SharedSlice::new(&mut block_totals);

    pool.run(|ctx: &Ctx| {
        let r = ctx.block_range(n);
        // Phase 1: block total. The inclusive scan stores the local
        // prefixes now (phase 3 just adds the offset); the exclusive
        // scan only reduces — its phase 3 rescans from the original
        // values, which halves phase-1 write traffic.
        let block = unsafe { a_s.slice_mut(r.start, r.end) };
        let total = if inclusive {
            scan_block(block)
        } else {
            sum_block(block)
        };
        unsafe { totals_s.write(ctx.tid() + 1, total) };
        ctx.barrier();
        // Phase 2: thread 0 scans the p block totals.
        if ctx.is_leader() {
            let totals = unsafe { totals_s.slice_mut(0, p + 1) };
            scan_block(totals);
        }
        ctx.barrier();
        // Phase 3: apply own block's offset.
        let offset = totals_s.get(ctx.tid());
        let block = unsafe { a_s.slice_mut(r.start, r.end) };
        if inclusive {
            for x in block.iter_mut() {
                *x = offset.combine(*x);
            }
        } else {
            scan_block_exclusive(block, offset);
        }
    });

    let total = block_totals[p];
    ws.give(block_totals);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_smp::Telemetry;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn oracle_inclusive(a: &[u64]) -> Vec<u64> {
        let mut acc = 0u64;
        a.iter()
            .map(|&x| {
                acc = acc.wrapping_add(x);
                acc
            })
            .collect()
    }

    /// A length below 300 or within 150 of [`GRAIN`], so a case reaches
    /// both the calling-thread path and the pool path.
    fn len_across_grain() -> impl Strategy<Value = usize> {
        (0usize..300, any::<bool>()).prop_map(|(l, big)| if big { GRAIN - 150 + l } else { l })
    }

    fn vec_across_grain<S: Strategy + Clone>(elem: S) -> impl Strategy<Value = Vec<S::Value>> {
        len_across_grain().prop_flat_map(move |n| proptest::collection::vec(elem.clone(), n..n + 1))
    }

    /// Scans `v` inclusive and exclusive, sequentially and on every pool
    /// in `pools`, and checks each against a `wrapping_add` fold.
    fn check_against_fold<T>(v: &[T], add: fn(T, T) -> T, pools: &[Pool])
    where
        T: ScanElem + PartialEq + std::fmt::Debug + 'static,
    {
        let mut total = T::ZERO;
        let mut excl = Vec::with_capacity(v.len());
        let incl: Vec<T> = v
            .iter()
            .map(|&x| {
                excl.push(total);
                total = add(total, x);
                total
            })
            .collect();
        let mut a = v.to_vec();
        inclusive_scan_seq(&mut a);
        assert_eq!(a, incl, "inclusive seq");
        let mut a = v.to_vec();
        assert_eq!(exclusive_scan_seq(&mut a), total, "exclusive seq total");
        assert_eq!(a, excl, "exclusive seq");
        for pool in pools {
            let p = pool.threads();
            let mut a = v.to_vec();
            inclusive_scan_par(pool, &mut a);
            assert_eq!(a, incl, "inclusive p={p}");
            let mut a = v.to_vec();
            assert_eq!(exclusive_scan_par(pool, &mut a), total, "total p={p}");
            assert_eq!(a, excl, "exclusive p={p}");
        }
    }

    #[test]
    fn seq_inclusive_small() {
        let mut a = vec![1u32, 2, 3, 4];
        inclusive_scan_seq(&mut a);
        assert_eq!(a, vec![1, 3, 6, 10]);
    }

    #[test]
    fn seq_exclusive_small() {
        let mut a = vec![1u32, 2, 3, 4];
        let total = exclusive_scan_seq(&mut a);
        assert_eq!(a, vec![0, 1, 3, 6]);
        assert_eq!(total, 10);
    }

    #[test]
    fn ws_variants_match_plain_and_reuse_scratch() {
        let pool = Pool::new(4);
        let ws = BccWorkspace::new();
        for n in [1000, GRAIN as u64 + 1000] {
            for round in 0..3 {
                let mut a: Vec<u64> = (0..n).map(|i| i * 3 + round).collect();
                let mut b = a.clone();
                inclusive_scan_par(&pool, &mut a);
                inclusive_scan_par_ws(&pool, &mut b, &ws);
                assert_eq!(a, b);
                let mut c: Vec<u64> = (0..n).map(|i| i + round).collect();
                let mut d = c.clone();
                let t0 = exclusive_scan_par(&pool, &mut c);
                let t1 = exclusive_scan_par_ws(&pool, &mut d, &ws);
                assert_eq!((c, t0), (d, t1));
            }
        }
        // Below the grain the scan takes no scratch; above it, one
        // buffer, reused thereafter.
        let s = ws.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 5);
    }

    #[test]
    fn below_grain_scan_is_not_a_pool_phase() {
        for p in [2, 3] {
            let sink = Arc::new(Telemetry::new(p));
            let pool = Pool::builder()
                .threads(p)
                .telemetry(Arc::clone(&sink))
                .build();
            let mut a = vec![1u32; GRAIN - 1];
            assert_eq!(exclusive_scan_par(&pool, &mut a), (GRAIN - 1) as u32);
            inclusive_scan_par(&pool, &mut a);
            assert_eq!(sink.snapshot().phase_runs, 0, "p={p}");
            let mut a = vec![1u32; GRAIN];
            assert_eq!(exclusive_scan_par(&pool, &mut a), GRAIN as u32);
            assert_eq!(sink.snapshot().phase_runs, 1, "p={p}");
        }
    }

    #[test]
    fn empty_slices_are_fine() {
        let pool = Pool::new(4);
        let mut a: Vec<u32> = vec![];
        inclusive_scan_par(&pool, &mut a);
        assert_eq!(exclusive_scan_par(&pool, &mut a), 0);
        assert!(a.is_empty());
    }

    #[test]
    fn par_matches_seq_on_fixed_cases() {
        let below = [0, 1, 2, 5, 16, 100, 1001, GRAIN - 1];
        let above = [GRAIN, GRAIN + 1, 3 * GRAIN + 5];
        for p in [1, 2, 3, 4, 7] {
            let pool = Pool::new(p);
            for n in below.into_iter().chain(above) {
                let base: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();

                let mut inc = base.clone();
                inclusive_scan_par(&pool, &mut inc);
                assert_eq!(inc, oracle_inclusive(&base), "inclusive p={p} n={n}");

                let mut exc = base.clone();
                let total = exclusive_scan_par(&pool, &mut exc);
                let oracle = oracle_inclusive(&base);
                let expect_total = oracle.last().copied().unwrap_or(0);
                assert_eq!(total, expect_total, "total p={p} n={n}");
                for i in 0..n {
                    let want = if i == 0 { 0 } else { oracle[i - 1] };
                    assert_eq!(exc[i], want, "exclusive p={p} n={n} i={i}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn par_inclusive_equals_oracle(v in vec_across_grain(0u64..1_000_000), p in 1usize..6) {
            let pool = Pool::new(p);
            let mut a = v.clone();
            inclusive_scan_par(&pool, &mut a);
            prop_assert_eq!(a, oracle_inclusive(&v));
        }

        #[test]
        fn par_exclusive_shifts_inclusive(v in vec_across_grain(0u64..1_000_000), p in 1usize..6) {
            prop_assume!(!v.is_empty());
            let pool = Pool::new(p);
            let mut a = v.clone();
            let total = exclusive_scan_par(&pool, &mut a);
            let inc = oracle_inclusive(&v);
            prop_assert_eq!(total, *inc.last().unwrap());
            prop_assert_eq!(a[0], 0);
            for i in 1..v.len() {
                prop_assert_eq!(a[i], inc[i - 1]);
            }
        }

        // Values within 2^20 of each type's maximum, so nearly every
        // combine wraps.
        #[test]
        fn wrapping_scans_match_fold_near_type_max(d in vec_across_grain(0u32..1 << 20)) {
            let pools = [Pool::new(1), Pool::new(2), Pool::new(3)];
            let near = |max: u64| d.iter().map(move |&x| max - u64::from(x));
            let v: Vec<u32> = near(u32::MAX.into()).map(|x| x as u32).collect();
            check_against_fold(&v, u32::wrapping_add, &pools);
            let v: Vec<i32> = near(i32::MAX as u64).map(|x| x as i32).collect();
            check_against_fold(&v, i32::wrapping_add, &pools);
            let v: Vec<u64> = near(u64::MAX).collect();
            check_against_fold(&v, u64::wrapping_add, &pools);
            let v: Vec<i64> = near(i64::MAX as u64).map(|x| x as i64).collect();
            check_against_fold(&v, i64::wrapping_add, &pools);
            let v: Vec<usize> = near(usize::MAX as u64).map(|x| x as usize).collect();
            check_against_fold(&v, usize::wrapping_add, &pools);
        }
    }
}
