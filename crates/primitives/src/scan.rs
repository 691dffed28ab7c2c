//! Prefix sums (scans), sequential and block-parallel.
//!
//! The parallel scan is the Helman–JáJá SMP formulation: each thread
//! scans its block locally, thread 0 scans the p block totals, and a
//! second parallel sweep adds each block's offset. Two barriers, O(n/p +
//! p) time per thread — the building block the paper uses to replace list
//! ranking wherever the data is already in traversal order.

use bcc_smp::{BccWorkspace, Ctx, Pool, SharedSlice};

/// Trait for scannable element types (associative op with identity).
///
/// The three block-kernel methods have straightforward generic defaults
/// (the naive carried loop) and exist so concrete types can substitute
/// vectorized kernels on stable Rust — no specialization feature
/// needed. `u32`/`u64` override them with the tiled/SIMD kernels in
/// [`crate::kernels`]; `i32`/`i64`/`usize`/`isize` delegate to those
/// (two's-complement wrapping add is bit-identical across same-width
/// signedness, and `usize` is `u64` on every 64-bit target). Every
/// scan entry point in this module — sequential, parallel, `_ws` —
/// routes its per-block work through these hooks.
pub trait ScanElem: Copy + Send + Sync {
    /// Identity element of the scan operator.
    const ZERO: Self;
    /// The associative combine operator.
    fn combine(self, other: Self) -> Self;

    /// In-place inclusive scan of `a` seeded with `carry`
    /// (`a[i] := carry ⊕ a[0] ⊕ … ⊕ a[i]`); returns the final
    /// running value.
    #[inline]
    fn scan_block(a: &mut [Self], carry: Self) -> Self {
        let mut acc = carry;
        for x in a.iter_mut() {
            acc = acc.combine(*x);
            *x = acc;
        }
        acc
    }

    /// In-place exclusive scan of `a` seeded with `carry`
    /// (`a[i] := carry ⊕ a[0] ⊕ … ⊕ a[i-1]`); returns the inclusive
    /// total.
    #[inline]
    fn scan_block_exclusive(a: &mut [Self], carry: Self) -> Self {
        let mut acc = carry;
        for x in a.iter_mut() {
            let v = *x;
            *x = acc;
            acc = acc.combine(v);
        }
        acc
    }

    /// Reduce `a` under the combine operator (no stores). Used by the
    /// parallel exclusive scan's first phase, which only needs block
    /// totals — skipping the phase-1 stores halves its write traffic.
    #[inline]
    fn sum_block(a: &[Self]) -> Self {
        a.iter().fold(Self::ZERO, |acc, &x| acc.combine(x))
    }
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
impl_scan_elem_for_int!(u8, u16);

/// Implement `ScanElem` for a type that is layout- and
/// wrap-add-compatible with `$k` (`u32` or `u64`), routing the block
/// kernels through [`crate::kernels`] via an in-place slice cast.
macro_rules! impl_scan_elem_via_kernel {
    ($t:ty => $k:ty, $incl:path, $excl:path) => {
        impl ScanElem for $t {
            const ZERO: Self = 0;
            #[inline]
            fn combine(self, other: Self) -> Self {
                self.wrapping_add(other)
            }
            #[inline]
            fn scan_block(a: &mut [Self], carry: Self) -> Self {
                // Same size/alignment and wrapping-add bit pattern.
                let ka =
                    unsafe { std::slice::from_raw_parts_mut(a.as_mut_ptr().cast::<$k>(), a.len()) };
                $incl(ka, carry as $k) as Self
            }
            #[inline]
            fn scan_block_exclusive(a: &mut [Self], carry: Self) -> Self {
                let ka =
                    unsafe { std::slice::from_raw_parts_mut(a.as_mut_ptr().cast::<$k>(), a.len()) };
                $excl(ka, carry as $k) as Self
            }
            #[inline]
            fn sum_block(a: &[Self]) -> Self {
                // Wrapping sum has no carried store; the tiled reduce is
                // just an unrolled fold, which the compiler already
                // produces from this shape.
                let mut acc: $k = 0;
                for &x in a {
                    acc = acc.wrapping_add(x as $k);
                }
                acc as Self
            }
        }
    };
}

impl_scan_elem_via_kernel!(u32 => u32, crate::kernels::scan_add_u32, crate::kernels::scan_add_u32_excl);
impl_scan_elem_via_kernel!(i32 => u32, crate::kernels::scan_add_u32, crate::kernels::scan_add_u32_excl);
impl_scan_elem_via_kernel!(u64 => u64, crate::kernels::scan_add_u64, crate::kernels::scan_add_u64_excl);
impl_scan_elem_via_kernel!(i64 => u64, crate::kernels::scan_add_u64, crate::kernels::scan_add_u64_excl);

#[cfg(target_pointer_width = "64")]
impl_scan_elem_via_kernel!(usize => u64, crate::kernels::scan_add_u64, crate::kernels::scan_add_u64_excl);
#[cfg(target_pointer_width = "64")]
impl_scan_elem_via_kernel!(isize => u64, crate::kernels::scan_add_u64, crate::kernels::scan_add_u64_excl);

#[cfg(not(target_pointer_width = "64"))]
impl_scan_elem_for_int!(usize, isize);

/// In-place sequential inclusive scan: `a[i] = a[0] + ... + a[i]`.
pub fn inclusive_scan_seq<T: ScanElem>(a: &mut [T]) {
    T::scan_block(a, T::ZERO);
}

/// In-place sequential exclusive scan: `a[i] = a[0] + ... + a[i-1]`.
/// Returns the total (the inclusive sum of all elements).
pub fn exclusive_scan_seq<T: ScanElem>(a: &mut [T]) -> T {
    T::scan_block_exclusive(a, T::ZERO)
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
    if p == 1 || n < 2 * p {
        return if inclusive {
            T::scan_block(a, T::ZERO)
        } else {
            T::scan_block_exclusive(a, T::ZERO)
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
            T::scan_block(block, T::ZERO)
        } else {
            T::sum_block(block)
        };
        unsafe { totals_s.write(ctx.tid() + 1, total) };
        ctx.barrier();
        // Phase 2: thread 0 scans the p block totals.
        if ctx.is_leader() {
            let totals = unsafe { totals_s.slice_mut(0, p + 1) };
            T::scan_block(totals, T::ZERO);
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
            T::scan_block_exclusive(block, offset);
        }
    });

    let total = block_totals[p];
    ws.give(block_totals);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn oracle_inclusive(a: &[u64]) -> Vec<u64> {
        let mut acc = 0u64;
        a.iter()
            .map(|&x| {
                acc = acc.wrapping_add(x);
                acc
            })
            .collect()
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
        for round in 0..3 {
            let mut a: Vec<u64> = (0..1000).map(|i| i * 3 + round).collect();
            let mut b = a.clone();
            inclusive_scan_par(&pool, &mut a);
            inclusive_scan_par_ws(&pool, &mut b, &ws);
            assert_eq!(a, b);
            let mut c: Vec<u64> = (0..1000).map(|i| i + round).collect();
            let mut d = c.clone();
            let t0 = exclusive_scan_par(&pool, &mut c);
            let t1 = exclusive_scan_par_ws(&pool, &mut d, &ws);
            assert_eq!((c, t0), (d, t1));
        }
        let s = ws.stats();
        assert_eq!(s.misses, 1, "one scratch buffer, reused thereafter");
        assert_eq!(s.hits, 5);
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
        for p in [1, 2, 3, 4, 7] {
            let pool = Pool::new(p);
            for n in [0usize, 1, 2, 5, 16, 100, 1001] {
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
        fn par_inclusive_equals_oracle(v in proptest::collection::vec(0u64..1_000_000, 0..500),
                                       p in 1usize..6) {
            let pool = Pool::new(p);
            let mut a = v.clone();
            inclusive_scan_par(&pool, &mut a);
            prop_assert_eq!(a, oracle_inclusive(&v));
        }

        #[test]
        fn par_exclusive_shifts_inclusive(v in proptest::collection::vec(0u64..1_000_000, 1..500),
                                          p in 1usize..6) {
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
    }
}
