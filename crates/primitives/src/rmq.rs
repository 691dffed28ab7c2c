//! Parallel sparse-table range minimum / maximum queries.
//!
//! TV's Low-high step needs, for every vertex, the min/max of a key
//! array over the vertex's preorder-contiguous subtree interval. A
//! sparse table costs O(n log n) work to build but is embarrassingly
//! parallel (each level is an independent data-parallel sweep) and
//! answers queries in O(1) — the SMP trade against the PRAM rake
//! operations it replaces. The pipelines aggregate with an O(n) level
//! sweep instead; this table backs the Low-high reference
//! construction and the double-BFS upper bound.

use bcc_smp::{Pool, SharedSlice};

/// Which extremum the table answers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Extremum {
    /// Range minimum.
    Min,
    /// Range maximum.
    Max,
}

/// A sparse table answering range-min or range-max queries over a fixed
/// `u32` array in O(1).
pub struct RangeTable {
    n: usize,
    which: Extremum,
    /// `levels[k][i]` = extremum of `a[i .. i + 2^k]`; level 0 is the
    /// input itself.
    levels: Vec<Vec<u32>>,
}

impl RangeTable {
    /// Builds the table in parallel.
    ///
    /// ```
    /// use bcc_primitives::rmq::{Extremum, RangeTable};
    /// use bcc_smp::Pool;
    ///
    /// let t = RangeTable::build(&Pool::new(2), &[5, 1, 4, 2], Extremum::Min);
    /// assert_eq!(t.query(0, 4), 1);
    /// assert_eq!(t.query(2, 4), 2);
    /// ```
    pub fn build(pool: &Pool, a: &[u32], which: Extremum) -> Self {
        let n = a.len();
        let mut levels = vec![a.to_vec()];
        let mut width = 1usize; // 2^(k-1)
        while 2 * width <= n {
            let prev = levels.last().unwrap();
            let len = n - 2 * width + 1;
            let mut cur = vec![0u32; len];
            {
                let cur_s = SharedSlice::new(&mut cur);
                pool.run(|ctx| {
                    for i in ctx.block_range(len) {
                        let x = prev[i];
                        let y = prev[i + width];
                        let v = match which {
                            Extremum::Min => x.min(y),
                            Extremum::Max => x.max(y),
                        };
                        unsafe { cur_s.write(i, v) };
                    }
                });
            }
            levels.push(cur);
            width *= 2;
        }
        RangeTable { n, which, levels }
    }

    /// Extremum of `a[lo..hi]` (half-open, non-empty).
    #[inline]
    pub fn query(&self, lo: usize, hi: usize) -> u32 {
        assert!(
            lo < hi && hi <= self.n,
            "bad range {lo}..{hi} (n={})",
            self.n
        );
        let len = hi - lo;
        let k = (usize::BITS - 1 - len.leading_zeros()) as usize; // floor(log2 len)
        let w = 1usize << k;
        let x = self.levels[k][lo];
        let y = self.levels[k][hi - w];
        match self.which {
            Extremum::Min => x.min(y),
            Extremum::Max => x.max(y),
        }
    }

    /// Length of the underlying array.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the underlying array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn oracle(a: &[u32], lo: usize, hi: usize, which: Extremum) -> u32 {
        let it = a[lo..hi].iter().copied();
        match which {
            Extremum::Min => it.min().unwrap(),
            Extremum::Max => it.max().unwrap(),
        }
    }

    #[test]
    fn all_ranges_small_array() {
        let a = vec![5u32, 1, 4, 2, 8, 0, 3, 9, 7, 6];
        let pool = Pool::new(3);
        for which in [Extremum::Min, Extremum::Max] {
            let t = RangeTable::build(&pool, &a, which);
            for lo in 0..a.len() {
                for hi in lo + 1..=a.len() {
                    assert_eq!(
                        t.query(lo, hi),
                        oracle(&a, lo, hi, which),
                        "{which:?} over {lo}..{hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_element() {
        let pool = Pool::new(2);
        let t = RangeTable::build(&pool, &[42], Extremum::Min);
        assert_eq!(t.query(0, 1), 42);
    }

    #[test]
    #[should_panic]
    fn empty_range_rejected() {
        let pool = Pool::new(1);
        let t = RangeTable::build(&pool, &[1, 2, 3], Extremum::Min);
        let _ = t.query(1, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn random_queries_match_oracle(
            a in proptest::collection::vec(any::<u32>(), 1..600),
            p in 1usize..5,
            queries in proptest::collection::vec((any::<usize>(), any::<usize>()), 1..40),
        ) {
            let pool = Pool::new(p);
            let tmin = RangeTable::build(&pool, &a, Extremum::Min);
            let tmax = RangeTable::build(&pool, &a, Extremum::Max);
            for (x, y) in queries {
                let lo = x % a.len();
                let hi = lo + 1 + (y % (a.len() - lo));
                prop_assert_eq!(tmin.query(lo, hi), oracle(&a, lo, hi, Extremum::Min));
                prop_assert_eq!(tmax.query(lo, hi), oracle(&a, lo, hi, Extremum::Max));
            }
        }
    }
}
