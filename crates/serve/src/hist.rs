//! HDR-style log-linear latency histogram.
//!
//! Serving SLOs are tail statements — "p999 under a millisecond" — so
//! the recorder must hold the full distribution cheaply and without
//! shared locks on the TCP read path (each connection thread owns its
//! histograms, merged into the daemon's when its peer hangs up).
//! [`LatencyHistogram`] is the standard
//! log-linear construction: values below 32 get exact unit buckets;
//! above that, each power of two splits into 32 linear sub-buckets, so
//! any reported quantile is within `1/32` (≈3.2%) of the true value
//! while the whole table stays under 16 KiB. Recording is one
//! leading-zeros instruction and one array increment — no allocation,
//! no floating point.

use std::time::Duration;

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per power of
/// two, bounding relative quantile error at 1/32.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Bucket count for the full `u64` range (see `bucket_of`).
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64; // >= SUB_BITS here
    let group = msb - SUB_BITS as u64;
    let sub = (v >> group) as usize - SUB;
    SUB + group as usize * SUB + sub
}

/// Largest value that maps to `bucket` (its representative: quantiles
/// report "≤ this", which keeps SLO statements conservative).
#[inline]
fn bucket_top(bucket: usize) -> u64 {
    if bucket < SUB {
        return bucket as u64;
    }
    let group = (bucket / SUB - 1) as u32;
    let sub = (bucket % SUB) as u128;
    // u128 arithmetic: the topmost bucket's bound is exactly 2^64.
    let top = ((SUB as u128 + sub + 1) << group) - 1;
    top.min(u64::MAX as u128) as u64
}

/// Fixed-footprint log-linear histogram over `u64` values (nanoseconds
/// by convention; see the [module docs](self)).
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Folds `other` into `self` (shutdown-time merge of per-thread
    /// recorders).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The `q`-quantile (`0.0..=1.0`) of the recorded values, within
    /// 1/32 relative error, clamped to the exact observed `[min, max]`.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_top(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// [`quantile`](Self::quantile) as a `Duration` (value taken as
    /// nanoseconds).
    pub fn quantile_duration(&self, q: f64) -> Duration {
        Duration::from_nanos(self.quantile(q))
    }

    /// Mean as a `Duration` (value taken as nanoseconds).
    pub fn mean_duration(&self) -> Duration {
        Duration::from_nanos(self.mean() as u64)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .field("p999", &self.quantile(0.999))
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_range_in_order() {
        // Bucket index is monotone and bucket_top inverts it.
        let mut prev = 0;
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            1_000_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket order broke at {v}");
            assert!(bucket_top(b) >= v);
            assert!(b < BUCKETS);
            prev = b;
        }
        // Small values are exact.
        for v in 0..32u64 {
            assert_eq!(bucket_top(bucket_of(v)), v);
        }
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = LatencyHistogram::new();
        for v in [3u64, 3, 7, 31] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 31);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 31);
        assert!((h.mean() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.999, 99_900.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - want).abs() / want;
            assert!(err <= 1.0 / 32.0 + 1e-6, "q={q}: got {got}, want {want}");
        }
        assert_eq!(h.quantile(1.0), 100_000);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(1_000);
        b.record_duration(Duration::from_micros(5));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 5_000);
        assert_eq!(a.quantile_duration(1.0), Duration::from_micros(5));
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
