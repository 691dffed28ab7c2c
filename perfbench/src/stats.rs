//! Order statistics over measured samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Why a percentile was refused.
#[derive(Debug, PartialEq)]
pub struct TailTooThin {
    pub samples: usize,
    pub beyond: usize,
}

/// Samples needed beyond a reported percentile for it to mean anything.
pub const MIN_TAIL: usize = 10;

/// The `q`-quantile (nearest rank) of `xs`, refused unless at least
/// [`MIN_TAIL`] samples lie beyond it: a p99 needs 1,000 samples.
pub fn percentile(xs: &[f64], q: f64) -> Result<f64, TailTooThin> {
    assert!((0.0..1.0).contains(&q), "quantile {q} outside [0, 1)");
    let n = xs.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_TAIL {
        return Err(TailTooThin { samples: n, beyond });
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            percentile(&xs[..999], 0.99),
            Err(TailTooThin {
                samples: 999,
                beyond: 9
            })
        );
        assert_eq!(percentile(&xs, 0.99), Ok(990.0));
        assert_eq!(percentile(&xs[..20], 0.5), Ok(10.0));
        assert!(percentile(&xs[..19], 0.5).is_err());
    }
}
