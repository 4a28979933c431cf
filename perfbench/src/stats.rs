//! Order statistics with the benchmark's reporting rule.
//!
//! A timing is reported as its median and as a tail percentile, but a
//! tail percentile only when at least [`MIN_BEYOND`] samples lie beyond
//! it: a p90 over twenty samples is two samples, not a tail. Failed
//! operations enter the sample as `f64::INFINITY`, so a failure counts
//! as missing every latency limit instead of vanishing from the tail.

/// Samples that must lie strictly beyond a tail percentile's rank for the
/// percentile to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `0..=100`) of `samples`, or `None`
/// for an empty sample. The rank is `ceil(p/100 · n)`, clamped to `1..=n`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(sorted.len(), p)?;
    sorted.get(rank - 1).copied()
}

/// [`percentile`] under the reporting rule: `None` unless at least
/// `min_beyond` samples rank above the percentile.
pub fn tail_percentile(samples: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    let rank = nearest_rank(samples.len(), p)?;
    if samples.len() - rank < min_beyond {
        return None;
    }
    percentile(samples, p)
}

fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Median (the mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Arithmetic mean, `None` for an empty sample.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Interquartile mean: the mean of the sorted samples from index
/// `floor(n/4)` up to but excluding `n - floor(n/4)`, so the lowest and
/// highest quarter are dropped. Unlike the median it moves smoothly when
/// a sample mixes two modes in varying proportion; unlike the mean it
/// ignores outliers. `None` for an empty sample.
pub fn interquartile_mean(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interquartile_mean_drops_each_outer_quarter() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            Some(3.5)
        );
        assert_eq!(interquartile_mean(&[7.0, 1.0, 4.0]), Some(4.0));
        assert_eq!(interquartile_mean(&[]), None);
    }
}
