//! Order statistics with the sample-count rule: a tail percentile is
//! reported only when at least ten samples lie beyond it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank `p`-th percentile (0 < p < 100), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond its rank. For p90 that means
/// at least 100 samples.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let v = sorted(xs);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    if rank == 0 || v.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// Mean of `xs`; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(&ramp(99), 90.0), None);
        assert_eq!(tail_percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(tail_percentile(&ramp(101), 90.0), Some(91.0));
        // p99 needs 1000 samples; p50 needs 20.
        assert_eq!(tail_percentile(&ramp(999), 99.0), None);
        assert_eq!(tail_percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(tail_percentile(&ramp(19), 50.0), None);
        assert_eq!(tail_percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(tail_percentile(&[], 90.0), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
