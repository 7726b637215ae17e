//! Order statistics over timing samples.

/// The `p`-th percentile (`p` in 0..=100) of `samples`, linearly
/// interpolated between order statistics (the rule
/// `ServeReport::latency_percentile` uses, so the harness's simulated
/// latency percentiles agree with the server's own). Panics on an empty
/// slice: every caller takes at least one sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 46.0);
        assert_eq!(percentile(&s, 250.0), 50.0);
        assert_eq!(percentile(&s, -5.0), 10.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        assert_eq!(
            percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 75.0),
            percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 75.0)
        );
    }
}
