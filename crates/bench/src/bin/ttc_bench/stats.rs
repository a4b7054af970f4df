//! Order statistics used by every reported figure.

/// Nearest-rank percentile of unsorted samples (0 for none): the engine's own
/// [`ttc_social_media::stream::percentile`], so harness and `StreamReport`
/// percentiles are one definition.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    ttc_social_media::stream::percentile(&sorted, p)
}

/// Median as the mean of the two middle samples for even counts (what
/// `statistics.median` gives), 0 for an empty slice. Used to combine
/// repetitions; per-batch figures use the nearest-rank [`percentile`].
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of the last tenth of `samples` over the median of the first tenth:
/// how much a per-batch cost grew with state over the run (1.0 = flat).
pub fn growth_ratio(samples: &[f64]) -> f64 {
    let decile = samples.len() / 10;
    if decile == 0 {
        return 0.0;
    }
    let first = median(&samples[..decile]);
    let last = median(&samples[samples.len() - decile..]);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 50.0), 2.0);
        assert_eq!(percentile(&samples, 75.0), 3.0);
        assert_eq!(percentile(&samples, 76.0), 4.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 4.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        // ten samples: p99 is the maximum, which is why paper_* rows say so
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 99.0), 10.0);
        // a thousand samples leave ten beyond p99
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), 990.0);
    }

    #[test]
    fn median_and_growth() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let ramp: Vec<f64> = (1..=100).map(f64::from).collect();
        // first decile 1..=10 (median 5.5), last decile 91..=100 (median 95.5)
        assert!((growth_ratio(&ramp) - 95.5 / 5.5).abs() < 1e-12);
        assert_eq!(growth_ratio(&[1.0; 5]), 0.0);
    }
}
