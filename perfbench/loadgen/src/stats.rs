//! Order statistics with a sample-count guard on tails.

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported at all.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1]`) of `samples`.
///
/// A median (`p <= 0.5`) needs one sample. A tail (`p > 0.5`) needs at
/// least [`MIN_BEYOND`] samples strictly beyond its rank, otherwise it
/// is refused: with fewer, the "p99" of a short run is just its maximum.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
    if samples.is_empty() {
        return Err("no samples".into());
    }
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if p > 0.5 && beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it, {n} samples leave {beyond}",
            p * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The highest percentile `samples` support: the value exactly
/// [`MIN_BEYOND`] samples exceed, with the percentile it sits at.
pub fn highest_tail(samples: &[f64]) -> Result<(f64, f64), String> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return Err(format!("{n} samples cannot support a tail"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - MIN_BEYOND;
    Ok((sorted[rank - 1], rank as f64 / n as f64))
}

/// The median of `samples`; `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5).ok()
}

/// A distribution-free interval for the median of independent
/// `samples`: the order statistics `z·√n / 2` ranks either side of the
/// middle (the sign-test interval, `z` a standard normal quantile).
/// `None` when `samples` are too few to hold both ranks.
pub fn median_interval(samples: &[f64], z: f64) -> Option<(f64, f64)> {
    let n = samples.len() as f64;
    let half = z * n.sqrt() / 2.0;
    let (low, high) = ((n / 2.0 - half).floor(), (n / 2.0 + half).ceil());
    if low < 1.0 || high > n {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((sorted[low as usize - 1], sorted[high as usize - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&samples, 0.99).is_err(), "999 samples leave 9");
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Ok(989.0));
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), Ok(89.0));
        assert!(percentile(&samples[..99], 0.9).is_err());
    }

    #[test]
    fn highest_tail_leaves_exactly_ten_beyond() {
        let samples: Vec<f64> = (0..505).rev().map(f64::from).collect();
        assert_eq!(highest_tail(&samples), Ok((494.0, 495.0 / 505.0)));
        assert!(highest_tail(&samples[..10]).is_err());
    }

    #[test]
    fn median_interval_brackets_the_middle_ranks() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median_interval(&samples, 1.96), Some((40.0, 60.0)));
        assert_eq!(median_interval(&samples[..4], 3.29), None);
    }

    #[test]
    fn median_needs_one_sample() {
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
