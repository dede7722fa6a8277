//! Shared moment and summary statistics.
//!
//! These helpers back both the temporal features (moments of the raw
//! signal) and the spectral shape features (moments of the magnitude
//! distribution over frequency). All functions define sensible values for
//! degenerate inputs (empty or constant signals) so that fingerprinting
//! never produces NaN feature vectors.

/// One-shot moment accumulator: everything the 9 temporal Table-II
/// features need, gathered in **two passes** over the signal instead of
/// the ~12 the free-function helpers take together.
///
/// Pass 1 accumulates sum, sum of squares, min, max, zero crossings and
/// the non-negative count; pass 2 accumulates the centered second/third/
/// fourth power sums around the pass-1 mean. Every quantity keeps its own
/// accumulator and is added strictly left to right, with the exact
/// arithmetic expressions of the free functions ([`mean`], [`variance`],
/// [`skewness`], [`kurtosis`], [`rms`]), so the accessors are
/// bit-identical to calling those helpers separately — the fusion changes
/// pass count, never bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    len: usize,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
    zero_crossings: usize,
    non_negative: usize,
    /// Centered power sums `Σ (x − mean)^p` for `p = 2, 3, 4`.
    m2: f64,
    m3: f64,
    m4: f64,
}

impl Moments {
    /// Accumulates the moments of `xs` in two left-to-right passes.
    pub fn of(xs: &[f64]) -> Self {
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut zero_crossings = 0usize;
        let mut non_negative = 0usize;
        let mut prev_non_neg = false;
        for (i, &x) in xs.iter().enumerate() {
            sum += x;
            sum_sq += x * x;
            max = f64::max(max, x);
            min = f64::min(min, x);
            let nn = x >= 0.0;
            if nn {
                non_negative += 1;
            }
            if i > 0 && nn != prev_non_neg {
                zero_crossings += 1;
            }
            prev_non_neg = nn;
        }
        let mean = if xs.is_empty() {
            0.0
        } else {
            sum / xs.len() as f64
        };
        let mut m2 = 0.0;
        let mut m3 = 0.0;
        let mut m4 = 0.0;
        for &x in xs {
            let d = x - mean;
            m2 += d * d;
            m3 += d.powi(3);
            m4 += d.powi(4);
        }
        Self {
            len: xs.len(),
            sum,
            sum_sq,
            min,
            max,
            zero_crossings,
            non_negative,
            m2,
            m3,
            m4,
        }
    }

    /// Number of samples accumulated.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no samples were accumulated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arithmetic mean; `0.0` when empty. Bit-identical to [`mean`].
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.sum / self.len as f64
    }

    /// Population variance; `0.0` for fewer than 2 samples. Bit-identical
    /// to [`variance`].
    pub fn variance(&self) -> f64 {
        if self.len < 2 {
            return 0.0;
        }
        self.m2 / self.len as f64
    }

    /// Population standard deviation. Bit-identical to [`std_dev`].
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample skewness; `0.0` for constant or too-short signals.
    /// Bit-identical to [`skewness`].
    pub fn skewness(&self) -> f64 {
        let sd = self.std_dev();
        let m = self.mean();
        if self.len < 2 || effectively_constant(sd, m) {
            return 0.0;
        }
        (self.m3 / self.len as f64) / sd.powi(3)
    }

    /// Kurtosis (not excess); `3.0` for constant or too-short signals.
    /// Bit-identical to [`kurtosis`].
    pub fn kurtosis(&self) -> f64 {
        let sd = self.std_dev();
        let m = self.mean();
        if self.len < 2 || effectively_constant(sd, m) {
            return 3.0;
        }
        (self.m4 / self.len as f64) / sd.powi(4)
    }

    /// Root mean square; `0.0` when empty. Bit-identical to [`rms`].
    pub fn rms(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        (self.sum_sq / self.len as f64).sqrt()
    }

    /// Maximum sample; `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.max
    }

    /// Minimum sample; `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.min
    }

    /// Sign changes per sample transition (zeros count as non-negative);
    /// `0.0` for fewer than 2 samples. Bit-identical to
    /// [`crate::temporal::zero_crossing_rate`].
    pub fn zero_crossing_rate(&self) -> f64 {
        if self.len < 2 {
            return 0.0;
        }
        self.zero_crossings as f64 / (self.len - 1) as f64
    }

    /// Fraction of samples `>= 0`; `0.0` when empty. Bit-identical to
    /// [`crate::temporal::non_negative_fraction`].
    pub fn non_negative_fraction(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.non_negative as f64 / self.len as f64
    }
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; `0.0` for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; `0.0` for slices shorter than 2.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Returns `true` when the spread is pure floating-point noise relative to
/// the signal magnitude, so standardized moments are meaningless.
fn effectively_constant(sd: f64, m: f64) -> bool {
    sd <= 1e3 * f64::EPSILON * m.abs().max(1.0)
}

/// Sample skewness (third standardized moment); `0.0` for constant or
/// too-short signals.
pub fn skewness(xs: &[f64]) -> f64 {
    let sd = std_dev(xs);
    let m = mean(xs);
    if xs.len() < 2 || effectively_constant(sd, m) {
        return 0.0;
    }
    let m3 = xs.iter().map(|x| (x - m).powi(3)).sum::<f64>() / xs.len() as f64;
    m3 / sd.powi(3)
}

/// Kurtosis (fourth standardized moment, *not* excess); `3.0` (the normal
/// value) for constant or too-short signals so that flat streams do not
/// register as spiky.
pub fn kurtosis(xs: &[f64]) -> f64 {
    let sd = std_dev(xs);
    let m = mean(xs);
    if xs.len() < 2 || effectively_constant(sd, m) {
        return 3.0;
    }
    let m4 = xs.iter().map(|x| (x - m).powi(4)).sum::<f64>() / xs.len() as f64;
    m4 / sd.powi(4)
}

/// Root mean square; `0.0` for an empty slice.
pub fn rms(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_runtime::rng::Rng;
    use srtd_runtime::{prop, prop_assert};

    #[test]
    fn mean_and_variance_of_known_data() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(skewness(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(kurtosis(&[5.0, 5.0, 5.0]), 3.0);
        assert_eq!(rms(&[]), 0.0);
    }

    #[test]
    fn symmetric_data_has_zero_skew() {
        let xs = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&xs).abs() < 1e-12);
    }

    #[test]
    fn right_tail_gives_positive_skew() {
        let xs = [0.0, 0.0, 0.0, 0.0, 10.0];
        assert!(skewness(&xs) > 0.0);
    }

    #[test]
    fn rms_ge_abs_mean() {
        prop::check(
            |rng| prop::vec_with(rng, 1..100, |r| r.gen_range(-1e3f64..1e3)),
            |xs| {
                prop_assert!(rms(xs) + 1e-9 >= mean(xs).abs());
                Ok(())
            },
        );
    }

    #[test]
    fn variance_shift_invariant() {
        prop::check(
            |rng| {
                (
                    prop::vec_with(rng, 2..100, |r| r.gen_range(-1e3f64..1e3)),
                    rng.gen_range(-1e3f64..1e3),
                )
            },
            |(xs, shift)| {
                let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
                prop_assert!((variance(xs) - variance(&shifted)).abs() < 1e-6);
                Ok(())
            },
        );
    }

    #[test]
    fn kurtosis_at_least_one() {
        prop::check(
            |rng| prop::vec_with(rng, 2..100, |r| r.gen_range(-1e3f64..1e3)),
            |xs| {
                // For any distribution, kurtosis >= 1 (>= skewness² + 1).
                prop_assert!(kurtosis(xs) >= 1.0 - 1e-9);
                Ok(())
            },
        );
    }

    /// The fused accumulator is not "close to" the free functions — it is
    /// the same arithmetic in the same order, so every accessor must be
    /// bit-identical, including on degenerate inputs.
    #[test]
    fn moments_bit_identical_to_free_functions() {
        prop::check(
            |rng| prop::vec_with(rng, 0..200, |r| r.gen_range(-1e4f64..1e4)),
            |xs| {
                let m = Moments::of(xs);
                prop_assert!(m.mean().to_bits() == mean(xs).to_bits());
                prop_assert!(m.variance().to_bits() == variance(xs).to_bits());
                prop_assert!(m.std_dev().to_bits() == std_dev(xs).to_bits());
                prop_assert!(m.skewness().to_bits() == skewness(xs).to_bits());
                prop_assert!(m.kurtosis().to_bits() == kurtosis(xs).to_bits());
                prop_assert!(m.rms().to_bits() == rms(xs).to_bits());
                Ok(())
            },
        );
    }

    #[test]
    fn moments_degenerate_inputs() {
        let empty = Moments::of(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.rms(), 0.0);
        assert_eq!(empty.max(), 0.0);
        assert_eq!(empty.min(), 0.0);
        assert_eq!(empty.zero_crossing_rate(), 0.0);
        assert_eq!(empty.non_negative_fraction(), 0.0);
        let constant = Moments::of(&[5.0, 5.0, 5.0]);
        assert_eq!(constant.skewness(), 0.0);
        assert_eq!(constant.kurtosis(), 3.0);
        assert_eq!(constant.zero_crossing_rate(), 0.0);
        assert_eq!(constant.non_negative_fraction(), 1.0);
        let single = Moments::of(&[-2.5]);
        assert_eq!(single.len(), 1);
        assert_eq!(single.min(), -2.5);
        assert_eq!(single.max(), -2.5);
        assert_eq!(single.variance(), 0.0);
    }

    #[test]
    fn moments_extrema_and_counts() {
        let m = Moments::of(&[1.0, -1.0, 0.0, 2.0]);
        assert_eq!(m.max(), 2.0);
        assert_eq!(m.min(), -1.0);
        // Transitions: +→−, −→0(non-negative), 0→+ stays: 2 crossings.
        assert!((m.zero_crossing_rate() - 2.0 / 3.0).abs() < 1e-15);
        assert_eq!(m.non_negative_fraction(), 0.75);
    }
}
