//! The 11 frequency-domain features of Table II (features 10–20).
//!
//! All shape features treat the magnitude spectrum (DC bin excluded) as a
//! distribution over frequency, following the MIRtoolbox / Peeters (2004)
//! definitions the paper references.

use crate::spectrum::{Peak, Spectrum};

/// Default roll-off threshold: the paper specifies "the frequency below
/// which 85% of the distribution magnitude is concentrated".
pub const ROLLOFF_FRACTION: f64 = 0.85;

/// Peak-picking threshold for the roughness feature, relative to the
/// largest non-DC magnitude.
pub const ROUGHNESS_PEAK_THRESHOLD: f64 = 0.1;

/// The frequency-domain half of the Table-II feature set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpectralFeatures {
    /// (10) Spectral centroid — center of mass of the spectrum (Hz).
    pub centroid: f64,
    /// (11) Spectral spread — dispersion around the centroid (Hz).
    pub spread: f64,
    /// (12) Spectral skewness of the magnitude distribution.
    pub skewness: f64,
    /// (13) Spectral kurtosis of the magnitude distribution.
    pub kurtosis: f64,
    /// (14) Spectral flatness — geometric / arithmetic mean ratio in `[0,1]`.
    pub flatness: f64,
    /// (15) Spectral irregularity — variation between successive bins.
    pub irregularity: f64,
    /// (16) Spectral entropy, normalized to `[0,1]`.
    pub entropy: f64,
    /// (17) Spectral roll-off — frequency below which 85% of magnitude lies.
    pub rolloff: f64,
    /// (18) Spectral brightness — energy fraction above the cut-off.
    pub brightness: f64,
    /// (19) Spectral RMS over bins.
    pub rms: f64,
    /// (20) Spectral roughness — mean Plomp–Levelt dissonance over peak pairs.
    pub roughness: f64,
}

impl SpectralFeatures {
    /// Extracts all 11 features from a magnitude spectrum.
    ///
    /// `brightness_cutoff_hz` is the cut-off for the brightness feature
    /// (MIRtoolbox defaults to 1500 Hz for audio; motion-sensor captures use
    /// a cut-off proportional to their much lower Nyquist — see
    /// [`crate::features::stream_features_batch`]).
    ///
    /// Degenerate spectra (all-zero or single-bin) yield all-zero shape
    /// features rather than NaN.
    ///
    /// The 11 features come out of **two fused passes** over the magnitude
    /// body plus one peak scan, instead of the ~12 independent passes the
    /// per-feature helpers take together. Pass 1 gathers every uncentered
    /// quantity (total, centroid numerator, squared sum for RMS and the
    /// irregularity denominator, flatness log-sum, irregularity numerator,
    /// max magnitude); pass 2 — once the centroid and total are known —
    /// gathers the centered moments, the entropy sum, the cumulative-mass
    /// scan that yields the roll-off, and the brightness tail sum from a
    /// precomputed first-bin index. The peak list reuses pass 1's max and
    /// is shared with roughness. Each quantity keeps its own left-to-right
    /// accumulator with the exact expressions of the straight-line
    /// helpers, so results are bit-identical to extracting every feature
    /// independently.
    pub fn extract(spectrum: &Spectrum, brightness_cutoff_hz: f64) -> Self {
        let mags = spectrum.magnitudes();
        // Skip DC: the mean of the raw signal is already a temporal feature,
        // and a large DC bin (gravity!) would mask every shape feature.
        let body = if mags.len() > 1 { &mags[1..] } else { &[][..] };
        if body.is_empty() {
            return Self::default();
        }

        // ---- Pass 1: uncentered accumulators ----
        // Sum accumulators start at -0.0 because `Iterator::sum::<f64>()`
        // (which the per-feature helpers used) folds from -0.0; starting at
        // +0.0 would flip the sign of an all-negative-zero or empty sum and
        // break bit-identity with the straight-line reference.
        let mut total = -0.0; // Σ m — centroid denominator, entropy, flatness
        let mut weighted = -0.0; // Σ f·m — centroid numerator
        let mut sum_sq = -0.0; // Σ m² — spectral RMS and irregularity denominator
        let mut log_sum = -0.0; // Σ ln m — flatness geometric mean
        let mut any_nonpositive = false;
        let mut max_mag = 0.0f64; // matches the peak picker's fold(0.0, f64::max)
        let mut irr_num = -0.0; // Σ (mₖ − mₖ₊₁)²
        let mut prev = 0.0;
        for (k, &m) in body.iter().enumerate() {
            total += m;
            weighted += spectrum.frequency(k + 1) * m;
            sum_sq += m * m;
            if m <= 0.0 {
                any_nonpositive = true;
            } else {
                log_sum += m.ln();
            }
            max_mag = f64::max(max_mag, m);
            if k > 0 {
                irr_num += (prev - m).powi(2);
            }
            prev = m;
        }
        if total <= 0.0 {
            return Self::default();
        }
        let n = body.len() as f64;
        let centroid = weighted / total;
        let target = ROLLOFF_FRACTION.clamp(0.0, 1.0) * total;
        let first_bright = first_bin_at_or_above(spectrum, brightness_cutoff_hz);

        // ---- Pass 2: centered moments + cumulative-mass scan ----
        // Sums start at -0.0 (see pass 1); `mass` stays +0.0 because the
        // roll-off helper used a plain `acc = 0.0` loop, not `.sum()`.
        let mut m2 = -0.0;
        let mut m3 = -0.0;
        let mut m4 = -0.0;
        let mut entropy_sum = -0.0;
        let mut mass = 0.0;
        let mut rolloff_freq = None;
        let mut high = -0.0; // Σ m over bins at or above the brightness cut-off
        for (k, &m) in body.iter().enumerate() {
            let f = spectrum.frequency(k + 1);
            m2 += (f - centroid).powi(2) * m;
            m3 += (f - centroid).powi(3) * m;
            m4 += (f - centroid).powi(4) * m;
            if m > 0.0 {
                let p = m / total;
                entropy_sum += -p * p.ln();
            }
            mass += m;
            if rolloff_freq.is_none() && mass >= target {
                rolloff_freq = Some(f);
            }
            if k + 1 >= first_bright {
                high += m;
            }
        }
        let spread = (m2 / total).sqrt();
        let (skewness, kurtosis) = if spread > 0.0 {
            ((m3 / total) / spread.powi(3), (m4 / total) / spread.powi(4))
        } else {
            (0.0, 0.0)
        };
        let flatness = if any_nonpositive {
            0.0
        } else {
            ((log_sum / n).exp() / (total / n)).clamp(0.0, 1.0)
        };

        // ---- Peak scan (shared with roughness), reusing pass 1's max ----
        let peaks = spectrum.peaks_with_max(ROUGHNESS_PEAK_THRESHOLD, Some(max_mag));

        Self {
            centroid,
            spread,
            skewness,
            kurtosis,
            flatness,
            irregularity: if body.len() < 2 {
                0.0
            } else {
                irr_num / sum_sq
            },
            entropy: if body.len() < 2 {
                0.0
            } else {
                (entropy_sum / n.ln()).clamp(0.0, 1.0)
            },
            rolloff: rolloff_freq.unwrap_or_else(|| spectrum.max_frequency()),
            brightness: (high / total).clamp(0.0, 1.0),
            rms: (sum_sq / n).sqrt(),
            roughness: roughness_of_peaks(&peaks),
        }
    }

    /// The features as a fixed-order vector (Table II order).
    pub fn to_vec(self) -> Vec<f64> {
        vec![
            self.centroid,
            self.spread,
            self.skewness,
            self.kurtosis,
            self.flatness,
            self.irregularity,
            self.entropy,
            self.rolloff,
            self.brightness,
            self.rms,
            self.roughness,
        ]
    }
}

/// Smallest bin index `k >= 1` with `spectrum.frequency(k) >= cutoff_hz`,
/// or `spectrum.len()` when no bin qualifies.
///
/// `frequency(k) = k · bin_width` is nondecreasing in `k`, so the per-bin
/// predicate the brightness feature used to evaluate for every bin has a
/// single switch point; a binary search over the *same* comparison finds
/// it exactly (a NaN cut-off compares false everywhere, exactly as the
/// per-bin filter did).
fn first_bin_at_or_above(spectrum: &Spectrum, cutoff_hz: f64) -> usize {
    let len = spectrum.len();
    let mut lo = 1usize;
    let mut hi = len;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if spectrum.frequency(mid) >= cutoff_hz {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Frequency below which `fraction` of the total magnitude (DC excluded)
/// is concentrated.
pub fn rolloff(spectrum: &Spectrum, fraction: f64) -> f64 {
    let mags = spectrum.magnitudes();
    if mags.len() <= 1 {
        return 0.0;
    }
    let total: f64 = mags[1..].iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let target = fraction.clamp(0.0, 1.0) * total;
    let mut acc = 0.0;
    for (k, &m) in mags.iter().enumerate().skip(1) {
        acc += m;
        if acc >= target {
            return spectrum.frequency(k);
        }
    }
    spectrum.max_frequency()
}

/// Fraction of (DC-excluded) magnitude at frequencies `>= cutoff_hz`.
pub fn brightness(spectrum: &Spectrum, cutoff_hz: f64) -> f64 {
    let mags = spectrum.magnitudes();
    if mags.len() <= 1 {
        return 0.0;
    }
    let total: f64 = mags[1..].iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let high: f64 = mags
        .iter()
        .enumerate()
        .skip(1)
        .filter(|&(k, _)| spectrum.frequency(k) >= cutoff_hz)
        .map(|(_, &m)| m)
        .sum();
    (high / total).clamp(0.0, 1.0)
}

/// Mean Plomp–Levelt dissonance over all pairs of spectral peaks.
///
/// Uses the Sethares parameterization of the Plomp–Levelt curve. Returns
/// `0.0` when fewer than two peaks exist.
pub fn roughness(spectrum: &Spectrum) -> f64 {
    roughness_of_peaks(&spectrum.peaks_with_max(ROUGHNESS_PEAK_THRESHOLD, None))
}

/// [`roughness`] over an already-picked peak list, so the fused extraction
/// shares one peak scan between the peak list and the roughness feature.
///
/// The `signal.spectral.peak_pairs` counter records how many Plomp–Levelt
/// pair evaluations ran — this O(P²) term is the only superlinear piece of
/// Table-II extraction, so exports make it visible.
fn roughness_of_peaks(peaks: &[Peak]) -> f64 {
    if peaks.len() < 2 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut pairs = 0usize;
    for i in 0..peaks.len() {
        for j in i + 1..peaks.len() {
            sum += plomp_levelt(
                peaks[i].frequency,
                peaks[i].magnitude,
                peaks[j].frequency,
                peaks[j].magnitude,
            );
            pairs += 1;
        }
    }
    srtd_runtime::obs::counter_add("signal.spectral.peak_pairs", pairs as u64);
    sum / pairs as f64
}

/// Plomp–Levelt dissonance between two partials (Sethares 1993 constants).
fn plomp_levelt(f1: f64, a1: f64, f2: f64, a2: f64) -> f64 {
    const B1: f64 = 3.5;
    const B2: f64 = 5.75;
    let (flo, fhi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
    let s = 0.24 / (0.0207 * flo + 18.96);
    let d = fhi - flo;
    a1 * a2 * ((-B1 * s * d).exp() - (-B2 * s * d).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_runtime::rng::Rng;
    use srtd_runtime::{prop, prop_assert};

    fn spec(mags: &[f64]) -> Spectrum {
        Spectrum::from_magnitudes(mags.to_vec(), 1.0)
    }

    /// The straight-line (one-pass-per-feature) reference the fused
    /// extraction replaced, kept verbatim so the property test below pins
    /// the fused kernel against it forever.
    mod reference {
        use super::super::*;

        fn flatness(body: &[f64]) -> f64 {
            let n = body.len() as f64;
            let arith = body.iter().sum::<f64>() / n;
            if arith <= 0.0 {
                return 0.0;
            }
            if body.iter().any(|&m| m <= 0.0) {
                return 0.0;
            }
            let log_geo = body.iter().map(|&m| m.ln()).sum::<f64>() / n;
            (log_geo.exp() / arith).clamp(0.0, 1.0)
        }

        fn irregularity(body: &[f64]) -> f64 {
            let denom: f64 = body.iter().map(|&m| m * m).sum();
            if denom <= 0.0 || body.len() < 2 {
                return 0.0;
            }
            let num: f64 = body.windows(2).map(|w| (w[0] - w[1]).powi(2)).sum();
            num / denom
        }

        fn entropy(body: &[f64], total: f64) -> f64 {
            if body.len() < 2 {
                return 0.0;
            }
            let h: f64 = body
                .iter()
                .filter(|&&m| m > 0.0)
                .map(|&m| {
                    let p = m / total;
                    -p * p.ln()
                })
                .sum();
            (h / (body.len() as f64).ln()).clamp(0.0, 1.0)
        }

        fn brightness(spectrum: &Spectrum, cutoff_hz: f64) -> f64 {
            let mags = spectrum.magnitudes();
            if mags.len() <= 1 {
                return 0.0;
            }
            let total: f64 = mags[1..].iter().sum();
            if total <= 0.0 {
                return 0.0;
            }
            let high: f64 = mags
                .iter()
                .enumerate()
                .skip(1)
                .filter(|&(k, _)| spectrum.frequency(k) >= cutoff_hz)
                .map(|(_, &m)| m)
                .sum();
            (high / total).clamp(0.0, 1.0)
        }

        pub fn extract(spectrum: &Spectrum, brightness_cutoff_hz: f64) -> SpectralFeatures {
            let mags = spectrum.magnitudes();
            let body = if mags.len() > 1 { &mags[1..] } else { &[][..] };
            let total: f64 = body.iter().sum();
            if body.is_empty() || total <= 0.0 {
                return SpectralFeatures::default();
            }
            let freq = |k: usize| spectrum.frequency(k + 1);
            let centroid: f64 = body
                .iter()
                .enumerate()
                .map(|(k, &m)| freq(k) * m)
                .sum::<f64>()
                / total;
            let var: f64 = body
                .iter()
                .enumerate()
                .map(|(k, &m)| (freq(k) - centroid).powi(2) * m)
                .sum::<f64>()
                / total;
            let spread = var.sqrt();
            let (skewness, kurtosis) = if spread > 0.0 {
                let m3: f64 = body
                    .iter()
                    .enumerate()
                    .map(|(k, &m)| (freq(k) - centroid).powi(3) * m)
                    .sum::<f64>()
                    / total;
                let m4: f64 = body
                    .iter()
                    .enumerate()
                    .map(|(k, &m)| (freq(k) - centroid).powi(4) * m)
                    .sum::<f64>()
                    / total;
                (m3 / spread.powi(3), m4 / spread.powi(4))
            } else {
                (0.0, 0.0)
            };
            SpectralFeatures {
                centroid,
                spread,
                skewness,
                kurtosis,
                flatness: flatness(body),
                irregularity: irregularity(body),
                entropy: entropy(body, total),
                rolloff: rolloff(spectrum, ROLLOFF_FRACTION),
                brightness: brightness(spectrum, brightness_cutoff_hz),
                rms: crate::stats::rms(body),
                roughness: roughness(spectrum),
            }
        }
    }

    /// Fused extraction is bit-identical to the straight-line reference
    /// (which is stronger than the required ≤1e-12 relative agreement) on
    /// random spectra, random cut-offs and every degenerate shape:
    /// single-bin, all-zero, constant, negative-magnitude test spectra,
    /// and cut-offs below/above the frequency range.
    #[test]
    fn fused_extract_matches_straight_line_reference() {
        let degenerate: [&[f64]; 6] = [
            &[0.0],
            &[5.0],
            &[0.0, 0.0, 0.0],
            &[3.0, 1.0],
            &[9.0, 2.0, 2.0, 2.0, 2.0],
            &[0.0, -1.0, 3.0, -0.5],
        ];
        for mags in degenerate {
            for cutoff in [-1.0, 0.0, 1.5, 1e6, f64::NAN] {
                let s = spec(mags);
                let fused = SpectralFeatures::extract(&s, cutoff).to_vec();
                let want = reference::extract(&s, cutoff).to_vec();
                // Bit comparison: negative-magnitude test spectra yield NaN
                // spread in both paths, and NaN != NaN under `==`.
                for (a, b) in fused.iter().zip(&want) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "mags {mags:?} cutoff {cutoff}: {a} vs {b}"
                    );
                }
            }
        }
        prop::check(
            |rng| {
                (
                    prop::vec_with(rng, 1..150, |r| r.gen_range(0.0f64..1e4)),
                    rng.gen_range(-5.0f64..200.0),
                )
            },
            |(mags, cutoff)| {
                let s = spec(mags);
                let fused = SpectralFeatures::extract(&s, *cutoff).to_vec();
                let want = reference::extract(&s, *cutoff).to_vec();
                for (a, b) in fused.iter().zip(&want) {
                    prop_assert!(a.to_bits() == b.to_bits(), "{a} vs {b}");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn single_tone_centroid_is_its_frequency() {
        // Bins: DC, then bins 1..=4; all mass at bin 3.
        let s = spec(&[0.0, 0.0, 0.0, 5.0, 0.0]);
        let f = SpectralFeatures::extract(&s, 2.0);
        assert!((f.centroid - 3.0).abs() < 1e-12);
        assert_eq!(f.spread, 0.0);
        assert_eq!(f.skewness, 0.0);
        assert!((f.rolloff - 3.0).abs() < 1e-12);
        assert_eq!(f.entropy, 0.0);
        assert_eq!(f.flatness, 0.0); // zero bins elsewhere
        assert!((f.brightness - 1.0).abs() < 1e-12); // all mass >= 2 Hz
    }

    #[test]
    fn flat_spectrum_has_max_flatness_and_entropy() {
        let s = spec(&[0.0, 1.0, 1.0, 1.0, 1.0]);
        let f = SpectralFeatures::extract(&s, 100.0);
        assert!((f.flatness - 1.0).abs() < 1e-12);
        assert!((f.entropy - 1.0).abs() < 1e-12);
        assert_eq!(f.irregularity, 0.0);
        assert_eq!(f.brightness, 0.0); // cutoff above Nyquist
    }

    #[test]
    fn zero_spectrum_is_all_defaults() {
        let s = spec(&[0.0, 0.0, 0.0]);
        let f = SpectralFeatures::extract(&s, 1.0);
        assert_eq!(f, SpectralFeatures::default());
    }

    #[test]
    fn dc_bin_is_ignored() {
        let a = spec(&[1000.0, 1.0, 2.0, 1.0]);
        let b = spec(&[0.0, 1.0, 2.0, 1.0]);
        let fa = SpectralFeatures::extract(&a, 1.0);
        let fb = SpectralFeatures::extract(&b, 1.0);
        assert!((fa.centroid - fb.centroid).abs() < 1e-12);
        assert!((fa.entropy - fb.entropy).abs() < 1e-12);
    }

    #[test]
    fn rolloff_is_monotone_in_fraction() {
        let s = spec(&[0.0, 4.0, 3.0, 2.0, 1.0]);
        assert!(rolloff(&s, 0.3) <= rolloff(&s, 0.85));
        assert!(rolloff(&s, 0.85) <= rolloff(&s, 1.0));
    }

    #[test]
    fn brightness_decreases_with_cutoff() {
        let s = spec(&[0.0, 1.0, 1.0, 1.0, 1.0]);
        let b1 = brightness(&s, 1.0);
        let b3 = brightness(&s, 3.0);
        assert!(b1 >= b3);
        assert!((b1 - 1.0).abs() < 1e-12);
        assert!((b3 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn roughness_zero_for_single_peak_positive_for_close_pair() {
        let single = spec(&[0.0, 0.0, 5.0, 0.0, 0.0, 0.0]);
        assert_eq!(roughness(&single), 0.0);
        let pair = spec(&[0.0, 0.0, 5.0, 0.0, 4.0, 0.0]);
        assert!(roughness(&pair) > 0.0);
    }

    #[test]
    fn plomp_levelt_vanishes_at_unison_and_far_apart() {
        assert!(plomp_levelt(100.0, 1.0, 100.0, 1.0).abs() < 1e-12);
        assert!(plomp_levelt(100.0, 1.0, 10_000.0, 1.0) < 1e-3);
        // Maximum dissonance is at a small positive separation.
        let near = plomp_levelt(100.0, 1.0, 102.0, 1.0);
        assert!(near > 0.0);
    }

    #[test]
    fn real_signal_pipeline_features_are_finite() {
        let x: Vec<f64> = (0..512)
            .map(|i| {
                let t = i as f64 / 100.0;
                9.81 + 0.02 * (2.0 * std::f64::consts::PI * 13.0 * t).sin()
                    + 0.01 * (2.0 * std::f64::consts::PI * 27.0 * t).sin()
            })
            .collect();
        let table = crate::window::hann_table(x.len());
        let mut buf = Vec::new();
        crate::fft::fft_windowed_real_into(&mut buf, &x, table.as_ref().map(|t| t.as_slice()));
        let s = Spectrum::from_fft_into(&buf, 100.0, Vec::new());
        let f = SpectralFeatures::extract(&s, 15.0);
        assert!(f.to_vec().iter().all(|v| v.is_finite()));
        assert!(f.centroid > 0.0);
    }

    #[test]
    fn features_finite_and_bounded() {
        prop::check(
            |rng| prop::vec_with(rng, 2..120, |r| r.gen_range(0.0f64..1e4)),
            |mags| {
                let s = spec(mags);
                let f = SpectralFeatures::extract(&s, 5.0);
                prop_assert!(f.to_vec().iter().all(|v| v.is_finite()));
                prop_assert!((0.0..=1.0).contains(&f.flatness));
                prop_assert!((0.0..=1.0).contains(&f.entropy));
                prop_assert!((0.0..=1.0).contains(&f.brightness));
                prop_assert!((0.0..=2.0 + 1e-9).contains(&f.irregularity));
                prop_assert!(f.spread >= 0.0);
                Ok(())
            },
        );
    }

    #[test]
    fn centroid_within_frequency_range() {
        prop::check(
            |rng| prop::vec_with(rng, 3..60, |r| r.gen_range(0.0f64..1e3)),
            |mags| {
                let s = spec(mags);
                let f = SpectralFeatures::extract(&s, 5.0);
                prop_assert!(f.centroid >= 0.0);
                prop_assert!(f.centroid <= s.max_frequency() + 1e-9);
                prop_assert!(f.rolloff <= s.max_frequency() + 1e-9);
                Ok(())
            },
        );
    }

    #[test]
    fn magnitude_scaling_leaves_shape_features_unchanged() {
        prop::check(
            |rng| {
                (
                    prop::vec_with(rng, 3..60, |r| r.gen_range(0.01f64..1e3)),
                    rng.gen_range(0.1f64..100.0),
                )
            },
            |(mags, scale)| {
                let s1 = spec(mags);
                let scaled: Vec<f64> = mags.iter().map(|m| m * scale).collect();
                let s2 = spec(&scaled);
                let f1 = SpectralFeatures::extract(&s1, 5.0);
                let f2 = SpectralFeatures::extract(&s2, 5.0);
                prop_assert!((f1.centroid - f2.centroid).abs() < 1e-6);
                prop_assert!((f1.entropy - f2.entropy).abs() < 1e-6);
                prop_assert!((f1.flatness - f2.flatness).abs() < 1e-6);
                prop_assert!((f1.brightness - f2.brightness).abs() < 1e-6);
                prop_assert!((f1.irregularity - f2.irregularity).abs() < 1e-6);
                Ok(())
            },
        );
    }
}
