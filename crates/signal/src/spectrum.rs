//! Magnitude spectra and spectral peak picking.

use crate::Complex;

/// The single-sided magnitude spectrum of a real signal.
///
/// Bin `k` holds the magnitude at frequency `k · sample_rate / n_fft` for
/// `k = 0 ..= n_fft/2`. The DC bin is retained; shape features that should
/// ignore the DC offset skip bin 0 explicitly.
///
/// # Examples
///
/// ```
/// use srtd_signal::fft::fft_windowed_real_into;
/// use srtd_signal::Spectrum;
///
/// let tone: Vec<f64> = (0..128)
///     .map(|i| (2.0 * std::f64::consts::PI * 8.0 * i as f64 / 128.0).sin())
///     .collect();
/// let mut buf = Vec::new();
/// fft_windowed_real_into(&mut buf, &tone, None);
/// let spec = Spectrum::from_fft_into(&buf, 128.0, Vec::new());
/// assert_eq!(spec.peak_bin(), 8);
/// assert!((spec.frequency(8) - 8.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    magnitudes: Vec<f64>,
    bin_width: f64,
}

/// A spectral peak: a local magnitude maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Frequency of the peak in Hz.
    pub frequency: f64,
    /// Magnitude at the peak.
    pub magnitude: f64,
}

impl Spectrum {
    /// Builds the single-sided spectrum from the full FFT of a real
    /// signal (as left in the buffer by
    /// [`crate::fft::fft_windowed_real_into`]): `storage` is cleared,
    /// refilled with the non-redundant half's magnitudes and owned by the
    /// returned spectrum — reclaim it afterwards with
    /// [`Spectrum::into_magnitudes`]. Magnitude buffers thereby cycle
    /// through the per-thread scratch arena instead of the heap.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate` is not finite and positive or `spec` is
    /// empty.
    pub fn from_fft_into(spec: &[Complex], sample_rate: f64, mut storage: Vec<f64>) -> Self {
        assert!(
            sample_rate.is_finite() && sample_rate > 0.0,
            "sample rate must be positive, got {sample_rate}"
        );
        assert!(!spec.is_empty(), "spectrum needs at least one bin");
        let n_fft = spec.len();
        let half = n_fft / 2 + 1;
        storage.clear();
        storage.extend(spec[..half.min(n_fft)].iter().map(|z| z.abs()));
        Self {
            magnitudes: storage,
            bin_width: sample_rate / n_fft as f64,
        }
    }

    /// Consumes the spectrum and returns its magnitude storage, so
    /// arena-backed callers can recycle the allocation for the next
    /// stream.
    pub fn into_magnitudes(self) -> Vec<f64> {
        self.magnitudes
    }

    /// Builds a spectrum directly from magnitudes — used by tests and by
    /// the batch feature path, whose pair-FFT split writes single-sided
    /// magnitudes straight into recycled arena storage.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not finite and positive or `magnitudes` is
    /// empty.
    pub fn from_magnitudes(magnitudes: Vec<f64>, bin_width: f64) -> Self {
        assert!(
            bin_width.is_finite() && bin_width > 0.0,
            "bin width must be positive"
        );
        assert!(!magnitudes.is_empty(), "spectrum needs at least one bin");
        Self {
            magnitudes,
            bin_width,
        }
    }

    /// Magnitudes, one per bin, starting at DC.
    pub fn magnitudes(&self) -> &[f64] {
        &self.magnitudes
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.magnitudes.len()
    }

    /// Returns `true` if the spectrum has no bins (never the case: both
    /// constructors refuse an empty spectrum).
    pub fn is_empty(&self) -> bool {
        self.magnitudes.is_empty()
    }

    /// Width of one frequency bin in Hz.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Center frequency of bin `k` in Hz.
    pub fn frequency(&self, k: usize) -> f64 {
        k as f64 * self.bin_width
    }

    /// The Nyquist frequency covered by this spectrum.
    pub fn max_frequency(&self) -> f64 {
        self.frequency(self.magnitudes.len().saturating_sub(1))
    }

    /// Index of the largest-magnitude bin (DC included).
    pub fn peak_bin(&self) -> usize {
        self.magnitudes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k)
            .unwrap_or(0)
    }

    /// Local maxima above `threshold_ratio · max_magnitude`, DC excluded.
    ///
    /// Used by the spectral-roughness feature, which evaluates the
    /// Plomp–Levelt dissonance between all pairs of peaks. `max` is the
    /// largest non-DC magnitude when the caller already scanned the body
    /// (the fused spectral-feature kernel); it must then equal
    /// `m[1..].iter().cloned().fold(0.0, f64::max)`. `None` computes it
    /// here.
    pub fn peaks_with_max(&self, threshold_ratio: f64, max: Option<f64>) -> Vec<Peak> {
        let m = &self.magnitudes;
        if m.len() < 3 {
            return Vec::new();
        }
        let max = max.unwrap_or_else(|| m[1..].iter().cloned().fold(0.0, f64::max));
        let thr = max * threshold_ratio.clamp(0.0, 1.0);
        let mut peaks = Vec::new();
        for k in 1..m.len() - 1 {
            if m[k] >= thr && m[k] > m[k - 1] && m[k] >= m[k + 1] && m[k] > 0.0 {
                peaks.push(Peak {
                    frequency: self.frequency(k),
                    magnitude: m[k],
                });
            }
        }
        peaks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft_windowed_real_into;

    /// The unwindowed spectrum of `x` sampled at `rate` Hz.
    fn spectrum(x: &[f64], rate: f64) -> Spectrum {
        let mut buf = Vec::new();
        fft_windowed_real_into(&mut buf, x, None);
        Spectrum::from_fft_into(&buf, rate, Vec::new())
    }

    fn tone(freq_bin: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq_bin as f64 * i as f64 / n as f64).sin())
            .collect()
    }

    #[test]
    fn spectrum_length_is_half_plus_one() {
        let spec = spectrum(&tone(4, 64), 64.0);
        assert_eq!(spec.len(), 33);
        assert!((spec.bin_width() - 1.0).abs() < 1e-12);
        assert!((spec.max_frequency() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn peak_at_tone_frequency() {
        let spec = spectrum(&tone(10, 128), 256.0);
        assert_eq!(spec.peak_bin(), 10);
        assert!((spec.frequency(10) - 20.0).abs() < 1e-12);
    }

    fn two_tones() -> Vec<f64> {
        let n = 256;
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * std::f64::consts::PI * 12.0 * t).sin()
                    + 0.8 * (2.0 * std::f64::consts::PI * 40.0 * t).sin()
            })
            .collect()
    }

    #[test]
    fn two_tone_signal_yields_two_peaks() {
        let spec = spectrum(&two_tones(), 256.0);
        let peaks = spec.peaks_with_max(0.5, None);
        assert_eq!(peaks.len(), 2);
        assert!((peaks[0].frequency - 12.0).abs() < 1e-9);
        assert!((peaks[1].frequency - 40.0).abs() < 1e-9);
        assert!(peaks[0].magnitude > peaks[1].magnitude);
    }

    #[test]
    fn peaks_with_precomputed_max_matches_computed_max() {
        let spec = spectrum(&two_tones(), 256.0);
        let max = spec.magnitudes()[1..].iter().cloned().fold(0.0, f64::max);
        for ratio in [0.1, 0.5] {
            assert_eq!(
                spec.peaks_with_max(ratio, None),
                spec.peaks_with_max(ratio, Some(max))
            );
        }
    }

    #[test]
    fn constant_signal_is_all_dc() {
        let spec = spectrum(&[5.0; 32], 32.0);
        assert_eq!(spec.peak_bin(), 0);
        assert!(spec.peaks_with_max(0.1, None).is_empty());
    }

    #[test]
    fn empty_signal_produces_single_bin() {
        let spec = spectrum(&[], 10.0);
        assert_eq!(spec.len(), 1);
        assert!(!spec.is_empty());
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn zero_sample_rate_panics() {
        Spectrum::from_fft_into(&[Complex::ONE], 0.0, Vec::new());
    }

    /// `from_fft_into` keeps the moduli of the non-redundant half and
    /// fully overwrites whatever garbage the recycled storage held,
    /// including storage longer than the output.
    #[test]
    fn from_fft_into_keeps_the_half_spectrum_and_scrubs_storage() {
        for n in [1usize, 2, 8, 64] {
            let spec: Vec<Complex> = (0..n)
                .map(|k| Complex::new((k as f64 * 0.7).sin() * 5.0, (k as f64 * 1.1).cos()))
                .collect();
            let got = Spectrum::from_fft_into(&spec, 128.0, vec![f64::NAN; 500]);
            assert_eq!(got.len(), (n / 2 + 1).min(n), "n={n}");
            assert_eq!(got.bin_width().to_bits(), (128.0 / n as f64).to_bits());
            for (a, z) in got.magnitudes().iter().zip(&spec) {
                assert_eq!(a.to_bits(), z.abs().to_bits(), "n={n}");
            }
            let reclaimed = got.into_magnitudes();
            assert_eq!(reclaimed.len(), (n / 2 + 1).min(n));
        }
    }
}
