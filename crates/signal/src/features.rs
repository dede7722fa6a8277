//! Combined feature vectors and feature-matrix standardization.

use crate::arena::with_scratch;
use crate::fft::{
    fft_windowed_real_into, fft_windowed_real_pair_into, next_power_of_two,
    real_pair_magnitudes_into,
};
use crate::spectral::SpectralFeatures;
use crate::spectrum::Spectrum;
use crate::temporal::TemporalFeatures;
use crate::window::hann_table;
use srtd_runtime::parallel::parallel_map_min;
use std::collections::BTreeMap;

/// Number of features per sensor stream (9 temporal + 11 spectral).
pub const FEATURES_PER_STREAM: usize = 20;

/// Brightness cut-off as a share of the Nyquist frequency. MIRtoolbox
/// defaults to 1500 Hz for audio; motion sensors sample at ~100 Hz, so the
/// cut-off scales with the sample rate instead.
const BRIGHTNESS_CUTOFF_NYQUIST_SHARE: f64 = 0.3;

/// The full 20-feature description of one sensor stream (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamFeatures {
    /// Features 1–9 (time domain).
    pub temporal: TemporalFeatures,
    /// Features 10–20 (frequency domain).
    pub spectral: SpectralFeatures,
}

impl StreamFeatures {
    /// Concatenated feature vector in Table-II order (length 20).
    pub fn to_vec(self) -> Vec<f64> {
        let mut v = Vec::with_capacity(FEATURES_PER_STREAM);
        self.extend_into(&mut v);
        v
    }

    /// Appends the 20 features to `out` in Table-II order, without the
    /// intermediate allocations of [`StreamFeatures::to_vec`] — campaign
    /// fingerprinting concatenates one of these per axis stream.
    pub fn extend_into(self, out: &mut Vec<f64>) {
        let t = self.temporal;
        let s = self.spectral;
        out.extend_from_slice(&[
            t.mean,
            t.std_dev,
            t.skewness,
            t.kurtosis,
            t.rms,
            t.max,
            t.min,
            t.zcr,
            t.non_negative_fraction,
            s.centroid,
            s.spread,
            s.skewness,
            s.kurtosis,
            s.flatness,
            s.irregularity,
            s.entropy,
            s.rolloff,
            s.brightness,
            s.rms,
            s.roughness,
        ]);
    }
}

/// Fused per-stream extraction from a precomputed spectrum: the temporal
/// half in two [`crate::stats::Moments`] passes over the signal, the
/// spectral half in two passes over the magnitude body plus one shared
/// peak scan. The `signal.features.fused_calls` counter counts every
/// Table-II extraction in the process.
fn extract_from_spectrum(signal: &[f64], spectrum: &Spectrum, cutoff_hz: f64) -> StreamFeatures {
    srtd_runtime::obs::counter_add("signal.features.fused_calls", 1);
    StreamFeatures {
        temporal: TemporalFeatures::extract(signal),
        spectral: SpectralFeatures::extract(spectrum, cutoff_hz),
    }
}

/// Extracts the 20 Table-II features from each of a batch of sensor
/// streams sampled at `sample_rate` Hz.
///
/// Every stream is Hann-windowed before its FFT, and the brightness
/// feature counts the magnitude at or above 0.3 × Nyquist.
///
/// Streams whose zero-padded FFT lengths match are packed two at a time
/// through [`fft_windowed_real_pair_into`] — one complex transform per
/// pair instead of one per stream — and a leftover stream in a length
/// class takes [`fft_windowed_real_into`] alone. Each job runs the *whole*
/// per-stream pipeline inside the deterministic parallel map: windowing
/// fused into the FFT's bit-reversal load (reading the raw streams and
/// the cached coefficient tables directly, no windowed copies), then the
/// spectrum written straight into per-thread arena magnitude buffers,
/// then fused temporal + spectral extraction. The only sequential work
/// left is job assembly; the only steady-state allocations are the
/// outputs. Output order matches input order.
///
/// Results are byte-identical regardless of worker-thread count (job
/// order and chunking depend only on the batch itself, and each stream's
/// features are computed entirely within its own job). A stream's
/// spectral features depend on whether it was paired: the pair split
/// re-associates a handful of additions, so they agree with the
/// single-stream transform to ~1e-9, not bit for bit. The temporal
/// features never pass through the FFT.
///
/// # Examples
///
/// ```
/// use srtd_signal::stream_features_batch;
///
/// let xs: Vec<f64> = (0..128).map(|i| (i as f64).sin()).collect();
/// let f = stream_features_batch(&[xs], 100.0);
/// assert_eq!(f[0].to_vec().len(), 20);
/// ```
///
/// # Panics
///
/// Panics if `sample_rate` is not finite and positive.
pub fn stream_features_batch<S: AsRef<[f64]> + Sync>(
    streams: &[S],
    sample_rate: f64,
) -> Vec<StreamFeatures> {
    assert!(
        sample_rate.is_finite() && sample_rate > 0.0,
        "sample rate must be positive, got {sample_rate}"
    );
    let cutoff_hz = BRIGHTNESS_CUTOFF_NYQUIST_SHARE * sample_rate / 2.0;
    let _span = srtd_runtime::obs::span("signal.stream_features_batch");
    srtd_runtime::obs::counter_add("signal.stream_features_batch.calls", 1);
    srtd_runtime::obs::observe("signal.stream_features_batch.streams", streams.len() as f64);
    // Pair up streams with equal padded FFT length; a leftover stream in
    // any length class takes the plain single-stream transform.
    let mut by_len: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in streams.iter().enumerate() {
        by_len
            .entry(next_power_of_two(s.as_ref().len()))
            .or_default()
            .push(i);
    }
    let jobs: Vec<(usize, Option<usize>)> = by_len
        .values()
        .flat_map(|indices| {
            indices
                .chunks(2)
                .map(|pair| (pair[0], pair.get(1).copied()))
        })
        .collect();
    let extracted = parallel_map_min(&jobs, 2, |&(i, j)| {
        with_scratch(|scratch| {
            let xi = streams[i].as_ref();
            let ti = hann_table(xi.len());
            match j {
                Some(j) => {
                    let xj = streams[j].as_ref();
                    let tj = hann_table(xj.len());
                    fft_windowed_real_pair_into(
                        &mut scratch.buf,
                        xi,
                        ti.as_ref().map(|t| t.as_slice()),
                        xj,
                        tj.as_ref().map(|t| t.as_slice()),
                    );
                    real_pair_magnitudes_into(&scratch.buf, &mut scratch.mag_a, &mut scratch.mag_b);
                    // Same division `from_fft_into` performs: rate over the
                    // padded transform length.
                    let bin_width = sample_rate / scratch.buf.len() as f64;
                    let spec_i =
                        Spectrum::from_magnitudes(std::mem::take(&mut scratch.mag_a), bin_width);
                    let fi = (i, extract_from_spectrum(xi, &spec_i, cutoff_hz));
                    scratch.mag_a = spec_i.into_magnitudes();
                    let spec_j =
                        Spectrum::from_magnitudes(std::mem::take(&mut scratch.mag_b), bin_width);
                    let fj = (j, extract_from_spectrum(xj, &spec_j, cutoff_hz));
                    scratch.mag_b = spec_j.into_magnitudes();
                    (fi, Some(fj))
                }
                None => {
                    fft_windowed_real_into(&mut scratch.buf, xi, ti.as_ref().map(|t| t.as_slice()));
                    let spectrum = Spectrum::from_fft_into(
                        &scratch.buf,
                        sample_rate,
                        std::mem::take(&mut scratch.mag_a),
                    );
                    let fi = (i, extract_from_spectrum(xi, &spectrum, cutoff_hz));
                    scratch.mag_a = spectrum.into_magnitudes();
                    (fi, None)
                }
            }
        })
    });
    let mut features: Vec<Option<StreamFeatures>> = vec![None; streams.len()];
    for ((i, fi), rest) in extracted {
        features[i] = Some(fi);
        if let Some((j, fj)) = rest {
            features[j] = Some(fj);
        }
    }
    features
        .into_iter()
        .map(|f| f.expect("every stream got features"))
        .collect()
}

/// Z-score standardization of a feature matrix, column by column.
///
/// k-means and PCA are scale-sensitive; raw Table-II features span wildly
/// different ranges (fractions vs. Hz vs. m/s²), so AG-FP standardizes each
/// column to zero mean and unit variance before clustering. Constant
/// columns (zero variance) are mapped to all-zeros rather than dividing by
/// zero.
///
/// Statistics are accumulated row-major — one cache-friendly sweep over
/// the matrix per statistic instead of `dim` strided column walks. Each
/// column's additions still happen in row order from `Iterator::sum`'s
/// `-0.0` identity, so the output is bit-identical to the
/// column-at-a-time formulation.
///
/// # Panics
///
/// Panics if rows have inconsistent lengths.
pub fn standardize(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let Some(first) = rows.first() else {
        return Vec::new();
    };
    let dim = first.len();
    assert!(
        rows.iter().all(|r| r.len() == dim),
        "feature rows must have equal lengths"
    );
    let n = rows.len() as f64;
    let mut sums = vec![-0.0f64; dim];
    for r in rows {
        for (s, &x) in sums.iter_mut().zip(r) {
            *s += x;
        }
    }
    let means: Vec<f64> = sums.iter().map(|s| s / n).collect();
    let mut vars = vec![-0.0f64; dim];
    for r in rows {
        for ((v, &x), &m) in vars.iter_mut().zip(r).zip(&means) {
            *v += (x - m).powi(2);
        }
    }
    let params: Vec<(f64, f64)> = means
        .iter()
        .zip(&vars)
        .map(|(&m, &v)| (m, (v / n).sqrt()))
        .collect();
    rows.iter()
        .map(|r| {
            r.iter()
                .zip(&params)
                .map(|(&x, &(m, s))| if s > 0.0 { (x - m) / s } else { 0.0 })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_runtime::rng::Rng;
    use srtd_runtime::{prop, prop_assert};

    fn noisy_signal(seed: u64, n: usize) -> Vec<f64> {
        // Small deterministic LCG so the test has no RNG dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let noise = (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0;
                9.81 + 0.05 * (i as f64 * 0.8).sin() + 0.01 * noise
            })
            .collect()
    }

    /// One stream's features from a one-stream batch.
    fn one(signal: &[f64]) -> StreamFeatures {
        stream_features_batch(&[signal], 100.0)[0]
    }

    #[test]
    fn feature_vector_has_twenty_entries() {
        let v = one(&noisy_signal(1, 600)).to_vec();
        assert_eq!(v.len(), FEATURES_PER_STREAM);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn different_signals_have_different_features() {
        let f = stream_features_batch(&[noisy_signal(1, 600), noisy_signal(999, 600)], 100.0);
        assert_ne!(f[0].to_vec(), f[1].to_vec());
    }

    #[test]
    fn standardize_produces_zero_mean_unit_variance() {
        let rows = vec![
            vec![1.0, 10.0, 5.0],
            vec![2.0, 20.0, 5.0],
            vec![3.0, 30.0, 5.0],
        ];
        let std_rows = standardize(&rows);
        for j in 0..3 {
            let col: Vec<f64> = std_rows.iter().map(|r| r[j]).collect();
            let mean: f64 = col.iter().sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
        }
        // Constant column is zeroed, not NaN.
        assert!(std_rows.iter().all(|r| r[2] == 0.0));
    }

    #[test]
    fn standardize_empty_input() {
        assert!(standardize(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn negative_sample_rate_panics() {
        stream_features_batch(&[[1.0]], -1.0);
    }

    #[test]
    fn extend_into_matches_to_vec() {
        let f = one(&noisy_signal(3, 400));
        let mut buf = vec![-1.0];
        f.extend_into(&mut buf);
        assert_eq!(buf.len(), 1 + FEATURES_PER_STREAM);
        assert_eq!(&buf[1..], f.to_vec().as_slice());
    }

    /// The column-at-a-time standardize the row-major version replaced,
    /// kept verbatim so the bit-identity test below pins the rewrite.
    fn reference_standardize(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let Some(first) = rows.first() else {
            return Vec::new();
        };
        let dim = first.len();
        let n = rows.len() as f64;
        let mut params = Vec::with_capacity(dim);
        for j in 0..dim {
            let mean = rows.iter().map(|r| r[j]).sum::<f64>() / n;
            let var = rows.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / n;
            params.push((mean, var.sqrt()));
        }
        rows.iter()
            .map(|r| {
                r.iter()
                    .zip(&params)
                    .map(|(&x, &(m, s))| if s > 0.0 { (x - m) / s } else { 0.0 })
                    .collect()
            })
            .collect()
    }

    /// Row-major standardization is bit-identical to the column-major
    /// shape it replaced, including constant and single-row matrices.
    #[test]
    fn row_major_standardize_is_bit_identical_to_column_major() {
        let degenerate: [&[&[f64]]; 3] = [
            &[&[5.0, -2.0, 0.0]],
            &[&[1.0, 7.0], &[1.0, 7.0], &[1.0, 7.0]],
            &[&[0.0], &[-0.0]],
        ];
        for rows in degenerate {
            let rows: Vec<Vec<f64>> = rows.iter().map(|r| r.to_vec()).collect();
            assert_eq!(standardize(&rows), reference_standardize(&rows));
        }
        prop::check(
            |rng| {
                let dim = rng.gen_range(1usize..8);
                prop::vec_with(rng, 1..40, |r| {
                    (0..dim)
                        .map(|_| r.gen_range(-1e3f64..1e3))
                        .collect::<Vec<f64>>()
                })
            },
            |rows| {
                let (got, want) = (standardize(rows), reference_standardize(rows));
                for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
                    prop_assert!(g.to_bits() == w.to_bits(), "{g} vs {w}");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn standardized_columns_are_centered() {
        prop::check(
            |rng| {
                prop::vec_with(rng, 2..30, |r| {
                    (0..4)
                        .map(|_| r.gen_range(-1e3f64..1e3))
                        .collect::<Vec<f64>>()
                })
            },
            |rows| {
                let std_rows = standardize(rows);
                for j in 0..4 {
                    let mean: f64 =
                        std_rows.iter().map(|r| r[j]).sum::<f64>() / std_rows.len() as f64;
                    prop_assert!(mean.abs() < 1e-8);
                }
                Ok(())
            },
        );
    }

    /// Batched extraction agrees with one-stream batches to high
    /// precision (the pair split re-associates additions, so exact bits
    /// may differ in the spectral half) and preserves stream order, for
    /// even and odd batch sizes and mixed lengths. The temporal half
    /// never passes through the FFT, so its bits must match exactly.
    #[test]
    fn batch_matches_one_stream_batches() {
        for count in [1usize, 2, 3, 4, 5] {
            let streams: Vec<Vec<f64>> = (0..count)
                .map(|s| noisy_signal(s as u64 + 1, 300 + 100 * s))
                .collect();
            let batched = stream_features_batch(&streams, 100.0);
            assert_eq!(batched.len(), count);
            for (s, f) in streams.iter().zip(&batched) {
                let single = one(s);
                assert_eq!(f.temporal, single.temporal, "batch {count}");
                let got = f.to_vec();
                for (a, b) in got.iter().zip(&single.to_vec()) {
                    assert!(
                        (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                        "batch {count}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// Batched extraction is byte-identical across worker-thread counts,
    /// including an odd batch of mixed-length streams (exercising both
    /// the paired and leftover single-FFT job shapes).
    #[test]
    fn batch_is_thread_count_invariant() {
        let batches: [Vec<Vec<f64>>; 2] = [
            (0..4).map(|s| noisy_signal(s as u64 + 9, 512)).collect(),
            (0..5)
                .map(|s| noisy_signal(s as u64 + 17, 300 + 100 * s))
                .collect(),
        ];
        for streams in &batches {
            let run = |threads: usize| -> Vec<u64> {
                srtd_runtime::parallel::set_max_threads(threads);
                let bits = stream_features_batch(streams, 100.0)
                    .into_iter()
                    .flat_map(|f| f.to_vec())
                    .map(f64::to_bits)
                    .collect();
                srtd_runtime::parallel::set_max_threads(0);
                bits
            };
            let single = run(1);
            assert_eq!(single, run(3));
            assert_eq!(single, run(4));
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let out = stream_features_batch::<Vec<f64>>(&[], 100.0);
        assert!(out.is_empty());
    }

    #[test]
    fn features_never_nan() {
        prop::check(
            |rng| prop::vec_with(rng, 0..400, |r| r.gen_range(-1e3f64..1e3)),
            |xs| {
                prop_assert!(one(xs).to_vec().iter().all(|v| v.is_finite()));
                Ok(())
            },
        );
    }
}
