//! Fingerprint feature extraction (§IV-C).

use crate::capture::SensorCapture;
use srtd_signal::stream_features_batch;

/// Dimensionality of a fingerprint feature vector:
/// 20 Table-II features × 4 sensor streams.
pub const FINGERPRINT_DIMENSIONS: usize = 80;

/// Extracts the 80-dimensional fingerprint feature vector of a capture.
///
/// Per §IV-C, the capture is reduced to four streams — the accelerometer
/// magnitude `|a(t)|` (orientation-independent) and the three gyroscope
/// axes — and each stream is described by the 20 temporal/spectral features
/// of Table II. The concatenation is the device fingerprint AG-FP clusters.
///
/// # Examples
///
/// ```
/// use srtd_runtime::rng::SeedableRng;
/// use srtd_fingerprint::{catalog, CaptureConfig, fingerprint_features};
///
/// let mut rng = srtd_runtime::rng::StdRng::seed_from_u64(1);
/// let device = catalog::standard_catalog()[1].model.manufacture(&mut rng);
/// let capture = device.capture(&CaptureConfig::paper_default(), &mut rng);
/// assert_eq!(fingerprint_features(&capture).len(), 80);
/// ```
pub fn fingerprint_features(capture: &SensorCapture) -> Vec<f64> {
    let _span = srtd_runtime::obs::span("fingerprint.extract");
    srtd_runtime::obs::counter_add("fingerprint.extract.calls", 1);
    // All four streams share one capture length, so the batch packs them
    // into two two-for-one transforms instead of four.
    let streams = capture.streams();
    let mut features = Vec::with_capacity(FINGERPRINT_DIMENSIONS);
    for stream in stream_features_batch(&streams, capture.sample_rate()) {
        stream.extend_into(&mut features);
    }
    features
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureConfig;
    use crate::catalog::standard_catalog;
    use crate::device::DeviceInstance;
    use srtd_cluster::squared_distance;
    use srtd_runtime::rng::SeedableRng;
    use srtd_runtime::rng::StdRng;

    fn captures_for(device: &DeviceInstance, count: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        let cfg = CaptureConfig::paper_default();
        (0..count)
            .map(|_| fingerprint_features(&device.capture(&cfg, rng)))
            .collect()
    }

    #[test]
    fn feature_vector_is_80_dimensional_and_finite() {
        let mut rng = StdRng::seed_from_u64(1);
        let dev = standard_catalog()[0].model.manufacture(&mut rng);
        let f = captures_for(&dev, 1, &mut rng).remove(0);
        assert_eq!(f.len(), FINGERPRINT_DIMENSIONS);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn same_device_closer_than_different_models() {
        // The core separability property AG-FP depends on, checked on
        // standardized features (the clustering pipeline's view).
        let mut rng = StdRng::seed_from_u64(42);
        let catalog = standard_catalog();
        let dev_a = catalog[2].model.manufacture(&mut rng); // iPhone 6S
        let dev_b = catalog[5].model.manufacture(&mut rng); // Nexus 6P
        let mut rows = captures_for(&dev_a, 4, &mut rng);
        rows.extend(captures_for(&dev_b, 4, &mut rng));
        let std_rows = srtd_signal::features::standardize(&rows);
        // Mean within-device distance vs. cross-device distance.
        let mut within = 0.0;
        let mut cross = 0.0;
        let mut wn = 0;
        let mut cn = 0;
        for i in 0..8 {
            for j in i + 1..8 {
                let d = squared_distance(&std_rows[i], &std_rows[j]);
                if (i < 4) == (j < 4) {
                    within += d;
                    wn += 1;
                } else {
                    cross += d;
                    cn += 1;
                }
            }
        }
        let within = within / wn as f64;
        let cross = cross / cn as f64;
        // Session randomness (tremor tones, grip) keeps within-device
        // distance nonzero; the device signature must still dominate.
        assert!(
            cross > 1.4 * within,
            "cross-model distance {cross} not > within-device {within}"
        );
        // And the property AG-FP actually needs: k-means separates the two
        // devices perfectly.
        let km = srtd_cluster::KMeans::new(srtd_cluster::KMeansConfig::new(2)).fit(&std_rows);
        let truth = [0, 0, 0, 0, 1, 1, 1, 1];
        let ari = srtd_metrics::adjusted_rand_index(&km.assignments, &truth);
        assert!(
            (ari - 1.0).abs() < 1e-12,
            "k-means failed to separate devices, ARI {ari}, assignments {:?}",
            km.assignments
        );
    }

    #[test]
    fn same_model_devices_are_harder_to_separate_than_cross_model() {
        // Fig. 8's observation: same-model units sit close together.
        let mut rng = StdRng::seed_from_u64(7);
        let catalog = standard_catalog();
        let a1 = catalog[2].model.manufacture(&mut rng);
        let a2 = catalog[2].model.manufacture(&mut rng);
        let b = catalog[7].model.manufacture(&mut rng);
        let fa1 = captures_for(&a1, 3, &mut rng);
        let fa2 = captures_for(&a2, 3, &mut rng);
        let fb = captures_for(&b, 3, &mut rng);
        let mut rows = fa1.clone();
        rows.extend(fa2.clone());
        rows.extend(fb.clone());
        let std_rows = srtd_signal::features::standardize(&rows);
        let center = |range: std::ops::Range<usize>| -> Vec<f64> {
            let dim = std_rows[0].len();
            let mut c = vec![0.0; dim];
            let len = range.len() as f64;
            for i in range {
                for (cj, &x) in c.iter_mut().zip(&std_rows[i]) {
                    *cj += x / len;
                }
            }
            c
        };
        let ca1 = center(0..3);
        let ca2 = center(3..6);
        let cb = center(6..9);
        let same_model = squared_distance(&ca1, &ca2);
        let cross_model = squared_distance(&ca1, &cb).min(squared_distance(&ca2, &cb));
        assert!(
            cross_model > same_model,
            "same-model centers ({same_model}) should be closer than cross-model ({cross_model})"
        );
    }
}
