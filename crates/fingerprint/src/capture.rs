//! Stationary hand-held sensor capture sessions.

use crate::device::DeviceInstance;
use srtd_runtime::json::{Json, ToJson};
use srtd_runtime::rng::Rng;

/// Standard gravity (m/s²).
pub const GRAVITY: f64 = 9.80665;

/// Configuration of a fingerprint capture session.
///
/// The paper asks each user to hold the phone still for 6 seconds at
/// sign-in while a script samples the motion sensors; browsers expose them
/// at O(100 Hz). [`CaptureConfig::paper_default`] matches that protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureConfig {
    /// Capture duration in seconds.
    pub duration_s: f64,
    /// Sensor sampling rate in Hz.
    pub sample_rate: f64,
    /// Amplitude of physiological hand tremor (m/s²). Tremor sits in the
    /// 8–12 Hz band and is what excites the chip resonance.
    pub tremor_amplitude: f64,
    /// Amplitude of tremor-induced rotation (rad/s).
    pub tremor_rotation: f64,
    /// Session-to-session bias drift σ (m/s² for the accelerometer, the
    /// same value scaled by 0.3 in rad/s for the gyroscope).
    ///
    /// MEMS bias is temperature-dependent: a phone pulled out of a warm
    /// pocket fingerprints slightly differently than a cold one. AG-FP
    /// assumes the fingerprint is stable across sessions; this knob
    /// quantifies how much drift that assumption tolerates
    /// (`exp_fingerprint_stability`). The default is 0 (the paper's
    /// controlled sign-in protocol).
    pub bias_drift: f64,
}

impl CaptureConfig {
    /// The paper's protocol: 6 seconds at 100 Hz with typical hand tremor.
    pub fn paper_default() -> Self {
        Self {
            duration_s: 6.0,
            sample_rate: 100.0,
            tremor_amplitude: 0.025,
            tremor_rotation: 0.015,
            bias_drift: 0.0,
        }
    }

    /// Replaces the session bias drift.
    ///
    /// # Panics
    ///
    /// Panics if `drift` is negative or non-finite.
    pub fn with_bias_drift(mut self, drift: f64) -> Self {
        assert!(
            drift >= 0.0 && drift.is_finite(),
            "drift must be non-negative"
        );
        self.bias_drift = drift;
        self
    }

    /// Number of samples in a capture.
    pub fn sample_count(&self) -> usize {
        (self.duration_s * self.sample_rate).round().max(1.0) as usize
    }
}

/// One recorded capture: parallel accelerometer and gyroscope samples.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorCapture {
    accel: Vec<[f64; 3]>,
    gyro: Vec<[f64; 3]>,
    sample_rate: f64,
}

impl SensorCapture {
    /// Wraps raw sample streams.
    ///
    /// # Panics
    ///
    /// Panics if the streams have different lengths or the rate is not
    /// positive.
    pub fn new(accel: Vec<[f64; 3]>, gyro: Vec<[f64; 3]>, sample_rate: f64) -> Self {
        assert_eq!(accel.len(), gyro.len(), "sensor streams must be parallel");
        assert!(
            sample_rate.is_finite() && sample_rate > 0.0,
            "sample rate must be positive"
        );
        Self {
            accel,
            gyro,
            sample_rate,
        }
    }

    /// Accelerometer samples (x, y, z) in m/s².
    pub fn accel(&self) -> &[[f64; 3]] {
        &self.accel
    }

    /// Gyroscope samples (x, y, z) in rad/s.
    pub fn gyro(&self) -> &[[f64; 3]] {
        &self.gyro
    }

    /// Sampling rate in Hz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.accel.len()
    }

    /// Returns `true` for an empty capture.
    pub fn is_empty(&self) -> bool {
        self.accel.is_empty()
    }

    /// The orientation-independent accelerometer magnitude stream
    /// `|a(t)| = sqrt(ax² + ay² + az²)` (§IV-C).
    pub fn accel_magnitude(&self) -> Vec<f64> {
        self.accel
            .iter()
            .map(|a| (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt())
            .collect()
    }

    /// One gyroscope axis as a stream (`axis` in `0..3`).
    ///
    /// # Panics
    ///
    /// Panics if `axis >= 3`.
    pub fn gyro_axis(&self, axis: usize) -> Vec<f64> {
        assert!(axis < 3, "gyroscope has axes 0..3, got {axis}");
        self.gyro.iter().map(|w| w[axis]).collect()
    }

    /// The four fingerprint streams of §IV-C:
    /// `{|a(t)|, w_x(t), w_y(t), w_z(t)}`.
    pub fn streams(&self) -> [Vec<f64>; 4] {
        [
            self.accel_magnitude(),
            self.gyro_axis(0),
            self.gyro_axis(1),
            self.gyro_axis(2),
        ]
    }
}

impl DeviceInstance {
    /// Simulates one stationary hand-held capture on this device.
    ///
    /// The true signal is gravity (with a random per-session grip
    /// orientation) plus band-limited hand tremor; the chip then adds its
    /// resonance response, per-axis gain error, per-axis bias and white
    /// noise — the imperfections AG-FP fingerprints.
    pub fn capture<R: Rng + ?Sized>(&self, config: &CaptureConfig, rng: &mut R) -> SensorCapture {
        let n = config.sample_count();
        let dt = 1.0 / config.sample_rate;
        // Per-session grip: gravity direction tilted a few degrees off z.
        let tilt_x = rng.normal(0.0, 0.06);
        let tilt_y = rng.normal(0.0, 0.06);
        let g = [
            GRAVITY * tilt_x.sin(),
            GRAVITY * tilt_y.sin() * tilt_x.cos(),
            GRAVITY * tilt_x.cos() * tilt_y.cos(),
        ];
        // Tremor: two tones per axis in the physiological 9–11 Hz band with
        // random phase and strength per session.
        let two_pi = 2.0 * std::f64::consts::PI;
        let tremor_tone = |rng: &mut R| {
            (
                rng.gen_range(9.0..11.0),
                rng.gen_range(0.0..two_pi),
                rng.gen_range(0.7..1.0),
            )
        };
        let accel_tones: Vec<[(f64, f64, f64); 2]> = (0..3)
            .map(|_| [tremor_tone(rng), tremor_tone(rng)])
            .collect();
        let gyro_tones: Vec<[(f64, f64, f64); 2]> = (0..3)
            .map(|_| [tremor_tone(rng), tremor_tone(rng)])
            .collect();
        let resonance_phase = rng.gen_range(0.0..two_pi);
        // Session-level thermal bias drift. Skipped entirely at zero so
        // the default configuration consumes the same RNG stream as before
        // the knob existed (seeded scenarios stay reproducible).
        let (accel_drift, gyro_drift) = if config.bias_drift > 0.0 {
            (
                std::array::from_fn(|_| rng.normal(0.0, config.bias_drift)),
                std::array::from_fn(|_| rng.normal(0.0, config.bias_drift * 0.3)),
            )
        } else {
            ([0.0; 3], [0.0; 3])
        };

        let mut accel = Vec::with_capacity(n);
        let mut gyro = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64 * dt;
            let resonance =
                self.resonance_gain * (two_pi * self.resonance_hz * t + resonance_phase).sin();
            let mut a = [0.0; 3];
            let mut w = [0.0; 3];
            for axis in 0..3 {
                let tremor: f64 = accel_tones[axis]
                    .iter()
                    .map(|&(f, p, s)| s * config.tremor_amplitude * (two_pi * f * t + p).sin())
                    .sum();
                let truth = g[axis] + tremor + resonance;
                a[axis] = self.accel_scale[axis] * truth
                    + self.accel_bias[axis]
                    + accel_drift[axis]
                    + rng.normal(0.0, self.accel_noise);
                let rot: f64 = gyro_tones[axis]
                    .iter()
                    .map(|&(f, p, s)| s * config.tremor_rotation * (two_pi * f * t + p).sin())
                    .sum();
                w[axis] = self.gyro_scale[axis] * rot
                    + self.gyro_bias[axis]
                    + gyro_drift[axis]
                    + rng.normal(0.0, self.gyro_noise);
            }
            accel.push(a);
            gyro.push(w);
        }
        SensorCapture::new(accel, gyro, config.sample_rate)
    }
}

impl ToJson for CaptureConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("duration_s", self.duration_s.to_json()),
            ("sample_rate", self.sample_rate.to_json()),
            ("tremor_amplitude", self.tremor_amplitude.to_json()),
            ("tremor_rotation", self.tremor_rotation.to_json()),
            ("bias_drift", self.bias_drift.to_json()),
        ])
    }
}

impl ToJson for SensorCapture {
    fn to_json(&self) -> Json {
        Json::obj([
            ("sample_rate", self.sample_rate.to_json()),
            ("accel", self.accel.to_json()),
            ("gyro", self.gyro.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::standard_catalog;
    use srtd_runtime::rng::SeedableRng;
    use srtd_runtime::rng::StdRng;

    fn device(seed: u64) -> DeviceInstance {
        standard_catalog()[2]
            .model
            .manufacture(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn capture_has_expected_shape() {
        let cfg = CaptureConfig::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        let cap = device(0).capture(&cfg, &mut rng);
        assert_eq!(cap.len(), 600);
        assert_eq!(cap.sample_rate(), 100.0);
        assert_eq!(cap.accel().len(), cap.gyro().len());
    }

    #[test]
    fn accel_magnitude_hovers_near_gravity() {
        let cfg = CaptureConfig::paper_default();
        let mut rng = StdRng::seed_from_u64(2);
        let cap = device(0).capture(&cfg, &mut rng);
        let mags = cap.accel_magnitude();
        let mean: f64 = mags.iter().sum::<f64>() / mags.len() as f64;
        assert!((mean - GRAVITY).abs() < 0.5, "mean magnitude {mean}");
    }

    #[test]
    fn gyro_is_small_and_biased() {
        let cfg = CaptureConfig::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        let dev = device(0);
        let cap = dev.capture(&cfg, &mut rng);
        for axis in 0..3 {
            let stream = cap.gyro_axis(axis);
            let mean: f64 = stream.iter().sum::<f64>() / stream.len() as f64;
            // The time-average of tremor is ~0, so the stream mean recovers
            // the chip bias — exactly the signal AG-FP exploits.
            assert!((mean - dev.gyro_bias[axis]).abs() < 0.01);
        }
    }

    #[test]
    fn captures_differ_between_sessions_but_share_signature() {
        let cfg = CaptureConfig::paper_default();
        let dev = device(0);
        let mut rng = StdRng::seed_from_u64(4);
        let a = dev.capture(&cfg, &mut rng);
        let b = dev.capture(&cfg, &mut rng);
        assert_ne!(a.accel()[0], b.accel()[0]);
        // Bias survives across sessions: stream means stay close.
        let ma: f64 = a.gyro_axis(0).iter().sum::<f64>() / a.len() as f64;
        let mb: f64 = b.gyro_axis(0).iter().sum::<f64>() / b.len() as f64;
        assert!((ma - mb).abs() < 0.005);
    }

    #[test]
    fn streams_returns_four_parallel_streams() {
        let cfg = CaptureConfig::paper_default();
        let mut rng = StdRng::seed_from_u64(5);
        let cap = device(1).capture(&cfg, &mut rng);
        let streams = cap.streams();
        assert!(streams.iter().all(|s| s.len() == cap.len()));
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_streams_panic() {
        SensorCapture::new(vec![[0.0; 3]], vec![], 100.0);
    }

    #[test]
    #[should_panic(expected = "axes 0..3")]
    fn bad_axis_panics() {
        let cap = SensorCapture::new(vec![[0.0; 3]], vec![[0.0; 3]], 100.0);
        cap.gyro_axis(3);
    }
}
