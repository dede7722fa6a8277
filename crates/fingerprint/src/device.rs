//! Device models and manufactured device instances.

use srtd_runtime::json::{Json, ToJson};
use srtd_runtime::rng::Rng;

/// Operating system of a smartphone model (Table IV groups by OS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceOs {
    /// Apple iOS device.
    Ios,
    /// Android device.
    Android,
}

impl std::fmt::Display for DeviceOs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceOs::Ios => write!(f, "iOS"),
            DeviceOs::Android => write!(f, "Android"),
        }
    }
}

/// Population-level MEMS parameters of a smartphone model.
///
/// The *centers* differ between models (different sensor chips and
/// mounting), while the *spreads* describe chip-to-chip manufacturing
/// variation within the model. The defaults below are in the range reported
/// for commodity MEMS parts (bias of a few mg / a few mdps, gain errors a
/// few per mille) — exact values only shape the simulation, not the
/// algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemsParameters {
    /// Model-level accelerometer bias center per axis (m/s²).
    pub accel_bias_center: f64,
    /// Chip-to-chip spread of the accelerometer bias (m/s²).
    pub accel_bias_spread: f64,
    /// Chip-to-chip spread of the accelerometer gain error (relative).
    pub accel_scale_spread: f64,
    /// Accelerometer output noise σ per sample (m/s²).
    pub accel_noise: f64,
    /// Model-level gyroscope bias center per axis (rad/s).
    pub gyro_bias_center: f64,
    /// Chip-to-chip spread of the gyroscope bias (rad/s).
    pub gyro_bias_spread: f64,
    /// Chip-to-chip spread of the gyroscope gain error (relative).
    pub gyro_scale_spread: f64,
    /// Gyroscope output noise σ per sample (rad/s).
    pub gyro_noise: f64,
    /// Model-level resonance of the MEMS proof-mass suspension (Hz).
    ///
    /// Hand tremor excites this mode; its frequency is a strong model
    /// signature and shifts slightly chip to chip.
    pub resonance_hz: f64,
    /// Chip-to-chip spread of the resonance frequency (Hz).
    pub resonance_spread_hz: f64,
    /// Amplitude of the resonance response in the accelerometer (m/s²).
    pub resonance_gain: f64,
}

/// A smartphone model — a family of devices sharing MEMS characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// Marketing name, e.g. `"iPhone 6S"`.
    pub name: String,
    /// Operating system.
    pub os: DeviceOs,
    /// Population-level MEMS parameters.
    pub mems: MemsParameters,
}

impl DeviceModel {
    /// Creates a model with the given name, OS and MEMS population
    /// parameters.
    pub fn new(name: impl Into<String>, os: DeviceOs, mems: MemsParameters) -> Self {
        Self {
            name: name.into(),
            os,
            mems,
        }
    }

    /// Manufactures one physical device: draws its chip-level
    /// imperfections around the model's population parameters.
    pub fn manufacture<R: Rng + ?Sized>(&self, rng: &mut R) -> DeviceInstance {
        let m = &self.mems;
        DeviceInstance {
            model_name: self.name.clone(),
            accel_bias: std::array::from_fn(|_| {
                rng.normal(m.accel_bias_center, m.accel_bias_spread)
            }),
            accel_scale: std::array::from_fn(|_| rng.normal(1.0, m.accel_scale_spread)),
            accel_noise: m.accel_noise * rng.normal(1.0, 0.1).clamp(0.5, 1.5),
            gyro_bias: std::array::from_fn(|_| rng.normal(m.gyro_bias_center, m.gyro_bias_spread)),
            gyro_scale: std::array::from_fn(|_| rng.normal(1.0, m.gyro_scale_spread)),
            gyro_noise: m.gyro_noise * rng.normal(1.0, 0.1).clamp(0.5, 1.5),
            resonance_hz: rng
                .normal(m.resonance_hz, m.resonance_spread_hz)
                .clamp(1.0, 45.0),
            resonance_gain: (m.resonance_gain * rng.normal(1.0, 0.15)).max(0.0),
        }
    }
}

/// One manufactured device with its chip-level MEMS imperfections.
///
/// These values are fixed at "manufacture" time and shared by every capture
/// taken on the device — the stability that makes fingerprinting work.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceInstance {
    /// Name of the model this device belongs to.
    pub model_name: String,
    /// Accelerometer bias per axis (m/s²).
    pub accel_bias: [f64; 3],
    /// Accelerometer gain per axis (1.0 = perfect).
    pub accel_scale: [f64; 3],
    /// Accelerometer noise σ (m/s²).
    pub accel_noise: f64,
    /// Gyroscope bias per axis (rad/s).
    pub gyro_bias: [f64; 3],
    /// Gyroscope gain per axis (1.0 = perfect).
    pub gyro_scale: [f64; 3],
    /// Gyroscope noise σ (rad/s).
    pub gyro_noise: f64,
    /// Resonance frequency of this chip (Hz).
    pub resonance_hz: f64,
    /// Resonance response amplitude (m/s²).
    pub resonance_gain: f64,
}

impl ToJson for DeviceOs {
    fn to_json(&self) -> Json {
        Json::str(self.to_string())
    }
}

impl ToJson for MemsParameters {
    fn to_json(&self) -> Json {
        Json::obj([
            ("accel_bias_center", self.accel_bias_center.to_json()),
            ("accel_bias_spread", self.accel_bias_spread.to_json()),
            ("accel_scale_spread", self.accel_scale_spread.to_json()),
            ("accel_noise", self.accel_noise.to_json()),
            ("gyro_bias_center", self.gyro_bias_center.to_json()),
            ("gyro_bias_spread", self.gyro_bias_spread.to_json()),
            ("gyro_scale_spread", self.gyro_scale_spread.to_json()),
            ("gyro_noise", self.gyro_noise.to_json()),
            ("resonance_hz", self.resonance_hz.to_json()),
            ("resonance_spread_hz", self.resonance_spread_hz.to_json()),
            ("resonance_gain", self.resonance_gain.to_json()),
        ])
    }
}

impl ToJson for DeviceModel {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("os", self.os.to_json()),
            ("mems", self.mems.to_json()),
        ])
    }
}

impl ToJson for DeviceInstance {
    fn to_json(&self) -> Json {
        Json::obj([
            ("model_name", self.model_name.to_json()),
            ("accel_bias", self.accel_bias.to_json()),
            ("accel_scale", self.accel_scale.to_json()),
            ("accel_noise", self.accel_noise.to_json()),
            ("gyro_bias", self.gyro_bias.to_json()),
            ("gyro_scale", self.gyro_scale.to_json()),
            ("gyro_noise", self.gyro_noise.to_json()),
            ("resonance_hz", self.resonance_hz.to_json()),
            ("resonance_gain", self.resonance_gain.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::standard_catalog;
    use srtd_runtime::rng::SeedableRng;
    use srtd_runtime::rng::StdRng;

    fn any_model() -> DeviceModel {
        standard_catalog()[0].model.clone()
    }

    #[test]
    fn manufacture_is_deterministic_given_seed() {
        let model = any_model();
        let a = model.manufacture(&mut StdRng::seed_from_u64(9));
        let b = model.manufacture(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn chips_of_one_model_differ() {
        let model = any_model();
        let mut rng = StdRng::seed_from_u64(1);
        let a = model.manufacture(&mut rng);
        let b = model.manufacture(&mut rng);
        assert_ne!(a.accel_bias, b.accel_bias);
        assert_eq!(a.model_name, b.model_name);
    }

    #[test]
    fn imperfections_are_near_population_centers() {
        let model = any_model();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let d = model.manufacture(&mut rng);
            for axis in 0..3 {
                let dev = (d.accel_bias[axis] - model.mems.accel_bias_center).abs();
                assert!(dev < 6.0 * model.mems.accel_bias_spread);
                assert!((d.accel_scale[axis] - 1.0).abs() < 6.0 * model.mems.accel_scale_spread);
            }
            assert!(d.resonance_hz >= 1.0 && d.resonance_hz <= 45.0);
            assert!(d.resonance_gain >= 0.0);
            assert!(d.accel_noise > 0.0);
        }
    }

    #[test]
    fn os_display() {
        assert_eq!(DeviceOs::Ios.to_string(), "iOS");
        assert_eq!(DeviceOs::Android.to_string(), "Android");
    }
}
