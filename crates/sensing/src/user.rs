//! Legitimate-user measurement quality.

use srtd_runtime::json::{Json, ToJson};
use srtd_runtime::rng::Rng;

/// How well a legitimate user measures: a systematic bias (device antenna,
/// holding style) plus random noise (environment, timing).
///
/// "In practice, the quality of sensing data from different users varies"
/// (§III-A) — truth discovery exists precisely because these profiles
/// differ and are unknown to the platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementProfile {
    /// Systematic offset added to every measurement (dBm).
    pub bias: f64,
    /// Standard deviation of per-measurement noise (dBm).
    pub noise_std: f64,
}

impl MeasurementProfile {
    /// Draws a random user profile: bias `~ N(0, 1.5)` dBm and noise σ
    /// `~ U(0.5, 3.5)` dBm, spanning careful to sloppy participants.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            bias: rng.normal(0.0, 1.5),
            noise_std: rng.gen_range(0.5..3.5),
        }
    }

    /// A perfectly calibrated profile (tests and worked examples).
    pub fn exact() -> Self {
        Self {
            bias: 0.0,
            noise_std: 0.0,
        }
    }
}

impl ToJson for MeasurementProfile {
    fn to_json(&self) -> Json {
        Json::obj([
            ("bias", self.bias.to_json()),
            ("noise_std", self.noise_std.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_runtime::rng::SeedableRng;
    use srtd_runtime::rng::StdRng;

    #[test]
    fn sampled_profiles_vary() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = MeasurementProfile::sample(&mut rng);
        let b = MeasurementProfile::sample(&mut rng);
        assert_ne!(a, b);
        assert!(a.noise_std >= 0.5 && a.noise_std < 3.5);
    }

    #[test]
    fn exact_profile_is_noise_free() {
        let p = MeasurementProfile::exact();
        assert_eq!(p.bias, 0.0);
        assert_eq!(p.noise_std, 0.0);
    }
}
