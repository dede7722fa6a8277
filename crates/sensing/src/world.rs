//! Ground-truth Wi-Fi signal field and noisy measurements.

use crate::poi::PoiMap;
use crate::user::MeasurementProfile;
use srtd_runtime::json::{Json, ToJson};
use srtd_runtime::rng::StdRng;
use srtd_runtime::rng::{Rng, SeedableRng};

/// Ground-truth Wi-Fi RSSI per POI plus the measurement model.
///
/// Each POI is covered by an access point at a random offset; the
/// ground-truth RSSI follows the log-distance path-loss model
/// `RSSI = P₀ − 10·γ·log₁₀(d/d₀)` with mild per-POI shadowing, which lands
/// values in the realistic −60…−90 dBm band the paper's Table I shows.
/// A legitimate measurement adds the user's systematic bias and random
/// noise (their [`MeasurementProfile`]).
///
/// # Examples
///
/// ```
/// use srtd_sensing::{PoiMap, WifiWorld};
///
/// let map = PoiMap::campus(10, 1);
/// let world = WifiWorld::generate(&map, 1);
/// let truth = world.ground_truth(3);
/// assert!((-95.0..=-55.0).contains(&truth));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WifiWorld {
    ground_truth: Vec<f64>,
}

impl WifiWorld {
    /// Transmit-side reference power at 1 m, in dBm.
    pub const REFERENCE_POWER_DBM: f64 = -40.0;
    /// Path-loss exponent for an indoor/campus environment.
    pub const PATH_LOSS_EXPONENT: f64 = 2.8;

    /// Generates the RSSI field for a POI map, deterministic in `seed`.
    pub fn generate(map: &PoiMap, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57AB1E);
        let ground_truth = map
            .pois()
            .iter()
            .map(|_| {
                // AP somewhere 5–60 m away from the POI.
                let d: f64 = rng.gen_range(5.0..60.0);
                let shadowing = rng.normal(0.0, 2.0);
                let rssi = Self::REFERENCE_POWER_DBM - 10.0 * Self::PATH_LOSS_EXPONENT * d.log10()
                    + shadowing;
                rssi.clamp(-92.0, -58.0)
            })
            .collect();
        Self { ground_truth }
    }

    /// Builds a world from explicit ground truths (for tests and worked
    /// examples).
    pub fn from_truths(ground_truth: Vec<f64>) -> Self {
        Self { ground_truth }
    }

    /// Number of tasks/POIs.
    pub fn num_tasks(&self) -> usize {
        self.ground_truth.len()
    }

    /// Ground-truth RSSI of task `task` in dBm.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn ground_truth(&self, task: usize) -> f64 {
        self.ground_truth[task]
    }

    /// All ground truths, indexed by task.
    pub fn ground_truths(&self) -> &[f64] {
        &self.ground_truth
    }

    /// One noisy legitimate measurement of `task` by a user with `profile`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        task: usize,
        profile: &MeasurementProfile,
        rng: &mut R,
    ) -> f64 {
        self.ground_truth[task] + profile.bias + rng.normal(0.0, profile.noise_std)
    }
}

impl ToJson for WifiWorld {
    fn to_json(&self) -> Json {
        Json::obj([("ground_truth", self.ground_truth.to_json())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_is_deterministic_and_in_band() {
        let map = PoiMap::campus(10, 5);
        let a = WifiWorld::generate(&map, 5);
        let b = WifiWorld::generate(&map, 5);
        assert_eq!(a, b);
        for t in 0..10 {
            assert!((-92.0..=-58.0).contains(&a.ground_truth(t)));
        }
    }

    #[test]
    fn pois_have_different_truths() {
        let map = PoiMap::campus(10, 5);
        let w = WifiWorld::generate(&map, 5);
        let distinct: std::collections::HashSet<u64> =
            w.ground_truths().iter().map(|v| v.to_bits()).collect();
        assert!(distinct.len() > 5);
    }

    #[test]
    fn measurement_centers_on_truth_plus_bias() {
        let w = WifiWorld::from_truths(vec![-75.0]);
        let profile = MeasurementProfile {
            bias: 2.0,
            noise_std: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let n = 5000;
        let mean: f64 = (0..n)
            .map(|_| w.measure(0, &profile, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!((mean - (-73.0)).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn zero_noise_profile_is_exact() {
        let w = WifiWorld::from_truths(vec![-80.0]);
        let profile = MeasurementProfile {
            bias: 0.0,
            noise_std: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(w.measure(0, &profile, &mut rng), -80.0);
    }
}
