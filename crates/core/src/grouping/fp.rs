//! AG-FP: account grouping by device fingerprint (§IV-C).

use crate::grouping::{AccountGrouping, Grouping};
use srtd_cluster::hierarchical::{agglomerative, Linkage};
use srtd_cluster::{elbow, KMeans, KMeansConfig};
use srtd_signal::features::standardize;
use srtd_truth::SensingData;

/// The clustering backend AG-FP runs on the standardized fingerprints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FpClustering {
    /// §IV-C's pipeline: elbow method to estimate the device count, then
    /// k-means (the default).
    KMeansElbow,
    /// Agglomerative clustering cut at a distance threshold — no cluster
    /// count needed; see `exp_ablation_clustering` for the comparison.
    Hierarchical {
        /// Euclidean merge threshold on standardized features.
        threshold: f64,
        /// Linkage criterion.
        linkage: Linkage,
    },
}

/// Account grouping by device fingerprint.
///
/// Clusters the per-account fingerprint feature vectors (20 Table-II
/// features × 4 sensor streams, produced by `srtd-fingerprint`) with
/// k-means, estimating the number of devices `k` by the elbow method —
/// exactly the pipeline of §IV-C. Accounts whose fingerprints land in the
/// same cluster are assumed to share a device, which defeats Attack-I
/// (one device, many accounts). Features are z-standardized before
/// clustering since their raw scales differ by orders of magnitude.
///
/// # Examples
///
/// ```
/// use srtd_runtime::rng::SeedableRng;
/// use srtd_core::{AccountGrouping, AgFp};
/// use srtd_fingerprint::{catalog, fingerprint_features, CaptureConfig};
/// use srtd_truth::SensingData;
///
/// let mut rng = srtd_runtime::rng::StdRng::seed_from_u64(3);
/// let models = catalog::standard_catalog();
/// let phone_a = models[2].model.manufacture(&mut rng);
/// let phone_b = models[5].model.manufacture(&mut rng);
/// let cfg = CaptureConfig::paper_default();
/// let mut data = SensingData::new(1);
/// let mut prints = Vec::new();
/// for (acct, phone) in [(0, &phone_a), (1, &phone_a), (2, &phone_b)] {
///     data.add_report(acct, 0, -70.0, acct as f64 * 40.0);
///     prints.push(fingerprint_features(&phone.capture(&cfg, &mut rng)));
/// }
/// let grouping = AgFp::default().group(&data, &prints);
/// assert_eq!(grouping.group_of(0), grouping.group_of(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgFp {
    kmeans: KMeansConfig,
    /// Optional override of the device count; `None` runs the elbow method.
    known_k: Option<usize>,
    clustering: FpClustering,
}

impl Default for AgFp {
    fn default() -> Self {
        Self {
            kmeans: KMeansConfig::new(1).with_restarts(12),
            known_k: None,
            clustering: FpClustering::KMeansElbow,
        }
    }
}

impl AgFp {
    /// AG-FP with the elbow method estimating the device count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fixes the cluster count instead of estimating it (ablation: how
    /// much does the elbow estimate cost relative to knowing the truth?).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_known_k(mut self, k: usize) -> Self {
        assert!(k > 0, "device count must be positive");
        self.known_k = Some(k);
        self
    }

    /// Replaces the k-means seed (results are deterministic per seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.kmeans = self.kmeans.with_seed(seed);
        self
    }

    /// Switches the clustering backend (ablation;
    /// [`FpClustering::KMeansElbow`] is the paper's pipeline).
    pub fn with_clustering(mut self, clustering: FpClustering) -> Self {
        self.clustering = clustering;
        self
    }
}

impl AccountGrouping for AgFp {
    fn group(&self, data: &SensingData, fingerprints: &[Vec<f64>]) -> Grouping {
        let n = data.num_accounts();
        assert_eq!(
            fingerprints.len(),
            n,
            "AG-FP needs one fingerprint per account ({} fingerprints, {n} accounts)",
            fingerprints.len()
        );
        if n == 0 {
            return Grouping::from_labels(&[]);
        }
        if n == 1 {
            return Grouping::singletons(1);
        }
        let _span = srtd_runtime::obs::span("ag_fp.group");
        let standardized = {
            let _span = srtd_runtime::obs::span("ag_fp.standardize");
            standardize(fingerprints)
        };
        if let FpClustering::Hierarchical { threshold, linkage } = self.clustering {
            let result = agglomerative(&standardized, threshold, linkage);
            return Grouping::from_labels(&result.assignments);
        }
        let k = match self.known_k {
            Some(k) => k.min(n),
            None => {
                let _span = srtd_runtime::obs::span("ag_fp.elbow");
                elbow(&standardized, n, self.kmeans).k
            }
        };
        srtd_runtime::obs::event(
            "ag_fp.k",
            [
                ("k", srtd_runtime::json::ToJson::to_json(&k)),
                (
                    "estimated",
                    srtd_runtime::json::ToJson::to_json(&self.known_k.is_none()),
                ),
            ],
        );
        let result = {
            let _span = srtd_runtime::obs::span("ag_fp.kmeans");
            KMeans::new(KMeansConfig { k, ..self.kmeans }).fit(&standardized)
        };
        // AG-FP is centroid-based, not pairwise, so its "pairs" are the
        // point–centroid comparisons of the final fit (the elbow sweep's
        // internal fits are a model-selection cost, not assignment work)
        // and its buckets are the k clusters. Recording them under the
        // same scheme keeps the three signals comparable in one export.
        crate::grouping::blocking::record_pair_counts(
            "ag_fp",
            result.pruning.total(),
            result.pruning.distance_evals,
            k as u64,
        );
        Grouping::from_labels(&result.assignments)
    }

    fn name(&self) -> &'static str {
        "AG-FP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_fingerprint::catalog::standard_catalog;
    use srtd_fingerprint::{fingerprint_features, CaptureConfig, DeviceInstance};
    use srtd_runtime::rng::SeedableRng;
    use srtd_runtime::rng::StdRng;

    fn prints_for(devices: &[&DeviceInstance], per_device: usize, seed: u64) -> Vec<Vec<f64>> {
        let cfg = CaptureConfig::paper_default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for d in devices {
            for _ in 0..per_device {
                out.push(fingerprint_features(&d.capture(&cfg, &mut rng)));
            }
        }
        out
    }

    fn dummy_data(n: usize) -> SensingData {
        let mut d = SensingData::new(2);
        for a in 0..n {
            d.add_report(a, 0, -70.0, a as f64);
            d.add_report(a, 1, -75.0, a as f64 + 100.0);
        }
        d
    }

    #[test]
    fn fig2_scenario_three_models_groups_by_device() {
        // Fig. 2: 3 smartphones of different models, 5 fingerprints each,
        // k-means with k = 3.
        let mut rng = StdRng::seed_from_u64(11);
        let catalog = standard_catalog();
        let d0 = catalog[2].model.manufacture(&mut rng);
        let d1 = catalog[5].model.manufacture(&mut rng);
        let d2 = catalog[7].model.manufacture(&mut rng);
        let prints = prints_for(&[&d0, &d1, &d2], 5, 12);
        let truth: Vec<usize> = (0..15).map(|i| i / 5).collect();
        let g = AgFp::default()
            .with_known_k(3)
            .group(&dummy_data(15), &prints);
        let ari = srtd_metrics::adjusted_rand_index(g.labels(), &truth);
        assert!(ari > 0.9, "ARI {ari}");
    }

    #[test]
    fn elbow_estimates_a_sane_device_count() {
        let mut rng = StdRng::seed_from_u64(21);
        let catalog = standard_catalog();
        let d0 = catalog[2].model.manufacture(&mut rng);
        let d1 = catalog[7].model.manufacture(&mut rng);
        let prints = prints_for(&[&d0, &d1], 5, 22);
        let g = AgFp::default().group(&dummy_data(10), &prints);
        // Elbow should land near 2 devices: accept 2–4 groups, but the two
        // devices must never be merged.
        assert!(g.len() >= 2 && g.len() <= 4, "got {} groups", g.len());
        for i in 0..5 {
            for j in 5..10 {
                assert_ne!(g.group_of(i), g.group_of(j), "devices merged");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = StdRng::seed_from_u64(31);
        let d0 = standard_catalog()[0].model.manufacture(&mut rng);
        let prints = prints_for(&[&d0], 4, 32);
        let a = AgFp::default().group(&dummy_data(4), &prints);
        let b = AgFp::default().group(&dummy_data(4), &prints);
        assert_eq!(a, b);
    }

    #[test]
    fn single_account_is_singleton() {
        let mut rng = StdRng::seed_from_u64(41);
        let d0 = standard_catalog()[0].model.manufacture(&mut rng);
        let prints = prints_for(&[&d0], 1, 42);
        let g = AgFp::default().group(&dummy_data(1), &prints);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn hierarchical_backend_also_separates_devices() {
        let mut rng = StdRng::seed_from_u64(51);
        let catalog = standard_catalog();
        let d0 = catalog[2].model.manufacture(&mut rng);
        let d1 = catalog[7].model.manufacture(&mut rng);
        let prints = prints_for(&[&d0, &d1], 4, 52);
        let ag = AgFp::default().with_clustering(FpClustering::Hierarchical {
            threshold: 9.0,
            linkage: srtd_cluster::Linkage::Average,
        });
        let g = ag.group(&dummy_data(8), &prints);
        for i in 0..4 {
            for j in 4..8 {
                assert_ne!(g.group_of(i), g.group_of(j), "devices merged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one fingerprint per account")]
    fn missing_fingerprints_panic() {
        AgFp::default().group(&dummy_data(3), &[]);
    }
}
