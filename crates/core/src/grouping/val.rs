//! AG-VAL: account grouping by report-value coordination (extension).
//!
//! Not one of the paper's three methods — an extension closing the gap
//! the adaptive-attacker experiment exposes: an attacker can randomize
//! its accounts' *behaviour* (per-account walks, disjoint task subsets,
//! fresh devices), but to manipulate the aggregate its accounts still
//! have to push *coordinated values*. This method groups accounts whose
//! claims agree suspiciously well on their common tasks.
//!
//! For accounts `i, j` sharing at least `min_common_tasks` tasks, the
//! coordination distance is the root-mean-square difference of their
//! claims on those tasks; pairs below a threshold `ψ` are connected and
//! connected components become groups — the same pipeline shape as
//! AG-TS/AG-TR, so it slots into the framework and into
//! [`crate::CombinedGrouping`] unchanged.
//!
//! The trade-off mirrors the paper's false-positive discussion: two
//! careful honest users with quiet sensors can also agree closely; ψ must
//! sit below the honest noise floor (≈ σ√2 for per-user noise σ) and
//! `min_common_tasks` high enough that agreement is statistically
//! meaningful.

use crate::grouping::{AccountGrouping, Grouping};
use srtd_graph::UnionFind;
use srtd_truth::SensingData;

/// Account grouping by value coordination.
///
/// # Examples
///
/// ```
/// use srtd_core::{AccountGrouping, AgVal};
/// use srtd_truth::SensingData;
///
/// let mut data = SensingData::new(3);
/// // Two accounts pushing the same fabricated values...
/// for (acct, off) in [(0, 0.0), (1, 0.05)] {
///     data.add_report(acct, 0, -50.0 + off, 100.0 + acct as f64);
///     data.add_report(acct, 1, -50.0 + off, 200.0 + acct as f64);
///     data.add_report(acct, 2, -50.1 + off, 300.0 + acct as f64);
/// }
/// // ...and an honest account with real (noisy) measurements.
/// data.add_report(2, 0, -81.3, 500.0);
/// data.add_report(2, 1, -74.8, 600.0);
/// data.add_report(2, 2, -69.2, 700.0);
/// let g = AgVal::default().group(&data, &[]);
/// assert_eq!(g.group_of(0), g.group_of(1));
/// assert_ne!(g.group_of(0), g.group_of(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgVal {
    psi: f64,
    min_common_tasks: usize,
}

impl Default for AgVal {
    /// `ψ = 0.75` dBm RMS with at least 2 common tasks: well below the
    /// honest per-user noise floor (σ ≥ 0.5 dBm ⇒ pairwise RMS ≥ ~0.7)
    /// yet above the jitter a copying attacker applies ("simple
    /// modification", §III-C).
    fn default() -> Self {
        Self {
            psi: 0.75,
            min_common_tasks: 2,
        }
    }
}

impl AgVal {
    /// Creates AG-VAL with coordination threshold `psi` (value units RMS)
    /// requiring `min_common_tasks` shared tasks.
    ///
    /// # Panics
    ///
    /// Panics if `psi` is not finite/positive or `min_common_tasks == 0`.
    pub fn new(psi: f64, min_common_tasks: usize) -> Self {
        assert!(psi.is_finite() && psi > 0.0, "threshold must be positive");
        assert!(min_common_tasks > 0, "need at least one common task");
        Self {
            psi,
            min_common_tasks,
        }
    }

    /// The coordination threshold ψ.
    pub fn psi(&self) -> f64 {
        self.psi
    }

    /// Minimum number of shared tasks before a pair is comparable.
    pub fn min_common_tasks(&self) -> usize {
        self.min_common_tasks
    }

    /// Pairwise coordination distances: RMS claim difference over common
    /// tasks, or `∞` for pairs with fewer than `min_common_tasks` shared
    /// tasks. Diagonal is 0.
    #[allow(clippy::needless_range_loop)] // symmetric matrix fill
    pub fn coordination_matrix(&self, data: &SensingData) -> Vec<Vec<f64>> {
        let n = data.num_accounts();
        let m = data.num_tasks();
        // values[a][t] = claim or NaN.
        let mut values = vec![vec![f64::NAN; m]; n];
        for r in data.reports() {
            values[r.account][r.task] = r.value;
        }
        let mut matrix = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                let mut sum = 0.0;
                let mut common = 0usize;
                for t in 0..m {
                    let (a, b) = (values[i][t], values[j][t]);
                    if a.is_nan() || b.is_nan() {
                        continue;
                    }
                    sum += (a - b) * (a - b);
                    common += 1;
                }
                let d = if common >= self.min_common_tasks {
                    (sum / common as f64).sqrt()
                } else {
                    f64::INFINITY
                };
                matrix[i][j] = d;
                matrix[j][i] = d;
            }
        }
        matrix
    }
}

impl AccountGrouping for AgVal {
    fn group(&self, data: &SensingData, _fingerprints: &[Vec<f64>]) -> Grouping {
        let n = data.num_accounts();
        if n == 0 {
            return Grouping::from_labels(&[]);
        }
        let matrix = self.coordination_matrix(data);
        let mut uf = UnionFind::new(n);
        for (i, row) in matrix.iter().enumerate() {
            for (j, &d) in row.iter().enumerate().skip(i + 1) {
                if d < self.psi {
                    uf.union(i, j);
                }
            }
        }
        Grouping::from_forest(&mut uf)
    }

    fn name(&self) -> &'static str {
        "AG-VAL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coordinated_campaign() -> SensingData {
        let mut d = SensingData::new(4);
        // Honest accounts 0, 1: independent noisy readings.
        for (t, (v0, v1)) in [
            (-80.0, -78.2),
            (-71.5, -73.0),
            (-69.0, -66.8),
            (-85.0, -83.4),
        ]
        .into_iter()
        .enumerate()
        {
            d.add_report(0, t, v0, 100.0 + t as f64 * 60.0);
            d.add_report(1, t, v1, 5_000.0 + t as f64 * 60.0);
        }
        // Sybil accounts 2, 3, 4: the same fabricated -50 with jitter,
        // *different* walks (AG-TR-evading) and partial task overlap.
        for (acct, tasks, start) in [
            (2usize, vec![0usize, 1, 2], 9_000.0),
            (3, vec![1, 2, 3], 15_000.0),
            (4, vec![0, 2, 3], 21_000.0),
        ] {
            for (i, &t) in tasks.iter().enumerate() {
                let jitter = ((acct * 7 + i) % 5) as f64 * 0.1 - 0.2;
                d.add_report(acct, t, -50.0 + jitter, start + i as f64 * 60.0);
            }
        }
        d
    }

    #[test]
    fn catches_value_coordination_across_different_walks() {
        let d = coordinated_campaign();
        let g = AgVal::default().group(&d, &[]);
        assert_eq!(g.group_of(2), g.group_of(3));
        assert_eq!(g.group_of(3), g.group_of(4));
        assert_ne!(g.group_of(0), g.group_of(2));
        assert_ne!(g.group_of(0), g.group_of(1));
    }

    #[test]
    fn trajectory_grouping_misses_what_values_catch() {
        // The same campaign defeats AG-TR (walks are hours apart) —
        // documenting why AG-VAL earns its place.
        use crate::grouping::AgTr;
        let d = coordinated_campaign();
        let tr = AgTr::default().group(&d, &[]);
        let sybil_grouped = tr.group_of(2) == tr.group_of(3) && tr.group_of(3) == tr.group_of(4);
        assert!(!sybil_grouped, "AG-TR should be evaded by design here");
    }

    #[test]
    fn coordination_matrix_values() {
        let mut d = SensingData::new(2);
        d.add_report(0, 0, -50.0, 0.0);
        d.add_report(0, 1, -60.0, 1.0);
        d.add_report(1, 0, -50.0, 2.0);
        d.add_report(1, 1, -61.0, 3.0);
        let m = AgVal::default().coordination_matrix(&d);
        // RMS of (0, 1) over 2 tasks = sqrt(1/2).
        assert!((m[0][1] - (0.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(m[0][0], 0.0);
    }

    #[test]
    fn too_few_common_tasks_means_incomparable() {
        let mut d = SensingData::new(3);
        d.add_report(0, 0, -50.0, 0.0);
        d.add_report(1, 1, -50.0, 1.0);
        d.add_report(1, 2, -50.0, 2.0);
        // No common tasks at all.
        let g = AgVal::default().group(&d, &[]);
        assert_ne!(g.group_of(0), g.group_of(1));
        let m = AgVal::default().coordination_matrix(&d);
        assert_eq!(m[0][1], f64::INFINITY);
    }

    #[test]
    fn honest_noise_floor_keeps_legit_pairs_apart() {
        // Two honest users whose noise is >= 0.5 dBm: their pairwise RMS
        // stays above psi with overwhelming probability; here a fixed
        // instance 1.3-1.8 dBm apart.
        let mut d = SensingData::new(3);
        for (t, (a, b)) in [(-80.0, -81.5), (-70.0, -68.7), (-75.0, -76.4)]
            .into_iter()
            .enumerate()
        {
            d.add_report(0, t, a, t as f64);
            d.add_report(1, t, b, 100.0 + t as f64);
        }
        let g = AgVal::default().group(&d, &[]);
        assert_ne!(g.group_of(0), g.group_of(1));
    }

    #[test]
    fn empty_data_yields_empty_grouping() {
        let g = AgVal::default().group(&SensingData::new(2), &[]);
        assert!(g.is_empty());
    }

    /// Over random campaigns with coordinated cliques, `group()` equals
    /// the connected components of the coordination matrix's below-ψ
    /// pairs, as a depth-first search over those pairs finds them.
    #[test]
    fn groups_are_the_dfs_components_of_the_below_psi_pairs() {
        use srtd_runtime::rng::Rng;
        let mut merged = 0;
        srtd_runtime::prop::check(
            |rng| {
                let num_tasks = rng.gen_range(2usize..8);
                let mut data = SensingData::new(num_tasks);
                for account in 0..rng.gen_range(1usize..16) {
                    // A few shared base values so that some accounts
                    // coordinate and others do not.
                    let base = -50.0 - 10.0 * rng.gen_range(0usize..3) as f64;
                    for task in 0..num_tasks {
                        if rng.gen_bool(0.7) {
                            let value = base + rng.gen_range(-0.6f64..0.6);
                            data.add_report(account, task, value, task as f64);
                        }
                    }
                }
                let psi = rng.gen_range(0.1f64..2.0);
                (data, psi)
            },
            |(data, psi)| {
                let ag = AgVal::new(*psi, 2);
                let matrix = ag.coordination_matrix(data);
                let n = matrix.len();
                let mut labels = vec![usize::MAX; n];
                let mut count = 0;
                for start in 0..n {
                    if labels[start] != usize::MAX {
                        continue;
                    }
                    labels[start] = count;
                    let mut stack = vec![start];
                    while let Some(u) = stack.pop() {
                        for v in 0..n {
                            if v != u && matrix[u][v] < *psi && labels[v] == usize::MAX {
                                labels[v] = count;
                                stack.push(v);
                            }
                        }
                    }
                    count += 1;
                }
                merged += usize::from(count < n);
                srtd_runtime::prop_assert_eq!(ag.group(data, &[]), Grouping::from_labels(&labels));
                Ok(())
            },
        );
        assert!(merged > 0, "no campaign had a coordinated pair");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_threshold_rejected() {
        AgVal::new(0.0, 2);
    }
}
