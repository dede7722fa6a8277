//! CRH — Conflict Resolution on Heterogeneous data (Li et al., SIGMOD
//! 2014), the paper's representative baseline.

use crate::convergence::{account_losses, alternate, weighted_mean};
use crate::data::SensingData;
use crate::traits::{TruthDiscovery, TruthDiscoveryResult};

/// The CRH truth discovery algorithm.
///
/// Alternates the two steps of Algorithm 1 on the campaign's per-task
/// residuals (see [`SensingData::centered`]):
///
/// * **weight update** — account `i` gets the target
///   `ln( Σ_i' loss_i' / max(loss_i, floor) )`, clamped at 0, where
///   `loss_i = Σ_{τ_j ∈ T_i} (d_j^i − d_j)²` is its unnormalised squared
///   residual and the scale-aware `floor` is 10⁻⁶ of the mean loss: an
///   account with (near-)zero loss gets a large but bounded weight instead
///   of a winner-take-all one. The weight moves 70 % of the way to its
///   target (`w_i ← 0.3 w_i + 0.7 target`), which keeps the alternation
///   from oscillating between competing fixed points. If every weight is
///   zero, all become 1;
/// * **truth update** — `d_j = Σ_{i ∈ U_j} w_i d_j^i / Σ w_i`, summed in
///   report order; a task whose reporters all weigh zero takes the plain
///   mean of its claims.
///
/// Convergence is judged on the undamped truth update (largest per-task
/// change at most 10⁻⁶, at most 1000 rounds); until then each round moves
/// the truths only half-way to the update. For a fixed-point map with an
/// oscillatory slope λ ∈ (−3, 1) at the root, the halved map's slope
/// 1 + (λ − 1)/2 lies in (−1, 1), so period-2 limit cycles collapse
/// instead of persisting; the fixed points themselves are unchanged.
///
/// Truths start at the per-task means (a deterministic stand-in for the
/// random initialization in Algorithm 1 — CRH's fixed point does not
/// depend on the start).
///
/// # Examples
///
/// ```
/// use srtd_truth::{Crh, SensingData, TruthDiscovery};
///
/// let mut data = SensingData::new(2);
/// for (acct, values) in [(0, [5.0, 7.0]), (1, [5.2, 7.1]), (2, [9.0, 2.0])] {
///     data.add_report(acct, 0, values[0], 0.0);
///     data.add_report(acct, 1, values[1], 1.0);
/// }
/// let result = Crh.discover(&data);
/// assert!(result.converged);
/// // The two agreeing accounts dominate the outlier.
/// assert!((result.truths[0].unwrap() - 5.1).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Crh;

impl Crh {
    fn round(data: &SensingData, truths: &[Option<f64>], weights: &mut [f64]) -> Vec<Option<f64>> {
        let losses = account_losses(data, truths, |_, e| e * e);
        reweigh(weights, &losses, |w, target| 0.3 * w + 0.7 * target);
        weighted_mean(data, weights, |t| {
            let values = data.task_claims(t).1;
            (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
        })
    }
}

/// Sets each weight to `update(weight, target)` with CRH's target
/// `ln(Σ loss / max(loss_i, floor))`, clamped at 0, under the scale-aware
/// floor of 10⁻⁶ of the mean loss; if that leaves every weight zero, all
/// become 1 so the truths stay defined.
pub(crate) fn reweigh(weights: &mut [f64], losses: &[f64], update: impl Fn(f64, f64) -> f64) {
    let total: f64 = losses.iter().sum();
    let floor = (total / losses.len() as f64).max(1e-12) * 1e-6;
    for (w, &loss) in weights.iter_mut().zip(losses) {
        *w = update(*w, (total.max(1e-12) / loss.max(floor)).ln().max(0.0));
    }
    if weights.iter().all(|&w| w == 0.0) {
        weights.fill(1.0);
    }
}

impl TruthDiscovery for Crh {
    fn discover(&self, data: &SensingData) -> TruthDiscoveryResult {
        alternate(
            data,
            SensingData::task_means,
            Self::round,
            |current, next| match (current, next) {
                (Some(c), Some(t)) => Some(0.5 * c + 0.5 * t),
                _ => next,
            },
        )
    }

    fn name(&self) -> &'static str {
        "CRH"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Table I example: 4 tasks, 3 legitimate accounts, with account 3
    /// (index 3..=5 as Sybil accounts 4', 4'', 4''') fabricating −50 dBm.
    fn table_i_data(with_sybil: bool) -> SensingData {
        let mut d = SensingData::new(4);
        // Account 1.
        d.add_report(0, 0, -84.48, 35.0);
        d.add_report(0, 1, -82.11, 162.0);
        d.add_report(0, 2, -75.16, 622.0);
        d.add_report(0, 3, -72.71, 821.0);
        // Account 2.
        d.add_report(1, 1, -72.27, 255.0);
        d.add_report(1, 2, -77.21, 361.0);
        // Account 3.
        d.add_report(2, 0, -72.41, 81.0);
        d.add_report(2, 1, -91.49, 245.0);
        d.add_report(2, 3, -73.55, 508.0);
        if with_sybil {
            for (acct, base_ts) in [(3, 70.0), (4, 94.0), (5, 155.0)] {
                d.add_report(acct, 0, -50.0, base_ts);
                d.add_report(acct, 2, -50.0, base_ts + 850.0);
                d.add_report(acct, 3, -50.0, base_ts + 1130.0);
            }
        }
        d
    }

    #[test]
    fn table_i_without_attack_stays_in_legit_range() {
        let r = Crh.discover(&table_i_data(false));
        assert!(r.converged);
        for (t, range) in [
            (0, (-85.0, -72.0)),
            (1, (-92.0, -72.0)),
            (2, (-78.0, -75.0)),
            (3, (-74.0, -72.0)),
        ] {
            let v = r.truths[t].unwrap();
            assert!(v >= range.0 && v <= range.1, "task {t}: {v}");
        }
    }

    #[test]
    fn table_i_with_attack_is_dragged_toward_minus_50() {
        let r = Crh.discover(&table_i_data(true));
        // The Sybil accounts hold the majority for tasks 1, 3, 4 (indices
        // 0, 2, 3) and CRH follows them — the paper's vulnerability demo.
        for t in [0, 2, 3] {
            let v = r.truths[t].unwrap();
            assert!(v > -62.0, "task {t} should be dragged to ~-50, got {v}");
        }
        // Task 2 (index 1) has no Sybil reports and stays legitimate.
        let v1 = r.truths[1].unwrap();
        assert!(v1 < -70.0, "untouched task moved: {v1}");
    }

    #[test]
    fn sybil_attack_hurts_accuracy_vs_no_attack() {
        let clean = Crh.discover(&table_i_data(false));
        let attacked = Crh.discover(&table_i_data(true));
        let mut drift = 0.0;
        for t in 0..4 {
            drift += (clean.truths[t].unwrap() - attacked.truths[t].unwrap()).abs();
        }
        assert!(drift > 30.0, "attack should move estimates a lot: {drift}");
    }

    #[test]
    fn reliable_accounts_get_higher_weight() {
        let mut d = SensingData::new(3);
        // Account 0 reports exactly the consensus; account 1 is noisy.
        for t in 0..3 {
            d.add_report(0, t, 10.0 * t as f64, 0.0);
            d.add_report(1, t, 10.0 * t as f64 + 4.0, 0.0);
            d.add_report(2, t, 10.0 * t as f64 - 0.5, 0.0);
        }
        let r = Crh.discover(&d);
        assert!(r.weights[0] > r.weights[1]);
        assert!(r.weights[2] > r.weights[1]);
    }

    #[test]
    fn empty_data_is_fine() {
        let r = Crh.discover(&SensingData::new(3));
        assert_eq!(r.truths, vec![None, None, None]);
        assert!(r.converged);
    }

    #[test]
    fn single_account_returns_its_values() {
        let mut d = SensingData::new(2);
        d.add_report(0, 0, 3.0, 0.0);
        d.add_report(0, 1, 4.0, 1.0);
        let r = Crh.discover(&d);
        assert_eq!(r.truths[0], Some(3.0));
        assert_eq!(r.truths[1], Some(4.0));
    }

    #[test]
    fn truth_estimates_stay_within_report_hull() {
        let mut d = SensingData::new(1);
        d.add_report(0, 0, 1.0, 0.0);
        d.add_report(1, 0, 5.0, 0.0);
        d.add_report(2, 0, 3.0, 0.0);
        let r = Crh.discover(&d);
        let v = r.truths[0].unwrap();
        assert!((1.0..=5.0).contains(&v));
    }
}
