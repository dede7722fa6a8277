//! CRH — Conflict Resolution on Heterogeneous data (Li et al., SIGMOD
//! 2014), the paper's representative baseline.

use crate::convergence::ConvergenceCriterion;
use crate::data::SensingData;
use crate::traits::{TruthDiscovery, TruthDiscoveryResult};

/// Configuration for [`Crh`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CrhConfig {
    /// Convergence control.
    pub convergence: ConvergenceCriterion,
    /// Normalize each task's loss term by the standard deviation of its
    /// claims (CRH's continuous-data normalization). Disabled, tasks with
    /// wide value ranges dominate the loss.
    pub normalize_by_task_std: bool,
}

impl CrhConfig {
    /// The standard CRH setup: normalized losses, 1000-iteration cap, 1e-6
    /// tolerance.
    pub fn new() -> Self {
        Self {
            convergence: ConvergenceCriterion::default(),
            normalize_by_task_std: true,
        }
    }
}

/// The CRH truth discovery algorithm.
///
/// Iterates the two steps of Algorithm 1:
///
/// * **weight update** — account `i` gets
///   `w_i = ln( Σ_i' loss_i' / loss_i )`, where
///   `loss_i = Σ_{τ_j ∈ T_i} ((d_j^i − d_j) / σ_j)²` and `σ_j` is the task's
///   claim standard deviation,
/// * **truth update** — `d_j = Σ_{i ∈ U_j} w_i d_j^i / Σ w_i`.
///
/// Truths are initialized to per-task means (a deterministic stand-in for
/// the random initialization in Algorithm 1 — CRH's fixed point does not
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
/// let result = Crh::default().discover(&data);
/// assert!(result.converged);
/// // The two agreeing accounts dominate the outlier.
/// assert!((result.truths[0].unwrap() - 5.1).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Crh {
    config: CrhConfig,
}

impl Crh {
    /// Creates a CRH instance with the given configuration.
    pub fn new(config: CrhConfig) -> Self {
        Self { config }
    }

    fn initial_truths(data: &SensingData) -> Vec<Option<f64>> {
        data.task_means()
    }

    fn losses(
        data: &SensingData,
        truths: &[Option<f64>],
        stds: &[Option<f64>],
        normalize: bool,
    ) -> Vec<f64> {
        let n = data.num_accounts();
        let mut losses = vec![0.0; n];
        for r in data.reports() {
            let Some(truth) = truths[r.task] else {
                continue;
            };
            let mut err = r.value - truth;
            if normalize {
                let sigma = stds[r.task].unwrap_or(1.0).max(1e-9);
                err /= sigma;
            }
            losses[r.account] += err * err;
        }
        losses
    }
}

impl TruthDiscovery for Crh {
    fn discover(&self, data: &SensingData) -> TruthDiscoveryResult {
        let n = data.num_accounts();
        if data.is_empty() || n == 0 {
            return TruthDiscoveryResult {
                truths: Self::initial_truths(data),
                weights: vec![0.0; n],
                iterations: 0,
                converged: true,
            };
        }
        // Precondition the numbers: iterate on per-task *residuals* from
        // the initial mean and add the centers back at the end (see
        // `SensingData::centered`).
        let (centered, centers) = data.centered();
        let data = &centered;
        let mut truths = Self::initial_truths(data);
        let stds = data.task_value_std();
        let mut weights = vec![1.0; n];
        let mut iterations = 0;
        let mut converged = false;
        for iter in 0..self.config.convergence.max_iterations {
            iterations = iter + 1;
            // Weight update.
            let losses = Self::losses(data, &truths, &stds, self.config.normalize_by_task_std);
            let total_loss: f64 = losses.iter().sum();
            // Scale-aware floor: an account with (near-)zero loss gets a
            // large but bounded weight. An absolute epsilon would hand it
            // a winner-take-all weight and can put the iteration into a
            // limit cycle on small campaigns.
            let floor = (total_loss / n as f64).max(1e-12) * 1e-6;
            for (w, &loss) in weights.iter_mut().zip(&losses) {
                let target = (total_loss.max(1e-12) / loss.max(floor)).ln().max(0.0);
                // Damping keeps the weight/truth alternation from
                // oscillating between competing fixed points.
                *w = 0.3 * *w + 0.7 * target;
            }
            // If every account has zero weight (e.g. a single account),
            // fall back to uniform so truths stay defined.
            if weights.iter().all(|&w| w == 0.0) {
                weights.fill(1.0);
            }
            // Truth update.
            let mut next = vec![None; data.num_tasks()];
            let mut num = vec![0.0; data.num_tasks()];
            let mut den = vec![0.0; data.num_tasks()];
            for r in data.reports() {
                num[r.task] += weights[r.account] * r.value;
                den[r.task] += weights[r.account];
            }
            for t in 0..data.num_tasks() {
                if den[t] > 0.0 {
                    next[t] = Some(num[t] / den[t]);
                } else {
                    // All reporters have zero weight: plain mean.
                    let (_, values) = data.task_claims(t);
                    if !values.is_empty() {
                        next[t] = Some(values.iter().sum::<f64>() / values.len() as f64);
                    }
                }
            }
            // Convergence is judged on the *undamped* residual, then the
            // step is halved: for a fixed-point map with an oscillatory
            // slope λ ∈ (−3, 1) at the root, the damped map's slope
            // 1 + (λ−1)/2 lies in (−1, 1), so period-2 limit cycles that
            // plague winner-take-all weighting collapse instead of
            // persisting. The fixed points themselves are unchanged.
            let done = self.config.convergence.is_converged(&truths, &next);
            for (current, target) in truths.iter_mut().zip(&next) {
                *current = match (&current, target) {
                    (Some(c), Some(t)) => Some(0.5 * *c + 0.5 * t),
                    _ => *target,
                };
            }
            if done {
                truths = next;
                converged = true;
                break;
            }
        }
        // Undo the centering.
        let truths = truths
            .iter()
            .zip(&centers)
            .map(|(t, c)| match (t, c) {
                (Some(t), Some(c)) => Some(t + c),
                _ => None,
            })
            .collect();
        TruthDiscoveryResult {
            truths,
            weights,
            iterations,
            converged,
        }
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
        let r = Crh::default().discover(&table_i_data(false));
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
        let r = Crh::default().discover(&table_i_data(true));
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
        let clean = Crh::default().discover(&table_i_data(false));
        let attacked = Crh::default().discover(&table_i_data(true));
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
        let r = Crh::default().discover(&d);
        assert!(r.weights[0] > r.weights[1]);
        assert!(r.weights[2] > r.weights[1]);
    }

    #[test]
    fn empty_data_is_fine() {
        let r = Crh::default().discover(&SensingData::new(3));
        assert_eq!(r.truths, vec![None, None, None]);
        assert!(r.converged);
    }

    #[test]
    fn single_account_returns_its_values() {
        let mut d = SensingData::new(2);
        d.add_report(0, 0, 3.0, 0.0);
        d.add_report(0, 1, 4.0, 1.0);
        let r = Crh::default().discover(&d);
        assert_eq!(r.truths[0], Some(3.0));
        assert_eq!(r.truths[1], Some(4.0));
    }

    #[test]
    fn truth_estimates_stay_within_report_hull() {
        let mut d = SensingData::new(1);
        d.add_report(0, 0, 1.0, 0.0);
        d.add_report(1, 0, 5.0, 0.0);
        d.add_report(2, 0, 3.0, 0.0);
        let r = Crh::default().discover(&d);
        let v = r.truths[0].unwrap();
        assert!((1.0..=5.0).contains(&v));
    }
}
