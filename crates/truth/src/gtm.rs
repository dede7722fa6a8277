//! A Gaussian truth model solved by coordinate ascent.
//!
//! Models each report as `d_j^i = d_j + ε_i` with `ε_i ~ N(0, σ_i²)` and
//! alternates closed-form updates of truths (precision-weighted means) and
//! per-source variances (mean squared residuals). This is the continuous
//! analogue of the probabilistic truth models cited alongside CRH and gives
//! the evaluation a second iterative baseline with a different weighting
//! scheme.

use crate::convergence::{account_losses, alternate, weighted_mean};
use crate::data::SensingData;
use crate::traits::{TruthDiscovery, TruthDiscoveryResult};

/// Lower bound on per-source variance, preventing a single source from
/// acquiring infinite precision and freezing the estimate.
const VARIANCE_FLOOR: f64 = 1e-4;

/// Gaussian truth model with per-source variances.
///
/// Each round sets a source's variance to its mean squared residual
/// (floored at 10⁻⁴; a source without claims keeps variance 1) and takes
/// precision-weighted means; a task whose claims weigh nothing keeps its
/// previous truth. Truths start at the per-task means, and the loop stops
/// when no truth moves more than 10⁻⁶ (at most 1000 rounds). The reported
/// weights are the precisions.
///
/// # Examples
///
/// ```
/// use srtd_truth::{Gtm, SensingData, TruthDiscovery};
///
/// let mut data = SensingData::new(1);
/// data.add_report(0, 0, 4.0, 0.0);
/// data.add_report(1, 0, 4.4, 0.0);
/// data.add_report(2, 0, 9.0, 0.0);
/// let truth = Gtm.discover(&data).truths[0].unwrap();
/// assert!(truth < 6.5); // outlier down-weighted
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Gtm;

impl Gtm {
    fn round(data: &SensingData, truths: &[Option<f64>], weights: &mut [f64]) -> Vec<Option<f64>> {
        let residuals = account_losses(data, truths, |_, e| e * e);
        for (a, (w, residual)) in weights.iter_mut().zip(residuals).enumerate() {
            let claims = data.account_reports(a).len();
            if claims > 0 {
                *w = 1.0 / (residual / claims as f64).max(VARIANCE_FLOOR);
            }
        }
        weighted_mean(data, weights, |t| truths[t])
    }
}

impl TruthDiscovery for Gtm {
    fn discover(&self, data: &SensingData) -> TruthDiscoveryResult {
        alternate(data, SensingData::task_means, Self::round, |_, next| next)
    }

    fn name(&self) -> &'static str {
        "GTM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_sources_dominate() {
        let mut d = SensingData::new(4);
        for t in 0..4 {
            d.add_report(0, t, t as f64, 0.0);
            d.add_report(1, t, t as f64 + 0.1, 0.0);
            d.add_report(2, t, t as f64 + 5.0, 0.0);
        }
        let r = Gtm.discover(&d);
        for t in 0..4 {
            let v = r.truths[t].unwrap();
            assert!((v - t as f64).abs() < 1.0, "task {t}: {v}");
        }
        assert!(r.weights[0] > r.weights[2]);
    }

    #[test]
    fn variance_floor_prevents_lock_in() {
        let mut d = SensingData::new(2);
        d.add_report(0, 0, 1.0, 0.0);
        d.add_report(0, 1, 2.0, 0.0);
        d.add_report(1, 0, 1.0, 0.0);
        d.add_report(1, 1, 2.0, 0.0);
        let r = Gtm.discover(&d);
        assert!(r.weights.iter().all(|w| w.is_finite()));
        assert_eq!(r.truths[0], Some(1.0));
    }

    #[test]
    fn empty_data_is_fine() {
        let r = Gtm.discover(&SensingData::new(1));
        assert_eq!(r.truths, vec![None]);
        assert!(r.converged);
    }

    #[test]
    fn estimates_within_hull() {
        let mut d = SensingData::new(1);
        for (a, v) in [(0, 3.0), (1, 7.0), (2, 5.0)] {
            d.add_report(a, 0, v, 0.0);
        }
        let v = Gtm.discover(&d).truths[0].unwrap();
        assert!((3.0..=7.0).contains(&v));
    }
}
