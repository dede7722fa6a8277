//! CATD-style confidence-aware truth discovery (Li et al., VLDB 2014).
//!
//! CRH's point-estimate weights are over-confident for *long-tail* sources
//! that reported only a handful of tasks. CATD replaces the weight with the
//! upper bound of a confidence interval on the source's error variance:
//! `w_i = χ²(α/2, n_i) / loss_i`, where `n_i` is the number of claims the
//! source made and `χ²(p, k)` is the chi-square quantile. Sparse sources
//! get systematically discounted.

use crate::convergence::{account_losses, alternate, weighted_mean};
use crate::data::SensingData;
use crate::traits::{TruthDiscovery, TruthDiscoveryResult};

/// Significance level of the confidence interval (the paper's recommended
/// `α = 0.05`).
const ALPHA: f64 = 0.05;

/// CATD-style truth discovery.
///
/// Each round weighs account `i` by `χ²(α/2, n_i) / loss_i`, where
/// `loss_i` sums its squared residuals in units of each task's claim
/// standard deviation (an account without claims weighs 0), then takes
/// weighted means; a task whose claims weigh nothing keeps its previous
/// truth. Truths start at the per-task means, and the loop stops when no
/// truth moves more than 10⁻⁶ (at most 1000 rounds).
///
/// # Examples
///
/// ```
/// use srtd_truth::{Catd, SensingData, TruthDiscovery};
///
/// let mut data = SensingData::new(1);
/// data.add_report(0, 0, 1.0, 0.0);
/// data.add_report(1, 0, 1.1, 0.0);
/// let result = Catd.discover(&data);
/// assert!(result.truths[0].is_some());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Catd;

impl Catd {
    fn round(data: &SensingData, truths: &[Option<f64>], weights: &mut [f64]) -> Vec<Option<f64>> {
        let stds = data.task_value_std();
        let losses = account_losses(data, truths, |t, e| {
            let e = e / stds[t].unwrap_or(1.0).max(1e-9);
            e * e
        });
        for (a, (w, loss)) in weights.iter_mut().zip(losses).enumerate() {
            let claims = data.account_reports(a).len();
            *w = if claims == 0 {
                0.0
            } else {
                chi_square_quantile(ALPHA / 2.0, claims as f64).max(1e-6) / loss.max(1e-9)
            };
        }
        weighted_mean(data, weights, |t| truths[t])
    }
}

/// Chi-square quantile via the Wilson–Hilferty cube approximation.
///
/// Accurate to a few percent for `k >= 1`, which is all the weighting
/// needs (only relative magnitudes matter).
fn chi_square_quantile(p: f64, k: f64) -> f64 {
    let z = standard_normal_quantile(p);
    let a = 2.0 / (9.0 * k);
    k * (1.0 - a + z * a.sqrt()).powi(3)
}

/// Standard normal quantile (Acklam's rational approximation).
fn standard_normal_quantile(p: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&p));
    // Coefficients for the central and tail regions.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let plow = 0.02425;
    if p < plow {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - plow {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

impl TruthDiscovery for Catd {
    fn discover(&self, data: &SensingData) -> TruthDiscoveryResult {
        alternate(data, SensingData::task_means, Self::round, |_, next| next)
    }

    fn name(&self) -> &'static str {
        "CATD"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_quantile_known_values() {
        assert!(standard_normal_quantile(0.5).abs() < 1e-8);
        assert!((standard_normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((standard_normal_quantile(0.025) + 1.959964).abs() < 1e-4);
    }

    #[test]
    fn chi_square_quantile_sane() {
        // χ²(0.025, 10) ≈ 3.247.
        let q = chi_square_quantile(0.025, 10.0);
        assert!((q - 3.247).abs() < 0.15, "{q}");
        // Lower quantiles grow with degrees of freedom.
        assert!(chi_square_quantile(0.025, 20.0) > q);
    }

    #[test]
    fn sparse_sources_are_discounted() {
        let mut d = SensingData::new(10);
        // Account 0 reports every task accurately; account 1 reports one
        // task, also accurately; account 2 adds mild noise everywhere.
        for t in 0..10 {
            d.add_report(0, t, t as f64, 0.0);
            d.add_report(2, t, t as f64 + 0.4, 0.0);
        }
        d.add_report(1, 0, 0.05, 0.0);
        let r = Catd.discover(&d);
        assert!(
            r.weights[0] > r.weights[1],
            "dense accurate source should outweigh sparse one: {:?}",
            r.weights
        );
    }

    #[test]
    fn agreement_beats_outlier() {
        let mut d = SensingData::new(3);
        for t in 0..3 {
            d.add_report(0, t, 10.0, 0.0);
            d.add_report(1, t, 10.1, 0.0);
            d.add_report(2, t, 50.0, 0.0);
        }
        let r = Catd.discover(&d);
        for t in 0..3 {
            let v = r.truths[t].unwrap();
            assert!(v < 20.0, "task {t}: {v}");
        }
    }

    #[test]
    fn empty_data_is_fine() {
        let r = Catd.discover(&SensingData::new(2));
        assert_eq!(r.truths, vec![None, None]);
    }
}
