//! Robust truth discovery: CRH weighting with weighted-median truth
//! updates.
//!
//! CRH's weighted-*mean* truth update moves continuously with every
//! claim, so a coordinated block of accounts can drag it arbitrarily far
//! once its combined weight grows. Replacing the update with the
//! weighted *median* gives the estimator a 50%-of-total-weight breakdown
//! point: the estimate cannot leave the claims of the majority weight
//! mass. This is a natural robust baseline to put next to CRH when
//! studying Sybil attacks — it resists minority-weight attacks for free,
//! yet still falls once Sybil accounts hold the weight majority, which
//! is exactly the regime the paper's framework addresses by grouping.

use crate::convergence::{account_losses, alternate};
use crate::crh::reweigh;
use crate::data::SensingData;
use crate::traits::{TruthDiscovery, TruthDiscoveryResult};

/// CRH-style weights with weighted-median truth updates.
///
/// Each round gives account `i` CRH's weight `ln(Σ loss / loss_i)` (same
/// floor, no damping) on `loss_i`, the sum of its absolute residuals in
/// units of each task's claim standard deviation (the l1 analogue of
/// CRH's squared loss, matching the median target), then takes each
/// task's [`weighted_median`]. Truths start at the per-task medians, and
/// the loop stops when no truth moves more than 10⁻⁶ (at most 1000
/// rounds).
///
/// # Examples
///
/// ```
/// use srtd_truth::{RobustCrh, SensingData, TruthDiscovery};
///
/// let mut data = SensingData::new(1);
/// data.add_report(0, 0, 10.0, 0.0);
/// data.add_report(1, 0, 10.2, 0.0);
/// data.add_report(2, 0, 99.0, 0.0);
/// let truth = RobustCrh.discover(&data).truths[0].unwrap();
/// assert!(truth < 11.0); // outlier cannot drag a median
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RobustCrh;

impl RobustCrh {
    fn round(data: &SensingData, truths: &[Option<f64>], weights: &mut [f64]) -> Vec<Option<f64>> {
        let stds = data.task_value_std();
        let losses = account_losses(data, truths, |t, e| {
            (e / stds[t].unwrap_or(1.0).max(1e-9)).abs()
        });
        reweigh(weights, &losses, |_, target| target);
        Self::medians(data, |a| weights[a])
    }

    /// Each task's [`weighted_median`] of its claims under `weight`.
    fn medians(data: &SensingData, weight: impl Fn(usize) -> f64) -> Vec<Option<f64>> {
        (0..data.num_tasks())
            .map(|t| {
                let (accounts, values) = data.task_claims(t);
                let mut pairs: Vec<(f64, f64)> = values
                    .iter()
                    .zip(accounts)
                    .map(|(&v, &a)| (v, weight(a as usize)))
                    .collect();
                weighted_median(&mut pairs)
            })
            .collect()
    }
}

/// Weighted median of `(value, weight)` pairs: the smallest value whose
/// cumulative weight reaches half the total.
///
/// Zero-total-weight inputs fall back to the unweighted median. Returns
/// `None` for empty input.
pub fn weighted_median(pairs: &mut [(f64, f64)]) -> Option<f64> {
    if pairs.is_empty() {
        return None;
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = pairs.iter().map(|p| p.1).sum();
    if total <= 0.0 {
        let mid = pairs.len() / 2;
        return Some(if pairs.len() % 2 == 1 {
            pairs[mid].0
        } else {
            0.5 * (pairs[mid - 1].0 + pairs[mid].0)
        });
    }
    let half = total / 2.0;
    let mut acc = 0.0;
    for &(value, weight) in pairs.iter() {
        acc += weight;
        if acc >= half {
            return Some(value);
        }
    }
    pairs.last().map(|p| p.0)
}

impl TruthDiscovery for RobustCrh {
    fn discover(&self, data: &SensingData) -> TruthDiscoveryResult {
        alternate(
            data,
            |data| Self::medians(data, |_| 1.0),
            Self::round,
            |_, next| next,
        )
    }

    fn name(&self) -> &'static str {
        "RobustCRH"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_runtime::rng::Rng;
    use srtd_runtime::{prop, prop_assert};

    #[test]
    fn weighted_median_basics() {
        let mut pairs = vec![(1.0, 1.0), (2.0, 1.0), (100.0, 1.0)];
        assert_eq!(weighted_median(&mut pairs), Some(2.0));
        let mut pairs = vec![(1.0, 1.0), (2.0, 10.0)];
        assert_eq!(weighted_median(&mut pairs), Some(2.0));
        let mut pairs: Vec<(f64, f64)> = vec![];
        assert_eq!(weighted_median(&mut pairs), None);
        // Zero weights fall back to the plain median.
        let mut pairs = vec![(1.0, 0.0), (3.0, 0.0)];
        assert_eq!(weighted_median(&mut pairs), Some(2.0));
    }

    #[test]
    fn resists_minority_weight_attack() {
        // Two reliable accounts + three coordinated liars with low
        // per-account credibility after the first iteration.
        let mut d = SensingData::new(3);
        for t in 0..3 {
            d.add_report(0, t, -80.0 + t as f64, 0.0);
            d.add_report(1, t, -80.2 + t as f64, 0.0);
        }
        // Liars only cover task 0, so their weights stay moderate.
        d.add_report(2, 0, -50.0, 0.0);
        d.add_report(3, 0, -50.0, 0.0);
        let r = RobustCrh.discover(&d);
        let t0 = r.truths[0].unwrap();
        assert!(t0 < -70.0, "median dragged to {t0}");
    }

    #[test]
    fn majority_still_wins_motivating_grouping() {
        // 1 honest vs 3 Sybil accounts: median falls — robustness alone
        // does not replace grouping (the paper's point).
        let mut d = SensingData::new(1);
        d.add_report(0, 0, -80.0, 0.0);
        for a in 1..4 {
            d.add_report(a, 0, -50.0, 0.0);
        }
        let r = RobustCrh.discover(&d);
        assert!(r.truths[0].unwrap() > -55.0);
    }

    #[test]
    fn empty_and_single() {
        let r = RobustCrh.discover(&SensingData::new(2));
        assert_eq!(r.truths, vec![None, None]);
        let mut d = SensingData::new(1);
        d.add_report(0, 0, 7.0, 0.0);
        let r = RobustCrh.discover(&d);
        assert_eq!(r.truths[0], Some(7.0));
    }

    /// The weighted median is always one of the input values (or a
    /// midpoint in the zero-weight fallback) and sits inside the hull.
    #[test]
    fn weighted_median_in_hull() {
        prop::check(
            |rng| {
                prop::vec_with(rng, 1..30, |r| {
                    (r.gen_range(-100f64..100.0), r.gen_range(0.0f64..5.0))
                })
            },
            |pairs| {
                let lo = pairs.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
                let hi = pairs.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
                let mut input = pairs.clone();
                let m = weighted_median(&mut input).expect("non-empty");
                prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
                Ok(())
            },
        );
    }

    /// Estimates stay in the per-task hull.
    #[test]
    fn estimates_in_hull() {
        prop::check(
            |rng| {
                prop::vec_with(rng, 1..25, |r| {
                    (
                        r.gen_range(0usize..5),
                        r.gen_range(0usize..3),
                        r.gen_range(-50f64..50.0),
                    )
                })
            },
            |raw| {
                let mut d = SensingData::new(3);
                let mut seen = std::collections::HashSet::new();
                for &(a, t, v) in raw {
                    if seen.insert((a, t)) {
                        d.add_report(a, t, v, 0.0);
                    }
                }
                let r = RobustCrh.discover(&d);
                for t in 0..3 {
                    let vals = d.task_claims(t).1;
                    if let Some(est) = r.truths[t] {
                        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                        prop_assert!(est >= lo - 1e-6 && est <= hi + 1e-6);
                    }
                }
                Ok(())
            },
        );
    }
}
