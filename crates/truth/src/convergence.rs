//! Convergence control, and the one loop of the CRH family.

use crate::data::SensingData;
use crate::traits::TruthDiscoveryResult;

/// Iteration cap plus truth-change tolerance.
///
/// The paper notes the criterion is application-defined (e.g. a fixed
/// iteration count in CRH); this type supports both styles at once: stop
/// when the largest per-task truth change drops below `tolerance`, or after
/// `max_iterations`, whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceCriterion {
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Largest allowed per-task truth change at convergence.
    pub tolerance: f64,
}

impl Default for ConvergenceCriterion {
    fn default() -> Self {
        Self {
            max_iterations: 1000,
            tolerance: 1e-6,
        }
    }
}

impl ConvergenceCriterion {
    /// Creates a criterion.
    ///
    /// # Panics
    ///
    /// Panics if `max_iterations == 0` or `tolerance` is negative/NaN.
    pub fn new(max_iterations: usize, tolerance: f64) -> Self {
        assert!(max_iterations > 0, "need at least one iteration");
        assert!(
            tolerance >= 0.0,
            "tolerance must be non-negative, got {tolerance}"
        );
        Self {
            max_iterations,
            tolerance,
        }
    }

    /// Returns `true` when the truth estimates have stabilized.
    pub fn is_converged(&self, previous: &[Option<f64>], current: &[Option<f64>]) -> bool {
        max_abs_delta(previous, current) <= self.tolerance
    }

    /// A validated copy of `self` that every iterative loop can trust.
    ///
    /// [`ConvergenceCriterion::new`] rejects bad input, but the fields are
    /// public, so a struct literal can still smuggle in `max_iterations: 0`
    /// (the loop would never run) or a negative/NaN `tolerance` (the loop
    /// would never converge early). This clamps both — at least one
    /// iteration, tolerance at least `0.0` (NaN becomes `0.0`) — instead of
    /// panicking deep inside a discovery run.
    pub fn effective(&self) -> Self {
        Self {
            max_iterations: self.max_iterations.max(1),
            tolerance: if self.tolerance.is_nan() {
                0.0
            } else {
                self.tolerance.max(0.0)
            },
        }
    }
}

/// Largest absolute per-task change between two truth vectors; slots that
/// are `None` in either vector are skipped.
pub fn max_abs_delta(previous: &[Option<f64>], current: &[Option<f64>]) -> f64 {
    previous
        .iter()
        .zip(current)
        .filter_map(|(p, c)| Some((p.as_ref()? - c.as_ref()?).abs()))
        .fold(0.0, f64::max)
}

/// Runs one member of the CRH family (Algorithm 1) on `data`.
///
/// Weights and truths alternate from `start`'s truths and unit weights:
/// each `round` turns the truths into new weights (in place, so a rule can
/// damp against the previous ones) and the weights into new truths, until
/// the default [`ConvergenceCriterion`] holds between two rounds' truths or
/// its iteration cap is reached. A round that has not converged passes its
/// truths on through `carry(current, next)`, task by task; the converged
/// round's truths are kept as they are.
///
/// The rounds see the residuals of [`SensingData::centered`] and the
/// centres are added back at the end, so the arithmetic is independent of
/// a global offset. An empty campaign returns at once: no truths, zero
/// weights, no iterations, converged.
pub(crate) fn alternate(
    data: &SensingData,
    start: impl FnOnce(&SensingData) -> Vec<Option<f64>>,
    round: impl Fn(&SensingData, &[Option<f64>], &mut [f64]) -> Vec<Option<f64>>,
    carry: impl Fn(Option<f64>, Option<f64>) -> Option<f64>,
) -> TruthDiscoveryResult {
    if data.is_empty() {
        return TruthDiscoveryResult {
            truths: vec![None; data.num_tasks()],
            weights: vec![0.0; data.num_accounts()],
            iterations: 0,
            converged: true,
        };
    }
    let (centered, centers) = data.centered();
    let criterion = ConvergenceCriterion::default();
    let mut truths = start(&centered);
    let mut weights = vec![1.0; data.num_accounts()];
    let mut iterations = 0;
    let mut converged = false;
    while !converged && iterations < criterion.max_iterations {
        iterations += 1;
        let next = round(&centered, &truths, &mut weights);
        converged = criterion.is_converged(&truths, &next);
        if converged {
            truths = next;
        } else {
            for (current, next) in truths.iter_mut().zip(next) {
                *current = carry(*current, next);
            }
        }
    }
    TruthDiscoveryResult {
        truths: truths
            .iter()
            .zip(&centers)
            .map(|(t, c)| Some((*t)? + (*c)?))
            .collect(),
        weights,
        iterations,
        converged,
    }
}

/// Per account, the sum of `loss(task, value − truth)` over its reports;
/// a report of a task without a truth adds nothing.
pub(crate) fn account_losses(
    data: &SensingData,
    truths: &[Option<f64>],
    loss: impl Fn(usize, f64) -> f64,
) -> Vec<f64> {
    let mut losses = vec![0.0; data.num_accounts()];
    for r in data.reports() {
        if let Some(truth) = truths[r.task] {
            losses[r.account] += loss(r.task, r.value - truth);
        }
    }
    losses
}

/// Each task's claims averaged with their accounts' `weights`, summed in
/// report order; a task whose claims weigh nothing in total (or that has
/// none) takes `fallback(task)`.
pub(crate) fn weighted_mean(
    data: &SensingData,
    weights: &[f64],
    fallback: impl Fn(usize) -> Option<f64>,
) -> Vec<Option<f64>> {
    let mut num = vec![0.0; data.num_tasks()];
    let mut den = vec![0.0; data.num_tasks()];
    for r in data.reports() {
        num[r.task] += weights[r.account] * r.value;
        den[r.task] += weights[r.account];
    }
    num.iter()
        .zip(&den)
        .enumerate()
        .map(|(t, (&num, &den))| {
            if den > 0.0 {
                Some(num / den)
            } else {
                fallback(t)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_ignores_missing_tasks() {
        let a = vec![Some(1.0), None, Some(3.0)];
        let b = vec![Some(1.5), Some(9.0), Some(3.0)];
        assert_eq!(max_abs_delta(&a, &b), 0.5);
    }

    #[test]
    fn converged_when_stable() {
        let crit = ConvergenceCriterion::new(10, 1e-3);
        let a = vec![Some(1.0)];
        let b = vec![Some(1.0005)];
        assert!(crit.is_converged(&a, &b));
        let c = vec![Some(1.1)];
        assert!(!crit.is_converged(&a, &c));
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        ConvergenceCriterion::new(0, 1e-6);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_tolerance_panics() {
        ConvergenceCriterion::new(10, -1.0);
    }

    #[test]
    fn effective_clamps_field_constructed_invalid_criteria() {
        // Struct literals bypass `new`'s validation; `effective` repairs them.
        let zero_iters = ConvergenceCriterion {
            max_iterations: 0,
            tolerance: 1e-6,
        };
        assert_eq!(zero_iters.effective().max_iterations, 1);
        assert_eq!(zero_iters.effective().tolerance, 1e-6);

        let negative_tol = ConvergenceCriterion {
            max_iterations: 5,
            tolerance: -2.0,
        };
        assert_eq!(negative_tol.effective().tolerance, 0.0);
        assert_eq!(negative_tol.effective().max_iterations, 5);

        let nan_tol = ConvergenceCriterion {
            max_iterations: 5,
            tolerance: f64::NAN,
        };
        assert_eq!(nan_tol.effective().tolerance, 0.0);
    }

    #[test]
    fn effective_is_identity_on_valid_criteria() {
        let valid = ConvergenceCriterion::new(42, 1e-3);
        assert_eq!(valid.effective(), valid);
        let default = ConvergenceCriterion::default();
        assert_eq!(default.effective(), default);
    }

    #[test]
    fn delta_with_mismatched_none_patterns() {
        // None in either slot skips the pair — in both directions.
        let a = vec![None, Some(2.0), None, Some(4.0)];
        let b = vec![Some(1.0), None, None, Some(4.5)];
        assert_eq!(max_abs_delta(&a, &b), 0.5);
        assert_eq!(max_abs_delta(&b, &a), 0.5);
        // All pairs skipped → no evidence of change → delta 0.
        let only_a = vec![Some(1.0), None];
        let only_b = vec![None, Some(9.0)];
        assert_eq!(max_abs_delta(&only_a, &only_b), 0.0);
        // Empty vectors and length mismatches (zip stops at the shorter).
        assert_eq!(max_abs_delta(&[], &[]), 0.0);
        let long = vec![Some(1.0), Some(100.0)];
        let short = vec![Some(3.0)];
        assert_eq!(max_abs_delta(&long, &short), 2.0);
    }
}
