//! Property tests that every truth discovery algorithm must satisfy.

use srtd_runtime::rng::{Rng, StdRng};
use srtd_runtime::{prop, prop_assert, prop_assert_eq};
use srtd_truth::{Catd, Crh, Gtm, MeanVote, MedianVote, SensingData, TruthDiscovery};

/// Generates a random campaign: up to 6 accounts × 5 tasks, each account
/// reporting a random subset with values in a bounded band.
fn campaign(rng: &mut StdRng) -> SensingData {
    let raw = prop::vec_with(rng, 1..40, |r| {
        (
            r.gen_range(0usize..6),
            r.gen_range(0usize..5),
            r.gen_range(-100f64..100.0),
            r.gen_range(0f64..1e4),
        )
    });
    let mut data = SensingData::new(5);
    let mut seen = std::collections::HashSet::new();
    for (account, task, value, ts) in raw {
        if seen.insert((account, task)) {
            data.add_report(account, task, value, ts);
        }
    }
    data
}

fn algorithms() -> Vec<Box<dyn TruthDiscovery>> {
    vec![
        Box::new(Crh),
        Box::new(Catd),
        Box::new(Gtm),
        Box::new(MeanVote),
        Box::new(MedianVote),
    ]
}

/// The closed-form algorithms, whose outputs are exact functions of the
/// input.
///
/// The iterative algorithms (CRH, CATD, GTM) are excluded from the
/// exact-equivariance properties: their winner-take-all weight maps are
/// *multistable* on adversarial inputs — several fixed points coexist, and
/// which one the iteration lands on can flip under one-ulp perturbations.
/// Their estimates remain inside the task hull either way (checked for all
/// algorithms above), which is the bound the Sybil-resistance analysis
/// relies on, and they are bitwise deterministic (checked below).
fn stable_algorithms() -> Vec<Box<dyn TruthDiscovery>> {
    vec![Box::new(MeanVote), Box::new(MedianVote)]
}

/// Truth estimates always lie inside the convex hull of the reports
/// for that task, and are `None` exactly for unreported tasks.
#[test]
fn estimates_stay_in_task_hull() {
    prop::check(campaign, |data| {
        for algo in algorithms() {
            let result = algo.discover(data);
            prop_assert_eq!(result.truths.len(), data.num_tasks());
            for task in 0..data.num_tasks() {
                let values = data.task_claims(task).1;
                match result.truths[task] {
                    None => prop_assert!(values.is_empty(), "{}", algo.name()),
                    Some(estimate) => {
                        prop_assert!(!values.is_empty(), "{}", algo.name());
                        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
                        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                        prop_assert!(
                            estimate >= lo - 1e-6 && estimate <= hi + 1e-6,
                            "{}: task {} estimate {} outside [{}, {}]",
                            algo.name(),
                            task,
                            estimate,
                            lo,
                            hi
                        );
                    }
                }
            }
        }
        Ok(())
    });
}

/// Shifting every report by a constant shifts every estimate by the
/// same constant (translation equivariance).
#[test]
fn translation_equivariance() {
    prop::check(
        |rng| (campaign(rng), rng.gen_range(-50f64..50.0)),
        |(data, shift)| {
            let shift = *shift;
            let mut shifted = SensingData::new(data.num_tasks());
            for r in data.reports() {
                shifted.add_report(r.account, r.task, r.value + shift, r.timestamp);
            }
            for algo in stable_algorithms() {
                let base = algo.discover(data);
                let moved = algo.discover(&shifted);
                for (a, b) in base.truths.iter().zip(&moved.truths) {
                    match (a, b) {
                        (Some(x), Some(y)) => prop_assert!(
                            (x + shift - y).abs() < 1e-4 * (1.0 + x.abs()),
                            "{}: {} + {} != {}",
                            algo.name(),
                            x,
                            shift,
                            y
                        ),
                        (None, None) => {}
                        _ => prop_assert!(false, "{}: missing-task mismatch", algo.name()),
                    }
                }
            }
            Ok(())
        },
    );
}

/// Renumbering accounts never changes the estimates (algorithms must
/// not depend on account identity).
#[test]
fn account_relabeling_invariance() {
    prop::check(campaign, |data| {
        let n = data.num_accounts().max(1);
        // Deterministic permutation: reverse.
        let mut relabeled = SensingData::new(data.num_tasks());
        for r in data.reports() {
            relabeled.add_report(n - 1 - r.account, r.task, r.value, r.timestamp);
        }
        for algo in stable_algorithms() {
            let a = algo.discover(data);
            let b = algo.discover(&relabeled);
            for (x, y) in a.truths.iter().zip(&b.truths) {
                match (x, y) {
                    (Some(x), Some(y)) => prop_assert!(
                        (x - y).abs() < 1e-4 * (1.0 + x.abs()),
                        "{}: {} vs {}",
                        algo.name(),
                        x,
                        y
                    ),
                    (None, None) => {}
                    _ => prop_assert!(false, "{}", algo.name()),
                }
            }
        }
        Ok(())
    });
}

/// Every algorithm is bitwise deterministic: the same input gives the
/// same output.
#[test]
fn determinism() {
    prop::check(campaign, |data| {
        for algo in algorithms() {
            let a = algo.discover(data);
            let b = algo.discover(data);
            prop_assert_eq!(a, b, "{} is not deterministic", algo.name());
        }
        Ok(())
    });
}

/// Iterative algorithms terminate with sane outputs (CRH and GTM may
/// legitimately hit their iteration cap when the weight map is
/// multistable — see `stable_algorithms`), and weights are
/// finite/non-negative.
#[test]
fn convergence_and_weight_sanity() {
    prop::check(campaign, |data| {
        for algo in algorithms() {
            let r = algo.discover(data);
            if matches!(algo.name(), "Mean" | "Median" | "CATD") {
                prop_assert!(r.converged, "{} did not converge", algo.name());
            }
            prop_assert!(
                r.weights.iter().all(|w| w.is_finite() && *w >= 0.0),
                "{} produced bad weights {:?}",
                algo.name(),
                r.weights
            );
            prop_assert!(
                r.truths.iter().flatten().all(|t| t.is_finite()),
                "{} produced non-finite truths",
                algo.name()
            );
        }
        Ok(())
    });
}
