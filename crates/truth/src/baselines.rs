//! Unweighted aggregation baselines: mean and median voting.

use crate::data::SensingData;
use crate::traits::{TruthDiscovery, TruthDiscoveryResult};

/// Plain per-task arithmetic mean of all reports (no reliability model).
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanVote;

impl TruthDiscovery for MeanVote {
    fn discover(&self, data: &SensingData) -> TruthDiscoveryResult {
        TruthDiscoveryResult {
            truths: data.task_means(),
            weights: vec![1.0; data.num_accounts()],
            iterations: 1,
            converged: true,
        }
    }

    fn name(&self) -> &'static str {
        "Mean"
    }
}

/// Per-task median of all reports — robust to up to 50% outliers per task,
/// but still defeated once Sybil accounts hold the majority.
#[derive(Debug, Clone, Copy, Default)]
pub struct MedianVote;

impl TruthDiscovery for MedianVote {
    fn discover(&self, data: &SensingData) -> TruthDiscoveryResult {
        let truths = (0..data.num_tasks())
            .map(|t| {
                let mut vals = data.task_claims(t).1.to_vec();
                if vals.is_empty() {
                    return None;
                }
                vals.sort_by(f64::total_cmp);
                let mid = vals.len() / 2;
                Some(if vals.len() % 2 == 1 {
                    vals[mid]
                } else {
                    0.5 * (vals[mid - 1] + vals[mid])
                })
            })
            .collect();
        TruthDiscoveryResult {
            truths,
            weights: vec![1.0; data.num_accounts()],
            iterations: 1,
            converged: true,
        }
    }

    fn name(&self) -> &'static str {
        "Median"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_runtime::rng::Rng;
    use srtd_runtime::{prop, prop_assert};

    fn data_from(values: &[&[f64]]) -> SensingData {
        let mut d = SensingData::new(values.len());
        for (t, vals) in values.iter().enumerate() {
            for (a, &v) in vals.iter().enumerate() {
                d.add_report(a, t, v, t as f64);
            }
        }
        d
    }

    #[test]
    fn mean_vote_averages() {
        let d = data_from(&[&[1.0, 3.0], &[10.0, 20.0]]);
        let r = MeanVote.discover(&d);
        assert_eq!(r.truths[0], Some(2.0));
        assert_eq!(r.truths[1], Some(15.0));
    }

    #[test]
    fn median_vote_odd_and_even() {
        let d = data_from(&[&[1.0, 100.0, 2.0], &[1.0, 2.0]]);
        let r = MedianVote.discover(&d);
        assert_eq!(r.truths[0], Some(2.0));
        assert_eq!(r.truths[1], Some(1.5));
    }

    #[test]
    fn median_resists_minority_outliers_mean_does_not() {
        let d = data_from(&[&[10.0, 10.2, 9.8, 100.0]]);
        let mean = MeanVote.discover(&d).truths[0].unwrap();
        let median = MedianVote.discover(&d).truths[0].unwrap();
        assert!(mean > 30.0);
        assert!((median - 10.1).abs() < 0.2);
    }

    #[test]
    fn empty_task_is_none() {
        let mut d = SensingData::new(2);
        d.add_report(0, 0, 1.0, 0.0);
        assert_eq!(MeanVote.discover(&d).truths[1], None);
        assert_eq!(MedianVote.discover(&d).truths[1], None);
    }

    /// Both baselines stay inside the convex hull of per-task reports.
    #[test]
    fn estimates_in_hull() {
        prop::check(
            |rng| prop::vec_with(rng, 1..20, |r| r.gen_range(-100f64..100.0)),
            |vals| {
                let refs: Vec<&[f64]> = vec![vals];
                let d = data_from(&refs);
                let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                for algo in [&MeanVote as &dyn TruthDiscovery, &MedianVote] {
                    let v = algo.discover(&d).truths[0].unwrap();
                    prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
                }
                Ok(())
            },
        );
    }

    /// Median is permutation-invariant.
    #[test]
    fn median_permutation_invariant() {
        prop::check(
            |rng| prop::vec_with(rng, 2..15, |r| r.gen_range(-100f64..100.0)),
            |vals| {
                let refs: Vec<&[f64]> = vec![vals.as_slice()];
                let d1 = data_from(&refs);
                let a = MedianVote.discover(&d1).truths[0].unwrap();
                let mut reversed = vals.clone();
                reversed.reverse();
                let refs: Vec<&[f64]> = vec![&reversed];
                let d2 = data_from(&refs);
                let b = MedianVote.discover(&d2).truths[0].unwrap();
                prop_assert!((a - b).abs() < 1e-12);
                Ok(())
            },
        );
    }
}
