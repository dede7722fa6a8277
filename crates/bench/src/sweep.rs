//! Seed-averaged activeness sweeps, parallelized across seeds on the
//! runtime's worker pool.

use srtd_runtime::parallel::parallel_map;
use srtd_sensing::{Scenario, ScenarioConfig};

/// One cell of a sweep: both activeness levels plus the averaged value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Legitimate-user activeness of this cell.
    pub legit_activeness: f64,
    /// Attacker activeness of this cell.
    pub attacker_activeness: f64,
    /// Seed-averaged metric value.
    pub value: f64,
}

/// Averages `metric` over `seeds` scenarios at one activeness setting.
///
/// Scenario generation dominates the cost, so seeds are evaluated in
/// parallel through the runtime's [`parallel_map`], each seed's pipeline
/// running its own parallel regions inline in its pool job; the
/// order-preserving map keeps the sum (and thus the average) identical
/// for every worker-thread count.
pub fn seed_average<F>(
    base: &ScenarioConfig,
    legit: f64,
    attacker: f64,
    seeds: u64,
    metric: F,
) -> f64
where
    F: Fn(&Scenario) -> f64 + Sync,
{
    assert!(seeds > 0, "need at least one seed");
    let all_seeds: Vec<u64> = (0..seeds).collect();
    let values = parallel_map(&all_seeds, |&seed| {
        let cfg = base
            .clone()
            .with_seed(seed)
            .with_activeness(legit, attacker);
        metric(&Scenario::generate(&cfg))
    });
    values.iter().sum::<f64>() / seeds as f64
}

/// Runs a full activeness sweep: for each legit activeness setting and
/// each attacker activeness on the grid, the seed-averaged metric.
///
/// Returns points in row-major order (legit setting outer, attacker grid
/// inner) — the Fig. 6/7 layout.
pub fn activeness_sweep<F>(
    base: &ScenarioConfig,
    legit_settings: &[f64],
    attacker_grid: &[f64],
    seeds: u64,
    metric: F,
) -> Vec<SweepPoint>
where
    F: Fn(&Scenario) -> f64 + Sync,
{
    let mut out = Vec::with_capacity(legit_settings.len() * attacker_grid.len());
    for &legit in legit_settings {
        for &attacker in attacker_grid {
            out.push(SweepPoint {
                legit_activeness: legit,
                attacker_activeness: attacker,
                value: seed_average(base, legit, attacker, seeds, &metric),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_average_is_deterministic() {
        let base = ScenarioConfig::paper_default();
        let metric = |s: &Scenario| s.data.num_reports() as f64;
        let a = seed_average(&base, 0.5, 0.5, 4, metric);
        let b = seed_average(&base, 0.5, 0.5, 4, metric);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_covers_the_grid_in_order() {
        let base = ScenarioConfig::paper_default();
        let pts = activeness_sweep(&base, &[0.2, 1.0], &[0.4, 0.8], 2, |s: &Scenario| {
            s.data.num_reports() as f64
        });
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].legit_activeness, 0.2);
        assert_eq!(pts[0].attacker_activeness, 0.4);
        assert_eq!(pts[3].legit_activeness, 1.0);
        assert_eq!(pts[3].attacker_activeness, 0.8);
        // More activeness, more reports.
        assert!(pts[3].value > pts[0].value);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn zero_seeds_panics() {
        seed_average(&ScenarioConfig::paper_default(), 0.5, 0.5, 0, |_| 0.0);
    }
}
