//! One-call wrappers: run a method on a scenario and score it.

use srtd_core::{AccountGrouping, AgFp, AgTr, AgTs, SybilResistantTd};
use srtd_metrics::{adjusted_rand_index, mae};
use srtd_sensing::Scenario;
use srtd_truth::{Crh, TruthDiscovery};

/// The aggregation methods compared in Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Plain CRH (the vulnerable baseline).
    Crh,
    /// Framework with fingerprint grouping.
    TdFp,
    /// Framework with task-set grouping.
    TdTs,
    /// Framework with trajectory grouping.
    TdTr,
}

impl Method {
    /// All four methods in the paper's presentation order.
    pub const ALL: [Method; 4] = [Method::Crh, Method::TdFp, Method::TdTs, Method::TdTr];

    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Method::Crh => "CRH",
            Method::TdFp => "TD-FP",
            Method::TdTs => "TD-TS",
            Method::TdTr => "TD-TR",
        }
    }

    /// Runs the method on a scenario and returns its MAE against ground
    /// truth.
    pub fn mae_on(self, scenario: &Scenario) -> f64 {
        let estimates = match self {
            Method::Crh => Crh.discover(&scenario.data).truths_or(0.0),
            Method::TdFp => SybilResistantTd::new(AgFp::default())
                .discover(&scenario.data, &scenario.fingerprints)
                .truths_or(0.0),
            Method::TdTs => SybilResistantTd::new(AgTs::default())
                .discover(&scenario.data, &scenario.fingerprints)
                .truths_or(0.0),
            Method::TdTr => SybilResistantTd::new(AgTr::default())
                .discover(&scenario.data, &scenario.fingerprints)
                .truths_or(0.0),
        };
        mae(&estimates, &scenario.ground_truth).expect("estimate/truth lengths match")
    }
}

/// The grouping methods compared in Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouper {
    /// Device-fingerprint grouping.
    AgFp,
    /// Task-set grouping.
    AgTs,
    /// Trajectory grouping.
    AgTr,
}

impl Grouper {
    /// All three groupers in the paper's presentation order.
    pub const ALL: [Grouper; 3] = [Grouper::AgFp, Grouper::AgTs, Grouper::AgTr];

    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Grouper::AgFp => "AG-FP",
            Grouper::AgTs => "AG-TS",
            Grouper::AgTr => "AG-TR",
        }
    }

    /// Runs the grouper on a scenario and returns its ARI against the true
    /// account-to-owner assignment (the Fig. 6 metric).
    pub fn ari_on(self, scenario: &Scenario) -> f64 {
        let grouping = match self {
            Grouper::AgFp => AgFp::default().group(&scenario.data, &scenario.fingerprints),
            Grouper::AgTs => AgTs::default().group(&scenario.data, &scenario.fingerprints),
            Grouper::AgTr => AgTr::default().group(&scenario.data, &scenario.fingerprints),
        };
        adjusted_rand_index(grouping.labels(), &scenario.owners)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_sensing::ScenarioConfig;

    #[test]
    fn all_methods_produce_finite_mae() {
        let s = Scenario::generate(&ScenarioConfig::paper_default().with_seed(1));
        for m in Method::ALL {
            let v = m.mae_on(&s);
            assert!(v.is_finite() && v >= 0.0, "{}: {v}", m.name());
        }
    }

    #[test]
    fn all_groupers_produce_bounded_ari() {
        let s = Scenario::generate(&ScenarioConfig::paper_default().with_seed(2));
        for g in Grouper::ALL {
            let v = g.ari_on(&s);
            assert!((-1.0..=1.0).contains(&v), "{}: {v}", g.name());
        }
    }
}
