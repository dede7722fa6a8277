//! AG-TR equivalence against the paper's definition: Eq. 8 links every
//! account pair whose DTW dissimilarity falls below φ, then takes
//! connected components. The exact `dissimilarity_matrix` runs full DTW
//! over every pair ([`support::DenseReference`]); the product scores only
//! the endpoint-cell candidate pairs and runs them through the pruned DTW
//! cascade, which may skip a pair's exact distance once it is known to
//! reach φ. Only the `D_ij < φ` decision feeds the grouping, so for every
//! campaign here, at 1 and 4 worker threads,
//! [`support::check_against_dense`] asserts that `group()` equals the
//! exact matrix's components (groups and labels) and that
//! `dissimilarity_edges` equals its below-φ entries bit for bit — neither
//! blocking nor pruning drops a below-φ pair, and pruning perturbs no
//! kept distance; `EpochEngine::audit_report` reports must match too.
//!
//! Campaigns: paper-scale scenarios, a sparse-activeness scenario and a
//! 202-group Sybil-replay campaign. AG-TS on the same campaigns, and both
//! signals on random and fixed-size campaigns, are
//! `blocked_equivalence.rs`.

// `DenseReference::Ts` serves `blocked_equivalence.rs` only, and
// `dfs_components` `incremental_group.rs`.
#[allow(dead_code)]
mod support;

use support::{assert_matches_dense, campaign_202_groups, replay_on_engine, DenseReference};
use sybil_td::core::{AccountGrouping, AgTr};
use sybil_td::sensing::{Scenario, ScenarioConfig};
use sybil_td::truth::SensingData;

/// AG-TR at its defaults against the exact dissimilarity matrix on `data`.
fn assert_tr_matches_dense(data: &SensingData) {
    assert_matches_dense(DenseReference::Tr(AgTr::default()), data);
}

#[test]
fn paper_scale_campaigns_group_identically() {
    for seed in [0, 3, 17] {
        let scenario = Scenario::generate(&ScenarioConfig::paper_default().with_seed(seed));
        assert_tr_matches_dense(&scenario.data);
    }
}

#[test]
fn paper_scale_sparse_activeness_groups_identically() {
    let scenario = Scenario::generate(
        &ScenarioConfig::paper_default()
            .with_activeness(0.4, 0.7)
            .with_seed(11),
    );
    assert_tr_matches_dense(&scenario.data);
}

#[test]
fn synthetic_202_group_campaign_groups_identically() {
    let data = campaign_202_groups(42);
    // Sanity: the campaign really contains merges for blocking and
    // pruning to preserve (each attacker's replayed walk forms one
    // multi-account component).
    let grouping = AgTr::default().group(&data, &[]);
    assert!(
        grouping.len() <= 202,
        "expected sybil merges, got {} groups",
        grouping.len()
    );
    assert!(
        grouping.groups().iter().any(|g| g.len() >= 10),
        "each attacker's accounts should form one component"
    );
    assert_tr_matches_dense(&data);
}

#[test]
fn audit_reports_match_between_pruned_and_full_paths() {
    let scenario = Scenario::generate(&ScenarioConfig::paper_default().with_seed(5));
    let tr = AgTr::default();
    assert_eq!(
        replay_on_engine(&scenario, tr).audit_report(2),
        replay_on_engine(&scenario, DenseReference::Tr(tr)).audit_report(2)
    );
}
