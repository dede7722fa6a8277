//! Grouping equivalence against the paper's definition: AG-TS and AG-TR
//! link every account pair whose Eq. 6 affinity exceeds ρ or whose Eq. 8
//! dissimilarity falls below φ, then take connected components. The
//! exact dense matrices compute that definition directly
//! ([`support::DenseReference`]); the product never does — it scores only
//! the candidates blocking generates (the AG-TS prefix filter, the AG-TR
//! endpoint cells) and, for AG-TR, runs them through the pruned DTW
//! cascade. Both speed-ups are exact, so for every campaign here, at 1 and
//! 4 worker threads, [`support::check_against_dense`] asserts that
//! `group()` and the decision edges (values bit for bit) equal the dense
//! reference — a pair blocking dropped would be missing from the edges;
//! `EpochEngine::audit_report` reports must match too. How few candidates
//! the AG-TS pair key leaves is a unit test of the blocking module.
//!
//! Campaigns: AG-TS on paper-scale scenarios, a sparse-activeness
//! scenario and a 202-group Sybil-replay campaign (AG-TR on the same
//! campaigns is `ag_tr_equivalence.rs`), and both signals on random small
//! campaigns and a fixed-size `ScaledCampaign` (1 000 accounts here; the
//! 3 000-account case is `#[ignore]`d and run in release by
//! `scripts/verify.sh`).

// `dfs_components` serves `incremental_group.rs` only.
#[allow(dead_code)]
mod support;

use support::{
    assert_matches_dense, campaign_202_groups, check_against_dense, replay_on_engine,
    DenseReference,
};
use sybil_td::core::{AccountGrouping, AgTr, AgTs};
use sybil_td::runtime::prop;
use sybil_td::runtime::rng::{Rng, StdRng};
use sybil_td::sensing::{ScaledCampaign, ScaledCampaignConfig, Scenario, ScenarioConfig};
use sybil_td::truth::SensingData;

/// AG-TS at `rho` against the dense affinity matrix on `data`.
fn assert_ts_matches_dense(data: &SensingData, rho: f64) {
    assert_matches_dense(DenseReference::Ts(AgTs::new(rho)), data);
}

#[test]
fn paper_scale_campaigns_group_identically() {
    for seed in [0, 3, 17] {
        let scenario = Scenario::generate(&ScenarioConfig::paper_default().with_seed(seed));
        assert_ts_matches_dense(&scenario.data, 1.0);
    }
}

#[test]
fn paper_scale_sparse_activeness_groups_identically() {
    let scenario = Scenario::generate(
        &ScenarioConfig::paper_default()
            .with_activeness(0.4, 0.7)
            .with_seed(11),
    );
    // ρ = 0 exercises the blocked path's tightest admissible threshold.
    assert_ts_matches_dense(&scenario.data, 0.0);
}

#[test]
fn synthetic_202_group_campaign_groups_identically() {
    let data = campaign_202_groups(42);
    // Sanity: the campaign really contains merges for blocking to
    // preserve — AG-TS merges the accounts that share a walk.
    let g_ts = AgTs::new(0.5).group(&data, &[]);
    assert!(
        g_ts.len() < data.num_accounts(),
        "AG-TS should merge the shared-walk accounts"
    );
    assert_ts_matches_dense(&data, 0.5);
}

#[test]
fn random_campaigns_group_identically() {
    // Random small campaigns: arbitrary task sets and timestamps, with a
    // planted duplicated walk so merges exist. Deterministic 128-case
    // sweep; each case checks both signals, AG-TS across several
    // thresholds down to ρ = 0, the loosest it admits.
    prop::check(
        |rng: &mut StdRng| {
            let num_tasks = rng.gen_range(3usize..20);
            let accounts = rng.gen_range(2usize..14);
            let mut data = SensingData::new(num_tasks);
            for a in 0..accounts {
                let k = rng.gen_range(0usize..num_tasks.min(6) + 1);
                let mut tasks: Vec<usize> = (0..num_tasks).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..num_tasks);
                    tasks.swap(i, j);
                    data.add_report(
                        a,
                        tasks[i],
                        rng.gen_range(-90f64..-40.0),
                        rng.gen_range(0f64..7200.0),
                    );
                }
            }
            // Plant one replayed pair: the last account clones account 0's
            // trajectory with second-scale offsets.
            let clone_of: Vec<_> = data.trajectory_of(0);
            let cloned = accounts;
            for r in &clone_of {
                data.add_report(cloned, r.task, r.value, r.timestamp + 3.0);
            }
            data
        },
        |data: &SensingData| {
            for rho in [1.0, 0.1, 0.0] {
                check_against_dense(DenseReference::Ts(AgTs::new(rho)), data)?;
            }
            check_against_dense(DenseReference::Tr(AgTr::default()), data)
        },
    );
}

/// A fixed-size campaign: *every* account reports exactly
/// `tasks_per_account` tasks, so set-size keys alone prune nothing and
/// the AG-TS pair key does all the blocking. Groups and edges must match
/// the dense reference, and the campaign must contain AG-TR merges for
/// that to mean anything.
fn assert_scaled_campaign_matches_dense(accounts: usize) {
    let campaign = ScaledCampaign::generate(&ScaledCampaignConfig::new(accounts).with_seed(9));
    let data = &campaign.data;
    let merged = AgTr::default().group(data, &[]);
    assert!(
        merged.len() < data.num_accounts(),
        "expected AG-TR merges among {accounts} accounts, got {} groups",
        merged.len()
    );
    assert_ts_matches_dense(data, 0.0);
    assert_matches_dense(DenseReference::Tr(AgTr::default()), data);
}

#[test]
fn scaled_fixed_size_campaign_groups_identically() {
    assert_scaled_campaign_matches_dense(1_000);
}

/// The 3 000-account equivalence: too slow for a debug build, so
/// `scripts/verify.sh` runs it in release with `--ignored`.
#[test]
#[ignore = "slow in debug builds; scripts/verify.sh runs it in release"]
fn scaled_3000_account_campaign_groups_identically() {
    assert_scaled_campaign_matches_dense(3_000);
}

#[test]
fn audit_reports_match_between_blocked_and_exhaustive_paths() {
    let scenario = Scenario::generate(&ScenarioConfig::paper_default().with_seed(5));
    let ts = AgTs::default();
    assert_eq!(
        replay_on_engine(&scenario, ts).audit_report(2),
        replay_on_engine(&scenario, DenseReference::Ts(ts)).audit_report(2)
    );
}
