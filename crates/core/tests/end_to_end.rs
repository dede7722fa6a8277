//! End-to-end: generated campaigns through grouping and the framework.
//!
//! These tests check the paper's headline claims on simulated campaigns:
//! CRH is vulnerable to the Sybil attack, every framework variant
//! diminishes it, and AG-TR groups best.

use srtd_core::{AccountGrouping, AgFp, AgTr, AgTs, PerfectGrouping, SybilResistantTd};
use srtd_metrics::{adjusted_rand_index, mae};
use srtd_sensing::{Scenario, ScenarioConfig};
use srtd_truth::{Crh, TruthDiscovery};

fn scenario(seed: u64, legit_alpha: f64, attacker_alpha: f64) -> Scenario {
    Scenario::generate(
        &ScenarioConfig::paper_default()
            .with_seed(seed)
            .with_activeness(legit_alpha, attacker_alpha),
    )
}

fn crh_mae(s: &Scenario) -> f64 {
    let r = Crh.discover(&s.data);
    mae(&r.truths_or(0.0), &s.ground_truth).expect("equal lengths")
}

fn framework_mae<G: AccountGrouping>(s: &Scenario, grouping: G) -> f64 {
    let r = SybilResistantTd::new(grouping).discover(&s.data, &s.fingerprints);
    mae(&r.truths_or(0.0), &s.ground_truth).expect("equal lengths")
}

/// Averages a metric over several seeds to iron out single-run noise.
fn average<F: Fn(u64) -> f64>(seeds: std::ops::Range<u64>, f: F) -> f64 {
    let n = seeds.clone().count() as f64;
    seeds.map(f).sum::<f64>() / n
}

#[test]
fn crh_is_vulnerable_to_the_sybil_attack() {
    // Fig. 7's premise: with fully active attackers, CRH's MAE explodes
    // (fabricated −50 dBm vs. true −60..−90 dBm).
    let avg = average(0..5, |seed| crh_mae(&scenario(seed, 1.0, 1.0)));
    assert!(
        avg > 5.0,
        "CRH should be badly wrong under attack: MAE {avg}"
    );
}

#[test]
fn every_framework_variant_beats_crh_under_full_attack() {
    let seeds = 0u64..8;
    let crh = average(seeds.clone(), |s| crh_mae(&scenario(s, 1.0, 1.0)));
    let td_tr = average(seeds.clone(), |s| {
        framework_mae(&scenario(s, 1.0, 1.0), AgTr::default())
    });
    let td_ts = average(seeds.clone(), |s| {
        framework_mae(&scenario(s, 1.0, 1.0), AgTs::default())
    });
    let td_fp = average(seeds.clone(), |s| {
        framework_mae(&scenario(s, 1.0, 1.0), AgFp::default())
    });
    assert!(td_tr < crh, "TD-TR {td_tr} vs CRH {crh}");
    assert!(td_ts < crh, "TD-TS {td_ts} vs CRH {crh}");
    assert!(td_fp < crh, "TD-FP {td_fp} vs CRH {crh}");
}

#[test]
fn oracle_grouping_is_a_lower_bound() {
    let seeds = 0u64..5;
    let oracle = average(seeds.clone(), |seed| {
        let s = scenario(seed, 1.0, 1.0);
        framework_mae(&s, PerfectGrouping::new(s.owners.clone()))
    });
    let crh = average(seeds, |s| crh_mae(&scenario(s, 1.0, 1.0)));
    assert!(
        oracle < crh * 0.5,
        "oracle grouping should roughly halve CRH's MAE: {oracle} vs {crh}"
    );
}

#[test]
fn ag_tr_groups_sybil_accounts_correctly() {
    // Fig. 6's claim: AG-TR achieves high ARI, and it grows with
    // activeness.
    let mut high_activity = 0.0;
    let mut low_activity = 0.0;
    let seeds = 0u64..6;
    let seeds_n = seeds.clone();
    for seed in seeds_n {
        let s = scenario(seed, 1.0, 1.0);
        let g = AgTr::default().group(&s.data, &s.fingerprints);
        high_activity += adjusted_rand_index(g.labels(), &s.owners);
        let s = scenario(seed, 0.4, 0.4);
        let g = AgTr::default().group(&s.data, &s.fingerprints);
        low_activity += adjusted_rand_index(g.labels(), &s.owners);
    }
    let n = seeds.count() as f64;
    high_activity /= n;
    low_activity /= n;
    assert!(
        high_activity > 0.7,
        "AG-TR ARI at full activeness: {high_activity}"
    );
    assert!(
        high_activity >= low_activity - 0.05,
        "ARI should not degrade with activeness: {low_activity} -> {high_activity}"
    );
}

#[test]
fn ag_fp_separates_attack_i_devices() {
    // AG-FP's job: the Attack-I accounts (one shared device) end up in one
    // group, so their five −50 dBm claims collapse to one voice.
    let s = scenario(3, 1.0, 1.0);
    let g = AgFp::default().group(&s.data, &s.fingerprints);
    // Accounts 8..13 belong to the Attack-I attacker (owner 8).
    let attack_i: Vec<usize> = (0..s.num_accounts())
        .filter(|&a| s.owners[a] == 8)
        .collect();
    let first_group = g.group_of(attack_i[0]);
    let together = attack_i
        .iter()
        .filter(|&&a| g.group_of(a) == first_group)
        .count();
    assert!(
        together >= 4,
        "Attack-I accounts should mostly share a group: {together}/5"
    );
}

#[test]
fn framework_degrades_gracefully_without_attackers() {
    // No Sybil accounts: the framework should roughly match CRH (no
    // grouping signal to exploit, no harm done).
    let cfg = ScenarioConfig::paper_default()
        .with_seed(11)
        .with_attackers(vec![]);
    let s = Scenario::generate(&cfg);
    let crh = crh_mae(&s);
    let ours = framework_mae(&s, AgTr::default());
    assert!(
        (ours - crh).abs() < 2.0,
        "without attackers both should be close: {ours} vs {crh}"
    );
    assert!(ours < 3.0, "clean-campaign MAE too high: {ours}");
}
