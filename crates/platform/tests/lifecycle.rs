//! Full lifecycle: a generated campaign replayed through the epoch
//! engine's ingest front door, then audited and aggregated.

use srtd_core::{AccountGrouping, AgTr, SybilResistantTd};
use srtd_metrics::mae;
use srtd_platform::{EpochConfig, EpochEngine, IngestError, ReportRules};
use srtd_sensing::{Scenario, ScenarioConfig};
use srtd_truth::Crh;

/// A Wi-Fi campaign engine for `scenario`'s tasks, grouping with `method`.
fn wifi_engine<G: AccountGrouping>(scenario: &Scenario, method: G) -> EpochEngine<G> {
    EpochEngine::new(
        SybilResistantTd::new(method),
        scenario.data.num_tasks(),
        EpochConfig::default(),
    )
    .with_report_rules(ReportRules::WifiRssi)
}

/// Replays a scenario through the engine: enroll every account with its
/// fingerprint, ingest every report in timestamp order, run one epoch.
fn replay(scenario: &Scenario) -> EpochEngine<AgTr> {
    let mut engine = wifi_engine(scenario, AgTr::default());
    for (account, fp) in scenario.fingerprints.iter().enumerate() {
        engine
            .enroll(account, fp.clone(), 0.0)
            .expect("valid fingerprint");
    }
    let mut reports: Vec<_> = scenario.data.reports().to_vec();
    reports.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    for r in reports {
        engine.advance_clock(r.timestamp);
        engine
            .ingest(r.account, r.task, r.value, r.timestamp)
            .expect("scenario reports satisfy the platform rules");
    }
    engine.run_epoch();
    engine
}

#[test]
fn generated_scenarios_pass_platform_validation() {
    // The simulator produces physically plausible campaigns, so the
    // platform must accept every report — this pins the two subsystems'
    // contracts together.
    for seed in 0..3 {
        let s = Scenario::generate(&ScenarioConfig::paper_default().with_seed(seed));
        let engine = replay(&s);
        assert_eq!(engine.data().num_reports(), s.data.num_reports());
        assert_eq!(engine.rejected_reports(), 0);
    }
}

#[test]
fn platform_audit_flags_the_sybil_clusters() {
    let s = Scenario::generate(&ScenarioConfig::paper_default().with_seed(5));
    let engine = replay(&s);
    let audit = engine.audit_report(3);
    assert_eq!(audit.method(), "AG-TR");
    // Exactly the two 5-account attacker clusters are flagged.
    assert_eq!(audit.suspects().len(), 2);
    for a in 0..s.num_accounts() {
        assert_eq!(audit.is_suspect(a), s.is_sybil[a], "account {a}");
    }
    assert!((audit.suspect_share() - 10.0 / 18.0).abs() < 1e-9);
}

#[test]
fn platform_end_to_end_aggregation_matches_direct_calls() {
    let s = Scenario::generate(&ScenarioConfig::paper_default().with_seed(6));
    let engine = replay(&s);
    let via_platform = srtd_truth::TruthDiscovery::discover(&Crh, engine.data());
    let direct = srtd_truth::TruthDiscovery::discover(&Crh, &s.data);
    // The engine folds reports in shard order, so floating-point
    // summation order differs from the generator's — equal to rounding.
    for (a, b) in via_platform.truths.iter().zip(&direct.truths) {
        let (a, b) = (a.expect("reported"), b.expect("reported"));
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    let resistant: Vec<f64> = engine
        .latest()
        .truths
        .iter()
        .map(|t| t.unwrap_or(0.0))
        .collect();
    let err = mae(&resistant, &s.ground_truth).expect("lengths");
    let crh_err = mae(&via_platform.truths_or(0.0), &s.ground_truth).expect("lengths");
    assert!(err < crh_err, "framework {err} should beat CRH {crh_err}");
}

#[test]
fn tampered_replay_is_caught_by_validation() {
    // An attacker trying to smuggle in a report dated before enrollment,
    // from the future, or with an absurd value is refused at the door.
    let s = Scenario::generate(&ScenarioConfig::paper_default().with_seed(7));
    let mut engine = wifi_engine(&s, AgTr::default());
    engine
        .enroll(0, s.fingerprints[0].clone(), 100.0)
        .expect("valid");
    engine.advance_clock(200.0);
    assert_eq!(
        engine.ingest(0, 0, -70.0, 50.0),
        Err(IngestError::BeforeEnrollment)
    );
    assert!(matches!(
        engine.ingest(0, 0, -70.0, 10_000.0),
        Err(IngestError::FutureTimestamp { .. })
    ));
    assert!(matches!(
        engine.ingest(0, 0, 55.0, 150.0),
        Err(IngestError::ImplausibleValue { .. })
    ));
    assert_eq!(engine.rejected_reports(), 3);
    assert_eq!(engine.pending_reports(), 0);
    assert_eq!(engine.run_epoch().num_reports, 0);
}
