//! The platform lifecycle, end to end.
//!
//! Plays the cloud platform's role from §III-A: open a campaign, enroll
//! accounts with their sign-in fingerprints, accept (and reject!)
//! submissions, audit the account base for Sybil clusters, and aggregate
//! with and without the resistant framework.
//!
//! Run with: `cargo run --example platform_service`

use sybil_td::core::{AgTr, SybilResistantTd};
use sybil_td::metrics::mae;
use sybil_td::platform::{EpochConfig, EpochEngine, ReportRules};
use sybil_td::sensing::{Scenario, ScenarioConfig};
use sybil_td::truth::{Crh, TruthDiscovery};

fn main() {
    // The volunteers' behaviour comes from the simulator; the platform
    // sees only what a real one would: fingerprints and submissions.
    let scenario = Scenario::generate(&ScenarioConfig::paper_default().with_seed(11));

    let mut engine = EpochEngine::new(
        SybilResistantTd::new(AgTr::default()),
        scenario.data.num_tasks(),
        EpochConfig::default(),
    )
    .with_report_rules(ReportRules::WifiRssi);
    println!(
        "published {} Wi-Fi measurement tasks",
        scenario.data.num_tasks()
    );

    for (account, fp) in scenario.fingerprints.iter().enumerate() {
        engine
            .enroll(account, fp.clone(), 0.0)
            .expect("valid fingerprint");
    }
    println!(
        "enrolled {} accounts (fingerprints captured at sign-in)",
        scenario.fingerprints.len()
    );

    let mut reports: Vec<_> = scenario.data.reports().to_vec();
    reports.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    for r in &reports {
        engine.advance_clock(r.timestamp);
        engine
            .ingest(r.account, r.task, r.value, r.timestamp)
            .expect("simulated reports are plausible");
    }
    // Tampered submissions from a late-joining account bounce off the
    // validator.
    let clock = reports.last().expect("the campaign has reports").timestamp;
    let late = scenario.fingerprints.len();
    engine
        .enroll(late, scenario.fingerprints[0].clone(), clock)
        .expect("valid fingerprint");
    let future = engine.ingest(late, 0, -70.0, clock + 9_999.0).unwrap_err();
    let implausible = engine.ingest(late, 1, 45.0, clock).unwrap_err();
    println!(
        "accepted {} reports, rejected {} ({future}; {implausible})",
        engine.pending_reports(),
        engine.rejected_reports(),
    );

    let snapshot = engine.run_epoch();
    let audit = engine.audit_report(3);
    println!("\naudit via {}:", audit.method());
    for suspect in audit.suspects() {
        println!(
            "  suspected Sybil cluster g{}: accounts {:?}",
            suspect.group, suspect.accounts
        );
    }
    println!(
        "  {:.0}% of accounts flagged (paper policy: down-weight, don't ban)",
        100.0 * audit.suspect_share()
    );

    let plain = Crh.discover(engine.data());
    let resistant: Vec<f64> = snapshot.truths.iter().map(|t| t.unwrap_or(0.0)).collect();
    let crh_mae = mae(&plain.truths_or(0.0), &scenario.ground_truth).expect("lengths");
    let ours_mae = mae(&resistant, &scenario.ground_truth).expect("lengths");
    println!("\naggregation MAE: CRH {crh_mae:.2} dBm vs TD-TR {ours_mae:.2} dBm");
    assert!(ours_mae < crh_mae);
}
