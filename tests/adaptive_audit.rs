//! End-to-end adaptive-adversary vs stochastic-audit integration.
//!
//! Plants a threshold-evading Sybil ring — camouflaged values inside the
//! honest envelope except on its target tasks, plus replay jitter large
//! enough that AG-TR forms no trajectory edges — and drives the epoch
//! engine with the stochastic audit stage enabled. Grouping alone must
//! miss the ring; the audit must convict every ring account within a
//! bounded number of epochs, with zero honest convictions, and the whole
//! run must be bit-identical under 1 and 4 worker threads.

use sybil_td::core::{AgTr, SybilResistantTd};
use sybil_td::platform::{AuditPolicy, EpochConfig, EpochEngine, EpochSnapshot};
use sybil_td::runtime::parallel::set_max_threads;
use sybil_td::sensing::{
    AttackerSpec, EvasionTactic, FabricationStrategy, Scenario, ScenarioConfig,
};

const MAX_EPOCHS: u64 = 48;

fn ring_scenario() -> Scenario {
    // Camouflaged fabrication (lies only on 40 % of the task set, honest
    // envelope elsewhere) over a jittered replay whose per-account clock
    // offsets (σ = 2 400 s) push pairwise DTW distances past φ.
    let attacker = AttackerSpec::adaptive_jitter(2400.0)
        .with_strategy(FabricationStrategy::camouflaged_default())
        .with_evasion(EvasionTactic::JitteredReplay {
            time_jitter_s: 2400.0,
            order_flips: 1,
        });
    Scenario::generate(
        &ScenarioConfig {
            attackers: vec![attacker],
            ..ScenarioConfig::paper_default()
        }
        .with_seed(1902),
    )
}

/// Runs the full pipeline: ingest the campaign, then keep running
/// epochs (the audit samples new targets each epoch) until `MAX_EPOCHS`.
/// Returns the final snapshot and the engine for report inspection.
fn run_pipeline(s: &Scenario) -> (std::sync::Arc<EpochSnapshot>, EpochEngine<AgTr>) {
    let mut engine = EpochEngine::new(
        SybilResistantTd::new(AgTr::default()),
        s.data.num_tasks(),
        EpochConfig::default(),
    );
    engine.set_audit(AuditPolicy::default().with_seed(7));
    engine.set_audit_reference(s.ground_truth.iter().map(|&t| Some(t)).collect());
    for r in s.data.reports() {
        engine
            .ingest(r.account, r.task, r.value, r.timestamp)
            .expect("campaign reports are valid");
    }
    let mut snap = engine.run_epoch();
    for _ in 1..MAX_EPOCHS {
        snap = engine.run_epoch();
    }
    (snap, engine)
}

#[test]
fn threshold_evading_ring_is_convicted_not_grouped() {
    let s = ring_scenario();
    let sybils: Vec<usize> = (0..s.num_accounts()).filter(|&a| s.is_sybil[a]).collect();
    assert_eq!(sybils.len(), 5);
    let (snap, engine) = run_pipeline(&s);

    // The evasion worked: trajectory grouping flags no cluster at the
    // operator's threshold, so the ring is invisible to grouping alone.
    let report = engine.audit_report(3);
    assert!(
        report.suspects().is_empty(),
        "jittered ring should evade AG-TR: {:?}",
        report.suspects()
    );

    // The audit backstop caught it: every ring account convicted, and
    // within the epoch budget.
    let auditor = engine.auditor().expect("audit stage enabled");
    for &a in &sybils {
        let epoch = auditor
            .convicted_epoch(a)
            .unwrap_or_else(|| panic!("ring account {a} not convicted"));
        assert!(epoch <= MAX_EPOCHS, "account {a} convicted late: {epoch}");
    }
    assert_eq!(snap.convicted, sybils, "snapshot publishes the convictions");

    // Zero honest false positives, in convictions and in the joined
    // operator report alike.
    for a in 0..s.num_accounts() {
        if !s.is_sybil[a] {
            assert!(!auditor.is_convicted(a), "honest account {a} convicted");
            assert!(!report.is_suspect(a), "honest account {a} flagged");
        }
    }

    // And the report's suspect set is exactly the convicted ring.
    assert_eq!(report.convicted(), &sybils[..]);
    let flagged: Vec<usize> = (0..s.num_accounts())
        .filter(|&a| report.is_suspect(a))
        .collect();
    assert_eq!(flagged, sybils);
}

#[test]
fn pipeline_is_bit_identical_across_thread_counts() {
    set_max_threads(1);
    let s1 = ring_scenario();
    let (snap1, engine1) = run_pipeline(&s1);
    set_max_threads(4);
    let s4 = ring_scenario();
    let (snap4, engine4) = run_pipeline(&s4);
    set_max_threads(0);

    assert_eq!(s1.data, s4.data, "campaign generation");
    assert_eq!(snap1.truths, snap4.truths, "published truths");
    assert_eq!(snap1.labels, snap4.labels, "group labels");
    assert_eq!(snap1.group_weights, snap4.group_weights, "group weights");
    assert_eq!(snap1.audited, snap4.audited, "audit targets");
    assert_eq!(snap1.convicted, snap4.convicted, "convictions");
    let a1 = engine1.auditor().unwrap();
    let a4 = engine4.auditor().unwrap();
    for a in 0..s1.num_accounts() {
        assert_eq!(a1.convicted_epoch(a), a4.convicted_epoch(a), "account {a}");
        assert_eq!(a1.failures(a), a4.failures(a), "account {a} failures");
    }
}
