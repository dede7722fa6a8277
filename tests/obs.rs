//! Observability over the full pipeline: one instrumented SRTD run must
//! produce spans covering feature extraction, clustering/DTW, grouping
//! and the iterative truth discovery loop, and the report must round-trip
//! through the runtime's JSON parser.
//!
//! This file holds a single test on purpose: the obs registry is
//! process-wide, and a second concurrently running test would bleed
//! metrics into the snapshot.

use sybil_td::core::{AgFp, AgTr, SybilResistantTd};
use sybil_td::platform::{EpochConfig, EpochEngine, ReportRules};
use sybil_td::runtime::json::{parse, Json, ToJson};
use sybil_td::runtime::obs;
use sybil_td::sensing::{Scenario, ScenarioConfig};

#[test]
fn instrumented_pipeline_covers_every_stage_and_exports_valid_json() {
    obs::set_enabled(true);
    obs::reset();

    // A full campaign: fingerprinted accounts, Sybil attacker included.
    let scenario = Scenario::generate(&ScenarioConfig::paper_default().with_seed(3));

    // TD-FP exercises extraction-side clustering (standardize → elbow →
    // k-means); TD-TR exercises the DTW pairwise matrix.
    let fp_result =
        SybilResistantTd::new(AgFp::default()).discover(&scenario.data, &scenario.fingerprints);
    let tr_result =
        SybilResistantTd::new(AgTr::default()).discover(&scenario.data, &scenario.fingerprints);
    assert!(fp_result.iterations > 0 && tr_result.iterations > 0);
    assert_eq!(
        fp_result.convergence_trace.len(),
        fp_result.iterations,
        "one delta per iteration"
    );

    // The platform audit layer on top: enroll every account, replay the
    // campaign's reports through the epoch engine, audit with AG-TR.
    let mut engine = EpochEngine::new(
        SybilResistantTd::new(AgTr::default()),
        scenario.data.num_tasks(),
        EpochConfig::default(),
    )
    .with_report_rules(ReportRules::WifiRssi);
    let max_ts = scenario
        .data
        .reports()
        .iter()
        .map(|r| r.timestamp)
        .fold(0.0, f64::max);
    engine.advance_clock(max_ts + 1.0);
    for (account, fp) in scenario.fingerprints.iter().enumerate() {
        engine.enroll(account, fp.clone(), 0.0).expect("enroll");
        for r in scenario.data.trajectory_of(account) {
            engine
                .ingest(account, r.task, r.value, r.timestamp)
                .expect("ingest");
        }
    }
    engine.run_epoch();
    let audit = engine.audit_report(2);
    assert_eq!(audit.effective_min_group_size(), 2);

    let report = obs::snapshot();
    obs::set_enabled(false);

    // Spans must cover extraction → clustering/DTW → grouping → TD loop.
    let span_names: Vec<&str> = report.spans.iter().map(|s| s.name).collect();
    for required in [
        "signal.stream_features_batch",
        "framework.per_task_build",
        "cluster.kmeans.fit",
        "cluster.elbow",
        "ag_fp.group",
        "ag_tr.group",
        "ag_tr.dtw_edges",
        "framework.discover",
        "framework.td_loop",
        "platform.audit",
    ] {
        assert!(
            span_names.contains(&required),
            "missing span `{required}` in {span_names:?}"
        );
    }

    // DTW work and per-iteration convergence deltas are recorded.
    assert!(report
        .counters
        .iter()
        .any(|(name, count)| name == "timeseries.dtw.cells" && *count > 0));

    // Fused Table-II extraction and the window-coefficient cache are
    // visible: every stream extraction funnels through the fused kernel,
    // and the campaign's shared capture length means the cache misses
    // once per length and hits on every later windowing.
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert!(counter("signal.features.fused_calls") > 0);
    assert!(counter("signal.window.cache_misses") >= 1);
    assert!(counter("signal.window.cache_hits") > counter("signal.window.cache_misses"));
    let iteration_events = report
        .events
        .iter()
        .filter(|e| e.name == "framework.iteration")
        .count();
    assert!(
        iteration_events >= fp_result.iterations + tr_result.iterations,
        "expected per-iteration events, got {iteration_events}"
    );
    assert!(report.events.iter().any(|e| e.name == "platform.audit"));

    // The full JSON export parses back through the runtime's own parser.
    let rendered = report.to_json().render();
    let tree = parse(&rendered).expect("obs export is valid JSON");
    let Json::Obj(sections) = tree else {
        panic!("obs export must be a JSON object")
    };
    let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["counters", "gauges", "histograms", "spans", "events"]
    );
}
