//! Golden export for the blocking counters: one instrumented grouping run
//! per pairwise signal must surface the `grouping.pairs.*` partition and
//! the per-signal `grouping.<signal>.pairs.*` mirrors, their deterministic
//! JSON export must be byte-identical across worker-thread counts, and
//! the exported counts must partition the pairs: per signal, `candidate`
//! plus `skipped_by_blocking` is `total`, the unsuffixed counters sum the
//! two signals, and the decision edges are a subset of the candidates.
//!
//! This file holds a single test on purpose: the obs registry is
//! process-wide, and a second concurrently running test would bleed
//! metrics into the snapshot (same contract as `obs_prune.rs`).

use sybil_td::core::{AccountGrouping, AgTr, AgTs};
use sybil_td::runtime::obs;
use sybil_td::runtime::parallel::set_max_threads;
use sybil_td::truth::SensingData;

/// 40 accounts in 10 cliques of 4: clique members share one task set and
/// one tight walk, so both signals have real edges to find while blocking
/// still skips most of the 780 pairs.
fn clique_campaign() -> SensingData {
    let mut data = SensingData::new(200);
    for a in 0..40usize {
        let clique = a / 4;
        for k in 0..5usize {
            let t = (clique * 19 + k * 3) % 200;
            let when = (clique * 7000 + k * 120 + (a % 4) * 25) as f64;
            data.add_report(a, t, -60.0, when);
        }
    }
    data
}

fn counter(report: &obs::Report, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn gauge(report: &obs::Report, name: &str) -> f64 {
    report
        .gauges
        .iter()
        .find(|(n, _)| n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

#[test]
fn blocking_counters_export_deterministically_and_partition_the_pairs() {
    let data = clique_campaign();
    let ag_ts = AgTs::default();
    let ag_tr = AgTr::default();

    // One instrumented grouping pass (both pairwise signals) per thread
    // count; the deterministic export must be byte-identical.
    let mut exports = Vec::new();
    let mut reports = Vec::new();
    for threads in [1usize, 4] {
        set_max_threads(threads);
        obs::set_enabled(true);
        obs::reset();
        let _ = ag_ts.group(&data, &[]);
        let _ = ag_tr.group(&data, &[]);
        let report = obs::snapshot();
        obs::set_enabled(false);
        exports.push(report.deterministic_json());
        reports.push(report);
    }
    set_max_threads(0);
    assert_eq!(
        exports[0], exports[1],
        "deterministic export must not depend on the worker count"
    );

    // Each signal was responsible for every pair, kept some as
    // candidates and skipped the rest, and its decision edges are among
    // its candidates.
    let report = &reports[0];
    let total = (40 * 39 / 2) as u64;
    let mut candidates = 0;
    for signal in ["ag_ts", "ag_tr"] {
        let cand = counter(report, &format!("grouping.{signal}.pairs.candidate"));
        assert_eq!(
            counter(report, &format!("grouping.{signal}.pairs.total")),
            total
        );
        assert!(
            cand > 0 && cand < total,
            "{signal} blocking must keep some pairs and skip some ({cand} of {total})"
        );
        assert_eq!(
            counter(
                report,
                &format!("grouping.{signal}.pairs.skipped_by_blocking")
            ),
            total - cand
        );
        assert!(counter(report, &format!("{signal}.edges")) <= cand);
        candidates += cand;
    }
    assert!(
        counter(report, "ag_tr.edges") > 0,
        "the cliques' walks link"
    );
    // The unsuffixed counters aggregate both signals.
    assert_eq!(counter(report, "grouping.pairs.total"), 2 * total);
    assert_eq!(counter(report, "grouping.pairs.candidate"), candidates);
    assert_eq!(
        counter(report, "grouping.pairs.skipped_by_blocking"),
        2 * total - candidates
    );

    // Bucket gauges (wall-clock-free facts, but gauges are last-write so
    // they live outside the deterministic export): AG-TR files each of
    // the 40 active accounts under one cell, AG-TS each under at least
    // one pair key.
    let tr_buckets = gauge(report, "grouping.ag_tr.buckets");
    assert!((1.0..=40.0).contains(&tr_buckets), "{tr_buckets}");
    assert!(gauge(report, "grouping.ag_ts.buckets") >= 1.0);

    // This is the golden shape downstream tooling parses.
    for name in [
        "grouping.pairs.total",
        "grouping.pairs.candidate",
        "grouping.pairs.skipped_by_blocking",
        "grouping.ag_ts.pairs.candidate",
        "grouping.ag_tr.pairs.candidate",
    ] {
        assert!(
            exports[0].contains(name),
            "deterministic export must name `{name}`"
        );
    }
}
