//! Golden export for the DTW pruning counters: one pruned pairwise run
//! over every pair of AG-TR's trajectories must surface the
//! `timeseries.dtw.*` cascade
//! counters, their deterministic JSON export must be byte-identical across
//! worker-thread counts, the prune rate must be positive on a φ-sparse
//! campaign, and exactly zero when the cutoff is ∞.
//!
//! This file holds a single test on purpose: the obs registry is
//! process-wide, and a second concurrently running test would bleed
//! metrics into the snapshot.

use sybil_td::core::AgTr;
use sybil_td::runtime::obs;
use sybil_td::runtime::parallel::{set_max_threads, triangle_pairs};
use sybil_td::timeseries::PrunedPairwise;
use sybil_td::truth::SensingData;

/// 40 accounts (780 pairs — past the engine's sequential gate) spread far
/// apart in both task index and time, so `φ = 1` prunes heavily.
fn sparse_campaign() -> SensingData {
    let mut data = SensingData::new(200);
    for a in 0..40usize {
        for k in 0..5usize {
            let t = (a * 5 + k) % 200;
            data.add_report(a, t, -60.0, (a * 900 + k * 60) as f64);
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

#[test]
fn pruning_counters_export_deterministically_and_track_the_cascade() {
    let data = sparse_campaign();
    let ag = AgTr::default();

    // Reference stats from the engine itself (outside instrumentation).
    let trajectories = ag.trajectories(&data);
    let pairs = triangle_pairs(trajectories.len());
    let engine = PrunedPairwise::new(ag.phi());
    let (_, stats) = engine.edges2_with_stats(&trajectories, &pairs);
    assert_eq!(stats.pairs, 40 * 39 / 2);

    // One instrumented pruned run per thread count; the deterministic
    // export (counters, histograms, events — no wall-clock) must be
    // byte-identical, and this is the golden shape downstream tooling
    // parses.
    let mut exports = Vec::new();
    let mut reports = Vec::new();
    for threads in [1usize, 4] {
        set_max_threads(threads);
        obs::set_enabled(true);
        obs::reset();
        let _ = engine.edges2_with_stats(&trajectories, &pairs);
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

    // The exported counters mirror the engine's own stats exactly.
    let report = &reports[0];
    assert_eq!(
        counter(report, "timeseries.dtw.lb_kim_pruned"),
        stats.lb_kim_pruned
    );
    assert_eq!(
        counter(report, "timeseries.dtw.lb_keogh_pruned"),
        stats.lb_keogh_pruned
    );
    assert_eq!(
        counter(report, "timeseries.dtw.pair_early_abandoned"),
        stats.early_abandoned
    );
    assert_eq!(
        counter(report, "timeseries.dtw.full_evals"),
        stats.full_evals
    );
    for name in [
        "timeseries.dtw.lb_kim_pruned",
        "timeseries.dtw.lb_keogh_pruned",
        "timeseries.dtw.pair_early_abandoned",
        "timeseries.dtw.full_evals",
    ] {
        assert!(
            exports[0].contains(name),
            "deterministic export must name `{name}`"
        );
    }

    // φ-sparse campaign: the cascade must actually fire, and the four
    // outcomes partition the pair set.
    assert!(stats.lb_kim_pruned > 0, "{stats:?}");
    assert!(stats.prune_rate() > 0.0);
    assert_eq!(
        stats.pairs,
        stats.lb_kim_pruned + stats.lb_keogh_pruned + stats.early_abandoned + stats.full_evals
    );

    // φ = ∞ disables pruning: every pair runs the full dynamic program.
    let (_, unpruned) = PrunedPairwise::new(f64::INFINITY).edges2_with_stats(&trajectories, &pairs);
    assert_eq!(unpruned.lb_kim_pruned, 0);
    assert_eq!(unpruned.lb_keogh_pruned, 0);
    assert_eq!(unpruned.early_abandoned, 0);
    assert_eq!(unpruned.full_evals, unpruned.pairs);
    assert_eq!(unpruned.prune_rate(), 0.0);
}
