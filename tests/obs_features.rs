//! Golden export for the fused feature-extraction counters: one batched
//! Table-II extraction must surface the `signal.features.fused_calls`,
//! `signal.window.cache_*` and `signal.spectral.peak_pairs` counters,
//! their deterministic JSON export must be byte-identical across
//! worker-thread counts, and a never-seen frame length must record a
//! window-cache miss.
//!
//! This file holds a single test on purpose: the obs registry is
//! process-wide, and a second concurrently running test would bleed
//! metrics into the snapshot.

use sybil_td::runtime::obs;
use sybil_td::runtime::parallel::set_max_threads;
use sybil_td::signal::stream_features_batch;

/// Two well-separated tones and no DC offset, so every stream has at
/// least two spectral peaks and the roughness pair counter must fire.
fn two_tone_streams(count: usize, n: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|s| {
            (0..n)
                .map(|i| {
                    let t = i as f64 / n as f64;
                    (2.0 * std::f64::consts::PI * (8.0 + s as f64) * t).sin()
                        + 0.8 * (2.0 * std::f64::consts::PI * 40.0 * t).sin()
                })
                .collect()
        })
        .collect()
}

fn counter(report: &obs::Report, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn fused_feature_counters_export_deterministically() {
    let streams = two_tone_streams(4, 512);

    // Warm the process-wide window-coefficient cache first: the one miss
    // per (window, length) key lands here instead of inside the first
    // comparative run, so both instrumented runs see an identical
    // hits-only cache and their exports can match byte for byte.
    let _ = stream_features_batch(&streams, 100.0);

    let mut exports = Vec::new();
    let mut reports = Vec::new();
    for threads in [1usize, 4] {
        set_max_threads(threads);
        obs::set_enabled(true);
        obs::reset();
        let _ = stream_features_batch(&streams, 100.0);
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

    // One fused extraction per stream; every windowing hit the warm
    // cache; two peaks per stream means one Plomp–Levelt pair each.
    let report = &reports[0];
    assert_eq!(counter(report, "signal.features.fused_calls"), 4);
    assert_eq!(counter(report, "signal.window.cache_hits"), 4);
    assert_eq!(counter(report, "signal.window.cache_misses"), 0);
    assert!(
        counter(report, "signal.spectral.peak_pairs") > 0,
        "two-tone streams must produce roughness peak pairs"
    );
    for name in [
        "signal.features.fused_calls",
        "signal.window.cache_hits",
        "signal.spectral.peak_pairs",
    ] {
        assert!(
            exports[0].contains(name),
            "deterministic export must name `{name}`"
        );
    }

    // A frame length the cache has never seen must record a miss (and
    // exactly one: the second extraction of the same length hits).
    obs::set_enabled(true);
    obs::reset();
    let fresh = two_tone_streams(2, 300);
    let _ = stream_features_batch(&fresh, 100.0);
    let report = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(counter(&report, "signal.window.cache_misses"), 1);
    assert_eq!(counter(&report, "signal.window.cache_hits"), 1);
}
