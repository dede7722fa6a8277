//! Golden tests for the epoch telemetry timeline: per-epoch delta
//! exports must be byte-identical across worker-thread counts, window
//! deltas must tile to the cumulative counters, the ring buffer must
//! evict oldest-first and take the evicted windows' events out of the
//! event log, and empty windows must export cleanly.
//!
//! The obs registry is process-wide, so every test serializes on one
//! lock and resets the registry before running.

use std::sync::Mutex;

use sybil_td::core::{SingletonGrouping, SybilResistantTd};
use sybil_td::platform::{EpochConfig, EpochEngine};
use sybil_td::runtime::obs;
use sybil_td::runtime::parallel::set_max_threads;

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const TASKS: usize = 8;

/// Drives a 3-epoch lifecycle: a large cold batch, a small incremental
/// batch, then a steady-state empty epoch.
fn drive_three_epochs() -> Vec<obs::WindowRecord> {
    let mut engine = EpochEngine::new(
        SybilResistantTd::new(SingletonGrouping),
        TASKS,
        EpochConfig::default(),
    );
    let mut windows = Vec::new();
    for a in 0..5usize {
        for t in 0..4usize {
            engine
                .ingest(a, t, -70.0 + a as f64 + t as f64, (a * 10 + t) as f64)
                .expect("valid report");
        }
    }
    engine.run_epoch();
    windows.push(obs::latest_window().expect("epoch 1 window"));
    engine.ingest(5, 4, -68.0, 60.0).expect("valid report");
    engine.run_epoch();
    windows.push(obs::latest_window().expect("epoch 2 window"));
    engine.run_epoch();
    windows.push(obs::latest_window().expect("epoch 3 window"));
    windows
}

#[test]
fn per_epoch_deltas_are_byte_identical_across_thread_counts() {
    let _g = guard();
    let mut exports: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, 4] {
        set_max_threads(threads);
        obs::set_enabled(true);
        obs::reset();
        let windows = drive_three_epochs();
        obs::set_enabled(false);
        assert_eq!(windows.len(), 3);
        exports.push(
            windows
                .iter()
                .map(obs::WindowRecord::deterministic_json)
                .collect(),
        );
    }
    set_max_threads(0);
    assert_eq!(
        exports[0], exports[1],
        "per-window deterministic exports must not depend on the worker count"
    );
    for (i, export) in exports[0].iter().enumerate() {
        assert!(
            export.contains(&format!("\"label\":\"epoch-{}\"", i + 1)),
            "window {i} mislabelled:\n{export}"
        );
    }
}

#[test]
fn window_deltas_tile_to_the_cumulative_counters() {
    let _g = guard();
    obs::set_enabled(true);
    obs::reset();
    let windows = drive_three_epochs();
    let cumulative = obs::snapshot();
    obs::set_enabled(false);

    // Epoch attribution: the big batch folds in window 1, the increment
    // in window 2, the steady-state epoch folds nothing.
    let folded = |w: &obs::WindowRecord| {
        w.report
            .counters
            .iter()
            .find(|(n, _)| n == "server.epoch.folded")
            .map_or(0, |(_, v)| *v)
    };
    assert_eq!(folded(&windows[0]), 20);
    assert_eq!(folded(&windows[1]), 1);
    assert_eq!(folded(&windows[2]), 0);

    // Every cumulative counter equals the sum of its window deltas:
    // consecutive windows tile the timeline with no gaps or overlaps.
    for (name, total) in &cumulative.counters {
        let delta_sum: u64 = windows
            .iter()
            .flat_map(|w| &w.report.counters)
            .filter(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(
            delta_sum, *total,
            "`{name}`: window deltas must sum to the cumulative value"
        );
    }

    // The trace tree of every epoch attributes the pipeline stages under
    // the epoch span, with the framework's own spans nested below the
    // discover stage.
    for w in &windows {
        let stages = w.stage_names();
        for stage in [
            "server.epoch",
            "epoch.discover",
            "epoch.fold",
            "epoch.regroup",
            "epoch.swap",
        ] {
            assert!(
                stages.contains(&stage),
                "window {} trace is missing `{stage}`: {stages:?}",
                w.index
            );
        }
        let root = &w.trace[0];
        assert_eq!(root.name, "server.epoch");
        assert_eq!(root.count, 1, "one epoch span per window");
        let discover = root
            .children
            .iter()
            .find(|c| c.name == "epoch.discover")
            .expect("discover stage");
        assert_eq!(discover.count, 1, "each stage runs once per epoch");
        assert!(
            discover
                .children
                .iter()
                .any(|c| c.name == "framework.discover"),
            "framework spans must nest under the discover stage: {:?}",
            discover.children
        );
    }
}

#[test]
fn ring_buffer_evicts_oldest_and_capacity_one_keeps_latest() {
    let _g = guard();
    obs::set_enabled(true);
    obs::reset();
    obs::set_history_capacity(2);
    let windows = drive_three_epochs();
    let retained = obs::history(usize::MAX);
    assert_eq!(
        retained.iter().map(|w| w.index).collect::<Vec<_>>(),
        vec![2, 3],
        "capacity 2 must evict the oldest window"
    );
    assert_eq!(obs::history(1).len(), 1);
    assert_eq!(obs::history(1)[0].index, 3);
    // Eviction drops retention, not the record handed back at the time.
    assert_eq!(windows[0].index, 1);

    obs::set_history_capacity(1);
    obs::window_begin();
    obs::window_end("only");
    let retained = obs::history(usize::MAX);
    obs::set_history_capacity(0);
    obs::set_enabled(false);
    assert_eq!(retained.len(), 1);
    assert_eq!(retained[0].label, "only");
}

#[test]
fn evicted_windows_take_their_events_out_of_the_log() {
    let _g = guard();
    obs::set_enabled(true);
    obs::reset();
    obs::set_history_capacity(3);
    let mut engine = EpochEngine::new(
        SybilResistantTd::new(SingletonGrouping),
        TASKS,
        EpochConfig::default(),
    );
    for epoch in 0..10usize {
        for a in 0..3usize {
            let (account, task) = (a + 3 * epoch, epoch % TASKS);
            engine
                .ingest(account, task, -70.0 + a as f64, epoch as f64)
                .expect("valid report");
        }
        engine.run_epoch();
    }
    obs::event("after.the.last.window", []);
    let retained = obs::history(usize::MAX);
    let log = obs::snapshot().events;
    obs::set_history_capacity(0);
    obs::set_enabled(false);

    assert_eq!(
        retained.iter().map(|w| w.index).collect::<Vec<_>>(),
        vec![8, 9, 10]
    );
    assert!(
        retained.iter().all(|w| !w.report.events.is_empty()),
        "every epoch emits events"
    );
    // The log is the retained windows' events, then the open window's.
    let mut expected: Vec<_> = retained
        .iter()
        .flat_map(|w| w.report.events.iter().cloned())
        .collect();
    assert_eq!(
        log.len(),
        expected.len() + 1,
        "evicted events stay in the log"
    );
    assert_eq!(
        log.last().map(|e| e.name.as_str()),
        Some("after.the.last.window")
    );
    expected.extend(log.last().cloned());
    assert_eq!(log, expected);
}

#[test]
fn empty_windows_export_cleanly() {
    let _g = guard();
    obs::set_enabled(true);
    obs::reset();
    assert!(
        obs::window_end("never opened").is_none(),
        "ending without a begin is a no-op"
    );
    obs::window_begin();
    let w = obs::window_end("idle").expect("open window must close");
    obs::set_enabled(false);
    assert!(w.report.counters.is_empty());
    assert!(w.report.histograms.is_empty());
    assert!(w.report.events.is_empty());
    assert!(w.trace.is_empty());
    let det = w.deterministic_json();
    assert_eq!(
        det,
        r#"{"window":1,"label":"idle","counters":{},"histograms":{},"events":[],"trace":[]}"#
    );
}
