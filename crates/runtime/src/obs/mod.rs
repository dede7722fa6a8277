//! Zero-dependency observability: metrics, spans and structured events.
//!
//! Every pipeline stage of the workspace — feature extraction, FFT,
//! k-means/elbow, DTW matrices, account grouping, the Algorithm 2
//! weight/truth loop, platform auditing — reports into one process-wide
//! registry defined here. The subsystem is **inert by default**: all
//! entry points check [`enabled`] first (a single relaxed atomic load),
//! so instrumented code costs nothing measurable until observability is
//! switched on with `SRTD_OBS=1` or [`set_enabled`].
//!
//! Three kinds of telemetry are collected:
//!
//! * **metrics** — named [counters](counter_add), [gauges](gauge_set)
//!   and fixed-bucket [histograms](observe),
//! * **spans** — RAII wall-clock timers ([`span()`]) aggregated per name
//!   (count / total / min / max ns); guards nest freely and may be
//!   dropped from `parallel_map` worker threads,
//! * **events** — one-shot structured records ([`event`]) such as a
//!   per-iteration convergence delta or the elbow-chosen `k`.
//!
//! [`snapshot`] captures everything as a [`Report`] that renders as a
//! human table ([`Report::render_table`]) or JSON
//! ([`Report::to_json`](crate::json::ToJson::to_json), parseable back by
//! [`crate::json::parse`]). [`export_json_if_requested`] honours the
//! `SRTD_OBS_JSON=<path>` environment contract.
//!
//! Determinism: counter totals, histogram bucket counts and event
//! payloads depend only on the work performed, never on the worker-thread
//! count; [`Report::deterministic_json`] exports exactly that subset, and
//! the runtime test-suite pins it byte-identical across 1- and 4-thread
//! runs. Span durations and gauges are wall-clock facts and are excluded.
//!
//! # Well-known metric names
//!
//! Instrumented crates register under dotted prefixes; the DTW family in
//! particular follows a fixed vocabulary that downstream golden-file
//! tests pin:
//!
//! * `timeseries.dtw.calls` / `timeseries.dtw.bounded_calls` — dynamic
//!   programs started (plain / upper-bounded),
//! * `timeseries.dtw.cells` — DP cells actually visited (banded and
//!   early-abandoned runs visit fewer),
//! * `timeseries.dtw.early_abandoned` — bounded DPs that abandoned
//!   mid-way,
//! * `timeseries.dtw.lb_kim_pruned` / `timeseries.dtw.lb_keogh_pruned` /
//!   `timeseries.dtw.pair_early_abandoned` / `timeseries.dtw.full_evals`
//!   — the pruned-pairwise cascade's per-pair outcome partition (the
//!   four always sum to the pair count of the matrices built).
//!
//! # Examples
//!
//! ```
//! use srtd_runtime::obs;
//!
//! obs::set_enabled(true);
//! obs::reset();
//! {
//!     let _timer = obs::span("example.stage");
//!     obs::counter_add("example.items", 3);
//! }
//! let report = obs::snapshot();
//! assert_eq!(report.counters, vec![("example.items".to_string(), 3)]);
//! assert_eq!(report.spans[0].name, "example.stage");
//! obs::set_enabled(false);
//! ```

mod history;
pub mod prom;
mod report;
mod span;
mod store;

pub use history::{TraceNode, WindowRecord};
pub use report::{EventSnapshot, HistogramSnapshot, Report, SpanSnapshot};
pub use span::{Span, TraceSuppressGuard};

use crate::json::Json;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Tri-state switch: unset (consult `SRTD_OBS` once), off, on.
static ENABLED: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// Returns `true` when telemetry is being collected.
///
/// The first call resolves the `SRTD_OBS` environment variable (any
/// non-empty value other than `0` enables collection); [`set_enabled`]
/// overrides the environment in both directions.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = std::env::var_os("SRTD_OBS").is_some_and(|v| !v.is_empty() && v != *"0");
            ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Turns collection on or off programmatically (e.g. the CLI `--obs`
/// flag), overriding the `SRTD_OBS` environment variable.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Discards every collected metric, span and event (the on/off state is
/// untouched). Tests use this to isolate runs against the process-wide
/// registry.
pub fn reset() {
    store::with(|s| *s = store::Store::default());
}

/// Adds `delta` to the named monotonic counter.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    store::with(|s| *s.counters.entry(name.to_string()).or_insert(0) += delta);
}

/// Sets the named gauge to `value` (last write wins).
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    store::with(|s| {
        s.gauges.insert(name.to_string(), value);
    });
}

/// Records `value` into the named fixed-bucket histogram (1–2–5 decade
/// buckets from 1 to 5·10⁹, plus an overflow bucket).
pub fn observe(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    store::with(|s| {
        s.histograms
            .entry(name.to_string())
            .or_default()
            .record(value)
    });
}

/// Starts a wall-clock span; the elapsed time is recorded under `name`
/// when the returned guard drops. A no-op (no clock read) while
/// collection is disabled.
pub fn span(name: &'static str) -> Span {
    Span::start(name)
}

/// Suppresses trace-tree recording on the current thread until the
/// returned guard drops (flat span aggregates still record).
///
/// `parallel_map` wraps its inline path (one worker, or a nested or
/// concurrent region that finds the pool busy) and its pool jobs in
/// this, so spans inside item closures stay out of the window's trace
/// tree on either path and at every worker count alike.
pub fn suppress_trace() -> TraceSuppressGuard {
    TraceSuppressGuard::new()
}

/// Appends a structured one-shot event.
///
/// Field order is preserved in the export. Events should only be emitted
/// from deterministic (single-threaded) pipeline stages — worker threads
/// use counters/histograms instead — so the event log is reproducible.
pub fn event<'a>(name: &str, fields: impl IntoIterator<Item = (&'a str, Json)>) {
    if !enabled() {
        return;
    }
    let fields: Vec<(String, Json)> = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    store::with(|s| {
        s.events.push(store::Event {
            name: name.to_string(),
            fields,
        })
    });
}

/// Captures the current contents of the registry. Its events are those of
/// the windows [`history()`] retains and of the open window, in emission
/// order; an evicted window's events are gone with it.
pub fn snapshot() -> Report {
    store::with(|s| Report::from_store(s))
}

/// Ring-buffer capacity for completed windows: 0 = unresolved (consult
/// `SRTD_OBS_HISTORY` on first use, default 64).
static HISTORY_CAPACITY: AtomicUsize = AtomicUsize::new(0);

const DEFAULT_HISTORY_CAPACITY: usize = 64;

fn history_capacity() -> usize {
    match HISTORY_CAPACITY.load(Ordering::Relaxed) {
        0 => {
            let n = std::env::var("SRTD_OBS_HISTORY")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_HISTORY_CAPACITY);
            HISTORY_CAPACITY.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Sets how many completed windows [`history()`] retains (clamped to ≥ 1),
/// overriding the `SRTD_OBS_HISTORY` environment variable. Passing 0
/// resets to the environment/default resolution. Shrinking takes effect
/// at the next [`window_end`].
pub fn set_history_capacity(n: usize) {
    HISTORY_CAPACITY.store(n, Ordering::Relaxed);
}

/// Opens a telemetry window on the current thread: trace-tree collection
/// starts for spans dropped on this thread, and the next [`window_end`]
/// will close it. A window already open is discarded and replaced (its
/// trace is lost; counters are safe — deltas are computed against the
/// previous *completed* window, not against `window_begin`). A no-op
/// while collection is disabled.
pub fn window_begin() {
    if !enabled() {
        return;
    }
    let opener = std::thread::current().id();
    store::with(|s| {
        s.window.open = Some(store::OpenWindow {
            opener,
            trace: store::TraceBuild::default(),
        });
    });
}

/// Closes the open window: computes the delta [`Report`] against the
/// previous window boundary (counters, histogram buckets, events; gauges
/// report their current value; flat span aggregates are replaced by the
/// trace tree), advances the boundary, and retains the record in the
/// history ring buffer. Returns `None` when no window is open (including
/// whenever collection is disabled).
pub fn window_end(label: &str) -> Option<WindowRecord> {
    if !enabled() {
        return None;
    }
    let capacity = history_capacity();
    store::with(|s| history::end_window(s, label, capacity))
}

/// Returns the last `n` completed windows, oldest first (fewer when the
/// ring holds fewer).
pub fn history(n: usize) -> Vec<WindowRecord> {
    store::with(|s| {
        let len = s.window.history.len();
        s.window
            .history
            .iter()
            .skip(len.saturating_sub(n))
            .cloned()
            .collect()
    })
}

/// Returns the most recently completed window, if any.
pub fn latest_window() -> Option<WindowRecord> {
    store::with(|s| s.window.history.back().cloned())
}

/// Writes the current [`snapshot`] as JSON to the path named by the
/// `SRTD_OBS_JSON` environment variable, if set. Since the timeline
/// landed, the export also carries a `history` array of the retained
/// windows ([`WindowRecord`] JSON), so offline runs get the same
/// timeline the server serves at `/metrics/history`.
///
/// Returns the path written to, or `None` when the variable is unset.
/// Collection does not need to be [`enabled`] — an empty report is still
/// valid JSON — but callers normally invoke this once, after an
/// instrumented run.
pub fn export_json_if_requested() -> std::io::Result<Option<std::path::PathBuf>> {
    let Some(path) = std::env::var_os("SRTD_OBS_JSON") else {
        return Ok(None);
    };
    let path = std::path::PathBuf::from(path);
    let (report, windows) = store::with(|s| {
        (
            Report::from_store(s),
            s.window.history.iter().cloned().collect::<Vec<_>>(),
        )
    });
    let Json::Obj(mut fields) = crate::json::ToJson::to_json(&report) else {
        unreachable!("a report always renders as a JSON object");
    };
    fields.push((
        "history".to_string(),
        Json::arr(windows.iter().map(crate::json::ToJson::to_json)),
    ));
    std::fs::write(&path, Json::Obj(fields).render())?;
    Ok(Some(path))
}

pub(crate) mod internal {
    //! Hook for the span guard: direct store access on drop.
    pub(crate) use super::store::with;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;
    use std::sync::Mutex;

    /// Serializes tests that toggle the process-wide registry.
    pub(super) static OBS_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        OBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_collection_is_inert() {
        let _g = guard();
        set_enabled(false);
        reset();
        counter_add("c", 1);
        gauge_set("g", 2.0);
        observe("h", 3.0);
        event("e", [("k", Json::Num(1.0))]);
        drop(span("s"));
        let r = snapshot();
        assert!(r.counters.is_empty());
        assert!(r.gauges.is_empty());
        assert!(r.histograms.is_empty());
        assert!(r.spans.is_empty());
        assert!(r.events.is_empty());
    }

    #[test]
    fn counters_gauges_histograms_events_round_trip() {
        let _g = guard();
        set_enabled(true);
        reset();
        counter_add("pipeline.items", 2);
        counter_add("pipeline.items", 3);
        gauge_set("pipeline.workers", 4.0);
        gauge_set("pipeline.workers", 8.0);
        observe("pipeline.len", 3.0);
        observe("pipeline.len", 70.0);
        event(
            "pipeline.done",
            [("k", 3usize.to_json()), ("ok", true.to_json())],
        );
        let r = snapshot();
        set_enabled(false);
        assert_eq!(r.counters, vec![("pipeline.items".to_string(), 5)]);
        assert_eq!(r.gauges, vec![("pipeline.workers".to_string(), 8.0)]);
        assert_eq!(r.histograms.len(), 1);
        assert_eq!(r.histograms[0].count, 2);
        assert_eq!(r.histograms[0].sum, 73.0);
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].name, "pipeline.done");
        assert_eq!(r.events[0].fields[0].0, "k");
    }

    #[test]
    fn spans_aggregate_per_name_and_nest() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _outer = span("outer");
            for _ in 0..3 {
                let _inner = span("inner");
            }
        }
        let r = snapshot();
        set_enabled(false);
        let inner = r.spans.iter().find(|s| s.name == "inner").expect("inner");
        let outer = r.spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(inner.count, 3);
        assert_eq!(outer.count, 1);
        assert!(inner.min_ns <= inner.max_ns);
        assert!(outer.total_ns >= inner.total_ns);
    }

    #[test]
    fn spans_record_from_worker_threads() {
        let _g = guard();
        set_enabled(true);
        reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| drop(span("worker")));
            }
        });
        let r = snapshot();
        set_enabled(false);
        assert_eq!(
            r.spans.iter().find(|s| s.name == "worker").unwrap().count,
            4
        );
    }

    #[test]
    fn windows_capture_deltas_trace_trees_and_evict() {
        let _g = guard();
        set_enabled(true);
        reset();
        set_history_capacity(2);
        // Emitted before any window: charged to window 1's delta, since
        // deltas are taken against the previous *completed* boundary.
        counter_add("w.pre", 5);
        window_begin();
        {
            let _outer = span("stage.outer");
            let _inner = span("stage.inner");
        }
        counter_add("w.items", 2);
        let w1 = window_end("first").expect("window 1");
        assert_eq!(w1.index, 1);
        assert_eq!(w1.label, "first");
        assert_eq!(
            w1.report.counters,
            vec![("w.items".to_string(), 2), ("w.pre".to_string(), 5)]
        );
        assert_eq!(w1.stage_names(), vec!["stage.outer", "stage.inner"]);
        assert_eq!(w1.trace[0].children[0].count, 1);

        window_begin();
        counter_add("w.items", 3);
        let w2 = window_end("second").expect("window 2");
        assert_eq!(w2.report.counters, vec![("w.items".to_string(), 3)]);

        // Empty window: no deltas, no stages.
        window_begin();
        let w3 = window_end("third").expect("window 3");
        assert!(w3.report.counters.is_empty());
        assert!(w3.trace.is_empty());

        // Window deltas tile the timeline: per-window counts sum to the
        // cumulative registry value.
        let total: u64 = history(10)
            .iter()
            .chain([&w1])
            .flat_map(|w| &w.report.counters)
            .filter(|(name, _)| name == "w.items")
            .map(|(_, v)| *v)
            .sum();
        let cumulative = snapshot()
            .counters
            .iter()
            .find(|(name, _)| name == "w.items")
            .map(|(_, v)| *v);
        assert_eq!(Some(total), cumulative);

        // Capacity 2: window 1 was evicted from the ring.
        let retained = history(10);
        assert_eq!(
            retained.iter().map(|w| w.index).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(history(1).len(), 1);
        assert_eq!(latest_window().expect("latest").index, 3);
        assert!(window_end("no window open").is_none());

        set_history_capacity(0);
        set_enabled(false);
    }

    #[test]
    fn suppressed_and_worker_thread_spans_stay_out_of_trace() {
        let _g = guard();
        set_enabled(true);
        reset();
        window_begin();
        drop(span("kept"));
        {
            let _hide = suppress_trace();
            drop(span("hidden"));
        }
        std::thread::scope(|scope| {
            scope.spawn(|| drop(span("worker")));
        });
        let w = window_end("w").expect("window");
        assert_eq!(w.stage_names(), vec!["kept"]);
        // Flat aggregates still record every span.
        let r = snapshot();
        set_enabled(false);
        for name in ["kept", "hidden", "worker"] {
            assert!(
                r.spans.iter().any(|s| s.name == name),
                "flat aggregate for {name} missing"
            );
        }
    }

    #[test]
    fn snapshot_json_parses_back() {
        let _g = guard();
        set_enabled(true);
        reset();
        counter_add("a", 1);
        observe("h", 42.0);
        event("e", [("x", Json::str("y"))]);
        drop(span("s"));
        let rendered = snapshot().to_json().render();
        set_enabled(false);
        let parsed = crate::json::parse(&rendered).expect("valid JSON");
        let Json::Obj(fields) = parsed else {
            panic!("report must be an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["counters", "gauges", "histograms", "spans", "events"]
        );
    }
}
