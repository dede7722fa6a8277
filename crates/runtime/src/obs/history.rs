//! The epoch-scoped telemetry timeline: windowed delta reports and
//! per-window trace trees.
//!
//! A *window* brackets one unit of service work (an epoch, a CLI seed
//! sweep iteration). [`super::window_begin`] opens trace collection;
//! [`super::window_end`] closes the window by computing a **delta
//! [`Report`]** against the registry state at the previous window end
//! (counter and histogram-bucket deltas, the events emitted since, the
//! current gauge values) and pushing the result into a bounded in-memory
//! ring buffer served by [`super::history()`]. A window evicted from the
//! ring takes its events out of the event log, so a long-running server's
//! log stays as bounded as its history.
//!
//! Because every delta is taken against the *previous* window boundary —
//! not against `window_begin` — consecutive windows tile the timeline
//! without gaps: summing the counter deltas of all retained windows
//! recovers the cumulative totals as of the last boundary. The golden
//! test suite pins exactly that identity.
//!
//! The trace tree upgrades [`super::span()`] guards into a hierarchy: a
//! thread-local parent stack gives each span its ancestry, and completed
//! spans on the window-opening thread are folded into a name-keyed tree.
//! Node structure and per-node counts depend only on which stages ran
//! (worker-thread spans and spans inside an inlined `parallel_map`
//! fallback are excluded symmetrically), so they are part of the
//! deterministic export; per-node wall-clock totals are not, exactly as
//! with flat spans today.

use super::report::{histograms_json, Report};
use super::store::{Store, TraceBuild};
use crate::json::{Json, ToJson};

/// One node of a completed window's trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    /// Span name of this stage.
    pub name: &'static str,
    /// Completed guards of this exact stage path within the window. An
    /// ancestor that never closed inside the window reports 0.
    pub count: u64,
    /// Total wall-clock nanoseconds across those guards (excluded from
    /// the deterministic export).
    pub total_ns: u64,
    /// Child stages, sorted by name.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    fn from_build(name: &'static str, build: &TraceBuild) -> Self {
        Self {
            name,
            count: build.count,
            total_ns: build.total_ns,
            children: build
                .children
                .iter()
                .map(|(&child, b)| TraceNode::from_build(child, b))
                .collect(),
        }
    }

    /// Full JSON (names, counts, wall-clock totals).
    fn node_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("count", self.count.to_json()),
            ("total_ns", self.total_ns.to_json()),
            (
                "children",
                Json::arr(self.children.iter().map(Self::node_json)),
            ),
        ])
    }

    /// Deterministic JSON (names and counts only — no wall clock).
    fn deterministic_node_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("count", self.count.to_json()),
            (
                "children",
                Json::arr(self.children.iter().map(Self::deterministic_node_json)),
            ),
        ])
    }

    /// Depth-first iteration over this node and every descendant's name.
    pub fn stage_names(&self) -> Vec<&'static str> {
        let mut out = vec![self.name];
        for child in &self.children {
            out.extend(child.stage_names());
        }
        out
    }
}

impl ToJson for TraceNode {
    fn to_json(&self) -> Json {
        self.node_json()
    }
}

/// One completed telemetry window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRecord {
    /// 1-based window index since the last [`super::reset`].
    pub index: u64,
    /// Caller-supplied label (e.g. `epoch-3`).
    pub label: String,
    /// The windowed delta: counters and histograms as deltas against the
    /// previous window boundary, events emitted within the window, the
    /// gauge values at the window end. Spans are empty — the [`Self::trace`]
    /// tree replaces the flat aggregates inside a window.
    pub report: Report,
    /// Top-level stages of the window's trace tree.
    pub trace: Vec<TraceNode>,
}

impl WindowRecord {
    /// JSON of the **deterministic** subset: counter/histogram deltas,
    /// events, and the trace tree's structure and counts. Byte-identical
    /// across runs and worker-thread counts for deterministic workloads.
    pub fn deterministic_json(&self) -> String {
        Json::obj([
            ("window", self.index.to_json()),
            ("label", Json::str(self.label.as_str())),
            ("counters", counters_json(&self.report.counters)),
            (
                "histograms",
                histograms_json(&self.report.histograms, false),
            ),
            ("events", super::report::events_json(&self.report.events)),
            (
                "trace",
                Json::arr(self.trace.iter().map(TraceNode::deterministic_node_json)),
            ),
        ])
        .render()
    }

    /// Every stage name in the trace tree, depth-first.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.trace.iter().flat_map(TraceNode::stage_names).collect()
    }
}

impl ToJson for WindowRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("window", self.index.to_json()),
            ("label", Json::str(self.label.as_str())),
            ("counters", counters_json(&self.report.counters)),
            (
                "gauges",
                Json::Obj(
                    self.report
                        .gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "histograms",
                histograms_json(&self.report.histograms, false),
            ),
            ("events", super::report::events_json(&self.report.events)),
            (
                "trace",
                Json::arr(self.trace.iter().map(TraceNode::node_json)),
            ),
        ])
    }
}

fn counters_json(counters: &[(String, u64)]) -> Json {
    Json::Obj(
        counters
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect(),
    )
}

/// Closes the open window against `store`, advancing the baseline to the
/// current registry state and pushing the record into the ring buffer
/// (evicting the oldest beyond `capacity`). An evicted window's events
/// leave the event log with it, so the log holds only the retained and
/// the open windows' events. Returns `None` when no window is open.
pub(super) fn end_window(store: &mut Store, label: &str, capacity: usize) -> Option<WindowRecord> {
    let open = store.window.open.take()?;

    let counters: Vec<(String, u64)> = store
        .counters
        .iter()
        .filter_map(|(k, &v)| {
            let base = store.window.base_counters.get(k).copied().unwrap_or(0);
            (v > base).then(|| (k.clone(), v - base))
        })
        .collect();
    let histograms = store
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let base = store.window.base_histograms.get(name);
            let delta_count = h.count - base.map_or(0, |b| b.count);
            if delta_count == 0 {
                return None;
            }
            let mut delta = super::store::Histogram {
                count: delta_count,
                sum: h.sum - base.map_or(0.0, |b| b.sum),
                ..Default::default()
            };
            for (slot, &c) in h.buckets.iter().enumerate() {
                delta.buckets[slot] = c - base.map_or(0, |b| b.buckets[slot]);
            }
            Some((name.clone(), delta))
        })
        .collect();
    let events = store.events[store.window.base_events..].to_vec();
    let gauges = store.gauges.clone();

    let delta_store = Store {
        counters: counters.into_iter().collect(),
        gauges,
        histograms,
        spans: Default::default(),
        events,
        window: Default::default(),
    };
    let report = Report::from_store(&delta_store);

    // Advance the baseline: the next window's deltas start here.
    store.window.base_counters = store.counters.clone();
    store.window.base_histograms = store.histograms.clone();
    store.window.base_events = store.events.len();
    store.window.ended += 1;

    let record = WindowRecord {
        index: store.window.ended,
        label: label.to_string(),
        report,
        trace: open
            .trace
            .children
            .iter()
            .map(|(&name, build)| TraceNode::from_build(name, build))
            .collect(),
    };
    store.window.history.push_back(record.clone());
    while store.window.history.len() > capacity.max(1) {
        let evicted = store.window.history.pop_front().expect("over capacity");
        // Every window's events follow the previous window's in the log,
        // so the oldest window's lead it.
        let held = evicted.report.events.len();
        store.events.drain(..held);
        store.window.base_events -= held;
    }
    Some(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &'static str, count: u64) -> TraceNode {
        TraceNode {
            name,
            count,
            total_ns: 500,
            children: Vec::new(),
        }
    }

    #[test]
    fn trace_json_shapes() {
        let node = TraceNode {
            name: "epoch",
            count: 1,
            total_ns: 1_000,
            children: vec![leaf("epoch.fold", 1), leaf("epoch.swap", 1)],
        };
        assert_eq!(
            node.to_json().render(),
            concat!(
                r#"{"name":"epoch","count":1,"total_ns":1000,"children":["#,
                r#"{"name":"epoch.fold","count":1,"total_ns":500,"children":[]},"#,
                r#"{"name":"epoch.swap","count":1,"total_ns":500,"children":[]}]}"#
            )
        );
        assert_eq!(
            node.deterministic_node_json().render(),
            concat!(
                r#"{"name":"epoch","count":1,"children":["#,
                r#"{"name":"epoch.fold","count":1,"children":[]},"#,
                r#"{"name":"epoch.swap","count":1,"children":[]}]}"#
            )
        );
        assert_eq!(
            node.stage_names(),
            vec!["epoch", "epoch.fold", "epoch.swap"]
        );
    }

    #[test]
    fn window_deterministic_json_excludes_gauges_and_wall_clock() {
        let record = WindowRecord {
            index: 2,
            label: "epoch-2".into(),
            report: Report {
                counters: vec![("c".into(), 3)],
                gauges: vec![("g".into(), 1.5)],
                histograms: vec![],
                spans: vec![],
                events: vec![],
            },
            trace: vec![leaf("stage", 1)],
        };
        let det = record.deterministic_json();
        assert!(det.contains(r#""window":2"#));
        assert!(det.contains(r#""label":"epoch-2""#));
        assert!(det.contains(r#""c":3"#));
        assert!(!det.contains("total_ns"));
        assert!(!det.contains("gauges"));
        let full = record.to_json().render();
        assert!(full.contains("total_ns"));
        assert!(full.contains(r#""g":1.5"#));
    }
}
