//! The process-wide telemetry store behind the `obs` entry points.

use super::history::WindowRecord;
use crate::json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, OnceLock};

/// Histogram bucket upper bounds: 1–2–5 per decade from 1 to 5·10⁹.
/// Values above the last bound land in the overflow bucket.
pub(crate) const BUCKET_BOUNDS: [f64; 30] = [
    1.0, 2.0, 5.0, 1e1, 2e1, 5e1, 1e2, 2e2, 5e2, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6,
    2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8, 1e9, 2e9, 5e9,
];

/// A fixed-bucket histogram (see [`BUCKET_BOUNDS`]).
#[derive(Debug, Clone)]
pub(crate) struct Histogram {
    /// One count per bound, plus one overflow slot at the end.
    pub(crate) buckets: [u64; BUCKET_BOUNDS.len() + 1],
    pub(crate) count: u64,
    pub(crate) sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKET_BOUNDS.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }
}

impl Histogram {
    pub(crate) fn record(&mut self, value: f64) {
        let slot = BUCKET_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.buckets[slot] += 1;
        self.count += 1;
        self.sum += value;
    }
}

/// Aggregated wall-clock statistics of one span name.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanStats {
    pub(crate) count: u64,
    pub(crate) total_ns: u64,
    pub(crate) min_ns: u64,
    pub(crate) max_ns: u64,
}

impl SpanStats {
    pub(crate) fn record(&mut self, elapsed_ns: u64) {
        if self.count == 0 || elapsed_ns < self.min_ns {
            self.min_ns = elapsed_ns;
        }
        if elapsed_ns > self.max_ns {
            self.max_ns = elapsed_ns;
        }
        self.count += 1;
        self.total_ns += elapsed_ns;
    }
}

/// One structured event record.
#[derive(Debug, Clone)]
pub(crate) struct Event {
    pub(crate) name: String,
    pub(crate) fields: Vec<(String, Json)>,
}

/// One node of a trace tree while its window is still open. Children are
/// keyed (and therefore exported) by name, so the structure depends only
/// on which stages ran — never on emission interleaving.
#[derive(Debug, Default)]
pub(crate) struct TraceBuild {
    pub(crate) count: u64,
    pub(crate) total_ns: u64,
    pub(crate) children: BTreeMap<&'static str, TraceBuild>,
}

/// The currently-open telemetry window: trace collection is scoped to the
/// thread that opened it (worker-thread spans stay out of the tree, which
/// is what keeps node structure and counts worker-count-independent).
#[derive(Debug)]
pub(crate) struct OpenWindow {
    pub(crate) opener: std::thread::ThreadId,
    /// Root container; its children are the window's top-level stages.
    pub(crate) trace: TraceBuild,
}

/// Window bookkeeping: the baseline the next delta is computed against
/// (the registry state at the previous `window_end`, or empty after a
/// reset), the open window if any, and the bounded ring of completed
/// windows.
#[derive(Debug, Default)]
pub(crate) struct WindowState {
    pub(crate) base_counters: BTreeMap<String, u64>,
    pub(crate) base_histograms: BTreeMap<String, Histogram>,
    pub(crate) base_events: usize,
    pub(crate) open: Option<OpenWindow>,
    pub(crate) history: VecDeque<WindowRecord>,
    /// Windows completed so far; doubles as the 1-based window index.
    pub(crate) ended: u64,
}

/// Everything collected so far. `BTreeMap` keys give the exports a
/// deterministic (sorted) order regardless of emission interleaving.
#[derive(Debug, Default)]
pub(crate) struct Store {
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub(crate) histograms: BTreeMap<String, Histogram>,
    pub(crate) spans: BTreeMap<&'static str, SpanStats>,
    /// Events in emission order, from the oldest retained window's on
    /// (an evicted window's events leave with it).
    pub(crate) events: Vec<Event>,
    pub(crate) window: WindowState,
}

static STORE: OnceLock<Mutex<Store>> = OnceLock::new();

/// Runs `f` with the store locked.
pub(crate) fn with<R>(f: impl FnOnce(&mut Store) -> R) -> R {
    let mut guard = STORE
        .get_or_init(|| Mutex::new(Store::default()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    f(&mut guard)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_decades_and_overflow() {
        let mut h = Histogram::default();
        h.record(0.5); // <= 1 -> bucket 0
        h.record(1.0); // boundary inclusive -> bucket 0
        h.record(3.0); // bucket for bound 5
        h.record(1e12); // overflow
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[BUCKET_BOUNDS.len()], 1);
    }

    #[test]
    fn span_stats_track_min_max_total() {
        let mut s = SpanStats::default();
        s.record(10);
        s.record(4);
        s.record(7);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 21);
        assert_eq!(s.min_ns, 4);
        assert_eq!(s.max_ns, 10);
    }
}
