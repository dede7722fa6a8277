//! The in-process side: the same plan replayed through the library calls
//! `srtd-server` makes, with no HTTP.
//!
//! Every replay checks each epoch's snapshot against the server's
//! `POST /epoch` reply. A traced replay also records one span around each
//! public call, and drives a mirror of the engine's incremental epoch
//! from the public calls the engine makes internally, so each epoch's
//! time splits into fold, regroup, union-find and Algorithm 2. The mirror
//! must reproduce the engine's truths, labels and weights bit for bit, or
//! the split would be timing different work.

use crate::workload::{Method, Op, Plan, Step};
use srtd_core::{AgTr, AgTs, EdgeGrouping, Grouping, SingletonGrouping, SybilResistantTd};
use srtd_graph::UnionFind;
use srtd_platform::{EpochConfig, EpochEngine, EpochSnapshot, IngestError};
use srtd_runtime::json::{parse, Json, ToJson};
use srtd_runtime::obs;
use srtd_truth::{Report, SensingData};
use std::time::Instant;

/// `srtd-server`'s default `--shards`; the mirror drains in the same
/// order (shard = account mod this, ascending; arrival order within).
pub const SERVER_SHARDS: usize = 4;

/// A timed interval. `parent` indexes the enclosing span; `id` is the
/// request index (measured requests) or epoch number.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log; a disabled tracer records nothing.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn begin(&mut self, name: &'static str, id: usize, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes `span` and returns its duration in ns (0 when disabled).
    fn end(&mut self, span: Option<usize>) -> u64 {
        let Some(i) = span else { return 0 };
        let span = &mut self.spans[i];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.end_ns - span.start_ns
    }
}

/// Per measured request (originals and retries, plan order).
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestTrace {
    pub parse_ns: u64,
    pub ingest_ns: u64,
    pub reports: usize,
}

/// Per epoch, the engine's call and the mirror's stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochTrace {
    pub run_ns: u64,
    pub render_ns: u64,
    pub fold_ns: u64,
    pub regroup_ns: u64,
    pub union_find_ns: u64,
    pub discover_ns: u64,
    pub folded: usize,
    pub dirty: usize,
    pub fresh_edges: usize,
    pub candidates: u64,
    pub rebuilt: bool,
    pub iterations: usize,
    pub warm_started: bool,
    /// The whole mirror epoch, bookkeeping included.
    pub mirror_ns: u64,
}

pub struct Trace {
    pub requests: Vec<RequestTrace>,
    /// Measured epochs only (the set-up epoch is excluded).
    pub epochs: Vec<EpochTrace>,
    pub spans: Vec<Span>,
}

pub struct Replay {
    /// `(request, report index)` of every report rejected as a duplicate.
    pub duplicates: Vec<(usize, usize)>,
    pub final_labels: Vec<usize>,
    pub trace: Option<Trace>,
}

/// How a replay feeds the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Reports straight from the stream: the cheapest replay that still
    /// checks every snapshot.
    Check,
    /// Measured bodies parsed as the server parses them, no spans: the
    /// baseline the traced replay's overhead is measured against.
    SpansOff,
    /// Parsed bodies, spans around every public call, and the mirror.
    Traced,
}

/// Replays `plan` in process. `server_epochs[0]` is the set-up epoch's
/// reply, then one per measured epoch; each must match the in-process
/// snapshot apart from `duration_ns`. The base is always fed straight
/// from the stream; `mode` governs the measured loop.
pub fn run(plan: &Plan, server_epochs: &[String], mode: Mode) -> Result<Replay, String> {
    match plan.workload.method {
        Method::AgTr => run_with::<AgTr>(plan, server_epochs, mode),
        Method::AgTs => run_with::<AgTs>(plan, server_epochs, mode),
        Method::Singletons => run_with::<SingletonGrouping>(plan, server_epochs, mode),
    }
}

fn run_with<G: EdgeGrouping + Default>(
    plan: &Plan,
    server_epochs: &[String],
    mode: Mode,
) -> Result<Replay, String> {
    let mut replayer = Replayer::<G>::start(plan, server_epochs, mode)?;
    for step in &plan.steps {
        replayer.step(step)?;
    }
    Ok(replayer.finish())
}

/// A traced replay and the share of extra time its spans cost.
///
/// The traced replay runs in lock-step with a spans-off replay of the
/// same plan: each step goes to both, the order alternating, so a change
/// in host speed during the run reaches both alike. The overhead compares
/// the traced steps, less the mirror's own work, with the spans-off steps.
pub fn traced(plan: &Plan, server_epochs: &[String]) -> Result<(Replay, f64), String> {
    match plan.workload.method {
        Method::AgTr => traced_with::<AgTr>(plan, server_epochs),
        Method::AgTs => traced_with::<AgTs>(plan, server_epochs),
        Method::Singletons => traced_with::<SingletonGrouping>(plan, server_epochs),
    }
}

fn traced_with<G: EdgeGrouping + Default>(
    plan: &Plan,
    server_epochs: &[String],
) -> Result<(Replay, f64), String> {
    let mut off = Replayer::<G>::start(plan, server_epochs, Mode::SpansOff)?;
    let mut on = Replayer::<G>::start(plan, server_epochs, Mode::Traced)?;
    let timed = |replayer: &mut Replayer<G>, step: &Step| -> Result<u64, String> {
        let started = Instant::now();
        replayer.step(step)?;
        Ok(started.elapsed().as_nanos() as u64)
    };
    let (mut off_ns, mut on_ns) = (0u64, 0u64);
    for (k, step) in plan.steps.iter().enumerate() {
        let mirror_before = on.mirror_ns;
        if k % 2 == 0 {
            off_ns += timed(&mut off, step)?;
            on_ns += timed(&mut on, step)?;
        } else {
            on_ns += timed(&mut on, step)?;
            off_ns += timed(&mut off, step)?;
        }
        on_ns -= on.mirror_ns - mirror_before;
    }
    let overhead = (on_ns as f64 - off_ns as f64) / off_ns.max(1) as f64;
    Ok((on.finish(), overhead))
}

/// An engine configured as `srtd-server` configures its own.
fn server_engine<G: EdgeGrouping + Default>(num_tasks: usize) -> EpochEngine<G> {
    // The server records telemetry; so does every in-process engine, so
    // both do the same work.
    obs::set_enabled(true);
    EpochEngine::new(
        SybilResistantTd::new(G::default()),
        num_tasks,
        EpochConfig {
            num_shards: SERVER_SHARDS,
            warm_start: true,
        },
    )
}

/// One in-process replay of a plan, advanced a step at a time.
struct Replayer<'p, G> {
    plan: &'p Plan,
    mode: Mode,
    server_epochs: std::slice::Iter<'p, String>,
    engine: EpochEngine<G>,
    mirror: Option<Mirror<G>>,
    tracer: Tracer,
    requests: Vec<RequestTrace>,
    epochs: Vec<EpochTrace>,
    /// Wall time the mirror's measured epochs took.
    mirror_ns: u64,
    duplicates: Vec<(usize, usize)>,
    epoch_no: usize,
}

impl<'p, G: EdgeGrouping + Default> Replayer<'p, G> {
    /// Loads the base straight from the stream and closes the set-up
    /// epoch; spans start with the measured steps.
    fn start(plan: &'p Plan, server_epochs: &'p [String], mode: Mode) -> Result<Self, String> {
        let num_tasks = plan.stream.num_tasks;
        let mut replayer = Self {
            plan,
            mode,
            server_epochs: server_epochs.iter(),
            engine: server_engine(num_tasks),
            mirror: (mode == Mode::Traced).then(|| Mirror::new(num_tasks)),
            tracer: Tracer {
                on: false,
                origin: Instant::now(),
                spans: Vec::new(),
            },
            requests: vec![RequestTrace::default(); plan.requests.len()],
            epochs: Vec::new(),
            mirror_ns: 0,
            duplicates: Vec::new(),
            epoch_no: 0,
        };
        for (i, request) in plan.base.iter().enumerate() {
            let reports = &plan.stream.reports[request.first..request.first + request.len];
            let (_, rejected) = ingest(
                &mut replayer.engine,
                replayer.mirror.as_mut(),
                &mut replayer.tracer,
                reports,
                i,
                None,
            )?;
            if !rejected.is_empty() {
                return Err(format!(
                    "base request {i}: {} reports rejected",
                    rejected.len()
                ));
            }
        }
        replayer.close_epoch()?;
        replayer.tracer.on = mode == Mode::Traced;
        Ok(replayer)
    }
}

impl<G: EdgeGrouping> Replayer<'_, G> {
    fn step(&mut self, step: &Step) -> Result<(), String> {
        match step.op {
            Op::Ingest(i) => {
                let request = &self.plan.requests[i];
                let (trace, rejected) = if self.mode == Mode::Check {
                    let reports =
                        &self.plan.stream.reports[request.first..request.first + request.len];
                    ingest(
                        &mut self.engine,
                        self.mirror.as_mut(),
                        &mut self.tracer,
                        reports,
                        i,
                        None,
                    )?
                } else {
                    let span = self.tracer.begin("request", i, None);
                    let parse_span = self.tracer.begin("json::parse", i, span);
                    let doc = parse(&request.body).map_err(|e| e.to_string())?;
                    let parse_ns = self.tracer.end(parse_span);
                    let reports = report_fields(&doc)?;
                    let (mut trace, rejected) = ingest(
                        &mut self.engine,
                        self.mirror.as_mut(),
                        &mut self.tracer,
                        &reports,
                        i,
                        span,
                    )?;
                    self.tracer.end(span);
                    trace.parse_ns = parse_ns;
                    (trace, rejected)
                };
                self.requests[i] = trace;
                self.duplicates.extend(rejected.into_iter().map(|k| (i, k)));
            }
            Op::Epoch => {
                self.epoch_no += 1;
                let trace = self.close_epoch()?;
                self.mirror_ns += trace.mirror_ns;
                self.epochs.push(trace);
            }
            Op::Read => {}
        }
        Ok(())
    }

    fn close_epoch(&mut self) -> Result<EpochTrace, String> {
        let expected = self
            .server_epochs
            .next()
            .ok_or_else(|| format!("server published no epoch {}", self.epoch_no))?;
        epoch(
            &mut self.engine,
            self.mirror.as_mut(),
            &mut self.tracer,
            self.epoch_no,
            expected,
        )
    }

    fn finish(self) -> Replay {
        let traced = self.mode == Mode::Traced;
        Replay {
            duplicates: self.duplicates,
            final_labels: self.engine.latest().labels.clone(),
            trace: traced.then_some(Trace {
                requests: self.requests,
                epochs: self.epochs,
                spans: self.tracer.spans,
            }),
        }
    }
}

/// The server's own work for one `POST /ingest`, repeated in process:
/// parse the body, read each report's fields, hand them to an engine.
/// Timing it right after the server answered the same request pairs the
/// two measurements in time, so `server.overhead_ms` (service time minus
/// this) does not mix host speeds from different phases of the run.
pub type Shadow = Box<dyn FnMut(&str) -> Option<u64>>;

/// A [`Shadow`] whose engine holds the base and its set-up epoch, as the
/// server's does when the measured phase starts. It runs no further
/// epochs (those would delay the generator's next requests), so its
/// pending buffer keeps every measured report instead of being emptied
/// at each epoch.
pub fn shadow(plan: &Plan) -> Shadow {
    match plan.workload.method {
        Method::AgTr => shadow_with::<AgTr>(plan),
        Method::AgTs => shadow_with::<AgTs>(plan),
        Method::Singletons => shadow_with::<SingletonGrouping>(plan),
    }
}

fn shadow_with<G: EdgeGrouping + Default + 'static>(plan: &Plan) -> Shadow {
    let mut engine = server_engine::<G>(plan.stream.num_tasks);
    for r in &plan.stream.reports[..plan.base_len] {
        let _ = engine.ingest(r.account, r.task, r.value, r.timestamp);
    }
    engine.run_epoch_incremental();
    Box::new(move |body: &str| {
        let started = Instant::now();
        let doc = parse(body).ok()?;
        for r in report_fields(&doc).ok()? {
            // Planted retries are rejected here as on the server.
            let _ = engine.ingest(r.account, r.task, r.value, r.timestamp);
        }
        Some(started.elapsed().as_nanos() as u64)
    })
}

/// Hands one request's reports to the engine, as `srtd-server`'s
/// `POST /ingest` does after parsing. Returns the indices of reports
/// rejected as duplicates; any other rejection is an error.
fn ingest<G: EdgeGrouping>(
    engine: &mut EpochEngine<G>,
    mirror: Option<&mut Mirror<G>>,
    tracer: &mut Tracer,
    reports: &[Report],
    id: usize,
    parent: Option<usize>,
) -> Result<(RequestTrace, Vec<usize>), String> {
    let mut accepted = Vec::with_capacity(reports.len());
    let mut rejected = Vec::new();
    let span = tracer.begin("EpochEngine::ingest", id, parent);
    for (k, r) in reports.iter().enumerate() {
        match engine.ingest(r.account, r.task, r.value, r.timestamp) {
            Ok(()) => accepted.push(*r),
            Err(IngestError::DuplicateReport) => rejected.push(k),
            Err(e) => return Err(format!("request {id} report {k}: {e}")),
        }
    }
    let ingest_ns = tracer.end(span);
    if let Some(mirror) = mirror {
        for r in accepted {
            mirror.shards[r.account % SERVER_SHARDS].push(r);
        }
    }
    let trace = RequestTrace {
        parse_ns: 0,
        ingest_ns,
        reports: reports.len(),
    };
    Ok((trace, rejected))
}

/// The fields `srtd-server` reads from each report of an ingest body.
fn report_fields(doc: &Json) -> Result<Vec<Report>, String> {
    let field = |obj: &Json, name: &str| -> Option<f64> {
        let Json::Obj(fields) = obj else { return None };
        fields.iter().find_map(|(k, v)| match v {
            Json::Num(x) if k == name => Some(*x),
            _ => None,
        })
    };
    let Json::Obj(top) = doc else {
        return Err("ingest body is not an object".into());
    };
    let Some((_, Json::Arr(reports))) = top.iter().find(|(k, _)| k == "reports") else {
        return Err("ingest body has no `reports` array".into());
    };
    reports
        .iter()
        .map(|r| {
            Some(Report {
                account: field(r, "account")? as usize,
                task: field(r, "task")? as usize,
                value: field(r, "value")?,
                timestamp: field(r, "timestamp")?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "report without account, task, value or timestamp".into())
}

fn epoch<G: EdgeGrouping>(
    engine: &mut EpochEngine<G>,
    mirror: Option<&mut Mirror<G>>,
    tracer: &mut Tracer,
    epoch_no: usize,
    server_reply: &str,
) -> Result<EpochTrace, String> {
    let span = tracer.begin("epoch", epoch_no, None);
    let run_span = tracer.begin("EpochEngine::run_epoch_incremental", epoch_no, span);
    let snapshot = engine.run_epoch_incremental();
    let run_ns = tracer.end(run_span);
    let render_span = tracer.begin("EpochSnapshot::render", epoch_no, span);
    let body = snapshot.to_json().render();
    let render_ns = tracer.end(render_span);
    if without_duration(&body) != without_duration(server_reply) {
        return Err(format!(
            "epoch {epoch_no}: server snapshot differs from the in-process engine"
        ));
    }
    let mut trace = EpochTrace {
        run_ns,
        render_ns,
        ..EpochTrace::default()
    };
    if let Some(mirror) = mirror {
        let mirror_span = tracer.begin("mirror", epoch_no, span);
        mirror.epoch(tracer, mirror_span, epoch_no, &snapshot, &mut trace)?;
        trace.mirror_ns = tracer.end(mirror_span);
    }
    tracer.end(span);
    Ok(trace)
}

/// A rendered snapshot minus its `duration_ns` field, the one value that
/// is a measurement rather than output.
pub fn without_duration(snapshot: &str) -> &str {
    snapshot
        .rfind(",\"duration_ns\":")
        .map_or(snapshot, |cut| &snapshot[..cut])
}

/// The engine's incremental epoch rebuilt from public calls.
struct Mirror<G> {
    framework: SybilResistantTd<G>,
    data: SensingData,
    shards: Vec<Vec<Report>>,
    edges: Vec<(usize, usize)>,
    forest: UnionFind,
    previous_weights: Option<Vec<f64>>,
}

impl<G: EdgeGrouping + Default> Mirror<G> {
    fn new(num_tasks: usize) -> Self {
        Self {
            framework: SybilResistantTd::new(G::default()),
            data: SensingData::new(num_tasks),
            shards: vec![Vec::new(); SERVER_SHARDS],
            edges: Vec::new(),
            forest: UnionFind::new(0),
            previous_weights: None,
        }
    }
}

impl<G: EdgeGrouping> Mirror<G> {
    fn epoch(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<usize>,
        epoch_no: usize,
        engine: &EpochSnapshot,
        trace: &mut EpochTrace,
    ) -> Result<(), String> {
        let batch: Vec<Report> = self.shards.iter_mut().flat_map(std::mem::take).collect();

        let span = tracer.begin("SensingData::fold_batch", epoch_no, parent);
        if let Some(max_account) = batch.iter().map(|r| r.account).max() {
            if max_account >= self.data.num_accounts() {
                self.data.reserve_accounts(max_account + 1);
            }
            self.data.fold_batch(&batch);
        }
        trace.fold_ns = tracer.end(span);
        trace.folded = batch.len();

        let candidates_before = candidate_pairs();
        let span = tracer.begin("EdgeGrouping::decision_edges", epoch_no, parent);
        let n = self.data.num_accounts();
        let mut dirty = vec![false; n];
        for r in &batch {
            dirty[r.account] = true;
        }
        for flag in dirty.iter_mut().skip(self.forest.len()) {
            *flag = true;
        }
        let (kept, dropped): (Vec<_>, Vec<_>) = self
            .edges
            .iter()
            .partition(|&&(i, j)| !dirty[i] && !dirty[j]);
        let fresh = self
            .framework
            .grouping_method()
            .decision_edges(&self.data, Some(&dirty));
        trace.regroup_ns = tracer.end(span);
        trace.candidates = candidate_pairs() - candidates_before;
        trace.dirty = dirty.iter().filter(|&&d| d).count();
        trace.fresh_edges = fresh.len();

        let span = tracer.begin("UnionFind", epoch_no, parent);
        trace.rebuilt = !dropped.is_empty();
        if trace.rebuilt {
            let mut forest = UnionFind::new(n);
            for &(i, j) in kept.iter().chain(&fresh) {
                forest.union(i, j);
            }
            self.forest = forest;
        } else {
            self.forest.grow(n);
            for &(i, j) in &fresh {
                self.forest.union(i, j);
            }
        }
        self.edges = kept;
        self.edges.extend(fresh);
        self.edges.sort_unstable();
        self.edges.dedup();
        let grouping = Grouping::new(self.forest.groups());
        trace.union_find_ns = tracer.end(span);

        let span = tracer.begin(
            "SybilResistantTd::discover_with_grouping_seeded",
            epoch_no,
            parent,
        );
        let result = self.framework.discover_with_grouping_seeded(
            &self.data,
            grouping,
            self.previous_weights.as_deref(),
        );
        trace.discover_ns = tracer.end(span);
        trace.iterations = result.iterations;
        trace.warm_started = result.warm_started;

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let truth_bits =
            |v: &[Option<f64>]| v.iter().map(|x| x.map(f64::to_bits)).collect::<Vec<_>>();
        if truth_bits(&result.truths) != truth_bits(&engine.truths)
            || result.grouping.labels() != engine.labels.as_slice()
            || bits(&result.group_weights) != bits(&engine.group_weights)
            || result.iterations != engine.iterations
            || result.warm_started != engine.warm_started
        {
            return Err(format!("epoch {epoch_no}: mirror differs from the engine"));
        }
        self.previous_weights = Some(result.group_weights);
        Ok(())
    }
}

/// Candidate pairs blocking has handed to the grouping signals so far.
fn candidate_pairs() -> u64 {
    obs::snapshot()
        .counters
        .iter()
        .find(|(name, _)| name == "grouping.pairs.candidate")
        .map_or(0, |&(_, n)| n)
}

/// Writes `spans` as tab-separated lines with each span's self time
/// (its duration minus the time its children cover).
pub fn write_spans(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let self_ns = self_times(spans);
    let mut out = String::from("name\tid\tparent\tstart_ns\tend_ns\tself_ns\n");
    for (span, own) in spans.iter().zip(&self_ns) {
        let parent = span.parent.map_or(String::from("-"), |p| p.to_string());
        out.push_str(&format!(
            "{}\t{}\t{parent}\t{}\t{}\t{own}\n",
            span.name, span.id, span.start_ns, span.end_ns
        ));
    }
    std::fs::write(path, out)
}

/// Each span's duration minus the durations of its direct children
/// (children of one parent never overlap: the replay is sequential).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] -= span.end_ns - span.start_ns;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, IngestRequest, Plan};

    /// The mirror must equal the engine on every epoch for every method
    /// the server serves (the replay errors out otherwise), and so must
    /// the spans-off replay stepped beside it. The server's replies are
    /// stood in for by the engine's own renders.
    #[test]
    fn mirror_equals_engine_for_every_method() {
        for name in ["tr-stream", "ts-reads", "bulk-replay"] {
            let mut w = *find(name).expect("known workload");
            w.base_accounts = 400;
            let plan = Plan::build(&w, 21, 1);
            let renders = engine_renders(&plan);
            let (replay, overhead) =
                traced(&plan, &renders).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(overhead.is_finite(), "{name}");
            let trace = replay.trace.expect("traced");
            assert_eq!(trace.epochs.len(), plan.measured_epochs(), "{name}");
            assert!(trace.epochs.iter().all(|e| e.folded == w.epoch_reports));
        }
    }

    #[test]
    fn a_differing_server_snapshot_fails_the_replay() {
        let mut w = *find("bulk-replay").expect("known workload");
        w.base_accounts = 200;
        let plan = Plan::build(&w, 2, 1);
        let mut renders = engine_renders(&plan);
        let last = renders.last_mut().expect("epochs");
        *last = last.replacen("\"epoch\":", "\"epoch\":9", 1);
        assert!(run(&plan, &renders, Mode::Check).is_err());
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |parent, start_ns, end_ns| Span {
            name: "s",
            id: 0,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 40, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 50]);
    }

    fn engine_renders(plan: &Plan) -> Vec<String> {
        match plan.workload.method {
            Method::AgTr => renders_with::<AgTr>(plan),
            Method::AgTs => renders_with::<AgTs>(plan),
            Method::Singletons => renders_with::<SingletonGrouping>(plan),
        }
    }

    fn renders_with<G: EdgeGrouping + Default>(plan: &Plan) -> Vec<String> {
        let mut engine = EpochEngine::new(
            SybilResistantTd::new(G::default()),
            plan.stream.num_tasks,
            EpochConfig::default(),
        );
        let feed = |engine: &mut EpochEngine<G>, r: &IngestRequest| {
            for report in &plan.stream.reports[r.first..r.first + r.len] {
                let _ = engine.ingest(report.account, report.task, report.value, report.timestamp);
            }
        };
        for r in &plan.base {
            feed(&mut engine, r);
        }
        let mut renders = vec![engine.run_epoch_incremental().to_json().render()];
        for step in &plan.steps {
            match step.op {
                Op::Ingest(i) => feed(&mut engine, &plan.requests[i]),
                Op::Epoch => renders.push(engine.run_epoch_incremental().to_json().render()),
                Op::Read => {}
            }
        }
        renders
    }
}
