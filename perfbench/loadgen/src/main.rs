//! Served-path benchmark for `srtd-server`.
//!
//! ```text
//! srtd-loadgen --server PATH --workload NAME --seed N --seconds S --trace 0|1
//!              [--out DIR]
//! ```
//!
//! One run builds a seeded plan, starts a fresh `srtd-server` a few
//! times to time set-up, replays the measured traffic over HTTP, checks
//! every reply against an in-process `EpochEngine` on the same schedule,
//! and prints a table of metrics with sample counts followed by one JSON
//! line: end-to-end metrics with `--trace 0`, per-layer metrics from an
//! in-process traced replay with `--trace 1`. The server inherits the
//! generator's CPU affinity (`run.py` pins the generator to one CPU). A
//! run that fails a check prints the failure, reports `"correct": false`
//! and exits non-zero.

mod http;
mod replay;
mod served;
mod stats;
mod workload;

use replay::{Mode, Replay};
use served::{Measured, Record};
use srtd_platform::IngestError;
use srtd_runtime::json::{parse, Json, ToJson};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Op, Plan};

/// Server starts per run; `setup_s` is their median, and the last one
/// serves the measured phase.
const SETUPS: usize = 3;

/// The mirror's fold + regroup + union-find + discover should differ
/// from the engine's whole epoch by at most this share of it, the rest
/// being the engine's own bookkeeping (`platform.epoch.glue_ms`). A
/// larger gap is logged, not failed: see [`trace_metrics`].
const STAGE_SLACK: f64 = 0.2;

/// Standard normal quantile of the interval printed around the median
/// `server.overhead_ms` (two-sided 99.9 %).
const OVERHEAD_Z: f64 = 3.29;

/// A run whose median send lag grows by more than this from the first
/// quarter of the run to the last is offered more than it can serve.
const BACKLOG_GROWTH_S: f64 = 0.010;

/// Gated end-to-end metrics: each holds a fixed wait (the epoch window)
/// besides CPU time. `ingest_p50_ms`, `publish_p50_ms` and `read_p50_ms`
/// are measured and printed too, but they hold no fixed wait, so they
/// move one for one with host speed, which on a shared host drifted by
/// up to 2x within an hour (see perfbench/README.md).
const END_TO_END: [&str; 4] = [
    "setup_s",
    "server_rss_mb",
    "staleness_p50_ms",
    "staleness_p99_ms",
];

const PER_LAYER: [&str; 26] = [
    "server.ingest_service_ms",
    "server.overhead_ms",
    "server.request_bytes_per_report",
    "server.epoch_service_ms",
    "server.read_service_ms",
    "server.response_bytes_per_snapshot",
    "runtime.json.parse_us_per_report",
    "runtime.json.render_ms",
    "platform.epoch.ingest_us_per_report",
    "platform.epoch.rejected_reports",
    "platform.epoch.run_ms",
    "platform.epoch.glue_ms",
    "truth.data.fold_ms",
    "truth.data.folded_reports",
    "core.grouping.regroup_ms",
    "core.grouping.dirty_accounts",
    "core.grouping.us_per_dirty_account",
    "core.grouping.fresh_edges",
    "core.grouping.edges_per_candidate",
    "graph.union_find.ms",
    "graph.union_find.rebuild_share",
    "core.framework.discover_ms",
    "core.framework.iterations",
    "core.framework.warm_start_share",
    "loadgen.send_lag_p90_ms",
    "trace.overhead_share",
];

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let number = |name: &str, raw: String| {
        raw.parse::<u64>()
            .map_err(|_| format!("--{name}: `{raw}` is not a whole number"))
    };
    let args = Args {
        server: PathBuf::from(take("server")?),
        workload: take("workload")?,
        seed: number("seed", take("seed")?)?,
        seconds: number("seconds", take("seconds")?)?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
        out: flags.remove("out").map(PathBuf::from),
    };
    if let Some(unknown) = flags.keys().next() {
        return Err(format!("unknown flag --{unknown}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One reported number and the samples behind it.
struct Metric {
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Outcome of a run: operation counts, check failures, metrics.
#[derive(Default)]
struct Run {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, Metric>,
}

impl Run {
    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    fn put(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Records percentile `p` of `samples`, or a problem when the sample
    /// count does not support it.
    fn put_percentile(&mut self, name: &'static str, unit: &'static str, samples: &[f64], p: f64) {
        match percentile(samples, p) {
            Ok(v) => self.put(name, unit, v, samples.len()),
            Err(e) => self.problems.push(format!("{name}: {e}")),
        }
    }
}

fn main() -> ExitCode {
    phase("start");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload::find(&args.workload) else {
        eprintln!("error: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    let plan = Plan::build(workload, args.seed, args.seconds);
    phase("plan");
    let mut run = execute(&args, &plan);

    for (name, m) in &run.metrics {
        println!(
            "# {name:<38} {:>14.4} {:<6} samples={}",
            m.value, m.unit, m.samples
        );
    }
    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &name in wanted {
        match run.metrics.get(name) {
            Some(m) => metrics.push((
                name,
                Json::obj([("value", m.value.to_json()), ("unit", Json::str(m.unit))]),
            )),
            None => metrics.push((name, Json::Null)),
        }
    }
    if metrics.iter().any(|(_, m)| *m == Json::Null) && run.problems.is_empty() {
        run.problems.push("a metric was not measured".into());
    }
    for problem in &run.problems {
        println!("FAILED: {problem}");
    }
    let correct = run.problems.is_empty() && run.failed == 0;
    let result = Json::obj([
        ("correct", correct.to_json()),
        ("attempted", run.attempted.max(1).to_json()),
        ("failed", run.failed.to_json()),
        (
            "metrics",
            if correct {
                Json::obj(metrics)
            } else {
                Json::obj([])
            },
        ),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Logs how far into the run a phase ended, on stderr.
fn phase(name: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let start = START.get_or_init(std::time::Instant::now);
    eprintln!(
        "# phase {name} ended at {:.2} s",
        start.elapsed().as_secs_f64()
    );
}

fn execute(args: &Args, plan: &Plan) -> Run {
    let mut run = Run::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut first_epoch = None;
    let mut live = None;
    for k in 0..SETUPS {
        let setup = match served::setup(&args.server, plan) {
            Ok(setup) => setup,
            Err(e) => {
                run.problems.push(format!("set-up {k}: {e}"));
                return run;
            }
        };
        setups.push(setup.seconds);
        eprintln!("# set-up {k}: {:.3} s", setup.seconds);
        check_base(&mut run, plan, &setup.base_replies);
        let epoch = replay::without_duration(&setup.epoch_body).to_string();
        let same = first_epoch.get_or_insert_with(|| epoch.clone()) == &epoch;
        run.check(same, || {
            format!("set-up {k} published a different first epoch")
        });
        if k + 1 < SETUPS {
            if let Err(e) = setup.server.shutdown() {
                run.problems.push(format!("set-up {k} shutdown: {e}"));
            }
        } else {
            live = Some(setup);
        }
    }
    let setup = live.expect("at least one set-up");
    run.put(
        "setup_s",
        "s",
        median(&setups).expect("set-ups ran"),
        setups.len(),
    );

    phase("set-up");
    let shadow = args.trace.then(|| replay::shadow(plan));
    let measured = served::measure(&setup.server, plan, &setup.epoch_body, shadow);
    phase("measured");
    match setup.server.peak_rss_mib() {
        Ok(mib) => run.put("server_rss_mb", "MiB", mib, 1),
        Err(e) => run.problems.push(e),
    }
    if let Err(e) = setup.server.shutdown() {
        run.problems.push(format!("shutdown: {e}"));
    }
    check_served(&mut run, plan, &measured);
    if !run.problems.is_empty() || run.failed > 0 {
        return run;
    }
    if !args.trace {
        // A traced run's HTTP phase also does the shadow's work between
        // requests (its schedule pauses meanwhile), so it reports no
        // latencies.
        latency_metrics(&mut run, plan, &measured.records);
    }
    server_metrics(&mut run, plan, &measured.records);

    let mut server_epochs = vec![setup.epoch_body];
    server_epochs.extend(
        measured
            .records
            .iter()
            .filter(|r| r.op == Op::Epoch)
            .map(|r| r.body.clone()),
    );
    let checked = replay::run(plan, &server_epochs, Mode::Check);
    phase("check replay");
    match checked {
        Ok(replay) => check_replay(&mut run, plan, &replay),
        Err(e) => run.problems.push(e),
    }
    if args.trace && run.problems.is_empty() {
        // The check replay above also warms the process: the first replay
        // in a process runs measurably slower, so the timed replays come
        // after it.
        let traced = replay::traced(plan, &server_epochs);
        phase("traced replay");
        match traced {
            Ok((traced, overhead)) => {
                trace_metrics(&mut run, plan, &measured.records, &traced, overhead);
                let trace = traced.trace.as_ref().expect("traced replay");
                if let Some(dir) = &args.out {
                    let path = dir.join(format!("spans-{}-{}.tsv", plan.workload.name, args.seed));
                    let written = std::fs::create_dir_all(dir)
                        .and_then(|()| replay::write_spans(&trace.spans, &path));
                    if let Err(e) = written {
                        run.problems
                            .push(format!("cannot write {}: {e}", path.display()));
                    }
                }
            }
            Err(e) => run.problems.push(e),
        }
    }
    run
}

/// Every base report must be accepted.
fn check_base(run: &mut Run, plan: &Plan, replies: &[http::Reply]) {
    for (i, (request, reply)) in plan.base.iter().zip(replies).enumerate() {
        let counts = ingest_counts(&reply.body);
        let ok = reply.status == 200 && matches!(counts, Some((a, 0, _)) if a == request.len);
        run.check(ok, || {
            format!("base request {i}: {} {}", reply.status, reply.body)
        });
        if !run.problems.is_empty() {
            return;
        }
    }
}

/// `(accepted, rejected, every rejection is a duplicate)` of an ingest
/// reply.
fn ingest_counts(body: &str) -> Option<(usize, usize, bool)> {
    let doc = parse(body).ok()?;
    let Json::Obj(fields) = &doc else { return None };
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let count = |name: &str| match get(name) {
        Some(Json::Num(x)) => Some(*x as usize),
        _ => None,
    };
    let duplicate = Json::str(IngestError::DuplicateReport.to_string());
    let Some(Json::Arr(rejections)) = get("rejections") else {
        return None;
    };
    let all_duplicates = rejections.iter().all(|r| match r {
        Json::Obj(f) => f.iter().any(|(k, v)| k == "reason" && *v == duplicate),
        _ => false,
    });
    Some((count("accepted")?, count("rejected")?, all_duplicates))
}

/// Operation counts and reply checks for the measured phase.
fn check_served(run: &mut Run, plan: &Plan, measured: &Measured) {
    let records = &measured.records;
    run.attempted = records.len() + usize::from(measured.transport_error.is_some());
    if let Some(e) = &measured.transport_error {
        run.failed += 1;
        run.problems.push(format!("transport failure: {e}"));
    }
    for r in records {
        if r.status != 200 {
            run.failed += 1;
            run.problems
                .push(format!("{:?} answered {}", r.op, r.status));
            continue;
        }
        match r.op {
            Op::Ingest(i) => {
                let request = &plan.requests[i];
                let expected = match request.retry_of {
                    None => (request.len, 0, true),
                    Some(_) => (0, request.len, true),
                };
                if ingest_counts(&r.body) != Some(expected) {
                    run.failed += 1;
                    run.problems
                        .push(format!("ingest {i}: unexpected reply {}", r.body));
                }
            }
            Op::Read => run.check(r.read_matches, || {
                format!("read at {:.3}s did not return the latest snapshot", r.due)
            }),
            Op::Epoch => {}
        }
    }
    let epochs = records.iter().filter(|r| r.op == Op::Epoch).count();
    if measured.transport_error.is_none() {
        run.check(epochs == plan.measured_epochs(), || {
            format!(
                "{epochs} epochs published, plan has {}",
                plan.measured_epochs()
            )
        });
    }

    // Backlog guard: a send lag that keeps rising means the offered rate
    // exceeds capacity, and latency would grow with run length.
    if records.len() >= 8 {
        let lags: Vec<f64> = records
            .iter()
            .filter(|r| r.op != Op::Epoch)
            .map(|r| r.lag)
            .collect();
        let quarter = lags.len() / 4;
        let first = median(&lags[..quarter]).unwrap_or(0.0);
        let last = median(&lags[lags.len() - quarter..]).unwrap_or(0.0);
        run.check(last - first <= BACKLOG_GROWTH_S, || {
            format!(
                "backlog: median send lag rose from {:.2} ms to {:.2} ms",
                first * 1e3,
                last * 1e3
            )
        });
    }
}

fn check_replay(run: &mut Run, plan: &Plan, replay: &Replay) {
    // Exactly the planted retries come back as duplicates, all of them.
    let planted: Vec<(usize, usize)> = plan
        .requests
        .iter()
        .enumerate()
        .filter(|(_, r)| r.retry_of.is_some())
        .flat_map(|(i, r)| (0..r.len).map(move |k| (i, k)))
        .collect();
    run.check(replay.duplicates == planted, || {
        format!(
            "{} duplicates in process, {} planted",
            replay.duplicates.len(),
            planted.len()
        )
    });

    // Rings: under AG-TR every ring whose reports were all folded sits in
    // one group.
    if plan.workload.method == workload::Method::AgTr {
        let folded = plan.base_len + plan.measured_reports();
        let mut last_seen = vec![0; replay.final_labels.len().max(1)];
        let mut seen = vec![false; last_seen.len()];
        for (i, r) in plan.stream.reports.iter().enumerate() {
            if r.account < last_seen.len() {
                last_seen[r.account] = i;
                seen[r.account] = true;
            }
        }
        let complete = |m: &usize| *m < seen.len() && seen[*m] && last_seen[*m] < folded;
        let mut checked = 0;
        for ring in &plan.stream.rings {
            // Accounts beyond the final labels never reported.
            if !ring.iter().all(complete) {
                continue;
            }
            checked += 1;
            let label = replay.final_labels[ring[0]];
            run.check(
                ring.iter().all(|&m| replay.final_labels[m] == label),
                || format!("Sybil ring {ring:?} is split across groups"),
            );
        }
        run.check(checked > 0, || "no complete Sybil ring to check".into());
    }
}

/// Records the highest tail `samples` support (see
/// [`stats::highest_tail`]) and logs which percentile it is.
fn put_tail(run: &mut Run, name: &'static str, samples: &[f64]) {
    match stats::highest_tail(samples) {
        Ok((value, p)) => {
            run.put(name, "ms", value, samples.len());
            eprintln!("# {name} is p{:.2} of {} samples", p * 100.0, samples.len());
        }
        Err(e) => run.problems.push(format!("{name}: {e}")),
    }
}

fn ms(samples: impl Iterator<Item = f64>) -> Vec<f64> {
    samples.map(|s| s * 1e3).collect()
}

fn is_ingest(op: &Op) -> bool {
    matches!(op, Op::Ingest(_))
}

fn is_epoch(op: &Op) -> bool {
    *op == Op::Epoch
}

fn is_read(op: &Op) -> bool {
    *op == Op::Read
}

/// The end-to-end latencies, from the measured phase's timeline.
fn latency_metrics(run: &mut Run, plan: &Plan, records: &[Record]) {
    let of = |op: fn(&Op) -> bool| records.iter().filter(move |r| op(&r.op));
    let ingest_latency = ms(of(is_ingest).map(|r| r.done - r.due));
    run.put_percentile("ingest_p50_ms", "ms", &ingest_latency, 0.5);
    put_tail(run, "ingest_tail_ms", &ingest_latency);
    let reads = ms(of(is_read).map(|r| r.done - r.due));
    run.put_percentile("read_p50_ms", "ms", &reads, 0.5);

    // Publish and staleness walk the records in order: each original
    // ingest's reports are published by the next epoch.
    let mut publish = Vec::new();
    let mut staleness = Vec::new();
    let mut pending: Vec<(f64, usize)> = Vec::new();
    let mut last_due = None;
    for r in records {
        match r.op {
            Op::Ingest(i) if plan.requests[i].retry_of.is_none() => {
                pending.push((r.done, plan.requests[i].len));
                last_due = Some(r.due);
            }
            Op::Epoch => {
                if let Some(due) = last_due.take() {
                    publish.push((r.done - due) * 1e3);
                }
                for (accepted_at, n) in pending.drain(..) {
                    staleness.extend(std::iter::repeat_n((r.done - accepted_at) * 1e3, n));
                }
            }
            _ => {}
        }
    }
    run.put_percentile("publish_p50_ms", "ms", &publish, 0.5);
    run.put_percentile("staleness_p50_ms", "ms", &staleness, 0.5);
    run.put_percentile("staleness_p99_ms", "ms", &staleness, 0.99);
    // Shown in the table only, where the sample supports a p90 or above.
    for (name, samples) in [("read_tail_ms", &reads), ("publish_tail_ms", &publish)] {
        if samples.len() >= 10 * stats::MIN_BEYOND {
            put_tail(run, name, samples);
        }
    }
}

/// Service times, wire sizes and generator lag of the measured phase.
fn server_metrics(run: &mut Run, plan: &Plan, records: &[Record]) {
    let of = |op: fn(&Op) -> bool| records.iter().filter(move |r| op(&r.op));
    let service = |op: fn(&Op) -> bool| ms(of(op).map(|r| r.done - r.sent));
    run.put_percentile("server.ingest_service_ms", "ms", &service(is_ingest), 0.5);
    run.put_percentile("server.epoch_service_ms", "ms", &service(is_epoch), 0.5);
    run.put_percentile("server.read_service_ms", "ms", &service(is_read), 0.5);
    let originals: Vec<&Record> = of(is_ingest)
        .filter(|r| matches!(r.op, Op::Ingest(i) if plan.requests[i].retry_of.is_none()))
        .collect();
    let bytes: usize = originals.iter().map(|r| r.bytes_out).sum();
    run.put(
        "server.request_bytes_per_report",
        "B",
        bytes as f64 / plan.measured_reports() as f64,
        originals.len(),
    );
    let snapshot_bytes: Vec<f64> = of(is_epoch).map(|r| r.bytes_in as f64).collect();
    run.put_percentile(
        "server.response_bytes_per_snapshot",
        "B",
        &snapshot_bytes,
        0.5,
    );
    let lag = ms(records.iter().filter(|r| r.op != Op::Epoch).map(|r| r.lag));
    run.put_percentile("loadgen.send_lag_p90_ms", "ms", &lag, 0.9);
}

fn trace_metrics(
    run: &mut Run,
    plan: &Plan,
    records: &[Record],
    traced: &Replay,
    trace_overhead: f64,
) {
    let trace = traced.trace.as_ref().expect("traced replay");
    let measured: Vec<_> = trace.requests.iter().filter(|r| r.reports > 0).collect();
    let per_report = |f: fn(&replay::RequestTrace) -> u64| -> Vec<f64> {
        measured
            .iter()
            .map(|r| f(r) as f64 / 1e3 / r.reports as f64)
            .collect()
    };
    run.put_percentile(
        "runtime.json.parse_us_per_report",
        "us",
        &per_report(|r| r.parse_ns),
        0.5,
    );
    run.put_percentile(
        "platform.epoch.ingest_us_per_report",
        "us",
        &per_report(|r| r.ingest_ns),
        0.5,
    );
    // Server overhead: each ingest's service time less the same parse and
    // ingest done in process right after its reply (served::measure), so
    // both sides of the difference ran at the same host speed.
    let ingests: Vec<&Record> = records.iter().filter(|r| is_ingest(&r.op)).collect();
    let overhead: Vec<f64> = ingests
        .iter()
        .filter_map(|r| Some((r.done - r.sent) * 1e3 - r.shadow_ns? as f64 / 1e6))
        .collect();
    run.check(overhead.len() == ingests.len(), || {
        "the in-process parse of an ingest body failed".into()
    });
    run.put_percentile("server.overhead_ms", "ms", &overhead, 0.5);
    // Beside a 1 000-report body's 30-60 ms parse the overhead is small,
    // and the same parse has run up to 1.5x slower in this process than
    // in the server's (the same work on separately allocated memory), so
    // there the difference can land on either side of zero. The interval
    // and the log line say when it does; the run does not fail on it.
    match stats::median_interval(&overhead, OVERHEAD_Z) {
        Some((low, high)) => {
            run.put("server.overhead_low_ms", "ms", low, overhead.len());
            run.put("server.overhead_high_ms", "ms", high, overhead.len());
            if low <= 0.0 {
                eprintln!(
                    "# server.overhead_ms unresolved: its 99.9 % interval [{low:.3}, {high:.3}] ms reaches 0 or below"
                );
            }
        }
        None => run
            .problems
            .push(format!("server.overhead_ms: {} samples", overhead.len())),
    }
    let rejected: usize = plan
        .requests
        .iter()
        .filter(|r| r.retry_of.is_some())
        .map(|r| r.len)
        .sum();
    run.put(
        "platform.epoch.rejected_reports",
        "count",
        rejected as f64,
        plan.requests.len(),
    );

    let epochs = &trace.epochs;
    let n = epochs.len();
    let each =
        |f: &dyn Fn(&replay::EpochTrace) -> f64| -> Vec<f64> { epochs.iter().map(f).collect() };
    let ms_of = |ns: u64| ns as f64 / 1e6;
    let stages =
        |e: &replay::EpochTrace| e.fold_ns + e.regroup_ns + e.union_find_ns + e.discover_ns;
    let series: [(&'static str, &'static str, Vec<f64>); 13] = [
        ("platform.epoch.run_ms", "ms", each(&|e| ms_of(e.run_ns))),
        (
            "platform.epoch.glue_ms",
            "ms",
            each(&|e| ms_of(e.run_ns) - ms_of(stages(e))),
        ),
        (
            "runtime.json.render_ms",
            "ms",
            each(&|e| ms_of(e.render_ns)),
        ),
        ("truth.data.fold_ms", "ms", each(&|e| ms_of(e.fold_ns))),
        (
            "truth.data.folded_reports",
            "count",
            each(&|e| e.folded as f64),
        ),
        (
            "core.grouping.regroup_ms",
            "ms",
            each(&|e| ms_of(e.regroup_ns)),
        ),
        (
            "core.grouping.dirty_accounts",
            "count",
            each(&|e| e.dirty as f64),
        ),
        (
            "core.grouping.us_per_dirty_account",
            "us",
            each(&|e| e.regroup_ns as f64 / 1e3 / e.dirty.max(1) as f64),
        ),
        (
            "core.grouping.fresh_edges",
            "count",
            each(&|e| e.fresh_edges as f64),
        ),
        (
            "graph.union_find.ms",
            "ms",
            each(&|e| ms_of(e.union_find_ns)),
        ),
        (
            "core.framework.discover_ms",
            "ms",
            each(&|e| ms_of(e.discover_ns)),
        ),
        (
            "core.framework.iterations",
            "count",
            each(&|e| e.iterations as f64),
        ),
        ("mirror.epoch_ms", "ms", each(&|e| ms_of(e.mirror_ns))),
    ];
    for (name, unit, samples) in series {
        run.put_percentile(name, unit, &samples, 0.5);
    }
    let fresh: usize = epochs.iter().map(|e| e.fresh_edges).sum();
    let candidates: u64 = epochs.iter().map(|e| e.candidates).sum();
    let per_candidate = if candidates == 0 {
        0.0
    } else {
        fresh as f64 / candidates as f64
    };
    run.put(
        "core.grouping.edges_per_candidate",
        "ratio",
        per_candidate,
        n,
    );
    let share = |f: fn(&replay::EpochTrace) -> bool| {
        epochs.iter().filter(|e| f(e)).count() as f64 / n.max(1) as f64
    };
    run.put(
        "graph.union_find.rebuild_share",
        "share",
        share(|e| e.rebuilt),
        n,
    );
    run.put(
        "core.framework.warm_start_share",
        "share",
        share(|e| e.warm_started),
        n,
    );

    // The mirror's stages should account for the engine's epoch. Both
    // run the same calls (their outputs are equal bit for bit), but on
    // separately allocated state, and equal work on two allocations has
    // run up to 1.5x apart on a shared host; so a gap beyond the slack is
    // logged with the share, not failed.
    let run_total: u64 = epochs.iter().map(|e| e.run_ns).sum();
    let stage_total: u64 = epochs.iter().map(stages).sum();
    let gap = (run_total as f64 - stage_total as f64) / run_total.max(1) as f64;
    run.put("platform.epoch.unaccounted_share", "share", gap, n);
    if gap.abs() > STAGE_SLACK {
        eprintln!(
            "# mirror stages sum to {:.1} ms of the engine's {:.1} ms, outside the {STAGE_SLACK} slack",
            stage_total as f64 / 1e6,
            run_total as f64 / 1e6
        );
    }

    // Tracing overhead, from the lock-step spans-off replay
    // (replay::traced).
    run.put(
        "trace.overhead_share",
        "share",
        trace_overhead,
        plan.steps.len(),
    );
}
