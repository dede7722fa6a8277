//! `srtd-server` — the campaign-as-a-service front end.
//!
//! A std-only HTTP/1.1 server (bare `TcpListener`, the workspace's own
//! JSON wire format) over the platform's [`EpochEngine`]: reports stream
//! in over `POST /ingest`, an epoch boundary is an explicit `POST /epoch`,
//! and readers fetch the latest published snapshot while the next epoch
//! computes. The PR-2 observability layer doubles as the metrics endpoint.
//!
//! ```text
//! srtd-server [--port N] [--tasks N] [--method ag-tr|ag-ts|singletons]
//!             [--epoch-interval-ms N]
//! ```
//!
//! Endpoints:
//!
//! * `GET  /healthz`  — readiness: epoch and generation counters, ingest
//!   backlog, last-epoch duration
//! * `POST /ingest`   — `{"reports":[{"account":A,"task":T,"value":V,"timestamp":S},…]}`;
//!   each report is admitted under `ReportRules::WifiRssi` (values in
//!   [−120, 0] dBm, each account's timestamps non-decreasing, account
//!   indices below `MAX_ACCOUNTS`) and buffered, the response counts
//!   acceptances and rejections (with reasons)
//! * `POST /epoch`    — `EpochEngine::run_epoch`: drain the buffers,
//!   fold, re-group (all three methods re-group incrementally: cached
//!   decision edges + persistent union-find, identical to a from-scratch
//!   rebuild), run warm-started Algorithm 2, publish; returns the new
//!   snapshot
//! * `GET  /truths`   — the latest published snapshot (epoch, truths, …),
//!   rendered once per snapshot and served from that body until the next
//!   epoch
//! * `GET  /groups`   — the latest grouping: labels and group weights
//! * `GET  /metrics`  — the obs registry's deterministic JSON export;
//!   `?format=prom` switches to Prometheus text exposition of the full
//!   snapshot (gauges and spans included)
//! * `GET  /metrics/history?n=N` — the last N completed epoch windows
//!   (delta reports + trace trees), oldest first
//! * `GET  /trace`    — the latest completed epoch's trace tree
//! * `POST /shutdown` — acknowledge and exit cleanly
//!
//! Every request additionally feeds the obs registry: a
//! `server.http.requests` counter, per-status-class counters
//! (`server.http.status.2xx`, …) and a `server.http.request_us` latency
//! histogram.
//!
//! Requests are handled sequentially on the accept thread: the engine is
//! deterministic, and the serving story is snapshot handoff, not request
//! parallelism — the heavy lifting inside an epoch already runs on the
//! runtime's persistent worker pool. Bad input fails one request, not
//! the process: a body over `MAX_BODY_BYTES` is refused with `413` and a
//! request or header line over `MAX_LINE_BYTES` with `431`, both before
//! anything is buffered; a body that is not UTF-8, or a `Content-Length`
//! that is repeated or not all digits, gets `400`. An ingest
//! body is decoded before the engine lock is taken, in time linear in its
//! length, and malformed JSON (numbers included: RFC 8259's grammar, so
//! no `01` or `1.`) or a report with a missing, repeated or mistyped
//! field gets `400` without touching the engine.
//!
//! With `--epoch-interval-ms N` a ticker thread drives epochs on a
//! timer: every `N` milliseconds it takes the engine lock and, if any
//! reports are pending, runs the same epoch `POST /epoch` would
//! (explicit `POST /epoch` keeps working alongside the timer — both
//! paths serialize on the engine mutex). Ticks and timer-driven
//! epochs are counted in `server.epoch.timer_{ticks,epochs}`. The
//! shutdown route stops the ticker and joins it before the process
//! exits, so a timer-driven server still shuts down cleanly.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use sybil_td::core::{AccountGrouping, AgTr, AgTs, SingletonGrouping, SybilResistantTd};
use sybil_td::platform::{EpochConfig, EpochEngine, ReportRules};
use sybil_td::runtime::json::{parse, Json, ToJson};
use sybil_td::runtime::obs;

const USAGE: &str = "\
srtd-server — epoch-driven truth discovery service

USAGE:
  srtd-server [--port N] [--tasks N] [--method ag-tr|ag-ts|singletons]
              [--epoch-interval-ms N]

--port 0 (the default) binds an ephemeral loopback port; the chosen port
is announced on stdout as `listening on 127.0.0.1:PORT`.
--epoch-interval-ms N runs an epoch every N ms whenever reports are
pending (0, the default, disables the timer; epochs then run only on
POST /epoch).";

/// One engine type for every `--method`: the grouping is boxed, and
/// `EpochEngine::run_epoch` picks incremental or from-scratch re-grouping
/// from the method itself.
type Engine = EpochEngine<Box<dyn AccountGrouping + Send + Sync>>;

/// The engine and the rendered body of its latest snapshot, so that each
/// snapshot is rendered once however often `GET /truths` reads it.
struct Service {
    engine: Engine,
    /// `(epoch, body)` of the last snapshot rendered.
    truths: Option<(u64, Arc<String>)>,
}

impl Service {
    /// Runs one epoch. The rendered body of the previous snapshot is
    /// dropped first, so it is not held through the epoch's allocations.
    fn run_epoch(&mut self) {
        self.truths = None;
        self.engine.run_epoch();
    }

    /// The rendered latest snapshot: the stored body while its epoch is
    /// the latest, else a fresh render (after a timer epoch) that replaces
    /// it.
    fn truths(&mut self) -> Arc<String> {
        let snap = self.engine.latest();
        if let Some((epoch, body)) = &self.truths {
            if *epoch == snap.epoch {
                return Arc::clone(body);
            }
        }
        self.truths = None;
        let body = Arc::new(snap.to_json().render());
        self.truths = Some((snap.epoch, Arc::clone(&body)));
        body
    }
}

/// The grouping method named by `--method`.
fn grouping_method(name: &str) -> Result<Box<dyn AccountGrouping + Send + Sync>, String> {
    Ok(match name {
        "ag-tr" => Box::new(AgTr::default()),
        "ag-ts" => Box::new(AgTs::default()),
        "singletons" => Box::new(SingletonGrouping),
        other => return Err(format!("unknown grouping method `{other}`")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let flags = parse_flags(args)?;
    let port: u16 = flag_parse(&flags, "port", 0)?;
    let tasks: usize = flag_parse(&flags, "tasks", 64)?;
    let epoch_interval_ms: u64 = flag_parse(&flags, "epoch-interval-ms", 0)?;
    let method = flags.get("method").map_or("ag-tr", String::as_str);
    if tasks == 0 {
        return Err("--tasks must be at least 1".into());
    }

    let engine = Engine::new(
        SybilResistantTd::new(grouping_method(method)?),
        tasks,
        EpochConfig::default(),
    )
    .with_report_rules(ReportRules::WifiRssi);
    obs::set_enabled(true);

    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {addr}");
    std::io::stdout().flush().ok();

    // The accept loop and the (optional) epoch ticker share the engine
    // behind one mutex; requests stay effectively sequential, the timer
    // just interleaves whole epochs between them.
    let service = Arc::new(Mutex::new(Service {
        engine,
        truths: None,
    }));
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let ticker = (epoch_interval_ms > 0)
        .then(|| spawn_epoch_ticker(epoch_interval_ms, &service, &stop))
        .transpose()?;

    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("accept error: {e}");
                continue;
            }
        };
        match handle_connection(stream, &service) {
            Ok(keep_serving) => {
                if !keep_serving {
                    break;
                }
            }
            Err(e) => eprintln!("connection error: {e}"),
        }
    }

    // Clean shutdown: wake the ticker, tell it to stop, wait for any
    // in-flight timer epoch to finish.
    let (flag, wake) = &*stop;
    *flag.lock().expect("stop flag poisoned") = true;
    wake.notify_all();
    if let Some(handle) = ticker {
        handle
            .join()
            .map_err(|_| "epoch ticker panicked".to_string())?;
    }
    Ok(())
}

/// Spawns the timer thread behind `--epoch-interval-ms`: every interval
/// it runs one epoch if (and only if) reports are pending, so an idle
/// server does not spin epoch numbers. The `stop` pair wakes it
/// immediately on shutdown.
fn spawn_epoch_ticker(
    interval_ms: u64,
    service: &Arc<Mutex<Service>>,
    stop: &Arc<(Mutex<bool>, Condvar)>,
) -> Result<std::thread::JoinHandle<()>, String> {
    let service = Arc::clone(service);
    let stop = Arc::clone(stop);
    let interval = std::time::Duration::from_millis(interval_ms);
    std::thread::Builder::new()
        .name("srtd-epoch-timer".into())
        .spawn(move || {
            let (flag, wake) = &*stop;
            let mut stopped = flag.lock().expect("stop flag poisoned");
            loop {
                let (guard, timeout) = wake
                    .wait_timeout(stopped, interval)
                    .expect("stop flag poisoned");
                stopped = guard;
                if *stopped {
                    return;
                }
                if timeout.timed_out() {
                    // Drop the stop lock while the epoch runs so shutdown
                    // is never blocked behind engine work.
                    drop(stopped);
                    obs::counter_add("server.epoch.timer_ticks", 1);
                    {
                        let mut service = service.lock().expect("engine poisoned");
                        if service.engine.pending_reports() > 0 {
                            service.run_epoch();
                            obs::counter_add("server.epoch.timer_epochs", 1);
                        }
                    }
                    stopped = flag.lock().expect("stop flag poisoned");
                }
            }
        })
        .map_err(|e| format!("cannot spawn epoch ticker: {e}"))
}

/// Largest request body the server reads; a larger `Content-Length` is
/// answered `413` before any buffer is allocated. A 1000-report ingest
/// batch is about 90 KB.
const MAX_BODY_BYTES: usize = 16 << 20;

/// Longest request or header line the server reads, line ending
/// included; a longer line is answered `431`.
const MAX_LINE_BYTES: usize = 8 << 10;

/// Handles one request on `stream`; `Ok(false)` means a clean shutdown
/// was requested.
fn handle_connection(stream: TcpStream, service: &Mutex<Service>) -> Result<bool, String> {
    let mut reader = BufReader::new(stream);
    let (verb, path, body) = match read_request(&mut reader)? {
        Ok(request) => request,
        Err(refusal) => {
            respond(reader.get_ref(), &refusal)?;
            discard_unread(reader);
            return Ok(true);
        }
    };
    let stream = reader.into_inner();

    let started = std::time::Instant::now();
    let (path, query) = split_query(&path);
    let (response, keep_serving) = route(&verb, path, &query, &body, service);

    // Per-request telemetry: total + status-class counters and a latency
    // histogram. Recorded before the write so even a failed send counts.
    obs::counter_add("server.http.requests", 1);
    obs::counter_add(
        &format!("server.http.status.{}xx", response.status / 100),
        1,
    );
    obs::observe(
        "server.http.request_us",
        started.elapsed().as_secs_f64() * 1e6,
    );

    respond(&stream, &response)?;
    Ok(keep_serving)
}

/// Reads one request as `(verb, path, body)`. The inner `Err` is a
/// response for a request refused before routing (malformed, or over a
/// size limit); the outer one is a failed connection.
fn read_request(
    reader: &mut BufReader<TcpStream>,
) -> Result<Result<(String, String, String), Response>, String> {
    let refuse = |status, message: &str| Ok(Err(Response::json(status, error_json(message))));
    let Some(request_line) = read_line_bounded(reader)? else {
        return refuse(431, "request line too long");
    };
    let mut parts = request_line.split_whitespace();
    let (Some(verb), Some(path)) = (parts.next(), parts.next()) else {
        return refuse(400, "malformed request line");
    };
    let (verb, path) = (verb.to_string(), path.to_string());

    // Headers: only Content-Length matters for this wire format. RFC 9112
    // §6.3 makes a repeated or non-`1*DIGIT` one unrecoverable framing.
    let mut content_length = None;
    loop {
        let Some(line) = read_line_bounded(reader)? else {
            return refuse(431, "header line too long");
        };
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                if content_length.is_some() {
                    return refuse(400, "repeats Content-Length");
                }
                // `usize::from_str` alone would take a leading `+`.
                let value = value.trim();
                match value.parse() {
                    Ok(length) if value.bytes().all(|b| b.is_ascii_digit()) => {
                        content_length = Some(length);
                    }
                    _ => return refuse(400, "bad Content-Length"),
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return refuse(413, &format!("body exceeds {MAX_BODY_BYTES} bytes"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    let Ok(body) = String::from_utf8(body) else {
        return refuse(400, "body is not UTF-8");
    };
    Ok(Ok((verb, path, body)))
}

/// Reads one line of at most [`MAX_LINE_BYTES`]; `None` when it is longer.
fn read_line_bounded(reader: &mut BufReader<TcpStream>) -> Result<Option<String>, String> {
    let mut line = String::new();
    reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    Ok((line.len() <= MAX_LINE_BYTES).then_some(line))
}

/// Half-closes a refused connection and discards what the client is still
/// sending, bounded in bytes and idle time. Closing with unread input
/// would reset the connection before the client reads the refusal.
fn discard_unread(mut reader: BufReader<TcpStream>) {
    let stream = reader.get_ref();
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = std::io::copy(
        &mut reader.by_ref().take(MAX_BODY_BYTES as u64),
        &mut std::io::sink(),
    );
}

/// One route's outcome, before it is written to the socket. The body is
/// shared so that a stored snapshot body is served without a copy.
struct Response {
    status: u16,
    content_type: &'static str,
    body: Arc<String>,
}

impl Response {
    fn json(status: u16, body: impl Into<Arc<String>>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into(),
        }
    }
}

/// Dispatches one parsed request; the bool is `false` after `/shutdown`.
fn route(
    verb: &str,
    path: &str,
    query: &[(String, String)],
    body: &str,
    service: &Mutex<Service>,
) -> (Response, bool) {
    if (verb, path) == ("POST", "/ingest") {
        // Decoded before the engine lock is taken, so an epoch never waits
        // behind a parse.
        let response = match decode_reports(body) {
            Ok(reports) => {
                let mut service = service.lock().expect("engine poisoned");
                Response::json(200, ingest_batch(&mut service.engine, &reports).render())
            }
            Err(e) => Response::json(400, error_json(&e)),
        };
        return (response, true);
    }
    let mut service = service.lock().expect("engine poisoned");
    let engine = &service.engine;
    let param = |name: &str| {
        query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    let response = match (verb, path) {
        ("GET", "/healthz") => {
            let snap = engine.latest();
            let doc = Json::obj([
                ("status", Json::str("ok")),
                // Ready once a first snapshot has been published: before
                // epoch 1 every truth is still `None`.
                ("ready", (snap.epoch > 0).to_json()),
                ("epoch", snap.epoch.to_json()),
                ("generation", snap.generation.to_json()),
                ("pending", engine.pending_reports().to_json()),
                ("last_epoch_duration_ns", snap.duration_ns.to_json()),
            ]);
            Response::json(200, doc.render())
        }
        ("POST", "/epoch") => {
            service.run_epoch();
            Response::json(200, service.truths())
        }
        ("GET", "/truths") => Response::json(200, service.truths()),
        ("GET", "/groups") => {
            let snap = engine.latest();
            let doc = Json::obj([
                ("epoch", snap.epoch.to_json()),
                ("num_groups", snap.num_groups().to_json()),
                ("labels", snap.labels.to_json()),
                ("group_weights", snap.group_weights.to_json()),
            ]);
            Response::json(200, doc.render())
        }
        ("GET", "/metrics") => match param("format") {
            Some("prom") => Response::text(200, obs::prom::render(&obs::snapshot())),
            Some(other) => Response::json(400, error_json(&format!("unknown format `{other}`"))),
            None => Response::json(200, obs::snapshot().deterministic_json()),
        },
        ("GET", "/metrics/history") => {
            let n = match param("n").map(str::parse::<usize>) {
                None => usize::MAX,
                Some(Ok(n)) => n,
                Some(Err(_)) => {
                    return (
                        Response::json(400, error_json("`n` must be a non-negative integer")),
                        true,
                    )
                }
            };
            let windows = obs::history(n);
            let doc = Json::obj([
                ("count", windows.len().to_json()),
                ("windows", Json::arr(windows.iter().map(ToJson::to_json))),
            ]);
            Response::json(200, doc.render())
        }
        ("GET", "/trace") => match obs::latest_window() {
            Some(w) => {
                let doc = Json::obj([
                    ("window", w.index.to_json()),
                    ("label", Json::str(w.label.as_str())),
                    ("trace", Json::arr(w.trace.iter().map(ToJson::to_json))),
                ]);
                Response::json(200, doc.render())
            }
            None => Response::json(404, error_json("no completed epoch window yet")),
        },
        ("POST", "/shutdown") => {
            let doc = Json::obj([("status", Json::str("shutting down"))]);
            return (Response::json(200, doc.render()), false);
        }
        _ => Response::json(404, error_json(&format!("no route {verb} {path}"))),
    };
    (response, true)
}

/// Splits `/path?k=v&k2=v2` into the path and its query pairs (values
/// may be empty; no percent-decoding — the wire format never needs it).
fn split_query(path: &str) -> (&str, Vec<(String, String)>) {
    match path.split_once('?') {
        None => (path, Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|pair| !pair.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (pair.to_string(), String::new()),
                })
                .collect();
            (path, pairs)
        }
    }
}

/// One report of an ingest body: `(account, task, value, timestamp)`.
type Report = (usize, usize, f64, f64);

/// Decodes an ingest body into its reports. Invalid JSON, a repeated
/// `reports` key, or a report with a missing, repeated or mistyped field
/// fails the whole request.
fn decode_reports(body: &str) -> Result<Vec<Report>, String> {
    let doc = parse(body).map_err(|e| e.to_string())?;
    let Json::Obj(fields) = &doc else {
        return Err("expected a JSON object".into());
    };
    let reports = unique_field(fields, "reports")?.ok_or("missing `reports` array")?;
    let Json::Arr(reports) = reports else {
        return Err("`reports` must be an array".into());
    };
    reports
        .iter()
        .enumerate()
        .map(|(i, report)| report_fields(report).map_err(|e| format!("report {i}: {e}")))
        .collect()
}

/// Feeds decoded reports to the engine; per-report rejections are part of
/// the successful response.
fn ingest_batch(engine: &mut Engine, reports: &[Report]) -> Json {
    let mut accepted = 0usize;
    let mut rejections = Vec::new();
    for (i, &(account, task, value, timestamp)) in reports.iter().enumerate() {
        match engine.ingest(account, task, value, timestamp) {
            Ok(()) => accepted += 1,
            Err(e) => rejections.push(Json::obj([
                ("index", i.to_json()),
                ("reason", Json::str(e.to_string())),
            ])),
        }
    }
    Json::obj([
        ("accepted", accepted.to_json()),
        ("rejected", rejections.len().to_json()),
        ("rejections", Json::Arr(rejections)),
        ("pending", engine.pending_reports().to_json()),
    ])
}

/// The value of object field `name`, if present. No field may appear
/// twice: which occurrence would win is ambiguous.
fn unique_field<'a>(fields: &'a [(String, Json)], name: &str) -> Result<Option<&'a Json>, String> {
    let mut values = fields.iter().filter(|(k, _)| k == name).map(|(_, v)| v);
    match (values.next(), values.next()) {
        (_, Some(_)) => Err(format!("repeats `{name}`")),
        (value, None) => Ok(value),
    }
}

/// One report's fields: each at most once, and indices must be
/// non-negative integers.
fn report_fields(report: &Json) -> Result<Report, String> {
    const NEED: &str = "need account, task, value, timestamp";
    let Json::Obj(fields) = report else {
        return Err(NEED.into());
    };
    let num = |name: &str| -> Result<Option<f64>, String> {
        match unique_field(fields, name)? {
            Some(Json::Num(x)) => Ok(Some(*x)),
            _ => Ok(None),
        }
    };
    let index = |name: &str| -> Result<Option<usize>, String> {
        Ok(num(name)?
            .filter(|x| x.fract() == 0.0 && *x >= 0.0)
            .map(|x| x as usize))
    };
    match (
        index("account")?,
        index("task")?,
        num("value")?,
        num("timestamp")?,
    ) {
        (Some(account), Some(task), Some(value), Some(timestamp)) => {
            Ok((account, task, value, timestamp))
        }
        _ => Err(NEED.into()),
    }
}

fn error_json(message: &str) -> String {
    Json::obj([("error", Json::str(message))]).render()
}

fn respond(mut stream: &TcpStream, response: &Response) -> Result<(), String> {
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.content_type,
        response.body.len(),
    );
    // The head and the shared body go out together from their own
    // buffers (one `writev` while the socket takes it all), so a stored
    // snapshot body is never copied.
    let mut slices = [
        IoSlice::new(head.as_bytes()),
        IoSlice::new(response.body.as_bytes()),
    ];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match stream.write_vectored(unsent) {
            Ok(0) => return Err("connection closed mid-response".to_string()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    stream.flush().map_err(|e| e.to_string())
}

/// Every flag `srtd-server` takes; each takes a value.
const FLAGS: &[&str] = &["port", "tasks", "method", "epoch-interval-ms"];

/// Parses `--name value` pairs; an unknown flag is an error, so a typo
/// fails before the server binds instead of being silently ignored.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{flag}`"));
        };
        if !FLAGS.contains(&name) {
            return Err(format!("unknown flag `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag_parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{name}: cannot parse `{raw}`")),
        None => Ok(default),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybil_td::platform::IngestError;
    use sybil_td::runtime::prop::{self, PropConfig};
    use sybil_td::runtime::prop_assert;
    use sybil_td::runtime::rng::{Rng, StdRng};

    const CASES: PropConfig = PropConfig {
        cases: 48,
        seed: 0x10ad_5eed,
    };

    const FIELDS: [&str; 4] = ["account", "task", "value", "timestamp"];

    /// A batch of valid reports. Values and timestamps are mostly of a
    /// sensing campaign's size, sometimes arbitrary finite bit patterns
    /// (hundreds of digits long); decoding must be bit-exact either way.
    fn arbitrary_reports(rng: &mut StdRng) -> Vec<Report> {
        let finite = |rng: &mut StdRng| loop {
            if rng.gen_bool(0.9) {
                break rng.gen_range(-1e5..1e5);
            }
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        };
        prop::vec_with(rng, 1..4, |rng| {
            (
                rng.gen_range(0..1 << 20),
                rng.gen_range(0..1_000),
                finite(rng),
                finite(rng),
            )
        })
    }

    /// Each report as its `(field, value)` list, in wire order.
    fn report_objects(reports: &[Report]) -> Vec<Vec<(String, Json)>> {
        reports
            .iter()
            .map(|&(account, task, value, timestamp)| {
                let values = [
                    account.to_json(),
                    task.to_json(),
                    value.to_json(),
                    timestamp.to_json(),
                ];
                FIELDS.iter().map(|f| f.to_string()).zip(values).collect()
            })
            .collect()
    }

    fn ingest_body(reports: Vec<Vec<(String, Json)>>) -> String {
        Json::Obj(vec![(
            "reports".into(),
            Json::arr(reports.into_iter().map(Json::Obj)),
        )])
        .render()
    }

    fn bits(reports: &[Report]) -> Vec<(usize, usize, u64, u64)> {
        reports
            .iter()
            .map(|&(a, t, v, s)| (a, t, v.to_bits(), s.to_bits()))
            .collect()
    }

    #[test]
    fn rendered_batches_decode_exactly_and_their_prefixes_fail() {
        prop::check_with(CASES, arbitrary_reports, |reports| {
            let body = ingest_body(report_objects(reports));
            let decoded = decode_reports(&body)?;
            prop_assert!(bits(&decoded) == bits(reports), "decoded {decoded:?}");
            for end in 0..body.len() {
                let prefix = &body[..end];
                match parse(prefix) {
                    Ok(doc) => return Err(format!("prefix {end} parsed as {doc:?}")),
                    Err(e) => prop_assert!(e.offset <= end, "offset {} > {end}", e.offset),
                }
                prop_assert!(decode_reports(prefix).is_err(), "prefix {end} decoded");
            }
            Ok(())
        });
    }

    #[test]
    fn a_malformed_report_fails_the_whole_request() {
        prop::check_with(
            CASES,
            |rng| {
                let reports = arbitrary_reports(rng);
                let victim = rng.gen_range(0..reports.len());
                let field = rng.gen_range(0..FIELDS.len());
                // The last two kinds, negative and fractional numbers, are
                // wrong for the indices only.
                let kinds = if field < 2 { 9 } else { 7 };
                (reports, victim, field, rng.gen_range(0..kinds))
            },
            |&(ref reports, victim, field, kind)| {
                let mut objects = report_objects(reports);
                let report = &mut objects[victim];
                match kind {
                    0 => {
                        report.remove(field);
                    }
                    // Repeated, even with the same value.
                    1 => report.push(report[field].clone()),
                    _ => {
                        let wrong = [
                            Json::str("1"),
                            Json::Bool(true),
                            Json::Null,
                            Json::arr([Json::Num(1.0)]),
                            Json::obj([("x", Json::Num(1.0))]),
                            Json::Num(-1.0),
                            Json::Num(0.5),
                        ];
                        report[field].1 = wrong[kind - 2].clone();
                    }
                }
                match decode_reports(&ingest_body(objects)) {
                    Ok(decoded) => Err(format!("decoded {decoded:?}")),
                    Err(e) => {
                        prop_assert!(e.starts_with(&format!("report {victim}: ")), "{e}");
                        Ok(())
                    }
                }
            },
        );
    }

    #[test]
    fn a_repeated_reports_key_fails_the_whole_request() {
        let report = r#"{"account":0,"task":0,"value":-70,"timestamp":1}"#;
        for body in [
            format!(r#"{{"reports":[],"reports":[{report}]}}"#),
            format!(r#"{{"reports":[{report}],"reports":[]}}"#),
            format!(r#"{{"reports":[{report}],"other":1,"reports":[{report}]}}"#),
        ] {
            assert_eq!(
                decode_reports(&body),
                Err("repeats `reports`".into()),
                "{body}"
            );
        }
    }

    #[test]
    fn unknown_flags_are_refused() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        for typo in ["--epoch-intervl-ms", "--shards"] {
            assert_eq!(
                parse_flags(&args(&[typo, "8"])),
                Err(format!("unknown flag `{typo}`"))
            );
        }
        let flags = parse_flags(&args(&["--tasks", "8", "--epoch-interval-ms", "50"])).unwrap();
        assert_eq!(flags["tasks"], "8");
        assert_eq!(flags["epoch-interval-ms"], "50");
    }

    #[test]
    fn an_account_past_the_limit_decodes_and_the_engine_rejects_it() {
        let body = r#"{"reports":[{"account":1e15,"task":0,"value":-70,"timestamp":1}]}"#;
        let reports = decode_reports(body).unwrap();
        assert_eq!(reports, vec![(1_000_000_000_000_000, 0, -70.0, 1.0)]);
        let mut engine = Engine::new(
            SybilResistantTd::new(grouping_method("singletons").unwrap()),
            4,
            EpochConfig::default(),
        );
        let (account, task, value, timestamp) = reports[0];
        assert_eq!(
            engine.ingest(account, task, value, timestamp),
            Err(IngestError::AccountOutOfRange { account })
        );
    }
}
