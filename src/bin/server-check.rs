//! `server-check` — end-to-end smoke test of `srtd-server`, used by
//! `scripts/verify.sh`.
//!
//! ```text
//! server-check <path-to-srtd-server>
//! ```
//!
//! Spawns the server on an ephemeral loopback port and drives the whole
//! epoch lifecycle over real HTTP: health check, a mixed ingest batch
//! (valid reports plus a deliberate duplicate), two epochs — asserting
//! the second, steady-state epoch warm-starts and converges in ≤2
//! iterations — then truths/groups/metrics reads (every response must be
//! well-formed JSON), the telemetry timeline (`/metrics/history?n=2`
//! returns two windows whose epoch-counter deltas sum to the cumulative
//! `/metrics` values; `/trace` names the fold/regroup/discover/swap
//! stages; `?format=prom` exposes the counter families), and a clean
//! shutdown with exit status 0.
//!
//! A second phase spawns an AG-TR server and mirrors the same ingest
//! schedule into an in-process engine whose grouping has no edge view,
//! so its `EpochEngine::run_epoch` re-groups from scratch, and which
//! admits reports under the server's `ReportRules::WifiRssi`: the server's
//! incremental re-grouping path must publish snapshots whose truths,
//! labels, and group weights are identical (the JSON renderer is
//! shortest-roundtrip, so the comparison is bitwise) across a
//! multi-epoch drive with a Sybil ring, a mid-stream account, and an
//! empty steady-state epoch.
//!
//! A third phase spawns a server with `--epoch-interval-ms 20` and
//! checks the timer contract: an ingested batch is folded into a
//! published snapshot without any `POST /epoch` (and `GET /truths`
//! serves it, not the empty snapshot read before), idle ticks do not run
//! empty epochs, and shutdown joins the ticker cleanly.
//!
//! A fourth phase probes the input limits: a `Content-Length` of
//! `usize::MAX` gets `413`, an over-long header line `431`, and an 8 MiB
//! JSON string body, a non-UTF-8 body, a `01` account, a report missing a
//! field, a body repeating its `reports` key, a repeated `Content-Length`
//! and a `+61` one each get `400`, the string body within the 5 s every
//! reply is given. `/healthz` answers after each probe with nothing
//! buffered, and a report for account `1e15` comes back as a per-report
//! `AccountOutOfRange` rejection while the next `POST /epoch` still
//! succeeds.
//!
//! A fifth phase checks the Wi-Fi admission rules over HTTP: values 20,
//! −120 and 0, then an equal and a backwards timestamp for one account.
//! The 20 dBm and the backwards report are refused per report with
//! `IngestError`'s reasons, the other three are accepted, and only they
//! are buffered.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Duration;

use sybil_td::core::{AccountGrouping, AgTr, Grouping, SybilResistantTd};
use sybil_td::platform::{EpochConfig, EpochEngine, IngestError, ReportRules};
use sybil_td::runtime::json::{parse, Json, ToJson};
use sybil_td::truth::SensingData;

fn main() -> ExitCode {
    let Some(server_path) = std::env::args().nth(1) else {
        eprintln!("usage: server-check <path-to-srtd-server>");
        return ExitCode::FAILURE;
    };
    match run(&server_path) {
        Ok(()) => {
            println!("server-check: ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("server-check: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(server_path: &str) -> Result<(), String> {
    with_server(
        server_path,
        &["--port", "0", "--tasks", "4", "--method", "singletons"],
        drive,
    )?;
    with_server(
        server_path,
        &["--port", "0", "--tasks", "6", "--method", "ag-tr"],
        drive_incremental_equivalence,
    )?;
    with_server(
        server_path,
        &[
            "--port",
            "0",
            "--tasks",
            "4",
            "--method",
            "singletons",
            "--epoch-interval-ms",
            "20",
        ],
        drive_timer_epochs,
    )?;
    with_server(
        server_path,
        &["--port", "0", "--tasks", "4", "--method", "singletons"],
        drive_limit_probes,
    )?;
    with_server(
        server_path,
        &["--port", "0", "--tasks", "5", "--method", "singletons"],
        drive_report_rules,
    )
}

/// Spawns the server with `args`, hands its announced address to `f`,
/// and insists on a clean exit.
fn with_server(
    server_path: &str,
    args: &[&str],
    f: fn(&str) -> Result<(), String>,
) -> Result<(), String> {
    let mut child = Command::new(server_path)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {server_path}: {e}"))?;
    let result = announced_addr(&mut child).and_then(|addr| f(&addr));
    if result.is_err() {
        let _ = child.kill();
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for server: {e}"))?;
    result?;
    if !status.success() {
        return Err(format!("server exited with {status}"));
    }
    Ok(())
}

/// The server announces its ephemeral port on stdout before accepting.
fn announced_addr(child: &mut Child) -> Result<String, String> {
    let stdout = child.stdout.take().ok_or("no stdout pipe")?;
    let mut first_line = String::new();
    BufReader::new(stdout)
        .read_line(&mut first_line)
        .map_err(|e| e.to_string())?;
    Ok(first_line
        .trim()
        .strip_prefix("listening on ")
        .ok_or_else(|| format!("unexpected announcement {first_line:?}"))?
        .to_string())
}

fn drive(addr: &str) -> Result<(), String> {
    // Liveness — and not yet ready: nothing published before epoch 1.
    let health = request(addr, "GET", "/healthz", None)?;
    expect_num(&health, "epoch", 0.0)?;
    if field(&health, "ready") != Some(&Json::Bool(false)) {
        return Err("healthz must report ready=false before the first epoch".into());
    }

    // A mixed batch: four valid reports, one duplicate to be rejected.
    let batch = r#"{"reports":[
        {"account":0,"task":0,"value":-70.0,"timestamp":1.0},
        {"account":1,"task":0,"value":-74.0,"timestamp":2.0},
        {"account":1,"task":1,"value":-61.0,"timestamp":3.0},
        {"account":2,"task":0,"value":-71.0,"timestamp":4.0},
        {"account":0,"task":0,"value":-99.0,"timestamp":5.0}
    ]}"#;
    let ingest = request(addr, "POST", "/ingest", Some(batch))?;
    expect_num(&ingest, "accepted", 4.0)?;
    expect_num(&ingest, "rejected", 1.0)?;

    // Epoch 1: cold.
    let first = request(addr, "POST", "/epoch", None)?;
    expect_num(&first, "epoch", 1.0)?;
    expect_num(&first, "folded", 4.0)?;
    if field(&first, "warm_started") != Some(&Json::Bool(false)) {
        return Err("epoch 1 must run cold".into());
    }

    // Epoch 2: unchanged reports — the steady-state warm-start contract.
    let second = request(addr, "POST", "/epoch", None)?;
    expect_num(&second, "epoch", 2.0)?;
    expect_num(&second, "folded", 0.0)?;
    if field(&second, "warm_started") != Some(&Json::Bool(true)) {
        return Err("epoch 2 must warm-start".into());
    }
    match field(&second, "iterations") {
        Some(Json::Num(n)) if *n <= 2.0 => {}
        other => return Err(format!("warm epoch took {other:?} iterations, want ≤2")),
    }

    // Published snapshot: well-formed, the right shape.
    let truths = request(addr, "GET", "/truths", None)?;
    expect_num(&truths, "num_reports", 4.0)?;
    match field(&truths, "truths") {
        Some(Json::Arr(ts)) if ts.len() == 4 => {
            if !matches!(ts[0], Json::Num(v) if (-75.0..=-70.0).contains(&v)) {
                return Err(format!("task 0 truth {:?} outside the report hull", ts[0]));
            }
        }
        other => return Err(format!("bad truths array: {other:?}")),
    }

    let groups = request(addr, "GET", "/groups", None)?;
    expect_num(&groups, "num_groups", 3.0)?;

    // Readiness after two epochs: published snapshot, measured duration.
    let health = request(addr, "GET", "/healthz", None)?;
    expect_num(&health, "epoch", 2.0)?;
    if field(&health, "ready") != Some(&Json::Bool(true)) {
        return Err("healthz must report ready=true after an epoch".into());
    }
    match field(&health, "last_epoch_duration_ns") {
        Some(Json::Num(ns)) if *ns > 0.0 => {}
        other => return Err(format!("bad last_epoch_duration_ns: {other:?}")),
    }

    // Metrics: the obs export must carry the epoch-loop counters.
    let metrics_raw = request_raw(addr, "GET", "/metrics", None)?;
    for name in [
        "server.epoch.ingested",
        "server.epoch.folded",
        "server.epoch.iterations",
        "server.epoch.snapshot_swaps",
        "server.http.requests",
        "server.http.status.2xx",
    ] {
        if !metrics_raw.contains(name) {
            return Err(format!("metrics export is missing `{name}`"));
        }
    }
    let metrics = parse(&metrics_raw).map_err(|e| format!("metrics is not valid JSON: {e}"))?;

    // Timeline: two epochs → two retained windows whose epoch-counter
    // deltas sum to the cumulative /metrics values (the HTTP counters
    // keep moving between windows, so only the epoch family tiles).
    let history = request(addr, "GET", "/metrics/history?n=2", None)?;
    expect_num(&history, "count", 2.0)?;
    let Some(Json::Arr(windows)) = field(&history, "windows") else {
        return Err("history response is missing `windows`".into());
    };
    if windows.len() != 2 {
        return Err(format!("want 2 history windows, got {}", windows.len()));
    }
    for name in [
        "server.epoch.ingested",
        "server.epoch.folded",
        "server.epoch.iterations",
        "server.epoch.snapshot_swaps",
    ] {
        let delta_sum: f64 = windows
            .iter()
            .map(|w| {
                field(w, "counters")
                    .and_then(|c| field(c, name))
                    .map_or(0.0, |v| if let Json::Num(x) = v { *x } else { 0.0 })
            })
            .sum();
        let cumulative = field(&metrics, "counters")
            .and_then(|c| field(c, name))
            .map_or(0.0, |v| if let Json::Num(x) = v { *x } else { 0.0 });
        if delta_sum != cumulative {
            return Err(format!(
                "`{name}`: window deltas sum to {delta_sum}, cumulative is {cumulative}"
            ));
        }
    }

    // Trace: the latest epoch's tree attributes the pipeline stages.
    let trace_raw = request_raw(addr, "GET", "/trace", None)?;
    let trace = parse(&trace_raw).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    if field(&trace, "trace").is_none() {
        return Err("trace response is missing `trace`".into());
    }
    for stage in [
        "server.epoch",
        "epoch.fold",
        "epoch.regroup",
        "epoch.discover",
        "epoch.swap",
    ] {
        if !trace_raw.contains(stage) {
            return Err(format!("trace is missing stage `{stage}`"));
        }
    }

    // Prometheus exposition: text format, counter families present.
    let prom = request_raw(addr, "GET", "/metrics?format=prom", None)?;
    for needle in [
        "# TYPE srtd_server_epoch_ingested_total counter",
        "srtd_server_epoch_ingested_total 4",
        "srtd_server_http_request_us_bucket{le=\"+Inf\"}",
    ] {
        if !prom.contains(needle) {
            return Err(format!("prom exposition is missing `{needle}`:\n{prom}"));
        }
    }

    shutdown(addr)
}

/// Phase 2: the server's incremental epoch path must publish snapshots
/// identical to the batch path. The same ingest schedule feeds the AG-TR
/// server over HTTP and an in-process batch engine; truths, labels, and
/// group weights must agree bitwise every epoch. The schedule exercises
/// all three incremental regimes: a cold first epoch with a Sybil ring
/// (accounts 0–2 replay one walk 30–65 s apart), a growth epoch adding
/// account 4 while account 3 folds new reports (forcing the rebuild
/// regime), and an empty steady-state epoch.
fn drive_incremental_equivalence(addr: &str) -> Result<(), String> {
    let mut mirror = EpochEngine::new(
        SybilResistantTd::new(FromScratch(AgTr::default())),
        6,
        EpochConfig::default(),
    )
    .with_report_rules(ReportRules::WifiRssi);
    let epochs: [&[(usize, usize, f64, f64)]; 3] = [
        &[
            (0, 0, -70.0, 100.0),
            (0, 1, -69.0, 160.0),
            (0, 2, -71.0, 220.0),
            (1, 0, -70.5, 130.0),
            (1, 1, -69.5, 190.0),
            (1, 2, -70.8, 250.0),
            (2, 0, -70.2, 165.0),
            (2, 1, -69.2, 225.0),
            (2, 2, -71.2, 285.0),
            (3, 2, -64.0, 500.0),
            (3, 0, -75.0, 560.0),
        ],
        &[
            (3, 5, -66.0, 620.0),
            (4, 3, -80.0, 700.0),
            (4, 4, -58.0, 760.0),
        ],
        &[],
    ];
    for (i, batch) in epochs.iter().enumerate() {
        if !batch.is_empty() {
            let reports: Vec<String> = batch
                .iter()
                .map(|(a, t, v, ts)| {
                    format!(r#"{{"account":{a},"task":{t},"value":{v},"timestamp":{ts}}}"#)
                })
                .collect();
            let body = format!(r#"{{"reports":[{}]}}"#, reports.join(","));
            let ingest = request(addr, "POST", "/ingest", Some(&body))?;
            expect_num(&ingest, "accepted", batch.len() as f64)?;
            for &(a, t, v, ts) in batch.iter() {
                mirror
                    .ingest(a, t, v, ts)
                    .map_err(|e| format!("mirror rejected ({a},{t}): {e}"))?;
            }
        }
        let http_snap = request(addr, "POST", "/epoch", None)?;
        let batch_snap = mirror.run_epoch().to_json();
        for name in [
            "epoch",
            "generation",
            "num_accounts",
            "num_reports",
            "folded",
            "truths",
            "labels",
            "group_weights",
        ] {
            if field(&http_snap, name) != field(&batch_snap, name) {
                return Err(format!(
                    "epoch {}: incremental `{name}` {:?} != batch {:?}",
                    i + 1,
                    field(&http_snap, name),
                    field(&batch_snap, name)
                ));
            }
        }
    }
    // The equivalence is non-trivial: AG-TR groups the replayed ring.
    let groups = request(addr, "GET", "/groups", None)?;
    match field(&groups, "labels") {
        Some(Json::Arr(ls)) if ls.len() == 5 => {
            if ls[0] != ls[1] || ls[1] != ls[2] {
                return Err(format!("ring not grouped: {ls:?}"));
            }
            if ls[3] == ls[0] || ls[4] == ls[0] {
                return Err(format!("honest accounts joined the ring: {ls:?}"));
            }
        }
        other => return Err(format!("bad labels: {other:?}")),
    }
    shutdown(addr)
}

/// Phase 2's batch reference: forwards `group()` and `name()` only, so it
/// has no edge view and the mirror re-groups the whole campaign each
/// epoch.
struct FromScratch(AgTr);

impl AccountGrouping for FromScratch {
    fn group(&self, data: &SensingData, fingerprints: &[Vec<f64>]) -> Grouping {
        self.0.group(data, fingerprints)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Phase 3: timer-driven epochs. With `--epoch-interval-ms 20` the
/// server must publish a snapshot on its own after an ingest (no
/// explicit `POST /epoch`), serve it at `GET /truths` although an earlier
/// snapshot was already rendered, must *not* spin epoch numbers while idle
/// (timer epochs only run when reports are pending), and must still
/// shut down cleanly with the ticker thread joined.
fn drive_timer_epochs(addr: &str) -> Result<(), String> {
    // Render the empty snapshot now, so the read after the timer epoch
    // must not be served the stored body.
    let empty = request(addr, "GET", "/truths", None)?;
    expect_num(&empty, "epoch", 0.0)?;

    let batch = r#"{"reports":[
        {"account":0,"task":0,"value":-70.0,"timestamp":1.0},
        {"account":1,"task":1,"value":-64.0,"timestamp":2.0}
    ]}"#;
    let ingest = request(addr, "POST", "/ingest", Some(batch))?;
    expect_num(&ingest, "accepted", 2.0)?;

    // Poll readiness: the ticker fires every 20 ms, so a snapshot must
    // appear well within the deadline without any POST /epoch.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let epoch = loop {
        let health = request(addr, "GET", "/healthz", None)?;
        if field(&health, "ready") == Some(&Json::Bool(true)) {
            match field(&health, "epoch") {
                Some(Json::Num(e)) => break *e,
                other => return Err(format!("bad epoch field: {other:?}")),
            }
        }
        if std::time::Instant::now() > deadline {
            return Err("timer never published an epoch".into());
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    if epoch != 1.0 {
        return Err(format!("want exactly one timer epoch, got {epoch}"));
    }

    // The published snapshot folded the ingested reports.
    let truths = request(addr, "GET", "/truths", None)?;
    expect_num(&truths, "num_reports", 2.0)?;

    // Idle ticks must not run epochs: after a few more intervals the
    // epoch counter is unchanged, while the tick counter kept moving.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let health = request(addr, "GET", "/healthz", None)?;
    expect_num(&health, "epoch", 1.0)?;
    let metrics = request_raw(addr, "GET", "/metrics", None)?;
    for name in ["server.epoch.timer_ticks", "server.epoch.timer_epochs"] {
        if !metrics.contains(name) {
            return Err(format!("metrics export is missing `{name}`"));
        }
    }

    shutdown(addr)
}

/// Phase 4: bad input fails one request, never the process. An
/// oversized `Content-Length` and an over-long header line are refused
/// before anything is buffered, and bodies that are not UTF-8, not
/// RFC 8259 JSON or not a well-formed report batch are refused without
/// touching the engine. An 8 MiB string must be answered within the reply
/// timeout: a parse quadratic in its length would hold the engine for
/// about 25 minutes. An account index past the engine's limit is a
/// per-report rejection; the server keeps answering, and the epoch after
/// the rejection runs normally.
fn drive_limit_probes(addr: &str) -> Result<(), String> {
    let oversized = format!(
        "POST /ingest HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
        usize::MAX
    );
    let long_header = format!(
        "GET /healthz HTTP/1.1\r\nHost: {addr}\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(64 << 10)
    );
    let long_string = format!(r#"{{"reports":"{}"}}"#, "a".repeat(8 << 20));
    let valid = r#"{"account":0,"task":0,"value":-70,"timestamp":1}"#;
    let leading_zero =
        format!(r#"{{"reports":[{valid},{{"account":01,"task":1,"value":-70,"timestamp":2}}]}}"#);
    let missing_field = format!(r#"{{"reports":[{valid},{{"account":1,"task":0,"value":-70}}]}}"#);
    // Taking the first `reports` would buffer nothing and answer 200.
    let repeated_reports = format!(r#"{{"reports":[],"reports":[{valid}]}}"#);
    // Letting the last `Content-Length` win, or parsing a signed one,
    // would buffer the report.
    let body = format!(r#"{{"reports":[{valid}]}}"#);
    let framed = |lengths: &str| {
        format!("POST /ingest HTTP/1.1\r\nHost: {addr}\r\n{lengths}\r\n{body}").into_bytes()
    };
    let n = body.len();
    let repeated_length = framed(&format!("Content-Length: 2\r\nContent-Length: {n}\r\n"));
    let signed_length = framed(&format!("Content-Length: +{n}\r\n"));
    let probes = [
        (oversized.into_bytes(), "413"),
        (long_header.into_bytes(), "431"),
        (wire(addr, "POST", "/ingest", long_string.as_bytes()), "400"),
        (
            wire(addr, "POST", "/ingest", b"{\"reports\":[\xff]}"),
            "400",
        ),
        (
            wire(addr, "POST", "/ingest", leading_zero.as_bytes()),
            "400",
        ),
        (
            wire(addr, "POST", "/ingest", missing_field.as_bytes()),
            "400",
        ),
        (
            wire(addr, "POST", "/ingest", repeated_reports.as_bytes()),
            "400",
        ),
        (repeated_length, "400"),
        (signed_length, "400"),
    ];
    for (raw, want) in probes {
        let (status, body) = exchange(addr, &raw)?;
        if status != want {
            return Err(format!("limit probe: status {status}, want {want}: {body}"));
        }
        let health = request(addr, "GET", "/healthz", None)?;
        expect_num(&health, "epoch", 0.0)?;
        expect_num(&health, "pending", 0.0)?;
    }

    // `1e15` is a valid JSON integer and a valid `usize`, but folding it
    // would size the campaign to 10^15 accounts.
    let batch = r#"{"reports":[
        {"account":1e15,"task":0,"value":-70,"timestamp":1},
        {"account":0,"task":0,"value":-70,"timestamp":2}
    ]}"#;
    let ingest = request(addr, "POST", "/ingest", Some(batch))?;
    expect_num(&ingest, "accepted", 1.0)?;
    expect_rejections(
        &ingest,
        &[(
            0,
            IngestError::AccountOutOfRange {
                account: 1_000_000_000_000_000,
            },
        )],
    )?;
    let snap = request(addr, "POST", "/epoch", None)?;
    expect_num(&snap, "epoch", 1.0)?;
    expect_num(&snap, "num_accounts", 1.0)?;
    let health = request(addr, "GET", "/healthz", None)?;
    expect_num(&health, "epoch", 1.0)?;
    shutdown(addr)
}

/// Phase 5: the server admits reports under `ReportRules::WifiRssi`. A
/// +20 dBm value and a timestamp behind the account's latest accepted
/// one are refused per report; the band's ends and an equal timestamp
/// are accepted, and nothing refused is buffered.
fn drive_report_rules(addr: &str) -> Result<(), String> {
    let batch = r#"{"reports":[
        {"account":0,"task":0,"value":20,"timestamp":100},
        {"account":0,"task":1,"value":-120,"timestamp":100},
        {"account":0,"task":2,"value":0,"timestamp":110},
        {"account":0,"task":3,"value":-70,"timestamp":110},
        {"account":0,"task":4,"value":-70,"timestamp":105}
    ]}"#;
    let ingest = request(addr, "POST", "/ingest", Some(batch))?;
    expect_num(&ingest, "accepted", 3.0)?;
    expect_num(&ingest, "pending", 3.0)?;
    expect_rejections(
        &ingest,
        &[
            (0, IngestError::ImplausibleValue { value: 20.0 }),
            (4, IngestError::NonMonotoneTimestamp),
        ],
    )?;
    let health = request(addr, "GET", "/healthz", None)?;
    expect_num(&health, "pending", 3.0)?;
    let snap = request(addr, "POST", "/epoch", None)?;
    expect_num(&snap, "folded", 3.0)?;
    shutdown(addr)
}

/// Checks an ingest reply's per-report rejections, in order: each one's
/// index and reason (`IngestError`'s `Display`).
fn expect_rejections(ingest: &Json, want: &[(usize, IngestError)]) -> Result<(), String> {
    expect_num(ingest, "rejected", want.len() as f64)?;
    let want = Json::arr(want.iter().map(|&(index, e)| {
        Json::obj([
            ("index", index.to_json()),
            ("reason", Json::str(e.to_string())),
        ])
    }));
    match field(ingest, "rejections") {
        Some(got) if *got == want => Ok(()),
        got => Err(format!("rejections: want {want:?}, got {got:?}")),
    }
}

/// Asks the server to exit and checks the acknowledgement.
fn shutdown(addr: &str) -> Result<(), String> {
    let bye = request(addr, "POST", "/shutdown", None)?;
    if field(&bye, "status") != Some(&Json::str("shutting down")) {
        return Err("shutdown not acknowledged".into());
    }
    Ok(())
}

/// One HTTP request; the response body must parse as JSON.
fn request(addr: &str, verb: &str, path: &str, body: Option<&str>) -> Result<Json, String> {
    let raw = request_raw(addr, verb, path, body)?;
    parse(&raw).map_err(|e| format!("{verb} {path}: invalid JSON response: {e}"))
}

fn request_raw(addr: &str, verb: &str, path: &str, body: Option<&str>) -> Result<String, String> {
    let raw = wire(addr, verb, path, body.unwrap_or("").as_bytes());
    let (status, payload) = exchange(addr, &raw)?;
    if status != "200" {
        return Err(format!("{verb} {path}: status {status}, body {payload}"));
    }
    Ok(payload)
}

/// One request's bytes on the wire; the body need not be UTF-8.
fn wire(addr: &str, verb: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{verb} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// How long any read of a reply may block: every request here is answered
/// in milliseconds, so a server that stalls fails the check instead of
/// hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Sends `raw` on a fresh connection; returns the status code and body.
fn exchange(addr: &str, raw: &[u8]) -> Result<(String, String), String> {
    let what = String::from_utf8_lossy(&raw[..raw.len().min(40)]);
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream.write_all(raw).map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("no reply to {what:?} within {REPLY_TIMEOUT:?}: {e}"))?;
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response to {what:?}"))?;
    let status = head.split_whitespace().nth(1).unwrap_or("");
    Ok((status.to_string(), payload.to_string()))
}

fn field<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    let Json::Obj(fields) = doc else { return None };
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn expect_num(doc: &Json, name: &str, want: f64) -> Result<(), String> {
    match field(doc, name) {
        Some(Json::Num(x)) if *x == want => Ok(()),
        other => Err(format!("field `{name}`: want {want}, got {other:?}")),
    }
}
