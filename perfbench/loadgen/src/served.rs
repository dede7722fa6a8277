//! The HTTP side: set-up against a fresh server, then the measured
//! replay, one request at a time on one thread.

use crate::http::{self, Reply, Server};
use crate::replay::Shadow;
use crate::workload::{Op, Plan};
use std::path::Path;
use std::time::{Duration, Instant};

/// One set-up: spawn, load the base at the workload's request size,
/// close the first epoch.
pub struct Setup {
    pub server: Server,
    /// Spawn to first `POST /epoch` returned.
    pub seconds: f64,
    pub epoch_body: String,
    pub base_replies: Vec<Reply>,
}

pub fn setup(binary: &Path, plan: &Plan) -> Result<Setup, String> {
    let wires: Vec<Vec<u8>> = plan
        .base
        .iter()
        .map(|r| http::wire("POST", "/ingest", &r.body))
        .collect();
    let epoch = http::wire("POST", "/epoch", "");
    let started = Instant::now();
    let server = Server::spawn(binary, plan.workload.method.flag(), plan.stream.num_tasks)?;
    let mut base_replies = Vec::with_capacity(wires.len());
    for wire in &wires {
        base_replies.push(http::send(server.addr, wire)?);
    }
    let reply = http::send(server.addr, &epoch)?;
    let seconds = started.elapsed().as_secs_f64();
    if reply.status != 200 {
        return Err(format!("set-up epoch answered {}", reply.status));
    }
    Ok(Setup {
        server,
        seconds,
        epoch_body: reply.body,
        base_replies,
    })
}

/// One measured operation. Times are seconds from the start of the
/// measured phase.
pub struct Record {
    pub op: Op,
    /// When the request was due: its slot in the schedule.
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// Generator lateness, `sent − due`: the wait behind earlier
    /// requests still running.
    pub lag: f64,
    pub bytes_out: usize,
    pub bytes_in: usize,
    pub status: u16,
    /// Ingest and epoch reply bodies, kept for the checks that run after
    /// the clock stops. Read bodies are compared on the spot instead.
    pub body: String,
    /// For a read: whether it returned the latest published snapshot.
    pub read_matches: bool,
    /// For an ingest under a shadow: the in-process parse and ingest of
    /// the same body, run right after the reply (`None` if it failed).
    pub shadow_ns: Option<u64>,
}

pub struct Measured {
    pub records: Vec<Record>,
    /// Transport failures (connect, write, read, timeout); the run stops
    /// at the first.
    pub transport_error: Option<String>,
}

/// How long before a due time the generator stops sleeping and spins,
/// so sleep overshoot does not land in the measured latency.
const SPIN: Duration = Duration::from_micros(200);

/// Replays the measured steps, each sent at its due time. With a
/// `shadow`, each ingest reply is followed by the same work in process;
/// the schedule pauses while it runs, so the server sees the same
/// offered load as without it.
pub fn measure(
    server: &Server,
    plan: &Plan,
    setup_epoch: &str,
    mut shadow: Option<Shadow>,
) -> Measured {
    let ingest: Vec<Vec<u8>> = plan
        .requests
        .iter()
        .map(|r| http::wire("POST", "/ingest", &r.body))
        .collect();
    let epoch = http::wire("POST", "/epoch", "");
    let read = http::wire("GET", "/truths", "");
    let mut latest = setup_epoch.to_string();
    let mut records = Vec::with_capacity(plan.steps.len());
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut paused = Duration::ZERO;
    for step in &plan.steps {
        let due = t0 + paused + Duration::from_nanos(step.due_ns);
        wait_until(due);
        let wire = match step.op {
            Op::Ingest(i) => &ingest[i],
            Op::Epoch => &epoch,
            Op::Read => &read,
        };
        let sent = Instant::now();
        let reply = http::send(server.addr, wire);
        let done = Instant::now();
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                return Measured {
                    records,
                    transport_error: Some(format!("{:?}: {e}", step.op)),
                }
            }
        };
        let since = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
        let mut record = Record {
            op: step.op,
            due: since(due),
            sent: since(sent),
            done: since(done),
            lag: sent.saturating_duration_since(due).as_secs_f64(),
            bytes_out: wire.len(),
            bytes_in: reply.bytes,
            status: reply.status,
            body: String::new(),
            read_matches: false,
            shadow_ns: None,
        };
        match step.op {
            Op::Read => record.read_matches = reply.body == latest,
            Op::Epoch => {
                latest.clone_from(&reply.body);
                record.body = reply.body;
            }
            Op::Ingest(i) => {
                record.body = reply.body;
                if let Some(work) = shadow.as_mut() {
                    let started = Instant::now();
                    record.shadow_ns = work(&plan.requests[i].body);
                    paused += started.elapsed();
                }
            }
        }
        records.push(record);
    }
    Measured {
        records,
        transport_error: None,
    }
}

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}
