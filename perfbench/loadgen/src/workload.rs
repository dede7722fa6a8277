//! Workloads and the deterministic request plan each one replays.
//!
//! A plan is a pure function of (workload, seed, seconds): the campaign,
//! every request body and every epoch boundary are fixed before the
//! server starts, so two runs fold the same reports into the same epochs
//! and differ only in how long the work takes.

use srtd_runtime::json::{Json, ToJson};
use srtd_runtime::rng::{SeedableRng, SliceRandom, StdRng};
use srtd_sensing::{ScaledCampaign, ScaledCampaignConfig};
use srtd_truth::Report;

/// Grouping method the server runs (`srtd-server --method`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    AgTr,
    AgTs,
    Singletons,
}

impl Method {
    pub fn flag(self) -> &'static str {
        match self {
            Method::AgTr => "ag-tr",
            Method::AgTs => "ag-ts",
            Method::Singletons => "singletons",
        }
    }
}

/// One traffic shape. Why each exists is recorded in `BENCHMARK.json`
/// and `perfbench/README.md`.
///
/// Every request is due on a fixed schedule (open loop), whether or not
/// the server kept up, as independent phones and gateways send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub method: Method,
    /// Accounts whose reports form the base loaded during set-up.
    pub base_accounts: usize,
    /// Offered ingest rate; one request is due every
    /// `request_reports / reports_per_s` seconds (one tick).
    pub reports_per_s: f64,
    pub request_reports: usize,
    /// The generator closes an epoch after this many accepted reports.
    pub epoch_reports: usize,
    /// `GET /truths` per second, each due half a tick after an ingest,
    /// the first `read_offset_ticks` ticks into the run.
    pub reads_per_s: f64,
    pub read_offset_ticks: f64,
    /// Ingest requests re-sent unchanged, per thousand.
    pub retry_permille: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tr-stream",
        method: Method::AgTr,
        base_accounts: 20_000,
        reports_per_s: 1000.0,
        request_reports: 20,
        epoch_reports: 500,
        reads_per_s: 4.0,
        read_offset_ticks: 7.0,
        retry_permille: 10,
    },
    Workload {
        name: "ts-reads",
        method: Method::AgTs,
        base_accounts: 20_000,
        reports_per_s: 200.0,
        request_reports: 10,
        epoch_reports: 100,
        reads_per_s: 20.0,
        read_offset_ticks: 0.0,
        retry_permille: 0,
    },
    Workload {
        name: "bulk-replay",
        method: Method::Singletons,
        base_accounts: 10_000,
        reports_per_s: 8_000.0,
        request_reports: 1000,
        epoch_reports: 10_000,
        reads_per_s: 4.0,
        read_offset_ticks: 0.0,
        retry_permille: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Reports each account contributes (`ScaledCampaignConfig` default).
const REPORTS_PER_ACCOUNT: usize = 6;

/// A seeded campaign in replay order: timestamp order, accounts
/// renumbered in order of first arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    pub num_tasks: usize,
    pub reports: Vec<Report>,
    /// Sybil rings as renumbered member lists.
    pub rings: Vec<Vec<usize>>,
}

impl Stream {
    /// Generates a campaign holding at least `needed` reports.
    pub fn generate(seed: u64, needed: usize) -> Self {
        // 5 % headroom: the replay takes a prefix in time, and accounts
        // near its end have only part of their walk inside it.
        let accounts = needed.div_ceil(REPORTS_PER_ACCOUNT) * 21 / 20 + 50;
        let campaign =
            ScaledCampaign::generate(&ScaledCampaignConfig::new(accounts).with_seed(seed));
        let mut reports = campaign.data.reports().to_vec();
        reports.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        let mut renumber = vec![usize::MAX; accounts];
        let mut next = 0;
        for r in &mut reports {
            if renumber[r.account] == usize::MAX {
                renumber[r.account] = next;
                next += 1;
            }
            r.account = renumber[r.account];
        }
        let mut rings: Vec<Vec<usize>> = Vec::new();
        let mut ring_of_owner = std::collections::BTreeMap::new();
        for account in (0..accounts).filter(|&a| campaign.is_sybil[a]) {
            let ring = *ring_of_owner
                .entry(campaign.owners[account])
                .or_insert_with(|| {
                    rings.push(Vec::new());
                    rings.len() - 1
                });
            rings[ring].push(renumber[account]);
        }
        for ring in &mut rings {
            ring.sort_unstable();
        }
        assert!(reports.len() >= needed, "campaign too small");
        Self {
            num_tasks: campaign.data.num_tasks(),
            reports,
            rings,
        }
    }
}

/// One `POST /ingest`: a slice of the stream and its rendered body.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRequest {
    /// Index of the first report in [`Stream::reports`].
    pub first: usize,
    pub len: usize,
    /// A planted retry of the original request with this index: every
    /// report must come back as a duplicate.
    pub retry_of: Option<usize>,
    pub body: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Index into [`Plan::requests`].
    Ingest(usize),
    Epoch,
    Read,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Due time from the start of the measured phase.
    pub due_ns: u64,
    pub op: Op,
}

/// Everything a run sends, fixed before the clock starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub workload: Workload,
    pub stream: Stream,
    /// Reports loaded during set-up.
    pub base_len: usize,
    /// Set-up requests, sent back to back before the first epoch.
    pub base: Vec<IngestRequest>,
    /// Measured requests, originals and retries.
    pub requests: Vec<IngestRequest>,
    pub steps: Vec<Step>,
}

impl Plan {
    pub fn build(workload: &Workload, seed: u64, seconds: u64) -> Self {
        let w = *workload;
        // Whole epochs only, so the last measured report is published by
        // a generator-closed epoch like every other.
        let epochs = ((w.reports_per_s * seconds as f64) / w.epoch_reports as f64)
            .round()
            .max(1.0) as usize;
        let measured = epochs * w.epoch_reports;
        assert_eq!(w.epoch_reports % w.request_reports, 0);
        let base_len = w.base_accounts * REPORTS_PER_ACCOUNT;
        let stream = Stream::generate(seed, base_len + measured);

        let render = |first: usize, len: usize, retry_of| IngestRequest {
            first,
            len,
            retry_of,
            body: ingest_body(&stream.reports[first..first + len]),
        };
        let base = (0..base_len)
            .step_by(w.request_reports)
            .map(|first| render(first, w.request_reports.min(base_len - first), None))
            .collect();

        let originals = measured / w.request_reports;
        let per_epoch = w.epoch_reports / w.request_reports;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_2e72);
        let mut order: Vec<usize> = (0..originals).collect();
        order.shuffle(&mut rng);
        let mut retried = vec![false; originals];
        for &k in &order[..originals * w.retry_permille / 1000] {
            retried[k] = true;
        }

        let tick_ns = (w.request_reports as f64 / w.reports_per_s * 1e9) as u64;
        let mut requests = Vec::new();
        let mut writes = Vec::new();
        for (k, &retry) in retried.iter().enumerate() {
            let due_ns = k as u64 * tick_ns;
            requests.push(render(
                base_len + k * w.request_reports,
                w.request_reports,
                None,
            ));
            writes.push(Step {
                due_ns,
                op: Op::Ingest(requests.len() - 1),
            });
            let closes_epoch = (k + 1) % per_epoch == 0;
            if closes_epoch {
                writes.push(Step {
                    due_ns,
                    op: Op::Epoch,
                });
            }
            if retry {
                let mut again = requests[requests.len() - 1].clone();
                again.retry_of = Some(requests.len() - 1);
                requests.push(again);
                writes.push(Step {
                    due_ns: due_ns + tick_ns / 2,
                    op: Op::Ingest(requests.len() - 1),
                });
            }
        }

        let mut reads = Vec::new();
        let interval_ns = (1e9 / w.reads_per_s) as u64;
        let end_ns = originals as u64 * tick_ns;
        let mut due_ns = (w.read_offset_ticks * tick_ns as f64) as u64 + tick_ns / 2;
        while due_ns < end_ns {
            reads.push(Step {
                due_ns,
                op: Op::Read,
            });
            due_ns += interval_ns;
        }
        // Merge by due time; an epoch keeps its place right after the
        // ingest that closes it because it shares that ingest's due time.
        let mut steps = Vec::with_capacity(writes.len() + reads.len());
        let mut reads = reads.into_iter().peekable();
        for step in writes {
            while let Some(read) = reads.next_if(|r| r.due_ns < step.due_ns) {
                steps.push(read);
            }
            steps.push(step);
        }
        steps.extend(reads);

        Self {
            workload: w,
            stream,
            base_len,
            base,
            requests,
            steps,
        }
    }

    /// Reports the measured phase publishes.
    pub fn measured_reports(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| r.retry_of.is_none())
            .map(|r| r.len)
            .sum()
    }

    /// Measured epochs, in order.
    pub fn measured_epochs(&self) -> usize {
        self.steps.iter().filter(|s| s.op == Op::Epoch).count()
    }
}

/// The `POST /ingest` body for `reports`, in the server's wire format.
pub fn ingest_body(reports: &[Report]) -> String {
    Json::obj([(
        "reports",
        Json::arr(reports.iter().map(|r| {
            Json::obj([
                ("account", r.account.to_json()),
                ("task", r.task.to_json()),
                ("value", r.value.to_json()),
                ("timestamp", r.timestamp.to_json()),
            ])
        })),
    )])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> Workload {
        let mut w = *find(name).expect("known workload");
        w.base_accounts = 300;
        w
    }

    #[test]
    fn same_seed_gives_identical_bodies_and_epoch_boundaries() {
        for name in ["tr-stream", "ts-reads", "bulk-replay"] {
            let w = small(name);
            let a = Plan::build(&w, 7, 1);
            let b = Plan::build(&w, 7, 1);
            assert_eq!(a, b, "{name}");
            let c = Plan::build(&w, 8, 1);
            assert_ne!(a.requests[0].body, c.requests[0].body, "{name}");
        }
    }

    #[test]
    fn epochs_close_after_every_epoch_reports_accepted_reports() {
        for name in ["tr-stream", "ts-reads", "bulk-replay"] {
            let w = small(name);
            let plan = Plan::build(&w, 3, 1);
            let mut since_epoch = 0;
            for step in &plan.steps {
                match step.op {
                    Op::Ingest(i) if plan.requests[i].retry_of.is_none() => {
                        since_epoch += plan.requests[i].len
                    }
                    Op::Epoch => {
                        assert_eq!(since_epoch, w.epoch_reports, "{name}");
                        since_epoch = 0;
                    }
                    _ => {}
                }
            }
            assert_eq!(since_epoch, 0, "{name}: last report left unpublished");
            assert!(plan.steps.windows(2).all(|s| s[0].due_ns <= s[1].due_ns));
        }
    }

    #[test]
    fn retries_are_a_fixed_share_and_repeat_their_original() {
        let plan = Plan::build(&small("tr-stream"), 5, 2);
        let originals = plan
            .requests
            .iter()
            .filter(|r| r.retry_of.is_none())
            .count();
        let retries: Vec<_> = plan
            .requests
            .iter()
            .filter(|r| r.retry_of.is_some())
            .collect();
        assert_eq!(retries.len(), originals / 100);
        for r in retries {
            assert_eq!(r.body, plan.requests[r.retry_of.unwrap()].body);
        }
    }

    #[test]
    fn stream_is_in_time_order_with_accounts_in_arrival_order() {
        let s = Stream::generate(11, 6_000);
        assert!(s
            .reports
            .windows(2)
            .all(|p| p[0].timestamp <= p[1].timestamp));
        let mut next = 0;
        for r in &s.reports {
            assert!(r.account <= next);
            if r.account == next {
                next += 1;
            }
        }
        assert!(s.rings.iter().all(|ring| ring.len() == 5));
    }
}
