//! The incremental epoch engine: batch → stream.
//!
//! Production MCS is a stream — reports arrive continuously while truths
//! must stay servable. This module turns the one-shot pipeline into an
//! epoch loop:
//!
//! 1. [`EpochEngine::ingest`] validates each report and parks it in a
//!    per-shard buffer (shard = account mod shard count) without touching
//!    the live campaign;
//! 2. [`EpochEngine::run_epoch`] drains the shards in deterministic order
//!    (shard ascending, FIFO within a shard), folds the batch into the
//!    generation-stamped CSR index of [`SensingData`], re-groups
//!    (incrementally for methods with an [`srtd_core::EdgeGrouping`]
//!    view, from scratch otherwise), re-runs Algorithm 2 — warm-seeded
//!    from the previous epoch's group weights — and publishes an
//!    immutable [`EpochSnapshot`];
//! 3. readers hold an [`EpochReader`] and see the previous snapshot,
//!    untouched, until the swap: publication is one `Arc` store under a
//!    mutex, never a rebuild in place.
//!
//! The heavy per-epoch work (per-task arena build, loss reduction, truth
//! updates) runs on the runtime's worker pool inside
//! `discover_with_grouping_seeded`; the engine itself adds no threads.
//! Everything stays deterministic: the same ingest sequence produces
//! byte-identical snapshots regardless of worker count.

use crate::audit::AuditReport;
use crate::error::{EnrollError, IngestError};
use crate::stochastic::{AuditPolicy, StochasticAuditor};
use srtd_core::{AccountGrouping, EdgeIndex, Grouping, SybilResistantTd};
use srtd_graph::UnionFind;
use srtd_runtime::json::{Json, ToJson};
use srtd_runtime::obs;
use srtd_truth::{Report, SensingData};
use std::collections::HashSet;
use std::ops::RangeInclusive;
use std::sync::{Arc, Mutex};

/// Epoch engine policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochConfig {
    /// Ingest buffer shards; accounts map to shards by `account % shards`.
    /// Zero is clamped to one.
    pub num_shards: usize,
    /// Seed each epoch's Algorithm 2 run with the previous epoch's group
    /// weights (falls back to the cold Eq. 4 prior whenever the grouping
    /// changed shape).
    pub warm_start: bool,
}

impl Default for EpochConfig {
    fn default() -> Self {
        Self {
            num_shards: 4,
            warm_start: true,
        }
    }
}

/// Exclusive upper bound on the account indices [`EpochEngine::ingest`]
/// and [`EpochEngine::enroll`] accept. The data plane sizes its
/// per-account storage by the largest index it has folded, so an
/// unbounded client-chosen index would become an unbounded allocation at
/// the next epoch.
pub const MAX_ACCOUNTS: usize = 1 << 20;

/// How far past the clock set by [`EpochEngine::advance_clock`] a
/// report's timestamp may lie, in seconds: devices and the platform are
/// never perfectly synced.
pub const CLOCK_TOLERANCE_S: f64 = 30.0;

/// The plausible Wi-Fi RSSI band in dBm, ends included: a +20 dBm reading
/// is physical nonsense whoever submits it.
pub const WIFI_RSSI_DBM: RangeInclusive<f64> = -120.0..=0.0;

/// The campaign-specific admission rules [`EpochEngine::ingest`] applies
/// on top of the ones every campaign gets (see [`IngestError`] for the
/// full admission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportRules {
    /// The default: any finite value, and an account's timestamps in any
    /// order — what a campaign of arbitrary values, or a replay that is
    /// not sorted by time, needs.
    Basic,
    /// A Wi-Fi RSSI campaign: each account's timestamps never run
    /// backwards ([`IngestError::NonMonotoneTimestamp`]), and every value
    /// lies in [`WIFI_RSSI_DBM`] ([`IngestError::ImplausibleValue`]).
    WifiRssi,
}

/// One epoch's published output: the truths and grouping readers serve
/// while the next epoch computes. Immutable by construction — a new epoch
/// publishes a new snapshot, it never mutates an old one.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSnapshot {
    /// Epoch counter; 0 is the empty pre-first-epoch snapshot.
    pub epoch: u64,
    /// The data plane's generation stamp at publication.
    pub generation: u64,
    /// Tasks in the campaign.
    pub num_tasks: usize,
    /// Accounts known to the data plane.
    pub num_accounts: usize,
    /// Reports folded in so far (all epochs).
    pub num_reports: usize,
    /// Reports folded in by this epoch alone.
    pub folded: usize,
    /// Estimated truth per task; `None` for unreported tasks.
    pub truths: Vec<Option<f64>>,
    /// Group label per account.
    pub labels: Vec<usize>,
    /// Final per-group weights.
    pub group_weights: Vec<f64>,
    /// Iterations Algorithm 2 took this epoch.
    pub iterations: usize,
    /// Whether the convergence criterion fired before the cap.
    pub converged: bool,
    /// Whether this epoch ran warm-seeded.
    pub warm_started: bool,
    /// Accounts spot-checked by the stochastic audit this epoch (sorted;
    /// empty when no auditor is configured).
    pub audited: Vec<usize>,
    /// All accounts the audit has convicted so far (sorted, cumulative).
    pub convicted: Vec<usize>,
    /// Wall-clock nanoseconds the epoch took (drain through publish).
    /// A measurement, not part of the deterministic output; 0 for the
    /// epoch-0 empty snapshot.
    pub duration_ns: u64,
}

impl EpochSnapshot {
    fn empty(num_tasks: usize) -> Self {
        Self {
            epoch: 0,
            generation: 0,
            num_tasks,
            num_accounts: 0,
            num_reports: 0,
            folded: 0,
            truths: vec![None; num_tasks],
            labels: Vec::new(),
            group_weights: Vec::new(),
            iterations: 0,
            converged: true,
            warm_started: false,
            audited: Vec::new(),
            convicted: Vec::new(),
            duration_ns: 0,
        }
    }

    /// Number of account groups this epoch discovered.
    pub fn num_groups(&self) -> usize {
        self.group_weights.len()
    }
}

impl ToJson for EpochSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("epoch", self.epoch.to_json()),
            ("generation", self.generation.to_json()),
            ("num_tasks", self.num_tasks.to_json()),
            ("num_accounts", self.num_accounts.to_json()),
            ("num_reports", self.num_reports.to_json()),
            ("folded", self.folded.to_json()),
            ("truths", self.truths.to_json()),
            ("labels", self.labels.to_json()),
            ("group_weights", self.group_weights.to_json()),
            ("iterations", self.iterations.to_json()),
            ("converged", self.converged.to_json()),
            ("warm_started", self.warm_started.to_json()),
            ("audited", self.audited.to_json()),
            ("convicted", self.convicted.to_json()),
            ("duration_ns", self.duration_ns.to_json()),
        ])
    }
}

/// A cheap cross-thread handle to the latest published snapshot.
#[derive(Debug, Clone)]
pub struct EpochReader {
    published: Arc<Mutex<Arc<EpochSnapshot>>>,
}

impl EpochReader {
    /// The latest published snapshot. The lock guards only one `Arc`
    /// clone, so readers never wait on an epoch computation.
    pub fn latest(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.published.lock().expect("snapshot lock poisoned"))
    }
}

/// The epoch-driven incremental service loop around one campaign.
#[derive(Debug)]
pub struct EpochEngine<G> {
    framework: SybilResistantTd<G>,
    config: EpochConfig,
    rules: ReportRules,
    data: SensingData,
    /// The clock set by [`Self::advance_clock`]; `None` until first set.
    clock: Option<f64>,
    /// Enrolled fingerprints by account index; an account never enrolled
    /// holds an empty vector.
    fingerprints: Vec<Vec<f64>>,
    /// Enrollment time by account index; `None` for an account never
    /// enrolled.
    enrolled_at: Vec<Option<f64>>,
    /// Latest accepted timestamp by account index, buffered or folded;
    /// kept under [`ReportRules::WifiRssi`] only.
    latest: Vec<f64>,
    shards: Vec<Vec<Report>>,
    pending: HashSet<(usize, usize)>,
    rejected: u64,
    epoch: u64,
    prev_weights: Option<Vec<f64>>,
    published: Arc<Mutex<Arc<EpochSnapshot>>>,
    /// Decision edges cached from the last epoch (sorted, deduplicated);
    /// empty unless the grouping method has an edge view.
    group_edges: Vec<(usize, usize)>,
    /// The edge view's index, kept across epochs; built at the first
    /// epoch, `None` until then and for methods without an edge view.
    group_index: Option<Box<dyn EdgeIndex + Send>>,
    /// The persistent component forest incremental re-grouping merges into.
    group_uf: UnionFind,
    /// The stochastic audit stage, if configured (see [`Self::set_audit`]).
    auditor: Option<StochasticAuditor>,
    /// Trusted reference value per task for audit spot checks; `None`
    /// marks a task the platform cannot reference-check.
    audit_reference: Vec<Option<f64>>,
}

impl<G: AccountGrouping> EpochEngine<G> {
    /// Creates an engine over an empty `num_tasks`-task campaign and
    /// publishes the epoch-0 empty snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `num_tasks == 0`.
    pub fn new(framework: SybilResistantTd<G>, num_tasks: usize, config: EpochConfig) -> Self {
        assert!(num_tasks > 0, "a campaign needs at least one task");
        let shards = config.num_shards.max(1);
        Self {
            framework,
            config,
            rules: ReportRules::Basic,
            data: SensingData::new(num_tasks),
            clock: None,
            fingerprints: Vec::new(),
            enrolled_at: Vec::new(),
            latest: Vec::new(),
            shards: vec![Vec::new(); shards],
            pending: HashSet::new(),
            rejected: 0,
            epoch: 0,
            prev_weights: None,
            published: Arc::new(Mutex::new(Arc::new(EpochSnapshot::empty(num_tasks)))),
            group_edges: Vec::new(),
            group_index: None,
            group_uf: UnionFind::new(0),
            auditor: None,
            audit_reference: Vec::new(),
        }
    }

    /// Enables the stochastic audit stage: every epoch, `policy` decides
    /// which accounts get spot-checked against the trusted reference
    /// registered via [`Self::set_audit_reference`]. Without a reference
    /// every audit passes trivially.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (see [`AuditPolicy::validate`]).
    pub fn set_audit(&mut self, policy: AuditPolicy) {
        self.auditor = Some(StochasticAuditor::new(policy));
    }

    /// Registers the trusted per-task reference values audits compare
    /// reports against (probe-device measurements in production, ground
    /// truth in simulation). `None` marks an unauditable task.
    pub fn set_audit_reference(&mut self, reference: Vec<Option<f64>>) {
        self.audit_reference = reference;
    }

    /// The stochastic auditor, if the stage is enabled.
    pub fn auditor(&self) -> Option<&StochasticAuditor> {
        self.auditor.as_ref()
    }

    /// Runs the audit stage for the epoch being built (no-op without an
    /// auditor) and returns `(targets, cumulative convictions)`.
    fn audit_stage(&mut self, epoch: u64) -> (Vec<usize>, Vec<usize>) {
        match self.auditor.as_mut() {
            Some(auditor) => {
                let _audit = obs::span("epoch.audit");
                let pass = auditor.audit_epoch(
                    epoch,
                    self.data.generation(),
                    &self.data,
                    &self.audit_reference,
                );
                (pass.targets, auditor.convicted())
            }
            None => (Vec::new(), Vec::new()),
        }
    }

    /// Sets the campaign-specific admission rules (default
    /// [`ReportRules::Basic`]).
    pub fn with_report_rules(mut self, rules: ReportRules) -> Self {
        self.rules = rules;
        self
    }

    /// Moves the clock to `t`. From the first call on, ingest refuses a
    /// timestamp more than [`CLOCK_TOLERANCE_S`] past the clock.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not finite or would move the clock backwards.
    pub fn advance_clock(&mut self, t: f64) {
        assert!(t.is_finite(), "clock must be finite");
        assert!(
            self.clock.is_none_or(|clock| t >= clock),
            "clock cannot move backwards"
        );
        self.clock = Some(t);
    }

    /// Enrolls `account` at time `at` with its sign-in device
    /// `fingerprint` (the paper's 6-second hold), which fingerprint-based
    /// grouping methods read. The account joins the campaign at the next
    /// epoch, reported or not, and ingest refuses its reports dated
    /// before `at`.
    ///
    /// # Errors
    ///
    /// Refuses an account at or above [`MAX_ACCOUNTS`], a second
    /// enrollment, a fingerprint whose width differs from the first
    /// enrolled one's, and a fingerprint with a non-finite value.
    pub fn enroll(
        &mut self,
        account: usize,
        fingerprint: Vec<f64>,
        at: f64,
    ) -> Result<(), EnrollError> {
        if account >= MAX_ACCOUNTS {
            return Err(EnrollError::AccountOutOfRange { account });
        }
        if self.enrolled_at.get(account).is_some_and(Option::is_some) {
            return Err(EnrollError::AlreadyEnrolled { account });
        }
        if let Some(first) = self.enrolled_at.iter().position(Option::is_some) {
            let want = self.fingerprints[first].len();
            if fingerprint.len() != want {
                return Err(EnrollError::BadFingerprint {
                    got: fingerprint.len(),
                    want,
                });
            }
        }
        if fingerprint.iter().any(|v| !v.is_finite()) {
            return Err(EnrollError::NonFiniteFingerprint);
        }
        if account >= self.enrolled_at.len() {
            self.enrolled_at.resize(account + 1, None);
            self.fingerprints.resize(account + 1, Vec::new());
        }
        self.enrolled_at[account] = Some(at);
        self.fingerprints[account] = fingerprint;
        Ok(())
    }

    /// Validates one report and parks it in its account's shard buffer;
    /// it joins the campaign at the next [`Self::run_epoch`].
    ///
    /// # Errors
    ///
    /// Refuses the report with the first check it fails, in
    /// [`IngestError`]'s order: out-of-campaign tasks, non-finite values
    /// or timestamps, account indices at or above [`MAX_ACCOUNTS`],
    /// duplicates against both folded and still-buffered reports,
    /// timestamps past the clock or before the account's enrollment once
    /// the caller has supplied those facts, then the rules chosen by
    /// [`Self::with_report_rules`]. Rejected reports are counted and
    /// otherwise ignored.
    pub fn ingest(
        &mut self,
        account: usize,
        task: usize,
        value: f64,
        timestamp: f64,
    ) -> Result<(), IngestError> {
        let outcome = self.validate(account, task, value, timestamp);
        match outcome {
            Ok(()) => {
                self.pending.insert((account, task));
                let shard = account % self.shards.len();
                self.shards[shard].push(Report {
                    account,
                    task,
                    value,
                    timestamp,
                });
                if self.rules == ReportRules::WifiRssi {
                    if account >= self.latest.len() {
                        self.latest.resize(account + 1, f64::NEG_INFINITY);
                    }
                    self.latest[account] = timestamp;
                }
                obs::counter_add("server.epoch.ingested", 1);
                Ok(())
            }
            Err(e) => {
                self.rejected += 1;
                Err(e)
            }
        }
    }

    fn validate(
        &self,
        account: usize,
        task: usize,
        value: f64,
        timestamp: f64,
    ) -> Result<(), IngestError> {
        if task >= self.data.num_tasks() {
            return Err(IngestError::UnknownTask {
                task,
                num_tasks: self.data.num_tasks(),
            });
        }
        if !value.is_finite() {
            return Err(IngestError::NonFiniteValue);
        }
        if !timestamp.is_finite() {
            return Err(IngestError::NonFiniteTimestamp);
        }
        if account >= MAX_ACCOUNTS {
            return Err(IngestError::AccountOutOfRange { account });
        }
        if self.data.has_report(account, task) || self.pending.contains(&(account, task)) {
            return Err(IngestError::DuplicateReport);
        }
        if let Some(clock) = self.clock {
            if timestamp > clock + CLOCK_TOLERANCE_S {
                return Err(IngestError::FutureTimestamp {
                    claimed: timestamp,
                    clock,
                });
            }
        }
        if let Some(&Some(at)) = self.enrolled_at.get(account) {
            if timestamp < at {
                return Err(IngestError::BeforeEnrollment);
            }
        }
        if self.rules == ReportRules::WifiRssi {
            if self
                .latest
                .get(account)
                .is_some_and(|&latest| timestamp < latest)
            {
                return Err(IngestError::NonMonotoneTimestamp);
            }
            if !WIFI_RSSI_DBM.contains(&value) {
                return Err(IngestError::ImplausibleValue { value });
            }
        }
        Ok(())
    }

    /// Reports buffered for the next epoch.
    pub fn pending_reports(&self) -> usize {
        self.pending.len()
    }

    /// Reports rejected at ingest so far.
    pub fn rejected_reports(&self) -> u64 {
        self.rejected
    }

    /// A read-only view of the folded campaign data.
    pub fn data(&self) -> &SensingData {
        &self.data
    }

    /// A cross-thread reader of the latest published snapshot.
    pub fn reader(&self) -> EpochReader {
        EpochReader {
            published: Arc::clone(&self.published),
        }
    }

    /// The latest published snapshot.
    pub fn latest(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.published.lock().expect("snapshot lock poisoned"))
    }

    /// An operator-facing [`AuditReport`] over the latest snapshot:
    /// grouping-flagged clusters of at least `min_group_size` accounts,
    /// joined with every account the stochastic audit has convicted.
    pub fn audit_report(&self, min_group_size: usize) -> AuditReport {
        let _span = obs::span("platform.audit");
        let snap = self.latest();
        let grouping = Grouping::from_labels(&snap.labels);
        AuditReport::build(
            grouping,
            self.framework.grouping_method().name(),
            min_group_size,
        )
        .with_convictions(snap.convicted.clone())
    }

    /// Runs one epoch: drains the shard buffers in deterministic order
    /// (shard ascending, FIFO within a shard), folds the batch into the
    /// incremental CSR index, re-groups, re-runs Algorithm 2 (warm-seeded
    /// when configured), and publishes the new snapshot. An epoch with an
    /// empty buffer is the steady-state case: no fold, but discovery
    /// re-runs and re-publishes.
    ///
    /// Re-grouping takes one of two routes, chosen by
    /// [`AccountGrouping::as_edge_grouping`]. Without an edge view the
    /// method's [`AccountGrouping::group`] runs over the whole campaign.
    /// With one, only pairs touching a *dirty* account (one that folded
    /// reports this epoch, or that the forest has never seen) are
    /// re-examined, through one [`EdgeIndex`] the engine keeps for the
    /// whole campaign (its update re-keys only the dirty accounts, in the
    /// `epoch.index_update` span), and the surviving edges merge into a
    /// persistent [`UnionFind`]. Soundness rests on the
    /// [`srtd_core::EdgeGrouping`] locality contract: an edge between two
    /// untouched accounts depends only on their unchanged data, so it is
    /// carried over verbatim. Two regimes:
    ///
    /// * **merge** — no cached edge touched a dirty account: the forest
    ///   grows to the new account count and the fresh edges union in
    ///   (`epoch.regroup.merged_edges`); nothing is rebuilt.
    /// * **rebuild** — some cached edge must be re-decided (its endpoints
    ///   got new reports and may have drifted apart): union-find cannot
    ///   un-merge, so the forest is rebuilt from kept + fresh edges
    ///   (`epoch.regroup.rebuilds`). Still cheap — a rebuild is pure
    ///   union-find over the cached edge list, with **zero** distance
    ///   evaluations for clean pairs.
    ///
    /// Either way the partition equals what a from-scratch
    /// [`AccountGrouping::group`] would produce (the `incremental_group`
    /// suite pins this).
    ///
    /// Each epoch is one telemetry window (`epoch-<n>`): the engine
    /// brackets the run with `obs::window_begin`/`window_end`, so the
    /// retained timeline holds one delta report per epoch with a trace
    /// tree attributing the `epoch.fold` / `epoch.regroup` (with
    /// `epoch.index_update` nested for methods with an edge view) /
    /// `epoch.discover` / `epoch.swap` stages under the `server.epoch`
    /// span.
    pub fn run_epoch(&mut self) -> Arc<EpochSnapshot> {
        obs::window_begin();
        let started = std::time::Instant::now();
        let snapshot = {
            let _span = obs::span("server.epoch");

            // Drain: shard order then arrival order is a deterministic
            // function of the ingest sequence alone.
            let mut batch = Vec::with_capacity(self.pending.len());
            for shard in &mut self.shards {
                batch.append(shard);
            }
            self.pending.clear();
            let folded = batch.len();
            {
                let _fold = obs::span("epoch.fold");
                // Enrolled accounts join with the batch's, reported or not.
                let accounts = batch
                    .iter()
                    .map(|r| r.account + 1)
                    .fold(self.fingerprints.len(), usize::max);
                self.data.reserve_accounts(accounts);
                if folded > 0 {
                    self.data.fold_batch(&batch);
                    obs::counter_add("server.epoch.folded", folded as u64);
                }
            }

            let grouping = {
                let _regroup = obs::span("epoch.regroup");
                let method = self.framework.grouping_method();
                match method.as_edge_grouping() {
                    None => method.group(&self.data, &self.fingerprints),
                    Some(edges) => {
                        let n = self.data.num_accounts();
                        let mut dirty = vec![false; n];
                        for report in &batch {
                            dirty[report.account] = true;
                        }
                        // Accounts the forest has never seen (reserve_accounts
                        // can create report-less accounts below the batch
                        // maximum) have no cached decisions either.
                        for flag in dirty.iter_mut().skip(self.group_uf.len()) {
                            *flag = true;
                        }
                        let dirty_count = dirty.iter().filter(|&&d| d).count() as u64;
                        obs::counter_add("epoch.regroup.dirty_accounts", dirty_count);
                        let (kept, dropped): (Vec<_>, Vec<_>) = self
                            .group_edges
                            .iter()
                            .partition(|&&(i, j)| !dirty[i] && !dirty[j]);
                        let index = self.group_index.get_or_insert_with(|| edges.edge_index());
                        let fresh = {
                            let _update = obs::span("epoch.index_update");
                            index.update(&self.data, &dirty)
                        };
                        if dropped.is_empty() {
                            self.group_uf.grow(n);
                            for &(i, j) in &fresh {
                                self.group_uf.union(i, j);
                            }
                            obs::counter_add("epoch.regroup.merged_edges", fresh.len() as u64);
                        } else {
                            let mut uf = UnionFind::new(n);
                            for &(i, j) in kept.iter().chain(&fresh) {
                                uf.union(i, j);
                            }
                            self.group_uf = uf;
                            obs::counter_add("epoch.regroup.rebuilds", 1);
                        }
                        self.group_edges = kept;
                        self.group_edges.extend(fresh);
                        self.group_edges.sort_unstable();
                        self.group_edges.dedup();
                        obs::gauge_set("epoch.regroup.edges", self.group_edges.len() as f64);
                        Grouping::from_forest(&mut self.group_uf)
                    }
                }
            };

            let warm = if self.config.warm_start {
                self.prev_weights.as_deref()
            } else {
                None
            };
            let result = {
                let _discover = obs::span("epoch.discover");
                self.framework
                    .discover_with_grouping_seeded(&self.data, grouping, warm)
            };
            obs::counter_add("server.epoch.iterations", result.iterations as u64);

            let (audited, convicted) = self.audit_stage(self.epoch + 1);

            let _swap = obs::span("epoch.swap");
            self.epoch += 1;
            self.prev_weights = Some(result.group_weights.clone());
            let snapshot = Arc::new(EpochSnapshot {
                epoch: self.epoch,
                generation: self.data.generation(),
                num_tasks: self.data.num_tasks(),
                num_accounts: self.data.num_accounts(),
                num_reports: self.data.num_reports(),
                folded,
                truths: result.truths,
                labels: result.grouping.labels().to_vec(),
                group_weights: result.group_weights,
                iterations: result.iterations,
                converged: result.converged,
                warm_started: result.warm_started,
                audited,
                convicted,
                duration_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            });
            *self.published.lock().expect("snapshot lock poisoned") = Arc::clone(&snapshot);
            obs::counter_add("server.epoch.snapshot_swaps", 1);
            snapshot
        };
        // Wall-clock facts go to gauges, never histograms: histogram
        // buckets are part of the deterministic export.
        obs::gauge_set("epoch.duration_ns", snapshot.duration_ns as f64);
        obs::gauge_set("server.ingest.backlog", self.pending.len() as f64);
        obs::window_end(&format!("epoch-{}", self.epoch));
        snapshot
    }

    /// Alias of [`Self::run_epoch`], kept for existing callers.
    pub fn run_epoch_incremental(&mut self) -> Arc<EpochSnapshot> {
        self.run_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_core::SingletonGrouping;

    fn engine(num_shards: usize) -> EpochEngine<SingletonGrouping> {
        EpochEngine::new(
            SybilResistantTd::new(SingletonGrouping),
            4,
            EpochConfig {
                num_shards,
                warm_start: true,
            },
        )
    }

    #[test]
    fn epoch_zero_is_an_empty_snapshot() {
        let e = engine(4);
        let snap = e.latest();
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.truths, vec![None; 4]);
        assert!(snap.converged);
    }

    #[test]
    fn ingest_validates_and_folds_at_the_epoch_boundary() {
        let mut e = engine(2);
        e.ingest(0, 0, -70.0, 1.0).expect("valid");
        e.ingest(1, 0, -74.0, 2.0).expect("valid");
        assert_eq!(
            e.ingest(0, 0, -71.0, 3.0),
            Err(IngestError::DuplicateReport),
            "duplicate against the pending buffer"
        );
        assert!(matches!(
            e.ingest(0, 9, -70.0, 1.0),
            Err(IngestError::UnknownTask { task: 9, .. })
        ));
        assert_eq!(
            e.ingest(2, 1, f64::NAN, 1.0),
            Err(IngestError::NonFiniteValue)
        );
        assert_eq!(e.pending_reports(), 2);
        assert_eq!(e.rejected_reports(), 3);
        assert_eq!(e.data().num_reports(), 0, "nothing folded before the epoch");

        let snap = e.run_epoch();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.folded, 2);
        assert_eq!(snap.num_reports, 2);
        let truth = snap.truths[0].expect("task 0 was reported");
        assert!((truth + 72.0).abs() < 0.5, "truth {truth} far from -72");
        assert_eq!(
            e.ingest(0, 0, -71.0, 3.0),
            Err(IngestError::DuplicateReport),
            "duplicate against folded data"
        );
    }

    #[test]
    fn account_indices_at_or_above_the_limit_are_rejected() {
        let mut e = engine(2);
        e.ingest(MAX_ACCOUNTS - 1, 0, -70.0, 1.0)
            .expect("the last index below the limit is accepted");
        // 1e15 is what a JSON client sends to force a huge allocation.
        for account in [MAX_ACCOUNTS, 1e15 as usize, usize::MAX] {
            assert_eq!(
                e.ingest(account, 0, -70.0, 1.0),
                Err(IngestError::AccountOutOfRange { account })
            );
        }
        assert_eq!(e.pending_reports(), 1);
        assert_eq!(e.rejected_reports(), 3);
        assert_eq!(
            IngestError::AccountOutOfRange { account: 7 }.to_string(),
            format!("account 7 is not below the {MAX_ACCOUNTS}-account limit")
        );
    }

    #[test]
    fn drain_order_is_deterministic_across_shard_counts_with_one_shard_per_account() {
        // Same ingest sequence, different shard counts: the folded data
        // may order reports differently across shards, but per-task and
        // per-account views are insertion-ordered within each account, so
        // the discovered truths agree bitwise.
        let mut a = engine(1);
        let mut b = engine(4);
        for e in [&mut a, &mut b] {
            e.ingest(2, 0, -70.0, 1.0).unwrap();
            e.ingest(0, 0, -74.0, 2.0).unwrap();
            e.ingest(1, 1, -60.0, 3.0).unwrap();
        }
        let sa = a.run_epoch();
        let sb = b.run_epoch();
        assert_eq!(sa.truths, sb.truths);
        assert_eq!(sa.num_reports, sb.num_reports);
    }

    #[test]
    fn steady_state_epochs_warm_start_and_republish() {
        let mut e = engine(4);
        e.ingest(0, 0, -70.0, 1.0).unwrap();
        e.ingest(1, 0, -74.0, 2.0).unwrap();
        e.ingest(1, 1, -61.0, 3.0).unwrap();
        let first = e.run_epoch();
        assert!(!first.warm_started, "epoch 1 has no seed");

        let reader = e.reader();
        let second = e.run_epoch();
        assert!(second.warm_started);
        assert_eq!(second.folded, 0);
        assert_eq!(second.generation, first.generation, "no fold, no bump");
        // The warm epoch takes one refinement step from the seed, so it
        // moves no truth by more than the convergence tolerance.
        for (a, b) in second.truths.iter().zip(&first.truths) {
            match (a, b) {
                (Some(a), Some(b)) => assert!((a - b).abs() <= 1e-6, "{a} vs {b}"),
                (a, b) => assert_eq!(a, b),
            }
        }
        assert!(
            second.iterations <= 2,
            "steady state: {}",
            second.iterations
        );
        assert_eq!(reader.latest().epoch, 2, "reader sees the swap");
    }

    #[test]
    fn audit_stage_convicts_a_planted_deviant() {
        use crate::stochastic::AuditPolicy;
        let mut e = engine(2);
        e.set_audit(AuditPolicy {
            seed: 3,
            targets_per_epoch: 4, // covers every account each epoch
            tolerance: 12.0,
            min_deviant: 2,
            conviction_failures: 2,
        });
        e.set_audit_reference(vec![Some(-75.0), Some(-70.0), Some(-80.0), None]);
        // Account 0 honest, account 1 wildly deviant on two tasks.
        e.ingest(0, 0, -74.0, 1.0).unwrap();
        e.ingest(0, 1, -68.0, 2.0).unwrap();
        e.ingest(1, 0, -50.0, 3.0).unwrap();
        e.ingest(1, 1, -50.0, 4.0).unwrap();
        let first = e.run_epoch();
        assert_eq!(first.audited, vec![0, 1], "all accounts spot-checked");
        assert!(first.convicted.is_empty(), "one failure is below k=2");
        let second = e.run_epoch();
        assert_eq!(second.convicted, vec![1], "conviction at exactly k");
        assert!(!e.auditor().unwrap().is_convicted(0));
        assert_eq!(e.auditor().unwrap().convicted_epoch(1), Some(2));
        // The operator-facing report carries the conviction even though
        // singleton grouping flags no clusters.
        let report = e.audit_report(2);
        assert!(report.suspects().is_empty());
        assert_eq!(report.convicted(), &[1]);
        assert!(report.is_suspect(1));
        assert!(!report.is_suspect(0));
    }

    #[test]
    fn snapshots_without_an_auditor_have_empty_audit_fields() {
        let mut e = engine(2);
        e.ingest(0, 0, -70.0, 1.0).unwrap();
        let snap = e.run_epoch();
        assert!(snap.audited.is_empty());
        assert!(snap.convicted.is_empty());
    }

    #[test]
    fn new_accounts_grow_the_campaign_mid_stream() {
        let mut e = engine(4);
        e.ingest(0, 0, -70.0, 1.0).unwrap();
        e.run_epoch();
        e.ingest(7, 0, -72.0, 2.0).unwrap();
        let snap = e.run_epoch();
        assert_eq!(snap.num_accounts, 8);
        assert_eq!(snap.labels.len(), 8);
        assert!(
            !snap.warm_started,
            "grouping changed shape, seed must be dropped"
        );
    }

    /// A Wi-Fi engine with account 0 enrolled at 0 and the clock at 1 000.
    fn wifi_engine() -> EpochEngine<SingletonGrouping> {
        let mut e = engine(2).with_report_rules(ReportRules::WifiRssi);
        e.enroll(0, vec![0.5; 8], 0.0).expect("valid fingerprint");
        e.advance_clock(1_000.0);
        e
    }

    #[test]
    fn future_timestamps_are_rejected_once_the_clock_is_set() {
        let mut e = engine(2);
        e.ingest(0, 0, -70.0, 1e12).expect("no clock, no future");
        e.advance_clock(1_000.0);
        assert_eq!(
            e.ingest(1, 0, -70.0, 2_000.0),
            Err(IngestError::FutureTimestamp {
                claimed: 2_000.0,
                clock: 1_000.0
            })
        );
        e.ingest(1, 0, -70.0, 1_000.0 + CLOCK_TOLERANCE_S)
            .expect("exactly the tolerance past the clock");
        assert!(matches!(
            e.ingest(2, 0, -70.0, 1_000.0 + CLOCK_TOLERANCE_S + 1e-9),
            Err(IngestError::FutureTimestamp { .. })
        ));
        assert_eq!(e.rejected_reports(), 2);
    }

    #[test]
    fn timestamps_before_enrollment_are_rejected() {
        let mut e = engine(2);
        e.enroll(3, vec![0.5; 8], 400.0).expect("valid");
        assert_eq!(
            e.ingest(3, 0, -70.0, 100.0),
            Err(IngestError::BeforeEnrollment)
        );
        e.ingest(3, 0, -70.0, 400.0).expect("at enrollment");
        e.ingest(4, 0, -70.0, 100.0).expect("an unenrolled account");
    }

    #[test]
    fn wifi_rules_keep_each_accounts_timestamps_monotone() {
        let mut e = wifi_engine();
        e.ingest(0, 0, -70.0, 600.0).expect("first");
        e.ingest(0, 1, -71.0, 600.0)
            .expect("equal to the account's last");
        assert_eq!(
            e.ingest(0, 2, -71.0, 550.0),
            Err(IngestError::NonMonotoneTimestamp),
            "behind a buffered report"
        );
        e.run_epoch();
        assert_eq!(
            e.ingest(0, 2, -71.0, 599.0),
            Err(IngestError::NonMonotoneTimestamp),
            "behind a folded report"
        );
        e.ingest(0, 2, -71.0, 650.0).expect("forward in time");
        e.ingest(1, 0, -70.0, 10.0)
            .expect("another account's timeline");
    }

    #[test]
    fn wifi_rules_refuse_implausible_values_ends_included() {
        let mut e = wifi_engine();
        assert_eq!(
            e.ingest(0, 0, 25.0, 500.0),
            Err(IngestError::ImplausibleValue { value: 25.0 })
        );
        assert_eq!(
            e.ingest(0, 0, -120.5, 500.0),
            Err(IngestError::ImplausibleValue { value: -120.5 })
        );
        assert_eq!(
            e.ingest(0, 0, f64::NAN, 500.0),
            Err(IngestError::NonFiniteValue)
        );
        e.ingest(0, 0, -120.0, 500.0).expect("lower end");
        e.ingest(0, 1, 0.0, 500.0).expect("upper end");
        // Rejected reports never reach the data.
        e.run_epoch();
        let r = srtd_truth::TruthDiscovery::discover(&srtd_truth::Crh, e.data());
        assert_eq!(r.truths[0], Some(-120.0));
    }

    #[test]
    fn basic_rules_admit_any_finite_value_in_any_order() {
        let mut e = engine(2);
        e.ingest(0, 0, 20.0, 600.0).unwrap();
        e.ingest(0, 1, -500.0, 100.0).unwrap();
        assert_eq!(e.pending_reports(), 2);
    }

    #[test]
    fn the_duplicate_check_runs_before_the_rules() {
        let mut e = wifi_engine();
        e.ingest(0, 0, -70.0, 600.0).unwrap();
        // A retried report is a duplicate, whatever else is wrong with it.
        for (value, timestamp) in [(-70.0, 600.0), (25.0, 10.0), (-70.0, 1e9)] {
            assert_eq!(
                e.ingest(0, 0, value, timestamp),
                Err(IngestError::DuplicateReport)
            );
        }
    }

    #[test]
    fn enrollment_validates_accounts_and_fingerprints() {
        let mut e = engine(2);
        assert_eq!(
            e.enroll(MAX_ACCOUNTS, vec![1.0; 3], 0.0),
            Err(EnrollError::AccountOutOfRange {
                account: MAX_ACCOUNTS
            })
        );
        assert_eq!(
            e.enroll(0, vec![f64::NAN; 3], 0.0),
            Err(EnrollError::NonFiniteFingerprint)
        );
        e.enroll(2, vec![1.0; 3], 0.0)
            .expect("the first sets the width");
        assert_eq!(
            e.enroll(0, vec![1.0; 80], 0.0),
            Err(EnrollError::BadFingerprint { got: 80, want: 3 })
        );
        assert_eq!(
            e.enroll(2, vec![1.0; 3], 0.0),
            Err(EnrollError::AlreadyEnrolled { account: 2 })
        );
        e.enroll(0, vec![2.0; 3], 0.0).expect("below the first");
    }

    #[test]
    fn enrolled_accounts_join_at_the_next_epoch_before_they_report() {
        let mut e = engine(2);
        e.ingest(0, 0, -70.0, 1.0).unwrap();
        e.enroll(5, vec![0.5; 8], 0.0).unwrap();
        let snap = e.run_epoch();
        assert_eq!(snap.num_accounts, 6);
        assert_eq!(snap.labels.len(), 6);
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn the_clock_is_monotone() {
        let mut e = engine(1);
        e.advance_clock(10.0);
        e.advance_clock(5.0);
    }
}
