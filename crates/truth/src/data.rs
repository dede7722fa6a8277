//! The account × task report matrix.

use srtd_runtime::json::{Json, ToJson};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::OnceLock;

/// One sensing report: account `account` claims `value` for task `task`
/// at time `timestamp` (seconds from the campaign start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Report {
    /// Reporting account index.
    pub account: usize,
    /// Task index.
    pub task: usize,
    /// Claimed numeric value (e.g. Wi-Fi RSSI in dBm).
    pub value: f64,
    /// Submission timestamp in seconds.
    pub timestamp: f64,
}

/// The offsets of a compressed-sparse-row layout over the report list:
/// one entry per bucket plus a sentinel, so bucket `b`'s reports sit at
/// `b`'s [`Offsets::range`] of every column kept in the layout's order —
/// grouped by bucket, in report order within a bucket.
///
/// A layout starts empty and changes only by [`Offsets::fold`], which
/// merges a batch of appended reports in place (one run shift per bucket,
/// the batch at the tail of its buckets' runs). The first build is one
/// fold of the whole report list into the empty layout, so a folded index
/// is bit-identical to one built over the concatenated report list: both
/// hold each bucket's reports in ascending report order.
#[derive(Debug, Clone, Default)]
struct Offsets(Vec<usize>);

impl Offsets {
    fn range(&self, bucket: usize) -> Range<usize> {
        self.0[bucket]..self.0[bucket + 1]
    }

    /// Extends the bucket space to `buckets`, appending empty trailing
    /// runs (new accounts enter mid-campaign with no reports yet).
    fn grow(&mut self, buckets: usize) {
        let total = self.0.last().copied().unwrap_or(0);
        if self.0.len() < buckets + 1 {
            self.0.resize(buckets + 1, total);
        }
    }

    /// Moves the offsets over a batch of appended reports with bucket
    /// `keys` (growing the bucket space to `buckets` first), and returns
    /// the [`RunShift`] every column kept in this order applies to follow.
    fn fold(&mut self, buckets: usize, keys: impl Iterator<Item = usize> + Clone) -> RunShift {
        self.grow(buckets);
        debug_assert_eq!(self.0.len(), buckets + 1);
        let mut added = vec![0usize; buckets];
        for key in keys.clone() {
            added[key] += 1;
        }
        let mut shift = vec![0usize; buckets + 1];
        for b in 0..buckets {
            shift[b + 1] = shift[b] + added[b];
        }
        for (offset, s) in self.0.iter_mut().zip(&shift) {
            *offset += s;
        }
        // Each bucket's new entries occupy the tail of its shifted run;
        // walking the batch in order keeps them in batch order.
        let mut cursor: Vec<usize> = (0..buckets).map(|b| self.0[b + 1] - added[b]).collect();
        let slots = keys
            .map(|key| {
                cursor[key] += 1;
                cursor[key] - 1
            })
            .collect();
        RunShift { shift, slots }
    }
}

/// One fold's relocation of an [`Offsets`] layout: bucket `b`'s existing
/// run moves right by `shift[b]` (the insertions into buckets below it),
/// and the batch's `i`-th entry lands at `slots[i]`, at the tail of its
/// bucket's run.
struct RunShift {
    shift: Vec<usize>,
    slots: Vec<usize>,
}

impl RunShift {
    /// Shifts `column`'s runs to the folded `offsets` and writes `new`,
    /// one item per batch entry, into the batch's slots.
    ///
    /// Runs are relocated from the highest bucket down, so every
    /// `copy_within` lands on vacated (or self-overlapping, which
    /// `copy_within` handles) space. O(buckets + existing + batch), no
    /// reallocation beyond the column's growth itself.
    fn apply<T: Copy + Default>(
        &self,
        offsets: &Offsets,
        column: &mut Vec<T>,
        new: impl Iterator<Item = T>,
    ) {
        let offsets = &offsets.0;
        let buckets = offsets.len() - 1;
        column.resize(offsets[buckets], T::default());
        for b in (0..buckets).rev() {
            let old_start = offsets[b] - self.shift[b];
            let old_end = offsets[b + 1] - self.shift[b + 1];
            if self.shift[b] > 0 && old_end > old_start {
                column.copy_within(old_start..old_end, old_start + self.shift[b]);
            }
        }
        for (&slot, item) in self.slots.iter().zip(new) {
            column[slot] = item;
        }
    }
}

/// The account index: each account's report indices (into the report
/// list), so [`SensingData::account_reports`] walks a borrowed slice.
#[derive(Debug, Clone, Default)]
struct AccountIndex {
    offsets: Offsets,
    reports: Vec<usize>,
}

impl AccountIndex {
    /// Folds `batch`, whose reports sit at `base..` in the report list.
    fn fold(&mut self, num_accounts: usize, batch: &[Report], base: usize) {
        let shift = self
            .offsets
            .fold(num_accounts, batch.iter().map(|r| r.account));
        shift.apply(&self.offsets, &mut self.reports, base..);
    }
}

/// The task index: each task's claims as two columns, the reporting
/// accounts and their values, in report order — two sequential runs per
/// task (12 B per report; `fold_batch` refuses an account that does not
/// fit in `u32`).
#[derive(Debug, Clone, Default)]
struct TaskIndex {
    offsets: Offsets,
    accounts: Vec<u32>,
    values: Vec<f64>,
}

impl TaskIndex {
    fn fold(&mut self, num_tasks: usize, batch: &[Report]) {
        let shift = self.offsets.fold(num_tasks, batch.iter().map(|r| r.task));
        let accounts = batch.iter().map(|r| r.account as u32);
        shift.apply(&self.offsets, &mut self.accounts, accounts);
        shift.apply(
            &self.offsets,
            &mut self.values,
            batch.iter().map(|r| r.value),
        );
    }
}

/// Derived per-task statistics, cached until the next mutation: claim
/// means and standard deviations in one shared computation (the std pass
/// needs the means anyway).
#[derive(Debug, Clone)]
struct TaskStats {
    means: Vec<Option<f64>>,
    stds: Vec<Option<f64>>,
}

/// All reports of a sensing campaign, indexed both by account and by task.
///
/// Matches the paper's model: `m` tasks, accounts `0..n`, and at most one
/// report per (account, task) pair ("each account is allowed to submit at
/// most one data for one task").
///
/// Reports live in one flat insertion-ordered `Vec`. Two CSR indexes are
/// built lazily on first read: per task, the claim columns that
/// [`SensingData::task_claims`] borrows; per account, the report indices
/// that [`SensingData::account_reports`] walks. Both reads are
/// allocation-free slice walks.
///
/// The campaign is **generation-stamped and incremental**: every
/// mutation bumps [`SensingData::generation`] and folds the new reports
/// into any already-built index in place (per-bucket run merge)
/// instead of discarding it, so a long-running service can admit
/// report batches mid-campaign ([`SensingData::fold_batch`]) without
/// ever paying a from-scratch re-index. Derived value statistics
/// ([`SensingData::task_means`], [`SensingData::task_value_std`]) are
/// cached per generation and invalidated by the bump. The folded index
/// and statistics are bit-identical to a from-scratch rebuild over the
/// same report list (regression-pinned by `tests/incremental_fold.rs`).
///
/// # Examples
///
/// ```
/// use srtd_truth::SensingData;
///
/// let mut data = SensingData::new(2);
/// data.add_report(0, 0, -80.0, 12.0);
/// data.add_report(0, 1, -75.0, 60.0);
/// data.add_report(1, 1, -74.0, 30.0);
/// assert_eq!(data.num_accounts(), 2);
/// assert_eq!(data.tasks_of(0), &[0, 1]);
/// assert_eq!(data.task_claims(1), (&[0, 1][..], &[-75.0, -74.0][..]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SensingData {
    num_tasks: usize,
    num_accounts: usize,
    reports: Vec<Report>,
    /// Duplicate-report guard: one entry per (account, task) pair. Makes
    /// `add_report` O(1) instead of O(|T_i|) per insertion.
    seen: HashSet<(usize, usize)>,
    /// Mutation counter: bumped by every content change so derived
    /// structures (epoch snapshots, caches) can tell stale from fresh.
    generation: u64,
    by_task: OnceLock<TaskIndex>,
    by_account: OnceLock<AccountIndex>,
    stats: OnceLock<TaskStats>,
}

impl PartialEq for SensingData {
    /// Compares the semantic content — task count, account count and the
    /// report list. The CSR indexes are derived caches and excluded.
    fn eq(&self, other: &Self) -> bool {
        self.num_tasks == other.num_tasks
            && self.num_accounts == other.num_accounts
            && self.reports == other.reports
    }
}

impl SensingData {
    /// Creates an empty campaign with `num_tasks` tasks.
    pub fn new(num_tasks: usize) -> Self {
        Self {
            num_tasks,
            ..Self::default()
        }
    }

    /// Number of tasks `m`.
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// Number of accounts (highest account index seen + 1).
    pub fn num_accounts(&self) -> usize {
        self.num_accounts
    }

    /// Total number of reports.
    pub fn num_reports(&self) -> usize {
        self.reports.len()
    }

    /// Returns `true` if no report has been added.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// The campaign's generation stamp: starts at 0 and increases with
    /// every mutation ([`SensingData::add_report`],
    /// [`SensingData::fold_batch`], [`SensingData::reserve_accounts`]).
    ///
    /// Derived structures — epoch snapshots, external caches — record the
    /// generation they were computed at and compare against the current
    /// one to tell stale from fresh.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Returns `true` if `account` has already reported `task` — the O(1)
    /// probe ingestion paths use to reject duplicates gracefully instead
    /// of tripping [`SensingData::add_report`]'s panic.
    pub fn has_report(&self, account: usize, task: usize) -> bool {
        self.seen.contains(&(account, task))
    }

    /// Why the campaign would refuse `report`, or `Ok` if it takes it: a
    /// task out of range, a non-finite value or timestamp, an account
    /// beyond `u32`, or a repeated (account, task) pair. These are what
    /// [`SensingData::fold_batch`] panics on, so a caller holding outside
    /// input can refuse a report gracefully first.
    pub fn check_report(&self, report: &Report) -> Result<(), String> {
        let Report {
            account,
            task,
            value,
            timestamp,
        } = *report;
        if task >= self.num_tasks {
            return Err(format!(
                "task {task} out of range for {} tasks",
                self.num_tasks
            ));
        }
        for (what, x) in [("value", value), ("timestamp", timestamp)] {
            if !x.is_finite() {
                return Err(format!("{what} {x} is not finite"));
            }
        }
        if u32::try_from(account).is_err() {
            return Err(format!("account {account} does not fit in u32"));
        }
        if self.has_report(account, task) {
            return Err(format!("account {account} already reported task {task}"));
        }
        Ok(())
    }

    /// Ensures the campaign tracks at least `n` accounts, adding trailing
    /// report-less accounts if needed.
    ///
    /// Filtering operations (e.g. budgeted selection) may drop every
    /// report of the highest-indexed accounts; this keeps account-indexed
    /// structures (fingerprints, owner labels) aligned. An already-built
    /// account index grows in place (empty trailing runs).
    pub fn reserve_accounts(&mut self, n: usize) {
        if n > self.num_accounts {
            self.num_accounts = n;
            if let Some(index) = self.by_account.get_mut() {
                index.offsets.grow(n);
            }
            self.generation += 1;
        }
    }

    /// Adds a report.
    ///
    /// Equivalent to [`SensingData::fold_batch`] with a single-report
    /// batch: already-built indexes are updated in place, never
    /// discarded.
    ///
    /// # Panics
    ///
    /// Panics where [`SensingData::check_report`] refuses the report: a
    /// task out of range, a non-finite value or timestamp, an account
    /// beyond `u32`, or an account that already reported this task (the
    /// paper's one-report-per-task rule).
    pub fn add_report(&mut self, account: usize, task: usize, value: f64, timestamp: f64) {
        self.fold_batch(&[Report {
            account,
            task,
            value,
            timestamp,
        }]);
    }

    /// Folds a batch of new reports (and any new accounts they introduce)
    /// into the campaign incrementally.
    ///
    /// Reports append to the flat list in batch order; already-built
    /// indexes are merged in place — one run shift per bucket plus the
    /// new entries at each run's tail — rather than rebuilt, so the
    /// resulting arrays are bit-identical to a from-scratch rebuild over
    /// the same report list while existing accessors stay warm. The
    /// derived statistics cache is invalidated and the generation bumps
    /// once per non-empty batch.
    ///
    /// # Panics
    ///
    /// Panics where [`SensingData::check_report`] refuses a report,
    /// including a duplicate within the batch. Callers that need graceful
    /// rejection check first.
    pub fn fold_batch(&mut self, batch: &[Report]) {
        if batch.is_empty() {
            return;
        }
        let base = self.reports.len();
        for r in batch {
            if let Err(reason) = self.check_report(r) {
                panic!("{reason}");
            }
            self.seen.insert((r.account, r.task));
            self.num_accounts = self.num_accounts.max(r.account + 1);
            self.reports.push(*r);
        }
        if let Some(index) = self.by_task.get_mut() {
            index.fold(self.num_tasks, batch);
        }
        if let Some(index) = self.by_account.get_mut() {
            index.fold(self.num_accounts, batch, base);
        }
        self.stats.take();
        self.generation += 1;
    }

    fn task_index(&self) -> &TaskIndex {
        self.by_task.get_or_init(|| {
            let mut index = TaskIndex::default();
            index.fold(self.num_tasks, &self.reports);
            index
        })
    }

    fn account_index(&self) -> &AccountIndex {
        self.by_account.get_or_init(|| {
            let mut index = AccountIndex::default();
            index.fold(self.num_accounts, &self.reports, 0);
            index
        })
    }

    /// All reports in insertion order.
    pub fn reports(&self) -> &[Report] {
        &self.reports
    }

    /// The reports account `account` submitted, in insertion order.
    ///
    /// Accounts that never reported return an empty iterator; its `len()`
    /// is the account's report count in O(1).
    pub fn account_reports(
        &self,
        account: usize,
    ) -> impl ExactSizeIterator<Item = &Report> + Clone {
        let indices: &[usize] = if account < self.num_accounts {
            let index = self.account_index();
            &index.reports[index.offsets.range(account)]
        } else {
            &[]
        };
        indices.iter().map(|&i| &self.reports[i])
    }

    /// The sorted task indices account `account` accomplished (its `T_i`).
    pub fn tasks_of(&self, account: usize) -> Vec<usize> {
        let mut tasks: Vec<usize> = self.account_reports(account).map(|r| r.task).collect();
        tasks.sort_unstable();
        tasks
    }

    /// The claims on `task` (the paper's `U_j` with values) as two
    /// parallel columns, the reporting accounts and their values, in
    /// report order. Borrowed from the task index and laid out
    /// contiguously, so a per-task pass reads them sequentially instead of
    /// gathering from the report list.
    ///
    /// # Panics
    ///
    /// Panics if `task >= num_tasks`.
    pub fn task_claims(&self, task: usize) -> (&[u32], &[f64]) {
        assert!(task < self.num_tasks, "task {task} out of range");
        let index = self.task_index();
        let run = index.offsets.range(task);
        (&index.accounts[run.clone()], &index.values[run])
    }

    /// The account's reports ordered by timestamp — its trajectory, as
    /// AG-TR consumes it.
    pub fn trajectory_of(&self, account: usize) -> Vec<Report> {
        let mut reports: Vec<Report> = self.account_reports(account).copied().collect();
        reports.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        reports
    }

    /// Computes (or returns the cached) derived per-task statistics. The
    /// cache is taken by every mutation, so a fresh generation recomputes
    /// on first read — the generation bump *is* the invalidation.
    fn task_stats(&self) -> &TaskStats {
        self.stats.get_or_init(|| {
            let mut sums = vec![0.0f64; self.num_tasks];
            let mut counts = vec![0usize; self.num_tasks];
            for r in &self.reports {
                sums[r.task] += r.value;
                counts[r.task] += 1;
            }
            let means: Vec<Option<f64>> = (0..self.num_tasks)
                .map(|t| (counts[t] > 0).then(|| sums[t] / counts[t] as f64))
                .collect();
            let mut sq = vec![0.0f64; self.num_tasks];
            for r in &self.reports {
                let mean = means[r.task].expect("reported task has a mean");
                sq[r.task] += (r.value - mean) * (r.value - mean);
            }
            let stds = (0..self.num_tasks)
                .map(|t| (counts[t] > 0).then(|| (sq[t] / counts[t] as f64).sqrt()))
                .collect();
            TaskStats { means, stds }
        })
    }

    /// Per-task mean of claimed values in one flat pass over the report
    /// list; `None` for tasks with no reports.
    ///
    /// The summation order per task matches per-task iteration (additions
    /// happen in increasing report-index order either way), so the means
    /// are bit-identical to a grouped computation. Cached until the next
    /// mutation.
    pub fn task_means(&self) -> Vec<Option<f64>> {
        self.task_stats().means.clone()
    }

    /// Per-task standard deviation of claimed values (CATD and RobustCRH
    /// measure residuals in its units); `None` for tasks with no reports.
    ///
    /// Flat passes over the report list — no per-task value buffers.
    /// Cached until the next mutation.
    pub fn task_value_std(&self) -> Vec<Option<f64>> {
        self.task_stats().stds.clone()
    }

    /// Splits the campaign into per-task centers (the claim means) and a
    /// copy whose values are residuals from those centers.
    ///
    /// Iterative algorithms run on the residuals and add the centers back:
    /// the fixed points are unchanged, but the arithmetic becomes
    /// independent of a global offset (useful both numerically — dBm
    /// values around −80 waste mantissa on the offset — and for exact
    /// translation equivariance).
    ///
    /// One flat pass computes the centers and the residual copy shares
    /// this campaign's indexes (their layout is position-based and
    /// value-independent), so no re-indexing or re-validation runs.
    /// The value-dependent statistics cache is dropped from the copy —
    /// residuals have their own means/stds.
    pub fn centered(&self) -> (SensingData, Vec<Option<f64>>) {
        let centers = self.task_means();
        let mut centered = self.clone();
        for r in &mut centered.reports {
            let c = centers[r.task].expect("reported task has a center");
            r.value -= c;
        }
        // The claim columns hold values too: the same subtraction keeps
        // them equal to the residual reports.
        if let Some(index) = centered.by_task.get_mut() {
            for (task, center) in centers.iter().enumerate() {
                if let Some(c) = center {
                    for value in &mut index.values[index.offsets.range(task)] {
                        *value -= c;
                    }
                }
            }
        }
        centered.stats.take();
        (centered, centers)
    }

    /// The activeness `α_i = |T_i| / m` of an account (Eq. 9).
    pub fn activeness(&self, account: usize) -> f64 {
        if self.num_tasks == 0 {
            return 0.0;
        }
        self.account_reports(account).len() as f64 / self.num_tasks as f64
    }
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        Json::obj([
            ("account", self.account.to_json()),
            ("task", self.task.to_json()),
            ("value", self.value.to_json()),
            ("timestamp", self.timestamp.to_json()),
        ])
    }
}

impl ToJson for SensingData {
    /// Encodes the semantic content — task count and the report list; the
    /// per-account and per-task indexes are derivable and omitted.
    fn to_json(&self) -> Json {
        Json::obj([
            ("num_tasks", self.num_tasks.to_json()),
            ("reports", self.reports.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_stay_consistent() {
        let mut d = SensingData::new(3);
        d.add_report(2, 1, 5.0, 10.0);
        d.add_report(0, 1, 6.0, 11.0);
        d.add_report(0, 2, 7.0, 12.0);
        assert_eq!(d.num_accounts(), 3);
        assert_eq!(d.num_reports(), 3);
        assert_eq!(d.tasks_of(0), vec![1, 2]);
        assert_eq!(d.tasks_of(1), Vec::<usize>::new());
        assert_eq!(d.task_claims(1), (&[2, 0][..], &[5.0, 6.0][..]));
        assert_eq!(d.task_claims(0), (&[][..], &[][..]));
    }

    #[test]
    fn csr_index_survives_interleaved_reads_and_writes() {
        // Reads build the indexes; the next writes fold into them.
        let mut d = SensingData::new(2);
        d.add_report(0, 0, 1.0, 0.0);
        assert_eq!(d.task_claims(0).0.len(), 1);
        assert_eq!(d.account_reports(0).len(), 1);
        d.add_report(1, 0, 2.0, 1.0);
        d.add_report(1, 1, 3.0, 2.0);
        assert_eq!(d.task_claims(0).0.len(), 2);
        assert_eq!(d.task_claims(1), (&[1][..], &[3.0][..]));
        assert_eq!(d.account_reports(1).len(), 2);
    }

    #[test]
    fn task_claims_preserve_insertion_order() {
        let mut d = SensingData::new(1);
        for (a, v) in [(3usize, 30.0), (0, 0.0), (2, 20.0)] {
            d.add_report(a, 0, v, 0.0);
        }
        assert_eq!(d.task_claims(0), (&[3, 0, 2][..], &[30.0, 0.0, 20.0][..]));
    }

    #[test]
    fn reserve_accounts_extends_and_invalidates() {
        let mut d = SensingData::new(1);
        d.add_report(0, 0, 1.0, 0.0);
        assert_eq!(d.account_reports(0).len(), 1); // builds the cache
        d.reserve_accounts(5);
        assert_eq!(d.num_accounts(), 5);
        assert_eq!(d.account_reports(4).len(), 0);
        assert_eq!(d.account_reports(7).len(), 0); // beyond reserve: empty
    }

    #[test]
    fn equality_ignores_index_caches() {
        let mut a = SensingData::new(2);
        a.add_report(0, 0, 1.0, 0.0);
        let mut b = SensingData::new(2);
        b.add_report(0, 0, 1.0, 0.0);
        let _ = a.task_claims(0); // a has a built index, b has not
        assert_eq!(a, b);
        b.reserve_accounts(3);
        assert_ne!(a, b);
    }

    #[test]
    fn trajectory_sorted_by_time() {
        let mut d = SensingData::new(3);
        d.add_report(0, 2, 1.0, 30.0);
        d.add_report(0, 0, 2.0, 10.0);
        d.add_report(0, 1, 3.0, 20.0);
        let traj = d.trajectory_of(0);
        let tasks: Vec<usize> = traj.iter().map(|r| r.task).collect();
        assert_eq!(tasks, vec![0, 1, 2]);
    }

    #[test]
    fn activeness_matches_eq9() {
        let mut d = SensingData::new(4);
        d.add_report(0, 0, 1.0, 0.0);
        d.add_report(0, 3, 1.0, 1.0);
        assert_eq!(d.activeness(0), 0.5);
        assert_eq!(d.activeness(7), 0.0);
    }

    #[test]
    fn task_value_std_handles_empty_tasks() {
        let mut d = SensingData::new(2);
        d.add_report(0, 0, 2.0, 0.0);
        d.add_report(1, 0, 4.0, 0.0);
        let stds = d.task_value_std();
        assert!((stds[0].unwrap() - 1.0).abs() < 1e-12);
        assert!(stds[1].is_none());
    }

    #[test]
    fn task_means_flat_pass_matches_grouped() {
        let mut d = SensingData::new(3);
        d.add_report(0, 0, 1.5, 0.0);
        d.add_report(1, 2, -4.0, 0.0);
        d.add_report(2, 0, 2.5, 0.0);
        d.add_report(3, 2, -6.0, 0.0);
        let means = d.task_means();
        assert_eq!(means[0], Some((1.5 + 2.5) / 2.0));
        assert_eq!(means[1], None);
        assert_eq!(means[2], Some((-4.0 + -6.0) / 2.0));
    }

    #[test]
    fn centered_shares_index_structure() {
        let mut d = SensingData::new(2);
        d.add_report(0, 0, -80.0, 0.0);
        d.add_report(1, 0, -82.0, 1.0);
        d.add_report(1, 1, -70.0, 2.0);
        let (centered, centers) = d.centered();
        assert_eq!(centers[0], Some(-81.0));
        assert_eq!(centers[1], Some(-70.0));
        assert_eq!(centered.num_accounts(), d.num_accounts());
        assert_eq!(centered.task_claims(0), (&[0, 1][..], &[1.0, -1.0][..]));
        // Residuals keep the original timestamps.
        assert_eq!(centered.reports()[2].timestamp, 2.0);
    }

    #[test]
    fn check_report_names_each_refusal() {
        let mut d = SensingData::new(2);
        d.add_report(0, 1, -70.0, 5.0);
        let report = |account, task, value, timestamp| Report {
            account,
            task,
            value,
            timestamp,
        };
        assert_eq!(d.check_report(&report(0, 0, -71.0, 6.0)), Ok(()));
        let refusals = [
            (report(0, 2, -71.0, 6.0), "task 2 out of range for 2 tasks"),
            (report(0, 0, f64::NAN, 6.0), "value NaN is not finite"),
            (
                report(0, 0, -71.0, f64::INFINITY),
                "timestamp inf is not finite",
            ),
            (
                report(1 << 32, 0, -71.0, 6.0),
                "account 4294967296 does not fit in u32",
            ),
            (
                report(0, 1, -71.0, 6.0),
                "account 0 already reported task 1",
            ),
        ];
        for (r, why) in refusals {
            assert_eq!(d.check_report(&r), Err(why.to_string()));
        }
    }

    #[test]
    #[should_panic(expected = "already reported")]
    fn duplicate_report_panics() {
        let mut d = SensingData::new(1);
        d.add_report(0, 0, 1.0, 0.0);
        d.add_report(0, 0, 2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_task_panics() {
        let mut d = SensingData::new(1);
        d.add_report(0, 1, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_value_panics() {
        let mut d = SensingData::new(1);
        d.add_report(0, 0, f64::NAN, 0.0);
    }

    /// A fixed mixed-shape batch: several accounts, shared tasks, one
    /// account appearing for the first time mid-batch.
    fn fold_fixture() -> Vec<Report> {
        vec![
            Report {
                account: 1,
                task: 0,
                value: 4.0,
                timestamp: 5.0,
            },
            Report {
                account: 6,
                task: 2,
                value: -2.0,
                timestamp: 6.0,
            },
            Report {
                account: 0,
                task: 0,
                value: 9.0,
                timestamp: 7.0,
            },
            Report {
                account: 6,
                task: 0,
                value: 1.0,
                timestamp: 8.0,
            },
        ]
    }

    #[test]
    fn fold_into_warm_index_matches_from_scratch_rebuild() {
        // `warm` reads (and therefore builds) both CSR indexes before the
        // fold; `cold` sees the same reports in the same order but builds
        // its indexes only after the fact. Every slice must agree.
        let mut warm = SensingData::new(3);
        warm.add_report(2, 1, 5.0, 10.0);
        warm.add_report(0, 1, 6.0, 11.0);
        warm.add_report(0, 2, 7.0, 12.0);
        let _ = warm.task_claims(1);
        let _ = warm.account_reports(0).len();
        let _ = warm.task_means();

        let mut cold = SensingData::new(3);
        cold.add_report(2, 1, 5.0, 10.0);
        cold.add_report(0, 1, 6.0, 11.0);
        cold.add_report(0, 2, 7.0, 12.0);

        warm.fold_batch(&fold_fixture());
        for r in fold_fixture() {
            cold.add_report(r.account, r.task, r.value, r.timestamp);
        }

        assert_eq!(warm, cold);
        assert_eq!(warm.num_accounts(), cold.num_accounts());
        for t in 0..3 {
            assert_eq!(warm.task_claims(t), cold.task_claims(t));
        }
        for a in 0..warm.num_accounts() {
            assert!(warm.account_reports(a).eq(cold.account_reports(a)));
        }
        assert_eq!(warm.task_means(), cold.task_means());
        assert_eq!(warm.task_value_std(), cold.task_value_std());
        assert_eq!(warm.centered().0, cold.centered().0);
    }

    #[test]
    fn fold_bumps_generation_and_empty_batch_is_a_noop() {
        let mut d = SensingData::new(2);
        let g0 = d.generation();
        d.fold_batch(&[]);
        assert_eq!(d.generation(), g0, "empty fold must not invalidate");
        d.add_report(0, 0, 1.0, 0.0);
        assert!(d.generation() > g0);
        let g1 = d.generation();
        d.reserve_accounts(8);
        assert!(d.generation() > g1);
    }

    #[test]
    fn fold_refreshes_value_dependent_stats() {
        let mut d = SensingData::new(1);
        d.add_report(0, 0, 2.0, 0.0);
        assert_eq!(d.task_means()[0], Some(2.0)); // caches the stats
        d.fold_batch(&[Report {
            account: 1,
            task: 0,
            value: 4.0,
            timestamp: 1.0,
        }]);
        assert_eq!(d.task_means()[0], Some(3.0));
    }

    #[test]
    fn has_report_probes_without_building_indexes() {
        let mut d = SensingData::new(2);
        d.add_report(3, 1, 1.0, 0.0);
        assert!(d.has_report(3, 1));
        assert!(!d.has_report(3, 0));
        assert!(!d.has_report(0, 1));
    }

    #[test]
    fn centered_copy_recomputes_its_own_stats() {
        let mut d = SensingData::new(1);
        d.add_report(0, 0, 10.0, 0.0);
        d.add_report(1, 0, 14.0, 1.0);
        let _ = d.task_means(); // warm the parent's stats cache
        let (centered, _) = d.centered();
        assert_eq!(centered.task_means()[0], Some(0.0));
        assert!((centered.task_value_std()[0].unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "already reported")]
    fn fold_batch_rejects_duplicates_within_the_batch() {
        let mut d = SensingData::new(1);
        d.fold_batch(&[
            Report {
                account: 0,
                task: 0,
                value: 1.0,
                timestamp: 0.0,
            },
            Report {
                account: 0,
                task: 0,
                value: 2.0,
                timestamp: 1.0,
            },
        ]);
    }
}
