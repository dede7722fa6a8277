//! Streaming truth discovery with exponential forgetting.
//!
//! The truth of a sensing task can drift (Wi-Fi congestion varies through
//! the day); the batch algorithms in this crate assume a static truth.
//! Following the *evolving truth* line of work the paper cites (Li et
//! al., KDD 2015), [`StreamingCrh`] processes reports in timestamp order
//! and keeps exponentially-decayed sufficient statistics, so old claims
//! fade with a configurable half-life while source weights keep the
//! CRH-style inverse-loss form.

use crate::data::{Report, SensingData};

/// Floor on the decayed losses in the inverse-loss weight, so a perfect
/// account's weight stays finite. It is absolute, unlike [`crate::Crh`]'s
/// floor, which is 10⁻⁶ of the mean loss.
const LOSS_FLOOR: f64 = 1e-9;

/// Configuration for [`StreamingCrh`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingConfig {
    /// Time for a claim's influence to halve, in seconds.
    pub half_life_s: f64,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        Self {
            half_life_s: 1800.0,
        }
    }
}

impl StreamingConfig {
    /// Creates a configuration with the given half-life.
    ///
    /// # Panics
    ///
    /// Panics if `half_life_s` is not finite and positive.
    pub fn with_half_life(half_life_s: f64) -> Self {
        assert!(
            half_life_s.is_finite() && half_life_s > 0.0,
            "half-life must be positive, got {half_life_s}"
        );
        Self { half_life_s }
    }
}

/// Per-task decayed accumulators.
#[derive(Debug, Clone, Default)]
struct TaskState {
    /// Decayed Σ w·value.
    weighted_sum: f64,
    /// Decayed Σ w.
    weight_sum: f64,
    /// Timestamp the accumulators were last decayed to.
    as_of: f64,
}

/// Per-account decayed loss.
#[derive(Debug, Clone, Default)]
struct AccountState {
    loss: f64,
    as_of: f64,
    claims: usize,
}

/// Streaming CRH with exponential forgetting.
///
/// Feed reports in non-decreasing timestamp order with
/// [`StreamingCrh::observe`]; read the current estimate with
/// [`StreamingCrh::truth`]. [`StreamingCrh::replay`] runs a whole
/// campaign's reports through the stream.
///
/// # Examples
///
/// ```
/// use srtd_truth::{Report, StreamingConfig, StreamingCrh};
///
/// let mut stream = StreamingCrh::new(1, StreamingConfig::with_half_life(600.0));
/// stream.observe(Report { account: 0, task: 0, value: -80.0, timestamp: 0.0 });
/// stream.observe(Report { account: 1, task: 0, value: -78.0, timestamp: 30.0 });
/// // Hours later, the environment changed; new reports dominate.
/// stream.observe(Report { account: 0, task: 0, value: -60.0, timestamp: 36_000.0 });
/// assert!(stream.truth(0).unwrap() > -63.0);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingCrh {
    config: StreamingConfig,
    tasks: Vec<TaskState>,
    accounts: Vec<AccountState>,
    last_timestamp: f64,
    observed: usize,
}

impl StreamingCrh {
    /// Creates a stream over `num_tasks` tasks.
    pub fn new(num_tasks: usize, config: StreamingConfig) -> Self {
        Self {
            config,
            tasks: vec![TaskState::default(); num_tasks],
            accounts: Vec::new(),
            last_timestamp: f64::NEG_INFINITY,
            observed: 0,
        }
    }

    /// Number of reports observed so far.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Current truth estimate for `task`, or `None` before any report.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn truth(&self, task: usize) -> Option<f64> {
        let s = &self.tasks[task];
        (s.weight_sum > 0.0).then(|| s.weighted_sum / s.weight_sum)
    }

    /// All current truth estimates.
    pub fn truths(&self) -> Vec<Option<f64>> {
        (0..self.tasks.len()).map(|t| self.truth(t)).collect()
    }

    /// Current weight of `account` (decayed inverse loss); accounts that
    /// have not reported get weight `0.0`.
    pub fn account_weight(&self, account: usize) -> f64 {
        let Some(state) = self.accounts.get(account) else {
            return 0.0;
        };
        if state.claims == 0 {
            return 0.0;
        }
        let total: f64 = self
            .accounts
            .iter()
            .map(|a| a.loss)
            .sum::<f64>()
            .max(LOSS_FLOOR);
        (total / state.loss.max(LOSS_FLOOR)).ln().max(0.05)
    }

    fn decay_factor(&self, from: f64, to: f64) -> f64 {
        if !from.is_finite() || to <= from {
            return 1.0;
        }
        (0.5f64).powf((to - from) / self.config.half_life_s)
    }

    /// Ingests one report.
    ///
    /// # Panics
    ///
    /// Panics if the task is out of range, the value or timestamp is not
    /// finite, or the timestamp precedes an already-observed one (streams
    /// must be replayed in order).
    pub fn observe(&mut self, report: Report) {
        assert!(report.task < self.tasks.len(), "task out of range");
        assert!(report.value.is_finite(), "value must be finite");
        assert!(report.timestamp.is_finite(), "timestamp must be finite");
        assert!(
            report.timestamp >= self.last_timestamp,
            "reports must arrive in timestamp order ({} after {})",
            report.timestamp,
            self.last_timestamp
        );
        self.last_timestamp = report.timestamp;
        self.observed += 1;
        if report.account >= self.accounts.len() {
            self.accounts
                .resize_with(report.account + 1, AccountState::default);
        }

        // Decay the touched task to now.
        let decay = {
            let task = &self.tasks[report.task];
            self.decay_factor(task.as_of, report.timestamp)
        };
        let prior = self.truth(report.task);
        {
            let task = &mut self.tasks[report.task];
            task.weighted_sum *= decay;
            task.weight_sum *= decay;
            task.as_of = report.timestamp;
        }

        // Update the account's decayed loss against the prior estimate.
        let residual = prior.map_or(0.0, |t| (report.value - t).powi(2));
        {
            let a_decay = self.decay_factor(self.accounts[report.account].as_of, report.timestamp);
            let account = &mut self.accounts[report.account];
            account.loss = account.loss * a_decay + residual;
            account.as_of = report.timestamp;
            account.claims += 1;
        }

        // Fold the claim in with the account's current weight.
        let weight = self.account_weight(report.account).max(0.05);
        let task = &mut self.tasks[report.task];
        task.weighted_sum += weight * report.value;
        task.weight_sum += weight;
    }

    /// Replays a whole campaign in timestamp order and returns the final
    /// estimates.
    pub fn replay(num_tasks: usize, config: StreamingConfig, data: &SensingData) -> Self {
        let mut reports: Vec<Report> = data.reports().to_vec();
        reports.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        let mut stream = Self::new(num_tasks, config);
        for r in reports {
            stream.observe(r);
        }
        stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(account: usize, task: usize, value: f64, timestamp: f64) -> Report {
        Report {
            account,
            task,
            value,
            timestamp,
        }
    }

    #[test]
    fn estimates_converge_on_static_truth() {
        let mut s = StreamingCrh::new(1, StreamingConfig::default());
        for i in 0..20 {
            s.observe(report(
                i % 4,
                0,
                -75.0 + (i % 3) as f64 * 0.2,
                i as f64 * 10.0,
            ));
        }
        let t = s.truth(0).expect("reported");
        assert!((t + 74.8).abs() < 0.4, "{t}");
    }

    #[test]
    fn tracks_drifting_truth() {
        // Truth jumps from -80 to -60 halfway; the decayed estimate must
        // follow while a static mean would sit at -70.
        let cfg = StreamingConfig::with_half_life(300.0);
        let mut s = StreamingCrh::new(1, cfg);
        let mut t = 0.0;
        for i in 0..30 {
            s.observe(report(i % 5, 0, -80.0, t));
            t += 60.0;
        }
        for i in 0..30 {
            s.observe(report(i % 5, 0, -60.0, t));
            t += 60.0;
        }
        let estimate = s.truth(0).expect("reported");
        assert!(estimate > -62.5, "did not track drift: {estimate}");
    }

    #[test]
    fn longer_half_life_remembers_more() {
        let run = |half_life: f64| {
            let mut s = StreamingCrh::new(1, StreamingConfig::with_half_life(half_life));
            let mut t = 0.0;
            for _ in 0..10 {
                s.observe(report(0, 0, -80.0, t));
                t += 120.0;
            }
            s.observe(report(1, 0, -60.0, t));
            s.truth(0).expect("reported")
        };
        let short = run(60.0);
        let long = run(86_400.0);
        assert!(
            short > long,
            "short {short} should lean newer than long {long}"
        );
    }

    #[test]
    fn consistent_sources_outweigh_outliers_online() {
        let mut s = StreamingCrh::new(2, StreamingConfig::default());
        let mut t = 0.0;
        for round in 0..15 {
            let task = round % 2;
            s.observe(report(0, task, -75.0, t));
            s.observe(report(1, task, -75.4, t + 5.0));
            s.observe(report(2, task, -50.0, t + 10.0));
            t += 60.0;
        }
        assert!(s.account_weight(0) > s.account_weight(2));
        let truth = s.truth(0).expect("reported");
        assert!(truth < -68.0, "outlier dominated: {truth}");
    }

    #[test]
    fn replay_matches_manual_observation() {
        let mut data = SensingData::new(2);
        data.add_report(0, 1, 5.0, 100.0);
        data.add_report(1, 0, 3.0, 50.0);
        data.add_report(0, 0, 3.2, 150.0);
        let replayed = StreamingCrh::replay(2, StreamingConfig::default(), &data);
        let mut manual = StreamingCrh::new(2, StreamingConfig::default());
        manual.observe(report(1, 0, 3.0, 50.0));
        manual.observe(report(0, 1, 5.0, 100.0));
        manual.observe(report(0, 0, 3.2, 150.0));
        assert_eq!(replayed.truths(), manual.truths());
        assert_eq!(replayed.observed(), 3);
    }

    #[test]
    fn unreported_tasks_are_none() {
        let s = StreamingCrh::new(3, StreamingConfig::default());
        assert_eq!(s.truths(), vec![None, None, None]);
        assert_eq!(s.account_weight(7), 0.0);
    }

    #[test]
    #[should_panic(expected = "timestamp order")]
    fn out_of_order_reports_panic() {
        let mut s = StreamingCrh::new(1, StreamingConfig::default());
        s.observe(report(0, 0, 1.0, 100.0));
        s.observe(report(1, 0, 1.0, 50.0));
    }

    #[test]
    #[should_panic(expected = "half-life")]
    fn bad_half_life_panics() {
        StreamingConfig::with_half_life(0.0);
    }
}
