//! Sybil auditing: grouping results turned into an operator-facing report.

use srtd_core::Grouping;

/// One suspected Sybil cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuspectGroup {
    /// Group index in the underlying [`Grouping`].
    pub group: usize,
    /// The accounts in the cluster (sorted).
    pub accounts: Vec<usize>,
}

/// The outcome of [`crate::EpochEngine::audit_report`].
///
/// The paper deliberately does *not* ban suspected accounts ("we do not
/// directly eliminate the data submitted by suspicious accounts since
/// there might be false-positives"); the audit therefore reports, it does
/// not enforce — the framework's weighting handles enforcement softly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    grouping: Grouping,
    method: &'static str,
    min_group_size: usize,
    effective_min_group_size: usize,
    suspects: Vec<SuspectGroup>,
    convicted: Vec<usize>,
}

impl AuditReport {
    pub(crate) fn build(grouping: Grouping, method: &'static str, min_group_size: usize) -> Self {
        // A Sybil cluster needs at least two accounts; thresholds of 0 or 1
        // would flag every singleton, so the filter clamps to 2. The clamp
        // is recorded, not silent: `min_group_size()` reports what was
        // requested and `effective_min_group_size()` what was applied.
        let effective_min_group_size = min_group_size.max(2);
        let suspects: Vec<SuspectGroup> = grouping
            .groups()
            .iter()
            .enumerate()
            .filter(|(_, members)| members.len() >= effective_min_group_size)
            .map(|(group, members)| SuspectGroup {
                group,
                accounts: members.clone(),
            })
            .collect();
        srtd_runtime::obs::event(
            "platform.audit",
            [
                ("method", srtd_runtime::json::Json::str(method)),
                (
                    "min_group_size",
                    srtd_runtime::json::ToJson::to_json(&min_group_size),
                ),
                (
                    "effective_min_group_size",
                    srtd_runtime::json::ToJson::to_json(&effective_min_group_size),
                ),
                (
                    "suspect_groups",
                    srtd_runtime::json::ToJson::to_json(&suspects.len()),
                ),
                (
                    "suspect_accounts",
                    srtd_runtime::json::ToJson::to_json(
                        &suspects.iter().map(|s| s.accounts.len()).sum::<usize>(),
                    ),
                ),
            ],
        );
        Self {
            grouping,
            method,
            min_group_size,
            effective_min_group_size,
            suspects,
            convicted: Vec::new(),
        }
    }

    /// Joins stochastic-audit convictions into the report: convicted
    /// accounts count as suspects regardless of their group's size
    /// (conviction rests on spot-check evidence, not on clustering).
    pub fn with_convictions(mut self, mut convicted: Vec<usize>) -> Self {
        convicted.sort_unstable();
        convicted.dedup();
        self.convicted = convicted;
        self
    }

    /// Accounts convicted by the stochastic audit (sorted; empty unless
    /// [`AuditReport::with_convictions`] was applied).
    pub fn convicted(&self) -> &[usize] {
        &self.convicted
    }

    /// The grouping method that produced this audit.
    pub fn method(&self) -> &'static str {
        self.method
    }

    /// The size threshold that was requested for flagging.
    ///
    /// The filter never flags clusters smaller than two accounts; see
    /// [`AuditReport::effective_min_group_size`] for the threshold actually
    /// applied.
    pub fn min_group_size(&self) -> usize {
        self.min_group_size
    }

    /// The size threshold actually applied: the requested
    /// [`AuditReport::min_group_size`] clamped up to 2, since a Sybil
    /// cluster needs at least a pair of accounts.
    pub fn effective_min_group_size(&self) -> usize {
        self.effective_min_group_size
    }

    /// The full grouping (suspected and unsuspected accounts alike).
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// The flagged clusters, in group order.
    pub fn suspects(&self) -> &[SuspectGroup] {
        &self.suspects
    }

    /// Returns `true` if `account` sits in any flagged cluster or has
    /// been convicted by the stochastic audit.
    pub fn is_suspect(&self, account: usize) -> bool {
        self.convicted.binary_search(&account).is_ok()
            || self
                .suspects
                .iter()
                .any(|s| s.accounts.binary_search(&account).is_ok())
    }

    /// Fraction of accounts sitting in flagged clusters or convicted
    /// (counting each account once).
    pub fn suspect_share(&self) -> f64 {
        let n = self.grouping.num_accounts();
        if n == 0 {
            return 0.0;
        }
        let flagged = (0..n).filter(|&a| self.is_suspect(a)).count();
        flagged as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(labels: &[usize], min: usize) -> AuditReport {
        AuditReport::build(Grouping::from_labels(labels), "AG-TEST", min)
    }

    #[test]
    fn flags_groups_at_or_above_threshold() {
        // Groups: {0,1,2}, {3}, {4,5}.
        let r = report(&[0, 0, 0, 1, 2, 2], 3);
        assert_eq!(r.suspects().len(), 1);
        assert_eq!(r.suspects()[0].accounts, vec![0, 1, 2]);
        assert!(r.is_suspect(1));
        assert!(!r.is_suspect(3));
        assert!(!r.is_suspect(4));
        assert!((r.suspect_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn threshold_below_two_still_requires_a_pair() {
        // min_group_size 1 would flag every singleton — clamped to 2.
        let r = report(&[0, 1, 2], 1);
        assert!(r.suspects().is_empty());
        assert_eq!(r.suspect_share(), 0.0);
    }

    #[test]
    fn clamped_threshold_is_reported_not_silent() {
        // Regression: `min_group_size()` used to claim the requested value
        // while the filter quietly used `max(2)`. Both must now be visible.
        let r = report(&[0, 0, 1], 0);
        assert_eq!(r.min_group_size(), 0, "requested threshold preserved");
        assert_eq!(r.effective_min_group_size(), 2, "applied threshold");
        // The pair {0, 1} is flagged under the effective threshold.
        assert_eq!(r.suspects().len(), 1);
        assert_eq!(r.suspects()[0].accounts, vec![0, 1]);
        assert!(!r.is_suspect(2));
        // At or above 2 the requested and effective thresholds agree.
        let r3 = report(&[0, 0, 1], 3);
        assert_eq!(r3.min_group_size(), 3);
        assert_eq!(r3.effective_min_group_size(), 3);
    }

    #[test]
    fn convictions_join_the_suspect_set() {
        // Groups: {0,1,2}, {3}, {4}. Account 3 is convicted by audit.
        let r = report(&[0, 0, 0, 1, 2], 3).with_convictions(vec![3, 3]);
        assert_eq!(r.convicted(), &[3], "deduplicated");
        assert!(r.is_suspect(0), "grouping suspect");
        assert!(r.is_suspect(3), "convicted singleton counts as suspect");
        assert!(!r.is_suspect(4));
        assert!((r.suspect_share() - 0.8).abs() < 1e-12);
        // Overlap is not double counted.
        let r = report(&[0, 0, 0, 1, 2], 3).with_convictions(vec![0, 3]);
        assert!((r.suspect_share() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_platform_audits_cleanly() {
        let r = report(&[], 2);
        assert!(r.suspects().is_empty());
        assert_eq!(r.suspect_share(), 0.0);
        assert_eq!(r.method(), "AG-TEST");
    }
}
