//! Platform-side rejection reasons: why [`crate::EpochEngine::ingest`]
//! refused a report and why [`crate::EpochEngine::enroll`] refused an
//! account.

use crate::epoch::MAX_ACCOUNTS;
use std::error::Error;
use std::fmt;

/// Why an enrollment was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum EnrollError {
    /// The account index is at or above [`MAX_ACCOUNTS`].
    AccountOutOfRange {
        /// The offending account index.
        account: usize,
    },
    /// The account is already enrolled.
    AlreadyEnrolled {
        /// The account index.
        account: usize,
    },
    /// The fingerprint's width differs from the first enrolled
    /// fingerprint's.
    BadFingerprint {
        /// Dimensions received.
        got: usize,
        /// Dimensions required.
        want: usize,
    },
    /// A fingerprint value is NaN or infinite.
    NonFiniteFingerprint,
}

impl fmt::Display for EnrollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnrollError::AccountOutOfRange { account } => {
                write!(
                    f,
                    "account {account} is not below the {MAX_ACCOUNTS}-account limit"
                )
            }
            EnrollError::AlreadyEnrolled { account } => {
                write!(f, "account {account} is already enrolled")
            }
            EnrollError::BadFingerprint { got, want } => {
                write!(
                    f,
                    "fingerprint has {got} dimensions, platform requires {want}"
                )
            }
            EnrollError::NonFiniteFingerprint => {
                write!(f, "fingerprint contains non-finite values")
            }
        }
    }
}

impl Error for EnrollError {}

/// Why the epoch engine refused a report at ingest. The variants are
/// listed in admission order: the first failing check wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestError {
    /// The task index is outside the campaign.
    UnknownTask {
        /// The offending task index.
        task: usize,
        /// Tasks in the campaign.
        num_tasks: usize,
    },
    /// The value is NaN or infinite.
    NonFiniteValue,
    /// The timestamp is NaN or infinite.
    NonFiniteTimestamp,
    /// The account index is at or above [`MAX_ACCOUNTS`].
    AccountOutOfRange {
        /// The offending account index.
        account: usize,
    },
    /// The account already reported this task — folded or still buffered
    /// (the paper's one-report rule: "each account is allowed to submit
    /// at most one data for one task").
    DuplicateReport,
    /// The timestamp lies more than [`crate::CLOCK_TOLERANCE_S`] past the
    /// clock the caller set — the §III-C assumption that "the timestamps
    /// cannot be fabricated", enforced.
    FutureTimestamp {
        /// Claimed submission time.
        claimed: f64,
        /// Clock at receipt.
        clock: f64,
    },
    /// The timestamp precedes the account's enrollment.
    BeforeEnrollment,
    /// Under [`crate::ReportRules::WifiRssi`]: the timestamp runs
    /// backwards relative to the account's latest accepted report (a
    /// device cannot un-visit a POI).
    NonMonotoneTimestamp,
    /// Under [`crate::ReportRules::WifiRssi`]: the value lies outside
    /// [`crate::WIFI_RSSI_DBM`].
    ImplausibleValue {
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::UnknownTask { task, num_tasks } => {
                write!(f, "task {task} is outside the {num_tasks}-task campaign")
            }
            IngestError::NonFiniteValue => write!(f, "value is not finite"),
            IngestError::NonFiniteTimestamp => write!(f, "timestamp is not finite"),
            IngestError::AccountOutOfRange { account } => {
                write!(
                    f,
                    "account {account} is not below the {MAX_ACCOUNTS}-account limit"
                )
            }
            IngestError::DuplicateReport => {
                write!(f, "account already reported this task")
            }
            IngestError::FutureTimestamp { claimed, clock } => {
                write!(
                    f,
                    "timestamp {claimed} is ahead of the platform clock {clock}"
                )
            }
            IngestError::BeforeEnrollment => {
                write!(f, "timestamp precedes the account's enrollment")
            }
            IngestError::NonMonotoneTimestamp => {
                write!(f, "timestamp runs backwards for this account")
            }
            IngestError::ImplausibleValue { value } => {
                write!(f, "value {value} is outside the campaign's plausible band")
            }
        }
    }
}

impl Error for IngestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let errors: Vec<Box<dyn Error>> = vec![
            Box::new(EnrollError::AccountOutOfRange { account: 7 }),
            Box::new(EnrollError::AlreadyEnrolled { account: 7 }),
            Box::new(EnrollError::BadFingerprint { got: 3, want: 80 }),
            Box::new(EnrollError::NonFiniteFingerprint),
            Box::new(IngestError::FutureTimestamp {
                claimed: 10.0,
                clock: 5.0,
            }),
            Box::new(IngestError::BeforeEnrollment),
            Box::new(IngestError::NonMonotoneTimestamp),
            Box::new(IngestError::ImplausibleValue { value: 9e9 }),
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().expect("non-empty").is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }
}
