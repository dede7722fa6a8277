//! The cloud-platform side of a mobile crowdsensing system.
//!
//! §III-A: "a typical MCS system consists of a cloud-based platform and a
//! crowd of participants. The platform first publicizes a set of sensing
//! tasks … each user submits [its accomplished task set] to the platform.
//! Meanwhile, the platform collects the sensor data from the device for
//! device fingerprinting." This crate is that platform, as an embeddable
//! epoch engine: reports arrive continuously while truths stay servable.
//!
//! * [`EpochEngine::enroll`] — register an account, capturing its device
//!   fingerprint at sign-in (the paper's 6-second hold),
//! * [`EpochEngine::ingest`] — the one place a report is admitted: one
//!   timestamped report per (account, task), enforcing the
//!   adversary-model assumptions the paper makes. Timestamps cannot be
//!   fabricated (§III-C cites a detection scheme \[31\]; here, a report
//!   past the clock set by [`EpochEngine::advance_clock`], dated before
//!   its account's enrollment or, under [`ReportRules::WifiRssi`],
//!   behind the account's own timeline is refused),
//! * [`EpochEngine::run_epoch`] — fold the buffered reports, re-group,
//!   re-run Sybil-resistant truth discovery warm-started, and publish an
//!   immutable [`EpochSnapshot`],
//! * [`EpochEngine::audit_report`] — flag the suspected Sybil groups of
//!   the latest snapshot.
//!
//! Against adaptive attackers who evade every behavioural grouping
//! signal, the engine can additionally run a [`StochasticAuditor`]:
//! deterministic seed-derived spot checks against trusted reference
//! values with a k-failure conviction machine (see [`stochastic`]).
//!
//! # Examples
//!
//! ```
//! use srtd_core::{SingletonGrouping, SybilResistantTd};
//! use srtd_platform::{EpochConfig, EpochEngine, IngestError, ReportRules};
//!
//! let mut engine = EpochEngine::new(
//!     SybilResistantTd::new(SingletonGrouping),
//!     2,
//!     EpochConfig::default(),
//! )
//! .with_report_rules(ReportRules::WifiRssi);
//! engine.enroll(0, vec![0.0; 80], 0.0).unwrap();
//! engine.advance_clock(100.0);
//! engine.ingest(0, 0, -77.0, 60.0)?;
//! assert_eq!(
//!     engine.ingest(0, 1, 20.0, 70.0),
//!     Err(IngestError::ImplausibleValue { value: 20.0 })
//! );
//! let snapshot = engine.run_epoch();
//! assert_eq!(snapshot.truths[0], Some(-77.0));
//! # Ok::<(), IngestError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod epoch;
mod error;
pub mod stochastic;

pub use audit::{AuditReport, SuspectGroup};
pub use epoch::{
    EpochConfig, EpochEngine, EpochReader, EpochSnapshot, ReportRules, CLOCK_TOLERANCE_S,
    MAX_ACCOUNTS, WIFI_RSSI_DBM,
};
pub use error::{EnrollError, IngestError};
pub use stochastic::{AuditPolicy, EpochAudit, StochasticAuditor};
