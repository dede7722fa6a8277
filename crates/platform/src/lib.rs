//! The cloud-platform side of a mobile crowdsensing system.
//!
//! §III-A: "a typical MCS system consists of a cloud-based platform and a
//! crowd of participants. The platform first publicizes a set of sensing
//! tasks … each user submits [its accomplished task set] to the platform.
//! Meanwhile, the platform collects the sensor data from the device for
//! device fingerprinting." This crate is that platform, as an embeddable
//! service object:
//!
//! * [`Platform::publish_tasks`] — open a campaign,
//! * [`Platform::enroll`] — register an account, capturing its device
//!   fingerprint at sign-in (the paper's 6-second hold),
//! * [`Platform::submit`] — accept one timestamped report per (account,
//!   task), enforcing the adversary-model assumptions the paper makes:
//!   timestamps cannot be fabricated (§III-C cites a detection scheme
//!   [31]; here, submissions outside the plausible clock window or
//!   behind the account's own timeline are rejected),
//! * [`Platform::audit`] — run a pluggable account-grouping method and
//!   flag suspected Sybil groups,
//! * [`Platform::aggregate`] / [`Platform::aggregate_resistant`] — plain
//!   or Sybil-resistant truth discovery over everything accepted so far.
//!
//! For the streaming regime — reports arriving continuously while truths
//! stay servable — [`EpochEngine`] wraps the same pipeline in an
//! incremental epoch loop: buffered ingest, fold at epoch boundaries,
//! warm-started re-discovery, immutable published snapshots. Against
//! adaptive attackers who evade every behavioural grouping signal, the
//! engine can additionally run a [`StochasticAuditor`]: deterministic
//! seed-derived spot checks against trusted reference values with a
//! k-failure conviction machine (see [`stochastic`]).
//!
//! # Examples
//!
//! ```
//! use srtd_platform::{Platform, PlatformConfig};
//! use srtd_truth::Crh;
//!
//! let mut platform = Platform::new(PlatformConfig::default());
//! platform.publish_tasks(2);
//! let alice = platform.enroll(vec![0.0; 80], 0.0).unwrap();
//! platform.advance_clock(100.0);
//! platform.submit(alice, 0, -77.0, 60.0)?;
//! let result = platform.aggregate(&Crh::default());
//! assert_eq!(result.truths[0], Some(-77.0));
//! # Ok::<(), srtd_platform::SubmitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod epoch;
mod error;
mod service;
pub mod stochastic;

pub use audit::{AuditReport, SuspectGroup};
pub use epoch::{EpochConfig, EpochEngine, EpochReader, EpochSnapshot, IngestError, MAX_ACCOUNTS};
pub use error::{EnrollError, SubmitError};
pub use service::{AccountId, Platform, PlatformConfig};
pub use stochastic::{AuditPolicy, EpochAudit, StochasticAuditor};
