//! Truth discovery algorithms for mobile crowdsensing.
//!
//! A truth discovery algorithm aggregates conflicting numeric reports from
//! sources of unknown reliability by jointly estimating per-source weights
//! and per-task truths (Algorithm 1 of the paper): sources whose data sit
//! close to the current truth estimates gain weight, and truths are
//! re-estimated as weight-averaged reports, until convergence.
//!
//! This crate provides:
//!
//! * [`SensingData`] — the account × task report matrix (with timestamps)
//!   shared by every algorithm and by the Sybil-resistant framework built
//!   on top in `srtd-core`; a task is read as its claims
//!   ([`SensingData::task_claims`], accounts and values in report order)
//!   and an account as its reports ([`SensingData::account_reports`]),
//! * [`Crh`] — the CRH algorithm (Li et al., SIGMOD 2014), the paper's
//!   baseline and representative of the truth discovery family,
//! * [`MeanVote`] / [`MedianVote`] — unweighted baselines,
//! * [`Catd`] — a confidence-aware variant that discounts the weights of
//!   long-tail sources (Li et al., VLDB 2014),
//! * [`Gtm`] — a Gaussian truth model solved by coordinate ascent (EM
//!   style),
//! * [`RobustCrh`] — CRH weights with weighted-median truth updates,
//! * [`StreamingCrh`] — one pass over time-ordered reports with
//!   exponential forgetting, for truths that evolve,
//! * [`categorical`] — weighted voting over discrete labels,
//! * the [`TruthDiscovery`] trait tying them together.
//!
//! `Crh`, `Catd`, `Gtm` and `RobustCrh` share one loop: each supplies only
//! a weight rule, a truth rule and its start truths, and the loop
//! alternates them on the campaign's per-task residuals
//! ([`SensingData::centered`]) until no truth moves more than 10⁻⁶, for
//! at most 1000 rounds (the default [`ConvergenceCriterion`]). They have
//! no settings: each is a unit struct.
//!
//! # Examples
//!
//! ```
//! use srtd_truth::{Crh, SensingData, TruthDiscovery};
//!
//! let mut data = SensingData::new(1);
//! data.add_report(0, 0, 10.0, 0.0); // account 0 says 10
//! data.add_report(1, 0, 10.2, 1.0); // account 1 says 10.2
//! data.add_report(2, 0, 30.0, 2.0); // account 2 is way off
//! let result = Crh.discover(&data);
//! let truth = result.truths[0].unwrap();
//! assert!((truth - 10.1).abs() < 1.0); // outlier is down-weighted
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod categorical;

mod baselines;
mod catd;
mod convergence;
mod crh;
mod data;
mod evolving;
mod gtm;
mod robust;
mod traits;

pub use baselines::{MeanVote, MedianVote};
pub use catd::Catd;
pub use convergence::{max_abs_delta, ConvergenceCriterion};
pub use crh::Crh;
pub use data::{Report, SensingData};
pub use evolving::{StreamingConfig, StreamingCrh};
pub use gtm::Gtm;
pub use robust::{weighted_median, RobustCrh};
pub use traits::{TruthDiscovery, TruthDiscoveryResult};
