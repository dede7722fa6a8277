//! Experiment harness reproducing every table and figure of the paper.
//!
//! Each binary in `src/bin/` regenerates one artifact (see the experiment
//! index in `DESIGN.md`); this library holds the shared plumbing:
//!
//! * [`table`] — fixed-width ASCII tables matching the paper's layout,
//! * [`sweep`] — seed-averaged activeness sweeps (the Fig. 6/7 axes),
//!   parallelized across seeds on the runtime's worker pool,
//! * [`runners`] — one-call wrappers running each aggregation method or
//!   grouping method on a scenario and scoring it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runners;
pub mod sweep;
pub mod table;

/// The attacker-activeness grid of Figs. 6 and 7.
pub const ATTACKER_ACTIVENESS_GRID: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

/// The legitimate-user activeness settings of Figs. 6 and 7 (one subplot
/// each).
pub const LEGIT_ACTIVENESS_SETTINGS: [f64; 3] = [0.2, 0.5, 1.0];

/// Seeds averaged per sweep cell. More seeds, smoother curves.
pub const DEFAULT_SEEDS: u64 = 20;
