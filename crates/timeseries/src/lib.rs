//! Time-series comparison primitives for trajectory-based account grouping.
//!
//! AG-TR regards each account's submissions as two time series — the task
//! index series `X_i` and the timestamp series `Y_i` — and groups accounts
//! whose combined DTW dissimilarity (Eq. 8) falls below a threshold. This
//! crate computes that DTW as the raw cumulative cost the paper's worked
//! example (Fig. 4) tabulates,
//!
//! ```text
//! DTW(A, B) = min over warping paths W of Σ_k ω_k
//! ```
//!
//! where `ω_k` are squared point distances along the path, via the standard
//! cumulative-distance dynamic program: [`dtw`](fn@dtw), and its early-abandoning
//! twin [`dtw_upper_bounded`]. Both confine warping to one adaptive
//! Sakoe–Chiba band chosen from the two lengths (series under 64 points
//! warp unconstrained). [`PrunedPairwise`] decides Eq. 8 over candidate
//! pairs through an LB_Kim → LB_Keogh → early-abandoning DP cascade.
//!
//! # Examples
//!
//! ```
//! use srtd_timeseries::{dtw, dtw_upper_bounded};
//!
//! // Fig. 4(a): DTW(X_1, X_2) = 2 for the Table III task series.
//! let x1 = [1.0, 2.0, 3.0, 4.0];
//! let x2 = [2.0, 3.0];
//! assert_eq!(dtw(&x1, &x2), 2.0);
//! // A budget below the cost abandons the dynamic program.
//! assert_eq!(dtw_upper_bounded(&x1, &x2, 1.0), f64::INFINITY);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod dtw;
mod pruned;

pub use bounds::{lb_keogh_env, lb_kim, Envelope};
pub use dtw::{dtw, dtw_upper_bounded};
pub use pruned::{PruneStats, PrunedPairwise};
