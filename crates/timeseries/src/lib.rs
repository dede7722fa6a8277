//! Time-series comparison primitives for trajectory-based account grouping.
//!
//! AG-TR regards each account's submissions as two time series — the task
//! index series `X_i` and the timestamp series `Y_i` — and groups accounts
//! whose combined DTW dissimilarity (Eq. 8) falls below a threshold. This
//! crate implements the Dynamic Time Warping distance of Eq. 7,
//!
//! ```text
//! DTW(A, B) = min over warping paths W of sqrt( Σ_k ω_k / K )
//! ```
//!
//! where `ω_k` are squared point distances along the path, via the standard
//! cumulative-distance dynamic program, plus the raw cumulative cost that
//! Fig. 4 tabulates and AG-TR groups on. A Sakoe–Chiba band bounds the
//! warping window for long series ([`adaptive_band`] picks it), and
//! [`PrunedPairwise`] decides Eq. 8 over candidate pairs through an
//! LB_Kim → LB_Keogh → early-abandoning DP cascade.
//!
//! # Examples
//!
//! ```
//! use srtd_timeseries::{dtw, Dtw};
//!
//! assert_eq!(dtw(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 0.0);
//! // Time-shifted copies are close under DTW even though they differ
//! // point-wise.
//! let a = [0.0, 0.0, 1.0, 2.0, 3.0];
//! let b = [0.0, 1.0, 2.0, 3.0, 3.0];
//! assert!(dtw(&a, &b) < 0.5);
//! let banded = Dtw::new().with_band(1).distance(&a, &b);
//! assert!(banded >= dtw(&a, &b));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod dtw;
mod pruned;

pub use bounds::{lb_keogh_env, lb_kim, Envelope};
pub use dtw::{dtw, Dtw};
pub use pruned::{adaptive_band, PruneStats, PrunedPairwise};
