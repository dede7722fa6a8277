//! Synthetic MEMS device fingerprints.
//!
//! The paper's AG-FP grouping method identifies accounts that share a
//! physical device by fingerprinting the device's accelerometer and
//! gyroscope: manufacturing imperfections in the MEMS structure (electrode
//! gap differences, proof-mass asymmetries) shift the bias, gain and noise
//! of each chip in a way that is stable per device, similar within a model
//! family, and measurably different across models (§III-D, Figs. 1/2/8).
//!
//! We cannot ship 11 physical smartphones, so this crate *simulates* the
//! capture pipeline end to end:
//!
//! * [`DeviceModel`] — a model family (e.g. "iPhone 6S") with
//!   population-level MEMS parameters; [`catalog`] reproduces the Table IV
//!   inventory,
//! * [`DeviceInstance`] — one manufactured chip, with per-device
//!   imperfections drawn around its model's parameters,
//! * [`CaptureConfig`]/[`SensorCapture`] — a stationary hand-held capture
//!   session (the paper's 6-second sign-in hold): gravity plus hand tremor
//!   plus the device's bias/gain/noise signature,
//! * [`fingerprint_features`] — the 80-dimensional feature vector
//!   (20 Table-II features × 4 streams) that AG-FP clusters.
//!
//! The substitution preserves what AG-FP depends on: captures from the same
//! device cluster tightly, same-model devices are hard to separate, and
//! distinct models separate clearly.
//!
//! # Examples
//!
//! ```
//! use srtd_runtime::rng::SeedableRng;
//! use srtd_fingerprint::{catalog, CaptureConfig, fingerprint_features};
//!
//! let mut rng = srtd_runtime::rng::StdRng::seed_from_u64(7);
//! let models = catalog::standard_catalog();
//! let device = models[0].model.manufacture(&mut rng);
//! let capture = device.capture(&CaptureConfig::paper_default(), &mut rng);
//! let features = fingerprint_features(&capture);
//! assert_eq!(features.len(), 80);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod catalog;
pub mod device;
pub mod extract;

pub use capture::{CaptureConfig, SensorCapture};
pub use device::{DeviceInstance, DeviceModel, DeviceOs, MemsParameters};
pub use extract::{fingerprint_features, FINGERPRINT_DIMENSIONS};
