//! Signal processing for MEMS device fingerprinting.
//!
//! The AG-FP grouping method characterizes each of the four sensor streams
//! (accelerometer magnitude and the three gyroscope axes) with the 20
//! features of Table II in the paper: 9 temporal and 11 spectral. The paper
//! extracts the spectral set with MIRtoolbox; this crate implements the same
//! feature definitions (Peeters 2004) from scratch on top of a radix-2 FFT,
//! so the whole pipeline is pure Rust:
//!
//! * [`fft`] — the windowed real FFT, one stream or a packed pair,
//! * [`spectrum`] — magnitude spectra and peak picking,
//! * [`temporal`] — the 9 time-domain features,
//! * [`spectral`] — the 11 frequency-domain features,
//! * [`features`] — the combined 20-dimensional vector per stream, one
//!   batch at a time, and feature-matrix standardization for clustering.
//!
//! Every stream is Hann-windowed before its FFT, and the brightness
//! cut-off is 0.3 × Nyquist; neither is a setting.
//!
//! # Examples
//!
//! ```
//! use srtd_signal::stream_features_batch;
//!
//! let signal: Vec<f64> = (0..256)
//!     .map(|i| (i as f64 * 0.3).sin() + 0.1)
//!     .collect();
//! let f = stream_features_batch(&[signal], 100.0);
//! assert_eq!(f[0].to_vec().len(), 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod complex;
pub mod features;
pub mod fft;
pub mod spectral;
pub mod spectrum;
pub mod stats;
pub mod temporal;
mod window;

pub use complex::Complex;
pub use features::{stream_features_batch, StreamFeatures};
pub use spectrum::Spectrum;
