//! Std-only runtime substrate for the Sybil-resistant truth discovery
//! workspace.
//!
//! Every crate in the workspace builds offline against the standard
//! library alone; this crate owns the pieces that would otherwise come
//! from the crates.io ecosystem:
//!
//! * [`rng`] — a deterministic, seedable PRNG (SplitMix64 seeding feeding
//!   a xoshiro256++ core) with the uniform/normal/shuffle/choice surface
//!   the simulators and clustering code need,
//! * [`parallel`] — deterministic data parallelism (order-preserving
//!   `parallel_map` over contiguous chunks) used by the hot paths: DTW
//!   pairwise dissimilarity matrices, k-means assignment and per-account
//!   fingerprint feature extraction,
//! * [`pool`] — the persistent worker pool behind [`parallel`]: parked
//!   `Mutex`+`Condvar` workers woken per batch, so no region pays a
//!   thread spawn (a nested or concurrent region that finds the pool busy
//!   runs inline on its caller's thread),
//! * [`prop`] — a minimal deterministic property-test harness (seeded
//!   generator loop with failure-case reporting) plus the
//!   [`prop_assert!`]/[`prop_assert_eq!`] macros the test suites use,
//! * [`bench`](mod@bench) — a tiny wall-clock benchmark harness (warmup + median of
//!   N samples) backing the `crates/bench` binaries,
//! * [`json`] — a hand-rolled JSON encoder ([`json::ToJson`]) and strict
//!   parser ([`json::parse`]) for the simulation artifacts that
//!   previously derived `serde::Serialize`,
//! * [`obs`] — a zero-cost-when-disabled observability layer (counters,
//!   gauges, histograms, RAII timing spans, structured events) that the
//!   whole SRTD pipeline reports into, gated by `SRTD_OBS=1` and exported
//!   via `SRTD_OBS_JSON=<path>`.
//!
//! Determinism is a design constraint throughout: the PRNG stream depends
//! only on its seed, and every parallel operation returns results in
//! input order, so framework outputs are byte-identical across runs and
//! across worker-thread counts.

// Unsafe is denied, not forbidden: `pool` carries the crate's single
// audited exception (one lifetime transmute behind a completion barrier;
// see its module docs). Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod json;
pub mod obs;
pub mod parallel;
pub mod pool;
pub mod prop;
pub mod rng;
