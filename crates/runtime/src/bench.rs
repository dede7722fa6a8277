//! Tiny wall-clock benchmark harness: warmup, then median of N samples.
//!
//! Each benchmark is a closure timed over batches. A warmup run first
//! sizes the batch so one sample takes roughly
//! [`BenchConfig::sample_time`]; the harness then times
//! [`BenchConfig::samples`] batches and reports the **median** per-call
//! time (robust to scheduler noise) together with the min/max spread.
//! No statistics beyond that — for regressions, compare medians.
//!
//! `bench_pipeline` (in `crates/bench`) builds one [`Bench`] per group
//! and calls [`Bench::run`] per case; [`BenchConfig::quick`] shrinks
//! warmup and sample counts for smoke runs.
//!
//! # Examples
//!
//! ```
//! use srtd_runtime::bench::{black_box, Bench, BenchConfig};
//!
//! let mut bench = Bench::with_config("demo", BenchConfig::quick());
//! let stats = bench.run("sum", || (0..100u64).map(black_box).sum::<u64>());
//! assert!(stats.median_ns > 0.0);
//! ```

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Timing budget of one benchmark case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchConfig {
    /// Wall-clock spent sizing the batch before measurement.
    pub warmup_time: Duration,
    /// Target wall-clock of one measured sample (one batch).
    pub sample_time: Duration,
    /// Number of measured samples; the median is reported.
    pub samples: u32,
}

impl Default for BenchConfig {
    /// ~1 s per case: 200 ms warmup + 15 samples of ~50 ms.
    fn default() -> Self {
        Self {
            warmup_time: Duration::from_millis(200),
            sample_time: Duration::from_millis(50),
            samples: 15,
        }
    }
}

impl BenchConfig {
    /// A fast configuration for smoke runs (~60 ms per case).
    pub fn quick() -> Self {
        Self {
            warmup_time: Duration::from_millis(20),
            sample_time: Duration::from_millis(5),
            samples: 7,
        }
    }
}

/// Median/min/max per-call nanoseconds of one benchmark case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchStats {
    /// Median per-call time across samples, in nanoseconds.
    pub median_ns: f64,
    /// Fastest sample's per-call time, in nanoseconds.
    pub min_ns: f64,
    /// Slowest sample's per-call time, in nanoseconds.
    pub max_ns: f64,
    /// Calls per measured sample.
    pub batch: u64,
}

impl BenchStats {
    fn human(ns: f64) -> String {
        if ns < 1e3 {
            format!("{ns:8.1} ns")
        } else if ns < 1e6 {
            format!("{:8.2} µs", ns / 1e3)
        } else if ns < 1e9 {
            format!("{:8.2} ms", ns / 1e6)
        } else {
            format!("{:8.2} s ", ns / 1e9)
        }
    }
}

/// One named group of benchmark cases writing aligned lines to stdout.
#[derive(Debug)]
pub struct Bench {
    group: String,
    config: BenchConfig,
}

impl Bench {
    /// A group with an explicit timing budget.
    pub fn with_config(group: impl Into<String>, config: BenchConfig) -> Self {
        let group = group.into();
        println!("group {group} (samples={})", config.samples);
        Self { group, config }
    }

    /// Times `f`, prints one result line and returns the statistics.
    pub fn run<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> BenchStats {
        // Warmup doubles the batch until it fills the warmup budget; the
        // measured batch is scaled to hit the per-sample target.
        let mut batch: u64 = 1;
        let mut warm_elapsed;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            warm_elapsed = start.elapsed();
            if warm_elapsed >= self.config.warmup_time || batch >= 1 << 40 {
                break;
            }
            batch *= 2;
        }
        let per_call = warm_elapsed.as_secs_f64() / batch as f64;
        let sample_batch = ((self.config.sample_time.as_secs_f64() / per_call.max(1e-12)) as u64)
            .clamp(1, 1 << 40);

        let mut samples_ns: Vec<f64> = (0..self.config.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..sample_batch {
                    black_box(f());
                }
                start.elapsed().as_secs_f64() * 1e9 / sample_batch as f64
            })
            .collect();
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));

        let stats = BenchStats {
            median_ns: samples_ns[samples_ns.len() / 2],
            min_ns: samples_ns[0],
            max_ns: *samples_ns.last().expect("at least one sample"),
            batch: sample_batch,
        };
        println!(
            "  {group}/{name:<28} {median}   [{min} .. {max}]  x{batch}",
            group = self.group,
            median = BenchStats::human(stats.median_ns),
            min = BenchStats::human(stats.min_ns).trim_start(),
            max = BenchStats::human(stats.max_ns).trim_start(),
            batch = stats.batch,
        );
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_positive_and_ordered() {
        let mut bench = Bench::with_config("test", BenchConfig::quick());
        let stats = bench.run("spin", || {
            let mut acc = 0u64;
            for i in 0..50u64 {
                acc = acc.wrapping_add(black_box(i * i));
            }
            acc
        });
        assert!(stats.median_ns > 0.0);
        assert!(stats.min_ns <= stats.median_ns && stats.median_ns <= stats.max_ns);
        assert!(stats.batch >= 1);
    }

    #[test]
    fn human_units_scale() {
        assert!(BenchStats::human(12.0).contains("ns"));
        assert!(BenchStats::human(12_000.0).contains("µs"));
        assert!(BenchStats::human(12_000_000.0).contains("ms"));
        assert!(BenchStats::human(2e9).contains('s'));
    }
}
