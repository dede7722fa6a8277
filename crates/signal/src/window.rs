//! The Hann window applied to every stream before its FFT.
//!
//! Fingerprint captures are short stationary recordings, so the Hann
//! window suppresses the spectral leakage that would otherwise swamp the
//! subtle per-chip resonance differences AG-FP relies on.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Hann coefficient at sample `i` of an `n`-sample frame, `n >= 2`.
fn hann(i: usize, n: usize) -> f64 {
    let x = i as f64 / (n - 1) as f64;
    0.5 - 0.5 * (2.0 * std::f64::consts::PI * x).cos()
}

/// The cached Hann coefficient table for an `n`-sample frame, or `None`
/// for frames shorter than 2 samples, whose only coefficient is `1.0`.
///
/// Tables are cached per length, like the FFT's twiddle tables, so
/// same-length captures (every stream of a campaign shares one capture
/// length) pay one cosine per sample once per process. The fused FFT
/// loaders read the table during their bit-reversal pass. A miss computes
/// the table under the cache lock, so for any length exactly one miss is
/// ever recorded however many threads race for it, and the
/// `signal.window.cache_{hits,misses}` counters stay deterministic across
/// worker-thread counts. A `None` ticks neither counter.
pub(crate) fn hann_table(n: usize) -> Option<Arc<Vec<f64>>> {
    if n < 2 {
        return None;
    }
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<Vec<f64>>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("window coefficient cache poisoned");
    if let Some(table) = map.get(&n) {
        srtd_runtime::obs::counter_add("signal.window.cache_hits", 1);
        return Some(table.clone());
    }
    srtd_runtime::obs::counter_add("signal.window.cache_misses", 1);
    let table = Arc::new((0..n).map(|i| hann(i, n)).collect::<Vec<_>>());
    map.insert(n, table.clone());
    Some(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hann_endpoints_are_zero_and_center_is_one() {
        let n = 101;
        assert!(hann(0, n).abs() < 1e-12);
        assert!(hann(n - 1, n).abs() < 1e-12);
        assert!((hann(50, n) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coefficients_bounded_by_one() {
        for i in 0..32 {
            let c = hann(i, 32);
            assert!((0.0..=1.0).contains(&c), "at {i}: {c}");
        }
    }

    /// The cached table holds the per-coefficient bits, on first use and
    /// on a repeat (the hit path).
    #[test]
    fn cached_table_matches_per_coefficient_values() {
        for n in [2usize, 3, 17, 64, 64, 601] {
            let table = hann_table(n).expect("a frame of 2 or more samples");
            assert_eq!(table.len(), n);
            for (i, c) in table.iter().enumerate() {
                assert_eq!(c.to_bits(), hann(i, n).to_bits(), "len {n}");
            }
        }
    }

    #[test]
    fn tiny_frames_have_no_table() {
        assert!(hann_table(0).is_none());
        assert!(hann_table(1).is_none());
    }
}
