//! Cheap lower bounds on the raw DTW cost, for pruning pairwise
//! comparisons.
//!
//! AG-TR keeps only the candidate pairs whose Eq. 8 DTW dissimilarity
//! falls below a threshold `φ`. Both bounds here under-estimate the raw
//! cumulative DTW cost in `O(m)` time, so a pair whose *bound* already
//! exceeds `φ` can be skipped without running the `O(m·n)` dynamic
//! program.

use crate::dtw::band;
use std::collections::VecDeque;

/// Precomputed Sakoe–Chiba envelope of one series: running min/max over
/// a centered window of the half-width [`dtw`](fn@crate::dtw) applies to a
/// pair of series of this length.
///
/// The envelope is what makes an LB_Keogh *cascade* cheap: it depends only
/// on the reference series, so a pairwise pass computes one envelope per
/// series up front and reuses it against every equal-length query
/// ([`lb_keogh_env`] is then `O(n)` per pair with no window scan). Built
/// with the monotonic-deque sliding min/max, so construction is `O(n)`
/// regardless of the band width.
///
/// # Examples
///
/// ```
/// use srtd_timeseries::{dtw, lb_keogh_env, Envelope};
///
/// let q = [0.0, 1.0, 2.0, 1.0];
/// let r = [1.0, 1.0, 1.0, 1.0];
/// let bound = lb_keogh_env(&q, &Envelope::new(&r));
/// assert!(bound > 0.0 && bound <= dtw(&q, &r));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    upper: Vec<f64>,
    lower: Vec<f64>,
}

impl Envelope {
    /// The envelope of `series`, over the band `dtw` applies to a pair of
    /// series of this length. An unbanded pair gets a window spanning the
    /// whole series; otherwise LB_Keogh would not bound its cost.
    pub fn new(series: &[f64]) -> Self {
        let n = series.len();
        Self::with_band(series, band(n, n).unwrap_or(n))
    }

    /// The envelope of `series` for half-width `band` (clamped to the
    /// series length — wider adds nothing).
    fn with_band(series: &[f64], band: usize) -> Self {
        let n = series.len();
        let w = band.min(n.saturating_sub(1));
        let mut upper = Vec::with_capacity(n);
        let mut lower = Vec::with_capacity(n);
        // Monotonic deques of indices: `maxq` decreasing, `minq`
        // increasing; the front is always the window extremum.
        let mut maxq: VecDeque<usize> = VecDeque::new();
        let mut minq: VecDeque<usize> = VecDeque::new();
        let mut next = 0usize;
        for i in 0..n {
            while next <= (i + w).min(n - 1) {
                while maxq.back().is_some_and(|&k| series[k] <= series[next]) {
                    maxq.pop_back();
                }
                maxq.push_back(next);
                while minq.back().is_some_and(|&k| series[k] >= series[next]) {
                    minq.pop_back();
                }
                minq.push_back(next);
                next += 1;
            }
            let lo = i.saturating_sub(w);
            while maxq.front().is_some_and(|&k| k < lo) {
                maxq.pop_front();
            }
            while minq.front().is_some_and(|&k| k < lo) {
                minq.pop_front();
            }
            upper.push(series[maxq[0]]);
            lower.push(series[minq[0]]);
        }
        Self { upper, lower }
    }

    /// Number of points (same as the underlying series).
    pub fn len(&self) -> usize {
        self.upper.len()
    }

    /// `true` for the envelope of an empty series.
    pub fn is_empty(&self) -> bool {
        self.upper.is_empty()
    }
}

/// LB_Keogh against a precomputed [`Envelope`]: the squared distance from
/// `query` to the envelope, a lower bound on [`dtw`](fn@crate::dtw) of
/// `query` and the envelope's series (their lengths being equal, the
/// envelope's window is the band the cost is taken under).
///
/// # Panics
///
/// Panics if `query.len() != env.len()` — the classic LB_Keogh setting
/// requires equal lengths; callers with ragged series fall back to
/// [`lb_kim`] (which is length-agnostic) instead.
pub fn lb_keogh_env(query: &[f64], env: &Envelope) -> f64 {
    assert_eq!(
        query.len(),
        env.len(),
        "LB_Keogh requires equal-length series"
    );
    let mut bound = 0.0;
    for (i, &q) in query.iter().enumerate() {
        let upper = env.upper[i];
        let lower = env.lower[i];
        if q > upper {
            bound += (q - upper).powi(2);
        } else if q < lower {
            bound += (lower - q).powi(2);
        }
    }
    bound
}

/// LB_Kim (simplified): every warping path aligns the first points and
/// the last points, so their squared distances always contribute.
///
/// Returns a lower bound on [`dtw`](fn@crate::dtw)`(a, b)` under any band.
/// Degenerate inputs follow the DTW conventions (`0` for two empty
/// series, `∞` when exactly one is empty).
///
/// # Examples
///
/// ```
/// use srtd_timeseries::{dtw, lb_kim};
///
/// let a = [0.0, 5.0, 1.0];
/// let b = [2.0, 2.0, 2.0];
/// assert!(lb_kim(&a, &b) <= dtw(&a, &b));
/// ```
pub fn lb_kim(a: &[f64], b: &[f64]) -> f64 {
    match (a.len(), b.len()) {
        (0, 0) => 0.0,
        (0, _) | (_, 0) => f64::INFINITY,
        (1, _) | (_, 1) => {
            // With a single point on one side, every point of the other
            // aligns to it; the closest single contribution still bounds.

            (a[0] - b[0]).powi(2)
        }
        _ => {
            let first = (a[0] - b[0]).powi(2);
            let last = (a[a.len() - 1] - b[b.len() - 1]).powi(2);
            first + last
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw;
    use crate::dtw::dtw_with_band;
    use srtd_runtime::rng::Rng;
    use srtd_runtime::{prop, prop_assert, prop_assert_eq};

    /// LB_Keogh of `query` against `reference`'s envelope at window `w`.
    fn keogh(query: &[f64], reference: &[f64], w: usize) -> f64 {
        lb_keogh_env(query, &Envelope::with_band(reference, w))
    }

    /// Raw DTW at half-width `w` (`None` = unconstrained).
    fn dtw_at(a: &[f64], b: &[f64], w: Option<usize>) -> f64 {
        dtw_with_band(a, b, w, f64::INFINITY)
    }

    #[test]
    fn kim_bound_zero_for_identical() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(lb_kim(&xs, &xs), 0.0);
    }

    #[test]
    fn kim_degenerate_conventions_match_dtw() {
        assert_eq!(lb_kim(&[], &[]), 0.0);
        assert_eq!(lb_kim(&[], &[1.0]), f64::INFINITY);
        assert_eq!(lb_kim(&[1.0], &[]), f64::INFINITY);
    }

    #[test]
    fn keogh_zero_when_inside_envelope() {
        let q = [1.0, 1.0, 1.0];
        let r = [0.0, 2.0, 0.0];
        assert_eq!(keogh(&q, &r, 1), 0.0);
    }

    #[test]
    fn keogh_wide_window_still_bounds() {
        let q = [10.0, 10.0];
        let r = [0.0, 0.0];
        let bound = keogh(&q, &r, 5);
        let exact = dtw(&q, &r);
        assert!(bound <= exact + 1e-12);
        assert!(bound > 0.0);
    }

    /// LB_Kim never exceeds the raw DTW cost.
    #[test]
    fn kim_is_a_lower_bound() {
        prop::check(
            |rng| {
                (
                    prop::vec_with(rng, 1..25, |r| r.gen_range(-50f64..50.0)),
                    prop::vec_with(rng, 1..25, |r| r.gen_range(-50f64..50.0)),
                )
            },
            |(a, b)| {
                prop_assert!(lb_kim(a, b) <= dtw(a, b) + 1e-9);
                Ok(())
            },
        );
    }

    /// LB_Keogh never exceeds the banded raw DTW cost.
    #[test]
    fn keogh_is_a_lower_bound() {
        prop::check(
            |rng| {
                (
                    prop::vec_with(rng, 1..25, |r| {
                        (r.gen_range(-50f64..50.0), r.gen_range(-50f64..50.0))
                    }),
                    rng.gen_range(0usize..6),
                )
            },
            |(data, w)| {
                let w = *w;
                let a: Vec<f64> = data.iter().map(|d| d.0).collect();
                let b: Vec<f64> = data.iter().map(|d| d.1).collect();
                let exact = dtw_at(&a, &b, Some(w));
                prop_assert!(keogh(&a, &b, w) <= exact + 1e-9);
                Ok(())
            },
        );
    }

    /// `Envelope::new` takes the band `dtw` applies to its length, so
    /// LB_Keogh bounds `dtw` on equal-length pairs either side of the
    /// 64-point band boundary.
    #[test]
    fn default_envelope_bounds_dtw() {
        prop::check(
            |rng| {
                let len = rng.gen_range(1usize..150);
                let walk = |r: &mut srtd_runtime::rng::StdRng| {
                    (0..len)
                        .scan(0.0, |x, _| {
                            *x += r.gen_range(-1f64..1.0);
                            Some(*x)
                        })
                        .collect::<Vec<f64>>()
                };
                (walk(rng), walk(rng))
            },
            |(a, b)| {
                let exact = dtw(a, b);
                let keogh = lb_keogh_env(a, &Envelope::new(b));
                prop_assert!(keogh <= exact + 1e-9, "{keogh} > {exact}");
                Ok(())
            },
        );
        let series: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        assert_eq!(Envelope::new(&series), Envelope::with_band(&series, 16));
        assert_eq!(
            Envelope::new(&series[..63]),
            Envelope::with_band(&series[..63], 62)
        );
    }

    /// The full bound chain, in its *correct* order: for equal-length
    /// series and any window `w`,
    ///
    /// ```text
    /// lb_kim ≤ full raw DTW ≤ banded raw DTW(w)    and
    /// LB_Keogh(w) ≤ banded raw DTW(w)
    /// ```
    ///
    /// Note the directions: a band *restricts* warping, so the banded
    /// minimum can only be ≥ the unconstrained one, and LB_Keogh bounds
    /// the *banded* cost (it only bounds full DTW when the window spans
    /// the series). Neither of LB_Kim/LB_Keogh dominates the other —
    /// the cascade orders them by evaluation cost (`O(1)` vs `O(n)`), not
    /// by tightness.
    #[test]
    fn bound_chain_orders_correctly() {
        prop::check(
            |rng| {
                (
                    prop::vec_with(rng, 0..25, |r| {
                        (r.gen_range(-50f64..50.0), r.gen_range(-50f64..50.0))
                    }),
                    rng.gen_range(0usize..6),
                )
            },
            |(data, w)| {
                let w = *w;
                let a: Vec<f64> = data.iter().map(|d| d.0).collect();
                let b: Vec<f64> = data.iter().map(|d| d.1).collect();
                let full = dtw_at(&a, &b, None);
                let banded = dtw_at(&a, &b, Some(w));
                let kim = lb_kim(&a, &b);
                let keogh_w = keogh(&a, &b, w);
                let tol = 1e-9 * banded.max(1.0);
                if full.is_finite() {
                    prop_assert!(kim <= full + tol, "kim {kim} > full {full}");
                    prop_assert!(full <= banded + tol, "full {full} > banded {banded}");
                    prop_assert!(keogh_w <= banded + tol, "keogh {keogh_w} > banded {banded}");
                    // The wide-window envelope bounds even unbanded DTW.
                    let keogh_wide = keogh(&a, &b, a.len().max(1) - 1);
                    prop_assert!(keogh_wide <= full + tol);
                } else {
                    // Both empty: every quantity degenerates consistently.
                    prop_assert_eq!(a.len(), 0);
                }
                Ok(())
            },
        );
    }

    /// The deque-built envelope equals the naive windowed min/max scan.
    #[test]
    fn envelope_matches_naive_window_scan() {
        prop::check(
            |rng| {
                (
                    prop::vec_with(rng, 0..40, |r| r.gen_range(-10f64..10.0)),
                    rng.gen_range(0usize..45),
                )
            },
            |(series, w)| {
                let env = Envelope::with_band(series, *w);
                prop_assert_eq!(env.len(), series.len());
                for i in 0..series.len() {
                    let lo = i.saturating_sub(*w);
                    let hi = (i + *w).min(series.len() - 1);
                    let upper = series[lo..=hi].iter().cloned().fold(f64::MIN, f64::max);
                    let lower = series[lo..=hi].iter().cloned().fold(f64::MAX, f64::min);
                    prop_assert_eq!(env.upper[i], upper);
                    prop_assert_eq!(env.lower[i], lower);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn envelope_of_empty_series_is_empty() {
        let env = Envelope::new(&[]);
        assert!(env.is_empty());
        assert_eq!(lb_keogh_env(&[], &env), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn lb_keogh_env_rejects_ragged_queries() {
        let env = Envelope::new(&[1.0, 2.0]);
        lb_keogh_env(&[1.0, 2.0, 3.0], &env);
    }
}
