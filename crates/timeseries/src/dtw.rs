//! Dynamic Time Warping (Berndt & Clifford 1994): the raw cumulative cost
//! that Fig. 4 tabulates and Eq. 8 sums, under the adaptive Sakoe–Chiba
//! band.

use srtd_runtime::obs;

/// Series shorter than this warp unconstrained.
const UNBANDED_BELOW: usize = 64;

/// Floor of the band's half-width.
const MIN_BAND: usize = 16;

/// The band's half-width is the longer length over this.
const BAND_DIVISOR: usize = 8;

/// The Sakoe–Chiba half-width for a pair of series with lengths `la` and
/// `lb` (`None` = unconstrained). Below 64 points a pair is unbanded, so
/// paper-scale trajectories keep exact classic-DTW semantics; from there
/// on the half-width is `max(16, len / 8)` of the longer series — roughly
/// the 10%-of-length guidance from the DTW-banding literature, with a
/// generous floor so warp flexibility never collapses on mid-size series.
pub(crate) fn band(la: usize, lb: usize) -> Option<usize> {
    let len = la.max(lb);
    (len >= UNBANDED_BELOW).then(|| MIN_BAND.max(len / BAND_DIVISOR))
}

/// The raw DTW cost between two series: the cumulative squared point
/// distance `r(m, n)` along the cheapest warping path, which Fig. 4(a)
/// tabulates (e.g. `DTW(X_1, X_2) = 2` for the Table III task series).
///
/// Warping is confined to the adaptive Sakoe–Chiba band: series under 64
/// points warp unconstrained, longer pairs within `max(16, len / 8)` of
/// the diagonal, where `len` is the longer length. The band is widened to
/// `|m − n|` so a path always exists.
///
/// Conventions for degenerate inputs: two empty series are identical
/// (`0.0`); an empty series against a non-empty one is infinitely far
/// (`f64::INFINITY`), so accounts with no submissions never group with
/// active ones.
///
/// # Examples
///
/// ```
/// use srtd_timeseries::dtw;
///
/// assert_eq!(dtw(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 0.0);
/// // Time-shifted copies are close under DTW even though they differ
/// // point-wise.
/// let a = [0.0, 0.0, 1.0, 2.0, 3.0];
/// let b = [0.0, 1.0, 2.0, 3.0, 3.0];
/// assert_eq!(dtw(&a, &b), 0.0);
/// assert_eq!(dtw(&[1.0, 2.0, 3.0, 4.0], &[2.0, 3.0]), 2.0);
/// ```
pub fn dtw(a: &[f64], b: &[f64]) -> f64 {
    if let Some(d) = degenerate(a, b) {
        return d;
    }
    obs::counter_add("timeseries.dtw.calls", 1);
    let (total, visited) = dp(a, b, band(a.len(), b.len()), f64::INFINITY);
    obs::counter_add("timeseries.dtw.cells", visited);
    total.expect("an infinite budget never abandons")
}

/// [`dtw`], early-abandoned against an upper bound `ub` on the cost.
///
/// The dynamic program abandons as soon as every band cell of a row
/// exceeds `ub` — the cumulative cost is non-decreasing along any warping
/// path, so the final cost then provably exceeds `ub` too — and reports
/// `f64::INFINITY`. Whenever the true cost is `≤ ub` the optimal path
/// keeps at least one cell per row within budget, the program runs to
/// completion over the identical cell sequence, and the result is
/// **bit-identical** to [`dtw`]. A negative `ub` abandons on the first
/// row unless the series are degenerate. Degenerate inputs follow the
/// [`dtw`] conventions regardless of `ub`.
///
/// # Examples
///
/// ```
/// use srtd_timeseries::{dtw, dtw_upper_bounded};
///
/// let a = [0.0, 1.0, 2.0];
/// let b = [5.0, 6.0, 7.0];
/// let exact = dtw(&a, &b);
/// assert_eq!(dtw_upper_bounded(&a, &b, exact), exact);
/// assert_eq!(dtw_upper_bounded(&a, &b, 1.0), f64::INFINITY);
/// ```
pub fn dtw_upper_bounded(a: &[f64], b: &[f64], ub: f64) -> f64 {
    if let Some(d) = degenerate(a, b) {
        return d;
    }
    obs::counter_add("timeseries.dtw.bounded_calls", 1);
    let (total, visited) = dp(a, b, band(a.len(), b.len()), ub);
    obs::counter_add("timeseries.dtw.cells", visited);
    total.unwrap_or_else(|| {
        obs::counter_add("timeseries.dtw.early_abandoned", 1);
        f64::INFINITY
    })
}

/// The cost when either series is empty, `None` otherwise.
fn degenerate(a: &[f64], b: &[f64]) -> Option<f64> {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => Some(0.0),
        (true, false) | (false, true) => Some(f64::INFINITY),
        (false, false) => None,
    }
}

/// The dynamic program over two non-empty series: rolling-row cumulative
/// cost within the Sakoe–Chiba half-width `band` (`None` = unconstrained),
/// abandoned at the first row whose every cell exceeds `ub` (with
/// `f64::INFINITY` it never is). Returns the cost `r(m, n)`, `None` when
/// abandoned, and the number of cells evaluated.
fn dp(a: &[f64], b: &[f64], band: Option<usize>, ub: f64) -> (Option<f64>, u64) {
    const INF: f64 = f64::INFINITY;
    let (m, n) = (a.len(), b.len());
    // Effective half-width: at least |m − n|, so a path always exists.
    let w = band.map_or(usize::MAX, |w| w.max(m.abs_diff(n)));
    // prev[j] holds r(i − 1, j) and cur[j] r(i, j). Row 0 is the virtual
    // origin r(0, 0) = 0, so every path starts at (1, 1).
    let mut prev = vec![INF; n + 1];
    let mut cur = vec![INF; n + 1];
    prev[0] = 0.0;
    let mut visited = 0u64;
    for i in 1..=m {
        let lo = i.saturating_sub(w).max(1);
        // `w >= n` covers the whole row (and sidesteps `i + w` overflow).
        let hi = if w >= n { n } else { (i + w).min(n) };
        // The band moves right by at most one cell per row, so the cells
        // just outside it are the only stale ones the next row can read:
        // they must read as unreachable.
        cur[lo - 1] = INF;
        if hi < n {
            cur[hi + 1] = INF;
        }
        let mut row_min = INF;
        // r(i, j − 1), carried in a register rather than re-read.
        let mut left = INF;
        for j in lo..=hi {
            let d = a[i - 1] - b[j - 1];
            // Predecessors: (i − 1, j − 1), (i − 1, j), (i, j − 1).
            left = min(min(prev[j - 1], prev[j]), left) + d * d;
            cur[j] = left;
            row_min = min(row_min, left);
        }
        visited += (hi + 1 - lo) as u64;
        if row_min > ub {
            return (None, visited);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    (Some(prev[n]), visited)
}

/// The smaller of two costs. Costs of finite series are never NaN nor
/// −0, so one comparison gives `f64::min`'s bits without the NaN checks
/// that cost about as much as the rest of a cell.
fn min(x: f64, y: f64) -> f64 {
    if x < y {
        x
    } else {
        y
    }
}

/// [`dtw_upper_bounded`] under an explicit half-width (`None` =
/// unconstrained), for tests that need bands the adaptive rule never
/// picks.
#[cfg(test)]
pub(crate) fn dtw_with_band(a: &[f64], b: &[f64], band: Option<usize>, ub: f64) -> f64 {
    degenerate(a, b).unwrap_or_else(|| dp(a, b, band, ub).0.unwrap_or(f64::INFINITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_runtime::rng::Rng;
    use srtd_runtime::{prop, prop_assert};

    #[test]
    fn identical_series_have_zero_distance() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0];
        assert_eq!(dtw(&xs, &xs), 0.0);
    }

    #[test]
    fn single_points() {
        assert_eq!(dtw(&[2.0], &[5.0]), 9.0);
        assert_eq!(dtw(&[2.0], &[2.0]), 0.0);
    }

    #[test]
    fn empty_series_conventions() {
        assert_eq!(dtw(&[], &[]), 0.0);
        assert_eq!(dtw(&[], &[1.0]), f64::INFINITY);
        assert_eq!(dtw(&[1.0], &[]), f64::INFINITY);
    }

    #[test]
    fn warping_absorbs_time_shift() {
        let a = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0]; // delayed copy
        assert_eq!(dtw(&a, &b), 0.0);
        assert_eq!(dtw(&[0.0, 1.0, 2.0], &[5.0, 6.0, 7.0]), 75.0);
    }

    #[test]
    fn band_zero_is_the_diagonal_for_equal_lengths() {
        let a = [1.0, 2.0, 5.0, 3.0];
        let b = [0.0, 2.0, 4.0, 3.0];
        // Band 0 forces the diagonal path: the sum of squared differences.
        assert_eq!(dtw_with_band(&a, &b, Some(0), f64::INFINITY), 2.0);
    }

    #[test]
    fn band_widens_for_unequal_lengths() {
        let a = [1.0, 2.0];
        let b = [1.0, 1.0, 1.0, 2.0];
        assert_eq!(dtw_with_band(&a, &b, Some(0), f64::INFINITY), 0.0);
    }

    #[test]
    fn band_rules() {
        assert_eq!(band(10, 20), None, "short series unbanded");
        assert_eq!(band(63, 5), None);
        assert_eq!(band(5, 64), Some(16), "the longer series decides");
        assert_eq!(band(64, 64), Some(16), "floor applies");
        assert_eq!(band(200, 200), Some(25));
        assert_eq!(band(100, 400), Some(50), "len/8 of the longer");
    }

    #[test]
    fn paper_fig4_task_series_values() {
        // Table III task series (tasks indexed 1..4):
        // account 1 performs {1,2,3,4}; account 2 performs {2,3};
        // accounts 4', 4'', 4''' perform {1,3,4}.
        let x1 = [1.0, 2.0, 3.0, 4.0];
        let x2 = [2.0, 3.0];
        let x4 = [1.0, 3.0, 4.0];
        // Sybil accounts have identical task series: distance 0, and
        // Fig. 4(a)'s DTW(X_1, X_2) = 2, DTW(X_1, X_4') = 1.
        assert_eq!(dtw(&x4, &x4), 0.0);
        assert_eq!(dtw(&x1, &x2), 2.0);
        assert_eq!(dtw(&x1, &x4), 1.0);
        assert_eq!(dtw(&x2, &x4), 2.0);
    }

    fn vals(rng: &mut srtd_runtime::rng::StdRng, len: std::ops::Range<usize>) -> Vec<f64> {
        prop::vec_with(rng, len, |r| r.gen_range(-100f64..100.0))
    }

    /// The textbook dynamic program: the whole `(m + 1) × (n + 1)` table,
    /// with cells outside the band `|i − j| ≤ w` masked to ∞. Returns the
    /// table, whose `[m][n]` entry is the cost.
    fn full_table(a: &[f64], b: &[f64], w: Option<usize>) -> Vec<Vec<f64>> {
        let (m, n) = (a.len(), b.len());
        let w = w.map_or(usize::MAX, |w| w.max(m.abs_diff(n)));
        let mut r = vec![vec![f64::INFINITY; n + 1]; m + 1];
        r[0][0] = 0.0;
        for i in 1..=m {
            for j in 1..=n {
                if i.abs_diff(j) <= w {
                    let d = a[i - 1] - b[j - 1];
                    r[i][j] = r[i - 1][j - 1].min(r[i - 1][j]).min(r[i][j - 1]) + d * d;
                }
            }
        }
        r
    }

    /// `dtw` and `dtw_upper_bounded` against the textbook table, bit for
    /// bit, on random series whose lengths span the 64-point band
    /// boundary. The bounded twin must return the exact cost unless some
    /// row of the table lies wholly above the budget, and ∞ if one does.
    #[test]
    fn dp_matches_the_full_table_reference() {
        let mut banded = 0usize;
        let mut abandoned = 0usize;
        let mut completed_below = 0usize;
        prop::check_with(
            prop::PropConfig {
                cases: 512,
                ..prop::PropConfig::default()
            },
            |rng| {
                (
                    vals(rng, 1..150),
                    vals(rng, 1..150),
                    rng.gen_range(0f64..1.0),
                )
            },
            |(a, b, frac)| {
                let w = band(a.len(), b.len());
                banded += usize::from(w.is_some());
                let table = full_table(a, b, w);
                let exact = table[a.len()][b.len()];
                let got = dtw(a, b);
                prop_assert!(got.to_bits() == exact.to_bits(), "{got} vs {exact}");
                for ub in [exact, exact * frac, exact.next_down()] {
                    let fits = table[1..].iter().all(|row| row.iter().any(|&c| c <= ub));
                    let want = if fits { exact } else { f64::INFINITY };
                    let got = dtw_upper_bounded(a, b, ub);
                    prop_assert!(
                        got.to_bits() == want.to_bits(),
                        "budget {ub}: {got} vs {want} (exact {exact})"
                    );
                    abandoned += usize::from(!fits);
                    completed_below += usize::from(fits && ub < exact);
                }
                Ok(())
            },
        );
        assert!(banded > 0, "no pair crossed the band boundary");
        assert!(
            abandoned > 0 && completed_below > 0,
            "{abandoned} {completed_below}"
        );
    }

    #[test]
    fn nonnegative_and_symmetric() {
        prop::check(
            |rng| (vals(rng, 1..30), vals(rng, 1..30)),
            |(a, b)| {
                let ab = dtw(a, b);
                prop_assert!(ab >= 0.0);
                prop_assert!(ab.to_bits() == dtw(b, a).to_bits());
                Ok(())
            },
        );
    }

    #[test]
    fn identity_of_indiscernibles() {
        prop::check(
            |rng| vals(rng, 1..100),
            |a| {
                prop_assert!(dtw(a, a) == 0.0);
                Ok(())
            },
        );
    }

    /// Every warping path has at most `m + n − 1` cells, each at most the
    /// largest squared point gap.
    #[test]
    fn bounded_by_the_longest_path_at_the_max_gap() {
        prop::check(
            |rng| (vals(rng, 1..100), vals(rng, 1..100)),
            |(a, b)| {
                let max_gap = a
                    .iter()
                    .flat_map(|x| b.iter().map(move |y| (x - y).abs()))
                    .fold(0.0, f64::max);
                let cells = (a.len() + b.len() - 1) as f64;
                prop_assert!(dtw(a, b) <= cells * max_gap * max_gap * (1.0 + 1e-12));
                Ok(())
            },
        );
    }

    #[test]
    fn banded_at_least_unconstrained() {
        prop::check(
            |rng| (vals(rng, 1..25), vals(rng, 1..25), rng.gen_range(0usize..5)),
            |(a, b, w)| {
                // A constrained minimum can never beat the unconstrained one.
                let full = dtw_with_band(a, b, None, f64::INFINITY);
                let banded = dtw_with_band(a, b, Some(*w), f64::INFINITY);
                prop_assert!(banded >= full);
                Ok(())
            },
        );
    }

    #[test]
    fn upper_bounded_degenerate_conventions_ignore_the_budget() {
        for ub in [f64::INFINITY, 1.0, 0.0, -1.0] {
            assert_eq!(dtw_upper_bounded(&[], &[], ub), 0.0);
            assert_eq!(dtw_upper_bounded(&[], &[1.0], ub), f64::INFINITY);
            assert_eq!(dtw_upper_bounded(&[1.0], &[], ub), f64::INFINITY);
        }
        // Length-1 series: exact within budget, infinite beyond it.
        assert_eq!(dtw_upper_bounded(&[2.0], &[5.0], 9.0), 9.0);
        assert_eq!(dtw_upper_bounded(&[2.0], &[5.0], 8.9), f64::INFINITY);
        assert_eq!(dtw_upper_bounded(&[2.0], &[2.0], 0.0), 0.0);
    }

    #[test]
    fn huge_explicit_band_does_not_overflow() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.5, 3.0];
        assert_eq!(
            dtw_with_band(&a, &b, Some(usize::MAX - 1), f64::INFINITY),
            dtw(&a, &b)
        );
    }

    #[test]
    fn wide_band_matches_unconstrained() {
        prop::check(
            |rng| (vals(rng, 1..20), vals(rng, 1..20)),
            |(a, b)| {
                let full = dtw_with_band(a, b, None, f64::INFINITY);
                let wide = dtw_with_band(a, b, Some(50), f64::INFINITY);
                prop_assert!(full.to_bits() == wide.to_bits());
                Ok(())
            },
        );
    }
}
