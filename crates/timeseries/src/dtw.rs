//! Dynamic Time Warping (Berndt & Clifford 1994) with the path-length
//! normalization of Eq. 7 and an optional Sakoe–Chiba band.

/// DTW distance calculator.
///
/// The default configuration reproduces Eq. 7 of the paper: squared point
/// distances, unconstrained warping, and `sqrt(Σ ω_k / K)` normalization by
/// the warping-path length `K`. A Sakoe–Chiba band can be enabled with
/// [`Dtw::with_band`] to bound the warp for long series; the band is
/// automatically widened to `|m − n|` so a feasible path always exists.
///
/// # Examples
///
/// ```
/// use srtd_timeseries::Dtw;
///
/// let d = Dtw::new().distance(&[1.0, 2.0], &[1.0, 2.0, 2.0]);
/// assert!(d.abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Dtw {
    band: Option<usize>,
    raw: bool,
}

/// What one run of the shared dynamic program produced.
struct DpOutcome {
    /// Cumulative squared cost `r(m, n)` (infinite when abandoned or no
    /// feasible path exists).
    total: f64,
    /// Length `K` of the best warping path reaching `(m, n)`.
    steps: usize,
    /// Band cells actually evaluated before finishing or abandoning.
    visited: u64,
    /// `true` when every reachable cell of some row exceeded the budget.
    abandoned: bool,
}

impl Dtw {
    /// Unconstrained DTW with Eq. 7 normalization.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts warping to a Sakoe–Chiba band of half-width `w`.
    pub fn with_band(mut self, w: usize) -> Self {
        self.band = Some(w);
        self
    }

    /// Returns the raw cumulative squared cost `r(m, n)` instead of the
    /// Eq. 7 normalized form.
    ///
    /// The worked example in Fig. 4(a) of the paper tabulates exactly this
    /// quantity (e.g. `DTW(X_1, X_2) = 2` for the Table III task series),
    /// so the example-reproduction code uses raw mode.
    pub fn raw(mut self) -> Self {
        self.raw = true;
        self
    }

    /// The DTW distance between two series.
    ///
    /// Conventions for degenerate inputs: two empty series are identical
    /// (`0.0`); an empty series against a non-empty one is infinitely far
    /// (`f64::INFINITY`), so accounts with no submissions never group with
    /// active ones.
    pub fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        let (m, n) = (a.len(), b.len());
        match (m, n) {
            (0, 0) => return 0.0,
            (0, _) | (_, 0) => return f64::INFINITY,
            _ => {}
        }
        // One DP table of m·n cells per call; cheap to count here, far too
        // hot to count per cell.
        srtd_runtime::obs::counter_add("timeseries.dtw.calls", 1);
        srtd_runtime::obs::counter_add("timeseries.dtw.cells", (m * n) as u64);
        self.finish(self.dp(a, b, f64::INFINITY))
    }

    /// [`Dtw::distance`], early-abandoned against an upper bound `ub` on
    /// the **raw cumulative cost** `r(m, n)`.
    ///
    /// The dynamic program abandons as soon as every reachable band cell
    /// of a row exceeds `ub` — the cumulative cost is non-decreasing along
    /// any warping path, so the final cost then provably exceeds `ub` too
    /// — and reports `f64::INFINITY`. Whenever the true raw cost is `≤ ub`
    /// the optimal path keeps at least one cell per row within budget, the
    /// program runs to completion over the identical cell sequence, and
    /// the result is **bit-identical** to [`Dtw::distance`].
    ///
    /// `ub` is always in raw-cost space, even for a normalized (non-raw)
    /// `Dtw` — callers converting a normalized threshold must over-
    /// approximate (e.g. `ub = t² · (m + n − 1)` bounds any path length).
    /// A negative `ub` abandons on the first row unless the series are
    /// degenerate. Degenerate inputs follow the [`Dtw::distance`]
    /// conventions regardless of `ub`.
    ///
    /// # Examples
    ///
    /// ```
    /// use srtd_timeseries::Dtw;
    ///
    /// let dtw = Dtw::new().raw();
    /// let a = [0.0, 1.0, 2.0];
    /// let b = [5.0, 6.0, 7.0];
    /// let exact = dtw.distance(&a, &b);
    /// assert_eq!(dtw.distance_upper_bounded(&a, &b, exact), exact);
    /// assert_eq!(dtw.distance_upper_bounded(&a, &b, 1.0), f64::INFINITY);
    /// ```
    pub fn distance_upper_bounded(&self, a: &[f64], b: &[f64], ub: f64) -> f64 {
        match (a.len(), b.len()) {
            (0, 0) => return 0.0,
            (0, _) | (_, 0) => return f64::INFINITY,
            _ => {}
        }
        srtd_runtime::obs::counter_add("timeseries.dtw.bounded_calls", 1);
        let out = self.dp(a, b, ub);
        srtd_runtime::obs::counter_add("timeseries.dtw.cells", out.visited);
        if out.abandoned {
            srtd_runtime::obs::counter_add("timeseries.dtw.early_abandoned", 1);
            return f64::INFINITY;
        }
        self.finish(out)
    }

    /// The shared dynamic program: rolling-row cumulative cost with an
    /// optional Sakoe–Chiba band and a per-row abandon check against `ub`
    /// (pass `f64::INFINITY` to disable it — the check can then never
    /// fire, so [`Dtw::distance`] pays nothing for sharing this loop).
    fn dp(&self, a: &[f64], b: &[f64], ub: f64) -> DpOutcome {
        let (m, n) = (a.len(), b.len());
        // Effective band half-width: must be at least |m-n| for feasibility.
        let w = self
            .band
            .map(|w| w.max(m.abs_diff(n)))
            .unwrap_or(usize::MAX);

        // cost[j], steps[j] hold r(i, j) and the length K of the best path
        // reaching (i, j); rolling rows keep memory at O(n).
        const INF: f64 = f64::INFINITY;
        let mut prev_cost = vec![INF; n + 1];
        let mut prev_steps = vec![0usize; n + 1];
        let mut cur_cost = vec![INF; n + 1];
        let mut cur_steps = vec![0usize; n + 1];
        prev_cost[0] = 0.0;
        let mut visited = 0u64;

        for i in 1..=m {
            cur_cost.fill(INF);
            cur_cost[0] = INF;
            let lo = i.saturating_sub(w).max(1);
            // `w >= n` covers the whole row (and sidesteps `i + w`
            // overflow for huge explicit bands).
            let hi = if w >= n { n } else { (i + w).min(n) };
            let mut row_min = INF;
            for j in lo..=hi {
                let d = a[i - 1] - b[j - 1];
                let cost = d * d;
                // Predecessors: (i-1, j-1), (i-1, j), (i, j-1).
                let (mut best, mut steps) = (prev_cost[j - 1], prev_steps[j - 1]);
                if prev_cost[j] < best {
                    best = prev_cost[j];
                    steps = prev_steps[j];
                }
                if cur_cost[j - 1] < best {
                    best = cur_cost[j - 1];
                    steps = cur_steps[j - 1];
                }
                // The virtual origin (0,0) starts the path at (1,1).
                if i == 1 && j == 1 {
                    best = 0.0;
                    steps = 0;
                }
                if best.is_finite() {
                    cur_cost[j] = best + cost;
                    cur_steps[j] = steps + 1;
                }
                if cur_cost[j] < row_min {
                    row_min = cur_cost[j];
                }
            }
            visited += (hi + 1 - lo) as u64;
            if row_min > ub {
                return DpOutcome {
                    total: INF,
                    steps: 0,
                    visited,
                    abandoned: true,
                };
            }
            std::mem::swap(&mut prev_cost, &mut cur_cost);
            std::mem::swap(&mut prev_steps, &mut cur_steps);
        }
        DpOutcome {
            total: prev_cost[n],
            steps: prev_steps[n],
            visited,
            abandoned: false,
        }
    }

    /// Applies the Eq. 7 normalization (or not, in raw mode) to a
    /// completed DP run.
    fn finish(&self, out: DpOutcome) -> f64 {
        if !out.total.is_finite() || out.steps == 0 {
            return f64::INFINITY;
        }
        if self.raw {
            out.total
        } else {
            (out.total / out.steps as f64).sqrt()
        }
    }
}

/// Unconstrained DTW distance (Eq. 7), shorthand for
/// `Dtw::new().distance(a, b)`.
///
/// # Examples
///
/// ```
/// let d = srtd_timeseries::dtw(&[1.0, 3.0], &[2.0, 3.0]);
/// assert!(d > 0.0);
/// ```
pub fn dtw(a: &[f64], b: &[f64]) -> f64 {
    Dtw::new().distance(a, b)
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
        assert_eq!(dtw(&[2.0], &[5.0]), 3.0); // sqrt(9/1)
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
        let euclid_like = dtw(&[0.0, 1.0, 2.0], &[5.0, 6.0, 7.0]);
        assert!(dtw(&a, &b) < 1e-9);
        assert!(euclid_like > 1.0);
    }

    #[test]
    fn different_lengths_are_supported() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 1.5, 2.0, 2.5, 3.0];
        let d = dtw(&a, &b);
        assert!(d.is_finite());
        assert!(d < 0.5);
    }

    #[test]
    fn band_zero_equals_euclidean_for_equal_lengths() {
        let a = [1.0, 2.0, 5.0, 3.0];
        let b = [0.0, 2.0, 4.0, 3.0];
        let banded = Dtw::new().with_band(0).distance(&a, &b);
        // Band 0 forces the diagonal path: sqrt(mean of squared diffs).
        let want = ((1.0 + 0.0 + 1.0 + 0.0) / 4.0f64).sqrt();
        assert!((banded - want).abs() < 1e-12);
    }

    #[test]
    fn band_widens_for_unequal_lengths() {
        let a = [1.0, 2.0];
        let b = [1.0, 1.0, 1.0, 2.0];
        let d = Dtw::new().with_band(0).distance(&a, &b);
        assert!(d.is_finite());
    }

    #[test]
    fn paper_fig4_task_series_values() {
        // Table III task series (tasks indexed 1..4):
        // account 1 performs {1,2,3,4}; account 2 performs {2,3};
        // accounts 4', 4'', 4''' perform {1,3,4}.
        let x1 = [1.0, 2.0, 3.0, 4.0];
        let x2 = [2.0, 3.0];
        let x4 = [1.0, 3.0, 4.0];
        // Sybil accounts have identical task series: distance 0 (Fig. 4a).
        assert_eq!(dtw(&x4, &x4), 0.0);
        // Fig. 4(a) tabulates the raw cumulative cost: DTW(X_1, X_2) = 2
        // and DTW(X_1, X_4') = 1.
        let raw = Dtw::new().raw();
        assert!((raw.distance(&x1, &x2) - 2.0).abs() < 1e-12);
        assert!((raw.distance(&x1, &x4) - 1.0).abs() < 1e-12);
        assert!((raw.distance(&x2, &x4) - 2.0).abs() < 1e-12);
        assert!(dtw(&x1, &x4) < dtw(&x1, &x2));
    }

    fn vals(rng: &mut srtd_runtime::rng::StdRng, len: std::ops::Range<usize>) -> Vec<f64> {
        prop::vec_with(rng, len, |r| r.gen_range(-100f64..100.0))
    }

    #[test]
    fn nonnegative_and_symmetric() {
        prop::check(
            |rng| (vals(rng, 1..30), vals(rng, 1..30)),
            |(a, b)| {
                let ab = dtw(a, b);
                let ba = dtw(b, a);
                prop_assert!(ab >= 0.0);
                prop_assert!((ab - ba).abs() < 1e-9 * ab.max(1.0));
                Ok(())
            },
        );
    }

    #[test]
    fn identity_of_indiscernibles() {
        prop::check(
            |rng| vals(rng, 1..30),
            |a| {
                prop_assert!(dtw(a, a) < 1e-12);
                Ok(())
            },
        );
    }

    #[test]
    fn banded_at_least_unconstrained_raw() {
        prop::check(
            |rng| (vals(rng, 1..25), vals(rng, 1..25), rng.gen_range(0usize..5)),
            |(a, b, w)| {
                let w = *w;
                // In raw cumulative-cost mode a constrained minimum can never
                // beat the unconstrained one. (Under Eq. 7's path-length
                // normalization the inequality can flip — a longer banded path
                // may average lower — so the guarantee is raw-only.)
                let full = Dtw::new().raw().distance(a, b);
                let banded = Dtw::new().raw().with_band(w).distance(a, b);
                prop_assert!(banded + 1e-9 >= full);
                // Normalized banded distances stay well-defined regardless.
                let norm = Dtw::new().with_band(w).distance(a, b);
                prop_assert!(norm.is_finite() && norm >= 0.0);
                Ok(())
            },
        );
    }

    #[test]
    fn bounded_by_max_pointwise_distance() {
        prop::check(
            |rng| (vals(rng, 1..25), vals(rng, 1..25)),
            |(a, b)| {
                let d = dtw(a, b);
                let max_gap = a
                    .iter()
                    .flat_map(|x| b.iter().map(move |y| (x - y).abs()))
                    .fold(0.0, f64::max);
                prop_assert!(d <= max_gap + 1e-9);
                Ok(())
            },
        );
    }

    #[test]
    fn upper_bounded_degenerate_conventions_ignore_the_budget() {
        for ub in [f64::INFINITY, 1.0, 0.0, -1.0] {
            let dtw = Dtw::new().raw();
            assert_eq!(dtw.distance_upper_bounded(&[], &[], ub), 0.0);
            assert_eq!(dtw.distance_upper_bounded(&[], &[1.0], ub), f64::INFINITY);
            assert_eq!(dtw.distance_upper_bounded(&[1.0], &[], ub), f64::INFINITY);
        }
        // Length-1 series: exact within budget, infinite beyond it.
        let dtw = Dtw::new().raw();
        assert_eq!(dtw.distance_upper_bounded(&[2.0], &[5.0], 9.0), 9.0);
        assert_eq!(
            dtw.distance_upper_bounded(&[2.0], &[5.0], 8.9),
            f64::INFINITY
        );
        assert_eq!(dtw.distance_upper_bounded(&[2.0], &[2.0], 0.0), 0.0);
    }

    #[test]
    fn upper_bounded_huge_explicit_band_does_not_overflow() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.5, 3.0];
        let dtw = Dtw::new().raw().with_band(usize::MAX - 1);
        assert_eq!(
            dtw.distance_upper_bounded(&a, &b, f64::INFINITY),
            Dtw::new().raw().distance(&a, &b)
        );
    }

    /// The early-abandoning DP is bit-identical to the plain one whenever
    /// the true raw cost fits the budget, and only ever reports `∞`
    /// (never a wrong finite value) when it does not — in raw and
    /// normalized mode, banded and not, including empty/len-1 series.
    #[test]
    fn upper_bounded_is_exact_within_budget() {
        prop::check(
            |rng| {
                (
                    vals(rng, 0..20),
                    vals(rng, 0..20),
                    rng.gen_range(0usize..4), // 0 ⇒ unbanded
                    rng.gen_range(0f64..1.5),
                )
            },
            |(a, b, band, ub_frac)| {
                for dtw in [Dtw::new().raw(), Dtw::new()] {
                    let dtw = if *band == 0 {
                        dtw
                    } else {
                        dtw.with_band(band - 1)
                    };
                    let exact = dtw.distance(a, b);
                    let raw_exact = Dtw { raw: true, ..dtw }.distance(a, b);
                    // A budget at least the true raw cost: bit-identical.
                    if raw_exact.is_finite() {
                        let got = dtw.distance_upper_bounded(a, b, raw_exact);
                        prop_assert!(
                            got.to_bits() == exact.to_bits(),
                            "within budget must be exact: {got} vs {exact}"
                        );
                    }
                    // An arbitrary budget: either the exact value (and the
                    // raw cost really fit) or ∞ (and it really did not).
                    let ub = raw_exact * ub_frac;
                    let got = dtw.distance_upper_bounded(a, b, ub);
                    if got.is_finite() || exact.is_infinite() {
                        prop_assert!(got.to_bits() == exact.to_bits());
                    } else {
                        prop_assert!(raw_exact > ub, "abandoned though {raw_exact} <= {ub}");
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn wide_band_matches_unconstrained() {
        prop::check(
            |rng| (vals(rng, 1..20), vals(rng, 1..20)),
            |(a, b)| {
                let full = dtw(a, b);
                let wide = Dtw::new().with_band(50).distance(a, b);
                prop_assert!((full - wide).abs() < 1e-9);
                Ok(())
            },
        );
    }
}
