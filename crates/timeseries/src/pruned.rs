//! Pruned pairwise DTW: an LB_Kim → LB_Keogh cascade over precomputed
//! envelopes, falling through to the early-abandoning banded dynamic
//! program.
//!
//! AG-TR keeps a pair of accounts only when their Eq. 8 dissimilarity
//! falls below the threshold `φ`, and the connected-components step that
//! follows consumes **only that decision** plus the exact distance of
//! kept pairs. A pruned pairwise engine can therefore drop any
//! provably-above-φ pair without ever computing its distance, as long as
//!
//! * no pair with true distance `≤ φ` is ever pruned (every kept pair
//!   carries a value bit-identical to full DTW), and
//! * every pruned pair truly has distance `> φ`.
//!
//! Both hold by construction: the cascade only skips a pair when a lower
//! bound on its distance exceeds the cutoff, and the fall-through DP
//! ([`dtw_upper_bounded`]) only abandons when the cumulative
//! cost provably overshoots the remaining budget. The engine is therefore
//! **decision-equivalent** to full DTW over the same pairs, which the
//! workspace pins with a property test here and an AG-TR equivalence
//! suite at the root.
//!
//! Stages are ordered by evaluation cost, not bound tightness (neither
//! LB dominates the other): `O(1)` LB_Kim, `O(n)` LB_Keogh against
//! envelopes computed once per series, then the `O(n·w)` banded DP.

use crate::bounds::{lb_keogh_env, lb_kim, Envelope};
use crate::dtw_upper_bounded;
use srtd_runtime::obs;
use srtd_runtime::parallel::parallel_map_min;

/// Below this many pairs the engine stays sequential — pruned pairs cost
/// nanoseconds, so a thread scope would dominate. The gate depends only
/// on the input size, never the machine, so output is identical either
/// way (and [`parallel_map_min`]'s chunking is deterministic regardless).
const MIN_PARALLEL_PAIRS: usize = 256;

/// Sequential-fallback gate for the per-series envelope precomputation.
const MIN_PARALLEL_SERIES: usize = 64;

/// Where each pair of one pruned pairwise run ended up. The four
/// categories partition the pair set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Pairs considered (the length of the candidate list).
    pub pairs: u64,
    /// Pairs discarded by the `O(1)` first/last-point bound.
    pub lb_kim_pruned: u64,
    /// Pairs discarded by the envelope bound (equal lengths only).
    pub lb_keogh_pruned: u64,
    /// Pairs whose dynamic program abandoned mid-way.
    pub early_abandoned: u64,
    /// Pairs whose dynamic program ran to completion (the only ones that
    /// paid the full `O(n·w)` cost).
    pub full_evals: u64,
}

impl PruneStats {
    /// Fraction of pairs that never completed a dynamic program.
    pub fn prune_rate(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            1.0 - self.full_evals as f64 / self.pairs as f64
        }
    }
}

/// Per-pair outcome; `Exact` carries the bit-exact summed distance.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PairOutcome {
    PrunedKim,
    PrunedKeogh,
    Abandoned,
    Exact(f64),
}

/// Pruned pairwise raw-DTW engine over two-channel items.
///
/// Each item is one AG-TR trajectory `(X, Y)`; a pair's distance is the
/// **sum** of the per-channel [`dtw`](fn@crate::dtw) costs — Eq. 8's
/// `DTW(X_i, X_j) + DTW(Y_i, Y_j)` — and the cutoff lives in the same
/// space.
///
/// # Examples
///
/// ```
/// use srtd_timeseries::{dtw, PrunedPairwise};
///
/// let items = vec![
///     (vec![0.0, 0.1], vec![5.0, 5.0]),
///     (vec![0.0, 0.2], vec![5.0, 5.0]),
///     (vec![90.0, 91.0], vec![5.0, 5.0]),
/// ];
/// let pairs = [(0, 1), (0, 2), (1, 2)];
/// let (edges, stats) = PrunedPairwise::new(1.0).edges2_with_stats(&items, &pairs);
/// // The close pair keeps its exact distance...
/// let exact = dtw(&items[0].0, &items[1].0) + dtw(&items[0].1, &items[1].1);
/// assert_eq!(edges, vec![(0, 1, exact)]);
/// // ...the far pairs are pruned without a full DTW evaluation.
/// assert_eq!(stats.full_evals, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunedPairwise {
    cutoff: f64,
}

impl PrunedPairwise {
    /// An engine keeping pairs with summed raw distance `≤ cutoff` exact.
    ///
    /// An infinite cutoff disables pruning entirely (every pair runs the
    /// full dynamic program).
    ///
    /// # Panics
    ///
    /// Panics if `cutoff` is NaN or negative.
    pub fn new(cutoff: f64) -> Self {
        assert!(
            !cutoff.is_nan() && cutoff >= 0.0,
            "cutoff must be non-negative"
        );
        Self { cutoff }
    }

    /// The pruning cutoff in raw-cost space.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Runs the cascade for one pair of items, Eq. 8's two channels each
    /// with its precomputed envelope.
    fn decide(
        &self,
        a: &(Vec<f64>, Vec<f64>),
        b: &(Vec<f64>, Vec<f64>),
        env_a: &(Envelope, Envelope),
        env_b: &(Envelope, Envelope),
    ) -> PairOutcome {
        let a = [a.0.as_slice(), a.1.as_slice()];
        let b = [b.0.as_slice(), b.1.as_slice()];
        let env_a = [&env_a.0, &env_a.1];
        let env_b = [&env_b.0, &env_b.1];
        // Stage 1 — LB_Kim, O(1) per channel.
        let mut kim = [0.0f64; 2];
        let mut kim_sum = 0.0;
        for c in 0..2 {
            kim[c] = lb_kim(a[c], b[c]);
            kim_sum += kim[c];
        }
        if kim_sum > self.cutoff {
            return PairOutcome::PrunedKim;
        }

        // Stage 2 — LB_Keogh against the precomputed envelopes, O(n) per
        // channel. Only sound for equal lengths; ragged pairs fall back
        // to LB_Kim alone (no panic — see the AG-TR regression tests).
        if (0..2).all(|c| a[c].len() == b[c].len()) {
            let mut bound_sum = 0.0;
            for c in 0..2 {
                let keogh = f64::max(lb_keogh_env(a[c], env_b[c]), lb_keogh_env(b[c], env_a[c]));
                // Each of kim/keogh lower-bounds the channel distance, so
                // the larger one does too.
                bound_sum += f64::max(kim[c], keogh);
            }
            if bound_sum > self.cutoff {
                return PairOutcome::PrunedKeogh;
            }
        }

        // Stage 3 — early-abandoning banded DP, channel by channel. Each
        // channel's budget is what the cutoff leaves after the exact
        // distances so far and the LB_Kim floor of the channels still to
        // come; a kept pair (true sum ≤ cutoff) always fits every budget,
        // so its channels all run to completion bit-identically.
        let mut exact_sum = 0.0;
        for c in 0..2 {
            let rest: f64 = kim[c + 1..].iter().sum();
            let ub = if self.cutoff.is_finite() {
                self.cutoff - exact_sum - rest
            } else {
                f64::INFINITY
            };
            let d = dtw_upper_bounded(a[c], b[c], ub);
            if d == f64::INFINITY && ub.is_finite() {
                return PairOutcome::Abandoned;
            }
            exact_sum += d;
        }
        PairOutcome::Exact(exact_sum)
    }

    /// Runs the cascade over the candidate `pairs` of `items` and returns
    /// the surviving `(i, j, distance)` triples — pairs whose exact summed
    /// distance came in at or below the cutoff, in `pairs` order — with
    /// the per-stage [`PruneStats`]. Nothing quadratic in `items.len()` is
    /// allocated, and envelopes are built only for items some pair
    /// references, which is what lets AG-TR group 100k+ accounts.
    ///
    /// The outcomes are tallied on the caller thread in `pairs` order, and
    /// the `timeseries.dtw.*` pruning counters recorded from that tally,
    /// so the export is deterministic for every worker count.
    ///
    /// # Panics
    ///
    /// Panics if a pair index is out of range.
    pub fn edges2_with_stats(
        &self,
        items: &[(Vec<f64>, Vec<f64>)],
        pairs: &[(usize, usize)],
    ) -> (Vec<(usize, usize, f64)>, PruneStats) {
        let _span = obs::span("timeseries.pruned_pairwise");
        let mut needed = vec![false; items.len()];
        for &(i, j) in pairs {
            needed[i] = true;
            needed[j] = true;
        }
        let indices: Vec<usize> = (0..items.len()).collect();
        let envelopes = parallel_map_min(&indices, MIN_PARALLEL_SERIES, |&i| {
            if needed[i] {
                (Envelope::new(&items[i].0), Envelope::new(&items[i].1))
            } else {
                // Never consulted — blocked-out items pay nothing.
                (Envelope::new(&[]), Envelope::new(&[]))
            }
        });
        let outcomes = parallel_map_min(pairs, MIN_PARALLEL_PAIRS, |&(i, j)| {
            self.decide(&items[i], &items[j], &envelopes[i], &envelopes[j])
        });
        let mut edges = Vec::new();
        let mut stats = PruneStats {
            pairs: pairs.len() as u64,
            ..PruneStats::default()
        };
        for (&(i, j), outcome) in pairs.iter().zip(&outcomes) {
            match outcome {
                PairOutcome::PrunedKim => stats.lb_kim_pruned += 1,
                PairOutcome::PrunedKeogh => stats.lb_keogh_pruned += 1,
                PairOutcome::Abandoned => stats.early_abandoned += 1,
                PairOutcome::Exact(d) => {
                    stats.full_evals += 1;
                    edges.push((i, j, *d));
                }
            }
        }
        obs::counter_add("timeseries.dtw.lb_kim_pruned", stats.lb_kim_pruned);
        obs::counter_add("timeseries.dtw.lb_keogh_pruned", stats.lb_keogh_pruned);
        obs::counter_add("timeseries.dtw.pair_early_abandoned", stats.early_abandoned);
        obs::counter_add("timeseries.dtw.full_evals", stats.full_evals);
        (edges, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw;
    use crate::dtw::band;
    use srtd_runtime::parallel::{set_max_threads, triangle_pairs};
    use srtd_runtime::rng::Rng;
    use srtd_runtime::{prop, prop_assert, prop_assert_eq};

    /// Eq. 8 by full DTW: the reference the cascade must reproduce.
    fn full_distance(a: &(Vec<f64>, Vec<f64>), b: &(Vec<f64>, Vec<f64>)) -> f64 {
        dtw(&a.0, &b.0) + dtw(&a.1, &b.1)
    }

    /// Every pair of `items`, through the engine.
    fn all_pairs(
        engine: PrunedPairwise,
        items: &[(Vec<f64>, Vec<f64>)],
    ) -> (Vec<(usize, usize, f64)>, PruneStats) {
        engine.edges2_with_stats(items, &triangle_pairs(items.len()))
    }

    /// The decision-equivalence contract, as a property over random
    /// campaigns, cutoffs and ragged lengths: a pair at or below the
    /// cutoff is an edge carrying full DTW's value bit for bit, any edge
    /// carries full DTW's value, and every pair left out is above the
    /// cutoff. Some items run 64–120 points, near copies of one long
    /// walk, so the adaptive band applies and some banded pairs are kept;
    /// the rest are under 10 points and unbanded.
    #[test]
    fn pruned_edges_are_decision_equivalent_to_full_dtw() {
        let mut banded_kept = 0usize;
        prop::check(
            |rng| {
                let walk: Vec<f64> = (0..120)
                    .scan(0.0, |x, _| {
                        *x += rng.gen_range(-1f64..1.0);
                        Some(*x)
                    })
                    .collect();
                let items = prop::vec_with(rng, 2..8, |r| {
                    if r.gen_bool(0.4) {
                        let len = r.gen_range(64usize..121);
                        let near = |r: &mut srtd_runtime::rng::StdRng, offset: f64| {
                            walk[..len]
                                .iter()
                                .map(|v| v + offset + r.gen_range(-0.05f64..0.05))
                                .collect::<Vec<f64>>()
                        };
                        (near(r, 0.0), near(r, 3.0))
                    } else {
                        let len = r.gen_range(0usize..10);
                        (
                            (0..len)
                                .map(|_| r.gen_range(-5f64..5.0))
                                .collect::<Vec<f64>>(),
                            (0..len)
                                .map(|_| r.gen_range(-5f64..5.0))
                                .collect::<Vec<f64>>(),
                        )
                    }
                });
                let cutoff = rng.gen_range(0f64..200.0);
                (items, cutoff)
            },
            |(items, cutoff)| {
                let (edges, stats) = all_pairs(PrunedPairwise::new(*cutoff), items);
                let mut edges = edges.into_iter().peekable();
                for (i, j) in triangle_pairs(items.len()) {
                    let full = full_distance(&items[i], &items[j]);
                    match edges.next_if(|&(a, b, _)| (a, b) == (i, j)) {
                        Some((_, _, d)) => {
                            prop_assert!(
                                d.to_bits() == full.to_bits(),
                                "edge ({i},{j}) drifted: {d} vs {full}"
                            );
                            if d <= *cutoff && band(items[i].0.len(), items[j].0.len()).is_some() {
                                banded_kept += 1;
                            }
                        }
                        None => prop_assert!(
                            full > *cutoff,
                            "pruned ({i},{j}) at {full} ≤ cutoff {cutoff}"
                        ),
                    }
                }
                prop_assert!(edges.next().is_none(), "edges out of pair order");
                let n = items.len() as u64;
                prop_assert_eq!(stats.pairs, n * (n - 1) / 2);
                prop_assert_eq!(
                    stats.pairs,
                    stats.lb_kim_pruned
                        + stats.lb_keogh_pruned
                        + stats.early_abandoned
                        + stats.full_evals
                );
                Ok(())
            },
        );
        assert!(banded_kept > 0, "no kept pair ran under the adaptive band");
    }

    #[test]
    fn infinite_cutoff_never_prunes() {
        let items: Vec<(Vec<f64>, Vec<f64>)> = (0..5)
            .map(|i| {
                let base = i as f64 * 100.0;
                (vec![base, base + 1.0], vec![base, base + 2.0])
            })
            .collect();
        let (edges, stats) = all_pairs(PrunedPairwise::new(f64::INFINITY), &items);
        assert_eq!(stats.lb_kim_pruned, 0);
        assert_eq!(stats.lb_keogh_pruned, 0);
        assert_eq!(stats.early_abandoned, 0);
        assert_eq!(stats.full_evals, stats.pairs);
        assert_eq!(stats.prune_rate(), 0.0);
        assert_eq!(edges.len() as u64, stats.pairs);
    }

    #[test]
    fn sparse_cutoff_prunes_far_pairs() {
        let items: Vec<(Vec<f64>, Vec<f64>)> = (0..6)
            .map(|i| {
                let base = i as f64 * 50.0;
                (vec![base, base + 1.0, base], vec![base, base, base])
            })
            .collect();
        let (edges, stats) = all_pairs(PrunedPairwise::new(1.0), &items);
        assert!(stats.lb_kim_pruned > 0, "{stats:?}");
        assert!(stats.full_evals < stats.pairs);
        assert!(stats.prune_rate() > 0.0);
        assert!(edges.iter().all(|&(i, j, _)| (i, j) != (0, 5)));
    }

    #[test]
    fn ragged_items_fall_back_to_kim_without_panicking() {
        // Different lengths per item: LB_Keogh would panic if consulted.
        let items = vec![
            (vec![0.0, 1.0, 2.0, 3.0], vec![0.0, 0.1, 0.2, 0.3]),
            (vec![0.0, 1.0], vec![0.0, 0.1]),
            (vec![500.0], vec![500.0]),
            (Vec::new(), Vec::new()),
        ];
        let (edges, stats) = all_pairs(PrunedPairwise::new(10.0), &items);
        assert_eq!(stats.lb_keogh_pruned, 0, "ragged pairs must skip keogh");
        // The near ragged pair is kept; the far singleton is kim-pruned,
        // and empty-vs-nonempty pairs follow the DTW convention
        // (infinitely far). Empty-vs-empty would be distance 0 — callers
        // that want inactive items apart must leave them out of the pairs
        // themselves (AG-TR does).
        let pairs: Vec<(usize, usize)> = edges.iter().map(|&(i, j, _)| (i, j)).collect();
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn thread_count_does_not_change_edges_or_stats() {
        let items: Vec<(Vec<f64>, Vec<f64>)> = (0..40)
            .map(|i| {
                let base = (i % 7) as f64 * 3.0;
                (
                    (0..12).map(|t| base + (t as f64 * 0.4).sin()).collect(),
                    (0..12).map(|t| base + t as f64 * 0.01).collect(),
                )
            })
            .collect();
        let engine = PrunedPairwise::new(2.0);
        set_max_threads(1);
        let (e1, s1) = all_pairs(engine, &items);
        set_max_threads(4);
        let (e4, s4) = all_pairs(engine, &items);
        set_max_threads(0);
        assert_eq!(s1, s4);
        assert!(!e1.is_empty());
        let bits = |edges: &[(usize, usize, f64)]| -> Vec<(usize, usize, u64)> {
            edges.iter().map(|&(i, j, d)| (i, j, d.to_bits())).collect()
        };
        assert_eq!(bits(&e1), bits(&e4));
    }

    #[test]
    fn edges2_visits_only_the_candidate_pairs() {
        let items = vec![
            (vec![0.0, 0.1], vec![0.0, 0.1]),
            (vec![0.0, 0.2], vec![0.0, 0.2]),
            (vec![0.0, 0.3], vec![0.0, 0.3]),
        ];
        let engine = PrunedPairwise::new(5.0);
        let (edges, stats) = engine.edges2_with_stats(&items, &[(0, 2)]);
        assert_eq!(stats.pairs, 1);
        assert_eq!(edges.len(), 1);
        assert_eq!((edges[0].0, edges[0].1), (0, 2));
        let (none, empty_stats) = engine.edges2_with_stats(&items, &[]);
        assert!(none.is_empty());
        assert_eq!(empty_stats, PruneStats::default());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_cutoff_rejected() {
        PrunedPairwise::new(f64::NAN);
    }
}
