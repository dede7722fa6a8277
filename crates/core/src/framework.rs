//! Algorithm 2: the Sybil-resistant truth discovery framework.

use crate::aggregate::{initial_group_weight, GroupAggregation};
use crate::grouping::{AccountGrouping, Grouping};
use srtd_runtime::json::ToJson;
use srtd_runtime::obs;
use srtd_runtime::parallel::{parallel_map_min, parallel_reduce};
use srtd_truth::{max_abs_delta, ConvergenceCriterion, SensingData};

/// Task count below which the per-task maps run inline instead of
/// dispatching to the worker pool. Paper-scale campaigns (tens of tasks)
/// never pay dispatch bookkeeping; the `exp_large_scale` regime
/// (hundreds of tasks and groups) takes the pool.
///
/// The maps return the same bits on either side of the gate, so it only
/// moves wall-clock time.
const PARALLEL_MIN_TASKS: usize = 64;

/// Fixed chunk length of the deterministic parallel loss reduction.
/// Chunk boundaries derive from the task count alone, which is what keeps
/// the floating-point merge order — and therefore every output bit —
/// independent of how many workers execute the chunks.
const LOSS_CHUNK_TASKS: usize = 64;

/// Configuration of the group-level truth discovery stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrameworkConfig {
    /// How each group's reports collapse to one value per task (Eq. 3).
    pub aggregation: GroupAggregation,
    /// Convergence control of the iterative stage.
    pub convergence: ConvergenceCriterion,
}

/// The Sybil-resistant truth discovery framework (Algorithm 2),
/// parameterized by an account grouping method.
///
/// See the [crate docs](crate) for the pipeline; construct with one of
/// [`crate::AgFp`], [`crate::AgTs`], [`crate::AgTr`] (the paper's TD-FP /
/// TD-TS / TD-TR variants) or [`crate::PerfectGrouping`] for the oracle
/// ceiling.
#[derive(Debug, Clone)]
pub struct SybilResistantTd<G> {
    grouping: G,
    config: FrameworkConfig,
}

/// Output of the framework.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkResult {
    /// Estimated truth per task; `None` for unreported tasks.
    pub truths: Vec<Option<f64>>,
    /// The account grouping the framework worked with.
    pub grouping: Grouping,
    /// Final per-group weights (parallel to `grouping.groups()`).
    pub group_weights: Vec<f64>,
    /// Iterations of the weight/truth loop.
    pub iterations: usize,
    /// Whether the convergence criterion fired before the cap.
    pub converged: bool,
    /// Largest per-task truth change after each iteration — one entry per
    /// iteration of the weight/truth loop, so `convergence_trace.len() ==
    /// iterations`. Lets callers inspect how Algorithm 2 converged without
    /// re-running it.
    pub convergence_trace: Vec<f64>,
    /// Whether the run was seeded from a previous epoch's group weights
    /// (see [`SybilResistantTd::discover_with_grouping_seeded`]) rather
    /// than Eq. 4's size-only prior.
    pub warm_started: bool,
}

impl FrameworkResult {
    /// Truths with `default` substituted for unreported tasks.
    pub fn truths_or(&self, default: f64) -> Vec<f64> {
        self.truths.iter().map(|t| t.unwrap_or(default)).collect()
    }
}

impl<G: AccountGrouping> SybilResistantTd<G> {
    /// Creates the framework with default configuration (mean aggregation,
    /// 1000-iteration cap, 1e-6 tolerance).
    pub fn new(grouping: G) -> Self {
        Self {
            grouping,
            config: FrameworkConfig::default(),
        }
    }

    /// Creates the framework with an explicit configuration.
    pub fn with_config(grouping: G, config: FrameworkConfig) -> Self {
        Self { grouping, config }
    }

    /// The grouping method in use.
    pub fn grouping_method(&self) -> &G {
        &self.grouping
    }

    /// A display name of the framework variant: `"TD-"` plus the grouping
    /// method's suffix (TD-FP, TD-TS, TD-TR as in §V-C).
    pub fn variant_name(&self) -> String {
        match self.grouping.name() {
            name if name.starts_with("AG-") => format!("TD-{}", &name[3..]),
            other => format!("TD({other})"),
        }
    }

    /// Runs Algorithm 2 on a campaign.
    ///
    /// `fingerprints` carries one feature vector per account for
    /// fingerprint-based grouping methods; pass `&[]` for methods that do
    /// not use them.
    ///
    /// # Panics
    ///
    /// Panics if the grouping method requires fingerprints that are
    /// missing (see the method's own documentation).
    pub fn discover(&self, data: &SensingData, fingerprints: &[Vec<f64>]) -> FrameworkResult {
        // Line 1: account grouping.
        let grouping = {
            let _span = obs::span("framework.grouping");
            self.grouping.group(data, fingerprints)
        };
        self.discover_with_grouping_seeded(data, grouping, None)
    }

    /// Runs the data-grouping and truth-estimation stages on a precomputed
    /// grouping (lines 2–16 of Algorithm 2). Useful for ablations that
    /// reuse one grouping across configurations.
    ///
    /// # Panics
    ///
    /// Panics if `grouping` does not cover exactly the accounts of `data`.
    pub fn discover_with_grouping(
        &self,
        data: &SensingData,
        grouping: Grouping,
    ) -> FrameworkResult {
        self.discover_with_grouping_seeded(data, grouping, None)
    }

    /// [`Self::discover_with_grouping`] with an optional warm start: when
    /// `warm_weights` carries the previous epoch's group weights (one
    /// finite, non-negative entry per group of `grouping`), the truth
    /// initialization of line 7 uses them instead of Eq. 4's size-only
    /// seeds. On unchanged data this reproduces the previous epoch's truths
    /// bitwise (the same Eq. 5 arithmetic the previous run ended on), so the
    /// loop resumes exactly where the cold trajectory left off and
    /// steady-state epochs converge in one iteration instead of ~5 — the one
    /// warm iteration computes bit-for-bit what the cold run's next
    /// iteration would have.
    ///
    /// A seed that no longer fits — wrong length (the grouping changed),
    /// non-finite or negative entries — is ignored and the run falls back
    /// to the cold path; `FrameworkResult::warm_started` records which path
    /// ran.
    ///
    /// # Panics
    ///
    /// Panics if `grouping` does not cover exactly the accounts of `data`.
    pub fn discover_with_grouping_seeded(
        &self,
        data: &SensingData,
        grouping: Grouping,
        warm_weights: Option<&[f64]>,
    ) -> FrameworkResult {
        let _span = obs::span("framework.discover");
        assert_eq!(
            grouping.num_accounts(),
            data.num_accounts(),
            "grouping must cover every account"
        );
        let m = data.num_tasks();
        let l = grouping.len();
        let task_ids: Vec<usize> = (0..m).collect();

        // Lines 2–6: per task, aggregate each group's data (Eq. 3) and
        // compute the size-based seed weight (Eq. 4). Each task reads its
        // claim columns sequentially, keys every claim as
        // `group << 32 | slot` (its position in the task's report order),
        // sorts the keys and scans the group runs — O(u log u) per task
        // instead of one bucket `Vec` per group per task. The keys are
        // unique, so an unstable sort orders each group's claims by slot:
        // report order, the order a stable sort by group keeps, so every
        // Eq. 3 sum adds the same values in the same order. Groups number
        // below 2^32 (accounts are `u32`), and so do a task's claims (one
        // per account). Each task's `(group, aggregated value, Eq. 4 seed
        // weight)` triples stay in the task's own vector, sized for one
        // group per claim. They are not flattened into one arena: that
        // is a sequential pass over every entry, outside the parallel map.
        let aggregation = self.config.aggregation;
        let build_task = |&j: &usize| -> Vec<(usize, f64, f64)> {
            let (accounts, values) = data.task_claims(j);
            if accounts.is_empty() {
                return Vec::new();
            }
            let reporters = accounts.len();
            let mut keys: Vec<u64> = accounts
                .iter()
                .enumerate()
                .map(|(slot, &a)| (grouping.group_of(a as usize) as u64) << 32 | slot as u64)
                .collect();
            keys.sort_unstable();
            let mut entries = Vec::with_capacity(keys.len());
            let mut vals: Vec<f64> = Vec::new();
            let mut i = 0;
            while i < keys.len() {
                let group = keys[i] >> 32;
                vals.clear();
                while i < keys.len() && keys[i] >> 32 == group {
                    vals.push(values[(keys[i] & 0xffff_ffff) as usize]);
                    i += 1;
                }
                entries.push((
                    group as usize,
                    aggregation.aggregate(&vals),
                    initial_group_weight(vals.len(), reporters),
                ));
            }
            entries
        };
        let per_task: Vec<Vec<(usize, f64, f64)>> = {
            let _span = obs::span("framework.per_task_build");
            parallel_map_min(&task_ids, PARALLEL_MIN_TASKS, build_task)
        };

        // A warm seed is only trusted when it still fits this epoch's
        // grouping: one weight per group, every entry finite and
        // non-negative. Anything else (the group count changed, a NaN crept
        // in) silently falls back to the cold path.
        let warm =
            warm_weights.filter(|w| w.len() == l && w.iter().all(|x| x.is_finite() && *x >= 0.0));
        let warm_started = warm.is_some();

        // Line 7: initialize truths by Eq. 5 — from the previous epoch's
        // group weights when warm-starting, from the Eq. 4 seed weights
        // otherwise.
        let mut truths: Vec<Option<f64>> = match warm {
            Some(w) => parallel_map_min(&task_ids, PARALLEL_MIN_TASKS, |&j| {
                weighted_truth(per_task[j].iter().map(|&(k, v, _)| (v, w[k])))
            }),
            None => parallel_map_min(&task_ids, PARALLEL_MIN_TASKS, |&j| {
                weighted_truth(per_task[j].iter().map(|&(_, v, seed)| (v, seed)))
            }),
        };

        if per_task.iter().all(Vec::is_empty) || l == 0 {
            return FrameworkResult {
                truths,
                grouping,
                group_weights: vec![0.0; l],
                iterations: 0,
                converged: true,
                convergence_trace: Vec::new(),
                warm_started,
            };
        }
        if warm_started {
            obs::counter_add("framework.warm_starts", 1);
        }

        // Per-task normalization scale: std of the group aggregates.
        let scales: Vec<f64> = parallel_map_min(&task_ids, PARALLEL_MIN_TASKS, |&j| {
            let entries = &per_task[j];
            if entries.len() < 2 {
                return 1.0;
            }
            let mean = entries.iter().map(|&(_, v, _)| v).sum::<f64>() / entries.len() as f64;
            let var = entries
                .iter()
                .map(|&(_, v, _)| (v - mean) * (v - mean))
                .sum::<f64>()
                / entries.len() as f64;
            var.sqrt().max(1e-9)
        });

        // Lines 8–15: iterate group weight estimation (CRH-style W over
        // the distances of group aggregates to current truths) and truth
        // estimation.
        let _loop_span = obs::span("framework.td_loop");
        // `effective()` repairs field-constructed criteria (zero iteration
        // cap, negative/NaN tolerance) that would otherwise skip the loop
        // entirely or never converge early.
        let criterion = self.config.convergence.effective();
        let mut weights = vec![1.0f64; l];
        let mut iterations = 0;
        let mut converged = false;
        let mut convergence_trace = Vec::new();
        for iter in 0..criterion.max_iterations {
            iterations = iter + 1;
            // Group weight update: a deterministic chunked reduction whose
            // partials merge in fixed chunk order, so the float sums depend
            // on the task count alone, never on the worker count. Below
            // `LOSS_CHUNK_TASKS` tasks there is one chunk, folded inline.
            let losses: Vec<f64> = parallel_reduce(
                &task_ids,
                LOSS_CHUNK_TASKS,
                || vec![0.0f64; l],
                |mut acc, &j| {
                    if let Some(truth) = truths[j] {
                        for &(k, value, _) in &per_task[j] {
                            let e = (value - truth) / scales[j];
                            acc[k] += e * e;
                        }
                    }
                    acc
                },
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += y;
                    }
                    a
                },
            );
            let total: f64 = losses.iter().sum();
            for (w, &loss) in weights.iter_mut().zip(&losses) {
                *w = (total.max(1e-12) / loss.max(1e-12)).ln().max(0.0);
            }
            if weights.iter().all(|&w| w == 0.0) {
                weights.fill(1.0);
            }
            // Truth update.
            let weights_ref = &weights;
            let next: Vec<Option<f64>> = parallel_map_min(&task_ids, PARALLEL_MIN_TASKS, |&j| {
                weighted_truth(per_task[j].iter().map(|&(k, v, _)| (v, weights_ref[k])))
            });
            let delta = max_abs_delta(&truths, &next);
            convergence_trace.push(delta);
            obs::event(
                "framework.iteration",
                [
                    ("iter", iterations.to_json()),
                    ("max_abs_delta", delta.to_json()),
                ],
            );
            truths = next;
            if delta <= criterion.tolerance {
                converged = true;
                break;
            }
        }
        obs::counter_add("framework.iterations", iterations as u64);

        FrameworkResult {
            truths,
            grouping,
            group_weights: weights,
            iterations,
            converged,
            convergence_trace,
            warm_started,
        }
    }
}

/// Weighted average with a mean fallback when all weights vanish (e.g. a
/// task reported by a single group whose Eq. 4 seed is zero).
fn weighted_truth(entries: impl Iterator<Item = (f64, f64)> + Clone) -> Option<f64> {
    let mut num = 0.0;
    let mut den = 0.0;
    let mut count = 0usize;
    let mut sum = 0.0;
    for (value, weight) in entries.clone() {
        num += weight * value;
        den += weight;
        sum += value;
        count += 1;
    }
    if count == 0 {
        None
    } else if den > 0.0 {
        Some(num / den)
    } else {
        Some(sum / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::{AgTr, AgTs, PerfectGrouping};
    use srtd_truth::{Crh, TruthDiscovery};

    /// Table I with the Table III timestamps (accounts 0..6 = the paper's
    /// 1, 2, 3, 4', 4'', 4''').
    fn table_i_attacked() -> SensingData {
        let mut d = SensingData::new(4);
        let ts = |m: f64, s: f64| 10.0 * 3600.0 + m * 60.0 + s;
        d.add_report(0, 0, -84.48, ts(0.0, 35.0));
        d.add_report(0, 1, -82.11, ts(2.0, 42.0));
        d.add_report(0, 2, -75.16, ts(10.0, 22.0));
        d.add_report(0, 3, -72.71, ts(13.0, 41.0));
        d.add_report(1, 1, -72.27, ts(4.0, 15.0));
        d.add_report(1, 2, -77.21, ts(6.0, 1.0));
        d.add_report(2, 0, -72.41, ts(1.0, 21.0));
        d.add_report(2, 1, -91.49, ts(4.0, 5.0));
        d.add_report(2, 3, -73.55, ts(8.0, 28.0));
        d.add_report(3, 0, -50.0, ts(1.0, 10.0));
        d.add_report(3, 2, -50.0, ts(15.0, 24.0));
        d.add_report(3, 3, -50.0, ts(20.0, 6.0));
        d.add_report(4, 0, -50.0, ts(1.0, 34.0));
        d.add_report(4, 2, -50.0, ts(16.0, 8.0));
        d.add_report(4, 3, -50.0, ts(21.0, 25.0));
        d.add_report(5, 0, -50.0, ts(2.0, 35.0));
        d.add_report(5, 2, -50.0, ts(17.0, 35.0));
        d.add_report(5, 3, -50.0, ts(22.0, 2.0));
        d
    }

    #[test]
    fn oracle_grouping_defeats_the_table_i_attack() {
        let data = table_i_attacked();
        let oracle = PerfectGrouping::new(vec![0, 1, 2, 3, 3, 3]);
        let framework = SybilResistantTd::new(oracle);
        let result = framework.discover(&data, &[]);
        // Attacked tasks (0, 2, 3): the Sybil trio collapses to one voice
        // at -50 with low weight; estimates must move back toward the
        // legitimate readings (CRH alone lands near -55).
        let crh = Crh.discover(&data);
        for t in [0usize, 2, 3] {
            let ours = result.truths[t].unwrap();
            let baseline = crh.truths[t].unwrap();
            assert!(
                ours < baseline - 5.0,
                "task {t}: framework {ours} not better than CRH {baseline}"
            );
            assert!(ours < -62.0, "task {t}: {ours} still dragged to -50");
        }
    }

    #[test]
    fn ag_tr_variant_matches_oracle_on_table_i() {
        let data = table_i_attacked();
        let by_oracle = SybilResistantTd::new(PerfectGrouping::new(vec![0, 1, 2, 3, 3, 3]))
            .discover(&data, &[]);
        let by_tr = SybilResistantTd::new(AgTr::default()).discover(&data, &[]);
        // AG-TR finds the same Sybil component on this example, so the
        // estimates agree.
        for t in 0..4 {
            let a = by_oracle.truths[t].unwrap();
            let b = by_tr.truths[t].unwrap();
            assert!((a - b).abs() < 1.0, "task {t}: {a} vs {b}");
        }
    }

    #[test]
    fn ag_ts_variant_also_diminishes_the_attack() {
        let data = table_i_attacked();
        let crh = Crh.discover(&data);
        let by_ts = SybilResistantTd::new(AgTs::default()).discover(&data, &[]);
        for t in [0usize, 2, 3] {
            assert!(by_ts.truths[t].unwrap() < crh.truths[t].unwrap() - 3.0);
        }
    }

    #[test]
    fn singleton_grouping_behaves_like_account_level_td() {
        let mut d = SensingData::new(2);
        d.add_report(0, 0, 1.0, 0.0);
        d.add_report(1, 0, 3.0, 1.0);
        d.add_report(0, 1, 5.0, 2.0);
        d.add_report(1, 1, 7.0, 3.0);
        let singletons = PerfectGrouping::new(vec![0, 1]);
        let r = SybilResistantTd::new(singletons).discover(&d, &[]);
        // Symmetric inputs: truths are the means.
        assert!((r.truths[0].unwrap() - 2.0).abs() < 0.5);
        assert!((r.truths[1].unwrap() - 6.0).abs() < 0.5);
        assert!(r.converged);
    }

    #[test]
    fn sybil_majority_task_survives() {
        // A task where the attacker holds 5 of 6 reports: account-level TD
        // is lost, group-level TD still recovers something sane because the
        // group counts once and its Eq. 4 seed weight is low.
        let mut d = SensingData::new(2);
        d.add_report(0, 0, -80.0, 0.0);
        d.add_report(0, 1, -75.0, 10.0);
        for a in 1..=5 {
            d.add_report(a, 0, -50.0, 100.0 + a as f64 * 30.0);
            d.add_report(a, 1, -50.0, 400.0 + a as f64 * 30.0);
        }
        let oracle = PerfectGrouping::new(vec![0, 1, 1, 1, 1, 1]);
        let r = SybilResistantTd::new(oracle).discover(&d, &[]);
        let crh = Crh.discover(&d);
        assert!(r.truths[0].unwrap() < crh.truths[0].unwrap());
        assert!(r.truths[0].unwrap() <= -65.0, "{:?}", r.truths);
    }

    #[test]
    fn unreported_tasks_are_none() {
        let mut d = SensingData::new(3);
        d.add_report(0, 0, 1.0, 0.0);
        let r = SybilResistantTd::new(PerfectGrouping::new(vec![0])).discover(&d, &[]);
        assert_eq!(r.truths[0], Some(1.0));
        assert_eq!(r.truths[1], None);
        assert_eq!(r.truths[2], None);
    }

    #[test]
    fn empty_data_is_fine() {
        let r =
            SybilResistantTd::new(PerfectGrouping::new(vec![])).discover(&SensingData::new(2), &[]);
        assert_eq!(r.truths, vec![None, None]);
        assert!(r.converged);
    }

    #[test]
    fn variant_names() {
        assert_eq!(
            SybilResistantTd::new(AgTs::default()).variant_name(),
            "TD-TS"
        );
        assert_eq!(
            SybilResistantTd::new(AgTr::default()).variant_name(),
            "TD-TR"
        );
        assert_eq!(
            SybilResistantTd::new(PerfectGrouping::new(vec![])).variant_name(),
            "TD(Oracle)"
        );
    }

    #[test]
    fn truths_stay_in_report_hull() {
        let data = table_i_attacked();
        let r = SybilResistantTd::new(AgTr::default()).discover(&data, &[]);
        for t in 0..4 {
            let vals = data.task_claims(t).1;
            let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let v = r.truths[t].unwrap();
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "task {t}: {v}");
        }
    }
}
