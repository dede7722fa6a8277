//! Truth discovery for categorical claims.
//!
//! The paper scopes its demonstration to numerical data ("the sensing
//! data for each task is in the form of numerical values"), but many MCS
//! tasks are discrete — is the parking spot free, which direction is the
//! road blocked. The truth discovery family handles these with weighted
//! voting instead of weighted averaging; the Sybil attack works exactly
//! the same way (a coordinated block out-votes honest users), and the
//! grouping counter-measure transfers verbatim: collapse each suspected
//! group to a single vote ([`grouped_weighted_vote`]).

use std::collections::{BTreeMap, HashMap, HashSet};

/// One categorical claim: account `account` says task `task` has label
/// `label`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Claim {
    /// Claiming account index.
    pub account: usize,
    /// Task index.
    pub task: usize,
    /// Claimed label (task-local id).
    pub label: usize,
}

/// A campaign of categorical claims.
///
/// # Examples
///
/// ```
/// use srtd_truth::categorical::{CategoricalData, WeightedVote};
///
/// let mut data = CategoricalData::new(1);
/// data.add_claim(0, 0, 1);
/// data.add_claim(1, 0, 1);
/// data.add_claim(2, 0, 0);
/// let result = WeightedVote.discover(&data);
/// assert_eq!(result.truths[0], Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CategoricalData {
    num_tasks: usize,
    claims: Vec<Claim>,
    num_accounts: usize,
    /// Every `(account, task)` pair claimed so far, so a repeat is found
    /// without scanning the claims.
    seen: HashSet<(usize, usize)>,
}

impl CategoricalData {
    /// Creates an empty campaign with `num_tasks` tasks.
    pub fn new(num_tasks: usize) -> Self {
        Self {
            num_tasks,
            ..Self::default()
        }
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// Number of accounts (highest index seen + 1).
    pub fn num_accounts(&self) -> usize {
        self.num_accounts
    }

    /// All claims in insertion order.
    pub fn claims(&self) -> &[Claim] {
        &self.claims
    }

    /// Returns `true` if no claim has been added.
    pub fn is_empty(&self) -> bool {
        self.claims.is_empty()
    }

    /// Adds a claim.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range or the account already claimed
    /// this task.
    pub fn add_claim(&mut self, account: usize, task: usize, label: usize) {
        assert!(task < self.num_tasks, "task {task} out of range");
        let fresh = self.seen.insert((account, task));
        assert!(fresh, "account {account} already claimed task {task}");
        self.claims.push(Claim {
            account,
            task,
            label,
        });
        self.num_accounts = self.num_accounts.max(account + 1);
    }
}

/// Output of categorical truth discovery.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoricalResult {
    /// Winning label per task; `None` for unclaimed tasks.
    pub truths: Vec<Option<usize>>,
    /// Final per-account weights.
    pub weights: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
}

/// Iterative weighted voting (the categorical analogue of CRH).
///
/// Weight update: `w_i = ln(total_mismatches / mismatches_i)` with a
/// scale-aware floor like the numeric CRH's, at least 0.05; truth update:
/// per task, the label with the largest total claim weight. Ties break
/// toward the smaller label id, which keeps the algorithm deterministic.
/// Truths start at the majority vote, and the loop stops when a round
/// changes no label (at most 50 rounds).
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightedVote;

/// [`WeightedVote`]'s round cap.
const MAX_ROUNDS: usize = 50;

impl WeightedVote {
    /// Runs the weighted vote.
    pub fn discover(&self, data: &CategoricalData) -> CategoricalResult {
        let n = data.num_accounts();
        let mut weights = vec![1.0f64; n];
        let mut truths = plain_vote(data, &weights);
        let mut iterations = 0;
        for iter in 0..MAX_ROUNDS {
            iterations = iter + 1;
            // 0/1 mismatch losses.
            let mut losses = vec![0.0f64; n];
            for c in data.claims() {
                if let Some(truth) = truths[c.task] {
                    if truth != c.label {
                        losses[c.account] += 1.0;
                    }
                }
            }
            let total: f64 = losses.iter().sum();
            let floor = (total / n.max(1) as f64).max(1e-12) * 1e-3;
            for (w, &loss) in weights.iter_mut().zip(&losses) {
                *w = (total.max(1e-12) / loss.max(floor)).ln().max(0.05);
            }
            let next = plain_vote(data, &weights);
            if next == truths {
                truths = next;
                break;
            }
            truths = next;
        }
        CategoricalResult {
            truths,
            weights,
            iterations,
        }
    }
}

/// One weighted-vote round: per task, the label with the largest total
/// weight (ties toward the smaller label).
fn plain_vote(data: &CategoricalData, weights: &[f64]) -> Vec<Option<usize>> {
    let mut tallies: Vec<HashMap<usize, f64>> = vec![HashMap::new(); data.num_tasks()];
    for c in data.claims() {
        *tallies[c.task].entry(c.label).or_insert(0.0) += weights[c.account];
    }
    tallies
        .into_iter()
        .map(|tally| {
            tally
                .into_iter()
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(label, _)| label)
        })
        .collect()
}

/// Unweighted majority voting (the categorical mean-vote analogue).
pub fn majority_vote(data: &CategoricalData) -> Vec<Option<usize>> {
    plain_vote(data, &vec![1.0; data.num_accounts()])
}

/// Group-collapsed weighted voting — the categorical port of Algorithm 2's
/// data-grouping idea.
///
/// `group_of[account]` assigns each account to a suspected-owner group
/// (e.g. from `srtd-core`'s AG methods). For each task, every group first
/// casts a *single* internal-majority vote; the votes are then combined
/// with the Eq. 4 size-penalized weights. A thousand coordinated accounts
/// still count as one voice. Ties break toward the smaller label, inside
/// a group and between groups; the weights behind each label are added
/// in ascending group order, so a near-tie resolves the same on every run.
///
/// # Panics
///
/// Panics if `group_of` does not cover every account.
pub fn grouped_weighted_vote(data: &CategoricalData, group_of: &[usize]) -> Vec<Option<usize>> {
    assert!(
        data.num_accounts() <= group_of.len(),
        "group labels must cover every account ({} accounts, {} labels)",
        data.num_accounts(),
        group_of.len()
    );
    // Each task's claims as (group, label), bucketed in one pass.
    let mut by_task: Vec<Vec<(usize, usize)>> = vec![Vec::new(); data.num_tasks()];
    for c in data.claims() {
        by_task[c.task].push((group_of[c.account], c.label));
    }
    by_task
        .into_iter()
        .map(|mut claims| {
            let reporters = claims.len();
            claims.sort_unstable();
            // Each group's majority label, weighted by Eq. 4 and added per
            // label with the groups in ascending order.
            let mut combined: BTreeMap<usize, f64> = BTreeMap::new();
            for group in claims.chunk_by(|a, b| a.0 == b.0) {
                let label = group
                    .chunk_by(|a, b| a.1 == b.1)
                    .max_by(|a, b| a.len().cmp(&b.len()).then(b[0].1.cmp(&a[0].1)))
                    .map(|run| run[0].1)
                    .expect("non-empty group");
                let weight = 1.0 - group.len() as f64 / reporters as f64;
                // A group holding every reporter still deserves a voice.
                *combined.entry(label).or_insert(0.0) += weight.max(0.05);
            }
            combined
                .into_iter()
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(label, _)| label)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 honest accounts vs a 3-account Sybil block on 4 binary tasks.
    fn attacked_campaign() -> CategoricalData {
        let mut d = CategoricalData::new(4);
        for task in 0..4 {
            d.add_claim(0, task, 0); // honest: label 0 everywhere
            d.add_claim(1, task, 0);
            for sybil in 2..5 {
                d.add_claim(sybil, task, 1); // coordinated lie
            }
        }
        d
    }

    #[test]
    fn majority_vote_basics() {
        let mut d = CategoricalData::new(2);
        d.add_claim(0, 0, 3);
        d.add_claim(1, 0, 3);
        d.add_claim(2, 0, 7);
        let t = majority_vote(&d);
        assert_eq!(t[0], Some(3));
        assert_eq!(t[1], None);
    }

    #[test]
    fn weighted_vote_downweights_the_inconsistent() {
        let mut d = CategoricalData::new(5);
        // Accounts 0,1 agree on everything; account 2 disagrees on 4 of 5.
        for task in 0..5 {
            d.add_claim(0, task, 0);
            d.add_claim(1, task, 0);
            d.add_claim(2, task, if task == 0 { 0 } else { 1 });
        }
        let r = WeightedVote.discover(&d);
        assert!(r.weights[0] > r.weights[2]);
        assert!(r.truths.iter().all(|&t| t == Some(0)));
    }

    #[test]
    fn sybil_block_wins_the_plain_votes() {
        let d = attacked_campaign();
        let plain = majority_vote(&d);
        assert!(plain.iter().all(|&t| t == Some(1)), "{plain:?}");
        let weighted = WeightedVote.discover(&d);
        assert!(
            weighted.truths.iter().all(|&t| t == Some(1)),
            "weighted voting cannot beat a coordinated majority"
        );
    }

    #[test]
    fn grouping_restores_the_categorical_truth() {
        let d = attacked_campaign();
        // The Sybil block collapses to one voice with a low Eq. 4 weight.
        let groups = [0, 1, 2, 2, 2];
        let t = grouped_weighted_vote(&d, &groups);
        assert!(t.iter().all(|&t| t == Some(0)), "{t:?}");
    }

    #[test]
    fn grouped_vote_handles_single_group_tasks() {
        let mut d = CategoricalData::new(1);
        d.add_claim(0, 0, 4);
        d.add_claim(1, 0, 4);
        // Both accounts in one group: weight floor keeps the vote alive.
        let t = grouped_weighted_vote(&d, &[0, 0]);
        assert_eq!(t[0], Some(4));
    }

    #[test]
    fn deterministic_tie_breaking() {
        let mut d = CategoricalData::new(1);
        d.add_claim(0, 0, 5);
        d.add_claim(1, 0, 2);
        // Equal weights: the smaller label wins.
        assert_eq!(majority_vote(&d)[0], Some(2));
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn duplicate_claim_panics() {
        let mut d = CategoricalData::new(1);
        d.add_claim(0, 0, 1);
        d.add_claim(0, 0, 2);
    }

    #[test]
    fn empty_campaign() {
        let d = CategoricalData::new(2);
        assert!(d.is_empty());
        let r = WeightedVote.discover(&d);
        assert_eq!(r.truths, vec![None, None]);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use srtd_runtime::rng::{Rng, StdRng};
    use srtd_runtime::{prop, prop_assert, prop_assert_eq};

    fn campaign(rng: &mut StdRng) -> CategoricalData {
        let raw = prop::vec_with(rng, 1..30, |r| {
            (
                r.gen_range(0usize..6),
                r.gen_range(0usize..4),
                r.gen_range(0usize..3),
            )
        });
        let mut d = CategoricalData::new(4);
        let mut seen = std::collections::HashSet::new();
        for (account, task, label) in raw {
            if seen.insert((account, task)) {
                d.add_claim(account, task, label);
            }
        }
        d
    }

    /// Every winning label was actually claimed for that task, under
    /// all three aggregation modes.
    #[test]
    fn winners_are_claimed_labels() {
        prop::check(campaign, |data| {
            let group_of: Vec<usize> = (0..data.num_accounts().max(1)).collect();
            let outputs = [
                majority_vote(data),
                WeightedVote.discover(data).truths,
                grouped_weighted_vote(data, &group_of),
            ];
            for truths in outputs {
                for (task, truth) in truths.iter().enumerate() {
                    let claimed: Vec<usize> = data
                        .claims()
                        .iter()
                        .filter(|c| c.task == task)
                        .map(|c| c.label)
                        .collect();
                    match truth {
                        None => prop_assert!(claimed.is_empty()),
                        Some(l) => prop_assert!(claimed.contains(l)),
                    }
                }
            }
            Ok(())
        });
    }

    /// All-singleton grouping reduces the grouped vote to plain
    /// majority voting (Eq. 4 weights become uniform).
    #[test]
    fn singleton_grouping_is_majority_vote() {
        prop::check(campaign, |data| {
            let singletons: Vec<usize> = (0..data.num_accounts().max(1)).collect();
            prop_assert_eq!(
                grouped_weighted_vote(data, &singletons),
                majority_vote(data)
            );
            Ok(())
        });
    }

    /// The reference the grouped vote must equal: a scan of every claim
    /// per task and per group, each group's majority label (ties to the
    /// smaller label), and the Eq. 4 weights added per label in ascending
    /// group order.
    fn reference_grouped_vote(data: &CategoricalData, group_of: &[usize]) -> Vec<Option<usize>> {
        let groups = group_of.iter().max().map_or(0, |g| g + 1);
        (0..data.num_tasks())
            .map(|task| {
                let claims: Vec<&Claim> = data.claims().iter().filter(|c| c.task == task).collect();
                let mut combined: Vec<(usize, f64)> = Vec::new();
                for g in 0..groups {
                    let labels: Vec<usize> = claims
                        .iter()
                        .filter(|c| group_of[c.account] == g)
                        .map(|c| c.label)
                        .collect();
                    let count = |l: usize| labels.iter().filter(|&&x| x == l).count();
                    let Some(label) =
                        labels
                            .iter()
                            .copied()
                            .reduce(|a, b| match count(a).cmp(&count(b)) {
                                std::cmp::Ordering::Less => b,
                                std::cmp::Ordering::Greater => a,
                                std::cmp::Ordering::Equal => a.min(b),
                            })
                    else {
                        continue;
                    };
                    let weight = (1.0 - labels.len() as f64 / claims.len() as f64).max(0.05);
                    match combined.iter_mut().find(|(l, _)| *l == label) {
                        Some((_, w)) => *w += weight,
                        None => combined.push((label, weight)),
                    }
                }
                combined
                    .into_iter()
                    .reduce(|a, b| {
                        if b.1 > a.1 || (b.1 == a.1 && b.0 < a.0) {
                            b
                        } else {
                            a
                        }
                    })
                    .map(|(label, _)| label)
            })
            .collect()
    }

    /// The grouped vote equals the plain reference on campaigns where
    /// several groups of varying size stand behind each label, so each
    /// label's weight is a sum of several terms and near-ties occur.
    #[test]
    fn grouped_vote_matches_the_group_order_reference() {
        prop::check(
            |rng| {
                let accounts = rng.gen_range(2usize..60);
                let groups = rng.gen_range(1usize..12);
                let tasks = rng.gen_range(1usize..6);
                let group_of: Vec<usize> =
                    (0..accounts).map(|_| rng.gen_range(0..groups)).collect();
                let group_label: Vec<Vec<usize>> = (0..groups)
                    .map(|_| (0..tasks).map(|_| rng.gen_range(0usize..3)).collect())
                    .collect();
                let mut data = CategoricalData::new(tasks);
                for (account, &g) in group_of.iter().enumerate() {
                    for (task, &label) in group_label[g].iter().enumerate() {
                        if rng.gen_range(0.0f64..1.0) < 0.7 {
                            let label = if rng.gen_range(0.0f64..1.0) < 0.2 {
                                rng.gen_range(0usize..3)
                            } else {
                                label
                            };
                            data.add_claim(account, task, label);
                        }
                    }
                }
                (data, group_of)
            },
            |(data, group_of)| {
                prop_assert_eq!(
                    grouped_weighted_vote(data, group_of),
                    reference_grouped_vote(data, group_of)
                );
                Ok(())
            },
        );
    }

    /// Deterministic: the weighted vote is a pure function.
    #[test]
    fn weighted_vote_deterministic() {
        prop::check(campaign, |data| {
            let a = WeightedVote.discover(data);
            let b = WeightedVote.discover(data);
            prop_assert_eq!(a, b);
            Ok(())
        });
    }
}
