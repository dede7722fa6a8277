//! AG-TS: account grouping by accomplished task set (Eq. 6).

use crate::grouping::blocking::{self, prefix_keys, KeyRuns, PairKey};
use crate::grouping::{referenced, AccountGrouping, EdgeGrouping, EdgeIndex, Grouping};
use srtd_graph::UnionFind;
use srtd_truth::SensingData;

/// Ceiling for the dense matrix APIs ([`AgTs::affinity_matrix`],
/// [`AgTs::task_overlap_matrices`]): they exist for the worked-example
/// reproduction and ablations, and an n×n `Vec<Vec<f64>>` at campaign
/// scale would be an allocation bug, not a computation. Grouping itself
/// goes through the sparse [`AgTs::affinity_edges`] path and has no such
/// limit.
const MAX_DENSE_ACCOUNTS: usize = 4096;

/// Account grouping by task-set affinity.
///
/// For each account pair, let `T_ij` be the number of tasks both
/// accomplished and `L_ij` the number of tasks exactly one of them
/// accomplished (their symmetric difference). The affinity is Eq. 6:
///
/// ```text
/// A_ij = (T_ij − 2·L_ij) · (T_ij + L_ij) / m
/// ```
///
/// Pairs with `A_ij > ρ` are connected; each connected component becomes a
/// group (accounts from one Sybil attacker share their task set almost
/// exactly, so they score high mutual affinity).
///
/// The paper notes AG-TS suits campaigns where accounts have *diverse*
/// task sets; when most accounts perform similar tasks, use
/// [`crate::AgTr`].
///
/// # Examples
///
/// ```
/// use srtd_core::{AccountGrouping, AgTs};
/// use srtd_truth::SensingData;
///
/// let mut data = SensingData::new(4);
/// // Accounts 0 and 1 share all four tasks; account 2 did other work.
/// for t in 0..4 {
///     data.add_report(0, t, 1.0, t as f64);
///     data.add_report(1, t, 1.0, t as f64 + 30.0);
/// }
/// data.add_report(2, 0, 1.0, 500.0);
/// data.add_report(2, 1, 1.0, 600.0);
/// let grouping = AgTs::default().group(&data, &[]);
/// assert_eq!(grouping.group_of(0), grouping.group_of(1));
/// assert_ne!(grouping.group_of(0), grouping.group_of(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgTs {
    rho: f64,
}

impl Default for AgTs {
    /// The paper's worked example uses `ρ = 1`.
    fn default() -> Self {
        Self { rho: 1.0 }
    }
}

impl AgTs {
    /// Creates AG-TS with affinity threshold `rho`.
    ///
    /// The threshold must be non-negative: only then does `A_ij > ρ` force
    /// the two task sets to overlap in more than two thirds of either,
    /// which is what lets AG-TS score only the accounts sharing a rare
    /// task pair instead of every pair. A negative `ρ` would accept pairs
    /// with arbitrarily little overlap — two accounts with no reports at
    /// all score `A = 0 > ρ` and would merge.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is negative or not finite.
    pub fn new(rho: f64) -> Self {
        assert!(
            rho.is_finite() && rho >= 0.0,
            "threshold must be finite and non-negative"
        );
        Self { rho }
    }

    /// The affinity threshold ρ.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The sparse decision-edge list: pairs `(i, j, A_ij)` with `i < j`
    /// and `A_ij > ρ`, in lexicographic order. This is what
    /// [`AccountGrouping::group`] connects — the dense
    /// [`AgTs::affinity_matrix`] is never materialized on this path. It is
    /// a fresh [`EdgeGrouping::edge_index`] updated once with every
    /// account dirty: only accounts sharing a pair of rare prefix tasks
    /// are scored, provably a superset of every above-threshold pair (see
    /// the proof on `blocking::prefix_keys`).
    pub fn affinity_edges(&self, data: &SensingData) -> Vec<(usize, usize, f64)> {
        TsIndex::new(*self).edges(data, &vec![true; data.num_accounts()])
    }

    /// The pairwise task-overlap matrices of Fig. 3(a)/(b): `T_ij` (tasks
    /// both accomplished) and `L_ij` (tasks exactly one accomplished).
    /// Diagonals are 0.
    pub fn task_overlap_matrices(&self, data: &SensingData) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let n = data.num_accounts();
        assert!(
            n <= MAX_DENSE_ACCOUNTS,
            "dense overlap matrices are capped at {MAX_DENSE_ACCOUNTS} accounts \
             (got {n}); use affinity_edges at scale"
        );
        let task_sets: Vec<Vec<usize>> = (0..n).map(|a| data.tasks_of(a)).collect();
        let mut together = vec![vec![0usize; n]; n];
        let mut alone = vec![vec![0usize; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                let t = task_sets[i]
                    .iter()
                    .filter(|x| task_sets[j].binary_search(x).is_ok())
                    .count();
                let l = (task_sets[i].len() - t) + (task_sets[j].len() - t);
                together[i][j] = t;
                together[j][i] = t;
                alone[i][j] = l;
                alone[j][i] = l;
            }
        }
        (together, alone)
    }

    /// The full pairwise affinity matrix (Fig. 3(c)); diagonal is 0.
    ///
    /// Exposed for the worked-example reproduction and for threshold
    /// ablations.
    pub fn affinity_matrix(&self, data: &SensingData) -> Vec<Vec<f64>> {
        let n = data.num_accounts();
        assert!(
            n <= MAX_DENSE_ACCOUNTS,
            "the dense affinity matrix is capped at {MAX_DENSE_ACCOUNTS} accounts \
             (got {n}); use affinity_edges at scale"
        );
        let m = data.num_tasks().max(1) as f64;
        let task_sets: Vec<Vec<usize>> = (0..n).map(|a| data.tasks_of(a)).collect();
        let mut matrix = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                let a = affinity(&task_sets[i], &task_sets[j], m);
                matrix[i][j] = a;
                matrix[j][i] = a;
            }
        }
        matrix
    }
}

/// Eq. 6 for two sorted task lists.
fn affinity(a: &[usize], b: &[usize], m: f64) -> f64 {
    let mut together = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                together += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    let alone = (a.len() - together) + (b.len() - together);
    let (t, l) = (together as f64, alone as f64);
    (t - 2.0 * l) * (t + l) / m
}

/// AG-TS's persistent edge index: every account filed under the pair keys
/// of its rarity prefix (two `u32` tasks + `u32` account, 12 bytes per
/// key; a 6-task set holds 3 keys, 36 bytes), under a task order frozen
/// when the index was last built. The k-prefix proof on
/// [`blocking::prefix_keys`] holds for any fixed order, so a stale order
/// costs only bucket size, never an edge; the index rebuilds with fresh
/// frequencies once the folded reports have more than doubled since.
#[derive(Debug)]
struct TsIndex {
    ag: AgTs,
    /// Rank of each task in the frozen order; empty before the first
    /// build.
    rank: Vec<u32>,
    /// Folded reports when the order was frozen.
    frozen_at: usize,
    keys: KeyRuns<PairKey>,
}

impl TsIndex {
    fn new(ag: AgTs) -> Self {
        Self {
            ag,
            rank: Vec::new(),
            frozen_at: 0,
            keys: KeyRuns::default(),
        }
    }

    /// The decision edges `(i, j, A_ij)` with a dirty endpoint.
    fn edges(&mut self, data: &SensingData, dirty: &[bool]) -> Vec<(usize, usize, f64)> {
        let n = data.num_accounts();
        assert_eq!(dirty.len(), n, "dirty mask must cover every account");
        if self.rank.len() != data.num_tasks() || data.num_reports() > 2 * self.frozen_at {
            let mut freq = vec![0u32; data.num_tasks()];
            for r in data.reports() {
                freq[r.task] += 1;
            }
            self.rank = blocking::rarity_rank(&freq);
            self.frozen_at = data.num_reports();
            self.keys = KeyRuns::default();
        }
        let rank = &self.rank;
        let mut tasks = Vec::new();
        let probes = self.keys.refile(dirty, |a, out| {
            tasks.clear();
            tasks.extend(data.account_reports(a).map(|r| r.task));
            prefix_keys(&mut tasks, rank, out);
        });
        let set_size = |a: usize| data.account_reports(a).len();
        let pairs = blocking::prefix_pairs(&self.keys, &probes, dirty, set_size);
        blocking::record_pair_counts(
            "ag_ts",
            blocking::total_pairs(n, Some(dirty)),
            pairs.len() as u64,
            self.keys.buckets() as u64,
        );
        let (accounts, local) = referenced(n, &pairs);
        let task_sets: Vec<Vec<usize>> = accounts.iter().map(|&a| data.tasks_of(a)).collect();
        let m = data.num_tasks().max(1) as f64;
        local
            .iter()
            .zip(&pairs)
            .filter_map(|(&(x, y), &(i, j))| {
                let a = affinity(&task_sets[x], &task_sets[y], m);
                (a > self.ag.rho).then_some((i, j, a))
            })
            .collect()
    }
}

impl EdgeIndex for TsIndex {
    fn update(&mut self, data: &SensingData, dirty: &[bool]) -> Vec<(usize, usize)> {
        self.edges(data, dirty)
            .into_iter()
            .map(|(i, j, _)| (i, j))
            .collect()
    }
}

impl AccountGrouping for AgTs {
    fn group(&self, data: &SensingData, _fingerprints: &[Vec<f64>]) -> Grouping {
        let n = data.num_accounts();
        if n == 0 {
            return Grouping::from_labels(&[]);
        }
        let _span = srtd_runtime::obs::span("ag_ts.group");
        let edges = self.affinity_edges(data);
        let mut uf = UnionFind::new(n);
        for &(i, j, _) in &edges {
            uf.union(i, j);
        }
        srtd_runtime::obs::counter_add("ag_ts.edges", edges.len() as u64);
        Grouping::from_forest(&mut uf)
    }

    fn name(&self) -> &'static str {
        "AG-TS"
    }

    fn as_edge_grouping(&self) -> Option<&dyn EdgeGrouping> {
        Some(self)
    }
}

impl EdgeGrouping for AgTs {
    fn edge_index(&self) -> Box<dyn EdgeIndex + Send> {
        Box::new(TsIndex::new(*self))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The Table III example: account indices 0..6 are the paper's
    /// 1, 2, 3, 4', 4'', 4'''.
    pub(super) fn table_iii_data_for_overlap() -> SensingData {
        table_iii_data()
    }

    fn table_iii_data() -> SensingData {
        let mut d = SensingData::new(4);
        let ts = |h: f64, m: f64, s: f64| h * 3600.0 + m * 60.0 + s;
        // Account 1: T1..T4.
        d.add_report(0, 0, -84.48, ts(10.0, 0.0, 35.0));
        d.add_report(0, 1, -82.11, ts(10.0, 2.0, 42.0));
        d.add_report(0, 2, -75.16, ts(10.0, 10.0, 22.0));
        d.add_report(0, 3, -72.71, ts(10.0, 13.0, 41.0));
        // Account 2: T2, T3.
        d.add_report(1, 1, -72.27, ts(10.0, 4.0, 15.0));
        d.add_report(1, 2, -77.21, ts(10.0, 6.0, 1.0));
        // Account 3: T1, T2, T4.
        d.add_report(2, 0, -72.41, ts(10.0, 1.0, 21.0));
        d.add_report(2, 1, -91.49, ts(10.0, 4.0, 5.0));
        d.add_report(2, 3, -73.55, ts(10.0, 8.0, 28.0));
        // Sybil accounts 4', 4'', 4''': T1, T3, T4.
        d.add_report(3, 0, -50.0, ts(10.0, 1.0, 10.0));
        d.add_report(3, 2, -50.0, ts(10.0, 15.0, 24.0));
        d.add_report(3, 3, -50.0, ts(10.0, 20.0, 6.0));
        d.add_report(4, 0, -50.0, ts(10.0, 1.0, 34.0));
        d.add_report(4, 2, -50.0, ts(10.0, 16.0, 8.0));
        d.add_report(4, 3, -50.0, ts(10.0, 21.0, 25.0));
        d.add_report(5, 0, -50.0, ts(10.0, 2.0, 35.0));
        d.add_report(5, 2, -50.0, ts(10.0, 17.0, 35.0));
        d.add_report(5, 3, -50.0, ts(10.0, 22.0, 2.0));
        d
    }

    #[test]
    fn affinity_matrix_matches_hand_computation() {
        let d = table_iii_data();
        let m = AgTs::default().affinity_matrix(&d);
        // Sybil pair (4', 4''): identical sets of 3 tasks over m = 4:
        // (3 − 0)(3 + 0)/4 = 2.25.
        assert!((m[3][4] - 2.25).abs() < 1e-12);
        // (1, 4'): T = 3, L = 1: (3 − 2)(3 + 1)/4 = 1.0.
        assert!((m[0][3] - 1.0).abs() < 1e-12);
        // (1, 2): T = 2, L = 2: (2 − 4)(2 + 2)/4 = −2.0.
        assert!((m[0][1] + 2.0).abs() < 1e-12);
        // Symmetry, zero diagonal.
        assert_eq!(m[2][5], m[5][2]);
        assert_eq!(m[1][1], 0.0);
    }

    #[test]
    fn table_iii_grouping_captures_the_sybil_component() {
        // With literal Eq. 6 and ρ = 1, the three Sybil accounts form one
        // group (pairwise affinity 2.25 > 1) and, unlike the paper's
        // figure (whose matrix values imply a different normalization),
        // account 1 stays out because A(1, 4') = 1.0 is not > ρ.
        let g = AgTs::default().group(&table_iii_data(), &[]);
        assert_eq!(g.group_of(3), g.group_of(4));
        assert_eq!(g.group_of(4), g.group_of(5));
        assert_ne!(g.group_of(0), g.group_of(3));
        assert_ne!(g.group_of(1), g.group_of(2));
        assert_eq!(g.len(), 4); // {4',4'',4'''}, {1}, {2}, {3}
    }

    #[test]
    fn lower_threshold_recreates_the_papers_false_positive() {
        // At ρ = 0.9 the A(1, 4') = 1.0 edge appears and account 1 merges
        // with the Sybil group — the false positive Fig. 3(d) shows. The
        // A(1, 3) = 1.0 edge then pulls account 3 in as well.
        let g = AgTs::new(0.9).group(&table_iii_data(), &[]);
        assert_eq!(g.group_of(0), g.group_of(3));
        assert_eq!(g.group_of(0), g.group_of(2));
        assert_ne!(g.group_of(0), g.group_of(1));
        assert_eq!(g.len(), 2); // {1,3,4',4'',4'''}, {2}
    }

    #[test]
    fn disjoint_task_sets_have_negative_affinity() {
        let mut d = SensingData::new(4);
        d.add_report(0, 0, 1.0, 0.0);
        d.add_report(0, 1, 1.0, 1.0);
        d.add_report(1, 2, 1.0, 2.0);
        d.add_report(1, 3, 1.0, 3.0);
        let m = AgTs::default().affinity_matrix(&d);
        assert!(m[0][1] < 0.0);
        let g = AgTs::default().group(&d, &[]);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn empty_data_yields_empty_grouping() {
        let g = AgTs::default().group(&SensingData::new(3), &[]);
        assert!(g.is_empty());
    }

    #[test]
    fn blocked_edges_match_the_dense_matrix() {
        let d = table_iii_data();
        for rho in [1.0, 0.9, 0.0] {
            let ag = AgTs::new(rho);
            let matrix = ag.affinity_matrix(&d);
            let mut expected = Vec::new();
            for (i, row) in matrix.iter().enumerate() {
                for (j, &a) in row.iter().enumerate().skip(i + 1) {
                    if a > rho {
                        expected.push((i, j, a));
                    }
                }
            }
            assert_eq!(ag.affinity_edges(&d), expected, "rho = {rho}");
            let mut components = UnionFind::new(6);
            for &(i, j, _) in &expected {
                components.union(i, j);
            }
            assert_eq!(
                ag.group(&d, &[]),
                Grouping::new(components.into_groups()),
                "rho = {rho}"
            );
        }
    }

    #[test]
    fn masked_edges_only_touch_dirty_accounts() {
        let d = table_iii_data();
        let ag = AgTs::default();
        // Only the last Sybil account is dirty: of the three Sybil edges,
        // exactly the two touching account 5 remain.
        let mask = [false, false, false, false, false, true];
        let pairs = ag.decision_edges(&d, Some(&mask));
        assert_eq!(pairs, vec![(3, 5), (4, 5)]);
    }

    #[test]
    fn the_frozen_order_rebuilds_once_the_reports_more_than_double() {
        // Accounts 0 and 1 report tasks 0–3: eight reports, all tasks
        // equally frequent, so the order freezes as 0, 1, 2, 3.
        let mut d = SensingData::new(8);
        for a in 0..2 {
            for t in 0..4 {
                d.add_report(a, t, 1.0, t as f64);
            }
        }
        let ag = AgTs::new(0.0);
        let mut index = TsIndex::new(ag);
        let pairs = |edges: Vec<(usize, usize, f64)>| -> Vec<(usize, usize)> {
            edges.into_iter().map(|(i, j, _)| (i, j)).collect()
        };
        assert_eq!(pairs(index.edges(&d, &[true; 2])), vec![(0, 1)]);
        assert_eq!(index.frozen_at, 8);
        let frozen = index.rank.clone();
        // Eleven reports are not more than twice eight: the order stays.
        for t in 0..3 {
            d.add_report(2, t, 1.0, 9.0);
        }
        let dirty = [false, false, true];
        assert_eq!(
            pairs(index.edges(&d, &dirty)),
            ag.decision_edges(&d, Some(&dirty))
        );
        assert_eq!((index.frozen_at, &index.rank), (8, &frozen));
        // Seventeen are: the order rebuilds with task 0 now the most
        // common and task 3 the rarest of the four, which reverses every
        // key account 0 was filed under. Account 0 is clean, so only a
        // rebuild that re-files it too still finds its edge to account 1.
        for (a, tasks) in [(3, &[0, 1][..]), (4, &[0]), (5, &[0, 1])] {
            for &t in tasks {
                d.add_report(a, t, 1.0, 9.0);
            }
        }
        d.add_report(1, 5, 1.0, 9.0);
        let dirty = [false, true, false, true, true, true];
        let fresh = pairs(index.edges(&d, &dirty));
        assert_eq!(index.frozen_at, 17);
        assert_ne!(index.rank, frozen);
        assert!(fresh.contains(&(0, 1)), "{fresh:?}");
        assert_eq!(fresh, ag.decision_edges(&d, Some(&dirty)));
    }

    #[test]
    fn accounts_without_reports_stay_singletons() {
        let mut d = SensingData::new(2);
        d.add_report(0, 0, 1.0, 0.0);
        d.add_report(2, 0, 1.0, 5.0);
        d.add_report(2, 1, 1.0, 9.0);
        // Account 1 never reported.
        let g = AgTs::default().group(&d, &[]);
        assert_eq!(g.num_accounts(), 3);
        let solo = g.group_of(1);
        assert_eq!(g.groups()[solo], vec![1]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_threshold_rejected() {
        AgTs::new(-0.5);
    }
}

#[cfg(test)]
mod overlap_tests {
    use super::tests::table_iii_data_for_overlap;
    use super::*;

    #[test]
    fn overlap_matrices_match_fig3a_and_fig3b() {
        let d = table_iii_data_for_overlap();
        let (t, l) = AgTs::default().task_overlap_matrices(&d);
        // Fig. 3(a): T(1,2) = 2, T(1,3) = 3, T(1,4') = 3, T(2,4') = 1.
        assert_eq!(t[0][1], 2);
        assert_eq!(t[0][2], 3);
        assert_eq!(t[0][3], 3);
        assert_eq!(t[1][3], 1);
        // Fig. 3(b): L(1,2) = 2, L(1,4') = 1, L(4',4'') = 0.
        assert_eq!(l[0][1], 2);
        assert_eq!(l[0][3], 1);
        assert_eq!(l[3][4], 0);
        // Symmetry and zero diagonal.
        assert_eq!(t[2][5], t[5][2]);
        assert_eq!(t[0][0], 0);
        assert_eq!(l[0][0], 0);
    }
}
