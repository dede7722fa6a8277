//! AG-TR: account grouping by trajectory (Eqs. 7–8).

use crate::grouping::blocking::{self, endpoint_cell, Cell, KeyRuns};
use crate::grouping::{referenced, AccountGrouping, EdgeGrouping, EdgeIndex, Grouping};
use srtd_graph::UnionFind;
use srtd_runtime::parallel::{parallel_map, triangle_pairs};
use srtd_timeseries::{dtw, PrunedPairwise};
use srtd_truth::{Report, SensingData};

/// Ceiling for the dense [`AgTr::dissimilarity_matrix`] API: it exists
/// for the Fig. 4 worked example and as the all-pairs reference in tests,
/// and allocating n×n floats at campaign scale would be a bug (8 TB at
/// one million accounts). Grouping goes through the sparse
/// [`AgTr::dissimilarity_edges`] path, which has no such limit.
const MAX_DENSE_ACCOUNTS: usize = 4096;

/// Seconds per unit of the timestamp series `Y`: hours.
const SECONDS_PER_TIMESTAMP_UNIT: f64 = 3600.0;

/// Account grouping by trajectory dissimilarity.
///
/// Each account's submissions, ordered by time, form two series: the task
/// indices `X_i` and the timestamps `Y_i`, in hours. The dissimilarity is
/// Eq. 8,
///
/// ```text
/// D_ij = DTW(X_i, X_j) + DTW(Y_i, Y_j)
/// ```
///
/// over the raw cumulative DTW cost that the paper's worked example
/// (Fig. 4) tabulates, [`dtw`] (trajectories under 64 points warp
/// unconstrained, longer ones within an adaptive band). Pairs with
/// `D_ij < φ` are connected and connected components become groups: the
/// accounts of one Sybil attacker replay a single physical walk, so both
/// their task order and their timing pattern nearly coincide. Under the
/// raw cost, task-index series of different task sets are at least 1
/// apart (integer indices, squared distances), so the default `φ = 1`
/// cleanly separates different-walk accounts while same-walk accounts
/// differ only by their small timestamp offsets.
///
/// # Examples
///
/// ```
/// use srtd_core::{AccountGrouping, AgTr};
/// use srtd_truth::SensingData;
///
/// let mut data = SensingData::new(3);
/// // Two accounts replaying one walk 30 s apart...
/// for (acct, off) in [(0, 0.0), (1, 30.0)] {
///     data.add_report(acct, 0, 1.0, 100.0 + off);
///     data.add_report(acct, 2, 1.0, 400.0 + off);
/// }
/// // ...and an account on a different route hours later.
/// data.add_report(2, 1, 1.0, 9_000.0);
/// data.add_report(2, 2, 1.0, 9_700.0);
/// let grouping = AgTr::default().group(&data, &[]);
/// assert_eq!(grouping.group_of(0), grouping.group_of(1));
/// assert_ne!(grouping.group_of(0), grouping.group_of(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgTr {
    phi: f64,
}

impl Default for AgTr {
    /// `φ = 1`.
    fn default() -> Self {
        Self { phi: 1.0 }
    }
}

impl AgTr {
    /// Creates AG-TR with dissimilarity threshold `phi`.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not finite and positive.
    pub fn new(phi: f64) -> Self {
        assert!(phi.is_finite() && phi > 0.0, "threshold must be positive");
        Self { phi }
    }

    /// The dissimilarity threshold φ.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Eq. 8 for one pair of trajectories, by full DTW.
    fn distance(a: &(Vec<f64>, Vec<f64>), b: &(Vec<f64>, Vec<f64>)) -> f64 {
        dtw(&a.0, &b.0) + dtw(&a.1, &b.1)
    }

    /// Extracts the `(X_i, Y_i)` trajectory series of every account.
    pub fn trajectories(&self, data: &SensingData) -> Vec<(Vec<f64>, Vec<f64>)> {
        (0..data.num_accounts())
            .map(|a| trajectory(data, a))
            .collect()
    }

    /// The exact pairwise dissimilarity matrix (Fig. 4(c)); diagonal is
    /// 0. Accounts with no reports are infinitely far from everyone —
    /// including each other: two inactive accounts share no behavioural
    /// evidence, so they must stay singletons rather than merge at
    /// distance zero.
    ///
    /// Every one of the `n(n−1)/2` entries runs full DTW under the same
    /// band rule as the grouping path, through the runtime's
    /// order-preserving parallel map over the flattened upper triangle,
    /// so the matrix is identical for every worker-thread count. This is
    /// Eq. 8 by definition, for display and as the all-pairs reference;
    /// grouping never calls it.
    pub fn dissimilarity_matrix(&self, data: &SensingData) -> Vec<Vec<f64>> {
        let _span = srtd_runtime::obs::span("ag_tr.dtw_matrix");
        let trajectories = self.trajectories(data);
        let n = trajectories.len();
        assert!(
            n <= MAX_DENSE_ACCOUNTS,
            "the dense dissimilarity matrix is capped at {MAX_DENSE_ACCOUNTS} accounts \
             (got {n}); use dissimilarity_edges at scale"
        );
        let pairs = triangle_pairs(n);
        let distances = parallel_map(&pairs, |&(i, j)| {
            if trajectories[i].0.is_empty() || trajectories[j].0.is_empty() {
                f64::INFINITY
            } else {
                Self::distance(&trajectories[i], &trajectories[j])
            }
        });
        let mut matrix = vec![vec![0.0; n]; n];
        for (&(i, j), &d) in pairs.iter().zip(&distances) {
            matrix[i][j] = d;
            matrix[j][i] = d;
        }
        matrix
    }

    /// The sparse decision-edge list: pairs `(i, j, D_ij)` with `i < j`
    /// and `D_ij < φ`, in lexicographic order, never pairing inactive
    /// accounts. This is what [`AccountGrouping::group`] connects — the
    /// dense matrix is never materialized on this path, so it has no size
    /// cap. It is a fresh [`EdgeGrouping::edge_index`] updated once with
    /// every account dirty.
    pub fn dissimilarity_edges(&self, data: &SensingData) -> Vec<(usize, usize, f64)> {
        TrIndex::new(*self).edges(data, &vec![true; data.num_accounts()])
    }
}

/// One account's `(X_i, Y_i)` series: its reports by time, as task
/// indices and as timestamps in hours.
fn trajectory(data: &SensingData, account: usize) -> (Vec<f64>, Vec<f64>) {
    let traj = data.trajectory_of(account);
    let x = traj.iter().map(|r| r.task as f64).collect();
    let y = traj
        .iter()
        .map(|r| r.timestamp / SECONDS_PER_TIMESTAMP_UNIT)
        .collect();
    (x, y)
}

/// The endpoint cell of one account's trajectory at width `w`, read off
/// its reports without building the series (the first and last report
/// are the ones [`SensingData::trajectory_of`]'s stable sort puts at the
/// ends); `None` for an account with no reports.
fn account_cell(data: &SensingData, account: usize, w: f64) -> Option<Cell> {
    let by_time = |a: &&Report, b: &&Report| a.timestamp.total_cmp(&b.timestamp);
    let first = data.account_reports(account).min_by(by_time)?;
    let last = data.account_reports(account).max_by(by_time)?;
    let y = |r: &Report| r.timestamp / SECONDS_PER_TIMESTAMP_UNIT;
    Some(endpoint_cell(
        first.task as f64,
        last.task as f64,
        y(first),
        y(last),
        w,
    ))
}

/// AG-TR's persistent edge index: every active account filed under its
/// endpoint cell (4 × `i32` + `u32` account, 20 bytes per active
/// account). An update re-files the dirty accounts, probes their
/// neighbouring cells, and builds trajectories and LB envelopes only for
/// the accounts a candidate pair references.
#[derive(Debug)]
struct TrIndex {
    ag: AgTr,
    cells: KeyRuns<Cell>,
}

impl TrIndex {
    fn new(ag: AgTr) -> Self {
        Self {
            ag,
            cells: KeyRuns::default(),
        }
    }

    /// The decision edges `(i, j, D_ij)` with a dirty endpoint. Only
    /// same-or-adjacent endpoint-cell pairs — provably a superset of every
    /// below-φ pair, see [`endpoint_cell`] — enter the [`PrunedPairwise`]
    /// cascade with φ as cutoff, which skips provably-above-φ pairs
    /// without a full DTW and keeps every below-φ distance bit-identical.
    fn edges(&mut self, data: &SensingData, dirty: &[bool]) -> Vec<(usize, usize, f64)> {
        let _span = srtd_runtime::obs::span("ag_tr.dtw_edges");
        let n = data.num_accounts();
        assert_eq!(dirty.len(), n, "dirty mask must cover every account");
        let phi = self.ag.phi;
        let w = phi.sqrt();
        let probes = self
            .cells
            .refile(dirty, |a, out| out.extend(account_cell(data, a, w)));
        let pairs = blocking::cell_pairs(&self.cells, &probes, dirty);
        blocking::record_pair_counts(
            "ag_tr",
            blocking::total_pairs(n, Some(dirty)),
            pairs.len() as u64,
            self.cells.buckets() as u64,
        );
        // Inactive accounts take no cell, so they are in no pair and stay
        // singletons, as the dense matrix's ∞ for them demands.
        let (accounts, local) = referenced(n, &pairs);
        let trajectories: Vec<(Vec<f64>, Vec<f64>)> =
            accounts.iter().map(|&a| trajectory(data, a)).collect();
        PrunedPairwise::new(phi)
            .edges2_with_stats(&trajectories, &local)
            .0
            .into_iter()
            .filter(|&(_, _, d)| d < phi)
            .map(|(i, j, d)| (accounts[i], accounts[j], d))
            .collect()
    }
}

impl EdgeIndex for TrIndex {
    fn update(&mut self, data: &SensingData, dirty: &[bool]) -> Vec<(usize, usize)> {
        self.edges(data, dirty)
            .into_iter()
            .map(|(i, j, _)| (i, j))
            .collect()
    }
}

impl AccountGrouping for AgTr {
    fn group(&self, data: &SensingData, _fingerprints: &[Vec<f64>]) -> Grouping {
        let n = data.num_accounts();
        if n == 0 {
            return Grouping::from_labels(&[]);
        }
        let _span = srtd_runtime::obs::span("ag_tr.group");
        let edges = self.dissimilarity_edges(data);
        let mut uf = UnionFind::new(n);
        for &(i, j, _) in &edges {
            uf.union(i, j);
        }
        srtd_runtime::obs::counter_add("ag_tr.edges", edges.len() as u64);
        Grouping::from_forest(&mut uf)
    }

    fn name(&self) -> &'static str {
        "AG-TR"
    }

    fn as_edge_grouping(&self) -> Option<&dyn EdgeGrouping> {
        Some(self)
    }
}

impl EdgeGrouping for AgTr {
    fn edge_index(&self) -> Box<dyn EdgeIndex + Send> {
        Box::new(TrIndex::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table III (same data as the AG-TS tests; see `ts.rs`).
    fn table_iii_data() -> SensingData {
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

    /// The below-φ entries of the exact dense matrix: Eq. 8's decision
    /// over every pair, the reference the sparse path must reproduce.
    fn dense_edges(ag: &AgTr, d: &SensingData) -> Vec<(usize, usize, f64)> {
        let mut edges = Vec::new();
        for (i, row) in ag.dissimilarity_matrix(d).iter().enumerate() {
            for (j, &v) in row.iter().enumerate().skip(i + 1) {
                if v < ag.phi() {
                    edges.push((i, j, v));
                }
            }
        }
        edges
    }

    /// Asserts `ag`'s edge list equals [`dense_edges`] bit for bit and its
    /// grouping equals the components of those edges.
    fn assert_matches_dense(ag: &AgTr, d: &SensingData) {
        let expected = dense_edges(ag, d);
        let edges = ag.dissimilarity_edges(d);
        assert_eq!(edges.len(), expected.len(), "{ag:?}");
        for (got, want) in edges.iter().zip(&expected) {
            assert_eq!((got.0, got.1), (want.0, want.1), "{ag:?}");
            assert_eq!(got.2.to_bits(), want.2.to_bits(), "{ag:?}");
        }
        let mut components = UnionFind::new(d.num_accounts());
        for &(i, j, _) in &expected {
            components.union(i, j);
        }
        assert_eq!(
            ag.group(d, &[]),
            Grouping::new(components.into_groups()),
            "{ag:?}"
        );
    }

    #[test]
    fn table_iii_reproduces_fig4_grouping() {
        // Fig. 4(d): the Sybil accounts {4', 4'', 4'''} form the single
        // component; 1, 2, 3 are singletons. AG-TR avoids AG-TS's
        // account-1 false positive because the timestamp series of account
        // 1 diverges from the attacker's.
        let g = AgTr::default().group(&table_iii_data(), &[]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.group_of(3), g.group_of(4));
        assert_eq!(g.group_of(4), g.group_of(5));
        for a in 0..3 {
            assert_eq!(g.groups()[g.group_of(a)].len(), 1, "account {a}");
        }
    }

    #[test]
    fn dissimilarity_matrix_structure() {
        let d = table_iii_data();
        let m = AgTr::default().dissimilarity_matrix(&d);
        // Exact everywhere (every account is active), symmetric bit for
        // bit, zero diagonal.
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, v) in row.iter().enumerate() {
                assert!(v.is_finite(), "({i},{j}) = {v}");
                assert_eq!(v.to_bits(), m[j][i].to_bits());
            }
        }
        // Sybil pairs are much closer than any legit pair.
        let sybil_max = m[3][4].max(m[3][5]).max(m[4][5]);
        let legit_min = m[0][1].min(m[0][2]).min(m[1][2]);
        assert!(
            sybil_max < legit_min,
            "sybil pairs ({sybil_max}) should be closer than legit pairs ({legit_min})"
        );
    }

    #[test]
    fn raw_dtw_reproduces_fig4a_task_series_values() {
        // Fig. 4(a) tabulates raw cumulative DTW over the task series with
        // 1-based task ids; with 0-based ids the distances are identical
        // because DTW is shift-invariant only through the values — both
        // series shift together, so differences are unchanged.
        let d = table_iii_data();
        let trajectories = AgTr::default().trajectories(&d);
        let dx = |i: usize, j: usize| dtw(&trajectories[i].0, &trajectories[j].0);
        assert_eq!(dx(0, 1), 2.0); // DTW(X_1, X_2)
        assert_eq!(dx(0, 3), 1.0); // DTW(X_1, X_4')
        assert_eq!(dx(3, 4), 0.0); // identical task series
        assert_eq!(dx(1, 3), 2.0); // DTW(X_2, X_4')
    }

    #[test]
    fn threshold_controls_merging() {
        let d = table_iii_data();
        // A huge threshold merges everyone into one component.
        let all = AgTr::new(1e6).group(&d, &[]);
        assert_eq!(all.len(), 1);
        // A tiny threshold keeps everyone separate (sybil timestamp gaps
        // are ~25–85 s ≈ 0.01–0.02 h, so φ = 1e-4 splits even them).
        let none = AgTr::new(1e-4).group(&d, &[]);
        assert_eq!(none.len(), 6);
    }

    #[test]
    fn accounts_without_reports_stay_singletons() {
        let mut d = SensingData::new(2);
        d.add_report(0, 0, 1.0, 10.0);
        d.add_report(2, 0, 1.0, 12.0);
        let g = AgTr::default().group(&d, &[]);
        let solo = g.group_of(1);
        assert_eq!(g.groups()[solo], vec![1]);
    }

    #[test]
    fn two_inactive_accounts_do_not_merge_with_each_other() {
        // Accounts 1 and 2 never reported; with the naive empty-vs-empty
        // DTW convention (distance 0) they would merge — they must not.
        let mut d = SensingData::new(1);
        d.add_report(0, 0, 1.0, 5.0);
        d.add_report(3, 0, 1.5, 4_000.0);
        d.reserve_accounts(4);
        let g = AgTr::default().group(&d, &[]);
        assert_ne!(g.group_of(1), g.group_of(2));
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn pruned_path_matches_the_dense_matrix_on_ragged_trajectories() {
        // Table III trajectories are ragged (lengths 4, 2, 3, 3, 3, 3):
        // LB_Keogh would panic on unequal lengths, so the engine must fall
        // back to LB_Kim for those pairs — this is the regression test for
        // the AG-TR call site.
        let d = table_iii_data();
        let ag = AgTr::default();
        assert_matches_dense(&ag, &d);
        // Over the whole triangle too: kept distances are bit-identical to
        // the exact matrix, and every pair left out is at or above φ.
        let exact = ag.dissimilarity_matrix(&d);
        let pairs = triangle_pairs(exact.len());
        let (kept, _) =
            PrunedPairwise::new(ag.phi()).edges2_with_stats(&ag.trajectories(&d), &pairs);
        for (i, j, v) in &kept {
            assert_eq!(v.to_bits(), exact[*i][*j].to_bits(), "({i},{j})");
        }
        for (i, j) in pairs {
            if kept.iter().all(|&(a, b, _)| (a, b) != (i, j)) {
                assert!(exact[i][j] >= ag.phi(), "pruned a below-φ pair ({i},{j})");
            }
        }
    }

    #[test]
    fn empty_data_yields_empty_grouping() {
        let g = AgTr::default().group(&SensingData::new(1), &[]);
        assert!(g.is_empty());
    }

    #[test]
    fn sparse_edges_match_the_dense_decision() {
        // The edge list must be exactly the below-φ entries of the dense
        // matrix (bitwise), for every threshold regime: nothing, all
        // Sybil pairs, everything.
        let d = table_iii_data();
        for phi in [1e-4, 1.0, 1e6] {
            assert_matches_dense(&AgTr::new(phi), &d);
        }
    }

    #[test]
    fn endpoint_cells_cover_every_dense_edge() {
        let d = table_iii_data();
        let ag = AgTr::default();
        let all = [true; 6];
        let mut cells = KeyRuns::default();
        let probes = cells.refile(&all, |a, out| {
            out.extend(account_cell(&d, a, ag.phi().sqrt()))
        });
        let candidates = blocking::cell_pairs(&cells, &probes, &all);
        let expected = dense_edges(&ag, &d);
        assert!(!expected.is_empty());
        for (i, j, _) in expected {
            assert!(candidates.binary_search(&(i, j)).is_ok(), "({i},{j})");
        }
    }

    #[test]
    fn masked_edges_only_touch_dirty_accounts() {
        let d = table_iii_data();
        // Only the last Sybil account is dirty: of the three Sybil edges,
        // exactly the two touching account 5 remain.
        let mask = [false, false, false, false, false, true];
        let pairs = AgTr::default().decision_edges(&d, Some(&mask));
        assert_eq!(pairs, vec![(3, 5), (4, 5)]);
    }

    #[test]
    fn inactive_accounts_never_appear_in_edges() {
        let mut d = SensingData::new(1);
        d.add_report(0, 0, 1.0, 5.0);
        d.add_report(3, 0, 1.0, 6.0);
        d.reserve_accounts(4);
        let edges = AgTr::default().dissimilarity_edges(&d);
        assert!(
            edges
                .iter()
                .all(|&(i, j, _)| i != 1 && i != 2 && j != 1 && j != 2),
            "{edges:?}"
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_threshold_rejected() {
        AgTr::new(0.0);
    }
}
