//! Account grouping: partitioning accounts by suspected physical owner.

mod blocking;
mod combined;
mod fp;
mod tr;
mod ts;
mod val;

pub use combined::{CombineMode, CombinedGrouping};
pub use fp::{AgFp, FpClustering};
pub use tr::AgTr;
pub use ts::AgTs;
pub use val::AgVal;

use srtd_graph::UnionFind;
use srtd_truth::SensingData;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A partition of accounts `0..n` into groups.
///
/// Invariants (the paper's `g_i ∩ g_j = ∅`, `∪ g_i = U`): every account
/// appears in exactly one group, groups are non-empty, members are sorted,
/// and groups are ordered by smallest member.
///
/// The partition is stored as one dense label per account; the member
/// lists of [`Grouping::groups`] are derived from the labels on first
/// call and cached, so building a grouping (every epoch, for the epoch
/// engine) allocates no `Vec` per group.
///
/// # Examples
///
/// ```
/// use srtd_core::Grouping;
///
/// let g = Grouping::from_labels(&[0, 1, 0, 2]);
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.groups()[0], vec![0, 2]);
/// assert_eq!(g.group_of(3), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Grouping {
    /// Group of each account: `0..len`, numbered by smallest member.
    labels: Vec<usize>,
    len: usize,
    groups: OnceLock<Vec<Vec<usize>>>,
}

impl PartialEq for Grouping {
    /// Labels alone decide equality: the count and the member lists are
    /// functions of them.
    fn eq(&self, other: &Self) -> bool {
        self.labels == other.labels
    }
}

impl Eq for Grouping {}

impl Grouping {
    /// Builds a grouping from group member lists.
    ///
    /// # Panics
    ///
    /// Panics if the lists are not a partition of `0..n` (duplicate,
    /// missing or out-of-range accounts, or empty groups).
    pub fn new(mut groups: Vec<Vec<usize>>) -> Self {
        assert!(
            groups.iter().all(|g| !g.is_empty()),
            "groups must be non-empty"
        );
        for g in &mut groups {
            g.sort_unstable();
        }
        groups.sort_by_key(|g| g[0]);
        let n: usize = groups.iter().map(Vec::len).sum();
        let mut labels = vec![usize::MAX; n];
        for (k, g) in groups.iter().enumerate() {
            for &a in g {
                assert!(a < n, "account {a} out of range for {n} accounts");
                assert!(
                    labels[a] == usize::MAX,
                    "account {a} appears in more than one group"
                );
                labels[a] = k;
            }
        }
        // All n slots filled <=> partition (counts already match).
        Self {
            labels,
            len: groups.len(),
            groups: OnceLock::from(groups),
        }
    }

    /// Builds a grouping from per-account labels (arbitrary values).
    pub fn from_labels(labels: &[usize]) -> Self {
        // Numbering labels by first sight numbers groups by smallest member.
        let mut seen: HashMap<usize, usize> = HashMap::new();
        let labels = labels
            .iter()
            .map(|&l| {
                let next = seen.len();
                *seen.entry(l).or_insert(next)
            })
            .collect();
        Self {
            labels,
            len: seen.len(),
            groups: OnceLock::new(),
        }
    }

    /// The partition a union-find forest holds, read through its
    /// canonical labels ([`UnionFind::labels`], already numbered by
    /// smallest member) in one pass over the accounts.
    pub fn from_forest(forest: &mut UnionFind) -> Self {
        Self {
            labels: forest.labels(),
            len: forest.set_count(),
            groups: OnceLock::new(),
        }
    }

    /// The all-singletons partition over `n` accounts (no grouping —
    /// reduces the framework to plain account-level truth discovery).
    pub fn singletons(n: usize) -> Self {
        Self {
            labels: (0..n).collect(),
            len: n,
            groups: OnceLock::new(),
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when there are no accounts at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of accounts covered.
    pub fn num_accounts(&self) -> usize {
        self.labels.len()
    }

    /// The group member lists, sorted as documented on the type; derived
    /// from the labels on first call.
    pub fn groups(&self) -> &[Vec<usize>] {
        self.groups.get_or_init(|| {
            let mut groups = vec![Vec::new(); self.len];
            for (account, &k) in self.labels.iter().enumerate() {
                groups[k].push(account);
            }
            groups
        })
    }

    /// The group index of an account.
    ///
    /// # Panics
    ///
    /// Panics if `account` is out of range.
    pub fn group_of(&self, account: usize) -> usize {
        self.labels[account]
    }

    /// Per-account group labels (dense, `0..len()`).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }
}

/// An account grouping method (`AG(D, F)` in Algorithm 2).
///
/// Implementations receive the full report matrix and the per-account
/// device fingerprints; each method uses the part it needs (AG-FP only the
/// fingerprints, AG-TS/AG-TR only the reports).
pub trait AccountGrouping {
    /// Partitions the accounts of `data`.
    ///
    /// `fingerprints` holds one feature vector per account (may be empty
    /// for methods that do not use fingerprints). Implementations must
    /// return a partition of `0..data.num_accounts()`.
    fn group(&self, data: &SensingData, fingerprints: &[Vec<f64>]) -> Grouping;

    /// Short name for result tables (e.g. `"AG-FP"`).
    fn name(&self) -> &'static str;

    /// This method's pairwise-edge view, if it has one. The epoch engine
    /// re-groups incrementally through it and falls back to a
    /// from-scratch [`Self::group`] when it is `None` (the default).
    fn as_edge_grouping(&self) -> Option<&dyn EdgeGrouping> {
        None
    }
}

impl<T: AccountGrouping + ?Sized> AccountGrouping for Box<T> {
    fn group(&self, data: &SensingData, fingerprints: &[Vec<f64>]) -> Grouping {
        (**self).group(data, fingerprints)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn as_edge_grouping(&self) -> Option<&dyn EdgeGrouping> {
        (**self).as_edge_grouping()
    }
}

/// A grouping method whose decision reduces to a set of pairwise
/// "same-owner" edges over the accounts, with each edge's validity
/// depending only on the two endpoint accounts' own data (and the
/// method's constants) — never on third accounts.
///
/// That locality is what makes incremental re-grouping sound: when an
/// epoch folds new reports into some accounts, every edge between two
/// *untouched* accounts is still exactly as valid as before, so
/// `srtd_platform::EpochEngine` can keep those edges and re-examine only
/// pairs touching a dirty account (through one [`Self::edge_index`] kept
/// for the whole campaign, so finding them costs in proportion to the
/// dirty accounts, not the campaign),
/// merging the result through a persistent union-find instead of
/// rebuilding components from scratch.
///
/// Contract: for any `data`, [`AccountGrouping::group`] must equal the
/// connected components of `decision_edges(data, None)` over
/// `0..data.num_accounts()` (isolated accounts become singletons), and
/// [`AccountGrouping::as_edge_grouping`] must return `Some(self)` so the
/// engine finds the edge view.
pub trait EdgeGrouping: AccountGrouping {
    /// A new, empty index of this method's decision edges. It owns a copy
    /// of the method's constants, so it outlives `self`.
    fn edge_index(&self) -> Box<dyn EdgeIndex + Send>;

    /// The decision edges of this method on `data`: a fresh
    /// [`Self::edge_index`], updated once.
    ///
    /// With `dirty: Some(mask)` (one flag per account) only edges touching
    /// at least one dirty account are returned; edges between two clean
    /// accounts are exactly the ones the caller may carry over from the
    /// previous epoch. `None` returns every decision edge.
    fn decision_edges(&self, data: &SensingData, dirty: Option<&[bool]>) -> Vec<(usize, usize)> {
        let dirty = blocking::dirty_mask(data.num_accounts(), dirty);
        self.edge_index().update(data, &dirty)
    }
}

/// One campaign's decision edges, kept current across epochs by an
/// [`EdgeGrouping`] method.
///
/// Contract for [`Self::update`]: `data` is the campaign the previous
/// updates saw, grown by new accounts and new reports, and `dirty` (one
/// flag per account of `data`) flags every account whose reports changed
/// since the previous update (it may flag others too). The index re-keys
/// every flagged account and every account it has not seen, and returns
/// exactly the decision edges on `data` with at least one flagged
/// endpoint — sorted, each once, as `(i, j)` with `i < j`. Edges between
/// two unflagged accounts are not returned: they are the caller's to keep.
/// A fresh index has seen no account, so its first update keys the whole
/// campaign and returns the edges touching the flagged accounts.
pub trait EdgeIndex: std::fmt::Debug {
    /// Re-keys the dirty and unseen accounts and returns the decision
    /// edges with a dirty endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `dirty.len() != data.num_accounts()`.
    fn update(&mut self, data: &SensingData, dirty: &[bool]) -> Vec<(usize, usize)>;
}

/// The distinct accounts `pairs` reference, ascending, and `pairs`
/// rewritten as positions in that list (order kept) — so per-account work
/// such as trajectories or task sets is built only for those accounts.
/// `n` bounds the account indices.
pub(crate) fn referenced(n: usize, pairs: &[(usize, usize)]) -> (Vec<usize>, Vec<(usize, usize)>) {
    if pairs.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let mut used = vec![false; n];
    for &(i, j) in pairs {
        used[i] = true;
        used[j] = true;
    }
    let accounts: Vec<usize> = (0..n).filter(|&a| used[a]).collect();
    let mut position = vec![0usize; n];
    for (k, &a) in accounts.iter().enumerate() {
        position[a] = k;
    }
    let local = pairs
        .iter()
        .map(|&(i, j)| (position[i], position[j]))
        .collect();
    (accounts, local)
}

/// The no-defense baseline: every account is its own group, reducing the
/// framework to plain account-level truth discovery. Unlike
/// [`PerfectGrouping`] it has no fixed label set, so it adapts as accounts
/// join a campaign mid-stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingletonGrouping;

impl AccountGrouping for SingletonGrouping {
    fn group(&self, data: &SensingData, _fingerprints: &[Vec<f64>]) -> Grouping {
        Grouping::singletons(data.num_accounts())
    }

    fn name(&self) -> &'static str {
        "Singletons"
    }

    fn as_edge_grouping(&self) -> Option<&dyn EdgeGrouping> {
        Some(self)
    }
}

impl EdgeGrouping for SingletonGrouping {
    /// No edges, ever: the connected components of the empty edge set are
    /// exactly the singletons [`AccountGrouping::group`] returns, so the
    /// no-defense baseline rides the incremental epoch path for free.
    fn edge_index(&self) -> Box<dyn EdgeIndex + Send> {
        Box::new(NoEdges)
    }
}

/// [`SingletonGrouping`]'s index: empty, and every update returns nothing.
#[derive(Debug)]
struct NoEdges;

impl EdgeIndex for NoEdges {
    fn update(&mut self, _data: &SensingData, _dirty: &[bool]) -> Vec<(usize, usize)> {
        Vec::new()
    }
}

/// An oracle grouping that returns a fixed partition — used to evaluate
/// the framework's ceiling (perfect grouping) and as a test double.
#[derive(Debug, Clone)]
pub struct PerfectGrouping {
    labels: Vec<usize>,
}

impl PerfectGrouping {
    /// Creates the oracle from true owner labels.
    pub fn new(labels: Vec<usize>) -> Self {
        Self { labels }
    }
}

impl AccountGrouping for PerfectGrouping {
    fn group(&self, data: &SensingData, _fingerprints: &[Vec<f64>]) -> Grouping {
        assert_eq!(
            self.labels.len(),
            data.num_accounts(),
            "oracle labels must cover every account"
        );
        Grouping::from_labels(&self.labels)
    }

    fn name(&self) -> &'static str {
        "Oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_labels_compacts_arbitrary_ids() {
        let g = Grouping::from_labels(&[7, 7, 3, 9]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.groups(), &[vec![0, 1], vec![2], vec![3]]);
        assert_eq!(g.group_of(1), 0);
    }

    #[test]
    fn forest_labels_match_the_forests_member_lists() {
        use srtd_runtime::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..200 {
            let mut uf = UnionFind::new(rng.gen_range(0..40usize));
            for _ in 0..rng.gen_range(0..60usize) {
                if rng.gen_bool(0.1) {
                    let grown = uf.len() + rng.gen_range(0..8usize);
                    uf.grow(grown);
                } else if !uf.is_empty() {
                    let (a, b) = (rng.gen_range(0..uf.len()), rng.gen_range(0..uf.len()));
                    uf.union(a, b);
                }
                let from_lists = Grouping::new(uf.groups());
                let from_forest = Grouping::from_forest(&mut uf);
                assert_eq!(from_forest.labels(), from_lists.labels(), "case {case}");
                assert_eq!(from_forest.len(), from_lists.len(), "case {case}");
                assert_eq!(from_forest.groups(), from_lists.groups(), "case {case}");
                let relabeled = Grouping::from_labels(from_lists.labels());
                assert_eq!(relabeled.groups(), from_lists.groups(), "case {case}");
            }
        }
    }

    #[test]
    fn singletons_cover_everyone() {
        let g = Grouping::singletons(4);
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_accounts(), 4);
    }

    #[test]
    fn groups_sorted_by_smallest_member() {
        let g = Grouping::new(vec![vec![3, 1], vec![2, 0]]);
        assert_eq!(g.groups(), &[vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn empty_grouping() {
        let g = Grouping::from_labels(&[]);
        assert!(g.is_empty());
        assert_eq!(g.num_accounts(), 0);
    }

    #[test]
    #[should_panic(expected = "more than one group")]
    fn overlapping_groups_rejected() {
        Grouping::new(vec![vec![0, 1], vec![1]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gap_in_partition_rejected() {
        // Accounts {0, 2}: 2 is out of range for n = 2.
        Grouping::new(vec![vec![0], vec![2]]);
    }

    #[test]
    fn edge_views_survive_boxing() {
        let methods: Vec<Box<dyn AccountGrouping>> = vec![
            Box::new(AgTr::default()),
            Box::new(AgTs::default()),
            Box::new(SingletonGrouping),
            Box::new(PerfectGrouping::new(vec![])),
        ];
        let views: Vec<Option<&str>> = methods
            .iter()
            .map(|m| m.as_edge_grouping().map(AccountGrouping::name))
            .collect();
        assert_eq!(
            views,
            [Some("AG-TR"), Some("AG-TS"), Some("Singletons"), None]
        );
    }

    #[test]
    fn oracle_returns_given_partition() {
        let mut data = SensingData::new(1);
        data.add_report(0, 0, 1.0, 0.0);
        data.add_report(1, 0, 2.0, 0.0);
        data.add_report(2, 0, 3.0, 0.0);
        let oracle = PerfectGrouping::new(vec![0, 0, 1]);
        let g = oracle.group(&data, &[]);
        assert_eq!(g.groups(), &[vec![0, 1], vec![2]]);
        assert_eq!(oracle.name(), "Oracle");
    }
}
