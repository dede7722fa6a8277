//! Combining account grouping methods (the paper's stated future work).
//!
//! §IV-C: the three grouping methods are "used independently in the
//! framework. We leave the combination of them for our future work." This
//! module implements the two lattice-natural combinations of partitions:
//!
//! * **join** (union of evidence): two accounts share a group if *any*
//!   constituent method groups them — the transitive closure of the union
//!   of all within-group relations. AG-FP catches Attack-I and AG-TR
//!   catches Attack-II, so their join defends both at once at the cost of
//!   accumulating every method's false positives.
//! * **meet** (intersection of evidence): two accounts share a group only
//!   if *every* method groups them — the intersection of equivalence
//!   classes. False positives must be unanimous to survive, at the cost of
//!   splitting groups any single method misses.

use crate::grouping::{AccountGrouping, Grouping};
use srtd_graph::UnionFind;
use srtd_truth::SensingData;

/// How constituent groupings are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineMode {
    /// Transitive closure of the union of within-group relations.
    Join,
    /// Intersection of equivalence classes.
    Meet,
}

/// A grouping method that combines several others.
///
/// # Examples
///
/// ```
/// use srtd_core::{AccountGrouping, AgTr, AgTs, CombineMode, CombinedGrouping};
/// use srtd_truth::SensingData;
///
/// let combined = CombinedGrouping::new(
///     vec![Box::new(AgTs::default()), Box::new(AgTr::default())],
///     CombineMode::Meet,
/// );
/// let mut data = SensingData::new(2);
/// data.add_report(0, 0, 1.0, 10.0);
/// data.add_report(0, 1, 2.0, 500.0);
/// data.add_report(1, 0, 1.1, 30.0);
/// data.add_report(1, 1, 2.1, 520.0);
/// let grouping = combined.group(&data, &[]);
/// assert_eq!(grouping.num_accounts(), 2);
/// ```
pub struct CombinedGrouping {
    methods: Vec<Box<dyn AccountGrouping + Send + Sync>>,
    mode: CombineMode,
}

impl std::fmt::Debug for CombinedGrouping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CombinedGrouping")
            .field("mode", &self.mode)
            .field(
                "methods",
                &self.methods.iter().map(|m| m.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl CombinedGrouping {
    /// Combines `methods` under `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `methods` is empty.
    pub fn new(methods: Vec<Box<dyn AccountGrouping + Send + Sync>>, mode: CombineMode) -> Self {
        assert!(!methods.is_empty(), "combine at least one grouping method");
        Self { methods, mode }
    }

    /// The combination mode.
    pub fn mode(&self) -> CombineMode {
        self.mode
    }

    /// Merges precomputed groupings under `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `groupings` is empty or they cover different account
    /// counts.
    pub fn combine(groupings: &[Grouping], mode: CombineMode) -> Grouping {
        assert!(!groupings.is_empty(), "combine at least one grouping");
        let n = groupings[0].num_accounts();
        assert!(
            groupings.iter().all(|g| g.num_accounts() == n),
            "groupings must cover the same accounts"
        );
        match mode {
            CombineMode::Join => {
                let mut uf = UnionFind::new(n);
                for g in groupings {
                    for group in g.groups() {
                        for w in group.windows(2) {
                            uf.union(w[0], w[1]);
                        }
                    }
                }
                Grouping::from_forest(&mut uf)
            }
            CombineMode::Meet => {
                // Two accounts stay together iff their label tuple matches
                // in every grouping.
                let mut keys: std::collections::HashMap<Vec<usize>, usize> =
                    std::collections::HashMap::new();
                let mut labels = Vec::with_capacity(n);
                for a in 0..n {
                    let key: Vec<usize> = groupings.iter().map(|g| g.group_of(a)).collect();
                    let next = keys.len();
                    labels.push(*keys.entry(key).or_insert(next));
                }
                Grouping::from_labels(&labels)
            }
        }
    }
}

impl AccountGrouping for CombinedGrouping {
    fn group(&self, data: &SensingData, fingerprints: &[Vec<f64>]) -> Grouping {
        let groupings: Vec<Grouping> = self
            .methods
            .iter()
            .map(|m| m.group(data, fingerprints))
            .collect();
        Self::combine(&groupings, self.mode)
    }

    fn name(&self) -> &'static str {
        match self.mode {
            CombineMode::Join => "AG-JOIN",
            CombineMode::Meet => "AG-MEET",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(labels: &[usize]) -> Grouping {
        Grouping::from_labels(labels)
    }

    #[test]
    fn join_takes_transitive_closure() {
        // {0,1},{2,3} joined with {1,2},{0},{3} connects everything.
        let a = g(&[0, 0, 1, 1]);
        let b = g(&[0, 1, 1, 2]);
        let joined = CombinedGrouping::combine(&[a, b], CombineMode::Join);
        assert_eq!(joined.len(), 1);
    }

    #[test]
    fn meet_requires_unanimity() {
        let a = g(&[0, 0, 1, 1]);
        let b = g(&[0, 1, 1, 1]);
        let met = CombinedGrouping::combine(&[a, b], CombineMode::Meet);
        // Pairs kept: (2,3) only — both groupings agree.
        assert_eq!(met.group_of(2), met.group_of(3));
        assert_ne!(met.group_of(0), met.group_of(1));
        assert_eq!(met.len(), 3);
    }

    #[test]
    fn meet_refines_join() {
        let a = g(&[0, 0, 1, 1, 2]);
        let b = g(&[0, 1, 1, 1, 2]);
        let met = CombinedGrouping::combine(&[a.clone(), b.clone()], CombineMode::Meet);
        let joined = CombinedGrouping::combine(&[a, b], CombineMode::Join);
        // Every meet-group is inside one join-group.
        for group in met.groups() {
            let j = joined.group_of(group[0]);
            assert!(group.iter().all(|&x| joined.group_of(x) == j));
        }
        assert!(met.len() >= joined.len());
    }

    #[test]
    fn combining_with_itself_is_identity() {
        let a = g(&[0, 1, 0, 2, 1]);
        for mode in [CombineMode::Join, CombineMode::Meet] {
            let c = CombinedGrouping::combine(&[a.clone(), a.clone()], mode);
            assert_eq!(c.labels(), a.labels(), "{mode:?}");
        }
    }

    #[test]
    fn singleton_inputs_stay_singletons() {
        let a = g(&[0, 1, 2]);
        let b = g(&[0, 1, 2]);
        let c = CombinedGrouping::combine(&[a, b], CombineMode::Join);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn empty_groupings_combine_to_empty() {
        let c = CombinedGrouping::combine(&[g(&[]), g(&[])], CombineMode::Meet);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "same accounts")]
    fn mismatched_sizes_panic() {
        CombinedGrouping::combine(&[g(&[0]), g(&[0, 1])], CombineMode::Join);
    }

    #[test]
    #[should_panic(expected = "at least one grouping")]
    fn empty_input_panics() {
        CombinedGrouping::combine(&[], CombineMode::Join);
    }

    #[test]
    fn end_to_end_join_catches_both_attack_types() {
        use crate::grouping::{AgTr, PerfectGrouping};
        // Accounts 0,1 honest; 2,3 same walk (caught by TR); 4,5 share a
        // "device" (simulate with an oracle standing in for AG-FP).
        let mut d = SensingData::new(3);
        for (acct, start) in [(0usize, 0.0), (1, 9_000.0)] {
            d.add_report(acct, 0, -80.0, start + 10.0);
            d.add_report(acct, 1, -70.0, start + 400.0);
            d.add_report(acct, 2, -75.0, start + 900.0);
        }
        for (acct, off) in [(2usize, 0.0), (3, 40.0)] {
            d.add_report(acct, 0, -50.0, 3_000.0 + off);
            d.add_report(acct, 1, -50.0, 3_500.0 + off);
        }
        // Accounts 4 and 5: different walks (TR cannot catch them)...
        d.add_report(4, 1, -50.0, 15_000.0);
        d.add_report(4, 2, -50.0, 15_600.0);
        d.add_report(5, 0, -50.0, 22_000.0);
        d.add_report(5, 2, -50.0, 23_000.0);
        // ...but a fingerprint oracle (AG-FP stand-in) pairs them.
        let fp_like = PerfectGrouping::new(vec![0, 1, 2, 3, 4, 4]);
        let combined = CombinedGrouping::new(
            vec![Box::new(fp_like), Box::new(AgTr::default())],
            CombineMode::Join,
        );
        let grouping = combined.group(&d, &[]);
        assert_eq!(grouping.group_of(2), grouping.group_of(3), "TR evidence");
        assert_eq!(grouping.group_of(4), grouping.group_of(5), "FP evidence");
        assert_ne!(grouping.group_of(0), grouping.group_of(2));
        assert_ne!(grouping.group_of(0), grouping.group_of(1));
    }
}
