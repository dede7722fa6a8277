//! Disjoint-set forest (union-find) with path halving and union by size.

/// A disjoint-set forest over elements `0..n`.
///
/// The one connected-components algorithm of the workspace: the grouping
/// methods union their decision edges into a fresh forest, the epoch
/// engine keeps one alive across epochs (growing it as accounts arrive),
/// and combined grouping merges several methods' partitions through it.
///
/// # Examples
///
/// ```
/// use srtd_graph::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(!uf.union(1, 0)); // already joined
/// assert!(uf.connected(0, 1));
/// assert_eq!(uf.set_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
    sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            size: vec![1; n],
            sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Representative of the set containing `x`, with path halving.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of bounds.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets containing `a` and `b`.
    ///
    /// Returns `true` if a merge happened (they were previously disjoint).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of bounds.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        self.sets -= 1;
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of bounds.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of bounds.
    pub fn set_size(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r]
    }

    /// Grows the universe to `n` elements, adding `n − len()` fresh
    /// singleton sets. A no-op when `n ≤ len()` — existing sets are never
    /// disturbed, which is what lets an epoch engine keep one forest
    /// alive while accounts keep arriving.
    pub fn grow(&mut self, n: usize) {
        for x in self.parent.len()..n {
            self.parent.push(x);
            self.size.push(1);
            self.sets += 1;
        }
    }

    /// Canonical set labels in one pass: `labels[x]` is the position of
    /// `x`'s set when the sets are ordered by smallest member, the order
    /// [`UnionFind::groups`] lists them in. Scanning `0..n` upwards, the
    /// first element seen of each root is its set's smallest member, so
    /// labels are handed out in that order; they run over
    /// `0..set_count()`.
    pub fn labels(&mut self) -> Vec<usize> {
        let mut label_of_root = vec![usize::MAX; self.parent.len()];
        let mut next = 0;
        (0..self.parent.len())
            .map(|x| {
                let root = self.find(x);
                if label_of_root[root] == usize::MAX {
                    label_of_root[root] = next;
                    next += 1;
                }
                label_of_root[root]
            })
            .collect()
    }

    /// The sets as sorted member lists, ordered by smallest member — the
    /// same canonical form as [`UnionFind::into_groups`], without
    /// consuming the forest (it keeps accepting unions afterwards).
    pub fn groups(&mut self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.sets];
        for (x, label) in self.labels().into_iter().enumerate() {
            groups[label].push(x);
        }
        groups
    }

    /// Extracts the sets as sorted member lists, ordered by smallest member.
    pub fn into_groups(mut self) -> Vec<Vec<usize>> {
        self.groups()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_runtime::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn fresh_sets_are_disjoint() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.set_count(), 3);
        assert!(!uf.connected(0, 2));
        assert_eq!(uf.set_size(1), 1);
    }

    #[test]
    fn union_is_transitive() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(1, 2);
        assert!(uf.connected(0, 2));
        assert_eq!(uf.set_size(2), 3);
        assert_eq!(uf.set_count(), 2);
    }

    #[test]
    fn redundant_union_returns_false() {
        let mut uf = UnionFind::new(2);
        assert!(uf.union(0, 1));
        assert!(!uf.union(0, 1));
        assert_eq!(uf.set_count(), 1);
    }

    #[test]
    fn into_groups_sorted_by_smallest_member() {
        let mut uf = UnionFind::new(5);
        uf.union(3, 4);
        uf.union(1, 2);
        let groups = uf.into_groups();
        assert_eq!(groups, vec![vec![0], vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn empty_union_find() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.into_groups(), Vec::<Vec<usize>>::new());
    }

    #[test]
    fn grow_adds_singletons_without_disturbing_sets() {
        let mut uf = UnionFind::new(2);
        uf.union(0, 1);
        uf.grow(4);
        assert_eq!(uf.len(), 4);
        assert_eq!(uf.set_count(), 3);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
        uf.grow(3); // shrinking request is a no-op
        assert_eq!(uf.len(), 4);
        uf.union(2, 3);
        assert_eq!(uf.groups(), vec![vec![0, 1], vec![2, 3]]);
    }

    /// The member lists [`UnionFind::groups`] would build, taken
    /// independently: bucket by root, drop the empty buckets, sort by
    /// smallest member.
    fn groups_by_root(uf: &mut UnionFind) -> Vec<Vec<usize>> {
        let n = uf.len();
        let mut by_root = vec![Vec::new(); n];
        for x in 0..n {
            let root = uf.find(x);
            by_root[root].push(x);
        }
        let mut groups: Vec<Vec<usize>> = by_root.into_iter().filter(|g| !g.is_empty()).collect();
        groups.sort_by_key(|g| g[0]);
        groups
    }

    #[test]
    fn labels_are_the_positions_of_the_sorted_groups() {
        let mut rng = StdRng::seed_from_u64(41);
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
                let groups = groups_by_root(&mut uf);
                let mut want = vec![usize::MAX; uf.len()];
                for (k, group) in groups.iter().enumerate() {
                    for &x in group {
                        want[x] = k;
                    }
                }
                assert_eq!(uf.labels(), want, "case {case}");
                assert_eq!(uf.groups(), groups, "case {case}");
                assert_eq!(uf.set_count(), groups.len(), "case {case}");
            }
        }
    }

    /// Two elements share a set exactly when one reaches the other over
    /// the unioned edges, as a breadth-first search over the same edges
    /// finds it.
    #[test]
    fn sets_are_the_reachability_classes_of_the_edges() {
        srtd_runtime::prop::check(
            |rng| {
                let n = rng.gen_range(1usize..40);
                let edges = srtd_runtime::prop::vec_with(rng, 0..120, |r| {
                    (r.gen_range(0..n), r.gen_range(0..n))
                });
                (n, edges)
            },
            |(n, edges)| {
                let n = *n;
                let mut uf = UnionFind::new(n);
                let mut adjacent = vec![Vec::new(); n];
                for &(u, v) in edges {
                    uf.union(u, v);
                    adjacent[u].push(v);
                    adjacent[v].push(u);
                }
                let mut classes = 0;
                for start in 0..n {
                    let mut reached = vec![false; n];
                    reached[start] = true;
                    let mut queue = std::collections::VecDeque::from([start]);
                    while let Some(u) = queue.pop_front() {
                        for &v in &adjacent[u] {
                            if !reached[v] {
                                reached[v] = true;
                                queue.push_back(v);
                            }
                        }
                    }
                    // A class is counted at its smallest member.
                    classes += usize::from(reached[..start].iter().all(|&r| !r));
                    for (v, &r) in reached.iter().enumerate() {
                        srtd_runtime::prop_assert_eq!(uf.connected(start, v), r);
                    }
                }
                srtd_runtime::prop_assert_eq!(uf.set_count(), classes);
                Ok(())
            },
        );
    }

    #[test]
    fn groups_does_not_consume_the_forest() {
        let mut uf = UnionFind::new(3);
        uf.union(0, 2);
        assert_eq!(uf.groups(), vec![vec![0, 2], vec![1]]);
        uf.union(1, 2);
        assert_eq!(uf.groups(), vec![vec![0, 1, 2]]);
    }
}
