//! Blocking / candidate generation for the pairwise grouping signals.
//!
//! AG-TS and AG-TR end in the same shape: a pairwise score is
//! thresholded and the surviving pairs become edges of a components
//! problem. Visiting all `n(n−1)/2` pairs is what makes the signals
//! quadratic in accounts; this module buckets accounts by cheap
//! invariants so only *same-or-adjacent-bucket* pairs ever reach a score
//! computation, while provably generating a **superset** of the pairs the
//! threshold would keep — blocking can only skip pairs an all-pairs scan
//! would also reject, so grouping decisions stay bit-identical.
//!
//! Bucket keys per signal:
//!
//! * **AG-TS** ([`prefix_keys`]) — a two-level prefix filter over
//!   globally-rare tasks. Eq. 6's affinity `A = (T − 2L)(T + L)/m` can
//!   only exceed a non-negative `ρ` when `T > 2L`, which forces the
//!   Jaccard overlap of the two task sets above 2/3; in particular any
//!   qualifying pair shares strictly more than `2a/3` tasks, where `a` is
//!   either set's size. The k-prefix theorem then guarantees **two**
//!   shared tasks inside each set's `⌈a/3⌉+1`-element rarity prefix, so
//!   accounts are indexed under unordered *pairs* of prefix tasks (the
//!   blocking second key) instead of single tasks — a bucket only forms
//!   when two accounts agree on two rare tasks at once, which happens
//!   orders of magnitude less often than agreeing on one. A length-ratio
//!   filter (`3·min(a,b) > 2·max(a,b)`, forced by `T ≤ min` and
//!   `T > 2·max/3`) prunes the emitted pairs further ([`prefix_pairs`]).
//!   Both levels are deterministic prefix filtering from the
//!   set-similarity-join literature (no MinHash false negatives).
//! * **AG-TR** ([`endpoint_cell`]) — quantized trajectory endpoints, a
//!   coarsening of LB_Kim. The first-first and last-last alignments lie on
//!   every DTW warping path, so each squared endpoint difference is itself
//!   a lower bound on the pair's raw DTW cost; `D < φ` forces every
//!   endpoint coordinate within `√φ`. Accounts hash to the 4-D cell of
//!   their `(X_first, X_last, Y_first, Y_last)` endpoints at cell width
//!   `√φ`, and candidates are same-cell plus adjacent-cell pairs
//!   ([`cell_pairs`]; a ≥ 2 cell gap on any axis already proves `D ≥ φ`).
//!   Inactive accounts have no endpoints and stay out of every bucket, so
//!   they stay singletons.
//! * **AG-FP** — the fingerprint signal is centroid-based, not pairwise;
//!   its blocking lives in `srtd-cluster` as a norm-sketch bound on the
//!   k-means assignment step. The counters recorded here keep the three
//!   signals comparable under one `grouping.pairs.*` scheme.
//!
//! Both blocked signals file accounts in one structure, [`KeyRuns`]:
//! `(key, account)` entries kept sorted, so a bucket is one contiguous run
//! and re-keying a few accounts is one merge pass. It backs the persistent
//! indexes AG-TS and AG-TR hand the epoch engine
//! (`EdgeGrouping::edge_index`); `group()` is a fresh index keyed once.
//! With few dirty accounts the generator probes only their own buckets;
//! with many it sweeps every bucket once. Both enumerate the same pairs.

use srtd_runtime::obs;
use std::borrow::Cow;

/// Shared recording of the blocking counters: `total` pairs an all-pairs
/// scan would visit, of which `candidate` were actually scored; the
/// remainder were skipped by blocking. Also sets the bucket gauges.
pub(crate) fn record_pair_counts(signal: &str, total: u64, candidate: u64, buckets: u64) {
    let skipped = total.saturating_sub(candidate);
    obs::counter_add("grouping.pairs.total", total);
    obs::counter_add("grouping.pairs.candidate", candidate);
    obs::counter_add("grouping.pairs.skipped_by_blocking", skipped);
    obs::counter_add(&format!("grouping.{signal}.pairs.total"), total);
    obs::counter_add(&format!("grouping.{signal}.pairs.candidate"), candidate);
    obs::counter_add(
        &format!("grouping.{signal}.pairs.skipped_by_blocking"),
        skipped,
    );
    obs::gauge_set("grouping.buckets", buckets as f64);
    obs::gauge_set(&format!("grouping.{signal}.buckets"), buckets as f64);
}

/// Unordered pairs over `n` accounts that touch at least one dirty
/// account; `n(n−1)/2` when no mask is given.
pub(crate) fn total_pairs(n: usize, dirty: Option<&[bool]>) -> u64 {
    let n = n as u64;
    let all = n * n.saturating_sub(1) / 2;
    match dirty {
        None => all,
        Some(mask) => {
            let clean = mask.iter().filter(|&&d| !d).count() as u64;
            all - clean * clean.saturating_sub(1) / 2
        }
    }
}

/// `dirty`, or every account dirty when it is `None`.
///
/// # Panics
///
/// Panics if the mask does not have one flag per account.
pub(crate) fn dirty_mask(n: usize, dirty: Option<&[bool]>) -> Cow<'_, [bool]> {
    match dirty {
        Some(mask) => {
            assert_eq!(mask.len(), n, "dirty mask must cover every account");
            Cow::Borrowed(mask)
        }
        None => Cow::Owned(vec![true; n]),
    }
}

/// Accounts filed under their blocking keys: `(key, account)` entries
/// sorted by key, then account. A bucket (every account under one key) is
/// one contiguous run, and a range of adjacent keys is one binary search
/// away. Accounts `0..seen` have been filed; re-filing a batch of accounts
/// costs one pass over the entries, however many accounts move.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyRuns<K> {
    entries: Vec<(K, u32)>,
    buckets: usize,
    seen: usize,
}

impl<K: Ord + Copy> KeyRuns<K> {
    /// Re-files every account that is dirty or not yet filed under the
    /// keys `keys_of(account, out)` appends, and returns the dirty
    /// accounts' entries: the probes that find their candidates.
    pub(crate) fn refile(
        &mut self,
        dirty: &[bool],
        mut keys_of: impl FnMut(usize, &mut Vec<K>),
    ) -> Vec<(K, u32)> {
        assert!(dirty.len() >= self.seen, "accounts never leave a campaign");
        let (mut added, mut probes, mut keys) = (Vec::new(), Vec::new(), Vec::new());
        let mut moved = false;
        for (account, &is_dirty) in dirty.iter().enumerate() {
            let filed = account < self.seen;
            if filed && !is_dirty {
                continue;
            }
            moved |= filed;
            keys.clear();
            keys_of(account, &mut keys);
            let id = u32::try_from(account).expect("account index fits in u32");
            added.extend(keys.iter().map(|&k| (k, id)));
            if is_dirty {
                probes.extend(keys.iter().map(|&k| (k, id)));
            }
        }
        self.seen = dirty.len();
        if moved {
            self.entries.retain(|&(_, a)| !dirty[a as usize]);
        }
        if moved || !added.is_empty() {
            self.merge(added);
        }
        probes
    }

    /// Merges `added` into the sorted entries from the back, so each old
    /// entry moves at most once.
    fn merge(&mut self, mut added: Vec<(K, u32)>) {
        added.sort_unstable();
        let mut old = self.entries.len();
        self.entries.extend_from_slice(&added);
        let mut slot = self.entries.len();
        for &entry in added.iter().rev() {
            while old > 0 && self.entries[old - 1] > entry {
                old -= 1;
                slot -= 1;
                self.entries[slot] = self.entries[old];
            }
            slot -= 1;
            self.entries[slot] = entry;
        }
        self.buckets = self.runs().count();
    }

    /// The entries whose key lies in `lo..=hi`.
    fn range(&self, lo: K, hi: K) -> &[(K, u32)] {
        let start = self.entries.partition_point(|e| e.0 < lo);
        let len = self.entries[start..].partition_point(|e| e.0 <= hi);
        &self.entries[start..start + len]
    }

    /// The buckets in key order.
    fn runs(&self) -> impl Iterator<Item = &[(K, u32)]> {
        self.entries.chunk_by(|a, b| a.0 == b.0)
    }

    /// Distinct keys held.
    pub(crate) fn buckets(&self) -> usize {
        self.buckets
    }

    /// Whether probing `probes` entries one binary search each beats one
    /// sweep over every entry (a factor-of-two estimate is enough: both
    /// routes enumerate the same pairs).
    fn probe_is_cheaper(&self, probes: usize) -> bool {
        probes.saturating_mul(32) < self.entries.len()
    }
}

/// An AG-TS blocking key: two prefix tasks of one account, the one ranked
/// rarer first (`(t, t)` for a one-task set).
pub(crate) type PairKey = (u32, u32);

/// Ranks tasks rarest first, ties by task id: `rank[t]` is task `t`'s
/// place in the order, `freq[t]` its report count.
pub(crate) fn rarity_rank(freq: &[u32]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..freq.len()).collect();
    order.sort_by_key(|&t| (freq[t], t));
    let mut rank = vec![0u32; freq.len()];
    for (r, &t) in order.iter().enumerate() {
        rank[t] = u32::try_from(r).expect("task index fits in u32");
    }
    rank
}

/// Appends the pair keys of the task set `tasks` under `rank`: every
/// unordered pair of its `min(⌈a/3⌉ + 1, a)` lowest-ranked tasks, rarer
/// task first, so the same two tasks form the same key in every account;
/// `(t, t)` for a one-task set; nothing for an empty one. Sorts `tasks`
/// by rank in place.
///
/// Two accounts whose Eq. 6 affinity exceeds any `ρ ≥ 0` share a key
/// (AG-TS therefore requires `ρ ≥ 0`):
///
/// **Overlap bound.** Write `a = |S_i|`, `b = |S_j|`,
/// `T = |S_i ∩ S_j|`, `L = a + b − 2T`. `A > ρ ≥ 0` needs `T − 2L > 0`
/// (the factor `(T + L)/m` is non-negative), i.e. `5T > 2(a + b)`.
/// Combined with `T ≤ min(a, b)` this gives `T > 2a/3` *and*
/// `T > 2b/3`: if `b ≥ a` then `T > 2(a+b)/5 ≥ 4a/5 > 2a/3`; if `b < a`
/// then `b ≥ T > 2(a+b)/5` forces `b > 2a/3` and so
/// `T > 2(a + 2a/3)/5 = 2a/3`. So qualifying pairs have integer overlap
/// `T ≥ ⌊2a/3⌋ + 1` (and symmetrically for `b`).
///
/// **Pair-key soundness (k-prefix theorem, k = 2).** Fix any global
/// total order on tasks and sort each set by it; let `c_1 < c_2 < …`
/// be the common tasks of a qualifying pair in that order. In `S_i`,
/// the tasks ranked after `c_2` include the `T − 2` common tasks
/// `c_3, …, c_T`, so `c_2` sits at position `≤ a − (T − 2) = a − T + 2`
/// — with `T ≥ ⌊2a/3⌋ + 1` that is `≤ ⌈a/3⌉ + 1`. Hence `c_1` and `c_2`
/// *both* lie in the `min(⌈a/3⌉ + 1, a)`-element prefix of `S_i`, and
/// symmetrically in `S_j`'s prefix: the two accounts share the unordered
/// key `{c_1, c_2}`. Indexing each account under all `C(p, 2)` task
/// pairs of its `p`-element rarity prefix therefore co-buckets every
/// qualifying pair with `a, b ≥ 2` (note `a ≥ 2 ⟹ T ≥ 2`, so `c_2`
/// exists). A qualifying pair with `a = 1` forces `T = 1` and then
/// `b < 3T/2` ⟹ `b = 1` — identical singletons — which bucket under the
/// degenerate key `(t, t)`. Ordering tasks by ascending global frequency
/// ([`rarity_rank`]) keeps the pair buckets tiny: two accounts must now
/// agree on two rare tasks at once, which on campaign-scale workloads
/// cuts candidates by orders of magnitude compared to the single-task
/// prefix filter. The proof holds for *any* fixed order, which is what
/// lets AG-TS's persistent index keep an order frozen while the
/// frequencies drift.
pub(crate) fn prefix_keys(tasks: &mut [usize], rank: &[u32], out: &mut Vec<PairKey>) {
    let task = |t: usize| u32::try_from(t).expect("task index fits in u32");
    tasks.sort_unstable_by_key(|&t| rank[t]);
    let prefix = (tasks.len().div_ceil(3) + 1).min(tasks.len());
    match tasks {
        [] => {}
        [t] => out.push((task(*t), task(*t))),
        _ => {
            for (u, &first) in tasks[..prefix].iter().enumerate() {
                for &second in &tasks[u + 1..prefix] {
                    out.push((task(first), task(second)));
                }
            }
        }
    }
}

/// The AG-TS candidates with a dirty endpoint: accounts sharing a pair key
/// whose set sizes (`size(account)`) pass the length-ratio filter.
/// `probes` are the dirty accounts' entries (see [`KeyRuns::refile`]).
///
/// **Length-ratio filter.** `T ≤ min(a, b)` and `T > 2·max(a, b)/3`
/// (see [`prefix_keys`]) force `3·min(a, b) > 2·max(a, b)`; bucket
/// members failing this can never qualify and are not emitted.
pub(crate) fn prefix_pairs(
    keys: &KeyRuns<PairKey>,
    probes: &[(PairKey, u32)],
    dirty: &[bool],
    size: impl Fn(usize) -> usize,
) -> Vec<(usize, usize)> {
    let fits = |i: usize, j: usize| {
        let (a, b) = (size(i), size(j));
        3 * a.min(b) > 2 * a.max(b)
    };
    let mut pairs = Vec::new();
    if keys.probe_is_cheaper(probes.len()) {
        // A pair of two dirty accounts is emitted from its smaller
        // endpoint's probes only.
        for &(key, d) in probes {
            for &(_, o) in keys.range(key, key) {
                let (d, o) = (d as usize, o as usize);
                if o != d && (!dirty[o] || d < o) && fits(d, o) {
                    pairs.push((d.min(o), d.max(o)));
                }
            }
        }
    } else {
        for bucket in keys.runs() {
            for (x, &(_, i)) in bucket.iter().enumerate() {
                for &(_, j) in &bucket[x + 1..] {
                    let (i, j) = (i as usize, j as usize);
                    if (dirty[i] || dirty[j]) && fits(i, j) {
                        pairs.push((i, j));
                    }
                }
            }
        }
    }
    // Two accounts sharing several keys meet once per key.
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// An AG-TR endpoint cell: `(X_first, X_last, Y_first, Y_last)` quantized
/// at width `√φ`.
pub(crate) type Cell = [i32; 4];

/// The endpoint cell of a trajectory running from `(x0, y0)` to
/// `(xl, yl)`, at cell width `w`. Quantization saturates at the `i32`
/// range; clamping is monotone and never widens a gap, so two values less
/// than `w` apart still land at most one cell apart.
///
/// At `w = √φ`, two trajectories whose Eq. 8 raw DTW cost is below `φ`
/// land in the same or adjacent cells on every axis. Every warping path
/// aligns `X_i[0]` with `X_j[0]` and the two last points with each other,
/// and all cell costs are non-negative squared differences, so each of
/// the four squared endpoint differences individually lower-bounds
/// `D = DTW(X_i, X_j) + DTW(Y_i, Y_j)` (this also holds for banded DTW,
/// whose paths still include both corner cells). `D < φ` therefore forces
/// every endpoint difference below `√φ` — and two values at least two
/// cells apart at width `√φ` differ by more than `√φ`. Same-cell and
/// adjacent-cell pairs ([`cell_pairs`]) are thus a superset of every
/// below-φ pair.
///
/// Length is used only through its empty/non-empty coarsening: DTW warps
/// freely across unequal lengths, so a finer length key would not be
/// sound. Inactive accounts have no endpoints, take no cell and never
/// pair.
pub(crate) fn endpoint_cell(x0: f64, xl: f64, y0: f64, yl: f64, w: f64) -> Cell {
    let q = |v: f64| (v / w).floor() as i32;
    [q(x0), q(xl), q(y0), q(yl)]
}

/// The `(d0, d1, d2)` offsets of a cell's neighbours on the first three
/// axes, in lexicographic order: `[-1, -1, -1]` first, `[0, 0, 0]` at
/// index 13, the 13 lexicographically positive ones after it.
fn neighbour_prefixes() -> impl Iterator<Item = [i32; 3]> {
    (0..27).map(|k| [k / 9 - 1, k / 3 % 3 - 1, k % 3 - 1])
}

/// The key range from `cell + (prefix, lo)` to `cell + (prefix, hi)`: the
/// neighbours sharing one first-three-axes offset differ only in the last
/// axis, so they are contiguous. `None` when the prefix leaves the `i32`
/// range, where no cell lies.
fn neighbour_range(cell: Cell, prefix: [i32; 3], lo: i32, hi: i32) -> Option<(Cell, Cell)> {
    let mut from = [0; 4];
    for axis in 0..3 {
        from[axis] = cell[axis].checked_add(prefix[axis])?;
    }
    // The last axis clips to the i32 range; a range wholly past it is
    // empty (clipping it would land back on the cell itself).
    let (lo, hi) = (
        i64::from(cell[3]) + i64::from(lo),
        i64::from(cell[3]) + i64::from(hi),
    );
    if lo > i64::from(i32::MAX) || hi < i64::from(i32::MIN) {
        return None;
    }
    let mut to = from;
    from[3] = lo.max(i64::from(i32::MIN)) as i32;
    to[3] = hi.min(i64::from(i32::MAX)) as i32;
    Some((from, to))
}

/// The AG-TR candidates with a dirty endpoint: accounts whose endpoint
/// cells are at most one apart on every axis, sorted, each pair once.
/// `probes` are the dirty accounts' entries (see [`KeyRuns::refile`]).
pub(crate) fn cell_pairs(
    cells: &KeyRuns<Cell>,
    probes: &[(Cell, u32)],
    dirty: &[bool],
) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let mut emit = |i: u32, j: u32| {
        let (i, j) = (i as usize, j as usize);
        if dirty[i] || dirty[j] {
            pairs.push((i.min(j), i.max(j)));
        }
    };
    if cells.probe_is_cheaper(probes.len()) {
        // Each dirty account scans its 81 neighbouring cells as 27 ranges;
        // a pair of two dirty accounts is emitted from its smaller
        // endpoint's probe only.
        for &(cell, d) in probes {
            for prefix in neighbour_prefixes() {
                let Some((lo, hi)) = neighbour_range(cell, prefix, -1, 1) else {
                    continue;
                };
                for &(_, o) in cells.range(lo, hi) {
                    if o != d && (!dirty[o as usize] || d < o) {
                        emit(d, o);
                    }
                }
            }
        }
    } else {
        // Cell-major over the 40 lexicographically positive offsets (13
        // three-cell ranges and the last axis's +1), so each unordered
        // cell pair is visited once. The ranges move forward with the
        // cell, so one cursor per range sweeps the entries once.
        let ranges: Vec<([i32; 3], i32, i32)> = neighbour_prefixes()
            .skip(14)
            .map(|prefix| (prefix, -1, 1))
            .chain([([0, 0, 0], 1, 1)])
            .collect();
        let mut cursors = vec![0usize; ranges.len()];
        let entries = &cells.entries;
        for bucket in cells.runs() {
            for (x, &(_, i)) in bucket.iter().enumerate() {
                for &(_, j) in &bucket[x + 1..] {
                    emit(i, j);
                }
            }
            let cell = bucket[0].0;
            for (&(prefix, lo, hi), cursor) in ranges.iter().zip(&mut cursors) {
                let Some((lo, hi)) = neighbour_range(cell, prefix, lo, hi) else {
                    continue;
                };
                while *cursor < entries.len() && entries[*cursor].0 < lo {
                    *cursor += 1;
                }
                for &(_, j) in entries[*cursor..].iter().take_while(|e| e.0 <= hi) {
                    for &(_, i) in bucket {
                        emit(i, j);
                    }
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_runtime::rng::{Rng, SeedableRng, StdRng};

    /// The AG-TS candidates with a dirty endpoint over task sets `sets`,
    /// keyed under the campaign's rarity order, and the buckets they fill.
    fn ts_pairs(
        sets: &[Vec<usize>],
        num_tasks: usize,
        dirty: &[bool],
    ) -> (Vec<(usize, usize)>, usize) {
        let mut freq = vec![0u32; num_tasks];
        for set in sets {
            for &t in set {
                freq[t] += 1;
            }
        }
        let rank = rarity_rank(&freq);
        let mut keys = KeyRuns::default();
        let probes = keys.refile(dirty, |a, out| {
            prefix_keys(&mut sets[a].clone(), &rank, out)
        });
        (
            prefix_pairs(&keys, &probes, dirty, |a| sets[a].len()),
            keys.buckets(),
        )
    }

    /// The AG-TR candidates with a dirty endpoint over `(X, Y)`
    /// trajectories at threshold `phi`, and the cells they fill.
    fn tr_pairs(
        trajectories: &[(Vec<f64>, Vec<f64>)],
        phi: f64,
        dirty: &[bool],
    ) -> (Vec<(usize, usize)>, usize) {
        let mut cells = KeyRuns::default();
        let probes = cells.refile(dirty, |a, out| {
            let (x, y) = &trajectories[a];
            if let (Some(&x0), Some(&xl), Some(&y0), Some(&yl)) =
                (x.first(), x.last(), y.first(), y.last())
            {
                out.push(endpoint_cell(x0, xl, y0, yl, phi.sqrt()));
            }
        });
        (cell_pairs(&cells, &probes, dirty), cells.buckets())
    }

    fn all(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    fn contains(pairs: &[(usize, usize)], i: usize, j: usize) -> bool {
        pairs.binary_search(&(i.min(j), i.max(j))).is_ok()
    }

    /// Eq. 6 for two sorted task sets (test oracle).
    fn affinity(a: &[usize], b: &[usize], m: f64) -> f64 {
        let t = a.iter().filter(|x| b.binary_search(x).is_ok()).count();
        let l = (a.len() - t) + (b.len() - t);
        (t as f64 - 2.0 * l as f64) * (t + l) as f64 / m
    }

    #[test]
    fn prefix_keys_cover_every_above_threshold_pair() {
        srtd_runtime::prop::check(
            |rng| {
                let m = rng.gen_range(3usize..12);
                let sets = srtd_runtime::prop::vec_with(rng, 2..14, |r| {
                    let mut s: Vec<usize> =
                        (0..m).filter(|_| r.gen_range(0f64..1.0) < 0.4).collect();
                    s.dedup();
                    s
                });
                let rho = rng.gen_range(0f64..2.0);
                (sets, m, rho)
            },
            |(sets, m, rho)| {
                let (pairs, _) = ts_pairs(sets, *m, &all(sets.len()));
                for i in 0..sets.len() {
                    for j in i + 1..sets.len() {
                        let a = affinity(&sets[i], &sets[j], *m as f64);
                        if a > *rho {
                            srtd_runtime::prop_assert!(
                                contains(&pairs, i, j),
                                "pair ({i},{j}) with affinity {a} > ρ={rho} was blocked"
                            );
                        }
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn ts_disjoint_rare_sets_are_blocked() {
        // Two accounts with disjoint sets over many tasks: affinity is
        // negative, and their rare-task prefixes cannot collide.
        let sets = vec![vec![0, 1, 2], vec![7, 8, 9]];
        assert!(ts_pairs(&sets, 10, &all(2)).0.is_empty());
    }

    #[test]
    fn ts_identical_sets_are_candidates() {
        let sets = vec![vec![1, 4, 6], vec![1, 4, 6], vec![1, 4, 6]];
        assert_eq!(ts_pairs(&sets, 8, &all(3)).0, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn ts_empty_sets_never_pair() {
        let sets = vec![vec![], vec![0, 1], vec![]];
        let (pairs, _) = ts_pairs(&sets, 4, &all(3));
        assert!(!contains(&pairs, 0, 2));
        assert!(!contains(&pairs, 0, 1));
    }

    #[test]
    fn ts_identical_singletons_pair_and_distinct_singletons_do_not() {
        // a = 1 qualifying pairs force b = 1 with the same task; the
        // degenerate (t, t) key must catch exactly those.
        let sets = vec![vec![3], vec![3], vec![5], vec![]];
        assert_eq!(ts_pairs(&sets, 8, &all(4)).0, vec![(0, 1)]);
    }

    /// The motivating workload for the pair key: every account has the
    /// same set size (fixed tasks-per-account campaigns), so pure length
    /// filters prune nothing — yet sharing *two* rare tasks is far rarer
    /// than sharing one. The pair key must stay a superset of the
    /// qualifying pairs while producing far fewer candidates than the
    /// single-task prefix filter it replaced.
    #[test]
    fn ts_pair_key_prunes_fixed_size_campaigns() {
        let m = 60usize;
        let mut rng = StdRng::seed_from_u64(42);
        let sets: Vec<Vec<usize>> = (0..300)
            .map(|_| {
                let mut s: Vec<usize> = Vec::new();
                while s.len() < 6 {
                    let t = rng.gen_range(0usize..m);
                    if !s.contains(&t) {
                        s.push(t);
                    }
                }
                s.sort_unstable();
                s
            })
            .collect();
        let (pairs, _) = ts_pairs(&sets, m, &all(sets.len()));
        // Superset check against the Eq. 6 oracle at ρ = 0.
        for i in 0..sets.len() {
            for j in i + 1..sets.len() {
                if affinity(&sets[i], &sets[j], m as f64) > 0.0 {
                    assert!(contains(&pairs, i, j), "qualifying pair ({i},{j}) blocked");
                }
            }
        }
        // The single-task prefix filter co-buckets every two accounts
        // sharing one rare task; reproduce its candidate count here and
        // require the pair key to beat it by a wide margin.
        let mut freq = vec![0u32; m];
        for s in &sets {
            for &t in s {
                freq[t] += 1;
            }
        }
        let mut single: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (i, s) in sets.iter().enumerate() {
            let mut by_rank = s.clone();
            by_rank.sort_by_key(|&t| (freq[t], t));
            for &t in &by_rank[..s.len().div_ceil(3)] {
                single[t].push(i);
            }
        }
        let mut old_pairs: Vec<(usize, usize)> = Vec::new();
        for b in &single {
            for (x, &i) in b.iter().enumerate() {
                for &j in &b[x + 1..] {
                    old_pairs.push((i.min(j), i.max(j)));
                }
            }
        }
        old_pairs.sort_unstable();
        old_pairs.dedup();
        assert!(
            pairs.len() * 10 <= old_pairs.len(),
            "pair key produced {} candidates vs {} single-key — expected ≥10× fewer",
            pairs.len(),
            old_pairs.len()
        );
    }

    /// The same pair key on a 3 000-account fixed-size `ScaledCampaign`
    /// (six tasks per account, so length filters prune nothing) must
    /// leave at least nine tenths of the `n(n−1)/2` pairs unscored.
    #[test]
    fn ts_pair_key_scores_under_a_tenth_of_a_3000_account_campaign() {
        use srtd_sensing::{ScaledCampaign, ScaledCampaignConfig};
        let campaign = ScaledCampaign::generate(&ScaledCampaignConfig::new(3_000).with_seed(9));
        let data = &campaign.data;
        let n = data.num_accounts();
        let sets: Vec<Vec<usize>> = (0..n).map(|a| data.tasks_of(a)).collect();
        let (pairs, _) = ts_pairs(&sets, data.num_tasks(), &all(n));
        let total = total_pairs(n, None);
        assert!(
            pairs.len() as u64 * 10 <= total,
            "{} candidates out of {total} pairs — expected ≥10× reduction",
            pairs.len()
        );
    }

    #[test]
    fn ts_dirty_mask_restricts_to_touching_pairs() {
        let sets = vec![vec![0, 1], vec![0, 1], vec![0, 1]];
        let mut mask = vec![false, false, true];
        assert_eq!(ts_pairs(&sets, 4, &mask).0, vec![(0, 2), (1, 2)]);
        assert_eq!(total_pairs(3, Some(&mask)), 2);
        mask = vec![false; 3];
        assert!(ts_pairs(&sets, 4, &mask).0.is_empty());
        assert_eq!(total_pairs(3, Some(&mask)), 0);
    }

    #[test]
    fn endpoint_cells_cover_every_below_phi_pair() {
        use srtd_timeseries::dtw;
        srtd_runtime::prop::check(
            |rng| {
                let items = srtd_runtime::prop::vec_with(rng, 2..10, |r| {
                    let len = r.gen_range(0usize..7);
                    (
                        (0..len)
                            .map(|_| r.gen_range(-6f64..6.0))
                            .collect::<Vec<f64>>(),
                        (0..len)
                            .map(|_| r.gen_range(-6f64..6.0))
                            .collect::<Vec<f64>>(),
                    )
                });
                let phi = rng.gen_range(0.1f64..30.0);
                (items, phi)
            },
            |(items, phi)| {
                let (pairs, _) = tr_pairs(items, *phi, &all(items.len()));
                for i in 0..items.len() {
                    for j in i + 1..items.len() {
                        if items[i].0.is_empty() || items[j].0.is_empty() {
                            continue; // inactive accounts stay singletons
                        }
                        let d = dtw(&items[i].0, &items[j].0) + dtw(&items[i].1, &items[j].1);
                        if d < *phi {
                            srtd_runtime::prop_assert!(
                                contains(&pairs, i, j),
                                "pair ({i},{j}) with D={d} < φ={phi} was blocked"
                            );
                        }
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn tr_adjacent_cells_pair_and_distant_cells_do_not() {
        // φ = 1 → cell width 1. Endpoints 0.9 vs 1.1 straddle a boundary
        // (adjacent cells, must pair); 0.0 vs 5.0 are far (blocked).
        let trajs = vec![
            (vec![0.9], vec![0.0]),
            (vec![1.1], vec![0.0]),
            (vec![5.0], vec![0.0]),
        ];
        let (pairs, buckets) = tr_pairs(&trajs, 1.0, &all(3));
        assert_eq!(pairs, vec![(0, 1)]);
        assert_eq!(buckets, 3);
    }

    #[test]
    fn tr_inactive_accounts_have_no_candidates() {
        let trajs = vec![
            (Vec::new(), Vec::new()),
            (vec![1.0], vec![1.0]),
            (Vec::new(), Vec::new()),
        ];
        let (pairs, buckets) = tr_pairs(&trajs, 1.0, &all(3));
        assert!(pairs.is_empty());
        assert_eq!(buckets, 1);
    }

    #[test]
    fn tr_dirty_mask_restricts_pairs() {
        let trajs: Vec<_> = (0..4).map(|_| (vec![1.0, 2.0], vec![0.5, 0.9])).collect();
        let mask = vec![true, false, false, false];
        assert_eq!(tr_pairs(&trajs, 1.0, &mask).0, vec![(0, 1), (0, 2), (0, 3)]);
        assert_eq!(total_pairs(4, Some(&mask)), 3);
    }

    #[test]
    fn total_pairs_counts_the_pairs_with_a_dirty_endpoint() {
        assert_eq!(total_pairs(4, None), 6);
        for n in 0..7usize {
            for bits in 0..1u32 << n {
                let mask: Vec<bool> = (0..n).map(|a| bits >> a & 1 == 1).collect();
                let want = (0..n)
                    .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                    .filter(|&(i, j)| mask[i] || mask[j])
                    .count() as u64;
                assert_eq!(total_pairs(n, Some(&mask)), want, "mask {mask:?}");
            }
        }
    }

    /// Endpoint cells within one of each other on every axis.
    fn adjacent(a: Cell, b: Cell) -> bool {
        a.iter()
            .zip(&b)
            .all(|(x, y)| (i64::from(*x) - i64::from(*y)).abs() <= 1)
    }

    #[test]
    fn cell_probes_and_sweeps_enumerate_the_same_pairs() {
        // 400 accounts on a coarse grid so many cells hold several
        // accounts and many are neighbours; a few dirty accounts take the
        // probe route, most or all of them the sweep.
        let mut rng = StdRng::seed_from_u64(11);
        let cells: Vec<Option<Cell>> = (0..400)
            .map(|_| {
                (rng.gen_range(0f64..1.0) < 0.9)
                    .then(|| std::array::from_fn(|_| rng.gen_range(-3i32..3)))
            })
            .collect();
        for dirty_share in [0.0, 0.005, 0.02, 0.5, 1.0] {
            let dirty: Vec<bool> = (0..cells.len())
                .map(|_| rng.gen_range(0f64..1.0) < dirty_share)
                .collect();
            let mut index = KeyRuns::default();
            let probes = index.refile(&dirty, |a, out| out.extend(cells[a]));
            let got = cell_pairs(&index, &probes, &dirty);
            let mut want = Vec::new();
            for i in 0..cells.len() {
                for j in i + 1..cells.len() {
                    if let (Some(a), Some(b)) = (cells[i], cells[j]) {
                        if adjacent(a, b) && (dirty[i] || dirty[j]) {
                            want.push((i, j));
                        }
                    }
                }
            }
            assert_eq!(got, want, "dirty share {dirty_share}");
        }
    }

    #[test]
    fn refiling_moves_an_account_between_cells() {
        // Account 0 starts beside account 1, then moves beside account 2:
        // the index must forget its old cell.
        let mut at: Vec<Cell> = vec![[0, 0, 0, 0], [0, 0, 0, 1], [9, 9, 9, 9]];
        let mut index = KeyRuns::default();
        let all = [true; 3];
        let probes = index.refile(&all, |a, out| out.push(at[a]));
        assert_eq!(cell_pairs(&index, &probes, &all), vec![(0, 1)]);
        at[0] = [9, 9, 9, 8];
        let dirty = [true, false, false];
        let probes = index.refile(&dirty, |a, out| out.push(at[a]));
        assert_eq!(cell_pairs(&index, &probes, &dirty), vec![(0, 2)]);
        assert_eq!(index.buckets(), 3);
        // Nothing dirty: nothing moves and no pair comes back.
        let clean = [false; 3];
        let probes = index.refile(&clean, |_, _| unreachable!("clean accounts stay filed"));
        assert!(probes.is_empty());
        assert!(cell_pairs(&index, &probes, &clean).is_empty());
    }

    #[test]
    fn cells_at_the_i32_limits_pair_without_overflow() {
        // Three cells at the limits, then 100 isolated fillers so that one
        // dirty account takes the probe route and all of them the sweep.
        let mut cells = vec![
            [i32::MAX, i32::MAX, i32::MAX, i32::MAX],
            [i32::MAX, i32::MAX - 1, i32::MAX, i32::MAX],
            [i32::MIN, i32::MIN, i32::MIN, i32::MIN],
        ];
        cells.extend((0..100).map(|k| [0, 0, 0, 3 * k]));
        for dirty_account in [None, Some(0), Some(1), Some(2)] {
            let dirty: Vec<bool> = (0..cells.len())
                .map(|a| dirty_account.is_none_or(|d| d == a))
                .collect();
            let mut index = KeyRuns::default();
            let probes = index.refile(&dirty, |a, out| out.push(cells[a]));
            let want: Vec<(usize, usize)> = if dirty[0] || dirty[1] {
                vec![(0, 1)]
            } else {
                vec![]
            };
            assert_eq!(cell_pairs(&index, &probes, &dirty), want);
        }
        // Values past the i32 range saturate into the edge cells.
        assert_eq!(
            endpoint_cell(1e300, -1e300, 0.5, 1.5, 1.0),
            [i32::MAX, i32::MIN, 0, 1]
        );
    }

    #[test]
    fn prefix_probes_and_sweeps_enumerate_the_same_pairs() {
        let m = 40usize;
        let mut rng = StdRng::seed_from_u64(5);
        let sets: Vec<Vec<usize>> = (0..500)
            .map(|_| {
                let len = rng.gen_range(0usize..7);
                let mut s: Vec<usize> = (0..len).map(|_| rng.gen_range(0..m)).collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let mut freq = vec![0u32; m];
        for s in &sets {
            for &t in s {
                freq[t] += 1;
            }
        }
        // Any fixed order is sound; test the rarity order and a reversed
        // one.
        let rarity = rarity_rank(&freq);
        let reversed: Vec<u32> = rarity.iter().map(|&r| (m as u32 - 1) - r).collect();
        for rank in [rarity, reversed] {
            for dirty_share in [0.0, 0.004, 0.05, 1.0] {
                let dirty: Vec<bool> = (0..sets.len())
                    .map(|_| rng.gen_range(0f64..1.0) < dirty_share)
                    .collect();
                let mut index = KeyRuns::default();
                let probes = index.refile(&dirty, |a, out| {
                    prefix_keys(&mut sets[a].clone(), &rank, out)
                });
                let got = prefix_pairs(&index, &probes, &dirty, |a| sets[a].len());
                let mut keys = Vec::new();
                let key_sets: Vec<Vec<PairKey>> = sets
                    .iter()
                    .map(|s| {
                        keys.clear();
                        prefix_keys(&mut s.clone(), &rank, &mut keys);
                        keys.clone()
                    })
                    .collect();
                let mut want = Vec::new();
                for i in 0..sets.len() {
                    for j in i + 1..sets.len() {
                        let (a, b) = (sets[i].len(), sets[j].len());
                        if (dirty[i] || dirty[j])
                            && 3 * a.min(b) > 2 * a.max(b)
                            && key_sets[i].iter().any(|k| key_sets[j].contains(k))
                        {
                            want.push((i, j));
                        }
                    }
                }
                assert_eq!(got, want, "dirty share {dirty_share}");
                // Sound under this order: every pair above ρ = 0 with a
                // dirty endpoint is a candidate.
                for i in 0..sets.len() {
                    for j in i + 1..sets.len() {
                        if (dirty[i] || dirty[j]) && affinity(&sets[i], &sets[j], m as f64) > 0.0 {
                            assert!(got.binary_search(&(i, j)).is_ok(), "({i}, {j}) blocked");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn candidate_order_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(7);
        let trajs: Vec<(Vec<f64>, Vec<f64>)> = (0..30)
            .map(|_| {
                let len = rng.gen_range(1usize..5);
                (
                    (0..len).map(|_| rng.gen_range(0f64..4.0)).collect(),
                    (0..len).map(|_| rng.gen_range(0f64..4.0)).collect(),
                )
            })
            .collect();
        let a = tr_pairs(&trajs, 2.0, &all(30));
        let b = tr_pairs(&trajs, 2.0, &all(30));
        assert_eq!(a, b);
        assert!(a.0.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
    }
}
