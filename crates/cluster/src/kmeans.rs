//! Lloyd's k-means with k-means++ seeding.

use crate::squared_distance;
use srtd_runtime::parallel::parallel_map_min;
use srtd_runtime::rng::StdRng;
use srtd_runtime::rng::{Rng, SeedableRng};

/// Point count below which the assignment step stays sequential — the
/// break-even where per-iteration thread spawns start paying for
/// themselves on commodity cores.
const PARALLEL_MIN_POINTS: usize = 512;

/// Configuration for a k-means run.
///
/// # Examples
///
/// ```
/// use srtd_cluster::KMeansConfig;
///
/// let cfg = KMeansConfig::new(3).with_seed(7).with_max_iterations(50);
/// assert_eq!(cfg.k, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
    /// Number of k-means++ restarts; the best-SSE run wins.
    pub restarts: usize,
    /// RNG seed, for reproducible grouping results.
    pub seed: u64,
}

impl KMeansConfig {
    /// Default configuration for `k` clusters (100 iterations, 8 restarts,
    /// fixed seed).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k-means needs at least one cluster");
        Self {
            k,
            max_iterations: 100,
            restarts: 8,
            seed: 0x5eed,
        }
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the Lloyd iteration cap.
    pub fn with_max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Replaces the restart count.
    ///
    /// # Panics
    ///
    /// Panics if `restarts == 0`.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        assert!(restarts > 0, "at least one restart is required");
        self.restarts = restarts;
        self
    }
}

/// Work accounting of the pruned assignment step: of the
/// `points × centroids` candidate comparisons, how many paid for a full
/// squared distance and how many were skipped by the norm bound. The two
/// always partition the candidate count, and pruning never changes an
/// assignment — it only skips centroids that provably cannot win.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssignPruning {
    /// Point–centroid comparisons that evaluated a full squared distance.
    pub distance_evals: u64,
    /// Comparisons skipped because the norm lower bound already met or
    /// exceeded the best distance so far.
    pub skipped_by_norm: u64,
}

impl AssignPruning {
    /// Total point–centroid comparisons considered.
    pub fn total(&self) -> u64 {
        self.distance_evals + self.skipped_by_norm
    }
}

/// The outcome of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Final centroids (`k` rows; empty clusters keep their last position).
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of points to their centroid — the SSE the
    /// elbow method evaluates.
    pub sse: f64,
    /// Lloyd iterations performed by the winning restart.
    pub iterations: usize,
    /// Assignment-step work accounting, summed over **all** restarts (the
    /// honest cost of the whole fit, not just the winning run).
    pub pruning: AssignPruning,
}

/// Lloyd's k-means with k-means++ seeding and multi-restart.
///
/// This is the clustering step of AG-FP: fingerprint feature vectors go in,
/// device groups come out. All runs are deterministic given the seed in the
/// config.
#[derive(Debug, Clone)]
pub struct KMeans {
    config: KMeansConfig,
}

impl KMeans {
    /// Creates a runner with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        Self { config }
    }

    /// Clusters `points`, returning assignments, centroids and SSE.
    ///
    /// If `k >= points.len()`, every point becomes its own cluster (extra
    /// centroids duplicate the last point), which is the correct degenerate
    /// behaviour for the elbow sweep.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or rows have inconsistent lengths.
    pub fn fit(&self, points: &[Vec<f64>]) -> KMeansResult {
        assert!(!points.is_empty(), "cannot cluster an empty point set");
        let dim = points[0].len();
        assert!(
            points.iter().all(|p| p.len() == dim),
            "points must share one dimensionality"
        );
        let _span = srtd_runtime::obs::span("cluster.kmeans.fit");
        srtd_runtime::obs::counter_add("cluster.kmeans.restarts", self.config.restarts as u64);
        let k = self.config.k.min(points.len());

        let mut best: Option<KMeansResult> = None;
        let mut pruning = AssignPruning::default();
        for restart in 0..self.config.restarts {
            let seed = self
                .config
                .seed
                .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(restart as u64 + 1));
            let result = self.fit_once(points, k, seed);
            pruning.distance_evals += result.pruning.distance_evals;
            pruning.skipped_by_norm += result.pruning.skipped_by_norm;
            if best.as_ref().is_none_or(|b| result.sse < b.sse) {
                best = Some(result);
            }
        }
        let mut best = best.expect("at least one restart");
        best.pruning = pruning;
        srtd_runtime::obs::observe("cluster.kmeans.iterations", best.iterations as f64);
        // Report the requested k even when clamped: pad with duplicates of
        // the final centroid so callers can index `centroids[k-1]`.
        while best.centroids.len() < self.config.k {
            let last = best.centroids.last().cloned().unwrap_or_default();
            best.centroids.push(last);
        }
        best
    }

    fn fit_once(&self, points: &[Vec<f64>], k: usize, seed: u64) -> KMeansResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut centroids = plus_plus_init(points, k, &mut rng);
        let mut assignments = vec![0usize; points.len()];
        let mut iterations = 0;
        let mut pruning = AssignPruning::default();
        // Point norms never change across iterations; centroid norms are
        // refreshed per update step. Together they feed the reverse-
        // triangle bound `(‖p‖ − ‖c‖)² ≤ ‖p − c‖²` that lets the
        // assignment step skip most centroids without a distance
        // computation — decision-identical because a skipped centroid
        // provably cannot beat the current best under the strict `<`
        // update rule.
        let point_norms: Vec<f64> = points.iter().map(|p| norm(p)).collect();
        let indices: Vec<usize> = (0..points.len()).collect();
        for iter in 0..self.config.max_iterations.max(1) {
            iterations = iter + 1;
            let centroid_norms: Vec<f64> = centroids.iter().map(|c| norm(c)).collect();
            // Assignment step: each point's nearest centroid is independent
            // of the others, so it maps over the runtime's worker pool. The
            // gate keeps small instances (like the elbow sweeps over a
            // handful of fingerprints) on the sequential path, where a
            // per-Lloyd-iteration pool dispatch would cost more than the
            // distance computations; either path yields identical
            // assignments.
            // Pruning tallies come back per point in input order and are
            // summed on this thread, so they too are thread-count
            // independent.
            let nearest_all = parallel_map_min(&indices, PARALLEL_MIN_POINTS, |&i| {
                nearest_centroid_pruned(&points[i], point_norms[i], &centroids, &centroid_norms)
            });
            let mut changed = false;
            for (i, (nearest, evals, skipped)) in nearest_all.into_iter().enumerate() {
                pruning.distance_evals += evals;
                pruning.skipped_by_norm += skipped;
                if assignments[i] != nearest {
                    assignments[i] = nearest;
                    changed = true;
                }
            }
            if !changed && iter > 0 {
                break;
            }
            // Update step.
            let dim = points[0].len();
            let mut sums = vec![vec![0.0; dim]; k];
            let mut counts = vec![0usize; k];
            for (p, &a) in points.iter().zip(&assignments) {
                counts[a] += 1;
                for (s, &x) in sums[a].iter_mut().zip(p) {
                    *s += x;
                }
            }
            for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if count > 0 {
                    for (ci, &s) in c.iter_mut().zip(sum) {
                        *ci = s / count as f64;
                    }
                }
                // Empty clusters keep their previous centroid; a later
                // assignment step may repopulate them.
            }
        }
        let sse = points
            .iter()
            .zip(&assignments)
            .map(|(p, &a)| squared_distance(p, &centroids[a]))
            .sum();
        KMeansResult {
            assignments,
            centroids,
            sse,
            iterations,
            pruning,
        }
    }
}

/// Euclidean norm of one vector.
fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// The index of the nearest centroid, plus (distance evaluations, norm
/// skips) for this point. The reverse triangle inequality gives
/// `|‖p‖ − ‖c‖| ≤ ‖p − c‖`, so `(‖p‖ − ‖c‖)² ≥ best_d` proves centroid
/// `c` cannot beat the running best (updates need `d < best_d` strictly);
/// skipping it leaves both the winning index and the tie-breaking
/// (first minimum wins, centroid order preserved) unchanged.
fn nearest_centroid_pruned(
    p: &[f64],
    p_norm: f64,
    centroids: &[Vec<f64>],
    centroid_norms: &[f64],
) -> (usize, u64, u64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    let (mut evals, mut skipped) = (0u64, 0u64);
    for (i, c) in centroids.iter().enumerate() {
        let gap = p_norm - centroid_norms[i];
        if gap * gap >= best_d {
            skipped += 1;
            continue;
        }
        evals += 1;
        let d = squared_distance(p, c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    (best, evals, skipped)
}

/// k-means++ seeding: the first center uniform, each next center sampled
/// with probability proportional to its squared distance to the nearest
/// chosen center.
fn plus_plus_init(points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    let mut dists: Vec<f64> = points
        .iter()
        .map(|p| squared_distance(p, &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f64 = dists.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a center; pick uniformly.
            rng.gen_range(0..points.len())
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, &d) in dists.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        centroids.push(points[next].clone());
        for (d, p) in dists.iter_mut().zip(points) {
            let nd = squared_distance(p, centroids.last().expect("just pushed"));
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_runtime::rng::Rng;
    use srtd_runtime::{prop, prop_assert};

    fn two_blobs() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0],
            vec![0.2, -0.1],
            vec![-0.1, 0.1],
            vec![10.0, 10.0],
            vec![10.2, 9.9],
            vec![9.9, 10.1],
        ]
    }

    #[test]
    fn separates_well_separated_blobs() {
        let r = KMeans::new(KMeansConfig::new(2)).fit(&two_blobs());
        assert_eq!(r.assignments[0], r.assignments[1]);
        assert_eq!(r.assignments[0], r.assignments[2]);
        assert_eq!(r.assignments[3], r.assignments[4]);
        assert_ne!(r.assignments[0], r.assignments[3]);
        assert!(r.sse < 0.5);
    }

    #[test]
    fn k_equal_points_gives_zero_sse() {
        let pts = vec![vec![1.0, 2.0]; 5];
        let r = KMeans::new(KMeansConfig::new(2)).fit(&pts);
        assert_eq!(r.sse, 0.0);
    }

    #[test]
    fn k_one_centroid_is_the_mean() {
        let pts = vec![vec![0.0], vec![2.0], vec![4.0]];
        let r = KMeans::new(KMeansConfig::new(1)).fit(&pts);
        assert!((r.centroids[0][0] - 2.0).abs() < 1e-12);
        assert!((r.sse - 8.0).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_n_is_clamped_but_padded() {
        let pts = vec![vec![0.0], vec![5.0]];
        let r = KMeans::new(KMeansConfig::new(4)).fit(&pts);
        assert_eq!(r.centroids.len(), 4);
        assert_eq!(r.sse, 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = two_blobs();
        let a = KMeans::new(KMeansConfig::new(2).with_seed(42)).fit(&pts);
        let b = KMeans::new(KMeansConfig::new(2).with_seed(42)).fit(&pts);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty point set")]
    fn empty_input_panics() {
        KMeans::new(KMeansConfig::new(1)).fit(&[]);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_k_panics() {
        KMeansConfig::new(0);
    }

    /// SSE never increases when k grows (with shared seeding and enough
    /// restarts this holds on small instances).
    #[test]
    fn sse_decreases_with_k() {
        prop::check(
            |rng| rng.gen_range(0u64..50),
            |&seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let pts: Vec<Vec<f64>> = (0..20)
                    .map(|_| vec![rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)])
                    .collect();
                let mut prev = f64::INFINITY;
                for k in 1..=5 {
                    let r = KMeans::new(KMeansConfig::new(k).with_restarts(16)).fit(&pts);
                    prop_assert!(r.sse <= prev + 1e-6);
                    prev = r.sse;
                }
                Ok(())
            },
        );
    }

    /// The norm-bound skip must never change which centroid wins — the
    /// pruned scan is pinned against the naive full scan on random data.
    #[test]
    fn pruned_nearest_matches_the_full_scan() {
        prop::check(
            |rng| {
                let dim = rng.gen_range(1usize..5);
                let point: Vec<f64> = (0..dim).map(|_| rng.gen_range(-10.0..10.0)).collect();
                let centroids = prop::vec_with(rng, 1..8, |r| {
                    (0..dim)
                        .map(|_| r.gen_range(-10f64..10.0))
                        .collect::<Vec<f64>>()
                });
                (point, centroids)
            },
            |(point, centroids)| {
                let mut naive_best = 0;
                let mut naive_d = f64::INFINITY;
                for (i, c) in centroids.iter().enumerate() {
                    let d = squared_distance(point, c);
                    if d < naive_d {
                        naive_d = d;
                        naive_best = i;
                    }
                }
                let norms: Vec<f64> = centroids.iter().map(|c| norm(c)).collect();
                let (best, evals, skipped) =
                    nearest_centroid_pruned(point, norm(point), centroids, &norms);
                prop_assert!(
                    best == naive_best,
                    "pruned scan picked {best}, naive {naive_best}"
                );
                prop_assert!(evals + skipped == centroids.len() as u64);
                prop_assert!(
                    evals >= 1,
                    "the running best must come from a real distance"
                );
                Ok(())
            },
        );
    }

    #[test]
    fn fit_accounts_assignment_work_across_restarts() {
        let r = KMeans::new(KMeansConfig::new(2).with_restarts(3)).fit(&two_blobs());
        // 3 restarts × ≥1 iteration × 6 points × 2 centroids comparisons.
        assert!(r.pruning.total() >= 3 * 6 * 2, "{:?}", r.pruning);
        assert_eq!(
            r.pruning.total(),
            r.pruning.distance_evals + r.pruning.skipped_by_norm
        );
        // Well-separated blobs give the bound real work to skip.
        assert!(r.pruning.skipped_by_norm > 0, "{:?}", r.pruning);
    }

    /// Every point is assigned to its nearest centroid at convergence.
    #[test]
    fn assignments_are_nearest() {
        prop::check(
            |rng| (rng.gen_range(0u64..50), rng.gen_range(1usize..5)),
            |&(seed, k)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let pts: Vec<Vec<f64>> = (0..15)
                    .map(|_| vec![rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)])
                    .collect();
                let r = KMeans::new(KMeansConfig::new(k)).fit(&pts);
                for (p, &a) in pts.iter().zip(&r.assignments) {
                    let da = squared_distance(p, &r.centroids[a]);
                    for c in &r.centroids[..k.min(pts.len())] {
                        prop_assert!(da <= squared_distance(p, c) + 1e-9);
                    }
                }
                Ok(())
            },
        );
    }
}
