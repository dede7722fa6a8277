//! Clustering and dimensionality reduction for device-fingerprint grouping.
//!
//! AG-FP clusters the 80-dimensional fingerprint feature vectors
//! (20 Table-II features × 4 sensor streams) with k-means, estimating the
//! number of devices `k` by the elbow method over the SSE curve, exactly as
//! §IV-C of the paper prescribes. PCA is used by the paper's Figs. 2 and 8
//! to visualize fingerprints in the first two principal components.
//!
//! * [`KMeans`] — Lloyd's algorithm with k-means++ seeding,
//! * [`elbow()`] — SSE-curve elbow estimation of `k`,
//! * [`Pca`] — principal component analysis via a Jacobi eigensolver.
//!
//! # Examples
//!
//! ```
//! use srtd_cluster::{KMeans, KMeansConfig};
//!
//! let points = vec![
//!     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1],
//!     vec![5.0, 5.0], vec![5.1, 5.0], vec![5.0, 5.1],
//! ];
//! let result = KMeans::new(KMeansConfig::new(2)).fit(&points);
//! assert_eq!(result.assignments[0], result.assignments[1]);
//! assert_ne!(result.assignments[0], result.assignments[3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod elbow;

pub mod hierarchical;
pub mod kmeans;
pub mod linalg;
pub mod pca;

pub use elbow::{elbow, knee_of, ElbowResult};
pub use hierarchical::{agglomerative, HierarchicalResult, Linkage};
pub use kmeans::{AssignPruning, KMeans, KMeansConfig, KMeansResult};
pub use linalg::Matrix;
pub use pca::Pca;

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dimension mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_distance_basics() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(squared_distance(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn squared_distance_length_mismatch() {
        squared_distance(&[1.0], &[1.0, 2.0]);
    }
}
