//! Dense matrices and a cyclic Jacobi eigensolver for symmetric matrices.
//!
//! PCA needs the eigendecomposition of a covariance matrix. Fingerprint
//! feature spaces are small (≤ 80 dimensions), where the cyclic Jacobi
//! method is simple, numerically robust and more than fast enough.

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use srtd_cluster::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.transpose().get(0, 1), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|row| row.len() == c),
            "rows must have equal lengths"
        );
        Self {
            rows: r,
            cols: c,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions disagree: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] += a * rhs.get(k, j);
                }
            }
        }
        out
    }

    /// Returns `true` if the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in i + 1..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// Eigendecomposition of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct Eigen {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// Eigenvectors as rows, parallel to `values`; each has unit norm.
    pub vectors: Vec<Vec<f64>>,
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Sweeps Givens rotations over all off-diagonal entries until they are
/// negligible. Returns eigenvalues sorted descending with matching unit
/// eigenvectors.
///
/// # Panics
///
/// Panics if `m` is not square-symmetric (within `1e-9`).
pub fn jacobi_eigen(m: &Matrix) -> Eigen {
    assert!(
        m.is_symmetric(1e-9),
        "Jacobi eigendecomposition requires a symmetric matrix"
    );
    let n = m.row_count();
    if n == 0 {
        return Eigen {
            values: Vec::new(),
            vectors: Vec::new(),
        };
    }
    let mut a = m.clone();
    let mut v = Matrix::identity(n);
    const MAX_SWEEPS: usize = 100;
    for _ in 0..MAX_SWEEPS {
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += a.get(i, j).abs();
            }
        }
        if off < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = a.get(p, q);
                if apq.abs() < 1e-15 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                // Standard Jacobi rotation angle: 0.5·atan2(2·a_pq, a_pp−a_qq).
                let phi = 0.5 * (2.0 * apq).atan2(app - aqq);
                let (s, c) = phi.sin_cos();
                // Rotate rows/columns p and q of `a`.
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp + s * akq);
                    a.set(k, q, -s * akp + c * akq);
                }
                for k in 0..n {
                    let apk = a.get(p, k);
                    let aqk = a.get(q, k);
                    a.set(p, k, c * apk + s * aqk);
                    a.set(q, k, -s * apk + c * aqk);
                }
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp + s * vkq);
                    v.set(k, q, -s * vkp + c * vkq);
                }
            }
        }
    }
    let mut pairs: Vec<(f64, Vec<f64>)> = (0..n)
        .map(|i| {
            let val = a.get(i, i);
            let vec: Vec<f64> = (0..n).map(|k| v.get(k, i)).collect();
            (val, vec)
        })
        .collect();
    pairs.sort_by(|x, y| y.0.total_cmp(&x.0));
    Eigen {
        values: pairs.iter().map(|p| p.0).collect(),
        vectors: pairs.into_iter().map(|p| p.1).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_runtime::rng::Rng;
    use srtd_runtime::{prop, prop_assert};

    #[test]
    fn identity_and_transpose() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3.transpose(), i3);
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.get(2, 1), 6.0);
    }

    #[test]
    fn matmul_with_identity_is_noop() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.matmul(&Matrix::identity(2)), m);
        assert_eq!(Matrix::identity(2).matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let m = Matrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let e = jacobi_eigen(&m);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 2.0).abs() < 1e-10);
        assert!((e.values[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn jacobi_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = jacobi_eigen(&m);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        // Eigenvector for 3 is ±(1,1)/√2.
        let v = &e.vectors[0];
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-8);
        assert!((v[0] - v[1]).abs() < 1e-8);
    }

    #[test]
    fn jacobi_empty_matrix() {
        let e = jacobi_eigen(&Matrix::zeros(0, 0));
        assert!(e.values.is_empty());
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn jacobi_rejects_asymmetric() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]);
        jacobi_eigen(&m);
    }

    fn random_symmetric(seed: u64, n: usize) -> Matrix {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let x = next();
                m.set(i, j, x);
                m.set(j, i, x);
            }
        }
        m
    }

    /// A·v = λ·v for every eigenpair of random symmetric matrices.
    #[test]
    fn eigenpairs_satisfy_definition() {
        prop::check(
            |rng| (rng.gen_range(0u64..500), rng.gen_range(1usize..8)),
            |&(seed, n)| {
                let m = random_symmetric(seed, n);
                let e = jacobi_eigen(&m);
                for (lambda, vec) in e.values.iter().zip(&e.vectors) {
                    for i in 0..n {
                        let av: f64 = (0..n).map(|j| m.get(i, j) * vec[j]).sum();
                        prop_assert!((av - lambda * vec[i]).abs() < 1e-7);
                    }
                }
                Ok(())
            },
        );
    }

    /// Eigenvalues sum to the trace, eigenvectors are orthonormal.
    #[test]
    fn trace_and_orthonormality() {
        prop::check(
            |rng| (rng.gen_range(0u64..500), rng.gen_range(1usize..8)),
            |&(seed, n)| {
                let m = random_symmetric(seed, n);
                let e = jacobi_eigen(&m);
                let trace: f64 = (0..n).map(|i| m.get(i, i)).sum();
                let sum: f64 = e.values.iter().sum();
                prop_assert!((trace - sum).abs() < 1e-8);
                for i in 0..n {
                    for j in 0..n {
                        let dot: f64 = e.vectors[i]
                            .iter()
                            .zip(&e.vectors[j])
                            .map(|(a, b)| a * b)
                            .sum();
                        let want = if i == j { 1.0 } else { 0.0 };
                        prop_assert!((dot - want).abs() < 1e-7);
                    }
                }
                Ok(())
            },
        );
    }
}
