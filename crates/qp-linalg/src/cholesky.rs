//! Cholesky factorization and triangular solves.
//!
//! Used to reduce the generalized eigenproblem `H C = ε S C` (Eq. 5 of the
//! paper) to standard form: with `S = L Lᵀ`, solve
//! `(L⁻¹ H L⁻ᵀ) y = ε y`, then back-transform `C = L⁻ᵀ y`. The reduction
//! runs on the explicit inverse factor ([`Cholesky::l_inverse`]) so both
//! sides are GEMMs (see [`crate::eigen::GeneralizedEigen`]).

use crate::dense::DMatrix;
use crate::{LinalgError, Result};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: DMatrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix (only its lower
    /// triangle is read).
    ///
    /// Right-looking outer-product form on `U = Lᵀ`: after row `k` of `U`
    /// is final, every later row `i` of the trailing upper triangle takes
    /// the contiguous update `w[i][i..] -= U[k][i]·U[k][i..]`. Each entry
    /// still sees `a_ij − Σ_k l_ik l_jk` subtracted in ascending `k` and
    /// one final division, the same sequence as the textbook dot-product
    /// (Cholesky–Banachiewicz) loop, but every inner loop streams rows.
    pub fn new(a: &DMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky",
                dims: vec![a.rows(), a.cols()],
            });
        }
        let n = a.rows();
        // Working copy: upper triangle of `w` holds the lower triangle of
        // `a`, transposed; it becomes `U` in place.
        let mut w = DMatrix::zeros(n, n);
        for i in 0..n {
            for (j, &v) in a.row(i)[..=i].iter().enumerate() {
                w[(j, i)] = v;
            }
        }
        let ws = w.as_mut_slice();
        for k in 0..n {
            let (done, rest) = ws.split_at_mut((k + 1) * n);
            let uk = &mut done[k * n..];
            let pivot = uk[k];
            if pivot <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite { pivot: k });
            }
            let d = pivot.sqrt();
            uk[k] = d;
            for v in &mut uk[k + 1..] {
                *v /= d;
            }
            let uk = &done[k * n..];
            for (r, row) in rest.chunks_exact_mut(n).enumerate() {
                let i = k + 1 + r;
                let f = uk[i];
                for (x, &u) in row[i..].iter_mut().zip(&uk[i..]) {
                    *x -= f * u;
                }
            }
        }
        Ok(Cholesky { l: w.transpose() })
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &DMatrix {
        &self.l
    }

    /// The explicit inverse factor `L⁻¹` (lower triangular), by forward
    /// substitution on rows: `row_i(L⁻¹) = (e_i − Σ_{k<i} l_ik row_k(L⁻¹)) / l_ii`.
    /// Every update is a contiguous axpy over the first `k + 1` entries of
    /// an earlier row.
    pub fn l_inverse(&self) -> DMatrix {
        let n = self.l.rows();
        let mut x = DMatrix::zeros(n, n);
        let xs = x.as_mut_slice();
        for i in 0..n {
            let (prev, cur) = xs.split_at_mut(i * n);
            let row = &mut cur[..n];
            let li = self.l.row(i);
            for k in 0..i {
                let f = li[k];
                for (x, &p) in row[..=k].iter_mut().zip(&prev[k * n..=k * n + k]) {
                    *x -= f * p;
                }
            }
            row[i] = 1.0;
            let d = li[i];
            for v in &mut row[..=i] {
                *v /= d;
            }
        }
        x
    }

    /// Solve `L x = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n);
        let mut x = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                let lik = self.l[(i, k)];
                x[i] -= lik * x[k];
            }
            x[i] /= self.l[(i, i)];
        }
        x
    }

    /// Solve `Lᵀ x = b` (backward substitution).
    pub fn solve_lower_transpose(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n);
        let mut x = b.to_vec();
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                let lki = self.l[(k, i)];
                x[i] -= lki * x[k];
            }
            x[i] /= self.l[(i, i)];
        }
        x
    }

    /// Solve `A x = b` via the two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let y = self.solve_lower(b);
        self.solve_lower_transpose(&y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DMatrix {
        DMatrix::from_vec(
            3,
            3,
            vec![4.0, 12.0, -16.0, 12.0, 37.0, -43.0, -16.0, -43.0, 98.0],
        )
        .unwrap()
    }

    #[test]
    fn factor_known_matrix() {
        // Classic example: L = [[2,0,0],[6,1,0],[-8,5,3]].
        let c = Cholesky::new(&spd3()).unwrap();
        let l = c.l();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 6.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 1.0).abs() < 1e-12);
        assert!((l[(2, 0)] + 8.0).abs() < 1e-12);
        assert!((l[(2, 1)] - 5.0).abs() < 1e-12);
        assert!((l[(2, 2)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let llt = c.l().matmul(&c.l().transpose()).unwrap();
        assert!(llt.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = c.solve(&b);
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let m = DMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(
            Cholesky::new(&m),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn matrix_solves_match_vector_solves() {
        // `L⁻¹ M` through the explicit inverse matches column-by-column
        // forward substitution.
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let m = DMatrix::from_fn(3, 2, |i, j| (i + j) as f64 + 1.0);
        let linv_m = c.l_inverse().matmul(&m).unwrap();
        for j in 0..2 {
            let col: Vec<f64> = (0..3).map(|i| m[(i, j)]).collect();
            let x = c.solve_lower(&col);
            for i in 0..3 {
                assert!((linv_m[(i, j)] - x[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn inverse_factor_is_exact_inverse() {
        let c = Cholesky::new(&spd3()).unwrap();
        let id = c.l_inverse().matmul(c.l()).unwrap();
        assert!(id.max_abs_diff(&DMatrix::identity(3)) < 1e-12);
        let linv = c.l_inverse();
        assert!((0..3).all(|i| (i + 1..3).all(|j| linv[(i, j)] == 0.0)));
    }
}
