//! Dense symmetric eigensolvers.
//!
//! The Kohn-Sham equations in a finite basis (Eq. 5 of the paper) are a
//! generalized symmetric eigenproblem `H C = ε S C`, solved in the original
//! code by ScaLAPACK. Here we implement the classic dense path:
//! Householder tridiagonalization followed by implicit-shift QL iteration,
//! with the generalized problem reduced to standard form by the explicit
//! inverse Cholesky factor of the metric, computed once per metric
//! ([`GeneralizedEigen`]).

use crate::cholesky::Cholesky;
use crate::dense::DMatrix;
use crate::{LinalgError, Result};

/// Raw-pointer wrapper so a parallel row sweep can write its disjoint rows
/// without aliasing checks the borrow checker cannot express (each row is
/// touched by exactly one chunk executor).
struct RowsPtr(*mut f64);
unsafe impl Send for RowsPtr {}
unsafe impl Sync for RowsPtr {}

impl RowsPtr {
    fn get(&self) -> *mut f64 {
        self.0
    }
}

/// Eigenvalues (ascending) and eigenvectors (columns) of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// `eigenvectors.col(k)` is the eigenvector of `eigenvalues[k]`.
    pub eigenvectors: DMatrix,
}

/// Defines an element-wise row kernel once and compiles it twice: for the
/// baseline target and, called on x86-64 hosts that have it, for AVX2.
/// The bodies are element-wise `mul`/`add`/`sub` only (no reduction to
/// reorder, no FMA enabled), so both builds produce identical bits; AVX2
/// only widens the vectors. Same discipline as the GEMM microkernel.
macro_rules! row_kernel {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),*) $body:block) => {
        $(#[$doc])*
        fn $name($($arg: $ty),*) {
            #[inline(always)]
            fn generic($($arg: $ty),*) $body
            #[cfg(target_arch = "x86_64")]
            {
                /// # Safety
                ///
                /// The host must support AVX2.
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) {
                    generic($($arg),*)
                }
                if std::is_x86_feature_detected!("avx2") {
                    // SAFETY: the host supports AVX2.
                    return unsafe { avx2($($arg),*) };
                }
            }
            generic($($arg),*)
        }
    };
}

row_kernel! {
    /// `g += a·x`.
    fn axpy(g: &mut [f64], a: f64, x: &[f64]) {
        for (gj, &xj) in g.iter_mut().zip(x) {
            *gj += a * xj;
        }
    }
}

row_kernel! {
    /// `x -= a·y`.
    fn sub_scaled(x: &mut [f64], a: f64, y: &[f64]) {
        for (xj, &yj) in x.iter_mut().zip(y) {
            *xj -= yj * a;
        }
    }
}

row_kernel! {
    /// One row of the symmetric rank-2 update: `x -= f·e + g·v`.
    fn rank2_row(x: &mut [f64], f: f64, e: &[f64], g: f64, v: &[f64]) {
        for ((xj, &ej), &vj) in x.iter_mut().zip(e).zip(v) {
            *xj -= f * ej + g * vj;
        }
    }
}

row_kernel! {
    /// Givens rotation of two rows: `(a, b) ← (c·a − s·b, s·a + c·b)`.
    fn rotate_rows(a: &mut [f64], b: &mut [f64], s: f64, c: f64) {
        for (aj, bj) in a.iter_mut().zip(b.iter_mut()) {
            let f = *bj;
            *bj = s * *aj + c * f;
            *aj = c * *aj - s * f;
        }
    }
}

/// `g_j = Σ_k coeffs[k]·v[k][j]` for `j < coeffs.len()`: a combination of
/// the leading rows of `v`, computed as row axpys so every inner loop
/// streams a row. Each `g_j` accumulates from `0.0` in ascending `k` (the
/// order of the equivalent dot product `Σ_k v[k][j]·coeffs[k]`), and the
/// column chunks are disjoint, so the result is bit-identical at any
/// thread count.
fn row_combination(v: &DMatrix, coeffs: &[f64]) -> Vec<f64> {
    let m = coeffs.len();
    let mut g = vec![0.0f64; m];
    let g_ptr = RowsPtr(g.as_mut_ptr());
    qp_par::run_region_hinted(m, m as u64, &|start, end| {
        // SAFETY: the chunk [start, end) of `g` is written by exactly this
        // executor.
        let g = unsafe { std::slice::from_raw_parts_mut(g_ptr.get().add(start), end - start) };
        for (k, &ck) in coeffs.iter().enumerate() {
            axpy(g, ck, &v.row(k)[start..end]);
        }
    });
    g
}

/// Householder reduction of a symmetric matrix to tridiagonal form.
///
/// Returns `(d, e, q)` where `d` is the diagonal, `e` the sub-diagonal
/// (`e[0]` unused) and `q` the accumulated orthogonal transform such that
/// `qᵀ a q = tridiag(d, e)`.
///
/// This is numerical-recipes `tred2` restructured so every inner loop
/// streams rows of the row-major matrix:
///
/// * the active block is kept *fully* symmetric (the rank-2 update writes
///   whole rows, and `x·y + z·w` equals `z·w + x·y` bit for bit, so
///   mirrored entries stay identical), so the `g = A·u` reduction can
///   read rows instead of strided columns;
/// * both that reduction and the `Q` accumulation `g_j = Σ_k v_ik v_kj`
///   run as row axpys ([`row_combination`]), each `g_j` still summed in
///   ascending `k` — the classic loop's sequence, so the output is
///   bit-identical to the textbook `tred2`.
///
/// Row combinations fan out over column chunks and row updates are
/// disjoint row sweeps; every element sees the same floating-point
/// sequence at any thread count, so the decomposition is bit-identical
/// between 1 and N threads. Each fan-out carries a flop-count cost hint:
/// at typical basis sizes (n ≈ 150) one Householder step is a few µs of
/// O(n²) work, below the scheduling break-even, so only genuinely large
/// matrices fan out.
fn tridiagonalize(a: &DMatrix) -> (Vec<f64>, Vec<f64>, DMatrix) {
    let n = a.rows();
    let mut v = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];

    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = v.row(i)[..=l].iter().map(|x| x.abs()).sum();
            if scale == 0.0 {
                e[i] = v[(i, l)];
            } else {
                for x in &mut v.row_mut(i)[..=l] {
                    *x /= scale;
                    h += *x * *x;
                }
                let f = v[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                v[(i, l)] = f - g;
                // g_j = Σ_{k≤l} v[j][k]·v[i][k]; the active block is
                // symmetric, so this is the row combination Σ_k u_k·row_k.
                let vi: Vec<f64> = v.row(i)[..=l].to_vec();
                let g_vals = row_combination(&v, &vi);
                let mut tau = 0.0;
                for (j, &g) in g_vals.iter().enumerate() {
                    v[(j, i)] = vi[j] / h;
                    e[j] = g / h;
                    tau += e[j] * vi[j];
                }
                let hh = tau / (h + h);
                for j in 0..=l {
                    e[j] -= hh * vi[j];
                }
                // Symmetric rank-2 update of the whole active block, one
                // disjoint row per index.
                let cols = v.cols();
                let base = RowsPtr(v.as_mut_slice().as_mut_ptr());
                qp_par::for_each_index_hinted(l + 1, (l + 1) as u64, |j| {
                    // SAFETY: row `j` of the leading (l+1)×cols block is
                    // written by exactly this index; `e` and `vi` are only
                    // read.
                    let row =
                        unsafe { std::slice::from_raw_parts_mut(base.get().add(j * cols), cols) };
                    rank2_row(&mut row[..=l], vi[j], &e[..=l], e[j], &vi);
                });
            }
        } else {
            e[i] = v[(i, l)];
        }
        d[i] = h;
    }

    d[0] = 0.0;
    e[0] = 0.0;
    let cols = v.cols();
    for i in 0..n {
        if d[i] != 0.0 {
            // Accumulate Q. Phase A: g = Σ_{k<i} v[i][k]·row_k[..i] from
            // pristine data. Phase B: the rank-1 update row-wise, each row
            // owned by one thread.
            let g_vals = row_combination(&v, &v.row(i)[..i]);
            let base = RowsPtr(v.as_mut_slice().as_mut_ptr());
            qp_par::for_each_index_hinted(i, i as u64, |r| {
                // SAFETY: row `r` of the leading i×cols block is written by
                // exactly this index; `g_vals` is only read.
                let row = unsafe { std::slice::from_raw_parts_mut(base.get().add(r * cols), cols) };
                let vki = row[i];
                sub_scaled(&mut row[..i], vki, &g_vals);
            });
        }
        d[i] = v[(i, i)];
        v[(i, i)] = 1.0;
        for j in 0..i {
            v[(j, i)] = 0.0;
            v[(i, j)] = 0.0;
        }
    }
    (d, e, v)
}

/// Implicit-shift QL iteration on a tridiagonal matrix (numerical-recipes
/// style `tqli`), accumulating the rotations into `zt`, the *transpose*
/// of the eigenvector matrix: each rotation mixes two contiguous rows
/// instead of two strided columns. Row `k` of `zt` ends as the
/// eigenvector of `d[k]`.
fn tql_implicit(d: &mut [f64], e: &mut [f64], zt: &mut DMatrix) -> Result<()> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    const MAX_ITER: usize = 64;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small sub-diagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_ITER {
                return Err(LinalgError::NoConvergence {
                    what: "tridiagonal QL",
                    iterations: MAX_ITER,
                });
            }
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            let mut i = m - 1;
            loop {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into rows i and i+1 of Zᵀ.
                let (lo, hi) = zt.as_mut_slice().split_at_mut((i + 1) * n);
                rotate_rows(&mut lo[i * n..], &mut hi[..n], s, c);
                if i == l {
                    break;
                }
                i -= 1;
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Eigenvalues (ascending) and the matching eigenvectors as the *rows* of
/// the returned matrix, of a matrix already exactly symmetric.
fn eigen_rows(sym: &DMatrix) -> Result<(Vec<f64>, DMatrix)> {
    let (mut d, mut e, z) = tridiagonalize(sym);
    let mut zt = z.transpose();
    tql_implicit(&mut d, &mut e, &mut zt)?;

    // Sort ascending, permuting eigenvector rows accordingly.
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).expect("finite eigenvalues"));
    let eigenvalues: Vec<f64> = order.iter().map(|&k| d[k]).collect();
    let mut rows = DMatrix::zeros(n, n);
    for (dst, &k) in order.iter().enumerate() {
        rows.row_mut(dst).copy_from_slice(zt.row(k));
    }
    Ok((eigenvalues, rows))
}

/// Full eigendecomposition of a symmetric matrix.
///
/// The input is symmetrized defensively (`(A + Aᵀ)/2`) — grid-integrated
/// operators are symmetric only to integration tolerance.
pub fn symmetric_eigen(a: &DMatrix) -> Result<EigenDecomposition> {
    if !a.is_square() {
        return Err(LinalgError::DimensionMismatch {
            op: "symmetric_eigen",
            dims: vec![a.rows(), a.cols()],
        });
    }
    let mut sym = a.clone();
    sym.symmetrize();
    let (eigenvalues, rows) = eigen_rows(&sym)?;
    Ok(EigenDecomposition {
        eigenvalues,
        eigenvectors: rows.transpose(),
    })
}

/// Generalized symmetric eigensolver `A x = λ B x` for one positive-
/// definite metric `B` (for us: `H C = ε S C`, Eq. 5), prepared once and
/// reused for every `A`.
///
/// [`GeneralizedEigen::new`] factors `B = L Lᵀ` and keeps the explicit
/// inverse factor `L⁻¹` (one extra `n × n` matrix). [`GeneralizedEigen::solve`]
/// then reduces with two blocked GEMMs, `C = L⁻¹ (L⁻¹ A)ᵀ = L⁻¹ A L⁻ᵀ`
/// (legal because `A` is symmetric), diagonalizes `C y = λ y`, and
/// back-transforms with a third, `Xᵀ = Yᵀ L⁻¹`. The SCF overlap never
/// changes, so the SCF loop factors it once per cycle. Returned
/// eigenvectors are `B`-orthonormal (`xᵢᵀ B xⱼ = δᵢⱼ`), exactly the
/// normalization the density matrix (Eq. 6) assumes.
///
/// Every step is bit-identical at any thread count: the GEMMs own each
/// output element on one thread in a fixed k-order, and the eigensolver's
/// row sweeps each own one row.
#[derive(Debug, Clone)]
pub struct GeneralizedEigen {
    linv: DMatrix,
}

impl GeneralizedEigen {
    /// Factor the metric `b` (symmetric positive definite).
    pub fn new(b: &DMatrix) -> Result<Self> {
        Ok(GeneralizedEigen {
            linv: Cholesky::new(b)?.l_inverse(),
        })
    }

    /// Eigenpairs of `a x = λ B x`, eigenvalues ascending.
    pub fn solve(&self, a: &DMatrix) -> Result<EigenDecomposition> {
        let n = self.linv.rows();
        if a.rows() != n || a.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "generalized_symmetric_eigen",
                dims: vec![a.rows(), a.cols(), n, n],
            });
        }
        let linv_a = self.linv.par_matmul(a)?;
        let mut c = self.linv.par_matmul(&linv_a.transpose())?;
        c.symmetrize();
        let (eigenvalues, yt) = eigen_rows(&c)?;
        let xt = yt.par_matmul(&self.linv)?;
        Ok(EigenDecomposition {
            eigenvalues,
            eigenvectors: xt.transpose(),
        })
    }
}

/// One-shot generalized symmetric eigenproblem `A x = λ B x`:
/// `GeneralizedEigen::new(b)?.solve(a)`. Callers that solve repeatedly
/// against the same `B` should keep the [`GeneralizedEigen`].
pub fn generalized_symmetric_eigen(a: &DMatrix, b: &DMatrix) -> Result<EigenDecomposition> {
    GeneralizedEigen::new(b)?.solve(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_eigen(a: &DMatrix, dec: &EigenDecomposition, tol: f64) {
        let n = a.rows();
        for k in 0..n {
            let x = dec.eigenvectors.col(k);
            let ax = a.matvec(&x).unwrap();
            for i in 0..n {
                assert!(
                    (ax[i] - dec.eigenvalues[k] * x[i]).abs() < tol,
                    "residual too large for eigenpair {k}"
                );
            }
        }
    }

    #[test]
    fn two_by_two_known() {
        let a = DMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let dec = symmetric_eigen(&a).unwrap();
        assert!((dec.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((dec.eigenvalues[1] - 3.0).abs() < 1e-12);
        check_eigen(&a, &dec, 1e-10);
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a =
            DMatrix::from_vec(3, 3, vec![5.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 2.0]).unwrap();
        let dec = symmetric_eigen(&a).unwrap();
        assert_eq!(dec.eigenvalues.len(), 3);
        assert!((dec.eigenvalues[0] + 1.0).abs() < 1e-12);
        assert!((dec.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((dec.eigenvalues[2] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn random_symmetric_residuals_small() {
        // Deterministic pseudo-random symmetric matrix.
        let n = 12;
        let mut seed = 42u64;
        let mut rand = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rand();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let dec = symmetric_eigen(&a).unwrap();
        check_eigen(&a, &dec, 1e-8);
        // Eigenvectors orthonormal.
        let vt_v = dec
            .eigenvectors
            .transpose()
            .matmul(&dec.eigenvectors)
            .unwrap();
        assert!(vt_v.max_abs_diff(&DMatrix::identity(n)) < 1e-8);
        // Trace preserved.
        let tr: f64 = dec.eigenvalues.iter().sum();
        assert!((tr - a.trace()).abs() < 1e-8);
    }

    #[test]
    fn generalized_reduces_to_standard_for_identity_b() {
        let a = DMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let b = DMatrix::identity(2);
        let dec = generalized_symmetric_eigen(&a, &b).unwrap();
        assert!((dec.eigenvalues[0] - 1.0).abs() < 1e-10);
        assert!((dec.eigenvalues[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn generalized_b_orthonormality() {
        let n = 6;
        let mut a = DMatrix::zeros(n, n);
        let mut b = DMatrix::identity(n);
        for i in 0..n {
            a[(i, i)] = (i as f64) - 2.0;
            if i + 1 < n {
                a[(i, i + 1)] = 0.5;
                a[(i + 1, i)] = 0.5;
                b[(i, i + 1)] = 0.2;
                b[(i + 1, i)] = 0.2;
            }
        }
        let dec = generalized_symmetric_eigen(&a, &b).unwrap();
        // Check A x = lambda B x.
        for k in 0..n {
            let x = dec.eigenvectors.col(k);
            let ax = a.matvec(&x).unwrap();
            let bx = b.matvec(&x).unwrap();
            for i in 0..n {
                assert!((ax[i] - dec.eigenvalues[k] * bx[i]).abs() < 1e-9);
            }
        }
        // Check x_i^T B x_j = delta_ij.
        for i in 0..n {
            for j in 0..n {
                let xi = dec.eigenvectors.col(i);
                let bxj = b.matvec(&dec.eigenvectors.col(j)).unwrap();
                let dot: f64 = xi.iter().zip(bxj.iter()).map(|(p, q)| p * q).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-9, "B-orthonormality ({i},{j})");
            }
        }
    }

    #[test]
    fn eigen_bit_identical_across_thread_counts() {
        let n = 40;
        let mut seed = 7u64;
        let mut rand = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rand();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let serial = {
            let _g = qp_par::ThreadLease::exactly(1);
            symmetric_eigen(&a).unwrap()
        };
        let parallel = {
            let _g = qp_par::ThreadLease::exactly(8);
            symmetric_eigen(&a).unwrap()
        };
        assert_eq!(serial.eigenvalues, parallel.eigenvalues);
        assert_eq!(
            serial.eigenvectors.as_slice(),
            parallel.eigenvectors.as_slice(),
            "tridiagonalization must be bit-identical across thread counts"
        );
    }

    fn random_symmetric(n: usize, seed: u64) -> DMatrix {
        let mut seed = seed;
        let mut rand = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rand();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    /// SPD metric `Q diag(σ) Qᵀ` with `σ` log-spaced over
    /// `[10^-decades, 1]` and `Q` the eigenvectors of a random symmetric
    /// matrix: condition number `10^decades`.
    fn conditioned_spd(n: usize, decades: f64, seed: u64) -> DMatrix {
        let q = symmetric_eigen(&random_symmetric(n, seed))
            .unwrap()
            .eigenvectors;
        let qs = DMatrix::from_fn(n, n, |i, k| {
            q[(i, k)] * 10f64.powf(-decades * k as f64 / (n - 1) as f64)
        });
        let mut b = qs.matmul(&q.transpose()).unwrap();
        b.symmetrize();
        b
    }

    #[test]
    fn row_kernels_match_plain_loops_bit_for_bit() {
        // On AVX2 hosts the kernels dispatch to their AVX2 build; this
        // test's own loops are baseline code. Ragged length exercises the
        // vector tails.
        let n = 203;
        let m = random_symmetric(n, 77);
        let (x0, y, z) = (m.row(0).to_vec(), m.row(1).to_vec(), m.row(2).to_vec());
        let (a, b) = (0.37, -1.9);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut got = x0.clone();
        axpy(&mut got, a, &y);
        let want: Vec<f64> = x0.iter().zip(&y).map(|(x, y)| x + a * y).collect();
        assert_eq!(bits(&got), bits(&want), "axpy");

        let mut got = x0.clone();
        sub_scaled(&mut got, a, &y);
        let want: Vec<f64> = x0.iter().zip(&y).map(|(x, y)| x - y * a).collect();
        assert_eq!(bits(&got), bits(&want), "sub_scaled");

        let mut got = x0.clone();
        rank2_row(&mut got, a, &y, b, &z);
        let want: Vec<f64> = (0..n).map(|j| x0[j] - (a * y[j] + b * z[j])).collect();
        assert_eq!(bits(&got), bits(&want), "rank2_row");

        let (mut p, mut q) = (x0.clone(), y.clone());
        rotate_rows(&mut p, &mut q, a, b);
        let want_p: Vec<f64> = (0..n).map(|j| b * x0[j] - a * y[j]).collect();
        let want_q: Vec<f64> = (0..n).map(|j| a * x0[j] + b * y[j]).collect();
        assert_eq!(bits(&p), bits(&want_p), "rotate_rows a");
        assert_eq!(bits(&q), bits(&want_q), "rotate_rows b");
    }

    #[test]
    fn prepared_solve_matches_one_shot_bit_for_bit() {
        let n = 60;
        let b = conditioned_spd(n, 3.0, 11);
        let prepared = GeneralizedEigen::new(&b).unwrap();
        for seed in [1u64, 2] {
            let a = random_symmetric(n, seed);
            let once = generalized_symmetric_eigen(&a, &b).unwrap();
            let again = prepared.solve(&a).unwrap();
            assert_eq!(once.eigenvalues, again.eigenvalues);
            assert_eq!(once.eigenvectors.as_slice(), again.eigenvectors.as_slice());
        }
    }

    #[test]
    fn generalized_bit_identical_across_thread_counts_at_n226() {
        // n = 226 spans two GEMM row blocks, so the reduction and
        // back-transform fan out.
        let n = 226;
        let a = random_symmetric(n, 5);
        let b = conditioned_spd(n, 4.0, 6);
        let run = |threads: usize| {
            let _g = qp_par::ThreadLease::exactly(threads);
            generalized_symmetric_eigen(&a, &b).unwrap()
        };
        let serial = run(1);
        for threads in [2, 8] {
            let par = run(threads);
            assert_eq!(serial.eigenvalues, par.eigenvalues, "{threads} threads");
            assert_eq!(
                serial.eigenvectors.as_slice(),
                par.eigenvectors.as_slice(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn ill_conditioned_metric_residual_and_orthonormality_n226() {
        let n = 226;
        let a = random_symmetric(n, 21);
        let b = conditioned_spd(n, 6.0, 22);
        let dec = generalized_symmetric_eigen(&a, &b).unwrap();
        let x = &dec.eigenvectors;
        let ax = a.matmul(x).unwrap();
        let bx = b.matmul(x).unwrap();
        // |λ| reaches ~1e6 here, so each pair's residual is measured on
        // its own scale: ‖Ax − λBx‖∞ / (1 + |λ|).
        let mut worst_res = 0.0f64;
        for k in 0..n {
            let lam = dec.eigenvalues[k];
            for i in 0..n {
                let r = (ax[(i, k)] - lam * bx[(i, k)]).abs() / (1.0 + lam.abs());
                worst_res = worst_res.max(r);
            }
        }
        assert!(worst_res < 1e-9, "scaled residual {worst_res:e}");
        let xtbx = x.transpose().matmul(&bx).unwrap();
        let ortho = xtbx.max_abs_diff(&DMatrix::identity(n));
        assert!(ortho < 1e-9, "‖XᵀBX − I‖∞ = {ortho:e}");
        // Oracle: the reduction by column-wise triangular solves.
        let chol = Cholesky::new(&b).unwrap();
        let solve_cols = |m: &DMatrix| {
            let cols: Vec<Vec<f64>> = (0..n).map(|j| chol.solve_lower(&m.col(j))).collect();
            DMatrix::from_fn(n, n, |i, j| cols[j][i])
        };
        let mut c = solve_cols(&solve_cols(&a).transpose());
        c.symmetrize();
        let oracle = symmetric_eigen(&c).unwrap();
        for (p, q) in oracle.eigenvalues.iter().zip(&dec.eigenvalues) {
            assert!((p - q).abs() < 1e-9 * (1.0 + q.abs()), "λ {p} vs {q}");
        }
    }

    #[test]
    fn one_by_one() {
        let a = DMatrix::from_vec(1, 1, vec![7.0]).unwrap();
        let dec = symmetric_eigen(&a).unwrap();
        assert_eq!(dec.eigenvalues, vec![7.0]);
    }

    #[test]
    fn non_square_rejected() {
        let a = DMatrix::zeros(2, 3);
        assert!(symmetric_eigen(&a).is_err());
    }
}
