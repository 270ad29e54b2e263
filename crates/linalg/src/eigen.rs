//! Symmetric eigensolvers.
//!
//! [`eigh`] is the workhorse: Householder reduction to tridiagonal form
//! followed by the implicit-shift QL iteration, both with accumulation of the
//! orthogonal transformations (the classic EISPACK `tred2`/`tql2` pair,
//! translated to 0-based Rust). Cost is O(n^3) with a small constant; this is
//! the same algorithmic family GAMESS uses for Fock diagonalization.
//!
//! [`jacobi_eigh`] is a cyclic Jacobi solver kept as an independent
//! cross-check for the test suite: it shares no code with `eigh`, so
//! agreement between the two is strong evidence of correctness.

use crate::matrix::Mat;

/// Eigendecomposition of a real symmetric matrix: `A = V diag(values) Vᵀ`.
///
/// Eigenvalues are sorted ascending; column `k` of `vectors` is the unit
/// eigenvector for `values[k]`.
#[derive(Clone, Debug)]
pub struct Eigh {
    pub values: Vec<f64>,
    /// Orthogonal matrix whose *columns* are the eigenvectors.
    pub vectors: Mat,
}

impl Eigh {
    /// Reconstruct `V diag(f(lambda)) Vᵀ` for an arbitrary spectral function.
    pub fn apply(&self, f: impl Fn(f64) -> f64) -> Mat {
        let n = self.values.len();
        let v = &self.vectors;
        let mut scaled = Mat::zeros(n, n);
        for k in 0..n {
            let fk = f(self.values[k]);
            for i in 0..n {
                scaled[(i, k)] = v[(i, k)] * fk;
            }
        }
        scaled.matmul_nt(v)
    }
}

/// Full eigendecomposition of a symmetric matrix.
///
/// Panics if `a` is not square; symmetry is the caller's responsibility (only
/// the full matrix is read, and a badly asymmetric input gives meaningless
/// results — SCF callers symmetrize first). A matrix with a NaN or infinite
/// entry has no decomposition: every value and vector entry is NaN, so the
/// NaN reaches the caller's result instead of stalling the QL sweeps.
pub fn eigh(a: &Mat) -> Eigh {
    assert!(a.is_square(), "eigh requires a square matrix");
    let n = a.rows();
    if n == 0 {
        return Eigh { values: vec![], vectors: Mat::zeros(0, 0) };
    }
    if !a.as_slice().iter().all(|v| v.is_finite()) {
        return Eigh { values: vec![f64::NAN; n], vectors: Mat::from_fn(n, n, |_, _| f64::NAN) };
    }
    let mut z = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tred2(&mut z, &mut d, &mut e);
    tql2(&mut z, &mut d, &mut e);
    sort_pairs(&mut d, &mut z);
    Eigh { values: d, vectors: z }
}

/// Householder reduction of a symmetric matrix to tridiagonal form with
/// accumulation of transformations (EISPACK `tred2`).
///
/// On exit `d` holds the diagonal, `e[1..]` the subdiagonal, and `z` the
/// accumulated orthogonal transform.
fn tred2(z: &mut Mat, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = (0..=l).map(|k| z[(i, k)].abs()).sum();
            if scale == 0.0 {
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    z[(i, k)] /= scale;
                    h += z[(i, k)] * z[(i, k)];
                }
                let f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                let mut f_acc = 0.0;
                for j in 0..=l {
                    z[(j, i)] = z[(i, j)] / h;
                    let mut g = 0.0;
                    for k in 0..=j {
                        g += z[(j, k)] * z[(i, k)];
                    }
                    for k in (j + 1)..=l {
                        g += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g / h;
                    f_acc += e[j] * z[(i, j)];
                }
                let hh = f_acc / (h + h);
                for j in 0..=l {
                    let f = z[(i, j)];
                    let gj = e[j] - hh * f;
                    e[j] = gj;
                    for k in 0..=j {
                        let delta = f * e[k] + gj * z[(i, k)];
                        z[(j, k)] -= delta;
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        if d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += z[(i, k)] * z[(k, j)];
                }
                for k in 0..i {
                    let delta = g * z[(k, i)];
                    z[(k, j)] -= delta;
                }
            }
        }
        d[i] = z[(i, i)];
        z[(i, i)] = 1.0;
        for j in 0..i {
            z[(j, i)] = 0.0;
            z[(i, j)] = 0.0;
        }
    }
}

/// Implicit-shift QL iteration for a symmetric tridiagonal matrix with
/// eigenvector accumulation (EISPACK `tql2`).
fn tql2(z: &mut Mat, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    if n == 1 {
        return;
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Look for a single small subdiagonal element to split the matrix.
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
            assert!(
                iter <= 64,
                "tql2 eigensolver failed to converge after 64 QL sweeps on row {l} of an \
                 {n}x{n} matrix (residual off-diagonal {:.3e}) — the input is \
                 catastrophically ill-conditioned",
                e[l].abs()
            );

            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow: deflate and restart this l.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
}

/// Sort eigenpairs ascending by eigenvalue (selection sort with column swaps,
/// matching what tql2 callers conventionally do).
fn sort_pairs(d: &mut [f64], z: &mut Mat) {
    let n = d.len();
    for i in 0..n {
        let mut k = i;
        for j in (i + 1)..n {
            if d[j] < d[k] {
                k = j;
            }
        }
        if k != i {
            d.swap(i, k);
            for row in 0..n {
                let tmp = z[(row, i)];
                z[(row, i)] = z[(row, k)];
                z[(row, k)] = tmp;
            }
        }
    }
}

/// Cyclic Jacobi eigensolver: independent cross-check implementation.
///
/// Slower than [`eigh`] (O(n^3) per sweep, several sweeps), but extremely
/// robust and algorithmically unrelated, which makes it valuable in tests.
pub fn jacobi_eigh(a: &Mat) -> Eigh {
    assert!(a.is_square(), "jacobi_eigh requires a square matrix, got {}x{}", a.rows(), a.cols());
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Mat::identity(n);
    for _sweep in 0..100 {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() <= 1e-14 * (1.0 + m.frobenius_norm()) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let theta = (m[(q, q)] - m[(p, p)]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut d: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    sort_pairs(&mut d, &mut v);
    Eigh { values: d, vectors: v }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_symmetric(n: usize, seed: u64) -> Mat {
        // Small deterministic LCG so tests need no external RNG.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let x = next();
                a[(i, j)] = x;
                a[(j, i)] = x;
            }
        }
        a
    }

    fn check_decomposition(a: &Mat, eig: &Eigh, tol: f64) {
        let n = a.rows();
        // A V = V diag(lambda)
        let av = a.matmul(&eig.vectors);
        for k in 0..n {
            for i in 0..n {
                let want = eig.vectors[(i, k)] * eig.values[k];
                assert!(
                    (av[(i, k)] - want).abs() < tol,
                    "residual too large at ({i},{k}): {} vs {}",
                    av[(i, k)],
                    want
                );
            }
        }
        // Vᵀ V = I
        let vtv = eig.vectors.matmul_tn(&eig.vectors);
        assert!(vtv.max_abs_diff(&Mat::identity(n)) < tol, "vectors not orthonormal");
        // ascending order
        for k in 1..n {
            assert!(eig.values[k] >= eig.values[k - 1] - 1e-12);
        }
    }

    #[test]
    fn two_by_two_analytic() {
        let a = Mat::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let eig = eigh(&a);
        assert!((eig.values[0] - 1.0).abs() < 1e-12);
        assert!((eig.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_non_finite_entry_gives_nan_not_a_panic() {
        for bad in [f64::NAN, f64::INFINITY] {
            let a = Mat::from_vec(2, 2, vec![2.0, bad, bad, 2.0]);
            let eig = eigh(&a);
            assert!(eig.values.iter().chain(eig.vectors.as_slice()).all(|v| v.is_nan()));
        }
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let a = Mat::from_fn(5, 5, |i, j| if i == j { (i as f64) - 2.0 } else { 0.0 });
        let eig = eigh(&a);
        for (k, want) in [-2.0, -1.0, 0.0, 1.0, 2.0].iter().enumerate() {
            assert!((eig.values[k] - want).abs() < 1e-13);
        }
        check_decomposition(&a, &eig, 1e-12);
    }

    #[test]
    fn random_matrices_decompose() {
        for (n, seed) in [(1, 7), (2, 8), (3, 9), (10, 10), (25, 11), (50, 12)] {
            let a = random_symmetric(n, seed);
            let eig = eigh(&a);
            check_decomposition(&a, &eig, 1e-9 * (n as f64));
        }
    }

    #[test]
    fn degenerate_eigenvalues() {
        // Projector-like matrix with eigenvalues {0, 0, 3}.
        let mut a = Mat::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                a[(i, j)] = 1.0;
            }
        }
        let eig = eigh(&a);
        assert!(eig.values[0].abs() < 1e-12);
        assert!(eig.values[1].abs() < 1e-12);
        assert!((eig.values[2] - 3.0).abs() < 1e-12);
        check_decomposition(&a, &eig, 1e-11);
    }

    #[test]
    fn agrees_with_jacobi() {
        for (n, seed) in [(6, 21), (17, 22), (31, 23)] {
            let a = random_symmetric(n, seed);
            let e1 = eigh(&a);
            let e2 = jacobi_eigh(&a);
            for k in 0..n {
                assert!(
                    (e1.values[k] - e2.values[k]).abs() < 1e-9,
                    "eigenvalue {k} mismatch: {} vs {}",
                    e1.values[k],
                    e2.values[k]
                );
            }
            check_decomposition(&a, &e2, 1e-8 * n as f64);
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = random_symmetric(20, 99);
        let eig = eigh(&a);
        let sum: f64 = eig.values.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-10);
    }

    #[test]
    fn spectral_apply_reconstructs() {
        let a = random_symmetric(12, 5);
        let eig = eigh(&a);
        let rebuilt = eig.apply(|x| x);
        assert!(rebuilt.max_abs_diff(&a) < 1e-10);
        // f(x) = x^2 should equal A*A.
        let sq = eig.apply(|x| x * x);
        assert!(sq.max_abs_diff(&a.matmul(&a)) < 1e-9);
    }

    #[test]
    fn empty_and_single() {
        let e = eigh(&Mat::zeros(0, 0));
        assert!(e.values.is_empty());
        let a = Mat::from_vec(1, 1, vec![4.25]);
        let e = eigh(&a);
        assert_eq!(e.values, vec![4.25]);
        assert!((e.vectors[(0, 0)].abs() - 1.0).abs() < 1e-15);
    }
}
