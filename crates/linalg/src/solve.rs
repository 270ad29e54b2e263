//! LU factorization with partial pivoting and linear solves.
//!
//! Used for the small DIIS extrapolation systems (dimension = history length
//! + 1, typically <= 9), so clarity wins over blocking here.

use crate::matrix::Mat;

/// LU factors `P A = L U` stored compactly (Doolittle, unit-diagonal L).
#[derive(Clone, Debug)]
struct LuFactors {
    lu: Mat,
    /// Row permutation: row `i` of the factored matrix came from `perm[i]`
    /// of the original.
    perm: Vec<usize>,
}

/// Factor a square matrix. Returns `None` if the matrix is numerically
/// singular (a pivot smaller than `1e-300` is encountered).
fn lu_factor(a: &Mat) -> Option<LuFactors> {
    assert!(a.is_square(), "lu_factor requires a square matrix");
    let n = a.rows();
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Partial pivoting: largest magnitude in column k at/below the diagonal.
        let mut piv = k;
        let mut max = lu[(k, k)].abs();
        for i in (k + 1)..n {
            let v = lu[(i, k)].abs();
            if v > max {
                max = v;
                piv = i;
            }
        }
        if max < 1e-300 {
            return None;
        }
        if piv != k {
            for j in 0..n {
                let tmp = lu[(k, j)];
                lu[(k, j)] = lu[(piv, j)];
                lu[(piv, j)] = tmp;
            }
            perm.swap(k, piv);
        }
        let pivot = lu[(k, k)];
        for i in (k + 1)..n {
            let m = lu[(i, k)] / pivot;
            lu[(i, k)] = m;
            for j in (k + 1)..n {
                let delta = m * lu[(k, j)];
                lu[(i, j)] -= delta;
            }
        }
    }
    Some(LuFactors { lu, perm })
}

/// Solve `A x = b` given precomputed factors.
fn lu_solve(f: &LuFactors, b: &[f64]) -> Vec<f64> {
    let n = f.lu.rows();
    assert_eq!(b.len(), n);
    // Apply permutation, then forward substitution (L has unit diagonal).
    let mut y: Vec<f64> = (0..n).map(|i| b[f.perm[i]]).collect();
    for i in 0..n {
        for j in 0..i {
            let delta = f.lu[(i, j)] * y[j];
            y[i] -= delta;
        }
    }
    // Back substitution with U.
    for i in (0..n).rev() {
        for j in (i + 1)..n {
            let delta = f.lu[(i, j)] * y[j];
            y[i] -= delta;
        }
        y[i] /= f.lu[(i, i)];
    }
    y
}

/// One-shot solve of `A x = b`. Returns `None` for singular `A`.
pub fn solve(a: &Mat, b: &[f64]) -> Option<Vec<f64>> {
    lu_factor(a).map(|f| lu_solve(&f, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        let a = Mat::from_vec(3, 3, vec![2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0]);
        let b = [8.0, -11.0, -3.0];
        let x = solve(&a, &b).unwrap();
        let want = [2.0, 3.0, -1.0];
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn residual_is_small_on_random_systems() {
        let mut state = 42u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for n in [1usize, 2, 5, 20, 40] {
            let a = Mat::from_fn(n, n, |_, _| next());
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            if let Some(x) = solve(&a, &b) {
                let r = a.matvec(&x);
                for i in 0..n {
                    assert!((r[i] - b[i]).abs() < 1e-8, "residual too large for n={n}");
                }
            }
        }
    }

    #[test]
    fn singular_matrix_returns_none() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(solve(&a, &[1.0, 1.0]).is_none());
    }

    #[test]
    fn pivoting_handles_zero_leading_element() {
        let a = Mat::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve(&a, &[5.0, 6.0]).unwrap();
        assert!((x[0] - 6.0).abs() < 1e-14);
        assert!((x[1] - 5.0).abs() < 1e-14);
    }
}
