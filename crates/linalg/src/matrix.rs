//! Dense row-major matrix type and the handful of BLAS-level operations the
//! SCF code needs.
//!
//! Products use a blocked i-k-j loop order so the innermost loop streams
//! contiguously over rows of the right operand; this is the standard
//! cache-friendly ordering for row-major data and is enough for the matrix
//! sizes driven by real SCF runs in this workspace (up to a few thousand).

use std::fmt;
use std::ops::{Index, IndexMut};

/// Cache-blocking tile edge for matrix products, in elements.
///
/// 64 x 64 f64 tiles (32 KiB per operand pair) fit comfortably in L1/L2 on
/// any machine this runs on; the exact value is not performance-critical for
/// the matrix sizes exercised here.
const BLOCK: usize = 64;

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Wrap an existing row-major buffer. Panics if the length does not match.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length does not match shape");
        Mat { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// `self * other`.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut c = Mat::zeros(m, n);
        for ib in (0..m).step_by(BLOCK) {
            for kb in (0..k).step_by(BLOCK) {
                for jb in (0..n).step_by(BLOCK) {
                    let imax = (ib + BLOCK).min(m);
                    let kmax = (kb + BLOCK).min(k);
                    let jmax = (jb + BLOCK).min(n);
                    for i in ib..imax {
                        for kk in kb..kmax {
                            let aik = self.data[i * k + kk];
                            if aik == 0.0 {
                                continue;
                            }
                            let brow = &other.data[kk * n + jb..kk * n + jmax];
                            let crow = &mut c.data[i * n + jb..i * n + jmax];
                            for (cv, bv) in crow.iter_mut().zip(brow) {
                                *cv += aik * bv;
                            }
                        }
                    }
                }
            }
        }
        c
    }

    /// `selfᵀ * other` without materializing the transpose.
    pub fn matmul_tn(&self, other: &Mat) -> Mat {
        assert_eq!(self.rows, other.rows, "inner dimensions must agree");
        let (m, k, n) = (self.cols, self.rows, other.cols);
        let mut c = Mat::zeros(m, n);
        for kk in 0..k {
            let arow = self.row(kk);
            let brow = other.row(kk);
            for (i, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let crow = &mut c.data[i * n..(i + 1) * n];
                for (cv, bv) in crow.iter_mut().zip(brow) {
                    *cv += aik * bv;
                }
            }
        }
        c
    }

    /// `self * otherᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.cols, "inner dimensions must agree");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut c = Mat::zeros(m, n);
        for i in 0..m {
            let arow = self.row(i);
            for j in 0..n {
                let brow = &other.data[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (av, bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                c.data[i * n + j] = acc;
            }
        }
        c
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Mat) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Elementwise sum `self + other`.
    pub fn add(&self, other: &Mat) -> Mat {
        let mut out = self.clone();
        out.axpy(1.0, other);
        out
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Mat) -> Mat {
        let mut out = self.clone();
        out.axpy(-1.0, other);
        out
    }

    pub fn trace(&self) -> f64 {
        assert!(
            self.is_square(),
            "trace requires a square matrix, got {}x{}",
            self.rows,
            self.cols
        );
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius inner product `sum_ij self_ij * other_ij`.
    pub fn dot(&self, other: &Mat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, x| m.max(x.abs()))
    }

    /// Largest absolute elementwise difference to `other`.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Whether `|self_ij - self_ji| <= tol` everywhere.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..i {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Force exact symmetry by averaging mirror elements (useful to kill
    /// last-bit asymmetry accumulated during parallel Fock builds).
    pub fn symmetrize(&mut self) {
        assert!(
            self.is_square(),
            "symmetrize requires a square matrix, got {}x{}",
            self.rows,
            self.cols
        );
        for i in 0..self.rows {
            for j in 0..i {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len());
        (0..self.rows).map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum()).collect()
    }

    /// Congruence transform `xᵀ * self * x` (e.g. Fock orthogonalization).
    pub fn congruence(&self, x: &Mat) -> Mat {
        x.matmul_tn(&self.matmul(x))
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:12.6} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Mat::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let id = Mat::identity(3);
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn matmul_matches_hand_computed() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        approx(c[(0, 0)], 58.0);
        approx(c[(0, 1)], 64.0);
        approx(c[(1, 0)], 139.0);
        approx(c[(1, 1)], 154.0);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Mat::from_fn(4, 3, |i, j| (i + 2 * j) as f64 * 0.5 + 1.0);
        let b = Mat::from_fn(4, 5, |i, j| (i * j) as f64 - 1.5);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-14);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Mat::from_fn(4, 3, |i, j| (i + j) as f64);
        let b = Mat::from_fn(5, 3, |i, j| (2 * i + j) as f64 * 0.25);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-14);
    }

    #[test]
    fn blocked_matmul_matches_naive_on_non_multiple_sizes() {
        // Sizes deliberately not multiples of the blocking factor.
        let (m, k, n) = (70, 65, 67);
        let a = Mat::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let b = Mat::from_fn(k, n, |i, j| ((i * 7 + j * 29) % 11) as f64 - 5.0);
        let c = a.matmul(&b);
        // Naive check at a few positions.
        for &(i, j) in &[(0, 0), (69, 66), (33, 41), (12, 64)] {
            let want: f64 = (0..k).map(|kk| a[(i, kk)] * b[(kk, j)]).sum();
            approx(c[(i, j)], want);
        }
    }

    #[test]
    fn congruence_transform() {
        let a = Mat::from_fn(3, 3, |i, j| ((i + j) as f64).cos());
        let x = Mat::from_fn(3, 2, |i, j| (i as f64 + 1.0) * (j as f64 + 0.5));
        let c = a.congruence(&x);
        let slow = x.transpose().matmul(&a).matmul(&x);
        assert!(c.max_abs_diff(&slow) < 1e-12);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
    }

    #[test]
    fn symmetrize_and_is_symmetric() {
        let mut a = Mat::from_fn(4, 4, |i, j| (i as f64) - (j as f64) * 1e-14 + (i * j) as f64);
        assert!(!a.is_symmetric(1e-16));
        a.symmetrize();
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn trace_dot_norms() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        approx(a.trace(), 5.0);
        approx(a.dot(&a), 30.0);
        approx(a.frobenius_norm(), 30.0f64.sqrt());
        approx(a.max_abs(), 4.0);
    }

    #[test]
    fn matvec() {
        let a = Mat::from_vec(2, 3, vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.0]);
        let y = a.matvec(&[1.0, 2.0, 3.0]);
        approx(y[0], -2.0);
        approx(y[1], 4.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
