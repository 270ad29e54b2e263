//! DIIS (Pulay's direct inversion in the iterative subspace) convergence
//! acceleration.
//!
//! GAMESS runs SCF with DIIS by default, and the paper's benchmarks measure
//! full SCF runs; without acceleration the iteration counts (and hence
//! timings) would not be comparable. Standard commutator formulation: the
//! error vector is `e = Xᵀ (F D S - S D F) X`, and the extrapolated Fock is
//! the linear combination minimizing `|sum c_k e_k|` under `sum c_k = 1`.

use phi_linalg::{solve, Mat};
use std::collections::VecDeque;

/// DIIS history and extrapolation.
pub struct Diis {
    max_len: usize,
    history: VecDeque<(Mat, Mat)>, // (Fock, error)
}

impl Diis {
    /// `max_len` is the history window (GAMESS uses ~10; 8 here).
    pub fn new(max_len: usize) -> Diis {
        assert!(max_len >= 2);
        Diis { max_len, history: VecDeque::new() }
    }

    /// Commutator error `Xᵀ (F D S − S D F) X`.
    pub fn error_vector(f: &Mat, d: &Mat, s: &Mat, x: &Mat) -> Mat {
        let fds = f.matmul(d).matmul(s);
        let sdf = s.matmul(d).matmul(f);
        fds.sub(&sdf).congruence(x)
    }

    /// Push a new `(F, error)` pair and return the extrapolated Fock
    /// matrix. Falls back to the raw `F` while the history is short or the
    /// DIIS system is singular.
    pub fn extrapolate(&mut self, f: Mat, err: Mat) -> Mat {
        self.history.push_back((f, err));
        if self.history.len() > self.max_len {
            self.history.pop_front();
        }
        let m = self.history.len();
        if m < 2 {
            return self.history.back().expect("just pushed").0.clone();
        }
        // B c = rhs with B_kl = <e_k, e_l>, bordered by the constraint row.
        let dim = m + 1;
        let mut b = Mat::zeros(dim, dim);
        for k in 0..m {
            for l in 0..=k {
                let v = self.history[k].1.dot(&self.history[l].1);
                b[(k, l)] = v;
                b[(l, k)] = v;
            }
            b[(k, m)] = -1.0;
            b[(m, k)] = -1.0;
        }
        let mut rhs = vec![0.0; dim];
        rhs[m] = -1.0;
        match solve(&b, &rhs) {
            Some(c) => {
                let newest = &self.history[m - 1].0;
                let mut out = Mat::zeros(newest.rows(), newest.cols());
                for (k, (fk, _)) in self.history.iter().enumerate() {
                    out.axpy(c[k], fk);
                }
                out
            }
            // Singular B (e.g. duplicate errors): drop the oldest entry and
            // use the raw Fock this iteration.
            None => {
                self.history.pop_front();
                self.history.back().expect("non-empty").0.clone()
            }
        }
    }

    pub fn len(&self) -> usize {
        self.history.len()
    }

    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_push_returns_raw_fock() {
        let mut diis = Diis::new(4);
        let f = Mat::from_fn(3, 3, |i, j| (i + j) as f64);
        let e = Mat::zeros(3, 3);
        let out = diis.extrapolate(f.clone(), e);
        assert_eq!(out.max_abs_diff(&f), 0.0);
    }

    #[test]
    fn exact_linear_combination_is_recovered() {
        // Two Focks with opposite errors: the minimizing combination is the
        // average (errors cancel exactly).
        let mut diis = Diis::new(4);
        let f1 = Mat::from_fn(2, 2, |i, j| if i == j { 1.0 } else { 0.1 });
        let f2 = Mat::from_fn(2, 2, |i, j| if i == j { 3.0 } else { -0.1 });
        let e1 = Mat::from_fn(2, 2, |_, _| 1.0);
        let e2 = Mat::from_fn(2, 2, |_, _| -1.0);
        diis.extrapolate(f1.clone(), e1);
        let out = diis.extrapolate(f2.clone(), e2);
        let avg = Mat::from_fn(2, 2, |i, j| 0.5 * (f1[(i, j)] + f2[(i, j)]));
        assert!(out.max_abs_diff(&avg) < 1e-10);
    }

    #[test]
    fn history_is_bounded() {
        let mut diis = Diis::new(3);
        for k in 0..10 {
            let f = Mat::from_fn(2, 2, |i, j| (i * 2 + j + k) as f64);
            let e = Mat::from_fn(2, 2, |i, j| ((i + j + k) as f64).sin());
            diis.extrapolate(f, e);
        }
        assert_eq!(diis.len(), 3);
    }

    #[test]
    fn singular_system_falls_back_gracefully() {
        let mut diis = Diis::new(4);
        let f = Mat::identity(2);
        let e = Mat::zeros(2, 2); // zero errors make B singular
        diis.extrapolate(f.clone(), e.clone());
        let out = diis.extrapolate(f.clone(), e);
        // Must return a finite matrix without panicking.
        assert!(out.max_abs() < 10.0);
    }
}
