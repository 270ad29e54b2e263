//! Initial guess for the SCF iterations.
//!
//! The paper's workflow (§3): build the core Hamiltonian, diagonalize it in
//! the orthogonalized basis, occupy the lowest orbitals, and form the
//! initial density from the resulting MO coefficients.

use phi_linalg::{eigh, Mat};

/// Solve the Roothaan equations `F C = S C eps` for a given Fock matrix
/// using a precomputed orthogonalizer `X` (`Xᵀ S X = 1`): diagonalize
/// `F' = Xᵀ F X`, back-transform `C = X C'`.
///
/// Returns `(orbital energies, C)` with orbitals sorted by energy.
pub fn solve_roothaan(f: &Mat, x: &Mat) -> (Vec<f64>, Mat) {
    let f_prime = f.congruence(x);
    let eig = eigh(&f_prime);
    let c = x.matmul(&eig.vectors);
    (eig.values, c)
}

/// Closed-shell density matrix `D = 2 C_occ C_occᵀ` from the `n_occ`
/// lowest orbitals.
pub fn density_from_orbitals(c: &Mat, n_occ: usize) -> Mat {
    let n = c.rows();
    let mut d = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut v = 0.0;
            for k in 0..n_occ {
                v += c[(i, k)] * c[(j, k)];
            }
            v *= 2.0;
            d[(i, j)] = v;
            d[(j, i)] = v;
        }
    }
    d
}

/// Core-Hamiltonian guess: diagonalize `H_core` itself.
pub fn core_guess(h: &Mat, x: &Mat, n_occ: usize) -> Mat {
    let (_e, c) = solve_roothaan(h, x);
    density_from_orbitals(&c, n_occ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::basis::{BasisName, BasisSet};
    use phi_chem::geom::small;
    use phi_integrals::{kinetic_matrix, nuclear_attraction_matrix, overlap_matrix};
    use phi_linalg::sym_inv_sqrt;

    fn water_setup() -> (Mat, Mat, usize) {
        let mol = small::water();
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let s = overlap_matrix(&b);
        let h = kinetic_matrix(&b).add(&nuclear_attraction_matrix(&b, &mol));
        let x = sym_inv_sqrt(&s, 1e-8);
        (h, x, mol.n_occupied())
    }

    #[test]
    fn guess_density_has_correct_electron_count() {
        let (h, x, n_occ) = water_setup();
        let d = core_guess(&h, &x, n_occ);
        // tr(D S) = N_electrons; with X from the same S:
        let mol = small::water();
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let s = overlap_matrix(&b);
        let tr = d.matmul(&s).trace();
        assert!((tr - 2.0 * n_occ as f64).abs() < 1e-8, "tr(DS) = {tr}");
    }

    #[test]
    fn guess_density_is_symmetric_and_idempotent_in_s_metric() {
        let (h, x, n_occ) = water_setup();
        let d = core_guess(&h, &x, n_occ);
        assert!(d.is_symmetric(1e-12));
        // D S D = 2 D for an idempotent closed-shell density.
        let mol = small::water();
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let s = overlap_matrix(&b);
        let dsd = d.matmul(&s).matmul(&d);
        assert!(dsd.max_abs_diff(&d.add(&d)) < 1e-8);
    }

    #[test]
    fn orbital_energies_sorted() {
        let (h, x, _) = water_setup();
        let (e, _c) = solve_roothaan(&h, &x);
        for w in e.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn orbitals_are_s_orthonormal() {
        let (h, x, _) = water_setup();
        let (_e, c) = solve_roothaan(&h, &x);
        let mol = small::water();
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let s = overlap_matrix(&b);
        let ctsc = s.congruence(&c);
        assert!(ctsc.max_abs_diff(&Mat::identity(c.cols())) < 1e-8);
    }
}
