//! Molecular properties from a converged density: dipole moment and
//! Mulliken population analysis (charges and spin populations).
//!
//! These are standard GAMESS property outputs ("maintaining full
//! functionality of the underlying GAMESS code" is one of the paper's
//! stated constraints); they also serve as sensitive end-to-end checks of
//! the integral engine and converged densities.

use phi_chem::{BasisSet, Molecule};
use phi_integrals::{dipole_matrices, overlap_matrix};
use phi_linalg::Mat;

/// Debye per atomic unit of dipole moment.
pub const DEBYE_PER_AU: f64 = 2.541_746_473;

/// Molecular dipole moment.
#[derive(Clone, Copy, Debug)]
pub struct Dipole {
    /// Cartesian components in atomic units.
    pub au: [f64; 3],
}

impl Dipole {
    pub fn magnitude_au(&self) -> f64 {
        (self.au[0] * self.au[0] + self.au[1] * self.au[1] + self.au[2] * self.au[2]).sqrt()
    }

    pub fn magnitude_debye(&self) -> f64 {
        self.magnitude_au() * DEBYE_PER_AU
    }
}

/// Dipole moment `mu = sum_A Z_A (R_A - o) - tr(D X_o)` about the origin
/// `o` (for a neutral molecule the choice of `o` is immaterial).
pub fn dipole_moment(mol: &Molecule, basis: &BasisSet, density: &Mat) -> Dipole {
    let origin = [0.0; 3];
    let mats = dipole_matrices(basis, origin);
    let mut mu = [0.0; 3];
    for (k, m) in mats.iter().enumerate() {
        // Electronic part: -tr(D X).
        mu[k] = -density.dot(m);
        // Nuclear part.
        for a in mol.atoms() {
            mu[k] += a.element.atomic_number() as f64 * (a.pos[k] - origin[k]);
        }
    }
    Dipole { au: mu }
}

/// Mulliken gross populations per atom: `sum_{mu in A} (D S)_{mu mu}`.
fn mulliken_populations(mol: &Molecule, basis: &BasisSet, density: &Mat) -> Vec<f64> {
    let s = overlap_matrix(basis);
    let ds = density.matmul(&s);
    let mut populations = vec![0.0f64; mol.n_atoms()];
    for shell in &basis.shells {
        for f in 0..shell.n_functions() {
            populations[shell.atom] += ds[(shell.first_bf + f, shell.first_bf + f)];
        }
    }
    populations
}

/// Mulliken atomic partial charges: `q_A = Z_A - sum_{mu in A} (D S)_{mu mu}`
/// (for an unrestricted run, pass the total density `D_a + D_b`).
pub fn mulliken_charges(mol: &Molecule, basis: &BasisSet, density: &Mat) -> Vec<f64> {
    mol.atoms()
        .iter()
        .zip(mulliken_populations(mol, basis, density))
        .map(|(a, p)| a.element.atomic_number() as f64 - p)
        .collect()
}

/// Mulliken spin populations: `n_A(spin) = sum_{mu in A} ((D_a - D_b) S)_{mu mu}`.
/// Sums to `n_alpha - n_beta`.
pub fn mulliken_spin_populations(
    mol: &Molecule,
    basis: &BasisSet,
    density_alpha: &Mat,
    density_beta: &Mat,
) -> Vec<f64> {
    mulliken_populations(mol, basis, &density_alpha.sub(density_beta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::{run_scf, ScfConfig, Spin};
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;

    fn converged_density(mol: &Molecule, name: BasisName) -> (BasisSet, Mat) {
        let basis = BasisSet::build(mol, name);
        let r = run_scf(mol, &basis, &ScfConfig::default());
        assert!(r.converged);
        (basis, r.density)
    }

    #[test]
    fn water_dipole_is_in_the_experimental_ballpark() {
        // RHF/STO-3G water: ~1.7 D; RHF/6-31G(d): ~2.2 D (experiment 1.85).
        let mol = small::water();
        let (basis, d) = converged_density(&mol, BasisName::Sto3g);
        let dip = dipole_moment(&mol, &basis, &d);
        let debye = dip.magnitude_debye();
        assert!((1.2..2.3).contains(&debye), "water STO-3G dipole {debye} D");
        // The C2v axis is z in our geometry: x and y components vanish.
        assert!(dip.au[0].abs() < 1e-6, "x component {}", dip.au[0]);
        assert!(dip.au[1].abs() < 1e-8, "y component {}", dip.au[1]);
    }

    #[test]
    fn homonuclear_molecules_have_zero_dipole() {
        let mol = small::hydrogen_molecule(1.4);
        let (basis, d) = converged_density(&mol, BasisName::Sto3g);
        let dip = dipole_moment(&mol, &basis, &d);
        assert!(dip.magnitude_au() < 1e-8, "H2 dipole {}", dip.magnitude_au());
    }

    #[test]
    fn mulliken_charges_sum_to_total_charge_and_polarize_correctly() {
        let mol = small::water();
        let (basis, d) = converged_density(&mol, BasisName::Sto3g);
        let q = mulliken_charges(&mol, &basis, &d);
        let total: f64 = q.iter().sum();
        assert!(total.abs() < 1e-8, "charges must sum to 0, got {total}");
        assert!(q[0] < -0.2, "oxygen must be negative: {}", q[0]);
        assert!(q[1] > 0.1 && q[2] > 0.1, "hydrogens must be positive: {:?}", q);
        assert!((q[1] - q[2]).abs() < 1e-8, "symmetric hydrogens must match");
    }

    #[test]
    fn spin_populations_localize_on_the_radical_center() {
        // Broken-symmetry stretched H2: one alpha electron on each atom,
        // opposite spins; populations are +-1 and sum to n_a - n_b = 0.
        let mol = small::hydrogen_molecule(8.0);
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let spin_pops = |n_alpha, n_beta, break_symmetry| {
            let spin = Spin::Unrestricted { n_alpha, n_beta, break_symmetry };
            let r = run_scf(&mol, &b, &ScfConfig { spin, ..Default::default() });
            assert!(r.converged);
            let beta = r.beta.expect("unrestricted run");
            mulliken_spin_populations(&mol, &b, &r.density, &beta.density)
        };
        let pops = spin_pops(1, 1, true);
        assert!((pops[0] + pops[1]).abs() < 1e-8, "spin sums to zero: {pops:?}");
        assert!(pops[0].abs() > 0.9, "spin localizes at long range: {pops:?}");
        // Triplet far-apart H2: both spins up, one per atom.
        let tp = spin_pops(2, 0, false);
        assert!((tp[0] - 1.0).abs() < 0.05 && (tp[1] - 1.0).abs() < 0.05, "{tp:?}");
    }

    #[test]
    fn cation_charges_sum_to_plus_one() {
        let mol = small::heh_cation();
        let (basis, d) = converged_density(&mol, BasisName::Sto3g);
        let q = mulliken_charges(&mol, &basis, &d);
        let total: f64 = q.iter().sum();
        assert!((total - 1.0).abs() < 1e-8, "HeH+ charges sum {total}");
    }
}
