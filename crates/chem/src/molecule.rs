//! Molecular geometries.
//!
//! Coordinates are stored in Bohr (atomic units) throughout the workspace;
//! builders that accept Ångström convert on construction.

use crate::element::Element;

/// An atom: element plus position in Bohr.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Atom {
    pub element: Element,
    pub pos: [f64; 3],
}

/// A molecule: a list of atoms and a total charge.
#[derive(Clone, Debug, PartialEq)]
pub struct Molecule {
    atoms: Vec<Atom>,
    charge: i32,
}

impl Molecule {
    pub fn new(atoms: Vec<Atom>, charge: i32) -> Self {
        Molecule { atoms, charge }
    }

    /// Neutral molecule.
    pub fn neutral(atoms: Vec<Atom>) -> Self {
        Molecule::new(atoms, 0)
    }

    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    pub fn charge(&self) -> i32 {
        self.charge
    }

    /// Number of electrons = sum of nuclear charges minus the total charge.
    pub fn n_electrons(&self) -> usize {
        let z: i64 = self.atoms.iter().map(|a| a.element.atomic_number() as i64).sum();
        let n = z - self.charge as i64;
        assert!(n >= 0, "more positive charge than protons");
        usize::try_from(n).expect("checked non-negative")
    }

    /// Number of doubly-occupied orbitals for closed-shell RHF.
    /// Panics on an odd electron count (RHF requires a closed shell).
    pub fn n_occupied(&self) -> usize {
        let n = self.n_electrons();
        assert!(n.is_multiple_of(2), "RHF requires an even electron count, got {n}");
        n / 2
    }

    /// Classical nuclear-nuclear repulsion energy in Hartree.
    pub fn nuclear_repulsion(&self) -> f64 {
        let mut e = 0.0;
        for i in 0..self.atoms.len() {
            for j in 0..i {
                let zi = self.atoms[i].element.atomic_number() as f64;
                let zj = self.atoms[j].element.atomic_number() as f64;
                e += zi * zj / dist(self.atoms[i].pos, self.atoms[j].pos);
            }
        }
        e
    }

    /// Rigidly translated copy (for invariance tests).
    pub fn translated(&self, shift: [f64; 3]) -> Molecule {
        let atoms = self
            .atoms
            .iter()
            .map(|a| Atom {
                element: a.element,
                pos: [a.pos[0] + shift[0], a.pos[1] + shift[1], a.pos[2] + shift[2]],
            })
            .collect();
        Molecule { atoms, charge: self.charge }
    }

    /// Copy rotated by `angle` radians about the z axis (for invariance tests).
    pub fn rotated_z(&self, angle: f64) -> Molecule {
        let (s, c) = angle.sin_cos();
        let atoms = self
            .atoms
            .iter()
            .map(|a| Atom {
                element: a.element,
                pos: [c * a.pos[0] - s * a.pos[1], s * a.pos[0] + c * a.pos[1], a.pos[2]],
            })
            .collect();
        Molecule { atoms, charge: self.charge }
    }
}

/// Euclidean distance between two points.
pub fn dist(a: [f64; 3], b: [f64; 3]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    (dx * dx + dy * dy + dz * dz).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ANGSTROM;

    #[test]
    fn electron_counting() {
        let m = Molecule::new(
            vec![
                Atom { element: Element::O, pos: [0.0; 3] },
                Atom { element: Element::H, pos: [1.0, 0.0, 0.0] },
                Atom { element: Element::H, pos: [0.0, 1.0, 0.0] },
            ],
            0,
        );
        assert_eq!(m.n_electrons(), 10);
        assert_eq!(m.n_occupied(), 5);
        let cation = Molecule::new(m.atoms().to_vec(), 2);
        assert_eq!(cation.n_electrons(), 8);
    }

    #[test]
    fn h2_nuclear_repulsion() {
        // Two protons at 1.4 bohr: E_nn = 1/1.4.
        let m = Molecule::neutral(vec![
            Atom { element: Element::H, pos: [0.0, 0.0, 0.0] },
            Atom { element: Element::H, pos: [0.0, 0.0, 1.4] },
        ]);
        assert!((m.nuclear_repulsion() - 1.0 / 1.4).abs() < 1e-14);
    }

    #[test]
    fn repulsion_invariant_under_rigid_motion() {
        let m = Molecule::neutral(vec![
            Atom { element: Element::C, pos: [0.0, 0.0, 0.0] },
            Atom { element: Element::O, pos: [0.0, 1.1 * ANGSTROM, 0.4] },
            Atom { element: Element::H, pos: [0.9, -0.3, 0.2] },
        ]);
        let e0 = m.nuclear_repulsion();
        let e1 = m.translated([3.0, -2.0, 0.5]).nuclear_repulsion();
        let e2 = m.rotated_z(0.7).nuclear_repulsion();
        assert!((e0 - e1).abs() < 1e-12);
        assert!((e0 - e2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "even electron count")]
    fn odd_electrons_rejected_for_rhf() {
        let m = Molecule::neutral(vec![Atom { element: Element::H, pos: [0.0; 3] }]);
        let _ = m.n_occupied();
    }
}
