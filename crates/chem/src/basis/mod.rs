//! Gaussian basis sets: the shell model and the builder that instantiates a
//! basis on a molecule.
//!
//! A [`Shell`] follows the GAMESS convention the paper builds on: one set of
//! primitive exponents on one atom, carrying one or more angular-momentum
//! blocks. Ordinary shells carry a single block (pure S, P or D); Pople
//! combined "L" shells carry an S block and a P block sharing the same
//! exponents. Keeping L shells combined is what makes the paper's shell
//! counts exact (4 shells per carbon in 6-31G(d): S, L, L, D -> 176 shells
//! for the 44-atom system).
//!
//! Contraction coefficients are stored fully normalized for the (l,0,0)
//! cartesian component; the integrals crate applies the per-component
//! double-factorial factors for the remaining cartesians.

pub mod data;

use crate::molecule::Molecule;

/// Which basis set to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BasisName {
    /// Minimal STO-3G (validation anchors).
    Sto3g,
    /// Split-valence 6-31G.
    B631g,
    /// 6-31G(d) — 6-31G plus one cartesian d shell on heavy atoms. This is
    /// the basis used for every benchmark in the paper.
    B631gd,
    /// 6-31G(d,p) — 6-31G(d) plus one p shell on hydrogen.
    B631gdp,
}

impl BasisName {
    pub fn label(self) -> &'static str {
        match self {
            BasisName::Sto3g => "STO-3G",
            BasisName::B631g => "6-31G",
            BasisName::B631gd => "6-31G(d)",
            BasisName::B631gdp => "6-31G(d,p)",
        }
    }
}

/// Number of cartesian components for angular momentum `l`:
/// 1 (s), 3 (p), 6 (d), 10 (f), ...
pub fn n_cart(l: usize) -> usize {
    (l + 1) * (l + 2) / 2
}

/// One angular-momentum block of a shell: `l` plus one normalized
/// contraction coefficient per primitive.
#[derive(Clone, Debug)]
pub struct AngBlock {
    pub l: usize,
    pub coefs: Vec<f64>,
}

/// A contracted shell instantiated on an atom.
#[derive(Clone, Debug)]
pub struct Shell {
    /// Center coordinates (Bohr).
    pub center: [f64; 3],
    /// Primitive exponents, shared by all blocks.
    pub exps: Vec<f64>,
    /// Angular blocks in basis-function order (S before P for L shells).
    pub blocks: Vec<AngBlock>,
    /// Offset of this shell's first basis function in the full basis.
    pub first_bf: usize,
}

impl Shell {
    /// Total number of (cartesian) basis functions carried by this shell.
    pub fn n_functions(&self) -> usize {
        self.blocks.iter().map(|b| n_cart(b.l)).sum()
    }

    /// Highest angular momentum among the blocks.
    pub fn max_l(&self) -> usize {
        self.blocks.iter().map(|b| b.l).max().unwrap_or(0)
    }
}

/// A basis set instantiated on a molecule.
#[derive(Clone, Debug)]
pub struct BasisSet {
    pub name: BasisName,
    pub shells: Vec<Shell>,
    n_basis: usize,
}

impl BasisSet {
    /// Instantiate `name` on every atom of `mol`.
    ///
    /// Panics if the basis has no data for one of the elements (the data
    /// tables cover H, He, C, N, O — everything the paper's systems and the
    /// validation molecules need).
    pub fn build(mol: &Molecule, name: BasisName) -> BasisSet {
        let mut shells = Vec::new();
        let mut first_bf = 0;
        for atom in mol.atoms() {
            let specs = data::shells_for(atom.element, name).unwrap_or_else(|| {
                panic!("no {} data for element {}", name.label(), atom.element.symbol())
            });
            for spec in specs {
                let shell = instantiate(spec, atom.pos, first_bf);
                first_bf += shell.n_functions();
                shells.push(shell);
            }
        }
        BasisSet { name, shells, n_basis: first_bf }
    }

    /// Assemble a basis set directly from shells (testing and custom bases).
    /// `first_bf` offsets are recomputed to be contiguous.
    pub fn from_shells(name: BasisName, mut shells: Vec<Shell>) -> BasisSet {
        let mut first_bf = 0;
        for sh in &mut shells {
            sh.first_bf = first_bf;
            first_bf += sh.n_functions();
        }
        BasisSet { name, shells, n_basis: first_bf }
    }

    /// Total number of basis functions.
    pub fn n_basis(&self) -> usize {
        self.n_basis
    }

    pub fn n_shells(&self) -> usize {
        self.shells.len()
    }

    /// Highest angular momentum present in the basis.
    pub fn max_l(&self) -> usize {
        self.shells.iter().map(|s| s.max_l()).max().unwrap_or(0)
    }

    /// Functions in the widest shell (6 for a cartesian d, 4 for SP).
    pub fn max_shell_width(&self) -> usize {
        self.shells.iter().map(|s| s.n_functions()).max().unwrap_or(1)
    }
}

/// Odd double factorial `(2n - 1)!!` with the convention `(-1)!! = 1`.
pub fn odd_double_factorial(n: usize) -> f64 {
    let mut acc = 1.0;
    let mut k = 2 * n as i64 - 1;
    while k > 1 {
        acc *= k as f64;
        k -= 2;
    }
    acc
}

/// Normalize one angular block: scale each raw coefficient by the primitive
/// (l,0,0) norm, then renormalize the contraction to unit self-overlap.
fn normalize_block(l: usize, exps: &[f64], raw: &[f64]) -> Vec<f64> {
    assert_eq!(exps.len(), raw.len());
    let df = odd_double_factorial(l);
    // Primitive norms for the (l,0,0) cartesian component.
    let mut coefs: Vec<f64> = exps
        .iter()
        .zip(raw)
        .map(|(&a, &c)| {
            let norm = (2.0 * a / std::f64::consts::PI).powf(0.75) * (4.0 * a).powf(l as f64 / 2.0)
                / df.sqrt();
            c * norm
        })
        .collect();
    // Self-overlap of the contracted (l,0,0) function.
    let mut s = 0.0;
    for (p, (&ap, &cp)) in exps.iter().zip(&coefs).enumerate() {
        for (q, (&aq, &cq)) in exps.iter().zip(&coefs).enumerate() {
            let _ = (p, q);
            let g = ap + aq;
            s += cp * cq * (std::f64::consts::PI / g).powf(1.5) * df / (2.0 * g).powf(l as f64);
        }
    }
    let inv = 1.0 / s.sqrt();
    for c in &mut coefs {
        *c *= inv;
    }
    coefs
}

/// Build a custom contracted shell from raw (unnormalized) coefficients.
/// Used for non-standard bases (e.g. zeta-scaled STO-3G validation cases)
/// and by tests.
pub fn custom_shell(center: [f64; 3], exps: Vec<f64>, raw_blocks: &[(usize, Vec<f64>)]) -> Shell {
    let blocks = raw_blocks
        .iter()
        .map(|(l, raw)| AngBlock { l: *l, coefs: normalize_block(*l, &exps, raw) })
        .collect();
    Shell { center, exps, blocks, first_bf: 0 }
}

fn instantiate(spec: &data::ShellData, center: [f64; 3], first_bf: usize) -> Shell {
    let exps: Vec<f64> = spec.exps.to_vec();
    let blocks = spec
        .blocks
        .iter()
        .map(|&(l, raw)| AngBlock { l, coefs: normalize_block(l, &exps, raw) })
        .collect();
    Shell { center, exps, blocks, first_bf }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::graphene::PaperSystem;
    use crate::geom::small;

    #[test]
    fn double_factorials() {
        assert_eq!(odd_double_factorial(0), 1.0);
        assert_eq!(odd_double_factorial(1), 1.0);
        assert_eq!(odd_double_factorial(2), 3.0);
        assert_eq!(odd_double_factorial(3), 15.0);
        assert_eq!(odd_double_factorial(4), 105.0);
    }

    #[test]
    fn n_cart_values() {
        assert_eq!(n_cart(0), 1);
        assert_eq!(n_cart(1), 3);
        assert_eq!(n_cart(2), 6);
        assert_eq!(n_cart(3), 10);
    }

    #[test]
    fn water_sto3g_has_7_functions() {
        let m = small::water();
        let b = BasisSet::build(&m, BasisName::Sto3g);
        // O: S + L (1 + 4) = 5; each H: 1 -> 7 total.
        assert_eq!(b.n_basis(), 7);
        assert_eq!(b.n_shells(), 4);
        assert_eq!(b.max_l(), 1);
    }

    #[test]
    fn water_631gd_counts() {
        let m = small::water();
        let b = BasisSet::build(&m, BasisName::B631gd);
        // O: S(1) + L(4) + L(4) + D(6) = 15; H: 2 each -> 19.
        assert_eq!(b.n_basis(), 19);
        assert_eq!(b.n_shells(), 8);
        assert_eq!(b.max_l(), 2);
    }

    #[test]
    fn carbon_631gd_matches_paper_per_atom_counts() {
        let m = small::c_ring(6, 1.39);
        let b = BasisSet::build(&m, BasisName::B631gd);
        assert_eq!(b.n_shells(), 6 * 4, "4 shells per carbon (S, L, L, D)");
        assert_eq!(b.n_basis(), 6 * 15, "15 basis functions per carbon");
    }

    #[test]
    fn paper_smallest_system_matches_table4_exactly() {
        let m = PaperSystem::Nm05.molecule();
        let b = BasisSet::build(&m, BasisName::B631gd);
        assert_eq!(b.n_shells(), 176);
        assert_eq!(b.n_basis(), 660);
    }

    #[test]
    fn first_bf_offsets_are_contiguous() {
        let m = small::water();
        let b = BasisSet::build(&m, BasisName::B631gd);
        let mut expect = 0;
        for sh in &b.shells {
            assert_eq!(sh.first_bf, expect);
            expect += sh.n_functions();
        }
        assert_eq!(expect, b.n_basis());
    }

    #[test]
    fn single_primitive_s_normalization_is_analytic() {
        // For one primitive the normalized coefficient must be
        // (2a/pi)^(3/4) exactly.
        let coefs = normalize_block(0, &[0.7], &[1.0]);
        let want = (2.0 * 0.7 / std::f64::consts::PI).powf(0.75);
        assert!((coefs[0] - want).abs() < 1e-14);
    }

    #[test]
    fn raw_coefficient_scale_is_irrelevant_after_normalization() {
        let a = normalize_block(1, &[1.2, 0.3], &[0.5, 0.5]);
        let b = normalize_block(1, &[1.2, 0.3], &[2.0, 2.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "no STO-3G data")]
    fn missing_element_data_panics_with_context() {
        let m = crate::Molecule::neutral(vec![crate::Atom { element: Element::Ne, pos: [0.0; 3] }]);
        let _ = BasisSet::build(&m, BasisName::Sto3g);
    }

    use crate::element::Element;
}
