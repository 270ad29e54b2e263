//! Second-order Møller–Plesset perturbation theory (MP2).
//!
//! The paper's introduction motivates fast HF precisely because "the HF
//! solution is commonly used as a starting point for more accurate ab
//! initio methods, such as second order perturbation theory" (O(N^5)).
//! This module closes that loop: a closed-shell MP2 energy on top of any
//! converged [`crate::scf::ScfResult`].
//!
//! Implementation: the AO ERI tensor is materialized once (small-system
//! scope — O(N^4) memory), transformed to the MO basis by four successive
//! quarter transformations (the textbook O(N^5) algorithm), and contracted
//! with the standard spin-adapted amplitude denominator:
//!
//! ```text
//! E_MP2 = sum_{i,j in occ} sum_{a,b in virt}
//!         (ia|jb) [ 2 (ia|jb) - (ib|ja) ] / (e_i + e_j - e_a - e_b)
//! ```

use phi_chem::BasisSet;
use phi_integrals::{EriEngine, ShellPair};
use phi_linalg::Mat;

/// Dense 4-index tensor with chemist's-notation indexing `(pq|rs)`.
pub struct EriTensor {
    n: usize,
    data: Vec<f64>,
}

impl EriTensor {
    #[inline]
    fn idx(&self, p: usize, q: usize, r: usize, s: usize) -> usize {
        ((p * self.n + q) * self.n + r) * self.n + s
    }

    #[inline]
    pub fn get(&self, p: usize, q: usize, r: usize, s: usize) -> f64 {
        self.data[self.idx(p, q, r, s)]
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Materialize the full AO ERI tensor (no screening — exactness over
    /// speed; this path is for small validation systems).
    pub fn compute_ao(basis: &BasisSet) -> EriTensor {
        let n = basis.n_basis();
        let mut t = EriTensor { n, data: vec![0.0; n * n * n * n] };
        let mut engine = EriEngine::new();
        engine.prefactor_cutoff = 0.0;
        // All ns^2 ordered pairs, every primitive pair kept: the tensor is
        // filled with no permutational symmetry.
        let shells = &basis.shells;
        let pairs: Vec<ShellPair> = (0..shells.len() * shells.len())
            .map(|ij| {
                let (i, j) = (ij / shells.len(), ij % shells.len());
                ShellPair::build(i, j, &shells[i], &shells[j], 0.0)
            })
            .collect();
        let mut buf: Vec<f64> = Vec::new();
        for bra in &pairs {
            let (a, b) = (&shells[bra.i], &shells[bra.j]);
            for ket in &pairs {
                let (c, d) = (&shells[ket.i], &shells[ket.j]);
                let (nb, nc, nd) = (bra.b.n_fn, ket.a.n_fn, ket.b.n_fn);
                buf.resize(bra.n_fn() * ket.n_fn(), 0.0);
                engine.shell_quartet_pairs(bra, ket, &mut buf);
                for ia in 0..bra.a.n_fn {
                    for ib in 0..nb {
                        for ic in 0..nc {
                            for id in 0..nd {
                                let at = t.idx(
                                    a.first_bf + ia,
                                    b.first_bf + ib,
                                    c.first_bf + ic,
                                    d.first_bf + id,
                                );
                                t.data[at] = buf[((ia * nb + ib) * nc + ic) * nd + id];
                            }
                        }
                    }
                }
            }
        }
        t
    }

    /// Transform to the MO basis: `(pq|rs) -> (ij|kl)` with MO coefficients
    /// `c` (columns are orbitals). Four quarter transformations, O(N^5).
    pub fn transform(&self, c: &Mat) -> EriTensor {
        let n = self.n;
        assert_eq!(c.rows(), n);
        let nmo = c.cols();
        // Each quarter transformation contracts one index.
        let quarter = |src: &[f64], d1: usize, d2: usize, d3: usize, d4: usize| -> Vec<f64> {
            // Transforms the LAST index: out[a,b,c,m] = sum_s src[a,b,c,s] C[s,m]
            let mut out = vec![0.0; d1 * d2 * d3 * nmo];
            for abc in 0..(d1 * d2 * d3) {
                let row = &src[abc * d4..(abc + 1) * d4];
                let orow = &mut out[abc * nmo..(abc + 1) * nmo];
                for (s, &v) in row.iter().enumerate() {
                    if v == 0.0 {
                        continue;
                    }
                    for (m, o) in orow.iter_mut().enumerate() {
                        *o += v * c[(s, m)];
                    }
                }
            }
            out
        };
        // Contract s, then rotate index order by re-interpreting the layout:
        // after each quarter pass the transformed index is last, so rotating
        // the tensor [a,b,c,m] -> [m,a,b,c] lets the same kernel handle all
        // four indices.
        let rotate = |src: &[f64], d1: usize, d2: usize, d3: usize, d4: usize| -> Vec<f64> {
            let mut out = vec![0.0; src.len()];
            for a in 0..d1 {
                for b in 0..d2 {
                    for cc in 0..d3 {
                        for m in 0..d4 {
                            out[((m * d1 + a) * d2 + b) * d3 + cc] =
                                src[((a * d2 + b) * d3 + cc) * d4 + m];
                        }
                    }
                }
            }
            out
        };
        let mut cur = self.data.clone();
        let mut dims = [n, n, n, n];
        for _ in 0..4 {
            cur = quarter(&cur, dims[0], dims[1], dims[2], dims[3]);
            dims[3] = nmo;
            cur = rotate(&cur, dims[0], dims[1], dims[2], dims[3]);
            dims = [dims[3], dims[0], dims[1], dims[2]];
        }
        // Four rotations restore the original index order.
        EriTensor { n: nmo, data: cur }
    }
}

/// Result of an MP2 calculation.
#[derive(Clone, Copy, Debug)]
pub struct Mp2Result {
    /// Correlation energy (negative).
    pub correlation_energy: f64,
    /// HF + MP2 total energy.
    pub total_energy: f64,
}

/// Closed-shell MP2 on top of converged orbitals.
///
/// * `orbitals` — MO coefficients (columns), all orbitals;
/// * `orbital_energies` — matching eigenvalues;
/// * `n_occ` — doubly occupied count;
/// * `hf_energy` — the converged RHF total energy.
pub fn mp2_energy(
    basis: &BasisSet,
    orbitals: &Mat,
    orbital_energies: &[f64],
    n_occ: usize,
    hf_energy: f64,
) -> Mp2Result {
    let ao = EriTensor::compute_ao(basis);
    let mo = ao.transform(orbitals);
    let nmo = mo.n();
    let mut e2 = 0.0;
    for i in 0..n_occ {
        for j in 0..n_occ {
            for a in n_occ..nmo {
                for b in n_occ..nmo {
                    let iajb = mo.get(i, a, j, b);
                    let ibja = mo.get(i, b, j, a);
                    let denom = orbital_energies[i] + orbital_energies[j]
                        - orbital_energies[a]
                        - orbital_energies[b];
                    e2 += iajb * (2.0 * iajb - ibja) / denom;
                }
            }
        }
    }
    Mp2Result { correlation_energy: e2, total_energy: hf_energy + e2 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::{run_scf, ScfConfig};
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_chem::Molecule;

    fn mp2_of(mol: &Molecule, name: BasisName) -> Mp2Result {
        let basis = BasisSet::build(mol, name);
        let scf = run_scf(mol, &basis, &ScfConfig::default());
        assert!(scf.converged);
        mp2_energy(&basis, &scf.orbitals, &scf.orbital_energies, mol.n_occupied(), scf.energy)
    }

    /// Building the `ns^2` ordered pairs once moves no bit of the tensor
    /// against rebuilding both pairs inside every quartet (what the deleted
    /// pair-free engine entry did) — and `mp2_energy` is a function of
    /// the tensor and the orbitals, so the MP2 energies cannot move either.
    /// The water energy is that of commit c40c5db (there bit for bit
    /// `bfa22c1787bece83`) and survived PR 17's tabulated Boys function to
    /// 1e-13. The H2 energy is PR 17's: its SCF is not a 1e-13 pin of the
    /// integrals. The first three iterations agree with c40c5db to 1e-15;
    /// at the fourth the DIIS system is near-singular and c40c5db stopped
    /// there, 2.9e-8 Eh above the energy this run reaches in six
    /// iterations (E_corr was -0.01737623749545), so a last-bit change in
    /// the integrals moves which of the two happens. The block digester's
    /// summation order left the H2 SCF energy unchanged to 1e-15
    /// (-1.126742700700813 Eh both ways) and moved E_corr by 5.8e-11 from
    /// -0.01739045757725, through the orbitals of that same DIIS step.
    #[test]
    fn compute_ao_is_bitwise_the_per_quartet_pair_rebuild() {
        for (mol, name, e_corr) in [
            (small::water(), BasisName::Sto3g, -0.03549264461563),
            (small::hydrogen_molecule(1.4), BasisName::B631g, -0.01739045763514),
        ] {
            let basis = BasisSet::build(&mol, name);
            let t = EriTensor::compute_ao(&basis);
            let mut engine = EriEngine::new();
            engine.prefactor_cutoff = 0.0;
            let mut buf = Vec::new();
            for a in &basis.shells {
                for b in &basis.shells {
                    for c in &basis.shells {
                        for d in &basis.shells {
                            let bra = ShellPair::build(0, 0, a, b, 0.0);
                            let ket = ShellPair::build(0, 0, c, d, 0.0);
                            buf.resize(bra.n_fn() * ket.n_fn(), 0.0);
                            engine.shell_quartet_pairs(&bra, &ket, &mut buf);
                            let (nb, nc, nd) = (bra.b.n_fn, ket.a.n_fn, ket.b.n_fn);
                            for (at, v) in buf.iter().enumerate() {
                                let (ia, ib) = (at / (nb * nc * nd), at / (nc * nd) % nb);
                                let (ic, id) = (at / nd % nc, at % nd);
                                let got = t.get(
                                    a.first_bf + ia,
                                    b.first_bf + ib,
                                    c.first_bf + ic,
                                    d.first_bf + id,
                                );
                                assert_eq!(got.to_bits(), v.to_bits());
                            }
                        }
                    }
                }
            }
            let got = mp2_of(&mol, name).correlation_energy;
            assert!((got - e_corr).abs() < 1e-13, "{name:?}: {got:.14} vs {e_corr:.14}");
        }
    }

    #[test]
    fn transformation_matches_naive_quadruple_sum() {
        // The O(N^5) quarter-transform algorithm must agree with the
        // brute-force O(N^8) contraction on a tiny system.
        let mol = small::hydrogen_molecule(1.4);
        let basis = BasisSet::build(&mol, BasisName::B631g);
        let scf = run_scf(&mol, &basis, &ScfConfig::default());
        let ao = EriTensor::compute_ao(&basis);
        let mo = ao.transform(&scf.orbitals);
        let n = basis.n_basis();
        let c = &scf.orbitals;
        for &(p, q, r, s) in &[(0, 0, 0, 0), (0, 1, 2, 3), (3, 1, 0, 2), (1, 1, 2, 2)] {
            let mut want = 0.0;
            for mu in 0..n {
                for nu in 0..n {
                    for lam in 0..n {
                        for sig in 0..n {
                            want += c[(mu, p)]
                                * c[(nu, q)]
                                * c[(lam, r)]
                                * c[(sig, s)]
                                * ao.get(mu, nu, lam, sig);
                        }
                    }
                }
            }
            let got = mo.get(p, q, r, s);
            assert!((got - want).abs() < 1e-10, "({p}{q}|{r}{s}): fast {got} vs naive {want}");
        }
    }

    #[test]
    fn h2_minimal_basis_matches_the_closed_form() {
        // One occupied (g), one virtual (u): the only double excitation
        // gives E2 = (gu|gu)^2 / (2 (e_g - e_u)) exactly.
        let mol = small::hydrogen_molecule(1.4);
        let basis = BasisSet::build(&mol, BasisName::Sto3g);
        let scf = run_scf(&mol, &basis, &ScfConfig::default());
        let mo = EriTensor::compute_ao(&basis).transform(&scf.orbitals);
        let k = mo.get(0, 1, 0, 1);
        let want = k * k / (2.0 * (scf.orbital_energies[0] - scf.orbital_energies[1]));
        let r = mp2_energy(&basis, &scf.orbitals, &scf.orbital_energies, 1, scf.energy);
        assert!(
            (r.correlation_energy - want).abs() < 1e-12,
            "{} vs closed form {}",
            r.correlation_energy,
            want
        );
        assert!(r.correlation_energy < 0.0);
        // H2/STO-3G MP2 correlation is about -0.013 Eh.
        assert!((-0.03..-0.005).contains(&r.correlation_energy));
    }

    #[test]
    fn correlation_energy_is_negative_and_grows_with_basis() {
        let mol = small::water();
        let sto = mp2_of(&mol, BasisName::Sto3g);
        let dz = mp2_of(&mol, BasisName::B631g);
        assert!(sto.correlation_energy < 0.0);
        assert!(dz.correlation_energy < sto.correlation_energy, "bigger basis, more correlation");
    }

    #[test]
    fn mp2_is_size_consistent() {
        // Two H2 molecules 80 bohr apart: E_corr(dimer) = 2 E_corr(monomer).
        let monomer = small::hydrogen_molecule(1.4);
        let mut atoms = monomer.atoms().to_vec();
        atoms.extend(monomer.translated([0.0, 0.0, 80.0]).atoms().iter().copied());
        let dimer = Molecule::neutral(atoms);
        let e1 = mp2_of(&monomer, BasisName::Sto3g);
        let e2 = mp2_of(&dimer, BasisName::Sto3g);
        assert!(
            (e2.correlation_energy - 2.0 * e1.correlation_energy).abs() < 1e-8,
            "dimer {} vs 2 x monomer {}",
            e2.correlation_energy,
            2.0 * e1.correlation_energy
        );
    }
}
