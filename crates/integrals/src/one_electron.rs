//! One-electron integral matrices: overlap `S`, kinetic energy `T`, and
//! nuclear attraction `V`.
//!
//! These are the O(N²) part of Fock construction (paper §3); they are cheap
//! compared to the ERIs but required for the core Hamiltonian
//! `H_core = T + V` and the orthogonalization metric `S`.

use crate::cart::{component_norm, components};
use crate::hermite::ETable;
use crate::rints::RTable;
use phi_chem::{BasisSet, Molecule, Shell};
use phi_linalg::Mat;

const PI: f64 = std::f64::consts::PI;

/// Overlap matrix `S_{mu nu} = <mu | nu>`.
pub fn overlap_matrix(basis: &BasisSet) -> Mat {
    build_symmetric(basis, |sa, sb, out, nb| {
        shell_pair(sa, sb, out, nb, PairOp::Overlap);
    })
}

/// Kinetic energy matrix `T_{mu nu} = <mu | -1/2 nabla^2 | nu>`.
pub fn kinetic_matrix(basis: &BasisSet) -> Mat {
    build_symmetric(basis, |sa, sb, out, nb| {
        shell_pair(sa, sb, out, nb, PairOp::Kinetic);
    })
}

/// Nuclear attraction matrix
/// `V_{mu nu} = -sum_C Z_C <mu | 1/r_C | nu>`.
pub fn nuclear_attraction_matrix(basis: &BasisSet, mol: &Molecule) -> Mat {
    let charges: Vec<([f64; 3], f64)> =
        mol.atoms().iter().map(|a| (a.pos, a.element.atomic_number() as f64)).collect();
    build_symmetric(basis, |sa, sb, out, nb| {
        shell_pair(sa, sb, out, nb, PairOp::Nuclear(&charges));
    })
}

/// Which one-electron operator a shell-pair evaluation computes.
enum PairOp<'a> {
    Overlap,
    Kinetic,
    Nuclear(&'a [([f64; 3], f64)]),
}

/// Assemble a symmetric matrix by looping over shell pairs `i >= j`.
fn build_symmetric(basis: &BasisSet, eval: impl Fn(&Shell, &Shell, &mut [f64], usize)) -> Mat {
    let n = basis.n_basis();
    let mut m = Mat::zeros(n, n);
    let mut buf = Vec::new();
    for (si, sa) in basis.shells.iter().enumerate() {
        for sb in basis.shells.iter().take(si + 1) {
            let (na, nb) = (sa.n_functions(), sb.n_functions());
            buf.clear();
            buf.resize(na * nb, 0.0);
            eval(sa, sb, &mut buf, nb);
            for ia in 0..na {
                for ib in 0..nb {
                    let v = buf[ia * nb + ib];
                    m[(sa.first_bf + ia, sb.first_bf + ib)] = v;
                    m[(sb.first_bf + ib, sa.first_bf + ia)] = v;
                }
            }
        }
    }
    m
}

/// Evaluate one operator over a full shell pair (all angular blocks, all
/// primitives, all cartesian components). `out` is `[na][nb]` row-major.
fn shell_pair(sa: &Shell, sb: &Shell, out: &mut [f64], nb_total: usize, op: PairOp<'_>) {
    let mut off_a = 0;
    for ba in &sa.blocks {
        let comps_a = components(ba.l);
        let mut off_b = 0;
        for bb in &sb.blocks {
            let comps_b = components(bb.l);
            for (pa, (&ea, &ca)) in sa.exps.iter().zip(&ba.coefs).enumerate() {
                for (pb, (&eb, &cb)) in sb.exps.iter().zip(&bb.coefs).enumerate() {
                    let _ = (pa, pb);
                    let w = ca * cb;
                    // Kinetic needs E up to j + 2 in the ket index.
                    let extra = if matches!(op, PairOp::Kinetic) { 2 } else { 0 };
                    let ex = ETable::build(ba.l, bb.l + extra, ea, eb, sa.center[0], sb.center[0]);
                    let ey = ETable::build(ba.l, bb.l + extra, ea, eb, sa.center[1], sb.center[1]);
                    let ez = ETable::build(ba.l, bb.l + extra, ea, eb, sa.center[2], sb.center[2]);
                    let p = ea + eb;
                    match &op {
                        PairOp::Overlap => {
                            let scale = (PI / p).powf(1.5) * w;
                            for (ia, &(ax, ay, az)) in comps_a.iter().enumerate() {
                                for (ib, &(bx, by, bz)) in comps_b.iter().enumerate() {
                                    out[(off_a + ia) * nb_total + off_b + ib] += scale
                                        * ex.get(ax, bx, 0)
                                        * ey.get(ay, by, 0)
                                        * ez.get(az, bz, 0);
                                }
                            }
                        }
                        PairOp::Kinetic => {
                            let scale = (PI / p).powf(1.5) * w;
                            // 1-D kinetic factor acting on the ket power j:
                            // t(i,j) = -2 b^2 E0(i,j+2) + b(2j+1) E0(i,j)
                            //          - j(j-1)/2 E0(i,j-2)
                            let tfac = |e: &ETable, i: usize, j: usize| -> f64 {
                                let mut v = -2.0 * eb * eb * e.get(i, j + 2, 0)
                                    + eb * (2 * j + 1) as f64 * e.get(i, j, 0);
                                if j >= 2 {
                                    v -= 0.5 * (j * (j - 1)) as f64 * e.get(i, j - 2, 0);
                                }
                                v
                            };
                            for (ia, &(ax, ay, az)) in comps_a.iter().enumerate() {
                                for (ib, &(bx, by, bz)) in comps_b.iter().enumerate() {
                                    let sx = ex.get(ax, bx, 0);
                                    let sy = ey.get(ay, by, 0);
                                    let sz = ez.get(az, bz, 0);
                                    let tx = tfac(&ex, ax, bx);
                                    let ty = tfac(&ey, ay, by);
                                    let tz = tfac(&ez, az, bz);
                                    out[(off_a + ia) * nb_total + off_b + ib] +=
                                        scale * (tx * sy * sz + sx * ty * sz + sx * sy * tz);
                                }
                            }
                        }
                        PairOp::Nuclear(charges) => {
                            let px = (ea * sa.center[0] + eb * sb.center[0]) / p;
                            let py = (ea * sa.center[1] + eb * sb.center[1]) / p;
                            let pz = (ea * sa.center[2] + eb * sb.center[2]) / p;
                            let scale = 2.0 * PI / p * w;
                            let l_tot = ba.l + bb.l;
                            for &(cpos, z) in charges.iter() {
                                let r = RTable::build(
                                    l_tot,
                                    p,
                                    px - cpos[0],
                                    py - cpos[1],
                                    pz - cpos[2],
                                );
                                for (ia, &(ax, ay, az)) in comps_a.iter().enumerate() {
                                    for (ib, &(bx, by, bz)) in comps_b.iter().enumerate() {
                                        let mut acc = 0.0;
                                        for t in 0..=(ax + bx) {
                                            let etx = ex.get(ax, bx, t);
                                            if etx == 0.0 {
                                                continue;
                                            }
                                            for u in 0..=(ay + by) {
                                                let euy = ey.get(ay, by, u);
                                                if euy == 0.0 {
                                                    continue;
                                                }
                                                for v in 0..=(az + bz) {
                                                    acc += etx
                                                        * euy
                                                        * ez.get(az, bz, v)
                                                        * r.get(t, u, v);
                                                }
                                            }
                                        }
                                        out[(off_a + ia) * nb_total + off_b + ib] -=
                                            scale * z * acc;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            off_b += comps_b.len();
        }
        off_a += comps_a.len();
    }
    // Apply per-component normalization factors.
    let fa = shell_component_norms(sa);
    let fb = shell_component_norms(sb);
    for (ia, &na) in fa.iter().enumerate() {
        for (ib, &nb) in fb.iter().enumerate() {
            out[ia * nb_total + ib] *= na * nb;
        }
    }
}

/// Per-component normalization factors for every function of a shell
/// (concatenated over its angular blocks).
pub fn shell_component_norms(shell: &Shell) -> Vec<f64> {
    let mut out = Vec::with_capacity(shell.n_functions());
    for b in &shell.blocks {
        for &c in components(b.l) {
            out.push(component_norm(c));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::basis::{AngBlock, BasisName};
    use phi_chem::geom::small;
    use phi_chem::{Atom, Element, Molecule};
    use phi_linalg::eigh;

    fn single_prim_shell(l: usize, alpha: f64, center: [f64; 3]) -> Shell {
        // Normalized single-primitive coefficient for the (l,0,0) component.
        let df: f64 = (1..=l).map(|k| 2.0 * k as f64 - 1.0).product();
        let norm = (2.0 * alpha / PI).powf(0.75) * (4.0 * alpha).powf(l as f64 / 2.0) / df.sqrt();
        Shell {
            center,
            exps: vec![alpha],
            blocks: vec![AngBlock { l, coefs: vec![norm] }],
            first_bf: 0,
        }
    }

    fn one_shell_basis(shell: Shell) -> BasisSet {
        BasisSet::from_shells(BasisName::Sto3g, vec![shell])
    }

    #[test]
    fn overlap_diagonal_is_one_for_every_basis() {
        for name in [BasisName::Sto3g, BasisName::B631g, BasisName::B631gd] {
            let m = small::water();
            let b = BasisSet::build(&m, name);
            let s = overlap_matrix(&b);
            for i in 0..b.n_basis() {
                assert!(
                    (s[(i, i)] - 1.0).abs() < 1e-10,
                    "{}: S[{i},{i}] = {}",
                    name.label(),
                    s[(i, i)]
                );
            }
            assert!(s.is_symmetric(1e-12));
        }
    }

    #[test]
    fn overlap_is_positive_definite() {
        let b = BasisSet::build(&small::water(), BasisName::B631gd);
        let s = overlap_matrix(&b);
        let e = eigh(&s);
        assert!(e.values[0] > 0.0, "smallest overlap eigenvalue {}", e.values[0]);
    }

    #[test]
    fn kinetic_of_single_s_gaussian_is_3a_over_2() {
        // <T> = 3 alpha / 2 for a normalized s Gaussian.
        for alpha in [0.3, 1.0, 2.7] {
            let b = one_shell_basis(single_prim_shell(0, alpha, [0.0; 3]));
            let t = kinetic_matrix(&b);
            assert!((t[(0, 0)] - 1.5 * alpha).abs() < 1e-12, "alpha={alpha}: {}", t[(0, 0)]);
        }
    }

    #[test]
    fn kinetic_diagonal_positive_for_d_functions() {
        let b = one_shell_basis(single_prim_shell(2, 0.8, [0.1, -0.2, 0.3]));
        let t = kinetic_matrix(&b);
        for i in 0..6 {
            assert!(t[(i, i)] > 0.0);
        }
        assert!(t.is_symmetric(1e-12));
    }

    #[test]
    fn nuclear_attraction_of_s_gaussian_at_nucleus() {
        // <V> = -Z * 2 sqrt(2 alpha / pi) for a normalized s Gaussian
        // centered on the charge.
        let alpha = 1.3;
        let b = one_shell_basis(single_prim_shell(0, alpha, [0.0; 3]));
        let mol = Molecule::new(vec![Atom { element: Element::He, pos: [0.0; 3] }], 2);
        let v = nuclear_attraction_matrix(&b, &mol);
        let want = -2.0 * 2.0 * (2.0 * alpha / PI).sqrt();
        assert!((v[(0, 0)] - want).abs() < 1e-12, "{} vs {want}", v[(0, 0)]);
    }

    #[test]
    fn matrices_transform_consistently_under_translation() {
        let m = small::water();
        let b1 = BasisSet::build(&m, BasisName::B631g);
        let m2 = m.translated([1.0, -2.0, 0.5]);
        let b2 = BasisSet::build(&m2, BasisName::B631g);
        let s1 = overlap_matrix(&b1);
        let s2 = overlap_matrix(&b2);
        assert!(s1.max_abs_diff(&s2) < 1e-12, "overlap not translation invariant");
        let t1 = kinetic_matrix(&b1);
        let t2 = kinetic_matrix(&b2);
        assert!(t1.max_abs_diff(&t2) < 1e-12);
        let v1 = nuclear_attraction_matrix(&b1, &m);
        let v2 = nuclear_attraction_matrix(&b2, &m2);
        assert!(v1.max_abs_diff(&v2) < 1e-10);
    }

    #[test]
    fn far_apart_shells_have_negligible_overlap() {
        let mol = Molecule::neutral(vec![
            Atom { element: Element::H, pos: [0.0; 3] },
            Atom { element: Element::H, pos: [0.0, 0.0, 50.0] },
        ]);
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let s = overlap_matrix(&b);
        assert!(s[(0, 1)].abs() < 1e-20);
    }

    #[test]
    fn nuclear_attraction_is_negative_definite_diagonal() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let v = nuclear_attraction_matrix(&b, &small::water());
        for i in 0..b.n_basis() {
            assert!(v[(i, i)] < 0.0, "V[{i},{i}] = {} should be negative", v[(i, i)]);
        }
    }
}
