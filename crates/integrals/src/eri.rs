//! Contracted two-electron repulsion integrals (ERIs) over shell quartets.
//!
//! `(ij|kl)` shell quartets are the unit of work every algorithm in the
//! paper distributes (Algorithms 1–3 all call `eri(i,j,k,l, X_ijkl)` on
//! them). The engine evaluates a full quartet — all angular blocks of all
//! four shells, all primitive combinations, all cartesian components — into
//! a caller-provided buffer laid out `[na][nb][nc][nd]`.
//!
//! Scheme: McMurchie–Davidson. Per primitive quartet,
//!
//! ```text
//! (ab|cd) = 2 pi^(5/2) / (p q sqrt(p+q))
//!           * sum_{tuv} E^{ab}_{tuv}
//!             sum_{TUV} (-1)^{T+U+V} E^{cd}_{TUV} R^0_{t+T, u+U, v+V}
//! ```
//!
//! evaluated in two stages: the ket sum is contracted into an intermediate
//! `W[tuv][cd-component]` once, then the bra sum runs per bra component.
//!
//! Performance structure: all blocks of a (possibly composite SP) shell
//! share one primitive exponent set, so the Hermite `E` tables are built
//! *once per primitive pair at the shell's maximum angular momentum* and
//! reused by every angular block, and the `R` table is built once per
//! primitive quartet and reused by every block combination. For the Pople
//! L-shell-heavy carbon baskets this saves severalfold over the naive
//! block-by-block evaluation.
//!
//! Each [`EriEngine`] owns its scratch buffers, mirroring the thread-private
//! work arrays of the paper's OpenMP implementation: Fock-build threads each
//! construct one engine and never share it.

use crate::cart::components;
use crate::kernels::{ClassKernels, EriKernel, KernelRun, GENERIC_SLOT, N_CLASS_SLOTS};
use crate::rints::RTable;
use crate::shell_pairs::ShellPair;

const PI: f64 = std::f64::consts::PI;

/// Reusable ERI evaluator with thread-private scratch space.
///
/// The one entry is [`EriEngine::shell_quartet_pairs`], which consumes two
/// precomputed [`ShellPair`]s and performs no heap allocation per quartet:
/// all intermediates live in engine-owned buffers that grow to a high-water
/// mark on first use.
///
/// Quartets dispatch by angular-momentum class: classes with a specialized
/// kernel (see [`crate::kernels`]) run monomorphized batched code, the rest
/// run the generic recursion in [`GenericKernel`]. The `use_kernels` toggle
/// routes *everything* through the generic path — the reference side of the
/// differential-testing harness and the ablation baseline.
pub struct EriEngine {
    /// Primitive-quartet prefactor cutoff: quartets whose Gaussian-product
    /// prefactors bound the integral below this are skipped. Set to 0.0 for
    /// bitwise-exact reference calculations.
    pub prefactor_cutoff: f64,
    /// Route classes with a specialized kernel through it (default). Clear
    /// to force the generic recursion for every quartet.
    pub use_kernels: bool,
    /// Number of shell quartets evaluated (for workload statistics).
    shell_quartets: u64,
    /// Number of primitive quartets actually computed.
    prim_quartets: u64,
    /// Shell quartets per class slot (specialized classes + generic).
    class_quartets: [u64; N_CLASS_SLOTS],
    /// The kernel set: specialized instances + generic fallback.
    kernels: ClassKernels,
}

impl Default for EriEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl EriEngine {
    pub fn new() -> Self {
        EriEngine {
            prefactor_cutoff: 1e-18,
            use_kernels: true,
            shell_quartets: 0,
            prim_quartets: 0,
            class_quartets: [0; N_CLASS_SLOTS],
            kernels: ClassKernels::new(),
        }
    }

    /// An engine forced onto the generic path for every class — the
    /// reference side of kernel-vs-generic differential tests and ablations.
    pub fn generic_only() -> Self {
        EriEngine { use_kernels: false, ..EriEngine::new() }
    }

    pub fn shell_quartets_computed(&self) -> u64 {
        self.shell_quartets
    }

    pub fn prim_quartets_computed(&self) -> u64 {
        self.prim_quartets
    }

    /// Shell quartets evaluated per class slot; index with
    /// [`crate::kernels::class_index`] / label with
    /// [`crate::kernels::CLASS_LABELS`].
    pub fn class_counts(&self) -> &[u64; N_CLASS_SLOTS] {
        &self.class_quartets
    }

    /// Shell quartets that ran a specialized kernel (all slots but the
    /// generic fallback).
    pub fn spec_quartets_computed(&self) -> u64 {
        self.class_quartets[..GENERIC_SLOT].iter().sum()
    }

    /// Evaluate the full contracted quartet `(ab|cd)` from precomputed pair
    /// data into `out` (length `na * nb * nc * nd`, overwritten). Shell `a`
    /// is `bra.a`, `b` is `bra.b`, `c` is `ket.a`, `d` is `ket.b`.
    ///
    /// Allocation-free: E tables, product centers, prefactors, coefficient
    /// products, block offsets and normalization factors all come from the
    /// pair dataset; scratch lives in the engine.
    pub fn shell_quartet_pairs(&mut self, bra: &ShellPair, ket: &ShellPair, out: &mut [f64]) {
        let (nb, nc, nd) = (bra.b.n_fn, ket.a.n_fn, ket.b.n_fn);
        assert_eq!(out.len(), bra.a.n_fn * nb * nc * nd, "output buffer has wrong length");
        self.shell_quartets += 1;
        let (slot, run) =
            self.kernels.eval_classed(self.use_kernels, bra, ket, self.prefactor_cutoff, out);
        self.class_quartets[slot] += 1;
        self.prim_quartets += run.prim_quartets;
    }
}

/// The generic McMurchie–Davidson path: one loop nest for every
/// angular-momentum class, with runtime bounds and dense scratch. This is
/// the reference implementation the specialized kernels are differentially
/// tested against, and the fallback for classes beyond
/// [`crate::kernels::SPEC_LMAX`] (f shells and up).
///
/// It walks the dense [`ETable`](crate::hermite::ETable)s but forms each
/// Hermite weight as the pair dataset's
/// [`HermiteTable`](crate::shell_pairs::HermiteTable) does,
/// `((E_t E_u) E_v) ((c N) N)`, skipping the zero ones, and multiplies it
/// into the stages the way the class kernels do: stage 1 adds
/// `w * ((+-base) * R)`, stage 2 adds `w * W`.
#[derive(Default)]
pub struct GenericKernel {
    /// Stage-1 intermediate `W[tuv_flat * ncd + cd]`, per ket block pair.
    w: Vec<f64>,
    /// Reusable Hermite Coulomb table (one rebuild per primitive quartet).
    r: RTable,
}

impl EriKernel for GenericKernel {
    fn eval(
        &mut self,
        bra: &ShellPair,
        ket: &ShellPair,
        prefactor_cutoff: f64,
        out: &mut [f64],
    ) -> KernelRun {
        let (nb, nc, nd) = (bra.b.n_fn, ket.a.n_fn, ket.b.n_fn);
        debug_assert_eq!(out.len(), bra.a.n_fn * nb * nc * nd);
        out.iter_mut().for_each(|x| *x = 0.0);
        let mut prim_quartets = 0u64;

        let l_bra = bra.l_sum;
        let l_ket = ket.l_sum;
        let bra_dim = l_bra + 1;
        let n_tuv = bra_dim * bra_dim * bra_dim;

        // Primitive screening bound: largest possible coefficient weight.
        let coef_bound = bra.max_coef * ket.max_coef;

        for (ip_ab, bt) in bra.prims.iter().enumerate() {
            for (ip_cd, kt) in ket.prims.iter().enumerate() {
                let p = bt.p;
                let q = kt.p;
                let base = 2.0 * PI.powf(2.5) / (p * q * (p + q).sqrt());
                if (base * bt.k * kt.k * coef_bound).abs() < prefactor_cutoff {
                    continue;
                }
                prim_quartets += 1;
                let alpha = p * q / (p + q);
                // One R table per primitive quartet, reused by every block
                // combination.
                self.r.rebuild(
                    l_bra + l_ket,
                    alpha,
                    bt.center[0] - kt.center[0],
                    bt.center[1] - kt.center[1],
                    bt.center[2] - kt.center[2],
                );
                let r = &self.r;

                for (bci, blk_c) in ket.a.blocks.iter().enumerate() {
                    let comps_c = components(blk_c.l);
                    for (bdi, blk_d) in ket.b.blocks.iter().enumerate() {
                        let comps_d = components(blk_d.l);
                        let ncd = comps_c.len() * comps_d.len();
                        let wcd = ket.coef(ip_cd, bci, bdi);
                        if wcd == 0.0 {
                            continue;
                        }

                        // Stage 1: contract the ket Hermite expansion into
                        // W[tuv][cd], once per ket block pair. Component
                        // normalization of c and d folds into the weights.
                        let w_len = n_tuv * ncd;
                        if self.w.len() < w_len {
                            self.w.resize(w_len, 0.0);
                        }
                        let w = &mut self.w[..w_len];
                        w.iter_mut().for_each(|x| *x = 0.0);
                        for (icc, &(cx, cy, cz)) in comps_c.iter().enumerate() {
                            let wc = wcd * ket.a.norms[blk_c.off + icc];
                            for (idd, &(dx, dy, dz)) in comps_d.iter().enumerate() {
                                let cnn = wc * ket.b.norms[blk_d.off + idd];
                                let cdi = icc * comps_d.len() + idd;
                                for tau in 0..=(cx + dx) {
                                    let etx = kt.ex.get(cx, dx, tau);
                                    if etx == 0.0 {
                                        continue;
                                    }
                                    for nu in 0..=(cy + dy) {
                                        let ety = kt.ey.get(cy, dy, nu);
                                        if ety == 0.0 {
                                            continue;
                                        }
                                        for phi in 0..=(cz + dz) {
                                            let etz = kt.ez.get(cz, dz, phi);
                                            if etz == 0.0 {
                                                continue;
                                            }
                                            let we = etx * ety * etz * cnn;
                                            if we == 0.0 {
                                                continue;
                                            }
                                            let sb = if (tau + nu + phi) % 2 == 1 {
                                                -base
                                            } else {
                                                base
                                            };
                                            for t in 0..=l_bra {
                                                for u in 0..=(l_bra - t) {
                                                    for v in 0..=(l_bra - t - u) {
                                                        let widx =
                                                            ((t * bra_dim + u) * bra_dim + v) * ncd
                                                                + cdi;
                                                        w[widx] += we
                                                            * (sb
                                                                * r.get(t + tau, u + nu, v + phi));
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }

                        // Stage 2: bra expansion, every bra block pair, with
                        // a/b component normalization folded into the
                        // weights.
                        let w = &self.w[..w_len];
                        for (bai, blk_a) in bra.a.blocks.iter().enumerate() {
                            let comps_a = components(blk_a.l);
                            for (bbi, blk_b) in bra.b.blocks.iter().enumerate() {
                                let comps_b = components(blk_b.l);
                                let wab = bra.coef(ip_ab, bai, bbi);
                                if wab == 0.0 {
                                    continue;
                                }
                                for (iaa, &(ax, ay, az)) in comps_a.iter().enumerate() {
                                    let wa = wab * bra.a.norms[blk_a.off + iaa];
                                    for (ibb, &(bx, by, bz)) in comps_b.iter().enumerate() {
                                        let cnn = wa * bra.b.norms[blk_b.off + ibb];
                                        let obase = ((blk_a.off + iaa) * nb + blk_b.off + ibb) * nc;
                                        for t in 0..=(ax + bx) {
                                            let etx = bt.ex.get(ax, bx, t);
                                            if etx == 0.0 {
                                                continue;
                                            }
                                            for u in 0..=(ay + by) {
                                                let ety = bt.ey.get(ay, by, u);
                                                if ety == 0.0 {
                                                    continue;
                                                }
                                                for v in 0..=(az + bz) {
                                                    let etz = bt.ez.get(az, bz, v);
                                                    if etz == 0.0 {
                                                        continue;
                                                    }
                                                    let we = etx * ety * etz * cnn;
                                                    if we == 0.0 {
                                                        continue;
                                                    }
                                                    let h = (t * bra_dim + u) * bra_dim + v;
                                                    let row = &w[h * ncd..h * ncd + ncd];
                                                    for icc in 0..comps_c.len() {
                                                        for idd in 0..comps_d.len() {
                                                            let oidx = (obase + blk_c.off + icc)
                                                                * nd
                                                                + blk_d.off
                                                                + idd;
                                                            out[oidx] +=
                                                                we * row[icc * comps_d.len() + idd];
                                                        }
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        KernelRun { prim_quartets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::basis::{AngBlock, BasisName, BasisSet};
    use phi_chem::geom::small;
    use phi_chem::Shell;

    fn prim_shell(l: usize, alpha: f64, center: [f64; 3]) -> Shell {
        let df: f64 = (1..=l).map(|k| 2.0 * k as f64 - 1.0).product();
        let norm = (2.0 * alpha / PI).powf(0.75) * (4.0 * alpha).powf(l as f64 / 2.0) / df.sqrt();
        Shell {
            center,
            exps: vec![alpha],
            blocks: vec![AngBlock { l, coefs: vec![norm] }],
            first_bf: 0,
        }
    }

    fn quartet(engine: &mut EriEngine, a: &Shell, b: &Shell, c: &Shell, d: &Shell) -> Vec<f64> {
        let bra = ShellPair::build(0, 0, a, b, 0.0);
        let ket = ShellPair::build(0, 0, c, d, 0.0);
        let mut out = vec![0.0; bra.n_fn() * ket.n_fn()];
        engine.shell_quartet_pairs(&bra, &ket, &mut out);
        out
    }

    #[test]
    fn ssss_same_center_analytic() {
        // Four normalized unit-exponent s Gaussians at the origin:
        // (ss|ss) = 2 / sqrt(pi).
        let s = prim_shell(0, 1.0, [0.0; 3]);
        let mut e = EriEngine::new();
        e.prefactor_cutoff = 0.0;
        let v = quartet(&mut e, &s, &s, &s, &s);
        let want = 2.0 / PI.sqrt();
        assert!((v[0] - want).abs() < 1e-13, "{} vs {want}", v[0]);
    }

    #[test]
    fn ssss_two_center_erf_formula() {
        // (aa|bb) for normalized s Gaussians: centers A (pair at A) and B
        // (pair at B), exponents 2a and 2b for the pair distributions:
        // (aa|bb) = erf(sqrt(rho) R) / R * prefactors; with a = b = 1:
        // p = q = 2, rho = pq/(p+q) = 1, and normalizations cancel to give
        // (aa|bb) = erf(R) / R.
        let r = 1.75;
        let sa = prim_shell(0, 1.0, [0.0; 3]);
        let sb = prim_shell(0, 1.0, [0.0, 0.0, r]);
        let mut e = EriEngine::new();
        e.prefactor_cutoff = 0.0;
        let v = quartet(&mut e, &sa, &sa, &sb, &sb);
        // erf(1.75) = 0.9866716712191824.
        let want = 0.9866716712191824 / r;
        assert!((v[0] - want).abs() < 1e-12, "{} vs {want}", v[0]);
    }

    #[test]
    fn eight_fold_permutation_symmetry() {
        let a = prim_shell(1, 0.9, [0.1, 0.2, -0.3]);
        let b = prim_shell(0, 1.4, [-0.4, 0.5, 0.0]);
        let c = prim_shell(2, 0.7, [0.3, -0.6, 0.8]);
        let d = prim_shell(0, 1.1, [0.0, 0.9, -0.2]);
        let mut e = EriEngine::new();
        e.prefactor_cutoff = 0.0;
        let (na, nb, nc, nd) = (3, 1, 6, 1);
        let abcd = quartet(&mut e, &a, &b, &c, &d);
        let bacd = quartet(&mut e, &b, &a, &c, &d);
        let abdc = quartet(&mut e, &a, &b, &d, &c);
        let cdab = quartet(&mut e, &c, &d, &a, &b);
        for ia in 0..na {
            for ib in 0..nb {
                for ic in 0..nc {
                    for id in 0..nd {
                        let v = abcd[((ia * nb + ib) * nc + ic) * nd + id];
                        let v_ba = bacd[((ib * na + ia) * nc + ic) * nd + id];
                        let v_dc = abdc[((ia * nb + ib) * nd + id) * nc + ic];
                        let v_cd = cdab[((ic * nd + id) * na + ia) * nb + ib];
                        assert!((v - v_ba).abs() < 1e-13, "bra swap: {v} vs {v_ba}");
                        assert!((v - v_dc).abs() < 1e-13, "ket swap: {v} vs {v_dc}");
                        assert!((v - v_cd).abs() < 1e-13, "bra-ket swap: {v} vs {v_cd}");
                    }
                }
            }
        }
    }

    #[test]
    fn composite_l_shell_equals_split_shells() {
        // An SP shell must give the same integrals as separate S and P
        // shells with the same exponents/coefficients.
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let l_shell = b
            .shells
            .iter()
            .find(|s| s.blocks.len() == 2)
            .expect("water/STO-3G has an SP shell on oxygen");
        let s_only = Shell { blocks: vec![l_shell.blocks[0].clone()], ..l_shell.clone() };
        let p_only = Shell { blocks: vec![l_shell.blocks[1].clone()], ..l_shell.clone() };
        let probe = prim_shell(0, 0.8, [0.5, 0.1, -0.3]);
        let mut e = EriEngine::new();
        e.prefactor_cutoff = 0.0;
        let combined = quartet(&mut e, l_shell, &probe, &probe, &probe);
        let s_part = quartet(&mut e, &s_only, &probe, &probe, &probe);
        let p_part = quartet(&mut e, &p_only, &probe, &probe, &probe);
        assert_eq!(combined.len(), 4);
        assert!((combined[0] - s_part[0]).abs() < 1e-14);
        for k in 0..3 {
            assert!((combined[1 + k] - p_part[k]).abs() < 1e-14);
        }
    }

    #[test]
    fn schwarz_inequality_holds() {
        let shells = [
            prim_shell(0, 1.2, [0.0, 0.0, 0.0]),
            prim_shell(1, 0.8, [1.0, 0.0, 0.5]),
            prim_shell(2, 0.6, [-0.5, 0.8, 0.0]),
            prim_shell(0, 2.0, [0.3, -0.9, 1.2]),
        ];
        let mut e = EriEngine::new();
        e.prefactor_cutoff = 0.0;
        let qbound = |a: &Shell, b: &Shell, e: &mut EriEngine| -> f64 {
            let v = quartet(e, a, b, a, b);
            let (na, nb) = (a.n_functions(), b.n_functions());
            let mut q: f64 = 0.0;
            for ia in 0..na {
                for ib in 0..nb {
                    let diag = v[((ia * nb + ib) * na + ia) * nb + ib];
                    q = q.max(diag.abs());
                }
            }
            q.sqrt()
        };
        for a in &shells {
            for b in &shells {
                for c in &shells {
                    for d in &shells {
                        let v = quartet(&mut e, a, b, c, d);
                        let vmax = v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                        let bound = qbound(a, b, &mut e) * qbound(c, d, &mut e);
                        assert!(
                            vmax <= bound * (1.0 + 1e-10) + 1e-14,
                            "Schwarz violated: {vmax} > {bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn translation_invariance() {
        let a = prim_shell(1, 0.9, [0.1, 0.2, -0.3]);
        let b = prim_shell(2, 1.4, [-0.4, 0.5, 0.0]);
        let shift = [2.0, -1.0, 0.7];
        let shifted = |s: &Shell| Shell {
            center: [s.center[0] + shift[0], s.center[1] + shift[1], s.center[2] + shift[2]],
            ..s.clone()
        };
        let mut e = EriEngine::new();
        e.prefactor_cutoff = 0.0;
        let v1 = quartet(&mut e, &a, &b, &a, &b);
        let v2 = quartet(&mut e, &shifted(&a), &shifted(&b), &shifted(&a), &shifted(&b));
        for (x, y) in v1.iter().zip(&v2) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn prefactor_cutoff_only_drops_negligible_quartets() {
        let a = prim_shell(0, 1.0, [0.0; 3]);
        let b = prim_shell(0, 1.0, [0.0, 0.0, 30.0]);
        let mut exact = EriEngine::new();
        exact.prefactor_cutoff = 0.0;
        let mut screened = EriEngine::new();
        screened.prefactor_cutoff = 1e-18;
        let v_exact = quartet(&mut exact, &a, &b, &a, &b);
        let v_scr = quartet(&mut screened, &a, &b, &a, &b);
        for (x, y) in v_exact.iter().zip(&v_scr) {
            assert!((x - y).abs() < 1e-14);
        }
        assert!(screened.prim_quartets_computed() <= exact.prim_quartets_computed());
    }

    #[test]
    fn f_shells_work_through_the_general_recurrences() {
        // Nothing in the engine is specialized to l <= 2; exercise l = 3
        // (cartesian f, 10 components) through symmetry and positivity.
        let a = prim_shell(3, 0.6, [0.1, 0.0, -0.2]);
        let b = prim_shell(1, 0.9, [0.4, -0.3, 0.5]);
        let mut e = EriEngine::new();
        e.prefactor_cutoff = 0.0;
        let (na, nb) = (10, 3);
        let abab = quartet(&mut e, &a, &b, &a, &b);
        // Diagonal elements positive.
        for ia in 0..na {
            for ib in 0..nb {
                let diag = abab[((ia * nb + ib) * na + ia) * nb + ib];
                assert!(diag > 0.0, "f-shell diagonal ({ia},{ib}) = {diag}");
            }
        }
        // Bra-ket swap symmetry.
        let baba = quartet(&mut e, &b, &a, &b, &a);
        for ia in 0..na {
            for ib in 0..nb {
                let v1 = abab[((ia * nb + ib) * na + ia) * nb + ib];
                let v2 = baba[((ib * na + ia) * nb + ib) * na + ia];
                assert!((v1 - v2).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn specialized_kernels_match_generic_bitwise() {
        // Single-primitive shells: every bra primitive pair has exactly one
        // ket primitive pair, so the `eval_spec` kernels' sum over ket
        // primitives has one term and their arithmetic replays the generic
        // path's, bit for bit. Deeper contractions reassociate that sum, and
        // the ssss kernel's fused pair weights reassociate its products at
        // any depth, so the all-s quartet is skipped here; both are held to
        // 1e-14 in tests/kernel_parity.rs.
        let shells = [
            prim_shell(0, 1.2, [0.0, 0.0, 0.0]),
            prim_shell(1, 0.8, [1.0, 0.0, 0.5]),
            prim_shell(2, 0.6, [-0.5, 0.8, 0.0]),
            prim_shell(2, 1.3, [0.3, -0.9, 1.2]),
        ];
        let mut spec = EriEngine::new();
        let mut generic = EriEngine::generic_only();
        for a in &shells {
            for b in &shells {
                for c in &shells {
                    for d in &shells {
                        if [a, b, c, d].iter().all(|s| s.max_l() == 0) {
                            continue;
                        }
                        let vs = quartet(&mut spec, a, b, c, d);
                        let vg = quartet(&mut generic, a, b, c, d);
                        for (x, y) in vs.iter().zip(&vg) {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "kernel path diverges from generic: {x:e} vs {y:e}"
                            );
                        }
                    }
                }
            }
        }
        assert!(spec.spec_quartets_computed() > 0);
        assert_eq!(generic.spec_quartets_computed(), 0);
    }

    #[test]
    fn class_counters_track_dispatch() {
        let s = prim_shell(0, 1.0, [0.0; 3]);
        let d = prim_shell(2, 0.7, [0.4, 0.0, -0.2]);
        let f = prim_shell(3, 0.5, [0.1, 0.3, 0.0]);
        let mut e = EriEngine::new();
        let _ = quartet(&mut e, &s, &s, &s, &s); // (0,0)
        let _ = quartet(&mut e, &d, &d, &s, &s); // (4,0)
        let _ = quartet(&mut e, &f, &f, &s, &s); // l_bra = 6 -> generic
        let counts = e.class_counts();
        assert_eq!(counts[crate::kernels::class_index(0, 0)], 1);
        assert_eq!(counts[crate::kernels::class_index(4, 0)], 1);
        assert_eq!(counts[crate::kernels::GENERIC_SLOT], 1);
        assert_eq!(e.spec_quartets_computed(), 2);
        assert_eq!(e.shell_quartets_computed(), 3);
    }

    #[test]
    fn diagonal_quartets_are_positive() {
        // (ab|ab) with matching components is a norm, hence >= 0.
        let a = prim_shell(1, 0.7, [0.2, 0.0, 0.1]);
        let b = prim_shell(2, 1.1, [-0.3, 0.4, 0.0]);
        let mut e = EriEngine::new();
        e.prefactor_cutoff = 0.0;
        let v = quartet(&mut e, &a, &b, &a, &b);
        let (na, nb) = (3, 6);
        for ia in 0..na {
            for ib in 0..nb {
                let diag = v[((ia * nb + ib) * na + ia) * nb + ib];
                assert!(diag > 0.0, "diagonal ({ia},{ib}) = {diag}");
            }
        }
    }
}
