//! Serial reference Fock build: the canonical quartet loops of Algorithm 1
//! over the significant-pair list on a single thread, no MPI, no OpenMP.
//! Ground truth for the parallel builders and the baseline for workload
//! statistics.
//!
//! Policy row: every position of the significant-pair list in order (the
//! pair rows' task space, unleased), no team, one lower-triangle buffer
//! digested through [`TriSink`], no reduce.

use super::driver::{Quartets, SignificantPairs};
use super::engine::FockContext;
use super::{digest, tri_to_full, GBuild, ReplicatedDensity, TriSink};
use std::time::Instant;

/// `G(D)`, every surviving ERI evaluated once.
pub(crate) fn build(
    ctx: &FockContext<'_>,
    kl: &SignificantPairs,
    mut dens: ReplicatedDensity<'_>,
) -> GBuild {
    let _span = phi_trace::span("fock.build");
    let start = Instant::now();
    let basis = ctx.basis;
    let n = basis.n_basis();
    let mut fock = vec![0.0; n * n];
    let mut sink = TriSink { buf: &mut fock, n };
    let mut quartets = Quartets::new(ctx, kl);
    for p in 0..kl.len() {
        let (i, j) = kl.pair(p);
        quartets.pair_task(p, |k, l, eri| digest(basis, i, j, k, l, eri, &mut dens, &mut sink));
    }
    let mut stats = quartets.finish(0, 0);
    stats.seconds = start.elapsed().as_secs_f64();
    GBuild { g: tri_to_full(&fock, n), stats }
}

/// Reference-only orbit walker for one unique integral `(mu nu|lam sig)`:
/// each distinct ordered tuple `(a,b,c,e)` of its eight-member orbit adds
/// Coulomb `cj D_ce X` to `F_ab` and exchange `ck X D_be` to `F_ac`,
/// canonical (`row >= col`) updates only, into the lower-triangle buffer
/// `buf` of dimension `n`. `(cj, ck) = (1, -1/2)` is the RHF digestion,
/// `(1, 0)` pure Coulomb, `(0, -1/2)` the exchange part alone.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn digest_value_scaled(
    mu: usize,
    nu: usize,
    lam: usize,
    sig: usize,
    x: f64,
    d: &phi_linalg::Mat,
    cj: f64,
    ck: f64,
    buf: &mut [f64],
    n: usize,
) {
    let orbit = [
        (mu, nu, lam, sig),
        (nu, mu, lam, sig),
        (mu, nu, sig, lam),
        (nu, mu, sig, lam),
        (lam, sig, mu, nu),
        (sig, lam, mu, nu),
        (lam, sig, nu, mu),
        (sig, lam, nu, mu),
    ];
    for (idx, &(a, b, c, e)) in orbit.iter().enumerate() {
        if orbit[..idx].contains(&(a, b, c, e)) {
            continue;
        }
        if cj != 0.0 && a >= b {
            buf[a * n + b] += cj * d[(c, e)] * x;
        }
        if ck != 0.0 && a >= c {
            buf[a * n + c] += ck * x * d[(b, e)];
        }
    }
}

/// Build a generalized two-electron matrix
/// `M_{mu nu} = cj * J(D)_{mu nu} + ck * K(D)_{mu nu}` with the serial
/// canonical loops: `(1, -0.5)` recovers the RHF `G`, `(1, 0)` gives pure
/// Coulomb and `(0, -0.5)` the exchange part — an independent reference
/// for the block digester.
#[cfg(test)]
pub(crate) fn build_jk_serial(
    basis: &phi_chem::BasisSet,
    pairs: &phi_integrals::ShellPairs,
    screening: &phi_integrals::Screening,
    tau: f64,
    d: &phi_linalg::Mat,
    cj: f64,
    ck: f64,
) -> GBuild {
    use super::kl_bounds;
    use crate::stats::FockBuildStats;
    use phi_integrals::EriEngine;
    let start = std::time::Instant::now();
    let n = basis.n_basis();
    let ns = basis.n_shells();
    let mut buf = vec![0.0; n * n];
    let mut engine = EriEngine::new();
    let mut quartets_computed = 0u64;
    let mut quartets_screened = 0u64;
    let mut eri_buf: Vec<f64> = Vec::new();

    for i in 0..ns {
        for j in 0..=i {
            for k in 0..=i {
                for l in 0..=kl_bounds(i, j, k) {
                    if !screening.survives(i, j, k, l, tau) {
                        quartets_screened += 1;
                        continue;
                    }
                    let (bra, ket) = (pairs.pair(i, j), pairs.pair(k, l));
                    eri_buf.resize(bra.n_fn() * ket.n_fn(), 0.0);
                    engine.shell_quartet_pairs(bra, ket, &mut eri_buf);
                    // Digest with custom J/K factors over canonical
                    // function quartets.
                    let sh =
                        [&basis.shells[i], &basis.shells[j], &basis.shells[k], &basis.shells[l]];
                    let (ni, nj, nk, nl) = (
                        sh[0].n_functions(),
                        sh[1].n_functions(),
                        sh[2].n_functions(),
                        sh[3].n_functions(),
                    );
                    let same_ij = i == j;
                    let same_kl = k == l;
                    let same_pair = i == k && j == l;
                    for fa in 0..ni {
                        let mu = sh[0].first_bf + fa;
                        let b_hi = if same_ij { fa + 1 } else { nj };
                        for fb in 0..b_hi {
                            let nu = sh[1].first_bf + fb;
                            let munu = mu * (mu + 1) / 2 + nu;
                            for fc in 0..nk {
                                let lam = sh[2].first_bf + fc;
                                let d_hi = if same_kl { fc + 1 } else { nl };
                                for fd in 0..d_hi {
                                    let sig = sh[3].first_bf + fd;
                                    if same_pair && lam * (lam + 1) / 2 + sig > munu {
                                        continue;
                                    }
                                    let x = eri_buf[((fa * nj + fb) * nk + fc) * nl + fd];
                                    if x != 0.0 {
                                        digest_value_scaled(
                                            mu, nu, lam, sig, x, d, cj, ck, &mut buf, n,
                                        );
                                    }
                                }
                            }
                        }
                    }
                    quartets_computed += 1;
                }
            }
        }
    }
    GBuild {
        g: tri_to_full(&buf, n),
        stats: FockBuildStats {
            seconds: start.elapsed().as_secs_f64(),
            quartets_computed,
            quartets_screened,
            prim_quartets: engine.prim_quartets_computed(),
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::engine::FockData;
    use crate::fock::{DensitySet, FockAlgorithm};
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_chem::BasisSet;
    use phi_linalg::Mat;

    /// Serial restricted build at threshold `tau`.
    fn serial(b: &BasisSet, data: &FockData, tau: f64, d: &Mat) -> GBuild {
        FockAlgorithm::Serial.builder().build(&data.context(b, tau), &DensitySet::Restricted(d))
    }

    #[test]
    fn g_is_symmetric() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let n = b.n_basis();
        let d = Mat::from_fn(n, n, |i, j| if i == j { 0.4 } else { 0.0 });
        let g = serial(&b, &FockData::build(&b), 1e-12, &d).g;
        assert!(g.is_symmetric(1e-12));
    }

    #[test]
    fn g_is_linear_in_density() {
        let b = BasisSet::build(&small::hydrogen_molecule(1.4), BasisName::Sto3g);
        let n = b.n_basis();
        let data = FockData::build(&b);
        let d1 = Mat::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.2 });
        let d2 = Mat::from_fn(n, n, |i, j| 3.0 * d1[(i, j)]);
        let g1 = serial(&b, &data, 0.0, &d1).g;
        let g2 = serial(&b, &data, 0.0, &d2).g;
        let g1x3 = Mat::from_fn(n, n, |i, j| 3.0 * g1[(i, j)]);
        assert!(g2.max_abs_diff(&g1x3) < 1e-10);
    }

    #[test]
    fn stats_are_populated() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let n = b.n_basis();
        let d = Mat::identity(n);
        let out = serial(&b, &FockData::build(&b), 1e-10, &d);
        let ns = b.n_shells();
        // Total canonical quartets = P(P+1)/2 with P = ns(ns+1)/2.
        let p = ns * (ns + 1) / 2;
        assert_eq!(
            out.stats.quartets_computed + out.stats.quartets_screened,
            (p * (p + 1) / 2) as u64
        );
        assert!(out.stats.quartets_computed > 0);
        assert!(out.stats.prim_quartets > 0);
    }

    #[test]
    fn restricted_build_matches_the_jk_reference() {
        // The block digester at (cj, ck) = (1, -1/2) against the
        // independent scaled orbit walker; the two sum in different orders.
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let n = b.n_basis();
        let d = Mat::from_fn(n, n, |i, j| if i == j { 0.9 } else { 0.1 });
        let data = FockData::build(&b);
        let via_engine = serial(&b, &data, 1e-12, &d);
        let reference = build_jk_serial(&b, &data.pairs, &data.screening, 1e-12, &d, 1.0, -0.5);
        let scale = reference.g.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let diff = via_engine.g.max_abs_diff(&reference.g);
        assert!(diff <= 1e-12 * scale, "differs by {diff:e} (largest element {scale:e})");
    }

    #[test]
    fn jk_pieces_recombine_to_rhf_g() {
        // G(D) = J(D) - K(D)/2 must equal the one-pass RHF digestion.
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let (pairs, s) = (&data.pairs, &data.screening);
        let n = b.n_basis();
        let d = Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.1 + ((i + 3 * j) % 5) as f64 * 0.07
        });
        let g = serial(&b, &data, 0.0, &d).g;
        let j = build_jk_serial(&b, pairs, s, 0.0, &d, 1.0, 0.0).g;
        let mk_half = build_jk_serial(&b, pairs, s, 0.0, &d, 0.0, -0.5).g;
        assert!(g.max_abs_diff(&j.add(&mk_half)) < 1e-10);
    }
}
