//! Parallel-UHF parity: every parallel Fock builder, driven through the
//! unified engine with an unrestricted density set, must reproduce the
//! serial α and β two-electron matrices to tight tolerance.
//!
//! This is the guarantee that lets an unrestricted `run_scf` accept any
//! `FockAlgorithm`:
//! the spin-generalized digestion is the same code path for all builders,
//! so agreement here means UHF inherits the paper's parallel schemes
//! wholesale.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::hf::{DensitySet, FockAlgorithm, FockContext};
use phi_scf::integrals::{Screening, ShellPairs};
use phi_scf::linalg::Mat;

/// Symmetric pseudo-density with different α and β content (open shell).
fn spin_densities(n: usize) -> (Mat, Mat) {
    let d_a = Mat::from_fn(n, n, |i, j| {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        0.25 + ((i * 5 + j * 3) % 7) as f64 * 0.08
    });
    let d_b = Mat::from_fn(n, n, |i, j| {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        0.15 + ((i * 3 + j * 7) % 5) as f64 * 0.06
    });
    (d_a, d_b)
}

#[test]
fn parallel_uhf_builds_match_serial_on_both_spin_channels() {
    let algorithms = [
        FockAlgorithm::MpiOnly { n_ranks: 3 },
        FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::Distributed { n_ranks: 3 },
    ];
    for (mol, basis) in
        [(small::water(), BasisName::B631g), (small::c_ring(6, 1.39), BasisName::Sto3g)]
    {
        let b = BasisSet::build(&mol, basis);
        let pairs = ShellPairs::build(&b);
        let s = Screening::from_pairs(&b, &pairs);
        let ctx = FockContext::new(&b, &pairs, &s, 1e-12);
        let (d_a, d_b) = spin_densities(b.n_basis());
        let dens = DensitySet::Unrestricted { alpha: &d_a, beta: &d_b };

        let want = FockAlgorithm::Serial.builder().build(&ctx, &dens);
        let want_b = want.g_beta.as_ref().expect("serial beta channel");

        for alg in algorithms {
            let got = alg.builder().build(&ctx, &dens);
            let got_b = got.g_beta.as_ref().expect("beta channel");
            let da = got.g.max_abs_diff(&want.g);
            let db = got_b.max_abs_diff(want_b);
            assert!(
                da < 1e-12 && db < 1e-12,
                "{} on {basis:?}: alpha diff {da:.3e}, beta diff {db:.3e}",
                alg.label()
            );
            // Same quartets survive the same screening on every builder.
            assert_eq!(got.stats.quartets_computed, want.stats.quartets_computed);
        }
    }
}

#[test]
fn restricted_pair_collapses_to_rhf_build() {
    // α = β = D/2 must reproduce the restricted G(D) exactly — the UHF
    // digestion orbit is then algebraically identical to the RHF one.
    let b = BasisSet::build(&small::water(), BasisName::B631g);
    let pairs = ShellPairs::build(&b);
    let s = Screening::from_pairs(&b, &pairs);
    let ctx = FockContext::new(&b, &pairs, &s, 1e-12);
    let n = b.n_basis();
    let (d_a, _) = spin_densities(n);
    let mut half = d_a.clone();
    half.scale(0.5);
    let dens = DensitySet::Unrestricted { alpha: &half, beta: &half };

    for alg in [FockAlgorithm::Serial, FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 }] {
        let uhf = alg.builder().build(&ctx, &dens);
        let rhf = alg.builder().build(&ctx, &DensitySet::Restricted(&d_a));
        // F_α = J(D) - K(D/2) = J(D) - K(D)/2 = G_RHF.
        let diff = uhf.g.max_abs_diff(&rhf.g);
        assert!(diff < 1e-12, "{}: closed-shell UHF vs RHF diff {diff:.3e}", alg.label());
    }
}
