//! Incremental-vs-full SCF parity: running the drivers with `--incremental`
//! semantics (ΔD builds under density-weighted screening, accumulated onto
//! the reference `G`, periodic full rebuilds) must land on the same
//! converged answer as the plain direct drivers — for RHF and UHF, under
//! every parallel Fock algorithm.
//!
//! Two guarantees are pinned here (the third — trace counter totals
//! reconciling exactly with the summed per-iteration stats — needs a
//! session no other test can leak into and lives in `trace_invariants.rs`):
//!
//! - the final energy agrees with the non-incremental run to 1e-8 Eh when
//!   both are converged to a density RMS of 1e-10. The two decades matter:
//!   the stopping rule looks at the density step, and under DIIS a run can
//!   stop with its energy still 1e-8 from the fixed point (ROADMAP 4f), so
//!   two runs stopped *at* the tolerance differ by where each happened to
//!   stop — H₃ UHF(2,1) ended 1.4e-8 and 3.6e-8 apart under some lease
//!   orders — and not by what the ΔD accumulation costs (every dropped
//!   quartet contributes less than `tau` per build, and full rebuilds
//!   reset the accumulation);
//! - an incremental build never computes more quartets than the full
//!   build before it, once max|ΔD| <= 1. The weighted test is
//!   `Q_ij Q_kl f >= tau` with `f <= max|ΔD|`, so while `f <= 1` it implies
//!   the static `Q_ij Q_kl >= tau` and the ΔD build's survivors are a
//!   subset of the full build's. Nothing stronger holds: ΔD is not
//!   monotone under DIIS, so the count may rise again *within* a stretch
//!   (methane: 210, then all 231), and while the core guess is still being
//!   undone max|ΔD| exceeds 1 (7.25 on water/6-31G) and the weighted test
//!   is the looser of the two.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::chem::Molecule;
use phi_scf::hf::{run_scf, FockAlgorithm, FockBuildStats, ScfConfig, ScfResult, Spin};

fn algorithms() -> [FockAlgorithm; 4] {
    [
        FockAlgorithm::MpiOnly { n_ranks: 3 },
        FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::Distributed { n_ranks: 3 },
    ]
}

/// The two test systems: one with a split-valence basis (so the Schwarz
/// spectrum has some spread) and one minimal-basis multi-atom case.
fn systems() -> [(Molecule, BasisName); 2] {
    [(small::water(), BasisName::B631g), (small::methane(), BasisName::Sto3g)]
}

/// Both runs of a parity pair converge two decades tighter than
/// [`ENERGY_TOL`] (module docs).
const CONVERGENCE: f64 = 1e-10;
const ENERGY_TOL: f64 = 1e-8;

/// The first build from which max|ΔD| stays below 1/2 in a serial run of
/// `config`: build `it` digests `D_it − D_(it−1)`, and a run capped at
/// `it` iterations returns `D_it` (the core guess for 0). Parallel runs
/// follow the same trajectory to far better than the factor 2 left here.
fn settled_from(mol: &Molecule, b: &BasisSet, config: &ScfConfig) -> usize {
    let capped = |it| run_scf(mol, b, &ScfConfig { max_iterations: it, ..config.clone() });
    let max_delta = |new: &ScfResult, old: &ScfResult| {
        let beta = new.beta.iter().zip(&old.beta).map(|(n, o)| n.density.max_abs_diff(&o.density));
        beta.fold(new.density.max_abs_diff(&old.density), f64::max)
    };
    let iterations = run_scf(mol, b, config).iterations;
    let d: Vec<ScfResult> = (0..iterations).map(capped).collect();
    (1..iterations).rev().find(|&it| max_delta(&d[it], &d[it - 1]) > 0.5).map_or(1, |it| it + 1)
}

/// Check the quartet-count discipline of an incremental run's stats: the
/// first build is full, and every incremental build from `settled` on
/// (there must be one) stays within the preceding full build's count.
fn check_quartet_discipline(label: &str, stats: &[FockBuildStats], settled: usize) {
    assert!(!stats[0].incremental, "{label}: first build must be full");
    assert!(
        stats.iter().skip(settled).any(|s| s.incremental),
        "{label}: no incremental build with max|ΔD| <= 1 in {} iterations",
        stats.len()
    );
    let mut full = stats[0].quartets_computed;
    for (it, s) in stats.iter().enumerate().skip(1) {
        if !s.incremental {
            full = s.quartets_computed;
        } else if it >= settled {
            assert!(
                s.quartets_computed <= full,
                "{label}: incremental iteration {it} computed {} quartets, \
                 more than the full build's {full}",
                s.quartets_computed
            );
        }
    }
}

#[test]
fn rhf_incremental_matches_full_under_every_algorithm() {
    for (mol, basis) in systems() {
        let b = BasisSet::build(&mol, basis);
        let serial = ScfConfig { convergence: CONVERGENCE, ..Default::default() };
        let settled = settled_from(&mol, &b, &serial);
        for algorithm in algorithms() {
            let base = ScfConfig { algorithm, ..serial.clone() };
            let full = run_scf(&mol, &b, &base);
            let inc =
                run_scf(&mol, &b, &ScfConfig { incremental: true, full_rebuild_every: 6, ..base });
            let label = format!("{} on {basis:?}", algorithm.label());
            assert!(full.converged && inc.converged, "{label}: convergence lost");
            let de = (inc.energy - full.energy).abs();
            assert!(
                de < ENERGY_TOL,
                "{label}: incremental energy off by {de:.3e} \
                 ({} vs {})",
                inc.energy,
                full.energy
            );
            check_quartet_discipline(&label, &inc.fock_stats, settled);
            // The non-incremental run must not carry the flag at all.
            assert!(full.fock_stats.iter().all(|s| !s.incremental), "{label}");
        }
    }
}

#[test]
fn uhf_incremental_matches_full_under_every_algorithm() {
    // Closed-shell water driven through the spin-resolved code path, and a
    // genuinely open-shell doublet H3 chain (triplet H2 would converge in
    // one iteration, leaving no incremental stretch to exercise).
    let cases = [
        (small::water(), BasisName::Sto3g, 5usize, 5usize),
        (small::h_chain(3, 1.8), BasisName::Sto3g, 2, 1),
    ];
    for (mol, basis, n_a, n_b) in cases {
        let b = BasisSet::build(&mol, basis);
        let spin = Spin::Unrestricted { n_alpha: n_a, n_beta: n_b, break_symmetry: false };
        let serial = ScfConfig { spin, convergence: CONVERGENCE, ..Default::default() };
        let settled = settled_from(&mol, &b, &serial);
        for algorithm in algorithms() {
            let base = ScfConfig { algorithm, ..serial.clone() };
            let full = run_scf(&mol, &b, &base);
            let inc = run_scf(
                &mol,
                &b,
                &ScfConfig { incremental: true, full_rebuild_every: 6, ..base.clone() },
            );
            let label = format!("UHF({n_a},{n_b}) {} on {basis:?}", algorithm.label());
            assert!(full.converged && inc.converged, "{label}: convergence lost");
            let de = (inc.energy - full.energy).abs();
            assert!(de < ENERGY_TOL, "{label}: incremental energy off by {de:.3e}");
            check_quartet_discipline(&label, &inc.fock_stats, settled);
        }
    }
}

#[test]
fn frequent_full_rebuilds_stay_bit_identical_with_the_plain_driver() {
    // full_rebuild_every = 1 means *every* build is a full rebuild under
    // static screening — the incremental machinery must then be a no-op,
    // bit for bit, since full rebuilds bypass the ΔD path entirely.
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::B631g);
    let base = ScfConfig::default();
    let plain = run_scf(&mol, &b, &base);
    let k1 = run_scf(&mol, &b, &ScfConfig { incremental: true, full_rebuild_every: 1, ..base });
    assert_eq!(plain.energy.to_bits(), k1.energy.to_bits());
    assert_eq!(plain.energy_history.len(), k1.energy_history.len());
    for (p, q) in plain.energy_history.iter().zip(&k1.energy_history) {
        assert_eq!(p.to_bits(), q.to_bits());
    }
    assert!(k1.fock_stats.iter().all(|s| !s.incremental));
}
