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
//! - the final energy agrees with the non-incremental run within the SCF
//!   convergence threshold (the accumulated screening error is bounded by
//!   design: every dropped quartet contributes less than `tau` per build,
//!   and full rebuilds reset the accumulation);
//! - the per-iteration `quartets_computed` stat never *grows* across an
//!   incremental stretch, and never exceeds the full-rebuild count — the
//!   whole point of weighting the screening by ΔD.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::chem::Molecule;
use phi_scf::hf::{run_scf, FockAlgorithm, FockBuildStats, ScfConfig, Spin};

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

/// Check the quartet-count discipline of an incremental run's stats:
/// the first build is full, at least one later build is incremental, and
/// within every incremental stretch the surviving-quartet count is
/// non-increasing and bounded by the preceding full build's count.
fn check_quartet_discipline(label: &str, stats: &[FockBuildStats]) {
    assert!(!stats[0].incremental, "{label}: first build must be full");
    assert!(
        stats.iter().any(|s| s.incremental),
        "{label}: no incremental build in {} iterations",
        stats.len()
    );
    let mut prev = stats[0].quartets_computed;
    let mut full = stats[0].quartets_computed;
    for (it, s) in stats.iter().enumerate().skip(1) {
        if s.incremental {
            assert!(
                s.quartets_computed <= prev,
                "{label}: iteration {it} computed {} quartets, up from {prev} \
                 within an incremental stretch",
                s.quartets_computed
            );
            assert!(
                s.quartets_computed <= full,
                "{label}: incremental iteration {it} computed {} quartets, \
                 more than the full build's {full}",
                s.quartets_computed
            );
        } else {
            full = s.quartets_computed;
        }
        prev = s.quartets_computed;
    }
}

#[test]
fn rhf_incremental_matches_full_under_every_algorithm() {
    for (mol, basis) in systems() {
        let b = BasisSet::build(&mol, basis);
        for algorithm in algorithms() {
            let base = ScfConfig { algorithm, ..Default::default() };
            let full = run_scf(&mol, &b, &base);
            let inc =
                run_scf(&mol, &b, &ScfConfig { incremental: true, full_rebuild_every: 6, ..base });
            let label = format!("{} on {basis:?}", algorithm.label());
            assert!(full.converged && inc.converged, "{label}: convergence lost");
            let de = (inc.energy - full.energy).abs();
            assert!(
                de < base.convergence,
                "{label}: incremental energy off by {de:.3e} \
                 ({} vs {})",
                inc.energy,
                full.energy
            );
            check_quartet_discipline(&label, &inc.fock_stats);
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
        for algorithm in algorithms() {
            let base = ScfConfig { spin, algorithm, ..Default::default() };
            let full = run_scf(&mol, &b, &base);
            let inc = run_scf(
                &mol,
                &b,
                &ScfConfig { incremental: true, full_rebuild_every: 6, ..base.clone() },
            );
            let label = format!("UHF({n_a},{n_b}) {} on {basis:?}", algorithm.label());
            assert!(full.converged && inc.converged, "{label}: convergence lost");
            let de = (inc.energy - full.energy).abs();
            assert!(de < base.convergence, "{label}: incremental energy off by {de:.3e}");
            check_quartet_discipline(&label, &inc.fock_stats);
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
