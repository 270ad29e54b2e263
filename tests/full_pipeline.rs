//! Cross-crate integration tests: geometry -> basis -> integrals -> SCF
//! with the parallel Fock builders, end to end.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::hf::{run_scf, FockAlgorithm, ScfConfig};

fn energy(mol: &phi_scf::chem::Molecule, basis: BasisName, algorithm: FockAlgorithm) -> f64 {
    let b = BasisSet::build(mol, basis);
    let r = run_scf(mol, &b, &ScfConfig { algorithm, ..Default::default() });
    assert!(r.converged, "{} did not converge on {:?}", algorithm.label(), basis);
    r.energy
}

#[test]
fn methane_631g_agrees_across_all_algorithms() {
    let mol = small::methane();
    let serial = energy(&mol, BasisName::B631g, FockAlgorithm::Serial);
    // RHF/6-31G methane is around -40.18 Eh; guard the ballpark so a wrong
    // basis or integral bug cannot hide behind self-consistency.
    assert!((serial - (-40.18)).abs() < 0.05, "methane energy {serial}");
    for algorithm in [
        FockAlgorithm::MpiOnly { n_ranks: 3 },
        FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 4 },
    ] {
        let e = energy(&mol, BasisName::B631g, algorithm);
        assert!((e - serial).abs() < 1e-8, "{}: {e} vs serial {serial}", algorithm.label());
    }
}

#[test]
fn water_631gd_exercises_d_functions_in_parallel() {
    let mol = small::water();
    let serial = energy(&mol, BasisName::B631gd, FockAlgorithm::Serial);
    // RHF/6-31G(d) water at the experimental geometry: about -76.01 Eh.
    assert!((serial - (-76.01)).abs() < 0.03, "water/6-31G(d) energy {serial}");
    let shared =
        energy(&mol, BasisName::B631gd, FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 });
    assert!((shared - serial).abs() < 1e-8);
}

#[test]
fn basis_set_quality_ordering() {
    // Bigger basis => lower (variational) RHF energy for the same molecule.
    let mol = small::water();
    let sto = energy(&mol, BasisName::Sto3g, FockAlgorithm::Serial);
    let dz = energy(&mol, BasisName::B631g, FockAlgorithm::Serial);
    let dzp = energy(&mol, BasisName::B631gd, FockAlgorithm::Serial);
    let dzpp = energy(&mol, BasisName::B631gdp, FockAlgorithm::Serial);
    assert!(dz < sto, "6-31G {dz} must be below STO-3G {sto}");
    assert!(dzp < dz, "6-31G(d) {dzp} must be below 6-31G {dz}");
    assert!(dzpp < dzp, "6-31G(d,p) {dzpp} must be below 6-31G(d) {dzp}");
    // RHF/6-31G(d,p) water is about -76.02 Eh.
    assert!((dzpp - (-76.02)).abs() < 0.03, "6-31G(d,p) water {dzpp}");
}

#[test]
fn hydrogen_dissociation_curve_is_sane() {
    // RHF H2: minimum near 1.4 a0; energy rises on compression and
    // stretching (RHF does not dissociate correctly, but the near-minimum
    // shape must hold).
    let e = |r: f64| energy(&small::hydrogen_molecule(r), BasisName::Sto3g, FockAlgorithm::Serial);
    let e_compressed = e(1.0);
    let e_min = e(1.4);
    let e_stretched = e(2.2);
    assert!(e_min < e_compressed, "{e_min} vs compressed {e_compressed}");
    assert!(e_min < e_stretched, "{e_min} vs stretched {e_stretched}");
}

#[test]
fn charged_species_work_end_to_end() {
    // H3+ (equilateral, 2 electrons) is a closed-shell cation exercising
    // the charge bookkeeping through the whole stack.
    let r = 1.65;
    let h = 3f64.sqrt() / 2.0;
    let mol = phi_scf::chem::Molecule::new(
        vec![
            phi_scf::chem::Atom { element: phi_scf::chem::Element::H, pos: [0.0, 0.0, 0.0] },
            phi_scf::chem::Atom { element: phi_scf::chem::Element::H, pos: [r, 0.0, 0.0] },
            phi_scf::chem::Atom { element: phi_scf::chem::Element::H, pos: [r / 2.0, r * h, 0.0] },
        ],
        1,
    );
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let res = run_scf(&mol, &b, &ScfConfig::default());
    assert!(res.converged);
    // Physical sanity: H3+ must be bound with respect to H2 + H+ (the
    // proton affinity of H2 is positive), i.e. E(H3+) < E(H2).
    let h2 = energy(&small::hydrogen_molecule(1.4), BasisName::Sto3g, FockAlgorithm::Serial);
    assert!(res.energy < h2, "H3+ {} must lie below H2 {}", res.energy, h2);
    // Regression anchor for our basis/geometry.
    assert!((res.energy - (-1.2375)).abs() < 5e-3, "H3+ energy {}", res.energy);
}

#[test]
fn scf_reports_complete_statistics() {
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let r = run_scf(
        &mol,
        &b,
        &ScfConfig {
            algorithm: FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
            ..Default::default()
        },
    );
    assert_eq!(r.fock_stats.len(), r.iterations);
    for s in &r.fock_stats {
        assert!(s.quartets_computed > 0);
    }
    assert_eq!(r.energy_history.len(), r.iterations);
    assert!(r.orbital_energies.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    // Occupied orbital energies of a stable closed-shell molecule are
    // negative (Koopmans).
    assert!(r.orbital_energies[..mol.n_occupied()].iter().all(|&e| e < 0.0));
}

/// The all-s integral path end to end: a serial SCF on the benchmark's
/// H₂₈/6-31G chain (every quartet one ssss kernel call, every `F_0` the
/// F0-only table) against `benchmark/`'s pinned energy for the unjittered
/// geometry, at the benchmark's own 1e-8. Ignored in tier-1 for its debug
/// cost; CI runs it optimised with `--ignored`.
#[test]
#[ignore]
fn h28_631g_serial_energy_matches_the_benchmark_pin() {
    let e = energy(&small::h_chain(28, 1.8), BasisName::B631g, FockAlgorithm::Serial);
    assert!((e - (-14.99185444)).abs() < 1e-8, "H28/6-31G energy {e:.10}");
}
