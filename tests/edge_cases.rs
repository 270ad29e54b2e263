//! Failure injection and boundary behaviour across the stack.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::chem::{Atom, Element, Molecule};
use phi_scf::hf::{run_scf, FockAlgorithm, ScfConfig};

#[test]
fn non_convergence_is_reported_not_hidden() {
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let r = run_scf(&mol, &b, &ScfConfig { max_iterations: 2, diis: false, ..Default::default() });
    assert!(!r.converged, "2 iterations cannot converge water");
    assert_eq!(r.iterations, 2);
    assert!(r.energy.is_finite());
}

#[test]
fn near_linear_dependence_is_projected_out() {
    // Two hydrogens almost on top of each other: the overlap matrix is
    // nearly singular; the default s_threshold projection must keep SCF
    // stable.
    let mol = Molecule::new(
        vec![
            Atom { element: Element::H, pos: [0.0, 0.0, 0.0] },
            Atom { element: Element::H, pos: [0.0, 0.0, 1e-5] },
        ],
        0,
    );
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let r = run_scf(&mol, &b, &ScfConfig::default());
    assert!(r.converged, "linear dependence must not break SCF");
    assert!(r.energy.is_finite());
    // Two coincident protons with two electrons: helium-like energy plus
    // the huge nuclear repulsion term 1/1e-5.
    assert!(r.energy > 1e4, "nuclear repulsion must dominate: {}", r.energy);
}

#[test]
fn single_atom_runs_through_every_algorithm() {
    // One helium atom: 1 shell. Exercises all the degenerate loop bounds
    // (single task, single pair) in the parallel builders.
    let mol = Molecule::neutral(vec![Atom { element: Element::He, pos: [0.0; 3] }]);
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let mut energies = Vec::new();
    for algorithm in [
        FockAlgorithm::Serial,
        FockAlgorithm::MpiOnly { n_ranks: 3 },
        FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
    ] {
        let r = run_scf(&mol, &b, &ScfConfig { algorithm, ..Default::default() });
        assert!(r.converged);
        energies.push(r.energy);
    }
    for e in &energies[1..] {
        assert!((e - energies[0]).abs() < 1e-10);
    }
    // He/STO-3G ground state: -2.8078 Eh (textbook value -2.8077839).
    assert!((energies[0] - (-2.8078)).abs() < 1e-3, "He energy {}", energies[0]);
}

#[test]
fn more_ranks_than_tasks_still_terminates() {
    // 8 ranks x 2 threads on a 2-shell molecule: most ranks get nothing.
    let mol = small::hydrogen_molecule(1.4);
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let r = run_scf(
        &mol,
        &b,
        &ScfConfig {
            algorithm: FockAlgorithm::SharedFock { n_ranks: 8, n_threads: 2 },
            ..Default::default()
        },
    );
    assert!(r.converged);
    assert!((r.energy - (-1.1167)).abs() < 2e-4);
}

#[test]
fn extreme_screening_threshold_degrades_gracefully() {
    // tau = 1.0 screens essentially everything: SCF must still terminate
    // (it just solves a core-Hamiltonian-like problem).
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let r = run_scf(
        &mol,
        &b,
        &ScfConfig { screening_tau: 1.0, max_iterations: 50, ..Default::default() },
    );
    assert!(r.energy.is_finite());
    // And the screened energy must be *wrong* relative to the exact one —
    // confirming quartets were really dropped, not silently kept.
    let exact = run_scf(&mol, &b, &ScfConfig::default());
    assert!((r.energy - exact.energy).abs() > 1e-3);
}

#[test]
fn zero_electron_systems_are_rejected() {
    let mol = Molecule::new(vec![Atom { element: Element::H, pos: [0.0; 3] }], 1);
    assert_eq!(mol.n_electrons(), 0);
    assert_eq!(mol.n_occupied(), 0);
    // SCF on an empty system: energy is pure nuclear repulsion (0 here).
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let r = run_scf(&mol, &b, &ScfConfig::default());
    assert!(r.converged);
    assert!(r.energy.abs() < 1e-12);
}

#[test]
fn dlb_counter_survives_many_small_worlds() {
    // Regression guard for world setup/teardown: run many tiny worlds in
    // sequence (each SCF iteration spins one up).
    for _ in 0..20 {
        let res = phi_scf::dmpi::run_world(3, |rank| {
            rank.lease_reset(0, phi_scf::dmpi::LeaseMode::Volatile).unwrap();
            let mut v = vec![rank.rank() as f64];
            rank.try_gsumf(&mut v).unwrap();
            v[0]
        });
        assert_eq!(res.per_rank, vec![3.0, 3.0, 3.0]);
    }
}
