//! The SCF driver: guess → (Fock build → diagonalize → new density) until
//! convergence.
//!
//! Matches the paper's workflow (§3): closed-shell RHF, with convergence
//! declared when the root-mean-square change of the density matrix falls
//! below the threshold. The two-electron Fock build — the paper's entire
//! subject — is delegated to the algorithm selected in [`ScfConfig`].

use crate::diis::Diis;
use crate::fock::engine::FockData;
use crate::fock::{DensitySet, FockAlgorithm};
use crate::guess::{core_guess, density_from_orbitals, solve_roothaan};
use crate::stats::FockBuildStats;
use phi_chem::{BasisSet, Molecule};
use phi_dmpi::{FaultPlan, RetryPolicy};
use phi_integrals::{kinetic_matrix, nuclear_attraction_matrix, overlap_matrix};
use phi_linalg::{sym_inv_sqrt, Mat};

/// SCF configuration.
#[derive(Clone, Debug)]
pub struct ScfConfig {
    /// Which Fock-build parallelization to use.
    pub algorithm: FockAlgorithm,
    /// Schwarz screening threshold on `Q_ij * Q_kl` (GAMESS default range).
    pub screening_tau: f64,
    /// Convergence threshold on the density RMS change.
    pub convergence: f64,
    pub max_iterations: usize,
    /// Enable DIIS acceleration.
    pub diis: bool,
    /// Eigenvalue cutoff for near-linear-dependent overlap directions.
    pub s_threshold: f64,
    /// Deterministic fault plan replayed on every Fock build (rank kills
    /// and stragglers). The serial algorithm ignores it.
    pub faults: Option<FaultPlan>,
    /// Deadline of every parallel build's failure-aware waits (barriers,
    /// lease polls, receives); `--comm-timeout-ms` sets it.
    pub retry: RetryPolicy,
}

impl Default for ScfConfig {
    fn default() -> Self {
        ScfConfig {
            algorithm: FockAlgorithm::Serial,
            screening_tau: 1e-10,
            convergence: 1e-8,
            max_iterations: 100,
            diis: true,
            s_threshold: 1e-8,
            faults: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// Why an SCF run stopped iterating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScfStop {
    /// Density RMS change fell below the threshold.
    Converged,
    /// Ran out of iterations without converging or diverging.
    MaxIterations,
    /// The energy became NaN or infinite.
    NumericalDivergence,
    /// The energy locked into a 2-cycle (classic charge-sloshing
    /// oscillation) instead of settling.
    Oscillation,
    /// A Fock build returned no `G` ([`FockBuildStats::lost`]): its ranks
    /// gave up on waits that timed out.
    FockBuildLost,
}

/// Incremental divergence detector over the per-iteration energy history.
///
/// Terminates runs that will never converge instead of burning the full
/// iteration budget: NaN/±inf energies stop immediately; an exact 2-cycle
/// (`|E_k - E_{k-2}|` at noise level while `|E_k - E_{k-1}|` stays large)
/// sustained for [`Self::OSC_STREAK`] iterations is flagged as oscillation.
pub(crate) struct DivergenceDetector {
    streak: usize,
}

impl DivergenceDetector {
    /// Consecutive 2-cycle iterations required before declaring
    /// oscillation (one or two near-repeats happen in healthy runs).
    const OSC_STREAK: usize = 4;

    pub(crate) fn new() -> DivergenceDetector {
        DivergenceDetector { streak: 0 }
    }

    /// Feed the history as of this iteration (last element = newest
    /// energy); returns a stop reason once divergence is established.
    pub(crate) fn check(&mut self, history: &[f64]) -> Option<ScfStop> {
        let k = history.len();
        let e = history[k - 1];
        if !e.is_finite() {
            return Some(ScfStop::NumericalDivergence);
        }
        let two_cycle =
            k >= 3 && (e - history[k - 3]).abs() < 1e-13 && (e - history[k - 2]).abs() > 1e-8;
        self.streak = if two_cycle { self.streak + 1 } else { 0 };
        (self.streak >= Self::OSC_STREAK).then_some(ScfStop::Oscillation)
    }
}

/// Outcome of an SCF run.
#[derive(Clone, Debug)]
pub struct ScfResult {
    /// Total energy (electronic + nuclear repulsion), Hartree.
    pub energy: f64,
    pub electronic_energy: f64,
    pub nuclear_repulsion: f64,
    pub converged: bool,
    /// Why the iteration loop stopped ([`ScfStop::Converged`] iff
    /// `converged`).
    pub stop_reason: ScfStop,
    pub iterations: usize,
    /// Total energy after each iteration.
    pub energy_history: Vec<f64>,
    /// Per-iteration Fock-build statistics ("TIME TO FORM FOCK").
    pub fock_stats: Vec<FockBuildStats>,
    /// Final orbital energies; empty if the run stopped before its first
    /// Roothaan step.
    pub orbital_energies: Vec<f64>,
    /// Converged density matrix `D = 2 C_occ C_occᵀ`.
    pub density: Mat,
    /// Final MO coefficients (columns are orbitals); no columns if the run
    /// stopped before its first Roothaan step.
    pub orbitals: Mat,
    pub n_basis: usize,
    pub n_shells: usize,
}

impl ScfResult {
    /// Summed wall time of all two-electron Fock builds — the quantity the
    /// paper greps from the GAMESS log.
    pub fn time_to_form_fock(&self) -> f64 {
        self.fock_stats.iter().map(|s| s.seconds).sum()
    }
}

/// Run a closed-shell restricted Hartree-Fock calculation.
pub fn run_scf(mol: &Molecule, basis: &BasisSet, config: &ScfConfig) -> ScfResult {
    let n = basis.n_basis();
    let n_occ = mol.n_occupied();
    assert!(
        n_occ <= n,
        "basis too small: {n_occ} occupied orbitals but only {n} basis functions \
         ({} shells) — pick a larger basis set",
        basis.n_shells()
    );

    // One-electron groundwork.
    let s = overlap_matrix(basis);
    let h = kinetic_matrix(basis).add(&nuclear_attraction_matrix(basis, mol));
    let x = sym_inv_sqrt(&s, config.s_threshold);
    // The persistent shell-pair dataset and Schwarz screening: built once
    // per (geometry, basis) and shared read-only by every SCF iteration,
    // thread and rank.
    let data = FockData::build(basis);
    let ctx = data.context(basis, config.screening_tau);
    let e_nn = mol.nuclear_repulsion();
    let builder = config.algorithm.builder_with_comm(config.faults.clone(), config.retry);

    // Initial guess; the orbitals stay empty until the first Roothaan step.
    let mut d = core_guess(&h, &x, n_occ);
    let (mut orbital_energies, mut orbitals) = (Vec::new(), Mat::zeros(n, 0));
    let mut diis = Diis::new(8);
    let mut energy_history = Vec::new();
    let mut fock_stats = Vec::new();
    let mut converged = false;
    let mut stop_reason = ScfStop::MaxIterations;
    let mut divergence = DivergenceDetector::new();
    let mut iterations = 0;
    let mut e_elec = 0.0;

    for it in 0..config.max_iterations {
        iterations = it + 1;
        let _iter_span = phi_trace::span("scf.iteration");
        let gb = {
            let _span = phi_trace::span("scf.fock");
            builder.build(&ctx, &DensitySet::Restricted(&d))
        };
        let lost = gb.stats.lost;
        fock_stats.push(gb.stats);
        if lost {
            stop_reason = ScfStop::FockBuildLost;
            break;
        }
        let mut f = h.add(&gb.g);
        f.symmetrize();

        // E_elec = 1/2 sum_ij D_ij (H_ij + F_ij).
        e_elec = 0.5 * (d.dot(&h) + d.dot(&f));
        energy_history.push(e_elec + e_nn);
        if let Some(stop) = divergence.check(&energy_history) {
            stop_reason = stop;
            break;
        }

        let f_use = if config.diis {
            let _span = phi_trace::span("scf.diis");
            let err = Diis::error_vector(&f, &d, &s, &x);
            diis.extrapolate(f, err)
        } else {
            f
        };

        let (eps, c) = {
            let _span = phi_trace::span("scf.diag");
            solve_roothaan(&f_use, &x)
        };
        let d_new = density_from_orbitals(&c, n_occ);
        orbital_energies = eps;
        orbitals = c;
        let rms = d_new.sub(&d).frobenius_norm() / (n as f64);
        d = d_new;

        if rms < config.convergence {
            converged = true;
            stop_reason = ScfStop::Converged;
            break;
        }
    }

    let energy = e_elec + e_nn;
    ScfResult {
        energy,
        electronic_energy: energy - e_nn,
        nuclear_repulsion: e_nn,
        converged,
        stop_reason,
        iterations,
        energy_history,
        fock_stats,
        orbital_energies,
        density: d,
        orbitals,
        n_basis: n,
        n_shells: basis.n_shells(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_chem::{Atom, Element};

    fn scf(mol: &Molecule, basis: BasisName, config: &ScfConfig) -> ScfResult {
        let b = BasisSet::build(mol, basis);
        run_scf(mol, &b, config)
    }

    #[test]
    fn h2_sto3g_matches_szabo() {
        // Szabo & Ostlund: E(RHF/STO-3G, R = 1.4 a0) = -1.1167 Eh.
        let r = scf(&small::hydrogen_molecule(1.4), BasisName::Sto3g, &ScfConfig::default());
        assert!(r.converged, "H2 did not converge");
        assert!(
            (r.energy - (-1.1167)).abs() < 2e-4,
            "H2/STO-3G energy {} vs literature -1.1167",
            r.energy
        );
    }

    #[test]
    fn heh_cation_matches_szabo_with_their_zeta_scaled_basis() {
        // Szabo & Ostlund's HeH+ model problem uses zeta-scaled STO-3G:
        // zeta(He) = 2.0925, zeta(H) = 1.24 (alpha_i = alpha_i(zeta=1) *
        // zeta^2 with the zeta=1 exponents 2.227660, 0.405771, 0.109818).
        // Their total energy at R = 1.4632 a0 is -2.8606 Eh.
        let mol = small::heh_cation();
        let base = [2.227660, 0.405771, 0.109818];
        let coefs = vec![0.154329, 0.535328, 0.444635];
        let zeta_he: f64 = 2.0925;
        let zeta_h: f64 = 1.24;
        let he = phi_chem::basis::custom_shell(
            mol.atoms()[0].pos,
            base.iter().map(|a| a * zeta_he * zeta_he).collect(),
            &[(0, coefs.clone())],
        );
        let h = phi_chem::basis::custom_shell(
            mol.atoms()[1].pos,
            base.iter().map(|a| a * zeta_h * zeta_h).collect(),
            &[(0, coefs)],
        );
        let b = BasisSet::from_shells(BasisName::Sto3g, vec![he, h]);
        let r = run_scf(&mol, &b, &ScfConfig::default());
        assert!(r.converged);
        assert!((r.energy - (-2.8606)).abs() < 1e-3, "HeH+ energy {} vs Szabo -2.8606", r.energy);
    }

    #[test]
    fn heh_cation_standard_sto3g_is_sane() {
        // With the standard (EMSL) STO-3G helium the energy differs from
        // Szabo's zeta-scaled value; pin our computed value as a regression
        // anchor.
        let r = scf(&small::heh_cation(), BasisName::Sto3g, &ScfConfig::default());
        assert!(r.converged);
        assert!((r.energy - (-2.8418)).abs() < 1e-3, "energy {}", r.energy);
    }

    #[test]
    fn water_sto3g_energy_is_in_the_textbook_window() {
        let r = scf(&small::water(), BasisName::Sto3g, &ScfConfig::default());
        assert!(r.converged);
        // RHF/STO-3G water at the experimental geometry: about -74.96 Eh.
        assert!(
            (r.energy - (-74.96)).abs() < 0.02,
            "water/STO-3G energy {} out of window",
            r.energy
        );
    }

    #[test]
    fn energy_is_invariant_under_rigid_motion() {
        let mol = small::water();
        let cfg = ScfConfig::default();
        let first = scf(&mol, BasisName::Sto3g, &cfg);
        // A serial run is bitwise reproducible: the same input replays every
        // iteration's energy to the last bit.
        let again = scf(&mol, BasisName::Sto3g, &cfg);
        let bits = |r: &ScfResult| r.energy_history.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first), bits(&again), "two serial runs of one input differ");
        let e0 = first.energy;
        let e1 = scf(&mol.translated([2.0, -1.0, 3.0]), BasisName::Sto3g, &cfg).energy;
        let e2 = scf(&mol.rotated_z(1.1), BasisName::Sto3g, &cfg).energy;
        assert!((e0 - e1).abs() < 1e-9, "translation changed E: {e0} vs {e1}");
        assert!((e0 - e2).abs() < 1e-9, "rotation changed E: {e0} vs {e2}");
    }

    #[test]
    fn diis_reduces_iteration_count() {
        let mol = small::water();
        let with = scf(&mol, BasisName::Sto3g, &ScfConfig { diis: true, ..Default::default() });
        let without = scf(
            &mol,
            BasisName::Sto3g,
            &ScfConfig { diis: false, max_iterations: 200, ..Default::default() },
        );
        assert!(with.converged && without.converged);
        assert!(
            with.iterations <= without.iterations,
            "DIIS {} vs plain {}",
            with.iterations,
            without.iterations
        );
        assert!((with.energy - without.energy).abs() < 1e-6);
    }

    #[test]
    fn all_parallel_algorithms_give_the_same_energy() {
        let mol = small::water();
        let algorithms = [
            FockAlgorithm::Serial,
            FockAlgorithm::MpiOnly { n_ranks: 2 },
            FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 3 },
            FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
            FockAlgorithm::Distributed { n_ranks: 2 },
            FockAlgorithm::Sharded { n_ranks: 2, mode: phi_dmpi::DdiMode::Mpi3OneSided },
        ];
        let energies: Vec<f64> = algorithms
            .iter()
            .map(|&algorithm| {
                let r = scf(&mol, BasisName::Sto3g, &ScfConfig { algorithm, ..Default::default() });
                assert!(r.converged, "{} did not converge", algorithm.label());
                r.energy
            })
            .collect();
        for (k, e) in energies.iter().enumerate().skip(1) {
            assert!(
                (e - energies[0]).abs() < 1e-8,
                "algorithm {k} energy {e} vs serial {}",
                energies[0]
            );
        }
    }

    #[test]
    fn variational_bound_holds() {
        // SCF energy from the converged density must lie above the basis
        // set's true ground state but below the (terrible) core guess.
        let r = scf(&small::water(), BasisName::Sto3g, &ScfConfig::default());
        let first = r.energy_history[0];
        let last = *r.energy_history.last().unwrap();
        assert!(last < first, "SCF should lower the energy ({first} -> {last})");
    }

    #[test]
    fn converged_run_reports_converged_stop_reason() {
        let r = scf(&small::water(), BasisName::Sto3g, &ScfConfig::default());
        assert!(r.converged);
        assert_eq!(r.stop_reason, ScfStop::Converged);
        let capped = scf(
            &small::water(),
            BasisName::Sto3g,
            &ScfConfig { max_iterations: 2, ..Default::default() },
        );
        assert!(!capped.converged);
        assert_eq!(capped.stop_reason, ScfStop::MaxIterations);
    }

    #[test]
    fn divergence_detector_flags_nan_immediately() {
        let mut det = DivergenceDetector::new();
        assert_eq!(det.check(&[-74.0]), None);
        assert_eq!(det.check(&[-74.0, f64::NAN]), Some(ScfStop::NumericalDivergence));
        let mut det = DivergenceDetector::new();
        assert_eq!(det.check(&[f64::INFINITY]), Some(ScfStop::NumericalDivergence));
    }

    #[test]
    fn divergence_detector_flags_sustained_two_cycles_only() {
        // A perfect 2-cycle: ... a, b, a, b ... with |a-b| large.
        let mut det = DivergenceDetector::new();
        let (a, b) = (-74.0, -73.0);
        let mut hist = vec![a, b];
        let mut stopped = None;
        for _ in 0..10 {
            hist.push(hist[hist.len() - 2]);
            if let Some(s) = det.check(&hist) {
                stopped = Some(s);
                break;
            }
        }
        assert_eq!(stopped, Some(ScfStop::Oscillation));

        // A healthy converging sequence never trips the detector.
        let mut det = DivergenceDetector::new();
        let mut hist = Vec::new();
        for k in 0..30 {
            hist.push(-74.0 - 0.9f64.powi(k));
            assert_eq!(det.check(&hist), None, "converging run flagged at iter {k}");
        }

        // A brief 2-cycle that breaks before the streak threshold is fine.
        let mut det = DivergenceDetector::new();
        let hist = [a, b, a, b, a, -74.5, -74.6];
        for k in 1..=hist.len() {
            assert_eq!(det.check(&hist[..k]), None, "short 2-cycle flagged at len {k}");
        }
    }

    #[test]
    fn screening_does_not_change_converged_energy_materially() {
        let mol = small::water();
        let tight =
            scf(&mol, BasisName::B631g, &ScfConfig { screening_tau: 0.0, ..Default::default() });
        let screened =
            scf(&mol, BasisName::B631g, &ScfConfig { screening_tau: 1e-10, ..Default::default() });
        assert!((tight.energy - screened.energy).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "basis too small: 2 occupied orbitals but only 1 basis functions")]
    fn more_occupied_orbitals_than_basis_functions_is_a_named_error() {
        // He2- in STO-3G has one function for two doubly occupied orbitals.
        let he = Molecule::new(vec![Atom { element: Element::He, pos: [0.0; 3] }], -2);
        scf(&he, BasisName::Sto3g, &ScfConfig::default());
    }
}
