//! The SCF driver: guess → (Fock build → diagonalize → new density) until
//! convergence.
//!
//! Matches the paper's workflow (§3): convergence is declared when the
//! root-mean-square change of the density matrix falls below the threshold.
//! The two-electron Fock build — the paper's entire subject — is delegated
//! to the algorithm selected in [`ScfConfig`].
//!
//! There is one loop. It iterates over a list of density channels: one for
//! closed-shell RHF, an alpha and a beta one for UHF ([`Spin`]). The paper's
//! conclusion (§7) notes that its parallel-assembly strategy transfers
//! directly to "UHF, GVB, DFT, CPHF — all have this structure", and the
//! driver shows it: the UHF spin Fock matrices
//!
//! ```text
//! F_alpha = H + J(D_total) - K(D_alpha)
//! F_beta  = H + J(D_total) - K(D_beta)
//! ```
//!
//! come out of one [`DensitySet::Unrestricted`] build per iteration, so
//! every surviving ERI is evaluated once and digested into both spin
//! channels under any of the paper's parallel algorithms; everything after
//! the build (energy, DIIS, density update, RMS) is the restricted step
//! applied per channel.

use crate::diis::Diis;
use crate::fock::engine::FockData;
use crate::fock::{DensitySet, FockAlgorithm};
use crate::guess::{density_from_orbitals, solve_roothaan};
use crate::stats::FockBuildStats;
use phi_chem::{BasisSet, Molecule};
use phi_dmpi::{FaultPlan, RetryPolicy};
use phi_integrals::{kinetic_matrix, nuclear_attraction_matrix, overlap_matrix};
use phi_linalg::{sym_inv_sqrt, Mat};

/// Spin treatment: how many density channels the SCF loop carries and how
/// their orbitals are occupied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Spin {
    /// Closed-shell RHF: one channel `D = 2 C_occ C_occᵀ` over
    /// `n_electrons / 2` doubly occupied orbitals.
    #[default]
    Restricted,
    /// UHF: an alpha and a beta channel `D_s = C_s,occ C_s,occᵀ` over
    /// `n_alpha >= n_beta` singly occupied orbitals each.
    Unrestricted {
        n_alpha: usize,
        n_beta: usize,
        /// Mix the alpha HOMO/LUMO of the initial guess to break spin
        /// symmetry (needed to reach broken-symmetry solutions, e.g.
        /// stretched H2).
        break_symmetry: bool,
    },
}

/// SCF configuration.
#[derive(Clone, Debug)]
pub struct ScfConfig {
    /// Restricted (the default) or unrestricted, with its occupations.
    pub spin: Spin,
    /// Which Fock-build parallelization to use — all of the paper's
    /// algorithms serve both spin treatments through the unified engine.
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
    /// Deterministic fault plan replayed on every Fock build (rank kills,
    /// stragglers, message faults). The serial algorithm ignores it.
    pub faults: Option<FaultPlan>,
    /// Deadline of every parallel build's failure-aware waits (barriers,
    /// lease polls, receives); `--comm-timeout-ms` sets it.
    pub retry: RetryPolicy,
}

impl Default for ScfConfig {
    fn default() -> Self {
        ScfConfig {
            spin: Spin::Restricted,
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
    /// Final orbital energies (of the alpha spin in an unrestricted run).
    pub orbital_energies: Vec<f64>,
    /// Converged density matrix (input for property analysis). In an
    /// unrestricted run this is the alpha-spin density, without the
    /// closed-shell factor 2.
    pub density: Mat,
    /// Final MO coefficients (columns are orbitals; alpha spin in an
    /// unrestricted run).
    pub orbitals: Mat,
    /// What only an unrestricted run produces; `None` for RHF.
    pub beta: Option<BetaSpin>,
    pub n_basis: usize,
    pub n_shells: usize,
}

/// The second spin channel of an unrestricted run.
#[derive(Clone, Debug)]
pub struct BetaSpin {
    /// Converged beta-spin density.
    pub density: Mat,
    pub orbital_energies: Vec<f64>,
    /// `<S^2>` expectation value (spin contamination diagnostic).
    pub s_squared: f64,
}

impl ScfResult {
    /// Summed wall time of all two-electron Fock builds — the quantity the
    /// paper greps from the GAMESS log.
    pub fn time_to_form_fock(&self) -> f64 {
        self.fock_stats.iter().map(|s| s.seconds).sum()
    }

    /// Peak memory footprint over all builds (paper Table 2 metric).
    pub fn peak_memory(&self) -> usize {
        self.fock_stats.iter().map(|s| s.memory_total_peak).max().unwrap_or(0)
    }
}

/// Run a Hartree-Fock calculation: closed-shell restricted, or unrestricted
/// with the occupations in [`ScfConfig::spin`].
pub fn run_scf(mol: &Molecule, basis: &BasisSet, config: &ScfConfig) -> ScfResult {
    let n = basis.n_basis();
    // Occupied orbitals per density channel, largest first. Everything the
    // two spin treatments do differently follows from this list.
    let occupied = match config.spin {
        Spin::Restricted => vec![mol.n_occupied()],
        Spin::Unrestricted { n_alpha, n_beta, .. } => {
            assert_eq!(
                n_alpha + n_beta,
                mol.n_electrons(),
                "spin counts must sum to the electron count"
            );
            assert!(n_alpha >= n_beta, "convention: n_alpha >= n_beta");
            vec![n_alpha, n_beta]
        }
    };
    let channels = occupied.len();
    assert!(
        occupied[0] <= n,
        "basis too small: {} occupied orbitals but only {n} basis functions \
         ({} shells) — pick a larger basis set",
        occupied[0],
        basis.n_shells()
    );
    // `density_from_orbitals` returns the closed-shell `2 P`; a spin
    // channel holds the projector `P` itself.
    let occupy = |mut d: Mat| {
        if channels == 2 {
            d.scale(0.5);
        }
        d
    };

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

    // Initial guess.
    let (eps0, c0) = solve_roothaan(&h, &x);
    let mut orbital_energies = vec![eps0; channels];
    let mut orbitals = vec![c0; channels];
    if let Spin::Unrestricted { n_alpha, break_symmetry: true, .. } = config.spin {
        if (1..n).contains(&n_alpha) {
            // Rotate alpha HOMO/LUMO by 45 degrees.
            let (c, homo, lumo) = (&mut orbitals[0], n_alpha - 1, n_alpha);
            let inv_sqrt2 = 1.0 / 2f64.sqrt();
            for r in 0..n {
                let (ch, cl) = (c[(r, homo)], c[(r, lumo)]);
                c[(r, homo)] = inv_sqrt2 * (ch + cl);
                c[(r, lumo)] = inv_sqrt2 * (cl - ch);
            }
        }
    }
    let mut d: Vec<Mat> = orbitals
        .iter()
        .zip(&occupied)
        .map(|(c, &n_occ)| occupy(density_from_orbitals(c, n_occ)))
        .collect();
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
        // One spin-generalized build per iteration: every surviving ERI is
        // evaluated once and digested into every channel.
        let gb = {
            let _span = phi_trace::span("scf.fock");
            let d: Vec<&Mat> = d.iter().collect();
            builder.build(&ctx, &DensitySet::from_channels(&d))
        };
        fock_stats.push(gb.stats);
        let f: Vec<Mat> = std::iter::once(gb.g)
            .chain(gb.g_beta)
            .map(|g| {
                let mut f = h.add(&g);
                f.symmetrize();
                f
            })
            .collect();
        assert_eq!(
            f.len(),
            channels,
            "Fock builder '{}' returned the wrong number of spin channels — every \
             builder must digest every density it is handed",
            builder.label()
        );

        // E_elec = 1/2 sum_s sum_ij D_s,ij (H_ij + F_s,ij).
        e_elec = 0.5 * d.iter().zip(&f).map(|(d, f)| d.dot(&h) + d.dot(f)).sum::<f64>();
        energy_history.push(e_elec + e_nn);
        if let Some(stop) = divergence.check(&energy_history) {
            stop_reason = stop;
            break;
        }

        let f_use = if config.diis {
            let _span = phi_trace::span("scf.diis");
            // One extrapolation over the stacked channels: `<e_k, e_l>`
            // then sums over spins, and both Focks share the coefficients.
            let err: Vec<Mat> =
                f.iter().zip(&d).map(|(f, d)| Diis::error_vector(f, d, &s, &x)).collect();
            diis.extrapolate(Mat::vstack(&f), Mat::vstack(&err)).vsplit(channels)
        } else {
            f
        };

        let mut rms = 0.0;
        for (ch, f_use) in f_use.iter().enumerate() {
            let (eps, c) = {
                let _span = phi_trace::span("scf.diag");
                solve_roothaan(f_use, &x)
            };
            let d_new = occupy(density_from_orbitals(&c, occupied[ch]));
            orbital_energies[ch] = eps;
            orbitals[ch] = c;

            // RMS density change, summed over channels.
            rms += d_new.sub(&d[ch]).frobenius_norm();
            d[ch] = d_new;
        }
        let rms = rms / (n as f64);

        if rms < config.convergence {
            converged = true;
            stop_reason = ScfStop::Converged;
            break;
        }
    }

    let energy = e_elec + e_nn;
    let beta = (channels == 2).then(|| {
        let density = d.pop().expect("two channels");
        // <S^2> = S(S+1) + N_beta - tr(D_a S D_b S): with D_s the occupied
        // projector of spin s, the trace equals sum_ij |<a_i|S|b_j>|^2 over
        // occupied pairs.
        let sz = 0.5 * (occupied[0] as f64 - occupied[1] as f64);
        let s_squared = sz * (sz + 1.0) + occupied[1] as f64
            - d[0].matmul(&s).matmul(&density.matmul(&s)).trace();
        BetaSpin {
            density,
            orbital_energies: orbital_energies.pop().expect("two channels"),
            s_squared,
        }
    });
    ScfResult {
        energy,
        electronic_energy: energy - e_nn,
        nuclear_repulsion: e_nn,
        converged,
        stop_reason,
        iterations,
        energy_history,
        fock_stats,
        orbital_energies: orbital_energies.swap_remove(0),
        density: d.swap_remove(0),
        orbitals: orbitals.swap_remove(0),
        beta,
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

    /// Default configuration for `n_alpha`/`n_beta` electrons of each spin.
    fn uhf(n_alpha: usize, n_beta: usize) -> ScfConfig {
        let spin = Spin::Unrestricted { n_alpha, n_beta, break_symmetry: false };
        ScfConfig { spin, ..Default::default() }
    }

    /// The same from a symmetry-broken guess.
    fn broken_symmetry_uhf(n_alpha: usize, n_beta: usize) -> ScfConfig {
        let spin = Spin::Unrestricted { n_alpha, n_beta, break_symmetry: true };
        ScfConfig { spin, ..Default::default() }
    }

    fn s_squared(r: &ScfResult) -> f64 {
        r.beta.as_ref().expect("unrestricted run").s_squared
    }

    fn hydrogen_atom() -> Molecule {
        Molecule::neutral(vec![Atom { element: Element::H, pos: [0.0; 3] }])
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
            0,
            mol.atoms()[0].pos,
            base.iter().map(|a| a * zeta_he * zeta_he).collect(),
            &[(0, coefs.clone())],
        );
        let h = phi_chem::basis::custom_shell(
            1,
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
    fn hydrogen_atom_energy_is_the_core_matrix_element() {
        // With one electron and one basis function, the UHF energy must be
        // exactly H_core[0,0] + 0 — an integral-level self-check.
        let mol = hydrogen_atom();
        let b = BasisSet::build(&mol, BasisName::Sto3g);
        let r = run_scf(&mol, &b, &uhf(1, 0));
        assert!(r.converged);
        let h = kinetic_matrix(&b).add(&nuclear_attraction_matrix(&b, &mol));
        assert!(
            (r.energy - h[(0, 0)]).abs() < 1e-10,
            "UHF H atom {} vs H_core {}",
            r.energy,
            h[(0, 0)]
        );
        // The textbook STO-3G hydrogen atom value.
        assert!((r.energy - (-0.4665819)).abs() < 1e-4, "H atom energy {}", r.energy);
        // A doublet: <S^2> = 0.75 exactly (one unpaired electron).
        assert!((s_squared(&r) - 0.75).abs() < 1e-10);
    }

    #[test]
    fn closed_shell_uhf_reduces_to_rhf() {
        // Same loop, same DIIS: with alpha = beta = D/2 the stacked B
        // matrix is RHF's times a constant, so the extrapolation
        // coefficients — and with them every iterate — coincide.
        let mol = small::water();
        for diis in [true, false] {
            let base = ScfConfig { diis, max_iterations: 200, ..Default::default() };
            let rhf = scf(&mol, BasisName::Sto3g, &base);
            let uhf = scf(&mol, BasisName::Sto3g, &ScfConfig { spin: uhf(5, 5).spin, ..base });
            assert!(rhf.converged && uhf.converged);
            assert_eq!(rhf.iterations, uhf.iterations, "diis {diis}");
            for (k, (r, u)) in rhf.energy_history.iter().zip(&uhf.energy_history).enumerate() {
                assert!((r - u).abs() <= 1e-9, "diis {diis}, iteration {k}: RHF {r} vs UHF {u}");
            }
            assert!(s_squared(&uhf).abs() < 1e-8, "closed shell must have <S^2> = 0");
        }
    }

    #[test]
    fn triplet_h2_at_long_range_is_two_hydrogen_atoms() {
        let r = scf(&small::hydrogen_molecule(50.0), BasisName::Sto3g, &uhf(2, 0));
        assert!(r.converged);
        // Two non-interacting neutral H atoms: the monopole terms (e-n
        // attraction to the far nucleus, e-e repulsion, n-n repulsion) all
        // cancel at 1/R, so the limit is exactly 2 x E(H atom).
        let e_atom = scf(&hydrogen_atom(), BasisName::Sto3g, &uhf(1, 0)).energy;
        assert!(
            (r.energy - 2.0 * e_atom).abs() < 1e-6,
            "triplet H2 at 50 a0: {} vs {}",
            r.energy,
            2.0 * e_atom
        );
        // Triplet: <S^2> = 2.
        assert!((s_squared(&r) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn broken_symmetry_uhf_beats_rhf_for_stretched_h2() {
        // At 5 bohr RHF pays the ionic-term penalty; symmetry-broken UHF
        // must fall below it (toward two H atoms). DIIS is on for both.
        let mol = small::hydrogen_molecule(5.0);
        let rhf = scf(&mol, BasisName::Sto3g, &ScfConfig::default());
        let uhf = scf(&mol, BasisName::Sto3g, &broken_symmetry_uhf(1, 1));
        assert!(rhf.converged && uhf.converged);
        assert!(
            uhf.energy < rhf.energy - 1e-4,
            "UHF {} should break symmetry below RHF {}",
            uhf.energy,
            rhf.energy
        );
        // Spin contamination appears (singlet <S^2> = 0 is violated).
        assert!(s_squared(&uhf) > 0.5, "expected contamination, got {}", s_squared(&uhf));
    }

    #[test]
    fn uhf_energy_is_algorithm_invariant() {
        // The engine unlocks every parallel algorithm for UHF; all must
        // land on the serial driver's converged energy.
        let mol = small::hydrogen_molecule(5.0);
        let base = broken_symmetry_uhf(1, 1);
        let want = scf(&mol, BasisName::Sto3g, &base);
        assert!(want.converged);
        for algorithm in [
            FockAlgorithm::MpiOnly { n_ranks: 2 },
            FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 2 },
            FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
            FockAlgorithm::Distributed { n_ranks: 2 },
            FockAlgorithm::Sharded { n_ranks: 2, mode: phi_dmpi::DdiMode::Mpi3OneSided },
        ] {
            let r = scf(&mol, BasisName::Sto3g, &ScfConfig { algorithm, ..base.clone() });
            assert!(r.converged, "{} did not converge", algorithm.label());
            assert!(
                (r.energy - want.energy).abs() < 1e-8,
                "{}: {} vs serial {}",
                algorithm.label(),
                r.energy,
                want.energy
            );
        }
        assert!(!want.fock_stats.is_empty(), "UHF surfaces per-iteration Fock stats");
    }

    #[test]
    #[should_panic(expected = "basis too small: 2 occupied orbitals but only 1 basis functions")]
    fn more_alpha_electrons_than_basis_functions_is_a_named_error() {
        // He/STO-3G has one function: two alpha electrons cannot fit.
        let he = Molecule::neutral(vec![Atom { element: Element::He, pos: [0.0; 3] }]);
        scf(&he, BasisName::Sto3g, &uhf(2, 0));
    }
}
