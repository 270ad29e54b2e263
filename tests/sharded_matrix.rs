//! Sharded (non-replicated) build suite: the distribution-aware matrix
//! layer must produce the serial Fock matrix through both DDI transports
//! (MPI-3 one-sided and data-server), survive rank deaths mid-build with
//! its window flushes intact, and drive full RHF/UHF SCF runs to the
//! serial energy.
//!
//! Fault schedules are seeded and deterministic ([`FaultPlan`]), so every
//! failure replays exactly; `PHI_FAULT_SEEDS` sweeps extra seeds in CI.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::dmpi::{DdiMode, FaultPlan};
use phi_scf::hf::{run_scf, DensitySet, FockAlgorithm, FockData, ScfConfig, Spin};
use phi_scf::linalg::Mat;

/// Seeds to sweep: `PHI_FAULT_SEEDS=1,2,3` overrides the built-in pair.
fn seeds() -> Vec<u64> {
    match std::env::var("PHI_FAULT_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim())
            .filter(|t| !t.is_empty())
            .map(|t| {
                t.parse().unwrap_or_else(|_| {
                    panic!("PHI_FAULT_SEEDS must be comma-separated integers, got '{t}'")
                })
            })
            .collect(),
        Err(_) => vec![11, 42],
    }
}

fn density(n: usize) -> Mat {
    Mat::from_fn(n, n, |i, j| {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        0.2 + ((i * 5 + j * 11) % 7) as f64 * 0.1
    })
}

/// Kill one of four ranks mid-build through BOTH DDI transports and
/// require the recovered sharded Fock to match serial: the durable lease
/// plus flush-then-complete ordering means a dead rank's unflushed
/// contributions are re-digested by a survivor, never double-counted.
#[test]
fn sharded_build_recovers_from_a_rank_death_in_both_ddi_modes() {
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let data = FockData::build(&b);
    let ctx = data.context(&b, 1e-12);
    let d = density(b.n_basis());
    let want = FockAlgorithm::Serial.builder().build(&ctx, &DensitySet::Restricted(&d));

    for seed in seeds() {
        for mode in [DdiMode::Mpi3OneSided, DdiMode::DataServer] {
            let alg = FockAlgorithm::Sharded { n_ranks: 4, mode };
            let plan = FaultPlan::random_kills(seed, 1);
            let got = alg.builder_with_faults(Some(plan)).build(&ctx, &DensitySet::Restricted(&d));
            let diff = got.g.max_abs_diff(&want.g);
            assert!(diff <= 1e-12, "{mode:?} seed {seed}: Fock diff {diff:e} after a kill");
            assert_eq!(
                got.stats.failed_ranks.len(),
                1,
                "{mode:?} seed {seed}: expected one dead rank, got {:?}",
                got.stats.failed_ranks
            );
            assert!(
                got.stats.tasks_reclaimed > 0,
                "{mode:?} seed {seed}: the dead rank's lease must be reclaimed"
            );
            assert!(
                got.stats.retries > 0,
                "{mode:?} seed {seed}: reclaimed tasks must be re-served"
            );
        }
    }
}

/// The two transports must be numerically interchangeable under the same
/// fault schedule — the data-server mode only changes who owns the bytes
/// and what traffic is charged, never the arithmetic. Which survivor
/// re-digests a reclaimed task is a thread race, so window accumulation
/// order (and the last-ulp rounding) can differ between runs; anything
/// beyond that is a real divergence.
#[test]
fn ddi_transports_agree_to_machine_precision_under_faults() {
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let data = FockData::build(&b);
    let ctx = data.context(&b, 1e-12);
    let d = density(b.n_basis());

    for seed in seeds() {
        let build = |mode| {
            let alg = FockAlgorithm::Sharded { n_ranks: 4, mode };
            alg.builder_with_faults(Some(FaultPlan::random_kills(seed, 1)))
                .build(&ctx, &DensitySet::Restricted(&d))
        };
        let os = build(DdiMode::Mpi3OneSided);
        let ds = build(DdiMode::DataServer);
        let diff = os.g.max_abs_diff(&ds.g);
        assert!(
            diff <= 1e-13,
            "seed {seed}: transports diverged by {diff:e} under an identical fault replay"
        );
        // The kill targets whichever rank claims the seeded task index, so
        // the victim's identity is a race; only the death count replays.
        assert_eq!(os.stats.failed_ranks.len(), 1, "seed {seed}");
        assert_eq!(ds.stats.failed_ranks.len(), 1, "seed {seed}");
    }
}

/// Both spin channels recover: the lease loop sits below the
/// spin-generalized digestion, so an unrestricted sharded build must
/// reconstruct alpha and beta Fock matrices after a kill.
#[test]
fn unrestricted_sharded_build_recovers_both_channels() {
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let data = FockData::build(&b);
    let ctx = data.context(&b, 1e-12);
    let n = b.n_basis();
    let d_a = density(n);
    let mut d_b = density(n);
    d_b.scale(0.8);
    let dens = DensitySet::Unrestricted { alpha: &d_a, beta: &d_b };
    let want = FockAlgorithm::Serial.builder().build(&ctx, &dens);
    let want_b = want.g_beta.as_ref().expect("serial beta channel");

    for mode in [DdiMode::Mpi3OneSided, DdiMode::DataServer] {
        let alg = FockAlgorithm::Sharded { n_ranks: 4, mode };
        let got = alg.builder_with_faults(Some(FaultPlan::random_kills(7, 1))).build(&ctx, &dens);
        let got_b = got.g_beta.as_ref().expect("recovered beta channel");
        assert!(got.g.max_abs_diff(&want.g) <= 1e-12, "{mode:?} alpha");
        assert!(got_b.max_abs_diff(want_b) <= 1e-12, "{mode:?} beta");
        assert_eq!(got.stats.failed_ranks.len(), 1);
        assert!(got.stats.tasks_reclaimed > 0);
    }
}

/// Full RHF through the sharded build — over either DDI transport — lands
/// on the serial energy, even when every iteration loses and recovers a
/// rank.
#[test]
fn sharded_scf_matches_serial_energy_under_repeated_kills() {
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let clean = run_scf(&mol, &b, &ScfConfig::default());
    assert!(clean.converged);

    for mode in [DdiMode::Mpi3OneSided, DdiMode::DataServer] {
        let faulty = run_scf(
            &mol,
            &b,
            &ScfConfig {
                algorithm: FockAlgorithm::Sharded { n_ranks: 4, mode },
                faults: Some(FaultPlan::random_kills(seeds()[0], 1)),
                ..Default::default()
            },
        );
        assert!(faulty.converged, "{mode:?}: SCF did not converge");
        assert!(
            (faulty.energy - clean.energy).abs() < 1e-10,
            "{mode:?}: {} vs clean {}",
            faulty.energy,
            clean.energy
        );
        let reclaimed: usize = faulty.fock_stats.iter().map(|s| s.tasks_reclaimed).sum();
        assert!(reclaimed > 0, "every iteration killed a rank");
    }
}

/// UHF parity: a stretched-H2 triplet through the sharded build matches
/// the serial unrestricted energy.
#[test]
fn sharded_uhf_matches_serial_energy() {
    let mol = small::hydrogen_molecule(2.8);
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let spin = Spin::Unrestricted { n_alpha: 2, n_beta: 0, break_symmetry: false };
    let clean = run_scf(&mol, &b, &ScfConfig { spin, ..Default::default() });
    assert!(clean.converged);

    let sharded = run_scf(
        &mol,
        &b,
        &ScfConfig {
            spin,
            algorithm: FockAlgorithm::Sharded { n_ranks: 3, mode: DdiMode::DataServer },
            ..Default::default()
        },
    );
    assert!(sharded.converged);
    assert!(
        (sharded.energy - clean.energy).abs() < 1e-10,
        "{} vs {}",
        sharded.energy,
        clean.energy
    );
}

/// The incremental (dD) path composes with the sharded build: later
/// iterations digest the density *difference* through the same windows
/// and must still converge to the full-rebuild energy.
#[test]
fn incremental_sharded_scf_matches_full_rebuilds() {
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::B631g);
    let full = run_scf(
        &mol,
        &b,
        &ScfConfig {
            algorithm: FockAlgorithm::Sharded { n_ranks: 2, mode: DdiMode::Mpi3OneSided },
            ..Default::default()
        },
    );
    assert!(full.converged);

    let inc = run_scf(
        &mol,
        &b,
        &ScfConfig {
            algorithm: FockAlgorithm::Sharded { n_ranks: 2, mode: DdiMode::Mpi3OneSided },
            incremental: true,
            ..Default::default()
        },
    );
    assert!(inc.converged);
    assert!((inc.energy - full.energy).abs() < 1e-9, "{} vs {}", inc.energy, full.energy);
}
