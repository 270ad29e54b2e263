//! Sharded (non-replicated) build suite: the distribution-aware matrix
//! layer must produce the serial Fock matrix through its MPI-3 one-sided
//! windows, survive rank deaths mid-build with its window flushes intact,
//! and drive full SCF runs to the serial energy.
//!
//! Fault schedules are seeded and deterministic ([`FaultPlan`]), so every
//! failure replays exactly; `PHI_FAULT_SEEDS` sweeps extra seeds in CI.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::dmpi::{DdiMode, FaultPlan};
use phi_scf::hf::{run_scf, DensitySet, FockAlgorithm, FockData, ScfConfig};
use phi_scf::linalg::Mat;

const SHARDED4: FockAlgorithm = FockAlgorithm::Sharded { n_ranks: 4, mode: DdiMode::Mpi3OneSided };

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

/// Kill one of four ranks mid-build and require the recovered sharded
/// Fock to match serial: the durable lease plus flush-then-complete
/// ordering means a dead rank's unflushed contributions are re-digested by
/// a survivor, never double-counted.
#[test]
fn sharded_build_recovers_from_a_rank_death() {
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let data = FockData::build(&b);
    let ctx = data.context(&b, 1e-12);
    let d = density(b.n_basis());
    let want = FockAlgorithm::Serial.builder().build(&ctx, &DensitySet::Restricted(&d));

    for seed in seeds() {
        let plan = FaultPlan::random_kills(seed, 1);
        let got = SHARDED4.builder_with_faults(Some(plan)).build(&ctx, &DensitySet::Restricted(&d));
        let diff = got.g.max_abs_diff(&want.g);
        assert!(diff <= 1e-12, "seed {seed}: Fock diff {diff:e} after a kill");
        assert_eq!(
            got.stats.failed_ranks.len(),
            1,
            "seed {seed}: expected one dead rank, got {:?}",
            got.stats.failed_ranks
        );
        assert!(
            got.stats.tasks_reclaimed > 0,
            "seed {seed}: the dead rank's lease must be reclaimed"
        );
        assert!(got.stats.retries > 0, "seed {seed}: reclaimed tasks must be re-served");
    }
}

/// Two builds under the same fault plan agree to machine precision. The
/// kill lands on whichever rank claims the seeded task, and which survivor
/// re-digests a reclaimed task is a thread race, so window accumulation
/// order (and the last-ulp rounding) can differ between the replays;
/// anything beyond that is a real divergence.
#[test]
fn sharded_fault_replays_agree_to_machine_precision() {
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let data = FockData::build(&b);
    let ctx = data.context(&b, 1e-12);
    let d = density(b.n_basis());

    for seed in seeds() {
        let build = || {
            SHARDED4
                .builder_with_faults(Some(FaultPlan::random_kills(seed, 1)))
                .build(&ctx, &DensitySet::Restricted(&d))
        };
        let (first, second) = (build(), build());
        let diff = first.g.max_abs_diff(&second.g);
        assert!(diff <= 1e-13, "seed {seed}: replays diverged by {diff:e} under one fault plan");
        // Only the death count replays, not the victim's identity.
        assert_eq!(first.stats.failed_ranks.len(), 1, "seed {seed}");
        assert_eq!(second.stats.failed_ranks.len(), 1, "seed {seed}");
    }
}

/// Full RHF through the sharded build lands on the serial energy, even
/// when every iteration loses and recovers a rank.
#[test]
fn sharded_scf_matches_serial_energy_under_repeated_kills() {
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let clean = run_scf(&mol, &b, &ScfConfig::default());
    assert!(clean.converged);

    let faulty = run_scf(
        &mol,
        &b,
        &ScfConfig {
            algorithm: SHARDED4,
            faults: Some(FaultPlan::random_kills(seeds()[0], 1)),
            ..Default::default()
        },
    );
    assert!(faulty.converged, "SCF did not converge");
    assert!(
        (faulty.energy - clean.energy).abs() < 1e-10,
        "{} vs clean {}",
        faulty.energy,
        clean.energy
    );
    let reclaimed: usize = faulty.fock_stats.iter().map(|s| s.tasks_reclaimed).sum();
    assert!(reclaimed > 0, "every iteration killed a rank");
}
