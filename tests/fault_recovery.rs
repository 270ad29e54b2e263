//! Fault-injected recovery suite: kill ranks mid-Fock-build under every
//! parallel algorithm and check that survivors reclaim the dead ranks'
//! task leases and still produce the serial Fock matrix, while a clean
//! build injects nothing. Kills among stragglers are `chaos_soak`'s.
//!
//! The kill schedule is seeded and deterministic ([`FaultPlan`]), so every
//! failure here replays exactly. CI sweeps additional seeds via the
//! `PHI_FAULT_SEEDS` environment variable (comma-separated integers).

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::dmpi::{DdiMode, FaultPlan, RetryPolicy};
use phi_scf::hf::{run_scf, DensitySet, FockAlgorithm, FockData, ScfConfig, ScfStop};
use phi_scf::linalg::Mat;
use std::time::Duration;

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

/// All five parallel builders at four ranks (so up to two deaths still
/// leave a quorum of survivors).
fn algorithms() -> [FockAlgorithm; 5] {
    [
        FockAlgorithm::MpiOnly { n_ranks: 4 },
        FockAlgorithm::PrivateFock { n_ranks: 4, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 4, n_threads: 2 },
        FockAlgorithm::Distributed { n_ranks: 4 },
        FockAlgorithm::Sharded { n_ranks: 4, mode: DdiMode::Mpi3OneSided },
    ]
}

fn density(n: usize) -> Mat {
    Mat::from_fn(n, n, |i, j| {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        0.2 + ((i * 5 + j * 11) % 7) as f64 * 0.1
    })
}

/// Kill `k` of 4 ranks at seeded DLB tasks and require the recovered Fock
/// to match serial, with the dead ranks' leases visibly reclaimed.
fn check_recovery_after_kills(k: usize) {
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let data = FockData::build(&b);
    let ctx = data.context(&b, 1e-12);
    let d = density(b.n_basis());
    let want = FockAlgorithm::Serial.builder().build(&ctx, &DensitySet::Restricted(&d));

    for seed in seeds() {
        for alg in algorithms() {
            let plan = FaultPlan::random_kills(seed, k);
            let builder = alg.builder_with_faults(Some(plan));
            let got = builder.build(&ctx, &DensitySet::Restricted(&d));
            let diff = got.g.max_abs_diff(&want.g);
            assert!(
                diff <= 1e-12,
                "{} seed {seed}: Fock diff {diff:e} after {k} kills",
                builder.label()
            );
            assert_eq!(
                got.stats.failed_ranks.len(),
                k,
                "{} seed {seed}: expected {k} dead ranks, got {:?}",
                builder.label(),
                got.stats.failed_ranks
            );
            assert!(
                got.stats.faults_injected >= k as u64,
                "{} seed {seed}: {} faults fired",
                builder.label(),
                got.stats.faults_injected
            );
            assert!(
                got.stats.tasks_reclaimed > 0,
                "{} seed {seed}: a rank died holding a lease, so at least \
                 that task must be reclaimed",
                builder.label()
            );
            assert!(
                got.stats.retries > 0,
                "{} seed {seed}: reclaimed tasks must be re-served to survivors",
                builder.label()
            );
        }
    }
}

#[test]
fn killing_one_of_four_ranks_preserves_the_fock_matrix() {
    check_recovery_after_kills(1);
}

#[test]
fn killing_two_of_four_ranks_preserves_the_fock_matrix() {
    check_recovery_after_kills(2);
}

#[test]
fn scf_converges_to_the_fault_free_energy_under_repeated_kills() {
    // The fault plan replays on *every* iteration's build: each one loses
    // a rank and recovers. The converged energy must match the serial
    // driver's.
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let clean = run_scf(&mol, &b, &ScfConfig::default());
    assert!(clean.converged);

    for seed in seeds() {
        let faulty = run_scf(
            &mol,
            &b,
            &ScfConfig {
                algorithm: FockAlgorithm::MpiOnly { n_ranks: 4 },
                faults: Some(FaultPlan::random_kills(seed, 1)),
                ..Default::default()
            },
        );
        assert!(faulty.converged, "seed {seed}: faulty SCF did not converge");
        assert!(
            (faulty.energy - clean.energy).abs() < 1e-10,
            "seed {seed}: faulty {} vs clean {}",
            faulty.energy,
            clean.energy
        );
        let reclaimed: usize = faulty.fock_stats.iter().map(|s| s.tasks_reclaimed).sum();
        assert!(reclaimed > 0, "seed {seed}: every iteration killed a rank");
    }
}

#[test]
fn clean_parallel_builds_inject_no_faults() {
    let b = BasisSet::build(&small::water(), BasisName::Sto3g);
    let data = FockData::build(&b);
    let ctx = data.context(&b, 1e-12);
    let d = density(b.n_basis());
    for alg in [
        FockAlgorithm::MpiOnly { n_ranks: 2 },
        FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 2 },
        FockAlgorithm::Distributed { n_ranks: 2 },
        FockAlgorithm::Sharded { n_ranks: 2, mode: DdiMode::Mpi3OneSided },
    ] {
        let got = alg.builder().build(&ctx, &DensitySet::Restricted(&d));
        assert_eq!(got.stats.faults_injected, 0, "{}", alg.label());
        assert!(got.stats.failed_ranks.is_empty(), "{}", alg.label());
        assert_eq!(got.stats.tasks_reclaimed, 0, "{}", alg.label());
        assert!(!got.stats.lost, "{}", alg.label());
    }
}

#[test]
fn waits_that_always_time_out_lose_the_build_instead_of_panicking() {
    // A zero deadline times out every barrier of a world of two or more
    // ranks: the first rank to arrive gives up before another can join. No
    // rank gets through the lease reset or the reduction, so no row has a
    // G to return, and each says so instead of panicking.
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let retry = RetryPolicy { timeout: Duration::ZERO };
    for algorithm in algorithms() {
        let r = run_scf(&mol, &b, &ScfConfig { algorithm, retry, ..Default::default() });
        let label = algorithm.label();
        assert_eq!(r.stop_reason, ScfStop::FockBuildLost, "{label}");
        assert_eq!((r.iterations, r.fock_stats.len()), (1, 1), "{label}");
        assert!(r.fock_stats[0].lost && r.energy_history.is_empty(), "{label}");
    }
}
