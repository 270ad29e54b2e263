//! Chaos soak: *mixed* fault plans — a rank kill among stragglers in the
//! same run — against every parallel builder, the sharded build included.
//!
//! The contract under test:
//!
//! * the kill is the only fatal fault — exactly one rank dies, its
//!   leases are reclaimed, and the build completes on the survivors;
//! * a straggler only shuffles the lease order: it costs **zero**
//!   additional rank deaths;
//! * the recovered Fock matrix matches the serial reference to 1e-12.
//!
//! Plans are seeded and replay deterministically; CI sweeps extra seeds
//! through `PHI_FAULT_SEEDS` with a hang-guard timeout on the job.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::dmpi::{DdiMode, FaultPlan};
use phi_scf::hf::{run_scf, DensitySet, FockAlgorithm, FockData, ScfConfig};
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

/// Every parallel builder at four ranks — the replicated family and the
/// window family.
fn algorithms() -> [FockAlgorithm; 5] {
    [
        FockAlgorithm::MpiOnly { n_ranks: 4 },
        FockAlgorithm::PrivateFock { n_ranks: 4, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 4, n_threads: 2 },
        FockAlgorithm::Distributed { n_ranks: 4 },
        FockAlgorithm::Sharded { n_ranks: 4, mode: DdiMode::Mpi3OneSided },
    ]
}

/// A mixed plan: one kill (whoever claims task 2 dies holding it) and two
/// millisecond stragglers on ranks 0 and 3's first claims, so the lease
/// order shuffles around the death.
fn mixed_plan(seed: u64) -> FaultPlan {
    FaultPlan::parse(&format!("{seed}:kill@2,delay@0#1:3,delay@3#1:2")).expect("chaos plan parses")
}

fn density(n: usize) -> Mat {
    Mat::from_fn(n, n, |i, j| {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        0.2 + ((i * 5 + j * 11) % 7) as f64 * 0.1
    })
}

#[test]
fn mixed_faults_recover_on_every_builder_with_zero_transient_deaths() {
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let data = FockData::build(&b);
    let ctx = data.context(&b, 1e-12);
    let d = density(b.n_basis());
    let want = FockAlgorithm::Serial.builder().build(&ctx, &DensitySet::Restricted(&d));

    for seed in seeds() {
        for alg in algorithms() {
            let builder = alg.builder_with_faults(Some(mixed_plan(seed)));
            let got = builder.build(&ctx, &DensitySet::Restricted(&d));
            let label = builder.label();
            let diff = got.g.max_abs_diff(&want.g);
            assert!(diff <= 1e-12, "{label} seed {seed}: Fock diff {diff:e} under mixed faults");

            // Exactly the scheduled kill died; the stragglers did not.
            assert_eq!(
                got.stats.failed_ranks.len(),
                1,
                "{label} seed {seed}: stragglers killed ranks: {:?}",
                got.stats.failed_ranks
            );
            assert!(
                got.stats.tasks_reclaimed > 0,
                "{label} seed {seed}: the killed rank died holding a lease"
            );
            assert!(
                got.stats.retries > 0,
                "{label} seed {seed}: reclaimed tasks must be re-served to survivors"
            );
            // The kill plus at least one straggler fired.
            assert!(
                got.stats.faults_injected >= 2,
                "{label} seed {seed}: only {} faults fired",
                got.stats.faults_injected
            );
        }
    }
}

#[test]
fn chaos_scf_converges_to_the_fault_free_energy() {
    // The mixed plan replays on every iteration's build; the converged
    // energy must match the clean serial run to SCF tolerance.
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
                faults: Some(mixed_plan(seed)),
                ..Default::default()
            },
        );
        assert!(faulty.converged, "seed {seed}: chaos SCF did not converge");
        assert!(
            (faulty.energy - clean.energy).abs() < 1e-10,
            "seed {seed}: chaos {} vs clean {}",
            faulty.energy,
            clean.energy
        );
        let reclaimed: usize = faulty.fock_stats.iter().map(|s| s.tasks_reclaimed).sum();
        let deaths = faulty.fock_stats.iter().map(|s| s.failed_ranks.len()).max();
        assert!(reclaimed > 0, "seed {seed}: every iteration killed a rank");
        assert_eq!(deaths, Some(1), "seed {seed}: stragglers must not add rank deaths");
    }
}
