//! Chaos soak: *mixed* fault plans — a rank kill, message drops, payload
//! corruptions and stragglers in the same run — against every parallel
//! builder, the sharded build included.
//!
//! The contract under test:
//!
//! * the kill is the only fatal fault — exactly one rank dies, its
//!   leases are reclaimed, and the build completes on the survivors;
//! * every drop/corrupt drains into retransmission (`retransmits > 0`,
//!   `transient_recoveries > 0`) and costs **zero** additional rank
//!   deaths;
//! * the recovered Fock matrix matches the serial reference to 1e-12;
//! * a clean build runs no protocol at all: its ledger is all zero.
//!
//! Plans are seeded and replay deterministically; CI sweeps extra seeds
//! through `PHI_FAULT_SEEDS` with a hang-guard timeout on the job.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::dmpi::{
    run_world_with_config, CommStats, DdiMode, FaultPlan, RetryPolicy, WorldConfig, MAX_ATTEMPTS,
};
use phi_scf::hf::{run_scf, DensitySet, FockAlgorithm, FockData, ScfConfig};
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

/// Every parallel builder at four ranks — the replicated family (whose
/// faults ride the reliable gsum tree) and the window family (whose
/// faults ride the DDI window links).
fn algorithms() -> [FockAlgorithm; 5] {
    [
        FockAlgorithm::MpiOnly { n_ranks: 4 },
        FockAlgorithm::PrivateFock { n_ranks: 4, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 4, n_threads: 2 },
        FockAlgorithm::Distributed { n_ranks: 4 },
        FockAlgorithm::Sharded { n_ranks: 4, mode: DdiMode::Mpi3OneSided },
    ]
}

/// A mixed plan: one kill (whoever claims task 2 dies holding it), first
/// messages dropped on three edges chosen to cover every possible
/// post-kill reduction tree and the window links' hottest edges, the
/// retransmissions of two of those edges corrupted on top (so one send
/// must survive *two* transient faults back to back), and two
/// millisecond stragglers to keep timings shuffled.
fn mixed_plan(seed: u64) -> FaultPlan {
    FaultPlan::parse(&format!(
        "{seed}:kill@2,drop@1->0#1,drop@2->0#1,drop@2->1#1,\
         corrupt@1->0#2,corrupt@2->0#2,delay@0#1:3,delay@3#1:2"
    ))
    .expect("chaos plan parses")
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

            // Exactly the scheduled kill died. Every drop/corrupt must
            // have drained into retransmission, not the kill path.
            assert_eq!(
                got.stats.failed_ranks.len(),
                1,
                "{label} seed {seed}: transient faults killed ranks: {:?}",
                got.stats.failed_ranks
            );
            assert!(
                got.stats.comm.retransmits > 0,
                "{label} seed {seed}: mixed faults fired but nothing was retransmitted"
            );
            assert!(
                got.stats.comm.transient_recoveries > 0,
                "{label} seed {seed}: no transient fault was recovered"
            );
            assert!(
                got.stats.tasks_reclaimed > 0,
                "{label} seed {seed}: the killed rank died holding a lease"
            );
            // Counter coherence: every recovered message was delivered,
            // and every detected corruption was paid for by a resend.
            assert!(
                got.stats.comm.acks >= got.stats.comm.transient_recoveries,
                "{label} seed {seed}: {} deliveries < {} recoveries",
                got.stats.comm.acks,
                got.stats.comm.transient_recoveries
            );
            assert!(
                got.stats.comm.retransmits >= got.stats.comm.corruptions_detected,
                "{label} seed {seed}: {} corruptions detected but only {} retransmits",
                got.stats.comm.corruptions_detected,
                got.stats.comm.retransmits
            );
            // The kill plus at least one message fault fired.
            assert!(
                got.stats.comm.faults_injected >= 2,
                "{label} seed {seed}: only {} faults fired",
                got.stats.comm.faults_injected
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
        let retransmits: u64 = faulty.fock_stats.iter().map(|s| s.comm.retransmits).sum();
        let deaths: usize = faulty.fock_stats.iter().map(|s| s.failed_ranks.len()).max().unwrap();
        assert!(retransmits > 0, "seed {seed}: no retransmissions across the whole SCF");
        assert_eq!(deaths, 1, "seed {seed}: transient faults must not add rank deaths");
    }
}

#[test]
fn unreliable_policy_under_drops_collapses_reliable_policy_recovers() {
    // The control experiment. A plan that drops every attempt the
    // retransmit budget allows on one reduction edge collapses the
    // MPI-only build's collective: rank 1 gives up after MAX_ATTEMPTS - 1
    // resends and dies, the root's receive times out, the broadcast never
    // happens, and no rank finishes the sum. With one drop on the same
    // edge, the budget costs one retransmission and nobody dies.
    let drops: Vec<String> = (1..=MAX_ATTEMPTS).map(|n| format!("drop@1->0#{n}")).collect();
    let collapsed = run_world_with_config(
        WorldConfig {
            n_ranks: 4,
            faults: Some(FaultPlan::parse(&format!("7:{}", drops.join(","))).unwrap()),
            retry: RetryPolicy { timeout: Duration::from_millis(500) },
        },
        |r| r.try_gsumf(&mut [r.rank() as f64]).is_ok(),
    );
    assert!(collapsed.per_rank.iter().all(|&ok| !ok), "a sum missing rank 1 must not finish");
    assert!(collapsed.failed_ranks().contains(&1), "the exhausted sender escalates");
    assert_eq!(collapsed.comm.retransmits, MAX_ATTEMPTS as u64 - 1);
    assert_eq!(collapsed.comm.faults_injected, MAX_ATTEMPTS as u64, "every attempt was lost");

    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let data = FockData::build(&b);
    let ctx = data.context(&b, 1e-12);
    let d = density(b.n_basis());
    let plan = FaultPlan::parse("7:drop@1->0#1").expect("plan parses");
    let alg = FockAlgorithm::MpiOnly { n_ranks: 4 };
    let got = alg.builder_with_faults(Some(plan)).build(&ctx, &DensitySet::Restricted(&d));
    let want = FockAlgorithm::Serial.builder().build(&ctx, &DensitySet::Restricted(&d));
    assert!(got.stats.failed_ranks.is_empty(), "retransmission must absorb the drop");
    assert_eq!(got.stats.comm.retransmits, 1);
    assert!(got.g.max_abs_diff(&want.g) <= 1e-12);
}

#[test]
fn clean_parallel_builds_report_an_empty_comm_ledger() {
    // Without a fault plan there is no link: each message is one channel
    // send, with no checksum, no ack and nothing to count.
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
        assert_eq!(got.stats.comm, CommStats::default(), "{}", alg.label());
    }
}
