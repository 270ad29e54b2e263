//! The simulator's workload statistics must agree with what the *real*
//! Fock builders actually do: same quartet counts, same screening
//! behaviour. This ties the performance model to the executing code.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::dmpi::DdiMode;
use phi_scf::hf::fock::SignificantPairs;
use phi_scf::hf::{DensitySet, FockAlgorithm, FockContext, FockData};
use phi_scf::integrals::screening::WorkloadStats;
use phi_scf::integrals::{Screening, ShellPairs};
use phi_scf::linalg::Mat;

#[test]
fn fenwick_counts_match_real_build_quartets() {
    for (mol, label) in [
        (small::water(), "water"),
        (small::h_chain(12, 3.0), "H12"),
        (small::c_ring(6, 1.39), "C6"),
    ] {
        let basis = BasisSet::build(&mol, BasisName::Sto3g);
        let pairs = ShellPairs::build(&basis);
        let screening = Screening::from_pairs(&basis, &pairs);
        let tau = 1e-9;
        let stats = WorkloadStats::compute(&basis, &screening, tau);
        let n = basis.n_basis();
        let d = Mat::identity(n);
        let build = FockAlgorithm::Serial
            .builder()
            .build(&FockContext::new(&basis, &pairs, &screening, tau), &DensitySet::Restricted(&d));
        let counted = stats.surviving_quartets() as i64;
        let real = build.stats.quartets_computed as i64;
        // Quantized-bucket boundary effects only: within 1% + small slack.
        assert!(
            (counted - real).unsigned_abs() as f64 <= 0.01 * real as f64 + 3.0,
            "{label}: statistics {counted} vs real build {real}"
        );
    }
}

#[test]
fn prescreened_tasks_do_no_work_in_the_real_builder() {
    // Two far-apart fragments: tasks joining them must be prescreened by
    // the statistics AND produce no computed quartets in the real build.
    let mut atoms = small::water().atoms().to_vec();
    atoms.extend(small::water().translated([0.0, 0.0, 80.0]).atoms().iter().copied());
    let mol = phi_scf::chem::Molecule::neutral(atoms);
    let basis = BasisSet::build(&mol, BasisName::Sto3g);
    let pairs = ShellPairs::build(&basis);
    let screening = Screening::from_pairs(&basis, &pairs);
    let tau = 1e-10;
    let stats = WorkloadStats::compute(&basis, &screening, tau);
    assert!(stats.pairs_prescreened > 0, "distant fragments must prescreen pairs");

    let n = basis.n_basis();
    let d = Mat::identity(n);
    let mono_basis = BasisSet::build(&small::water(), BasisName::Sto3g);
    let mono_pairs = ShellPairs::build(&mono_basis);
    let mono_screening = Screening::from_pairs(&mono_basis, &mono_pairs);
    let serial = FockAlgorithm::Serial.builder();
    let one = serial.build(
        &FockContext::new(&mono_basis, &mono_pairs, &mono_screening, tau),
        &DensitySet::Restricted(&Mat::identity(7)),
    );
    let two = serial
        .build(&FockContext::new(&basis, &pairs, &screening, tau), &DensitySet::Restricted(&d));
    // Schwarz keeps long-range *Coulomb* blocks (ij on fragment A | kl on
    // fragment B) — the interaction decays as 1/R, not exponentially — but
    // kills every inter-fragment *pair*. So the dimer workload grows
    // quadratically in the fragment count (~4x), far below the unscreened
    // quartic growth (~12x here: 666 vs 55 canonical quartets).
    let ratio = two.stats.quartets_computed as f64 / one.stats.quartets_computed as f64;
    assert!(
        (3.0..5.0).contains(&ratio),
        "expected quadratic growth, got dimer/monomer quartet ratio {ratio}"
    );
}

#[test]
fn builder_counters_are_deterministic_across_algorithms() {
    // The counters the builders report (and emit as trace counter
    // events inside a session) are exact work accounting, not
    // timings: every parallel decomposition of the same workload must
    // land on the same totals as the serial enumeration, run after run.
    let basis = BasisSet::build(&small::water(), BasisName::Sto3g);
    let data = FockData::build(&basis);
    let tau = 1e-12;
    let ctx = data.context(&basis, tau);
    let n = basis.n_basis();
    let d = Mat::from_fn(n, n, |i, j| {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        0.2 + ((i * 5 + j * 11) % 7) as f64 * 0.1
    });
    let dens = DensitySet::Restricted(&d);
    let serial = FockAlgorithm::Serial.builder().build(&ctx, &dens);
    let total = serial.stats.quartets_computed + serial.stats.quartets_screened;

    let ns = basis.n_shells();
    let n_significant = SignificantPairs::new(&data.screening, tau).len();
    for (alg, ranks) in [
        (FockAlgorithm::MpiOnly { n_ranks: 3 }, 3),
        (FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 }, 2),
        (FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 }, 2),
        (FockAlgorithm::Distributed { n_ranks: 3 }, 3),
        (FockAlgorithm::Sharded { n_ranks: 3, mode: DdiMode::Mpi3OneSided }, 3),
    ] {
        let got = alg.builder().build(&ctx, &dens);
        let label = alg.label();
        assert_eq!(
            got.stats.quartets_computed, serial.stats.quartets_computed,
            "{label}: every surviving quartet exactly once"
        );
        assert_eq!(
            got.stats.quartets_computed + got.stats.quartets_screened,
            total,
            "{label}: full canonical coverage"
        );
        // DLB accounting: tasks pulled plus one final out-of-range claim
        // per rank — exact, not approximate. Every row but private leases
        // the significant pairs.
        let tasks = match alg {
            FockAlgorithm::PrivateFock { .. } => ns,
            _ => n_significant,
        };
        assert_eq!(got.stats.dlb_tasks, tasks, "{label}: one lease per task");
        assert_eq!(got.stats.dlb_calls, tasks + ranks, "{label}: claims + final polls");
    }
}

#[test]
fn a_threshold_above_every_product_leaves_an_empty_lease_stream() {
    // With tau above Q_max^2 no quartet survives and no pair is
    // significant, so every pair row's lease stream is empty: each rank
    // makes one claim, finds the stream exhausted and returns G = 0.
    // Private leases shells, and every (i, j) inside them is skipped. Two
    // ranks, of two threads each for the hybrid rows.
    let basis = BasisSet::build(&small::water(), BasisName::Sto3g);
    let data = FockData::build(&basis);
    let tau = 2.0 * data.screening.q_max() * data.screening.q_max();
    assert!(SignificantPairs::new(&data.screening, tau).is_empty());
    let ctx = data.context(&basis, tau);
    let d = Mat::identity(basis.n_basis());
    let ns = basis.n_shells();
    for alg in [
        FockAlgorithm::MpiOnly { n_ranks: 2 },
        FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::Distributed { n_ranks: 2 },
        FockAlgorithm::Sharded { n_ranks: 2, mode: DdiMode::Mpi3OneSided },
    ] {
        let got = alg.builder().build(&ctx, &DensitySet::Restricted(&d));
        let label = alg.label();
        assert_eq!(got.g.max_abs(), 0.0, "{label}: G");
        let s = &got.stats;
        assert_eq!((s.quartets_computed, s.quartets_screened), (0, 0), "{label}: quartet tests");
        let tasks = match alg {
            FockAlgorithm::PrivateFock { .. } => ns,
            _ => 0,
        };
        assert_eq!(s.dlb_tasks, tasks, "{label}: tasks leased");
        assert_eq!(s.dlb_calls, tasks + 2, "{label}: one exhausted claim per rank");
    }
}

#[test]
fn screened_fraction_grows_with_system_extent() {
    let basis_of = |n: usize| BasisSet::build(&small::h_chain(n, 3.0), BasisName::Sto3g);
    let frac = |n: usize| {
        let b = basis_of(n);
        let s = Screening::compute_hybrid(&b, 0.0);
        WorkloadStats::compute(&b, &s, 1e-10).screened_fraction()
    };
    let small_sys = frac(6);
    let large_sys = frac(24);
    assert!(
        large_sys > small_sys,
        "longer chain must screen a larger fraction: {large_sys} vs {small_sys}"
    );
}
