//! The simulator's workload must agree with what the *real* Fock
//! builders actually do: same tasks, same quartet counts, same quartet
//! tests. This ties the performance model to the executing code.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::dmpi::DdiMode;
use phi_scf::hf::fock::SignificantPairs;
use phi_scf::hf::{DensitySet, FockAlgorithm, FockContext, FockData};
use phi_scf::integrals::screening::ShellClasses;
use phi_scf::integrals::{Screening, ShellPairs};
use phi_scf::knlsim::cost::EriCostTable;
use phi_scf::knlsim::workload::Workload;
use phi_scf::linalg::Mat;

fn workload(basis: &BasisSet, screening: &Screening, tau: f64) -> Workload {
    let eri = EriCostTable::analytic(&ShellClasses::classify(basis));
    Workload::build(basis, screening, tau, &eri)
}

#[test]
fn simulated_counts_match_real_build_quartets() {
    for (mol, label) in [
        (small::water(), "water"),
        (small::h_chain(12, 3.0), "H12"),
        (small::c_ring(6, 1.39), "C6"),
    ] {
        let basis = BasisSet::build(&mol, BasisName::Sto3g);
        let pairs = ShellPairs::build(&basis);
        let screening = Screening::from_pairs(&basis, &pairs);
        let tau = 1e-9;
        let w = workload(&basis, &screening, tau);
        let n = basis.n_basis();
        let d = Mat::identity(n);
        let build = FockAlgorithm::Serial
            .builder()
            .build(&FockContext::new(&basis, &pairs, &screening, tau), &DensitySet::Restricted(&d));
        assert_eq!(
            w.surviving_quartets, build.stats.quartets_computed as u128,
            "{label}: simulated vs real build"
        );
    }
}

/// On the work ledger's three systems the simulator's tasks are the
/// builders' list positions, counted exactly, at the default tau and at a
/// tau set exactly on one quartet's product (a tie, which the builders'
/// `>=` keeps and a strict `>` would drop). The workload is built from the
/// simulator's pair-free `Q` table, the builds from the builders' dataset.
#[test]
fn simulated_workload_is_the_ledgers_work_exactly() {
    for (mol, basis, label) in [
        (small::h_chain(28, 1.8), BasisName::B631g, "H28/6-31G"),
        (small::water(), BasisName::B631gd, "water/6-31G(d)"),
        (small::h_chain(8, 5.0), BasisName::Sto3g, "H8/STO-3G"),
    ] {
        let b = BasisSet::build(&mol, basis);
        let data = FockData::build(&b);
        let screening = Screening::compute_hybrid(&b, 0.0);
        let at_default = SignificantPairs::new(&screening, 1e-10);
        let (ti, tj) = at_default.pair(at_default.len() / 2);
        let tie = screening.q(ti, tj) * screening.q(ti, tj);
        for tau in [1e-10, tie] {
            let w = workload(&b, &screening, tau);
            let list = SignificantPairs::new(&screening, tau);
            assert_eq!(w.ij_tasks.len(), list.len(), "{label} tau={tau}: tasks");
            let mut ties = 0;
            for (p, t) in w.ij_tasks.iter().enumerate() {
                let (i, j) = list.pair(p);
                assert_eq!((t.i as usize, t.j as usize), (i, j), "{label}: task {p}");
                let mut scan = 0;
                for kl in 0..=p {
                    let (k, l) = list.pair(kl);
                    scan += screening.survives(i, j, k, l, tau) as u64;
                    ties += (screening.q(i, j) * screening.q(k, l) == tau) as usize;
                }
                assert_eq!(t.n_items, scan, "{label} tau={tau}: task {p}'s survivors");
            }
            if tau == tie {
                assert!(ties > 0, "{label}: no quartet sits on tau");
            }
            let d = Mat::identity(b.n_basis());
            let s = FockAlgorithm::Serial
                .builder()
                .build(&data.context(&b, tau), &DensitySet::Restricted(&d))
                .stats;
            let items: u64 = w.ij_tasks.iter().map(|t| t.n_items).sum();
            let tests: u64 = w.ij_tasks.iter().map(|t| t.n_tests).sum();
            assert_eq!(items, s.quartets_computed, "{label} tau={tau}: quartets computed");
            assert_eq!(
                tests,
                s.quartets_computed + s.quartets_screened,
                "{label} tau={tau}: quartet tests"
            );
        }
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
    let w = workload(&basis, &screening, tau);
    assert!(w.total_pairs > w.ij_tasks.len(), "distant fragments must prescreen pairs");

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
        workload(&b, &s, 1e-10).screened_fraction()
    };
    let small_sys = frac(6);
    let large_sys = frac(24);
    assert!(
        large_sys > small_sys,
        "longer chain must screen a larger fraction: {large_sys} vs {small_sys}"
    );
}
