//! The work ledger: one Fock build at the core-guess density through every
//! row, on the benchmark's H₂₈/6-31G chain, on water/6-31G(d) (every
//! shell type the benchmark's water trimer has, at a tenth of the cost)
//! and on a spread-out H₈/STO-3G chain whose significant-pair list, the
//! pair rows' task space, holds 26 of its 36 pairs, with the work each
//! build did pinned.
//!
//! A change that claims to move no work shows it here as unchanged pins; a
//! change that moves work updates the pins in the same diff and says why.
//! Quartet counts, per-class counts, DLB tasks and claims and the modeled
//! per-rank bytes (`MemoryModel::per_rank_bytes`) are exact on every row. Every row walks the same
//! significant-pair list as its `kl` index space, so it also performs the
//! same quartet tests: `quartets_screened` (the tests that failed) is
//! pinned once per system, like `quartets`. The two-rank window rows' `acc`
//! runs (`flushes`) depend on which rank wins which lease, so they are
//! pinned to a range wider than the one measured over thousands of builds
//! per row (release and debug, on two cores and pinned to one, with and
//! without other jobs on the machine). The same rows at one rank pin that
//! count exactly.

use std::ops::RangeInclusive;

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::chem::Molecule;
use phi_scf::dmpi::DdiMode;
use phi_scf::hf::guess::core_guess;
use phi_scf::hf::{DensitySet, FockAlgorithm, FockData, ScfConfig};
use phi_scf::integrals::{kinetic_matrix, nuclear_attraction_matrix, overlap_matrix, CLASS_LABELS};
use phi_scf::linalg::sym_inv_sqrt;

/// What one row's build must report.
struct Row {
    algorithm: FockAlgorithm,
    dlb_tasks: usize,
    dlb_calls: usize,
    flushes: RangeInclusive<u64>,
    /// Entries pushed into the window rows' `acc` buffers; zero elsewhere.
    acc_entries: u64,
    max_rank_peak: usize,
}

/// The benchmark's shapes: two ranks, or one rank of two threads.
const MPI: FockAlgorithm = FockAlgorithm::MpiOnly { n_ranks: 2 };
const PRIVATE: FockAlgorithm = FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 2 };
const SHARED: FockAlgorithm = FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 2 };
const DISTRIBUTED: FockAlgorithm = FockAlgorithm::Distributed { n_ranks: 2 };
const SHARDED: FockAlgorithm = FockAlgorithm::Sharded { n_ranks: 2, mode: DdiMode::Mpi3OneSided };
const SHARED2: FockAlgorithm = FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 };
const DISTRIBUTED1: FockAlgorithm = FockAlgorithm::Distributed { n_ranks: 1 };
const SHARDED1: FockAlgorithm = FockAlgorithm::Sharded { n_ranks: 1, mode: DdiMode::Mpi3OneSided };

/// The quartets one build computes and the tests that failed, the same on
/// every row.
struct Work<'a> {
    computed: u64,
    screened: u64,
    /// Nonzero `eri_class_quartets` by label.
    classes: &'a [(&'a str, u64)],
    /// Bound on the tests performed per quartet computed.
    max_tests_per_computed: f64,
}

/// Build once per row at `mol`'s core-guess density and hold every count
/// to its pin.
fn check(mol: &Molecule, basis: BasisName, work: Work<'_>, rows: &[Row]) {
    let b = BasisSet::build(mol, basis);
    let config = ScfConfig::default();
    let h = kinetic_matrix(&b).add(&nuclear_attraction_matrix(&b, mol));
    let x = sym_inv_sqrt(&overlap_matrix(&b), config.s_threshold);
    let d = core_guess(&h, &x, mol.n_occupied());
    let data = FockData::build(&b);
    let ctx = data.context(&b, config.screening_tau);
    for row in rows {
        let label = row.algorithm.label();
        let s = row.algorithm.builder().build(&ctx, &DensitySet::Restricted(&d)).stats;
        let got: Vec<(&str, u64)> = (s.eri_class_quartets.iter().enumerate())
            .filter(|&(_, &n)| n > 0)
            .map(|(slot, &n)| (CLASS_LABELS[slot], n))
            .collect();
        assert_eq!(got, work.classes, "{label}: quartets per class");
        assert_eq!(s.quartets_computed, work.computed, "{label}: quartets computed");
        assert_eq!(s.quartets_screened, work.screened, "{label}: quartet tests failed");
        let tests = (s.quartets_computed + s.quartets_screened) as f64;
        assert!(
            tests <= work.max_tests_per_computed * s.quartets_computed as f64,
            "{label}: {tests} tests for {} quartets",
            s.quartets_computed
        );
        assert_eq!(s.dlb_tasks, row.dlb_tasks, "{label}: DLB tasks");
        assert_eq!(s.dlb_calls, row.dlb_calls, "{label}: DLB claims");
        assert!(row.flushes.contains(&s.flushes), "{label}: flushes {}", s.flushes);
        assert_eq!(s.acc_entries, row.acc_entries, "{label}: acc entries");
        assert_eq!(s.max_rank_peak(), row.max_rank_peak, "{label}: bytes per rank");
    }
}

#[test]
fn h28_631g_ledger_holds_on_every_row() {
    // 56 s shells: 1 596 shell pairs, 668 of them significant, one ERI
    // class; 203 065 of the 1.27 M canonical quartets survive. Walking only
    // the significant pairs, each row tests 223 446 quartets, 1.10 per
    // quartet computed (6.3 when every row walked the dense kl triangle).
    let work = Work {
        computed: 203_065,
        screened: 20_381,
        classes: &[("b0k0", 203_065)],
        max_tests_per_computed: 1.15,
    };
    let row = |algorithm, dlb_tasks, dlb_calls, flushes, acc_entries, max_rank_peak| Row {
        algorithm,
        dlb_tasks,
        dlb_calls,
        flushes,
        acc_entries,
        max_rank_peak,
    };
    let rows = [
        row(FockAlgorithm::Serial, 0, 0, 0..=0, 0, 1_604_290),
        // Every significant pair leased, plus each rank's out-of-range
        // claim: the other 928 pairs are no task at all.
        row(MPI, 668, 670, 0..=0, 0, 1_604_290),
        // One lease per shell `i`, plus the end-of-stream claim.
        row(PRIVATE, 56, 57, 0..=0, 0, 1_641_922),
        // One FJ flush per task plus one FI flush per run of equal `i`.
        row(SHARED, 668, 669, 724..=724, 0, 1_629_378),
        // Measured 20 369–20 731 over about 2 400 builds per row.
        row(DISTRIBUTED, 668, 670, 20_150..=20_900, 229_195, 1_582_138),
        row(SHARDED, 668, 670, 20_150..=20_900, 229_195, 1_572_970),
        row(DISTRIBUTED1, 668, 669, 20_594..=20_594, 229_195, 1_588_522),
        row(SHARDED1, 668, 669, 20_594..=20_594, 229_195, 1_585_738),
    ];
    check(&small::h_chain(28, 1.8), BasisName::B631g, work, &rows);
}

#[test]
fn water_631gd_ledger_holds_on_every_row() {
    // 8 shells (s, SP and d on O, s on H): 36 pairs, and at tau = 1e-10
    // every one of the 666 canonical quartets survives.
    #[rustfmt::skip]
    let classes = [
        ("b0k0", 120), ("b0k1", 100), ("b0k2", 92), ("b0k3", 28), ("b0k4", 14),
        ("b1k0", 50), ("b1k1", 55), ("b1k2", 45), ("b1k3", 16), ("b1k4", 8),
        ("b2k0", 28), ("b2k1", 35), ("b2k2", 36), ("b2k3", 8), ("b2k4", 4),
        ("b3k0", 2), ("b3k1", 4), ("b3k2", 8), ("b3k3", 3),
        ("b4k0", 1), ("b4k1", 2), ("b4k2", 4), ("b4k3", 2), ("b4k4", 1),
    ];
    let row = |algorithm, dlb_tasks, dlb_calls, flushes, acc_entries, max_rank_peak| Row {
        algorithm,
        dlb_tasks,
        dlb_calls,
        flushes,
        acc_entries,
        max_rank_peak,
    };
    let rows = [
        row(FockAlgorithm::Serial, 0, 0, 0..=0, 0, 109_074),
        row(MPI, 36, 38, 0..=0, 0, 109_074),
        row(PRIVATE, 8, 9, 0..=0, 0, 113_406),
        row(SHARED, 36, 37, 44..=44, 0, 111_962),
        // Measured 11–128 over about 8 000 builds per row: with 36 tasks, how
        // they split between the ranks moves the count by a factor of ten.
        // Pushing every unique integral's updates straight into the `acc`
        // buffer, without Algorithm 3's strips and per-quartet (k, l)
        // blocks, made 1 441 to 1 546 runs over 50 two-rank sharded builds;
        // the upper bound, under a seventh of the fewest, is the line such
        // pushes must not cross again in either window build. Digestion
        // skips exact zeros, so the `acc` count moves with rounding noise in
        // integrals that vanish by symmetry: element 11 of (64|32) read
        // -2.7e-20 until its Hermite weights were fused, and 0.0 since.
        row(DISTRIBUTED, 36, 38, 5..=200, 4_150, 115_806),
        row(SHARDED, 36, 38, 5..=200, 4_150, 122_326),
        row(DISTRIBUTED1, 36, 37, 62..=62, 4_150, 116_566),
        row(SHARDED1, 36, 37, 62..=62, 4_150, 123_846),
    ];
    let work = Work { computed: 666, screened: 0, classes: &classes, max_tests_per_computed: 1.0 };
    check(&small::water(), BasisName::B631gd, work, &rows);
}

#[test]
fn h8_sto3g_ledger_holds_on_every_row() {
    // h_chain(8, 5.0)/STO-3G: 36 ij pairs, 26 of them significant, with 8
    // distinct i among them.
    let work = Work {
        computed: 271,
        screened: 80,
        classes: &[("b0k0", 271)],
        max_tests_per_computed: 1.3,
    };
    let row = |algorithm, dlb_tasks, dlb_calls, flushes, acc_entries, max_rank_peak| Row {
        algorithm,
        dlb_tasks,
        dlb_calls,
        flushes,
        acc_entries,
        max_rank_peak,
    };
    let rows = [
        row(FockAlgorithm::Serial, 0, 0, 0..=0, 0, 70_194),
        // Every row but private leases the 26 significant ij pairs through
        // the same loop, plus each rank's out-of-range claim.
        row(MPI, 26, 28, 0..=0, 0, 70_194),
        // One FJ flush per task, one FI flush per run of equal i in a
        // rank's lease sequence: 8 on one rank.
        row(SHARED, 26, 27, 34..=34, 0, 70_706),
        // On two ranks which rank gets which lease is a race, and each sees
        // at most all 8 i: 34 to 41 over 4 000 builds.
        row(SHARED2, 26, 28, 34..=42, 0, 70_706),
        // Measured 1–5 over 600 builds per row.
        row(DISTRIBUTED, 26, 28, 1..=20, 391, 77_898),
        row(SHARDED, 26, 28, 1..=20, 391, 85_914),
    ];
    check(&small::h_chain(8, 5.0), BasisName::Sto3g, work, &rows);
}
