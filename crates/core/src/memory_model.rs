//! Memory footprint model — the paper's equations (3a)–(3c) and Table 2.
//!
//! Asymptotic per-node footprints (N_BF basis functions, 8-byte reals):
//!
//! ```text
//! M_MPI  = 5/2           * N^2 * N_mpi_per_node        (eq. 3a)
//! M_PrF  = (2 + N_thr)   * N^2 * N_mpi_per_node        (eq. 3b)
//! M_ShF  = 7/2           * N^2 * N_mpi_per_node        (eq. 3c)
//! ```
//!
//! The paper runs 256 MPI ranks/node for the MPI-only code and
//! 4 ranks x 64 threads for the hybrids. [`MemoryModel::per_rank_bytes`] is
//! the one statement of these equations (per rank: a node holds
//! `N_mpi_per_node` of them). Every build reports its row as
//! `FockBuildStats::rank_bytes`, and the CLI's `--memory-budget`, Table 2
//! and the simulator's capacity check call it too.
//!
//! It is a model of a distributed-memory job, not a count of this
//! process's allocations. Here ranks are threads, so the density and the
//! shell-pair dataset exist once however many ranks read them, and the
//! ERI engines' and digesters' scratch goes unpriced.

use crate::fock::matrix::{
    replicated_density_bytes, shard_reader_bytes, shard_stripe_bytes, shard_writer_bytes,
};
use crate::FockAlgorithm;
use phi_chem::geom::graphene::PaperSystem;
use phi_chem::BasisSet;
use phi_integrals::ShellPairs;

/// Word size of the matrices (double precision).
const WORD: f64 = 8.0;

/// Per-rank memory model of one system.
#[derive(Clone, Copy, Debug)]
pub struct MemoryModel {
    pub n_basis: usize,
    /// Functions in the widest shell ([`phi_chem::BasisSet::max_shell_width`]):
    /// the row count of the window builds' FI/FJ strips.
    pub max_shell_width: usize,
    /// Bytes of the persistent shell-pair dataset
    /// ([`phi_integrals::ShellPairs::bytes`]). Priced once per MPI rank —
    /// shared read-only by the rank's threads, never replicated per thread.
    pub pair_bytes: usize,
}

impl MemoryModel {
    /// The model of `basis` with its shell-pair dataset `pairs`.
    pub fn new(basis: &BasisSet, pairs: &ShellPairs) -> MemoryModel {
        MemoryModel {
            n_basis: basis.n_basis(),
            max_shell_width: basis.max_shell_width(),
            pair_bytes: pairs.bytes(),
        }
    }

    /// Bytes one rank of `alg` holds: the matrices of eqs. (3a)-(3c) plus
    /// one copy of the shell-pair dataset. `Serial` replicates the same
    /// density + full accumulation matrices as MPI-only, so it shares
    /// eq. (3a).
    ///
    /// The two window builds are priced with the functions their buffers
    /// are sized by. Both hold a stripe of the tri-packed Fock window
    /// (`N(N+1)/2` words divided over the world's ranks) and the O(N)
    /// writer — `acc` buffer, FI/FJ strips, `(k, l)` block. `Distributed`
    /// adds one whole density copy. `Sharded` adds a density window stripe
    /// and the O(N) row cache instead, which makes it the only
    /// sub-quadratic row — the variant that dodges the memory wall.
    pub fn per_rank_bytes(&self, alg: FockAlgorithm) -> f64 {
        let n = self.n_basis;
        let n2 = (n as f64) * (n as f64);
        let (ranks, threads) = alg.shape();
        let writer = shard_writer_bytes(n, self.max_shell_width);
        let matrices = match alg {
            FockAlgorithm::Serial | FockAlgorithm::MpiOnly { .. } => 2.5 * n2 * WORD,
            FockAlgorithm::PrivateFock { .. } => (2.0 + threads as f64) * n2 * WORD,
            FockAlgorithm::SharedFock { .. } => 3.5 * n2 * WORD,
            FockAlgorithm::Distributed { .. } => {
                (replicated_density_bytes(n) + shard_stripe_bytes(n, ranks, 1) + writer) as f64
            }
            FockAlgorithm::Sharded { .. } => {
                (shard_stripe_bytes(n, ranks, 2) + shard_reader_bytes(n) + writer) as f64
            }
        };
        matrices + self.pair_bytes as f64
    }
}

/// One row of the paper's Table 2 regenerated from the model with the
/// paper's configurations: 256 ranks (MPI-only) vs 4 ranks x 64 threads
/// (hybrids).
#[derive(Clone, Debug)]
pub struct Table2Row {
    pub system: PaperSystem,
    pub gb_mpi: f64,
    pub gb_private: f64,
    pub gb_shared: f64,
}

impl Table2Row {
    pub fn compute(system: PaperSystem) -> Table2Row {
        // 6-31G(d): the widest shell is a cartesian d.
        let model = MemoryModel {
            n_basis: system.n_basis_functions(),
            max_shell_width: phi_chem::basis::n_cart(2),
            pair_bytes: 0,
        };
        let gb_per_node =
            |alg: FockAlgorithm| alg.shape().0 as f64 * model.per_rank_bytes(alg) / 1e9;
        Table2Row {
            system,
            gb_mpi: gb_per_node(FockAlgorithm::MpiOnly { n_ranks: 256 }),
            gb_private: gb_per_node(FockAlgorithm::PrivateFock { n_ranks: 4, n_threads: 64 }),
            gb_shared: gb_per_node(FockAlgorithm::SharedFock { n_ranks: 4, n_threads: 64 }),
        }
    }

    /// Footprint ratio MPI-only : shared-Fock (the paper's "~200x").
    pub fn shared_ratio(&self) -> f64 {
        self.gb_mpi / self.gb_shared
    }
}

/// The paper's printed Table 2 values (GB) for comparison output:
/// (system, MPI, private Fock, shared Fock).
pub const PAPER_TABLE2_GB: [(f64, f64, f64); 5] = [
    (7.0, 0.13, 0.03),
    (48.0, 1.0, 0.2),
    (160.0, 3.0, 0.8),
    (417.0, 8.0, 2.0),
    (9869.0, 257.0, 52.0),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::engine::FockData;
    use crate::fock::DensitySet;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_dmpi::DdiMode;
    use phi_linalg::Mat;

    #[test]
    fn every_row_reports_its_model_row() {
        // Water/6-31G at 1, 2 and 4 workers: every build's bytes are its
        // algorithm's row. Per node (ranks x bytes per rank) Table 2's
        // order holds from two cores on: MPI > private > shared. At one
        // core eq. (3a) puts MPI (2.5 N^2) below private (3 N^2).
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-10);
        let d = Mat::identity(b.n_basis());
        let model = MemoryModel::new(&b, &data.pairs);
        let bytes = |alg: FockAlgorithm| {
            let got = alg.builder().build(&ctx, &DensitySet::Restricted(&d)).stats;
            assert_eq!(got.max_rank_peak() as f64, model.per_rank_bytes(alg), "{}", alg.label());
            alg.shape().0 as f64 * got.max_rank_peak() as f64
        };
        bytes(FockAlgorithm::Serial);
        for cores in [1, 2, 4] {
            let mpi = bytes(FockAlgorithm::MpiOnly { n_ranks: cores });
            let private = bytes(FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: cores });
            let shared = bytes(FockAlgorithm::SharedFock { n_ranks: 1, n_threads: cores });
            bytes(FockAlgorithm::Distributed { n_ranks: cores });
            bytes(sharded(cores));
            if cores > 1 {
                assert!(
                    mpi > private && private > shared,
                    "{cores} cores: {mpi} {private} {shared}"
                );
            }
        }
        // The window rows' O(N) caches (~17 KB here) outweigh water's
        // 1.3 KB matrices, so they come last only past them: per rank on an
        // H50 chain, sharded < distributed < MPI, and sharded is below
        // every replicated row.
        let b = BasisSet::build(&small::h_chain(50, 2.0), BasisName::Sto3g);
        let m = MemoryModel::new(&b, &ShellPairs::build(&b));
        let per_rank = |alg| m.per_rank_bytes(alg);
        let distributed = per_rank(FockAlgorithm::Distributed { n_ranks: 4 });
        assert!(distributed < per_rank(FockAlgorithm::MpiOnly { n_ranks: 4 }));
        assert!(per_rank(sharded(4)) < distributed);
        let shared = per_rank(FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 4 });
        assert!(per_rank(sharded(4)) < shared);
    }

    #[test]
    fn ratios_match_the_papers_headline_numbers() {
        // With the paper's configurations the model ratios are exact:
        // MPI : shared = 2.5*256 : 3.5*4 = 640 : 14 ~ 45.7x per eq. (3),
        // but the paper reports ~200x *measured*. The measured number also
        // folds in GAMESS's additional replicated structures; what must
        // hold from the equations alone:
        let row = Table2Row::compute(PaperSystem::Nm10);
        assert!(row.shared_ratio() > 40.0, "shared ratio {}", row.shared_ratio());
        assert!(row.gb_mpi / row.gb_private > 2.0, "private ratio");
        // Shared Fock always beats private Fock at 64 threads.
        assert!(row.gb_shared < row.gb_private);
    }

    #[test]
    fn footprints_scale_quadratically_with_basis() {
        let small = Table2Row::compute(PaperSystem::Nm05);
        let large = Table2Row::compute(PaperSystem::Nm10);
        let n_ratio = (PaperSystem::Nm10.n_basis_functions() as f64
            / PaperSystem::Nm05.n_basis_functions() as f64)
            .powi(2);
        assert!((large.gb_mpi / small.gb_mpi - n_ratio).abs() < 1e-9);
    }

    const HYBRID_4X64: FockAlgorithm = FockAlgorithm::SharedFock { n_ranks: 4, n_threads: 64 };

    fn sharded(n_ranks: usize) -> FockAlgorithm {
        FockAlgorithm::Sharded { n_ranks, mode: DdiMode::Mpi3OneSided }
    }

    #[test]
    fn shell_pair_term_is_per_rank_not_per_thread() {
        let pair_bytes = 123_456_789usize;
        let base = MemoryModel { n_basis: 1800, max_shell_width: 6, pair_bytes: 0 };
        let with_pairs = MemoryModel { pair_bytes, ..base };
        // A node of 4 ranks holds 4 copies, independent of the 64 threads.
        let per_node = |m: &MemoryModel, alg: FockAlgorithm| 4.0 * m.per_rank_bytes(alg);
        let delta = per_node(&with_pairs, HYBRID_4X64) - per_node(&base, HYBRID_4X64);
        assert!((delta - 4.0 * pair_bytes as f64).abs() < 1e-6);
        let private = FockAlgorithm::PrivateFock { n_ranks: 4, n_threads: 64 };
        assert!((per_node(&with_pairs, private) - per_node(&base, private) - delta).abs() < 1e-6);
    }

    #[test]
    fn hybrid_thread_count_drives_private_fock_linearly() {
        let m = MemoryModel { n_basis: 1800, max_shell_width: 6, pair_bytes: 0 };
        let private =
            |n_threads| m.per_rank_bytes(FockAlgorithm::PrivateFock { n_ranks: 4, n_threads });
        assert!((private(64) / private(1) - 66.0 / 3.0).abs() < 1e-9);
        // Shared Fock is thread-count independent.
        assert_eq!(
            m.per_rank_bytes(FockAlgorithm::SharedFock { n_ranks: 4, n_threads: 1 }),
            m.per_rank_bytes(HYBRID_4X64)
        );
    }

    #[test]
    fn sharded_model_escapes_the_quadratic_wall() {
        // At paper scale, every replicated algorithm's per-rank footprint
        // grows as N^2; the sharded stripes grow as N^2 only in aggregate
        // across the whole machine, so the per-rank number collapses as
        // ranks are added.
        let n_basis = PaperSystem::Nm20.n_basis_functions();
        let m = MemoryModel { n_basis, max_shell_width: 6, pair_bytes: 0 };
        let shared = m.per_rank_bytes(HYBRID_4X64);
        let sharded_64 = m.per_rank_bytes(sharded(64));
        assert!(sharded_64 < shared / 10.0, "sharded {sharded_64} vs shared Fock {shared}");
        // More world ranks -> thinner stripes, monotonically.
        assert!(m.per_rank_bytes(sharded(256)) < sharded_64);
    }

    #[test]
    fn model_tracks_paper_table2_within_an_order_of_magnitude() {
        // The paper's printed Table 2 does not follow its own eqs. (3a)-(3c)
        // exactly (e.g. its private-Fock column corresponds to ~(2+8) N^2
        // per rank rather than (2+64); see EXPERIMENTS.md). The model must
        // still land within 10x on every entry and preserve the ordering
        // MPI >> private > shared.
        for (sys, &(p_mpi, p_prf, p_shf)) in PaperSystem::ALL.iter().zip(&PAPER_TABLE2_GB) {
            let row = Table2Row::compute(*sys);
            for (model, paper) in
                [(row.gb_mpi, p_mpi), (row.gb_private, p_prf), (row.gb_shared, p_shf)]
            {
                let ratio = model / paper;
                assert!(
                    (0.1..10.0).contains(&ratio),
                    "{}: model {model} GB vs paper {paper} GB",
                    sys.label()
                );
            }
            assert!(row.gb_mpi > row.gb_private && row.gb_private > row.gb_shared);
        }
    }
}
