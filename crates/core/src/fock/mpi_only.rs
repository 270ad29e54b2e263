//! Algorithm 1: the stock GAMESS MPI-only Fock build.
//!
//! Every rank replicates the density matrices, overlap matrix, MO
//! coefficients and its own Fock accumulation buffers. Work is distributed
//! by the global DLB counter over `(i, j)` shell-pair tasks; each task runs
//! its canonical `(k, l)` loops over the significant-pair list. The final
//! Fock matrices are summed over ranks with `gsumf`.
//!
//! The memory pathology the paper attacks is visible here by construction:
//! the replicated matrices are *really allocated* per rank through the
//! tracker, so the returned report scales linearly with the rank count.
//!
//! Policy row: `ij` pair tasks, a team of one, one [`ReplicatedFock`] per rank,
//! volatile leases (a dead rank's partial sums never reach the reduction,
//! so everything it ever computed is reissued), `gsumf` reduce.

use super::driver::{
    every_task, readonly_bytes, surviving, LeaseLoop, Quartets, SignificantPairs, Step, World,
};
use super::engine::FockContext;
use super::matrix::ReplicatedFock;
use super::{digest, pair_decode, GBuild, ReplicatedDensity};
use phi_dmpi::LeaseMode;
use phi_integrals::screening::n_pairs;
use phi_omp::Team;

/// Algorithm 1 over `world.n_ranks` ranks. Tasks leased to a rank that
/// dies mid-build are reclaimed and recomputed by survivors, so the result
/// matches serial regardless of how many (< all) ranks fail.
pub(crate) fn build<const NCH: usize>(
    ctx: &FockContext<'_>,
    kl: &SignificantPairs,
    dens: ReplicatedDensity<'_, NCH>,
    world: &World<'_>,
) -> GBuild {
    let basis = ctx.basis;
    let n = basis.n_basis();
    let n_pair = n_pairs(basis.n_shells());
    // Everything replicated per rank (the paper's memory bottleneck):
    // every spin-channel density, S/H/C, and the Fock accumulators.
    let fock_bytes = NCH * n * n * std::mem::size_of::<f64>();
    let resident = fock_bytes + readonly_bytes(n) + fock_bytes;

    let (fock, stats) = world.run(ctx, resident, &[], |rank| {
        let leases = LeaseLoop::new(rank, n_pair, LeaseMode::Volatile);
        let (mut fock, stats) = Team::new(1)
            .parallel(|tctx| {
                let mut dens = dens;
                let mut fock = ReplicatedFock::new(NCH, n);
                let mut quartets = Quartets::new(ctx, kl);
                let tasks = leases.run(tctx, every_task, |step| {
                    let Step::Task(t) = step else { return };
                    let (i, j) = pair_decode(t);
                    quartets.pair_task(i, j, |k, l, eri| {
                        digest(basis, i, j, k, l, eri, &mut dens, &mut fock)
                    });
                });
                (fock, quartets.finish(tasks, 0))
            })
            .pop()
            .expect("a team of one");
        // 2e-Fock matrix reduction over the surviving MPI ranks
        // (Algorithm 1 line 16) — one collective covering every spin
        // channel. Dead ranks have deregistered and must stay out.
        let dead = !rank.alive() || rank.try_gsumf(fock.as_mut_slice()).is_err();
        ((!dead).then_some(fock), stats)
    });
    GBuild::from_channels(surviving(fock, &stats).into_mats(), stats)
}

#[cfg(test)]
mod tests {
    use crate::fock::engine::FockData;
    use crate::fock::DensitySet::Restricted;
    use crate::fock::FockAlgorithm;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_chem::BasisSet;
    use phi_linalg::Mat;

    fn density(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.2 + ((i * 5 + j * 11) % 7) as f64 * 0.1
        })
    }

    #[test]
    fn matches_serial_for_various_rank_counts() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d = density(b.n_basis());
        let want = FockAlgorithm::Serial.builder().build(&ctx, &Restricted(&d)).g;
        for n_ranks in [1, 2, 3, 5] {
            let got = FockAlgorithm::MpiOnly { n_ranks }.builder().build(&ctx, &Restricted(&d));
            assert!(
                got.g.max_abs_diff(&want) < 1e-10,
                "{n_ranks} ranks: diff {}",
                got.g.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn all_tasks_distributed_exactly_once() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d = density(b.n_basis());
        let out = FockAlgorithm::MpiOnly { n_ranks: 3 }.builder().build(&ctx, &Restricted(&d));
        let ns = b.n_shells();
        let p = ns * (ns + 1) / 2;
        assert_eq!(out.stats.dlb_tasks, p, "every ij pair is one task");
        // Each counter call hands out one task; every rank also makes one
        // final out-of-range call before leaving the loop.
        assert_eq!(out.stats.dlb_calls, p + 3);
        // Quartet totals match the serial enumeration.
        let serial = FockAlgorithm::Serial.builder().build(&ctx, &Restricted(&d));
        assert_eq!(
            out.stats.quartets_computed + out.stats.quartets_screened,
            serial.stats.quartets_computed + serial.stats.quartets_screened
        );
    }

    #[test]
    fn memory_replication_scales_with_ranks() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-12);
        let d = density(b.n_basis());
        let one = FockAlgorithm::MpiOnly { n_ranks: 1 }.builder().build(&ctx, &Restricted(&d));
        let four = FockAlgorithm::MpiOnly { n_ranks: 4 }.builder().build(&ctx, &Restricted(&d));
        // Four ranks replicate everything: total peak ~4x one rank's.
        let ratio = four.stats.memory_total_peak as f64 / one.stats.memory_total_peak as f64;
        assert!((ratio - 4.0).abs() < 0.2, "replication ratio {ratio}");
        assert_eq!(four.stats.per_rank_peak.len(), 4);
    }
}
