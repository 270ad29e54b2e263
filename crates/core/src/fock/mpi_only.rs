//! Algorithm 1: the stock GAMESS MPI-only Fock build.
//!
//! Every rank replicates the density matrix, overlap matrix, MO
//! coefficients and its own Fock accumulation buffer. Work is distributed
//! by the global DLB counter over the significant-pair list's positions,
//! one `(i, j)` shell-pair task each; each task runs its canonical
//! `(k, l)` loops over the list prefix up to its own pair. The final Fock
//! matrix is summed over ranks with `gsumf`.
//!
//! The memory pathology the paper attacks is eq. (3a): a real MPI rank
//! holds all of these matrices, so a node's footprint grows linearly with
//! its rank count. In-process the density is one shared copy; the bytes a
//! build reports are `MemoryModel`'s MPI-only row, not a count.
//!
//! Policy row: significant `ij` pair tasks, a team of one, one
//! lower-triangle buffer digested through [`TriSink`] per rank, volatile
//! leases (a dead rank's partial sums never reach the reduction, so
//! everything it ever computed is reissued), `gsumf` reduce.

use super::driver::{g_or_nan, Quartets, SignificantPairs, Step, World};
use super::engine::FockContext;
use super::{digest, tri_to_full, GBuild, ReplicatedDensity, TriSink};
use phi_dmpi::LeaseMode;
use phi_omp::Team;

/// Algorithm 1 over `world.n_ranks` ranks. Tasks leased to a rank that
/// dies mid-build are reclaimed and recomputed by survivors, so the result
/// matches serial regardless of how many (< all) ranks fail.
pub(crate) fn build(
    ctx: &FockContext<'_>,
    kl: &SignificantPairs,
    dens: ReplicatedDensity<'_>,
    world: &World<'_>,
) -> GBuild {
    let basis = ctx.basis;
    let n = basis.n_basis();

    let (fock, stats) = world.run(kl.len(), LeaseMode::Volatile, |rank, leases| {
        let (mut fock, stats) = Team::new(1)
            .parallel(|tctx| {
                let mut dens = dens;
                let mut fock = vec![0.0; n * n];
                let mut sink = TriSink { buf: &mut fock, n };
                let mut quartets = Quartets::new(ctx, kl);
                let tasks = leases.run(tctx, |step| {
                    let Step::Task(p) = step else { return };
                    let (i, j) = kl.pair(p);
                    quartets.pair_task(p, |k, l, eri| {
                        digest(basis, i, j, k, l, eri, &mut dens, &mut sink)
                    });
                });
                (fock, quartets.finish(tasks, 0))
            })
            .pop()
            .expect("a team of one");
        // 2e-Fock matrix reduction over the surviving MPI ranks
        // (Algorithm 1 line 16). Dead ranks have deregistered and must
        // stay out.
        let dead = !rank.alive() || rank.try_gsumf(&mut fock).is_err();
        ((!dead).then_some(fock), stats)
    });
    GBuild { g: g_or_nan(fock.map(|f| tri_to_full(&f, n)), n), stats }
}

#[cfg(test)]
mod tests {
    use crate::fock::engine::FockData;
    use crate::fock::DensitySet::Restricted;
    use crate::fock::FockAlgorithm;
    use crate::fock::SignificantPairs;
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
        let p = SignificantPairs::new(&data.screening, 1e-12).len();
        assert_eq!(out.stats.dlb_tasks, p, "every significant ij pair is one task");
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
}
