//! Algorithm 2: hybrid MPI/OpenMP, shared density, thread-private Fock.
//!
//! Per rank, all read-only matrices (density, overlap, core Hamiltonian)
//! exist once and are shared by the team's threads; only the Fock
//! accumulation buffers are replicated per thread (the OpenMP
//! `reduction(+ : Fock)` clause of the paper's listing). The MPI DLB runs
//! over the `i` shell index; within a task the merged `(j, k)` loops are
//! workshared with `collapse(2) schedule(dynamic,1)`, which enlarges the
//! task pool from `i` iterations to `(i+1)^2` and fixes the load imbalance
//! the paper attributes to two-index MPI parallelization.
//!
//! Policy row: `i` shell tasks, `collapse(2)` dynamic `(j, k)` team
//! schedule, one lower-triangle buffer digested through [`TriSink`] per
//! thread, volatile leases, thread reduction then `gsumf`.

use super::driver::{g_or_nan, Quartets, SignificantPairs, Step, World};
use super::engine::FockContext;
use super::{digest, kl_bounds, tri_to_full, GBuild, ReplicatedDensity, TriSink};
use crate::stats::FockBuildStats;
use phi_dmpi::LeaseMode;
use phi_omp::{Schedule, Team};

/// Algorithm 2 over `world.n_ranks` ranks x `n_threads` threads.
pub(crate) fn build(
    ctx: &FockContext<'_>,
    kl: &SignificantPairs,
    dens: ReplicatedDensity<'_>,
    world: &World<'_>,
    n_threads: usize,
) -> GBuild {
    let basis = ctx.basis;
    let n = basis.n_basis();

    let (fock, stats) = world.run(basis.n_shells(), LeaseMode::Volatile, |rank, leases| {
        let per_thread = Team::new(n_threads).parallel(|tctx| {
            let mut dens = dens;
            let mut fock = vec![0.0; n * n];
            let mut sink = TriSink { buf: &mut fock, n };
            let mut quartets = Quartets::new(ctx, kl);
            // Algorithm 2 has no task-level prescreen: an insignificant
            // (i, j) is skipped inside the task.
            let tasks = leases.run(tctx, |step| {
                let Step::Task(i) = step else { return };
                // Merged (j, k) loops under a dynamic schedule (lines 7-20);
                // l runs over row k of the significant-pair list.
                tctx.collapse2(i + 1, i + 1, Schedule::dynamic1(), |j, k| {
                    if !kl.contains(i, j) {
                        return;
                    }
                    for &[_, l] in kl.row(k, kl_bounds(i, j, k)) {
                        let l = l as usize;
                        quartets.quartet(i, j, k, l, |eri| {
                            digest(basis, i, j, k, l, eri, &mut dens, &mut sink)
                        });
                    }
                });
            });
            (fock, quartets.finish(tasks, 0))
        });

        // OpenMP reduction(+ : Fock): sum the thread-private copies.
        let mut fock = vec![0.0; n * n];
        let mut stats = FockBuildStats::default();
        for (tf, ts) in &per_thread {
            for (dst, src) in fock.iter_mut().zip(tf) {
                *dst += src;
            }
            stats = FockBuildStats::merge(stats, ts);
        }
        // 2e-Fock matrix reduction over the surviving MPI ranks (line
        // 23). A killed rank's team unwound via the DEAD sentinel; its
        // partial sums die here with it and its leases were reissued.
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
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_chem::BasisSet;
    use phi_linalg::Mat;

    fn density(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.15 + ((i * 3 + j * 13) % 9) as f64 * 0.07
        })
    }

    #[test]
    fn matches_serial_across_rank_thread_grids() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let d = density(b.n_basis());
        let want =
            FockAlgorithm::Serial.builder().build(&data.context(&b, 1e-12), &Restricted(&d)).g;
        for (r, t) in [(1, 1), (1, 4), (2, 2), (3, 2)] {
            let got = FockAlgorithm::PrivateFock { n_ranks: r, n_threads: t }
                .builder()
                .build(&data.context(&b, 1e-12), &Restricted(&d));
            assert!(
                got.g.max_abs_diff(&want) < 1e-10,
                "{r} ranks x {t} threads: diff {}",
                got.g.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn covers_every_quartet_exactly_once() {
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let data = FockData::build(&b);
        let d = density(b.n_basis());
        let serial = FockAlgorithm::Serial.builder().build(&data.context(&b, 0.0), &Restricted(&d));
        let hybrid = FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 3 }
            .builder()
            .build(&data.context(&b, 0.0), &Restricted(&d));
        assert_eq!(hybrid.stats.quartets_computed, serial.stats.quartets_computed);
    }
}
