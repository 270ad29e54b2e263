//! Distributed-data Fock build: the related-work baseline where the Fock
//! matrix is *distributed* across ranks instead of replicated.
//!
//! The paper's §2 surveys this lineage — Harrison et al.'s node-distributed
//! SCF over globally addressable arrays and the GAMESS "distributed data
//! SCF" of Alexeev et al. over DDI one-sided operations. It trades the
//! replication memory of Algorithm 1 for remote-accumulate traffic: each
//! rank digests its quartets into a local scatter buffer and flushes
//! batches into a [`phi_dmpi::DistributedArray`] with one-sided `acc`
//! operations; no `gsumf` reduction is needed at the end because the array
//! is the single authoritative copy.
//!
//! This is not one of the paper's three benchmarked codes — it is the
//! natural fourth point of the design space (distributed instead of
//! replicated-then-reduced) and lets the memory/traffic trade-off be
//! measured with the same instrumentation.
//!
//! Policy row: `ij` pair tasks, no team, one [`RowBufferFock`] per channel
//! flushed as whole rows into `N x N` windows, durable leases (flushed
//! contributions persist in the windows, so a dead rank's completed tasks
//! are *not* reissued — only the lease it held at death), flush +
//! `ft_barrier`.

use super::driver::{lease_loop, Quartets, Step, World};
use super::engine::FockContext;
use super::matrix::RowBufferFock;
use super::{digest, pair_decode, tri_to_full, GBuild, ReplicatedDensity};
use phi_dmpi::{DdiMode, DistributedArray, LeaseMode};
use phi_integrals::screening::n_pairs;

/// DLB over `(i,j)` pairs with a *distributed* Fock matrix per spin
/// channel: each rank still holds a read-only density copy (as in the
/// hybrid codes) but owns only `N^2 / n_ranks` elements of each Fock
/// matrix; contributions to other ranks' rows travel as `acc` batches.
pub(crate) fn build<const NCH: usize>(
    ctx: &FockContext<'_>,
    dens: ReplicatedDensity<'_, NCH>,
    world: &World<'_>,
) -> GBuild {
    let basis = ctx.basis;
    let n = basis.n_basis();
    let n_pair = n_pairs(basis.n_shells());
    // N x N row-major, striped over ranks, one window per spin channel.
    let focks: Vec<DistributedArray> =
        (0..NCH).map(|_| world.window(n * n, DdiMode::Mpi3OneSided)).collect();
    // Per rank: the density copy, its stripe of the distributed Fock and
    // the full local scatter buffer. Versus Algorithm 1 this drops the
    // replicated read-only matrices and the second full Fock copy
    // (5/2 N^2 -> ~2 N^2 words) — the distributed-data SCF trade.
    let fock_bytes = NCH * n * n * std::mem::size_of::<f64>();
    let resident = fock_bytes + fock_bytes / world.n_ranks + fock_bytes;

    let (_, stats) = world.run(ctx, resident, &[&focks], |rank| {
        let mut dens = dens;
        let mut sinks: Vec<RowBufferFock> = (0..NCH).map(|_| RowBufferFock::new(n)).collect();
        let mut quartets = Quartets::new(ctx);
        let mut flushes = 0u64;
        let (tasks, dead) = lease_loop(rank, n_pair, LeaseMode::Durable, |step| match step {
            Step::Task(t) => {
                let (i, j) = pair_decode(t);
                quartets.pair_task(i, j, |k, l, eri| {
                    digest(basis, i, j, k, l, eri, &mut dens, sinks.as_mut_slice())
                });
            }
            Step::Flush => {
                let _span = phi_trace::span("fock.flush_scatter");
                for (fock, sink) in focks.iter().zip(&mut sinks) {
                    flushes += sink.flush_rows(fock, rank.rank());
                }
            }
        });
        if !dead {
            // Everyone alive must finish accumulating before anyone reads;
            // dead ranks have deregistered (their unflushed work was
            // recomputed by survivors) and must stay out.
            let _ = rank.ft_barrier();
        }
        (None::<()>, quartets.finish(tasks, flushes))
    });

    // Read the assembled lower triangles back out.
    let mats = focks
        .iter()
        .map(|fock| {
            let mut buf = vec![0.0; n * n];
            fock.get(0, 0, &mut buf);
            tri_to_full(&buf, n)
        })
        .collect();
    GBuild::from_channels(mats, stats)
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
            0.3 + ((i * 11 + j * 3) % 6) as f64 * 0.09
        })
    }

    #[test]
    fn matches_serial_for_various_rank_counts() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let d = density(b.n_basis());
        let want =
            FockAlgorithm::Serial.builder().build(&data.context(&b, 1e-12), &Restricted(&d)).g;
        for n_ranks in [1, 2, 4] {
            let got = FockAlgorithm::Distributed { n_ranks }
                .builder()
                .build(&data.context(&b, 1e-12), &Restricted(&d));
            assert!(
                got.g.max_abs_diff(&want) < 1e-10,
                "{n_ranks} ranks: diff {}",
                got.g.max_abs_diff(&want)
            );
            // Every rank flushes its scatter rows at least once.
            assert!(got.stats.flushes > 0);
        }
    }

    #[test]
    fn matches_serial_on_sparse_systems() {
        let b = BasisSet::build(&small::h_chain(8, 5.0), BasisName::Sto3g);
        let data = FockData::build(&b);
        let d = density(b.n_basis());
        let want =
            FockAlgorithm::Serial.builder().build(&data.context(&b, 1e-10), &Restricted(&d)).g;
        let got = FockAlgorithm::Distributed { n_ranks: 3 }
            .builder()
            .build(&data.context(&b, 1e-10), &Restricted(&d));
        assert!(got.g.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn fock_memory_is_distributed_not_replicated() {
        // Versus Algorithm 1 at the same rank count, the tracked footprint
        // must be smaller: the Fock matrix is striped, not copied.
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let data = FockData::build(&b);
        let d = density(b.n_basis());
        let ranks = 4;
        let replicated = FockAlgorithm::MpiOnly { n_ranks: ranks }
            .builder()
            .build(&data.context(&b, 1e-12), &Restricted(&d));
        let distributed = FockAlgorithm::Distributed { n_ranks: ranks }
            .builder()
            .build(&data.context(&b, 1e-12), &Restricted(&d));
        assert!(
            distributed.stats.memory_total_peak < replicated.stats.memory_total_peak,
            "distributed {} vs replicated {}",
            distributed.stats.memory_total_peak,
            replicated.stats.memory_total_peak
        );
    }
}
