//! The window builds: Fock lives in tri-packed DDI windows striped over
//! ranks and is never replicated or reduced. Two rows run one body and
//! differ in exactly one thing, where density is read from:
//!
//! * `Sharded` — density lives in tri-packed windows too, read through
//!   [`ShardDensity`]: on-demand row `get`s with a bounded FIFO row cache
//!   behind a direct slot index. No rank ever holds a full `N x N`
//!   matrix. This is the step past the paper's ~200x memory headline:
//!   Algorithm 3 stopped replicating Fock per *thread*; the HONPAS-lineage
//!   distributed codes stop replicating density and Fock per *rank*.
//! * `Distributed` — the paper's §2 related-work design point (Harrison et
//!   al.'s node-distributed SCF, the GAMESS distributed-data SCF of Alexeev
//!   et al.): each rank reads its own replicated density
//!   ([`ReplicatedDensity`]) and only Fock is distributed.
//!
//! Each rank owns a `~N(N+1)/2 / R` stripe of every window plus its
//! reader and O(N) writer state. Writes go through Algorithm 3's
//! accumulator (`StripRouter`): per task, a significant pair `(i, j)`
//! leased by its list position, result blocks touching shell `i` or `j`
//! sum into dense FI/FJ strips, and each quartet's `(k, l)` block, summed
//! over the quartet by the digester, is pushed once per quartet; the
//! strips drain at task end.
//! Everything lands in [`RowShardFock`], whose sparse entries leave as
//! coalesced one-sided `acc` runs whenever its buffer fills and at the
//! driver lease loop's `Step::Flush`es.
//!
//! Policy row: significant `ij` pair tasks, the lease loop as a team of
//! one, the row's density reader, one strip accumulator and one
//! [`RowShardFock`] per rank into tri-packed Fock windows, durable leases
//! (windows outlive rank deaths, and under fault injection every task is
//! flushed before the master completes it at its next claim — the strips
//! are already empty then), flush + `ft_barrier`.

use super::driver::{g_or_nan, Quartets, SignificantPairs, Step, World};
use super::engine::FockContext;
use super::matrix::{
    drain_strip, gather_tri, scatter_density, tri_len, RowShardFock, ShardDensity, StripRouter,
};
use super::{digest, DensityRead, GBuild, ReplicatedDensity, Span};
use phi_dmpi::{DistributedArray, LeaseMode};
use phi_omp::Team;

/// `Sharded`: the window build over density scattered into a tri-packed
/// window and read through [`ShardDensity`].
pub(crate) fn build(
    ctx: &FockContext<'_>,
    kl: &SignificantPairs,
    dens: ReplicatedDensity<'_>,
    world: &World<'_>,
) -> GBuild {
    let n = ctx.basis.n_basis();
    // The density scatter is the driver's job: it already owns the full
    // matrix.
    let d_win = scatter_density(dens.0, n, world.n_ranks);
    window_build(ctx, kl, world, || ShardDensity::new(&d_win, n))
}

/// `Distributed`: the window build over every rank's own replicated
/// density — no density window.
pub(crate) fn build_distributed(
    ctx: &FockContext<'_>,
    kl: &SignificantPairs,
    dens: ReplicatedDensity<'_>,
    world: &World<'_>,
) -> GBuild {
    window_build(ctx, kl, world, || dens)
}

/// The one window-build body: DLB over significant `(i, j)` pairs,
/// density from `reader()`, Fock accumulated into a tri-packed window
/// by one-sided `acc`.
fn window_build<D: DensityRead>(
    ctx: &FockContext<'_>,
    kl: &SignificantPairs,
    world: &World<'_>,
    reader: impl Fn() -> D + Sync,
) -> GBuild {
    let basis = ctx.basis;
    let n = basis.n_basis();
    // Created outside the world, so flushed contributions survive rank
    // deaths.
    let f_win = DistributedArray::new(tri_len(n), world.n_ranks);
    let max_width = basis.max_shell_width();

    let (done, stats) = world.run(kl.len(), LeaseMode::Durable, |rank, leases| {
        let mut stats = Team::new(1).parallel(|tctx| {
            let mut dens = reader();
            let mut fock = RowShardFock::new(&f_win, n);
            let mut quartets = Quartets::new(ctx, kl);
            let (mut fi, mut fj) = (vec![0.0; max_width * n], vec![0.0; max_width * n]);
            let tasks = leases.run(tctx, |step| {
                let Step::Task(p) = step else { return fock.flush() };
                let (i, j) = kl.pair(p);
                let (sh_i, sh_j) = (&basis.shells[i], &basis.shells[j]);
                let mut router = StripRouter {
                    fi: &mut fi,
                    fj: &mut fj,
                    kl: &mut fock,
                    n,
                    i: Span::of(sh_i),
                    j: Span::of(sh_j),
                };
                // Each quartet's (k, l) block goes straight to the fock
                // buffer, which flushes itself when full: safe mid-task
                // because kills only fire at lease claims, between tasks.
                quartets.pair_task(p, |k, l, eri| {
                    digest(basis, i, j, k, l, eri, &mut dens, &mut router)
                });
                // Drain the strips now, so they are empty before the lease
                // loop's flush and at every lease completion.
                for (buf, sh) in [(&mut fi, sh_i), (&mut fj, sh_j)] {
                    let rows = &mut buf[..sh.n_functions() * n];
                    drain_strip(rows, sh.first_bf, n, |mu, nu, v| fock.add(mu, nu, v));
                }
            });
            let mut stats = quartets.finish(tasks, fock.flushes);
            stats.acc_entries = fock.entries;
            stats
        });
        // Every live rank's accumulates must land before anyone reads;
        // a dead rank has deregistered, and its barrier returns at once.
        let _ = rank.ft_barrier();
        (Some(()), stats.pop().expect("a team of one"))
    });
    GBuild { g: g_or_nan(done.map(|()| gather_tri(&f_win, n)), n), stats }
}

#[cfg(test)]
mod tests {
    use crate::fock::engine::FockData;
    use crate::fock::DensitySet::Restricted;
    use crate::fock::FockAlgorithm;
    use crate::MemoryModel;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_chem::BasisSet;
    use phi_dmpi::DdiMode;
    use phi_linalg::Mat;

    fn density(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.25 + ((i * 7 + j * 5) % 6) as f64 * 0.08
        })
    }

    #[test]
    fn sharded_matches_serial_for_various_rank_counts() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let d = density(b.n_basis());
        let want =
            FockAlgorithm::Serial.builder().build(&data.context(&b, 1e-12), &Restricted(&d)).g;
        for n_ranks in [1, 2, 4] {
            let got = FockAlgorithm::Sharded { n_ranks, mode: DdiMode::Mpi3OneSided }
                .builder()
                .build(&data.context(&b, 1e-12), &Restricted(&d));
            assert!(
                got.g.max_abs_diff(&want) < 1e-12,
                "{n_ranks} ranks: diff {}",
                got.g.max_abs_diff(&want)
            );
            assert!(got.stats.flushes > 0);
        }
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
                got.g.max_abs_diff(&want) < 1e-12,
                "{n_ranks} ranks: diff {}",
                got.g.max_abs_diff(&want)
            );
            // The Fock contributions left through `acc` runs.
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
        assert!(got.g.max_abs_diff(&want) < 1e-12, "diff {}", got.g.max_abs_diff(&want));
    }

    #[test]
    fn shard_budget_never_approaches_a_full_matrix_at_scale() {
        // The O(N) caches have small-system floors; past those, per-rank
        // matrix memory is a vanishing fraction of one N x N matrix.
        for (n, ranks) in [(500, 4), (2000, 8), (10000, 16)] {
            let model = MemoryModel { n_basis: n, max_shell_width: 6, pair_bytes: 0 };
            let alg = FockAlgorithm::Sharded { n_ranks: ranks, mode: DdiMode::Mpi3OneSided };
            let budget = model.per_rank_bytes(alg) as usize;
            assert!(
                budget < n * n * 8 / (ranks / 2),
                "n={n} ranks={ranks}: budget {budget} vs full matrix {}",
                n * n * 8
            );
        }
    }
}
