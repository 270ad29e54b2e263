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

use super::driver::{LeaseLoop, Quartets, SignificantPairs, Step, World};
use super::engine::FockContext;
use super::matrix::{
    drain_strip, gather_tri, replicated_density_bytes, scatter_density, shard_reader_bytes,
    shard_stripe_bytes, shard_writer_bytes, tri_len, RowShardFock, ShardDensity, StripRouter,
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
    let reader_bytes = shard_stripe_bytes(n, world.n_ranks, 1) + shard_reader_bytes(n);
    window_build(ctx, kl, world, reader_bytes, || ShardDensity::new(&d_win, n))
}

/// `Distributed`: the window build over every rank's own replicated
/// density — no density window.
pub(crate) fn build_distributed(
    ctx: &FockContext<'_>,
    kl: &SignificantPairs,
    dens: ReplicatedDensity<'_>,
    world: &World<'_>,
) -> GBuild {
    let reader_bytes = replicated_density_bytes(ctx.basis.n_basis());
    window_build(ctx, kl, world, reader_bytes, || dens)
}

/// The one window-build body: DLB over significant `(i, j)` pairs,
/// density from `reader()`, Fock accumulated into a tri-packed window
/// by one-sided `acc`. `reader_bytes` is what the reader keeps per rank.
fn window_build<D: DensityRead>(
    ctx: &FockContext<'_>,
    kl: &SignificantPairs,
    world: &World<'_>,
    reader_bytes: usize,
    reader: impl Fn() -> D + Sync,
) -> GBuild {
    let basis = ctx.basis;
    let n = basis.n_basis();
    // Created outside the world, so flushed contributions survive rank
    // deaths.
    let f_win = DistributedArray::new(tri_len(n), world.n_ranks);
    // Per-rank resident bytes: the reader, this rank's stripe of the Fock
    // window and the O(N) writer. `MemoryModel::per_rank_bytes` states the
    // same terms.
    let max_width = basis.max_shell_width();
    let resident =
        reader_bytes + shard_stripe_bytes(n, world.n_ranks, 1) + shard_writer_bytes(n, max_width);

    let (_, stats) = world.run(ctx, resident, |rank| {
        let leases = LeaseLoop::new(rank, kl.len(), LeaseMode::Durable);
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
        (None::<()>, stats.pop().expect("a team of one"))
    });
    GBuild { g: gather_tri(&f_win, n), stats }
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
    fn per_rank_memory_is_sharded_not_replicated() {
        // Big enough that the O(N) cache floors (1024 elems / 512 entries)
        // lose to the N x N matrices a replicated rank holds; tiny systems
        // like water invert the comparison because the floors dominate.
        let b = BasisSet::build(&small::h_chain(50, 2.0), BasisName::Sto3g);
        let data = FockData::build(&b);
        let n = b.n_basis();
        let d = density(n);
        let ranks = 4;
        let replicated = FockAlgorithm::MpiOnly { n_ranks: ranks }
            .builder()
            .build(&data.context(&b, 1e-12), &Restricted(&d));
        let sharded = FockAlgorithm::Sharded { n_ranks: ranks, mode: DdiMode::Mpi3OneSided }
            .builder()
            .build(&data.context(&b, 1e-12), &Restricted(&d));
        let rep_peak = replicated.stats.max_rank_peak();
        let sh_peak = sharded.stats.max_rank_peak();
        assert!(sh_peak < rep_peak, "sharded {sh_peak} vs replicated {rep_peak}");
        // The tracked peak (stripes, rank-local state and the shared
        // read-only pair dataset) is exactly the model's sharded row.
        let model = MemoryModel {
            n_basis: n,
            max_shell_width: b.max_shell_width(),
            pair_bytes: data.pairs.bytes(),
        };
        let alg = FockAlgorithm::Sharded { n_ranks: ranks, mode: DdiMode::Mpi3OneSided };
        assert_eq!(sh_peak as f64, model.per_rank_bytes(alg));
    }

    #[test]
    fn fock_memory_is_distributed_not_replicated() {
        // Versus Algorithm 1 at the same rank count, the tracked footprint
        // must be smaller: the Fock matrix is striped, not copied. Past the
        // O(N) writer floors, as in the sharded test above.
        let b = BasisSet::build(&small::h_chain(50, 2.0), BasisName::Sto3g);
        let data = FockData::build(&b);
        let d = density(b.n_basis());
        let ranks = 4;
        let replicated = FockAlgorithm::MpiOnly { n_ranks: ranks }
            .builder()
            .build(&data.context(&b, 1e-12), &Restricted(&d));
        let alg = FockAlgorithm::Distributed { n_ranks: ranks };
        let distributed = alg.builder().build(&data.context(&b, 1e-12), &Restricted(&d));
        assert!(
            distributed.stats.memory_total_peak < replicated.stats.memory_total_peak,
            "distributed {} vs replicated {}",
            distributed.stats.memory_total_peak,
            replicated.stats.memory_total_peak
        );
        // One density copy, the Fock stripe and the writer: exactly the
        // model's distributed row.
        let model = MemoryModel {
            n_basis: b.n_basis(),
            max_shell_width: b.max_shell_width(),
            pair_bytes: data.pairs.bytes(),
        };
        assert_eq!(distributed.stats.max_rank_peak() as f64, model.per_rank_bytes(alg));
    }

    #[test]
    fn shard_budget_never_approaches_a_full_matrix_at_scale() {
        // The O(N) caches have small-system floors; past those, per-rank
        // matrix memory is a vanishing fraction of one N x N matrix (the
        // measured version of this claim runs in benches/memory_wall.rs).
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
