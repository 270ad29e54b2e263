//! Algorithm 3: hybrid MPI/OpenMP, shared density *and* shared Fock.
//!
//! The paper's unique contribution. Per rank, one Fock matrix per spin
//! channel is shared by all threads; the write-dependency problem of
//! eqs. (2a)–(2f) is solved by splitting each quartet's six updates across
//! three destinations (Algorithm 3 lines 25–27):
//!
//! * updates touching shell `i`'s block -> thread-private `FI` buffer,
//! * updates touching shell `j`'s block -> thread-private `FJ` buffer,
//! * the `(k, l)` Coulomb block -> the shared Fock matrix. Threads own
//!   distinct `kl` iterations, so the paper writes it unsynchronized; safe
//!   Rust needs atomic adds, which are only cheap when rare: a quartet's
//!   block (`n_k x n_l`, 36 values for d shells) is summed in a
//!   thread-local scratch and leaves the thread once per quartet.
//!
//! That routing is `matrix::StripRouter`, which the sharded build shares.
//!
//! `FJ` is flushed (padded chunked tree reduction, paper Figure 1) after
//! every `kl` loop; `FI` is flushed lazily, only when the task's `i`
//! changes (lines 15–18 and 33), which removes most of the synchronization
//! the naive scheme would pay.
//!
//! MPI tasks are combined `ij` pair indices pulled from the DLB counter,
//! prescreened at the task level (line 13) by the master inside its claim,
//! so whole iterations of the most costly top loop vanish for sparse
//! systems without the team synchronizing on them.
//!
//! A task that runs costs the team two barriers, three when `i` changes;
//! DESIGN.md §6 lists what each one orders.
//!
//! Policy row: combined `ij` pair tasks with the task prescreen, dynamic
//! team schedule over the task's significant `kl` list positions, shared
//! Fock + FI/FJ column sinks, volatile leases, `gsumf` reduce.

use super::driver::{
    readonly_bytes, surviving, LeaseLoop, Quartets, SignificantPairs, Step, World,
};
use super::engine::FockContext;
use super::matrix::{strip_slot, ReplicatedFock, StripRouter};
use super::{digest, pair_decode, GBuild, ReplicatedDensity};
use crate::stats::FockBuildStats;
use phi_dmpi::LeaseMode;
use phi_integrals::screening::n_pairs;
use phi_omp::{PaddedColumns, Schedule, SharedAccumulator, Team, ThreadCtx};

/// Algorithm 3 over `world.n_ranks` ranks x `n_threads` threads: one
/// shared Fock matrix and one FI/FJ buffer pair per spin channel; every
/// quartet is digested into all channels before the shared `kl` element
/// leaves the thread.
pub(crate) fn build<const NCH: usize>(
    ctx: &FockContext<'_>,
    kl: &SignificantPairs,
    dens: ReplicatedDensity<'_, NCH>,
    world: &World<'_>,
    n_threads: usize,
) -> GBuild {
    let basis = ctx.basis;
    let n = basis.n_basis();
    let n_pair = n_pairs(basis.n_shells());
    let max_width = basis.max_shell_width();
    // Per rank: one shared copy of each density, S/H/C, and the shared
    // Fock matrices (line 4: shared(Fock)).
    let fock_bytes = NCH * n * n * std::mem::size_of::<f64>();
    let resident = fock_bytes + readonly_bytes(n) + fock_bytes;

    let (bufs, stats) = world.run(ctx, resident, &[], |rank| {
        let focks: Vec<SharedAccumulator> =
            (0..NCH).map(|_| SharedAccumulator::new(n * n)).collect();
        // FI / FJ: mxsize x nthreads padded column buffers (lines 1-3),
        // one pair per channel.
        let columns = || -> Vec<PaddedColumns> {
            (0..NCH).map(|_| PaddedColumns::new(n * max_width, n_threads)).collect()
        };
        let (fis, fjs) = (columns(), columns());
        let column_bytes = fis.iter().chain(&fjs).map(|p| p.bytes()).sum();
        rank.charge_bytes(column_bytes);

        // This thread's share of flushing one shell's rows of every
        // channel's column buffers into the shared Fock (padded chunked
        // tree reduction, paper Figure 1). The caller places the barriers.
        let flush =
            |tctx: &ThreadCtx<'_>, name: &'static str, cols: &[PaddedColumns], shell: usize| {
                let _span = phi_trace::span(name);
                let sh = &basis.shells[shell];
                let (lo, width) = (sh.first_bf, sh.n_functions());
                for (col, fock) in cols.iter().zip(&focks) {
                    col.flush_rows_with(tctx, width * n, |at, sum| {
                        let (mu, nu) = strip_slot(lo, n, at);
                        fock.add(mu * n + nu, sum);
                    });
                }
                // Master-counted, so summing the per-thread contributions
                // reconciles with `stats.flushes`.
                if tctx.is_master() {
                    NCH as u64
                } else {
                    0
                }
            };

        let leases = LeaseLoop::new(rank, n_pair, LeaseMode::Volatile);
        let per_thread = Team::new(n_threads).parallel(|tctx| {
            let mut dens = dens;
            let mut quartets = Quartets::new(ctx, kl);
            let mut kl_blocks = vec![0.0; NCH * max_width * max_width];
            let mut flushes = 0u64;
            // The last task's i shell; identical across threads because
            // every thread follows the same task sequence.
            let mut iold: Option<usize> = None;

            // Task-level prescreen (lines 13-14), evaluated by the master
            // inside its claim: whole iterations of the most costly top
            // loop vanish for sparse systems, barriers included.
            let survives = |ij: usize| {
                let (i, j) = pair_decode(ij);
                ctx.task_survives(i, j)
            };
            let tasks = leases.run(tctx, survives, |step| {
                let Step::Task(ij) = step else { return };
                let (i, j) = pair_decode(ij);
                // Flush FI lazily, only when i changes (lines 15-18). The
                // kl loop that wrote it ended at a barrier one task ago;
                // this barrier keeps the next loop off the columns until
                // every thread has emptied its rows.
                if let Some(io) = iold.filter(|&io| io != i) {
                    flushes += flush(tctx, "fock.flush_fi", &fis, io);
                    tctx.barrier();
                }

                let (sh_i, sh_j) = (&basis.shells[i], &basis.shells[j]);
                let mut blocks = kl_blocks.chunks_mut(max_width * max_width);
                let mut sinks: [StripRouter<'_>; NCH] = std::array::from_fn(|ch| {
                    StripRouter::new(
                        fis[ch].col_mut(tctx.thread_num()),
                        fjs[ch].col_mut(tctx.thread_num()),
                        blocks.next().expect("one (k, l) block per channel"),
                        n,
                        sh_i,
                        sh_j,
                    )
                });

                // Workshared kl loop (lines 19-30) over the merged
                // significant kl index; its barrier is the one the FJ
                // flush needs before it reads the columns. A quartet's
                // (k, l) block leaves the thread once, as atomic adds into
                // the shared Fock.
                let kls = kl.ket_space(i, j);
                tctx.for_each_nowait(kls.len(), Schedule::dynamic1(), &mut |p| {
                    let [k, l] = kls[p].map(|s| s as usize);
                    let (sh_k, sh_l) = (&basis.shells[k], &basis.shells[l]);
                    quartets.quartet(i, j, k, l, |eri| {
                        sinks.iter_mut().for_each(|s| s.start_quartet(sh_k, sh_l));
                        digest(basis, i, j, k, l, eri, &mut dens, sinks.as_mut_slice());
                        for (s, fock) in sinks.iter_mut().zip(&focks) {
                            s.drain_kl(sh_k.n_functions(), |mu, nu, v| fock.add(mu * n + nu, v));
                        }
                    });
                });
                tctx.barrier();

                // Flush FJ after every kl loop (lines 31-32). The barrier
                // that ends it is the next lease broadcast's.
                flushes += flush(tctx, "fock.flush_fj", &fjs, j);
                iold = Some(i);
            });

            // Flush the FI remainder (line 36), between the broadcast of
            // the end of the lease stream and the region's join.
            if let Some(io) = iold {
                flushes += flush(tctx, "fock.flush_fi", &fis, io);
            }
            quartets.finish(tasks, flushes)
        });
        rank.release_bytes(column_bytes);

        // 2e-Fock reduction over the surviving MPI ranks (line 38) — one
        // collective covering every spin channel. A killed rank's shared
        // Fock is abandoned here; its leases were reissued to survivors.
        let mut fbuf: Vec<f64> = Vec::with_capacity(NCH * n * n);
        for fock in &focks {
            fbuf.extend(fock.snapshot());
        }
        let dead = !rank.alive() || rank.try_gsumf(&mut fbuf).is_err();
        let stats = per_thread.iter().fold(FockBuildStats::default(), FockBuildStats::merge);
        ((!dead).then_some(fbuf), stats)
    });
    let fock = ReplicatedFock::from_raw(surviving(bufs, &stats), NCH, n);
    GBuild::from_channels(fock.into_mats(), stats)
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
            0.25 + ((i * 17 + j * 7) % 5) as f64 * 0.08 - 0.02 * i as f64 / (n as f64)
        })
    }

    #[test]
    fn matches_serial_across_rank_thread_grids() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let d = density(b.n_basis());
        let want =
            FockAlgorithm::Serial.builder().build(&data.context(&b, 1e-12), &Restricted(&d)).g;
        for (r, t) in [(1, 1), (1, 4), (2, 2), (2, 3)] {
            let got = FockAlgorithm::SharedFock { n_ranks: r, n_threads: t }
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
    fn matches_serial_with_d_functions() {
        let b = BasisSet::build(&small::water(), BasisName::B631gd);
        let data = FockData::build(&b);
        let d = density(b.n_basis());
        let want =
            FockAlgorithm::Serial.builder().build(&data.context(&b, 1e-11), &Restricted(&d)).g;
        let got = FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 }
            .builder()
            .build(&data.context(&b, 1e-11), &Restricted(&d));
        assert!(got.g.max_abs_diff(&want) < 1e-9, "diff {}", got.g.max_abs_diff(&want));
    }

    #[test]
    fn sparse_system_with_prescreened_tasks_is_race_free() {
        // A spread-out H chain prescreens many ij leases, which the master
        // drops inside its claim. The hazard on that path: a thread that
        // has not yet read the broadcast slot when the master overwrites
        // it misses a task, and the team's collective sequences diverge
        // (deadlock) or a surviving task is skipped (wrong Fock matrix).
        // Dense molecules (water etc.) never prescreen, so only sparse
        // systems can expose it.
        let b = BasisSet::build(&small::h_chain(8, 5.0), BasisName::Sto3g);
        let data = FockData::build(&b);
        let d = density(b.n_basis());
        let tau = 1e-10;
        let want = FockAlgorithm::Serial.builder().build(&data.context(&b, tau), &Restricted(&d)).g;
        for (r, t) in [(1, 2), (1, 4), (2, 3)] {
            // Repeat several times: the race was timing-dependent.
            for round in 0..25 {
                let got = FockAlgorithm::SharedFock { n_ranks: r, n_threads: t }
                    .builder()
                    .build(&data.context(&b, tau), &Restricted(&d));
                assert!(
                    got.g.max_abs_diff(&want) < 1e-10,
                    "{r}x{t} round {round}: diff {}",
                    got.g.max_abs_diff(&want)
                );
            }
        }
    }

    #[test]
    fn memory_hierarchy_matches_the_paper() {
        // At equal core counts: MPI-only > private Fock > shared Fock.
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let data = FockData::build(&b);
        let d = density(b.n_basis());
        let cores = 4;
        let mpi = FockAlgorithm::MpiOnly { n_ranks: cores }
            .builder()
            .build(&data.context(&b, 1e-12), &Restricted(&d));
        let prv = FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: cores }
            .builder()
            .build(&data.context(&b, 1e-12), &Restricted(&d));
        let shr = FockAlgorithm::SharedFock { n_ranks: 1, n_threads: cores }
            .builder()
            .build(&data.context(&b, 1e-12), &Restricted(&d));
        assert!(
            mpi.stats.memory_total_peak > prv.stats.memory_total_peak,
            "MPI {} <= private {}",
            mpi.stats.memory_total_peak,
            prv.stats.memory_total_peak
        );
        assert!(
            prv.stats.memory_total_peak > shr.stats.memory_total_peak,
            "private {} <= shared {}",
            prv.stats.memory_total_peak,
            shr.stats.memory_total_peak
        );
    }

    #[test]
    fn task_count_equals_surviving_pairs() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let d = density(b.n_basis());
        let out = FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 }
            .builder()
            .build(&data.context(&b, 1e-14), &Restricted(&d));
        let ns = b.n_shells();
        // Water/STO-3G is compact: no pair is prescreened at 1e-14.
        assert_eq!(out.stats.dlb_tasks, ns * (ns + 1) / 2);
        // Every task pull plus each rank's final out-of-range claim.
        assert_eq!(out.stats.dlb_calls, ns * (ns + 1) / 2 + 2);
    }
}
