//! Algorithm 3: hybrid MPI/OpenMP, shared density *and* shared Fock.
//!
//! The paper's unique contribution. Per rank, one Fock matrix is shared
//! by all threads; the write-dependency problem of
//! eqs. (2a)–(2f) is solved by splitting each quartet's six updates across
//! three destinations (Algorithm 3 lines 25–27):
//!
//! * updates touching shell `i`'s block -> thread-private `FI` buffer,
//! * updates touching shell `j`'s block -> thread-private `FJ` buffer,
//! * the `(k, l)` Coulomb block -> the shared Fock matrix. Threads own
//!   distinct `kl` iterations, so the paper writes it unsynchronized; safe
//!   Rust needs atomic adds, which are only cheap when rare: the digester
//!   sums a quartet's block (`n_k x n_l`, 36 values for d shells) in its
//!   own scratch, so it leaves the thread once per quartet.
//!
//! That routing is `matrix::StripRouter`, which the sharded build shares.
//!
//! `FJ` is flushed (padded chunked tree reduction, paper Figure 1) after
//! every `kl` loop; `FI` is flushed lazily, only when the task's `i`
//! changes (lines 15–18 and 33), which removes most of the synchronization
//! the naive scheme would pay.
//!
//! MPI tasks are the significant-pair list's positions pulled from the DLB
//! counter, one combined `ij` pair each. The list holds exactly the pairs
//! the task-level prescreen (line 13) keeps, so that prescreen is the
//! task space itself: whole iterations of the most costly top loop vanish
//! for sparse systems before any lease is handed out.
//!
//! A task costs the team two barriers, three when `i` changes;
//! DESIGN.md §6 lists what each one orders.
//!
//! Policy row: significant combined `ij` pair tasks, dynamic team schedule
//! over the task's significant `kl` list positions, shared Fock + FI/FJ
//! column sinks, volatile leases, `gsumf` reduce.

use super::driver::{g_or_nan, Quartets, SignificantPairs, Step, World};
use super::engine::FockContext;
use super::matrix::{strip_slot, StripRouter};
use super::{digest, tri_to_full, Block, FockSink, GBuild, ReplicatedDensity, Span};
use crate::stats::FockBuildStats;
use phi_dmpi::LeaseMode;
use phi_omp::{PaddedColumns, Schedule, SharedAccumulator, Team, ThreadCtx};

/// Algorithm 3 over `world.n_ranks` ranks x `n_threads` threads: one
/// shared Fock matrix and one FI/FJ buffer pair per rank.
pub(crate) fn build(
    ctx: &FockContext<'_>,
    kl: &SignificantPairs,
    dens: ReplicatedDensity<'_>,
    world: &World<'_>,
    n_threads: usize,
) -> GBuild {
    let basis = ctx.basis;
    let n = basis.n_basis();
    let max_width = basis.max_shell_width();

    let (buf, stats) = world.run(kl.len(), LeaseMode::Volatile, |rank, leases| {
        // One shared Fock matrix per rank (line 4: shared(Fock)).
        let fock = SharedAccumulator::new(n * n);
        // FI / FJ: mxsize x nthreads padded column buffers (lines 1-3).
        let fi = PaddedColumns::new(n * max_width, n_threads);
        let fj = PaddedColumns::new(n * max_width, n_threads);

        // This thread's share of flushing one shell's rows of a column
        // buffer into the shared Fock (padded chunked tree reduction, paper
        // Figure 1). The caller places the barriers.
        let flush =
            |tctx: &ThreadCtx<'_>, name: &'static str, col: &PaddedColumns, shell: usize| {
                let _span = phi_trace::span(name);
                let sh = &basis.shells[shell];
                let (lo, width) = (sh.first_bf, sh.n_functions());
                col.flush_rows_with(tctx, width * n, |at, sum| {
                    let (mu, nu) = strip_slot(lo, n, at);
                    fock.add(mu * n + nu, sum);
                });
                // Master-counted, so summing the per-thread contributions
                // reconciles with `stats.flushes`.
                u64::from(tctx.is_master())
            };

        let per_thread = Team::new(n_threads).parallel(|tctx| {
            let mut dens = dens;
            let mut quartets = Quartets::new(ctx, kl);
            let mut shared = SharedFock { fock: &fock, n };
            let mut flushes = 0u64;
            // The last task's i shell; identical across threads because
            // every thread follows the same task sequence.
            let mut iold: Option<usize> = None;

            let tasks = leases.run(tctx, |step| {
                let Step::Task(p) = step else { return };
                let (i, j) = kl.pair(p);
                // Flush FI lazily, only when i changes (lines 15-18). The
                // kl loop that wrote it ended at a barrier one task ago;
                // this barrier keeps the next loop off the columns until
                // every thread has emptied its rows.
                if let Some(io) = iold.filter(|&io| io != i) {
                    flushes += flush(tctx, "fock.flush_fi", &fi, io);
                    tctx.barrier();
                }

                let t = tctx.thread_num();
                let mut router = StripRouter {
                    fi: fi.col_mut(t),
                    fj: fj.col_mut(t),
                    kl: &mut shared,
                    n,
                    i: Span::of(&basis.shells[i]),
                    j: Span::of(&basis.shells[j]),
                };

                // Workshared kl loop (lines 19-30) over the merged
                // significant kl index; its barrier is the one the FJ
                // flush needs before it reads the columns. A quartet's
                // (k, l) block leaves the thread once, as atomic adds into
                // the shared Fock.
                let kls = kl.ket_space(p);
                tctx.for_each_nowait(kls.len(), Schedule::dynamic1(), &mut |p| {
                    let [k, l] = kls[p].map(|s| s as usize);
                    quartets.quartet(i, j, k, l, |eri| {
                        digest(basis, i, j, k, l, eri, &mut dens, &mut router)
                    });
                });
                tctx.barrier();

                // Flush FJ after every kl loop (lines 31-32). The barrier
                // that ends it is the next lease broadcast's.
                flushes += flush(tctx, "fock.flush_fj", &fj, j);
                iold = Some(i);
            });

            // Flush the FI remainder (line 36), between the broadcast of
            // the end of the lease stream and the region's join.
            if let Some(io) = iold {
                flushes += flush(tctx, "fock.flush_fi", &fi, io);
            }
            quartets.finish(tasks, flushes)
        });

        // 2e-Fock reduction over the surviving MPI ranks (line 38). A
        // killed rank's shared Fock is abandoned here; its leases were
        // reissued to survivors.
        let mut fbuf = fock.snapshot();
        let dead = !rank.alive() || rank.try_gsumf(&mut fbuf).is_err();
        let stats = per_thread.iter().fold(FockBuildStats::default(), FockBuildStats::merge);
        ((!dead).then_some(fbuf), stats)
    });
    GBuild { g: g_or_nan(buf.map(|f| tri_to_full(&f, n)), n), stats }
}

/// The rank's shared Fock matrix as the `(k, l)` block's destination: one
/// atomic add per nonzero element.
struct SharedFock<'a> {
    fock: &'a SharedAccumulator,
    n: usize,
}

impl FockSink for SharedFock<'_> {
    #[inline(always)]
    fn add_block(&mut self, blk: &Block<'_>) {
        blk.for_each(|mu, nu, v| self.fock.add(mu * self.n + nu, v));
    }
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
        // A spread-out H chain prescreens 10 of its 36 ij pairs, so its
        // lease stream is the 26 significant ones: consecutive leases jump
        // over the dropped pairs and change i often. Paper Algorithm 3
        // rejected such pairs after the lease broadcast, where a thread
        // that had not yet read the slot when the master overwrote it
        // missed a task: the team's collective sequences diverged
        // (deadlock) or a surviving task was skipped (wrong Fock matrix).
        // No lease is ever rejected, so every broadcast is followed by a
        // worked task and its barrier; this keeps that shape under load.
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
