//! The one Fock task-loop driver.
//!
//! The paper's Algorithms 1–3 (and the distributed and sharded builds
//! next to them) are one loop nest with three substitutions: the task
//! index space, the thread-level schedule and the Fock accumulator. This
//! module owns everything that does *not* differ, exactly once:
//!
//! * [`SignificantPairs`] — the `kl` index space of every row and the
//!   task space of every pair-task row: the shell pairs some quartet can
//!   survive on, built once per build and borrowed by every rank and
//!   thread;
//! * [`Quartets`] — the per-thread quartet evaluator (screen, evaluate,
//!   hand the ERI buffer to the policy's digest closure, count) and the
//!   single point where a worker's trace counters and
//!   [`FockBuildStats`] are emitted;
//! * [`LeaseLoop`] — the one lease loop: a rank's master thread claims
//!   and completes leases, its team follows, and the loop owns the
//!   flush-before-complete contract. The MPI-only, distributed and
//!   sharded builds run it as a team of one;
//! * [`World`] — the dmpi world wrapper: spawn, the lease loop, per-rank
//!   stat merge, the world-global counters, "lowest live rank returns the
//!   result, if the lease range completed".
//!
//! Each algorithm module supplies only its policy row (DESIGN.md §3.1).

use super::engine::FockContext;
use crate::stats::FockBuildStats;
use phi_dmpi::{FaultPlan, LeaseMode, Rank, RetryPolicy, WorldConfig};
use phi_integrals::{EriEngine, Screening};
use phi_linalg::Mat;
use phi_omp::ThreadCtx;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The significant-pair list: every shell pair `(k, l)`, `k >= l`, with
/// `Q_kl * Q_max >= tau`, ascending by `pair_index(k, l)` and indexed by
/// row `k`. No quartet outside it can survive, since
/// `Q_ij * Q_kl <= Q_max * Q_kl` (DESIGN.md §3.1), so it is the `kl`
/// index space of every row, and its positions are the task space of
/// every pair-task row; each visited quartet is still tested.
///
/// Built per build from the `Q` table, not stored in [`FockData`]: the
/// frozen benchmark constructs that struct field by field. Like the table
/// it comes from, it is read-only and shared, and the memory model does
/// not price it per rank.
///
/// [`FockData`]: super::engine::FockData
pub struct SignificantPairs {
    /// Row `k` is `kl[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    kl: Vec<[u32; 2]>,
}

impl SignificantPairs {
    /// One scan of the `Q` table under the task prescreen's test.
    pub fn new(screening: &Screening, tau: f64) -> SignificantPairs {
        let n_shells = screening.n_shells();
        let mut starts = Vec::with_capacity(n_shells + 1);
        let mut kl = Vec::new();
        starts.push(0);
        for k in 0..n_shells {
            let significant = (0..=k).filter(|&l| screening.task_survives(k, l, tau));
            kl.extend(significant.map(|l| [k as u32, l as u32]));
            starts.push(kl.len());
        }
        SignificantPairs { starts, kl }
    }

    /// Number of significant pairs.
    pub fn len(&self) -> usize {
        self.kl.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kl.is_empty()
    }

    /// Bytes the list occupies.
    pub fn bytes(&self) -> usize {
        self.starts.len() * std::mem::size_of::<usize>()
            + self.kl.len() * std::mem::size_of::<[u32; 2]>()
    }

    /// Row `k`'s significant pairs with `l <= l_max`, ascending in `l`.
    pub(crate) fn row(&self, k: usize, l_max: usize) -> &[[u32; 2]] {
        let row = &self.kl[self.starts[k]..self.starts[k + 1]];
        &row[..row.partition_point(|&[_, l]| l as usize <= l_max)]
    }

    /// Whether `(i, j)`, `i >= j`, is significant.
    pub(crate) fn contains(&self, i: usize, j: usize) -> bool {
        self.row(i, j).last() == Some(&[i as u32, j as u32])
    }

    /// The pair at list position `p`: the shells `(i, j)` of pair task `p`.
    #[inline]
    pub fn pair(&self, p: usize) -> (usize, usize) {
        let [i, j] = self.kl[p];
        (i as usize, j as usize)
    }

    /// The `kl` index space of pair task `p`: the list prefix up to and
    /// including its own pair, every significant `(k, l)` with
    /// `pair_index(k, l) <= pair_index(i, j)`, in that order.
    pub(crate) fn ket_space(&self, p: usize) -> &[[u32; 2]] {
        &self.kl[..=p]
    }
}

/// The quartet evaluator of one worker (a rank, or a thread of a rank's
/// team): its ERI engine, scratch buffer and quartet counts.
pub(crate) struct Quartets<'c> {
    ctx: FockContext<'c>,
    kl: &'c SignificantPairs,
    engine: EriEngine,
    eri_buf: Vec<f64>,
    computed: u64,
    screened: u64,
}

impl<'c> Quartets<'c> {
    pub(crate) fn new(ctx: &FockContext<'c>, kl: &'c SignificantPairs) -> Self {
        Quartets {
            ctx: *ctx,
            kl,
            engine: ctx.engine(),
            eri_buf: Vec::new(),
            computed: 0,
            screened: 0,
        }
    }

    /// Evaluate canonical quartet `(ij|kl)` if it survives screening and
    /// hand the ERI buffer to `digest`.
    #[inline]
    pub(crate) fn quartet(
        &mut self,
        i: usize,
        j: usize,
        k: usize,
        l: usize,
        digest: impl FnOnce(&[f64]),
    ) {
        if !self.ctx.survives(i, j, k, l) {
            self.screened += 1;
            return;
        }
        let (bra, ket) = (self.ctx.pairs.pair(i, j), self.ctx.pairs.pair(k, l));
        // High-water-mark scratch: the engine zero-fills what it is handed.
        let len = bra.n_fn() * ket.n_fn();
        if self.eri_buf.len() < len {
            self.eri_buf.resize(len, 0.0);
        }
        let eri = &mut self.eri_buf[..len];
        self.engine.shell_quartet_pairs(bra, ket, eri);
        digest(eri);
        self.computed += 1;
    }

    /// Pair task `p`, the list's `p`-th pair `(i, j)`: every significant
    /// canonical `(k, l)` under it (the inner loops of Algorithm 1).
    pub(crate) fn pair_task(&mut self, p: usize, mut digest: impl FnMut(usize, usize, &[f64])) {
        let (kl, (i, j)) = (self.kl, self.kl.pair(p));
        for &[k, l] in kl.ket_space(p) {
            let (k, l) = (k as usize, l as usize);
            self.quartet(i, j, k, l, |eri| digest(k, l, eri));
        }
    }

    /// Close this worker: emit its trace counters (once per worker per
    /// build — nothing per quartet, so totals reconcile exactly with the
    /// merged [`FockBuildStats`]) and return its share of the stats.
    pub(crate) fn finish(self, dlb_tasks: usize, flushes: u64) -> FockBuildStats {
        phi_trace::counter("quartets_computed", self.computed);
        phi_trace::counter("quartets_screened", self.screened);
        phi_trace::counter("flushes", flushes);
        phi_trace::counter("eri.spec_quartets", self.engine.spec_quartets_computed());
        for (ci, &count) in self.engine.class_counts().iter().enumerate() {
            if count > 0 {
                phi_trace::counter(phi_integrals::CLASS_TRACE_NAMES[ci], count);
            }
        }
        FockBuildStats {
            quartets_computed: self.computed,
            quartets_screened: self.screened,
            prim_quartets: self.engine.prim_quartets_computed(),
            eri_class_quartets: self.engine.class_counts().to_vec(),
            dlb_tasks,
            flushes,
            ..Default::default()
        }
    }
}

/// What [`LeaseLoop::run`] asks of its policy.
pub(crate) enum Step {
    /// Run leased task `t`.
    Task(usize),
    /// Make everything this thread accumulated so far durable. Rows
    /// without a durable accumulator ignore it.
    Flush,
}

/// Sentinel the master stores when every task is complete.
const TASK_DONE: usize = usize::MAX;
/// Sentinel the master stores when its rank has been killed: the whole
/// thread team unwinds cleanly at the next barrier.
const TASK_DEAD: usize = usize::MAX - 1;

/// The one lease loop: one rank's lease stream shared by its thread team
/// (a team of one for the flat rows).
pub(crate) struct LeaseLoop<'r> {
    rank: &'r Rank,
    n_tasks: usize,
    current: AtomicUsize,
}

impl<'r> LeaseLoop<'r> {
    /// Collective over ranks; call before the team's parallel region.
    pub(crate) fn new(rank: &'r Rank, n_tasks: usize, mode: LeaseMode) -> Self {
        // If this errors the rank is already doomed; the master's first
        // lease claim observes the same condition and unwinds the whole
        // team cleanly.
        let _ = rank.lease_reset(n_tasks, mode);
        LeaseLoop { rank, n_tasks, current: AtomicUsize::new(0) }
    }

    /// Run by every thread of the team: the master claims the next lease,
    /// or learns that the stream has ended, and broadcasts it; every thread
    /// then runs `Step::Task` on it. In a team of more than one, the task
    /// must cross at least one team barrier, after which no thread touches
    /// the task's accumulators outside a flush: that barrier is what lets
    /// the master overwrite the broadcast slot.
    ///
    /// The master completes a lease at its next claim. Under fault
    /// injection every thread first runs `Step::Flush` and the team passes
    /// a barrier, so a dead rank never strands completed-but-unflushed
    /// work (kills fire inside `lease_next`, between tasks). In a clean
    /// run no rank can die, and each thread flushes every 32 tasks purely
    /// to amortize one-sided calls. Every thread flushes once more at the
    /// end of the stream, or when its live rank gives up on a timed-out
    /// lease poll, and never once its rank is dead. Returns the tasks run,
    /// counted on the master only.
    pub(crate) fn run(&self, tctx: &ThreadCtx<'_>, mut step: impl FnMut(Step)) -> usize {
        let fault_mode = self.rank.faults_enabled();
        let mut ran = 0usize;
        let mut held: Option<usize> = None;
        loop {
            // A kill fires inside the claim; the master then broadcasts
            // the DEAD sentinel and every thread unwinds at the barrier.
            tctx.master(|| {
                if let Some(t) = held.take() {
                    self.rank.lease_complete(t);
                }
                let next = match self.rank.lease_next() {
                    Ok(Some(t)) => {
                        held = Some(t);
                        t
                    }
                    Ok(None) => TASK_DONE,
                    Err(_) => TASK_DEAD,
                };
                self.current.store(next, Ordering::SeqCst);
            });
            tctx.barrier();
            let t = self.current.load(Ordering::SeqCst);
            if t >= self.n_tasks {
                // A live rank past TASK_DEAD gave up on a timed-out lease
                // poll: what it completed must still land.
                if t == TASK_DONE || self.rank.alive() {
                    step(Step::Flush);
                }
                return if tctx.is_master() { ran } else { 0 };
            }
            step(Step::Task(t));
            ran += 1;
            if fault_mode {
                step(Step::Flush);
                tctx.barrier();
            } else if ran.is_multiple_of(32) {
                step(Step::Flush);
            }
        }
    }
}

/// The dmpi world one parallel build runs in.
pub(crate) struct World<'a> {
    pub(crate) n_ranks: usize,
    /// Deterministic fault plan applied to the build; `None` runs clean.
    pub(crate) faults: Option<&'a FaultPlan>,
    /// Deadline of the world's failure-aware waits.
    pub(crate) retry: RetryPolicy,
}

impl World<'_> {
    /// Run `body` on every rank over a lease range of `n_tasks` tasks and
    /// assemble the build's statistics.
    ///
    /// `body` gets the rank's [`LeaseLoop`] and returns the rank's result
    /// (`None` once the rank is dead or its reduction failed) and its
    /// stats. The build's result is the lowest live rank's, and there is
    /// none, with `stats.lost` set, unless every task of the range was
    /// done when the world finished.
    pub(crate) fn run<T: Send>(
        &self,
        n_tasks: usize,
        mode: LeaseMode,
        body: impl Fn(&Rank, &LeaseLoop<'_>) -> (Option<T>, FockBuildStats) + Sync,
    ) -> (Option<T>, FockBuildStats) {
        let cfg =
            WorldConfig { n_ranks: self.n_ranks, faults: self.faults.cloned(), retry: self.retry };
        let world = phi_dmpi::run_world_with_config(cfg, |rank| {
            let _span = phi_trace::span("fock.build");
            let start = Instant::now();
            let leases = LeaseLoop::new(rank, n_tasks, mode);
            let (result, mut stats) = body(rank, &leases);
            stats.seconds = start.elapsed().as_secs_f64();
            (result.filter(|_| rank.is_lowest_live()), stats)
        });

        let failed_ranks = world.failed_ranks();
        let mut stats = FockBuildStats::default();
        let mut result = None;
        for (r, s) in world.per_rank {
            stats = FockBuildStats::merge(stats, &s);
            result = r.or(result);
        }
        result = result.filter(|_| world.tasks_done == n_tasks);
        stats.lost = result.is_none();
        stats.failed_ranks = failed_ranks;
        stats.dlb_calls = world.dlb_calls;
        stats.tasks_reclaimed = world.tasks_reclaimed;
        stats.retries = world.lease_retries;
        stats.faults_injected = world.faults_injected;
        (result, stats)
    }
}

/// The build's `G`, or NaN everywhere when it has none (`stats.lost`).
pub(crate) fn g_or_nan(g: Option<Mat>, n: usize) -> Mat {
    g.unwrap_or_else(|| Mat::from_fn(n, n, |_, _| f64::NAN))
}

#[cfg(test)]
mod tests {
    use super::{LeaseLoop, SignificantPairs, Step};
    use crate::fock::engine::FockData;
    use crate::fock::kl_bounds;
    use phi_chem::basis::{BasisName, BasisSet};
    use phi_chem::geom::small;
    use phi_dmpi::{FaultPlan, LeaseMode, RetryPolicy, WorldConfig};
    use phi_integrals::screening::n_pairs;
    use phi_integrals::Screening;
    use phi_omp::Team;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Hold the list to the quartet test it stands in for: a pair is listed
    /// exactly when some quartet survives on it, and every pair task's `kl`
    /// space holds every `(k, l)` of its surviving canonical quartets,
    /// ascending. An unlisted `(i, j)` has no task, so none may survive.
    fn assert_list_is_sound(s: &Screening, tau: f64, label: &str) {
        let kl = SignificantPairs::new(s, tau);
        let ns = s.n_shells();
        let pairs: Vec<(usize, usize)> =
            (0..ns).flat_map(|i| (0..=i).map(move |j| (i, j))).collect();
        for &(k, l) in &pairs {
            let some_survive = pairs.iter().any(|&(i, j)| s.survives(i, j, k, l, tau));
            assert_eq!(kl.contains(k, l), some_survive, "{label}: pair ({k}, {l})");
        }
        for &(i, j) in &pairs {
            let space: Vec<(usize, usize)> = match (0..kl.len()).find(|&p| kl.pair(p) == (i, j)) {
                Some(p) => kl.ket_space(p).iter().map(|&[k, l]| (k as usize, l as usize)).collect(),
                None => Vec::new(),
            };
            assert!(space.windows(2).all(|w| w[0] < w[1]), "{label}: ({i}, {j}) out of order");
            for k in 0..=i {
                for l in 0..=kl_bounds(i, j, k) {
                    if s.survives(i, j, k, l, tau) {
                        assert!(space.contains(&(k, l)), "{label}: ({i}{j}|{k}{l}) not visited");
                    }
                }
            }
        }
    }

    /// Hand-built tables at the threshold's edges. The bounds are f32, so
    /// every product of two is exact in f64: a division form `Q_kl >= tau /
    /// Q_max` agrees with the product except where `0 / 0` is NaN, and an
    /// all-zero table at `tau = 0` (every product `0 >= 0` survives) is the
    /// table on which it drops every pair. A strict `>` would drop the pairs
    /// whose product equals `tau`.
    #[test]
    fn hand_built_tables_keep_every_pair_a_quartet_survives_on() {
        let zeros = Screening::from_bounds(4, |_, _| 0.0);
        assert_eq!(SignificantPairs::new(&zeros, 0.0).len(), n_pairs(4));
        assert_list_is_sound(&zeros, 0.0, "all-zero table, tau = 0");
        assert!(SignificantPairs::new(&zeros, f64::MIN_POSITIVE).is_empty());

        // Q_max = 3 on (0, 0); the pairs straddle tau = 3 * (1/3 in f32).
        let third = 1.0f32 / 3.0;
        let bounds = [3.0, third, third.next_down(), 0.5, third.next_up(), 0.0];
        let table = Screening::from_bounds(3, |i, j| bounds[i * (i + 1) / 2 + j] as f64);
        let tau = 3.0 * third as f64;
        let list = SignificantPairs::new(&table, tau);
        assert_eq!(list.kl, [[0, 0], [1, 0], [2, 0], [2, 1]], "the pair at equality stays");
        for tau in [tau, tau.next_up(), tau.next_down(), 0.0, 1.5] {
            assert_list_is_sound(&table, tau, &format!("straddling table, tau = {tau:e}"));
        }
    }

    /// Seeded H chains at spacings from bonded to nearly dissociated, at
    /// the default threshold and at thresholds set exactly on one pair's
    /// `Q_kl * Q_max`.
    #[test]
    fn seeded_chains_visit_every_surviving_quartet() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for seed in 0..8 {
            let (n_atoms, spacing) = (4 + (draw() * 6.0) as usize, 1.4 + draw() * 6.0);
            let basis = if seed % 2 == 0 { BasisName::Sto3g } else { BasisName::B631g };
            let b = BasisSet::build(&small::h_chain(n_atoms, spacing), basis);
            let s = FockData::build(&b).screening;
            let ns = s.n_shells();
            let k = (draw() * ns as f64) as usize;
            let l = (draw() * (k + 1) as f64) as usize;
            let edge = s.q(k, l) * s.q_max();
            for tau in [1e-10, edge, edge.next_up()] {
                let label = format!("seed {seed}: H{n_atoms} at {spacing:.3} bohr, tau {tau:e}");
                assert_list_is_sound(&s, tau, &label);
            }
        }
    }

    /// The one loop's contract on a 3-rank world with teams of one and two:
    /// each thread adds 1 per task to private pending state. Under durable
    /// leases `Step::Flush` moves it into shared per-task counters; under
    /// volatile leases it is ignored and the survivors' private sums are
    /// reduced. Either way every task lands exactly once per thread, with
    /// or without a rank killed holding a lease.
    #[test]
    fn each_task_lands_once_per_thread_under_both_lease_modes() {
        const N_TASKS: usize = 40;
        for faults in [None, Some(FaultPlan::kill_at_tasks(1, &[5]))] {
            for mode in [LeaseMode::Volatile, LeaseMode::Durable] {
                for n_threads in [1, 2] {
                    let label = format!("{mode:?}, {n_threads} threads, faults {faults:?}");
                    let flushed: Vec<AtomicUsize> =
                        (0..N_TASKS).map(|_| AtomicUsize::new(0)).collect();
                    let cfg = WorldConfig {
                        n_ranks: 3,
                        faults: faults.clone(),
                        retry: RetryPolicy::default(),
                    };
                    let world = phi_dmpi::run_world_with_config(cfg, |rank| {
                        let leases = LeaseLoop::new(rank, N_TASKS, mode);
                        let per_thread = Team::new(n_threads).parallel(|tctx| {
                            let (mut pending, mut ran) = (vec![0; N_TASKS], vec![0; N_TASKS]);
                            let tasks = leases.run(tctx, |step| match step {
                                Step::Task(t) => {
                                    pending[t] += 1;
                                    ran[t] += 1;
                                    // Every row's task crosses a team barrier.
                                    tctx.barrier();
                                }
                                Step::Flush => {
                                    assert!(rank.alive(), "{label}: a dead rank flushed");
                                    if mode == LeaseMode::Durable {
                                        for (sum, p) in flushed.iter().zip(&mut pending) {
                                            sum.fetch_add(std::mem::take(p), Ordering::SeqCst);
                                        }
                                    }
                                }
                            });
                            (tasks, ran)
                        });
                        let tasks: usize = per_thread.iter().map(|(tasks, _)| tasks).sum();
                        let mut sums = vec![0; N_TASKS];
                        for (_, ran) in &per_thread {
                            sums.iter_mut().zip(ran).for_each(|(s, r)| *s += r);
                        }
                        (tasks, rank.alive().then_some(sums))
                    });
                    assert_eq!(world.failed_ranks().len(), faults.iter().len(), "{label}");
                    let tasks: usize = world.per_rank.iter().map(|(tasks, _)| tasks).sum();
                    let landed: Vec<usize> = match mode {
                        LeaseMode::Durable => {
                            flushed.iter().map(|c| c.load(Ordering::SeqCst)).collect()
                        }
                        LeaseMode::Volatile => (0..N_TASKS)
                            .map(|t| world.per_rank.iter().flat_map(|(_, s)| s).map(|s| s[t]).sum())
                            .collect(),
                    };
                    assert_eq!(landed, vec![n_threads; N_TASKS], "{label}");
                    if faults.is_none() {
                        assert_eq!(tasks, N_TASKS, "{label}: tasks run, counted on masters");
                    }
                }
            }
        }
    }
}
