//! Thread teams and parallel regions.
//!
//! A region's shared state is allocated once, when the region starts: one
//! spin-then-park `TeamBarrier`, a small ring of `ConstructSlot`s that
//! worksharing constructs take in encounter order, and one cache-line
//! padded claim counter per thread for each slot. Nothing is allocated or
//! locked per construct, so a region that runs one loop per `ij` task
//! costs the same on its last task as on its first.
//!
//! A dynamic loop over `0..n` gives thread `t` the home range
//! `[t·n/T, (t+1)·n/T)`. A thread claims `chunk` indices at a time from
//! its own counter, so claims stay on its core while it has home work;
//! once its range is spent it claims from teammates `t+1, t+2, …`
//! (wrapping) until every range is spent, so the tail still balances one
//! chunk at a time.

use crate::barrier::TeamBarrier;
use crate::schedule::Schedule;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-size thread team. One `parallel` call is one OpenMP parallel
/// region: the closure runs once per thread, with worksharing constructs
/// available through [`ThreadCtx`].
pub struct Team {
    n_threads: usize,
}

/// How many worksharing constructs a thread can be ahead of the slowest
/// thread of its team (only `nowait` loops let it get ahead at all) before
/// it has to wait for a slot.
const CONSTRUCT_SLOTS: usize = 8;

/// The hand-over state of one live worksharing construct. Slot `s` serves
/// constructs `s`, `s + CONSTRUCT_SLOTS`, ... of the region in turn,
/// together with its row of per-thread claim counters; the last thread to
/// leave a construct zeroes that row and hands the slot to the next.
#[repr(align(64))]
struct ConstructSlot {
    /// Sequence number of the construct that owns the slot now.
    owner: AtomicUsize,
    /// Threads that have left the construct.
    left: AtomicUsize,
}

/// One thread's claim counter for one construct slot: how many indices of
/// that thread's home range have been handed out. Padded so that claims
/// on a thread's own range never touch a line a teammate is claiming on.
#[repr(align(64))]
struct ClaimCounter(AtomicUsize);

/// State shared by all threads of one parallel region.
struct RegionShared {
    barrier: TeamBarrier,
    slots: [ConstructSlot; CONSTRUCT_SLOTS],
    /// Slot `s`'s claim counters are `counters[s * T..(s + 1) * T]`, one
    /// per thread of the team of `T`.
    counters: Vec<ClaimCounter>,
}

/// Per-thread view of a parallel region.
pub struct ThreadCtx<'a> {
    thread_num: usize,
    n_threads: usize,
    shared: &'a RegionShared,
    /// Position in the sequence of worksharing constructs this thread has
    /// encountered (must match across the team, as in OpenMP).
    loop_seq: Cell<usize>,
}

impl Team {
    pub fn new(n_threads: usize) -> Team {
        assert!(n_threads >= 1, "a team needs at least one thread");
        Team { n_threads }
    }

    /// Run a parallel region; returns each thread's result, indexed by
    /// thread number.
    pub fn parallel<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&ThreadCtx<'_>) -> R + Sync,
    {
        let shared = RegionShared {
            barrier: TeamBarrier::new(self.n_threads),
            slots: std::array::from_fn(|s| ConstructSlot {
                owner: AtomicUsize::new(s),
                left: AtomicUsize::new(0),
            }),
            counters: (0..CONSTRUCT_SLOTS * self.n_threads)
                .map(|_| ClaimCounter(AtomicUsize::new(0)))
                .collect(),
        };
        let n = self.n_threads;
        // The caller is the master: workers inherit its rank id so every
        // thread's trace stream lands under the right (rank, thread) pair.
        let rank = phi_trace::current_rank();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for t in 1..n {
                let shared = &shared;
                let f = &f;
                handles.push(scope.spawn(move || {
                    phi_trace::set_ids(rank, t as u32);
                    let ctx =
                        ThreadCtx { thread_num: t, n_threads: n, shared, loop_seq: Cell::new(0) };
                    f(&ctx)
                }));
            }
            // Thread 0 (the master) runs on the caller's thread.
            let ctx =
                ThreadCtx { thread_num: 0, n_threads: n, shared: &shared, loop_seq: Cell::new(0) };
            let r0 = f(&ctx);
            let mut results = vec![r0];
            for (t, h) in handles.into_iter().enumerate() {
                results.push(
                    h.join().unwrap_or_else(|_| {
                        panic!("team thread {} of rank {rank} panicked", t + 1)
                    }),
                );
            }
            results
        })
    }
}

impl ThreadCtx<'_> {
    pub fn thread_num(&self) -> usize {
        self.thread_num
    }

    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    pub fn is_master(&self) -> bool {
        self.thread_num == 0
    }

    /// Team barrier (`!$omp barrier`). A team of one has nothing to wait
    /// for, so it opens no span either.
    pub fn barrier(&self) {
        if self.n_threads == 1 {
            return;
        }
        let _span = phi_trace::span("omp.barrier_wait");
        self.shared.barrier.wait();
    }

    /// Run `f` on the master thread only (`!$omp master`). No implied
    /// barrier — combine with [`barrier`](Self::barrier) as the paper does.
    pub fn master<T>(&self, f: impl FnOnce() -> T) -> Option<T> {
        if self.is_master() {
            Some(f())
        } else {
            None
        }
    }

    /// Worksharing loop over `0..n` (`!$omp do schedule(...)`), with the
    /// implicit barrier at the end. Every thread of the team must call this
    /// with the same `n` and `sched`.
    pub fn for_each(&self, n: usize, sched: Schedule, mut body: impl FnMut(usize)) {
        self.for_each_nowait(n, sched, &mut body);
        self.barrier();
    }

    /// Worksharing loop without the trailing barrier (`nowait`). Thread
    /// `t` of `T` first claims from its home range `[t·n/T, (t+1)·n/T)`,
    /// then from teammates' ranges in the order `t+1, t+2, …` (wrapping).
    pub fn for_each_nowait(&self, n: usize, sched: Schedule, body: &mut impl FnMut(usize)) {
        // Per-thread busy time: chunk claiming + loop bodies, but not the
        // trailing barrier — this is the paper's Fig. 8 numerator.
        let _span = phi_trace::span("omp.loop");
        let Schedule::Dynamic { chunk } = sched;
        let chunk = chunk.max(1);
        let team = self.n_threads;
        // `t·n/T`, without forming `t·n`.
        let home = |t: usize| t * (n / team) + t * (n % team) / team;
        self.construct(|counters| {
            for v in (0..team).map(|d| (self.thread_num + d) % team) {
                let (start, end) = (home(v), home(v + 1));
                loop {
                    let lo = start + counters[v].0.fetch_add(chunk, Ordering::Relaxed);
                    if lo >= end {
                        break;
                    }
                    for i in lo..(lo + chunk).min(end) {
                        body(i);
                    }
                }
            }
        })
    }

    /// Collapsed two-level worksharing loop over the rectangle
    /// `(0..n1) x (0..n2)` (`!$omp do collapse(2)`), with the implicit
    /// trailing barrier. This is how Algorithm 2 merges its `j` and `k`
    /// loops to enlarge the task pool.
    pub fn collapse2(
        &self,
        n1: usize,
        n2: usize,
        sched: Schedule,
        mut body: impl FnMut(usize, usize),
    ) {
        if n2 == 0 {
            // Degenerate rectangle: still a worksharing construct.
            self.for_each(0, sched, |_| {});
            return;
        }
        self.for_each(n1 * n2, sched, |flat| body(flat / n2, flat % n2));
    }

    /// Run this thread's part of its next worksharing construct against
    /// the construct's per-thread claim counters, one per teammate.
    /// Lock-free: one load to enter, one add to leave; a thread waits only
    /// when it is `CONSTRUCT_SLOTS` constructs ahead of a teammate.
    fn construct<T>(&self, part: impl FnOnce(&[ClaimCounter]) -> T) -> T {
        let seq = self.loop_seq.get();
        self.loop_seq.set(seq + 1);
        let s = seq % CONSTRUCT_SLOTS;
        let slot = &self.shared.slots[s];
        let counters = &self.shared.counters[s * self.n_threads..(s + 1) * self.n_threads];
        // Acquire pairs with the hand-over below: the zeroed counters of
        // the previous owner are visible before this construct uses them.
        while slot.owner.load(Ordering::Acquire) != seq {
            std::thread::yield_now();
        }
        let out = part(counters);
        // AcqRel chains the leavers, so the last one resets after every
        // teammate's final claim on any of the slot's counters.
        if slot.left.fetch_add(1, Ordering::AcqRel) + 1 == self.n_threads {
            counters.iter().for_each(|c| c.0.store(0, Ordering::Relaxed));
            slot.left.store(0, Ordering::Relaxed);
            slot.owner.store(seq + CONSTRUCT_SLOTS, Ordering::Release);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn region_runs_once_per_thread() {
        let team = Team::new(4);
        let results = team.parallel(|ctx| ctx.thread_num());
        assert_eq!(results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn master_runs_exactly_once() {
        let team = Team::new(4);
        let count = AtomicU64::new(0);
        team.parallel(|ctx| {
            ctx.master(|| count.fetch_add(1, Ordering::SeqCst));
            ctx.barrier();
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    fn check_loop_covers(sched: Schedule) {
        let team = Team::new(3);
        let n = 1000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        team.parallel(|ctx| {
            ctx.for_each(n, sched, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} under {sched:?}");
        }
    }

    #[test]
    fn dynamic_loop_covers_every_index_once() {
        check_loop_covers(Schedule::Dynamic { chunk: 1 });
        check_loop_covers(Schedule::Dynamic { chunk: 7 });
    }

    #[test]
    fn collapse2_visits_full_rectangle() {
        let team = Team::new(4);
        let (n1, n2) = (17, 23);
        let hits: Vec<AtomicU64> = (0..n1 * n2).map(|_| AtomicU64::new(0)).collect();
        team.parallel(|ctx| {
            ctx.collapse2(n1, n2, Schedule::dynamic1(), |i, j| {
                hits[i * n2 + j].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn consecutive_loops_use_fresh_counters() {
        let team = Team::new(2);
        let total = AtomicU64::new(0);
        team.parallel(|ctx| {
            for _ in 0..5 {
                ctx.for_each(10, Schedule::dynamic1(), |_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn single_thread_team_works() {
        let team = Team::new(1);
        let r = team.parallel(|ctx| {
            let mut sum = 0usize;
            ctx.for_each(100, Schedule::dynamic1(), |i| sum += i);
            sum
        });
        assert_eq!(r[0], 4950);
        // A team of one owns the whole range and claims it in order.
        for chunk in [1, 3] {
            let order = team.parallel(|ctx| {
                let mut order = Vec::new();
                ctx.for_each(100, Schedule::Dynamic { chunk }, |i| order.push(i));
                order
            });
            assert_eq!(order[0], (0..100).collect::<Vec<_>>(), "chunk {chunk}");
        }
    }

    #[test]
    fn idle_threads_steal_from_a_slow_home_range() {
        // Thread 0's home range is 0..n/2 and every index of it sleeps, so
        // thread 1 spends its own half long before thread 0 can, and must
        // then take some of thread 0's indices.
        let n = 64;
        let ran_by: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
        Team::new(2).parallel(|ctx| {
            ctx.for_each(n, Schedule::dynamic1(), |i| {
                if i < n / 2 {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
                let prev = ran_by[i].swap(ctx.thread_num(), Ordering::Relaxed);
                assert_eq!(prev, usize::MAX, "index {i} ran twice");
            });
        });
        let ran_by: Vec<usize> = ran_by.iter().map(|t| t.load(Ordering::Relaxed)).collect();
        assert!(ran_by.iter().all(|&t| t < 2), "an index never ran: {ran_by:?}");
        assert!(ran_by[..n / 2].contains(&1), "thread 1 stole nothing: {ran_by:?}");
    }

    #[test]
    fn collapse2_with_empty_inner_dimension() {
        let team = Team::new(2);
        team.parallel(|ctx| {
            // Must not deadlock or divide by zero.
            ctx.collapse2(5, 0, Schedule::dynamic1(), |_, _| panic!("no iterations expected"));
        });
    }

    #[test]
    fn nowait_loops_between_barriers_cover_every_index_once() {
        // More nowait constructs in a row than the region has construct
        // slots, so a fast thread has to wait for a slot to come back.
        let (n, rounds, loops) = (97, 50, 11);
        let hits: Vec<AtomicU64> = (0..n * rounds * loops).map(|_| AtomicU64::new(0)).collect();
        let early = AtomicU64::new(0);
        Team::new(3).parallel(|ctx| {
            for round in 0..rounds {
                for l in 0..loops {
                    let sched = Schedule::Dynamic { chunk: 1 + l % 2 };
                    ctx.for_each_nowait(n, sched, &mut |i| {
                        hits[(round * loops + l) * n + i].fetch_add(1, Ordering::Relaxed);
                    });
                }
                // The barrier must not release a thread while a teammate
                // still has iterations of this round to run.
                ctx.barrier();
                let done = &hits[round * loops * n..(round + 1) * loops * n];
                early.fetch_add(
                    done.iter().any(|h| h.load(Ordering::Relaxed) != 1) as u64,
                    Ordering::Relaxed,
                );
            }
        });
        assert_eq!(
            early.load(Ordering::Relaxed),
            0,
            "a barrier released before its round was covered"
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
