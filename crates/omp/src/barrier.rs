//! The team barrier: sense-reversing, spin-then-park.
//!
//! Algorithm 3 crosses two or three barriers per `ij` task, and a task can
//! be a few hundred microsecond-sized quartets, so the barrier is on the
//! critical path of the build. Threads of a team usually arrive within
//! microseconds of each other, far less than a futex sleep and wake costs,
//! so a waiter first spins on the generation word; only a waiter whose
//! team is late by more than the spin budget parks on a condvar, which
//! keeps an oversubscribed team (more threads than cores) from burning the
//! cores the late threads need.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Condvar;

/// Polls of the generation word before a waiter parks: ~20 us here (11 ns
/// per poll measured), ~130 us where `pause` costs 140 cycles — the order
/// of one park-and-wake, so spinning first at most about doubles a long
/// wait. The benchmark reads the same from 200 to 20 000.
const SPIN_POLLS: u32 = 2_000;

pub(crate) struct TeamBarrier {
    n: usize,
    /// Threads that have reached the current generation's barrier.
    arrived: AtomicUsize,
    /// The sense: bumped by the last arriver, watched by everyone else.
    generation: AtomicUsize,
    /// Waiters that gave up spinning; the last arriver only touches the
    /// lock and the condvar when this is non-zero.
    parked: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl TeamBarrier {
    pub(crate) fn new(n: usize) -> TeamBarrier {
        TeamBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Block until all `n` threads have called `wait` for this generation.
    /// Everything a thread wrote before its `wait` is visible to every
    /// thread after theirs (the arrivals form one RMW chain on `arrived`
    /// that the last arriver publishes through `generation`).
    pub(crate) fn wait(&self) {
        if self.n == 1 {
            return;
        }
        // Cannot advance before this thread's own arrival below.
        let gen = self.generation.load(SeqCst);
        if self.arrived.fetch_add(1, SeqCst) + 1 == self.n {
            // Reset before release: nobody re-arrives until they see the
            // new generation.
            self.arrived.store(0, SeqCst);
            self.generation.store(gen.wrapping_add(1), SeqCst);
            // SeqCst pairs this load with the parker's `parked` increment
            // and generation re-check: either it sees the new generation
            // and never sleeps, or we see it parked and wake it. Passing
            // through the lock orders the notify after its check-then-wait.
            if self.parked.load(SeqCst) > 0 {
                drop(self.lock.lock());
                self.wake.notify_all();
            }
            return;
        }
        for _ in 0..SPIN_POLLS {
            if self.generation.load(SeqCst) != gen {
                return;
            }
            std::hint::spin_loop();
        }
        self.parked.fetch_add(1, SeqCst);
        let mut guard = self.lock.lock();
        while self.generation.load(SeqCst) == gen {
            guard = self.wake.wait(guard).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        drop(guard);
        self.parked.fetch_sub(1, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Team;
    use std::sync::atomic::AtomicU64;
    use std::sync::atomic::Ordering::Relaxed;
    use std::time::{Duration, Instant};

    /// Every thread bumps its own cell before each barrier and, after it,
    /// must find every teammate's cell at the same generation: a thread
    /// released early, or left behind, reads a stale count.
    /// (Violations are counted, not asserted in place: a thread that
    /// panics inside a region leaves its team waiting for ever.)
    fn lockstep(n_threads: usize, generations: u64) {
        let cells: Vec<AtomicU64> = (0..n_threads).map(|_| AtomicU64::new(0)).collect();
        let stale = AtomicU64::new(0);
        let barrier = TeamBarrier::new(n_threads);
        Team::new(n_threads).parallel(|ctx| {
            for g in 1..=generations {
                cells[ctx.thread_num()].store(g, Relaxed);
                barrier.wait();
                // A teammate may already be in generation g + 1, but not
                // g + 2: that needs this thread at the next barrier.
                let ok =
                    cells.iter().map(|c| c.load(Relaxed)).all(|seen| seen == g || seen == g + 1);
                stale.fetch_add(!ok as u64, Relaxed);
            }
        });
        assert_eq!(stale.load(Relaxed), 0, "{n_threads} threads fell out of step");
    }

    #[test]
    fn back_to_back_generations_lose_no_thread() {
        lockstep(2, 100_000);
    }

    #[test]
    fn oversubscribed_team_parks_instead_of_spinning_out_its_budget() {
        // 8 threads on a host with fewer cores: a pure spin barrier needs a
        // scheduler time slice (milliseconds) per generation for the late
        // threads to get a core at all; parking hands it over at once.
        let start = Instant::now();
        lockstep(8, 10_000);
        assert!(start.elapsed() < Duration::from_secs(20), "took {:?}", start.elapsed());
    }

    #[test]
    fn single_thread_barrier_is_a_no_op() {
        let barrier = TeamBarrier::new(1);
        for _ in 0..1_000 {
            barrier.wait();
        }
        assert_eq!(barrier.arrived.load(SeqCst), 0);
        assert_eq!(barrier.generation.load(SeqCst), 0);
    }
}
