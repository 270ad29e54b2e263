//! Deterministic fault injection and failure-aware primitives.
//!
//! At the paper's headline scale (3,000 KNL nodes / 192,000 cores) rank
//! failure and stragglers are routine operating conditions, not
//! exceptions. This module supplies the pieces a world needs to keep
//! producing correct results when ranks die mid-build:
//!
//! * [`FaultPlan`] — a seeded, deterministic schedule of injected faults
//!   (kill a rank at a DLB task, delay a straggler), parsed from a compact
//!   `"seed:spec,..."` grammar so a failing run is exactly reproducible
//!   from its CLI flag;
//! * [`CommError`] — typed communication errors that replace aborts, so
//!   a builder can observe "I am dead" or "a peer timed out" and unwind
//!   cleanly instead of poisoning the process;
//! * `FtBarrier` — a failure-aware barrier: waits time out instead of
//!   hanging forever, and a dying rank *deregisters* so survivors
//!   regroup immediately around the smaller world;
//! * `TaskLeases` — a lease table over the DLB task range: every claim
//!   is recorded, and when a rank dies its lost tasks are reclaimed and
//!   re-issued to survivors exactly once.
//!
//! # FaultPlan grammar
//!
//! ```text
//! <plan>  := <seed> ":" <spec> ("," <spec>)*
//! <spec>  := "kill@" <task>                 kill whichever rank claims task <task>
//!          | "kill@" <rank> "#" <claim>     kill rank <rank> at its <claim>-th claim
//!          | "kill*" <count>                kill at <count> seed-chosen task indices
//!          | "delay@" <rank> "#" <claim> ":" <ms>   straggler: sleep <ms> on that claim
//! ```
//!
//! Claims are counted from 1, so `#0` is an error, and so is `kill*0`.
//! Example: `"42:kill@3,delay@1#5:20"` — seed 42, kill whoever claims
//! task 3, and make rank 1 sleep 20 ms on its fifth claim.
//!
//! Messages are not a fault target: MPI delivers what it sends, reliably
//! and in order, and neither DDI nor GAMESS retransmits.
//!
//! # Lease semantics
//!
//! Kills fire *after* a claim succeeds, so a killed rank always dies
//! holding a fresh lease — guaranteeing at least one task is reclaimed
//! per kill. Two durability modes cover the two builder families:
//!
//! * [`LeaseMode::Volatile`] — replicated-Fock builders: a dead rank's
//!   partial Fock never reaches the reduction, so *every* task it ever
//!   owned (completed or not) is reissued to survivors;
//! * [`LeaseMode::Durable`] — distributed-data builders: completion
//!   means "flushed to the distributed array", so only tasks still held
//!   (claimed but not flushed) at death are reissued.

use crate::sync::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// A typed communication failure. Replaces the panics/aborts that a
/// brittle world would raise, so callers can unwind and regroup. Every
/// variant is fatal to the operation that returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The calling rank has been marked dead (by fault injection); it
    /// must release its resources and return without touching
    /// collectives.
    SelfDead,
    /// A specific peer is known to have failed.
    RankFailed {
        /// The rank that died.
        rank: usize,
    },
    /// A wait (barrier, lease, receive) exceeded its deadline.
    Timeout {
        /// What was being waited on, for diagnostics.
        what: &'static str,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::SelfDead => write!(f, "calling rank is dead"),
            CommError::RankFailed { rank } => write!(f, "rank {rank} failed"),
            CommError::Timeout { what } => write!(f, "timed out waiting on {what}"),
        }
    }
}

impl std::error::Error for CommError {}

/// The deadline of a world's failure-aware waits: barriers, lease polls
/// and receives (`--comm-timeout-ms`). Long enough that it only fires on
/// a genuine hang, short enough that a wedged run still terminates with a
/// diagnosis. It is a deadline, not a retry budget: nothing is resent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How long any failure-aware wait blocks before timing out.
    pub timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { timeout: Duration::from_secs(30) }
    }
}

/// One injected fault from a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FaultSpec {
    /// Kill whichever rank claims global task `task` (fires once).
    KillAtTask { task: usize },
    /// Kill rank `rank` when it makes its `claim`-th successful claim
    /// (1-based).
    KillAtClaim { rank: usize, claim: usize },
    /// Kill at `count` seed-chosen distinct task indices (resolved once
    /// the task range is known).
    KillRandom { count: usize },
    /// Make rank `rank` sleep `millis` ms on its `claim`-th claim.
    Delay { rank: usize, claim: usize, millis: u64 },
}

/// A deterministic, seeded schedule of injected faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for any randomized choices (`kill*<count>`).
    pub seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Plan that kills whichever ranks claim the given global tasks.
    pub fn kill_at_tasks(seed: u64, tasks: &[usize]) -> Self {
        let specs = tasks.iter().map(|&task| FaultSpec::KillAtTask { task }).collect();
        FaultPlan { seed, specs }
    }

    /// Plan that kills at `count` seed-chosen task indices.
    pub fn random_kills(seed: u64, count: usize) -> Self {
        FaultPlan { seed, specs: vec![FaultSpec::KillRandom { count }] }
    }

    /// The scheduled faults, in plan order.
    pub(crate) fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// The highest rank a `kill@`/`delay@` spec names, so a caller can
    /// refuse a plan that a world with fewer ranks would silently never
    /// fire.
    pub fn max_rank(&self) -> Option<usize> {
        self.specs
            .iter()
            .filter_map(|spec| match *spec {
                FaultSpec::KillAtClaim { rank, .. } | FaultSpec::Delay { rank, .. } => Some(rank),
                FaultSpec::KillAtTask { .. } | FaultSpec::KillRandom { .. } => None,
            })
            .max()
    }

    /// The highest task a `kill@<task>` names, so a caller can refuse a
    /// plan whose kill a build with fewer tasks would silently never fire.
    pub fn max_task(&self) -> Option<usize> {
        self.specs
            .iter()
            .filter_map(|spec| match *spec {
                FaultSpec::KillAtTask { task } => Some(task),
                _ => None,
            })
            .max()
    }

    /// The longest `delay@` a spec names, so a caller can refuse a
    /// straggler that would outlive the failure-aware waits' timeout.
    pub fn max_delay_ms(&self) -> Option<u64> {
        self.specs
            .iter()
            .filter_map(|spec| match *spec {
                FaultSpec::Delay { millis, .. } => Some(millis),
                _ => None,
            })
            .max()
    }

    /// Parse the `"seed:spec,spec,..."` grammar (see module docs).
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let (seed_str, rest) =
            text.split_once(':').ok_or_else(|| format!("fault plan '{text}' needs 'seed:spec'"))?;
        let seed: u64 = seed_str.parse().map_err(|_| format!("bad fault seed '{seed_str}'"))?;
        let specs = rest.split(',').filter(|s| !s.is_empty()).map(parse_spec);
        Ok(FaultPlan { seed, specs: specs.collect::<Result<_, _>>()? })
    }
}

fn parse_usize(s: &str, what: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("bad {what} '{s}'"))
}

/// A 1-based claim ordinal: `#0` would name a claim that never comes, so
/// the spec could never fire.
fn parse_ordinal(s: &str, what: &str) -> Result<usize, String> {
    match parse_usize(s, what)? {
        0 => Err(format!("bad {what} '0': ordinals count from 1, so #0 never fires")),
        n => Ok(n),
    }
}

fn parse_spec(spec: &str) -> Result<FaultSpec, String> {
    if let Some(body) = spec.strip_prefix("kill@") {
        return if let Some((rank, claim)) = body.split_once('#') {
            Ok(FaultSpec::KillAtClaim {
                rank: parse_usize(rank, "rank")?,
                claim: parse_ordinal(claim, "claim index")?,
            })
        } else {
            Ok(FaultSpec::KillAtTask { task: parse_usize(body, "task index")? })
        };
    }
    if let Some(body) = spec.strip_prefix("kill*") {
        return match parse_usize(body, "kill count")? {
            0 => Err("bad kill count '0': kill*0 kills nothing".into()),
            count => Ok(FaultSpec::KillRandom { count }),
        };
    }
    if let Some(body) = spec.strip_prefix("delay@") {
        let (rank_claim, ms) =
            body.split_once(':').ok_or("delay needs '<rank>#<claim>:<millis>'")?;
        let (rank, claim) =
            rank_claim.split_once('#').ok_or("delay needs '<rank>#<claim>:<millis>'")?;
        return Ok(FaultSpec::Delay {
            rank: parse_usize(rank, "rank")?,
            claim: parse_ordinal(claim, "claim index")?,
            millis: ms.parse().map_err(|_| format!("bad delay millis '{ms}'"))?,
        });
    }
    Err(format!("unknown fault spec '{spec}'"))
}

/// SplitMix64 step: the deterministic PRNG behind seeded fault choices.
/// Small, dependency-free, and good enough for reproducible test
/// schedules.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct BarrierState {
    expected: usize,
    arrived: usize,
    generation: u64,
}

/// A failure-aware barrier: generation-counting, with timeouts instead
/// of unbounded hangs, and a [`deregister`](FtBarrier::deregister)
/// operation so a dying rank permanently leaves the group and current
/// waiters regroup around the survivors.
pub(crate) struct FtBarrier {
    state: StdMutex<BarrierState>,
    cv: Condvar,
}

impl FtBarrier {
    /// Barrier over `n` participants.
    pub(crate) fn new(n: usize) -> Self {
        FtBarrier {
            state: StdMutex::new(BarrierState { expected: n, arrived: 0, generation: 0 }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait for the current generation to complete, or time out. On
    /// timeout the caller's arrival is withdrawn so the barrier count
    /// stays consistent.
    pub(crate) fn wait(&self, timeout: Duration) -> Result<(), CommError> {
        let deadline = Instant::now() + timeout;
        let mut s = self.lock();
        s.arrived += 1;
        if s.arrived >= s.expected {
            s.arrived = 0;
            s.generation = s.generation.wrapping_add(1);
            self.cv.notify_all();
            return Ok(());
        }
        let gen = s.generation;
        while s.generation == gen {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                s.arrived = s.arrived.saturating_sub(1);
                return Err(CommError::Timeout { what: "barrier" });
            }
            let (guard, _timed_out) =
                self.cv.wait_timeout(s, remaining).unwrap_or_else(|e| e.into_inner());
            s = guard;
        }
        Ok(())
    }

    /// Permanently remove one participant (a dying rank). If the
    /// remaining waiters now satisfy the barrier, they are released.
    pub(crate) fn deregister(&self) {
        let mut s = self.lock();
        s.expected = s.expected.saturating_sub(1);
        if s.expected > 0 && s.arrived >= s.expected {
            s.arrived = 0;
            s.generation = s.generation.wrapping_add(1);
            self.cv.notify_all();
        }
    }
}

/// Durability model for a lease table — what "complete" means when the
/// completing rank later dies. See module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseMode {
    /// Completed work lives only in the dead rank's private buffers:
    /// reissue everything it ever owned.
    Volatile,
    /// Completed work is already flushed somewhere durable: reissue
    /// only tasks held (incomplete) at death.
    Durable,
}

/// Outcome of a lease claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LeaseClaim {
    /// A task was leased to the caller.
    Task {
        /// The claimed task index.
        task: usize,
        /// True if this claim came from the reissue queue (recovery
        /// work), false for a fresh first-issue claim.
        reissued: bool,
        /// For reissued work, the dead rank whose loss queued this
        /// task — recovery traces attribute reclaimed spans to the
        /// original claimant. `None` for fresh claims.
        prev_owner: Option<usize>,
    },
    /// Nothing to hand out right now, but outstanding tasks are still
    /// leased to live ranks — poll again.
    Pending,
    /// Every task is complete.
    Exhausted,
}

struct LeaseState {
    n_tasks: usize,
    mode: LeaseMode,
    next_fresh: usize,
    owner: Vec<Option<usize>>,
    done: Vec<bool>,
    queued: Vec<bool>,
    ever_owned: Vec<Vec<usize>>,
    /// Reissue queue entries: `(task, rank that lost it)`.
    reissue: VecDeque<(usize, usize)>,
    reclaimed: usize,
    reissued_claims: usize,
}

/// Lease table over a DLB task range `0..n_tasks`. Every claim records
/// an owner; [`on_death`](TaskLeases::on_death) reclaims a dead rank's
/// lost tasks and queues each for reissue exactly once.
pub(crate) struct TaskLeases {
    inner: Mutex<LeaseState>,
}

impl TaskLeases {
    /// Empty table for a world of `n_ranks` ranks; call
    /// [`reset`](TaskLeases::reset) before claiming.
    pub(crate) fn new(n_ranks: usize) -> Self {
        TaskLeases {
            inner: Mutex::new(LeaseState {
                n_tasks: 0,
                mode: LeaseMode::Volatile,
                next_fresh: 0,
                owner: Vec::new(),
                done: Vec::new(),
                queued: Vec::new(),
                ever_owned: vec![Vec::new(); n_ranks],
                reissue: VecDeque::new(),
                reclaimed: 0,
                reissued_claims: 0,
            }),
        }
    }

    /// Start a new task range. Recovery counters (`reclaimed`,
    /// `reissued_claims`) accumulate across resets so a whole world run
    /// can be summarized.
    pub(crate) fn reset(&self, n_tasks: usize, mode: LeaseMode) {
        let mut s = self.inner.lock();
        s.n_tasks = n_tasks;
        s.mode = mode;
        s.next_fresh = 0;
        s.owner = vec![None; n_tasks];
        s.done = vec![false; n_tasks];
        s.queued = vec![false; n_tasks];
        for owned in &mut s.ever_owned {
            owned.clear();
        }
        s.reissue.clear();
    }

    /// Claim the next task for `rank`: reissued recovery work first,
    /// then fresh tasks, else [`LeaseClaim::Pending`] /
    /// [`LeaseClaim::Exhausted`].
    pub(crate) fn claim(&self, rank: usize) -> LeaseClaim {
        let mut s = self.inner.lock();
        if let Some((task, dead)) = s.reissue.pop_front() {
            s.queued[task] = false;
            s.owner[task] = Some(rank);
            s.ever_owned[rank].push(task);
            s.reissued_claims += 1;
            return LeaseClaim::Task { task, reissued: true, prev_owner: Some(dead) };
        }
        if s.next_fresh < s.n_tasks {
            let task = s.next_fresh;
            s.next_fresh += 1;
            s.owner[task] = Some(rank);
            s.ever_owned[rank].push(task);
            return LeaseClaim::Task { task, reissued: false, prev_owner: None };
        }
        if s.done.iter().all(|&d| d) {
            LeaseClaim::Exhausted
        } else {
            LeaseClaim::Pending
        }
    }

    /// Mark `task` complete and release its lease.
    pub(crate) fn complete(&self, task: usize) {
        let mut s = self.inner.lock();
        s.owner[task] = None;
        s.done[task] = true;
    }

    /// Reclaim the dead rank's lost tasks per the table's
    /// [`LeaseMode`]; returns how many were queued for reissue.
    pub(crate) fn on_death(&self, rank: usize) -> usize {
        let mut s = self.inner.lock();
        let owned = std::mem::take(&mut s.ever_owned[rank]);
        let mut count = 0;
        for task in owned {
            if s.queued[task] {
                continue;
            }
            let lost = match s.mode {
                // Everything the dead rank ever touched is lost with
                // its private accumulators — unless another rank has
                // since re-owned the task.
                LeaseMode::Volatile => s.done[task] || s.owner[task] == Some(rank),
                // Completion is durable; only tasks still held at
                // death are lost.
                LeaseMode::Durable => s.owner[task] == Some(rank) && !s.done[task],
            };
            if lost {
                s.done[task] = false;
                s.owner[task] = None;
                s.queued[task] = true;
                s.reissue.push_back((task, rank));
                count += 1;
            }
        }
        s.reclaimed += count;
        count
    }

    /// Tasks of the current range marked complete.
    pub(crate) fn done(&self) -> usize {
        self.inner.lock().done.iter().filter(|&&d| d).count()
    }

    /// Total tasks reclaimed from dead ranks (cumulative across resets).
    pub(crate) fn reclaimed(&self) -> usize {
        self.inner.lock().reclaimed
    }

    /// Total claims served from the reissue queue — recovery retries
    /// performed by survivors (cumulative across resets).
    pub(crate) fn reissued_claims(&self) -> usize {
        self.inner.lock().reissued_claims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn plan_grammar_round_trips() {
        let p = FaultPlan::parse("42:kill@3,kill@1#2,kill*2,delay@2#5:20").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(
            p.specs(),
            &[
                FaultSpec::KillAtTask { task: 3 },
                FaultSpec::KillAtClaim { rank: 1, claim: 2 },
                FaultSpec::KillRandom { count: 2 },
                FaultSpec::Delay { rank: 2, claim: 5, millis: 20 },
            ]
        );
        assert_eq!(p.max_rank(), Some(2));
        assert_eq!(FaultPlan::parse("1:kill@9,kill*3").unwrap().max_rank(), None);
        assert_eq!(p.max_task(), Some(3));
        assert_eq!(FaultPlan::parse("1:kill@9,kill@2,kill*30").unwrap().max_task(), Some(9));
        assert_eq!(FaultPlan::parse("1:kill@0#1,delay@0#1:5").unwrap().max_task(), None);
        // Messages are not a fault target: the old edge specs are unknown.
        for spec in ["drop@0->1#1", "corrupt@1->0#1"] {
            let err = FaultPlan::parse(&format!("1:kill@3,{spec}")).expect_err(spec);
            assert_eq!(err, format!("unknown fault spec '{spec}'"));
        }
        assert_eq!(p.max_delay_ms(), Some(20));
        assert_eq!(
            FaultPlan::parse("1:delay@0#1:7,delay@1#1:90").unwrap().max_delay_ms(),
            Some(90)
        );
        assert_eq!(FaultPlan::parse("1:kill@9").unwrap().max_delay_ms(), None);
    }

    #[test]
    fn plan_rejects_malformed_specs() {
        assert!(FaultPlan::parse("no-seed").is_err());
        assert!(FaultPlan::parse("x:kill@3").is_err());
        assert!(FaultPlan::parse("1:exploded@3").is_err());
        assert!(FaultPlan::parse("1:delay@1#2").is_err());
        for spec in ["drop@0->1#1", "corrupt@1->0#1", "drop@0->1#0"] {
            let err = FaultPlan::parse(&format!("1:{spec}")).expect_err(spec);
            assert!(err.contains("unknown fault spec") && err.contains(spec), "{spec}: {err}");
        }
        // 1-based ordinals: a `#0` spec would never fire.
        for spec in ["1:kill@1#0", "1:delay@1#0:5"] {
            let err = FaultPlan::parse(spec).expect_err(spec);
            assert!(err.contains("'0'") && err.contains("from 1"), "{spec}: {err}");
        }
        // A task index is not an ordinal; a kill count of 0 kills nothing.
        assert!(FaultPlan::parse("1:kill@0").is_ok());
        let err = FaultPlan::parse("1:kill*0").expect_err("kill*0");
        assert!(err.contains("kill*0"), "{err}");
    }

    #[test]
    fn empty_spec_list_is_a_valid_plan() {
        let p = FaultPlan::parse("7:").unwrap();
        assert_eq!(p.seed, 7);
        assert!(p.specs().is_empty());
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..8 {
            assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        }
        let mut c = 43u64;
        assert_ne!(splitmix64(&mut a), splitmix64(&mut c));
    }

    #[test]
    fn barrier_releases_all_waiters() {
        let b = Arc::new(FtBarrier::new(4));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let b = Arc::clone(&b);
                scope.spawn(move || b.wait(Duration::from_secs(5)).unwrap());
            }
        });
    }

    #[test]
    fn barrier_wait_times_out_instead_of_hanging() {
        let b = FtBarrier::new(2);
        let err = b.wait(Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, CommError::Timeout { what: "barrier" });
        // The withdrawn arrival must not satisfy a later full barrier
        // prematurely: a fresh single wait still times out.
        let err = b.wait(Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, CommError::Timeout { what: "barrier" });
    }

    #[test]
    fn deregister_releases_current_waiters() {
        let b = Arc::new(FtBarrier::new(3));
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let b = Arc::clone(&b);
                scope.spawn(move || b.wait(Duration::from_secs(5)).unwrap());
            }
            // Give the two waiters time to arrive, then drop the third
            // participant: the remaining two must be released.
            std::thread::sleep(Duration::from_millis(30));
            b.deregister();
        });
        // Two participants remain: a pair completes the next generation.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let b = Arc::clone(&b);
                scope.spawn(move || b.wait(Duration::from_secs(5)).unwrap());
            }
        });
    }

    #[test]
    fn leases_issue_each_task_once_without_faults() {
        let t = TaskLeases::new(2);
        t.reset(3, LeaseMode::Volatile);
        let mut got = Vec::new();
        loop {
            match t.claim(0) {
                LeaseClaim::Task { task, reissued, .. } => {
                    assert!(!reissued);
                    got.push(task);
                    t.complete(task);
                }
                LeaseClaim::Exhausted => break,
                LeaseClaim::Pending => panic!("single claimer never sees Pending"),
            }
        }
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(t.reclaimed(), 0);
    }

    #[test]
    fn volatile_death_reissues_completed_and_held_tasks() {
        let t = TaskLeases::new(2);
        t.reset(4, LeaseMode::Volatile);
        // Rank 0 completes task 0, holds task 1. Rank 1 holds task 2.
        assert_eq!(t.claim(0), LeaseClaim::Task { task: 0, reissued: false, prev_owner: None });
        t.complete(0);
        assert_eq!(t.claim(0), LeaseClaim::Task { task: 1, reissued: false, prev_owner: None });
        assert_eq!(t.claim(1), LeaseClaim::Task { task: 2, reissued: false, prev_owner: None });
        // Rank 0 dies: both its tasks (0 completed, 1 held) are lost.
        assert_eq!(t.on_death(0), 2);
        assert_eq!(t.reclaimed(), 2);
        // Survivor drains reissued work first (each claim naming the
        // dead original claimant), then the fresh task.
        assert_eq!(t.claim(1), LeaseClaim::Task { task: 0, reissued: true, prev_owner: Some(0) });
        assert_eq!(t.claim(1), LeaseClaim::Task { task: 1, reissued: true, prev_owner: Some(0) });
        assert_eq!(t.claim(1), LeaseClaim::Task { task: 3, reissued: false, prev_owner: None });
        for task in [0, 1, 2, 3] {
            t.complete(task);
        }
        assert_eq!(t.claim(1), LeaseClaim::Exhausted);
        assert_eq!(t.reissued_claims(), 2);
    }

    #[test]
    fn durable_death_reissues_only_incomplete_tasks() {
        let t = TaskLeases::new(2);
        t.reset(3, LeaseMode::Durable);
        assert_eq!(t.claim(0), LeaseClaim::Task { task: 0, reissued: false, prev_owner: None });
        t.complete(0); // flushed — survives the death below
        assert_eq!(t.claim(0), LeaseClaim::Task { task: 1, reissued: false, prev_owner: None });
        assert_eq!(t.on_death(0), 1);
        assert_eq!(t.claim(1), LeaseClaim::Task { task: 1, reissued: true, prev_owner: Some(0) });
        t.complete(1);
        assert_eq!(t.claim(1), LeaseClaim::Task { task: 2, reissued: false, prev_owner: None });
        t.complete(2);
        assert_eq!(t.claim(1), LeaseClaim::Exhausted);
        assert_eq!(t.reclaimed(), 1);
    }

    #[test]
    fn pending_while_a_live_rank_holds_the_last_task() {
        let t = TaskLeases::new(2);
        t.reset(1, LeaseMode::Volatile);
        assert_eq!(t.claim(0), LeaseClaim::Task { task: 0, reissued: false, prev_owner: None });
        // Rank 1 must poll, not terminate: the task may yet fail back
        // into the reissue queue.
        assert_eq!(t.claim(1), LeaseClaim::Pending);
        t.complete(0);
        assert_eq!(t.claim(1), LeaseClaim::Exhausted);
    }

    #[test]
    fn double_death_does_not_reissue_twice() {
        let t = TaskLeases::new(3);
        t.reset(2, LeaseMode::Volatile);
        assert_eq!(t.claim(0), LeaseClaim::Task { task: 0, reissued: false, prev_owner: None });
        assert_eq!(t.on_death(0), 1);
        // Task 0 sits queued; a second death report for the same rank
        // (or a later one for a rank that never re-owned it) is a no-op.
        assert_eq!(t.on_death(0), 0);
        assert_eq!(t.claim(1), LeaseClaim::Task { task: 0, reissued: true, prev_owner: Some(0) });
        // Rank 1 dies too: task 0 is reissued again (its work died with
        // rank 1, which the new claim now names), exactly once.
        assert_eq!(t.on_death(1), 1);
        assert_eq!(t.claim(2), LeaseClaim::Task { task: 0, reissued: true, prev_owner: Some(1) });
        t.complete(0);
        assert_eq!(t.claim(2), LeaseClaim::Task { task: 1, reissued: false, prev_owner: None });
        t.complete(1);
        assert_eq!(t.claim(2), LeaseClaim::Exhausted);
        assert_eq!(t.reclaimed(), 2);
        assert_eq!(t.reissued_claims(), 2);
    }

    #[test]
    fn zero_task_range_is_immediately_exhausted() {
        let t = TaskLeases::new(1);
        t.reset(0, LeaseMode::Volatile);
        assert_eq!(t.claim(0), LeaseClaim::Exhausted);
    }
}
