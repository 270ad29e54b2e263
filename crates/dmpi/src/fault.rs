//! Deterministic fault injection and failure-aware primitives.
//!
//! At the paper's headline scale (3,000 KNL nodes / 192,000 cores) rank
//! failure and stragglers are routine operating conditions, not
//! exceptions. This module supplies the pieces a world needs to keep
//! producing correct results when ranks die mid-build:
//!
//! * [`FaultPlan`] — a seeded, deterministic schedule of injected faults
//!   (kill a rank at a DLB task, delay a straggler, drop or corrupt a
//!   point-to-point payload), parsed from a compact `"seed:spec,..."`
//!   grammar so a failing run is exactly reproducible from its CLI flag;
//! * [`CommError`] — typed communication errors that replace aborts, so
//!   a builder can observe "I am dead" or "a peer timed out" and unwind
//!   cleanly instead of poisoning the process;
//! * [`FtBarrier`] — a failure-aware barrier: waits time out instead of
//!   hanging forever, and a dying rank *deregisters* so survivors
//!   regroup immediately around the smaller world;
//! * [`TaskLeases`] — a lease table over the DLB task range: every claim
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
//!          | "drop@" <from> "->" <to> "#" <nth>     drop the <nth> message from->to
//!          | "corrupt@" <from> "->" <to> "#" <nth>  corrupt the <nth> message from->to
//! ```
//!
//! Example: `"42:kill@3,delay@1#5:20"` — seed 42, kill whoever claims
//! task 3, and make rank 1 sleep 20 ms on its fifth claim.
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
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// A typed communication failure. Replaces the panics/aborts that a
/// brittle world would raise, so callers can unwind and regroup.
///
/// The variants split into two severities (see
/// [`is_transient`](CommError::is_transient)): *transient* failures — a
/// dropped or corrupt message, a recoverable timeout — are expected to
/// drain into the retry/retransmit machinery of a [`RetryPolicy`],
/// while *fatal* failures — a dead caller, a failed peer, an exhausted
/// retry budget — escalate into the mark-dead / lease-reclaim path.
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
    /// A received payload failed its checksum.
    CorruptPayload {
        /// Sender of the damaged message.
        from: usize,
        /// Message tag.
        tag: u64,
    },
    /// A reliable send burned its whole retry budget without ever being
    /// acknowledged. Fatal: the peer is presumed dead or unreachable.
    RetriesExhausted {
        /// The unreachable destination rank.
        to: usize,
        /// Tag of the undeliverable message.
        tag: u64,
        /// How many transmission attempts were made.
        attempts: usize,
    },
}

impl CommError {
    /// True for failures a bounded retry is expected to absorb (lost or
    /// corrupt message, recoverable timeout); false for fatal ones
    /// (dead caller, failed peer, exhausted retry budget) that must
    /// escalate into the mark-dead / lease-reclaim path.
    pub fn is_transient(&self) -> bool {
        matches!(self, CommError::Timeout { .. } | CommError::CorruptPayload { .. })
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::SelfDead => write!(f, "calling rank is dead"),
            CommError::RankFailed { rank } => write!(f, "rank {rank} failed"),
            CommError::Timeout { what } => write!(f, "timed out waiting on {what}"),
            CommError::CorruptPayload { from, tag } => {
                write!(f, "corrupt payload from rank {from} (tag {tag})")
            }
            CommError::RetriesExhausted { to, tag, attempts } => {
                write!(f, "no ack from rank {to} after {attempts} attempts (tag {tag})")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Retry/backoff policy for the reliable message path and the
/// failure-aware waits of a world.
///
/// A reliable send transmits its payload with a per-edge sequence
/// number and waits [`ack_timeout`](RetryPolicy::ack_timeout) for the
/// receiver's ack; on a transient failure (ack lost, payload dropped or
/// corrupt in flight) it backs off deterministically and retransmits,
/// up to [`max_attempts`](RetryPolicy::max_attempts) total
/// transmissions. The backoff schedule is a pure function of
/// `(seed, edge, attempt)` — no wall-clock or entropy reads — so a
/// faulted run replays identically and virtual-time harnesses can
/// precompute every sleep.
///
/// The policy also owns the world's failure-aware wait deadlines
/// ([`ft_timeout`](RetryPolicy::ft_timeout) for barriers and lease
/// polls, [`recv_timeout`](RetryPolicy::recv_timeout) for blocking
/// receives), replacing the hard-coded 30 s / 60 s constants that
/// fault tests previously depended on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total transmission attempts per reliable message (>= 1). `1`
    /// disables the ack/retransmit protocol entirely — see
    /// [`RetryPolicy::none`].
    pub max_attempts: usize,
    /// How long a sender waits for an ack before retransmitting.
    pub ack_timeout: Duration,
    /// Backoff before the first retransmission.
    pub backoff_base: Duration,
    /// Multiplier applied to the backoff per further retransmission.
    pub backoff_factor: u32,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Deadline for failure-aware barriers and the lease poll loop:
    /// long enough that it only fires on a genuine hang, short enough
    /// that a wedged run still terminates with a diagnosis.
    pub ft_timeout: Duration,
    /// How long a blocking receive waits before concluding the message
    /// will never arrive.
    pub recv_timeout: Duration,
}

impl Default for RetryPolicy {
    /// Reliable delivery with a small retry budget and the legacy wait
    /// deadlines (30 s barrier/lease, 60 s receive).
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            ack_timeout: Duration::from_millis(200),
            backoff_base: Duration::from_millis(2),
            backoff_factor: 2,
            backoff_cap: Duration::from_millis(50),
            seed: 0x9E37_79B9_7F4A_7C15,
            ft_timeout: Duration::from_secs(30),
            recv_timeout: Duration::from_secs(60),
        }
    }
}

impl RetryPolicy {
    /// No reliability layer at all: single transmission, no acks, no
    /// retransmits — the raw fire-and-forget semantics of the legacy
    /// message path. The A/B baseline for overhead benchmarks.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// Whether the ack/retransmit protocol is active.
    pub fn reliable(&self) -> bool {
        self.max_attempts > 1
    }

    /// Set both failure-aware wait deadlines (barrier/lease and
    /// receive) to `timeout` — the `--comm-timeout-ms` CLI knob.
    pub fn with_comm_timeout(mut self, timeout: Duration) -> Self {
        self.ft_timeout = timeout;
        self.recv_timeout = timeout;
        self
    }

    /// Backoff before retransmission number `retry` (1-based) on the
    /// `from -> to` edge: exponential in `retry`, capped, with a
    /// deterministic jitter of up to half the step derived from
    /// `(seed, edge, retry)`. Pure function — identical across replays.
    pub fn backoff_for(&self, from: usize, to: usize, retry: usize) -> Duration {
        let base = self.backoff_base.as_nanos() as u64;
        let factor = u64::from(self.backoff_factor.max(1));
        let mut step = base;
        for _ in 1..retry {
            step = step.saturating_mul(factor);
        }
        let mut state = self
            .seed
            .wrapping_add((from as u64) << 32)
            .wrapping_add(to as u64)
            .wrapping_add((retry as u64) << 48);
        let jitter = if step == 0 { 0 } else { splitmix64(&mut state) % (step / 2 + 1) };
        Duration::from_nanos(step.saturating_add(jitter)).min(self.backoff_cap)
    }
}

/// One injected fault from a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Kill whichever rank claims global task `task` (fires once).
    KillAtTask {
        /// Global DLB task index that is fatal to claim.
        task: usize,
    },
    /// Kill rank `rank` when it makes its `claim`-th successful claim
    /// (1-based).
    KillAtClaim {
        /// Rank to kill.
        rank: usize,
        /// 1-based successful-claim ordinal at which it dies.
        claim: usize,
    },
    /// Kill at `count` seed-chosen distinct task indices (resolved once
    /// the task range is known).
    KillRandom {
        /// How many distinct fatal task indices to choose.
        count: usize,
    },
    /// Make rank `rank` sleep `millis` ms on its `claim`-th claim.
    Delay {
        /// Straggling rank.
        rank: usize,
        /// 1-based claim ordinal on which to sleep.
        claim: usize,
        /// Sleep duration in milliseconds.
        millis: u64,
    },
    /// Silently drop the `nth` (1-based) message from `from` to `to`.
    DropMessage {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// 1-based message ordinal on the (from, to) edge.
        nth: usize,
    },
    /// Corrupt the payload of the `nth` (1-based) message from `from`
    /// to `to`; the receiver detects it by checksum.
    CorruptMessage {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// 1-based message ordinal on the (from, to) edge.
        nth: usize,
    },
}

/// A deterministic, seeded schedule of injected faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for any randomized choices (e.g. [`FaultSpec::KillRandom`]).
    pub seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given seed; add faults with the builder
    /// methods or use [`FaultPlan::parse`].
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, specs: Vec::new() }
    }

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
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Parse the `"seed:spec,spec,..."` grammar (see module docs).
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let (seed_str, rest) =
            text.split_once(':').ok_or_else(|| format!("fault plan '{text}' needs 'seed:spec'"))?;
        let seed: u64 = seed_str.parse().map_err(|_| format!("bad fault seed '{seed_str}'"))?;
        let mut plan = FaultPlan::new(seed);
        for spec in rest.split(',').filter(|s| !s.is_empty()) {
            plan.specs.push(parse_spec(spec)?);
        }
        Ok(plan)
    }
}

fn parse_usize(s: &str, what: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("bad {what} '{s}'"))
}

fn parse_edge(body: &str, kind: &str) -> Result<(usize, usize, usize), String> {
    let (edge, nth) =
        body.split_once('#').ok_or_else(|| format!("{kind} needs '<from>-><to>#<nth>'"))?;
    let (from, to) =
        edge.split_once("->").ok_or_else(|| format!("{kind} needs '<from>-><to>#<nth>'"))?;
    Ok((parse_usize(from, "rank")?, parse_usize(to, "rank")?, parse_usize(nth, "message index")?))
}

fn parse_spec(spec: &str) -> Result<FaultSpec, String> {
    if let Some(body) = spec.strip_prefix("kill@") {
        return if let Some((rank, claim)) = body.split_once('#') {
            Ok(FaultSpec::KillAtClaim {
                rank: parse_usize(rank, "rank")?,
                claim: parse_usize(claim, "claim index")?,
            })
        } else {
            Ok(FaultSpec::KillAtTask { task: parse_usize(body, "task index")? })
        };
    }
    if let Some(body) = spec.strip_prefix("kill*") {
        return Ok(FaultSpec::KillRandom { count: parse_usize(body, "kill count")? });
    }
    if let Some(body) = spec.strip_prefix("delay@") {
        let (rank_claim, ms) =
            body.split_once(':').ok_or("delay needs '<rank>#<claim>:<millis>'")?;
        let (rank, claim) =
            rank_claim.split_once('#').ok_or("delay needs '<rank>#<claim>:<millis>'")?;
        return Ok(FaultSpec::Delay {
            rank: parse_usize(rank, "rank")?,
            claim: parse_usize(claim, "claim index")?,
            millis: ms.parse().map_err(|_| format!("bad delay millis '{ms}'"))?,
        });
    }
    if let Some(body) = spec.strip_prefix("drop@") {
        let (from, to, nth) = parse_edge(body, "drop")?;
        return Ok(FaultSpec::DropMessage { from, to, nth });
    }
    if let Some(body) = spec.strip_prefix("corrupt@") {
        let (from, to, nth) = parse_edge(body, "corrupt")?;
        return Ok(FaultSpec::CorruptMessage { from, to, nth });
    }
    Err(format!("unknown fault spec '{spec}'"))
}

/// The fault and reliable-delivery ledger of one communication layer: a
/// world's rank messages, one DDI window's request link, or — summed with
/// `+=` — everything a Fock build ran on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Faults actually injected: rank kills and stragglers (a world only),
    /// dropped and corrupted transmissions.
    pub faults_injected: u64,
    /// Payload retransmissions (attempts after the first).
    pub retransmits: u64,
    /// Acks sent by receivers, re-acks of deduplicated duplicates
    /// included; on a window link, requests the owner acknowledged.
    pub acks: u64,
    /// Payloads discarded after failing checksum verification.
    pub corruptions_detected: u64,
    /// Reliable operations that succeeded after >= 1 transient fault.
    pub transient_recoveries: u64,
}

impl std::ops::AddAssign for CommStats {
    fn add_assign(&mut self, other: CommStats) {
        self.faults_injected += other.faults_injected;
        self.retransmits += other.retransmits;
        self.acks += other.acks;
        self.corruptions_detected += other.corruptions_detected;
        self.transient_recoveries += other.transient_recoveries;
    }
}

/// What an injected edge fault does to the transmission it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EdgeFault {
    /// The transmission never arrives.
    Drop,
    /// The payload arrives damaged and fails its checksum.
    Corrupt,
}

struct EdgeState {
    /// Transmissions so far per `(from, to)` edge.
    sent: HashMap<(usize, usize), usize>,
    /// Scheduled `(from, to, nth, fault)`, removed as they fire.
    pending: Vec<(usize, usize, usize, EdgeFault)>,
}

/// The `drop@`/`corrupt@` specs of a [`FaultPlan`] over one space of
/// directed edges (a world's rank messages, or one window's requests):
/// counts physical transmissions per edge and fires each spec once, on the
/// 1-based ordinal it names.
pub(crate) struct EdgeFaults(Mutex<EdgeState>);

impl EdgeFaults {
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        let pending = plan
            .specs()
            .iter()
            .filter_map(|spec| match *spec {
                FaultSpec::DropMessage { from, to, nth } => Some((from, to, nth, EdgeFault::Drop)),
                FaultSpec::CorruptMessage { from, to, nth } => {
                    Some((from, to, nth, EdgeFault::Corrupt))
                }
                _ => None, // kills and delays key on lease claims, not edges
            })
            .collect();
        EdgeFaults(Mutex::new(EdgeState { sent: HashMap::new(), pending }))
    }

    /// Count one transmission on `from -> to` and return the fault
    /// scheduled for it. A drop and a corruption of the same transmission
    /// are a drop: a message that never arrives has nothing to corrupt.
    pub(crate) fn fire(&self, from: usize, to: usize) -> Option<EdgeFault> {
        let mut guard = self.0.lock();
        let EdgeState { sent, pending } = &mut *guard;
        let nth = sent.entry((from, to)).or_insert(0);
        *nth += 1;
        let scheduled = |fault| pending.iter().position(|&f| f == (from, to, *nth, fault));
        let hit = scheduled(EdgeFault::Drop).or_else(|| scheduled(EdgeFault::Corrupt))?;
        Some(pending.swap_remove(hit).3)
    }
}

/// SplitMix64 step: the deterministic PRNG behind seeded fault choices
/// and payload checksums. Small, dependency-free, and good enough for
/// reproducible test schedules.
pub fn splitmix64(state: &mut u64) -> u64 {
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
pub struct FtBarrier {
    state: StdMutex<BarrierState>,
    cv: Condvar,
}

impl FtBarrier {
    /// Barrier over `n` participants.
    pub fn new(n: usize) -> Self {
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
    pub fn wait(&self, timeout: Duration) -> Result<(), CommError> {
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

    /// Register an arrival without blocking. Returns `None` if this
    /// arrival completed the barrier (waiters are released), otherwise
    /// the generation token to poll with
    /// [`wait_released`](FtBarrier::wait_released) /
    /// [`withdraw`](FtBarrier::withdraw). This split lets a rank keep
    /// servicing its message channel (acking peers' retransmissions)
    /// while parked at a barrier — without progress there, a peer whose
    /// ack was lost would retransmit into silence forever.
    pub fn arrive(&self) -> Option<u64> {
        let mut s = self.lock();
        s.arrived += 1;
        if s.arrived >= s.expected {
            s.arrived = 0;
            s.generation = s.generation.wrapping_add(1);
            self.cv.notify_all();
            None
        } else {
            Some(s.generation)
        }
    }

    /// Block up to `timeout` for generation `gen` to complete; true if
    /// it has (the caller's pending arrival is consumed by the
    /// release), false on timeout (the arrival still stands).
    pub fn wait_released(&self, gen: u64, timeout: Duration) -> bool {
        let mut s = self.lock();
        if s.generation != gen {
            return true;
        }
        let (guard, _timed_out) =
            self.cv.wait_timeout(s, timeout).unwrap_or_else(|e| e.into_inner());
        s = guard;
        s.generation != gen
    }

    /// Withdraw a pending arrival registered by
    /// [`arrive`](FtBarrier::arrive) (a caller giving up). Returns
    /// false if generation `gen` already completed — the arrival was
    /// consumed and there is nothing to withdraw.
    pub fn withdraw(&self, gen: u64) -> bool {
        let mut s = self.lock();
        if s.generation != gen {
            return false;
        }
        s.arrived = s.arrived.saturating_sub(1);
        true
    }

    /// Permanently remove one participant (a dying rank). If the
    /// remaining waiters now satisfy the barrier, they are released.
    pub fn deregister(&self) {
        let mut s = self.lock();
        s.expected = s.expected.saturating_sub(1);
        if s.expected > 0 && s.arrived >= s.expected {
            s.arrived = 0;
            s.generation = s.generation.wrapping_add(1);
            self.cv.notify_all();
        }
    }

    /// Current number of registered participants.
    pub fn expected(&self) -> usize {
        self.lock().expected
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
pub enum LeaseClaim {
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
pub struct TaskLeases {
    inner: Mutex<LeaseState>,
}

impl TaskLeases {
    /// Empty table for a world of `n_ranks` ranks; call
    /// [`reset`](TaskLeases::reset) before claiming.
    pub fn new(n_ranks: usize) -> Self {
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
    pub fn reset(&self, n_tasks: usize, mode: LeaseMode) {
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
    pub fn claim(&self, rank: usize) -> LeaseClaim {
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
    pub fn complete(&self, task: usize) {
        let mut s = self.inner.lock();
        s.owner[task] = None;
        s.done[task] = true;
    }

    /// Reclaim the dead rank's lost tasks per the table's
    /// [`LeaseMode`]; returns how many were queued for reissue.
    pub fn on_death(&self, rank: usize) -> usize {
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

    /// True once every task in the current range is complete.
    pub fn all_complete(&self) -> bool {
        let s = self.inner.lock();
        s.done.iter().all(|&d| d)
    }

    /// Total tasks reclaimed from dead ranks (cumulative across resets).
    pub fn reclaimed(&self) -> usize {
        self.inner.lock().reclaimed
    }

    /// Total claims served from the reissue queue — recovery retries
    /// performed by survivors (cumulative across resets).
    pub fn reissued_claims(&self) -> usize {
        self.inner.lock().reissued_claims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn plan_grammar_round_trips() {
        let p =
            FaultPlan::parse("42:kill@3,kill@1#2,kill*2,delay@1#5:20,drop@0->2#1,corrupt@2->0#3")
                .unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(
            p.specs(),
            &[
                FaultSpec::KillAtTask { task: 3 },
                FaultSpec::KillAtClaim { rank: 1, claim: 2 },
                FaultSpec::KillRandom { count: 2 },
                FaultSpec::Delay { rank: 1, claim: 5, millis: 20 },
                FaultSpec::DropMessage { from: 0, to: 2, nth: 1 },
                FaultSpec::CorruptMessage { from: 2, to: 0, nth: 3 },
            ]
        );
    }

    #[test]
    fn plan_rejects_malformed_specs() {
        assert!(FaultPlan::parse("no-seed").is_err());
        assert!(FaultPlan::parse("x:kill@3").is_err());
        assert!(FaultPlan::parse("1:exploded@3").is_err());
        assert!(FaultPlan::parse("1:delay@1#2").is_err());
        assert!(FaultPlan::parse("1:drop@0#1").is_err());
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
        assert_eq!(b.expected(), 2);
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
        assert!(t.all_complete());
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
        assert!(t.all_complete());
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
        assert!(t.all_complete());
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
        assert!(t.all_complete());
        assert_eq!(t.reclaimed(), 2);
        assert_eq!(t.reissued_claims(), 2);
    }

    #[test]
    fn taxonomy_splits_transient_from_fatal() {
        assert!(CommError::Timeout { what: "ack" }.is_transient());
        assert!(CommError::CorruptPayload { from: 0, tag: 1 }.is_transient());
        assert!(!CommError::SelfDead.is_transient());
        assert!(!CommError::RankFailed { rank: 2 }.is_transient());
        assert!(!CommError::RetriesExhausted { to: 1, tag: 9, attempts: 4 }.is_transient());
    }

    #[test]
    fn backoff_is_deterministic_capped_and_grows() {
        let p = RetryPolicy::default();
        for retry in 1..=6 {
            assert_eq!(p.backoff_for(0, 1, retry), p.backoff_for(0, 1, retry), "replayable");
            assert!(p.backoff_for(0, 1, retry) <= p.backoff_cap);
        }
        // Pre-cap the schedule is non-decreasing in the retry number.
        assert!(p.backoff_for(2, 3, 1) >= p.backoff_base);
        assert!(p.backoff_for(2, 3, 2) >= p.backoff_for(2, 3, 1).min(p.backoff_cap / 2));
        // Different edges jitter differently (with overwhelming probability).
        assert_ne!(p.backoff_for(0, 1, 1), p.backoff_for(1, 0, 1));
    }

    #[test]
    fn none_policy_disables_reliability() {
        assert!(!RetryPolicy::none().reliable());
        assert!(RetryPolicy::default().reliable());
        let p = RetryPolicy::default().with_comm_timeout(Duration::from_millis(750));
        assert_eq!(p.ft_timeout, Duration::from_millis(750));
        assert_eq!(p.recv_timeout, Duration::from_millis(750));
    }

    #[test]
    fn zero_task_range_is_immediately_exhausted() {
        let t = TaskLeases::new(1);
        t.reset(0, LeaseMode::Volatile);
        assert_eq!(t.claim(0), LeaseClaim::Exhausted);
        assert!(t.all_complete());
    }
}
