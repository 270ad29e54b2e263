//! SPMD worlds: spawning ranks, barriers, point-to-point messages and
//! collectives — with optional deterministic fault injection.
//!
//! A world started with a [`FaultPlan`] (via [`run_world_with_config`])
//! kills ranks and delays stragglers exactly where the plan says. A
//! message is one channel send, delivered as MPI delivers it. The
//! failure-aware primitives ([`Rank::lease_next`], [`Rank::ft_barrier`],
//! [`Rank::try_gsumf`]) let survivors regroup and finish the computation.

use crate::fault::{
    splitmix64, CommError, FaultPlan, FaultSpec, FtBarrier, LeaseClaim, LeaseMode, RetryPolicy,
    TaskLeases,
};
use crate::sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Back-off between lease polls while another live rank holds the last
/// outstanding tasks.
const LEASE_POLL: Duration = Duration::from_micros(50);

/// Reserved tag for the reduction messages of [`Rank::try_gsumf`].
const TAG_REDUCE: u64 = u64::MAX - 3;
/// Reserved tag for the broadcast messages of [`Rank::try_gsumf`].
const TAG_BCAST: u64 = u64::MAX - 4;

/// A tagged point-to-point message.
struct Message {
    from: usize,
    tag: u64,
    data: Vec<f64>,
}

struct KillTask {
    task: usize,
    fired: bool,
}

struct ClaimKill {
    rank: usize,
    claim: usize,
    fired: bool,
}

/// Per-world interpreter of a [`FaultPlan`]: tracks which scheduled
/// faults have fired and the per-rank ordinals they key on.
struct FaultRuntime {
    seed: u64,
    kill_tasks: Mutex<Vec<KillTask>>,
    random_kill_count: usize,
    random_resolved: AtomicBool,
    claim_kills: Mutex<Vec<ClaimKill>>,
    delays: Vec<(usize, usize, u64)>,
    /// Kills and stragglers that fired.
    injected: AtomicU64,
    /// Successful lease claims made by each rank (1-based ordinals).
    claims: Vec<AtomicUsize>,
}

impl FaultRuntime {
    fn new(plan: &FaultPlan, n_ranks: usize) -> Self {
        let mut kill_tasks = Vec::new();
        let mut claim_kills = Vec::new();
        let mut delays = Vec::new();
        let mut random_kill_count = 0;
        for spec in plan.specs() {
            match *spec {
                FaultSpec::KillAtTask { task } => kill_tasks.push(KillTask { task, fired: false }),
                FaultSpec::KillAtClaim { rank, claim } => {
                    claim_kills.push(ClaimKill { rank, claim, fired: false })
                }
                FaultSpec::KillRandom { count } => random_kill_count += count,
                FaultSpec::Delay { rank, claim, millis } => delays.push((rank, claim, millis)),
            }
        }
        FaultRuntime {
            seed: plan.seed,
            kill_tasks: Mutex::new(kill_tasks),
            random_kill_count,
            random_resolved: AtomicBool::new(false),
            claim_kills: Mutex::new(claim_kills),
            delays,
            injected: AtomicU64::new(0),
            claims: (0..n_ranks).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Turn `kill*K` specs into concrete fatal task indices once the
    /// task range is known. Runs once per world (the first lease reset).
    fn resolve_random_kills(&self, n_tasks: usize) {
        if self.random_kill_count == 0 || n_tasks == 0 {
            return;
        }
        if self.random_resolved.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut state = self.seed;
        let mut chosen: Vec<usize> = Vec::new();
        let want = self.random_kill_count.min(n_tasks);
        while chosen.len() < want {
            let t = (splitmix64(&mut state) % n_tasks as u64) as usize;
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        let mut kills = self.kill_tasks.lock();
        kills.extend(chosen.into_iter().map(|task| KillTask { task, fired: false }));
    }

    fn delay_for(&self, rank: usize, claim: usize) -> Option<u64> {
        self.delays.iter().find(|&&(r, c, _)| r == rank && c == claim).map(|&(_, _, ms)| ms)
    }

    /// Check (and mark fired) any kill scheduled for this claim. Kills
    /// are suppressed — but still marked fired — when the victim is the
    /// last live rank, so a plan can never extinguish the whole world.
    /// "May I die" and "I am out of the live count" are one compare-and-
    /// swap on `live`: of two ranks that reach their kills together with
    /// two alive, exactly one is granted. On `true` the caller owes the
    /// ledger entry and the rest of the death ([`Rank::die`]).
    fn check_kill(&self, rank: usize, claim: usize, task: usize, live: &AtomicUsize) -> bool {
        let mut matched = false;
        {
            let mut kills = self.kill_tasks.lock();
            for k in kills.iter_mut() {
                if !k.fired && k.task == task {
                    k.fired = true;
                    matched = true;
                }
            }
        }
        {
            let mut kills = self.claim_kills.lock();
            for k in kills.iter_mut() {
                if !k.fired && k.rank == rank && k.claim == claim {
                    k.fired = true;
                    matched = true;
                }
            }
        }
        matched
            && live
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| (n > 1).then(|| n - 1))
                .is_ok()
    }
}

/// State shared by every rank of a world.
struct WorldShared {
    n_ranks: usize,
    barrier: FtBarrier,
    /// Lease claims made (`ddi_dlbnext` calls), Exhausted probes included.
    dlb_calls: AtomicUsize,
    leases: TaskLeases,
    /// Liveness flags; a rank marked dead has deregistered from the
    /// barrier and abandoned its task leases.
    alive: Vec<AtomicBool>,
    /// Number of ranks alive. A dying rank leaves this count first and
    /// clears its flag second, so the count is what decides whether a
    /// kill would extinguish the world.
    live: AtomicUsize,
    /// Ranks that died, with reasons, in order of death.
    failures: Mutex<Vec<(usize, String)>>,
    faults: Option<FaultRuntime>,
    /// Deadline of the failure-aware waits.
    retry: RetryPolicy,
}

/// Handle a rank's SPMD closure receives. Not `Clone` — exactly one per
/// rank, like an MPI communicator's view of `MPI_COMM_WORLD`.
pub struct Rank {
    id: usize,
    shared: Arc<WorldShared>,
    senders: Vec<Sender<Message>>,
    /// Wrapped in a mutex so `Rank` stays `Sync` with the std mpsc receiver
    /// (p2p calls are one-rank operations; the lock is uncontended).
    receiver: Mutex<Receiver<Message>>,
    /// Messages received but not yet matched by a `recv` call.
    /// Mutex (not RefCell) so a `Rank` can be shared with an OpenMP-style
    /// thread team; p2p calls themselves remain one-rank operations.
    stash: Mutex<VecDeque<Message>>,
}

/// Everything a finished world returns: per-rank results plus the lease
/// and fault/recovery summary.
pub struct WorldResult<R> {
    /// One entry per rank, in rank order (dead ranks return whatever
    /// their closure produced on the error path).
    pub per_rank: Vec<R>,
    /// Tasks of the world's last lease range marked complete when it
    /// finished. A caller that leased `n` tasks got them all done only if
    /// this reads `n`: it reads 0 when no rank got through
    /// [`Rank::lease_reset`] (every one gave up on a timed-out barrier),
    /// and a dead rank's reclaimed tasks count once they are redone.
    pub tasks_done: usize,
    /// Total DLB counter calls (including lease claims).
    pub dlb_calls: usize,
    /// Ranks that died mid-run, with reasons, in order of death.
    pub failures: Vec<(usize, String)>,
    /// Tasks reclaimed from dead ranks and queued for reissue.
    pub tasks_reclaimed: usize,
    /// Lease claims served from the reissue queue — recovery work
    /// re-executed by survivors.
    pub lease_retries: usize,
    /// Faults the plan injected: rank kills and stragglers (zero without
    /// a fault plan).
    pub faults_injected: u64,
}

impl<R> WorldResult<R> {
    /// Ids of the ranks that died, in order of death.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.failures.iter().map(|&(r, _)| r).collect()
    }
}

/// Full configuration of a world: rank count, optional fault plan, and
/// the deadline of its failure-aware waits.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of SPMD ranks to spawn.
    pub n_ranks: usize,
    /// Optional deterministic fault schedule.
    pub faults: Option<FaultPlan>,
    /// Deadline of barriers, lease polls and receives.
    pub retry: RetryPolicy,
}

/// Run an SPMD function over `n_ranks` ranks (each on its own OS thread)
/// with no fault plan and the default [`RetryPolicy`], and collect their
/// results.
pub fn run_world<R, F>(n_ranks: usize, f: F) -> WorldResult<R>
where
    R: Send,
    F: Fn(&Rank) -> R + Sync,
{
    run_world_with_config(WorldConfig { n_ranks, faults: None, retry: RetryPolicy::default() }, f)
}

/// Run an SPMD function over a fully specified [`WorldConfig`]. If any
/// rank's closure panics, the world still joins every thread and then
/// reports *which* ranks panicked and why, instead of a bare double
/// panic.
pub fn run_world_with_config<R, F>(config: WorldConfig, f: F) -> WorldResult<R>
where
    R: Send,
    F: Fn(&Rank) -> R + Sync,
{
    let WorldConfig { n_ranks, faults, retry } = config;
    assert!(n_ranks >= 1);
    let shared = Arc::new(WorldShared {
        n_ranks,
        barrier: FtBarrier::new(n_ranks),
        dlb_calls: AtomicUsize::new(0),
        leases: TaskLeases::new(n_ranks),
        alive: (0..n_ranks).map(|_| AtomicBool::new(true)).collect(),
        live: AtomicUsize::new(n_ranks),
        failures: Mutex::new(Vec::new()),
        faults: faults.as_ref().map(|p| FaultRuntime::new(p, n_ranks)),
        retry,
    });
    let mut senders = Vec::with_capacity(n_ranks);
    let mut receivers = Vec::with_capacity(n_ranks);
    for _ in 0..n_ranks {
        let (s, r) = channel();
        senders.push(s);
        receivers.push(r);
    }
    let ranks: Vec<Rank> = receivers
        .into_iter()
        .enumerate()
        .map(|(id, receiver)| Rank {
            id,
            shared: shared.clone(),
            senders: senders.clone(),
            receiver: Mutex::new(receiver),
            stash: Mutex::new(VecDeque::new()),
        })
        .collect();

    let per_rank = std::thread::scope(|scope| {
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|rank| {
                let f = &f;
                scope.spawn(move || {
                    phi_trace::set_rank(rank.id as u32);
                    f(&rank)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n_ranks);
        let mut panics: Vec<(usize, String)> = Vec::new();
        for (id, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(r) => out.push(r),
                Err(payload) => panics.push((id, panic_message(payload))),
            }
        }
        if !panics.is_empty() {
            let detail: Vec<String> =
                panics.iter().map(|(id, msg)| format!("rank {id}: {msg}")).collect();
            panic!("{} of {n_ranks} ranks panicked — {}", panics.len(), detail.join("; "));
        }
        out
    });

    // World-global counters, emitted once per world so trace totals
    // reconcile exactly with the WorldResult fields below.
    let dlb_calls = shared.dlb_calls.load(Ordering::Relaxed);
    phi_trace::counter("dlb.calls", dlb_calls as u64);
    phi_trace::counter("tasks.reclaimed", shared.leases.reclaimed() as u64);
    let faults_injected =
        shared.faults.as_ref().map_or(0, |fr| fr.injected.load(Ordering::Relaxed));

    let failures = shared.failures.lock().clone();
    WorldResult {
        per_rank,
        tasks_done: shared.leases.done(),
        dlb_calls,
        failures,
        tasks_reclaimed: shared.leases.reclaimed(),
        lease_retries: shared.leases.reissued_claims(),
        faults_injected,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Rank {
    pub fn rank(&self) -> usize {
        self.id
    }

    // ----------------------------------------------------- liveness -----

    /// Whether this rank is still alive (i.e. not killed by fault
    /// injection).
    pub fn alive(&self) -> bool {
        self.shared.alive[self.id].load(Ordering::SeqCst)
    }

    /// Whether fault injection is active in this world. Builders use
    /// this to pick recovery-friendly settings (e.g. flush cadence).
    pub fn faults_enabled(&self) -> bool {
        self.shared.faults.is_some()
    }

    /// True if this rank is the lowest-ranked survivor — the coordinator
    /// role that falls back from rank 0 when rank 0 dies.
    pub fn is_lowest_live(&self) -> bool {
        self.alive() && (0..self.id).all(|r| !self.shared.alive[r].load(Ordering::SeqCst))
    }

    /// Mark this rank dead, whatever the number of survivors (a fatal
    /// communication error leaves no choice).
    fn mark_dead(&self, reason: String) {
        if self.alive() {
            self.shared.live.fetch_sub(1, Ordering::SeqCst);
            self.die(reason);
        }
    }

    /// The death of a rank that has already left the live count: record
    /// the reason, hand its task leases back for reissue, and deregister
    /// from the world barrier so survivors regroup instead of
    /// deadlocking.
    fn die(&self, reason: String) {
        self.shared.alive[self.id].store(false, Ordering::SeqCst);
        phi_trace::instant("rank.died", self.id as u64);
        self.shared.failures.lock().push((self.id, reason));
        self.shared.leases.on_death(self.id);
        self.shared.barrier.deregister();
    }

    // ------------------------------------------------------ barriers ----

    /// Failure-aware world barrier: only live ranks participate, a dead
    /// caller errors immediately, and a wedged barrier times out (after
    /// the [`RetryPolicy`] timeout) instead of hanging forever. A plain
    /// wait suffices: a rank only dies inside its own calls, and a sender
    /// never waits on its receiver, so no peer needs this rank to make
    /// progress while it is parked.
    pub fn ft_barrier(&self) -> Result<(), CommError> {
        if !self.alive() {
            return Err(CommError::SelfDead);
        }
        let _span = phi_trace::span("mpi.barrier");
        self.shared.barrier.wait(self.shared.retry.timeout)
    }

    // -------------------------------------------------- task leases -----

    /// Collective reset of the lease table over `0..n_tasks`. Call from
    /// every live rank.
    pub fn lease_reset(&self, n_tasks: usize, mode: LeaseMode) -> Result<(), CommError> {
        self.ft_barrier()?;
        if self.is_lowest_live() {
            self.shared.leases.reset(n_tasks, mode);
            if let Some(fr) = &self.shared.faults {
                fr.resolve_random_kills(n_tasks);
            }
        }
        self.ft_barrier()?;
        Ok(())
    }

    /// Claim the next task lease (the failure-aware `ddi_dlbnext`).
    ///
    /// `Ok(Some(task))` leases a task to this rank — fresh work or a
    /// reissued task reclaimed from a dead rank. `Ok(None)` means every
    /// task is complete (not merely handed out): while outstanding tasks
    /// are leased to other live ranks this call polls, because those
    /// tasks may yet fail back into the reissue queue. Scheduled faults
    /// (kills, delays) fire here, after the claim succeeds, so a killed
    /// rank always dies holding a lease that survivors must reclaim.
    pub fn lease_next(&self) -> Result<Option<usize>, CommError> {
        if !self.alive() {
            return Err(CommError::SelfDead);
        }
        // DLB wait: claim-lock contention plus any Pending polling until
        // a task (or exhaustion) arrives — the paper's idle-time metric.
        let _span = phi_trace::span("dlb.wait");
        let deadline = Instant::now() + self.shared.retry.timeout;
        loop {
            match self.shared.leases.claim(self.id) {
                LeaseClaim::Task { task, reissued, prev_owner } => {
                    if reissued {
                        // aux names the original (dead) claimant so
                        // recovery work is attributable in the trace.
                        phi_trace::instant_with(
                            "task.reissued",
                            task as u64,
                            prev_owner.map_or(u64::MAX, |r| r as u64),
                        );
                    }
                    self.shared.dlb_calls.fetch_add(1, Ordering::Relaxed);
                    if let Some(fr) = &self.shared.faults {
                        let claim_no = fr.claims[self.id].fetch_add(1, Ordering::SeqCst) + 1;
                        if let Some(ms) = fr.delay_for(self.id, claim_no) {
                            fr.injected.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(ms));
                        }
                        if fr.check_kill(self.id, claim_no, task, &self.shared.live) {
                            fr.injected.fetch_add(1, Ordering::Relaxed);
                            self.die(format!(
                                "fault injection: killed holding task {task} (claim #{claim_no})"
                            ));
                            return Err(CommError::SelfDead);
                        }
                    }
                    return Ok(Some(task));
                }
                LeaseClaim::Exhausted => {
                    self.shared.dlb_calls.fetch_add(1, Ordering::Relaxed);
                    return Ok(None);
                }
                LeaseClaim::Pending => {
                    if Instant::now() >= deadline {
                        return Err(CommError::Timeout { what: "task lease" });
                    }
                    std::thread::sleep(LEASE_POLL);
                }
            }
        }
    }

    /// Mark a leased task complete. For [`LeaseMode::Volatile`] this
    /// still only durably counts while this rank stays alive.
    pub fn lease_complete(&self, task: usize) {
        self.shared.leases.complete(task);
    }

    // ---------------------------------------------------------- p2p -----

    /// Tagged send to `dest`: one channel send.
    fn send(&self, dest: usize, tag: u64, data: &[f64]) -> Result<(), CommError> {
        if !self.alive() {
            return Err(CommError::SelfDead);
        }
        self.senders[dest]
            .send(Message { from: self.id, tag, data: data.to_vec() })
            .map_err(|_| CommError::RankFailed { rank: dest })
    }

    /// Receive the message matching `(from, tag)`, waiting at most the
    /// [`RetryPolicy`] timeout. Unmatched messages are stashed for later
    /// calls, so tagged out-of-order delivery works, and a message that
    /// never arrives returns [`CommError::Timeout`] instead of hanging.
    fn recv(&self, from: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        {
            let mut stash = self.stash.lock();
            if let Some(pos) = stash.iter().position(|m| m.from == from && m.tag == tag) {
                return Ok(stash.remove(pos).expect("position is valid").data);
            }
        }
        let deadline = Instant::now() + self.shared.retry.timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            // This rank holds a sender to itself, so the channel never
            // disconnects: every error is the deadline.
            let msg = self
                .receiver
                .lock()
                .recv_timeout(remaining)
                .map_err(|_| CommError::Timeout { what: "recv" })?;
            if msg.from == from && msg.tag == tag {
                return Ok(msg.data);
            }
            self.stash.lock().push_back(msg);
        }
    }

    // --------------------------------------------------- collectives ----

    /// Failure-aware global sum (`ddi_gsumf`) over the *surviving*
    /// ranks, in place. Collective: every live rank must call with an
    /// equally sized slice. A binomial reduction tree to the lowest live
    /// rank followed by a binomial broadcast. Dead ranks must not call, and
    /// a wedged phase times out instead of hanging.
    ///
    /// The entry barrier freezes the live-rank set: kills only fire
    /// inside [`lease_next`](Self::lease_next), so once every survivor
    /// has entered the collective they all derive the same tree. A
    /// fatal communication failure (a timeout, a failed peer) escalates
    /// into the mark-dead/lease-reclaim path.
    pub fn try_gsumf(&self, data: &mut [f64]) -> Result<(), CommError> {
        if !self.alive() {
            return Err(CommError::SelfDead);
        }
        let _span = phi_trace::span("mpi.gsum");
        self.ft_barrier()?;
        let live: Vec<usize> = (0..self.shared.n_ranks)
            .filter(|&r| self.shared.alive[r].load(Ordering::SeqCst))
            .collect();
        let me = match live.iter().position(|&r| r == self.id) {
            Some(pos) => pos,
            None => return Err(CommError::SelfDead),
        };
        if let Err(e) = self.tree_exchange(&live, me, data) {
            if e != CommError::SelfDead {
                self.mark_dead(format!("gsum failed on rank {}: {e}", self.id));
            }
            return Err(e);
        }
        self.ft_barrier()?;
        Ok(())
    }

    /// Binomial reduce-to-`live[0]` + broadcast over the live ranks,
    /// addressed by position in `live`.
    fn tree_exchange(&self, live: &[usize], me: usize, data: &mut [f64]) -> Result<(), CommError> {
        let p = live.len();
        let mut step = 1;
        while step < p {
            if me & step != 0 {
                self.send(live[me - step], TAG_REDUCE, data)?;
                break;
            } else if me + step < p {
                let peer = live[me + step];
                let incoming = self.recv(peer, TAG_REDUCE)?;
                assert_eq!(
                    incoming.len(),
                    data.len(),
                    "rank {}: gsumf length mismatch (peer rank {peer})",
                    self.id
                );
                for (d, v) in data.iter_mut().zip(&incoming) {
                    *d += v;
                }
            }
            step <<= 1;
        }
        if me != 0 {
            let lowest = me & me.wrapping_neg();
            let parent = live[me - lowest];
            let got = self.recv(parent, TAG_BCAST)?;
            assert_eq!(
                got.len(),
                data.len(),
                "rank {}: gsumf length mismatch (parent rank {parent})",
                self.id
            );
            data.copy_from_slice(&got);
        }
        let mut mask = 1usize;
        while mask < p {
            mask <<= 1;
        }
        mask >>= 1;
        let mut bit = if me == 0 { mask } else { (me & me.wrapping_neg()) >> 1 };
        while bit > 0 {
            let dest = me | bit;
            if dest != me && dest < p {
                self.send(live[dest], TAG_BCAST, data)?;
            }
            bit >>= 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n_ranks: usize, faults: Option<FaultPlan>) -> WorldConfig {
        WorldConfig { n_ranks, faults, retry: RetryPolicy::default() }
    }

    fn faulted(n_ranks: usize, plan: &str) -> WorldConfig {
        config(n_ranks, Some(FaultPlan::parse(plan).unwrap()))
    }

    /// A clean world whose waits give up after `ms` milliseconds.
    fn impatient(n_ranks: usize, ms: u64) -> WorldConfig {
        WorldConfig {
            retry: RetryPolicy { timeout: Duration::from_millis(ms) },
            ..config(n_ranks, None)
        }
    }

    #[test]
    fn ranks_see_their_ids() {
        let res = run_world(4, |r| r.rank());
        assert_eq!(res.per_rank, vec![0, 1, 2, 3]);
    }

    #[test]
    fn gsumf_sums_across_ranks() {
        // Power-of-two and ragged trees alike.
        for n_ranks in [1usize, 2, 3, 4, 5, 7, 8] {
            let res = run_world(n_ranks, |r| {
                let mut v = vec![r.rank() as f64, 1.0, -(r.rank() as f64)];
                r.try_gsumf(&mut v).unwrap();
                v
            });
            let tri = (n_ranks * (n_ranks - 1) / 2) as f64;
            for v in res.per_rank {
                assert_eq!(v, vec![tri, n_ranks as f64, -tri]);
            }
            assert_eq!(res.faults_injected, 0, "no plan, no ledger");
        }
    }

    #[test]
    fn repeated_gsumf_calls_are_independent() {
        let res = run_world(3, |r| {
            let mut total = 0.0;
            for round in 0..10 {
                let mut v = vec![(r.rank() + round) as f64];
                r.try_gsumf(&mut v).unwrap();
                total += v[0];
            }
            total
        });
        // Round k sums to 3k + 3; total over k=0..9 = 3*45 + 30 = 165.
        for v in res.per_rank {
            assert_eq!(v, 165.0);
        }
    }

    #[test]
    fn point_to_point_roundtrip() {
        let res = run_world(2, |r| {
            if r.rank() == 0 {
                r.send(1, 7, &[1.0, 2.0, 3.0]).unwrap();
                r.recv(1, 8).unwrap()
            } else {
                let got = r.recv(0, 7).unwrap();
                let doubled: Vec<f64> = got.iter().map(|x| 2.0 * x).collect();
                r.send(0, 8, &doubled).unwrap();
                got
            }
        });
        assert_eq!(res.per_rank[0], vec![2.0, 4.0, 6.0]);
        assert_eq!(res.per_rank[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn single_rank_world() {
        let res = run_world(1, |r| {
            let mut v = vec![5.0];
            r.try_gsumf(&mut v).unwrap();
            r.lease_reset(0, LeaseMode::Volatile).unwrap();
            v[0]
        });
        assert_eq!(res.per_rank, vec![5.0]);
    }

    // ------------------------------------------- fault injection --------

    /// Drain the lease loop, returning the tasks this rank completed
    /// (empty if it was killed — its work is lost with it).
    fn lease_drain(r: &Rank, n_tasks: usize, mode: LeaseMode) -> Vec<usize> {
        if r.lease_reset(n_tasks, mode).is_err() {
            return Vec::new();
        }
        drain(r)
    }

    /// Claim and complete leases until none is left or this rank dies.
    fn drain(r: &Rank) -> Vec<usize> {
        let mut mine = Vec::new();
        loop {
            match r.lease_next() {
                Ok(Some(t)) => {
                    mine.push(t);
                    r.lease_complete(t);
                }
                Ok(None) => return mine,
                Err(_) => return Vec::new(),
            }
        }
    }

    fn surviving_union<const N: usize>(res: &WorldResult<Vec<usize>>) -> Vec<usize> {
        let dead = res.failed_ranks();
        let mut all: Vec<usize> = res
            .per_rank
            .iter()
            .enumerate()
            .filter(|(i, _)| !dead.contains(i))
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    #[test]
    fn lease_loop_matches_dlb_call_accounting() {
        let res = run_world(3, |r| lease_drain(r, 10, LeaseMode::Volatile).len());
        assert_eq!(res.per_rank.iter().sum::<usize>(), 10);
        // One call per task plus one Exhausted probe per rank.
        assert_eq!(res.dlb_calls, 13);
        assert_eq!(res.tasks_done, 10);
        assert_eq!(res.tasks_reclaimed, 0);
        assert!(res.failures.is_empty());
    }

    #[test]
    fn a_range_no_rank_reset_reads_zero_tasks_done() {
        // A zero deadline fails every barrier of a two-rank world: the
        // first rank to arrive gives up before the other can join, so no
        // rank gets through the reset, and nobody dies of it.
        let zero =
            WorldConfig { retry: RetryPolicy { timeout: Duration::ZERO }, ..config(2, None) };
        let res = run_world_with_config(zero, |r| lease_drain(r, 10, LeaseMode::Volatile));
        assert_eq!(res.tasks_done, 0);
        assert!(res.failures.is_empty());
    }

    #[test]
    fn lease_reset_between_iterations() {
        let res = run_world(2, |r| {
            (0..3).flat_map(|_| lease_drain(r, 10, LeaseMode::Volatile)).collect::<Vec<_>>()
        });
        let mut all: Vec<usize> = res.per_rank.into_iter().flatten().collect();
        all.sort_unstable();
        let want: Vec<usize> = (0..10).flat_map(|t| [t; 3]).collect();
        assert_eq!(all, want, "each of 3 iterations distributes all 10 tasks once");
    }

    #[test]
    fn killed_rank_tasks_are_reissued_to_survivors() {
        let plan = FaultPlan::kill_at_tasks(1, &[2]);
        let res = run_world_with_config(config(3, Some(plan)), |r| {
            lease_drain(r, 12, LeaseMode::Volatile)
        });
        assert_eq!(res.failures.len(), 1, "exactly one rank dies");
        assert!(res.faults_injected >= 1);
        assert!(res.tasks_reclaimed >= 1, "the victim died holding task 2");
        assert!(res.lease_retries >= 1);
        assert_eq!(surviving_union::<3>(&res), (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn two_kills_leave_one_survivor_covering_everything() {
        let plan = FaultPlan::kill_at_tasks(7, &[1, 5]);
        let res = run_world_with_config(config(3, Some(plan)), |r| {
            lease_drain(r, 10, LeaseMode::Volatile)
        });
        assert_eq!(res.failures.len(), 2, "two distinct ranks die");
        assert!(res.tasks_reclaimed >= 2);
        assert_eq!(surviving_union::<3>(&res), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn seeded_random_kills_are_deterministic_and_survivable() {
        for seed in [11u64, 12, 13] {
            let cfg = config(4, Some(FaultPlan::random_kills(seed, 2)));
            let res = run_world_with_config(cfg, |r| lease_drain(r, 20, LeaseMode::Volatile));
            assert_eq!(res.failures.len(), 2, "seed {seed}: two ranks die");
            assert_eq!(surviving_union::<4>(&res), (0..20).collect::<Vec<_>>());
        }
    }

    #[test]
    fn kill_is_suppressed_for_the_last_live_rank() {
        // Every task is fatal, but the world must never fully die: the
        // last survivor absorbs the remaining kills and finishes.
        let plan = FaultPlan::kill_at_tasks(3, &[0, 1, 2, 3, 4, 5]);
        let res = run_world_with_config(config(2, Some(plan)), |r| {
            lease_drain(r, 6, LeaseMode::Volatile)
        });
        assert_eq!(res.failures.len(), 1, "only one of two ranks may die");
        assert_eq!(surviving_union::<2>(&res), (0..6).collect::<Vec<_>>());
    }

    /// Regression: the kill check used to be handed a live count read
    /// before the victim was marked dead, so two ranks reaching their
    /// kills together both saw two alive and both died. Every task is
    /// fatal and both ranks leave a spin gate into their first claim side
    /// by side.
    #[test]
    fn two_ranks_reaching_their_kills_together_leave_one_alive() {
        for rep in 0..500 {
            let plan = FaultPlan::kill_at_tasks(rep, &[0, 1, 2, 3]);
            let gate = AtomicUsize::new(0);
            let res = run_world_with_config(config(2, Some(plan)), |r| {
                if r.lease_reset(4, LeaseMode::Volatile).is_err() {
                    return Vec::new();
                }
                gate.fetch_add(1, Ordering::SeqCst);
                while gate.load(Ordering::SeqCst) < 2 {
                    std::hint::spin_loop();
                }
                drain(r)
            });
            assert_eq!(res.failures.len(), 1, "rep {rep}: exactly one of two ranks may die");
            assert_eq!(surviving_union::<2>(&res), vec![0, 1, 2, 3], "rep {rep}");
        }
    }

    #[test]
    fn straggler_delay_is_injected_without_killing() {
        // Single-rank world: with a peer racing for the 4 tasks, whether
        // rank 0 ever *makes* its delayed first claim depends on thread
        // scheduling (the peer can drain the whole range first), and the
        // injected-fault count flaps. Alone, rank 0 must claim, so the
        // delay fires deterministically.
        let res = run_world_with_config(faulted(1, "5:delay@0#1:10"), |r| {
            lease_drain(r, 4, LeaseMode::Volatile)
        });
        assert_eq!(res.faults_injected, 1);
        assert!(res.failures.is_empty());
        assert_eq!(surviving_union::<1>(&res), (0..4).collect::<Vec<_>>());
    }

    #[test]
    fn gsumf_regroups_around_survivors() {
        let plan = FaultPlan::kill_at_tasks(2, &[0]);
        let res = run_world_with_config(config(3, Some(plan)), |r| {
            if r.lease_reset(6, LeaseMode::Volatile).is_err() {
                return -1.0;
            }
            let mut acc = 0.0;
            loop {
                match r.lease_next() {
                    Ok(Some(t)) => {
                        acc += t as f64;
                        r.lease_complete(t);
                    }
                    Ok(None) => break,
                    Err(_) => return -1.0, // dead: skip the collective
                }
            }
            let mut v = vec![acc];
            r.try_gsumf(&mut v).map(|_| v[0]).unwrap_or(-1.0)
        });
        let survivors: Vec<f64> = res.per_rank.iter().copied().filter(|&x| x >= 0.0).collect();
        assert_eq!(survivors.len(), 2);
        // All six tasks (0..6 sums to 15) reach the reduction despite the
        // death — the lost rank's tasks were recomputed by survivors.
        for v in survivors {
            assert_eq!(v, 15.0);
        }
    }

    #[test]
    fn recv_timeout_on_never_sent_message() {
        let res = run_world_with_config(impatient(2, 50), |r| {
            if r.rank() == 0 {
                r.recv(1, 99).err()
            } else {
                None
            }
        });
        assert_eq!(res.per_rank[0], Some(CommError::Timeout { what: "recv" }));
    }

    #[test]
    fn recv_timeout_delivers_tagged_out_of_order_messages() {
        let res = run_world(2, |r| {
            if r.rank() == 0 {
                for tag in [3u64, 2, 1] {
                    r.send(1, tag, &[tag as f64]).unwrap();
                }
                vec![]
            } else {
                (1..=3u64).map(|tag| r.recv(0, tag).unwrap()[0]).collect()
            }
        });
        assert_eq!(res.per_rank[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn comm_timeouts_are_configurable_not_hard_coded() {
        // One rank never reaches the barrier; with a millisecond-scale
        // configured timeout the waiter diagnoses the hang in well under
        // a second instead of the default 30 s.
        let start = Instant::now();
        let res = run_world_with_config(impatient(2, 50), |r| {
            if r.rank() == 0 {
                r.ft_barrier().err()
            } else {
                std::thread::sleep(Duration::from_millis(250));
                None
            }
        });
        assert_eq!(res.per_rank[0], Some(CommError::Timeout { what: "barrier" }));
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn rank_panic_is_reported_with_rank_and_reason() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_world(3, |r| {
                if r.rank() == 1 {
                    panic!("integral batch exploded");
                }
            })
        }));
        let err = match result {
            Ok(_) => panic!("the world must propagate the rank panic"),
            Err(payload) => payload,
        };
        let msg =
            err.downcast_ref::<String>().expect("aggregated panic payload is a String").clone();
        assert!(msg.contains("rank 1"), "panic message names the rank: {msg}");
        assert!(msg.contains("integral batch exploded"), "panic message keeps the cause: {msg}");
    }
}
