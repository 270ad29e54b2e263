//! Discrete-event simulation of one Fock-build iteration under the
//! paper's three distribution schemes.
//!
//! Mechanisms modelled (each tied to a paper observation):
//!
//! * **Greedy DLB list scheduling** — ranks pull the next task from the
//!   global counter when free (exactly `ddi_dlbnext`), so load imbalance
//!   emerges from the real task-cost distribution, not a formula. This is
//!   what makes Algorithm 2 flatline once `n_tasks(i) < n_ranks` and what
//!   keeps Algorithm 3 (four-index partitioning) efficient — the paper's
//!   §6.2 explanation of Table 3.
//! * **DLB counter serialization** — the shared counter is a single-server
//!   queue (hardware-offloaded fetch-add at its home NIC), a hard floor on
//!   task distribution. The MPI-only efficiency collapse at scale (Table 3:
//!   49% at 256 nodes, 25% at 512) instead emerges from task starvation:
//!   with 128 fat ranks per node, 512 nodes leave only a couple of
//!   surviving tasks per rank, and the heavy-tailed task-cost distribution
//!   does the rest.
//! * **SMT throughput curve** (Fig. 3/4), **affinity placement** (Fig. 3),
//!   **memory modes and cluster modes** (Fig. 5), **memory-capacity rank
//!   limits** for the MPI-only code (Fig. 4's 128-thread ceiling),
//!   **thread-team barriers, FI/FJ flushes and atomic adds** for the
//!   shared-Fock code (Fig. 4's high-thread gap to private Fock), and the
//!   **`gsumf` allreduce** at the end of every build.

use crate::cost::CostModel;
use crate::network::allreduce_s;
use crate::node::{Affinity, ClusterMode, KnlNode, MemoryMode};
use crate::workload::{SimTask, Workload};
use hf::{FockAlgorithm, MemoryModel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which algorithm's distribution scheme to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimAlgorithm {
    MpiOnly,
    PrivateFock,
    SharedFock,
}

impl SimAlgorithm {
    pub fn label(self) -> &'static str {
        match self {
            SimAlgorithm::MpiOnly => "MPI-only",
            SimAlgorithm::PrivateFock => "private Fock",
            SimAlgorithm::SharedFock => "shared Fock",
        }
    }

    /// How much of the algorithm's traffic is coherence-visible shared
    /// data (input to [`ClusterMode::coherence_factor`]).
    fn shared_intensity(self) -> f64 {
        match self {
            SimAlgorithm::MpiOnly => 0.0,
            SimAlgorithm::PrivateFock => 0.35,
            SimAlgorithm::SharedFock => 1.0,
        }
    }

    /// The real algorithm this row models, for [`MemoryModel`]'s eqs. (3a)-(3c).
    fn fock_algorithm(self, n_ranks: usize, n_threads: usize) -> FockAlgorithm {
        match self {
            SimAlgorithm::MpiOnly => FockAlgorithm::MpiOnly { n_ranks },
            SimAlgorithm::PrivateFock => FockAlgorithm::PrivateFock { n_ranks, n_threads },
            SimAlgorithm::SharedFock => FockAlgorithm::SharedFock { n_ranks, n_threads },
        }
    }
}

/// Simulation configuration for one data point.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub node: KnlNode,
    pub cluster_mode: ClusterMode,
    pub memory_mode: MemoryMode,
    pub affinity: Affinity,
    pub nodes: usize,
    /// Requested ranks per node (the MPI-only code may get fewer if memory
    /// does not allow it, halving until it fits — the paper varies 64-256).
    pub ranks_per_node: usize,
    pub threads_per_rank: usize,
    pub algorithm: SimAlgorithm,
    /// Ablation: flush FI after every task instead of only on i-change.
    pub eager_fi_flush: bool,
    /// Ablation: static instead of dynamic thread schedule (larger
    /// straggler tail; the paper found the difference insignificant).
    pub static_schedule: bool,
    /// Ablation: disable the ij-task prescreen (GAMESS's loop): the pair
    /// rows claim every canonical pair, and each pair off the list still
    /// sweeps its dense Schwarz-check loop.
    pub task_prescreen: bool,
}

impl SimConfig {
    /// The paper's hybrid configuration: 4 ranks x 64 threads, quad-cache.
    pub fn hybrid(algorithm: SimAlgorithm, nodes: usize) -> SimConfig {
        SimConfig {
            node: KnlNode::default(),
            cluster_mode: ClusterMode::Quadrant,
            memory_mode: MemoryMode::Cache,
            affinity: Affinity::Balanced,
            nodes,
            ranks_per_node: 4,
            threads_per_rank: 64,
            algorithm,
            eager_fi_flush: false,
            static_schedule: false,
            task_prescreen: true,
        }
    }

    /// The paper's MPI-only configuration: up to 256 ranks, quad-cache.
    pub fn mpi_only(nodes: usize) -> SimConfig {
        SimConfig {
            ranks_per_node: 256,
            threads_per_rank: 1,
            algorithm: SimAlgorithm::MpiOnly,
            ..SimConfig::hybrid(SimAlgorithm::MpiOnly, nodes)
        }
    }
}

/// Result of one simulated configuration.
#[derive(Clone, Debug)]
pub struct SimResult {
    pub feasible: bool,
    /// Ranks per node actually used (after memory-driven reduction).
    pub ranks_per_node: usize,
    /// One Fock-build iteration, seconds (scaled by `time_scale`).
    pub fock_seconds: f64,
    /// `gsumf` allreduce per iteration, seconds.
    pub reduction_seconds: f64,
    /// `16 x (fock + reduction)`: a full SCF of the paper's length.
    pub total_seconds: f64,
    /// Mean rank busy fraction during the build (load-balance metric).
    pub busy_fraction: f64,
    /// Per-node footprint, GB.
    pub footprint_gb: f64,
}

impl SimResult {
    fn infeasible() -> SimResult {
        SimResult {
            feasible: false,
            ranks_per_node: 0,
            fock_seconds: f64::INFINITY,
            reduction_seconds: f64::INFINITY,
            total_seconds: f64::INFINITY,
            busy_fraction: 0.0,
            footprint_gb: f64::INFINITY,
        }
    }
}

/// Base OS + program image per process, GB (GAMESS executable, runtime,
/// integral tables). Chosen so the paper's capacity observations come out:
/// 256 MPI ranks fit for the 0.5 nm system (Table 2) but the 1.0 nm system
/// caps the MPI-only code at 128 hardware threads (Fig. 4 text).
const BASE_PROCESS_GB: f64 = 0.78;

/// One quartet's Schwarz test inside the `kl` loops.
const CHECK_NS: f64 = 1.5;

/// SCF iterations folded into `total_seconds` (the paper's runs take 16).
const SCF_ITERATIONS: usize = 16;

/// f64 wrapper ordered by total order, for the event heap.
#[derive(Clone, Copy, PartialEq)]
struct Time(f64);
impl Eq for Time {}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Per-node footprint in GB for an algorithm/configuration (capacity):
/// each rank's process image plus its eqs. (3a)-(3c) matrices.
fn footprint_gb(alg: SimAlgorithm, workload: &Workload, ranks: usize, threads: usize) -> f64 {
    let model = MemoryModel {
        n_basis: workload.n_basis,
        max_shell_width: workload.max_shell_width,
        pair_bytes: 0,
    };
    let matrices = model.per_rank_bytes(alg.fock_algorithm(ranks, threads)) / 1e9;
    ranks as f64 * (BASE_PROCESS_GB + matrices)
}

/// Hot working set in GB — what competes for MCDRAM bandwidth/cache during
/// the build. A different quantity from the capacity footprint, hence its
/// own weights: thread-private Fock buffers are write-mostly streaming
/// targets, so only a small fraction of them is hot at any instant (weight
/// 0.1). The MPI-only code's per-process images *are* hot (256 replicated
/// processes thrash the cache with code + static data too — the paper's
/// §6.1 "cache capacity and cache line conflict effects").
fn hot_ws_gb(alg: SimAlgorithm, n_basis: usize, ranks: usize, threads: usize) -> f64 {
    let n2gb = (n_basis * n_basis) as f64 * 8.0 / 1e9;
    match alg {
        SimAlgorithm::MpiOnly => ranks as f64 * (BASE_PROCESS_GB + 2.5 * n2gb),
        SimAlgorithm::PrivateFock => ranks as f64 * (2.0 + 0.1 * threads as f64) * n2gb,
        SimAlgorithm::SharedFock => ranks as f64 * 3.5 * n2gb,
    }
}

/// Simulate one Fock-build iteration.
pub fn simulate(workload: &Workload, cost: &CostModel, cfg: &SimConfig) -> SimResult {
    let node = &cfg.node;
    let mut ranks_per_node = cfg.ranks_per_node;
    let threads = cfg.threads_per_rank.max(1);

    // --- Memory feasibility -------------------------------------------
    let mem_limit = node.total_memory_gb();
    if cfg.algorithm == SimAlgorithm::MpiOnly {
        // Halve the rank count until the node fits — both total capacity
        // and the chosen memory mode (paper §6.1: "the larger memory
        // requirements of the original MPI-only code restrict...").
        let fits = |ranks: usize| {
            footprint_gb(cfg.algorithm, workload, ranks, threads) <= mem_limit
                && cfg
                    .memory_mode
                    .effective_bandwidth(
                        node,
                        hot_ws_gb(cfg.algorithm, workload.n_basis, ranks, threads),
                    )
                    .is_some()
        };
        while ranks_per_node > 1 && !fits(ranks_per_node) {
            ranks_per_node /= 2;
        }
    }
    let fp = footprint_gb(cfg.algorithm, workload, ranks_per_node, threads);
    if fp > mem_limit {
        return SimResult::infeasible();
    }
    let hot = hot_ws_gb(cfg.algorithm, workload.n_basis, ranks_per_node, threads);
    let Some(bw) = cfg.memory_mode.effective_bandwidth(node, hot) else {
        return SimResult::infeasible();
    };

    // --- Per-rank throughput -------------------------------------------
    let total_ranks = ranks_per_node * cfg.nodes;
    let total_threads_node = ranks_per_node * threads;
    // Compact pinning packs SMT siblings even when free cores remain, so
    // it never takes the even-spread shortcut; the spreading policies
    // converge to it at full saturation.
    let per_thread_speed = if cfg.affinity != Affinity::Compact && total_threads_node >= node.cores
    {
        let load = total_threads_node as f64 / node.cores as f64;
        node.core_throughput(load.min(node.smt as f64)) / load.min(node.smt as f64)
    } else {
        let cores_per_rank = (node.cores / ranks_per_node).max(1);
        let cores_used = cfg.affinity.cores_used(threads, cores_per_rank, node.smt).max(1);
        let load = (threads as f64 / cores_used as f64).max(1.0);
        node.core_throughput(load) / load
    };
    let affinity_factor = match cfg.affinity {
        Affinity::None => cost.migration_penalty,
        Affinity::Balanced => 0.99,
        _ => 1.0,
    };
    // Nominal-thread-equivalents of work per second, per rank.
    let rank_speed = threads as f64 * per_thread_speed / (cost.knl_slowdown * affinity_factor);

    // --- Cost multipliers ------------------------------------------------
    let contention = if cfg.algorithm == SimAlgorithm::SharedFock && threads > 1 {
        1.0 + cost.shared_write_contention * (threads as f64).log2()
    } else {
        1.0
    };
    let mult = cost.bandwidth_factor(bw)
        * cfg.cluster_mode.coherence_factor(cfg.algorithm.shared_intensity())
        * cost.pressure_factor(hot, node.mcdram_gb)
        * contention;

    // --- Task list --------------------------------------------------------
    let by_i;
    let tasks: &[SimTask] = match cfg.algorithm {
        SimAlgorithm::PrivateFock => {
            by_i = workload.tasks_by_i();
            &by_i
        }
        _ => &workload.ij_tasks,
    };
    // DLB claims that find no work: Algorithm 2 leases every shell, the
    // pair rows lease the list's positions, or every canonical pair when
    // the line-13 prescreen is off (GAMESS's loop).
    let claim_space = match cfg.algorithm {
        SimAlgorithm::PrivateFock => workload.n_shells,
        _ if cfg.task_prescreen => tasks.len(),
        _ => workload.total_pairs,
    };
    let empty_claims = claim_space.saturating_sub(tasks.len());

    // DLB: per-claim latency paid by the puller, plus the counter's
    // serialized hardware service time (a global floor).
    let dlb_latency = if cfg.nodes > 1 { cost.dlb_off_node_s } else { cost.dlb_on_node_s };
    let dlb_service = cost.dlb_service_s;

    let barrier = cost.barrier_s(threads);
    let avg_width = workload.n_basis as f64 / workload.n_shells as f64;
    let fj_flush = match cfg.algorithm {
        SimAlgorithm::SharedFock => {
            avg_width * workload.n_basis as f64 * cost.flush_per_element_s + 2.0 * barrier
        }
        _ => 0.0,
    };
    let fi_flush = match cfg.algorithm {
        SimAlgorithm::SharedFock => {
            workload.max_shell_width as f64 * workload.n_basis as f64 * cost.flush_per_element_s
                + 2.0 * barrier
        }
        _ => 0.0,
    };
    // Fixed per-task overhead by algorithm.
    let per_task_fixed = match cfg.algorithm {
        SimAlgorithm::MpiOnly => 0.0,
        SimAlgorithm::PrivateFock => 2.0 * barrier,
        SimAlgorithm::SharedFock => 2.0 * barrier + fj_flush,
    };

    // --- The event loop ---------------------------------------------------
    let mut heap: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::with_capacity(total_ranks);
    for r in 0..total_ranks {
        heap.push(Reverse((Time(0.0), r)));
    }
    let mut busy = vec![0.0f64; total_ranks];
    let mut last_i = vec![u32::MAX; total_ranks];
    let mut counter_free = 0.0f64;
    let mut makespan = 0.0f64;

    for task in tasks {
        let Reverse((Time(free), r)) = heap.pop().expect("heap holds every rank");
        // Claim the counter (serialized), then run.
        let start = free.max(counter_free) + dlb_latency;
        counter_free = free.max(counter_free) + dlb_service;

        // The quartet tests the builders run over the task's `kl` space.
        let check_cost = task.n_tests as f64 * CHECK_NS * 1e-9;

        // Shared-Fock atomic adds.
        let atomic = if cfg.algorithm == SimAlgorithm::SharedFock {
            task.n_items as f64 * cost.atomic_per_quartet_s
        } else {
            0.0
        };

        let compute = (task.cost_s * mult + check_cost + atomic) / rank_speed;
        // Straggler tail: about one work item under dynamic scheduling,
        // a few under static chunking.
        let tail_items = if cfg.static_schedule { 4.0 } else { 1.0 };
        let tail = if threads > 1 && task.n_items > 0 {
            tail_items * task.cost_s * mult
                / task.n_items as f64
                / (per_thread_speed / cost.knl_slowdown)
        } else {
            0.0
        };
        // Lazy FI flush: charged when this rank's i changes (or on every
        // task in the eager ablation).
        let flush = if cfg.algorithm == SimAlgorithm::SharedFock
            && (cfg.eager_fi_flush || last_i[r] != task.i)
        {
            last_i[r] = task.i;
            fi_flush
        } else {
            0.0
        };

        let wall = compute + tail + per_task_fixed + flush;
        let end = start + wall;
        busy[r] += wall;
        makespan = makespan.max(end);
        heap.push(Reverse((Time(end), r)));
    }

    // Empty claims: every rank still pulls and discards them; they hammer
    // the counter but do no work. Amortize across ranks.
    let empty_wall = dlb_latency
        + match cfg.algorithm {
            SimAlgorithm::MpiOnly => 0.0,
            _ => barrier, // master pull + team barrier before the skip
        };
    let mut empty_time_per_rank = empty_claims as f64 * empty_wall / total_ranks as f64;
    if cfg.algorithm != SimAlgorithm::PrivateFock && !cfg.task_prescreen {
        // Without the line-13 prescreen, every pair off the list still
        // sweeps its dense Schwarz-check loop (workshared over the team).
        let skipped_checks = workload.unlisted_checks as f64 * CHECK_NS * 1e-9;
        empty_time_per_rank += skipped_checks
            / (threads as f64)
            / total_ranks as f64
            / (per_thread_speed / cost.knl_slowdown);
    }
    let counter_serial = empty_claims as f64 * dlb_service;
    // The counter's total service time is a hard floor on the build.
    let counter_floor = counter_free + counter_serial;
    makespan = (makespan + empty_time_per_rank).max(counter_floor);

    // --- Reduction and assembly -------------------------------------------
    let reduction_bytes = (workload.n_basis * workload.n_basis * 8) as f64;
    let reduction = allreduce_s(reduction_bytes, total_ranks, cfg.nodes);
    let busy_total: f64 = busy.iter().sum();
    let fock = makespan * cost.time_scale;
    let red = reduction * cost.time_scale;
    SimResult {
        feasible: true,
        ranks_per_node,
        fock_seconds: fock,
        reduction_seconds: red,
        total_seconds: SCF_ITERATIONS as f64 * (fock + red),
        busy_fraction: busy_total / (total_ranks as f64 * makespan.max(1e-30)),
        footprint_gb: fp,
    }
}

/// Parallel efficiency of `result` at `nodes` relative to a baseline.
pub fn parallel_efficiency(
    base_seconds: f64,
    base_nodes: usize,
    seconds: f64,
    nodes: usize,
) -> f64 {
    (base_seconds * base_nodes as f64) / (seconds * nodes as f64) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::EriCostTable;
    use phi_chem::basis::{BasisName, BasisSet};
    use phi_chem::geom::small;
    use phi_integrals::screening::ShellClasses;
    use phi_integrals::Screening;

    fn toy_workload() -> (Workload, CostModel) {
        let mol = small::c_ring(8, 1.40);
        let b = BasisSet::build(&mol, BasisName::B631gd);
        let s = Screening::compute_hybrid(&b, 0.0);
        let eri = EriCostTable::analytic(&ShellClasses::classify(&b));
        let w = Workload::build(&b, &s, 1e-10, &eri);
        let cm = CostModel::new(eri);
        (w, cm)
    }

    #[test]
    fn more_nodes_is_never_slower_much() {
        let (w, cm) = toy_workload();
        let t1 = simulate(&w, &cm, &SimConfig::hybrid(SimAlgorithm::SharedFock, 1));
        let t4 = simulate(&w, &cm, &SimConfig::hybrid(SimAlgorithm::SharedFock, 4));
        assert!(t1.feasible && t4.feasible);
        assert!(t4.fock_seconds <= t1.fock_seconds * 1.05);
    }

    #[test]
    fn busy_fraction_is_a_fraction() {
        let (w, cm) = toy_workload();
        for alg in [SimAlgorithm::MpiOnly, SimAlgorithm::PrivateFock, SimAlgorithm::SharedFock] {
            let r = simulate(&w, &cm, &SimConfig::hybrid(alg, 2));
            assert!(r.feasible);
            assert!(
                r.busy_fraction > 0.0 && r.busy_fraction <= 1.0,
                "{alg:?}: {}",
                r.busy_fraction
            );
        }
    }

    #[test]
    fn private_fock_flatlines_when_tasks_run_out() {
        // With only n_shells tasks, throwing far more ranks at Algorithm 2
        // cannot help: time at absurd node counts stays near the time at
        // moderate counts (the paper's Table 3: 44 s at both 256 and 512).
        let (w, cm) = toy_workload();
        let mid = simulate(&w, &cm, &SimConfig::hybrid(SimAlgorithm::PrivateFock, 16));
        let huge = simulate(&w, &cm, &SimConfig::hybrid(SimAlgorithm::PrivateFock, 256));
        assert!(huge.fock_seconds > 0.4 * mid.fock_seconds, "should flatline, not keep scaling");
    }

    #[test]
    fn shared_fock_scales_further_than_private() {
        let (w, cm) = toy_workload();
        let nodes = 64;
        let shf = simulate(&w, &cm, &SimConfig::hybrid(SimAlgorithm::SharedFock, nodes));
        let prf = simulate(&w, &cm, &SimConfig::hybrid(SimAlgorithm::PrivateFock, nodes));
        assert!(
            shf.busy_fraction > prf.busy_fraction,
            "shared Fock {} vs private {}",
            shf.busy_fraction,
            prf.busy_fraction
        );
    }

    #[test]
    fn mpi_only_rank_count_respects_memory() {
        let (mut w, cm) = toy_workload();
        // Pretend a huge basis so 256 fat processes cannot fit.
        w.n_basis = 30240;
        let r = simulate(&w, &cm, &SimConfig::mpi_only(8));
        assert!(r.feasible);
        assert!(r.ranks_per_node < 256, "got {}", r.ranks_per_node);
        assert!(r.footprint_gb <= KnlNode::default().total_memory_gb());
    }

    #[test]
    fn all_to_all_hurts_shared_fock_more_than_mpi() {
        let (w, cm) = toy_workload();
        let time = |alg, mode| {
            let cfg = SimConfig { cluster_mode: mode, ..SimConfig::hybrid(alg, 1) };
            simulate(&w, &cm, &cfg).fock_seconds
        };
        let shf_penalty = time(SimAlgorithm::SharedFock, ClusterMode::AllToAll)
            / time(SimAlgorithm::SharedFock, ClusterMode::Quadrant);
        let mpi_penalty = time(SimAlgorithm::MpiOnly, ClusterMode::AllToAll)
            / time(SimAlgorithm::MpiOnly, ClusterMode::Quadrant);
        assert!(shf_penalty > mpi_penalty, "{shf_penalty} vs {mpi_penalty}");
    }

    #[test]
    fn efficiency_helper() {
        assert!((parallel_efficiency(100.0, 4, 25.0, 16) - 100.0).abs() < 1e-9);
        assert!((parallel_efficiency(100.0, 4, 50.0, 16) - 50.0).abs() < 1e-9);
    }
}
