//! One entry point per paper figure/table (the per-experiment index of
//! DESIGN.md §4). Each function returns a [`Table`] whose rows are the
//! series the paper plots.

use crate::calibrate::calibrate_eri_costs;
use crate::cost::{CostModel, EriCostTable};
use crate::des::{parallel_efficiency, simulate, SimAlgorithm, SimConfig};
use crate::node::{Affinity, ClusterMode, MemoryMode};
use crate::report::{fmt_gb, fmt_secs, Table};
use crate::workload::Workload;
use phi_chem::basis::{BasisName, BasisSet};
use phi_chem::geom::graphene::PaperSystem;
use phi_chem::Molecule;
use phi_integrals::screening::ShellClasses;
use phi_integrals::Screening;

/// Everything the scenarios need about one benchmark system.
pub struct Ctx {
    pub label: String,
    pub basis: BasisSet,
    pub workload: Workload,
    pub cost: CostModel,
}

impl Ctx {
    /// Build a context for an arbitrary molecule (tests, custom runs).
    pub fn from_molecule(
        label: &str,
        mol: &Molecule,
        basis_name: BasisName,
        tau: f64,
        est_floor: f64,
        calibrated: bool,
    ) -> Ctx {
        let basis = BasisSet::build(mol, basis_name);
        let screening = Screening::compute_hybrid(&basis, est_floor);
        let classes = ShellClasses::classify(&basis);
        let eri = if calibrated {
            calibrate_eri_costs(&basis, &classes)
        } else {
            EriCostTable::analytic(&classes)
        };
        let workload = Workload::build(&basis, &screening, tau, &eri);
        let cost = CostModel::new(eri);
        Ctx { label: label.to_string(), basis, workload, cost }
    }

    /// Build the context for one of the paper's graphene datasets.
    /// `calibrated` uses wall-clock ERI costs from the real engine.
    pub fn paper(system: PaperSystem, calibrated: bool) -> Ctx {
        let mol = system.molecule();
        // Exact Schwarz bounds for the small systems; the prefactor-floored
        // hybrid for the big ones (identical for every relevant pair).
        let est_floor = if system.n_atoms() > 500 { 1e-13 } else { 0.0 };
        Ctx::from_molecule(system.label(), &mol, BasisName::B631gd, 1e-10, est_floor, calibrated)
    }

    /// Anchor the model's absolute scale: make the shared-Fock hybrid at
    /// `nodes` nodes take `seconds` (one published number; every other
    /// point is then a prediction). Returns the scale applied.
    pub fn anchor(&mut self, nodes: usize, seconds: f64) -> f64 {
        self.cost.time_scale = 1.0;
        let sim = simulate(
            &self.workload,
            &self.cost,
            &SimConfig::hybrid(SimAlgorithm::SharedFock, nodes),
        );
        let scale = seconds / sim.total_seconds;
        self.cost.time_scale = scale;
        scale
    }
}

// -------------------------------------------------------------- Fig. 3 --

/// Fig. 3: shared-Fock time vs threads/rank for each affinity type
/// (1 node, 4 ranks, the paper uses the 1.0 nm dataset, quad-cache).
pub fn fig3(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        format!("Figure 3 — thread affinity, shared Fock, {} (1 node, 4 ranks)", ctx.label),
        &["threads/rank", "compact", "scatter", "balanced", "none"],
    );
    for threads in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut row = vec![threads.to_string()];
        for aff in [Affinity::Compact, Affinity::Scatter, Affinity::Balanced, Affinity::None] {
            let cfg = SimConfig {
                threads_per_rank: threads,
                affinity: aff,
                ..SimConfig::hybrid(SimAlgorithm::SharedFock, 1)
            };
            let r = simulate(&ctx.workload, &ctx.cost, &cfg);
            row.push(fmt_secs(r.total_seconds));
        }
        t.row(row);
    }
    t.note("times are full SCF (16 iterations), model seconds");
    t
}

// -------------------------------------------------------------- Fig. 4 --

/// Fig. 4: single-node scalability vs hardware threads for the three codes
/// (the paper uses the 1.0 nm dataset).
pub fn fig4(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        format!("Figure 4 — single-node scalability, {} (quad-cache)", ctx.label),
        &["hw threads", "MPI-only", "private Fock", "shared Fock"],
    );
    for hw in [4usize, 8, 16, 32, 64, 128, 256] {
        let mut row = vec![hw.to_string()];
        // MPI-only: one rank per hardware thread, memory permitting.
        let mpi_cfg = SimConfig {
            ranks_per_node: hw,
            threads_per_rank: 1,
            nodes: 1,
            ..SimConfig::mpi_only(1)
        };
        let mpi = simulate(&ctx.workload, &ctx.cost, &mpi_cfg);
        row.push(if mpi.feasible && mpi.ranks_per_node == hw {
            fmt_secs(mpi.total_seconds)
        } else {
            // The paper's Fig. 4: "the larger memory requirements of the
            // original MPI-only code restrict the computations".
            "- (mem)".into()
        });
        for alg in [SimAlgorithm::PrivateFock, SimAlgorithm::SharedFock] {
            let ranks = 4.min(hw);
            let cfg = SimConfig {
                ranks_per_node: ranks,
                threads_per_rank: (hw / ranks).max(1),
                ..SimConfig::hybrid(alg, 1)
            };
            let r = simulate(&ctx.workload, &ctx.cost, &cfg);
            row.push(if r.feasible { fmt_secs(r.total_seconds) } else { "-".into() });
        }
        t.row(row);
    }
    t
}

// -------------------------------------------------------------- Fig. 5 --

/// Fig. 5: cluster-mode x memory-mode grid for the three codes, small and
/// large datasets (the paper uses 0.5 nm and 2.0 nm).
pub fn fig5(small: &Ctx, large: &Ctx) -> Table {
    let mut t = Table::new(
        format!("Figure 5 — cluster/memory modes ({} and {}, 1 node)", small.label, large.label),
        &[
            "cluster",
            "memory",
            "MPI small",
            "PrF small",
            "ShF small",
            "MPI large",
            "PrF large",
            "ShF large",
        ],
    );
    let clusters =
        [ClusterMode::Quadrant, ClusterMode::Snc4, ClusterMode::Hemisphere, ClusterMode::AllToAll];
    for cluster in clusters {
        for memory in [MemoryMode::Cache, MemoryMode::FlatDdr] {
            let mut row = vec![cluster.label().to_string(), memory.label().to_string()];
            for ctx in [small, large] {
                for alg in
                    [SimAlgorithm::MpiOnly, SimAlgorithm::PrivateFock, SimAlgorithm::SharedFock]
                {
                    let mut cfg = if alg == SimAlgorithm::MpiOnly {
                        SimConfig::mpi_only(1)
                    } else {
                        SimConfig::hybrid(alg, 1)
                    };
                    cfg.cluster_mode = cluster;
                    cfg.memory_mode = memory;
                    let r = simulate(&ctx.workload, &ctx.cost, &cfg);
                    row.push(if r.feasible { fmt_secs(r.total_seconds) } else { "-".into() });
                }
            }
            t.row(row);
        }
    }
    t
}

// ----------------------------------------------------- Fig. 6 / Table 3 --

/// Published Table 3 values for side-by-side printing:
/// (nodes, [time mpi, prf, shf], [eff mpi, prf, shf]).
pub const PAPER_TABLE3: [(usize, [f64; 3], [f64; 3]); 6] = [
    (4, [2661.0, 1128.0, 1318.0], [100.0, 100.0, 100.0]),
    (16, [685.0, 288.0, 332.0], [97.0, 98.0, 99.0]),
    (64, [195.0, 78.0, 85.0], [85.0, 90.0, 97.0]),
    (128, [118.0, 49.0, 43.0], [70.0, 72.0, 96.0]),
    (256, [85.0, 44.0, 23.0], [49.0, 40.0, 90.0]),
    (512, [82.0, 44.0, 13.0], [25.0, 20.0, 79.0]),
];

/// Fig. 6 + Table 3: multi-node scalability of the three codes
/// (the paper uses the 2.0 nm dataset, 4-512 nodes).
pub fn fig6_table3(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        format!("Figure 6 / Table 3 — multi-node scaling, {} (quad-cache)", ctx.label),
        &["nodes", "MPI s", "PrF s", "ShF s", "MPI eff%", "PrF eff%", "ShF eff%", "ShF speedup"],
    );
    let nodes_list = [4usize, 16, 64, 128, 256, 512];
    let mut base: Option<[f64; 3]> = None;
    for &nodes in &nodes_list {
        let mut times = [0.0f64; 3];
        for (k, alg) in [SimAlgorithm::MpiOnly, SimAlgorithm::PrivateFock, SimAlgorithm::SharedFock]
            .into_iter()
            .enumerate()
        {
            let cfg = if alg == SimAlgorithm::MpiOnly {
                // The paper requests up to 256 ranks/node; memory caps it.
                SimConfig::mpi_only(nodes)
            } else {
                SimConfig::hybrid(alg, nodes)
            };
            times[k] = simulate(&ctx.workload, &ctx.cost, &cfg).total_seconds;
        }
        let b = *base.get_or_insert(times);
        let eff: Vec<f64> =
            (0..3).map(|k| parallel_efficiency(b[k], nodes_list[0], times[k], nodes)).collect();
        t.row(vec![
            nodes.to_string(),
            fmt_secs(times[0]),
            fmt_secs(times[1]),
            fmt_secs(times[2]),
            format!("{:.0}", eff[0]),
            format!("{:.0}", eff[1]),
            format!("{:.0}", eff[2]),
            format!("{:.1}x", times[0] / times[2]),
        ]);
    }
    t.note("paper's headline: shared Fock ~6x faster than stock MPI at 512 nodes");
    t
}

// -------------------------------------------------------------- Fig. 7 --

/// Fig. 7: shared-Fock scaling for the largest dataset up to 3,000 nodes
/// (the paper uses 5.0 nm).
pub fn fig7(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        format!("Figure 7 — shared Fock at scale, {} (4 ranks x 64 threads)", ctx.label),
        &["nodes", "cores", "time s", "efficiency %", "busy %", "GB/node"],
    );
    let nodes_list = [256usize, 512, 1024, 1536, 2048, 2500, 3000];
    let mut base: Option<(usize, f64)> = None;
    for &nodes in &nodes_list {
        let r =
            simulate(&ctx.workload, &ctx.cost, &SimConfig::hybrid(SimAlgorithm::SharedFock, nodes));
        let (bn, bt) = *base.get_or_insert((nodes, r.total_seconds));
        t.row(vec![
            nodes.to_string(),
            (nodes * 64).to_string(),
            fmt_secs(r.total_seconds),
            format!("{:.0}", parallel_efficiency(bt, bn, r.total_seconds, nodes)),
            format!("{:.0}", r.busy_fraction * 100.0),
            fmt_gb(r.footprint_gb),
        ]);
    }
    t
}

// ----------------------------------------------------------- ablations --

/// Ablation: lazy vs eager FI flushing (DESIGN.md §5.1).
pub fn ablation_flush(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        format!("Ablation — FI flush policy, shared Fock, {}", ctx.label),
        &["nodes", "lazy flush s", "eager flush s", "penalty %"],
    );
    for nodes in [1usize, 4, 16] {
        let lazy =
            simulate(&ctx.workload, &ctx.cost, &SimConfig::hybrid(SimAlgorithm::SharedFock, nodes));
        let eager = simulate(
            &ctx.workload,
            &ctx.cost,
            &SimConfig {
                eager_fi_flush: true,
                ..SimConfig::hybrid(SimAlgorithm::SharedFock, nodes)
            },
        );
        t.row(vec![
            nodes.to_string(),
            fmt_secs(lazy.total_seconds),
            fmt_secs(eager.total_seconds),
            format!("{:.3}", (eager.total_seconds / lazy.total_seconds - 1.0) * 100.0),
        ]);
    }
    t
}

/// Ablation: ij-task prescreen on/off (DESIGN.md §5.3).
pub fn ablation_prescreen(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        format!("Ablation — ij-task prescreen, shared Fock, {}", ctx.label),
        &["nodes", "prescreen on s", "prescreen off s", "penalty %"],
    );
    for nodes in [1usize, 4, 16] {
        let on =
            simulate(&ctx.workload, &ctx.cost, &SimConfig::hybrid(SimAlgorithm::SharedFock, nodes));
        let off = simulate(
            &ctx.workload,
            &ctx.cost,
            &SimConfig {
                task_prescreen: false,
                ..SimConfig::hybrid(SimAlgorithm::SharedFock, nodes)
            },
        );
        t.row(vec![
            nodes.to_string(),
            fmt_secs(on.total_seconds),
            fmt_secs(off.total_seconds),
            format!("{:.3}", (off.total_seconds / on.total_seconds - 1.0) * 100.0),
        ]);
    }
    t
}

/// Ablation: static vs dynamic thread schedule (paper §4.3: "no significant
/// difference ... was observed").
pub fn ablation_schedule(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        format!("Ablation — OpenMP schedule, private Fock, {}", ctx.label),
        &["nodes", "dynamic s", "static s", "difference %"],
    );
    for nodes in [1usize, 4] {
        let dynamic = simulate(
            &ctx.workload,
            &ctx.cost,
            &SimConfig::hybrid(SimAlgorithm::PrivateFock, nodes),
        );
        let stat = simulate(
            &ctx.workload,
            &ctx.cost,
            &SimConfig {
                static_schedule: true,
                ..SimConfig::hybrid(SimAlgorithm::PrivateFock, nodes)
            },
        );
        t.row(vec![
            nodes.to_string(),
            fmt_secs(dynamic.total_seconds),
            fmt_secs(stat.total_seconds),
            format!("{:.2}", (stat.total_seconds / dynamic.total_seconds - 1.0) * 100.0),
        ]);
    }
    t
}

/// Ablation: DLB over collapsed indices vs two-index MPI (§4.2) — compare
/// the load balance (busy fraction) of the three task partitionings at a
/// fixed machine size.
pub fn ablation_loadbalance(ctx: &Ctx, nodes: usize) -> Table {
    let mut t = Table::new(
        format!("Ablation — task partitioning vs load balance, {} ({} nodes)", ctx.label, nodes),
        &["algorithm", "MPI task space", "busy %", "time s"],
    );
    for alg in [SimAlgorithm::MpiOnly, SimAlgorithm::PrivateFock, SimAlgorithm::SharedFock] {
        let cfg = if alg == SimAlgorithm::MpiOnly {
            SimConfig::mpi_only(nodes)
        } else {
            SimConfig::hybrid(alg, nodes)
        };
        let r = simulate(&ctx.workload, &ctx.cost, &cfg);
        let space = match alg {
            SimAlgorithm::PrivateFock => ctx.workload.n_shells,
            _ => ctx.workload.ij_tasks.len(),
        };
        t.row(vec![
            alg.label().to_string(),
            space.to_string(),
            format!("{:.0}", r.busy_fraction * 100.0),
            fmt_secs(r.total_seconds),
        ]);
    }
    t
}

/// Analysis: where does shared Fock overtake private Fock as nodes grow?
/// The paper's Table 3 implies a crossover between 64 and 128 nodes for the
/// 2.0 nm system; this sweep locates it for any workload.
pub fn crossover(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        format!("Crossover analysis — private vs shared Fock, {}", ctx.label),
        &["nodes", "PrF s", "ShF s", "faster"],
    );
    let mut crossed_at: Option<usize> = None;
    for k in 0..10 {
        let nodes = 1usize << k;
        let prf = simulate(
            &ctx.workload,
            &ctx.cost,
            &SimConfig::hybrid(SimAlgorithm::PrivateFock, nodes),
        );
        let shf =
            simulate(&ctx.workload, &ctx.cost, &SimConfig::hybrid(SimAlgorithm::SharedFock, nodes));
        let faster = if shf.total_seconds < prf.total_seconds { "shared" } else { "private" };
        if faster == "shared" && crossed_at.is_none() {
            crossed_at = Some(nodes);
        }
        t.row(vec![
            nodes.to_string(),
            fmt_secs(prf.total_seconds),
            fmt_secs(shf.total_seconds),
            faster.into(),
        ]);
    }
    match crossed_at {
        Some(n) => {
            t.note(format!("shared Fock overtakes private Fock at ~{n} nodes for this workload"))
        }
        None => t.note("no crossover within 512 nodes"),
    }
    t
}

/// Analysis: recovery cost when ranks die mid-build under the task-lease
/// protocol (the fault-injection layer of the real builders).
///
/// Analytic overlay on the simulated clean build: `k` of `R` ranks die at
/// fraction `phi` of the build. With *volatile* leases (replicated Fock
/// accumulators — the MPI-only and both hybrid codes) everything a dead
/// rank ever computed dies with its accumulators, so survivors redo
/// `phi * W * k / R` on top of the remaining work. With *durable* leases
/// (the distributed-data build: flushed contributions persist in the
/// distributed array) only the in-flight task per dead rank is redone.
///
/// ```text
/// T_volatile / T = phi + (1 - phi + phi k / R) * R / (R - k)
/// T_durable  / T = phi + (1 - phi)             * R / (R - k)   (+ O(1 task))
/// ```
pub fn failure_recovery(ctx: &Ctx, nodes: usize) -> Table {
    let phi = 0.5; // deaths halfway through the build
    let mut t = Table::new(
        format!(
            "Failure recovery — {k} rank deaths at 50% of the build, {} ({nodes} nodes)",
            ctx.label,
            k = "1/2"
        ),
        &["algorithm", "leases", "ranks", "clean s", "1 death", "2 deaths"],
    );
    let algorithms: [(SimAlgorithm, &str); 4] = [
        (SimAlgorithm::MpiOnly, "volatile"),
        (SimAlgorithm::PrivateFock, "volatile"),
        (SimAlgorithm::SharedFock, "volatile"),
        // The distributed-data baseline shares SharedFock's simulated
        // timing shape but completes tasks durably via one-sided flushes.
        (SimAlgorithm::SharedFock, "durable"),
    ];
    for (alg, leases) in algorithms {
        let cfg = if alg == SimAlgorithm::MpiOnly {
            SimConfig::mpi_only(nodes)
        } else {
            SimConfig::hybrid(alg, nodes)
        };
        let r = simulate(&ctx.workload, &ctx.cost, &cfg);
        let ranks = (r.ranks_per_node * nodes).max(2);
        let label =
            if leases == "durable" { "distributed".to_string() } else { alg.label().to_string() };
        let slowdown = |k: usize| -> f64 {
            let (rr, kk) = (ranks as f64, k as f64);
            let lost = if leases == "durable" {
                // One in-flight task per dead rank, relative to total work.
                kk / ctx.workload.ij_tasks.len().max(1) as f64
            } else {
                phi * kk / rr
            };
            phi + (1.0 - phi + lost) * rr / (rr - kk)
        };
        t.row(vec![
            label,
            leases.to_string(),
            ranks.to_string(),
            fmt_secs(r.total_seconds),
            format!("{:.2}x", slowdown(1)),
            format!("{:.2}x", slowdown(2)),
        ]);
    }
    t.note("slowdowns are per faulty build; volatile leases redo the dead ranks' work");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::geom::small;

    fn toy_ctx() -> Ctx {
        Ctx::from_molecule(
            "toy C8 ring",
            &small::c_ring(8, 1.40),
            BasisName::B631gd,
            1e-10,
            0.0,
            false,
        )
    }

    #[test]
    fn fig3_produces_all_rows_and_sensible_ordering() {
        let ctx = toy_ctx();
        let t = fig3(&ctx);
        assert_eq!(t.rows.len(), 7);
        // At 64 threads/rank (full saturation) all affinities converge.
        let last = &t.rows[6];
        let vals: Vec<f64> = last[1..].iter().map(|s| s.parse().unwrap()).collect();
        let spread = (vals.iter().cloned().fold(f64::MIN, f64::max)
            - vals.iter().cloned().fold(f64::MAX, f64::min))
            / vals[0];
        assert!(spread < 0.15, "affinities should converge at saturation: {vals:?}");
        // At 4 threads/rank compact must be slower than scatter.
        let row4 = &t.rows[2];
        let compact: f64 = row4[1].parse().unwrap();
        let scatter: f64 = row4[2].parse().unwrap();
        assert!(compact > scatter, "compact {compact} vs scatter {scatter}");
    }

    #[test]
    fn fig4_private_fock_wins_on_a_single_node() {
        let ctx = toy_ctx();
        let t = fig4(&ctx);
        // At 256 threads the hybrids must have entries and private Fock
        // must be the fastest of the three (paper §6.1).
        let row = t.rows.last().unwrap();
        let prf: f64 = row[2].parse().unwrap();
        let shf: f64 = row[3].parse().unwrap();
        assert!(prf <= shf, "private {prf} should beat shared {shf} on one node");
    }

    #[test]
    fn fig6_shared_fock_wins_at_scale() {
        // The toy system saturates beyond ~64 nodes (only ~500 tasks), so
        // assert the orderings where it still differentiates — the same
        // orderings the paper reports for 2.0 nm at its scale.
        let ctx = toy_ctx();
        let t = fig6_table3(&ctx);
        let row16 = &t.rows[1];
        let mpi: f64 = row16[1].parse().unwrap();
        let shf: f64 = row16[3].parse().unwrap();
        assert!(shf < mpi, "shared Fock must beat MPI-only");
        let eff_mpi: f64 = row16[4].parse().unwrap();
        let eff_shf: f64 = row16[6].parse().unwrap();
        assert!(eff_shf > eff_mpi, "ShF efficiency {eff_shf} vs MPI {eff_mpi}");
        // The headline speedup column grows with node count and exceeds 1.
        let last = t.rows.last().unwrap();
        let speedup: f64 = last[7].trim_end_matches('x').parse().unwrap();
        assert!(speedup > 1.0);
    }

    #[test]
    fn crossover_reports_shared_fock_winning_eventually() {
        let ctx = toy_ctx();
        let t = crossover(&ctx);
        assert_eq!(t.rows.len(), 10);
        let last = t.rows.last().unwrap();
        assert_eq!(last[3], "shared", "shared Fock must win at 512 nodes");
    }

    #[test]
    fn ablations_run_and_report_finite_numbers() {
        let ctx = toy_ctx();
        for t in [ablation_flush(&ctx), ablation_prescreen(&ctx), ablation_schedule(&ctx)] {
            for row in &t.rows {
                for cell in &row[1..] {
                    let v: f64 = cell.parse().unwrap();
                    assert!(v.is_finite());
                }
            }
        }
    }

    #[test]
    fn failure_recovery_durable_beats_volatile_and_stays_bounded() {
        let ctx = toy_ctx();
        let t = failure_recovery(&ctx, 4);
        assert_eq!(t.rows.len(), 4);
        let slow =
            |row: &[String], col: usize| -> f64 { row[col].trim_end_matches('x').parse().unwrap() };
        for row in &t.rows {
            let one = slow(row, 4);
            let two = slow(row, 5);
            // Losing ranks can only slow a build down, and two deaths cost
            // at least as much as one.
            assert!(one >= 1.0 && two >= one, "{row:?}");
            // Bounded by redoing everything on the survivors.
            assert!(two < 3.0, "{row:?}");
        }
        // At the same rank count, durable leases (distributed row) recover
        // cheaper than the volatile shared-Fock row.
        let shf = &t.rows[2];
        let dist = &t.rows[3];
        assert_eq!(shf[2], dist[2], "same rank count for the comparison");
        assert!(slow(dist, 4) < slow(shf, 4), "durable {dist:?} vs volatile {shf:?}");
    }

    #[test]
    fn anchoring_scales_absolute_times() {
        let mut ctx = toy_ctx();
        let scale = ctx.anchor(4, 1318.0);
        assert!(scale > 0.0);
        let r = simulate(&ctx.workload, &ctx.cost, &SimConfig::hybrid(SimAlgorithm::SharedFock, 4));
        assert!((r.total_seconds - 1318.0).abs() < 1.0, "anchored to {}", r.total_seconds);
    }
}
