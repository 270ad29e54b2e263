//! Trace x fault-injection: kill ranks mid-build under every parallel
//! builder and check that the trace tells the recovery story accurately:
//!
//! - every death shows up as a `rank.died` instant, inside the dead
//!   rank's still-well-formed `fock.build` span (death terminates the
//!   rank's work, not the trace structure);
//! - every lease served from the reissue queue shows up as a
//!   `task.reissued` instant whose `aux` is the dead rank that
//!   originally claimed the task;
//! - the instant counts reconcile with `tasks_reclaimed` / `retries`
//!   from [`FockBuildStats`].

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::dmpi::FaultPlan;
use phi_scf::hf::{DensitySet, FockAlgorithm, FockBuildStats, FockData};
use phi_scf::linalg::Mat;
use phi_scf::trace::{TraceReport, TraceSession};
use std::collections::BTreeSet;

fn algorithms() -> [FockAlgorithm; 4] {
    [
        FockAlgorithm::MpiOnly { n_ranks: 4 },
        FockAlgorithm::PrivateFock { n_ranks: 4, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 4, n_threads: 2 },
        FockAlgorithm::Distributed { n_ranks: 4 },
    ]
}

fn density(n: usize) -> Mat {
    Mat::from_fn(n, n, |i, j| {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        0.2 + ((i * 5 + j * 11) % 7) as f64 * 0.1
    })
}

fn traced_faulty_build(alg: FockAlgorithm, plan: FaultPlan) -> (TraceReport, FockBuildStats) {
    let b = BasisSet::build(&small::water(), BasisName::Sto3g);
    let data = FockData::build(&b);
    let ctx = data.context(&b, 1e-12);
    let d = density(b.n_basis());
    let session = TraceSession::begin();
    let gb = alg.builder_with_faults(Some(plan)).build(&ctx, &DensitySet::Restricted(&d));
    (session.finish(), gb.stats)
}

#[test]
fn rank_deaths_are_traced_inside_their_build_span() {
    for alg in algorithms() {
        for seed in [11u64, 42] {
            let (report, stats) = traced_faulty_build(alg, FaultPlan::random_kills(seed, 1));
            let label = alg.label();
            report
                .check_well_formed()
                .unwrap_or_else(|e| panic!("{label} seed {seed}: malformed trace: {e}"));

            let died = report.instants("rank.died");
            assert_eq!(
                died.iter().map(|i| i.value as usize).collect::<BTreeSet<_>>(),
                stats.failed_ranks.iter().copied().collect::<BTreeSet<_>>(),
                "{label} seed {seed}: rank.died instants vs failed_ranks"
            );
            assert_eq!(died.len(), stats.failed_ranks.len());

            // The death lands inside the dead rank's fock.build span: the
            // span closed normally (no unclosed spans per well-formedness)
            // and brackets the instant.
            for ev in &died {
                let stream = report
                    .streams
                    .iter()
                    .find(|s| s.rank == ev.value as u32 && s.thread == 0)
                    .unwrap_or_else(|| panic!("{label}: no stream for dead rank {}", ev.value));
                let mut inside = false;
                TraceReport::for_each_span_in(stream, |name, t0, t1, _| {
                    if name == "fock.build" && t0 <= ev.t && ev.t <= t1 {
                        inside = true;
                    }
                });
                assert!(
                    inside,
                    "{label} seed {seed}: rank {} died outside its fock.build span",
                    ev.value
                );
            }
        }
    }
}

#[test]
fn reissued_task_instants_carry_the_dead_claimant_and_reconcile() {
    for alg in algorithms() {
        for (seed, kills) in [(11u64, 1usize), (42, 2)] {
            let (report, stats) = traced_faulty_build(alg, FaultPlan::random_kills(seed, kills));
            let label = alg.label();
            let failed: BTreeSet<usize> = stats.failed_ranks.iter().copied().collect();
            assert_eq!(failed.len(), kills, "{label} seed {seed}: kills landed");

            let reissued = report.instants("task.reissued");
            // One instant per lease served from the reissue queue.
            assert_eq!(
                reissued.len(),
                stats.retries,
                "{label} seed {seed}: task.reissued instants vs lease retries"
            );
            // Every reclaimed task is eventually re-served by a survivor.
            assert!(
                reissued.len() >= stats.tasks_reclaimed,
                "{label} seed {seed}: {} reissue instants < {} reclaimed tasks",
                reissued.len(),
                stats.tasks_reclaimed
            );
            assert!(stats.tasks_reclaimed > 0, "{label} seed {seed}: a dead rank held a lease");

            for ev in &reissued {
                // aux = the original claimant, which must be a dead rank —
                // and never the rank that recovered the task.
                assert!(
                    failed.contains(&(ev.aux as usize)),
                    "{label} seed {seed}: task {} reissued from live rank {}",
                    ev.value,
                    ev.aux
                );
                assert_ne!(
                    ev.rank as u64, ev.aux,
                    "{label} seed {seed}: a dead rank cannot recover its own task"
                );
            }
        }
    }
}

#[test]
fn clean_builds_trace_no_fault_events() {
    let (report, stats) =
        traced_faulty_build(FockAlgorithm::MpiOnly { n_ranks: 3 }, FaultPlan::random_kills(7, 0));
    assert!(report.instants("rank.died").is_empty());
    assert!(report.instants("task.reissued").is_empty());
    assert_eq!(stats.tasks_reclaimed, 0);
    assert_eq!(report.counter_total("tasks.reclaimed"), 0);
}
