//! Structural invariants of the `phi-trace` instrumentation, checked
//! against every parallel Fock builder at two world sizes:
//!
//! - every stream is well-formed (monotone timestamps, LIFO span nesting,
//!   no unclosed spans) after the per-thread segments are re-merged;
//! - child spans fit inside their parent (sum of children <= parent);
//! - counter totals reconcile *exactly* with the [`FockBuildStats`]
//!   fields the builders report (`quartets_computed`, `quartets_screened`,
//!   `flushes`, `dlb_calls`, `tasks_reclaimed`) — the counters are
//!   accumulated in the same plain locals, so any drift is a bug.
//!
//! Every test wraps its builds in a [`TraceSession`]; sessions serialize
//! on a process-wide lock, so concurrently running tests in this binary
//! cannot leak events into each other's reports.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::dmpi::DdiMode;
use phi_scf::hf::{run_scf, DensitySet, FockAlgorithm, FockBuildStats, FockData, ScfConfig};
use phi_scf::linalg::Mat;
use phi_scf::trace::{Event, Stream, TraceReport, TraceSession};

/// Every parallel builder at two world sizes each.
fn algorithms() -> Vec<FockAlgorithm> {
    vec![
        FockAlgorithm::MpiOnly { n_ranks: 2 },
        FockAlgorithm::MpiOnly { n_ranks: 4 },
        FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 3 },
        FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 4 },
        FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::Distributed { n_ranks: 2 },
        FockAlgorithm::Distributed { n_ranks: 4 },
        FockAlgorithm::Sharded { n_ranks: 2, mode: DdiMode::Mpi3OneSided },
        FockAlgorithm::Sharded { n_ranks: 4, mode: DdiMode::Mpi3OneSided },
    ]
}

fn density(n: usize) -> Mat {
    Mat::from_fn(n, n, |i, j| {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        0.2 + ((i * 5 + j * 11) % 7) as f64 * 0.1
    })
}

/// One traced build of water/STO-3G under `alg`.
fn traced_build(alg: FockAlgorithm) -> (TraceReport, FockBuildStats) {
    let b = BasisSet::build(&small::water(), BasisName::Sto3g);
    let data = FockData::build(&b);
    let ctx = data.context(&b, 1e-12);
    let d = density(b.n_basis());
    let session = TraceSession::begin();
    let gb = alg.builder().build(&ctx, &DensitySet::Restricted(&d));
    (session.finish(), gb.stats)
}

#[test]
fn every_builder_trace_is_well_formed() {
    let mut algs = algorithms();
    algs.push(FockAlgorithm::Serial);
    for alg in algs {
        let (report, _) = traced_build(alg);
        assert!(!report.is_empty(), "{}: empty trace", alg.label());
        report
            .check_well_formed()
            .unwrap_or_else(|e| panic!("{}: malformed trace: {e}", alg.label()));
    }
}

#[test]
fn merged_streams_have_monotone_timelines_and_unique_identities() {
    for alg in algorithms() {
        let (report, _) = traced_build(alg);
        let mut seen = std::collections::BTreeSet::new();
        for s in &report.streams {
            assert!(
                seen.insert((s.rank, s.thread)),
                "{}: duplicate stream ({}, {}) after merge",
                alg.label(),
                s.rank,
                s.thread
            );
            // Segments recorded by different OS threads playing the same
            // (rank, thread) role must concatenate into one monotone
            // timeline.
            let mut prev = 0u64;
            for ev in &s.events {
                assert!(
                    ev.t() >= prev,
                    "{}: stream ({}, {}) goes back in time",
                    alg.label(),
                    s.rank,
                    s.thread
                );
                prev = ev.t();
            }
        }
    }
}

/// Walk one stream keeping (start, accumulated child time) per open span;
/// on close, the children must fit inside the parent. Returns the number
/// of nested (depth >= 1) spans seen.
fn check_children_fit(label: &str, s: &Stream) -> usize {
    let mut stack: Vec<(u64, u64)> = Vec::new();
    let mut nested = 0usize;
    for ev in &s.events {
        match *ev {
            Event::Begin { t, .. } => stack.push((t, 0)),
            Event::End { name, t } => {
                let (t0, child) = stack.pop().unwrap_or_else(|| {
                    panic!("{label}: stream ({}, {}) closes unopened span", s.rank, s.thread)
                });
                let dur = t - t0;
                assert!(
                    child <= dur,
                    "{label}: children of '{name}' on ({}, {}) total {child} ns \
                     but the parent lasted only {dur} ns",
                    s.rank,
                    s.thread
                );
                if let Some(parent) = stack.last_mut() {
                    nested += 1;
                    parent.1 += dur;
                }
            }
            _ => {}
        }
    }
    nested
}

#[test]
fn child_spans_fit_inside_their_parents() {
    for alg in algorithms() {
        let (report, _) = traced_build(alg);
        let nested: usize = report.streams.iter().map(|s| check_children_fit(alg.label(), s)).sum();
        // Every parallel builder nests at least dlb.wait / mpi.gsum
        // inside its per-rank fock.build span.
        assert!(nested > 0, "{}: no nested spans at all", alg.label());
    }
}

#[test]
fn fock_build_spans_appear_once_per_rank() {
    for (alg, ranks) in [
        (FockAlgorithm::MpiOnly { n_ranks: 3 }, 3),
        (FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 }, 2),
        (FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 }, 2),
        (FockAlgorithm::Distributed { n_ranks: 3 }, 3),
    ] {
        let (report, _) = traced_build(alg);
        assert_eq!(
            report.span_count("fock.build"),
            ranks,
            "{}: one fock.build span per rank",
            alg.label()
        );
        assert_eq!(report.span_total_by_rank("fock.build").len(), ranks);
    }
}

/// Team barriers each build crosses on h_chain(8, 5.0)/STO-3G at the
/// density and threshold `fock_golden.rs` pins the shared-Fock counters
/// at. Per thread the shared-Fock build crosses 27 lease broadcasts (26
/// tasks run, then the end of the stream), 26 `kl` loop barriers and 7
/// FI-flush barriers for the changes of `i`; the private-Fock build a
/// broadcast and a `collapse(2)` barrier per shell plus the last
/// broadcast. The flat rows run the lease loop as a team of one, which
/// opens no barrier span at all.
#[test]
fn team_barrier_spans_match_the_pinned_values() {
    let b = BasisSet::build(&small::h_chain(8, 5.0), BasisName::Sto3g);
    let data = FockData::build(&b);
    let ctx = data.context(&b, 1e-10);
    let n = b.n_basis();
    let d = Mat::from_fn(n, n, |i, j| {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        0.3 + 0.1 * ((i * 7 + j * 3) % 5) as f64 - 0.05 * (i as f64 - j as f64)
    });
    for (alg, spans) in [
        (FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 2 }, 120),
        (FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 2 }, 34),
        (FockAlgorithm::MpiOnly { n_ranks: 2 }, 0),
        (FockAlgorithm::Sharded { n_ranks: 2, mode: DdiMode::Mpi3OneSided }, 0),
        (FockAlgorithm::Distributed { n_ranks: 2 }, 0),
    ] {
        let session = TraceSession::begin();
        alg.builder().build(&ctx, &DensitySet::Restricted(&d));
        let report = session.finish();
        assert_eq!(report.span_count("omp.barrier_wait"), spans, "{}", alg.label());
    }
}

#[test]
fn counter_totals_reconcile_exactly_with_build_stats() {
    let mut algs = algorithms();
    algs.push(FockAlgorithm::Serial);
    for alg in algs {
        let (report, stats) = traced_build(alg);
        let label = alg.label();
        assert_eq!(
            report.counter_total("quartets_computed"),
            stats.quartets_computed,
            "{label}: quartets_computed drifted"
        );
        assert_eq!(
            report.counter_total("quartets_screened"),
            stats.quartets_screened,
            "{label}: quartets_screened drifted"
        );
        assert_eq!(report.counter_total("flushes"), stats.flushes, "{label}: flushes drifted");
        assert_eq!(
            report.counter_total("dlb.calls") as usize,
            stats.dlb_calls,
            "{label}: dlb.calls drifted"
        );
        assert_eq!(
            report.counter_total("tasks.reclaimed") as usize,
            stats.tasks_reclaimed,
            "{label}: tasks.reclaimed drifted (fault-free build)"
        );
    }
}

/// The default build traces: a whole SCF inside a session yields a
/// well-formed report with one `scf.iteration` span per iteration, and
/// the quartet, flush and DLB-claim counters equal to the sums over the
/// per-build stats.
#[test]
fn whole_scf_run_is_traced_by_the_default_build() {
    let mol = small::water();
    let b = BasisSet::build(&mol, BasisName::Sto3g);
    let config = ScfConfig {
        algorithm: FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
        ..Default::default()
    };
    let session = TraceSession::begin();
    let r = run_scf(&mol, &b, &config);
    let report = session.finish();
    assert!(r.converged);
    assert!(!report.is_empty(), "a default build must record inside a session");
    report.check_well_formed().unwrap();
    assert_eq!(report.span_count("scf.iteration"), r.iterations);
    let sum = |f: fn(&FockBuildStats) -> u64| r.fock_stats.iter().map(f).sum::<u64>();
    assert_eq!(report.counter_total("quartets_computed"), sum(|s| s.quartets_computed));
    assert_eq!(report.counter_total("quartets_screened"), sum(|s| s.quartets_screened));
    assert_eq!(report.counter_total("flushes"), sum(|s| s.flushes));
    assert_eq!(
        report.counter_total("dlb.calls") as usize,
        r.fock_stats.iter().map(|s| s.dlb_calls).sum::<usize>()
    );
}
