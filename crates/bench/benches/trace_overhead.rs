//! Bench: the cost of the `phi-trace` instrumentation on the hot path.
//!
//! Measures the engine-serial Fock build twice — outside any
//! [`TraceSession`] (what every untraced run pays: one relaxed atomic
//! load per instrumentation point) and inside an active session (events
//! actually recorded) — and hard-asserts the traced/untraced ratio
//! against the overhead budget of 2 %. Tracing is always compiled, so
//! this budget is what lets the default binary carry it.
//!
//! Resolving a ≤2 % effect needs a drift-robust protocol, so this bench
//! does not reuse the sequential `Runner`: each round times the two
//! sides in *adjacent* windows (alternating which goes first, which
//! cancels any first/second bias) and the reported overhead is the
//! **median of the per-round ratios**. Adjacent windows share the
//! machine's drift state, so a per-round ratio is far less noisy than
//! a ratio of independently-taken minima, and the median discards the
//! rounds a noisy neighbour lands on. Full mode measures the C6 ring
//! in 6-31G: large enough to be a real build, small enough to repeat
//! many times. (Per-build trace cost is O(1) events, so a *smaller*
//! system is the conservative choice — fixed cost over less work.)
//! `PHI_BENCH_SMOKE=1` switches to water/6-31G with millisecond
//! windows, where the assert is correspondingly lenient — CI uses smoke
//! mode only to keep the bench executing, not for published numbers.
//!
//! `--chrome <path>` writes the Chrome `trace_event` JSON of a single
//! traced build (CI uploads it as an artifact when the budget assert
//! fails); it is written *before* the assert so a failure leaves the
//! evidence behind.

use hf::{DensitySet, FockAlgorithm, FockContext};
use phi_bench::microbench::{black_box, smoke_mode};
use phi_chem::basis::{BasisName, BasisSet};
use phi_chem::geom::small;
use phi_integrals::{Screening, ShellPairs};
use phi_linalg::Mat;
use phi_trace::TraceSession;
use std::time::Instant;

fn flag_path(flag: &str) -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next().map(std::path::PathBuf::from);
        }
    }
    None
}

fn main() {
    let (label, mol, basis_name) = if smoke_mode() {
        ("water, 6-31G", small::water(), BasisName::B631g)
    } else {
        ("C6 ring, 6-31G", small::c_ring(6, 1.39), BasisName::B631g)
    };
    let basis = BasisSet::build(&mol, basis_name);
    let pairs = ShellPairs::build(&basis);
    let screening = Screening::from_pairs(&basis, &pairs);
    let tau = 1e-10;
    let ctx = FockContext::new(&basis, &pairs, &screening, tau);
    let n = basis.n_basis();
    let d = Mat::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.05 });
    let dens = DensitySet::Restricted(&d);

    println!("# group: trace_overhead");
    println!("# system: {label}");

    let mut build = || {
        black_box(FockAlgorithm::Serial.builder().build(&ctx, &dens).g.trace());
    };
    let time_window = |iters: u64, f: &mut dyn FnMut()| -> f64 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_secs_f64()
    };

    // Calibrate the iteration count on the untraced side (warm-up rides
    // along), then run the paired rounds.
    let (window, rounds) = if smoke_mode() { (0.002, 5) } else { (0.25, 10) };
    let mut iters = 1u64;
    loop {
        let dt = time_window(iters, &mut build);
        if dt >= window {
            break;
        }
        iters = if dt > 1e-4 {
            ((iters as f64 * window / dt).ceil() as u64).max(iters + 1)
        } else {
            iters * 10
        };
    }
    let mut best_untraced = f64::INFINITY;
    let mut best_traced = f64::INFINITY;
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let traced_first = round % 2 == 1;
        let mut round_traced = 0.0;
        let mut round_untraced = 0.0;
        for half in 0..2 {
            if (half == 0) == traced_first {
                let session = TraceSession::begin();
                round_traced = time_window(iters, &mut build);
                drop(session.finish());
            } else {
                round_untraced = time_window(iters, &mut build);
            }
        }
        best_traced = best_traced.min(round_traced);
        best_untraced = best_untraced.min(round_untraced);
        ratios.push(round_traced / round_untraced);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let ratio = (ratios[(rounds - 1) / 2] + ratios[rounds / 2]) / 2.0;
    let baseline = best_untraced * 1e9 / iters as f64;
    let traced = best_traced * 1e9 / iters as f64;
    println!("trace_overhead/serial_engine_untraced: {baseline:.1} ns/iter ({iters} iters)");
    println!("trace_overhead/serial_engine_traced: {traced:.1} ns/iter ({iters} iters)");
    println!(
        "# per-round traced/untraced ratios (sorted): {}",
        ratios.iter().map(|r| format!("{r:.4}")).collect::<Vec<_>>().join(" ")
    );

    // One clean single-build session for the exported artifacts.
    let session = TraceSession::begin();
    build();
    let report = session.finish();

    println!("# traced/untraced serial Fock time (median of paired rounds): {ratio:.4}");

    if let Some(path) = flag_path("--chrome") {
        std::fs::write(&path, report.to_chrome_json()).expect("write chrome trace");
        println!("# wrote {}", path.display());
    }
    // The budget assert. Smoke mode times single builds in millisecond
    // windows, so it only guards against gross regressions (an
    // accidental per-quartet event would blow far past 1.5x).
    let budget = if smoke_mode() { 1.5 } else { 1.02 };
    assert!(
        ratio <= budget,
        "trace overhead {ratio:.4} exceeds the budget {budget} on the engine-serial Fock build"
    );
}
