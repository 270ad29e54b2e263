//! Bench: the fault-free cost of the reliable-delivery layer.
//!
//! Measures the MPI-only Fock build twice — under `RetryPolicy::none()`
//! (raw fire-and-forget sends, the pre-reliability wire protocol) and
//! under `RetryPolicy::default()` (checksummed, acked, deduplicated
//! sequenced delivery on the reduction tree and barriers) — and
//! hard-asserts the reliable/raw ratio against the PR's overhead budget
//! of 2 %. With no faults injected, the entire difference is the
//! protocol tax: checksum computation, ack round-trips and the pumping
//! barrier.
//!
//! Resolving a ≤2 % effect uses the same drift-robust protocol as
//! `trace_overhead`: each round times the two sides in *adjacent*
//! windows (alternating which goes first) and the reported overhead is
//! the **median of the per-round ratios**. Full mode measures the C6
//! ring in 6-31G at four ranks; `PHI_BENCH_SMOKE=1` switches to
//! water/6-31G with millisecond windows and a correspondingly lenient
//! assert — CI uses smoke mode to keep the bench executing, not for
//! published numbers.

use hf::{DensitySet, FockAlgorithm, FockContext};
use phi_bench::microbench::{black_box, smoke_mode};
use phi_chem::basis::{BasisName, BasisSet};
use phi_chem::geom::small;
use phi_dmpi::RetryPolicy;
use phi_integrals::{Screening, ShellPairs};
use phi_linalg::Mat;
use std::time::Instant;

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
    let alg = FockAlgorithm::MpiOnly { n_ranks: 4 };

    println!("# group: reliability_overhead");
    println!("# system: {label}, mpi:4");

    let build_with = |retry: RetryPolicy| {
        black_box(alg.builder_with_comm(None, retry).build(&ctx, &dens).g.trace());
    };
    let mut raw = || build_with(RetryPolicy::none());
    let mut reliable = || build_with(RetryPolicy::default());
    let time_window = |iters: u64, f: &mut dyn FnMut()| -> f64 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_secs_f64()
    };

    // Calibrate the iteration count on the raw side (warm-up rides
    // along), then run the paired rounds.
    let (window, rounds) = if smoke_mode() { (0.002, 5) } else { (0.25, 10) };
    let mut iters = 1u64;
    loop {
        let dt = time_window(iters, &mut raw);
        if dt >= window {
            break;
        }
        iters = if dt > 1e-4 {
            ((iters as f64 * window / dt).ceil() as u64).max(iters + 1)
        } else {
            iters * 10
        };
    }
    let mut best_raw = f64::INFINITY;
    let mut best_reliable = f64::INFINITY;
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let reliable_first = round % 2 == 1;
        let mut round_reliable = 0.0;
        let mut round_raw = 0.0;
        for half in 0..2 {
            if (half == 0) == reliable_first {
                round_reliable = time_window(iters, &mut reliable);
            } else {
                round_raw = time_window(iters, &mut raw);
            }
        }
        best_reliable = best_reliable.min(round_reliable);
        best_raw = best_raw.min(round_raw);
        ratios.push(round_reliable / round_raw);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let ratio = (ratios[(rounds - 1) / 2] + ratios[rounds / 2]) / 2.0;
    let baseline = best_raw * 1e9 / iters as f64;
    let with_acks = best_reliable * 1e9 / iters as f64;
    println!("reliability_overhead/mpi4_raw: {baseline:.1} ns/iter ({iters} iters)");
    println!("reliability_overhead/mpi4_reliable: {with_acks:.1} ns/iter ({iters} iters)");
    println!(
        "# per-round reliable/raw ratios (sorted): {}",
        ratios.iter().map(|r| format!("{r:.4}")).collect::<Vec<_>>().join(" ")
    );
    println!("# reliable/raw MPI-only Fock time (median of paired rounds): {ratio:.4}");

    // The budget assert. Smoke mode times single builds in millisecond
    // windows, so it only guards against gross regressions (a hot-path
    // sleep or a per-message allocation storm would blow far past 1.5x).
    let budget = if smoke_mode() { 1.5 } else { 1.02 };
    assert!(
        ratio <= budget,
        "reliable-delivery overhead {ratio:.4} exceeds the budget {budget} on the \
         fault-free MPI-only Fock build"
    );
}
