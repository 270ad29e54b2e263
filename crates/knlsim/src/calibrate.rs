//! Wall-clock calibration of per-quartet ERI + digestion costs.
//!
//! Runs the *real* integral engine and Fock digestion on representative
//! shell quartets of each class pair and measures nanoseconds per quartet.
//! The simulator then distributes these measured costs, so its workload is
//! anchored in the actual code, not in guesses. (The analytic table in
//! [`crate::cost::EriCostTable::analytic`] is the deterministic stand-in
//! tests and `--quick` substitute; it is not a measurement.)

use crate::cost::EriCostTable;
use hf::fock::{digest_quartet, TriSink};
use phi_chem::BasisSet;
use phi_integrals::screening::ShellClasses;
use phi_integrals::{EriEngine, ShellPairs};
use phi_linalg::Mat;
use std::time::Instant;

/// Minimum measurement window per class pair.
const MIN_WINDOW_S: f64 = 0.002;

/// Measured windows per class pair; the fastest is kept (minimum wall time
/// is the low-noise estimator, as in `phi-bench`'s `microbench::Runner`).
const WINDOWS: usize = 3;

/// Measure the cost table for a basis on this host.
///
/// Times one quartet per class pair on a basis of just the class
/// representatives. Its [`ShellPairs`] dataset holds one pair per pair
/// class, so the timed kernel consumes the pair data layout of a production
/// Fock build — without the full basis's dataset (32.5 M pairs, ~90 GB, for
/// the 5.0 nm flake) or its N x N density (7.3 GB there).
pub fn calibrate_eri_costs(basis: &BasisSet, classes: &ShellClasses) -> EriCostTable {
    // Shell `a` of `reps` is the representative of class `a`.
    let shells = classes.representatives().iter().map(|&s| basis.shells[s].clone()).collect();
    let reps = BasisSet::from_shells(basis.name, shells);
    let npc = classes.n_pair_classes();
    let n = reps.n_basis();
    let d = Mat::from_fn(n, n, |i, j| {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        0.3 + ((i + 2 * j) % 7) as f64 * 0.05
    });
    let mut engine = EriEngine::new();
    engine.prefactor_cutoff = 0.0; // measure the un-screened kernel cost
    let mut fbuf = vec![0.0; n * n];
    let mut ns = vec![0.0; npc * npc];

    // Pair `(a1, a2)` of `reps` sits at `a1 (a1 + 1) / 2 + a2`, its pair
    // class index.
    let pairs = ShellPairs::build(&reps);

    let mut eri_buf: Vec<f64> = Vec::new();
    for (bra_pc, bra) in pairs.iter().enumerate() {
        for (ket_pc, ket) in pairs.iter().enumerate() {
            let (si, sj, sk, sl) = (bra.i, bra.j, ket.i, ket.j);
            let len = [si, sj, sk, sl].iter().map(|&s| reps.shells[s].n_functions()).product();
            eri_buf.clear();
            eri_buf.resize(len, 0.0);
            // Warm up once, then time batches until a window is long
            // enough to trust.
            engine.shell_quartet_pairs(bra, ket, &mut eri_buf);
            let mut best = f64::INFINITY;
            for _ in 0..WINDOWS {
                let mut total_reps = 0u64;
                let start = Instant::now();
                loop {
                    for _ in 0..16 {
                        engine.shell_quartet_pairs(bra, ket, &mut eri_buf);
                        let mut sink = TriSink { buf: &mut fbuf, n };
                        digest_quartet(&reps, si, sj, sk, sl, &eri_buf, &d, &mut sink);
                    }
                    total_reps += 16;
                    if start.elapsed().as_secs_f64() >= MIN_WINDOW_S {
                        break;
                    }
                }
                best = best.min(start.elapsed().as_secs_f64() * 1e9 / total_reps as f64);
            }
            ns[bra_pc * npc + ket_pc] = best;
        }
    }
    EriCostTable { n_pair_classes: npc, ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;

    #[test]
    fn calibration_produces_sane_magnitudes() {
        let b = BasisSet::build(&small::c_ring(6, 1.39), BasisName::B631gd);
        let classes = ShellClasses::classify(&b);
        let t = calibrate_eri_costs(&b, &classes);
        for v in &t.ns {
            assert!(*v > 10.0, "quartet under 10 ns is implausible: {v}");
            assert!(*v < 1e7, "quartet over 10 ms is implausible: {v}");
        }
        // Within one angular class the deeper contraction must cost more:
        // L3 pairs both sides are 9x9 primitive quartets, L1 pairs one, both
        // through the same SP kernel, so the true ratio is ~50x; the loose
        // bound tolerates timer noise when the test suite shares one core.
        // (Across classes no such order holds: since the straight-line ssss
        // kernel, 36x36 s-type primitive quartets cost about what one
        // (dd|dd) primitive quartet does.)
        let pc = |a: usize, b: usize| a * (a + 1) / 2 + b;
        assert!(
            t.get(pc(1, 1), pc(1, 1)) > 1.5 * t.get(pc(2, 2), pc(2, 2)),
            "L3 quartet {} ns vs L1 quartet {} ns",
            t.get(pc(1, 1), pc(1, 1)),
            t.get(pc(2, 2), pc(2, 2))
        );
    }
}
