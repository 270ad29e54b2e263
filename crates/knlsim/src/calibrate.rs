//! Wall-clock calibration of per-quartet ERI + digestion costs.
//!
//! Runs the *real* integral engine and Fock digestion on representative
//! shell quartets of each class pair and measures nanoseconds per quartet.
//! The simulator then distributes these measured costs, so its workload is
//! anchored in the actual code, not in guesses. (The analytic table in
//! [`crate::cost::EriCostTable::analytic`] exists as a deterministic
//! fallback for tests.)

use crate::cost::EriCostTable;
use hf::fock::{digest_quartet, TriSink};
use phi_chem::BasisSet;
use phi_integrals::screening::ShellClasses;
use phi_integrals::{EriEngine, ShellPairs};
use phi_linalg::Mat;
use std::time::Instant;

/// Minimum measurement window per class pair.
const MIN_WINDOW_S: f64 = 0.002;

/// Measure the cost table for a basis on this host.
///
/// Takes the persistent [`ShellPairs`] dataset the real builders use, so
/// the timed kernel consumes exactly the pair data layout of a production
/// Fock build (no ad-hoc pair construction).
pub fn calibrate_eri_costs(
    basis: &BasisSet,
    pairs: &ShellPairs,
    classes: &ShellClasses,
) -> EriCostTable {
    let reps_shells = classes.representatives();
    let nc = classes.n_classes();
    let npc = classes.n_pair_classes();
    let n = basis.n_basis();
    let d = Mat::from_fn(n, n, |i, j| {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        0.3 + ((i + 2 * j) % 7) as f64 * 0.05
    });
    let mut engine = EriEngine::new();
    engine.prefactor_cutoff = 0.0; // measure the un-screened kernel cost
    let mut fbuf = vec![0.0; n * n];
    let mut ns = vec![0.0; npc * npc];

    let mut eri_buf: Vec<f64> = Vec::new();
    for a1 in 0..nc {
        for a2 in 0..=a1 {
            let bra_pc = a1 * (a1 + 1) / 2 + a2;
            for b1 in 0..nc {
                for b2 in 0..=b1 {
                    let ket_pc = b1 * (b1 + 1) / 2 + b2;
                    // The persistent dataset stores lower-triangular pairs;
                    // orient each representative pair accordingly (the cost
                    // of a class pair is orientation-independent).
                    let (si, sj) = ordered(reps_shells[a1], reps_shells[a2]);
                    let (sk, sl) = ordered(reps_shells[b1], reps_shells[b2]);
                    let (sa, sb, sc, sd) = (
                        &basis.shells[si],
                        &basis.shells[sj],
                        &basis.shells[sk],
                        &basis.shells[sl],
                    );
                    let len =
                        sa.n_functions() * sb.n_functions() * sc.n_functions() * sd.n_functions();
                    eri_buf.clear();
                    eri_buf.resize(len, 0.0);
                    let (bra, ket) = (pairs.pair(si, sj), pairs.pair(sk, sl));
                    // Warm up once, then time batches until the window is
                    // long enough to trust.
                    engine.shell_quartet_pairs(bra, ket, &mut eri_buf);
                    let mut total_reps = 0u64;
                    let start = Instant::now();
                    loop {
                        for _ in 0..16 {
                            engine.shell_quartet_pairs(bra, ket, &mut eri_buf);
                            let mut sink = TriSink { buf: &mut fbuf, n };
                            digest_quartet(basis, si, sj, sk, sl, &eri_buf, &d, &mut sink);
                        }
                        total_reps += 16;
                        if start.elapsed().as_secs_f64() >= MIN_WINDOW_S {
                            break;
                        }
                    }
                    ns[bra_pc * npc + ket_pc] =
                        start.elapsed().as_secs_f64() * 1e9 / total_reps as f64;
                }
            }
        }
    }
    EriCostTable { n_pair_classes: npc, ns }
}

#[inline]
fn ordered(a: usize, b: usize) -> (usize, usize) {
    if a >= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;

    #[test]
    fn calibration_produces_sane_magnitudes() {
        let b = BasisSet::build(&small::c_ring(6, 1.39), BasisName::B631gd);
        let pairs = ShellPairs::build(&b);
        let classes = ShellClasses::classify(&b);
        let t = calibrate_eri_costs(&b, &pairs, &classes);
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
