//! Bench: full direct SCF vs incremental (ΔD) SCF, end to end.
//!
//! Runs the RHF driver twice on the same system — plain direct builds vs
//! `incremental` mode (ΔD builds under density-weighted screening, full
//! rebuild every 8 iterations) — and reports the per-iteration
//! surviving-quartet trajectories. The interesting number is
//! the ratio between the first full build's quartet count and the final
//! incremental iteration's: as SCF converges, ‖ΔD‖ collapses and the
//! weighted test `Q_ij Q_kl max|ΔD|` prunes almost everything.
//!
//! Hard asserts (not timed):
//! - the incremental run converges to the full run's energy within the SCF
//!   convergence threshold;
//! - no incremental iteration ever computes more quartets than the first
//!   full build;
//! - in full mode (C6 ring, 6-31G(d) — the calibration system), the final
//!   incremental iteration computes at least 3x fewer quartets than the
//!   first full build. Smoke mode (water/6-31G, `PHI_BENCH_SMOKE=1`) skips
//!   the 3x floor: water's surviving Schwarz products are all so large
//!   that τ-level ΔD weighting prunes nothing — the run must merely not
//!   get slower per quartet.

use hf::{run_scf, ScfConfig, ScfResult};
use phi_bench::microbench::smoke_mode;
use phi_chem::basis::{BasisName, BasisSet};
use phi_chem::geom::small;

fn quartets(r: &ScfResult) -> Vec<u64> {
    r.fock_stats.iter().map(|s| s.quartets_computed).collect()
}

fn main() {
    let (label, mol, basis_name) = if smoke_mode() {
        ("water, 6-31G", small::water(), BasisName::B631g)
    } else {
        ("C6 ring, 6-31G(d)", small::c_ring(6, 1.39), BasisName::B631gd)
    };
    let basis = BasisSet::build(&mol, basis_name);
    // Tight density convergence gives the incremental tail room to shrink:
    // the weighted test prunes `Q_ij Q_kl max|ΔD| < tau`, so the pruning
    // power is set by how small ‖ΔD‖ gets before the run stops.
    let base = ScfConfig { convergence: 1e-10, ..Default::default() };
    // The two runs take different build paths, so their converged energies
    // agree to the suite's standard convergence threshold, not to the
    // tighter density threshold above.
    let energy_tol = ScfConfig::default().convergence;

    println!("# system: {label}");
    let full = run_scf(&mol, &basis, &base);
    assert!(full.converged, "full direct SCF did not converge");
    let inc = run_scf(
        &mol,
        &basis,
        &ScfConfig { incremental: true, full_rebuild_every: 8, ..base.clone() },
    );
    assert!(inc.converged, "incremental SCF did not converge");

    let de = (inc.energy - full.energy).abs();
    assert!(
        de < energy_tol,
        "incremental energy {} vs full {} — off by {de:.3e}, \
         beyond the convergence threshold {energy_tol:.1e}",
        inc.energy,
        full.energy
    );

    let q_inc = quartets(&inc);
    let first_full = q_inc[0];
    assert!(!inc.fock_stats[0].incremental, "first build must be full");
    assert!(
        q_inc.iter().all(|&q| q <= first_full),
        "an incremental-mode iteration computed more quartets than the first full build"
    );
    let last_inc = inc
        .fock_stats
        .iter()
        .rposition(|s| s.incremental)
        .expect("no incremental iteration in the whole run");
    let reduction = first_full as f64 / q_inc[last_inc].max(1) as f64;

    println!("# full run:        {} iterations, E = {:.8}", full.iterations, full.energy);
    println!("# incremental run: {} iterations, E = {:.8}", inc.iterations, inc.energy);
    println!("# quartets, full direct:    {:?}", quartets(&full));
    println!("# quartets, incremental:    {q_inc:?}");
    println!(
        "# final incremental iteration (#{}) computes {reduction:.1}x fewer quartets \
         than the first full build ({} vs {first_full})",
        last_inc + 1,
        q_inc[last_inc]
    );
    if !smoke_mode() {
        assert!(
            reduction >= 3.0,
            "incremental screening only reached {reduction:.2}x on {label}; the \
             calibration floor is 3x"
        );
    }
}
