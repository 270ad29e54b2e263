//! Bench: the memory wall — replicated vs sharded per-rank footprint.
//!
//! Runs the RHF driver on a graphene flake three ways: a serial reference,
//! the replicated MPI-only build, and the sharded build (tri-packed
//! density/Fock window stripes, O(N) rank-local caches). A per-rank byte
//! budget is fixed *a priori* from the [`MemoryModel`] — the midpoint of
//! the eq. (3a) replicated estimate and the sharded-stripe estimate — and
//! the live tracker must then show the wall: every replicated rank's peak
//! exceeds the budget, every sharded rank's peak fits under it.
//!
//! Hard asserts (not timed):
//! - all runs converge, and both parallel energies match the serial one
//!   within 1e-10;
//! - replicated per-rank peak (live tracker) > budget > sharded per-rank
//!   peak, and sharded < replicated outright;
//! - the tracker peaks bracket their own model estimates' ordering (the
//!   model is a prediction; the tracker is the measurement).

use hf::{run_scf, FockAlgorithm, MemoryModel, ScfConfig, ScfResult};
use phi_bench::microbench::smoke_mode;
use phi_chem::basis::{BasisName, BasisSet};
use phi_chem::geom::graphene;
use phi_dmpi::DdiMode;
use phi_integrals::ShellPairs;

const RANKS: usize = 4;

fn rank_peak(r: &ScfResult) -> usize {
    r.fock_stats.iter().map(|s| s.max_rank_peak()).max().unwrap_or(0)
}

fn main() {
    let (label, mol) = if smoke_mode() {
        ("graphene flake, 8 C, STO-3G", graphene::graphene_flake(8))
    } else {
        ("graphene flake, 16 C, STO-3G", graphene::graphene_flake(16))
    };
    let basis = BasisSet::build(&mol, BasisName::Sto3g);
    let n = basis.n_basis();
    let pair_bytes = ShellPairs::build(&basis).bytes();

    // The a-priori budget: halfway between what eq. (3a) says a replicated
    // rank needs and what the sharded stripes + caches need. A budget the
    // *model* places between the two footprints must separate the *live
    // tracker* measurements the same way, or the model is lying.
    let model = MemoryModel { n_basis: n, max_shell_width: basis.max_shell_width(), pair_bytes };
    let sharded_alg = FockAlgorithm::Sharded { n_ranks: RANKS, mode: DdiMode::Mpi3OneSided };
    let est_replicated = model.per_rank_bytes(FockAlgorithm::MpiOnly { n_ranks: RANKS });
    let est_sharded = model.per_rank_bytes(sharded_alg);
    assert!(
        est_sharded < est_replicated,
        "model: sharded {est_sharded:.0} B should undercut replicated {est_replicated:.0} B"
    );
    let budget = ((est_replicated + est_sharded) / 2.0) as usize;

    println!("# system: {label} (N = {n}, {RANKS} ranks)");
    println!("# model per-rank: replicated {est_replicated:.0} B, sharded {est_sharded:.0} B");
    println!("# a-priori budget: {budget} B per rank");

    let serial = run_scf(&mol, &basis, &ScfConfig::default());
    assert!(serial.converged, "serial reference did not converge");

    let replicated = run_scf(
        &mol,
        &basis,
        &ScfConfig { algorithm: FockAlgorithm::MpiOnly { n_ranks: RANKS }, ..Default::default() },
    );
    assert!(replicated.converged, "replicated SCF did not converge");

    let sharded =
        run_scf(&mol, &basis, &ScfConfig { algorithm: sharded_alg, ..Default::default() });
    assert!(sharded.converged, "sharded SCF did not converge");

    let de_rep = (replicated.energy - serial.energy).abs();
    let de_sh = (sharded.energy - serial.energy).abs();
    assert!(de_rep <= 1e-10, "replicated energy off serial by {de_rep:.3e}");
    assert!(de_sh <= 1e-10, "sharded energy off serial by {de_sh:.3e}");

    let rep_peak = rank_peak(&replicated);
    let sh_peak = rank_peak(&sharded);
    println!("# tracker per-rank peak: replicated {rep_peak} B, sharded {sh_peak} B");
    assert!(
        rep_peak > budget,
        "replicated rank peak {rep_peak} B should bust the {budget} B budget"
    );
    assert!(sh_peak < budget, "sharded rank peak {sh_peak} B should fit the {budget} B budget");
    assert!(sh_peak < rep_peak, "sharded {sh_peak} B must undercut replicated {rep_peak} B");

    let t_rep = replicated.time_to_form_fock();
    let t_sh = sharded.time_to_form_fock();
    let time_ratio = t_sh / t_rep.max(1e-12);
    println!(
        "# Fock build time: replicated {t_rep:.3} s, sharded {t_sh:.3} s \
         ({time_ratio:.2}x the replicated time; window traffic, not speed, \
         is what sharding trades for O(N) per-rank memory)"
    );
    println!(
        "# energy: serial {:.10}, replicated {:.10}, sharded {:.10}",
        serial.energy, replicated.energy, sharded.energy
    );
}
