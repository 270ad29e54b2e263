//! The one place the performance model meets a measurement: the simulator
//! configured as *this host* (2 cores x 1 SMT, no KNL slowdown, wall-clock
//! calibrated quartet costs) against `run_scf` on the two systems of
//! `benchmark/src/workloads.rs`, row by row.
//!
//! ```sh
//! cargo run --release --example model_vs_measured
//! ```
//!
//! Output is timing: run it a few times and read the spread, not one row.

use phi_scf::chem::basis::BasisName;
use phi_scf::chem::geom::small;
use phi_scf::chem::Molecule;
use phi_scf::hf::{run_scf, FockAlgorithm, ScfConfig};
use phi_scf::knlsim::des::{simulate, SimAlgorithm, SimConfig};
use phi_scf::knlsim::node::KnlNode;
use phi_scf::knlsim::scenarios::Ctx;

/// The benchmark's water trimer (`benchmark/` is a separate frozen crate,
/// so the geometry is copied): three waters on a ring of radius 3.2 bohr,
/// molecule `k` turned about z by `2 pi k / 3 + 0.7 k` and the odd one
/// lifted 0.3 bohr.
fn water_trimer() -> Molecule {
    let mut atoms = Vec::with_capacity(9);
    for k in 0..3 {
        let th = 2.0 * std::f64::consts::PI * k as f64 / 3.0;
        let w = small::water().rotated_z(th + 0.7 * k as f64).translated([
            3.2 * th.cos(),
            3.2 * th.sin(),
            0.3 * (k % 2) as f64,
        ]);
        atoms.extend_from_slice(w.atoms());
    }
    Molecule::neutral(atoms)
}

/// Median seconds of one Fock build over a whole SCF.
fn measured(mol: &Molecule, basis_name: BasisName, algorithm: FockAlgorithm) -> f64 {
    let basis = phi_scf::chem::BasisSet::build(mol, basis_name);
    let r = run_scf(mol, &basis, &ScfConfig { algorithm, ..ScfConfig::default() });
    let mut s: Vec<f64> = r.fock_stats.iter().map(|b| b.seconds).collect();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

fn main() {
    let systems = [
        ("water trimer / 6-31G(d)", water_trimer(), BasisName::B631gd),
        ("H28 chain / 6-31G", small::h_chain(28, 1.8), BasisName::B631g),
    ];
    let rows = [
        ("serial", SimAlgorithm::MpiOnly, 1, 1, FockAlgorithm::Serial),
        ("mpi:2", SimAlgorithm::MpiOnly, 2, 1, FockAlgorithm::MpiOnly { n_ranks: 2 }),
        (
            "private:1x2",
            SimAlgorithm::PrivateFock,
            1,
            2,
            FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 2 },
        ),
        (
            "shared:1x2",
            SimAlgorithm::SharedFock,
            1,
            2,
            FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 2 },
        ),
    ];
    let host = KnlNode { cores: 2, smt: 1, ..KnlNode::default() };
    for (label, mol, basis_name) in &systems {
        let mut ctx = Ctx::from_molecule(label, mol, *basis_name, 1e-10, 0.0, true);
        ctx.cost.knl_slowdown = 1.0;
        println!("{label}: nominal serial work {:.4} s", ctx.workload.total_cost_s);
        println!("{:>12} {:>10} {:>12} {:>8}", "row", "model s", "measured s", "error %");
        for &(row, alg, ranks, threads, real) in &rows {
            let cfg = SimConfig {
                node: host,
                ranks_per_node: ranks,
                threads_per_rank: threads,
                ..SimConfig::hybrid(alg, 1)
            };
            // A measured build ends with its `gsumf`; so does the model's.
            let sim = simulate(&ctx.workload, &ctx.cost, &cfg);
            let model = sim.fock_seconds + sim.reduction_seconds;
            let meas = measured(mol, *basis_name, real);
            println!("{row:>12} {model:>10.4} {meas:>12.4} {:>+8.1}", (model / meas - 1.0) * 100.0);
        }
        println!();
    }
}
