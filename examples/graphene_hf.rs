//! The paper's workload, end to end: build a (small) graphene flake with
//! the 6-31G(d) basis, run a real shared-Fock SCF on it, and print the
//! screening statistics that drive the large-scale experiments.
//!
//! ```sh
//! cargo run --release --example graphene_hf          # C6 flake, real SCF
//! cargo run --release --example graphene_hf -- paper # 0.5 nm stats only
//! ```

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::graphene::{graphene_flake, PaperSystem};
use phi_scf::hf::{run_scf, FockAlgorithm, ScfConfig};
use phi_scf::integrals::screening::ShellClasses;
use phi_scf::integrals::Screening;
use phi_scf::knlsim::cost::EriCostTable;
use phi_scf::knlsim::workload::Workload;

fn main() {
    let paper_mode = std::env::args().any(|a| a == "paper");
    if paper_mode {
        // Screening statistics for the smallest paper dataset (0.5 nm):
        // this is the exact workload the simulator distributes.
        let sys = PaperSystem::Nm05;
        let mol = sys.molecule();
        let basis = BasisSet::build(&mol, BasisName::B631gd);
        println!(
            "{}: {} atoms, {} shells, {} basis functions",
            sys.label(),
            mol.n_atoms(),
            basis.n_shells(),
            basis.n_basis()
        );
        let screening = Screening::compute_hybrid(&basis, 0.0);
        let eri = EriCostTable::analytic(&ShellClasses::classify(&basis));
        for tau in [1e-8, 1e-10, 1e-12] {
            let w = Workload::build(&basis, &screening, tau, &eri);
            println!(
                "tau = {tau:>7.0e}: {:>9} surviving ij tasks, {:>14} surviving quartets, {:.1}% screened out",
                w.ij_tasks.len(),
                w.surviving_quartets,
                w.screened_fraction() * 100.0
            );
        }
        return;
    }

    // A real SCF on a C6 monolayer flake (one graphene hexagon).
    let mol = graphene_flake(6);
    let basis = BasisSet::build(&mol, BasisName::Sto3g);
    println!(
        "C6 graphene flake / STO-3G: {} shells, {} basis functions",
        basis.n_shells(),
        basis.n_basis()
    );
    let config = ScfConfig {
        algorithm: FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
        ..Default::default()
    };
    let result = run_scf(&mol, &basis, &config);
    println!(
        "E = {:.6} Eh after {} iterations (converged: {})",
        result.energy, result.iterations, result.converged
    );
    let s = &result.fock_stats[0];
    println!(
        "per Fock build: {} quartets computed, {:.1}% of canonical screened, {} DLB tasks",
        s.quartets_computed,
        s.screened_fraction(basis.n_shells()) * 100.0,
        s.dlb_tasks
    );
}
