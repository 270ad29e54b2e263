//! Quickstart: run restricted Hartree-Fock on water with each of the
//! paper's Fock-build algorithms and confirm they agree.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::hf::{run_scf, FockAlgorithm, ScfConfig};

fn main() {
    let mol = small::water();
    let basis = BasisSet::build(&mol, BasisName::B631g);
    println!(
        "water / {}: {} shells, {} basis functions, {} electrons\n",
        basis.name.label(),
        basis.n_shells(),
        basis.n_basis(),
        mol.n_electrons()
    );

    let algorithms = [
        FockAlgorithm::Serial,
        FockAlgorithm::MpiOnly { n_ranks: 4 },
        FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::Distributed { n_ranks: 4 },
    ];
    for algorithm in algorithms {
        let config = ScfConfig { algorithm, ..Default::default() };
        let result = run_scf(&mol, &basis, &config);
        println!(
            "{:13}  E = {:.8} Eh   ({} iterations, converged: {}, fock time {:.3}s, \
             {} B per rank modeled)",
            algorithm.label(),
            result.energy,
            result.iterations,
            result.converged,
            result.time_to_form_fock(),
            result.fock_stats[0].max_rank_peak(),
        );
    }
    println!("\nAll five must agree to ~1e-8 Eh — the parallel algorithms are exact.");
}
