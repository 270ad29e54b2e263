//! RHF vs broken-symmetry UHF along the H2 dissociation curve — the
//! open-shell generalization the paper's conclusion points at ("UHF, GVB,
//! DFT, CPHF all have this structure"), built on the same quartet
//! digestion as the parallel Fock algorithms.
//!
//! ```sh
//! cargo run --release --example uhf_dissociation
//! ```

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::hf::{run_scf, FockAlgorithm, ScfConfig, Spin};

fn main() {
    println!("{:>8} {:>14} {:>14} {:>10}", "R/bohr", "RHF (Eh)", "UHF (Eh)", "<S^2>");
    for r10 in [10u32, 14, 20, 30, 40, 50, 70, 100] {
        let r = r10 as f64 / 10.0;
        let mol = small::hydrogen_molecule(r);
        let basis = BasisSet::build(&mol, BasisName::Sto3g);
        let rhf = run_scf(&mol, &basis, &ScfConfig::default());
        // UHF is the same driver with two spin channels: any Fock
        // algorithm works.
        let uhf_config = ScfConfig {
            spin: Spin::Unrestricted { n_alpha: 1, n_beta: 1, break_symmetry: true },
            algorithm: FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
            ..Default::default()
        };
        let uhf = run_scf(&mol, &basis, &uhf_config);
        println!(
            "{:>8.1} {:>14.8} {:>14.8} {:>10.4}{}",
            r,
            rhf.energy,
            uhf.energy,
            uhf.beta.as_ref().expect("unrestricted run").s_squared,
            if uhf.energy < rhf.energy - 1e-6 { "   <- symmetry broken" } else { "" }
        );
    }
    println!("\nRHF rises toward the spurious ionic limit; UHF breaks spin symmetry");
    println!("beyond the Coulson-Fischer point and dissociates to two H atoms");
    println!("(2 x -0.46658 Eh in STO-3G) at the price of spin contamination.");
}
