//! Memory-footprint model (the paper's Table 2 machinery) for all five
//! graphene datasets, plus the shell-pair data every rank reads on a small
//! molecule. Every number is modeled or sized, none counted from
//! allocations.
//!
//! ```sh
//! cargo run --release --example memory_footprint
//! ```

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::graphene::PaperSystem;
use phi_scf::chem::geom::small;
use phi_scf::hf::fock::SignificantPairs;
use phi_scf::hf::memory_model::Table2Row;
use phi_scf::integrals::{Screening, ShellPairs};

fn main() {
    println!("Modelled per-node footprints, eqs. (3a)-(3c), paper configurations:");
    println!(
        "{:>8} {:>8} {:>14} {:>14} {:>14} {:>10}",
        "system", "N_bf", "MPI-only GB", "private GB", "shared GB", "MPI/ShF"
    );
    for sys in PaperSystem::ALL {
        let row = Table2Row::compute(sys);
        println!(
            "{:>8} {:>8} {:>14.2} {:>14.2} {:>14.2} {:>9.0}x",
            sys.label(),
            sys.n_basis_functions(),
            row.gb_mpi,
            row.gb_private,
            row.gb_shared,
            row.shared_ratio()
        );
    }

    println!("\nShell-pair data on methane/6-31G:");
    let basis = BasisSet::build(&small::methane(), BasisName::B631g);
    let pairs = ShellPairs::build(&basis);
    let screening = Screening::from_pairs(&basis, &pairs);
    println!("  shell-pair dataset: {} bytes (one copy per rank)", pairs.bytes());
    let kl = SignificantPairs::new(&screening, 1e-10);
    println!(
        "  significant-pair list: {} of {} pairs, {} bytes (per build, read by every rank)",
        kl.len(),
        pairs.len(),
        kl.bytes()
    );
}
