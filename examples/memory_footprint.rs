//! Memory-footprint analysis (the paper's Table 2 machinery) for all five
//! graphene datasets plus a live measured comparison on a real build.
//!
//! ```sh
//! cargo run --release --example memory_footprint
//! ```

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::graphene::PaperSystem;
use phi_scf::chem::geom::small;
use phi_scf::hf::fock::SignificantPairs;
use phi_scf::hf::memory_model::Table2Row;
use phi_scf::hf::{DensitySet, FockAlgorithm, FockContext};
use phi_scf::integrals::{Screening, ShellPairs};
use phi_scf::linalg::Mat;

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

    println!("\nLive measurement (tracked allocations) on methane/6-31G at 8-way parallelism:");
    let mol = small::methane();
    let basis = BasisSet::build(&mol, BasisName::B631g);
    let pairs = ShellPairs::build(&basis);
    let screening = Screening::from_pairs(&basis, &pairs);
    println!("  shell-pair dataset: {} bytes (shared per rank)", pairs.bytes());
    let kl = SignificantPairs::new(&screening, 1e-10);
    println!(
        "  significant-pair list: {} of {} pairs, {} bytes (per build, read by every rank)",
        kl.len(),
        pairs.len(),
        kl.bytes()
    );
    let n = basis.n_basis();
    let d = Mat::identity(n);
    let ctx = FockContext::new(&basis, &pairs, &screening, 1e-10);
    let dens = DensitySet::Restricted(&d);
    let mpi = FockAlgorithm::MpiOnly { n_ranks: 8 }.builder().build(&ctx, &dens);
    let prf = FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 8 }.builder().build(&ctx, &dens);
    let shf = FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 8 }.builder().build(&ctx, &dens);
    let dst = FockAlgorithm::Distributed { n_ranks: 8 }.builder().build(&ctx, &dens);
    for (name, s) in [
        ("MPI-only 8 ranks", &mpi.stats),
        ("private Fock 1x8", &prf.stats),
        ("shared Fock 1x8", &shf.stats),
        ("distributed 8", &dst.stats),
    ] {
        println!(
            "  {:18} peak {:>10} bytes  ({:.1}x below MPI-only)",
            name,
            s.memory_total_peak,
            mpi.stats.memory_total_peak as f64 / s.memory_total_peak as f64
        );
    }
}
