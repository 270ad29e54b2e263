//! Benchmark harness: shared setup for the experiment binaries that
//! regenerate every table and figure of the paper, plus the benches (in
//! `benches/`) that gate a claim nothing else does.
//!
//! Binaries (see DESIGN.md §4 for the experiment index):
//!
//! | binary            | reproduces            |
//! |-------------------|-----------------------|
//! | `table2`          | Table 2 (+ Table 4)   |
//! | `fig3`            | Figure 3              |
//! | `fig4`            | Figure 4              |
//! | `fig5`            | Figure 5              |
//! | `fig6`            | Figure 6              |
//! | `table3`          | Table 3               |
//! | `fig7`            | Figure 7              |
//! | `ablations`       | DESIGN.md §5 ablations|
//! | `all_experiments` | everything above      |
//!
//! Every binary accepts `--quick` to substitute a small carbon-ring system
//! for the paper's graphene datasets (CI-friendly smoke mode); without it
//! the real datasets are generated and screened exactly.

pub mod microbench;

use phi_chem::basis::BasisName;
use phi_chem::geom::graphene::PaperSystem;
use phi_chem::geom::small;
use phi_knlsim::scenarios::Ctx;

/// Parse the common `--quick` flag.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Parse the common `--csv <dir>` flag.
pub fn csv_dir() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--csv" {
            return Some(std::path::PathBuf::from(args.next().unwrap_or_else(|| ".".into())));
        }
    }
    None
}

/// Print a table and, if `--csv <dir>` was given, also write `<dir>/<slug>.csv`.
pub fn emit(table: &phi_knlsim::report::Table, slug: &str) {
    println!("{table}");
    if let Some(dir) = csv_dir() {
        std::fs::create_dir_all(&dir).expect("create csv dir");
        let path = dir.join(format!("{slug}.csv"));
        std::fs::write(&path, table.to_csv()).expect("write csv");
        eprintln!("[csv] wrote {}", path.display());
    }
}

/// Context for a paper dataset, or a small stand-in under `--quick`.
///
/// Quick mode swaps the graphene flakes for carbon rings with the same
/// basis (identical shell classes, much smaller pair space) and skips
/// wall-clock calibration so output is deterministic.
pub fn context(system: PaperSystem, quick: bool) -> Ctx {
    if quick {
        let n_atoms = match system {
            PaperSystem::Nm05 => 6,
            PaperSystem::Nm10 => 8,
            PaperSystem::Nm15 => 10,
            PaperSystem::Nm20 => 12,
            PaperSystem::Nm50 => 16,
        };
        let mol = small::c_ring(n_atoms, 1.40);
        Ctx::from_molecule(
            &format!("{} (quick: C{} ring)", system.label(), n_atoms),
            &mol,
            BasisName::B631gd,
            1e-10,
            0.0,
            false,
        )
    } else {
        eprintln!(
            "[setup] generating {} workload (geometry, Schwarz bounds, statistics)...",
            system.label()
        );
        let ctx = Ctx::paper(system, true);
        eprintln!(
            "[setup] {}: {} shells, {} pairs, {} surviving tasks, {:.2e} surviving quartets",
            system.label(),
            ctx.workload.n_shells,
            ctx.workload.total_pairs,
            ctx.workload.ij_tasks.len(),
            ctx.workload.surviving_quartets as f64,
        );
        ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_contexts_build_for_every_system() {
        for sys in PaperSystem::ALL {
            let ctx = context(sys, true);
            assert!(!ctx.workload.ij_tasks.is_empty());
        }
    }
}
