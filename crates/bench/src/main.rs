//! `phi-bench`: regenerates every table and figure of the paper.
//!
//! ```sh
//! phi-bench [--quick] <experiment>
//! ```
//!
//! | experiment  | reproduces                                              |
//! |-------------|---------------------------------------------------------|
//! | `table2`    | Table 2 (+ the artifact's Table 4)                       |
//! | `fig3`      | Figure 3 — thread affinity                               |
//! | `fig4`      | Figure 4 — single-node scalability                       |
//! | `fig5`      | Figure 5 — cluster and memory modes                      |
//! | `fig6`      | Figure 6 — multi-node scalability                        |
//! | `table3`    | Table 3 — Figure 6's data beside the paper's values      |
//! | `fig7`      | Figure 7 — 5.0 nm up to 3,000 nodes                      |
//! | `ablations` | DESIGN.md §5 ablations                                   |
//! | `all`       | everything above plus the failure-recovery study         |
//!
//! `--quick` substitutes a small carbon-ring system for the paper's
//! graphene datasets (CI-sized smoke mode); without it the real datasets
//! are generated and screened exactly.

use hf::memory_model::{Table2Row, PAPER_TABLE2_GB};
use phi_chem::basis::{BasisName, BasisSet};
use phi_chem::geom::graphene::PaperSystem;
use phi_chem::geom::small;
use phi_knlsim::report::{fmt_gb, Table};
use phi_knlsim::scenarios::{self, Ctx, PAPER_TABLE3};
use std::io::{self, Write};

const USAGE: &str =
    "usage: phi-bench [--quick] <table2|fig3|fig4|fig5|fig6|table3|fig7|ablations|all>";

/// An experiment takes `quick` and the stream to print to.
type Experiment = fn(bool, &mut dyn Write) -> io::Result<()>;

const EXPERIMENTS: [(&str, Experiment); 9] = [
    ("table2", table2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("table3", table3),
    ("fig7", fig7),
    ("ablations", ablations),
    ("all", all),
];

fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut quick = false;
    let mut name = None;
    for a in args {
        match a.as_str() {
            "--quick" => quick = true,
            n if name.is_none() && !n.starts_with('-') => name = Some(n),
            other => return Err(format!("unexpected argument '{other}'\n{USAGE}")),
        }
    }
    let name = name.ok_or(format!("no experiment named\n{USAGE}"))?;
    let (_, experiment) = EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown experiment '{name}'\n{USAGE}"))?;
    experiment(quick, out).map_err(|e| format!("{name}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args, &mut io::stdout().lock()) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Context for a paper dataset, or a small stand-in under `--quick`.
///
/// Quick mode swaps the graphene flakes for carbon rings with the same
/// basis (identical shell classes, much smaller pair space) and skips
/// wall-clock calibration so output is deterministic.
fn context(system: PaperSystem, quick: bool) -> Ctx {
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

/// The 2.0 nm context of the multi-node studies, anchored (outside quick
/// mode) to the paper's single published shared-Fock point: 1318 s on 4
/// nodes (Table 3).
fn anchored_nm20(quick: bool) -> Ctx {
    let mut ctx = context(PaperSystem::Nm20, quick);
    if !quick {
        let scale = ctx.anchor(4, 1318.0);
        eprintln!("[anchor] time scale set to {scale:.3} (ShF @ 4 nodes == 1318 s)");
    }
    ctx
}

/// Table 2 (memory footprints of the three codes for the five graphene
/// datasets) and the artifact's Table 4 (dataset characteristics): the
/// paper's eqs. (3a)–(3c) with the paper's configurations, beside the
/// paper's printed values. The footprints are modeled; nothing here
/// counts allocations.
fn table2(_: bool, out: &mut dyn Write) -> io::Result<()> {
    let mut t4 = Table::new(
        "Table 4 (artifact) — dataset characteristics",
        &["name", "atoms", "shells", "basis functions"],
    );
    for sys in PaperSystem::ALL {
        let mol = sys.molecule();
        let basis = BasisSet::build(&mol, BasisName::B631gd);
        t4.row(vec![
            sys.label().into(),
            mol.n_atoms().to_string(),
            basis.n_shells().to_string(),
            basis.n_basis().to_string(),
        ]);
    }
    writeln!(out, "{t4}")?;

    let mut t2 = Table::new(
        "Table 2 — memory footprint per node (GB): model (eqs. 3a-3c) vs paper",
        &[
            "name",
            "MPI model",
            "MPI paper",
            "PrF model",
            "PrF paper",
            "ShF model",
            "ShF paper",
            "MPI/ShF ratio",
        ],
    );
    for (sys, &(p_mpi, p_prf, p_shf)) in PaperSystem::ALL.iter().zip(&PAPER_TABLE2_GB) {
        let row = Table2Row::compute(*sys);
        t2.row(vec![
            sys.label().into(),
            fmt_gb(row.gb_mpi),
            fmt_gb(p_mpi),
            fmt_gb(row.gb_private),
            fmt_gb(p_prf),
            fmt_gb(row.gb_shared),
            fmt_gb(p_shf),
            format!("{:.0}x", row.shared_ratio()),
        ]);
    }
    t2.note("model: 256 ranks/node (MPI) vs 4 ranks x 64 threads (hybrids), eqs. (3a)-(3c)");
    t2.note(
        "paper's measured MPI/ShF reduction: ~200x (incl. GAMESS structures beyond the equations)",
    );
    writeln!(out, "{t2}")
}

/// Figure 3: shared-Fock performance vs OpenMP thread affinity type on a
/// single node (1.0 nm dataset, 4 MPI ranks, 1–64 threads/rank).
fn fig3(quick: bool, out: &mut dyn Write) -> io::Result<()> {
    let ctx = context(PaperSystem::Nm10, quick);
    writeln!(out, "{}", scenarios::fig3(&ctx))
}

/// Figure 4: single-node scalability of the three codes with respect to
/// hardware threads (1.0 nm dataset, quad-cache).
fn fig4(quick: bool, out: &mut dyn Write) -> io::Result<()> {
    let ctx = context(PaperSystem::Nm10, quick);
    writeln!(out, "{}", scenarios::fig4(&ctx))
}

/// Figure 5: time-to-solution under different KNL clustering and memory
/// modes for the small (0.5 nm) and large (2.0 nm) datasets.
fn fig5(quick: bool, out: &mut dyn Write) -> io::Result<()> {
    let small = context(PaperSystem::Nm05, quick);
    let large = context(PaperSystem::Nm20, quick);
    writeln!(out, "{}", scenarios::fig5(&small, &large))
}

/// Figure 6: multi-node scalability of the three codes (2.0 nm dataset,
/// 4–512 nodes).
fn fig6(quick: bool, out: &mut dyn Write) -> io::Result<()> {
    let ctx = anchored_nm20(quick);
    writeln!(out, "{}", scenarios::fig6_table3(&ctx))
}

/// Table 3: Figure 6's times and parallel efficiencies, printed side by
/// side with the paper's published values.
fn table3(quick: bool, out: &mut dyn Write) -> io::Result<()> {
    let ctx = anchored_nm20(quick);
    writeln!(out, "{}", scenarios::fig6_table3(&ctx))?;

    let mut paper = Table::new(
        "Table 3 — the paper's published values (for comparison)",
        &["nodes", "MPI s", "PrF s", "ShF s", "MPI eff%", "PrF eff%", "ShF eff%"],
    );
    for (nodes, times, effs) in PAPER_TABLE3 {
        let cells = times.iter().chain(&effs).map(|v| format!("{v:.0}"));
        paper.row(std::iter::once(nodes.to_string()).chain(cells).collect());
    }
    writeln!(out, "{paper}")
}

/// Figure 7: shared-Fock scaling of the 5.0 nm dataset (30,240 basis
/// functions) up to 3,000 nodes / 192,000 cores.
fn fig7(quick: bool, out: &mut dyn Write) -> io::Result<()> {
    let ctx = context(PaperSystem::Nm50, quick);
    writeln!(out, "{}", scenarios::fig7(&ctx))
}

/// The design-choice ablations of DESIGN.md §5 on the 1.0 nm dataset: lazy
/// FI flushing, ij-task prescreening, OpenMP schedule, task-partitioning
/// load balance, and the private/shared crossover.
fn ablations(quick: bool, out: &mut dyn Write) -> io::Result<()> {
    let ctx = context(PaperSystem::Nm10, quick);
    writeln!(out, "{}", scenarios::ablation_flush(&ctx))?;
    writeln!(out, "{}", scenarios::ablation_prescreen(&ctx))?;
    writeln!(out, "{}", scenarios::ablation_schedule(&ctx))?;
    writeln!(out, "{}", scenarios::ablation_loadbalance(&ctx, 16))?;
    writeln!(out, "{}", scenarios::crossover(&ctx))
}

/// Every experiment in sequence (Tables 2–4, Figures 3–7, the ablations
/// and the failure-recovery study), building each dataset once.
fn all(quick: bool, out: &mut dyn Write) -> io::Result<()> {
    table2(quick, out)?;

    // Single-node studies on the 1.0 nm dataset.
    let ctx10 = context(PaperSystem::Nm10, quick);
    writeln!(out, "{}", scenarios::fig3(&ctx10))?;
    writeln!(out, "{}", scenarios::fig4(&ctx10))?;

    // Mode study on 0.5 nm + 2.0 nm, then multi-node scaling on 2.0 nm.
    let ctx05 = context(PaperSystem::Nm05, quick);
    let ctx20 = anchored_nm20(quick);
    writeln!(out, "{}", scenarios::fig5(&ctx05, &ctx20))?;
    writeln!(out, "{}", scenarios::fig6_table3(&ctx20))?;

    // 5.0 nm at up to 3,000 nodes.
    let ctx50 = context(PaperSystem::Nm50, quick);
    writeln!(out, "{}", scenarios::fig7(&ctx50))?;

    // Ablations. The ij-task prescreen matters most for the sparsest
    // system (paper: "especially important for very large jobs with very
    // sparse ERI tensor"), so it also runs on the 5.0 nm workload.
    writeln!(out, "{}", scenarios::ablation_flush(&ctx10))?;
    writeln!(out, "{}", scenarios::ablation_prescreen(&ctx10))?;
    writeln!(out, "{}", scenarios::ablation_prescreen(&ctx50))?;
    writeln!(out, "{}", scenarios::ablation_schedule(&ctx10))?;
    writeln!(out, "{}", scenarios::ablation_loadbalance(&ctx10, 16))?;
    writeln!(out, "{}", scenarios::crossover(&ctx20))?;

    // Robustness: what rank deaths cost under the task-lease recovery
    // protocol, volatile vs durable completion.
    writeln!(out, "{}", scenarios::failure_recovery(&ctx10, 16))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(line: &str) -> Result<String, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        run(&args, &mut out).map(|()| String::from_utf8(out).expect("tables are UTF-8"))
    }

    #[test]
    fn quick_contexts_build_for_every_system() {
        for sys in PaperSystem::ALL {
            let ctx = context(sys, true);
            assert!(!ctx.workload.ij_tasks.is_empty());
        }
    }

    /// `all` used to shell out to a sibling `table2` executable and skip
    /// Tables 2 and 4 when it had not been built.
    #[test]
    fn quick_all_prints_every_table_figure_and_ablation() {
        let out = run_to_string("--quick all").expect("all runs");
        for title in [
            "Table 4 (artifact)",
            "Table 2 —",
            "Figure 3 —",
            "Figure 4 —",
            "Figure 5 —",
            "Figure 6 / Table 3 —",
            "Figure 7 —",
            "Ablation — FI flush policy",
            "Ablation — ij-task prescreen",
            "Ablation — OpenMP schedule",
            "Ablation — task partitioning",
            "Crossover analysis —",
            "Failure recovery —",
        ] {
            assert!(out.contains(title), "'{title}' missing from:\n{out}");
        }
    }

    #[test]
    fn bad_arguments_are_errors_naming_the_usage() {
        for line in ["--quick fig9", "--quick", "fig3 fig4", "--csv", "--csv D fig3", "--fast fig3"]
        {
            let err = run_to_string(line).expect_err(line);
            assert!(err.contains("usage: phi-bench"), "{line}: {err}");
        }
    }
}
