//! `phi-scf` command-line interface: run Hartree-Fock on built-in
//! geometries with any of the paper's Fock-build algorithms.
//!
//! ```sh
//! phi-scf --molecule water --basis 631gd --algorithm shared:2x2
//! phi-scf --molecule ring:8 --basis sto3g --algorithm private:1x4
//! phi-scf --molecule benzene --algorithm distributed:4
//! phi-scf --molecule h2:1.4 --algorithm mpi:2
//! phi-scf --help
//! ```

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::{graphene, small};
use phi_scf::chem::Molecule;
use phi_scf::dmpi::{DdiMode, FaultPlan, RetryPolicy};
use phi_scf::hf::fock::SignificantPairs;
use phi_scf::hf::{run_scf, FockAlgorithm, FockData, MemoryModel, ScfConfig, ScfResult, ScfStop};

const HELP: &str = "\
phi-scf — closed-shell RHF with the SC'17 hybrid MPI/OpenMP Fock builders

USAGE:
    phi-scf [OPTIONS]

OPTIONS:
    --molecule <NAME>    water | methane | benzene | h2[:R_bohr] | hehp |
                         ring:<n_atoms> | chain:<n>:<spacing> |
                         graphene:<n_atoms>            [default: water]
    --xyz <FILE>         read the geometry from an XYZ file instead
                         (charge via charge=<int> on the comment line)
    --basis <NAME>       sto3g | 631g | 631gd | 631gdp [default: 631g]
    --algorithm <SPEC>   serial | mpi:<ranks> | private:<R>x<T> |
                         shared:<R>x<T> | distributed:<ranks> |
                         sharded:<ranks>
                         (at most 256 ranks x threads) [default: shared:2x2]
                         distributed and sharded keep Fock in tri-packed
                         MPI-3 one-sided windows; distributed reads a
                         full density copy per rank, sharded keeps
                         density in windows too, so no rank holds a full
                         N x N matrix
    --tau <FLOAT>        Schwarz screening threshold, finite and >= 0
                                                       [default: 1e-10]
    --max-iter <N>       SCF iteration cap, N >= 1     [default: 100]
    --no-diis            disable DIIS acceleration
    --memory-budget <MiB>
                         print the per-rank memory-model estimate for every
                         algorithm at the requested rank/thread shape and
                         refuse to run an algorithm whose estimate exceeds
                         the budget (the error names the sharded
                         alternative that fits)
    --faults <SPEC>      deterministic fault injection, replayed on every
                         Fock build: <seed>:<fault>[,<fault>...] with
                         kill@<task> | kill@<rank>#<claim> | kill*<count> |
                         delay@<rank>#<claim>:<ms>
                         (parallel algorithms only; every rank and task
                         named must exist: a task is a shell on private
                         and a position in the significant-pair list at
                         --tau on every other row; claims count from #1,
                         kill* needs a count >= 1, and a delay must be
                         shorter than --comm-timeout-ms)
                         e.g. --faults 42:kill@3,delay@1#2:50
    --comm-timeout-ms <MS>
                         barrier/lease/receive timeout for the
                         failure-aware collectives     [default: 30000]
                         (parallel algorithms only; survivors reclaim the
                         dead ranks' tasks and finish the build)
    --trace <FILE>       record a span trace of the whole run and write it
                         as Chrome trace_event JSON (open in
                         chrome://tracing or https://ui.perfetto.dev);
                         also prints the phase breakdown and per-rank
                         thread imbalance
    --help               print this text
";

fn parse_molecule(spec: &str) -> Result<Molecule, String> {
    let (name, arg) = match spec.split_once(':') {
        Some((n, a)) => (n, Some(a)),
        None => (spec, None),
    };
    // An empty molecule has no basis to build on, a one-atom ring sits at
    // radius 1/sin(pi), and a zero, negative or non-finite length puts
    // atoms on top of each other or nowhere.
    let count = |s: &str, min: usize| match s.parse() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!("bad atom count '{s}' (need an integer >= {min})")),
    };
    let length = |s: &str, what: &str| match s.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(format!("bad {what} '{s}' (need a finite length > 0)")),
    };
    match name {
        "water" => Ok(small::water()),
        "methane" => Ok(small::methane()),
        "benzene" => Ok(small::benzene()),
        "hehp" => Ok(small::heh_cation()),
        "h2" => {
            let r = arg.map(|a| length(a, "bond length"));
            Ok(small::hydrogen_molecule(r.transpose()?.unwrap_or(1.4)))
        }
        "ring" => {
            let n = arg.ok_or("ring needs an atom count, e.g. ring:8")?;
            Ok(small::c_ring(count(n, 2)?, 1.40))
        }
        "chain" => {
            let a = arg.ok_or("chain needs <n>:<spacing>, e.g. chain:8:1.8")?;
            let (n, sp) = a.split_once(':').ok_or("chain needs <n>:<spacing>")?;
            Ok(small::h_chain(count(n, 1)?, length(sp, "spacing")?))
        }
        "graphene" => {
            let n = arg.ok_or("graphene needs an atom count, e.g. graphene:16")?;
            Ok(graphene::graphene_flake(count(n, 1)?))
        }
        other => Err(format!("unknown molecule '{other}'")),
    }
}

fn parse_basis(spec: &str) -> Result<BasisName, String> {
    match spec {
        "sto3g" | "sto-3g" => Ok(BasisName::Sto3g),
        "631g" | "6-31g" => Ok(BasisName::B631g),
        "631gd" | "6-31g(d)" | "6-31gd" => Ok(BasisName::B631gd),
        "631gdp" | "6-31g(d,p)" | "6-31gdp" => Ok(BasisName::B631gdp),
        other => Err(format!("unknown basis '{other}'")),
    }
}

/// The sharded build on `n_ranks` ranks, over the one DDI transport.
fn sharded(n_ranks: usize) -> FockAlgorithm {
    FockAlgorithm::Sharded { n_ranks, mode: DdiMode::Mpi3OneSided }
}

/// The largest coordinate magnitude a run accepts, in bohr. The spacing of
/// doubles there is 1.5e-11 bohr, a billionth of the width of the tightest
/// Gaussian in the bases (6-31G's O 1s, 0.0135 bohr); near 5e16 bohr it is
/// 8 bohr, and product centres land bohrs off their atoms (DESIGN §11).
const MAX_COORD_BOHR: f64 = 1e5;

/// The most ranks x threads one `--algorithm` may start.
const MAX_WORKERS: usize = 256;

fn parse_algorithm(spec: &str) -> Result<FockAlgorithm, String> {
    if spec == "serial" {
        return Ok(FockAlgorithm::Serial);
    }
    let (name, cfg) = spec.split_once(':').ok_or_else(|| format!("bad algorithm '{spec}'"))?;
    // A world needs a rank and a team a thread: zero is a bad count too.
    let count = |s: &str, what: &str| match s.parse() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("bad {what} count '{s}' (need an integer >= 1)")),
    };
    let parse_rt = |s: &str| -> Result<(usize, usize), String> {
        let (r, t) = s.split_once('x').ok_or_else(|| format!("need <R>x<T>, got '{s}'"))?;
        Ok((count(r, "rank")?, count(t, "thread")?))
    };
    let alg = match name {
        "mpi" => FockAlgorithm::MpiOnly { n_ranks: count(cfg, "rank")? },
        "private" => {
            let (r, t) = parse_rt(cfg)?;
            FockAlgorithm::PrivateFock { n_ranks: r, n_threads: t }
        }
        "shared" => {
            let (r, t) = parse_rt(cfg)?;
            FockAlgorithm::SharedFock { n_ranks: r, n_threads: t }
        }
        "distributed" => FockAlgorithm::Distributed { n_ranks: count(cfg, "rank")? },
        "sharded" => sharded(count(cfg, "rank")?),
        other => return Err(format!("unknown algorithm '{other}'")),
    };
    // Every rank and every thread is an OS thread of this process: past
    // one KNL node's 64 cores x 4 hardware threads (the paper's largest
    // single-node shape) a spawn fails or memory runs out mid-build.
    let (ranks, threads) = alg.shape();
    match ranks.checked_mul(threads) {
        Some(workers) if workers <= MAX_WORKERS => Ok(alg),
        workers => Err(format!(
            "--algorithm {spec} runs {} workers (ranks x threads); at most {MAX_WORKERS}, one \
             KNL node's 64 cores x 4 hardware threads, can start",
            workers.map_or("more than usize::MAX".to_string(), |w| w.to_string())
        )),
    }
}

/// `run_scf`'s preconditions on the occupation, as an error instead of its
/// asserts: a closed shell whose doubly occupied orbitals fit in the basis.
fn check_occupations(n_electrons: usize, n_basis: usize) -> Result<(), String> {
    if !n_electrons.is_multiple_of(2) {
        return Err(format!(
            "RHF needs an even electron count, but the molecule has {n_electrons}; this \
             program runs closed-shell RHF only"
        ));
    }
    let occupied = n_electrons / 2;
    if occupied > n_basis {
        return Err(format!(
            "RHF's {occupied} doubly occupied orbitals do not fit in {n_basis} basis functions"
        ));
    }
    Ok(())
}

/// `--faults` only fires inside a world: refuse a plan the serial build
/// would ignore, one naming a rank the algorithm does not run or a task it
/// never leases out of a basis of `n_shells` shells and `n_significant`
/// significant shell pairs, or a straggler that outlives the failure-aware
/// waits' `timeout`.
fn check_fault_plan(
    plan: &FaultPlan,
    alg: FockAlgorithm,
    spec: &str,
    n_shells: usize,
    n_significant: usize,
    timeout: std::time::Duration,
) -> Result<(), String> {
    if alg == FockAlgorithm::Serial {
        return Err("--faults needs a parallel --algorithm: serial has no ranks to kill or \
                    delay"
            .into());
    }
    let (ranks, _) = alg.shape();
    if let Some(rank) = plan.max_rank().filter(|&rank| rank >= ranks) {
        return Err(format!(
            "--faults names rank {rank}, but --algorithm {spec} runs ranks 0..{}",
            ranks - 1
        ));
    }
    // The survivors' waits give up on a rank that sleeps past the timeout
    // without marking it dead, so the build loses its result.
    let timeout_ms = timeout.as_millis();
    if let Some(ms) = plan.max_delay_ms().filter(|&ms| u128::from(ms) >= timeout_ms) {
        return Err(format!(
            "--faults delays a rank {ms} ms, but --comm-timeout-ms is {timeout_ms}: a straggler \
             that outlives the timeout is a kill (spell it kill@<rank>#<claim>, or shorten \
             the delay)"
        ));
    }
    // Algorithm 2 leases one task per shell `i`, every other row one per
    // significant shell pair `(i, j)`; `--tau` can leave none.
    let (tasks, what) = match alg {
        FockAlgorithm::PrivateFock { .. } => (n_shells, "shell"),
        _ => (n_significant, "significant shell-pair"),
    };
    match plan.max_task() {
        Some(task) if task >= tasks => {
            let range = tasks.checked_sub(1).map_or(String::new(), |last| format!(" (0..{last})"));
            Err(format!(
                "--faults kills at task {task}, but --algorithm {spec} leases {tasks} {what} \
                 tasks{range}"
            ))
        }
        _ => Ok(()),
    }
}

/// Apply `--memory-budget`: print the model table and refuse an
/// over-budget algorithm, pointing at the sharded configuration that fits.
fn check_memory_budget(
    budget_mib: f64,
    alg: FockAlgorithm,
    model: MemoryModel,
) -> Result<(), String> {
    let n_basis = model.n_basis;
    let mib = |alg: FockAlgorithm| model.per_rank_bytes(alg) / (1024.0 * 1024.0);
    let (ranks, threads) = alg.shape();
    println!("memory model (per rank, N = {n_basis}, budget {budget_mib:.1} MiB):");
    for candidate in [
        FockAlgorithm::MpiOnly { n_ranks: ranks },
        FockAlgorithm::PrivateFock { n_ranks: ranks, n_threads: threads },
        FockAlgorithm::SharedFock { n_ranks: ranks, n_threads: threads },
        FockAlgorithm::Distributed { n_ranks: ranks },
        sharded(ranks),
    ] {
        let est = mib(candidate);
        let verdict = if est <= budget_mib { "fits" } else { "OVER BUDGET" };
        println!("  {:<12} {est:>10.2} MiB  {verdict}", candidate.label());
    }
    let est = mib(alg);
    if est > budget_mib {
        // Stripes thin as ranks are added; the O(N) caches and the
        // shell-pair dataset do not, so a fitting rank count may not exist.
        let fitting =
            (0..).map(|i| ranks.max(1) << i).take(13).find(|&r| mib(sharded(r)) <= budget_mib);
        let hint = match fitting {
            Some(r) => format!(
                "the sharded build fits in ~{:.2} MiB — try --algorithm sharded:{r}",
                mib(sharded(r))
            ),
            None => "even the sharded build cannot fit (its per-rank floor is the \
                     O(N) caches plus the shell-pair dataset); raise the budget"
                .to_string(),
        };
        return Err(format!(
            "algorithm '{}' needs ~{est:.2} MiB per rank, over the {budget_mib:.1} MiB \
             budget; {hint}",
            alg.label()
        ));
    }
    Ok(())
}

/// Run the job `args` describe and print its report. `None` is `--help`.
fn run(mut args: impl Iterator<Item = String>) -> Result<Option<ScfResult>, String> {
    let mut molecule = "water".to_string();
    let mut xyz_path: Option<String> = None;
    let mut basis = "631g".to_string();
    let mut algorithm = "shared:2x2".to_string();
    let mut tau = 1e-10f64;
    let mut max_iter = 100usize;
    let mut diis = true;
    let mut faults: Option<FaultPlan> = None;
    let mut retry = RetryPolicy::default();
    let mut trace_path: Option<String> = None;
    let mut memory_budget: Option<f64> = None;

    while let Some(a) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("--{what} needs a value"));
        match a.as_str() {
            "--molecule" => molecule = value("molecule")?,
            "--xyz" => xyz_path = Some(value("xyz")?),
            "--basis" => basis = value("basis")?,
            "--algorithm" => algorithm = value("algorithm")?,
            "--tau" => {
                tau = value("tau")?.parse().map_err(|e| format!("bad tau: {e}"))?;
                // Every quartet fails `Q_ij Q_kl >= NaN` (or `>= inf`): the
                // run would converge on the bare one-electron energy.
                if !tau.is_finite() || tau < 0.0 {
                    return Err("--tau needs a finite value >= 0".into());
                }
            }
            "--max-iter" => {
                max_iter = value("max-iter")?.parse().map_err(|e| format!("bad max-iter: {e}"))?;
                if max_iter == 0 {
                    return Err("--max-iter needs N >= 1".into());
                }
            }
            "--no-diis" => diis = false,
            "--memory-budget" => {
                let mib: f64 = value("memory-budget")?
                    .parse()
                    .map_err(|e| format!("bad memory-budget: {e}"))?;
                if !mib.is_finite() || mib <= 0.0 {
                    return Err("--memory-budget needs MiB > 0".into());
                }
                memory_budget = Some(mib);
            }
            "--faults" => faults = Some(FaultPlan::parse(&value("faults")?)?),
            "--comm-timeout-ms" => {
                let ms: u64 = value("comm-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad comm-timeout-ms: {e}"))?;
                if ms == 0 {
                    return Err("--comm-timeout-ms needs MS >= 1".into());
                }
                retry = RetryPolicy { timeout: std::time::Duration::from_millis(ms) };
            }
            "--trace" => trace_path = Some(value("trace")?),
            "--help" | "-h" => {
                print!("{HELP}");
                return Ok(None);
            }
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }

    let mol = match &xyz_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            molecule = path.clone();
            phi_scf::chem::parse_xyz(&text)?
        }
        None => parse_molecule(&molecule)?,
    };
    if !mol.nuclear_repulsion().is_finite() {
        return Err(format!("{molecule}: two nuclei coincide (infinite nuclear repulsion)"));
    }
    let mut coords = mol.atoms().iter().enumerate().flat_map(|(k, a)| a.pos.map(|x| (k, x)));
    if let Some((k, x)) = coords.find(|&(_, x)| x.abs() > MAX_COORD_BOHR) {
        return Err(format!(
            "{molecule}: atom {} has a coordinate of {x:e} bohr, beyond the {MAX_COORD_BOHR:e} \
             bohr a Gaussian can be placed at (doubles there are too coarse)",
            k + 1
        ));
    }
    let basis_name = parse_basis(&basis)?;
    let b = BasisSet::build(&mol, basis_name);
    println!(
        "{molecule} / {}: {} atoms, {} shells, {} basis functions, {} electrons",
        basis_name.label(),
        mol.n_atoms(),
        b.n_shells(),
        b.n_basis(),
        mol.n_electrons()
    );

    let alg = parse_algorithm(&algorithm)?;
    // The pair data and significant-pair list of the checks below; the
    // list is what the pair rows lease. `run_scf` builds its own.
    let checked = (faults.is_some() || memory_budget.is_some()).then(|| {
        let data = FockData::build(&b);
        let kl = SignificantPairs::new(&data.screening, tau);
        (data, kl)
    });
    if let (Some(plan), Some((_, kl))) = (&faults, &checked) {
        check_fault_plan(plan, alg, &algorithm, b.n_shells(), kl.len(), retry.timeout)?;
    }
    check_occupations(mol.n_electrons(), b.n_basis())?;
    if let (Some(mib), Some((data, kl))) = (memory_budget, &checked) {
        // Per-rank model estimate, shell-pair dataset included. The
        // significant-pair list is built once per build and read by every
        // rank, like the Schwarz table it comes from.
        println!(
            "shell-pair dataset: {} bytes per rank; significant-pair list: {} of {} pairs, \
             {} bytes per build",
            data.pairs.bytes(),
            kl.len(),
            data.pairs.len(),
            kl.bytes()
        );
        check_memory_budget(mib, alg, MemoryModel::new(&b, &data.pairs))?;
    }
    let trace_session = trace_path.as_deref().map(|_| phi_scf::trace::TraceSession::begin());
    let config = ScfConfig {
        algorithm: alg,
        screening_tau: tau,
        max_iterations: max_iter,
        diis,
        faults,
        retry,
        ..ScfConfig::default()
    };
    let r = run_scf(&mol, &b, &config);
    if let (Some(session), Some(path)) = (trace_session, trace_path.as_deref()) {
        write_trace(session, path)?;
    }
    match r.stop_reason {
        ScfStop::NumericalDivergence => {
            return Err(format!(
                "{molecule}: the SCF energy became {} at iteration {}, so there is no answer to \
                 print (a geometry far outside the integrals' range does this)",
                r.energy, r.iterations
            ))
        }
        ScfStop::FockBuildLost => {
            return Err(format!(
                "{molecule}: the Fock build of iteration {} lost its result: its ranks gave up on \
                 waits that timed out after --comm-timeout-ms {}; raise --comm-timeout-ms",
                r.iterations,
                retry.timeout.as_millis()
            ))
        }
        _ => {}
    }
    println!(
        "RHF [{}]: E = {:.8} Eh  ({} iterations, converged: {})",
        alg.label(),
        r.energy,
        r.iterations,
        r.converged
    );
    print_fault_summary(&r.fock_stats);
    println!(
        "time to form Fock: {:.3} s over {} builds; {} bytes per rank, modeled",
        r.time_to_form_fock(),
        r.fock_stats.len(),
        r.fock_stats.iter().map(|s| s.max_rank_peak()).max().unwrap_or(0)
    );
    if let Some(s) = r.fock_stats.first() {
        println!(
            "per build: {} quartets computed, {:.1}% screened, {} DLB tasks",
            s.quartets_computed,
            s.screened_fraction(b.n_shells()) * 100.0,
            s.dlb_tasks
        );
    }
    Ok(Some(r))
}

/// Finish the trace session, write the Chrome trace_event JSON, and print
/// the phase breakdown plus per-rank thread imbalance (paper Fig. 8).
fn write_trace(session: phi_scf::trace::TraceSession, path: &str) -> Result<(), String> {
    let report = session.finish();
    std::fs::write(path, report.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    if report.is_empty() {
        println!("trace: wrote {path} (empty)");
        return Ok(());
    }
    let s = report.summary();
    println!(
        "trace: wrote {path}; fock {:.3} s, gsum {:.3} s, total {:.3} s, \
         busy fraction {:.2}, DLB wait {:.3} s",
        s.fock_seconds,
        s.reduction_seconds,
        s.total_seconds,
        s.busy_fraction,
        report.dlb_wait_total_ns() as f64 * 1e-9
    );
    for (rank, ratio) in report.imbalance_ratios() {
        println!("trace: rank {rank} thread imbalance (max/mean busy) {ratio:.2}");
    }
    Ok(())
}

/// If any build injected faults, summarize the recovery across iterations.
fn print_fault_summary(stats: &[phi_scf::hf::FockBuildStats]) {
    let injected: u64 = stats.iter().map(|s| s.faults_injected).sum();
    if injected == 0 {
        return;
    }
    let reclaimed: usize = stats.iter().map(|s| s.tasks_reclaimed).sum();
    let retries: usize = stats.iter().map(|s| s.retries).sum();
    let failed = stats.iter().map(|s| s.failed_ranks.len()).max().unwrap_or(0);
    println!(
        "fault injection: {injected} faults fired, up to {failed} rank(s) lost per build, \
         {reclaimed} tasks reclaimed, {retries} recovery claims"
    );
}

fn main() {
    if let Err(e) = run(std::env::args().skip(1)) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_algorithm_rejects_zero_ranks_and_threads() {
        for spec in [
            "mpi:0",
            "distributed:0",
            "sharded:0",
            "private:0x2",
            "private:2x0",
            "shared:0x1",
            "shared:1x0",
        ] {
            let err = parse_algorithm(spec).expect_err(spec);
            assert!(err.contains("count '0'"), "{spec}: {err}");
        }
        assert_eq!(parse_algorithm("mpi:3"), Ok(FockAlgorithm::MpiOnly { n_ranks: 3 }));
        assert_eq!(
            parse_algorithm("shared:1x2"),
            Ok(FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 2 })
        );
        assert_eq!(parse_algorithm("sharded:2"), Ok(sharded(2)));
        // One DDI transport, so one sharded spelling.
        for spec in ["sharded:2:ds", "sharded:2:os"] {
            let err = parse_algorithm(spec).expect_err(spec);
            assert!(err.contains("'2:"), "{spec}: {err}");
        }
        assert!(parse_algorithm("shared:2").is_err());
        assert!(parse_algorithm("mpi:-1").is_err());
    }

    #[test]
    fn occupations_are_checked_against_the_molecule() {
        // H2: 2 electrons, 2 STO-3G functions.
        assert_eq!(check_occupations(2, 2), Ok(()));
        let odd = check_occupations(3, 6).unwrap_err();
        assert!(odd.contains("even electron count") && odd.contains("closed-shell RHF only"));
        // H with charge=-3: four electrons, two orbitals in one function.
        assert!(check_occupations(4, 1).unwrap_err().contains("do not fit"));
    }

    fn args(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(String::from)
    }

    /// Every job whose answer would be wrong or whose option would be
    /// ignored, and every option the program does not have: each is
    /// refused with an error naming the flags involved.
    #[test]
    fn bad_jobs_are_refused_naming_the_flags() {
        let xyz = |name: &str, text: &str| {
            let file = format!("phi-scf-{}-{name}.xyz", std::process::id());
            let path = std::env::temp_dir().join(file);
            std::fs::write(&path, text).expect("the temp dir is writable");
            path.display().to_string()
        };
        let files = [
            ("stacked", "2\n\nH 0 0 0\nH 0 0 0\n"),
            ("lone", "1\n\nH 0 0 0\n"),
            ("empty", "0\n\n"),
            ("nan", "1\n\nHe nan 0 0\n"),
            ("inf", "2\n\nH 0 0 0\nH 0 0 inf\n"),
            ("stripped", "1\ncharge=5\nHe 0 0 0\n"),
            ("anion", "1\ncharge=-3\nH 0 0 0\n"),
            ("far", "1\n\nHe 1e300 0 0\n"),
        ];
        let paths: Vec<String> = files.iter().map(|(name, text)| xyz(name, text)).collect();
        let odd = &["even electron count", "closed-shell RHF only"][..];
        let serial = |k: usize| format!("--xyz {} --basis sto3g --algorithm serial", paths[k]);
        let xyz_jobs = [
            (serial(0), &["nuclei coincide"][..]),
            (serial(1), odd),
            (serial(2), &["atom count 0"]),
            (serial(3), &["coordinate NaN", "not finite"]),
            (serial(4), &["coordinate inf", "not finite"]),
            (serial(5), &["charge=5", "2 protons"]),
            (serial(6), &["RHF's 2 doubly occupied orbitals", "do not fit in 1"]),
            (serial(7), &["atom 1", "e300 bohr", "beyond the 1e5 bohr"]),
        ];
        let jobs = [
            ("--molecule h2:1.4 --basis sto3g --uhf 1,1", &["unknown option", "--uhf"][..]),
            ("--molecule water --basis sto3g --mp2", &["unknown option", "--mp2"]),
            ("--molecule water --basis sto3g --tau nan", &["--tau", "finite"]),
            ("--molecule water --basis sto3g --tau inf", &["--tau", "finite"]),
            ("--molecule water --basis sto3g --tau -1e-10", &["--tau", ">= 0"]),
            ("--molecule water --basis sto3g --max-iter 0", &["--max-iter", ">= 1"]),
            ("--molecule water --basis sto3g --purify", &["unknown option", "--purify"]),
            (
                "--molecule water --basis sto3g --algorithm serial --faults 1:kill@3",
                &["--faults", "serial"],
            ),
            (
                "--molecule water --basis sto3g --algorithm mpi:2 --faults 1:kill@2#1",
                &["--faults", "rank 2", "mpi:2"],
            ),
            (
                "--molecule water --basis sto3g --algorithm mpi:2 --faults 9:drop@1->0#1",
                &["unknown fault spec", "drop@1->0#1"],
            ),
            (
                "--molecule water --basis sto3g --algorithm sharded:2 --faults 1:kill@3#1",
                &["--faults", "rank 3", "sharded:2"],
            ),
            ("--molecule water --basis sto3g --faults 1:delay@0#0:5", &["claim index", "#0"]),
            ("--molecule water --basis sto3g --faults 1:kill*0", &["kill count '0'", "kill*0"]),
            (
                "--molecule water --algorithm mpi:2 --max-iter 2 --comm-timeout-ms 500 \
                 --faults 1:delay@0#1:2000",
                &["--faults", "2000 ms", "--comm-timeout-ms is 500", "kill@<rank>#<claim>"],
            ),
            (
                "--molecule water --algorithm private:2x2 --max-iter 2 --comm-timeout-ms 500 \
                 --faults 1:delay@0#1:2000",
                &["--faults", "2000 ms", "--comm-timeout-ms is 500"],
            ),
            (
                "--molecule water --algorithm shared:2x2 --max-iter 2 --comm-timeout-ms 500 \
                 --faults 1:delay@0#1:2000",
                &["--faults", "2000 ms", "--comm-timeout-ms is 500"],
            ),
            (
                "--molecule water --algorithm sharded:2 --comm-timeout-ms 500 \
                 --faults 1:delay@1#1:500",
                &["--faults", "500 ms", "--comm-timeout-ms is 500"],
            ),
            // Water/STO-3G has 4 shells, so 4 shell tasks, and all 10 of
            // its pairs are significant.
            (
                "--molecule water --basis sto3g --algorithm mpi:2 --faults 1:kill@10",
                &["--faults", "task 10", "mpi:2", "10 significant shell-pair tasks"],
            ),
            (
                "--molecule water --basis sto3g --algorithm private:2x2 --faults 1:kill@4",
                &["--faults", "task 4", "private:2x2", "4 shell tasks"],
            ),
            (
                "--molecule water --basis sto3g --algorithm sharded:2 --faults 1:kill@10",
                &["--faults", "task 10", "sharded:2", "10 significant shell-pair tasks"],
            ),
            // The pair rows lease only the significant pairs: 26 of the
            // 36 at 5 bohr, and none when tau screens every pair.
            (
                "--molecule chain:8:5.0 --basis sto3g --algorithm mpi:2 --faults 1:kill@26",
                &["--faults", "task 26", "mpi:2", "26 significant shell-pair tasks (0..25)"],
            ),
            (
                "--tau 1e30 --algorithm mpi:2 --faults 1:kill@0",
                &["--faults", "task 0", "mpi:2", "leases 0 significant shell-pair tasks"],
            ),
            ("--molecule water --basis sto3g --algorithm mpi:257", &["mpi:257", "257 workers"]),
            (
                "--molecule water --basis sto3g --algorithm shared:4x65",
                &["shared:4x65", "260 workers", "at most 256"],
            ),
            (
                "--molecule water --basis sto3g --algorithm shared:99999999999x99999999999",
                &["shared:99999999999x99999999999", "more than usize::MAX workers"],
            ),
            ("--molecule chain:0:1.8 --basis sto3g", &["atom count '0'", ">= 1"]),
            ("--molecule ring:0 --basis sto3g", &["atom count '0'", ">= 2"]),
            ("--molecule ring:1 --basis sto3g", &["atom count '1'", ">= 2"]),
            ("--molecule graphene:0 --basis sto3g", &["atom count '0'", ">= 1"]),
            ("--molecule h2:nan --basis sto3g", &["bond length 'nan'", "finite"]),
            ("--molecule h2:inf --basis sto3g", &["bond length 'inf'", "finite"]),
            ("--molecule h2:0 --basis sto3g", &["bond length '0'", "> 0"]),
            ("--molecule h2:-1 --basis sto3g", &["bond length '-1'", "> 0"]),
            ("--molecule chain:2:0 --basis sto3g", &["spacing '0'", "> 0"]),
            ("--molecule chain:3:1.8 --basis sto3g", odd),
            // Coordinates this far out cannot place a Gaussian (and at
            // these their one-electron integrals overflow to NaN).
            ("--molecule h2:1e300 --basis sto3g --algorithm serial", &["atom 2", "1e300 bohr"]),
            ("--molecule chain:4:1e200 --basis sto3g --algorithm serial", &["atom 2", "1e200"]),
        ];
        let owned = jobs.into_iter().map(|(job, named)| (job.to_string(), named));
        for (job, named) in owned.chain(xyz_jobs) {
            let err = run(args(&job)).err().unwrap_or_else(|| panic!("'{job}' ran"));
            assert!(named.iter().all(|n| err.contains(n)), "'{job}': {err}");
        }
        for path in paths {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn no_diis_is_honoured() {
        // Plain Roothaan takes more iterations than DIIS on water.
        let iterations = |flags: &str| {
            let job = format!("--molecule water --basis sto3g --algorithm serial {flags}");
            run(args(&job)).expect("valid job").expect("not --help").iterations
        };
        let (rhf, rhf_plain) = (iterations(""), iterations("--no-diis"));
        assert!(rhf_plain > rhf, "--no-diis {rhf_plain} vs DIIS {rhf}");
    }
}
