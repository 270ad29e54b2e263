//! `scf-e2e`: whole-SCF time-to-solution with outside-in layer
//! attribution. See README.md for the workloads, the metrics and how each
//! layer metric is expected to move the end-to-end ones.
//!
//! Two ways in, one set of measuring functions:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload for
//!   `S` seconds; the last line of standard output is one JSON object with
//!   the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. This
//!   is the form `BENCHMARK.json` names.
//! * `[--seed N] [--reps R] [--only W] [--smoke] [--selfcheck] [--out F]`
//!   — every workload, repetitions interleaved round-robin, then one
//!   probed pass each; prints every metric by name with its unit.

mod measure;
mod probe;
mod workloads;

use measure::{
    median, quartiles, setup, timed_scf, timing, verify, Input, Rep, Setup, ENERGY_TOL, SETUP_TOTAL,
};
use probe::{probe, Metric, Probe};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Workload, SMOKE, WORKLOADS};

/// `(name, unit, bound)`: the end-to-end metrics and the share of the
/// parent's median each may worsen by. Mirrors `BENCHMARK.json`.
const END_TO_END: [(&str, &str, f64); 5] = [
    ("scf_wall_s", "s", 0.25),
    ("fock_total_s", "s", 0.25),
    ("fock_build_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("iterations", "count", 0.10),
];

/// What a metric reports for its samples: timings their lower quartile,
/// the iteration count its median.
fn reported(unit: &str, samples: &[f64]) -> f64 {
    if unit == "s" {
        timing(samples)
    } else {
        median(samples)
    }
}

/// Set-up samples per timed repetition.
const SETUP_SAMPLES: usize = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
    only: Option<String>,
    smoke: bool,
    selfcheck: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        reps: 3,
        only: None,
        smoke: false,
        selfcheck: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read '{v}'");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--only" => a.only = Some(value()?),
            "--out" => a.out = Some(value()?),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--reps" => a.reps = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--smoke" => a.smoke = true,
            "--selfcheck" => a.selfcheck = true,
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if a.reps == 0 || a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--reps and --seconds must be positive".into());
    }
    Ok(a)
}

fn find<'a>(set: &'a [Workload], name: &str) -> Result<&'a Workload, String> {
    set.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = set.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}'; one of: {}", names.join(", "))
    })
}

/// The timed repetitions of one workload and everything judged about them.
#[derive(Default)]
struct Sample {
    reps: Vec<Rep>,
    /// The first set-up block (the gate and the probes build on it) and
    /// the piece timings of every one taken; the rest are dropped, or a
    /// long suite run would hold hundreds of shell-pair datasets.
    setup: Option<Setup>,
    setup_pieces: Vec<[f64; 7]>,
    attempted: usize,
    /// One line per failed run.
    failures: Vec<String>,
}

impl Sample {
    fn measure_once(&mut self, wl: &Workload, input: &Input) {
        for _ in 0..SETUP_SAMPLES {
            let su = setup(&input.mol, wl);
            self.setup_pieces.push(su.pieces);
            self.setup.get_or_insert(su);
        }
        self.attempted += 1;
        match timed_scf(wl, input) {
            Ok(rep) => self.reps.push(rep),
            Err(e) => self.failures.push(e),
        }
    }

    /// Full gate on the first repetition; the rest must have converged to
    /// the same energy.
    fn gate(&mut self, wl: &Workload, input: &Input) {
        let (Some(first), Some(su)) = (self.reps.first(), &self.setup) else { return };
        let e0 = first.result.energy;
        for miss in verify(wl, input, su, &first.result) {
            self.failures.push(format!("rep 0: {miss}"));
        }
        for (r, rep) in self.reps.iter().enumerate().skip(1) {
            if !rep.result.converged || (rep.result.energy - e0).abs() > ENERGY_TOL {
                self.failures.push(format!(
                    "rep {r}: converged={} energy {:.12}, rep 0 has {e0:.12}",
                    rep.result.converged, rep.result.energy
                ));
            }
        }
    }

    /// Samples of each end-to-end metric, in `END_TO_END` order.
    fn end_to_end(&self) -> [Vec<f64>; 5] {
        [
            self.reps.iter().map(|r| r.wall_s).collect(),
            self.reps.iter().map(|r| r.result.time_to_form_fock()).collect(),
            self.reps.iter().flat_map(|r| r.build_seconds()).collect(),
            self.setup_pieces.iter().map(|p| p[SETUP_TOTAL]).collect(),
            self.reps.iter().map(|r| r.result.iterations as f64).collect(),
        ]
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (k, m) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        write!(s, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            .expect("write to String");
    }
    s + "}"
}

/// One workload for `seconds`; the contract's JSON object is the last line.
fn run_contract(wl: &Workload, args: &Args) -> ExitCode {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let nproc = nproc();
    if wl.workers() > nproc {
        // The contract wants every metric on every run, so unlike the suite
        // this form still reports the timings.
        eprintln!(
            "{}: {} workers on {nproc} core(s): the timings are not scaling data",
            wl.name,
            wl.workers()
        );
    }
    let input = Input::new(wl, args.seed);
    let mut sample = Sample::default();
    sample.measure_once(wl, &input);
    let metrics: Vec<Metric> = if args.trace {
        sample.gate(wl, &input);
        match (&sample.reps[..], &sample.setup) {
            (reps @ [_, ..], Some(su)) => {
                let Probe { metrics, misses, .. } =
                    probe(wl, &input, reps, su, &sample.setup_pieces, deadline);
                // The replay is a second solution attempt.
                sample.attempted += 1;
                sample.failures.extend(misses);
                metrics
            }
            _ => Vec::new(),
        }
    } else {
        while Instant::now() < deadline {
            sample.measure_once(wl, &input);
        }
        sample.gate(wl, &input);
        if sample.reps.is_empty() {
            Vec::new()
        } else {
            let e2e = sample.end_to_end();
            END_TO_END
                .iter()
                .zip(&e2e)
                .map(|(&(name, unit, _), v)| Metric {
                    name: name.into(),
                    unit,
                    value: reported(unit, v),
                })
                .collect()
        }
    };
    for f in &sample.failures {
        eprintln!("{}: FAILED: {f}", wl.name);
    }
    let correct = sample.failures.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        sample.attempted,
        sample.failures.len().min(sample.attempted),
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Wall-clock numbers from more workers than cores are not scaling data:
/// such a workload reports counts only.
fn shown(unit: &str, counts_only: bool) -> bool {
    !counts_only || matches!(unit, "count" | "bytes")
}

/// Two passes of the same code, metric by metric: A, B, their relative
/// difference, the wider of the passes' own spreads, the bound, and a
/// verdict. Returns how many pairs disagree by more than their bound.
fn selfcheck(chosen: &[&Workload], a: &[Sample], b: &[Sample], nproc: usize) -> usize {
    let mut disagreements = 0;
    println!("\n== selfcheck: two passes of the same code");
    println!(
        "   {:<26} {:<13} {:>12} {:>12} {:>8} {:>8} {:>7}",
        "workload", "metric", "A", "B", "diff %", "spread %", "bound %"
    );
    for (k, wl) in chosen.iter().enumerate() {
        if wl.workers() > nproc || a[k].reps.is_empty() || b[k].reps.is_empty() {
            continue;
        }
        let (ea, eb) = (a[k].end_to_end(), b[k].end_to_end());
        for ((&(name, unit, bound), va), vb) in END_TO_END.iter().zip(&ea).zip(&eb) {
            let (ma, mb) = (reported(unit, va), reported(unit, vb));
            let diff = (mb - ma) / ma;
            // The distance between a pass's quartiles as a share of its
            // median; the wider of the two passes counts.
            let iqr = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                (q3 - q1) / median(v)
            };
            let spread = iqr(va).max(iqr(vb));
            let verdict = if spread > bound {
                "UNRESOLVED"
            } else if diff.abs() > bound {
                disagreements += 1;
                "FAIL"
            } else {
                "PASS"
            };
            println!(
                "   {:<26} {name:<13} {ma:>12.6} {mb:>12.6} {:>8.2} {:>8.2} {:>7.0}  {verdict}",
                wl.name,
                diff * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    disagreements
}

/// Every workload: interleaved timed repetitions, the gate, then one
/// probed pass each.
fn run_suite(args: &Args) -> Result<ExitCode, String> {
    let set: &[Workload] = if args.smoke { &SMOKE } else { &WORKLOADS };
    let chosen: Vec<&Workload> = match &args.only {
        Some(name) => vec![find(set, name)?],
        None => set.iter().collect(),
    };
    let reps = if args.smoke { 1 } else { args.reps };
    let nproc = nproc();
    let rustc = tool_line("rustc", &["--version"]);
    let commit = tool_line("git", &["rev-parse", "--short", "HEAD"]);
    println!("scf-e2e  seed {}  reps {reps}  nproc {nproc}  {rustc}  commit {commit}", args.seed);
    let suite_start = Instant::now();

    let inputs: Vec<Input> = chosen.iter().map(|wl| Input::new(wl, args.seed)).collect();
    // Pass A, and with --selfcheck a pass B of the same code.
    let mut passes: Vec<Vec<Sample>> = Vec::new();
    for _ in 0..if args.selfcheck { 2 } else { 1 } {
        let mut samples: Vec<Sample> = chosen.iter().map(|_| Sample::default()).collect();
        // Round-robin, so drift over the run hits every workload equally.
        for _ in 0..reps {
            for ((wl, input), sample) in chosen.iter().zip(&inputs).zip(&mut samples) {
                sample.measure_once(wl, input);
            }
        }
        for ((wl, input), sample) in chosen.iter().zip(&inputs).zip(&mut samples) {
            sample.gate(wl, input);
        }
        passes.push(samples);
    }
    // Each parallel workload against its system's serial energy from this
    // same invocation.
    let (first, _) = passes.split_first_mut().expect("at least pass A");
    for (k, wl) in chosen.iter().enumerate() {
        let serial = chosen
            .iter()
            .position(|s| s.is_serial() && std::ptr::eq(s.system, wl.system))
            .and_then(|s| first[s].reps.first().map(|r| r.result.energy));
        let own = first[k].reps.first().map(|r| r.result.energy);
        if let (false, Some(e_serial), Some(e)) = (wl.is_serial(), serial, own) {
            if (e - e_serial).abs() > ENERGY_TOL {
                first[k].failures.push(format!("energy {e:.12} vs serial {e_serial:.12}"));
            }
        }
    }

    let mut json = String::new();
    let mut failed_runs = 0;
    let mut findings: Vec<String> = Vec::new();
    for (k, (wl, input)) in chosen.iter().zip(&inputs).enumerate() {
        let sample = &passes[0][k];
        let counts_only = wl.workers() > nproc;
        println!("\n== {}  ({})", wl.name, wl.why);
        if counts_only {
            println!("   {} workers on {nproc} core(s): counts only", wl.workers());
        }
        let e2e = sample.end_to_end();
        let mut e2e_json = Vec::new();
        if !sample.reps.is_empty() {
            for (&(name, unit, bound), v) in END_TO_END.iter().zip(&e2e) {
                let (value, med, (q1, q3)) = (reported(unit, v), median(v), quartiles(v));
                if shown(unit, counts_only) {
                    println!(
                        "   {name:<44} {value:>14.6} {unit:<6} q1 {q1:.6}  median {med:.6}  q3 {q3:.6}  n {}  bound {:.0} %",
                        v.len(),
                        bound * 100.0
                    );
                    e2e_json.push(format!(
                        "\"{name}\": {{\"value\": {value}, \"q1\": {q1}, \"median\": {med}, \"q3\": {q3}, \"n\": {}, \"unit\": \"{unit}\", \"bound\": {bound}}}",
                        v.len()
                    ));
                }
            }
        }
        let mut failures = sample.failures.clone();
        let mut layer_json = String::from("{}");
        let mut span_json = Vec::new();
        if let (reps @ [_, ..], Some(su)) = (&sample.reps[..], &sample.setup) {
            // Fixed work in this mode: the three-round minimum.
            let p = probe(wl, input, reps, su, &sample.setup_pieces, Instant::now());
            for m in p.metrics.iter().filter(|m| shown(m.unit, counts_only)) {
                println!("   {:<44} {:>14.6} {}", m.name, m.value, m.unit);
            }
            for name in ["core.fock_closure", "core.scf_closure"] {
                let v = p.metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value);
                if !counts_only && (v.is_nan() || v < 0.95) {
                    findings.push(format!("{}: {name} = {v:.3} (< 0.95)", wl.name));
                }
            }
            let kept: Vec<Metric> =
                p.metrics.into_iter().filter(|m| shown(m.unit, counts_only)).collect();
            layer_json = json_metrics(&kept);
            for t in &p.spans {
                span_json.push(format!(
                    "{{\"name\": \"{}\", \"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                    t.name, t.count, t.total_s, t.self_s
                ));
            }
            failures.extend(p.misses);
        }
        println!("   runs {}  failed_runs {}", sample.attempted, failures.len());
        for f in &failures {
            println!("   FAILED: {f}");
        }
        failed_runs += failures.len();
        let sep = if k == 0 { "" } else { ",\n" };
        write!(
            json,
            "{sep}    {{\"name\": \"{}\", \"runs\": {}, \"failed_runs\": {}, \"end_to_end\": {{{}}}, \"per_layer\": {layer_json}, \"spans\": [{}]}}",
            wl.name,
            sample.attempted,
            failures.len(),
            e2e_json.join(", "),
            span_json.join(", ")
        )
        .expect("write to String");
    }

    let disagreements = match &passes[..] {
        [a, b] => selfcheck(&chosen, a, b, nproc),
        _ => 0,
    };
    for f in &findings {
        println!("FINDING: {f}");
    }
    let wall = suite_start.elapsed().as_secs_f64();
    println!(
        "\ntotal {wall:.1} s  failed_runs {failed_runs}  selfcheck disagreements {disagreements}"
    );
    if let Some(path) = &args.out {
        let doc = format!(
            "{{\n  \"benchmark\": \"scf-e2e\",\n  \"seed\": {},\n  \"reps\": {reps},\n  \"nproc\": {nproc},\n  \"rustc\": \"{rustc}\",\n  \"commit\": \"{commit}\",\n  \"wall_s\": {wall},\n  \"failed_runs\": {failed_runs},\n  \"workloads\": [\n{json}\n  ]\n}}\n",
            args.seed
        );
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(if failed_runs + disagreements == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let run = parse_args().and_then(|args| match &args.workload {
        Some(name) => Ok(run_contract(find(&WORKLOADS, name)?, &args)),
        None => run_suite(&args),
    });
    run.unwrap_or_else(|e| {
        eprintln!("scf-e2e: {e}");
        ExitCode::from(2)
    })
}
