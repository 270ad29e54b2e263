//! The `phi-scf` binary's per-build report line, read from its standard
//! output, and its refusal of geometries too large to place a Gaussian.

use std::process::Command;

/// The "% screened" figure of the first build's "per build:" line.
fn screened_percent(job: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_phi-scf"))
        .args(job.split_whitespace())
        .output()
        .expect("the binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "'{job}': {stdout}{}", String::from_utf8_lossy(&out.stderr));
    let line = stdout.lines().find(|l| l.starts_with("per build:")).expect("a per-build line");
    let pct = line.split(", ").find(|f| f.ends_with("% screened")).expect("a screened figure");
    pct.trim_end_matches(" screened").to_string()
}

#[test]
fn screened_percent_is_a_fraction_of_canonical_quartets() {
    // H28/6-31G: 203 065 of 1 274 406 canonical quartets computed, whatever
    // each row tested to find them.
    let h28 = "--molecule chain:28:1.8 --basis 631g --max-iter 1 --algorithm";
    assert_eq!(screened_percent(&format!("{h28} serial")), "84.1%");
    assert_eq!(screened_percent(&format!("{h28} shared:1x2")), "84.1%");
    // Every quartet dropped, none tested.
    let dropped = "--molecule chain:4:1.4 --basis sto3g --max-iter 1 --tau 1e300";
    assert_eq!(screened_percent(dropped), "100.0%");
}

/// Runs the binary; its exit code and standard error.
fn exit_and_stderr(job: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_phi-scf"))
        .args(job.split_whitespace())
        .output()
        .expect("the binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn coordinates_beyond_the_bound_are_refused() {
    // At 1e17 bohr the spacing of doubles is 16 bohr: this job printed
    // E = -227.58 Eh, "converged", and exited 0.
    let (code, err) = exit_and_stderr("--molecule h2:1e17 --basis sto3g --algorithm serial");
    assert_eq!(code, Some(1), "{err}");
    assert!(err.starts_with("error: h2:1e17: atom 2") && err.contains("1e5 bohr"), "{err}");
    // One far atom in an XYZ file (angstrom): 1e6 A is 1.9e6 bohr.
    let path = std::env::temp_dir().join(format!("phi-scf-far-{}.xyz", std::process::id()));
    std::fs::write(&path, "3\n\nO 0 0 0\nH 0.96 0 0\nH 0 1e6 0\n").expect("temp dir");
    let job = format!("--xyz {} --basis sto3g --algorithm serial", path.display());
    let (code, err) = exit_and_stderr(&job);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.starts_with("error: ") && err.contains("atom 3"), "{err}");
    // Far apart but inside the bound still runs.
    let (code, err) = exit_and_stderr("--molecule h2:1e4 --basis sto3g --algorithm serial");
    assert_eq!(code, Some(0), "{err}");
}
