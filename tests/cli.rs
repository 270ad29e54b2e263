//! The `phi-scf` binary's per-build report line, read from its standard
//! output.

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
