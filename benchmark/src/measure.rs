//! End-to-end measurement: the set-up block, one timed `run_scf`, the
//! correctness gate, and the small statistics the reports need.

use crate::workloads::{geometry, Workload};
use hf::diis::Diis;
use hf::fock::engine::SerialBuilder;
use hf::guess::core_guess;
use hf::{run_scf, DensitySet, FockBuilder, FockContext, FockData, ScfConfig, ScfResult};
use phi_chem::{BasisSet, Molecule};
use phi_integrals::{
    kinetic_matrix, nuclear_attraction_matrix, overlap_matrix, Screening, ShellPairs,
};
use phi_linalg::{sym_inv_sqrt, Mat};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method); `(min, max)` below two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        return (v[0], v[n - 1]);
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The figure reported for a set of timing samples: their lower quartile.
/// Interference on a shared host only ever adds time and comes in bursts of
/// seconds; across ten 10-second runs it moved the median of three SCF
/// walls by 11 % and their lower quartile by 7 % (README, "Noise").
pub fn timing(samples: &[f64]) -> f64 {
    quartiles(samples).0
}

/// Names of the set-up pieces, in the order `run_scf` pays them.
pub const SETUP_PIECES: [&str; 7] = [
    "chem.basis_build_s",
    "integrals.one_electron_s",
    "linalg.sym_inv_sqrt_s",
    "integrals.shell_pairs_build_s",
    "integrals.screening_build_s",
    "core.guess_s",
    "setup_s",
];

/// Everything `run_scf` has in hand before its first Fock build, made by
/// the same calls, each piece timed; `pieces[SETUP_TOTAL]` is the whole block.
pub struct Setup {
    pub basis: BasisSet,
    pub s: Mat,
    pub h: Mat,
    pub x: Mat,
    pub data: FockData,
    pub d0: Mat,
    pub pieces: [f64; 7],
}

impl Setup {
    /// The Fock-build context `run_scf` derives from this data.
    pub fn context(&self) -> FockContext<'_> {
        self.data.context(&self.basis, ScfConfig::default().screening_tau)
    }
}

/// Index of the whole block's time in [`Setup::pieces`].
pub const SETUP_TOTAL: usize = 6;

pub fn setup(mol: &Molecule, wl: &Workload) -> Setup {
    let cfg = ScfConfig::default();
    let t0 = Instant::now();
    let basis = BasisSet::build(mol, wl.system.basis);
    let t1 = Instant::now();
    let s = overlap_matrix(&basis);
    let h = kinetic_matrix(&basis).add(&nuclear_attraction_matrix(&basis, mol));
    let t2 = Instant::now();
    let x = sym_inv_sqrt(&s, cfg.s_threshold);
    let t3 = Instant::now();
    // `FockData::build`, split where its two halves meet.
    let pairs = ShellPairs::build(&basis);
    let t4 = Instant::now();
    let screening = Screening::from_pairs(&basis, &pairs);
    let t5 = Instant::now();
    let d0 = core_guess(&h, &x, mol.n_occupied());
    let t6 = Instant::now();
    let ts = [t0, t1, t2, t3, t4, t5, t6];
    let mut pieces = [0.0; 7];
    for k in 0..6 {
        pieces[k] = (ts[k + 1] - ts[k]).as_secs_f64();
    }
    pieces[SETUP_TOTAL] = (t6 - t0).as_secs_f64();
    Setup { basis, s, h, x, data: FockData { pairs, screening }, d0, pieces }
}

pub fn scf_config(wl: &Workload) -> ScfConfig {
    ScfConfig { algorithm: wl.algorithm, ..ScfConfig::default() }
}

/// One workload at one seed: the generated molecule and its basis.
pub struct Input {
    pub mol: Molecule,
    pub basis: BasisSet,
    pub seed: u64,
}

impl Input {
    pub fn new(wl: &Workload, seed: u64) -> Input {
        let mol = geometry(wl.system, seed);
        let basis = BasisSet::build(&mol, wl.system.basis);
        Input { mol, basis, seed }
    }
}

/// One timed `run_scf` call, no probes running.
pub struct Rep {
    pub wall_s: f64,
    pub result: ScfResult,
}

impl Rep {
    pub fn build_seconds(&self) -> impl Iterator<Item = f64> + '_ {
        self.result.fock_stats.iter().map(|s| s.seconds)
    }

    pub fn peak_rank_bytes(&self) -> usize {
        self.result.fock_stats.iter().map(|s| s.max_rank_peak()).max().unwrap_or(0)
    }
}

/// A panic inside the program counts as a failed run, not a dead benchmark.
pub fn timed_scf(wl: &Workload, input: &Input) -> Result<Rep, String> {
    let cfg = scf_config(wl);
    catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let result = run_scf(&input.mol, &input.basis, &cfg);
        Rep { wall_s: t.elapsed().as_secs_f64(), result }
    }))
    .map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()));
        format!("run_scf panicked: {}", msg.unwrap_or_else(|| "(no message)".into()))
    })
}

pub const ENERGY_PIN_TOL: f64 = 1e-8;
pub const ENERGY_TOL: f64 = 1e-9;
pub const FOCK_TOL: f64 = 1e-10;
/// `max |X^T (FDS - SDF) X|` at a density whose RMS change fell below
/// 1e-8; two orders of slack over what converged runs show.
const COMMUTATOR_TOL: f64 = 1e-5;

/// The correctness gate for one converged result, independent of the
/// builder under test: rebuild `G` at the final density with
/// [`SerialBuilder`], and require (a) the energy from that Fock matrix to
/// match the reported one, (b) the density to be stationary for it, (c) the
/// workload's own builder to reproduce that `G`, and (d) the pinned energy
/// at seeds 0 and 1. Returns every miss.
pub fn verify(wl: &Workload, input: &Input, su: &Setup, res: &ScfResult) -> Vec<String> {
    let mut misses = Vec::new();
    if !res.converged {
        misses.push(format!("did not converge ({:?})", res.stop_reason));
        return misses;
    }
    if let Some(&pin) = wl.system.pinned.get(input.seed as usize) {
        if (res.energy - pin).abs() > ENERGY_PIN_TOL {
            misses.push(format!("energy {:.10} is off the pinned {pin:.8}", res.energy));
        }
    }
    let ctx = su.context();
    let dens = DensitySet::Restricted(&res.density);
    let g_ref = SerialBuilder.build(&ctx, &dens).g;
    let mut f = su.h.add(&g_ref);
    f.symmetrize();
    let energy =
        0.5 * (res.density.dot(&su.h) + res.density.dot(&f)) + input.mol.nuclear_repulsion();
    if (energy - res.energy).abs() > ENERGY_TOL {
        misses.push(format!(
            "energy {:.12} differs from the serial rebuild's {energy:.12}",
            res.energy
        ));
    }
    let comm = Diis::error_vector(&f, &res.density, &su.s, &su.x).max_abs();
    if comm > COMMUTATOR_TOL {
        misses.push(format!("final density is not stationary: |FDS-SDF| = {comm:.2e}"));
    }
    if !wl.is_serial() {
        let diff = wl.algorithm.builder().build(&ctx, &dens).g.max_abs_diff(&g_ref);
        if diff > FOCK_TOL {
            misses.push(format!("G differs from SerialBuilder by {diff:.2e}"));
        }
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
