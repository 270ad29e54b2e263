//! Minimal self-contained microbenchmark harness.
//!
//! The workspace builds with no external dependencies (so it compiles and
//! tests offline); this module stands in for Criterion in the `benches/`
//! binaries. Protocol: warm up, grow the iteration count until one timing
//! window is long enough to trust, then report the best of several windows
//! (minimum wall time per iteration is the standard low-noise estimator for
//! microbenchmarks).
//!
//! Benches run with `cargo bench` (each `[[bench]]` is `harness = false`)
//! and print one line per case: `<name>: <ns>/iter (<iters> iters)`.

pub use std::hint::black_box;
use std::time::Instant;

/// Smoke mode (set `PHI_BENCH_SMOKE=1`): shrink windows and sample counts
/// so every bench binary runs in seconds. CI uses this to keep the benches
/// compiling *and executing* without paying for statistically meaningful
/// timings; numbers published in EXPERIMENTS.md come from full mode.
pub fn smoke_mode() -> bool {
    std::env::var_os("PHI_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Minimum measurement window per timing sample.
fn window_s() -> f64 {
    if smoke_mode() {
        0.002
    } else {
        0.05
    }
}

/// Number of measured windows; the fastest is reported.
fn samples() -> usize {
    if smoke_mode() {
        1
    } else {
        3
    }
}

/// One benchmark result.
#[derive(Clone, Debug)]
pub struct Sample {
    pub name: String,
    /// Best-of-windows nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations per window used for measurement.
    pub iters: u64,
}

/// Times the cases of one benchmark group and prints them as they finish.
pub struct Runner {
    group: String,
}

impl Runner {
    pub fn new(group: &str) -> Runner {
        println!("# group: {group}");
        Runner { group: group.to_string() }
    }

    /// Time `f` and report the result under `name`.
    pub fn bench<F: FnMut()>(&self, name: &str, mut f: F) -> Sample {
        // Warm-up and iteration-count calibration: double until one window
        // is at least WINDOW_S long.
        let window = window_s();
        let mut iters = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            let dt = start.elapsed().as_secs_f64();
            if dt >= window {
                break;
            }
            // Aim directly for the window once a measurable time exists.
            iters = if dt > 1e-4 {
                ((iters as f64 * window / dt).ceil() as u64).max(iters + 1)
            } else {
                iters * 10
            };
        }
        let mut best = f64::INFINITY;
        for _ in 0..samples() {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            best = best.min(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
        println!("{}/{}: {:.1} ns/iter ({} iters)", self.group, name, best, iters);
        Sample { name: name.to_string(), ns_per_iter: best, iters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something_plausible() {
        let r = Runner::new("selftest");
        let s = r.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            black_box(acc);
        });
        assert!(s.ns_per_iter > 0.0 && s.ns_per_iter < 1e7);
    }
}
