//! The Boys function `F_m(T) = ∫₀¹ t^{2m} e^{-T t²} dt`.
//!
//! Every Coulomb-type Gaussian integral reduces to Boys function values, so
//! this sits on the innermost hot path of the ERI engine. Three regimes:
//!
//! * `T < 1e-14`: the `T = 0` limit `1 / (2m + 1)`.
//! * `T < 35`: the highest required order comes from a pretabulated grid
//!   `F_m(T_k)`, `T_k = k / 16`, by a fixed 8-term Taylor step from the
//!   nearest grid point — `dF_m/dT = -F_{m+1}`, so
//!   `F_m(T) = Σ_j F_{m+j}(T_k) (T_k - T)^j / j!` needs nothing but the
//!   row itself — and lower orders follow by the numerically stable
//!   *downward* recursion `F_m = (2T F_{m+1} + e^{-T}) / (2m + 1)`. `F_0`
//!   alone (the ssss case) costs no `exp` at all, and has its own table.
//! * `T >= 35`: `erf(sqrt(T)) = 1` to double precision, so
//!   `F_0 = sqrt(pi / T) / 2` exactly, and the *upward* recursion
//!   `F_{m+1} = ((2m+1) F_m - e^{-T}) / (2T)` is stable because `2T`
//!   dominates.
//!
//! **The table.** 561 rows (`T_k = 0, 1/16, .., 35`) of `F_0..F_23`, ~105 KB,
//! one process-wide static filled on first use (one series evaluation per
//! row, well under a millisecond). With `|T_k - T| <= 1/32` the first
//! dropped Taylor term is `F_{m+8} / (32^8 8!) < 3e-17 F_m`, below one ulp,
//! so the error is the rounding of the 8-term Horner sum: measured against
//! the series over `T ∈ [0, 60]` at 1e-3 steps and `m <= 12`, at most 6e-16
//! absolute and 3.3e-15 relative (the tests pin 1e-14 / 1e-13). Rows reach
//! `F_{16+7}`, so orders up to `TABLE_MMAX = 16` (four d shells need 8,
//! four f shells 12) take the table.
//!
//! **The `F_0` path.** `F_0` alone (`boys` with one slot, `boys_f0`, and so
//! the ssss kernel and the generic path's ssss `R` table) reads a second,
//! 561-row table of 64-byte rows, `c_j = F_j(T_k) / j!` for `j = 0..8`:
//! ~35 KB in one contiguous block (`F_0` reads of the full table touch as
//! many lines, one per row, spread over its 105 KB). It evaluates the same
//! 8-term Taylor step by Estrin's scheme, with no `1/j` multiply per term,
//! `((c0 + c1 d) + (c2 + c3 d) d²) + ((c4 + c5 d) + (c6 + c7 d) d²) d⁴`,
//! whose longest dependency chain is three multiply-add levels instead of
//! Horner's seven. The error bound is the step's: the truncation is the
//! `< 3e-17 F_0` above; each `c_j` takes one more rounding (`j!` is exact,
//! so `c_j` is the correctly rounded quotient of the table value); and
//! `c_0` passes through three roundings on its way out while every other
//! term is scaled by `|d|^j <= 32^-j`, so `Σ_{j>=1} |c_j d^j| <= 0.032 F_0`
//! and their rounding adds a few hundredths of an ulp. That is about four
//! ulps of `F_0` beyond the table row's own error. Measured against the
//! series over `T ∈ [0, 60)` at 1.37e-4 steps: at most 6.7e-16 absolute and
//! 3.1e-15 relative, the same maxima as the Horner step on the full rows
//! (the tests pin 1e-14 / 1e-13). Its branch points are the table's: the
//! `T = 0` limit below 1e-14, the nearest-row flip at every grid midpoint,
//! and the asymptotic form from 35. Orders `m >= 1` never read it.
//!
//! **The series remains**, as `boys_series`: it generates the table rows,
//! it evaluates the rare orders above `TABLE_MMAX`, and it is the oracle the
//! tests compare the table against. It is the all-positive,
//! cancellation-free ascending series
//! `F_m(T) = e^{-T} Σ_i (2T)^i / ((2m+1)(2m+3)..(2m+2i+1))` for the top
//! order, then the same downward recursion.

use std::sync::OnceLock;

/// Crossover between the table and the asymptotic branch.
const T_ASYMPTOTIC: f64 = 35.0;

/// Grid rows per unit of `T`: `T_k = k / GRID_PER_UNIT`.
const GRID_PER_UNIT: f64 = 16.0;

/// Grid rows, `T_0 = 0` to `T_560 = 35` inclusive.
const N_ROWS: usize = (T_ASYMPTOTIC * GRID_PER_UNIT) as usize + 1;

/// Terms of the Taylor step, `j = 0..8`.
const TAYLOR_TERMS: usize = 8;

/// Highest order evaluated from the table; above it [`boys`] falls back to
/// the series.
const TABLE_MMAX: usize = 16;

/// `1 / j` for the Horner step (`INV_J[0]` is unused).
const INV_J: [f64; TAYLOR_TERMS] =
    [0.0, 1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0, 1.0 / 5.0, 1.0 / 6.0, 1.0 / 7.0];

/// `j!`, exact in binary, for the `F_0` table's prescaling.
const FACTORIAL: [f64; TAYLOR_TERMS] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];

/// One grid row `F_0(T_k)..F_{TABLE_MMAX + 7}(T_k)`: 24 doubles, aligned to
/// a cache line.
#[repr(align(64))]
struct Row([f64; TABLE_MMAX + TAYLOR_TERMS]);

/// `F_0`'s Taylor coefficients at one grid point, `F_j(T_k) / j!` for
/// `j = 0..8`: one 64-byte row, so an `F_0` evaluation reads one cache line.
#[repr(align(64))]
struct F0Row([f64; TAYLOR_TERMS]);

/// The process-wide `F_0`-only table (561 rows, ~35 KB in one block),
/// filled on first use from the full table's rows.
fn f0_table() -> &'static [F0Row; N_ROWS] {
    static F0_TABLE: OnceLock<Box<[F0Row; N_ROWS]>> = OnceLock::new();
    F0_TABLE.get_or_init(|| {
        let rows: Box<[F0Row]> = table()
            .iter()
            .map(|row| F0Row(std::array::from_fn(|j| row.0[j] / FACTORIAL[j])))
            .collect();
        rows.try_into().unwrap_or_else(|_| unreachable!("N_ROWS rows were collected"))
    })
}

/// `F_0(T)` for `1e-14 <= T < 35` (and the NaN that reaches the table arm):
/// the 8-term Taylor step from the nearest grid row, as [`boys_into`]'s
/// Horner step but on prescaled coefficients in Estrin's form, so its
/// dependency chain is three multiply-add levels deep instead of seven.
#[inline(always)]
fn f0_taylor(t: f64) -> f64 {
    let k = ((t * GRID_PER_UNIT + 0.5) as usize).min(N_ROWS - 1);
    let c = &f0_table()[k].0;
    let d = k as f64 / GRID_PER_UNIT - t;
    let d2 = d * d;
    let lo = (c[0] + c[1] * d) + (c[2] + c[3] * d) * d2;
    let hi = (c[4] + c[5] * d) + (c[6] + c[7] * d) * d2;
    lo + hi * (d2 * d2)
}

/// The process-wide table, filled on first use.
fn table() -> &'static [Row; N_ROWS] {
    static TABLE: OnceLock<Box<[Row; N_ROWS]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let rows: Box<[Row]> = (0..N_ROWS)
            .map(|k| {
                let mut row = Row([0.0; TABLE_MMAX + TAYLOR_TERMS]);
                boys_series(k as f64 / GRID_PER_UNIT, &mut row.0);
                row
            })
            .collect();
        rows.try_into().unwrap_or_else(|_| unreachable!("N_ROWS rows were collected"))
    })
}

/// `out[m] = F_m(T)` for `m < out.len()` by the ascending series for the
/// top order and the downward recursion below it. Not on any hot path: it
/// generates the table, evaluates orders above `TABLE_MMAX` for [`boys`],
/// and is the reference the tests and the `eri` bench hold the table
/// against. Its 300 terms converge for `0 <= T <= 60` and beyond.
pub fn boys_series(t: f64, out: &mut [f64]) {
    assert!(!out.is_empty());
    let mmax = out.len() - 1;
    let exp_mt = (-t).exp();
    let two_t = 2.0 * t;
    let mut term = 1.0 / (2 * mmax + 1) as f64;
    let mut sum = term;
    let mut denom = (2 * mmax + 1) as f64;
    for _ in 1..=300 {
        denom += 2.0;
        term *= two_t / denom;
        sum += term;
        if term < sum * 1e-17 {
            break;
        }
    }
    out[mmax] = exp_mt * sum;
    recur_down(two_t, exp_mt, out);
}

/// Fill `out[..mmax]` from `out[mmax]` by `F_m = (2T F_{m+1} + e^{-T}) / (2m+1)`.
#[inline(always)]
fn recur_down(two_t: f64, exp_mt: f64, out: &mut [f64]) {
    for m in (0..out.len() - 1).rev() {
        out[m] = (two_t * out[m + 1] + exp_mt) / (2 * m + 1) as f64;
    }
}

/// The one evaluator behind [`boys`] and [`boys_f0`]. Always inlined, so a
/// caller with a fixed `out.len()` (the ssss kernel's `F_0`) gets the
/// recursions and the `exp` folded away while running the same arithmetic.
#[inline(always)]
fn boys_into(t: f64, out: &mut [f64]) {
    let mmax = out.len() - 1;
    debug_assert!(t >= 0.0, "Boys argument must be non-negative, got {t}");
    if t < 1e-14 {
        for (m, o) in out.iter_mut().enumerate() {
            *o = 1.0 / (2 * m + 1) as f64;
        }
    } else if t >= T_ASYMPTOTIC {
        out[0] = 0.5 * (std::f64::consts::PI / t).sqrt();
        if mmax > 0 {
            let exp_mt = (-t).exp();
            for m in 0..mmax {
                out[m + 1] = ((2 * m + 1) as f64 * out[m] - exp_mt) / (2.0 * t);
            }
        }
    } else if mmax > TABLE_MMAX {
        boys_series(t, out);
    } else if mmax == 0 {
        out[0] = f0_taylor(t);
    } else {
        // Nearest grid row: at most N_ROWS - 1 for t < 35, and 0 for the
        // NaN that also lands here (the cast saturates). The `min` states
        // that bound where the compiler can use it, in place of a bounds
        // check that could panic.
        let k = ((t * GRID_PER_UNIT + 0.5) as usize).min(N_ROWS - 1);
        let f = &table()[k].0[mmax..mmax + TAYLOR_TERMS];
        let d = k as f64 / GRID_PER_UNIT - t;
        // Horner form of sum_j f[j] d^j / j!.
        let mut top = f[TAYLOR_TERMS - 1];
        for j in (1..TAYLOR_TERMS).rev() {
            top = f[j - 1] + top * (d * INV_J[j]);
        }
        out[mmax] = top;
        recur_down(2.0 * t, (-t).exp(), out);
    }
}

/// Fill `out[m] = F_m(T)` for `m = 0..=mmax` (`out.len() == mmax + 1`).
///
/// Total in release builds: a negative or `-0.0` argument takes the `T = 0`
/// limit, `+inf` the asymptotic branch (all zeros), NaN propagates; debug
/// builds assert `t >= 0`.
pub fn boys(t: f64, out: &mut [f64]) {
    assert!(!out.is_empty());
    boys_into(t, out);
}

/// `F_0(T)`, bit for bit the value [`boys`] gives a one-element buffer
/// (the `F_0` table's Estrin step between 1e-14 and 35), inlined into the
/// caller's loop (the ssss kernel).
#[inline(always)]
pub(crate) fn boys_f0(t: f64) -> f64 {
    let mut f = [0.0];
    boys_into(t, &mut f);
    f[0]
}

/// Convenience scalar version, for `m <= 31`.
pub fn boys_single(m: usize, t: f64) -> f64 {
    let mut buf = [0.0; 32];
    boys(t, &mut buf[..=m]);
    buf[m]
}

/// Batched multi-`m` evaluation over a lane of arguments, the structure-of-
/// arrays entry point of the class-specialized ERI kernels.
///
/// Fills `out[q * (mmax + 1) + m] = F_m(ts[q])` — one contiguous
/// `F_0..F_mmax` stripe per lane, so the Hermite `R` recursion that follows
/// streams each quartet's Boys values from one cache line instead of
/// recomputing them inside the quartet loop. Each stripe is produced by the
/// same scalar [`boys`] evaluation (the branches are data-dependent, so the
/// core stays scalar); the batching is in the memory layout and in hoisting
/// the calls out of the per-quartet recursion. Values are bitwise identical
/// to per-quartet [`boys`] calls.
pub fn boys_batch(mmax: usize, ts: &[f64], out: &mut [f64]) {
    let stride = mmax + 1;
    assert!(out.len() >= ts.len() * stride, "boys_batch output buffer too small");
    for (q, &t) in ts.iter().enumerate() {
        boys(t, &mut out[q * stride..(q + 1) * stride]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adaptive Simpson quadrature of the defining integral — slow but
    /// independent of every code path above.
    fn boys_quadrature(m: usize, t: f64) -> f64 {
        let f = |x: f64| x.powi(2 * m as i32) * (-t * x * x).exp();
        let n = 20_000;
        let h = 1.0 / n as f64;
        let mut s = f(0.0) + f(1.0);
        for k in 1..n {
            let x = k as f64 * h;
            s += f(x) * if k % 2 == 1 { 4.0 } else { 2.0 };
        }
        s * h / 3.0
    }

    #[test]
    fn zero_argument_is_exact() {
        let mut out = [0.0; 6];
        boys(0.0, &mut out);
        for (m, v) in out.iter().enumerate() {
            assert!((v - 1.0 / (2 * m + 1) as f64).abs() < 1e-15);
        }
    }

    #[test]
    fn f0_matches_erf_formula() {
        // F_0(1) = (sqrt(pi)/2) * erf(1): known value of erf(1) = 0.8427007929497149.
        let want = 0.5 * std::f64::consts::PI.sqrt() * 0.8427007929497149;
        assert!((boys_single(0, 1.0) - want).abs() < 1e-14);
    }

    #[test]
    fn matches_quadrature_across_regimes() {
        for &t in &[0.01, 0.5, 2.0, 10.0, 30.0, 34.9, 35.1, 80.0, 200.0] {
            for m in 0..=8 {
                let got = boys_single(m, t);
                let want = boys_quadrature(m, t);
                assert!(
                    (got - want).abs() < 1e-10 * (1.0 + want),
                    "F_{m}({t}): got {got}, quadrature {want}"
                );
            }
        }
    }

    #[test]
    fn continuous_at_the_branch_point() {
        // One ulp apart, so F itself moves by ~1e-15 relative at most; the
        // rest is the table branch against the asymptotic one.
        let below = T_ASYMPTOTIC.next_down();
        for mmax in 0..=12 {
            let (mut lo, mut hi) = ([0.0; 13], [0.0; 13]);
            boys(below, &mut lo[..=mmax]);
            boys(T_ASYMPTOTIC, &mut hi[..=mmax]);
            for m in 0..=mmax {
                assert!(
                    (lo[m] - hi[m]).abs() <= 1e-13 * lo[m],
                    "F_{m} (mmax {mmax}) jumps at the seam: {} vs {}",
                    lo[m],
                    hi[m]
                );
            }
        }
    }

    #[test]
    fn table_matches_series_oracle_over_the_whole_range() {
        // Step 1e-3 with rotating offsets, so arguments land on grid rows,
        // between them and at arbitrary distances from both. Above T = 35
        // the series still converges within its 300 terms, so it also
        // checks the asymptotic branch.
        const OFFSETS: [f64; 4] = [0.0, 2.3e-4, 4.9e-4, 7.7e-4];
        let (mut max_abs, mut max_rel) = (0.0f64, 0.0f64);
        for i in 0..=60_000usize {
            let t = (i as f64 * 1e-3 + OFFSETS[i % 4]).min(60.0);
            for mmax in 0..=12 {
                let (mut got, mut want) = ([0.0; 13], [0.0; 13]);
                boys(t, &mut got[..=mmax]);
                boys_series(t, &mut want[..=mmax]);
                for m in 0..=mmax {
                    let abs = (got[m] - want[m]).abs();
                    max_abs = max_abs.max(abs);
                    max_rel = max_rel.max(abs / want[m]);
                }
            }
        }
        assert!(max_abs <= 1e-14, "max abs error {max_abs:e}");
        assert!(max_rel <= 1e-13, "max rel error {max_rel:e}");
    }

    #[test]
    fn f0_step_matches_series_oracle_on_a_dense_grid() {
        // The F0-only table and its Estrin step, at 1.37e-4 steps (about
        // 460 arguments per grid row, so every row is read at every
        // distance up to its reach of 1/32), against the series at the
        // table's own pins; `boys` with one slot and `boys_f0` are the same
        // evaluation, bit for bit.
        let (mut max_abs, mut max_rel) = (0.0f64, 0.0f64);
        let mut t = 0.0;
        while t < 60.0 {
            let (mut got, mut want) = ([0.0], [0.0]);
            boys(t, &mut got);
            boys_series(t, &mut want);
            assert_eq!(got[0].to_bits(), boys_f0(t).to_bits(), "F_0({t})");
            let abs = (got[0] - want[0]).abs();
            max_abs = max_abs.max(abs);
            max_rel = max_rel.max(abs / want[0]);
            t += 1.37e-4;
        }
        assert!(max_abs <= 1e-14, "max abs error {max_abs:e}");
        assert!(max_rel <= 1e-13, "max rel error {max_rel:e}");
    }

    #[test]
    fn f0_is_continuous_at_the_small_argument_branch() {
        // Below 1e-14 F_0 is the T = 0 limit 1; at 1e-14 the table step
        // starts, one row-0 step of ~1e-14 from it.
        let below = 1e-14f64.next_down();
        let (lo, hi) = (boys_f0(below), boys_f0(1e-14));
        assert_eq!(lo, 1.0);
        assert!(hi < lo && lo - hi <= 1e-13, "F_0 jumps at 1e-14: {lo} vs {hi}");
    }

    #[test]
    fn continuous_where_the_nearest_row_flips() {
        // At every grid midpoint the Taylor step switches rows and runs at
        // its longest reach, Delta/2, from both sides.
        let row_of = |t: f64| (t * GRID_PER_UNIT + 0.5) as usize;
        for k in 0..N_ROWS - 1 {
            let above = (k as f64 + 0.5) / GRID_PER_UNIT;
            // The index sum rounds, so the flip sits an ulp or two low.
            let mut below = above.next_down();
            while row_of(below) != k {
                below = below.next_down();
            }
            assert!(row_of(above) == k + 1 && above - below < 1e-14);
            for mmax in [0, 4, 8, 12, TABLE_MMAX] {
                let (mut lo, mut hi) = ([0.0; TABLE_MMAX + 1], [0.0; TABLE_MMAX + 1]);
                boys(below, &mut lo[..=mmax]);
                boys(above, &mut hi[..=mmax]);
                for m in 0..=mmax {
                    assert!(
                        (lo[m] - hi[m]).abs() <= 2e-14 * lo[m],
                        "F_{m} (mmax {mmax}) jumps at T = {above}: {} vs {}",
                        lo[m],
                        hi[m]
                    );
                }
            }
        }
    }

    #[test]
    fn total_over_edge_arguments() {
        // No panic and no out-of-bounds row for anything a release build
        // can be handed; `mmax` 0 and 8 cover the exp-free and the
        // recursion paths of every branch.
        for mmax in [0usize, 8] {
            let eval = |t: f64| {
                let mut out = [0.0; 9];
                boys(t, &mut out[..=mmax]);
                out
            };
            for t in [-0.0, 1e-300] {
                for (m, v) in eval(t)[..=mmax].iter().enumerate() {
                    assert_eq!(*v, 1.0 / (2 * m + 1) as f64);
                }
            }
            let (near, at) = (eval(34.999999999), eval(35.0));
            for m in 0..=mmax {
                assert!(near[m] > at[m] && near[m] - at[m] < 1e-9 * at[m], "F_{m} near the seam");
            }
            assert!(eval(f64::MAX)[0] > 0.0);
            assert!(eval(f64::MAX)[..=mmax].iter().all(|v| v.is_finite() && *v >= 0.0));
            assert!(eval(f64::INFINITY)[..=mmax].iter().all(|v| *v == 0.0));
            // NaN propagates (where the debug assertion does not catch it).
            if !cfg!(debug_assertions) {
                assert!(eval(f64::NAN)[..=mmax].iter().all(|v| v.is_nan()));
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-negative")]
    fn nan_trips_the_debug_assertion() {
        boys_single(0, f64::NAN);
    }

    #[test]
    fn orders_above_the_table_are_the_series_bit_for_bit() {
        for mmax in [TABLE_MMAX + 1, 20, 31] {
            for &t in &[1e-9, 0.03, 1.0, 7.77, 20.5, 34.999] {
                let (mut got, mut want) = ([0.0; 32], [0.0; 32]);
                boys(t, &mut got[..=mmax]);
                boys_series(t, &mut want[..=mmax]);
                for m in 0..=mmax {
                    assert_eq!(got[m].to_bits(), want[m].to_bits(), "F_{m}({t}), mmax {mmax}");
                }
            }
        }
    }

    #[test]
    fn batch_is_per_argument_boys_bit_for_bit() {
        let ts = [0.0, 1e-15, 0.031, 0.5, 3.125, 17.03, 34.99, 35.0, 80.0, 1e6];
        for mmax in [0usize, 1, 4, 8, 12, TABLE_MMAX + 2] {
            let stride = mmax + 1;
            let mut batch = vec![0.0; ts.len() * stride];
            boys_batch(mmax, &ts, &mut batch);
            for (q, &t) in ts.iter().enumerate() {
                let mut one = vec![0.0; stride];
                boys(t, &mut one);
                for m in 0..=mmax {
                    assert_eq!(batch[q * stride + m].to_bits(), one[m].to_bits());
                }
                if mmax == 0 {
                    assert_eq!(boys_f0(t).to_bits(), one[0].to_bits());
                }
            }
        }
    }

    #[test]
    fn monotone_decreasing_in_t_and_m() {
        let mut prev = [0.0; 5];
        boys(0.0, &mut prev);
        for k in 1..200 {
            let t = k as f64 * 0.5;
            let mut cur = [0.0; 5];
            boys(t, &mut cur);
            for m in 0..5 {
                assert!(cur[m] <= prev[m] + 1e-15, "F_{m} not decreasing at T={t}");
                assert!(cur[m] > 0.0);
            }
            for m in 1..5 {
                assert!(cur[m] <= cur[m - 1], "F_m must decrease in m");
            }
            prev = cur;
        }
    }

    #[test]
    fn downward_recursion_consistency() {
        // F_{m+1} and F_m must satisfy the recursion identity everywhere.
        for &t in &[0.3, 3.0, 33.0, 60.0] {
            let mut f = [0.0; 7];
            boys(t, &mut f);
            let e = (-t).exp();
            for m in 0..6 {
                let lhs = (2 * m + 1) as f64 * f[m];
                let rhs = 2.0 * t * f[m + 1] + e;
                assert!(
                    (lhs - rhs).abs() < 1e-12 * (1.0 + lhs.abs()),
                    "recursion broken at m={m}, T={t}"
                );
            }
        }
    }
}
