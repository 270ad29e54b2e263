//! Class-specialized, batched ERI kernels.
//!
//! The generic McMurchie–Davidson path in [`crate::eri`] is one loop nest
//! that handles every angular-momentum combination through runtime bounds,
//! dense scratch cubes and per-quartet Hermite `E`-table walks. That
//! generality is exactly what the SC'17 paper's vectorization analysis
//! (arXiv:1708.00033, §"SIMD optimization") identifies as the obstacle to
//! wide SIMD: trip counts the compiler cannot see, strided scratch access,
//! and redundant zero-initialization of high-water buffers.
//!
//! This module monomorphizes the hot classes. A *class* is the pair of
//! combined angular momenta `(l_bra, l_ket)` of the two shell pairs —
//! `ssss` is `(0,0)`, `pppp` and the Pople composite `spsp` are `(2,2)`,
//! `dddd` is `(4,4)` — mirroring how GAMESS groups composite-L shells: all
//! blocks of an SP shell share exponents, so one kernel instance covers the
//! whole quartet. Every class with both sides `<=` [`SPEC_LMAX`] gets its
//! own kernel (25 in total, covering every s/p/SP/d combination of
//! 6-31G(d)-style bases): `ssss` a straight-line one (`eval_ssss` — one
//! multiply-add chain per primitive quartet around an inlined `F_0`, on the
//! pair dataset's fused s-pair weights, none of the phases below), the
//! other 24 an `eval_spec::<LB, LK>`
//! instantiation; anything hotter — f shells and beyond — falls back to the
//! generic recursion. [`crate::eri::EriEngine`] owns the scratch and
//! dispatches on [`class_index`] itself.
//!
//! Per quartet an `eval_spec` kernel runs three phases:
//!
//! 1. **Survivor compaction** (batched, structure-of-arrays): the primitive
//!    prefactor screen streams the pair datasets' [`PrimSoA`] lanes and
//!    compacts surviving primitive quartets into flat lanes
//!    (`base`, `alpha`, displacement, Boys argument).
//! 2. **Batched Boys evaluation**: one [`boys_batch`] pass fills a
//!    contiguous `F_0..F_{l_bra+l_ket}` stripe per surviving lane.
//! 3. **Hermite recursion + two-stage contraction** with const-generic loop
//!    bounds: the `R` recursion skips the dense-cube zero-fill (the
//!    dominant per-quartet cost for d-heavy classes — see
//!    `rints::fill_r0_into`), and both stages walk the pair datasets' fused
//!    [`HermiteTable`]s one Hermite index at a time, never a function pair
//!    at a time: no coefficient, normalization or `E` lookup happens per
//!    quartet. Phase 1 emits survivors bra-primitive-pair major, so each bra
//!    primitive pair's survivors form one run. Stage 1 (the ket
//!    contraction) runs per survivor and per ket index `(tau, nu, phi)`: it
//!    gathers `(+-base) R[t+tau][u+nu][v+phi]` over the bra simplex once and
//!    adds it, times the table weight, into every `cd` column of a
//!    `W[cd][tuv]` the index feeds (unit stride, no zeroing or scatter per
//!    function pair); the run's survivors sum into one `W`. `W` is then
//!    transposed once, and stage 2 (the bra expansion, linear in `W`) runs
//!    once per run: per bra index it adds the weight times one `W[tuv]` row
//!    straight into every `ab` output row it feeds — McMurchie–Davidson's
//!    early contraction over the ket primitives.
//!
//! **Parity contract.** A specialized kernel performs the generic path's
//! arithmetic: the same screening test, the same operation order in every
//! prefactor, Boys values from the same scalar evaluator, the `R` recursion
//! through the shared `fill_r0_into` core, and the same products in the
//! same association — the generic path rebuilds each quartet's dense `E`
//! tables from the pair dataset's side records but forms each weight as the
//! table does, `((E_t E_u) E_v) ((c N) N)`, adds
//! `w ((+-base) R)` in stage 1 and `w W` in stage 2, each Hermite index in
//! the table's lexicographic order, with the parity sign an exact negation
//! of `base`. The one difference is where the ket primitives are summed:
//! the generic path adds every primitive quartet's bra expansion into the
//! output, the kernels add the ket primitives' `W` first and expand once.
//! Where each bra primitive pair has one surviving ket primitive pair
//! (single-primitive shells) the two agree to the last bit
//! (`eri::tests::specialized_kernels_match_generic_bitwise`); elsewhere the
//! reassociated sum agrees within `tests/kernel_parity.rs`'s `<= 1e-14` per
//! integral, which that file enforces across seeded random geometries,
//! exponents, contraction depths and degenerate configurations. The ssss
//! kernel is the exception to the first half: it multiplies each pair's
//! weight into its sum once per pair, so its products are reassociated at
//! any depth and it is held to the `1e-14` alone. Its prefactor screen is
//! still the generic path's, bit for bit, so both paths compute the same
//! primitive quartets.
//!
//! [`PrimSoA`]: crate::shell_pairs::PrimSoA
//! [`HermiteTable`]: crate::shell_pairs::HermiteTable

use crate::boys::{boys_batch, boys_f0};
use crate::rints::fill_r0_into;
use crate::shell_pairs::{simplex_len, ShellPair};

const PI: f64 = std::f64::consts::PI;

/// Largest combined per-side angular momentum (`l_bra` or `l_ket`) with a
/// specialized kernel. 4 covers `dd` bra/ket pairs — every class of an
/// s/p/SP/d basis like 6-31G(d).
pub const SPEC_LMAX: usize = 4;

/// Number of specialized `(l_bra, l_ket)` classes.
pub const N_SPEC: usize = (SPEC_LMAX + 1) * (SPEC_LMAX + 1);

/// Class slots: the specialized classes plus one generic-fallback slot.
pub const N_CLASS_SLOTS: usize = N_SPEC + 1;

/// Slot index of the generic fallback in per-class counters.
pub const GENERIC_SLOT: usize = N_SPEC;

/// Map a quartet's combined bra/ket angular momenta to its class slot.
/// Classes beyond [`SPEC_LMAX`] on either side land on [`GENERIC_SLOT`].
#[inline]
pub fn class_index(l_bra: usize, l_ket: usize) -> usize {
    if l_bra <= SPEC_LMAX && l_ket <= SPEC_LMAX {
        l_bra * (SPEC_LMAX + 1) + l_ket
    } else {
        GENERIC_SLOT
    }
}

/// Human-readable class labels, indexed by class slot: `b<l_bra>k<l_ket>`
/// (combined angular momenta, so `pppp` and `spsp` both read `b2k2`, `dddd`
/// reads `b4k4`), with the fallback labeled `generic`.
pub const CLASS_LABELS: [&str; N_CLASS_SLOTS] = [
    "b0k0", "b0k1", "b0k2", "b0k3", "b0k4", //
    "b1k0", "b1k1", "b1k2", "b1k3", "b1k4", //
    "b2k0", "b2k1", "b2k2", "b2k3", "b2k4", //
    "b3k0", "b3k1", "b3k2", "b3k3", "b3k4", //
    "b4k0", "b4k1", "b4k2", "b4k3", "b4k4", //
    "generic",
];

/// Trace-counter names per class slot (static, as `phi_trace` requires).
pub const CLASS_TRACE_NAMES: [&str; N_CLASS_SLOTS] = [
    "eri.class.b0k0",
    "eri.class.b0k1",
    "eri.class.b0k2",
    "eri.class.b0k3",
    "eri.class.b0k4",
    "eri.class.b1k0",
    "eri.class.b1k1",
    "eri.class.b1k2",
    "eri.class.b1k3",
    "eri.class.b1k4",
    "eri.class.b2k0",
    "eri.class.b2k1",
    "eri.class.b2k2",
    "eri.class.b2k3",
    "eri.class.b2k4",
    "eri.class.b3k0",
    "eri.class.b3k1",
    "eri.class.b3k2",
    "eri.class.b3k3",
    "eri.class.b3k4",
    "eri.class.b4k0",
    "eri.class.b4k1",
    "eri.class.b4k2",
    "eri.class.b4k3",
    "eri.class.b4k4",
    "eri.class.generic",
];

/// Thread-private scratch of the specialized kernels: survivor lanes
/// (structure-of-arrays, one value per surviving primitive quartet), the
/// batched Boys stripes, the two `R`-recursion rolling buffers and the
/// contraction intermediates. All buffers grow to a high-water mark and are
/// reused; no per-quartet allocation.
#[derive(Default)]
pub(crate) struct KernelScratch {
    /// Survivor lanes: quartet prefactor `2 pi^{5/2} / (p q sqrt(p+q))`.
    base: Vec<f64>,
    /// Survivor lanes: reduced exponent `alpha = p q / (p + q)`.
    alpha: Vec<f64>,
    /// Survivor lanes: bra-to-ket product-center displacement.
    dx: Vec<f64>,
    dy: Vec<f64>,
    dz: Vec<f64>,
    /// Survivor lanes: Boys argument `alpha |PQ|^2`.
    targ: Vec<f64>,
    /// Survivor lanes: originating primitive-pair indices (runs of equal
    /// `ip_ab` share one stage 2).
    ip_ab: Vec<u32>,
    ip_cd: Vec<u32>,
    /// Batched Boys values, `fm[q * (l_total+1) + m] = F_m(targ[q])`.
    fm: Vec<f64>,
    /// Rolling buffers of the shared `R` recursion (no zero-fill mode).
    r_prev: Vec<f64>,
    r_cur: Vec<f64>,
    /// Stage-1 intermediate `W[cd * ntuv + tuv]` (bra simplex packed,
    /// lexicographic), summed over one bra primitive pair's surviving ket
    /// primitives.
    w: Vec<f64>,
    /// `W` transposed to `[tuv][cd]`, the rows stage 2 reads.
    wt: Vec<f64>,
}

/// One monomorphized class kernel: `LB`/`LK` are the combined bra/ket
/// angular momenta, so every loop bound below is a compile-time constant.
/// Overwrites `out`; returns the number of primitive quartets computed.
///
/// Parity notes are inline at each stage; the products and their
/// association are `GenericKernel::eval`'s, and so is the order of every
/// sum except the one over ket primitives, which is taken in `W` before the
/// bra expansion (see the module doc).
fn eval_spec<const LB: usize, const LK: usize>(
    s: &mut KernelScratch,
    bra: &ShellPair,
    ket: &ShellPair,
    prefactor_cutoff: f64,
    out: &mut [f64],
) -> u64 {
    let l_total = LB + LK;
    let rdim = l_total + 1;
    let ntuv = simplex_len(LB);
    debug_assert!(bra.hermite.n_h() == ntuv && ket.hermite.n_h() == simplex_len(LK));
    out.iter_mut().for_each(|x| *x = 0.0);

    // Phase A: primitive screening + survivor compaction, streaming the SoA
    // lanes in the generic order (ip_ab outer, ip_cd inner). Same screen,
    // same operation order as the generic path.
    let coef_bound = bra.max_coef * ket.max_coef;
    let num = 2.0 * PI.powf(2.5);
    let (bs, ks) = (&bra.soa, &ket.soa);
    s.base.clear();
    s.alpha.clear();
    s.dx.clear();
    s.dy.clear();
    s.dz.clear();
    s.targ.clear();
    s.ip_ab.clear();
    s.ip_cd.clear();
    for ia in 0..bs.p.len() {
        let p = bs.p[ia];
        let (bcx, bcy, bcz, bk) = (bs.cx[ia], bs.cy[ia], bs.cz[ia], bs.k[ia]);
        for ic in 0..ks.p.len() {
            let q = ks.p[ic];
            let base = num / (p * q * (p + q).sqrt());
            if (base * bk * ks.k[ic] * coef_bound).abs() < prefactor_cutoff {
                continue;
            }
            let alpha = p * q / (p + q);
            let dx = bcx - ks.cx[ic];
            let dy = bcy - ks.cy[ic];
            let dz = bcz - ks.cz[ic];
            let r2 = dx * dx + dy * dy + dz * dz;
            s.base.push(base);
            s.alpha.push(alpha);
            s.dx.push(dx);
            s.dy.push(dy);
            s.dz.push(dz);
            s.targ.push(alpha * r2);
            s.ip_ab.push(ia as u32);
            s.ip_cd.push(ic as u32);
        }
    }
    let nsurv = s.base.len();
    if nsurv == 0 {
        return 0;
    }

    // Phase B: one batched Boys pass, a contiguous F_0..F_{l_total} stripe
    // per survivor lane. Same scalar evaluator as RTable::rebuild uses.
    if s.fm.len() < nsurv * rdim {
        s.fm.resize(nsurv * rdim, 0.0);
    }
    boys_batch(l_total, &s.targ, &mut s.fm);

    // Phase C: per run of survivors sharing one bra primitive pair (phase A
    // emits them contiguously, ip_ab outer), the shared R recursion
    // (zero-fill skipped: the contraction below reads only on-simplex
    // entries) and stage 1 per survivor, summed into W; then stage 2 once
    // per run. Both stages walk the pairs' Hermite tables one index at a
    // time, with const bounds.
    let ncd = ket.n_fn();
    if s.w.len() < ncd * ntuv {
        s.w.resize(ncd * ntuv, 0.0);
        s.wt.resize(ncd * ntuv, 0.0);
    }

    let mut q0 = 0;
    for run in s.ip_ab[..nsurv].chunk_by(|x, y| x == y) {
        let w = &mut s.w[..ncd * ntuv];
        w.iter_mut().for_each(|x| *x = 0.0);
        for qi in q0..q0 + run.len() {
            let base = s.base[qi];
            fill_r0_into(
                l_total,
                s.alpha[qi],
                s.dx[qi],
                s.dy[qi],
                s.dz[qi],
                &s.fm[qi * rdim..(qi + 1) * rdim],
                &mut s.r_prev,
                &mut s.r_cur,
                false,
            );
            let r: &[f64] = &s.r_prev;

            // Stage 1: ket contraction into W[cd][tuv]. Per ket Hermite
            // index (tau, nu, phi) that feeds any cd, gather
            // g[tuv] = (+-base) R[t+tau][u+nu][v+phi] over the bra simplex
            // once, then add w * g into each fed cd column (unit stride).
            // Generic: W[tuv][cd] += w * ((+-base) * R), the same product;
            // the parity sign is an exact negation of base. W is linear in
            // the ket primitives, so the run's survivors sum into one W
            // before the bra expansion.
            let (koffs, kfab, kw) = ket.hermite.prim(s.ip_cd[qi] as usize);
            let mut g = [0.0f64; simplex_len(SPEC_LMAX)];
            let mut h = 0;
            for tau in 0..=LK {
                for nu in 0..=(LK - tau) {
                    for phi in 0..=(LK - tau - nu) {
                        let (lo, hi) = (koffs[h] as usize, koffs[h + 1] as usize);
                        h += 1;
                        if lo == hi {
                            continue;
                        }
                        let sb = if (tau + nu + phi) % 2 == 1 { -base } else { base };
                        let mut k = 0;
                        for t in 0..=LB {
                            let rt = (t + tau) * rdim;
                            for u in 0..=(LB - t) {
                                let rbase = (rt + u + nu) * rdim + phi;
                                for v in 0..=(LB - t - u) {
                                    g[k] = sb * r[rbase + v];
                                    k += 1;
                                }
                            }
                        }
                        let g = &g[..ntuv];
                        for (&cd, &we) in kfab[lo..hi].iter().zip(&kw[lo..hi]) {
                            let col = &mut w[cd as usize * ntuv..][..ntuv];
                            for (x, &gv) in col.iter_mut().zip(g) {
                                *x += we * gv;
                            }
                        }
                    }
                }
            }
        }
        q0 += run.len();

        // Stage 2: bra expansion, once per bra primitive pair. Transpose W
        // to [tuv][cd] once, then per bra Hermite index add w * W[h][..]
        // into every ab output row it feeds (unit stride over cd). Generic:
        // out += w * W[h][cd], per h in the same order.
        let (w, wt) = (&s.w[..ncd * ntuv], &mut s.wt[..ncd * ntuv]);
        for (cd, col) in w.chunks_exact(ntuv).enumerate() {
            for (h, &x) in col.iter().enumerate() {
                wt[h * ncd + cd] = x;
            }
        }
        let (boffs, bfab, bw) = bra.hermite.prim(run[0] as usize);
        for (h, row) in wt.chunks_exact(ncd).enumerate() {
            let (lo, hi) = (boffs[h] as usize, boffs[h + 1] as usize);
            for (&ab, &we) in bfab[lo..hi].iter().zip(&bw[lo..hi]) {
                let orow = &mut out[ab as usize * ncd..][..ncd];
                for (o, &x) in orow.iter_mut().zip(row) {
                    *o += we * x;
                }
            }
        }
    }
    nsurv as u64
}

/// The ssss class: every shell is one s function, so a primitive quartet is
/// one multiply-add chain and needs no survivor lanes, `R` recursion or `W`
/// scratch. Streams the two [`PrimSoA`](crate::shell_pairs::PrimSoA)s in
/// the generic order, with the pairs' fused weights `w` in place of the
/// coefficient, normalization and `E_000` lookups and `F_0` inlined: per bra
/// primitive pair it sums `w_ket * base * F_0` over the ket primitive pairs,
/// then adds that sum times `w_bra` into a register it stores to `out[0]`:
/// it assigns the integral, so `out` needs no zeroing. Returns the number of
/// primitive quartets computed.
///
/// Parity: the prefactor screen is the generic path's, bit for bit (`base`
/// and its test are spelled the same), so both paths compute the same
/// primitive quartets. The integral is the generic path's product
/// reassociated: the weights are multiplied once per pair instead of per
/// quartet, and the ket primitives are summed before the bra weight, as in
/// `eval_spec`. `tests/kernel_parity.rs` holds the two within `1e-14` per
/// integral. A zero weight (a zero coefficient, or an `E_000` that
/// underflowed) adds an exact zero where the generic path adds nothing.
fn eval_ssss(bra: &ShellPair, ket: &ShellPair, prefactor_cutoff: f64, out: &mut [f64]) -> u64 {
    debug_assert!(bra.l_sum == 0 && ket.l_sum == 0 && out.len() == 1);
    let coef_bound = bra.max_coef * ket.max_coef;
    let num = 2.0 * PI.powf(2.5);
    let (bs, ks) = (&bra.soa, &ket.soa);
    let n = ks.p.len();
    let (kp, kk, kw) = (&ks.p[..n], &ks.k[..n], &ks.w[..n]);
    let (kx, ky, kz) = (&ks.cx[..n], &ks.cy[..n], &ks.cz[..n]);
    let mut prim_quartets = 0u64;
    let mut sum = 0.0;
    for ia in 0..bs.p.len() {
        let p = bs.p[ia];
        let (bcx, bcy, bcz, bk) = (bs.cx[ia], bs.cy[ia], bs.cz[ia], bs.k[ia]);
        let mut ket_sum = 0.0;
        for ic in 0..n {
            let q = kp[ic];
            let pq = p * q;
            let base = num / (pq * (p + q).sqrt());
            if (base * bk * kk[ic] * coef_bound).abs() < prefactor_cutoff {
                continue;
            }
            prim_quartets += 1;
            let alpha = pq / (p + q);
            let dx = bcx - kx[ic];
            let dy = bcy - ky[ic];
            let dz = bcz - kz[ic];
            let r2 = dx * dx + dy * dy + dz * dz;
            ket_sum += kw[ic] * base * boys_f0(alpha * r2);
        }
        sum += bs.w[ia] * ket_sum;
    }
    out[0] = sum;
    prim_quartets
}

/// Evaluate one quartet of specialized class slot `ci` (`< N_SPEC`) into
/// `out`, overwriting it: the straight-line ssss kernel for slot 0, a
/// monomorphized `eval_spec` instance for the rest. Returns the number of
/// primitive quartets computed.
pub(crate) fn eval_class(
    ci: usize,
    s: &mut KernelScratch,
    bra: &ShellPair,
    ket: &ShellPair,
    prefactor_cutoff: f64,
    out: &mut [f64],
) -> u64 {
    macro_rules! arm {
        ($lb:literal, $lk:literal) => {
            eval_spec::<$lb, $lk>(s, bra, ket, prefactor_cutoff, out)
        };
    }
    match ci {
        0 => eval_ssss(bra, ket, prefactor_cutoff, out),
        1 => arm!(0, 1),
        2 => arm!(0, 2),
        3 => arm!(0, 3),
        4 => arm!(0, 4),
        5 => arm!(1, 0),
        6 => arm!(1, 1),
        7 => arm!(1, 2),
        8 => arm!(1, 3),
        9 => arm!(1, 4),
        10 => arm!(2, 0),
        11 => arm!(2, 1),
        12 => arm!(2, 2),
        13 => arm!(2, 3),
        14 => arm!(2, 4),
        15 => arm!(3, 0),
        16 => arm!(3, 1),
        17 => arm!(3, 2),
        18 => arm!(3, 3),
        19 => arm!(3, 4),
        20 => arm!(4, 0),
        21 => arm!(4, 1),
        22 => arm!(4, 2),
        23 => arm!(4, 3),
        24 => arm!(4, 4),
        _ => unreachable!("eval_class called with generic slot {ci}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_covers_the_spec_grid() {
        let mut seen = [false; N_CLASS_SLOTS];
        for lb in 0..=SPEC_LMAX {
            for lk in 0..=SPEC_LMAX {
                let ci = class_index(lb, lk);
                assert!(ci < N_SPEC);
                assert!(!seen[ci], "classes must map 1:1");
                seen[ci] = true;
            }
        }
        assert_eq!(class_index(5, 0), GENERIC_SLOT);
        assert_eq!(class_index(0, 5), GENERIC_SLOT);
        assert_eq!(class_index(6, 8), GENERIC_SLOT);
    }

    #[test]
    fn labels_match_slots() {
        assert_eq!(CLASS_LABELS.len(), N_CLASS_SLOTS);
        assert_eq!(CLASS_LABELS[class_index(0, 0)], "b0k0");
        assert_eq!(CLASS_LABELS[class_index(2, 2)], "b2k2");
        assert_eq!(CLASS_LABELS[class_index(4, 4)], "b4k4");
        assert_eq!(CLASS_LABELS[GENERIC_SLOT], "generic");
        for (ci, label) in CLASS_LABELS.iter().enumerate() {
            assert!(
                CLASS_TRACE_NAMES[ci].ends_with(label),
                "trace name {} must end with label {label}",
                CLASS_TRACE_NAMES[ci]
            );
        }
    }
}
