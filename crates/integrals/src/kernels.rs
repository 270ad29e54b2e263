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
//! generic recursion through the same [`EriKernel`] trait.
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
//!    `rints::fill_r0_into`), the Hermite `E` triple products come
//!    replayed from the pair datasets' precomputed sparse [`E3Sparse`]
//!    entries instead of walking dense tables, and the stage-1 inner loops
//!    run unit-stride over a simplex-packed `W` scratch so rustc
//!    autovectorizes them. Phase 1 emits survivors bra-primitive-pair
//!    major, so each bra primitive pair's survivors form one run: stage 1
//!    (the ket contraction) sums every survivor of the run into one `W`,
//!    and stage 2 (the bra expansion, linear in `W`) runs once per run
//!    instead of once per primitive quartet — McMurchie–Davidson's early
//!    contraction over the ket primitives.
//!
//! **Parity contract.** A specialized kernel performs the generic path's
//! arithmetic: the same screening test, the same operation order in every
//! prefactor and scale factor, Boys values from the same scalar evaluator,
//! the `R` recursion through the shared `fill_r0_into` core, and `E`
//! products stored in generic iteration order with the parity sign applied
//! as an exact IEEE negation. The one difference is where the ket
//! primitives are summed: the generic path adds every primitive quartet's
//! bra expansion into the output, the kernels add the ket primitives' `W`
//! first and expand once. Where each bra primitive pair has one surviving
//! ket primitive pair (single-primitive shells) the two agree to the last
//! bit (up to the sign of exact zeros); elsewhere the reassociated sum
//! agrees within `tests/kernel_parity.rs`'s `<= 1e-14` per integral, which
//! that file enforces across seeded random geometries, exponents,
//! contraction depths and degenerate configurations. The ssss kernel is the
//! exception to the first half: it multiplies each pair's coefficient,
//! normalization and `E_000` once, in the pair dataset, so its products are
//! reassociated at any depth and it is held to the `1e-14` alone. Its
//! prefactor screen is still the generic path's, bit for bit, so both paths
//! compute the same primitive quartets.
//!
//! [`PrimSoA`]: crate::shell_pairs::PrimSoA
//! [`E3Sparse`]: crate::shell_pairs::E3Sparse

use crate::boys::{boys_batch, boys_f0};
use crate::eri::GenericKernel;
use crate::rints::fill_r0_into;
use crate::shell_pairs::ShellPair;

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

/// What one kernel invocation did (surfaced into engine/Fock statistics).
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelRun {
    /// Primitive quartets that survived screening and were computed.
    pub prim_quartets: u64,
}

/// The common contract of the generic path and the specialized kernels:
/// evaluate one contracted shell quartet from precomputed pair data into a
/// pre-zeroed `out` buffer of length `bra.n_fn() * ket.n_fn()`.
pub trait EriKernel {
    fn eval(
        &mut self,
        bra: &ShellPair,
        ket: &ShellPair,
        prefactor_cutoff: f64,
        out: &mut [f64],
    ) -> KernelRun;
}

/// Thread-private scratch of the specialized kernels: survivor lanes
/// (structure-of-arrays, one value per surviving primitive quartet), the
/// batched Boys stripes, the two `R`-recursion rolling buffers and the
/// contraction intermediates. All buffers grow to a high-water mark and are
/// reused; no per-quartet allocation.
#[derive(Default)]
pub struct KernelScratch {
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
    /// Stage-1 intermediate `W[simplex_tuv * ncd + cd]` (simplex-packed),
    /// summed over one bra primitive pair's surviving ket primitives.
    w: Vec<f64>,
    /// Per-(cd function pair) unit-stride staging row of stage 1.
    wtmp: Vec<f64>,
    /// Stage-2 per-bra-function-pair accumulator.
    acc: Vec<f64>,
}

/// One monomorphized class kernel: `LB`/`LK` are the combined bra/ket
/// angular momenta, so every loop bound below is a compile-time constant.
/// Returns the number of primitive quartets computed.
///
/// Parity notes are inline at each stage; the scheme and operation order
/// mirror `GenericKernel::eval` except for the sum over ket primitives,
/// which is taken in `W` before the bra expansion (see the module doc).
fn eval_spec<const LB: usize, const LK: usize>(
    s: &mut KernelScratch,
    bra: &ShellPair,
    ket: &ShellPair,
    prefactor_cutoff: f64,
    out: &mut [f64],
) -> u64 {
    let l_total = LB + LK;
    let rdim = l_total + 1;
    let ntuv = (LB + 1) * (LB + 2) * (LB + 3) / 6;

    // Row offsets of the simplex-packed W index:
    // sidx(t,u,v) = offs[t*(LB+1) + u] + v, for t+u+v <= LB.
    let mut offs = [0u16; (SPEC_LMAX + 1) * (SPEC_LMAX + 1)];
    {
        let mut a = 0u16;
        for t in 0..=LB {
            for u in 0..=(LB - t) {
                offs[t * (LB + 1) + u] = a;
                a += (LB - t - u + 1) as u16;
            }
        }
    }

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
    // per run. Both stages have const bounds.
    let (nfa, nfb, nfc, nfd) = (bra.a.n_fn, bra.b.n_fn, ket.a.n_fn, ket.b.n_fn);
    let ncd = nfc * nfd;
    if s.w.len() < ntuv * ncd {
        s.w.resize(ntuv * ncd, 0.0);
    }
    if s.wtmp.len() < ntuv {
        s.wtmp.resize(ntuv, 0.0);
    }
    if s.acc.len() < ncd {
        s.acc.resize(ncd, 0.0);
    }

    let mut q0 = 0;
    for run in s.ip_ab[..nsurv].chunk_by(|x, y| x == y) {
        let w = &mut s.w[..ntuv * ncd];
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
            let ip_cd = s.ip_cd[qi] as usize;

            // Stage 1: ket contraction into W[sidx * ncd + cdi]. Per cd
            // function pair the precomputed sparse E entries are replayed in
            // generic iteration order into a unit-stride staging row, then
            // stored into the cd column by the run's first survivor and added
            // by the rest (the store spares one-survivor runs a read of W).
            // W is linear in the ket primitives, so the run's survivors sum
            // into one W before the bra expansion.
            for fc in 0..nfc {
                let bci = ket.a.fn_block[fc] as usize;
                let norm_c = ket.a.norms[fc];
                for fd in 0..nfd {
                    let cdi = fc * nfd + fd;
                    let wcd = ket.coef(ip_cd, bci, ket.b.fn_block[fd] as usize);
                    let scale_ket = base * wcd;
                    if scale_ket == 0.0 {
                        continue;
                    }
                    let scale_cd = scale_ket * norm_c * ket.b.norms[fd];
                    let (tuvs, vals) = ket.e3.entries(ip_cd, fc, fd);
                    let wtmp = &mut s.wtmp[..ntuv];
                    wtmp.iter_mut().for_each(|x| *x = 0.0);
                    for (ei, tuv) in tuvs.iter().enumerate() {
                        let (tau, nu, phi) = (tuv[0] as usize, tuv[1] as usize, tuv[2] as usize);
                        // Generic: (((sign*etx)*ety)*etz)*scale_cd. Negation
                        // is exact, so sign-after-product is bitwise identical.
                        let v0 = vals[ei] * scale_cd;
                        let e_ket = if (tau + nu + phi) % 2 == 1 { -v0 } else { v0 };
                        for t in 0..=LB {
                            let rt = (t + tau) * rdim;
                            for u in 0..=(LB - t) {
                                let row = offs[t * (LB + 1) + u] as usize;
                                let rbase = (rt + u + nu) * rdim + phi;
                                for v in 0..=(LB - t - u) {
                                    wtmp[row + v] += e_ket * r[rbase + v];
                                }
                            }
                        }
                    }
                    if qi == q0 {
                        for (sidx, &wv) in wtmp.iter().enumerate() {
                            w[sidx * ncd + cdi] = wv;
                        }
                    } else {
                        for (sidx, &wv) in wtmp.iter().enumerate() {
                            w[sidx * ncd + cdi] += wv;
                        }
                    }
                }
            }
        }
        q0 += run.len();

        // Stage 2: bra expansion, once per bra primitive pair. Per bra
        // function pair, replay the sparse bra E entries (entry order =
        // generic order) against the packed W rows; the inner cd loop is
        // unit-stride, as in the generic path.
        let w = &s.w[..ntuv * ncd];
        let ip_ab = run[0] as usize;
        for fa in 0..nfa {
            let bai = bra.a.fn_block[fa] as usize;
            let norm_a = bra.a.norms[fa];
            for fb in 0..nfb {
                let wab = bra.coef(ip_ab, bai, bra.b.fn_block[fb] as usize);
                if wab == 0.0 {
                    continue;
                }
                let wab_full = wab * norm_a * bra.b.norms[fb];
                let acc = &mut s.acc[..ncd];
                acc.iter_mut().for_each(|x| *x = 0.0);
                let (tuvs, vals) = bra.e3.entries(ip_ab, fa, fb);
                for (ei, tuv) in tuvs.iter().enumerate() {
                    let (t, u, v) = (tuv[0] as usize, tuv[1] as usize, tuv[2] as usize);
                    let sidx = offs[t * (LB + 1) + u] as usize + v;
                    let e_bra = vals[ei];
                    let row = &w[sidx * ncd..sidx * ncd + ncd];
                    for (a, rv) in acc.iter_mut().zip(row) {
                        *a += e_bra * rv;
                    }
                }
                let obase = (fa * nfb + fb) * ncd;
                let orow = &mut out[obase..obase + ncd];
                for (o, a) in orow.iter_mut().zip(acc.iter()) {
                    *o += wab_full * *a;
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
/// then adds that sum times `w_bra` into `out[0]`. Returns the number of
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
    let mut sum = out[0];
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

/// Dispatch a specialized class slot to its kernel: the straight-line
/// ssss kernel for slot 0, a monomorphized `eval_spec` instance for the
/// rest. `ci` must be a specialized slot (`< N_SPEC`).
fn eval_spec_dispatch(
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
        _ => unreachable!("eval_spec_dispatch called with generic slot {ci}"),
    }
}

/// The full kernel set: the 25 class kernels plus the generic
/// fallback, behind one [`EriKernel`] face. This is what [`crate::eri::EriEngine`]
/// owns; the engine's `use_kernels` toggle routes everything through the
/// fallback for differential testing and ablation.
#[derive(Default)]
pub struct ClassKernels {
    scratch: KernelScratch,
    /// The generic-path fallback (also the differential-testing reference).
    pub generic: GenericKernel,
}

impl ClassKernels {
    pub fn new() -> ClassKernels {
        ClassKernels::default()
    }

    /// Evaluate one quartet, choosing a specialized kernel when
    /// `use_spec` is set and the class has one. Returns the class slot
    /// actually used (for per-class accounting) and the run statistics.
    pub fn eval_classed(
        &mut self,
        use_spec: bool,
        bra: &ShellPair,
        ket: &ShellPair,
        prefactor_cutoff: f64,
        out: &mut [f64],
    ) -> (usize, KernelRun) {
        let ci = class_index(bra.l_sum, ket.l_sum);
        if use_spec && ci != GENERIC_SLOT {
            let n = eval_spec_dispatch(ci, &mut self.scratch, bra, ket, prefactor_cutoff, out);
            (ci, KernelRun { prim_quartets: n })
        } else {
            (GENERIC_SLOT, self.generic.eval(bra, ket, prefactor_cutoff, out))
        }
    }
}

impl EriKernel for ClassKernels {
    fn eval(
        &mut self,
        bra: &ShellPair,
        ket: &ShellPair,
        prefactor_cutoff: f64,
        out: &mut [f64],
    ) -> KernelRun {
        self.eval_classed(true, bra, ket, prefactor_cutoff, out).1
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
