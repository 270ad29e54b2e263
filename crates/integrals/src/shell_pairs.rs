//! Persistent shell-pair dataset: everything about a shell pair that does
//! not depend on its quartet partner and that a kernel reads, computed once
//! per (geometry, basis).
//!
//! The ERI engine historically rebuilt the Hermite `E` tables, Gaussian
//! product centers, exponent sums and prefactors of both the bra and the ket
//! pair inside every shell quartet — O(N^4) rebuilds of O(N^2) data. This
//! module hoists that work out of the quartet loop. [`ShellPairs::build`]
//! makes one [`ShellSide`] record per shell — its block layout, cartesian
//! normalizations, centre, exponents and contraction coefficients, GAMESS's
//! flat per-shell arrays — and shares it with every pair on that shell
//! through an `Arc`. It then walks the lower triangle of shell pairs once,
//! prunes primitive pairs whose Gaussian-product prefactor bound can never
//! survive screening, and stores for each pair
//!
//! * the surviving primitive pairs ([`PrimPair`]: the two primitive
//!   indices, exponent sum and product centre) and their
//!   structure-of-arrays copy ([`PrimSoA`], with the prefactors
//!   `K = exp(-mu |AB|^2)`) that the class kernels stream;
//! * the fused [`HermiteTable`]: per (primitive pair, Hermite index) the
//!   function pairs it feeds, each with one weight that multiplies the
//!   3-D `E` product, the coefficient product and both normalizations — what
//!   the class kernels contract against, so no quartet looks up a
//!   coefficient, a norm or an `E` value;
//! * the pair's Schwarz bound `sqrt(max (ij|ij))`, evaluated through the
//!   pair-cached path itself, so `Screening` construction reuses the
//!   diagonal pairs.
//!
//! The dense `E` tables and the coefficient products are not stored: the
//! table build makes them transiently, and the generic reference path
//! rebuilds them per quartet from the side records with the same arguments
//! (`PrimPair::e_tables`, `PrimPair::coef`), so both see the same bits.
//!
//! One `ShellPairs` is built per SCF run and shared read-only by every rank
//! and thread of every Fock algorithm (the struct is `Sync`); its footprint
//! is reported by [`ShellPairs::bytes`] and belongs to the *per-node* memory
//! budget, not the per-thread one.

use std::sync::Arc;

use crate::cart::{component_norm, components};
use crate::eri::EriEngine;
use crate::hermite::ETable;
use crate::screening::{n_pairs, pair_index};
use phi_chem::{BasisSet, Shell};

/// Primitive pairs whose prefactor bound `K * max|c_a c_b|` falls below this
/// are dropped at construction. Against the default quartet prefactor cutoff
/// (1e-18) and Schwarz thresholds down to 1e-12 the dropped contributions
/// are far below every accuracy target; set 0.0 (via
/// [`ShellPairs::build_with`]) to keep every primitive pair.
pub const DEFAULT_PAIR_CUTOFF: f64 = 1e-16;

/// One angular block of a shell, as seen by the pair dataset.
#[derive(Clone, Copy, Debug)]
pub struct SideBlock {
    /// Angular momentum of the block.
    pub l: usize,
    /// Function offset of the block within its shell.
    pub off: usize,
}

/// One shell as the pair dataset sees it, built once per shell and shared
/// by every pair on it.
#[derive(Clone, Debug)]
pub struct ShellSide {
    /// Shell index within the basis.
    pub shell: usize,
    /// Total functions of the shell.
    pub n_fn: usize,
    /// Maximum angular momentum over the shell's blocks.
    pub max_l: usize,
    pub blocks: Vec<SideBlock>,
    /// Per-function cartesian normalization factors.
    pub norms: Vec<f64>,
    pub(crate) center: [f64; 3],
    /// Primitive exponents, shared by every block.
    pub(crate) exps: Vec<f64>,
    /// Contraction coefficients, `[block][primitive]` (see
    /// [`ShellSide::coef`]).
    coefs: Vec<f64>,
}

impl ShellSide {
    pub(crate) fn new(index: usize, s: &Shell) -> ShellSide {
        let mut blocks = Vec::with_capacity(s.blocks.len());
        let mut norms = Vec::with_capacity(s.n_functions());
        let mut off = 0;
        for b in &s.blocks {
            let comps = components(b.l);
            blocks.push(SideBlock { l: b.l, off });
            norms.extend(comps.iter().map(|&c| component_norm(c)));
            off += comps.len();
        }
        ShellSide {
            shell: index,
            n_fn: off,
            max_l: s.max_l(),
            blocks,
            norms,
            center: s.center,
            exps: s.exps.clone(),
            coefs: s.blocks.iter().flat_map(|b| b.coefs.iter().copied()).collect(),
        }
    }

    /// One record per shell of `basis`, in shell order.
    pub(crate) fn all(basis: &BasisSet) -> Vec<Arc<ShellSide>> {
        basis.shells.iter().enumerate().map(|(i, s)| Arc::new(ShellSide::new(i, s))).collect()
    }

    /// Contraction coefficient of primitive `prim` in block `block`.
    #[inline]
    pub(crate) fn coef(&self, block: usize, prim: usize) -> f64 {
        self.coefs[block * self.exps.len() + prim]
    }

    /// Every function of this side in function order: its block index,
    /// cartesian powers and normalization (build-time helper for the
    /// Hermite table).
    fn functions(&self) -> Vec<(usize, (usize, usize, usize), f64)> {
        let powers = self
            .blocks
            .iter()
            .enumerate()
            .flat_map(|(bi, b)| components(b.l).iter().map(move |&c| (bi, c)));
        powers.zip(&self.norms).map(|((bi, c), &n)| (bi, c, n)).collect()
    }

    /// Bytes of this record behind its `Arc`: the two reference counts, the
    /// struct and its heap arrays.
    fn bytes(&self) -> usize {
        2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<ShellSide>()
            + self.blocks.len() * std::mem::size_of::<SideBlock>()
            + (self.norms.len() + self.exps.len() + self.coefs.len()) * std::mem::size_of::<f64>()
    }
}

/// Structure-of-arrays view of a pair's surviving primitive pairs: the
/// per-quartet prefactor/Boys-argument phase of the class kernels streams
/// these flat lanes (`p`, product center, `K`) instead of hopping across
/// [`PrimPair`] structs, which is what lets rustc vectorize it. An s–s pair
/// (one `l = 0` block per side) also carries its fused weights `w`, the
/// whole of what the ssss kernel needs from the pair beyond the lanes above.
#[derive(Clone, Debug, Default)]
pub struct PrimSoA {
    /// Exponent sums, one per surviving primitive pair.
    pub p: Vec<f64>,
    /// Product-center coordinates, one lane per axis.
    pub cx: Vec<f64>,
    pub cy: Vec<f64>,
    pub cz: Vec<f64>,
    /// Gaussian-product prefactors `K = exp(-mu |AB|^2)`.
    pub k: Vec<f64>,
    /// s–s pairs only (empty otherwise): the [`HermiteTable`] weight
    /// `E_000 ((c_a c_b) N_a) N_b` of each primitive pair's one entry, laid
    /// out densely; 0.0 where that entry is absent (a zero coefficient, or
    /// an `E_000` that underflowed).
    pub w: Vec<f64>,
}

impl PrimSoA {
    fn from_prims(prims: &[PrimPair], k: Vec<f64>) -> PrimSoA {
        PrimSoA {
            p: prims.iter().map(|pp| pp.p).collect(),
            cx: prims.iter().map(|pp| pp.center[0]).collect(),
            cy: prims.iter().map(|pp| pp.center[1]).collect(),
            cz: prims.iter().map(|pp| pp.center[2]).collect(),
            k,
            w: Vec::new(),
        }
    }

    fn heap_bytes(&self) -> usize {
        (self.p.len() + self.cx.len() + self.cy.len() + self.cz.len() + self.k.len() + self.w.len())
            * std::mem::size_of::<f64>()
    }
}

/// Hermite indices `(t, u, v)` with `t + u + v <= l`.
pub(crate) const fn simplex_len(l: usize) -> usize {
    (l + 1) * (l + 2) * (l + 3) / 6
}

/// Position of `(t, u, v)` in the lexicographic order of the `l` simplex
/// (`t` outer, then `u`, then `v`, each ascending).
#[inline]
pub(crate) fn simplex_index(l: usize, t: usize, u: usize, v: usize) -> usize {
    debug_assert!(t + u + v <= l, "({t},{u},{v}) is outside the {l} simplex");
    let m = l - t;
    simplex_len(l) - simplex_len(m) + u * (m + 1) - u * u.saturating_sub(1) / 2 + v
}

/// The fused Hermite table of one shell pair: for every surviving primitive
/// pair and every Hermite index `h = (t, u, v)` of the pair's `l_sum`
/// simplex (lexicographic: `t` outer, then `u`, then `v`), the function pairs
/// `fa * n_fn(b) + fb` that index feeds and their weights
/// `w = ((E_t E_u) E_v) ((c_ab N_a) N_b)`: the 3-D Hermite product, the
/// contraction-coefficient product and both cartesian normalizations,
/// multiplied once per pair build. Only nonzero weights are stored, each
/// function pair at most once per `(primitive pair, h)`, in function-pair
/// order.
///
/// The class kernels contract per Hermite index: stage 1 adds one gathered
/// `R` row times `w` into every `cd` column an index feeds, stage 2 adds
/// `w` times one `W` row into every `ab` output row. The generic path
/// rebuilds the dense [`ETable`]s and forms the same products in the same
/// association.
#[derive(Clone, Debug, Default)]
pub struct HermiteTable {
    /// Function-pair index `fa * n_fn(b) + fb` per entry.
    fab: Vec<u16>,
    /// Fused weight per entry.
    w: Vec<f64>,
    /// Entry ranges per `(primitive pair ip, h)`, flattened `ip * n_h + h`;
    /// length `n_prims * n_h + 1`.
    offsets: Vec<u32>,
    /// Hermite indices per primitive pair, `simplex_len(l_sum)`.
    n_h: usize,
}

impl HermiteTable {
    /// Enumerate each primitive pair's nonzero products in the generic
    /// path's order (function pairs, then `t`, `u`, `v`, with its
    /// per-direction zero tests), from `E` tables built for that primitive
    /// pair alone, then counting-sort them by `h`; the sort is stable, so
    /// each group keeps function-pair order.
    fn build(prims: &[PrimPair], a: &ShellSide, b: &ShellSide) -> HermiteTable {
        let l = a.max_l + b.max_l;
        let n_h = simplex_len(l);
        let (fns_a, fns_b) = (a.functions(), b.functions());
        debug_assert!(a.n_fn * b.n_fn <= usize::from(u16::MAX) + 1, "function pairs overflow u16");
        let mut offsets = Vec::with_capacity(prims.len() * n_h + 1);
        offsets.push(0u32);
        let (mut fab, mut w) = (Vec::new(), Vec::new());
        // One primitive pair's products in enumeration order, and per-h
        // counts turned into insertion cursors.
        let (mut hs, mut pf, mut pw) = (Vec::<u16>::new(), Vec::<u16>::new(), Vec::<f64>::new());
        let mut cursor = vec![0u32; n_h];
        for (ip, pp) in prims.iter().enumerate() {
            hs.clear();
            pf.clear();
            pw.clear();
            let [ex, ey, ez] = pp.e_tables(a, b);
            for (ia, &(ba, (ax, ay, az), na)) in fns_a.iter().enumerate() {
                for (ib, &(bb, (bx, by, bz), nb)) in fns_b.iter().enumerate() {
                    let cnn = pp.coef(a, b, ba, bb) * na * nb;
                    let f = (ia * b.n_fn + ib) as u16;
                    for t in 0..=(ax + bx) {
                        let etx = ex.get(ax, bx, t);
                        if etx == 0.0 {
                            continue;
                        }
                        for u in 0..=(ay + by) {
                            let ety = ey.get(ay, by, u);
                            if ety == 0.0 {
                                continue;
                            }
                            for v in 0..=(az + bz) {
                                let etz = ez.get(az, bz, v);
                                if etz == 0.0 {
                                    continue;
                                }
                                let we = etx * ety * etz * cnn;
                                if we == 0.0 {
                                    continue;
                                }
                                hs.push(simplex_index(l, t, u, v) as u16);
                                pf.push(f);
                                pw.push(we);
                            }
                        }
                    }
                }
            }
            cursor.fill(0);
            for &h in &hs {
                cursor[h as usize] += 1;
            }
            let mut end = w.len() as u32;
            for slot in cursor.iter_mut() {
                let n = *slot;
                *slot = end;
                end += n;
                offsets.push(end);
            }
            fab.resize(end as usize, 0);
            w.resize(end as usize, 0.0);
            for ((&h, &f), &we) in hs.iter().zip(&pf).zip(&pw) {
                let pos = cursor[h as usize] as usize;
                cursor[h as usize] += 1;
                fab[pos] = f;
                w[pos] = we;
            }
            debug_assert_eq!(w.len() - pw.len(), offsets[ip * n_h] as usize);
        }
        debug_assert_eq!(offsets.last().map(|&e| e as usize), Some(w.len()));
        HermiteTable { fab, w, offsets, n_h }
    }

    /// Hermite indices per primitive pair.
    #[inline]
    pub(crate) fn n_h(&self) -> usize {
        self.n_h
    }

    /// Primitive pair `ip`'s part of the table: `n_h + 1` group bounds (into
    /// the two entry slices, which are the whole table's) and the entries'
    /// function-pair indices and weights.
    #[inline]
    pub(crate) fn prim(&self, ip: usize) -> (&[u32], &[u16], &[f64]) {
        (&self.offsets[ip * self.n_h..=(ip + 1) * self.n_h], &self.fab, &self.w)
    }

    /// The entries of `(primitive pair ip, Hermite index h)`: function-pair
    /// indices and weights, in function-pair order.
    pub fn entries(&self, ip: usize, h: usize) -> (&[u16], &[f64]) {
        let slot = ip * self.n_h + h;
        let (lo, hi) = (self.offsets[slot] as usize, self.offsets[slot + 1] as usize);
        (&self.fab[lo..hi], &self.w[lo..hi])
    }

    fn heap_bytes(&self) -> usize {
        self.fab.len() * std::mem::size_of::<u16>()
            + self.w.len() * std::mem::size_of::<f64>()
            + self.offsets.len() * std::mem::size_of::<u32>()
    }
}

/// One surviving primitive pair: which primitives of the two shells it
/// joins, and its Gaussian-product data.
#[derive(Clone, Copy, Debug)]
pub struct PrimPair {
    /// Sum of the two exponents.
    pub p: f64,
    /// Product center.
    pub center: [f64; 3],
    /// Primitive index within side a.
    pub pa: u32,
    /// Primitive index within side b.
    pub pb: u32,
}

impl PrimPair {
    /// The dense `E` tables of this primitive pair along x, y and z, built
    /// from its two side records at the shells' maximum angular momenta
    /// (valid for every lower block). The Hermite table build and the
    /// generic path both call this, so they see the same bits.
    pub(crate) fn e_tables(&self, a: &ShellSide, b: &ShellSide) -> [ETable; 3] {
        let (aexp, bexp) = (a.exps[self.pa as usize], b.exps[self.pb as usize]);
        std::array::from_fn(|x| {
            ETable::build(a.max_l, b.max_l, aexp, bexp, a.center[x], b.center[x])
        })
    }

    /// Coefficient product `c_a[block ba][pa] * c_b[block bb][pb]`.
    #[inline]
    pub(crate) fn coef(&self, a: &ShellSide, b: &ShellSide, ba: usize, bb: usize) -> f64 {
        a.coef(ba, self.pa as usize) * b.coef(bb, self.pb as usize)
    }
}

/// All quartet-independent data of one shell pair `(i, j)`, `i >= j`.
#[derive(Clone, Debug)]
pub struct ShellPair {
    pub i: usize,
    pub j: usize,
    /// Side records of shells `i` and `j`, shared with every other pair on
    /// those shells.
    pub a: Arc<ShellSide>,
    pub b: Arc<ShellSide>,
    /// Surviving primitive pairs.
    pub prims: Vec<PrimPair>,
    /// Structure-of-arrays view of `prims` for the class kernels.
    pub soa: PrimSoA,
    /// Fused Hermite weights per (primitive pair, Hermite index).
    pub hermite: HermiteTable,
    /// Largest `|c_a c_b|` over surviving primitive and block pairs — the
    /// quartet-level prefactor-screening bound.
    pub max_coef: f64,
    /// `Q_ij = sqrt(max (ij|ij))`, set by [`ShellPairs::build_with`]; 0.0
    /// for pairs built standalone.
    pub schwarz: f64,
    /// `max_l(a) + max_l(b)`.
    pub l_sum: usize,
    /// `max |c_a c_b| K` over *all* primitive pairs, kept or pruned — the
    /// Schwarz stand-in for pairs whose every primitive pair was pruned.
    pub prefactor_bound: f64,
}

impl ShellPair {
    /// Visit every primitive pair `(pa, pb)` of sides `(a, b)` with its
    /// Gaussian-product prefactor `K = exp(-mu |AB|^2)` and its largest
    /// `|c_a c_b|` over block pairs; returns `max K max|c_a c_b|` over all of
    /// them, the pair's prefactor bound.
    fn scan_prims(
        a: &ShellSide,
        b: &ShellSide,
        mut visit: impl FnMut(usize, usize, f64, f64),
    ) -> f64 {
        let dx = a.center[0] - b.center[0];
        let dy = a.center[1] - b.center[1];
        let dz = a.center[2] - b.center[2];
        let r2 = dx * dx + dy * dy + dz * dz;
        let mut bound = 0.0f64;
        for (pa, &aexp) in a.exps.iter().enumerate() {
            for (pb, &bexp) in b.exps.iter().enumerate() {
                let k = (-aexp * bexp / (aexp + bexp) * r2).exp();
                let mut mc = 0.0f64;
                for ba in 0..a.blocks.len() {
                    for bb in 0..b.blocks.len() {
                        mc = mc.max((a.coef(ba, pa) * b.coef(bb, pb)).abs());
                    }
                }
                bound = bound.max(k * mc);
                visit(pa, pb, k, mc);
            }
        }
        bound
    }

    /// Cheap stand-in for `Q_ab` that needs no pair data: the Gaussian
    /// product prefactor `max |c_a c_b| exp(-mu |AB|^2)` over all primitive
    /// and block pairs. It decays with the exact Gaussian rate in the pair
    /// distance, so it decides which pairs are negligible
    /// ([`crate::Screening::compute_hybrid`]) and is the Schwarz value of a
    /// pair whose every primitive pair was pruned.
    pub(crate) fn prefactor_bound(a: &ShellSide, b: &ShellSide) -> f64 {
        ShellPair::scan_prims(a, b, |_, _, _, _| {})
    }

    /// Build the pair data for shells `sa` (side a, basis index `i`) and
    /// `sb` (side b, basis index `j`), with side records of its own.
    /// Primitive pairs with `K * max|c_a c_b| < pair_cutoff` are dropped.
    pub fn build(i: usize, j: usize, sa: &Shell, sb: &Shell, pair_cutoff: f64) -> ShellPair {
        let (a, b) = (ShellSide::new(i, sa), ShellSide::new(j, sb));
        ShellPair::from_sides(Arc::new(a), Arc::new(b), pair_cutoff)
    }

    /// Build the pair data over two shared side records.
    pub(crate) fn from_sides(a: Arc<ShellSide>, b: Arc<ShellSide>, pair_cutoff: f64) -> ShellPair {
        let mut prims = Vec::with_capacity(a.exps.len() * b.exps.len());
        let mut ks = Vec::with_capacity(prims.capacity());
        let mut max_coef = 0.0f64;
        let prefactor_bound = ShellPair::scan_prims(&a, &b, |pa, pb, k, mc| {
            if k * mc < pair_cutoff {
                return;
            }
            let (aexp, bexp) = (a.exps[pa], b.exps[pb]);
            let p = aexp + bexp;
            max_coef = max_coef.max(mc);
            ks.push(k);
            prims.push(PrimPair {
                p,
                center: std::array::from_fn(|x| (aexp * a.center[x] + bexp * b.center[x]) / p),
                pa: pa as u32,
                pb: pb as u32,
            });
        });
        let mut soa = PrimSoA::from_prims(&prims, ks);
        let hermite = HermiteTable::build(&prims, &a, &b);
        if a.n_fn == 1 && b.n_fn == 1 {
            soa.w = (0..prims.len())
                .map(|ip| hermite.entries(ip, 0).1.first().copied().unwrap_or(0.0))
                .collect();
        }
        ShellPair {
            i: a.shell,
            j: b.shell,
            l_sum: a.max_l + b.max_l,
            a,
            b,
            prims,
            soa,
            hermite,
            max_coef,
            schwarz: 0.0,
            prefactor_bound,
        }
    }

    /// `Q_ab = sqrt(max |(ab|ab)|)` from the diagonal quartet of this pair
    /// with itself — the one Schwarz evaluator, behind both
    /// [`ShellPairs::build_with`] and the pair-free
    /// [`crate::Screening::compute_hybrid`]. A pair whose every primitive
    /// pair was pruned gets its (tiny) prefactor bound instead. `buf` is
    /// scratch.
    pub(crate) fn schwarz_bound(&self, engine: &mut EriEngine, buf: &mut Vec<f64>) -> f64 {
        if self.prims.is_empty() {
            return self.prefactor_bound;
        }
        let (na, nb) = (self.a.n_fn, self.b.n_fn);
        buf.resize(na * nb * na * nb, 0.0);
        engine.shell_quartet_pairs(self, self, buf);
        let mut m = 0.0f64;
        for fa in 0..na {
            for fb in 0..nb {
                m = m.max(buf[((fa * nb + fb) * na + fa) * nb + fb].abs());
            }
        }
        m.sqrt()
    }

    /// Number of function pairs `n_fn(a) * n_fn(b)` — a quartet buffer over
    /// two pairs holds `bra.n_fn() * ket.n_fn()` values.
    #[inline]
    pub fn n_fn(&self) -> usize {
        self.a.n_fn * self.b.n_fn
    }

    /// Bytes held by this pair alone: its struct and heap arrays. Its two
    /// side records are shared, and [`ShellPairs::bytes`] counts each once.
    fn bytes(&self) -> usize {
        std::mem::size_of::<ShellPair>()
            + self.prims.len() * std::mem::size_of::<PrimPair>()
            + self.soa.heap_bytes()
            + self.hermite.heap_bytes()
    }
}

/// The persistent dataset: one [`ShellPair`] per lower-triangular shell pair
/// of a basis, plus its total memory footprint.
pub struct ShellPairs {
    n_shells: usize,
    pairs: Vec<ShellPair>,
    bytes: usize,
}

impl ShellPairs {
    /// Build the full dataset with the default primitive-pair cutoff.
    pub fn build(basis: &BasisSet) -> ShellPairs {
        ShellPairs::build_with(basis, DEFAULT_PAIR_CUTOFF)
    }

    /// Build the full dataset; `pair_cutoff = 0.0` keeps every primitive
    /// pair (bitwise-reference mode).
    pub fn build_with(basis: &BasisSet, pair_cutoff: f64) -> ShellPairs {
        let n = basis.n_shells();
        let sides = ShellSide::all(basis);
        let mut pairs = Vec::with_capacity(n_pairs(n));
        for i in 0..n {
            for j in 0..=i {
                let (a, b) = (Arc::clone(&sides[i]), Arc::clone(&sides[j]));
                pairs.push(ShellPair::from_sides(a, b, pair_cutoff));
            }
        }
        let mut engine = EriEngine::new();
        let mut buf: Vec<f64> = Vec::new();
        for pr in &mut pairs {
            pr.schwarz = pr.schwarz_bound(&mut engine, &mut buf);
        }
        let bytes = pairs.iter().map(ShellPair::bytes).sum::<usize>()
            + sides.iter().map(|s| s.bytes()).sum::<usize>();
        ShellPairs { n_shells: n, pairs, bytes }
    }

    pub fn n_shells(&self) -> usize {
        self.n_shells
    }

    /// The pair `(i, j)`; requires `i >= j` (the stored orientation).
    #[inline]
    pub fn pair(&self, i: usize, j: usize) -> &ShellPair {
        assert!(i >= j, "shell pairs are stored lower-triangular (i >= j), got ({i}, {j})");
        &self.pairs[pair_index(i, j)]
    }

    /// All pairs in canonical triangular order.
    pub fn iter(&self) -> impl Iterator<Item = &ShellPair> {
        self.pairs.iter()
    }

    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Total footprint of the dataset: every pair's struct and arrays, and
    /// every shell's side record once. The dataset is built once per SCF
    /// run and shared read-only across threads and (in-process) ranks, so
    /// this charges the per-node memory budget once per rank at most.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::basis::{BasisName, BasisSet};
    use phi_chem::geom::small;

    fn c_ring_basis() -> BasisSet {
        BasisSet::build(&small::c_ring(6, 1.39), BasisName::B631gd)
    }

    #[test]
    fn dataset_is_sync_and_shared() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<ShellPairs>();
    }

    #[test]
    fn pair_metadata_matches_shells() {
        let basis = c_ring_basis();
        let pairs = ShellPairs::build(&basis);
        assert_eq!(pairs.len(), n_pairs(basis.n_shells()));
        for i in 0..basis.n_shells() {
            for j in 0..=i {
                let pr = pairs.pair(i, j);
                assert_eq!(pr.i, i);
                assert_eq!(pr.j, j);
                assert_eq!(pr.a.n_fn, basis.shells[i].n_functions());
                assert_eq!(pr.b.n_fn, basis.shells[j].n_functions());
                assert_eq!(pr.l_sum, basis.shells[i].max_l() + basis.shells[j].max_l());
            }
        }
    }

    #[test]
    fn norms_fold_component_normalization() {
        let basis = c_ring_basis();
        let pairs = ShellPairs::build(&basis);
        // The d shell (index 3 on the first atom) has 6 cartesian components
        // with two distinct norm values (xx-type vs xy-type).
        let pr = pairs.pair(3, 3);
        assert_eq!(pr.a.norms.len(), 6);
        let distinct: Vec<f64> = {
            let mut v = pr.a.norms.clone();
            v.sort_by(|x, y| x.partial_cmp(y).unwrap());
            v.dedup_by(|x, y| (*x - *y).abs() < 1e-12);
            v
        };
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn pruning_drops_primitive_pairs_for_distant_shells() {
        // Two far-apart hydrogen atoms: the cross pair's K prefactors are
        // astronomically small, so every primitive pair must be pruned while
        // the diagonal pairs keep all of theirs.
        let mol = small::h_chain(2, 40.0);
        let basis = BasisSet::build(&mol, BasisName::Sto3g);
        let pairs = ShellPairs::build(&basis);
        assert!(!pairs.pair(0, 0).prims.is_empty());
        assert!(!pairs.pair(1, 1).prims.is_empty());
        assert!(pairs.pair(1, 0).prims.is_empty());
        // The empty pair still carries a conservative Schwarz stand-in.
        assert!(pairs.pair(1, 0).schwarz >= 0.0);
        assert!(pairs.pair(1, 0).schwarz < 1e-16);
    }

    #[test]
    fn cutoff_zero_keeps_every_primitive_pair() {
        let basis = c_ring_basis();
        let all = ShellPairs::build_with(&basis, 0.0);
        for i in 0..basis.n_shells() {
            for j in 0..=i {
                let want = basis.shells[i].exps.len() * basis.shells[j].exps.len();
                assert_eq!(all.pair(i, j).prims.len(), want);
            }
        }
    }

    #[test]
    fn max_coef_equals_product_of_shell_maxima() {
        // With no pruning, max_coef must equal the product of each shell's
        // largest |coefficient| — the bound the engine's prefactor screen
        // historically used.
        let basis = c_ring_basis();
        let pairs = ShellPairs::build_with(&basis, 0.0);
        let shell_max = |s: &phi_chem::Shell| -> f64 {
            s.blocks.iter().flat_map(|b| b.coefs.iter()).fold(0.0f64, |m, c| m.max(c.abs()))
        };
        for i in 0..basis.n_shells() {
            for j in 0..=i {
                let want = shell_max(&basis.shells[i]) * shell_max(&basis.shells[j]);
                let got = pairs.pair(i, j).max_coef;
                assert!((got - want).abs() < 1e-15 * want.max(1.0), "({i},{j}): {got} vs {want}");
            }
        }
    }

    /// The fused table, rebuilt from dense `E` tables made here from the two
    /// shells with [`ETable::build`], in another order: Hermite index outer,
    /// function pairs inner. Every group must hold exactly the nonzero
    /// `((E_t E_u) E_v) ((c N_a) N_b)` products, to the bit, each function
    /// pair once and in function-pair order; an s–s pair's `PrimSoA::w` must
    /// be its `h = 0` weight, or 0.0 where that group is empty.
    fn assert_table_matches_dense_e(pr: &ShellPair, sa: &Shell, sb: &Shell) {
        let l = pr.l_sum;
        let shell_fns = |s: &Shell| -> Vec<(usize, (usize, usize, usize))> {
            let mut fns = Vec::new();
            for (bi, blk) in s.blocks.iter().enumerate() {
                fns.extend(components(blk.l).iter().map(|&c| (bi, c)));
            }
            fns
        };
        let (fns_a, fns_b) = (shell_fns(sa), shell_fns(sb));
        assert_eq!(pr.hermite.n_h(), simplex_len(l));
        for (ip, pp) in pr.prims.iter().enumerate() {
            let (pa, pb) = (pp.pa as usize, pp.pb as usize);
            let (ea, eb) = (sa.exps[pa], sb.exps[pb]);
            let [ex, ey, ez] = [0, 1, 2]
                .map(|x| ETable::build(sa.max_l(), sb.max_l(), ea, eb, sa.center[x], sb.center[x]));
            let mut h = 0;
            for t in 0..=l {
                for u in 0..=(l - t) {
                    for v in 0..=(l - t - u) {
                        assert_eq!(simplex_index(l, t, u, v), h);
                        let mut want: Vec<(u16, u64)> = Vec::new();
                        for (fa, &(ba, (ax, ay, az))) in fns_a.iter().enumerate() {
                            for (fb, &(bb, (bx, by, bz))) in fns_b.iter().enumerate() {
                                let e = ex.get(ax, bx, t) * ey.get(ay, by, u) * ez.get(az, bz, v);
                                let c = sa.blocks[ba].coefs[pa] * sb.blocks[bb].coefs[pb];
                                let w = e * (c * pr.a.norms[fa] * pr.b.norms[fb]);
                                if w != 0.0 {
                                    want.push(((fa * pr.b.n_fn + fb) as u16, w.to_bits()));
                                }
                            }
                        }
                        let (fab, w) = pr.hermite.entries(ip, h);
                        let got: Vec<(u16, u64)> =
                            fab.iter().zip(w).map(|(&f, x)| (f, x.to_bits())).collect();
                        assert_eq!(
                            got, want,
                            "pair ({}, {}), prim {ip}, h ({t},{u},{v})",
                            pr.i, pr.j
                        );
                        h += 1;
                    }
                }
            }
        }
        if pr.a.n_fn == 1 && pr.b.n_fn == 1 {
            for ip in 0..pr.prims.len() {
                let want = pr.hermite.entries(ip, 0).1.first().copied().unwrap_or(0.0);
                assert_eq!(pr.soa.w[ip].to_bits(), want.to_bits());
            }
        } else {
            assert!(pr.soa.w.is_empty());
        }
    }

    #[test]
    fn hermite_table_holds_the_dense_e_products() {
        let basis = BasisSet::build(&small::water(), BasisName::B631gd);
        let pairs = ShellPairs::build(&basis);
        for pr in pairs.iter() {
            assert_table_matches_dense_e(pr, &basis.shells[pr.i], &basis.shells[pr.j]);
        }
        // A (d,d) pair of contraction depth 2 x 3 on two centres, where odd
        // Hermite indices are nonzero and groups hold several primitives.
        let d_shell = |center, exps: Vec<f64>, coefs| Shell {
            center,
            exps,
            blocks: vec![phi_chem::basis::AngBlock { l: 2, coefs }],
            first_bf: 0,
        };
        let da = d_shell([0.0, 0.3, -0.2], vec![1.9, 0.45], vec![0.6, 0.5]);
        let db = d_shell([0.7, -0.4, 0.9], vec![2.6, 0.8, 0.2], vec![0.3, -0.7, 0.4]);
        let pr = ShellPair::build(1, 0, &da, &db, 0.0);
        assert_eq!((pr.prims.len(), pr.l_sum), (6, 4));
        assert_table_matches_dense_e(&pr, &da, &db);
    }

    #[test]
    fn pairs_share_one_side_record_per_shell() {
        let basis = c_ring_basis();
        let pairs = ShellPairs::build(&basis);
        let n = basis.n_shells();
        for i in 0..n {
            let side = &pairs.pair(i, i).a;
            for k in 0..n {
                let pr = if i >= k { pairs.pair(i, k) } else { pairs.pair(k, i) };
                let other = if i >= k { &pr.a } else { &pr.b };
                assert!(Arc::ptr_eq(side, other), "shells ({i}, {k}) hold their own copy of {i}");
            }
            // One reference per side of a pair on shell `i`: `n` pairs, the
            // diagonal one holding it twice, and no other copy.
            assert_eq!(Arc::strong_count(side), n + 1);
        }
        // Each record is counted once, not once per pair that holds it.
        let in_pairs: usize = pairs.iter().map(ShellPair::bytes).sum();
        let sides: usize = (0..n).map(|i| pairs.pair(i, i).a.bytes()).sum();
        assert_eq!(pairs.bytes(), in_pairs + sides);
    }

    #[test]
    fn h28_dataset_holds_what_the_kernels_read() {
        // 1 541 570 B when every pair also stored its dense E tables, its
        // coefficient products and copies of both shells' records.
        let basis = BasisSet::build(&small::h_chain(28, 1.8), BasisName::B631g);
        let bytes = ShellPairs::build(&basis).bytes();
        assert!(bytes * 10 <= 1_541_570 * 6, "{bytes} B");
    }

    #[test]
    fn bytes_accounting_is_plausible() {
        let basis = c_ring_basis();
        let pairs = ShellPairs::build(&basis);
        // Must at least cover what the class kernels read, the SoA lanes and
        // the fused tables, and stay within a small multiple of it.
        let payload: usize =
            pairs.iter().map(|p| p.soa.heap_bytes() + p.hermite.heap_bytes()).sum();
        assert!(pairs.bytes() > payload);
        assert!(pairs.bytes() < 2 * payload, "{} B against {payload} B", pairs.bytes());
    }
}
