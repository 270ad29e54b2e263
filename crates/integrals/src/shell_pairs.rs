//! Persistent shell-pair dataset: everything about a shell pair that does
//! not depend on its quartet partner, computed once per (geometry, basis).
//!
//! The ERI engine historically rebuilt the Hermite `E` tables, Gaussian
//! product centers, exponent sums and prefactors of both the bra and the ket
//! pair inside every shell quartet — O(N^4) rebuilds of O(N^2) data. This
//! module hoists that work out of the quartet loop: [`ShellPairs::build`]
//! walks the lower triangle of shell pairs once, prunes primitive pairs
//! whose Gaussian-product prefactor bound can never survive screening, and
//! stores for each pair
//!
//! * the surviving primitive pairs with their `E` tables (built at the
//!   shells' maximum angular momenta, valid for every lower block), product
//!   centers, exponent sums and prefactors `K = exp(-mu |AB|^2)`;
//! * the contraction-coefficient products per (primitive pair, block pair);
//! * per-function cartesian normalization factors, so the engine folds
//!   normalization into the contraction instead of a per-quartet post-pass;
//! * the fused [`HermiteTable`]: per (primitive pair, Hermite index) the
//!   function pairs it feeds, each with one weight that multiplies the
//!   3-D `E` product, the coefficient product and both normalizations — what
//!   the class kernels contract against, so no quartet looks up a
//!   coefficient, a norm or an `E` value;
//! * angular-block function offsets (the engine's output indexing);
//! * the pair's Schwarz bound `sqrt(max (ij|ij))`, evaluated through the
//!   pair-cached path itself, so `Screening` construction reuses the
//!   diagonal pairs.
//!
//! One `ShellPairs` is built per SCF run and shared read-only by every rank
//! and thread of every Fock algorithm (the struct is `Sync`); its footprint
//! is reported by [`ShellPairs::bytes`] and belongs to the *per-node* memory
//! budget, not the per-thread one.

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
    /// Number of cartesian components (`(l+1)(l+2)/2`).
    pub n_comp: usize,
}

/// Per-shell metadata of one side of a pair.
#[derive(Clone, Debug)]
pub struct PairSide {
    /// Shell index within the basis.
    pub shell: usize,
    /// Total functions of the shell.
    pub n_fn: usize,
    /// Maximum angular momentum over the shell's blocks.
    pub max_l: usize,
    pub blocks: Vec<SideBlock>,
    /// Per-function cartesian normalization factors.
    pub norms: Vec<f64>,
}

impl PairSide {
    fn new(index: usize, s: &Shell) -> PairSide {
        let mut blocks = Vec::with_capacity(s.blocks.len());
        let mut norms = Vec::with_capacity(s.n_functions());
        let mut off = 0;
        for b in &s.blocks {
            let comps = components(b.l);
            blocks.push(SideBlock { l: b.l, off, n_comp: comps.len() });
            norms.extend(comps.iter().map(|&c| component_norm(c)));
            off += comps.len();
        }
        PairSide { shell: index, n_fn: off, max_l: s.max_l(), blocks, norms }
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

    fn heap_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<SideBlock>()
            + self.norms.len() * std::mem::size_of::<f64>()
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
    fn from_prims(prims: &[PrimPair]) -> PrimSoA {
        PrimSoA {
            p: prims.iter().map(|pp| pp.p).collect(),
            cx: prims.iter().map(|pp| pp.center[0]).collect(),
            cy: prims.iter().map(|pp| pp.center[1]).collect(),
            cz: prims.iter().map(|pp| pp.center[2]).collect(),
            k: prims.iter().map(|pp| pp.k).collect(),
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
/// `w` times one `W` row into every `ab` output row. The generic path walks
/// the dense [`ETable`]s and forms the same products in the same
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
    /// per-direction zero tests), then counting-sort them by `h`; the sort is
    /// stable, so each group keeps function-pair order.
    fn build(prims: &[PrimPair], coef: &[f64], a: &PairSide, b: &PairSide) -> HermiteTable {
        let l = a.max_l + b.max_l;
        let n_h = simplex_len(l);
        let (fns_a, fns_b) = (a.functions(), b.functions());
        let (nblk_b, nblk) = (b.blocks.len(), a.blocks.len() * b.blocks.len());
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
            let c = &coef[ip * nblk..(ip + 1) * nblk];
            for (ia, &(ba, (ax, ay, az), na)) in fns_a.iter().enumerate() {
                for (ib, &(bb, (bx, by, bz), nb)) in fns_b.iter().enumerate() {
                    let cnn = c[ba * nblk_b + bb] * na * nb;
                    let f = (ia * b.n_fn + ib) as u16;
                    for t in 0..=(ax + bx) {
                        let etx = pp.ex.get(ax, bx, t);
                        if etx == 0.0 {
                            continue;
                        }
                        for u in 0..=(ay + by) {
                            let ety = pp.ey.get(ay, by, u);
                            if ety == 0.0 {
                                continue;
                            }
                            for v in 0..=(az + bz) {
                                let etz = pp.ez.get(az, bz, v);
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

/// Hermite tables and Gaussian-product data for one surviving primitive
/// pair.
#[derive(Clone, Debug)]
pub struct PrimPair {
    pub ex: ETable,
    pub ey: ETable,
    pub ez: ETable,
    /// Sum of the two exponents.
    pub p: f64,
    /// Product center.
    pub center: [f64; 3],
    /// Gaussian-product prefactor `exp(-mu |AB|^2)`.
    pub k: f64,
}

/// All quartet-independent data of one shell pair `(i, j)`, `i >= j`.
#[derive(Clone, Debug)]
pub struct ShellPair {
    pub i: usize,
    pub j: usize,
    pub a: PairSide,
    pub b: PairSide,
    /// Surviving primitive pairs.
    pub prims: Vec<PrimPair>,
    /// Structure-of-arrays view of `prims` for the class kernels.
    pub soa: PrimSoA,
    /// Fused Hermite weights per (primitive pair, Hermite index).
    pub hermite: HermiteTable,
    /// Coefficient products, laid out `[prim][block_a][block_b]`
    /// (see [`ShellPair::coef`]).
    coef: Vec<f64>,
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
    /// Visit every primitive pair `(pa, pb)` of shells `(sa, sb)` with its
    /// Gaussian-product prefactor `K = exp(-mu |AB|^2)` and its largest
    /// `|c_a c_b|` over block pairs; returns `max K max|c_a c_b|` over all of
    /// them, the pair's prefactor bound.
    fn scan_prims(sa: &Shell, sb: &Shell, mut visit: impl FnMut(usize, usize, f64, f64)) -> f64 {
        let dx = sa.center[0] - sb.center[0];
        let dy = sa.center[1] - sb.center[1];
        let dz = sa.center[2] - sb.center[2];
        let r2 = dx * dx + dy * dy + dz * dz;
        let mut bound = 0.0f64;
        for (pa, &aexp) in sa.exps.iter().enumerate() {
            for (pb, &bexp) in sb.exps.iter().enumerate() {
                let k = (-aexp * bexp / (aexp + bexp) * r2).exp();
                let mut mc = 0.0f64;
                for ba in &sa.blocks {
                    for bb in &sb.blocks {
                        mc = mc.max((ba.coefs[pa] * bb.coefs[pb]).abs());
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
    pub(crate) fn prefactor_bound(sa: &Shell, sb: &Shell) -> f64 {
        ShellPair::scan_prims(sa, sb, |_, _, _, _| {})
    }

    /// Build the pair data for shells `sa` (side a, basis index `i`) and
    /// `sb` (side b, basis index `j`). Primitive pairs with
    /// `K * max|c_a c_b| < pair_cutoff` are dropped.
    pub fn build(i: usize, j: usize, sa: &Shell, sb: &Shell, pair_cutoff: f64) -> ShellPair {
        let a = PairSide::new(i, sa);
        let b = PairSide::new(j, sb);
        let (la, lb) = (a.max_l, b.max_l);
        let nblk = a.blocks.len() * b.blocks.len();

        let mut prims = Vec::with_capacity(sa.exps.len() * sb.exps.len());
        let mut coef = Vec::with_capacity(prims.capacity() * nblk);
        let mut max_coef = 0.0f64;
        let prefactor_bound = ShellPair::scan_prims(sa, sb, |pa, pb, k, mc| {
            if k * mc < pair_cutoff {
                return;
            }
            let (aexp, bexp) = (sa.exps[pa], sb.exps[pb]);
            let p = aexp + bexp;
            max_coef = max_coef.max(mc);
            for ba in &sa.blocks {
                for bb in &sb.blocks {
                    coef.push(ba.coefs[pa] * bb.coefs[pb]);
                }
            }
            prims.push(PrimPair {
                ex: ETable::build(la, lb, aexp, bexp, sa.center[0], sb.center[0]),
                ey: ETable::build(la, lb, aexp, bexp, sa.center[1], sb.center[1]),
                ez: ETable::build(la, lb, aexp, bexp, sa.center[2], sb.center[2]),
                p,
                center: [
                    (aexp * sa.center[0] + bexp * sb.center[0]) / p,
                    (aexp * sa.center[1] + bexp * sb.center[1]) / p,
                    (aexp * sa.center[2] + bexp * sb.center[2]) / p,
                ],
                k,
            });
        });
        let mut soa = PrimSoA::from_prims(&prims);
        let hermite = HermiteTable::build(&prims, &coef, &a, &b);
        if a.n_fn == 1 && b.n_fn == 1 {
            soa.w = (0..prims.len())
                .map(|ip| hermite.entries(ip, 0).1.first().copied().unwrap_or(0.0))
                .collect();
        }
        ShellPair {
            i,
            j,
            a,
            b,
            prims,
            soa,
            hermite,
            coef,
            max_coef,
            schwarz: 0.0,
            l_sum: la + lb,
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

    /// Coefficient product `c_a[block ba][prim pa] * c_b[block bb][prim pb]`
    /// for surviving primitive pair `ip`.
    #[inline]
    pub fn coef(&self, ip: usize, ba: usize, bb: usize) -> f64 {
        self.coef[(ip * self.a.blocks.len() + ba) * self.b.blocks.len() + bb]
    }

    /// Number of function pairs `n_fn(a) * n_fn(b)` — a quartet buffer over
    /// two pairs holds `bra.n_fn() * ket.n_fn()` values.
    #[inline]
    pub fn n_fn(&self) -> usize {
        self.a.n_fn * self.b.n_fn
    }

    /// Heap bytes held by this pair's dataset.
    pub fn heap_bytes(&self) -> usize {
        let etables: usize = self
            .prims
            .iter()
            .map(|pp| pp.ex.heap_bytes() + pp.ey.heap_bytes() + pp.ez.heap_bytes())
            .sum();
        etables
            + self.prims.len() * std::mem::size_of::<PrimPair>()
            + self.soa.heap_bytes()
            + self.hermite.heap_bytes()
            + self.coef.len() * std::mem::size_of::<f64>()
            + self.a.heap_bytes()
            + self.b.heap_bytes()
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
        let mut pairs = Vec::with_capacity(n_pairs(n));
        for i in 0..n {
            for j in 0..=i {
                pairs.push(ShellPair::build(i, j, &basis.shells[i], &basis.shells[j], pair_cutoff));
            }
        }
        let mut engine = EriEngine::new();
        let mut buf: Vec<f64> = Vec::new();
        for pr in &mut pairs {
            pr.schwarz = pr.schwarz_bound(&mut engine, &mut buf);
        }
        let bytes = pairs.iter().map(|p| p.heap_bytes() + std::mem::size_of::<ShellPair>()).sum();
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

    /// Total heap footprint of the dataset. The dataset is built once per
    /// SCF run and shared read-only across threads and (in-process) ranks,
    /// so this charges the per-node memory budget once per rank at most.
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

    /// The fused table, rebuilt from the pair's dense `E` tables in another
    /// order: Hermite index outer, function pairs inner. Every group must
    /// hold exactly the nonzero `((E_t E_u) E_v) ((c N_a) N_b)` products, to
    /// the bit, each function pair once and in function-pair order; an s–s
    /// pair's `PrimSoA::w` must be its `h = 0` weight, or 0.0 where that
    /// group is empty.
    fn assert_table_matches_dense_e(pr: &ShellPair) {
        let l = pr.l_sum;
        let side_fns = |side: &PairSide| -> Vec<(usize, (usize, usize, usize))> {
            let mut fns = Vec::new();
            for (bi, blk) in side.blocks.iter().enumerate() {
                fns.extend(components(blk.l).iter().map(|&c| (bi, c)));
            }
            fns
        };
        let (fns_a, fns_b) = (side_fns(&pr.a), side_fns(&pr.b));
        assert_eq!(pr.hermite.n_h(), simplex_len(l));
        for (ip, pp) in pr.prims.iter().enumerate() {
            let mut h = 0;
            for t in 0..=l {
                for u in 0..=(l - t) {
                    for v in 0..=(l - t - u) {
                        assert_eq!(simplex_index(l, t, u, v), h);
                        let mut want: Vec<(u16, u64)> = Vec::new();
                        for (fa, &(ba, (ax, ay, az))) in fns_a.iter().enumerate() {
                            for (fb, &(bb, (bx, by, bz))) in fns_b.iter().enumerate() {
                                let e = pp.ex.get(ax, bx, t)
                                    * pp.ey.get(ay, by, u)
                                    * pp.ez.get(az, bz, v);
                                let cnn = pr.coef(ip, ba, bb) * pr.a.norms[fa] * pr.b.norms[fb];
                                let w = e * cnn;
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
            assert_table_matches_dense_e(pr);
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
        assert_table_matches_dense_e(&pr);
    }

    #[test]
    fn bytes_accounting_is_plausible() {
        let basis = c_ring_basis();
        let pairs = ShellPairs::build(&basis);
        // Must at least cover the E tables of the surviving primitive pairs
        // and stay within an order of magnitude of a direct estimate.
        let etable_bytes: usize = pairs
            .iter()
            .flat_map(|p| p.prims.iter())
            .map(|pp| pp.ex.heap_bytes() + pp.ey.heap_bytes() + pp.ez.heap_bytes())
            .sum();
        assert!(pairs.bytes() > etable_bytes);
        assert!(pairs.bytes() < 20 * etable_bytes);
    }
}
