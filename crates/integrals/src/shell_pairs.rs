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
    /// Per-function angular-block index (function -> position in `blocks`),
    /// so the class kernels can walk plain function loops and still look up
    /// the block-level contraction coefficient.
    pub fn_block: Vec<u8>,
}

impl PairSide {
    fn new(index: usize, s: &Shell) -> PairSide {
        let mut blocks = Vec::with_capacity(s.blocks.len());
        let mut norms = Vec::with_capacity(s.n_functions());
        let mut fn_block = Vec::with_capacity(s.n_functions());
        let mut off = 0;
        for (bi, b) in s.blocks.iter().enumerate() {
            let comps = components(b.l);
            blocks.push(SideBlock { l: b.l, off, n_comp: comps.len() });
            for &c in comps {
                norms.push(component_norm(c));
                fn_block.push(bi as u8);
            }
            off += comps.len();
        }
        PairSide { shell: index, n_fn: off, max_l: s.max_l(), blocks, norms, fn_block }
    }

    /// Cartesian powers of every function of this side, block-concatenated
    /// in function order (build-time helper for the sparse Hermite tables).
    fn powers(&self) -> Vec<(usize, usize, usize)> {
        self.blocks.iter().flat_map(|b| components(b.l).iter().copied()).collect()
    }

    fn heap_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<SideBlock>()
            + self.norms.len() * std::mem::size_of::<f64>()
            + self.fn_block.len()
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
    /// s–s pairs only (empty otherwise): `((c_a c_b) N_a) N_b E_000` per
    /// primitive pair — coefficient product, the two normalization factors
    /// and the Hermite product `E_000`, which is 0.0 where it underflowed to
    /// an empty entry list.
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

/// Precomputed sparse 3-D Hermite expansion products of one shell pair:
/// for every (surviving primitive pair, function pair) the nonzero
/// `E_tau E_nu E_phi` triples, in the exact iteration order of the generic
/// recursion (see [`crate::hermite::e3_sparse_into`]).
///
/// This hoists the triple-nested `E`-table walk — bounds arithmetic, zero
/// tests, and the three multiplies — from the `O(N^4)` quartet loop into the
/// `O(N^2)` pair build. The class kernels replay the flat entry list per
/// quartet; the generic path keeps walking the dense tables.
#[derive(Clone, Debug, Default)]
pub struct E3Sparse {
    /// Hermite orders `[tau, nu, phi]` per entry.
    tuv: Vec<[u8; 3]>,
    /// `(E_tau * E_nu) * E_phi` per entry (unsigned, unnormalized).
    val: Vec<f64>,
    /// Entry ranges per `(prim, fa, fb)`, flattened
    /// `(ip * n_fn_a + fa) * n_fn_b + fb`; length `nprim*n_fn_a*n_fn_b + 1`.
    offsets: Vec<u32>,
    n_fn_a: usize,
    n_fn_b: usize,
}

impl E3Sparse {
    fn build(prims: &[PrimPair], a: &PairSide, b: &PairSide) -> E3Sparse {
        let (pa, pb) = (a.powers(), b.powers());
        let mut tuv = Vec::new();
        let mut val = Vec::new();
        let mut offsets = Vec::with_capacity(prims.len() * a.n_fn * b.n_fn + 1);
        offsets.push(0);
        for pp in prims {
            for &ca in &pa {
                for &cb in &pb {
                    crate::hermite::e3_sparse_into(
                        &pp.ex, &pp.ey, &pp.ez, ca, cb, &mut tuv, &mut val,
                    );
                    offsets.push(tuv.len() as u32);
                }
            }
        }
        E3Sparse { tuv, val, offsets, n_fn_a: a.n_fn, n_fn_b: b.n_fn }
    }

    /// The entries of `(prim ip, function fa of side a, fb of side b)`, in
    /// generic-recursion iteration order.
    #[inline]
    pub fn entries(&self, ip: usize, fa: usize, fb: usize) -> (&[[u8; 3]], &[f64]) {
        let slot = (ip * self.n_fn_a + fa) * self.n_fn_b + fb;
        let (lo, hi) = (self.offsets[slot] as usize, self.offsets[slot + 1] as usize);
        (&self.tuv[lo..hi], &self.val[lo..hi])
    }

    fn heap_bytes(&self) -> usize {
        self.tuv.len() * 3
            + self.val.len() * std::mem::size_of::<f64>()
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
    /// Sparse Hermite triple products per (prim, function pair).
    pub e3: E3Sparse,
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
        let e3 = E3Sparse::build(&prims, &a, &b);
        if a.n_fn == 1 && b.n_fn == 1 {
            let (norm_a, norm_b) = (a.norms[0], b.norms[0]);
            soa.w = (0..prims.len())
                .map(|ip| {
                    let e000 = e3.entries(ip, 0, 0).1.first().copied().unwrap_or(0.0);
                    coef[ip] * norm_a * norm_b * e000
                })
                .collect();
        }
        ShellPair {
            i,
            j,
            a,
            b,
            prims,
            soa,
            e3,
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
            + self.e3.heap_bytes()
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
