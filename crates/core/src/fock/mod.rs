//! Two-electron Fock matrix construction.
//!
//! Shared machinery lives here: the canonical shell-quartet enumeration and
//! the *digestion* of one computed quartet into Fock matrix updates — the
//! paper's equations (2a)–(2f). Every algorithm then differs only in how
//! quartets are distributed over ranks/threads and where updates land,
//! which is exactly the paper's framing.
//!
//! Digestion works per shell quartet, as GAMESS does: a unique integral
//! `(ij|kl)` stands for up to eight ordered index tuples, each adding a
//! Coulomb update `F_ab += D_cd * X` and an exchange update
//! `F_ac -= X/2 * D_bd` (closed-shell RHF). Summed over a quartet those
//! updates are six dense blocks, `J_ij`, `J_kl`, `K_ik`, `K_il`, `K_jk`
//! and `K_jl`: [`digest`] gathers the six density blocks they read
//! once, contracts the whole ERI buffer with the quartet's degeneracy
//! weight, and writes each result block once onto the canonical
//! (`row >= col`) triangle — mirror updates are redundant by symmetry —
//! matching GAMESS's triangular Fock storage.
//!
//! Note: Algorithm 1/2 in the paper print the inner loop bound as
//! `k==i ? lmax <- k : lmax <- j`; the canonical unique-quartet bound
//! (which the text's "symmetry-unique quartets" requires, and which GAMESS
//! implements) is `k==i ? lmax <- j : lmax <- k`. We implement the
//! canonical bound and note the typo here.
//!
//! The task loop itself is written once, in `fock/driver.rs`; each
//! algorithm module is a policy over it (task space, team schedule, accumulator,
//! lease mode, final reduce — see DESIGN.md §3.1).

pub(crate) mod driver;
pub use driver::SignificantPairs;
pub mod engine;
pub mod matrix;
mod mpi_only;
mod private_fock;
pub(crate) mod serial;
mod sharded;
mod shared_fock;

use crate::stats::FockBuildStats;
use phi_chem::{BasisSet, Shell};
use phi_linalg::Mat;
use std::cell::RefCell;

/// Which Fock-build parallelization to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FockAlgorithm {
    /// Single-threaded reference.
    Serial,
    /// Algorithm 1: MPI-only, everything replicated per rank.
    MpiOnly { n_ranks: usize },
    /// Algorithm 2: hybrid, density shared per rank, Fock private per thread.
    PrivateFock { n_ranks: usize, n_threads: usize },
    /// Algorithm 3: hybrid, density and Fock both shared per rank.
    SharedFock { n_ranks: usize, n_threads: usize },
    /// Related-work baseline: the sharded build's Fock windows over a
    /// replicated density per rank — Fock distributed over ranks
    /// (one-sided accumulates), never replicated or reduced.
    Distributed { n_ranks: usize },
    /// Fully sharded: density *and* Fock live in tri-packed DDI windows;
    /// no rank ever holds a full N x N matrix. `mode` has one value, the
    /// MPI-3 one-sided transport every window build runs.
    Sharded { n_ranks: usize, mode: phi_dmpi::DdiMode },
}

impl FockAlgorithm {
    pub fn label(self) -> &'static str {
        match self {
            FockAlgorithm::Serial => "serial",
            FockAlgorithm::MpiOnly { .. } => "MPI-only",
            FockAlgorithm::PrivateFock { .. } => "private Fock",
            FockAlgorithm::SharedFock { .. } => "shared Fock",
            FockAlgorithm::Distributed { .. } => "distributed",
            FockAlgorithm::Sharded { .. } => "sharded",
        }
    }

    /// `(ranks, threads per rank)` the algorithm runs on.
    pub fn shape(self) -> (usize, usize) {
        match self {
            FockAlgorithm::Serial => (1, 1),
            FockAlgorithm::MpiOnly { n_ranks }
            | FockAlgorithm::Distributed { n_ranks }
            | FockAlgorithm::Sharded { n_ranks, .. } => (n_ranks, 1),
            FockAlgorithm::PrivateFock { n_ranks, n_threads }
            | FockAlgorithm::SharedFock { n_ranks, n_threads } => (n_ranks, n_threads),
        }
    }
}

/// Result of one two-electron Fock build.
pub struct GBuild {
    /// The two-electron contribution `G(D) = J(D) - K(D)/2` (full
    /// symmetric matrix).
    pub g: Mat,
    pub stats: FockBuildStats,
}

/// Density input for one Fock build: the closed-shell RHF density `D`,
/// for which every builder returns `G = J(D) - K(D)/2`.
#[derive(Clone, Copy)]
pub enum DensitySet<'a> {
    Restricted(&'a Mat),
}

/// The basis functions `lo..lo + n` of one shell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub lo: usize,
    pub n: usize,
}

impl Span {
    pub fn of(shell: &Shell) -> Span {
        Span { lo: shell.first_bf, n: shell.n_functions() }
    }

    /// Whether function `f` belongs to this shell.
    #[inline]
    pub fn contains(self, f: usize) -> bool {
        f.wrapping_sub(self.lo) < self.n
    }
}

/// One block of canonical Fock updates: `vals[a * cols.n + b]` adds to
/// element `(rows.lo + a, cols.lo + b)`. `rows` never starts below
/// `cols`, so every element is canonical (`mu >= nu`); over a single
/// shell (`rows == cols`) only the lower triangle `b <= a` is meant, and
/// the entries above the diagonal are left unspecified.
pub struct Block<'a> {
    pub rows: Span,
    pub cols: Span,
    pub vals: &'a [f64],
}

impl Block<'_> {
    /// Hand every canonical update to `f(mu, nu, v)`, row-major: all
    /// `cols.n` entries of a row, or `0..=a` of row `a` over one shell.
    #[inline(always)]
    pub fn for_each(&self, mut f: impl FnMut(usize, usize, f64)) {
        for a in 0..self.rows.n {
            let len = if self.rows == self.cols { a + 1 } else { self.cols.n };
            for (b, &v) in self.vals[a * self.cols.n..][..len].iter().enumerate() {
                f(self.rows.lo + a, self.cols.lo + b, v);
            }
        }
    }
}

/// Read side of digestion: the density sub-blocks a quartet needs.
/// Implemented by [`ReplicatedDensity`] (the full matrix on this rank) and
/// [`matrix::ShardDensity`] (tri-packed DDI row shards).
pub trait DensityRead {
    /// Copy the `rows x cols` block of `D` into `out`, row-major.
    fn block(&mut self, rows: Span, cols: Span, out: &mut [f64]);
}

/// Write side of digestion: canonical update blocks into one Fock matrix.
pub trait FockSink {
    fn add_block(&mut self, blk: &Block<'_>);
}

/// The replicated [`DensityRead`] backend: the full density on this rank.
#[derive(Clone, Copy)]
pub struct ReplicatedDensity<'a>(pub &'a Mat);

impl DensityRead for ReplicatedDensity<'_> {
    #[inline(always)]
    fn block(&mut self, rows: Span, cols: Span, out: &mut [f64]) {
        for (a, o) in out[..rows.n * cols.n].chunks_exact_mut(cols.n).enumerate() {
            o.copy_from_slice(&self.0.row(rows.lo + a)[cols.lo..cols.lo + cols.n]);
        }
    }
}

/// The replicated [`FockSink`] backend: a lower-triangle sink over a
/// square row-major buffer of dimension `n`, owned in full by one rank or
/// one thread.
pub struct TriSink<'a> {
    pub buf: &'a mut [f64],
    pub n: usize,
}

impl FockSink for TriSink<'_> {
    #[inline(always)]
    fn add_block(&mut self, blk: &Block<'_>) {
        let n = self.n;
        blk.for_each(|mu, nu, v| self.buf[mu * n + nu] += v);
    }
}

/// Scratch blocks of one quartet: six density blocks, six result blocks
/// and one folded write block.
const SCRATCH_BLOCKS: usize = 13;

/// Digest one *canonical* shell quartet `(si sj | sk sl)` (shell indices
/// `si >= sj`, `sk >= sl`, `pair(si,sj) >= pair(sk,sl)`): the paper's
/// equations (2a)–(2f) as six block updates, Coulomb `J_ij` and `J_kl`,
/// exchange `K_ik`, `K_il`, `K_jk` and `K_jl`.
///
/// `quartet` is the ERI buffer laid out `[n_i][n_j][n_k][n_l]`. The one
/// digester of the crate: every builder, replicated or sharded, is an
/// instantiation of it. Its block scratch is per worker thread, sized
/// from the basis's widest shell the first time.
#[allow(clippy::too_many_arguments)]
pub fn digest<D: DensityRead + ?Sized, S: FockSink + ?Sized>(
    basis: &BasisSet,
    si: usize,
    sj: usize,
    sk: usize,
    sl: usize,
    quartet: &[f64],
    dens: &mut D,
    sink: &mut S,
) {
    thread_local! {
        static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    }
    let spans = [si, sj, sk, sl].map(|s| Span::of(&basis.shells[s]));
    if spans.iter().all(|p| p.n == 1) {
        // Four single-function shells: spelled out as width one, every
        // block loop folds into six scalar updates.
        let unit = spans.map(|p| Span { lo: p.lo, n: 1 });
        return digest_blocks(unit, quartet, &mut [0.0; SCRATCH_BLOCKS], dens, sink);
    }
    SCRATCH.with_borrow_mut(|scratch| {
        let m = spans.iter().map(|p| p.n).max().unwrap_or(0);
        if scratch.len() < SCRATCH_BLOCKS * m * m {
            let w = basis.max_shell_width().max(m);
            scratch.resize(SCRATCH_BLOCKS * w * w, 0.0);
        }
        digest_blocks(spans, quartet, scratch, dens, sink);
    });
}

/// The block digester over the four shells' spans.
///
/// Every ordered function tuple of the quartet's orbit contributes
/// `F_ab += D_ce X` and `F_ac -= X/2 D_be`. The whole `[n_i][n_j][n_k][n_l]`
/// buffer under all eight index permutations covers each such tuple
/// `8 / g` times, `g` the number of distinct ordered shell quartets in the
/// orbit, so every buffer element enters with weight `g / 8`. Collected by
/// destination, the permutations pair up into six blocks, each landing on
/// an element and its mirror: `2 (g / 8) J` per mirror for the two
/// Coulomb blocks, `-(1/2) (g / 8) K` for the four exchange blocks. A
/// block over two shells lands on the canonical triangle transposed if
/// needed; a block over one shell folds `B + Bᵀ` onto its lower triangle.
#[inline(always)]
fn digest_blocks<D: DensityRead + ?Sized, S: FockSink + ?Sized>(
    [pi, pj, pk, pl]: [Span; 4],
    x: &[f64],
    scratch: &mut [f64],
    dens: &mut D,
    sink: &mut S,
) {
    let g = f64::from(1u8 << ((pi != pj) as u8 + (pk != pl) as u8 + ((pi, pj) != (pk, pl)) as u8));
    let (cj, ck) = (g / 4.0, -0.5 * g / 8.0);
    let m = pi.n.max(pj.n).max(pk.n).max(pl.n);
    let mut blocks = scratch[..SCRATCH_BLOCKS * m * m].chunks_exact_mut(m * m);
    let [dij, dkl, dik, dil, djk, djl, jij, jkl, kik, kil, kjk, kjl, canon] =
        std::array::from_fn(|_| blocks.next().expect("one scratch block each"));
    dens.block(pi, pj, dij);
    dens.block(pk, pl, dkl);
    dens.block(pi, pk, dik);
    dens.block(pi, pl, dil);
    dens.block(pj, pk, djk);
    dens.block(pj, pl, djl);
    contract(
        x,
        [pi.n, pj.n, pk.n, pl.n],
        [&*dij, &*dkl, &*dik, &*dil, &*djk, &*djl],
        [&mut *jij, &mut *jkl, &mut *kik, &mut *kil, &mut *kjk, &mut *kjl],
    );
    emit(sink, pi, pj, jij, cj, canon);
    emit(sink, pk, pl, jkl, cj, canon);
    emit(sink, pi, pk, kik, ck, canon);
    emit(sink, pi, pl, kil, ck, canon);
    emit(sink, pj, pk, kjk, ck, canon);
    emit(sink, pj, pl, kjl, ck, canon);
}

/// Contract the ERI block `x` with the gathered density blocks
/// `[D_ij, D_kl, D_ik, D_il, D_jk, D_jl]` into
/// `[J_ij, J_kl, K_ik, K_il, K_jk, K_jl]`: `J_ij = X D_kl`,
/// `J_kl += X D_ij`, `K_ik += X D_jl`, `K_il += X D_jk`, `K_jk += X D_il`
/// and `K_jl += X D_ik`, the accumulated blocks zeroed first over their
/// extents only.
#[inline(always)]
fn contract(
    x: &[f64],
    [ni, nj, nk, nl]: [usize; 4],
    [dij, dkl, dik, dil, djk, djl]: [&[f64]; 6],
    [jij, jkl, kik, kil, kjk, kjl]: [&mut [f64]; 6],
) {
    let nkl = nk * nl;
    for (blk, len) in [(&mut *kik, ni * nk), (&mut *kil, ni * nl), (&mut *kjk, nj * nk)] {
        blk[..len].fill(0.0);
    }
    kjl[..nj * nl].fill(0.0);
    jkl[..nkl].fill(0.0);
    for (ab, xab) in x[..ni * nj * nkl].chunks_exact(nkl).enumerate() {
        let (a, b) = (ab / nj, ab % nj);
        let d_ab = dij[ab];
        let (dil_a, djl_b) = (&dil[a * nl..][..nl], &djl[b * nl..][..nl]);
        let mut j_ab = 0.0;
        for (c, xc) in xab.chunks_exact(nl).enumerate() {
            let (d_ik, d_jk) = (dik[a * nk + c], djk[b * nk + c]);
            let dkl_c = &dkl[c * nl..][..nl];
            let jkl_c = &mut jkl[c * nl..][..nl];
            let kil_a = &mut kil[a * nl..][..nl];
            let kjl_b = &mut kjl[b * nl..][..nl];
            let (mut s_j, mut s_ik, mut s_jk) = (0.0, 0.0, 0.0);
            for dd in 0..nl {
                let v = xc[dd];
                s_j += v * dkl_c[dd];
                jkl_c[dd] += v * d_ab;
                s_ik += v * djl_b[dd];
                s_jk += v * dil_a[dd];
                kil_a[dd] += v * d_jk;
                kjl_b[dd] += v * d_ik;
            }
            j_ab += s_j;
            kik[a * nk + c] += s_ik;
            kjk[b * nk + c] += s_jk;
        }
        jij[ab] = j_ab;
    }
}

/// Scale result block `b` over shells `(p, q)` by `c`, lay it on the
/// canonical triangle in `canon` (transposed when `p` precedes `q`, folded
/// `c (B + Bᵀ)` when they coincide) and add it to `sink`.
#[inline(always)]
fn emit<S: FockSink + ?Sized>(
    sink: &mut S,
    p: Span,
    q: Span,
    b: &[f64],
    c: f64,
    canon: &mut [f64],
) {
    let (rows, cols) = if p.lo >= q.lo { (p, q) } else { (q, p) };
    // Strides of `b` along the canonical block's rows and columns.
    let (rs, ts) = if p.lo >= q.lo { (q.n, 1) } else { (1, q.n) };
    for r in 0..rows.n {
        for t in 0..cols.n {
            let v = b[r * rs + t * ts];
            canon[r * cols.n + t] = c * if p == q { v + b[t * rs + r * ts] } else { v };
        }
    }
    sink.add_block(&Block { rows, cols, vals: canon });
}

/// The closed-shell instantiation of [`digest`] over one full density
/// matrix `d` and one single-matrix sink.
#[allow(clippy::too_many_arguments)]
pub fn digest_quartet(
    basis: &BasisSet,
    si: usize,
    sj: usize,
    sk: usize,
    sl: usize,
    quartet: &[f64],
    d: &Mat,
    sink: &mut impl FockSink,
) {
    digest(basis, si, sj, sk, sl, quartet, &mut ReplicatedDensity(d), sink);
}

/// Mirror a lower-triangular accumulation into a full symmetric matrix.
pub fn tri_to_full(buf: &[f64], n: usize) -> Mat {
    let mut m = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = buf[i * n + j];
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

/// Canonical shell-quartet enumeration: the last `l` of row `k` in task
/// `(i, j)`.
#[inline]
pub fn kl_bounds(i: usize, j: usize, k: usize) -> usize {
    // l runs over 0..=bound; canonical unique-quartet bound (see module
    // docs on the paper's typo).
    if k == i {
        j
    } else {
        k
    }
}

#[cfg(test)]
mod tests {
    use super::engine::FockData;
    use super::*;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;

    /// Serial restricted `G(D)` at threshold `tau`.
    fn serial_g(b: &BasisSet, tau: f64, d: &Mat) -> Mat {
        let data = FockData::build(b);
        FockAlgorithm::Serial.builder().build(&data.context(b, tau), &DensitySet::Restricted(d)).g
    }

    fn test_density(n: usize) -> Mat {
        // A symmetric, not-too-structured density stand-in.
        let mut d = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = 0.3 + 0.1 * ((i * 7 + j * 3) % 5) as f64 - 0.05 * (i as f64 - j as f64);
                d[(i, j)] = v;
                d[(j, i)] = v;
            }
        }
        d
    }

    /// The full AO ERI tensor `(pq|rs)` at `((p n + q) n + r) n + s`, no
    /// screening and every primitive pair kept: all `ns^2` ordered shell
    /// pairs against all, with no permutational symmetry.
    fn compute_ao(basis: &BasisSet) -> Vec<f64> {
        use phi_integrals::{EriEngine, ShellPair};
        let (n, shells) = (basis.n_basis(), &basis.shells);
        let mut t = vec![0.0; n * n * n * n];
        let mut engine = EriEngine::new();
        engine.prefactor_cutoff = 0.0;
        let pairs: Vec<ShellPair> = (0..shells.len() * shells.len())
            .map(|ij| {
                let (i, j) = (ij / shells.len(), ij % shells.len());
                ShellPair::build(i, j, &shells[i], &shells[j], 0.0)
            })
            .collect();
        let mut buf: Vec<f64> = Vec::new();
        for bra in &pairs {
            let (a, b) = (&shells[bra.i], &shells[bra.j]);
            for ket in &pairs {
                let (c, d) = (&shells[ket.i], &shells[ket.j]);
                let (nb, nc, nd) = (bra.b.n_fn, ket.a.n_fn, ket.b.n_fn);
                buf.resize(bra.n_fn() * ket.n_fn(), 0.0);
                engine.shell_quartet_pairs(bra, ket, &mut buf);
                for (at, &v) in buf.iter().enumerate() {
                    let (ia, ib) = (at / (nb * nc * nd), at / (nc * nd) % nb);
                    let (ic, id) = (at / nd % nc, at % nd);
                    let (p, q) = (a.first_bf + ia, b.first_bf + ib);
                    let (r, s) = (c.first_bf + ic, d.first_bf + id);
                    t[((p * n + q) * n + r) * n + s] = v;
                }
            }
        }
        t
    }

    /// Brute-force reference: build G (the two-electron Fock contribution)
    /// from the full AO ERI tensor with no symmetry exploitation. O(N^4)
    /// memory and quartet evaluations — tests only.
    fn brute_force_g(basis: &BasisSet, d: &Mat) -> Mat {
        let eri = compute_ao(basis);
        let n = basis.n_basis();
        let mut g = Mat::zeros(n, n);
        for mu in 0..n {
            for nu in 0..n {
                for lam in 0..n {
                    for sig in 0..n {
                        let x = eri[((mu * n + nu) * n + lam) * n + sig];
                        // J
                        g[(mu, nu)] += d[(lam, sig)] * x;
                        // K with the RHF -1/2 factor.
                        g[(mu, lam)] -= 0.5 * d[(nu, sig)] * x;
                    }
                }
            }
        }
        g
    }

    #[test]
    fn serial_digestion_matches_brute_force() {
        for (mol, basis) in [
            (small::hydrogen_molecule(1.4), BasisName::Sto3g),
            (small::water(), BasisName::Sto3g),
            (small::water(), BasisName::B631g),
        ] {
            let b = BasisSet::build(&mol, basis);
            let n = b.n_basis();
            let d = test_density(n);
            let want = brute_force_g(&b, &d);
            let got = serial_g(&b, 0.0, &d);
            assert!(
                got.max_abs_diff(&want) < 1e-12,
                "{:?}: digestion differs from brute force by {}",
                basis,
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn digestion_with_d_functions_matches_brute_force() {
        let b = BasisSet::build(&small::water(), BasisName::B631gd);
        let n = b.n_basis();
        let d = test_density(n);
        let want = brute_force_g(&b, &d);
        let got = serial_g(&b, 0.0, &d);
        assert!(got.max_abs_diff(&want) < 1e-12, "differs by {}", got.max_abs_diff(&want));
    }

    #[test]
    fn screening_changes_g_only_within_tau_budget() {
        let b = BasisSet::build(&small::h_chain(6, 2.5), BasisName::Sto3g);
        let n = b.n_basis();
        let d = test_density(n);
        let exact = serial_g(&b, 0.0, &d);
        let screened = serial_g(&b, 1e-9, &d);
        // Dropped quartets are bounded by tau * |D| * multiplicity; stay
        // well under a conservative bound.
        assert!(exact.max_abs_diff(&screened) < 1e-6);
        let coarse = serial_g(&b, 1e-3, &d);
        assert!(exact.max_abs_diff(&coarse) > exact.max_abs_diff(&screened));
    }

    /// The ERI buffers of `quartets` on `b`.
    fn eris(b: &BasisSet, quartets: &[[usize; 4]]) -> Vec<Vec<f64>> {
        let data = FockData::build(b);
        let mut engine = phi_integrals::EriEngine::new();
        let eri = |&[i, j, k, l]: &[usize; 4]| {
            let (bra, ket) = (data.pairs.pair(i, j), data.pairs.pair(k, l));
            let mut eri = vec![0.0; bra.n_fn() * ket.n_fn()];
            engine.shell_quartet_pairs(bra, ket, &mut eri);
            eri
        };
        quartets.iter().map(eri).collect()
    }

    /// The per-integral orbit walk the block digester replaced: each
    /// canonical integral of quartet `q` visits the eight ordered tuples of
    /// its orbit, skips duplicates by searching the tuples before it, and
    /// adds canonical updates to the lower-triangle buffer `out` one
    /// element at a time.
    fn orbit_walk(b: &BasisSet, q: [usize; 4], eri: &[f64], d: &Mat, out: &mut [f64]) {
        let n = b.n_basis();
        let sh = q.map(|s| &b.shells[s]);
        let [ni, nj, nk, nl] = sh.map(|s| s.n_functions());
        let [si, sj, sk, sl] = q;
        for a in 0..ni {
            let mu = sh[0].first_bf + a;
            for bb in 0..if si == sj { a + 1 } else { nj } {
                let nu = sh[1].first_bf + bb;
                for c in 0..nk {
                    let lam = sh[2].first_bf + c;
                    for dd in 0..if sk == sl { c + 1 } else { nl } {
                        let sig = sh[3].first_bf + dd;
                        let canonical = mu * (mu + 1) / 2 + nu >= lam * (lam + 1) / 2 + sig;
                        if (si, sj) == (sk, sl) && !canonical {
                            continue;
                        }
                        let x = eri[((a * nj + bb) * nk + c) * nl + dd];
                        let orbit = [
                            (mu, nu, lam, sig),
                            (nu, mu, lam, sig),
                            (mu, nu, sig, lam),
                            (nu, mu, sig, lam),
                            (lam, sig, mu, nu),
                            (sig, lam, mu, nu),
                            (lam, sig, nu, mu),
                            (sig, lam, nu, mu),
                        ];
                        for (idx, &(p, q, r, t)) in orbit.iter().enumerate() {
                            if orbit[..idx].contains(&(p, q, r, t)) {
                                continue;
                            }
                            if p >= q {
                                out[p * n + q] += d[(r, t)] * x;
                            }
                            if p >= r {
                                out[p * n + r] += -0.5 * x * d[(q, t)];
                            }
                        }
                    }
                }
            }
        }
    }

    /// `got` within `rel` of `want` relative to `want`'s largest element.
    fn assert_close(label: &str, got: &Mat, want: &Mat, rel: f64) {
        let scale = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let diff = got.max_abs_diff(want);
        assert!(diff <= rel * scale, "{label}: differs by {diff:e} (largest element {scale:e})");
    }

    #[test]
    fn digest_matches_the_orbit_walk() {
        // Water/6-31G(d) has s, SP and d shells and every coincidence of
        // shells, so the block loops, the folds onto the diagonal and the
        // single-function path all run.
        let b = BasisSet::build(&small::water(), BasisName::B631gd);
        let mut quartets = Vec::new();
        for i in 0..b.n_shells() {
            for j in 0..=i {
                for k in 0..=i {
                    for l in 0..=kl_bounds(i, j, k) {
                        quartets.push([i, j, k, l]);
                    }
                }
            }
        }
        let eris = eris(&b, &quartets);
        let n = b.n_basis();
        let d = test_density(n);
        let mut got = vec![0.0; n * n];
        let mut want = vec![0.0; n * n];
        for (&[i, j, k, l], eri) in quartets.iter().zip(&eris) {
            let mut sink = TriSink { buf: &mut got, n };
            digest(&b, i, j, k, l, eri, &mut ReplicatedDensity(&d), &mut sink);
            orbit_walk(&b, [i, j, k, l], eri, &d, &mut want);
        }
        assert_close("block digest", &tri_to_full(&got, n), &tri_to_full(&want, n), 1e-12);
    }

    /// The ordered brute-force expansion of one shell quartet: every
    /// ordered function tuple of its orbit — the images of the whole ERI
    /// buffer under the eight index permutations, duplicates dropped —
    /// adds `F_ab += D_ce X` and `F_ac -= X/2 D_be` to a full matrix.
    fn ordered_expansion(b: &BasisSet, q: [usize; 4], eri: &[f64], d: &Mat) -> Mat {
        let sh = q.map(|s| &b.shells[s]);
        let [_, nj, nk, nl] = sh.map(|s| s.n_functions());
        let mut tuples = std::collections::BTreeMap::new();
        for (at, &x) in eri.iter().enumerate() {
            let (a, bb, c, dd) = (at / (nj * nk * nl), at / (nk * nl) % nj, at / nl % nk, at % nl);
            let f = |s: usize, off: usize| sh[s].first_bf + off;
            let (mu, nu, lam, sig) = (f(0, a), f(1, bb), f(2, c), f(3, dd));
            for t in [
                (mu, nu, lam, sig),
                (nu, mu, lam, sig),
                (mu, nu, sig, lam),
                (nu, mu, sig, lam),
                (lam, sig, mu, nu),
                (sig, lam, mu, nu),
                (lam, sig, nu, mu),
                (sig, lam, nu, mu),
            ] {
                tuples.entry(t).or_insert(x);
            }
        }
        let n = b.n_basis();
        let mut f = Mat::zeros(n, n);
        for (&(p, q, r, t), &x) in &tuples {
            f[(p, q)] += d[(r, t)] * x;
            f[(p, r)] += -0.5 * x * d[(q, t)];
        }
        f
    }

    /// One update as a `1 x 1` block.
    fn unit(mu: usize, nu: usize, v: &f64) -> Block<'_> {
        Block {
            rows: Span { lo: mu, n: 1 },
            cols: Span { lo: nu, n: 1 },
            vals: std::slice::from_ref(v),
        }
    }

    /// Quartet `q` digested through both readers into each of the three
    /// writers must land within 1e-14 of `want`.
    fn assert_every_backend_matches(b: &BasisSet, q: [usize; 4], eri: &[f64], d: &Mat, want: &Mat) {
        let (n, w) = (b.n_basis(), b.max_shell_width());
        let [i, j, k, l] = q;
        let d_win = matrix::scatter_density(d, n, 2);
        for reader in ["replicated", "shard"] {
            let (mut replicated, mut shard) =
                (ReplicatedDensity(d), matrix::ShardDensity::new(&d_win, n));
            let dr: &mut dyn DensityRead =
                if reader == "replicated" { &mut replicated } else { &mut shard };
            let check = |writer: &str, got: &Mat| {
                assert_close(&format!("{q:?} {reader} -> {writer}"), got, want, 1e-14);
            };

            let mut fock = vec![0.0; n * n];
            digest(b, i, j, k, l, eri, dr, &mut TriSink { buf: &mut fock, n });
            check("TriSink", &tri_to_full(&fock, n));

            let mut fock = vec![0.0; n * n];
            let mut sink = TriSink { buf: &mut fock, n };
            let (mut fi, mut fj) = (vec![0.0; w * n], vec![0.0; w * n]);
            let mut router = matrix::StripRouter {
                fi: &mut fi,
                fj: &mut fj,
                kl: &mut sink,
                n,
                i: Span::of(&b.shells[i]),
                j: Span::of(&b.shells[j]),
            };
            digest(b, i, j, k, l, eri, dr, &mut router);
            for (strip, s) in [(&mut fi, i), (&mut fj, j)] {
                let lo = b.shells[s].first_bf;
                matrix::drain_strip(strip, lo, n, |mu, nu, v| sink.add_block(&unit(mu, nu, &v)));
            }
            check("StripRouter", &tri_to_full(&fock, n));

            let f_win = phi_dmpi::DistributedArray::new(matrix::tri_len(n), 1);
            let mut fock = matrix::RowShardFock::new(&f_win, n);
            digest(b, i, j, k, l, eri, dr, &mut fock);
            fock.flush();
            check("RowShardFock", &matrix::gather_tri(&f_win, n));
        }
    }

    #[test]
    fn digest_handles_every_shell_coincidence_pattern() {
        // Water/6-31G(d): O s, SP, SP, d (shells 0-3), then two s shells
        // per H (4-7).
        let b = BasisSet::build(&small::water(), BasisName::B631gd);
        assert_eq!(
            b.shells.iter().map(|s| s.n_functions()).collect::<Vec<_>>(),
            [1, 4, 4, 6, 1, 1, 1, 1]
        );
        let patterns = [
            [3, 2, 1, 0], // all distinct
            [3, 3, 2, 1], // si == sj
            [3, 2, 1, 1], // sk == sl
            [3, 1, 3, 1], // (si, sj) == (sk, sl)
            [3, 2, 3, 1], // si == sk, sj != sl
            [3, 3, 3, 3], // all four equal, d
            [2, 2, 2, 2], // all four equal, SP
            [3, 3, 1, 1], // both pairs diagonal
            // The single-function path under the same patterns.
            [7, 7, 5, 4],
            [7, 5, 4, 4],
            [7, 5, 7, 5],
            [7, 5, 7, 4],
            [6, 6, 6, 6],
        ];
        let eris = eris(&b, &patterns);
        let d = test_density(b.n_basis());
        for (&q, eri) in patterns.iter().zip(&eris) {
            assert_every_backend_matches(&b, q, eri, &d, &ordered_expansion(&b, q, eri, &d));
        }
    }

    #[test]
    fn tri_to_full_mirrors() {
        let buf = vec![1.0, 0.0, 2.0, 3.0];
        let m = tri_to_full(&buf, 2);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 1)], 3.0);
    }
}
