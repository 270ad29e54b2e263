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

/// Result of one two-electron Fock build, spin-generalized: restricted
/// builds fill `g` only; unrestricted builds fill `g` with the alpha
/// channel and `g_beta` with the beta channel.
pub struct GBuild {
    /// The two-electron contribution `G` (full symmetric matrix): the RHF
    /// `G(D)`, or the alpha-spin `G_alpha = J(D_t) - K(D_alpha)` of a UHF
    /// build.
    pub g: Mat,
    /// The beta-spin channel of a UHF build; `None` for restricted builds.
    pub g_beta: Option<Mat>,
    pub stats: FockBuildStats,
}

impl GBuild {
    /// Assemble from per-channel matrices (one = restricted, two = UHF
    /// alpha/beta).
    pub fn from_channels(mats: Vec<Mat>, stats: FockBuildStats) -> GBuild {
        let mut it = mats.into_iter();
        let g = it
            .next()
            .expect("from_channels needs at least one spin-channel matrix (got an empty vec)");
        GBuild { g, g_beta: it.next(), stats }
    }
}

/// Spin-generalized density input for one Fock build.
///
/// Every builder consumes this and produces the matching [`GBuild`]:
///
/// * `Restricted(D)` — closed-shell RHF; the output is
///   `G = J(D) - K(D)/2`.
/// * `Unrestricted { alpha, beta }` — the UHF spin densities (each without
///   the RHF factor of 2); the outputs are `G_s = J(D_a + D_b) - K(D_s)`
///   for `s` in alpha, beta — exactly the two-electron parts of the UHF
///   spin Fock matrices `F_s = H + G_s`. Every ERI is computed once and
///   digested into both spin channels, which is the generalization the
///   paper's conclusion points at ("UHF, GVB, DFT, CPHF all have this
///   structure").
#[derive(Clone, Copy)]
pub enum DensitySet<'a> {
    Restricted(&'a Mat),
    Unrestricted { alpha: &'a Mat, beta: &'a Mat },
}

impl<'a> DensitySet<'a> {
    /// View a spin-channel list as the matching set: one matrix is
    /// restricted, two are alpha then beta.
    pub fn from_channels(mats: &[&'a Mat]) -> DensitySet<'a> {
        match mats {
            [d] => DensitySet::Restricted(d),
            [alpha, beta] => DensitySet::Unrestricted { alpha, beta },
            _ => panic!("a density set has 1 (RHF) or 2 (UHF) channels, got {}", mats.len()),
        }
    }
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
/// Implemented by [`ReplicatedDensity`] (full matrices on this rank) and
/// [`matrix::ShardDensity`] (tri-packed DDI row shards).
pub trait DensityRead {
    /// Spin output channels this density feeds (1 restricted, 2
    /// unrestricted).
    fn n_channels(&self) -> usize;
    /// Exchange scale: RHF digests `-X/2 * D`, UHF `-X * D_s`.
    fn k_factor(&self) -> f64;
    /// Copy the `rows x cols` block of density `src` into `out`,
    /// row-major: `src` 0 is the Coulomb source (`D` restricted,
    /// `D_alpha + D_beta` UHF), `1 + ch` spin channel `ch`'s exchange
    /// source.
    fn block(&mut self, src: usize, rows: Span, cols: Span, out: &mut [f64]);
}

/// Write side of digestion: canonical update blocks into spin channel
/// `ch`'s Fock matrix.
pub trait ChannelSink {
    fn add_block(&mut self, ch: usize, blk: &Block<'_>);
}

/// One single-matrix sink per spin channel.
impl<S: FockSink> ChannelSink for [S] {
    #[inline(always)]
    fn add_block(&mut self, ch: usize, blk: &Block<'_>) {
        blk.for_each(|mu, nu, v| self[ch].add(mu, nu, v));
    }
}

/// The replicated [`DensityRead`] backend: full matrices on this rank,
/// with the channel count fixed at compile time so the restricted hot
/// loop carries no per-channel branching.
#[derive(Clone, Copy)]
pub struct ReplicatedDensity<'a, const NCH: usize> {
    pub coulomb: &'a Mat,
    pub exchange: [&'a Mat; NCH],
}

impl<'a> ReplicatedDensity<'a, 1> {
    /// Closed-shell RHF: one matrix is both Coulomb and exchange source.
    pub fn restricted(d: &'a Mat) -> Self {
        ReplicatedDensity { coulomb: d, exchange: [d] }
    }
}

impl<'a> ReplicatedDensity<'a, 2> {
    /// UHF: `total = alpha + beta` is formed once per build by the caller.
    pub fn unrestricted(total: &'a Mat, alpha: &'a Mat, beta: &'a Mat) -> Self {
        ReplicatedDensity { coulomb: total, exchange: [alpha, beta] }
    }
}

impl<const NCH: usize> DensityRead for ReplicatedDensity<'_, NCH> {
    #[inline]
    fn n_channels(&self) -> usize {
        NCH
    }

    #[inline]
    fn k_factor(&self) -> f64 {
        if NCH == 1 {
            -0.5
        } else {
            -1.0
        }
    }

    #[inline(always)]
    fn block(&mut self, src: usize, rows: Span, cols: Span, out: &mut [f64]) {
        let m = if src == 0 { self.coulomb } else { self.exchange[src - 1] };
        for (a, o) in out[..rows.n * cols.n].chunks_exact_mut(cols.n).enumerate() {
            o.copy_from_slice(&m.row(rows.lo + a)[cols.lo..cols.lo + cols.n]);
        }
    }
}

/// Destination of canonical Fock updates (`mu >= nu` always).
pub trait FockSink {
    fn add(&mut self, mu: usize, nu: usize, v: f64);
}

/// A plain lower-triangle sink over a square row-major buffer with known
/// dimension (avoids the sqrt in the `[f64]` impl on hot paths).
pub struct TriSink<'a> {
    pub buf: &'a mut [f64],
    pub n: usize,
}

impl FockSink for TriSink<'_> {
    #[inline]
    fn add(&mut self, mu: usize, nu: usize, v: f64) {
        debug_assert!(mu >= nu);
        self.buf[mu * self.n + nu] += v;
    }
}

/// Scratch blocks of one quartet: six density blocks, six result blocks
/// and one folded write block.
const SCRATCH_BLOCKS: usize = 13;

/// Digest one *canonical* shell quartet `(si sj | sk sl)` (shell indices
/// `si >= sj`, `sk >= sl`, `pair(si,sj) >= pair(sk,sl)`) into every spin
/// channel: the paper's equations (2a)–(2f) as six block updates, Coulomb
/// `J_ij` and `J_kl` into every channel, exchange `K_ik`, `K_il`, `K_jk`
/// and `K_jl` per channel.
///
/// `quartet` is the ERI buffer laid out `[n_i][n_j][n_k][n_l]`. The one
/// digester of the crate: every builder, replicated or sharded, RHF or
/// UHF, is an instantiation of it. Its block scratch is per worker
/// thread, sized from the basis's widest shell the first time.
#[allow(clippy::too_many_arguments)]
pub fn digest<D: DensityRead + ?Sized, S: ChannelSink + ?Sized>(
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
        // block loop folds into six scalar updates per channel.
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
/// `F_ab += D_ce X` and `F_ac += k X D_be`. The whole `[n_i][n_j][n_k][n_l]`
/// buffer under all eight index permutations covers each such tuple
/// `8 / g` times, `g` the number of distinct ordered shell quartets in the
/// orbit, so every buffer element enters with weight `g / 8`. Collected by
/// destination, the permutations pair up into six blocks, each landing on
/// an element and its mirror: `2 (g / 8) J` per mirror for the two
/// Coulomb blocks, `k (g / 8) K` for the four exchange blocks. A block
/// over two shells lands on the canonical triangle transposed if needed;
/// a block over one shell folds `B + Bᵀ` onto its lower triangle.
#[inline(always)]
fn digest_blocks<D: DensityRead + ?Sized, S: ChannelSink + ?Sized>(
    [pi, pj, pk, pl]: [Span; 4],
    x: &[f64],
    scratch: &mut [f64],
    dens: &mut D,
    sink: &mut S,
) {
    let g = f64::from(1u8 << ((pi != pj) as u8 + (pk != pl) as u8 + ((pi, pj) != (pk, pl)) as u8));
    let (cj, ck) = (g / 4.0, dens.k_factor() * g / 8.0);
    let nch = dens.n_channels();
    let m = pi.n.max(pj.n).max(pk.n).max(pl.n);
    let mut blocks = scratch[..SCRATCH_BLOCKS * m * m].chunks_exact_mut(m * m);
    let [dij, dkl, dik, dil, djk, djl, jij, jkl, kik, kil, kjk, kjl, canon] =
        std::array::from_fn(|_| blocks.next().expect("one scratch block each"));
    dens.block(0, pi, pj, dij);
    dens.block(0, pk, pl, dkl);
    let n = [pi.n, pj.n, pk.n, pl.n];
    for ch in 0..nch {
        dens.block(1 + ch, pi, pk, dik);
        dens.block(1 + ch, pi, pl, dil);
        dens.block(1 + ch, pj, pk, djk);
        dens.block(1 + ch, pj, pl, djl);
        let dblk = [&*dij, &*dkl, &*dik, &*dil, &*djk, &*djl];
        let oblk = [&mut *jij, &mut *jkl, &mut *kik, &mut *kil, &mut *kjk, &mut *kjl];
        if ch == 0 {
            contract::<true>(x, n, dblk, oblk);
            emit(sink, 0..nch, pi, pj, jij, cj, canon);
            emit(sink, 0..nch, pk, pl, jkl, cj, canon);
        } else {
            contract::<false>(x, n, dblk, oblk);
        }
        emit(sink, ch..ch + 1, pi, pk, kik, ck, canon);
        emit(sink, ch..ch + 1, pi, pl, kil, ck, canon);
        emit(sink, ch..ch + 1, pj, pk, kjk, ck, canon);
        emit(sink, ch..ch + 1, pj, pl, kjl, ck, canon);
    }
}

/// Contract the ERI block `x` with the gathered density blocks
/// `[D_ij, D_kl, D_ik, D_il, D_jk, D_jl]` into
/// `[J_ij, J_kl, K_ik, K_il, K_jk, K_jl]`: `K_ik += X D_jl`,
/// `K_il += X D_jk`, `K_jk += X D_il`, `K_jl += X D_ik` and, with `J`,
/// `J_ij = X D_kl` and `J_kl += X D_ij`, the accumulated blocks zeroed
/// first over their extents only.
#[inline(always)]
fn contract<const J: bool>(
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
    if J {
        jkl[..nkl].fill(0.0);
    }
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
                if J {
                    s_j += v * dkl_c[dd];
                    jkl_c[dd] += v * d_ab;
                }
                s_ik += v * djl_b[dd];
                s_jk += v * dil_a[dd];
                kil_a[dd] += v * d_jk;
                kjl_b[dd] += v * d_ik;
            }
            j_ab += s_j;
            kik[a * nk + c] += s_ik;
            kjk[b * nk + c] += s_jk;
        }
        if J {
            jij[ab] = j_ab;
        }
    }
}

/// Scale result block `b` over shells `(p, q)` by `c`, lay it on the
/// canonical triangle in `canon` (transposed when `p` precedes `q`, folded
/// `c (B + Bᵀ)` when they coincide) and add it to every channel in `chs`.
#[inline(always)]
fn emit<S: ChannelSink + ?Sized>(
    sink: &mut S,
    chs: std::ops::Range<usize>,
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
    let blk = Block { rows, cols, vals: canon };
    for ch in chs {
        sink.add_block(ch, &blk);
    }
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
    let mut dens = ReplicatedDensity::restricted(d);
    digest(basis, si, sj, sk, sl, quartet, &mut dens, std::slice::from_mut(sink));
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

    /// Brute-force reference: build G (the two-electron Fock contribution)
    /// from the full AO ERI tensor with no symmetry exploitation. O(N^4)
    /// memory and quartet evaluations — tests only.
    fn brute_force_g(basis: &BasisSet, d: &Mat) -> Mat {
        let eri = crate::mp2::EriTensor::compute_ao(basis);
        let n = eri.n();
        let mut g = Mat::zeros(n, n);
        for mu in 0..n {
            for nu in 0..n {
                for lam in 0..n {
                    for sig in 0..n {
                        let x = eri.get(mu, nu, lam, sig);
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

    /// A UHF pair beside `d`: `(beta, alpha + beta)` with `alpha = d`.
    fn beta_and_total(d: &Mat) -> (Mat, Mat) {
        let n = d.rows();
        let beta = Mat::from_fn(n, n, |p, q| 0.6 * d[(p, q)] - 0.01 * (p + q) as f64);
        let total = d.add(&beta);
        (beta, total)
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
    /// adds canonical updates to the lower-triangle buffers `out` one
    /// element at a time.
    fn orbit_walk<const NCH: usize>(
        b: &BasisSet,
        q: [usize; 4],
        eri: &[f64],
        dens: &ReplicatedDensity<'_, NCH>,
        out: &mut [Vec<f64>],
    ) {
        let n = b.n_basis();
        let kf = dens.k_factor();
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
                            for (ch, out) in out.iter_mut().enumerate() {
                                if p >= q {
                                    out[p * n + q] += dens.coulomb[(r, t)] * x;
                                }
                                if p >= r {
                                    out[p * n + r] += kf * x * dens.exchange[ch][(q, t)];
                                }
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

    /// The block digester over every canonical quartet of `b` against the
    /// orbit walk, per channel.
    fn assert_digest_matches_the_orbit_walk<const NCH: usize>(
        b: &BasisSet,
        quartets: &[[usize; 4]],
        eris: &[Vec<f64>],
        mut dens: ReplicatedDensity<'_, NCH>,
    ) {
        let n = b.n_basis();
        let mut got = matrix::ReplicatedFock::new(NCH, n);
        let mut want = vec![vec![0.0; n * n]; NCH];
        for (&[i, j, k, l], eri) in quartets.iter().zip(eris) {
            digest(b, i, j, k, l, eri, &mut dens, &mut got);
            orbit_walk(b, [i, j, k, l], eri, &dens, &mut want);
        }
        for (ch, (got, want)) in got.into_mats().iter().zip(&want).enumerate() {
            assert_close(&format!("channel {ch}"), got, &tri_to_full(want, n), 1e-12);
        }
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
        let d = test_density(b.n_basis());
        assert_digest_matches_the_orbit_walk(
            &b,
            &quartets,
            &eris,
            ReplicatedDensity::restricted(&d),
        );
        let (beta, total) = beta_and_total(&d);
        let uhf = ReplicatedDensity::unrestricted(&total, &d, &beta);
        assert_digest_matches_the_orbit_walk(&b, &quartets, &eris, uhf);
    }

    /// The ordered brute-force expansion of one shell quartet: every
    /// ordered function tuple of its orbit — the images of the whole ERI
    /// buffer under the eight index permutations, duplicates dropped —
    /// adds `F_ab += D_ce X` and `F_ac += k X D_be` to full matrices.
    fn ordered_expansion<const NCH: usize>(
        b: &BasisSet,
        q: [usize; 4],
        eri: &[f64],
        dens: &ReplicatedDensity<'_, NCH>,
    ) -> Vec<Mat> {
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
        let mut f = vec![Mat::zeros(n, n); NCH];
        for (&(p, q, r, t), &x) in &tuples {
            for (ch, f) in f.iter_mut().enumerate() {
                f[(p, q)] += dens.coulomb[(r, t)] * x;
                f[(p, r)] += dens.k_factor() * x * dens.exchange[ch][(q, t)];
            }
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
    fn assert_every_backend_matches<const NCH: usize>(
        b: &BasisSet,
        q: [usize; 4],
        eri: &[f64],
        dens: ReplicatedDensity<'_, NCH>,
        want: &[Mat],
    ) {
        let (n, w) = (b.n_basis(), b.max_shell_width());
        let [i, j, k, l] = q;
        let d_wins = matrix::scatter_density(&dens, n, 2);
        for reader in ["replicated", "shard"] {
            let (mut replicated, mut shard) = (dens, matrix::ShardDensity::new(&d_wins, n, 0));
            let dr: &mut dyn DensityRead =
                if reader == "replicated" { &mut replicated } else { &mut shard };
            let check = |writer: &str, got: &[Mat]| {
                for (ch, (got, want)) in got.iter().zip(want).enumerate() {
                    let label = format!("{q:?} {reader} -> {writer}, channel {ch}");
                    assert_close(&label, got, want, 1e-14);
                }
            };

            let mut fock = matrix::ReplicatedFock::new(NCH, n);
            digest(b, i, j, k, l, eri, dr, &mut fock);
            check("ReplicatedFock", &fock.into_mats());

            let mut fock = matrix::ReplicatedFock::new(NCH, n);
            let mut strips = vec![0.0; 2 * NCH * w * n];
            let (fi, fj) = strips.split_at_mut(NCH * w * n);
            let (mut fis, mut fjs) = (fi.chunks_mut(w * n), fj.chunks_mut(w * n));
            let mut router = matrix::StripRouter::<_, NCH> {
                fi: std::array::from_fn(|_| fis.next().expect("one FI strip per channel")),
                fj: std::array::from_fn(|_| fjs.next().expect("one FJ strip per channel")),
                kl: &mut fock,
                n,
                i: Span::of(&b.shells[i]),
                j: Span::of(&b.shells[j]),
            };
            digest(b, i, j, k, l, eri, dr, &mut router);
            let (fi, fj) = strips.split_at_mut(NCH * w * n);
            for (ch, (fi, fj)) in fi.chunks_mut(w * n).zip(fj.chunks_mut(w * n)).enumerate() {
                for (strip, s) in [(fi, i), (fj, j)] {
                    let lo = b.shells[s].first_bf;
                    matrix::drain_strip(strip, lo, n, |mu, nu, v| {
                        fock.add_block(ch, &unit(mu, nu, &v))
                    });
                }
            }
            check("StripRouter", &fock.into_mats());

            let f_wins: Vec<phi_dmpi::DistributedArray> =
                (0..NCH).map(|_| phi_dmpi::DistributedArray::new(matrix::tri_len(n), 1)).collect();
            let mut fock = matrix::RowShardFock::new(&f_wins, n, 0);
            digest(b, i, j, k, l, eri, dr, &mut fock);
            fock.flush();
            check(
                "RowShardFock",
                &f_wins.iter().map(|w| matrix::gather_tri(w, n)).collect::<Vec<_>>(),
            );
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
        let (beta, total) = beta_and_total(&d);
        for (&q, eri) in patterns.iter().zip(&eris) {
            let rhf = ReplicatedDensity::restricted(&d);
            assert_every_backend_matches(&b, q, eri, rhf, &ordered_expansion(&b, q, eri, &rhf));
            let uhf = ReplicatedDensity::unrestricted(&total, &d, &beta);
            assert_every_backend_matches(&b, q, eri, uhf, &ordered_expansion(&b, q, eri, &uhf));
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
