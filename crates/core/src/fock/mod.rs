//! Two-electron Fock matrix construction.
//!
//! Shared machinery lives here: the canonical shell-quartet enumeration and
//! the *digestion* of one computed quartet into Fock matrix updates — the
//! paper's equations (2a)–(2f). Every algorithm then differs only in how
//! quartets are distributed over ranks/threads and where updates land,
//! which is exactly the paper's framing.
//!
//! Digestion works on the ordered-orbit principle: a unique integral
//! `(ij|kl)` stands for up to eight ordered index tuples; each distinct
//! ordered tuple `(a,b,c,d)` contributes a Coulomb update
//! `F_ab += D_cd * X` and an exchange update `F_ac -= X/2 * D_bd`
//! (closed-shell RHF). Only canonical (`row >= col`) updates are emitted —
//! mirror updates are redundant by symmetry — matching GAMESS's triangular
//! Fock storage.
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
use phi_chem::BasisSet;
use phi_linalg::Mat;

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
    /// Wrap a restricted (single-channel) result.
    pub fn restricted(g: Mat, stats: FockBuildStats) -> GBuild {
        GBuild { g, g_beta: None, stats }
    }

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

/// Read side of digestion: where density elements come from. Implemented
/// by [`ReplicatedDensity`] (full matrices on this rank) and
/// [`matrix::ShardDensity`] (tri-packed DDI row shards).
pub trait DensityRead {
    /// Spin output channels this density feeds (1 restricted, 2
    /// unrestricted).
    fn n_channels(&self) -> usize;
    /// Exchange scale: RHF digests `-X/2 * D`, UHF `-X * D_s`.
    fn k_factor(&self) -> f64;
    /// Coulomb-source element (`D` restricted, `D_alpha + D_beta` UHF).
    fn coulomb(&mut self, p: usize, q: usize) -> f64;
    /// Exchange-source element for spin channel `ch`.
    fn exchange(&mut self, ch: usize, p: usize, q: usize) -> f64;
}

/// Write side of digestion: canonical updates `F_ch[mu, nu] += v`
/// (`mu >= nu` always), one destination per spin channel.
pub trait ChannelSink {
    fn add(&mut self, ch: usize, mu: usize, nu: usize, v: f64);
}

/// One single-matrix sink per spin channel.
impl<S: FockSink> ChannelSink for [S] {
    #[inline]
    fn add(&mut self, ch: usize, mu: usize, nu: usize, v: f64) {
        self[ch].add(mu, nu, v);
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

    #[inline]
    fn coulomb(&mut self, p: usize, q: usize) -> f64 {
        self.coulomb[(p, q)]
    }

    #[inline]
    fn exchange(&mut self, ch: usize, p: usize, q: usize) -> f64 {
        self.exchange[ch][(p, q)]
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

/// Digest one *canonical* shell quartet `(si sj | sk sl)` (shell indices
/// `si >= sj`, `sk >= sl`, `pair(si,sj) >= pair(sk,sl)`) into every spin
/// channel: per unique integral, Coulomb `F_ch[ab] += D_J[ce] * X` and
/// exchange `F_ch[ac] += k * X * D_ch[be]`.
///
/// `quartet` is the ERI buffer laid out `[n_i][n_j][n_k][n_l]`. The one
/// digester of the crate: every builder, replicated or sharded, RHF or
/// UHF, is an instantiation of it.
#[allow(clippy::too_many_arguments)]
pub fn digest<D: DensityRead, S: ChannelSink + ?Sized>(
    basis: &BasisSet,
    si: usize,
    sj: usize,
    sk: usize,
    sl: usize,
    quartet: &[f64],
    dens: &mut D,
    sink: &mut S,
) {
    let sh_i = &basis.shells[si];
    let sh_j = &basis.shells[sj];
    let sh_k = &basis.shells[sk];
    let sh_l = &basis.shells[sl];
    let (ni, nj, nk, nl) =
        (sh_i.n_functions(), sh_j.n_functions(), sh_k.n_functions(), sh_l.n_functions());
    let (fi, fj, fk, fl) = (sh_i.first_bf, sh_j.first_bf, sh_k.first_bf, sh_l.first_bf);
    let same_ij = si == sj;
    let same_kl = sk == sl;
    let same_pair = si == sk && sj == sl;

    for a in 0..ni {
        let mu = fi + a;
        let b_hi = if same_ij { a + 1 } else { nj };
        for b in 0..b_hi {
            let nu = fj + b;
            let munu = mu * (mu + 1) / 2 + nu;
            for c in 0..nk {
                let lam = fk + c;
                let d_hi = if same_kl { c + 1 } else { nl };
                for dd in 0..d_hi {
                    let sig = fl + dd;
                    if same_pair && lam * (lam + 1) / 2 + sig > munu {
                        continue;
                    }
                    let x = quartet[((a * nj + b) * nk + c) * nl + dd];
                    if x == 0.0 {
                        continue;
                    }
                    digest_value(mu, nu, lam, sig, x, dens, sink);
                }
            }
        }
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

/// Apply the updates of one unique integral value over its ordered orbit.
#[inline]
pub fn digest_value<D: DensityRead, S: ChannelSink + ?Sized>(
    mu: usize,
    nu: usize,
    lam: usize,
    sig: usize,
    x: f64,
    dens: &mut D,
    sink: &mut S,
) {
    let nch = dens.n_channels();
    let kf = dens.k_factor();
    // The eight ordered representatives of the orbit.
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
    for (idx, &(a, b, c, e)) in orbit.iter().enumerate() {
        // Skip duplicates arising from index coincidences.
        if orbit[..idx].contains(&(a, b, c, e)) {
            continue;
        }
        // Coulomb: F_ab += D_ce * X  (canonical emission only).
        if a >= b {
            let j = dens.coulomb(c, e) * x;
            for ch in 0..nch {
                sink.add(ch, a, b, j);
            }
        }
        // Exchange: F_ac += k * X * D_be (canonical emission only).
        if a >= c {
            for ch in 0..nch {
                sink.add(ch, a, c, kf * x * dens.exchange(ch, b, e));
            }
        }
    }
}

/// Reference-only variant of [`digest_value`] with separate Coulomb and
/// exchange scale factors over one matrix: `(cj, ck) = (1, -1/2)` is the
/// RHF digestion, `(1, 0)` pure Coulomb, `(0, -1)` gives `-K` — the
/// three-pass UHF recombination the single-pass digestion is tested
/// against.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn digest_value_scaled(
    mu: usize,
    nu: usize,
    lam: usize,
    sig: usize,
    x: f64,
    d: &Mat,
    cj: f64,
    ck: f64,
    sink: &mut impl FockSink,
) {
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
    for (idx, &(a, b, c, e)) in orbit.iter().enumerate() {
        if orbit[..idx].contains(&(a, b, c, e)) {
            continue;
        }
        if cj != 0.0 && a >= b {
            sink.add(a, b, cj * d[(c, e)] * x);
        }
        if ck != 0.0 && a >= c {
            sink.add(a, c, ck * x * d[(b, e)]);
        }
    }
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

/// Inverse of [`phi_integrals::screening::pair_index`]: recover `(i, j)`
/// from a combined `ij` task index
/// (Algorithm 3 lines 11 and 21, "deduce I and J indices").
#[inline]
pub fn pair_decode(t: usize) -> (usize, usize) {
    let mut i = ((((8 * t + 1) as f64).sqrt() as usize).max(1) - 1) / 2;
    while (i + 1) * (i + 2) / 2 <= t {
        i += 1;
    }
    while i * (i + 1) / 2 > t {
        i -= 1;
    }
    (i, t - i * (i + 1) / 2)
}

/// Brute-force reference: build G (the two-electron Fock contribution)
/// from the full AO ERI tensor with no symmetry exploitation. O(N^4)
/// memory and quartet evaluations — tests only.
pub fn brute_force_g(basis: &BasisSet, d: &Mat) -> Mat {
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

#[cfg(test)]
mod tests {
    use super::engine::FockData;
    use super::*;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_integrals::screening::pair_index;

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
                got.max_abs_diff(&want) < 1e-10,
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
        assert!(got.max_abs_diff(&want) < 1e-9, "differs by {}", got.max_abs_diff(&want));
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

    #[test]
    fn orbit_dedup_handles_all_coincidence_patterns() {
        // Exercise digest_value on every index-coincidence pattern and
        // compare against an equivalent brute-force ordered expansion.
        let n = 4;
        let d = test_density(n);
        let cases = [
            (3, 2, 1, 0), // all distinct
            (2, 2, 1, 0), // i == j
            (3, 2, 1, 1), // k == l
            (2, 2, 1, 1), // both diagonal
            (3, 2, 3, 2), // pair equality
            (2, 2, 2, 2), // fully diagonal
            (3, 1, 3, 1),
        ];
        for (mu, nu, lam, sig) in cases {
            let x = 0.7;
            let mut got = vec![0.0; n * n];
            {
                let mut sink = TriSink { buf: &mut got, n };
                let mut dens = ReplicatedDensity::restricted(&d);
                digest_value(mu, nu, lam, sig, x, &mut dens, std::slice::from_mut(&mut sink));
            }
            // Reference: enumerate the orbit as a set, apply full updates.
            let mut orbit = vec![
                (mu, nu, lam, sig),
                (nu, mu, lam, sig),
                (mu, nu, sig, lam),
                (nu, mu, sig, lam),
                (lam, sig, mu, nu),
                (sig, lam, mu, nu),
                (lam, sig, nu, mu),
                (sig, lam, nu, mu),
            ];
            orbit.sort_unstable();
            orbit.dedup();
            let mut want_full = Mat::zeros(n, n);
            for &(a, b, c, e) in &orbit {
                want_full[(a, b)] += d[(c, e)] * x;
                want_full[(a, c)] -= 0.5 * x * d[(b, e)];
            }
            // Compare lower triangles (the sink only receives canonical).
            for r in 0..n {
                for c in 0..=r {
                    assert!(
                        (got[r * n + c] - want_full[(r, c)]).abs() < 1e-13,
                        "case {:?} element ({r},{c}): {} vs {}",
                        (mu, nu, lam, sig),
                        got[r * n + c],
                        want_full[(r, c)]
                    );
                }
            }
        }
    }

    #[test]
    fn pair_encode_decode_roundtrip() {
        let mut t = 0;
        for i in 0..60 {
            for j in 0..=i {
                assert_eq!(pair_index(i, j), t);
                assert_eq!(pair_decode(t), (i, j));
                t += 1;
            }
        }
        // A large index as well.
        let big = pair_index(8063, 4000);
        assert_eq!(pair_decode(big), (8063, 4000));
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
