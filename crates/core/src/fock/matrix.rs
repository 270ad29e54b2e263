//! Distribution-aware matrix layer: how builders *read* density and
//! *write* Fock contributions, independent of where the matrices live.
//!
//! The read side is the [`DensityRead`] trait, the write side
//! [`ChannelSink`]; the one digester (`fock::digest`) is generic over
//! both. Each has two backends:
//!
//! * **Replicated** — the matrices exist in full on every rank:
//!   [`super::ReplicatedDensity`] reads them and [`ReplicatedFock`] owns
//!   the per-channel lower-triangle accumulation buffers the serial,
//!   MPI-only and private-Fock builds digest into.
//! * **RowShard** — the matrices live in tri-packed row shards inside
//!   [`phi_dmpi::DistributedArray`] windows, striped over ranks.
//!   [`ShardDensity`] reads rows on demand through `get` with a bounded
//!   row cache behind a direct `(window, row)` slot index;
//!   [`RowShardFock`] buffers contributions sparsely and flushes them as
//!   coalesced `acc` runs. Per rank that costs the owned window stripes
//!   ([`shard_stripe_bytes`]) plus O(N) state: [`shard_reader_bytes`]
//!   for the reader, [`shard_writer_bytes`] for the writer.
//!
//! The two window builds (`fock::sharded`) share the RowShard writer and
//! differ only in the reader: `Sharded` reads through [`ShardDensity`], so
//! no rank ever materializes a full `N x N` matrix; `Distributed` reads its
//! replicated density ([`replicated_density_bytes`]).
//!
//! Between the digester and a Fock backend can sit Algorithm 3's
//! accumulator, `StripRouter`: per task `(i, j)`, updates touching shell
//! `i` or `j` collect in dense FI/FJ strips and a quartet's `(k, l)`
//! Coulomb block in a small scratch, so the backend sees one write per
//! strip element per task and one per block element per quartet instead
//! of up to sixteen per unique integral. The shared-Fock build drains it
//! into a `SharedAccumulator`, the window builds into [`RowShardFock`].
//!
//! The tri-packed layout stores the lower triangle row-major:
//! element `(p, q)` with `p >= q` lives at `p (p + 1) / 2 + q`, so one
//! matrix costs `N (N + 1) / 2` words total across all ranks instead of
//! `N^2` words *per* rank.

use super::{ChannelSink, DensityRead, FockSink, ReplicatedDensity};
use phi_chem::Shell;
use phi_dmpi::DistributedArray;
use phi_linalg::Mat;
use std::collections::VecDeque;
use std::mem::size_of;

/// Length of a tri-packed lower triangle of an `n x n` symmetric matrix.
#[inline]
pub fn tri_len(n: usize) -> usize {
    n * (n + 1) / 2
}

/// Tri-packed index of element `(p, q)`, `p >= q`.
#[inline]
pub fn tri_index(p: usize, q: usize) -> usize {
    debug_assert!(p >= q);
    p * (p + 1) / 2 + q
}

/// Row-cache capacity in *elements* for the sharded density reader.
/// O(N): big enough to keep the bra rows plus the sweeping ket rows of a
/// task hot, small enough that it never approaches a replicated matrix.
pub fn shard_cache_elems(n: usize) -> usize {
    (16 * n).max(1024)
}

/// Pending-entry capacity of the sharded Fock write buffer. Each entry is
/// 16 bytes (packed index + value); O(N) total.
pub fn shard_flush_entries(n: usize) -> usize {
    (8 * n).max(512)
}

/// Density matrices a build of `nch` spin channels reads: `D` restricted;
/// `D_total`, `D_alpha`, `D_beta` unrestricted.
fn density_matrices(nch: usize) -> usize {
    if nch == 1 {
        1
    } else {
        1 + nch
    }
}

/// Bytes of one rank's stripe of `n_windows` tri-packed windows over
/// `n_ranks` ranks.
pub fn shard_stripe_bytes(n: usize, n_ranks: usize, n_windows: usize) -> usize {
    n_windows * tri_len(n).div_ceil(n_ranks.max(1)) * size_of::<f64>()
}

/// Bytes of one rank's [`ShardDensity`] over `n` functions and `nch` spin
/// channels: the row cache and its slot index (one slot per density-window
/// row). O(N).
pub fn shard_reader_bytes(n: usize, nch: usize) -> usize {
    shard_cache_elems(n) * size_of::<f64>() + density_matrices(nch) * n * size_of::<Vec<f64>>()
}

/// Bytes of a whole replicated density set of `nch` spin channels over `n`
/// functions: the reader of the distributed window build.
pub fn replicated_density_bytes(n: usize, nch: usize) -> usize {
    density_matrices(nch) * n * n * size_of::<f64>()
}

/// Bytes of one rank's window writer over `n` functions, widest shell
/// `max_width`, `nch` spin channels: the pending `acc` buffer, and per
/// channel the FI and FJ strips (`max_width x n` each) and the `(k, l)`
/// scratch (`max_width^2`). O(N): nothing here is a matrix.
///
/// A window build charges its reader's bytes, its Fock stripes and exactly
/// this; `MemoryModel::per_rank_bytes` prices the restricted rows with the
/// same functions.
pub fn shard_writer_bytes(n: usize, max_width: usize, nch: usize) -> usize {
    let pending = shard_flush_entries(n) * size_of::<(u64, f64)>();
    let accumulator = nch * (2 * max_width * n + max_width * max_width) * size_of::<f64>();
    pending + accumulator
}

// ---------------------------------------------------------------------
// Replicated backend (write side)
// ---------------------------------------------------------------------

/// The replicated write-side backend: per-channel lower-triangle
/// accumulation buffers (channel-major) owned in full by one rank or one
/// thread.
pub struct ReplicatedFock {
    bufs: Vec<f64>,
    n: usize,
}

impl ReplicatedFock {
    pub fn new(nch: usize, n: usize) -> ReplicatedFock {
        ReplicatedFock { bufs: vec![0.0; nch * n * n], n }
    }

    /// Wrap an existing channel-major lower-triangle buffer (e.g. the
    /// snapshot a `gsumf` reduction produced) in the replicated backend.
    pub fn from_raw(bufs: Vec<f64>, nch: usize, n: usize) -> ReplicatedFock {
        debug_assert_eq!(bufs.len(), nch * n * n);
        ReplicatedFock { bufs, n }
    }

    /// The raw channel-major accumulation buffer (e.g. for `gsumf`).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.bufs
    }

    /// Sum another replica into this one (the OpenMP
    /// `reduction(+ : Fock)` step of Algorithm 2).
    pub fn reduce_from(&mut self, other: &ReplicatedFock) {
        debug_assert_eq!(self.bufs.len(), other.bufs.len());
        for (dst, src) in self.bufs.iter_mut().zip(&other.bufs) {
            *dst += src;
        }
    }

    /// Mirror each channel's lower triangle into a full symmetric matrix.
    pub fn into_mats(self) -> Vec<Mat> {
        let n = self.n;
        self.bufs.chunks(n * n).map(|b| super::tri_to_full(b, n)).collect()
    }
}

impl ChannelSink for ReplicatedFock {
    #[inline]
    fn add(&mut self, ch: usize, mu: usize, nu: usize, v: f64) {
        debug_assert!(mu >= nu);
        self.bufs[(ch * self.n + mu) * self.n + nu] += v;
    }
}

// ---------------------------------------------------------------------
// RowShard backend (read side)
// ---------------------------------------------------------------------

/// Scatter a density into tri-packed DDI windows, striped over
/// `n_ranks`. Restricted input yields one window (`D`); unrestricted
/// input yields three (`D_total`, `D_alpha`, `D_beta`) so Coulomb and
/// per-spin exchange reads each have a home. Runs on the driver before
/// the world starts; the windows outlive rank deaths.
pub fn scatter_density<const NCH: usize>(
    dens: &ReplicatedDensity<'_, NCH>,
    n: usize,
    n_ranks: usize,
) -> Vec<DistributedArray> {
    let pack = |m: &Mat| {
        let mut buf = vec![0.0; tri_len(n)];
        for p in 0..n {
            for q in 0..=p {
                buf[tri_index(p, q)] = m[(p, q)];
            }
        }
        let win = DistributedArray::new(tri_len(n), n_ranks);
        win.put(0, 0, &buf);
        win
    };
    let mut wins = vec![pack(dens.coulomb)];
    if NCH > 1 {
        wins.extend(dens.exchange.iter().map(|m| pack(m)));
    }
    wins
}

/// Gather a tri-packed Fock window back into a full symmetric matrix
/// (driver side, after the world has finished accumulating).
pub fn gather_tri(win: &DistributedArray, n: usize) -> Mat {
    let mut buf = vec![0.0; tri_len(n)];
    win.get(0, 0, &mut buf);
    let mut m = Mat::zeros(n, n);
    for p in 0..n {
        for q in 0..=p {
            let v = buf[tri_index(p, q)];
            m[(p, q)] = v;
            m[(q, p)] = v;
        }
    }
    m
}

/// Read side of the RowShard backend: on-demand tri-packed row fetches
/// from the density windows with a bounded FIFO row cache.
///
/// Window 0 is the Coulomb source (`D` restricted, `D_total` UHF);
/// windows `1..` are the per-spin exchange densities of a UHF build.
pub struct ShardDensity<'a> {
    wins: &'a [DistributedArray],
    rank: usize,
    n: usize,
    /// Direct slot index: `rows[window * n + row]` holds that row's values
    /// `[row*(row+1)/2 .. +row+1)` while it is cached and is empty
    /// otherwise, so a hit is one index and one length test.
    rows: Vec<Vec<f64>>,
    /// FIFO eviction order of cached slots.
    order: VecDeque<usize>,
    /// Elements currently cached / capacity in elements.
    cached_elems: usize,
    cap_elems: usize,
}

impl<'a> ShardDensity<'a> {
    pub fn new(wins: &'a [DistributedArray], n: usize, rank: usize) -> ShardDensity<'a> {
        ShardDensity {
            wins,
            rank,
            n,
            rows: vec![Vec::new(); wins.len() * n],
            order: VecDeque::new(),
            cached_elems: 0,
            cap_elems: shard_cache_elems(n),
        }
    }

    #[inline]
    fn row(&mut self, win: usize, r: usize) -> &[f64] {
        let slot = win * self.n + r;
        if self.rows[slot].is_empty() {
            self.fetch(slot, r);
        }
        &self.rows[slot]
    }

    /// Fetch row `r` into `slot`, evicting the oldest rows past capacity
    /// (a single row larger than the capacity is cached anyway).
    #[cold]
    fn fetch(&mut self, slot: usize, r: usize) {
        let mut buf = Vec::new();
        while self.cached_elems + r + 1 > self.cap_elems {
            let Some(old) = self.order.pop_front() else { break };
            buf = std::mem::take(&mut self.rows[old]);
            self.cached_elems -= buf.len();
        }
        buf.clear();
        buf.resize(r + 1, 0.0);
        self.wins[slot / self.n].get(self.rank, tri_index(r, 0), &mut buf);
        self.cached_elems += r + 1;
        self.rows[slot] = buf;
        self.order.push_back(slot);
    }

    /// Symmetric element read from window `win`.
    #[inline]
    fn value(&mut self, win: usize, p: usize, q: usize) -> f64 {
        let (r, c) = if p >= q { (p, q) } else { (q, p) };
        self.row(win, r)[c]
    }
}

impl DensityRead for ShardDensity<'_> {
    fn n_channels(&self) -> usize {
        if self.wins.len() == 1 {
            1
        } else {
            2
        }
    }

    fn k_factor(&self) -> f64 {
        if self.wins.len() == 1 {
            -0.5
        } else {
            -1.0
        }
    }

    fn coulomb(&mut self, p: usize, q: usize) -> f64 {
        self.value(0, p, q)
    }

    fn exchange(&mut self, ch: usize, p: usize, q: usize) -> f64 {
        let win = if self.wins.len() == 1 { 0 } else { 1 + ch };
        self.value(win, p, q)
    }
}

// ---------------------------------------------------------------------
// RowShard backend (write side)
// ---------------------------------------------------------------------

/// Write side of the RowShard backend: contributions are buffered as
/// sparse `(channel, tri index, value)` entries and flushed as coalesced
/// one-sided `acc` runs into the tri-packed Fock windows.
///
/// The buffer never holds more than [`shard_flush_entries`] entries: the
/// entry that fills it triggers a flush.
///
/// Durability contract (the PR 3 fault model): a kill can only fire at a
/// lease claim, i.e. *between* tasks. Under fault injection the driver's
/// `LeaseLoop` has every thread that holds one of these run `Step::Flush`
/// after each task, and the team pass a barrier, before the master
/// completes the lease at its next claim (flush-then-complete under
/// durable leases). So a dead rank never strands completed work, and
/// capacity-triggered flushes mid-task are safe in every mode.
pub struct RowShardFock<'a> {
    wins: &'a [DistributedArray],
    rank: usize,
    /// Packed key: `channel << 48 | tri index`.
    pending: Vec<(u64, f64)>,
    cap: usize,
    /// One-sided `acc` runs issued so far.
    pub flushes: u64,
}

impl<'a> RowShardFock<'a> {
    pub fn new(wins: &'a [DistributedArray], n: usize, rank: usize) -> RowShardFock<'a> {
        let cap = shard_flush_entries(n);
        RowShardFock { wins, rank, pending: Vec::with_capacity(cap), cap, flushes: 0 }
    }

    /// Sort, merge and accumulate every pending entry into the windows as
    /// contiguous runs, then clear the buffer.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let _span = phi_trace::span("fock.flush_scatter");
        self.pending.sort_unstable_by_key(|&(k, _)| k);
        let mut run_start_key = self.pending[0].0;
        let mut run: Vec<f64> = Vec::new();
        let mut last_key = run_start_key;
        let mut acc = 0.0;
        let flush_run = |this_flushes: &mut u64,
                         wins: &[DistributedArray],
                         rank: usize,
                         start_key: u64,
                         vals: &[f64]| {
            let ch = (start_key >> 48) as usize;
            let lo = (start_key & 0xFFFF_FFFF_FFFF) as usize;
            wins[ch].acc(rank, lo, vals);
            *this_flushes += 1;
        };
        for &(key, v) in &self.pending {
            if key == last_key {
                acc += v;
                continue;
            }
            run.push(acc);
            if key != last_key + 1 || (key >> 48) != (last_key >> 48) {
                flush_run(&mut self.flushes, self.wins, self.rank, run_start_key, &run);
                run.clear();
                run_start_key = key;
            }
            last_key = key;
            acc = v;
        }
        run.push(acc);
        flush_run(&mut self.flushes, self.wins, self.rank, run_start_key, &run);
        self.pending.clear();
    }
}

impl ChannelSink for RowShardFock<'_> {
    #[inline]
    fn add(&mut self, ch: usize, mu: usize, nu: usize, v: f64) {
        debug_assert!(mu >= nu);
        self.pending.push((((ch as u64) << 48) | tri_index(mu, nu) as u64, v));
        if self.pending.len() == self.cap {
            self.flush();
        }
    }
}

// ---------------------------------------------------------------------
// Algorithm 3's accumulator
// ---------------------------------------------------------------------

/// Algorithm 3's accumulator routing (lines 25–27) for one spin channel
/// of one `(i, j)` task; the one router of the shared-Fock and window
/// builds.
///
/// A canonical update touching shell `i` goes to the FI strip, one
/// touching shell `j` (and not `i`) to FJ, and anything else — which can
/// only be the quartet's pure `(k, l)` Coulomb block — to a scratch that
/// leaves once per quartet through [`StripRouter::drain_kl`]. A strip is
/// `width x n`, slot `(mu - lo) * n + other` standing for the canonical
/// element [`strip_slot`] names; the owner drains it (the shared build by
/// padded tree reduction, the window builds by [`drain_strip`]).
pub(crate) struct StripRouter<'a> {
    fi: &'a mut [f64],
    fj: &'a mut [f64],
    /// The current quartet's `(k, l)` block, row-major `n_k x n_l` from
    /// (`k_lo`, `l_lo`); all zero between quartets.
    kl: &'a mut [f64],
    n: usize,
    i_lo: usize,
    i_hi: usize,
    j_lo: usize,
    j_hi: usize,
    k_lo: usize,
    l_lo: usize,
    n_l: usize,
}

impl<'a> StripRouter<'a> {
    pub(crate) fn new(
        fi: &'a mut [f64],
        fj: &'a mut [f64],
        kl: &'a mut [f64],
        n: usize,
        sh_i: &Shell,
        sh_j: &Shell,
    ) -> Self {
        StripRouter {
            fi,
            fj,
            kl,
            n,
            i_lo: sh_i.first_bf,
            i_hi: sh_i.first_bf + sh_i.n_functions(),
            j_lo: sh_j.first_bf,
            j_hi: sh_j.first_bf + sh_j.n_functions(),
            k_lo: 0,
            l_lo: 0,
            n_l: 0,
        }
    }

    /// Point the `(k, l)` scratch at the next quartet's block.
    #[inline]
    pub(crate) fn start_quartet(&mut self, sh_k: &Shell, sh_l: &Shell) {
        (self.k_lo, self.l_lo, self.n_l) = (sh_k.first_bf, sh_l.first_bf, sh_l.n_functions());
    }

    /// Hand the digested quartet's nonzero `(k, l)` block elements to
    /// `add(mu, nu, v)` and leave the scratch zeroed for the next quartet.
    #[inline]
    pub(crate) fn drain_kl(&mut self, n_k: usize, mut add: impl FnMut(usize, usize, f64)) {
        for (at, v) in self.kl[..n_k * self.n_l].iter_mut().enumerate() {
            if *v != 0.0 {
                add(self.k_lo + at / self.n_l, self.l_lo + at % self.n_l, std::mem::take(v));
            }
        }
    }
}

impl FockSink for StripRouter<'_> {
    #[inline]
    fn add(&mut self, mu: usize, nu: usize, v: f64) {
        debug_assert!(mu >= nu);
        if mu >= self.i_lo && mu < self.i_hi {
            self.fi[(mu - self.i_lo) * self.n + nu] += v;
        } else if nu >= self.i_lo && nu < self.i_hi {
            self.fi[(nu - self.i_lo) * self.n + mu] += v;
        } else if mu >= self.j_lo && mu < self.j_hi {
            self.fj[(mu - self.j_lo) * self.n + nu] += v;
        } else if nu >= self.j_lo && nu < self.j_hi {
            self.fj[(nu - self.j_lo) * self.n + mu] += v;
        } else {
            // Neither index in shell i or j: the Coulomb update of the
            // (k, l) block, mu in shell k and nu in shell l.
            self.kl[(mu - self.k_lo) * self.n_l + (nu - self.l_lo)] += v;
        }
    }
}

/// The canonical element `(mu, nu)`, `mu >= nu`, that slot `at` of a strip
/// over the shell whose first function is `lo` accumulates.
#[inline]
pub(crate) fn strip_slot(lo: usize, n: usize, at: usize) -> (usize, usize) {
    let (g, other) = (lo + at / n, at % n);
    if g >= other {
        (g, other)
    } else {
        (other, g)
    }
}

/// Hand every nonzero slot of `strip` (over the shell whose first function
/// is `lo`) to `add(mu, nu, v)` and zero it.
pub(crate) fn drain_strip(
    strip: &mut [f64],
    lo: usize,
    n: usize,
    mut add: impl FnMut(usize, usize, f64),
) {
    for (at, v) in strip.iter_mut().enumerate() {
        if *v != 0.0 {
            let (mu, nu) = strip_slot(lo, n, at);
            add(mu, nu, std::mem::take(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::driver::{Quartets, SignificantPairs};
    use crate::fock::engine::FockData;
    use crate::fock::DensitySet::Restricted;
    use crate::fock::{digest, FockAlgorithm};
    use phi_chem::basis::{BasisName, BasisSet};
    use phi_chem::geom::small;

    fn density(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.2 + ((i * 5 + j * 7) % 8) as f64 * 0.05
        })
    }

    /// Full serial quartet sweep of the generic digester over the given
    /// read and write backends.
    fn sweep(b: &BasisSet, dens: &mut impl DensityRead, sink: &mut impl ChannelSink) {
        let data = FockData::build(b);
        let ctx = data.context(b, 1e-14);
        let sig = SignificantPairs::new(ctx.screening, ctx.tau);
        let mut quartets = Quartets::new(&ctx, &sig);
        for i in 0..b.n_shells() {
            for j in 0..=i {
                quartets.pair_task(i, j, |k, l, eri| digest(b, i, j, k, l, eri, dens, sink));
            }
        }
    }

    /// The sweep over the replicated backends; returns per-channel `G`.
    fn replicated_sweep<const NCH: usize>(
        b: &BasisSet,
        mut dens: ReplicatedDensity<'_, NCH>,
    ) -> Vec<Mat> {
        let mut fock = ReplicatedFock::new(NCH, b.n_basis());
        sweep(b, &mut dens, &mut fock);
        fock.into_mats()
    }

    /// The sweep over the RowShard backends must land within 1e-12 of
    /// `want` in every channel.
    fn assert_rowshard_matches<const NCH: usize>(
        label: &str,
        b: &BasisSet,
        dens: ReplicatedDensity<'_, NCH>,
        want: &[Mat],
    ) {
        let n = b.n_basis();
        let d_wins = scatter_density(&dens, n, 3);
        let f_wins: Vec<DistributedArray> =
            (0..NCH).map(|_| DistributedArray::new(tri_len(n), 3)).collect();
        let mut fock = RowShardFock::new(&f_wins, n, 0);
        sweep(b, &mut ShardDensity::new(&d_wins, n, 0), &mut fock);
        fock.flush();
        for (ch, want_ch) in want.iter().enumerate() {
            let got = gather_tri(&f_wins[ch], n);
            assert!(
                got.max_abs_diff(want_ch) < 1e-12,
                "{label} ch {ch}: diff {}",
                got.max_abs_diff(want_ch)
            );
        }
    }

    #[test]
    fn replicated_backends_match_the_serial_builder() {
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let d = density(b.n_basis());
        let data = FockData::build(&b);
        let want =
            FockAlgorithm::Serial.builder().build(&data.context(&b, 1e-14), &Restricted(&d)).g;
        let mats = replicated_sweep(&b, ReplicatedDensity::restricted(&d));
        assert!(mats[0].max_abs_diff(&want) < 1e-12, "diff {}", mats[0].max_abs_diff(&want));
    }

    #[test]
    fn rowshard_backends_match_replicated_restricted_and_uhf() {
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let n = b.n_basis();
        let d_a = density(n);
        let mut d_b = density(n);
        d_b.scale(0.7);
        let restricted = ReplicatedDensity::restricted(&d_a);
        assert_rowshard_matches("restricted", &b, restricted, &replicated_sweep(&b, restricted));
        let total = d_a.add(&d_b);
        let unrestricted = ReplicatedDensity::unrestricted(&total, &d_a, &d_b);
        let want = replicated_sweep(&b, unrestricted);
        assert_rowshard_matches("unrestricted", &b, unrestricted, &want);
    }

    #[test]
    fn shard_density_cache_stays_bounded_and_reads_symmetric() {
        let n = 40;
        let d = density(n);
        let wins = scatter_density(&ReplicatedDensity::restricted(&d), n, 4);
        let mut reader = ShardDensity::new(&wins, n, 1);
        for p in 0..n {
            for q in 0..n {
                assert_eq!(reader.coulomb(p, q), d[(p, q)], "({p},{q})");
            }
        }
        assert!(reader.cached_elems <= reader.cap_elems.max(n));
        // The slot index: one slot per window row; exactly the FIFO's slots
        // are filled, each with its own full row.
        assert_eq!(reader.rows.len(), n);
        let filled: Vec<usize> = (0..n).filter(|&s| !reader.rows[s].is_empty()).collect();
        let mut queued: Vec<usize> = reader.order.iter().copied().collect();
        queued.sort_unstable();
        assert_eq!(filled, queued);
        assert!(filled.iter().all(|&r| reader.rows[r].len() == r + 1));
        let cached: usize = filled.iter().map(|&r| r + 1).sum();
        assert_eq!(cached, reader.cached_elems);
    }

    /// Every canonical update `digest` emits for canonical quartet
    /// `(i j|k l)`, as `(channel, mu, nu, value)`.
    struct Recorded(Vec<(usize, usize, usize, f64)>);

    impl ChannelSink for Recorded {
        fn add(&mut self, ch: usize, mu: usize, nu: usize, v: f64) {
            self.0.push((ch, mu, nu, v));
        }
    }

    /// The routing test over one density set: each update lands in exactly
    /// one of FI, FJ or the `(k, l)` block, at the slot that drains back to
    /// it, and the drained quartet equals the replicated digestion.
    fn assert_routes_once<const NCH: usize>(
        b: &BasisSet,
        mut dens: ReplicatedDensity<'_, NCH>,
        picks: &[(usize, usize, usize, usize)],
    ) {
        let (n, w) = (b.n_basis(), b.max_shell_width());
        let data = FockData::build(b);
        let ctx = data.context(b, 0.0);
        let sig = SignificantPairs::new(ctx.screening, ctx.tau);
        let mut quartets = Quartets::new(&ctx, &sig);
        let (mut fi, mut fj, mut kl) = (vec![0.0; n * w], vec![0.0; n * w], vec![0.0; w * w]);
        for &(i, j, k, l) in picks {
            let sh = |s: usize| &b.shells[s];
            quartets.quartet(i, j, k, l, |eri| {
                let mut updates = Recorded(Vec::new());
                digest(b, i, j, k, l, eri, &mut dens, &mut updates);
                let mut want = ReplicatedFock::new(NCH, n);
                for &(ch, mu, nu, v) in &updates.0 {
                    want.add(ch, mu, nu, v);
                }

                // Route a unit update for each; draining must hand back
                // exactly that one element and leave nothing behind.
                let mut r = StripRouter::new(&mut fi, &mut fj, &mut kl, n, sh(i), sh(j));
                r.start_quartet(sh(k), sh(l));
                for &(_, mu, nu, _) in &updates.0 {
                    r.add(mu, nu, 1.0);
                    let mut hits = Vec::new();
                    r.drain_kl(sh(k).n_functions(), |m, q, v| hits.push((m, q, v)));
                    drain_strip(&mut *r.fi, sh(i).first_bf, n, |m, q, v| hits.push((m, q, v)));
                    drain_strip(&mut *r.fj, sh(j).first_bf, n, |m, q, v| hits.push((m, q, v)));
                    assert_eq!(hits, [(mu, nu, 1.0)], "({i}{j}|{k}{l}) update ({mu}, {nu})");
                }
                assert!(fi.iter().chain(&fj).chain(&kl).all(|&v| v == 0.0));

                // Digest through one router per channel, as the builds do,
                // drain, and compare with the replicated sum.
                let mut strips: Vec<[Vec<f64>; 3]> = (0..NCH)
                    .map(|_| [vec![0.0; n * w], vec![0.0; n * w], vec![0.0; w * w]])
                    .collect();
                let mut got = ReplicatedFock::new(NCH, n);
                let mut sets = strips.iter_mut();
                let mut routers: [StripRouter<'_>; NCH] = std::array::from_fn(|_| {
                    let [fi, fj, kl] = sets.next().expect("one strip set per channel");
                    StripRouter::new(fi, fj, kl, n, sh(i), sh(j))
                });
                routers.iter_mut().for_each(|r| r.start_quartet(sh(k), sh(l)));
                digest(b, i, j, k, l, eri, &mut dens, routers.as_mut_slice());
                for (ch, r) in routers.iter_mut().enumerate() {
                    r.drain_kl(sh(k).n_functions(), |mu, nu, v| got.add(ch, mu, nu, v));
                }
                for (ch, [fi, fj, _]) in strips.iter_mut().enumerate() {
                    drain_strip(fi, sh(i).first_bf, n, |mu, nu, v| got.add(ch, mu, nu, v));
                    drain_strip(fj, sh(j).first_bf, n, |mu, nu, v| got.add(ch, mu, nu, v));
                }
                for (g, w) in got.bufs.iter().zip(&want.bufs) {
                    assert!((g - w).abs() <= 1e-14, "({i}{j}|{k}{l}): {g} vs {w}");
                }
            });
        }
    }

    #[test]
    fn strip_router_lands_every_update_once_rhf_and_uhf() {
        // Water/6-31G(d): s, SP and d shells. Seeded canonical quartets,
        // plus the coincidences that send the (k, l) block into FI or FJ.
        let b = BasisSet::build(&small::water(), BasisName::B631gd);
        let ns = b.n_shells();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |below: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % below
        };
        let mut picks =
            vec![(ns - 1, ns - 1, ns - 1, ns - 1), (ns - 1, 2, ns - 1, 2), (4, 2, 2, 1)];
        while picks.len() < 40 {
            let i = draw(ns);
            let (j, k) = (draw(i + 1), draw(i + 1));
            let l = draw(crate::fock::kl_bounds(i, j, k) + 1);
            picks.push((i, j, k, l));
        }
        let n = b.n_basis();
        let d_a = density(n);
        let mut d_b = density(n);
        d_b.scale(0.7);
        let total = d_a.add(&d_b);
        assert_routes_once(&b, ReplicatedDensity::restricted(&d_a), &picks);
        assert_routes_once(&b, ReplicatedDensity::unrestricted(&total, &d_a, &d_b), &picks);
    }

    #[test]
    fn rowshard_flush_merges_duplicates_and_coalesces_runs() {
        let n = 8;
        let wins = vec![DistributedArray::new(tri_len(n), 2)];
        let mut acc = RowShardFock::new(&wins, n, 0);
        acc.add(0, 3, 1, 2.0);
        acc.add(0, 3, 1, 0.5); // duplicate key: merged before the acc
        acc.add(0, 3, 2, 1.0); // adjacent: same run
        acc.add(0, 6, 0, 4.0); // separate run
        acc.flush();
        assert_eq!(acc.flushes, 2, "two coalesced runs");
        let m = gather_tri(&wins[0], n);
        assert_eq!(m[(3, 1)], 2.5);
        assert_eq!(m[(3, 2)], 1.0);
        assert_eq!(m[(6, 0)], 4.0);
        assert_eq!(m[(5, 5)], 0.0);
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let n = 17;
        let d = density(n);
        let wins = scatter_density(&ReplicatedDensity::restricted(&d), n, 5);
        assert_eq!(gather_tri(&wins[0], n).max_abs_diff(&d), 0.0);
    }
}
