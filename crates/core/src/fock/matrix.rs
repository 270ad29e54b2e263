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
//!   row cache; [`RowShardFock`] buffers contributions sparsely and
//!   flushes them as coalesced `acc` runs. No rank ever materializes a
//!   full `N x N` matrix — per-rank memory is the owned window stripes
//!   plus two O(N) caches.
//!
//! The tri-packed layout stores the lower triangle row-major:
//! element `(p, q)` with `p >= q` lives at `p (p + 1) / 2 + q`, so one
//! matrix costs `N (N + 1) / 2` words total across all ranks instead of
//! `N^2` words *per* rank.

use super::{ChannelSink, DensityRead, FockSink, ReplicatedDensity};
use phi_dmpi::{DdiMode, DistributedArray};
use phi_linalg::Mat;
use std::collections::{HashMap, VecDeque};

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
    mode: DdiMode,
) -> Vec<DistributedArray> {
    let pack = |m: &Mat| {
        let mut buf = vec![0.0; tri_len(n)];
        for p in 0..n {
            for q in 0..=p {
                buf[tri_index(p, q)] = m[(p, q)];
            }
        }
        let win = DistributedArray::new_with_mode(tri_len(n), n_ranks, mode);
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
    /// `(window, row) -> row values [row*(row+1)/2 .. +row+1)`.
    cache: HashMap<(u32, u32), Vec<f64>>,
    /// FIFO eviction order of cached rows.
    order: VecDeque<(u32, u32)>,
    /// Elements currently cached / capacity in elements.
    cached_elems: usize,
    cap_elems: usize,
}

impl<'a> ShardDensity<'a> {
    pub fn new(wins: &'a [DistributedArray], n: usize, rank: usize) -> ShardDensity<'a> {
        ShardDensity {
            wins,
            rank,
            cache: HashMap::new(),
            order: VecDeque::new(),
            cached_elems: 0,
            cap_elems: shard_cache_elems(n),
        }
    }

    fn row(&mut self, win: usize, r: usize) -> &[f64] {
        let key = (win as u32, r as u32);
        if !self.cache.contains_key(&key) {
            while self.cached_elems + r + 1 > self.cap_elems {
                match self.order.pop_front() {
                    Some(old) => {
                        if let Some(v) = self.cache.remove(&old) {
                            self.cached_elems -= v.len();
                        }
                    }
                    None => break, // single row larger than cap: cache it anyway
                }
            }
            let mut buf = vec![0.0; r + 1];
            self.wins[win].get(self.rank, tri_index(r, 0), &mut buf);
            self.cached_elems += buf.len();
            self.cache.insert(key, buf);
            self.order.push_back(key);
        }
        &self.cache[&key]
    }

    /// Symmetric element read from window `win`.
    fn value(&mut self, win: usize, p: usize, q: usize) -> f64 {
        let (r, c) = if p >= q { (p, q) } else { (q, p) };
        self.row(win, r)[c]
    }

    /// Bytes of bounded per-rank state (the row cache at capacity).
    pub fn budget_bytes(n: usize) -> usize {
        shard_cache_elems(n) * std::mem::size_of::<f64>()
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
/// Durability contract (the PR 3 fault model): a kill can only fire at a
/// lease claim, i.e. *between* tasks — so as long as the lease loop
/// flushes before completing each task (flush-then-complete, like the
/// distributed builder), a dead rank never strands completed work, and
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

    /// Whether the pending buffer has reached its capacity.
    pub fn full(&self) -> bool {
        self.pending.len() >= self.cap
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

    /// Bytes of bounded per-rank state (the pending buffer at capacity).
    pub fn budget_bytes(n: usize) -> usize {
        shard_flush_entries(n) * std::mem::size_of::<(u64, f64)>()
    }
}

impl ChannelSink for RowShardFock<'_> {
    #[inline]
    fn add(&mut self, ch: usize, mu: usize, nu: usize, v: f64) {
        debug_assert!(mu >= nu);
        self.pending.push((((ch as u64) << 48) | tri_index(mu, nu) as u64, v));
    }
}

/// Row-buffer write backend of the *distributed* builder (N x N Fock
/// striped over ranks, full local scatter buffer): canonical updates land
/// in a row-major lower-triangle buffer, flushed as whole touched rows.
/// Predates the sparse [`RowShardFock`]; kept for the builder that
/// deliberately trades a full local buffer for fewer `acc` calls.
pub struct RowBufferFock {
    /// Lower-triangular accumulation for the rows this rank touched.
    pub buf: Vec<f64>,
    pub touched: Vec<bool>,
    pub n: usize,
}

impl RowBufferFock {
    pub fn new(n: usize) -> RowBufferFock {
        RowBufferFock { buf: vec![0.0; n * n], touched: vec![false; n], n }
    }

    /// Flush every touched row into the distributed array and clear it;
    /// returns the number of row segments accumulated.
    pub fn flush_rows(&mut self, fock: &DistributedArray, rank: usize) -> u64 {
        let n = self.n;
        let mut flushed = 0u64;
        for row in 0..n {
            if !self.touched[row] {
                continue;
            }
            self.touched[row] = false;
            // Lower-triangular row segment [row*n, row*n + row].
            let seg = &mut self.buf[row * n..row * n + row + 1];
            if seg.iter().any(|&v| v != 0.0) {
                fock.acc(rank, row * n, seg);
                seg.iter_mut().for_each(|v| *v = 0.0);
                flushed += 1;
            }
        }
        flushed
    }
}

impl FockSink for RowBufferFock {
    #[inline]
    fn add(&mut self, mu: usize, nu: usize, v: f64) {
        self.buf[mu * self.n + nu] += v;
        self.touched[mu] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::driver::Quartets;
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
        let mut quartets = Quartets::new(&ctx);
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

    /// The sweep over the RowShard backends in both DDI modes must land
    /// within 1e-12 of `want` in every channel.
    fn assert_rowshard_matches<const NCH: usize>(
        label: &str,
        b: &BasisSet,
        dens: ReplicatedDensity<'_, NCH>,
        want: &[Mat],
    ) {
        let n = b.n_basis();
        for mode in [DdiMode::Mpi3OneSided, DdiMode::DataServer] {
            let d_wins = scatter_density(&dens, n, 3, mode);
            let f_wins: Vec<DistributedArray> =
                (0..NCH).map(|_| DistributedArray::new_with_mode(tri_len(n), 3, mode)).collect();
            let mut fock = RowShardFock::new(&f_wins, n, 0);
            sweep(b, &mut ShardDensity::new(&d_wins, n, 0), &mut fock);
            fock.flush();
            for (ch, want_ch) in want.iter().enumerate() {
                let got = gather_tri(&f_wins[ch], n);
                assert!(
                    got.max_abs_diff(want_ch) < 1e-12,
                    "{label} ch {ch} {:?}: diff {}",
                    mode,
                    got.max_abs_diff(want_ch)
                );
            }
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
        let wins = scatter_density(&ReplicatedDensity::restricted(&d), n, 4, DdiMode::Mpi3OneSided);
        let mut reader = ShardDensity::new(&wins, n, 1);
        for p in 0..n {
            for q in 0..n {
                assert_eq!(reader.coulomb(p, q), d[(p, q)], "({p},{q})");
            }
        }
        assert!(reader.cached_elems <= reader.cap_elems.max(n));
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
        for mode in [DdiMode::Mpi3OneSided, DdiMode::DataServer] {
            let wins = scatter_density(&ReplicatedDensity::restricted(&d), n, 5, mode);
            assert_eq!(gather_tri(&wins[0], n).max_abs_diff(&d), 0.0);
        }
    }
}
