//! Distribution-aware matrix layer: how builders *read* density and
//! *write* Fock contributions, independent of where the matrices live.
//!
//! The read side is the [`DensityRead`] trait, the write side
//! [`FockSink`]; the one digester ([`super::digest`]) is generic over
//! both. Each has two backends:
//!
//! * **Replicated** — the matrices exist in full on every rank:
//!   [`super::ReplicatedDensity`] reads the density and [`super::TriSink`]
//!   writes the lower-triangle accumulation buffer the serial, MPI-only
//!   and private-Fock builds digest into.
//! * **RowShard** — the matrices live in tri-packed row shards inside
//!   [`phi_dmpi::DistributedArray`] windows, striped over ranks.
//!   [`ShardDensity`] reads rows on demand through `get` with a bounded
//!   row cache behind a direct row slot index; [`RowShardFock`] buffers
//!   contributions sparsely and flushes them as coalesced `acc` runs. Per
//!   rank that costs the owned window stripes ([`shard_stripe_bytes`])
//!   plus O(N) state: [`shard_reader_bytes`] for the reader,
//!   [`shard_writer_bytes`] for the writer.
//!
//! The two window builds (`fock::sharded`) share the RowShard writer and
//! differ only in the reader: `Sharded` reads through [`ShardDensity`], so
//! no rank ever materializes a full `N x N` matrix; `Distributed` reads its
//! replicated density ([`replicated_density_bytes`]).
//!
//! The digester hands over six result blocks per quartet, each element
//! written once. Between it and a Fock backend can sit Algorithm 3's
//! accumulator, `StripRouter`: per task `(i, j)`, blocks touching shell
//! `i` or `j` collect in dense FI/FJ strips and a quartet's `(k, l)`
//! Coulomb block passes straight on, so the backend sees one write per
//! strip element per task and one per block element per quartet. The
//! shared-Fock build drains it into a `SharedAccumulator`, the window
//! builds into [`RowShardFock`].
//!
//! The tri-packed layout stores the lower triangle row-major:
//! element `(p, q)` with `p >= q` lives at `p (p + 1) / 2 + q`, so one
//! matrix costs `N (N + 1) / 2` words total across all ranks instead of
//! `N^2` words *per* rank.

use super::{Block, DensityRead, FockSink, Span};
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
/// 16 bytes (tri index + value); O(N) total.
pub fn shard_flush_entries(n: usize) -> usize {
    (8 * n).max(512)
}

/// Bytes of one rank's stripe of `n_windows` tri-packed windows over
/// `n_ranks` ranks.
pub fn shard_stripe_bytes(n: usize, n_ranks: usize, n_windows: usize) -> usize {
    n_windows * tri_len(n).div_ceil(n_ranks.max(1)) * size_of::<f64>()
}

/// Bytes of one rank's [`ShardDensity`] over `n` functions: the row cache
/// and its slot index (one slot per density-window row). O(N).
pub fn shard_reader_bytes(n: usize) -> usize {
    shard_cache_elems(n) * size_of::<f64>() + n * size_of::<Vec<f64>>()
}

/// Bytes of a replicated density over `n` functions: the reader of the
/// distributed window build.
pub fn replicated_density_bytes(n: usize) -> usize {
    n * n * size_of::<f64>()
}

/// Bytes of one rank's window writer over `n` functions, widest shell
/// `max_width`: the pending `acc` buffer, the FI and FJ strips
/// (`max_width x n` each) and a quartet's `(k, l)` block (`max_width^2`),
/// which the digester's per-worker scratch holds on its way to the buffer.
/// O(N): nothing here is a matrix.
///
/// A window build charges its reader's bytes, its Fock stripes and exactly
/// this; `MemoryModel::per_rank_bytes` prices the rows with the same
/// functions.
pub fn shard_writer_bytes(n: usize, max_width: usize) -> usize {
    let pending = shard_flush_entries(n) * size_of::<(usize, f64)>();
    let accumulator = (2 * max_width * n + max_width * max_width) * size_of::<f64>();
    pending + accumulator
}

// ---------------------------------------------------------------------
// RowShard backend (read side)
// ---------------------------------------------------------------------

/// Scatter a density into a tri-packed DDI window striped over
/// `n_ranks`. Runs on the driver before the world starts; the window
/// outlives rank deaths.
pub fn scatter_density(d: &Mat, n: usize, n_ranks: usize) -> DistributedArray {
    let mut buf = vec![0.0; tri_len(n)];
    for p in 0..n {
        for q in 0..=p {
            buf[tri_index(p, q)] = d[(p, q)];
        }
    }
    let win = DistributedArray::new(tri_len(n), n_ranks);
    win.put(0, &buf);
    win
}

/// Gather a tri-packed Fock window back into a full symmetric matrix
/// (driver side, after the world has finished accumulating).
pub fn gather_tri(win: &DistributedArray, n: usize) -> Mat {
    let mut buf = vec![0.0; tri_len(n)];
    win.get(0, &mut buf);
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
/// from the density window with a bounded FIFO row cache.
pub struct ShardDensity<'a> {
    win: &'a DistributedArray,
    /// Direct slot index: `rows[row]` holds that row's values
    /// `[row*(row+1)/2 .. +row+1)` while it is cached and is empty
    /// otherwise, so a hit is one index and one length test.
    rows: Vec<Vec<f64>>,
    /// FIFO eviction order of cached rows.
    order: VecDeque<usize>,
    /// Elements currently cached / capacity in elements.
    cached_elems: usize,
    cap_elems: usize,
}

impl<'a> ShardDensity<'a> {
    pub fn new(win: &'a DistributedArray, n: usize) -> ShardDensity<'a> {
        ShardDensity {
            win,
            rows: vec![Vec::new(); n],
            order: VecDeque::new(),
            cached_elems: 0,
            cap_elems: shard_cache_elems(n),
        }
    }

    #[inline]
    fn row(&mut self, r: usize) -> &[f64] {
        if self.rows[r].is_empty() {
            self.fetch(r);
        }
        &self.rows[r]
    }

    /// Fetch row `r`, evicting the oldest rows past capacity (a single row
    /// larger than the capacity is cached anyway).
    #[cold]
    fn fetch(&mut self, r: usize) {
        let mut buf = Vec::new();
        while self.cached_elems + r + 1 > self.cap_elems {
            let Some(old) = self.order.pop_front() else { break };
            buf = std::mem::take(&mut self.rows[old]);
            self.cached_elems -= buf.len();
        }
        buf.clear();
        buf.resize(r + 1, 0.0);
        self.win.get(tri_index(r, 0), &mut buf);
        self.cached_elems += r + 1;
        self.rows[r] = buf;
        self.order.push_back(r);
    }
}

impl DensityRead for ShardDensity<'_> {
    /// One cached row slice per row, or per column when `rows` precede
    /// `cols` (which are then the stored rows).
    fn block(&mut self, rows: Span, cols: Span, out: &mut [f64]) {
        let nc = cols.n;
        if rows.lo >= cols.lo {
            for a in 0..rows.n {
                let p = rows.lo + a;
                // Over one shell, row p stores columns up to p only.
                let len = nc.min(p + 1 - cols.lo);
                out[a * nc..][..len].copy_from_slice(&self.row(p)[cols.lo..][..len]);
            }
            if rows == cols {
                for a in 0..nc {
                    for b in a + 1..nc {
                        out[a * nc + b] = out[b * nc + a];
                    }
                }
            }
        } else {
            for b in 0..nc {
                let col = &self.row(cols.lo + b)[rows.lo..][..rows.n];
                for (a, &v) in col.iter().enumerate() {
                    out[a * nc + b] = v;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// RowShard backend (write side)
// ---------------------------------------------------------------------

/// Write side of the RowShard backend: contributions are buffered as
/// sparse `(tri index, value)` entries and flushed as coalesced one-sided
/// `acc` runs into the tri-packed Fock window.
///
/// The buffer never holds more than [`shard_flush_entries`] entries: the
/// entry that fills it triggers a flush.
///
/// Durability contract (the rank-loss fault model): a kill can only fire at a
/// lease claim, i.e. *between* tasks. Under fault injection the driver's
/// `LeaseLoop` has every thread that holds one of these run `Step::Flush`
/// after each task, and the team pass a barrier, before the master
/// completes the lease at its next claim (flush-then-complete under
/// durable leases). So a dead rank never strands completed work, and
/// capacity-triggered flushes mid-task are safe in every mode.
pub struct RowShardFock<'a> {
    win: &'a DistributedArray,
    pending: Vec<(usize, f64)>,
    cap: usize,
    /// One-sided `acc` runs issued so far.
    pub flushes: u64,
    /// Entries pushed into the pending buffer so far.
    pub entries: u64,
}

impl<'a> RowShardFock<'a> {
    pub fn new(win: &'a DistributedArray, n: usize) -> RowShardFock<'a> {
        let cap = shard_flush_entries(n);
        RowShardFock { win, pending: Vec::with_capacity(cap), cap, flushes: 0, entries: 0 }
    }

    /// Sort, merge and accumulate every pending entry into the window as
    /// contiguous runs, then clear the buffer.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let _span = phi_trace::span("fock.flush_scatter");
        self.pending.sort_unstable_by_key(|&(k, _)| k);
        let mut run_start = self.pending[0].0;
        let mut run: Vec<f64> = Vec::new();
        let mut last = run_start;
        let mut acc = 0.0;
        for &(key, v) in &self.pending {
            if key == last {
                acc += v;
                continue;
            }
            run.push(acc);
            if key != last + 1 {
                self.win.acc(run_start, &run);
                self.flushes += 1;
                run.clear();
                run_start = key;
            }
            last = key;
            acc = v;
        }
        run.push(acc);
        self.win.acc(run_start, &run);
        self.flushes += 1;
        self.pending.clear();
    }

    /// Buffer the canonical update `F[mu, nu] += v`; a zero is no update.
    #[inline]
    pub fn add(&mut self, mu: usize, nu: usize, v: f64) {
        debug_assert!(mu >= nu);
        if v == 0.0 {
            return;
        }
        self.pending.push((tri_index(mu, nu), v));
        self.entries += 1;
        if self.pending.len() == self.cap {
            self.flush();
        }
    }
}

impl FockSink for RowShardFock<'_> {
    #[inline(always)]
    fn add_block(&mut self, blk: &Block<'_>) {
        blk.for_each(|mu, nu, v| self.add(mu, nu, v));
    }
}

// ---------------------------------------------------------------------
// Algorithm 3's accumulator
// ---------------------------------------------------------------------

/// Algorithm 3's accumulator routing (lines 25–27) for one `(i, j)`
/// task; the one router of the shared-Fock and window builds.
///
/// A digested block touching shell `i` goes to the FI strip, one touching
/// shell `j` (and not `i`) to FJ, and anything else — which can only be
/// the quartet's `(k, l)` Coulomb block, summed over the whole quartet by
/// the digester — straight on to `kl`, once per quartet. A strip is
/// `width x n`, slot `(mu - lo) * n + other` standing for the canonical
/// element [`strip_slot`] names; the owner drains it (the shared build by
/// padded tree reduction, the window builds by [`drain_strip`]).
pub(crate) struct StripRouter<'a, K: ?Sized> {
    pub(crate) fi: &'a mut [f64],
    pub(crate) fj: &'a mut [f64],
    pub(crate) kl: &'a mut K,
    pub(crate) n: usize,
    pub(crate) i: Span,
    pub(crate) j: Span,
}

impl<K: FockSink + ?Sized> FockSink for StripRouter<'_, K> {
    #[inline(always)]
    fn add_block(&mut self, blk: &Block<'_>) {
        let (r, c) = (blk.rows.lo, blk.cols.lo);
        if self.i.contains(r) || self.i.contains(c) {
            strip_add(self.fi, self.i, self.n, blk);
        } else if self.j.contains(r) || self.j.contains(c) {
            strip_add(self.fj, self.j, self.n, blk);
        } else {
            self.kl.add_block(blk);
        }
    }
}

/// Add `blk`, which touches shell `sh`, into the strip over `sh`: slot
/// `(g - sh.lo) * n + other` for `g` its row when its rows lie in `sh`,
/// its column when its columns do.
#[inline(always)]
fn strip_add(strip: &mut [f64], sh: Span, n: usize, blk: &Block<'_>) {
    let rows_in = sh.contains(blk.rows.lo);
    blk.for_each(|mu, nu, v| {
        let (g, other) = if rows_in { (mu, nu) } else { (nu, mu) };
        strip[(g - sh.lo) * n + other] += v;
    });
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
    use crate::fock::{digest, tri_to_full, FockAlgorithm, ReplicatedDensity, TriSink};
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
    fn sweep(b: &BasisSet, dens: &mut impl DensityRead, sink: &mut impl FockSink) {
        let data = FockData::build(b);
        let ctx = data.context(b, 1e-14);
        let sig = SignificantPairs::new(ctx.screening, ctx.tau);
        let mut quartets = Quartets::new(&ctx, &sig);
        for p in 0..sig.len() {
            let (i, j) = sig.pair(p);
            quartets.pair_task(p, |k, l, eri| digest(b, i, j, k, l, eri, dens, sink));
        }
    }

    /// The sweep over the replicated backends.
    fn replicated_sweep(b: &BasisSet, d: &Mat) -> Mat {
        let n = b.n_basis();
        let mut fock = vec![0.0; n * n];
        sweep(b, &mut ReplicatedDensity(d), &mut TriSink { buf: &mut fock, n });
        tri_to_full(&fock, n)
    }

    #[test]
    fn replicated_backends_match_the_serial_builder() {
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let d = density(b.n_basis());
        let data = FockData::build(&b);
        let want =
            FockAlgorithm::Serial.builder().build(&data.context(&b, 1e-14), &Restricted(&d)).g;
        let got = replicated_sweep(&b, &d);
        assert!(got.max_abs_diff(&want) < 1e-12, "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn rowshard_backends_match_replicated() {
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let n = b.n_basis();
        let d = density(n);
        let want = replicated_sweep(&b, &d);
        let d_win = scatter_density(&d, n, 3);
        let f_win = DistributedArray::new(tri_len(n), 3);
        let mut fock = RowShardFock::new(&f_win, n);
        sweep(&b, &mut ShardDensity::new(&d_win, n), &mut fock);
        fock.flush();
        let got = gather_tri(&f_win, n);
        assert!(got.max_abs_diff(&want) < 1e-12, "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn shard_density_cache_stays_bounded_and_reads_symmetric() {
        let n = 40;
        let d = density(n);
        let win = scatter_density(&d, n, 4);
        let mut reader = ShardDensity::new(&win, n);
        let unit = |lo| Span { lo, n: 1 };
        for p in 0..n {
            for q in 0..n {
                let mut v = [0.0];
                reader.block(unit(p), unit(q), &mut v);
                assert_eq!(v[0], d[(p, q)], "({p},{q})");
            }
        }
        // Whole blocks in every orientation: below, above and on the
        // diagonal, the last one mirrored from the stored triangle.
        for (rows, cols) in [((20, 5), (3, 4)), ((3, 4), (20, 5)), ((11, 6), (11, 6))] {
            let (rows, cols) = (Span { lo: rows.0, n: rows.1 }, Span { lo: cols.0, n: cols.1 });
            let mut got = vec![0.0; rows.n * cols.n];
            reader.block(rows, cols, &mut got);
            for (at, v) in got.iter().enumerate() {
                let (p, q) = (rows.lo + at / cols.n, cols.lo + at % cols.n);
                assert_eq!(*v, d[(p, q)], "block {rows:?} x {cols:?} at ({p},{q})");
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

    /// Every canonical update the digester emits, as `(mu, nu, value)`.
    struct Recorded(Vec<(usize, usize, f64)>);

    impl FockSink for Recorded {
        fn add_block(&mut self, blk: &Block<'_>) {
            blk.for_each(|mu, nu, v| self.0.push((mu, nu, v)));
        }
    }

    /// A `1 x 1` block: one canonical update.
    fn unit(mu: usize, nu: usize, v: &f64) -> Block<'_> {
        Block {
            rows: Span { lo: mu, n: 1 },
            cols: Span { lo: nu, n: 1 },
            vals: std::slice::from_ref(v),
        }
    }

    #[test]
    fn strip_router_lands_every_update_once() {
        // Water/6-31G(d): s, SP and d shells. Seeded canonical quartets,
        // plus the coincidences that send the (k, l) block into FI or FJ.
        // Each update lands in exactly one of FI, FJ or the (k, l)
        // destination, at the slot that drains back to it, and the drained
        // quartet equals the replicated digestion.
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
        let (n, w) = (b.n_basis(), b.max_shell_width());
        let d = density(n);
        let mut dens = ReplicatedDensity(&d);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 0.0);
        let sig = SignificantPairs::new(ctx.screening, ctx.tau);
        let mut quartets = Quartets::new(&ctx, &sig);
        let (mut fi, mut fj) = (vec![0.0; n * w], vec![0.0; n * w]);
        for (i, j, k, l) in picks {
            let sh = |s: usize| &b.shells[s];
            quartets.quartet(i, j, k, l, |eri| {
                let mut updates = Recorded(Vec::new());
                digest(&b, i, j, k, l, eri, &mut dens, &mut updates);
                let mut want = vec![0.0; n * n];
                for &(mu, nu, v) in &updates.0 {
                    TriSink { buf: &mut want, n }.add_block(&unit(mu, nu, &v));
                }

                // Route a unit update for each; draining must hand back
                // exactly that one element and leave nothing behind.
                let mut kl = Recorded(Vec::new());
                let mut r = StripRouter {
                    fi: &mut fi,
                    fj: &mut fj,
                    kl: &mut kl,
                    n,
                    i: Span::of(sh(i)),
                    j: Span::of(sh(j)),
                };
                for &(mu, nu, _) in &updates.0 {
                    r.add_block(&unit(mu, nu, &1.0));
                    let mut hits: Vec<_> = r.kl.0.drain(..).collect();
                    let push = |m, q, v| hits.push((m, q, v));
                    drain_strip(&mut *r.fi, sh(i).first_bf, n, push);
                    let push = |m, q, v| hits.push((m, q, v));
                    drain_strip(&mut *r.fj, sh(j).first_bf, n, push);
                    assert_eq!(hits, [(mu, nu, 1.0)], "({i}{j}|{k}{l}) update ({mu}, {nu})");
                }
                assert!(fi.iter().chain(&fj).all(|&v| v == 0.0));

                // Digest through the router, as the builds do, drain, and
                // compare with the replicated sum.
                let mut got = vec![0.0; n * n];
                let mut r = StripRouter {
                    fi: &mut fi,
                    fj: &mut fj,
                    kl: &mut TriSink { buf: &mut got, n },
                    n,
                    i: Span::of(sh(i)),
                    j: Span::of(sh(j)),
                };
                digest(&b, i, j, k, l, eri, &mut dens, &mut r);
                for (strip, lo) in [(&mut fi, sh(i).first_bf), (&mut fj, sh(j).first_bf)] {
                    let mut sink = TriSink { buf: &mut got, n };
                    drain_strip(strip, lo, n, |mu, nu, v| sink.add_block(&unit(mu, nu, &v)));
                }
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() <= 1e-14, "({i}{j}|{k}{l}): {g} vs {w}");
                }
            });
        }
    }

    #[test]
    fn rowshard_flush_merges_duplicates_and_coalesces_runs() {
        let n = 8;
        let win = DistributedArray::new(tri_len(n), 2);
        let mut acc = RowShardFock::new(&win, n);
        acc.add(3, 1, 2.0);
        acc.add(3, 1, 0.5); // duplicate key: merged before the acc
        acc.add(3, 2, 1.0); // adjacent: same run
        acc.add(6, 0, 4.0); // separate run

        // A block pushes its nonzero entries only: (6, 1), adjacent.
        let vals = [0.0, 0.5, 0.0, 0.0];
        acc.add_block(&Block {
            rows: Span { lo: 6, n: 2 },
            cols: Span { lo: 0, n: 2 },
            vals: &vals,
        });
        assert_eq!(acc.entries, 5);
        acc.flush();
        assert_eq!(acc.flushes, 2, "two coalesced runs");
        let m = gather_tri(&win, n);
        assert_eq!(m[(3, 1)], 2.5);
        assert_eq!(m[(3, 2)], 1.0);
        assert_eq!(m[(6, 0)], 4.0);
        assert_eq!(m[(6, 1)], 0.5);
        assert_eq!(m[(5, 5)], 0.0);
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let n = 17;
        let d = density(n);
        let win = scatter_density(&d, n, 5);
        assert_eq!(gather_tri(&win, n).max_abs_diff(&d), 0.0);
    }
}
