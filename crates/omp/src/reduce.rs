//! The paper's Figure 1 reduction structure: thread-private padded columns
//! with a chunked, row-parallel flush.
//!
//! During accumulation each thread writes its own column (column-wise
//! access, Figure 1A); padding rounds every column up to a whole number of
//! cache lines so neighbouring threads never share a line. During the flush
//! each thread sums whole row-chunks across all columns and adds them to
//! the destination (row-wise access, Figure 1B); chunking again keeps
//! threads on distinct cache lines of the destination.

use crate::shared::SharedAccumulator;
use crate::team::ThreadCtx;
use std::cell::UnsafeCell;

/// f64 elements per cache line (64-byte lines).
const PAD: usize = 8;
/// Rows per flush chunk.
const FLUSH_CHUNK: usize = 256;

/// One padded accumulation column per thread (paper Figure 1).
///
/// Safety model: [`col_mut`](Self::col_mut) hands out a mutable slice of one
/// column; the contract (enforced by the Fock builders, and in debug builds
/// by the caller passing its own `thread_num`) is that a column is only
/// touched by its owning thread between barriers.
pub struct PaddedColumns {
    data: UnsafeCell<Vec<f64>>,
    len: usize,
    stride: usize,
    n_cols: usize,
}

// One column per thread, synchronized externally via team barriers.
unsafe impl Sync for PaddedColumns {}

impl PaddedColumns {
    /// `len` logical elements per column, one column per thread.
    pub fn new(len: usize, n_cols: usize) -> PaddedColumns {
        let stride = len.div_ceil(PAD) * PAD + PAD;
        PaddedColumns { data: UnsafeCell::new(vec![0.0; stride * n_cols]), len, stride, n_cols }
    }

    /// Bytes of memory held — the quantity the paper's memory-footprint
    /// model charges for the `FI`/`FJ` buffers.
    pub fn bytes(&self) -> usize {
        self.stride * self.n_cols * std::mem::size_of::<f64>()
    }

    /// Mutable access to column `col`.
    ///
    /// # Safety contract (checked by discipline, not the compiler)
    /// Only the thread owning `col` may call this between two team
    /// barriers; the flush methods must not run concurrently with it.
    #[allow(clippy::mut_from_ref)]
    pub fn col_mut(&self, col: usize) -> &mut [f64] {
        assert!(col < self.n_cols, "column {col} out of range");
        unsafe {
            let base = (*self.data.get()).as_mut_ptr().add(col * self.stride);
            std::slice::from_raw_parts_mut(base, self.len)
        }
    }

    /// Row-parallel flush into a [`SharedAccumulator`] at offset `dst_off`,
    /// then zero the columns. Call from *all* threads of the region; a
    /// barrier is executed before and after internally.
    pub fn flush_into(&self, ctx: &ThreadCtx<'_>, dst: &SharedAccumulator, dst_off: usize) {
        ctx.barrier();
        self.flush_rows_with(ctx, self.len, |row, sum| dst.add(dst_off + row, sum));
        ctx.barrier();
    }

    /// This thread's share of a row-parallel flush of the first
    /// `active_len` rows through an arbitrary mapping `f(row, sum)`, then
    /// zero those rows. Call from all threads. No barrier is executed: the
    /// caller puts one between the last column write and this call, and
    /// one between this call and the next column write, and is free to
    /// make either do double duty.
    ///
    /// The shared-Fock builder uses this to scatter the `FI`/`FJ` column
    /// blocks into the (non-contiguous) triangular positions of the shared
    /// Fock matrix; `active_len` limits work to the current shell's width.
    pub fn flush_rows_with(
        &self,
        ctx: &ThreadCtx<'_>,
        active_len: usize,
        f: impl Fn(usize, f64) + Sync,
    ) {
        assert!(active_len <= self.len);
        let t = ctx.thread_num();
        let nt = ctx.n_threads();
        // Static partition of row-chunks over threads (Figure 1B).
        let n_chunks = active_len.div_ceil(FLUSH_CHUNK);
        for chunk in (0..n_chunks).skip(t).step_by(nt.max(1)) {
            let lo = chunk * FLUSH_CHUNK;
            let hi = (lo + FLUSH_CHUNK).min(active_len);
            for row in lo..hi {
                let mut sum = 0.0;
                for col in 0..self.n_cols {
                    // Safe: after the caller's barrier no thread is writing,
                    // and each row-chunk is owned by exactly one flusher.
                    let v = unsafe { *(*self.data.get()).as_ptr().add(col * self.stride + row) };
                    sum += v;
                }
                if sum != 0.0 {
                    f(row, sum);
                }
                // Zero while the line is hot.
                for col in 0..self.n_cols {
                    unsafe {
                        *(*self.data.get()).as_mut_ptr().add(col * self.stride + row) = 0.0;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Team;

    #[test]
    fn padding_separates_columns_by_cache_lines() {
        let p = PaddedColumns::new(10, 4);
        // Stride must be a multiple of the cache line and exceed len.
        assert!(p.bytes() >= 4 * 10 * 8);
        assert_eq!(p.bytes() % (PAD * 8), 0);
    }

    #[test]
    fn columns_are_disjoint() {
        let p = PaddedColumns::new(100, 3);
        for c in 0..3 {
            for v in p.col_mut(c).iter_mut() {
                *v = c as f64 + 1.0;
            }
        }
        for c in 0..3 {
            assert!(p.col_mut(c).iter().all(|&v| v == c as f64 + 1.0));
        }
    }

    #[test]
    fn parallel_flush_sums_all_columns() {
        let n = 1000;
        let nt = 4;
        let p = PaddedColumns::new(n, nt);
        let dst = SharedAccumulator::new(n);
        let team = Team::new(nt);
        team.parallel(|ctx| {
            let col = p.col_mut(ctx.thread_num());
            for (i, v) in col.iter_mut().enumerate() {
                *v = (ctx.thread_num() * n + i) as f64;
            }
            p.flush_into(ctx, &dst, 0);
        });
        for i in 0..n {
            let want: f64 = (0..nt).map(|t| (t * n + i) as f64).sum();
            assert_eq!(dst.load(i), want, "row {i}");
        }
        // Columns must be zeroed after the flush.
        for c in 0..nt {
            assert!(p.col_mut(c).iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn repeated_flushes_accumulate() {
        let n = 64;
        let nt = 2;
        let p = PaddedColumns::new(n, nt);
        let dst = SharedAccumulator::new(n);
        let team = Team::new(nt);
        team.parallel(|ctx| {
            for _round in 0..5 {
                let col = p.col_mut(ctx.thread_num());
                for v in col.iter_mut() {
                    *v = 1.0;
                }
                p.flush_into(ctx, &dst, 0);
            }
        });
        for i in 0..n {
            assert_eq!(dst.load(i), (5 * nt) as f64, "row {i}");
        }
    }

    #[test]
    fn flush_with_offset() {
        let p = PaddedColumns::new(4, 2);
        let dst = SharedAccumulator::new(10);
        let team = Team::new(2);
        team.parallel(|ctx| {
            p.col_mut(ctx.thread_num()).fill(1.0);
            p.flush_into(ctx, &dst, 6);
        });
        assert_eq!(dst.snapshot(), vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0]);
    }
}
