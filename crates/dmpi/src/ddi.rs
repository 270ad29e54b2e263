//! DDI distributed arrays over MPI-3 one-sided windows.
//!
//! GAMESS's DDI layer predates MPI one-sided support: classically every
//! compute rank was paired with a *data server* process that serviced
//! remote get/put/accumulate requests, doubling the process count (paper
//! §6.2). The MPI-3 based DDI eliminates the servers, and the paper runs
//! every benchmark without them. So does this crate: one transport, in
//! which a rank's own segment is a direct load/store and any other
//! segment a one-sided request.

use crate::sync::Mutex;
use std::sync::Arc;

/// The DDI transport: MPI-3 one-sided, the one the paper ran. A single
/// variant, kept as a type because `FockAlgorithm::Sharded` names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DdiMode {
    /// MPI-3 one-sided DDI (used for all the paper's benchmarks).
    Mpi3OneSided,
}

/// A globally addressable 1-D `f64` array striped over ranks in equal
/// blocks (DDI's `ddi_create` / `ddi_get` / `ddi_put` / `ddi_acc`).
///
/// In-process, segments are mutex-guarded vectors. An access to the
/// caller's own segment is a direct load/store; one to another rank's
/// segment is a one-sided request under that segment's lock.
pub struct DistributedArray {
    segments: Vec<Arc<Mutex<Vec<f64>>>>,
    seg_len: usize,
    len: usize,
}

impl DistributedArray {
    /// Create an array of `len` elements striped over `n_ranks` segments.
    pub fn new(len: usize, n_ranks: usize) -> DistributedArray {
        let seg_len = len.div_ceil(n_ranks);
        let segments = (0..n_ranks)
            .map(|r| {
                let lo = (r * seg_len).min(len);
                let hi = ((r + 1) * seg_len).min(len);
                Arc::new(Mutex::new(vec![0.0; hi - lo]))
            })
            .collect();
        DistributedArray { segments, seg_len, len }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Which rank owns element `idx`.
    pub fn owner(&self, idx: usize) -> usize {
        idx / self.seg_len
    }

    fn for_range(&self, lo: usize, data_len: usize, mut f: impl FnMut(usize, &mut [f64])) {
        assert!(lo + data_len <= self.len, "range out of bounds");
        let mut pos = lo;
        let mut off = 0;
        while off < data_len {
            let seg = self.owner(pos);
            let seg_lo = pos - seg * self.seg_len;
            let take = (data_len - off).min(self.seg_len - seg_lo);
            let mut guard = self.segments[seg].lock();
            f(off, &mut guard[seg_lo..seg_lo + take]);
            pos += take;
            off += take;
        }
    }

    /// One-sided read of `[lo, lo + out.len())`.
    pub fn get(&self, lo: usize, out: &mut [f64]) {
        let n = out.len();
        let out_cell = std::cell::RefCell::new(out);
        self.for_range(lo, n, |off, seg| {
            out_cell.borrow_mut()[off..off + seg.len()].copy_from_slice(seg);
        });
    }

    /// One-sided write.
    pub fn put(&self, lo: usize, data: &[f64]) {
        self.for_range(lo, data.len(), |off, seg| {
            seg.copy_from_slice(&data[off..off + seg.len()]);
        });
    }

    /// One-sided accumulate (`ddi_acc`): remote `+=`.
    pub fn acc(&self, lo: usize, data: &[f64]) {
        self.for_range(lo, data.len(), |off, seg| {
            for (s, d) in seg.iter_mut().zip(&data[off..]) {
                *s += d;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_across_segments() {
        let a = DistributedArray::new(100, 4);
        let data: Vec<f64> = (0..50).map(|x| x as f64).collect();
        // Write spanning segments 0 and 1 (seg_len = 25).
        a.put(10, &data);
        let mut out = vec![0.0; 50];
        a.get(10, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn acc_accumulates() {
        let a = DistributedArray::new(10, 2);
        a.acc(3, &[1.0, 1.0]);
        a.acc(3, &[2.0, 3.0]);
        let mut out = vec![0.0; 2];
        a.get(3, &mut out);
        assert_eq!(out, vec![3.0, 4.0]);
    }

    #[test]
    fn owner_mapping() {
        let a = DistributedArray::new(100, 4);
        assert_eq!(a.owner(0), 0);
        assert_eq!(a.owner(24), 0);
        assert_eq!(a.owner(25), 1);
        assert_eq!(a.owner(99), 3);
    }

    #[test]
    fn concurrent_acc_is_atomic_per_segment() {
        let a = Arc::new(DistributedArray::new(8, 2));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    a.acc(0, &[1.0; 8]);
                }
            }));
        }
        for (worker, h) in handles.into_iter().enumerate() {
            h.join().unwrap_or_else(|_| panic!("acc worker {worker} panicked"));
        }
        let mut out = vec![0.0; 8];
        a.get(0, &mut out);
        assert!(out.iter().all(|&v| v == 4000.0), "{out:?}");
    }
}
