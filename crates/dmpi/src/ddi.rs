//! DDI distributed arrays over MPI-3 one-sided windows.
//!
//! GAMESS's DDI layer predates MPI one-sided support: classically every
//! compute rank was paired with a *data server* process that serviced
//! remote get/put/accumulate requests, doubling the process count (paper
//! §6.2). The MPI-3 based DDI eliminates the servers, and the paper runs
//! every benchmark without them. So does this crate: one transport, in
//! which a rank's own segment is a direct load/store and any other
//! segment a one-sided request.

use crate::fault::{CommStats, FaultPlan, Layer, Link};
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
/// segment is a request, which rides the fault link when one is armed.
pub struct DistributedArray {
    segments: Vec<Arc<Mutex<Vec<f64>>>>,
    seg_len: usize,
    len: usize,
    /// Boxed: inline, the link would make every window several times
    /// larger, and the builds index slices of windows in their flush
    /// loops.
    link: Option<Box<Link>>,
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
        DistributedArray { segments, seg_len, len, link: None }
    }

    /// Put every remote request on a retransmit link armed by `plan`: its
    /// `drop@`/`corrupt@` specs fire on this window's `(caller -> owner)`
    /// edges (their own ordinal space, independent of the world's rank
    /// messages), so a dropped or corrupted get/put/acc is resent instead
    /// of failing a rank.
    pub fn with_faults(mut self, plan: &FaultPlan) -> Self {
        self.link = Some(Box::new(Link::new(plan, Layer::Ddi)));
        self
    }

    /// The ledger of the link (all zero without
    /// [`with_faults`](Self::with_faults)).
    pub fn link_stats(&self) -> CommStats {
        self.link.as_ref().map_or_else(CommStats::default, |l| l.stats())
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

    fn for_range(
        &self,
        caller: usize,
        lo: usize,
        data_len: usize,
        mut f: impl FnMut(usize, &mut [f64]),
    ) {
        assert!(lo + data_len <= self.len, "range out of bounds");
        let mut pos = lo;
        let mut off = 0;
        while off < data_len {
            let seg = self.owner(pos);
            let seg_lo = pos - seg * self.seg_len;
            let take = (data_len - off).min(self.seg_len - seg_lo);
            // Remote accesses ride the fault-armed link first: the segment
            // mutation below only happens once the request got through,
            // exactly like a real get/put/acc that was dropped in flight.
            // An exhausted budget panics naming the edge rather than
            // killing the caller: earlier segments of this access have
            // landed, so a durable-lease reissue of the task would add
            // them twice.
            if seg != caller {
                if let Some(link) = &self.link {
                    link.deliver(caller, seg).unwrap_or_else(|e| panic!("window link: {e}"));
                }
            }
            let mut guard = self.segments[seg].lock();
            f(off, &mut guard[seg_lo..seg_lo + take]);
            pos += take;
            off += take;
        }
    }

    /// One-sided read of `[lo, lo + out.len())` by `caller`.
    pub fn get(&self, caller: usize, lo: usize, out: &mut [f64]) {
        let n = out.len();
        let out_cell = std::cell::RefCell::new(out);
        self.for_range(caller, lo, n, |off, seg| {
            out_cell.borrow_mut()[off..off + seg.len()].copy_from_slice(seg);
        });
    }

    /// One-sided write.
    pub fn put(&self, caller: usize, lo: usize, data: &[f64]) {
        self.for_range(caller, lo, data.len(), |off, seg| {
            seg.copy_from_slice(&data[off..off + seg.len()]);
        });
    }

    /// One-sided accumulate (`ddi_acc`): remote `+=`.
    pub fn acc(&self, caller: usize, lo: usize, data: &[f64]) {
        self.for_range(caller, lo, data.len(), |off, seg| {
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
        a.put(0, 10, &data);
        let mut out = vec![0.0; 50];
        a.get(0, 10, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn acc_accumulates() {
        let a = DistributedArray::new(10, 2);
        a.acc(0, 3, &[1.0, 1.0]);
        a.acc(1, 3, &[2.0, 3.0]);
        let mut out = vec![0.0; 2];
        a.get(0, 3, &mut out);
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
        for r in 0..4 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    a.acc(r % 2, 0, &[1.0; 8]);
                }
            }));
        }
        for (worker, h) in handles.into_iter().enumerate() {
            h.join().unwrap_or_else(|_| {
                panic!("acc worker {worker} (caller rank {}) panicked", worker % 2)
            });
        }
        let mut out = vec![0.0; 8];
        a.get(0, 0, &mut out);
        assert!(out.iter().all(|&v| v == 4000.0), "{out:?}");
    }

    // ---------------------------------------------------- the link -----

    #[test]
    fn link_retransmits_through_dropped_and_corrupt_window_requests() {
        let plan = FaultPlan::parse("3:drop@0->1#1,corrupt@0->1#2").unwrap();
        let a = DistributedArray::new(100, 4).with_faults(&plan);
        // seg_len 25. The first remote request on edge 0 -> 1 is dropped,
        // its retransmission is corrupted, the third copy lands.
        a.put(0, 25, &[2.0; 25]);
        let mut out = vec![0.0; 25];
        a.get(0, 25, &mut out);
        assert_eq!(out, vec![2.0; 25]);
        let s = a.link_stats();
        assert_eq!(s.retransmits, 2);
        assert_eq!(s.corruptions_detected, 1);
        assert_eq!(s.transient_recoveries, 1, "one request recovered (after two faults)");
        assert_eq!(s.faults_injected, 2);
        assert_eq!(s.acks, 2, "the put and the get were each acknowledged once");
    }

    #[test]
    fn a_drop_and_a_corruption_of_the_same_window_request_are_a_drop() {
        // Plan order must not decide: the corruption is listed first.
        let plan = FaultPlan::parse("3:corrupt@0->1#1,drop@0->1#1").unwrap();
        let a = DistributedArray::new(100, 4).with_faults(&plan);
        a.put(0, 25, &[2.0; 25]);
        let want = CommStats {
            faults_injected: 1,
            retransmits: 1,
            acks: 1,
            corruptions_detected: 0,
            transient_recoveries: 1,
        };
        assert_eq!(a.link_stats(), want, "the request was lost, not damaged");
    }

    #[test]
    fn link_faults_do_not_fire_on_local_one_sided_access() {
        let plan = FaultPlan::parse("3:drop@0->0#1").unwrap();
        let a = DistributedArray::new(100, 4).with_faults(&plan);
        a.put(0, 0, &[1.0; 25]); // own segment: a direct store, no link message
        assert_eq!(a.link_stats(), CommStats::default());
    }

    #[test]
    fn link_budget_exhaustion_panics_with_a_named_edge() {
        let drops: Vec<String> =
            (1..=crate::fault::MAX_ATTEMPTS).map(|n| format!("drop@0->1#{n}")).collect();
        let plan = FaultPlan::parse(&format!("3:{}", drops.join(","))).unwrap();
        let a = DistributedArray::new(100, 4).with_faults(&plan);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.put(0, 25, &[1.0; 25]);
        }))
        .expect_err("an exhausted link budget must not silently drop the put");
        let msg = err.downcast_ref::<String>().expect("panic payload is a String");
        assert!(msg.contains("rank 0 -> rank 1"), "panic names the edge: {msg}");
        assert!(msg.contains("4 attempts"), "panic names the budget: {msg}");
    }

    #[test]
    fn unfaulted_window_reports_zero_link_stats() {
        let a = DistributedArray::new(10, 2);
        a.put(0, 5, &[1.0; 5]);
        assert_eq!(a.link_stats(), CommStats::default());
    }
}
