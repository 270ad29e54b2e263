//! DDI process-model emulation: data servers vs MPI-3 one-sided, and
//! distributed arrays.
//!
//! GAMESS's DDI layer predates MPI one-sided support: classically every
//! compute rank is paired with a *data server* process that services
//! remote get/put/accumulate requests, doubling the process count (paper
//! §6.2). The MPI-3 based DDI eliminates the servers. The paper runs all
//! benchmarks without data servers; the mode lives here so the memory
//! model can quantify what the servers would have cost.

use crate::fault::{CommStats, FaultPlan, Layer, Link};
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Which DDI transport the run models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DdiMode {
    /// Classic DDI: one data-server process per compute rank.
    DataServer,
    /// MPI-3 one-sided DDI (used for all the paper's benchmarks).
    Mpi3OneSided,
}

impl DdiMode {
    /// OS processes consumed per compute rank.
    pub fn processes_per_rank(self) -> usize {
        match self {
            DdiMode::DataServer => 2,
            DdiMode::Mpi3OneSided => 1,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            DdiMode::DataServer => "DDI data servers",
            DdiMode::Mpi3OneSided => "MPI-3 one-sided",
        }
    }
}

/// A globally addressable 1-D `f64` array striped over ranks in equal
/// blocks (DDI's `ddi_create` / `ddi_get` / `ddi_put` / `ddi_acc`).
///
/// In-process, segments are mutex-guarded vectors; each operation also
/// counts the bytes that would have crossed the network so communication
/// volume is observable. The [`DdiMode`] is behavioral, not just a label:
/// under [`DdiMode::Mpi3OneSided`] an access to the caller's own segment
/// is a direct load/store (no traffic), while under
/// [`DdiMode::DataServer`] *every* access — local segment included — is a
/// request/response pair serviced by the rank's paired data-server
/// process, so all bytes count as remote and every segment touch counts
/// one server message. The numerics are identical in both modes.
pub struct DistributedArray {
    segments: Vec<Arc<Mutex<Vec<f64>>>>,
    seg_len: usize,
    len: usize,
    mode: DdiMode,
    /// Traffic counters (DESIGN.md §3.1 keeps them: they are what
    /// `DdiMode` means). Plain tallies read after the fact, so `Relaxed`.
    remote_bytes: AtomicU64,
    server_messages: AtomicU64,
    /// Boxed: inline, the link would make every window several times
    /// larger, and the builds index slices of windows in their flush
    /// loops.
    link: Option<Box<Link>>,
}

impl DistributedArray {
    /// Create an array of `len` elements striped over `n_ranks` segments,
    /// in the MPI-3 one-sided transport (the paper's benchmark mode).
    pub fn new(len: usize, n_ranks: usize) -> DistributedArray {
        DistributedArray::new_with_mode(len, n_ranks, DdiMode::Mpi3OneSided)
    }

    /// Create an array striped over `n_ranks` segments with an explicit
    /// DDI transport mode.
    pub fn new_with_mode(len: usize, n_ranks: usize, mode: DdiMode) -> DistributedArray {
        let seg_len = len.div_ceil(n_ranks);
        let segments = (0..n_ranks)
            .map(|r| {
                let lo = (r * seg_len).min(len);
                let hi = ((r + 1) * seg_len).min(len);
                Arc::new(Mutex::new(vec![0.0; hi - lo]))
            })
            .collect();
        DistributedArray {
            segments,
            seg_len,
            len,
            mode,
            remote_bytes: AtomicU64::new(0),
            server_messages: AtomicU64::new(0),
            link: None,
        }
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
        mut f: impl FnMut(usize, usize, &mut [f64]),
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
            let remote = match self.mode {
                DdiMode::Mpi3OneSided => seg != caller,
                DdiMode::DataServer => true,
            };
            if remote {
                if let Some(link) = &self.link {
                    link.deliver(caller, seg).unwrap_or_else(|e| panic!("window link: {e}"));
                }
            }
            let mut guard = self.segments[seg].lock();
            f(off, seg_lo, &mut guard[seg_lo..seg_lo + take]);
            match self.mode {
                // One-sided: only cross-rank access costs traffic.
                DdiMode::Mpi3OneSided => {
                    if seg != caller {
                        self.remote_bytes.fetch_add((take * 8) as u64, Relaxed);
                    }
                }
                // Data servers: every access is a message to the segment
                // owner's server process, local segments included.
                DdiMode::DataServer => {
                    self.remote_bytes.fetch_add((take * 8) as u64, Relaxed);
                    self.server_messages.fetch_add(1, Relaxed);
                }
            }
            pos += take;
            off += take;
        }
    }

    /// One-sided read of `[lo, lo + out.len())` by `caller`.
    pub fn get(&self, caller: usize, lo: usize, out: &mut [f64]) {
        let n = out.len();
        let out_cell = std::cell::RefCell::new(out);
        self.for_range(caller, lo, n, |off, _seg_lo, seg| {
            out_cell.borrow_mut()[off..off + seg.len()].copy_from_slice(seg);
        });
    }

    /// One-sided write.
    pub fn put(&self, caller: usize, lo: usize, data: &[f64]) {
        self.for_range(caller, lo, data.len(), |off, _seg_lo, seg| {
            seg.copy_from_slice(&data[off..off + seg.len()]);
        });
    }

    /// One-sided accumulate (`ddi_acc`): remote `+=`.
    pub fn acc(&self, caller: usize, lo: usize, data: &[f64]) {
        self.for_range(caller, lo, data.len(), |off, _seg_lo, seg| {
            for (s, d) in seg.iter_mut().zip(&data[off..]) {
                *s += d;
            }
        });
    }

    /// Bytes that crossed rank boundaries so far.
    pub fn remote_traffic_bytes(&self) -> u64 {
        self.remote_bytes.load(Relaxed)
    }

    /// Request/response messages serviced by data-server processes.
    /// Always zero in [`DdiMode::Mpi3OneSided`].
    pub fn server_messages(&self) -> u64 {
        self.server_messages.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_process_counts() {
        assert_eq!(DdiMode::DataServer.processes_per_rank(), 2);
        assert_eq!(DdiMode::Mpi3OneSided.processes_per_rank(), 1);
    }

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
    fn remote_traffic_counts_only_cross_rank_bytes() {
        let a = DistributedArray::new(100, 4); // seg_len 25
        a.put(0, 0, &[1.0; 25]); // entirely local to rank 0
        assert_eq!(a.remote_traffic_bytes(), 0);
        a.put(0, 25, &[1.0; 25]); // entirely on rank 1
        assert_eq!(a.remote_traffic_bytes(), 200);
    }

    #[test]
    fn data_server_mode_charges_local_access_and_counts_messages() {
        let a = DistributedArray::new_with_mode(100, 4, DdiMode::DataServer); // seg_len 25
        a.put(0, 0, &[1.0; 25]); // local segment — still a server round-trip
        assert_eq!(a.remote_traffic_bytes(), 200);
        assert_eq!(a.server_messages(), 1);
        a.acc(0, 20, &[1.0; 10]); // spans segments 0 and 1: two messages
        assert_eq!(a.remote_traffic_bytes(), 280);
        assert_eq!(a.server_messages(), 3);
    }

    #[test]
    fn one_sided_mode_has_no_server_messages() {
        let a = DistributedArray::new(100, 4);
        a.put(0, 0, &[1.0; 50]);
        a.get(1, 0, &mut [0.0; 50]);
        assert_eq!(a.server_messages(), 0);
    }

    #[test]
    fn modes_produce_identical_numerics() {
        for mode in [DdiMode::DataServer, DdiMode::Mpi3OneSided] {
            let a = DistributedArray::new_with_mode(10, 3, mode);
            a.put(0, 2, &[1.0, 2.0, 3.0]);
            a.acc(1, 3, &[0.5, 0.5]);
            let mut out = vec![0.0; 4];
            a.get(2, 2, &mut out);
            assert_eq!(out, vec![1.0, 2.5, 3.5, 0.0], "{}", mode.label());
        }
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
        for mode in [DdiMode::Mpi3OneSided, DdiMode::DataServer] {
            let a = DistributedArray::new_with_mode(100, 4, mode) // seg_len 25
                .with_faults(&plan);
            // First remote request on edge 0 -> 1 is dropped, its
            // retransmission is corrupted, the third copy lands.
            a.put(0, 25, &[2.0; 25]);
            let mut out = vec![0.0; 25];
            a.get(0, 25, &mut out);
            assert_eq!(out, vec![2.0; 25], "{}", mode.label());
            let s = a.link_stats();
            assert_eq!(s.retransmits, 2, "{}", mode.label());
            assert_eq!(s.corruptions_detected, 1);
            assert_eq!(s.transient_recoveries, 1, "one request recovered (after two faults)");
            assert_eq!(s.faults_injected, 2);
            assert_eq!(s.acks, 2, "the put and the get were each acknowledged once");
        }
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
        // Data servers route even local access through the link.
        let ds = DistributedArray::new_with_mode(100, 4, DdiMode::DataServer).with_faults(&plan);
        ds.put(0, 0, &[1.0; 25]);
        assert_eq!(ds.link_stats().acks, 1);
        assert_eq!(ds.link_stats().retransmits, 1, "the local-edge drop fired and was absorbed");
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
