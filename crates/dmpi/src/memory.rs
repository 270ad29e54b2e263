//! Per-rank memory accounting.
//!
//! The central claim of the paper is a memory-footprint reduction (Table 2:
//! ~50x for private Fock, ~200x for shared Fock). To *measure* rather than
//! assert this, every large buffer a Fock algorithm allocates is charged to
//! its rank (`Rank::charge_bytes` / `release_bytes`), and the tracker
//! records current and peak bytes per rank.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks current and peak allocated bytes for every rank of a world.
#[derive(Debug)]
pub struct MemoryTracker {
    current: Vec<AtomicUsize>,
    peak: Vec<AtomicUsize>,
}

impl MemoryTracker {
    pub fn new(n_ranks: usize) -> MemoryTracker {
        MemoryTracker {
            current: (0..n_ranks).map(|_| AtomicUsize::new(0)).collect(),
            peak: (0..n_ranks).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    pub fn on_alloc(&self, rank: usize, bytes: usize) {
        let cur = self.current[rank].fetch_add(bytes, Ordering::Relaxed) + bytes;
        // Monotone max update.
        let mut peak = self.peak[rank].load(Ordering::Relaxed);
        while cur > peak {
            match self.peak[rank].compare_exchange_weak(
                peak,
                cur,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
    }

    pub fn on_free(&self, rank: usize, bytes: usize) {
        self.current[rank].fetch_sub(bytes, Ordering::Relaxed);
    }

    pub fn report(&self) -> MemoryReport {
        MemoryReport {
            per_rank_peak: self.peak.iter().map(|p| p.load(Ordering::Relaxed)).collect(),
            per_rank_current: self.current.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// Snapshot of the tracker.
#[derive(Clone, Debug)]
pub struct MemoryReport {
    pub per_rank_peak: Vec<usize>,
    pub per_rank_current: Vec<usize>,
}

impl MemoryReport {
    /// Sum of per-rank peaks: the paper's "memory footprint" metric for a
    /// node running all these ranks.
    pub fn total_peak(&self) -> usize {
        self.per_rank_peak.iter().sum()
    }

    pub fn max_rank_peak(&self) -> usize {
        self.per_rank_peak.iter().copied().max().unwrap_or(0)
    }

    /// Bytes still accounted as live (should be 0 after a clean run).
    pub fn total_current(&self) -> usize {
        self.per_rank_current.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn alloc_free_cycle_tracks_peak() {
        let t = MemoryTracker::new(2);
        t.on_alloc(0, 8000);
        t.on_alloc(0, 4000);
        assert_eq!(t.report().per_rank_current[0], 12000);
        t.on_free(0, 4000);
        let r = t.report();
        assert_eq!(r.per_rank_current[0], 8000);
        assert_eq!(r.per_rank_peak[0], 12000);
        t.on_free(0, 8000);
        let r = t.report();
        assert_eq!(r.total_current(), 0);
        assert_eq!(r.per_rank_peak[0], 12000, "peak survives frees");
        assert_eq!(r.per_rank_peak[1], 0);
    }

    #[test]
    fn per_rank_isolation() {
        let t = MemoryTracker::new(3);
        t.on_alloc(0, 80);
        t.on_alloc(2, 160);
        let r = t.report();
        assert_eq!(r.per_rank_peak, vec![80, 0, 160]);
        assert_eq!(r.total_peak(), 240);
        assert_eq!(r.max_rank_peak(), 160);
    }

    #[test]
    fn concurrent_peak_is_monotone() {
        let t = Arc::new(MemoryTracker::new(1));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    t.on_alloc(0, 800);
                    t.on_free(0, 800);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let r = t.report();
        assert_eq!(r.total_current(), 0);
        assert!(r.per_rank_peak[0] >= 800);
        assert!(r.per_rank_peak[0] <= 4 * 800);
    }
}
