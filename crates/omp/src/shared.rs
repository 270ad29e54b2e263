//! Atomically updatable shared `f64` buffers.
//!
//! The paper's shared-Fock algorithm updates `Fock(k,l)` directly from many
//! threads, relying on the loop partitioning to guarantee distinct elements
//! per thread. Safe Rust cannot express "trust me, the indices are
//! disjoint" without `unsafe`; instead [`SharedAccumulator`] performs the
//! adds atomically (relaxed CAS on the f64 bit pattern).
//!
//! The CAS is cheap only while the cache line stays put. Under the dynamic
//! schedule each thread's `kl` iterations are a contiguous run of its home
//! range ([`Schedule::Dynamic`](crate::Schedule::Dynamic)), so most of its
//! `(k,l)` writes land on lines no teammate is writing; the runs' ends and
//! the stolen tail still share lines. An add per integral bounced lines
//! between cores often enough to show in the benchmark's two-thread builds,
//! so callers sum in thread-local storage and add once per unit of work:
//! the shared-Fock sink once per quartet, the column flushes once per row
//! (DESIGN.md, safe-Rust substitution row).

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size `f64` buffer supporting concurrent `+=` from many threads.
pub struct SharedAccumulator {
    data: Vec<AtomicU64>,
}

impl SharedAccumulator {
    /// Zero-initialized buffer of `len` elements.
    pub fn new(len: usize) -> SharedAccumulator {
        SharedAccumulator { data: (0..len).map(|_| AtomicU64::new(0f64.to_bits())).collect() }
    }

    /// Atomically `self[idx] += v`.
    #[inline]
    pub fn add(&self, idx: usize, v: f64) {
        if v == 0.0 {
            return;
        }
        let cell = &self.data[idx];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    #[inline]
    pub fn load(&self, idx: usize) -> f64 {
        f64::from_bits(self.data[idx].load(Ordering::Relaxed))
    }

    /// Non-atomic read of the whole buffer. Callers must ensure no
    /// concurrent writers (e.g. after a barrier), which the Fock builders
    /// guarantee by construction.
    pub fn snapshot(&self) -> Vec<f64> {
        self.data.iter().map(|c| f64::from_bits(c.load(Ordering::Relaxed))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Team;

    #[test]
    fn concurrent_adds_lose_nothing() {
        let acc = SharedAccumulator::new(8);
        let team = Team::new(4);
        team.parallel(|_ctx| {
            for k in 0..10_000 {
                acc.add(k % 8, 1.0);
            }
        });
        for i in 0..8 {
            assert_eq!(acc.load(i), 4.0 * (10_000 / 8) as f64);
        }
    }

    #[test]
    fn zero_add_is_free_and_correct() {
        let acc = SharedAccumulator::new(1);
        acc.add(0, 0.0);
        acc.add(0, 2.5);
        acc.add(0, 0.0);
        assert_eq!(acc.load(0), 2.5);
    }
}
