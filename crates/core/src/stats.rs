//! Per-build statistics: timings, quartet counts, modeled memory.
//!
//! The paper's headline metrics are "TIME TO FORM FOCK" (wall seconds of
//! the two-electron build) and the per-node memory footprint; every build
//! reports both, the footprint as its row of [`crate::MemoryModel`].

/// Statistics of one two-electron Fock build.
#[derive(Clone, Debug, Default)]
pub struct FockBuildStats {
    /// Wall-clock seconds of the build (the paper's "TIME TO FORM FOCK",
    /// measured with a monotonic clock — the paper's artifact notes that
    /// CPU-time-based timers mislead for multithreaded code).
    pub seconds: f64,
    /// Shell quartets whose ERIs were computed.
    pub quartets_computed: u64,
    /// Quartet tests that failed: quartets on the significant-pair list
    /// that Schwarz screening rejected. Quartets on pairs off the list are
    /// never tested, so `quartets_computed + quartets_screened` is the
    /// tests performed.
    pub quartets_screened: u64,
    /// Primitive quartets evaluated inside the ERI engine.
    pub prim_quartets: u64,
    /// Shell quartets evaluated per ERI class slot
    /// ([`phi_integrals::N_CLASS_SLOTS`] entries: the specialized kernel
    /// classes in [`phi_integrals::CLASS_LABELS`] order, then the generic
    /// fallback). Empty when the build recorded no class accounting.
    pub eri_class_quartets: Vec<u64>,
    /// DLB counter claims made (MPI task pulls).
    pub dlb_tasks: usize,
    /// Total calls to the global DLB counter, including the final
    /// out-of-range claim each rank makes before exiting its task loop
    /// (`WorldResult::dlb_calls`). Zero for the serial builder, which has
    /// no counter. Set once per build from the world's counter —
    /// [`FockBuildStats::merge`] deliberately ignores it.
    pub dlb_calls: usize,
    /// Buffer flushes performed: FI/FJ column-buffer flushes in the
    /// shared-Fock build, `acc` runs in the window builds (distributed and
    /// sharded).
    pub flushes: u64,
    /// Entries the window builds pushed into their `acc` buffers (zero
    /// on every other row): one per nonzero element of a drained strip
    /// or of a quartet's `(k, l)` block.
    pub acc_entries: u64,
    /// Bytes one rank of this build's algorithm holds, as modeled:
    /// [`crate::MemoryModel::per_rank_bytes`], set once per build. A
    /// model, not a count of allocations (DESIGN.md §13).
    pub rank_bytes: usize,
    /// Tasks reclaimed from dead ranks and reissued to survivors.
    /// World-global, set once per build.
    pub tasks_reclaimed: usize,
    /// Lease claims served from the reissue queue — recovery work
    /// re-executed by surviving ranks. World-global, set once per build.
    pub retries: usize,
    /// Ranks that died during this build, in order of death.
    pub failed_ranks: Vec<usize>,
    /// Faults the `FaultPlan` injected: rank kills and stragglers.
    /// World-global, set once per build like `dlb_calls`; zero without
    /// fault injection.
    pub faults_injected: u64,
    /// No `G` survived the build: its lease range did not complete, or no
    /// live rank returned the reduced Fock, because ranks gave up on waits
    /// that timed out. `G` is then NaN.
    pub lost: bool,
}

impl FockBuildStats {
    /// Fraction of the `P(P+1)/2` canonical quartets, `P` the shell pairs
    /// of `n_shells` shells, that were not computed. Not
    /// `quartets_screened` over the tests: rows walk only significant
    /// pairs, so the tests performed are not the canonical quartets.
    /// Quartets recomputed after a rank death can push the computed count
    /// past the canonical one; the fraction then reads 0.
    pub fn screened_fraction(&self, n_shells: usize) -> f64 {
        let pairs = phi_integrals::screening::n_pairs(n_shells) as f64;
        let canonical = pairs * (pairs + 1.0) / 2.0;
        if canonical == 0.0 {
            0.0
        } else {
            (1.0 - self.quartets_computed as f64 / canonical).max(0.0)
        }
    }

    /// Shell quartets that ran a class-specialized ERI kernel (every class
    /// slot except the generic fallback).
    pub fn eri_spec_quartets(&self) -> u64 {
        let spec = self.eri_class_quartets.len().min(phi_integrals::GENERIC_SLOT);
        self.eri_class_quartets[..spec].iter().sum()
    }

    /// The busiest rank's bytes: every rank of a build holds the same
    /// modeled [`rank_bytes`](Self::rank_bytes).
    pub fn max_rank_peak(&self) -> usize {
        self.rank_bytes
    }

    /// Merge the stats of parallel contributors (max time, summed counts).
    /// `dlb_calls` is world-global and therefore *not* merged — builders
    /// set it once from the world counter after merging.
    pub fn merge(mut acc: FockBuildStats, other: &FockBuildStats) -> FockBuildStats {
        acc.seconds = acc.seconds.max(other.seconds);
        acc.quartets_computed += other.quartets_computed;
        acc.quartets_screened += other.quartets_screened;
        acc.prim_quartets += other.prim_quartets;
        if acc.eri_class_quartets.len() < other.eri_class_quartets.len() {
            acc.eri_class_quartets.resize(other.eri_class_quartets.len(), 0);
        }
        for (a, o) in acc.eri_class_quartets.iter_mut().zip(&other.eri_class_quartets) {
            *a += o;
        }
        acc.dlb_tasks += other.dlb_tasks;
        acc.flushes += other.flushes;
        acc.acc_entries += other.acc_entries;
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screened_fraction_counts_canonical_quartets() {
        assert_eq!(FockBuildStats::default().screened_fraction(0), 0.0);
        // 2 shells: 3 pairs, 6 canonical quartets, whatever was tested.
        let s = |computed, screened| FockBuildStats {
            quartets_computed: computed,
            quartets_screened: screened,
            ..Default::default()
        };
        assert_eq!(s(0, 0).screened_fraction(2), 1.0);
        assert_eq!(s(3, 0).screened_fraction(2), 0.5);
        assert_eq!(s(3, 3).screened_fraction(2), 0.5);
        assert_eq!(s(6, 0).screened_fraction(2), 0.0);
        assert_eq!(s(9, 0).screened_fraction(2), 0.0);
    }

    #[test]
    fn merge_takes_max_time_and_sums_counts() {
        let a = FockBuildStats {
            seconds: 1.0,
            quartets_computed: 10,
            quartets_screened: 4,
            flushes: 2,
            dlb_calls: 7,
            ..Default::default()
        };
        let b = FockBuildStats {
            seconds: 2.0,
            quartets_computed: 5,
            quartets_screened: 6,
            flushes: 3,
            dlb_calls: 9,
            ..Default::default()
        };
        let m = FockBuildStats::merge(a, &b);
        assert_eq!(m.seconds, 2.0);
        assert_eq!(m.quartets_computed, 15);
        assert_eq!(m.quartets_screened, 10);
        assert_eq!(m.flushes, 5);
        // World-global: set once per build, never merged.
        assert_eq!(m.dlb_calls, 7);
    }

    #[test]
    fn merge_adds_class_counters_elementwise() {
        let a = FockBuildStats { eri_class_quartets: vec![1, 2], ..Default::default() };
        let b = FockBuildStats { eri_class_quartets: vec![10, 20, 30], ..Default::default() };
        let m = FockBuildStats::merge(a, &b);
        assert_eq!(m.eri_class_quartets, vec![11, 22, 30]);
        // Merging an empty contributor is a no-op.
        let m2 = FockBuildStats::merge(m, &FockBuildStats::default());
        assert_eq!(m2.eri_class_quartets, vec![11, 22, 30]);
    }

    #[test]
    fn spec_quartet_accessor_excludes_the_generic_slot() {
        assert_eq!(FockBuildStats::default().eri_spec_quartets(), 0);
        let mut v = vec![0u64; phi_integrals::N_CLASS_SLOTS];
        v[phi_integrals::class_index(0, 0)] = 3;
        v[phi_integrals::class_index(4, 4)] = 5;
        v[phi_integrals::GENERIC_SLOT] = 100;
        let s = FockBuildStats { eri_class_quartets: v, ..Default::default() };
        assert_eq!(s.eri_spec_quartets(), 8);
    }
}
