//! Per-build statistics: timings, quartet counts, memory accounting.
//!
//! The paper's headline metrics are "TIME TO FORM FOCK" (wall seconds of
//! the two-electron build) and the per-node memory footprint; both are
//! collected here for every build.

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
    /// Sum of per-rank peak tracked bytes (the paper's footprint metric).
    pub memory_total_peak: usize,
    /// Peak tracked bytes per rank.
    pub per_rank_peak: Vec<usize>,
    /// Tasks reclaimed from dead ranks and reissued to survivors.
    /// World-global, set once per build.
    pub tasks_reclaimed: usize,
    /// Lease claims served from the reissue queue — recovery work
    /// re-executed by surviving ranks. World-global, set once per build.
    pub retries: usize,
    /// Ranks that died during this build, in order of death.
    pub failed_ranks: Vec<usize>,
    /// Faults injected by the `FaultPlan` and the reliable-delivery work
    /// that absorbed them, summed over the world's rank messages and the
    /// build's DDI window links. World-global, set once per build like
    /// `dlb_calls`; all zero without fault injection.
    pub comm: phi_dmpi::CommStats,
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

    /// Per-rank peak (high-water) tracked bytes: the largest single-rank
    /// footprint the live tracker saw during this build — the number the
    /// memory-wall benches assert budget claims against. Zero for builds
    /// that run no tracked world (the serial reference).
    pub fn max_rank_peak(&self) -> usize {
        self.per_rank_peak.iter().copied().max().unwrap_or(0)
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
    fn max_rank_peak_is_the_high_water_rank() {
        assert_eq!(FockBuildStats::default().max_rank_peak(), 0);
        let s = FockBuildStats { per_rank_peak: vec![100, 700, 300], ..Default::default() };
        assert_eq!(s.max_rank_peak(), 700);
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
