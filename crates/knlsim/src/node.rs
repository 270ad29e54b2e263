//! KNL node parameters, cluster modes and memory modes (paper §5.1).

/// Second-generation Xeon Phi node (models 7210/7230 as benchmarked).
#[derive(Clone, Copy, Debug)]
pub struct KnlNode {
    pub cores: usize,
    pub smt: usize,
    pub mcdram_gb: f64,
    pub mcdram_bw_gbs: f64,
    pub ddr_gb: f64,
    pub ddr_bw_gbs: f64,
}

impl Default for KnlNode {
    fn default() -> Self {
        KnlNode {
            cores: 64,
            smt: 4,
            mcdram_gb: 16.0,
            mcdram_bw_gbs: 400.0,
            ddr_gb: 192.0,
            ddr_bw_gbs: 100.0,
        }
    }
}

impl KnlNode {
    pub fn total_memory_gb(&self) -> f64 {
        self.mcdram_gb + self.ddr_gb
    }

    /// Relative per-core throughput with `load` hardware threads resident
    /// (paper §6.1: two threads per core give the highest benefit, three
    /// and four some gain "at a diminished level"). Fractional loads are
    /// interpolated.
    pub fn core_throughput(&self, load: f64) -> f64 {
        // Control points at 1..4 threads/core.
        const TP: [f64; 4] = [1.0, 1.5, 1.62, 1.70];
        if load <= 1.0 {
            return TP[0] * load.max(0.0);
        }
        if load >= 4.0 {
            return TP[3];
        }
        let lo = load.floor() as usize; // 1..3
        let frac = load - lo as f64;
        TP[lo - 1] * (1.0 - frac) + TP[lo] * frac
    }
}

/// Placement policy for a rank's threads over its cores (the
/// `KMP_AFFINITY` axis of paper Figure 3). A cost-model input only: this
/// process does not pin threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Affinity {
    /// Fill hardware threads of a core before moving to the next core
    /// (`KMP_AFFINITY=compact`). Dense L2 sharing; best cache reuse for
    /// neighbouring iterations, worst per-thread issue width at low thread
    /// counts.
    Compact,
    /// Spread threads across cores first (`KMP_AFFINITY=scatter`). Maximal
    /// per-thread resources at low counts; more L2 traffic between
    /// cooperating threads.
    Scatter,
    /// Spread across cores, then pack SMT siblings adjacently
    /// (`KMP_AFFINITY=balanced` — the KNL-specific mode).
    Balanced,
    /// No pinning: the OS migrates threads freely (`KMP_AFFINITY=none`).
    None,
}

impl Affinity {
    /// How many distinct physical cores `n_threads` occupy on a machine
    /// with `cores` cores and `smt` hardware threads per core.
    pub fn cores_used(self, n_threads: usize, cores: usize, smt: usize) -> usize {
        match self {
            Affinity::Compact => n_threads.div_ceil(smt).min(cores),
            // Scatter/balanced/none spread over cores first.
            _ => n_threads.min(cores),
        }
    }
}

/// Cache-coherence cluster mode of the tag-directory mesh (paper §5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ClusterMode {
    AllToAll,
    Quadrant,
    Hemisphere,
    Snc4,
    Snc2,
}

impl ClusterMode {
    pub const ALL: [ClusterMode; 5] = [
        ClusterMode::Quadrant,
        ClusterMode::Hemisphere,
        ClusterMode::Snc4,
        ClusterMode::Snc2,
        ClusterMode::AllToAll,
    ];

    pub fn label(self) -> &'static str {
        match self {
            ClusterMode::AllToAll => "all-to-all",
            ClusterMode::Quadrant => "quadrant",
            ClusterMode::Hemisphere => "hemisphere",
            ClusterMode::Snc4 => "SNC-4",
            ClusterMode::Snc2 => "SNC-2",
        }
    }

    /// Multiplier on memory/coherence-sensitive time. `shared_intensity`
    /// in [0, 1] expresses how much of the algorithm's traffic goes through
    /// shared, coherence-visible structures (0 = fully replicated MPI-only
    /// data, 1 = shared Fock). All-to-all loses tag-directory locality and
    /// punishes shared traffic hardest — this is what lets the MPI-only
    /// code beat the shared-Fock code in all-to-all mode on small systems
    /// (paper Fig. 5).
    pub fn coherence_factor(self, shared_intensity: f64) -> f64 {
        let (base, shared) = match self {
            ClusterMode::Quadrant => (1.0, 0.02),
            ClusterMode::Hemisphere => (1.01, 0.03),
            ClusterMode::Snc4 => (1.005, 0.035),
            ClusterMode::Snc2 => (1.01, 0.04),
            ClusterMode::AllToAll => (1.06, 0.85),
        };
        base + shared * shared_intensity
    }
}

/// MCDRAM configuration (paper §5.1): the two modes Fig. 5 compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemoryMode {
    /// MCDRAM as a direct-mapped cache in front of DDR4 (the paper's
    /// choice, "quad-cache").
    Cache,
    /// Flat: allocations in DDR4 only.
    FlatDdr,
}

impl MemoryMode {
    pub fn label(self) -> &'static str {
        match self {
            MemoryMode::Cache => "cache",
            MemoryMode::FlatDdr => "flat-DDR",
        }
    }

    /// Effective bandwidth for a working set of `ws_gb`, and feasibility.
    pub fn effective_bandwidth(self, node: &KnlNode, ws_gb: f64) -> Option<f64> {
        match self {
            MemoryMode::Cache => {
                // Fraction of the working set resident in the MCDRAM cache.
                let hit = (node.mcdram_gb / ws_gb).min(1.0);
                Some(hit * node.mcdram_bw_gbs + (1.0 - hit) * node.ddr_bw_gbs)
            }
            MemoryMode::FlatDdr => (ws_gb <= node.ddr_gb).then_some(node.ddr_bw_gbs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_fills_a_core_before_the_next_and_the_others_spread() {
        // 8 threads on KNL: compact packs 2 cores at 4 SMT each.
        assert_eq!(Affinity::Compact.cores_used(8, 64, 4), 2);
        assert_eq!(Affinity::Scatter.cores_used(8, 64, 4), 8);
        for a in [Affinity::Compact, Affinity::Scatter, Affinity::Balanced, Affinity::None] {
            assert_eq!(a.cores_used(1, 64, 4), 1);
            assert_eq!(a.cores_used(256, 64, 4), 64, "saturation is the same for every policy");
        }
    }

    #[test]
    fn core_throughput_matches_the_papers_smt_story() {
        let node = KnlNode::default();
        let t1 = node.core_throughput(1.0);
        let t2 = node.core_throughput(2.0);
        let t3 = node.core_throughput(3.0);
        let t4 = node.core_throughput(4.0);
        // Biggest jump 1 -> 2; diminishing gains to 3 and 4.
        assert!(t2 > t1);
        assert!(t2 - t1 > t3 - t2);
        assert!(t3 - t2 >= t4 - t3);
        assert!(t4 < 2.0 * t1, "SMT never doubles throughput");
        // Interpolation is monotone.
        assert!(node.core_throughput(1.5) > t1);
        assert!(node.core_throughput(1.5) < t2);
    }

    #[test]
    fn quadrant_is_the_best_cluster_mode() {
        for intensity in [0.0, 0.5, 1.0] {
            for mode in ClusterMode::ALL {
                assert!(
                    mode.coherence_factor(intensity)
                        >= ClusterMode::Quadrant.coherence_factor(intensity) - 1e-12
                );
            }
        }
    }

    #[test]
    fn all_to_all_punishes_shared_structures_hardest() {
        let a2a = ClusterMode::AllToAll;
        let quad = ClusterMode::Quadrant;
        let penalty_shared = a2a.coherence_factor(1.0) / quad.coherence_factor(1.0);
        let penalty_private = a2a.coherence_factor(0.0) / quad.coherence_factor(0.0);
        assert!(penalty_shared > penalty_private);
        assert!(penalty_shared > 1.5);
    }

    #[test]
    fn cache_mode_degrades_with_working_set() {
        let node = KnlNode::default();
        let small = MemoryMode::Cache.effective_bandwidth(&node, 8.0).unwrap();
        let large = MemoryMode::Cache.effective_bandwidth(&node, 64.0).unwrap();
        assert_eq!(small, node.mcdram_bw_gbs);
        assert!(large < small);
        assert!(large > node.ddr_bw_gbs);
    }
}
