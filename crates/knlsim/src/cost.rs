//! Cost model: per-quartet ERI costs by shell-class pair, synchronization
//! and runtime overheads, and the knobs tying them to the KNL machine.

use phi_integrals::screening::ShellClasses;

/// Per-quartet ERI + digestion cost table, nanoseconds on one *nominal*
/// thread (the calibration host's single thread), indexed by
/// `[bra pair class][ket pair class]`.
#[derive(Clone, Debug)]
pub struct EriCostTable {
    pub n_pair_classes: usize,
    pub ns: Vec<f64>,
}

impl EriCostTable {
    pub fn get(&self, bra_pc: usize, ket_pc: usize) -> f64 {
        self.ns[bra_pc * self.n_pair_classes + ket_pc]
    }

    /// Deterministic stand-in for [`crate::calibrate`]: quartet cost scales
    /// with the primitive-quartet count plus the component-quartet count of
    /// the two pairs. It is what `--quick`, CI and every shape test run on,
    /// because a timed table would make their output differ run to run; it
    /// is *not* a measurement. Per class pair it sits between 0.06x and 19x
    /// of the calibrated table (EXPERIMENTS.md "PR 20") — the orderings the
    /// shape tests assert survive that, absolute seconds do not.
    pub fn analytic(classes: &ShellClasses) -> EriCostTable {
        let npc = classes.n_pair_classes();
        let nc = classes.n_classes();
        // Per-pair-class primitive and function products.
        let mut pair_prims = vec![0.0; npc];
        let mut pair_fns = vec![0.0; npc];
        for a in 0..nc {
            for b in 0..=a {
                let pc = a * (a + 1) / 2 + b;
                let (fa, pa, _) = classes.descr[a];
                let (fb, pb, _) = classes.descr[b];
                pair_prims[pc] = (pa * pb) as f64;
                pair_fns[pc] = (fa * fb) as f64;
            }
        }
        let mut ns = vec![0.0; npc * npc];
        for bra in 0..npc {
            for ket in 0..npc {
                // 110 ns per primitive quartet plus 6 ns per output
                // component: the engine's proportions before the class
                // kernels and the tabulated Boys function (a primitive
                // ssss quartet is 13.7 ns since PR 17). Kept as is — the
                // `--quick` tables are pinned byte for byte on it.
                ns[bra * npc + ket] =
                    110.0 * pair_prims[bra] * pair_prims[ket] + 6.0 * pair_fns[bra] * pair_fns[ket];
            }
        }
        EriCostTable { n_pair_classes: npc, ns }
    }
}

/// All model constants in one place, with defaults chosen for the KNL
/// machine the paper benchmarks. Durations in seconds unless suffixed.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Per-quartet costs (nominal-thread nanoseconds).
    pub eri: EriCostTable,
    /// Ratio of one nominal (calibration host) thread to one KNL core at
    /// one thread per core. KNL cores are narrow in-order-flavoured cores
    /// at 1.3 GHz.
    pub knl_slowdown: f64,
    /// DLB counter claim latency: on-node atomic vs off-node RPC.
    pub dlb_on_node_s: f64,
    pub dlb_off_node_s: f64,
    /// Serialized service time at the counter's home NIC per fetch-add
    /// (Aries offloads these in hardware, so it is far below the per-claim
    /// round-trip latency).
    pub dlb_service_s: f64,
    /// Team barrier: base plus per-log2(threads) term.
    pub barrier_base_s: f64,
    pub barrier_per_log2_thread_s: f64,
    /// Buffer flush cost per matrix element (reads one element per thread
    /// column plus one shared add).
    pub flush_per_element_s: f64,
    /// Extra shared-Fock cost per quartet for atomic adds.
    pub atomic_per_quartet_s: f64,
    /// Shared-Fock write contention: fractional slowdown per log2(threads)
    /// from many threads updating one matrix (cache-line ping-pong). This
    /// is the paper's "synchronization overhead" that lets private Fock
    /// win on a single node (§6.1) — ~15% at 64 threads.
    pub shared_write_contention: f64,
    /// Fraction of ERI time that is memory-bandwidth sensitive.
    pub mem_fraction: f64,
    /// Reference bandwidth at which `eri` costs were taken (GB/s).
    pub reference_bw_gbs: f64,
    /// Penalty factor per fully-saturated MCDRAM of replicated footprint
    /// (cache pressure of many fat processes).
    pub cache_pressure: f64,
    /// Migration penalty for unpinned threads (affinity "none").
    pub migration_penalty: f64,
    /// Uniform scale applied to every simulated time, set by anchoring one
    /// simulated point to one published number (see scenarios).
    pub time_scale: f64,
}

impl CostModel {
    pub fn new(eri: EriCostTable) -> CostModel {
        CostModel {
            eri,
            knl_slowdown: 3.0,
            dlb_on_node_s: 0.3e-6,
            dlb_off_node_s: 2.0e-6,
            dlb_service_s: 0.2e-6,
            barrier_base_s: 0.3e-6,
            barrier_per_log2_thread_s: 0.25e-6,
            flush_per_element_s: 1.0e-9,
            atomic_per_quartet_s: 120.0e-9,
            shared_write_contention: 0.025,
            mem_fraction: 0.25,
            reference_bw_gbs: 400.0,
            cache_pressure: 0.15,
            migration_penalty: 1.06,
            time_scale: 1.0,
        }
    }

    /// Barrier latency for a team of `t` threads.
    pub fn barrier_s(&self, t: usize) -> f64 {
        if t <= 1 {
            return 0.0;
        }
        self.barrier_base_s + self.barrier_per_log2_thread_s * (t as f64).log2()
    }

    /// Memory-bandwidth slowdown factor for an effective bandwidth.
    pub fn bandwidth_factor(&self, effective_bw_gbs: f64) -> f64 {
        (1.0 - self.mem_fraction) + self.mem_fraction * self.reference_bw_gbs / effective_bw_gbs
    }

    /// Cache-pressure factor for `footprint_gb` of per-node replicated
    /// data competing for the 16 GB MCDRAM cache.
    pub fn pressure_factor(&self, footprint_gb: f64, mcdram_gb: f64) -> f64 {
        1.0 + self.cache_pressure * (footprint_gb / mcdram_gb).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::basis::{BasisName, BasisSet};
    use phi_chem::geom::small;

    fn carbon_classes() -> ShellClasses {
        let b = BasisSet::build(&small::c_ring(6, 1.39), BasisName::B631gd);
        ShellClasses::classify(&b)
    }

    #[test]
    fn analytic_costs_are_positive_and_ordered() {
        let classes = carbon_classes();
        let t = EriCostTable::analytic(&classes);
        for v in &t.ns {
            assert!(*v > 0.0);
        }
        // The (S6,S6)x(S6,S6) quartet (36x36 primitive quartets) must cost
        // more than the (D1,D1)x(D1,D1) quartet (1 primitive quartet).
        // Class ids from classify(): 0 = S6, 1 = L3, 2 = L1, 3 = D1.
        let pc = |a: usize, b: usize| a * (a + 1) / 2 + b;
        assert!(t.get(pc(0, 0), pc(0, 0)) > t.get(pc(3, 3), pc(3, 3)));
    }

    #[test]
    fn barrier_grows_with_threads() {
        let m = CostModel::new(EriCostTable::analytic(&carbon_classes()));
        assert_eq!(m.barrier_s(1), 0.0);
        assert!(m.barrier_s(64) > m.barrier_s(2));
    }

    #[test]
    fn bandwidth_factor_is_one_at_reference() {
        let m = CostModel::new(EriCostTable::analytic(&carbon_classes()));
        assert!((m.bandwidth_factor(400.0) - 1.0).abs() < 1e-12);
        assert!(m.bandwidth_factor(100.0) > 1.0);
        assert!(m.bandwidth_factor(100.0) < 2.0, "compute-bound code cannot slow 4x");
    }

    #[test]
    fn pressure_factor_saturates() {
        let m = CostModel::new(EriCostTable::analytic(&carbon_classes()));
        assert!((m.pressure_factor(0.0, 16.0) - 1.0).abs() < 1e-12);
        assert_eq!(m.pressure_factor(16.0, 16.0), m.pressure_factor(1000.0, 16.0));
    }
}
