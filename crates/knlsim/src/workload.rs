//! Translate the exact screened workload statistics into cost-weighted
//! task lists for the simulator.

use crate::cost::EriCostTable;
use phi_chem::BasisSet;
use phi_integrals::screening::WorkloadStats;

/// One MPI task with its nominal single-thread cost.
#[derive(Clone, Copy, Debug)]
pub struct SimTask {
    pub i: u32,
    pub j: u32,
    /// Nominal-thread seconds of ERI + digestion work.
    pub cost_s: f64,
    /// Surviving quartets inside the task (thread-level work items).
    pub n_items: u64,
}

/// The screened workload of one Fock-build iteration, cost-weighted.
#[derive(Clone, Debug)]
pub struct Workload {
    pub n_basis: usize,
    pub n_shells: usize,
    /// Canonical shell-pair count (the MPI-only / shared-Fock task space).
    pub total_pairs: usize,
    /// Surviving `ij` tasks in canonical order.
    pub ij_tasks: Vec<SimTask>,
    pub total_cost_s: f64,
    pub surviving_quartets: u128,
    /// Total canonical quartets (screened or not) — the Schwarz-check loop
    /// trip count of the non-prescreened algorithms.
    pub total_quartets: u128,
    /// Sum of `klmax` over surviving tasks — the check trip count of the
    /// prescreened shared-Fock algorithm.
    pub sum_klmax_tasks: u128,
    pub max_shell_width: usize,
}

impl Workload {
    /// Build from the exact screening statistics plus a cost table.
    pub fn build(basis: &BasisSet, stats: &WorkloadStats, eri: &EriCostTable) -> Workload {
        assert_eq!(stats.n_pair_classes(), eri.n_pair_classes, "cost table class mismatch");
        let npc = stats.n_pair_classes();
        let mut ij_tasks = Vec::with_capacity(stats.tasks.len());
        let mut total_cost = 0.0;
        let mut sum_klmax: u128 = 0;
        for (t, task) in stats.tasks.iter().enumerate() {
            let bra_pc = stats.classes.pair_class(task.i as usize, task.j as usize);
            let counts = &stats.kl_counts[t * npc..(t + 1) * npc];
            let mut cost_ns = 0.0;
            let mut items = 0u64;
            for (c, &cnt) in counts.iter().enumerate() {
                cost_ns += cnt as f64 * eri.get(bra_pc, c);
                items += cnt as u64;
            }
            let cost_s = cost_ns * 1e-9;
            total_cost += cost_s;
            let i = task.i as usize;
            sum_klmax += (i * (i + 1) / 2 + task.j as usize + 1) as u128;
            ij_tasks.push(SimTask { i: task.i, j: task.j, cost_s, n_items: items });
        }
        let ns = stats.n_shells;
        Workload {
            n_basis: basis.n_basis(),
            n_shells: ns,
            total_pairs: ns * (ns + 1) / 2,
            ij_tasks,
            total_cost_s: total_cost,
            surviving_quartets: stats.surviving_quartets(),
            total_quartets: stats.total_quartets,
            sum_klmax_tasks: sum_klmax,
            max_shell_width: basis.max_shell_width(),
        }
    }

    /// Group `ij` tasks by their `i` index — the MPI task space of
    /// Algorithm 2 (DLB over `i` only). Thread-level item counts become the
    /// collapsed `(j+1) x (k+1)` rectangle the OpenMP loop workshares.
    pub fn tasks_by_i(&self) -> Vec<SimTask> {
        let mut by_i: Vec<SimTask> = Vec::new();
        for t in &self.ij_tasks {
            match by_i.last_mut() {
                Some(last) if last.i == t.i => {
                    last.cost_s += t.cost_s;
                    last.n_items += t.n_items;
                }
                _ => by_i.push(*t),
            }
        }
        // The collapsed loop size is (i+1)^2 regardless of screening; items
        // for imbalance modelling should be the larger of surviving work
        // items and a floor of 1.
        for t in &mut by_i {
            t.j = 0;
            t.n_items = t.n_items.max(1);
        }
        by_i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::basis::{BasisName, BasisSet};
    use phi_chem::geom::small;
    use phi_integrals::screening::{ShellClasses, WorkloadStats};
    use phi_integrals::Screening;

    fn workload_for(mol: &phi_chem::Molecule, tau: f64) -> (BasisSet, Workload) {
        let b = BasisSet::build(mol, BasisName::Sto3g);
        let s = Screening::compute_hybrid(&b, 0.0);
        let stats = WorkloadStats::compute(&b, &s, tau);
        let classes = ShellClasses::classify(&b);
        let eri = EriCostTable::analytic(&classes);
        let w = Workload::build(&b, &stats, &eri);
        (b, w)
    }

    #[test]
    fn costs_are_positive_and_sum() {
        let (_b, w) = workload_for(&small::water(), 1e-10);
        assert!(!w.ij_tasks.is_empty());
        let sum: f64 = w.ij_tasks.iter().map(|t| t.cost_s).sum();
        assert!((sum - w.total_cost_s).abs() < 1e-12 * sum.max(1.0));
        assert!(w.ij_tasks.iter().all(|t| t.cost_s > 0.0));
    }

    #[test]
    fn grouping_by_i_preserves_total_cost() {
        let (_b, w) = workload_for(&small::h_chain(10, 2.5), 1e-10);
        let by_i = w.tasks_by_i();
        assert!(by_i.len() <= w.n_shells);
        let sum: f64 = by_i.iter().map(|t| t.cost_s).sum();
        assert!((sum - w.total_cost_s).abs() < 1e-12 * sum.max(1.0));
        // i values strictly increasing after grouping.
        for pair in by_i.windows(2) {
            assert!(pair[0].i < pair[1].i);
        }
    }

    #[test]
    fn screening_shrinks_the_workload() {
        let mol = small::h_chain(12, 4.0);
        let (_b1, loose) = workload_for(&mol, 1e-4);
        let (_b2, tight) = workload_for(&mol, 1e-12);
        assert!(loose.total_cost_s < tight.total_cost_s);
        assert!(loose.surviving_quartets < tight.surviving_quartets);
    }
}
