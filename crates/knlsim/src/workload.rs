//! The builders' task list, counted exactly and cost-weighted for the
//! simulator.
//!
//! Task `p` is the `p`-th pair of [`SignificantPairs`], the list every
//! pair-task row leases, and its `kl` space is the list prefix `0..=p`.
//! Its surviving quartets per ket pair class are counted with one Fenwick
//! tree per class over the ranks of that class's sorted distinct bounds:
//! the test `Q_ij * Q_kl >= tau` is monotone in `Q_kl`, so a binary search
//! with that product finds the first passing rank and the tree counts the
//! prefix's pairs at or above it. O(P log P) for a list of P pairs, and
//! exact: no quotient `tau / Q_ij` is ever formed (DESIGN.md §3.1).

use crate::cost::EriCostTable;
use hf::fock::SignificantPairs;
use phi_chem::BasisSet;
use phi_integrals::screening::{n_pairs, pair_index, ShellClasses};
use phi_integrals::Screening;

/// One MPI task with its nominal single-thread cost.
#[derive(Clone, Copy, Debug)]
pub struct SimTask {
    pub i: u32,
    pub j: u32,
    /// Nominal-thread seconds of ERI + digestion work.
    pub cost_s: f64,
    /// Surviving quartets inside the task (thread-level work items).
    pub n_items: u64,
    /// Quartet tests the builders perform on the task: its `kl` space.
    pub n_tests: u64,
}

/// The screened workload of one Fock-build iteration, cost-weighted.
#[derive(Clone, Debug)]
pub struct Workload {
    pub n_basis: usize,
    pub n_shells: usize,
    /// Canonical shell-pair count.
    pub total_pairs: usize,
    /// One task per significant pair, in list order.
    pub ij_tasks: Vec<SimTask>,
    pub total_cost_s: f64,
    pub surviving_quartets: u128,
    /// Quartet tests a dense sweep of every pair off the list makes
    /// (`pair_index + 1` each): GAMESS's loop without Algorithm 3's
    /// line-13 prescreen.
    pub unlisted_checks: u128,
    pub max_shell_width: usize,
}

impl Workload {
    /// Count the list `SignificantPairs::new(screening, tau)` exactly and
    /// price it with `eri`.
    pub fn build(
        basis: &BasisSet,
        screening: &Screening,
        tau: f64,
        eri: &EriCostTable,
    ) -> Workload {
        let classes = ShellClasses::classify(basis);
        let npc = classes.n_pair_classes();
        assert_eq!(npc, eri.n_pair_classes, "cost table class mismatch");
        let list = SignificantPairs::new(screening, tau);
        let listed: Vec<(usize, usize, usize, f64)> = (0..list.len())
            .map(|p| {
                let (i, j) = list.pair(p);
                (i, j, classes.pair_class(i, j), screening.q(i, j))
            })
            .collect();

        // Each class's sorted distinct bounds: the ranks its tree counts.
        let mut bounds: Vec<Vec<f64>> = vec![Vec::new(); npc];
        for &(_, _, c, q) in &listed {
            bounds[c].push(q);
        }
        for b in &mut bounds {
            b.sort_by(f64::total_cmp);
            b.dedup();
        }
        let mut trees: Vec<Fenwick> = bounds.iter().map(|b| Fenwick::new(b.len())).collect();

        let mut ij_tasks = Vec::with_capacity(listed.len());
        let mut total_cost = 0.0;
        let mut surviving: u128 = 0;
        let mut listed_checks: u128 = 0;
        for (p, &(i, j, bra_pc, qij)) in listed.iter().enumerate() {
            trees[bra_pc].insert(bounds[bra_pc].partition_point(|&b| b < qij));
            let mut cost_ns = 0.0;
            let mut items = 0u64;
            for (c, (tree, b)) in trees.iter().zip(&bounds).enumerate() {
                // The ranks failing `Screening::survives`' own product
                // test: a tie at tau survives.
                let first = b.partition_point(|&qkl| qij * qkl < tau);
                let cnt = tree.count_from(first);
                cost_ns += cnt as f64 * eri.get(bra_pc, c);
                items += cnt;
            }
            let cost_s = cost_ns * 1e-9;
            total_cost += cost_s;
            surviving += items as u128;
            listed_checks += pair_index(i, j) as u128 + 1;
            ij_tasks.push(SimTask {
                i: i as u32,
                j: j as u32,
                cost_s,
                n_items: items,
                n_tests: p as u64 + 1,
            });
        }
        let total_pairs = n_pairs(basis.n_shells());
        let all_checks = total_pairs as u128 * (total_pairs as u128 + 1) / 2;
        Workload {
            n_basis: basis.n_basis(),
            n_shells: basis.n_shells(),
            total_pairs,
            ij_tasks,
            total_cost_s: total_cost,
            surviving_quartets: surviving,
            unlisted_checks: all_checks - listed_checks,
            max_shell_width: basis.max_shell_width(),
        }
    }

    /// Fraction of the canonical quartets no task computes.
    pub fn screened_fraction(&self) -> f64 {
        let p = self.total_pairs as f64;
        1.0 - self.surviving_quartets as f64 / (p * (p + 1.0) / 2.0)
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
                    last.n_tests += t.n_tests;
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

/// Counts of inserted ranks, queried by suffix.
struct Fenwick {
    tree: Vec<u32>,
    total: u64,
}

impl Fenwick {
    fn new(n_ranks: usize) -> Fenwick {
        Fenwick { tree: vec![0; n_ranks + 1], total: 0 }
    }

    fn insert(&mut self, rank: usize) {
        let mut i = rank + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
        self.total += 1;
    }

    /// Inserted ranks `>= rank`.
    fn count_from(&self, rank: usize) -> u64 {
        let mut i = rank;
        let mut below = 0u64;
        while i > 0 {
            below += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        self.total - below
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::basis::{BasisName, BasisSet};
    use phi_chem::geom::small;

    fn workload_for(mol: &phi_chem::Molecule, tau: f64) -> (BasisSet, Screening, Workload) {
        let b = BasisSet::build(mol, BasisName::Sto3g);
        let s = Screening::compute_hybrid(&b, 0.0);
        let eri = EriCostTable::analytic(&ShellClasses::classify(&b));
        let w = Workload::build(&b, &s, tau, &eri);
        (b, s, w)
    }

    #[test]
    fn costs_are_positive_and_sum() {
        let (_b, _s, w) = workload_for(&small::water(), 1e-10);
        assert!(!w.ij_tasks.is_empty());
        let sum: f64 = w.ij_tasks.iter().map(|t| t.cost_s).sum();
        assert!((sum - w.total_cost_s).abs() < 1e-12 * sum.max(1.0));
        assert!(w.ij_tasks.iter().all(|t| t.cost_s > 0.0));
    }

    #[test]
    fn grouping_by_i_preserves_total_cost() {
        let (_b, _s, w) = workload_for(&small::h_chain(10, 2.5), 1e-10);
        let by_i = w.tasks_by_i();
        assert!(by_i.len() <= w.n_shells);
        let sum: f64 = by_i.iter().map(|t| t.cost_s).sum();
        assert!((sum - w.total_cost_s).abs() < 1e-12 * sum.max(1.0));
        let tests = |ts: &[SimTask]| ts.iter().map(|t| t.n_tests).sum::<u64>();
        assert_eq!(tests(&by_i), tests(&w.ij_tasks));
        // i values strictly increasing after grouping.
        for pair in by_i.windows(2) {
            assert!(pair[0].i < pair[1].i);
        }
    }

    #[test]
    fn screening_shrinks_the_workload() {
        let mol = small::h_chain(12, 4.0);
        let (_b1, _s1, loose) = workload_for(&mol, 1e-4);
        let (_b2, _s2, tight) = workload_for(&mol, 1e-12);
        assert!(loose.total_cost_s < tight.total_cost_s);
        assert!(loose.surviving_quartets < tight.surviving_quartets);
        assert!(loose.ij_tasks.len() <= tight.ij_tasks.len());
    }

    #[test]
    fn distant_fragments_screen_out() {
        // Two H2 molecules 60 bohr apart: inter-fragment pairs leave the
        // list and most canonical quartets are screened.
        let mut atoms = small::hydrogen_molecule(1.4).atoms().to_vec();
        for a in small::hydrogen_molecule(1.4).translated([0.0, 0.0, 60.0]).atoms() {
            atoms.push(*a);
        }
        let m = phi_chem::Molecule::neutral(atoms);
        let (b, s, w) = workload_for(&m, 1e-10);
        assert!(w.screened_fraction() > 0.3, "screened only {}", w.screened_fraction());
        assert!(w.ij_tasks.len() < w.total_pairs);
        assert!(w.unlisted_checks > 0);
        assert!(s.q(0, b.n_shells() - 1) < 1e-12);
    }

    #[test]
    fn fenwick_counts_suffixes() {
        let mut f = Fenwick::new(8);
        for r in [0, 5, 5, 2, 7] {
            f.insert(r);
        }
        let want = [5, 4, 4, 3, 3, 3, 1, 1, 0];
        for (r, &n) in want.iter().enumerate() {
            assert_eq!(f.count_from(r), n, "rank {r}");
        }
    }
}
