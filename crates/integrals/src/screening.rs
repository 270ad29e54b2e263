//! Cauchy–Schwarz screening and screened-workload statistics.
//!
//! The paper screens shell quartets with `|(ij|kl)| <= Q_ij * Q_kl`,
//! `Q_ij = sqrt((ij|ij))` (§4.1), and additionally prescreens whole `ij`
//! MPI tasks in the shared-Fock algorithm (Algorithm 3, line 13). This
//! module computes:
//!
//! * [`Screening`] — the per-shell-pair `Q` table used by the real Fock
//!   builders;
//! * [`WorkloadStats`] — for every surviving `ij` task, how many canonical
//!   `kl` quartets survive, broken down by shell-class pair. This is the
//!   exact screened workload of one Fock-build iteration, and it is what the
//!   cluster simulator distributes over ranks and threads. Counting uses a
//!   Fenwick tree over quantized `Q` values, so the full statistics for the
//!   5 nm system (8,064 shells, 32.5M shell pairs) cost O(P log B) instead
//!   of the O(P^2) of brute-force enumeration.

use crate::eri::EriEngine;
use crate::shell_pairs::{ShellPair, ShellPairs};
use phi_chem::BasisSet;

/// Packed lower-triangular index for `i >= j`.
#[inline]
pub fn pair_index(i: usize, j: usize) -> usize {
    debug_assert!(i >= j);
    i * (i + 1) / 2 + j
}

/// Number of shell pairs for `n` shells.
#[inline]
pub fn n_pairs(n: usize) -> usize {
    n * (n + 1) / 2
}

/// Narrow an f64 upper bound to f32 with *upward* rounding.
///
/// `v as f32` rounds to nearest, which can round a bound *below* its true
/// f64 value — a stored "upper bound" that is not an upper bound, so
/// `survives()` could drop a quartet whose true `Q_ij * Q_kl` is >= tau.
/// Taking the next representable f32 up whenever the cast rounded down
/// keeps the stored value a genuine upper bound at a cost of at most one
/// ulp of slack.
#[inline]
pub(crate) fn round_up_f32(v: f64) -> f32 {
    let w = v as f32;
    if (w as f64) < v {
        w.next_up()
    } else {
        w
    }
}

/// Schwarz bound table `Q_ij` over shell pairs.
///
/// Values are stored as `f32`: screening only ever compares products of
/// bounds against a threshold, so seven significant digits are ample, and
/// the 5 nm system's 32.5M pairs stay at ~130 MB.
pub struct Screening {
    n_shells: usize,
    q: Vec<f32>,
    q_max: f64,
}

impl Screening {
    /// Narrow `bound(i, j)`, `i >= j`, into the table, rounding up.
    pub fn from_bounds(n: usize, mut bound: impl FnMut(usize, usize) -> f64) -> Screening {
        let mut q = Vec::with_capacity(n_pairs(n));
        let mut q_max = 0.0f64;
        for i in 0..n {
            for j in 0..=i {
                let qv = round_up_f32(bound(i, j));
                q.push(qv);
                // Maximize over the *stored* (rounded-up) bounds so the
                // task-level prescreen can never drop a task that holds a
                // surviving quartet.
                q_max = q_max.max(qv as f64);
            }
        }
        Screening { n_shells: n, q, q_max }
    }

    /// `Q_ij` table read directly out of a persistent [`ShellPairs`]
    /// dataset, whose construction already evaluated every diagonal quartet
    /// through the pair-cached path. This is the production route: the Fock
    /// builders share the same dataset, so the bounds are computed exactly
    /// once per (geometry, basis).
    pub fn from_pairs(basis: &BasisSet, pairs: &ShellPairs) -> Screening {
        let n = basis.n_shells();
        assert_eq!(n, pairs.n_shells(), "pair dataset covers a different basis");
        Screening::from_bounds(n, |i, j| pairs.pair(i, j).schwarz)
    }

    /// The table without a [`ShellPairs`] dataset, for systems whose pair
    /// data would not fit (32.5M pairs at 5 nm): each pair is built, its
    /// diagonal quartet evaluated, and dropped. Pairs whose prefactor bound
    /// falls below `est_floor` are never built and store that (tiny) bound
    /// instead. With `est_floor = 0.0` every pair is exact and the table
    /// equals `from_pairs(ShellPairs::build_with(basis, 0.0))` bit for bit.
    ///
    /// The prefactor bound only decides *which* pairs are negligible; any
    /// pair that could matter at realistic screening thresholds
    /// (tau >= 1e-12) is evaluated exactly.
    pub fn compute_hybrid(basis: &BasisSet, est_floor: f64) -> Screening {
        let mut engine = EriEngine::new();
        let mut buf: Vec<f64> = Vec::new();
        Screening::from_bounds(basis.n_shells(), |i, j| {
            let (si, sj) = (&basis.shells[i], &basis.shells[j]);
            let est = ShellPair::prefactor_bound(si, sj);
            if est < est_floor {
                est
            } else {
                ShellPair::build(i, j, si, sj, 0.0).schwarz_bound(&mut engine, &mut buf)
            }
        })
    }

    pub fn n_shells(&self) -> usize {
        self.n_shells
    }

    /// `Q_ij` (order of `i`, `j` irrelevant).
    #[inline]
    pub fn q(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        self.q[pair_index(i, j)] as f64
    }

    /// Largest bound in the table.
    pub fn q_max(&self) -> f64 {
        self.q_max
    }

    /// The quartet-level Schwarz test of Algorithms 1-3.
    #[inline]
    pub fn survives(&self, i: usize, j: usize, k: usize, l: usize, tau: f64) -> bool {
        self.q(i, j) * self.q(k, l) >= tau
    }

    /// The `ij`-task-level prescreen of Algorithm 3 (line 13): can *any*
    /// quartet of this task survive?
    #[inline]
    pub fn task_survives(&self, i: usize, j: usize, tau: f64) -> bool {
        self.q(i, j) * self.q_max >= tau
    }
}

// ------------------------------------------------------------------------
// Shell classes: shells that share (function count, primitive count, max l)
// have identical per-quartet ERI cost, so workload statistics are broken
// down by class.
// ------------------------------------------------------------------------

/// Classification of a basis set's shells into cost-equivalent classes.
#[derive(Clone, Debug)]
pub struct ShellClasses {
    /// Class id of every shell.
    pub class_of: Vec<u16>,
    /// `(n_functions, n_primitives, max_l)` for each class id.
    pub descr: Vec<(usize, usize, usize)>,
}

impl ShellClasses {
    pub fn classify(basis: &BasisSet) -> ShellClasses {
        let mut descr: Vec<(usize, usize, usize)> = Vec::new();
        let class_of = basis
            .shells
            .iter()
            .map(|s| {
                let key = (s.n_functions(), s.exps.len(), s.max_l());
                if let Some(pos) = descr.iter().position(|&d| d == key) {
                    pos as u16
                } else {
                    descr.push(key);
                    (descr.len() - 1) as u16
                }
            })
            .collect();
        ShellClasses { class_of, descr }
    }

    pub fn n_classes(&self) -> usize {
        self.descr.len()
    }

    /// Number of unordered shell-class pairs.
    pub fn n_pair_classes(&self) -> usize {
        let c = self.n_classes();
        c * (c + 1) / 2
    }

    /// Unordered pair-class id of two shells.
    #[inline]
    pub fn pair_class(&self, i: usize, j: usize) -> usize {
        let (a, b) = {
            let (ca, cb) = (self.class_of[i] as usize, self.class_of[j] as usize);
            if ca >= cb {
                (ca, cb)
            } else {
                (cb, ca)
            }
        };
        a * (a + 1) / 2 + b
    }

    /// A representative shell index for each class (first occurrence).
    pub fn representatives(&self) -> Vec<usize> {
        let mut reps = vec![usize::MAX; self.n_classes()];
        for (i, &c) in self.class_of.iter().enumerate() {
            if reps[c as usize] == usize::MAX {
                reps[c as usize] = i;
            }
        }
        reps
    }
}

// ------------------------------------------------------------------------
// Fenwick tree over quantized Q buckets.
// ------------------------------------------------------------------------

/// Q values are quantized onto a log scale covering [1e-30, 1e5] with
/// `N_BUCKETS` levels (~0.0043 decades per bucket, i.e. ~1% resolution —
/// far finer than any workload-modeling need).
const N_BUCKETS: usize = 8192;
const LOG_MIN: f64 = -30.0;
const LOG_MAX: f64 = 5.0;

#[inline]
fn bucket_of(q: f64) -> usize {
    if q <= 0.0 {
        return 0;
    }
    let x = (q.log10() - LOG_MIN) / (LOG_MAX - LOG_MIN);
    ((x * (N_BUCKETS - 1) as f64).round().max(0.0) as usize).min(N_BUCKETS - 1)
}

struct Fenwick {
    tree: Vec<u32>,
    total: u64,
}

impl Fenwick {
    fn new() -> Fenwick {
        Fenwick { tree: vec![0; N_BUCKETS + 1], total: 0 }
    }

    fn insert(&mut self, bucket: usize) {
        let mut i = bucket + 1;
        while i <= N_BUCKETS {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
        self.total += 1;
    }

    /// Count of inserted values in buckets `0..=bucket`.
    fn prefix(&self, bucket: usize) -> u64 {
        let mut i = bucket + 1;
        let mut s = 0u64;
        while i > 0 {
            s += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Count of inserted values with bucket index >= `bucket`.
    fn count_at_least(&self, bucket: usize) -> u64 {
        if bucket == 0 {
            self.total
        } else {
            self.total - self.prefix(bucket - 1)
        }
    }
}

// ------------------------------------------------------------------------
// Workload statistics.
// ------------------------------------------------------------------------

/// One surviving `ij` MPI task of a Fock-build iteration.
#[derive(Clone, Copy, Debug)]
pub struct IjTask {
    pub i: u32,
    pub j: u32,
    /// Schwarz bound of the task's bra pair.
    pub q: f32,
}

/// Exact screened workload of one Fock-build iteration.
///
/// `tasks[t]` is the `t`-th surviving `ij` pair in canonical (triangular)
/// order; `kl_counts[t * n_pair_classes + c]` is the number of canonical
/// `kl <= ij` quartets of kl-pair-class `c` that survive
/// `Q_ij Q_kl >= tau`.
pub struct WorkloadStats {
    pub tau: f64,
    pub n_shells: usize,
    pub classes: ShellClasses,
    pub tasks: Vec<IjTask>,
    pub kl_counts: Vec<u32>,
    /// Total surviving quartets per kl pair class (sums of `kl_counts`).
    pub totals_by_class: Vec<u64>,
    /// Total canonical quartets before screening.
    pub total_quartets: u128,
    /// Shell pairs dropped by the task-level prescreen.
    pub pairs_prescreened: u64,
}

impl WorkloadStats {
    /// Count the screened workload. `screening` must cover the same basis.
    pub fn compute(basis: &BasisSet, screening: &Screening, tau: f64) -> WorkloadStats {
        let n = basis.n_shells();
        assert_eq!(n, screening.n_shells());
        let classes = ShellClasses::classify(basis);
        let npc = classes.n_pair_classes();
        let mut fenwicks: Vec<Fenwick> = (0..npc).map(|_| Fenwick::new()).collect();

        let mut tasks = Vec::new();
        let mut kl_counts: Vec<u32> = Vec::new();
        let mut totals = vec![0u64; npc];
        let mut prescreened = 0u64;

        let q_max = screening.q_max().max(f64::MIN_POSITIVE);
        for i in 0..n {
            for j in 0..=i {
                let qij = screening.q(i, j);
                // Insert this pair as a potential kl partner for itself and
                // all later tasks (canonical kl <= ij is inclusive).
                fenwicks[classes.pair_class(i, j)].insert(bucket_of(qij));
                if qij * q_max < tau {
                    prescreened += 1;
                    continue;
                }
                // Threshold for partners: q_kl >= tau / q_ij.
                let thr_bucket = bucket_of(tau / qij);
                let mut any = 0u64;
                let base = kl_counts.len();
                kl_counts.resize(base + npc, 0);
                for (c, fw) in fenwicks.iter().enumerate() {
                    let cnt = fw.count_at_least(thr_bucket);
                    kl_counts[base + c] = cnt.min(u32::MAX as u64) as u32;
                    totals[c] += cnt;
                    any += cnt;
                }
                if any == 0 {
                    kl_counts.truncate(base);
                    prescreened += 1;
                    continue;
                }
                tasks.push(IjTask { i: i as u32, j: j as u32, q: qij as f32 });
            }
        }
        let p = n_pairs(n) as u128;
        WorkloadStats {
            tau,
            n_shells: n,
            classes,
            tasks,
            kl_counts,
            totals_by_class: totals,
            total_quartets: p * (p + 1) / 2,
            pairs_prescreened: prescreened,
        }
    }

    pub fn n_pair_classes(&self) -> usize {
        self.classes.n_pair_classes()
    }

    /// Total surviving quartets over all tasks.
    pub fn surviving_quartets(&self) -> u128 {
        self.totals_by_class.iter().map(|&x| x as u128).sum()
    }

    /// Fraction of canonical quartets removed by screening.
    pub fn screened_fraction(&self) -> f64 {
        1.0 - self.surviving_quartets() as f64 / self.total_quartets as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;

    fn water_screening() -> (BasisSet, Screening) {
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let s = Screening::compute_hybrid(&b, 0.0);
        (b, s)
    }

    #[test]
    fn q_is_symmetric_and_positive() {
        let (b, s) = water_screening();
        for i in 0..b.n_shells() {
            for j in 0..b.n_shells() {
                assert_eq!(s.q(i, j), s.q(j, i));
                assert!(s.q(i, j) > 0.0);
            }
        }
        assert!(s.q_max() > 0.0);
    }

    #[test]
    fn schwarz_bounds_actual_quartets() {
        let (b, s) = water_screening();
        let pairs = ShellPairs::build_with(&b, 0.0);
        let mut engine = EriEngine::new();
        engine.prefactor_cutoff = 0.0;
        let n = b.n_shells();
        let mut buf = Vec::new();
        for i in 0..n {
            for j in 0..=i {
                for k in 0..=i {
                    for l in 0..=k {
                        let (bra, ket) = (pairs.pair(i, j), pairs.pair(k, l));
                        buf.resize(bra.n_fn() * ket.n_fn(), 0.0);
                        engine.shell_quartet_pairs(bra, ket, &mut buf);
                        let vmax = buf.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                        let bound = s.q(i, j) * s.q(k, l);
                        assert!(
                            vmax <= bound * (1.0 + 1e-6) + 1e-12,
                            "({i}{j}|{k}{l}): {vmax} > {bound}"
                        );
                    }
                }
            }
        }
    }

    /// Both constructors run the one Schwarz evaluator on identical pair
    /// data when nothing is pruned, so the tables agree bit for bit; with
    /// the default primitive-pair pruning the bounds move below 1e-6
    /// relative and no survivor decision changes at practical thresholds.
    #[test]
    fn from_pairs_matches_compute_hybrid() {
        let (b, s) = water_screening();
        let exact = Screening::from_pairs(&b, &ShellPairs::build_with(&b, 0.0));
        assert_eq!(s.q_max().to_bits(), exact.q_max().to_bits());
        let pruned = Screening::from_pairs(&b, &ShellPairs::build(&b));
        for i in 0..b.n_shells() {
            for j in 0..=i {
                assert_eq!(s.q(i, j).to_bits(), exact.q(i, j).to_bits(), "({i},{j})");
                let (qa, qb) = (s.q(i, j), pruned.q(i, j));
                assert!((qa - qb).abs() <= 1e-6 * qa.max(1e-30), "({i},{j}): {qa} vs {qb}");
            }
        }
        for tau in [1e-6, 1e-10] {
            for i in 0..b.n_shells() {
                for j in 0..=i {
                    for k in 0..=i {
                        for l in 0..=k {
                            assert_eq!(
                                s.survives(i, j, k, l, tau),
                                pruned.survives(i, j, k, l, tau),
                                "({i}{j}|{k}{l}) at tau={tau}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hybrid_matches_exact_for_relevant_pairs() {
        let b = BasisSet::build(&small::h_chain(8, 4.0), BasisName::Sto3g);
        let exact = Screening::from_pairs(&b, &ShellPairs::build_with(&b, 0.0));
        let hybrid = Screening::compute_hybrid(&b, 1e-12);
        let mut floored = 0;
        for i in 0..b.n_shells() {
            for j in 0..=i {
                let (qe, qh) = (exact.q(i, j), hybrid.q(i, j));
                let est = ShellPair::prefactor_bound(&b.shells[i], &b.shells[j]);
                if est < 1e-12 {
                    // Under the floor no pair is built: the entry is the
                    // rounded-up prefactor bound itself, which the exact
                    // evaluator does not return.
                    assert_eq!(qh.to_bits(), (round_up_f32(est) as f64).to_bits());
                    assert_ne!(qh.to_bits(), qe.to_bits(), "pair ({i},{j}) was evaluated");
                    assert!(qe < 1e-8, "floored pair ({i},{j}) has exact bound {qe}");
                    floored += 1;
                } else {
                    assert_eq!(qh.to_bits(), qe.to_bits(), "pair ({i},{j})");
                }
            }
        }
        assert!(floored > 0, "no pair fell under the floor");
    }

    #[test]
    fn workload_counts_match_bruteforce() {
        let b = BasisSet::build(&small::h_chain(10, 3.0), BasisName::Sto3g);
        let s = Screening::compute_hybrid(&b, 0.0);
        for tau in [1e-6, 1e-8, 1e-10] {
            let w = WorkloadStats::compute(&b, &s, tau);
            // Brute force count.
            let n = b.n_shells();
            let mut brute = 0u64;
            for i in 0..n {
                for j in 0..=i {
                    let ij = pair_index(i, j);
                    for k in 0..=i {
                        for l in 0..=(if k == i { j } else { k }) {
                            let kl = pair_index(k, l);
                            assert!(kl <= ij);
                            if s.q(i, j) * s.q(k, l) >= tau {
                                brute += 1;
                            }
                        }
                    }
                }
            }
            let counted = w.surviving_quartets() as u64;
            // Quantization can shift boundary cases; with smooth H-chain Q
            // distributions the disagreement must stay well under 1%.
            let diff = (counted as i64 - brute as i64).unsigned_abs();
            assert!(
                diff as f64 <= 0.01 * brute as f64 + 2.0,
                "tau={tau}: counted {counted}, brute {brute}"
            );
        }
    }

    #[test]
    fn tighter_threshold_means_more_work() {
        let b = BasisSet::build(&small::h_chain(12, 3.5), BasisName::Sto3g);
        let s = Screening::compute_hybrid(&b, 0.0);
        let loose = WorkloadStats::compute(&b, &s, 1e-6);
        let tight = WorkloadStats::compute(&b, &s, 1e-12);
        assert!(tight.surviving_quartets() >= loose.surviving_quartets());
        assert!(tight.tasks.len() >= loose.tasks.len());
    }

    #[test]
    fn distant_fragments_screen_out() {
        // Two H2 molecules 60 bohr apart: inter-fragment quartets must die.
        let mut atoms = small::hydrogen_molecule(1.4).atoms().to_vec();
        for a in small::hydrogen_molecule(1.4).translated([0.0, 0.0, 60.0]).atoms() {
            atoms.push(*a);
        }
        let m = phi_chem::Molecule::neutral(atoms);
        let b = BasisSet::build(&m, BasisName::Sto3g);
        let s = Screening::compute_hybrid(&b, 0.0);
        let w = WorkloadStats::compute(&b, &s, 1e-10);
        assert!(w.screened_fraction() > 0.3, "screened only {}", w.screened_fraction());
        // Cross-fragment pair bound must be tiny.
        assert!(s.q(0, b.n_shells() - 1) < 1e-12);
    }

    #[test]
    fn classes_of_carbon_631gd() {
        let b = BasisSet::build(&small::c_ring(6, 1.39), BasisName::B631gd);
        let c = ShellClasses::classify(&b);
        // Carbon shells: S(6 prim), L(3 prim), L(1 prim), D(1 prim).
        assert_eq!(c.n_classes(), 4);
        assert_eq!(c.descr[0], (1, 6, 0));
        assert_eq!(c.descr[1], (4, 3, 1));
        assert_eq!(c.descr[2], (4, 1, 1));
        assert_eq!(c.descr[3], (6, 1, 2));
        assert_eq!(c.n_pair_classes(), 10);
    }

    #[test]
    fn fenwick_counts() {
        let mut f = Fenwick::new();
        for b in [0, 5, 5, 100, N_BUCKETS - 1] {
            f.insert(b);
        }
        assert_eq!(f.count_at_least(0), 5);
        assert_eq!(f.count_at_least(1), 4);
        assert_eq!(f.count_at_least(5), 4);
        assert_eq!(f.count_at_least(6), 2);
        assert_eq!(f.count_at_least(N_BUCKETS - 1), 1);
    }

    /// Regression for the f32-narrowing bug: `val as f32` rounds to
    /// nearest, so a stored "upper bound" could round *below* the true f64
    /// bound and `survives()` would drop a quartet whose true
    /// `Q_ij * Q_kl` is >= tau. With upward rounding the stored bound
    /// dominates the f64 value for every pair.
    #[test]
    fn narrowed_bounds_never_round_below_true_bound() {
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let pairs = ShellPairs::build_with(&b, 0.0);
        let s = Screening::from_pairs(&b, &pairs);
        let mut rounded_up = 0usize;
        for pr in pairs.iter() {
            let stored = s.q(pr.i, pr.j);
            assert!(
                stored >= pr.schwarz,
                "pair ({},{}): stored bound {stored:e} < true bound {:e}",
                pr.i,
                pr.j,
                pr.schwarz
            );
            // Detects the old `as f32` behaviour: round-to-nearest lands
            // below the f64 value for roughly half the pairs.
            if (pr.schwarz as f32 as f64) < pr.schwarz {
                rounded_up += 1;
            }
        }
        assert!(rounded_up > 0, "no pair exercised the upward-rounding path");
        assert!(s.q_max() >= pairs.iter().map(|p| p.schwarz).fold(0.0, f64::max));
    }

    /// A pair product engineered to straddle tau at f32 precision: the
    /// nearest-f32 narrowing of `q` loses just enough that the product
    /// drops below tau, while the upward-rounded bound keeps it >= tau.
    #[test]
    fn round_up_keeps_threshold_straddling_product_alive() {
        // q is exactly representable in f64 but not in f32, and sits just
        // above its f32 neighbor: round-to-nearest goes DOWN.
        let q: f64 = 1.0 + 2f64.powi(-25) + 2f64.powi(-30);
        let down = q as f32; // nearest = 1.0 (rounds down)
        assert!((down as f64) < q, "test premise: cast must round down");
        let up = round_up_f32(q);
        assert!((up as f64) >= q, "round_up_f32 must dominate the input");
        // tau between the two narrowings of q * q.
        let tau = q * q; // true product exactly meets the threshold
        assert!(
            (down as f64) * (down as f64) < tau,
            "nearest-rounded bound wrongly drops the quartet"
        );
        assert!((up as f64) * (up as f64) >= tau);
        // Exact-representable values must pass through unchanged.
        assert_eq!(round_up_f32(0.5), 0.5f32);
        assert_eq!(round_up_f32(0.0), 0.0f32);
    }

    #[test]
    fn bucket_monotonicity() {
        let mut prev = 0;
        for k in 0..100 {
            let q = 1e-25 * 10f64.powf(k as f64 * 0.3);
            let b = bucket_of(q);
            assert!(b >= prev);
            prev = b;
        }
        assert_eq!(bucket_of(0.0), 0);
    }
}
