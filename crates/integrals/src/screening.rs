//! Cauchy–Schwarz screening.
//!
//! The paper screens shell quartets with `|(ij|kl)| <= Q_ij * Q_kl`,
//! `Q_ij = sqrt((ij|ij))` (§4.1), and additionally prescreens whole `ij`
//! MPI tasks in the shared-Fock algorithm (Algorithm 3, line 13). This
//! module holds:
//!
//! * [`Screening`] — the per-shell-pair `Q` table and both tests, read by
//!   the real Fock builders and, through the builders' significant-pair
//!   list, by the cluster simulator (`phi-knlsim::workload`);
//! * [`ShellClasses`] — the cost-equivalent shell classes the simulator
//!   prices quartets by.

use crate::eri::EriEngine;
use crate::shell_pairs::{ShellPair, ShellPairs, DEFAULT_PAIR_CUTOFF};
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
    /// data would not fit (32.5M pairs at 5 nm): each pair is built at the
    /// builders' [`DEFAULT_PAIR_CUTOFF`], its diagonal quartet evaluated,
    /// and dropped. Pairs whose prefactor bound falls below `est_floor` are
    /// never built and store that (tiny) bound instead. With
    /// `est_floor = 0.0` the table equals the builders'
    /// `from_pairs(ShellPairs::build(basis))` bit for bit.
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
                ShellPair::build(i, j, si, sj, DEFAULT_PAIR_CUTOFF)
                    .schwarz_bound(&mut engine, &mut buf)
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
    /// data, pruned at the builders' cutoff, so the tables agree bit for
    /// bit; without the pruning the bounds move below 1e-6 relative and no
    /// survivor decision changes at practical thresholds.
    #[test]
    fn from_pairs_matches_compute_hybrid() {
        let (b, s) = water_screening();
        let built = Screening::from_pairs(&b, &ShellPairs::build(&b));
        assert_eq!(s.q_max().to_bits(), built.q_max().to_bits());
        let exact = Screening::from_pairs(&b, &ShellPairs::build_with(&b, 0.0));
        for i in 0..b.n_shells() {
            for j in 0..=i {
                assert_eq!(s.q(i, j).to_bits(), built.q(i, j).to_bits(), "({i},{j})");
                let (qa, qb) = (exact.q(i, j), built.q(i, j));
                assert!((qa - qb).abs() <= 1e-6 * qa.max(1e-30), "({i},{j}): {qa} vs {qb}");
            }
        }
        for tau in [1e-6, 1e-10] {
            for i in 0..b.n_shells() {
                for j in 0..=i {
                    for k in 0..=i {
                        for l in 0..=k {
                            assert_eq!(
                                exact.survives(i, j, k, l, tau),
                                built.survives(i, j, k, l, tau),
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
        let built = Screening::from_pairs(&b, &ShellPairs::build(&b));
        let hybrid = Screening::compute_hybrid(&b, 1e-12);
        let mut floored = 0;
        for i in 0..b.n_shells() {
            for j in 0..=i {
                let (qe, qh) = (built.q(i, j), hybrid.q(i, j));
                let est = ShellPair::prefactor_bound(&b.shells[i], &b.shells[j]);
                if est < 1e-12 {
                    // Under the floor no pair is built: the entry is the
                    // rounded-up prefactor bound itself, which the
                    // evaluator returns only for a pair whose every
                    // primitive pair the builders' cutoff pruned.
                    assert_eq!(qh.to_bits(), (round_up_f32(est) as f64).to_bits());
                    if est >= DEFAULT_PAIR_CUTOFF {
                        assert_ne!(qh.to_bits(), qe.to_bits(), "pair ({i},{j}) was evaluated");
                    }
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
}
