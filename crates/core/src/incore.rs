//! In-core ("conventional") SCF: compute the surviving ERIs once, store
//! them, and replay them every iteration.
//!
//! GAMESS supports both direct SCF (recompute ERIs each iteration — what
//! the paper benchmarks, since the 30,240-function systems cannot store
//! their integrals) and conventional SCF. The in-core path completes the
//! functionality and gives the test suite a strong independent check: the
//! stored-integral Fock build must agree with every direct builder.
//!
//! [`IncoreEris`] implements [`FockBuilder`], so the SCF drivers treat the
//! replay as just another engine: whenever the stored integrals fit the
//! configured budget, iterations replay them — regardless of which direct
//! algorithm the run was configured with.
//!
//! Incremental (ΔD) SCF composes with the replay unchanged: the replay is
//! exact and linear in the density, so `G(ΔD)` accumulation is valid — but
//! it ignores the per-build density-max table (the integrals are already
//! stored; there is no ERI work to skip), so incremental mode brings no
//! savings here. The direct builders are where ΔD screening pays off.

use crate::fock::engine::{FockBuilder, FockContext};
use crate::fock::matrix::ReplicatedFock;
use crate::fock::{digest, kl_bounds, DensitySet, GBuild, ReplicatedDensity};
use crate::stats::FockBuildStats;
use phi_chem::BasisSet;
use phi_integrals::{EriEngine, Screening, ShellPairs};
use phi_linalg::Mat;
use std::time::Instant;

/// A stored list of surviving shell quartets and their integral blocks.
pub struct IncoreEris {
    /// `(i, j, k, l)` canonical shell indices of each stored quartet.
    quartets: Vec<(u32, u32, u32, u32)>,
    /// Offsets into `values` (quartets have varying block sizes).
    offsets: Vec<usize>,
    values: Vec<f64>,
    n_basis: usize,
}

impl IncoreEris {
    /// Compute and store every surviving quartet. Memory grows as O(N^4 /
    /// screening); `max_bytes` guards against accidental huge systems
    /// (returns `None` if the estimate exceeds it).
    pub fn compute(
        basis: &BasisSet,
        pairs: &ShellPairs,
        screening: &Screening,
        tau: f64,
        max_bytes: usize,
    ) -> Option<IncoreEris> {
        let ns = basis.n_shells();
        let mut engine = EriEngine::new();
        let mut quartets = Vec::new();
        let mut offsets = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for i in 0..ns {
            for j in 0..=i {
                for k in 0..=i {
                    for l in 0..=kl_bounds(i, j, k) {
                        if !screening.survives(i, j, k, l, tau) {
                            continue;
                        }
                        let (bra, ket) = (pairs.pair(i, j), pairs.pair(k, l));
                        let len = bra.n_fn() * ket.n_fn();
                        if (values.len() + len) * 8 > max_bytes {
                            return None;
                        }
                        offsets.push(values.len());
                        values.resize(values.len() + len, 0.0);
                        let start = *offsets.last().expect("just pushed");
                        engine.shell_quartet_pairs(bra, ket, &mut values[start..start + len]);
                        quartets.push((i as u32, j as u32, k as u32, l as u32));
                    }
                }
            }
        }
        offsets.push(values.len());
        Some(IncoreEris { quartets, offsets, values, n_basis: basis.n_basis() })
    }

    pub fn n_quartets(&self) -> usize {
        self.quartets.len()
    }

    pub fn stored_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
    }

    /// Build the two-electron matrices for any [`DensitySet`] by replaying
    /// the stored integrals — no ERI evaluation.
    pub fn build_set(&self, basis: &BasisSet, dens: &DensitySet<'_>) -> GBuild {
        match *dens {
            DensitySet::Restricted(d) => self.replay(basis, ReplicatedDensity::restricted(d)),
            DensitySet::Unrestricted { alpha, beta } => {
                let total = alpha.add(beta);
                self.replay(basis, ReplicatedDensity::unrestricted(&total, alpha, beta))
            }
        }
    }

    fn replay<const NCH: usize>(
        &self,
        basis: &BasisSet,
        mut dens: ReplicatedDensity<'_, NCH>,
    ) -> GBuild {
        let _span = phi_trace::span("fock.build");
        let start = Instant::now();
        let mut fock = ReplicatedFock::new(NCH, self.n_basis);
        for (q, &(i, j, k, l)) in self.quartets.iter().enumerate() {
            let vals = &self.values[self.offsets[q]..self.offsets[q + 1]];
            let (i, j, k, l) = (i as usize, j as usize, k as usize, l as usize);
            digest(basis, i, j, k, l, vals, &mut dens, &mut fock);
        }
        phi_trace::counter("quartets_computed", self.quartets.len() as u64);
        phi_trace::counter("quartets_screened", 0);
        phi_trace::counter("flushes", 0);
        GBuild::from_channels(
            fock.into_mats(),
            FockBuildStats {
                seconds: start.elapsed().as_secs_f64(),
                quartets_computed: self.quartets.len() as u64,
                ..Default::default()
            },
        )
    }

    /// Build `G(D)` by replaying the stored integrals (restricted wrapper
    /// over [`IncoreEris::build_set`]).
    pub fn build_g(&self, basis: &BasisSet, d: &Mat) -> GBuild {
        self.build_set(basis, &DensitySet::Restricted(d))
    }
}

impl FockBuilder for IncoreEris {
    fn build(&self, ctx: &FockContext<'_>, dens: &DensitySet<'_>) -> GBuild {
        self.build_set(ctx.basis, dens)
    }

    fn label(&self) -> &'static str {
        "in-core replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::FockAlgorithm;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;

    fn density(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.2 + ((i * 7 + j) % 4) as f64 * 0.11
        })
    }

    fn pairs_and_screening(b: &BasisSet) -> (ShellPairs, Screening) {
        let pairs = ShellPairs::build(b);
        let s = Screening::from_pairs(b, &pairs);
        (pairs, s)
    }

    #[test]
    fn incore_matches_direct_for_every_density() {
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let (pairs, s) = pairs_and_screening(&b);
        let tau = 1e-10;
        let eris = IncoreEris::compute(&b, &pairs, &s, tau, 1 << 30).expect("fits");
        for seed in 0..3 {
            let mut d = density(b.n_basis());
            d.scale(1.0 + seed as f64 * 0.5);
            let direct = FockAlgorithm::Serial
                .builder()
                .build(&FockContext::new(&b, &pairs, &s, tau), &DensitySet::Restricted(&d))
                .g;
            let incore = eris.build_g(&b, &d).g;
            assert!(
                direct.max_abs_diff(&incore) < 1e-11,
                "seed {seed}: direct vs in-core differ by {}",
                direct.max_abs_diff(&incore)
            );
        }
    }

    #[test]
    fn incore_replays_unrestricted_sets() {
        // The stored-integral replay must agree with the direct serial
        // UHF digestion on both spin channels.
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let (pairs, s) = pairs_and_screening(&b);
        let tau = 1e-10;
        let eris = IncoreEris::compute(&b, &pairs, &s, tau, 1 << 30).expect("fits");
        let n = b.n_basis();
        let d_a = density(n);
        let mut d_b = density(n);
        d_b.scale(0.7);
        let dens = DensitySet::Unrestricted { alpha: &d_a, beta: &d_b };
        let ctx = FockContext::new(&b, &pairs, &s, tau);
        let direct = FockAlgorithm::Serial.builder().build(&ctx, &dens);
        let replay = eris.build_set(&b, &dens);
        let direct_b = direct.g_beta.expect("beta channel");
        let replay_b = replay.g_beta.expect("beta channel");
        assert!(direct.g.max_abs_diff(&replay.g) < 1e-11);
        assert!(direct_b.max_abs_diff(&replay_b) < 1e-11);
    }

    #[test]
    fn quartet_count_matches_direct_build() {
        let b = BasisSet::build(&small::methane(), BasisName::Sto3g);
        let (pairs, s) = pairs_and_screening(&b);
        let eris = IncoreEris::compute(&b, &pairs, &s, 1e-10, 1 << 30).expect("fits");
        let direct = FockAlgorithm::Serial.builder().build(
            &FockContext::new(&b, &pairs, &s, 1e-10),
            &DensitySet::Restricted(&density(b.n_basis())),
        );
        assert_eq!(eris.n_quartets() as u64, direct.stats.quartets_computed);
        assert!(eris.stored_bytes() > 0);
    }

    #[test]
    fn memory_guard_refuses_oversized_stores() {
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let (pairs, s) = pairs_and_screening(&b);
        assert!(
            IncoreEris::compute(&b, &pairs, &s, 1e-10, 1024).is_none(),
            "1 KB cannot hold water ERIs"
        );
    }

    #[test]
    fn replay_does_no_eri_work() {
        // The whole point of conventional SCF: iteration cost drops once
        // integrals are stored. Asserted deterministically — the replay
        // evaluates zero primitive quartets while the direct build pays
        // for all of them — instead of racing wall-clock timers, which
        // was flaky on loaded machines and debug builds.
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let (pairs, s) = pairs_and_screening(&b);
        let d = density(b.n_basis());
        let eris = IncoreEris::compute(&b, &pairs, &s, 1e-10, 1 << 30).expect("fits");
        let direct = FockAlgorithm::Serial
            .builder()
            .build(&FockContext::new(&b, &pairs, &s, 1e-10), &DensitySet::Restricted(&d));
        let incore = eris.build_g(&b, &d);
        assert!(direct.stats.prim_quartets > 0, "direct build evaluates primitives");
        assert_eq!(incore.stats.prim_quartets, 0, "replay never touches the ERI engine");
        assert_eq!(incore.stats.quartets_computed, direct.stats.quartets_computed);
    }
}
