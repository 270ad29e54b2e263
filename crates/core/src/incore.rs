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

use crate::fock::driver::Quartets;
use crate::fock::engine::{FockBuilder, FockContext};
use crate::fock::matrix::ReplicatedFock;
use crate::fock::{digest, DensitySet, GBuild, ReplicatedDensity};
use crate::stats::FockBuildStats;
use phi_chem::BasisSet;
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
    /// Compute and store every quartet that survives `ctx`'s screening,
    /// through the same quartet evaluator as the direct builders. Memory
    /// grows as O(N^4 / screening); `max_bytes` guards against accidental
    /// huge systems (returns `None` once the store would exceed it).
    pub fn compute(ctx: &FockContext<'_>, max_bytes: usize) -> Option<IncoreEris> {
        let mut worker = Quartets::new(ctx);
        let mut quartets = Vec::new();
        let mut offsets = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for i in 0..ctx.basis.n_shells() {
            for j in 0..=i {
                let mut fits = true;
                worker.pair_task(i, j, |k, l, eri| {
                    fits = fits && (values.len() + eri.len()) * 8 <= max_bytes;
                    if fits {
                        offsets.push(values.len());
                        values.extend_from_slice(eri);
                        quartets.push((i as u32, j as u32, k as u32, l as u32));
                    }
                });
                if !fits {
                    return None;
                }
            }
        }
        offsets.push(values.len());
        Some(IncoreEris { quartets, offsets, values, n_basis: ctx.basis.n_basis() })
    }

    pub fn n_quartets(&self) -> usize {
        self.quartets.len()
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
    use crate::fock::engine::FockData;
    use crate::fock::FockAlgorithm;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_linalg::Mat;

    fn density(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.2 + ((i * 7 + j) % 4) as f64 * 0.11
        })
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// The store is filled by the direct builders' quartet evaluator in
    /// the serial build's order and replayed through the same `digest`,
    /// so the replay is the serial build bit for bit, quartet for quartet.
    #[test]
    fn incore_is_bitwise_the_serial_direct_build() {
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-10);
        let eris = IncoreEris::compute(&ctx, 1 << 30).expect("fits");
        for seed in 0..3 {
            let mut d = density(b.n_basis());
            d.scale(1.0 + seed as f64 * 0.5);
            let direct = FockAlgorithm::Serial.builder().build(&ctx, &DensitySet::Restricted(&d));
            assert_eq!(
                bits(&direct.g),
                bits(&eris.build_set(&b, &DensitySet::Restricted(&d)).g),
                "seed {seed}"
            );
            assert_eq!(eris.n_quartets() as u64, direct.stats.quartets_computed);
        }
        // Pinned at the commit before the store moved onto `Quartets`.
        assert_eq!(eris.n_quartets(), 406);
    }

    /// The store's engine comes from the context like every builder's, and
    /// the class kernels replay the generic recursion exactly (PR 9).
    #[test]
    fn incore_store_is_bitwise_equal_with_kernels_on_and_off() {
        let b = BasisSet::build(&small::water(), BasisName::B631gd);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-10);
        let on = IncoreEris::compute(&ctx, 1 << 30).expect("fits");
        let off = IncoreEris::compute(&ctx.with_eri_kernels(false), 1 << 30).expect("fits");
        assert_eq!(on.quartets, off.quartets);
        assert!(on.values.iter().zip(&off.values).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn incore_replays_unrestricted_sets() {
        // The stored-integral replay must agree with the direct serial
        // UHF digestion on both spin channels.
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-10);
        let eris = IncoreEris::compute(&ctx, 1 << 30).expect("fits");
        let n = b.n_basis();
        let d_a = density(n);
        let mut d_b = density(n);
        d_b.scale(0.7);
        let dens = DensitySet::Unrestricted { alpha: &d_a, beta: &d_b };
        let direct = FockAlgorithm::Serial.builder().build(&ctx, &dens);
        let replay = eris.build_set(&b, &dens);
        let direct_b = direct.g_beta.expect("beta channel");
        let replay_b = replay.g_beta.expect("beta channel");
        assert!(direct.g.max_abs_diff(&replay.g) < 1e-11);
        assert!(direct_b.max_abs_diff(&replay_b) < 1e-11);
    }

    #[test]
    fn memory_guard_refuses_oversized_stores() {
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let data = FockData::build(&b);
        assert!(
            IncoreEris::compute(&data.context(&b, 1e-10), 1024).is_none(),
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
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-10);
        let d = density(b.n_basis());
        let eris = IncoreEris::compute(&ctx, 1 << 30).expect("fits");
        let direct = FockAlgorithm::Serial.builder().build(&ctx, &DensitySet::Restricted(&d));
        let incore = eris.build_set(&b, &DensitySet::Restricted(&d));
        assert!(direct.stats.prim_quartets > 0, "direct build evaluates primitives");
        assert_eq!(incore.stats.prim_quartets, 0, "replay never touches the ERI engine");
        assert_eq!(incore.stats.quartets_computed, direct.stats.quartets_computed);
    }
}
