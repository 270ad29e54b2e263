//! Incremental (ΔD) Fock-build bookkeeping for the SCF driver, one or two
//! spin channels alike.
//!
//! Direct SCF recomputes the full screened quartet set every iteration,
//! so per-build cost is flat while the density change collapses toward
//! convergence. The two-electron operator is linear in the density
//! (`G(D) = J(D) - K(D)/2` for RHF; per spin channel
//! `G_s = J(D_a + D_b) - K(D_s)` for UHF), so iteration `n` can instead
//! build `G(ΔD)` with `ΔD = D_n - D_ref` and accumulate
//! `G_n = G_ref + G(ΔD)`. With a density-weighted screening test
//! (`Q_ij Q_kl max(ΔD-factors) >= tau`, see
//! [`phi_integrals::DensityMax`]), the surviving-quartet count shrinks in
//! step with ‖ΔD‖.
//!
//! The accumulation is *lossy but bounded*: every build drops quartets
//! whose contribution to any Fock element is below `tau`, and those
//! omissions add up across the incremental stretch. [`IncrementalFock`]
//! therefore forces a periodic full rebuild — every K-th build, or as
//! soon as ‖ΔD‖ *recovers* (grows well past the smallest ΔD norm
//! seen since the last full build, the signature of an oscillating or
//! restarted density) — which resets the accumulated error to one build's
//! worth. Full rebuilds use the static (unweighted) screening test, so a
//! run whose every build is full stays bit-identical with the
//! non-incremental driver.

use super::engine::{FockBuilder, FockContext};
use super::{DensitySet, GBuild};
use phi_linalg::Mat;

/// Reference-state bookkeeping for incremental Fock builds: the density
/// and accumulated `G` of the last build (one matrix per spin channel),
/// plus the full-rebuild policy state.
pub struct IncrementalFock {
    /// Full-rebuild period: every `k`-th build is a full rebuild, so at
    /// most `k - 1` consecutive builds are incremental. `k = 1` degenerates
    /// to the plain driver (every build full, ΔD never used).
    k: usize,
    since_full: usize,
    /// Smallest ΔD Frobenius norm seen since the last full rebuild;
    /// `INFINITY` right after one.
    min_delta: f64,
    /// Reference densities (empty until the first build).
    d_ref: Vec<Mat>,
    /// Accumulated `G(D_ref)` per channel.
    g_ref: Vec<Mat>,
}

impl IncrementalFock {
    /// A ΔD norm this many times larger than the smallest seen since the
    /// last full rebuild signals density recovery (oscillation, a DIIS
    /// jump) and forces a full rebuild.
    const RECOVERY_FACTOR: f64 = 10.0;

    /// `full_rebuild_every`: a full rebuild every this many builds
    /// (clamped to >= 1; `1` makes every build full).
    pub fn new(full_rebuild_every: usize) -> IncrementalFock {
        IncrementalFock {
            k: full_rebuild_every.max(1),
            since_full: 0,
            min_delta: f64::INFINITY,
            d_ref: Vec::new(),
            g_ref: Vec::new(),
        }
    }

    /// Build the *total* `G` for the densities in `mats` (one matrix =
    /// restricted, two = UHF alpha/beta), incrementally when the policy
    /// allows it. The returned [`GBuild`] carries the accumulated total
    /// matrices; its stats describe the work actually done this iteration
    /// (the ΔD build's shrunken quartet counts on incremental iterations).
    pub fn build(
        &mut self,
        ctx: FockContext<'_>,
        builder: &dyn FockBuilder,
        mats: &[&Mat],
    ) -> GBuild {
        let deltas: Option<Vec<Mat>> = (self.d_ref.len() == mats.len())
            .then(|| mats.iter().zip(&self.d_ref).map(|(d, r)| d.sub(r)).collect());
        let delta_norm =
            deltas.as_ref().map(|ds| ds.iter().map(|m| m.frobenius_norm()).fold(0.0, f64::max));

        let full = match delta_norm {
            // First build: no reference state exists yet.
            None => true,
            Some(norm) => {
                self.since_full + 1 >= self.k
                    || (self.min_delta.is_finite() && norm > Self::RECOVERY_FACTOR * self.min_delta)
            }
        };

        let gb = if full {
            // Static screening: identical to the non-incremental driver.
            let gb = builder.build(&ctx, &DensitySet::from_channels(mats));
            self.since_full = 0;
            self.min_delta = f64::INFINITY;
            self.g_ref = channels_of(&gb);
            gb
        } else {
            let deltas = deltas.expect("incremental build requires reference state");
            let delta_refs: Vec<&Mat> = deltas.iter().collect();
            let dens_delta = DensitySet::from_channels(&delta_refs);
            // Weight the screening by ΔD: quartets whose contribution to
            // every Fock element of G(ΔD) is below tau are dropped.
            let dmax = dens_delta.density_max(ctx.basis);
            let mut gb = builder.build(&ctx.with_dmax(&dmax), &dens_delta);
            // Accumulate G_n = G_ref + G(ΔD), channel by channel.
            let mut totals = channels_of(&gb);
            for (t, r) in totals.iter_mut().zip(&self.g_ref) {
                *t = t.add(r);
            }
            gb.g = totals[0].clone();
            if let Some(gbeta) = gb.g_beta.as_mut() {
                *gbeta = totals[1].clone();
            }
            gb.stats.incremental = true;
            self.since_full += 1;
            self.min_delta = self.min_delta.min(delta_norm.expect("deltas exist"));
            self.g_ref = totals;
            gb
        };
        // Rebase the reference every iteration so ΔD is the per-iteration
        // density change, which collapses as SCF converges.
        self.d_ref = mats.iter().map(|m| (*m).clone()).collect();
        gb
    }
}

/// Clone the per-channel matrices out of a build result.
fn channels_of(gb: &GBuild) -> Vec<Mat> {
    let mut v = vec![gb.g.clone()];
    if let Some(b) = &gb.g_beta {
        v.push(b.clone());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::engine::FockData;
    use crate::fock::FockAlgorithm;
    use phi_chem::basis::BasisName;
    use phi_chem::geom::small;
    use phi_chem::BasisSet;

    fn density(n: usize, seed: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            let (i, j) = if i >= j { (i, j) } else { (j, i) };
            0.2 + ((i * 5 + j * 11 + seed) % 7) as f64 * 0.1
        })
    }

    /// The accumulated G after a sequence of slightly-perturbed densities
    /// must track the directly-built G within the screening budget, and
    /// incremental iterations must compute fewer quartets.
    #[test]
    fn accumulated_g_tracks_direct_build() {
        let b = BasisSet::build(&small::water(), BasisName::B631g);
        let data = FockData::build(&b);
        let tau = 1e-10;
        let ctx = data.context(&b, tau);
        let builder = FockAlgorithm::Serial.builder();
        let mut inc = IncrementalFock::new(100);
        let n = b.n_basis();
        let base = density(n, 0);
        let mut full_quartets = 0;
        for step in 0..5 {
            // Shrinking perturbations, mimicking SCF convergence. Small
            // enough that `Q_ij Q_kl |ΔD|` falls below tau for a visible
            // fraction of water's quartets.
            let scale = 1e-9 * 0.1f64.powi(2 * step);
            let mut d = base.clone();
            let mut pert = density(n, step as usize + 1);
            pert.scale(scale);
            d.axpy(1.0, &pert);
            let got = inc.build(ctx, builder.as_ref(), &[&d]);
            let want = builder.build(&ctx, &DensitySet::Restricted(&d));
            assert!(
                got.g.max_abs_diff(&want.g) < 1e-6,
                "step {step}: accumulated G off by {}",
                got.g.max_abs_diff(&want.g)
            );
            if step == 0 {
                assert!(!got.stats.incremental);
                full_quartets = got.stats.quartets_computed;
            } else {
                assert!(got.stats.incremental, "step {step} should be incremental");
                assert!(
                    got.stats.quartets_computed < full_quartets,
                    "step {step}: {} quartets vs full {full_quartets}",
                    got.stats.quartets_computed
                );
            }
        }
    }

    #[test]
    fn rebuild_schedule_and_recovery_force_full_builds() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-10);
        let builder = FockAlgorithm::Serial.builder();
        let mut inc = IncrementalFock::new(3);
        let n = b.n_basis();
        let mk = |eps: f64, seed: usize| {
            let mut d = density(n, 0);
            let mut p = density(n, seed);
            p.scale(eps);
            d.axpy(1.0, &p);
            d
        };
        // Build 0: full. Builds 1-2: incremental. Build 3: K=3 period hit.
        let seq = [mk(0.0, 1), mk(1e-4, 1), mk(2e-4, 2), mk(3e-4, 3)];
        let flags: Vec<bool> =
            seq.iter().map(|d| inc.build(ctx, builder.as_ref(), &[d]).stats.incremental).collect();
        assert_eq!(flags, vec![false, true, true, false]);
        // A tiny step then a large one: the recovery trigger fires.
        let d_small = mk(1e-9, 4);
        let d_big = mk(0.5, 5);
        assert!(inc.build(ctx, builder.as_ref(), &[&d_small]).stats.incremental);
        assert!(!inc.build(ctx, builder.as_ref(), &[&d_big]).stats.incremental);
    }

    #[test]
    fn uhf_channels_accumulate_independently() {
        let b = BasisSet::build(&small::water(), BasisName::Sto3g);
        let data = FockData::build(&b);
        let ctx = data.context(&b, 1e-10);
        let builder = FockAlgorithm::Serial.builder();
        let mut inc = IncrementalFock::new(100);
        let n = b.n_basis();
        let (base_a, base_b) = (density(n, 1), density(n, 4));
        for step in 0..3 {
            let scale = 1e-4 * 0.1f64.powi(step);
            let mut d_a = base_a.clone();
            let mut d_b = base_b.clone();
            let mut p = density(n, 7 + step as usize);
            p.scale(scale);
            d_a.axpy(1.0, &p);
            d_b.axpy(-1.0, &p);
            let got = inc.build(ctx, builder.as_ref(), &[&d_a, &d_b]);
            let want = builder.build(&ctx, &DensitySet::Unrestricted { alpha: &d_a, beta: &d_b });
            let got_b = got.g_beta.as_ref().expect("beta channel");
            let want_b = want.g_beta.as_ref().expect("beta channel");
            assert!(got.g.max_abs_diff(&want.g) < 1e-7, "alpha step {step}");
            assert!(got_b.max_abs_diff(want_b) < 1e-7, "beta step {step}");
        }
    }
}
