//! Differential-testing harness for the class-specialized ERI kernels:
//! every specialized kernel against the generic McMurchie–Davidson path,
//! over seeded random shell quartets (random centers, exponents,
//! contraction depths 1–6, every class permutation of {S, P, D, SP}) and
//! the degenerate configurations that historically break integral codes
//! (coincident centers, near-zero exponents, zero AB/CD distance).
//!
//! Parity is asserted at `<= 1e-14` per integral. The `eval_spec` kernels
//! replay the generic path's arithmetic except for one reassociation: they
//! sum over a bra primitive pair's ket primitives before the bra expansion,
//! where the generic path expands every primitive quartet. The ssss kernel
//! sums the same way and also multiplies each pair's coefficient,
//! normalization and `E_000` once, into the pair dataset's fused weights.
//! Contracted quartets therefore differ in the last bits, and this bound is
//! what holds them; the in-crate `specialized_kernels_match_generic_bitwise`
//! test pins bit equality for the `eval_spec` classes where the sum has one
//! term (single-primitive shells).
//!
//! Seeds sweep through `PHI_KERNEL_SEEDS` (comma-separated), the same
//! pattern the fault matrix uses with `PHI_FAULT_SEEDS`; CI runs four.

use phi_scf::chem::basis::{custom_shell, AngBlock};
use phi_scf::chem::Shell;
use phi_scf::integrals::kernels::{CLASS_LABELS, N_SPEC};
use phi_scf::integrals::{EriEngine, ShellPair};

/// Seeds to sweep: `PHI_KERNEL_SEEDS=1,2,3` overrides the built-in pair.
fn seeds() -> Vec<u64> {
    match std::env::var("PHI_KERNEL_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim())
            .filter(|t| !t.is_empty())
            .map(|t| {
                t.parse().unwrap_or_else(|_| {
                    panic!("PHI_KERNEL_SEEDS must be comma-separated integers, got '{t}'")
                })
            })
            .collect(),
        Err(_) => vec![7, 19],
    }
}

/// Deterministic PRNG (64-bit LCG, top bits), as in tests/property.rs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }

    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn index(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// The shell classes the specialized kernels cover: pure S/P/D blocks and
/// the Pople composite SP ("L") shell.
const KINDS: [&str; 4] = ["S", "P", "D", "SP"];

/// A random contracted shell of the given class at the given center with
/// `depth` primitives (1..=6).
fn class_shell(rng: &mut Rng, kind: usize, depth: usize, center: [f64; 3]) -> Shell {
    let exps: Vec<f64> = (0..depth).map(|_| rng.range(0.12, 5.0)).collect();
    let mut coefs = || -> Vec<f64> {
        (0..depth)
            .map(|_| rng.range(0.2, 1.0) * if rng.unit() < 0.3 { -1.0 } else { 1.0 })
            .collect()
    };
    let blocks: Vec<(usize, Vec<f64>)> = match kind {
        0 => vec![(0, coefs())],
        1 => vec![(1, coefs())],
        2 => vec![(2, coefs())],
        _ => vec![(0, coefs()), (1, coefs())],
    };
    custom_shell(center, exps, &blocks)
}

fn rand_center(rng: &mut Rng) -> [f64; 3] {
    [rng.range(-1.5, 1.5), rng.range(-1.5, 1.5), rng.range(-1.5, 1.5)]
}

/// `class_shell` at a freshly drawn random center (avoids two simultaneous
/// `&mut rng` borrows at the call sites).
fn rand_shell(rng: &mut Rng, kind: usize, depth: usize) -> Shell {
    let center = rand_center(rng);
    class_shell(rng, kind, depth, center)
}

/// Evaluate the quartet on both paths and assert `<= 1e-14` per integral.
/// Returns the kernel-path values for further checks.
fn assert_parity(
    spec: &mut EriEngine,
    generic: &mut EriEngine,
    a: &Shell,
    b: &Shell,
    c: &Shell,
    d: &Shell,
    what: &str,
) -> Vec<f64> {
    let bra = ShellPair::build(0, 0, a, b, 0.0);
    let ket = ShellPair::build(0, 0, c, d, 0.0);
    let mut vs = vec![0.0; bra.n_fn() * ket.n_fn()];
    let mut vg = vs.clone();
    spec.shell_quartet_pairs(&bra, &ket, &mut vs);
    generic.shell_quartet_pairs(&bra, &ket, &mut vg);
    for (k, (x, y)) in vs.iter().zip(&vg).enumerate() {
        assert!(
            (x - y).abs() <= 1e-14,
            "{what}: element {k} diverges: kernel {x:.17e} vs generic {y:.17e}"
        );
    }
    vs
}

/// Every class permutation {S,P,D,SP}^4, random geometry/exponents/
/// contraction per case, per seed. Covers all 16 specialized (l_bra,
/// l_ket) slots reachable from s/p/SP/d shells, on both bra and ket sides.
#[test]
#[allow(clippy::needless_range_loop)] // index drives both shells and labels
fn all_class_permutations_match_generic() {
    for seed in seeds() {
        let mut rng = Rng::new(seed);
        let mut spec = EriEngine::new();
        spec.prefactor_cutoff = 0.0;
        let mut generic = EriEngine::generic_only();
        generic.prefactor_cutoff = 0.0;
        for ka in 0..KINDS.len() {
            for kb in 0..KINDS.len() {
                for kc in 0..KINDS.len() {
                    for kd in 0..KINDS.len() {
                        let depth = 1 + (seed as usize + ka + kb + kc + kd) % 3;
                        let a = rand_shell(&mut rng, ka, depth);
                        let b = rand_shell(&mut rng, kb, depth);
                        let c = rand_shell(&mut rng, kc, depth);
                        let d = rand_shell(&mut rng, kd, depth);
                        let what = format!(
                            "seed {seed}, class {}{}{}{}",
                            KINDS[ka], KINDS[kb], KINDS[kc], KINDS[kd]
                        );
                        assert_parity(&mut spec, &mut generic, &a, &b, &c, &d, &what);
                    }
                }
            }
        }
        assert!(spec.spec_quartets_computed() > 0, "no specialized kernel ran");
        assert_eq!(
            generic.spec_quartets_computed(),
            0,
            "generic_only engine must never dispatch a specialized kernel"
        );
    }
}

/// Deep contractions (depth 6 on every shell) on the heavy classes — the
/// regime where the survivor-compaction and batched-Boys phases process
/// hundreds of primitive quartets per shell quartet — and, at depth 3, on
/// every one of the 24 `eval_spec` classes, so the kernels' sum over a bra
/// primitive pair's 9 ket primitive pairs is held to the generic path in
/// each.
#[test]
fn deep_contractions_match_generic() {
    // One shell-kind pair per combined angular momentum 0..=4 (KINDS
    // indices): ss, sp, pp, pd, dd.
    const SIDE: [(usize, usize); 5] = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)];
    let mut cases =
        vec![((2, 2, 2, 2), 6), ((3, 3, 3, 3), 6), ((2, 3, 0, 2), 6), ((3, 1, 2, 3), 6)];
    for (lb, &(ka, kb)) in SIDE.iter().enumerate() {
        for (lk, &(kc, kd)) in SIDE.iter().enumerate() {
            if lb + lk > 0 {
                cases.push(((ka, kb, kc, kd), 3));
            }
        }
    }
    for seed in seeds() {
        let mut rng = Rng::new(seed ^ 0xD00D);
        let mut spec = EriEngine::new();
        spec.prefactor_cutoff = 0.0;
        let mut generic = EriEngine::generic_only();
        generic.prefactor_cutoff = 0.0;
        for &((ka, kb, kc, kd), depth) in &cases {
            let a = rand_shell(&mut rng, ka, depth);
            let b = rand_shell(&mut rng, kb, depth);
            let c = rand_shell(&mut rng, kc, depth);
            let d = rand_shell(&mut rng, kd, depth);
            let what =
                format!("seed {seed}, deep {}{}{}{}", KINDS[ka], KINDS[kb], KINDS[kc], KINDS[kd]);
            let prims = spec.prim_quartets_computed();
            assert_parity(&mut spec, &mut generic, &a, &b, &c, &d, &what);
            assert_eq!(
                spec.prim_quartets_computed() - prims,
                depth.pow(4) as u64,
                "{what}: every primitive quartet must survive"
            );
        }
        let counts = spec.class_counts();
        let missing: Vec<_> =
            (1..N_SPEC).filter(|&ci| counts[ci] == 0).map(|ci| CLASS_LABELS[ci]).collect();
        assert!(missing.is_empty(), "seed {seed}: classes never reached: {missing:?}");
    }
}

/// Degenerate configurations: all four shells on one center, zero AB and
/// CD distances (same-center pairs at different pair centers), and
/// near-zero exponents. These exercise the `E`-table odd-moment zeros
/// (the sparse entry lists shrink), the Boys small-argument branch, and
/// the `T = 0` Hermite recursion.
#[test]
fn degenerate_geometries_match_generic() {
    for seed in seeds() {
        let mut rng = Rng::new(seed ^ 0xBEEF);
        let mut spec = EriEngine::new();
        spec.prefactor_cutoff = 0.0;
        let mut generic = EriEngine::generic_only();
        generic.prefactor_cutoff = 0.0;
        for kind_set in 0..KINDS.len() {
            // Coincident centers: the full quartet on one point.
            let origin = [0.3, -0.2, 0.1];
            let a = class_shell(&mut rng, kind_set, 2, origin);
            let b = class_shell(&mut rng, (kind_set + 1) % 4, 2, origin);
            let c = class_shell(&mut rng, (kind_set + 2) % 4, 2, origin);
            let d = class_shell(&mut rng, (kind_set + 3) % 4, 2, origin);
            assert_parity(
                &mut spec,
                &mut generic,
                &a,
                &b,
                &c,
                &d,
                &format!("seed {seed}, coincident centers, kinds from {kind_set}"),
            );

            // Zero AB and CD distance, nonzero bra-ket separation.
            let p1 = [0.0, 0.0, 0.0];
            let p2 = [0.0, 0.0, 1.7];
            let a = class_shell(&mut rng, kind_set, 3, p1);
            let b = class_shell(&mut rng, (kind_set + 2) % 4, 3, p1);
            let c = class_shell(&mut rng, (kind_set + 1) % 4, 3, p2);
            let d = class_shell(&mut rng, (kind_set + 3) % 4, 3, p2);
            assert_parity(
                &mut spec,
                &mut generic,
                &a,
                &b,
                &c,
                &d,
                &format!("seed {seed}, zero AB/CD distance, kinds from {kind_set}"),
            );

            // Near-zero exponents: extremely diffuse primitives (tiny Boys
            // arguments, huge prefactors).
            let diffuse_center = rand_center(&mut rng);
            let diffuse =
                custom_shell(diffuse_center, vec![1e-6, 0.8], &[(kind_set.min(2), vec![0.7, 0.4])]);
            let probe = rand_shell(&mut rng, (kind_set + 1) % 4, 2);
            assert_parity(
                &mut spec,
                &mut generic,
                &diffuse,
                &probe,
                &probe,
                &diffuse,
                &format!("seed {seed}, near-zero exponent, kind {kind_set}"),
            );
        }
    }
}

/// The default screened configuration (prefactor cutoff 1e-18) must agree
/// too: both paths apply the same screen, so the same primitive quartets
/// survive on each side.
#[test]
fn screened_quartets_match_generic() {
    for seed in seeds() {
        let mut rng = Rng::new(seed ^ 0xACE);
        let mut spec = EriEngine::new();
        let mut generic = EriEngine::generic_only();
        for case in 0..12 {
            let (ka, kb, kc, kd) = (rng.index(4), rng.index(4), rng.index(4), rng.index(4));
            // Mix near and far centers so the screen actually fires.
            let far = if case % 3 == 0 { 18.0 } else { 1.0 };
            let (da, db, dc, dd) =
                (1 + rng.index(3), 1 + rng.index(3), 1 + rng.index(3), 1 + rng.index(3));
            let a = rand_shell(&mut rng, ka, da);
            let b = class_shell(&mut rng, kb, db, [far, 0.0, 0.2]);
            let c = rand_shell(&mut rng, kc, dc);
            let d = class_shell(&mut rng, kd, dd, [0.0, far, -0.1]);
            assert_parity(
                &mut spec,
                &mut generic,
                &a,
                &b,
                &c,
                &d,
                &format!("seed {seed}, screened case {case}"),
            );
        }
        assert_eq!(
            spec.prim_quartets_computed(),
            generic.prim_quartets_computed(),
            "both paths must screen identically"
        );
    }
}

/// A contracted s shell of the given depth, unnormalized: exponents a
/// geometric ladder from diffuse to tight, coefficients of mixed sign.
fn contracted_s(depth: usize, tag: f64, center: [f64; 3]) -> Shell {
    let exps: Vec<f64> = (0..depth).map(|k| (0.11 + 0.02 * tag) * 3.3f64.powi(k as i32)).collect();
    let coefs = (0..depth).map(|k| (0.9 - 0.23 * k as f64) * (1.0 + 0.1 * tag)).collect();
    Shell { center, exps, blocks: vec![AngBlock { l: 0, coefs }], first_bf: 0 }
}

/// The ssss kernel over every contraction-depth pair 1–6 × 1–6, from
/// coincident to far-separated centres (where `E_000` underflows to an
/// empty entry list, a zero fused weight), through pruned primitive pairs
/// and a zero contraction coefficient, with and without primitive
/// screening. These shells are unnormalized and their integrals reach
/// ~1e2, so the file's `1e-14` is taken relative to magnitudes above 1.
/// Both paths apply the one prefactor screen, so their primitive-quartet
/// counts are equal.
#[test]
fn ssss_kernel_matches_generic() {
    let origin = [0.0; 3];
    let places = [origin, [0.4, -0.7, 1.1], [0.0, 0.0, 4.0], [0.0, 30.0, 0.0]];
    let (mut pruned, mut zero_coef, mut underflowed) = (false, false, false);
    let mut computed = Vec::new();
    for cutoff in [0.0, 1e-18] {
        let mut spec = EriEngine::new();
        let mut generic = EriEngine::generic_only();
        spec.prefactor_cutoff = cutoff;
        generic.prefactor_cutoff = cutoff;
        for da in 1..=6 {
            for db in 1..=6 {
                for (ip, &place) in places.iter().enumerate() {
                    let a = contracted_s(da, 0.0, origin);
                    let mut b = contracted_s(db, 1.0, place);
                    if ip == 1 && db > 1 {
                        b.blocks[0].coefs[1] = 0.0;
                        zero_coef = true;
                    }
                    let pair_cutoff = if ip == 2 { 1e-10 } else { 0.0 };
                    let bra = ShellPair::build(0, 0, &a, &b, pair_cutoff);
                    let ket = ShellPair::build(0, 0, &b, &a, pair_cutoff);
                    pruned |= bra.prims.len() < da * db;
                    underflowed |= bra.prims.iter().enumerate().any(|(i, pp)| {
                        let e000 = pp.ex.get(0, 0, 0) * pp.ey.get(0, 0, 0) * pp.ez.get(0, 0, 0);
                        e000 == 0.0 && bra.hermite.entries(i, 0).1.is_empty()
                    });
                    let (mut vs, mut vg) = ([0.0], [0.0]);
                    // Mixed and diagonal quartets.
                    for (x, y) in [(&bra, &ket), (&bra, &bra)] {
                        spec.shell_quartet_pairs(x, y, &mut vs);
                        generic.shell_quartet_pairs(x, y, &mut vg);
                        assert!(
                            (vs[0] - vg[0]).abs() <= 1e-14 * vg[0].abs().max(1.0),
                            "depths {da}x{db}, place {ip}, cutoff {cutoff:e}: \
                             kernel {:.17e} vs generic {:.17e}",
                            vs[0],
                            vg[0]
                        );
                    }
                }
            }
        }
        assert_eq!(spec.prim_quartets_computed(), generic.prim_quartets_computed());
        assert_eq!(spec.class_counts()[0], spec.shell_quartets_computed());
        assert_eq!(generic.spec_quartets_computed(), 0);
        computed.push(spec.prim_quartets_computed());
    }
    assert!(pruned && zero_coef && underflowed, "{pruned} {zero_coef} {underflowed}");
    assert!(computed[1] < computed[0], "1e-18 must screen some primitive quartets");
}

/// The ssss kernel's prefactor screen must be the generic path's to the
/// last bit, or the two paths compute different primitive quartets. The
/// cutoff is set to each primitive quartet's own screen value, spelled in
/// the generic path's order, and to the next double up: the generic path
/// keeps that quartet at the first and drops it at the second, so a
/// reassociated product that rounds one ulp either way disagrees at one of
/// them.
#[test]
fn ssss_screen_matches_generic_at_its_edge() {
    let num = 2.0 * std::f64::consts::PI.powf(2.5);
    let a = contracted_s(4, 0.0, [0.0; 3]);
    let b = contracted_s(5, 1.0, [0.4, -0.7, 1.1]);
    let bra = ShellPair::build(0, 0, &a, &b, 0.0);
    let ket = ShellPair::build(0, 0, &b, &a, 0.0);
    let coef_bound = bra.max_coef * ket.max_coef;
    let (bs, ks) = (&bra.soa, &ket.soa);
    for ia in 0..bs.p.len() {
        for ic in 0..ks.p.len() {
            let (p, q) = (bs.p[ia], ks.p[ic]);
            let base = num / (p * q * (p + q).sqrt());
            let edge = (base * bs.k[ia] * ks.k[ic] * coef_bound).abs();
            for cutoff in [edge, edge.next_up()] {
                let mut spec = EriEngine::new();
                let mut generic = EriEngine::generic_only();
                spec.prefactor_cutoff = cutoff;
                generic.prefactor_cutoff = cutoff;
                let (mut vs, mut vg) = ([0.0], [0.0]);
                spec.shell_quartet_pairs(&bra, &ket, &mut vs);
                generic.shell_quartet_pairs(&bra, &ket, &mut vg);
                assert_eq!(
                    spec.prim_quartets_computed(),
                    generic.prim_quartets_computed(),
                    "cutoff {cutoff:e}, the screen value of primitive quartet ({ia}, {ic})"
                );
            }
        }
    }
}
