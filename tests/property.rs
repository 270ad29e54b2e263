//! Randomized property tests on the core data structures and invariants
//! across the workspace. A small in-tree LCG drives the case generation so
//! the suite runs fully offline; every test is deterministic per seed.

use phi_scf::chem::basis::{custom_shell, BasisName, BasisSet};
use phi_scf::chem::Shell;
use phi_scf::integrals::boys::boys_single;
use phi_scf::integrals::{EriEngine, ShellPair, ShellPairs};
use phi_scf::linalg::{eigh, solve, Mat};

/// Deterministic PRNG (64-bit LCG, top bits) for property-style tests.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [lo, hi).
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in [0, n).
    fn index(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

fn random_symmetric(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Mat {
    let mut m = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = rng.range(lo, hi);
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

// ---------------------------------------------------------------- linalg --

#[test]
fn eigh_reconstructs_and_is_orthonormal() {
    let mut rng = Rng::new(11);
    for _ in 0..48 {
        let a = random_symmetric(&mut rng, 8, -10.0, 10.0);
        let e = eigh(&a);
        let rebuilt = e.apply(|x| x);
        assert!(
            rebuilt.max_abs_diff(&a) < 1e-8,
            "reconstruction error {}",
            rebuilt.max_abs_diff(&a)
        );
        let vtv = e.vectors.matmul_tn(&e.vectors);
        assert!(vtv.max_abs_diff(&Mat::identity(8)) < 1e-9);
        // Eigenvalue sum equals trace.
        let sum: f64 = e.values.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-8);
    }
}

#[test]
fn lu_solve_has_small_residual() {
    let mut rng = Rng::new(23);
    for _ in 0..48 {
        // Shift the diagonal to keep the system well-conditioned.
        let mut m = random_symmetric(&mut rng, 6, -10.0, 10.0);
        for i in 0..6 {
            m[(i, i)] += 25.0;
        }
        let b: Vec<f64> = (0..6).map(|_| rng.range(-5.0, 5.0)).collect();
        let x = solve(&m, &b).expect("diagonally dominant");
        let r = m.matvec(&x);
        for i in 0..6 {
            assert!((r[i] - b[i]).abs() < 1e-8);
        }
    }
}

// ------------------------------------------------------------------ boys --

#[test]
fn boys_recursion_identity_holds() {
    let mut rng = Rng::new(37);
    for _ in 0..128 {
        let t = rng.range(0.0, 120.0);
        let m = rng.index(10);
        // (2m+1) F_m = 2T F_{m+1} + e^{-T}
        let fm = boys_single(m, t);
        let fm1 = boys_single(m + 1, t);
        let lhs = (2 * m + 1) as f64 * fm;
        let rhs = 2.0 * t * fm1 + (-t).exp();
        assert!(
            (lhs - rhs).abs() < 1e-11 * (1.0 + lhs.abs()),
            "recursion broken at m={m}, T={t}: {lhs} vs {rhs}"
        );
    }
}

#[test]
fn boys_bounds() {
    let mut rng = Rng::new(41);
    for _ in 0..128 {
        let t = rng.range(0.0, 200.0);
        let m = rng.index(12);
        let f = boys_single(m, t);
        assert!(f > 0.0);
        assert!(f <= 1.0 / (2 * m + 1) as f64 + 1e-15, "F_m(T) <= F_m(0)");
    }
}

// ------------------------------------------------------------------- eri --

/// A random single-block contracted shell with l in 0..3.
fn arb_shell(rng: &mut Rng) -> Shell {
    let l = rng.index(3);
    let alpha = rng.range(0.2, 3.0);
    let center = [rng.range(-1.5, 1.5), rng.range(-1.5, 1.5), rng.range(-1.5, 1.5)];
    custom_shell(center, vec![alpha], &[(l, vec![1.0])])
}

/// A random shell that may be contracted (up to 3 primitives), may be a
/// Pople composite SP shell, and may carry d functions.
fn arb_rich_shell(rng: &mut Rng) -> Shell {
    let nprim = 1 + rng.index(3);
    let center = [rng.range(-1.5, 1.5), rng.range(-1.5, 1.5), rng.range(-1.5, 1.5)];
    let exps: Vec<f64> = (0..nprim).map(|_| rng.range(0.15, 4.0)).collect();
    let coefs = |rng: &mut Rng| -> Vec<f64> {
        (0..nprim)
            .map(|_| rng.range(0.2, 1.0) * if rng.unit() < 0.3 { -1.0 } else { 1.0 })
            .collect()
    };
    let blocks: Vec<(usize, Vec<f64>)> = match rng.index(4) {
        // Composite SP ("L") shell: S and P sharing exponents.
        0 => vec![(0, coefs(rng)), (1, coefs(rng))],
        // Pure d shell.
        1 => vec![(2, coefs(rng))],
        2 => vec![(0, coefs(rng))],
        _ => vec![(1, coefs(rng))],
    };
    custom_shell(center, exps, &blocks)
}

/// `(ab|cd)` from two pairs built on the spot, every primitive pair kept.
fn quartet(engine: &mut EriEngine, a: &Shell, b: &Shell, c: &Shell, d: &Shell) -> Vec<f64> {
    let bra = ShellPair::build(0, 0, a, b, 0.0);
    let ket = ShellPair::build(0, 0, c, d, 0.0);
    let mut out = vec![0.0; bra.n_fn() * ket.n_fn()];
    engine.shell_quartet_pairs(&bra, &ket, &mut out);
    out
}

#[test]
fn eri_bra_ket_symmetry() {
    let mut rng = Rng::new(53);
    for _ in 0..24 {
        let (a, b, c, d) =
            (arb_shell(&mut rng), arb_shell(&mut rng), arb_shell(&mut rng), arb_shell(&mut rng));
        let mut engine = EriEngine::new();
        engine.prefactor_cutoff = 0.0;
        let (na, nb, nc, nd) = (a.n_functions(), b.n_functions(), c.n_functions(), d.n_functions());
        let abcd = quartet(&mut engine, &a, &b, &c, &d);
        let cdab = quartet(&mut engine, &c, &d, &a, &b);
        for ia in 0..na {
            for ib in 0..nb {
                for ic in 0..nc {
                    for id in 0..nd {
                        let v1 = abcd[((ia * nb + ib) * nc + ic) * nd + id];
                        let v2 = cdab[((ic * nd + id) * na + ia) * nb + ib];
                        assert!(
                            (v1 - v2).abs() < 1e-10 * (1.0 + v1.abs()),
                            "(ab|cd) != (cd|ab): {v1} vs {v2}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn eri_diagonal_quartets_are_nonnegative() {
    let mut rng = Rng::new(59);
    for _ in 0..24 {
        let (a, b) = (arb_shell(&mut rng), arb_shell(&mut rng));
        let mut engine = EriEngine::new();
        engine.prefactor_cutoff = 0.0;
        let (na, nb) = (a.n_functions(), b.n_functions());
        let buf = quartet(&mut engine, &a, &b, &a, &b);
        for ia in 0..na {
            for ib in 0..nb {
                let diag = buf[((ia * nb + ib) * na + ia) * nb + ib];
                assert!(diag >= -1e-12, "diagonal ({ia},{ib}) = {diag}");
            }
        }
    }
}

/// The persistent shell-pair path must reproduce the build-on-the-fly path
/// to tight absolute tolerance over random shells, including contracted,
/// composite SP ("L"), and d-function blocks.
#[test]
fn eri_pair_cache_matches_on_the_fly() {
    let mut rng = Rng::new(61);
    for case in 0..40 {
        let shells = vec![
            arb_rich_shell(&mut rng),
            arb_rich_shell(&mut rng),
            arb_rich_shell(&mut rng),
            arb_rich_shell(&mut rng),
        ];
        let basis = BasisSet::from_shells(BasisName::Sto3g, shells);
        // Keep every primitive pair so the comparison covers the full
        // contraction space, not just the survivors.
        let pairs = ShellPairs::build_with(&basis, 0.0);
        let mut engine = EriEngine::new();
        engine.prefactor_cutoff = 0.0;
        let (a, b, c, d) = (1usize, 0usize, 3usize, 2usize);
        let (sa, sb, sc, sd) =
            (&basis.shells[a], &basis.shells[b], &basis.shells[c], &basis.shells[d]);
        let fly = quartet(&mut engine, sa, sb, sc, sd);
        let mut cached = vec![0.0; fly.len()];
        engine.shell_quartet_pairs(pairs.pair(a, b), pairs.pair(c, d), &mut cached);
        for (k, (x, y)) in fly.iter().zip(&cached).enumerate() {
            assert!(
                (x - y).abs() <= 1e-12,
                "case {case}, element {k}: on-the-fly {x} vs pair-cached {y}"
            );
        }
    }
}

/// The class-specialized kernel path must respect the full 8-fold
/// permutational symmetry of real ERIs, across random class combinations
/// (s/p/d/SP, contracted): (ab|cd) = (ba|cd) = (ab|dc) = (ba|dc) =
/// (cd|ab) = (dc|ab) = (cd|ba) = (dc|ba).
#[test]
fn eri_kernel_path_eightfold_symmetry() {
    let mut rng = Rng::new(67);
    let mut engine = EriEngine::new();
    engine.prefactor_cutoff = 0.0;
    for case in 0..24 {
        let (a, b, c, d) = (
            arb_rich_shell(&mut rng),
            arb_rich_shell(&mut rng),
            arb_rich_shell(&mut rng),
            arb_rich_shell(&mut rng),
        );
        let (na, nb, nc, nd) = (a.n_functions(), b.n_functions(), c.n_functions(), d.n_functions());
        let abcd = quartet(&mut engine, &a, &b, &c, &d);
        let bacd = quartet(&mut engine, &b, &a, &c, &d);
        let abdc = quartet(&mut engine, &a, &b, &d, &c);
        let badc = quartet(&mut engine, &b, &a, &d, &c);
        let cdab = quartet(&mut engine, &c, &d, &a, &b);
        let dcab = quartet(&mut engine, &d, &c, &a, &b);
        let cdba = quartet(&mut engine, &c, &d, &b, &a);
        let dcba = quartet(&mut engine, &d, &c, &b, &a);
        for ia in 0..na {
            for ib in 0..nb {
                for ic in 0..nc {
                    for id in 0..nd {
                        let want = abcd[((ia * nb + ib) * nc + ic) * nd + id];
                        let perms = [
                            ("ba|cd", bacd[((ib * na + ia) * nc + ic) * nd + id]),
                            ("ab|dc", abdc[((ia * nb + ib) * nd + id) * nc + ic]),
                            ("ba|dc", badc[((ib * na + ia) * nd + id) * nc + ic]),
                            ("cd|ab", cdab[((ic * nd + id) * na + ia) * nb + ib]),
                            ("dc|ab", dcab[((id * nc + ic) * na + ia) * nb + ib]),
                            ("cd|ba", cdba[((ic * nd + id) * nb + ib) * na + ia]),
                            ("dc|ba", dcba[((id * nc + ic) * nb + ib) * na + ia]),
                        ];
                        for (name, got) in perms {
                            assert!(
                                (want - got).abs() < 1e-10 * (1.0 + want.abs()),
                                "case {case}, ({name}) at ({ia},{ib},{ic},{id}): \
                                 {want} vs {got}"
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(engine.spec_quartets_computed() > 0, "kernel path did not dispatch");
}

/// The Schwarz inequality |(ij|kl)| <= sqrt((ij|ij)) * sqrt((kl|kl)) must
/// hold element-wise on the specialized kernel path — it is the soundness
/// basis of every screening layer above the engine.
#[test]
fn eri_kernel_path_respects_schwarz_bound() {
    let mut rng = Rng::new(71);
    let mut engine = EriEngine::new();
    engine.prefactor_cutoff = 0.0;
    for case in 0..24 {
        let (a, b, c, d) = (
            arb_rich_shell(&mut rng),
            arb_rich_shell(&mut rng),
            arb_rich_shell(&mut rng),
            arb_rich_shell(&mut rng),
        );
        let (na, nb, nc, nd) = (a.n_functions(), b.n_functions(), c.n_functions(), d.n_functions());
        let abcd = quartet(&mut engine, &a, &b, &c, &d);
        let abab = quartet(&mut engine, &a, &b, &a, &b);
        let cdcd = quartet(&mut engine, &c, &d, &c, &d);
        for ia in 0..na {
            for ib in 0..nb {
                let q_ab = abab[((ia * nb + ib) * na + ia) * nb + ib].max(0.0).sqrt();
                for ic in 0..nc {
                    for id in 0..nd {
                        let q_cd = cdcd[((ic * nd + id) * nc + ic) * nd + id].max(0.0).sqrt();
                        let v = abcd[((ia * nb + ib) * nc + ic) * nd + id].abs();
                        assert!(
                            v <= q_ab * q_cd + 1e-10,
                            "case {case}, ({ia}{ib}|{ic}{id}): |{v}| > {} * {}",
                            q_ab,
                            q_cd
                        );
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------------------ fock --

/// End-to-end differential test: a serial Fock build with the specialized
/// kernels must match the same quartets evaluated on the generic path and
/// digested into `G`, element by element, on a basis that exercises s, p,
/// SP, and d classes. The generic side is built here, as the benchmark's
/// probe builds it: the canonical `kl_bounds` loops, the `survives` test,
/// `EriEngine::generic_only` and `digest_quartet` into a `TriSink`.
#[test]
fn serial_fock_matches_with_kernels_on_and_off() {
    use phi_scf::hf::fock::{digest_quartet, kl_bounds, tri_to_full, TriSink};
    use phi_scf::hf::{DensitySet, FockAlgorithm, FockContext};
    use phi_scf::integrals::Screening;

    let mol = phi_scf::chem::geom::small::water();
    let basis = BasisSet::build(&mol, BasisName::B631gd);
    let pairs = ShellPairs::build(&basis);
    let screening = Screening::from_pairs(&basis, &pairs);
    let n = basis.n_basis();
    let mut rng = Rng::new(73);
    let d = random_symmetric(&mut rng, n, -0.4, 0.4);
    let ctx = FockContext::new(&basis, &pairs, &screening, 1e-11);
    let on = FockAlgorithm::Serial.builder().build(&ctx, &DensitySet::Restricted(&d));

    let mut generic = EriEngine::generic_only();
    let (mut g, mut buf) = (vec![0.0; n * n], Vec::new());
    let mut sink = TriSink { buf: &mut g, n };
    let ns = basis.n_shells();
    for i in 0..ns {
        for j in 0..=i {
            for k in 0..=i {
                for l in 0..=kl_bounds(i, j, k) {
                    if !ctx.survives(i, j, k, l) {
                        continue;
                    }
                    let (bra, ket) = (pairs.pair(i, j), pairs.pair(k, l));
                    buf.resize(bra.n_fn() * ket.n_fn(), 0.0);
                    generic.shell_quartet_pairs(bra, ket, &mut buf);
                    digest_quartet(&basis, i, j, k, l, &buf, &d, &mut sink);
                }
            }
        }
    }
    let off = tri_to_full(&g, n);
    assert!(
        on.g.max_abs_diff(&off) <= 1e-12,
        "kernels-on vs kernels-off G diverge: {}",
        on.g.max_abs_diff(&off)
    );
    // The kernel build must actually have dispatched specialized classes,
    // and the generic sweep must not have.
    assert!(on.stats.eri_spec_quartets() > 0);
    assert_eq!(generic.spec_quartets_computed(), 0);
    assert_eq!(
        on.stats.quartets_computed,
        generic.shell_quartets_computed(),
        "both paths must screen identically"
    );
}

#[test]
fn g_build_is_linear_and_symmetric() {
    use phi_scf::hf::{DensitySet, FockAlgorithm, FockContext};
    use phi_scf::integrals::Screening;

    let mol = phi_scf::chem::geom::small::hydrogen_molecule(1.4);
    let basis = BasisSet::build(&mol, BasisName::B631g);
    let pairs = ShellPairs::build(&basis);
    let screening = Screening::from_pairs(&basis, &pairs);
    let ctx = FockContext::new(&basis, &pairs, &screening, 0.0);
    let serial = FockAlgorithm::Serial.builder();
    let n = basis.n_basis();
    for seed in 0..12u64 {
        let mut rng = Rng::new(seed.wrapping_mul(77).wrapping_add(5));
        let d = random_symmetric(&mut rng, n, -0.5, 0.5);
        let g1 = serial.build(&ctx, &DensitySet::Restricted(&d)).g;
        assert!(g1.is_symmetric(1e-10));
        let g2 = serial.build(&ctx, &DensitySet::Restricted(&d.add(&d))).g;
        assert!(g2.max_abs_diff(&g1.add(&g1)) < 1e-9, "G not linear in D");
    }
}

// -------------------------------------------------------------- runtimes --

#[test]
fn dynamic_worksharing_partitions_any_range() {
    use std::sync::atomic::{AtomicU32, Ordering};
    let mut rng = Rng::new(71);
    for round in 0..32 {
        let threads = 1 + rng.index(5);
        // Every other range is shorter than the team, so some threads'
        // home ranges are empty.
        let n = if round % 2 == 0 { rng.index(500) } else { rng.index(threads) };
        let sched = phi_scf::omp::Schedule::Dynamic { chunk: 1 + rng.index(7) };
        let team = phi_scf::omp::Team::new(threads);
        let hits: Vec<AtomicU32> = (0..2 * n).map(|_| AtomicU32::new(0)).collect();
        team.parallel(|ctx| {
            ctx.for_each(n, sched, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            ctx.for_each_nowait(n, sched, &mut |i| {
                hits[n + i].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} of n = {n}, {threads} threads");
        }
    }
}

#[test]
fn gsumf_matches_scalar_sum() {
    let mut rng = Rng::new(83);
    for _ in 0..16 {
        let n_ranks = 1 + rng.index(5);
        let values: Vec<f64> = (0..n_ranks).map(|_| rng.range(-100.0, 100.0)).collect();
        let values2 = values.clone();
        let res = phi_scf::dmpi::run_world(n_ranks, move |rank| {
            let mut v = vec![values2[rank.rank()]];
            rank.try_gsumf(&mut v).unwrap();
            v[0]
        });
        let want: f64 = values.iter().sum();
        for got in res.per_rank {
            assert!((got - want).abs() < 1e-10);
        }
    }
}
