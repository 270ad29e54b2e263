//! Golden-value ERI regression tests.
//!
//! The differential harness (tests/kernel_parity.rs) proves the specialized
//! kernels agree with the generic path — but both could drift *together*.
//! This file pins absolute values: the classic H2/STO-3G two-electron
//! integrals (cross-checked against Szabo & Ostlund Table 3.12 at R = 1.4
//! bohr) and a set of water/6-31G p-class elements, all to 12 significant
//! digits, asserted on BOTH the kernel and the generic path. A silent
//! change to either path fails loudly here, not just self-consistently.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::chem::Shell;
use phi_scf::integrals::{EriEngine, ShellPair};

/// Relative tolerance matching 12-significant-digit pinned literals.
const TOL_12SIG: f64 = 1e-11;

/// Evaluate one shell quartet on the given engine.
fn quartet(engine: &mut EriEngine, a: &Shell, b: &Shell, c: &Shell, d: &Shell) -> Vec<f64> {
    let bra = ShellPair::build(0, 0, a, b, 0.0);
    let ket = ShellPair::build(0, 0, c, d, 0.0);
    let mut out = vec![0.0; bra.n_fn() * ket.n_fn()];
    engine.shell_quartet_pairs(&bra, &ket, &mut out);
    out
}

/// Assert `got` matches a 12-significant-digit golden literal, on both the
/// kernel path and the generic path.
fn assert_golden(got_kernel: f64, got_generic: f64, want: f64, what: &str) {
    for (path, got) in [("kernel", got_kernel), ("generic", got_generic)] {
        let rel = (got - want).abs() / want.abs().max(1e-300);
        assert!(
            rel <= TOL_12SIG,
            "{what} [{path}]: got {got:.15e}, golden {want:.15e}, rel err {rel:.2e}"
        );
    }
}

/// Values that are exactly zero by symmetry must stay (numerically) zero.
fn assert_symmetry_zero(got_kernel: f64, got_generic: f64, what: &str) {
    for (path, got) in [("kernel", got_kernel), ("generic", got_generic)] {
        assert!(got.abs() <= 1e-15, "{what} [{path}]: expected symmetry zero, got {got:.3e}");
    }
}

/// H2/STO-3G at R = 1.4 bohr: the ssss class against the textbook values
/// (phi1 phi1|phi1 phi1) = 0.7746, (phi1 phi1|phi2 phi2) = 0.5697,
/// (phi1 phi2|phi1 phi2) = 0.2970 — and against this implementation's own
/// 12-digit values so the pin is much tighter than the 4-digit reference.
#[test]
fn h2_sto3g_ssss_golden() {
    let b = BasisSet::build(&small::hydrogen_molecule(1.4), BasisName::Sto3g);
    assert_eq!(b.n_shells(), 2, "H2/STO-3G is two s shells");
    let sh = &b.shells;
    let mut spec = EriEngine::new();
    let mut generic = EriEngine::generic_only();

    // (shell indices, textbook value, golden 12-digit value)
    let cases: [(usize, usize, usize, usize, f64, f64, &str); 3] = [
        (0, 0, 0, 0, 0.7746, 7.74605944211e-1, "(11|11)"),
        (0, 0, 1, 1, 0.5697, 5.69675926472e-1, "(11|22)"),
        (0, 1, 0, 1, 0.2970, 2.97028541181e-1, "(12|12)"),
    ];
    for (i, j, k, l, textbook, golden, name) in cases {
        let vk = quartet(&mut spec, &sh[i], &sh[j], &sh[k], &sh[l])[0];
        let vg = quartet(&mut generic, &sh[i], &sh[j], &sh[k], &sh[l])[0];
        assert!(
            (vk - textbook).abs() < 1e-4,
            "{name}: {vk:.6} disagrees with the Szabo-Ostlund value {textbook}"
        );
        assert_golden(vk, vg, golden, name);
    }
    assert!(spec.spec_quartets_computed() > 0, "ssss must dispatch to a specialized kernel");
}

/// Water/6-31G p-class golden values: elements of quartets built from the
/// oxygen SP (L) shells — the composite class the paper's C6/6-31G(d)
/// workload is dominated by. Shell layout (asserted): 0 = O s core,
/// 1..=2 = O sp valence, 3..=6 = H s. Function order within an SP shell
/// is [s, px, py, pz].
#[test]
fn water_631g_p_class_golden() {
    let w = BasisSet::build(&small::water(), BasisName::B631g);
    assert_eq!(w.n_shells(), 7, "water/6-31G is 7 shells");
    let sh = &w.shells;
    assert_eq!(sh[1].n_functions(), 4, "shell 1 is an oxygen SP shell");
    assert_eq!(sh[2].n_functions(), 4, "shell 2 is an oxygen SP shell");
    let mut spec = EriEngine::new();
    let mut generic = EriEngine::generic_only();

    // (L1 L1 | L1 L1): the all-SP quartet, element (fa fb|fc fd).
    let vk = quartet(&mut spec, &sh[1], &sh[1], &sh[1], &sh[1]);
    let vg = quartet(&mut generic, &sh[1], &sh[1], &sh[1], &sh[1]);
    let idx = |fa: usize, fb: usize, fc: usize, fd: usize| ((fa * 4 + fb) * 4 + fc) * 4 + fd;
    let cases: [(usize, usize, usize, usize, f64, &str); 6] = [
        (0, 0, 0, 0, 1.02967715624, "(ss|ss)"),
        (1, 1, 0, 0, 1.03921285459, "(px px|ss)"),
        (1, 1, 1, 1, 1.13687533194, "(px px|px px)"),
        (1, 2, 1, 2, 6.11609658167e-2, "(px py|px py)"),
        (1, 1, 2, 2, 1.01455340030, "(px px|py py)"),
        (3, 3, 3, 3, 1.13687533194, "(pz pz|pz pz)"),
    ];
    for (fa, fb, fc, fd, golden, name) in cases {
        assert_golden(vk[idx(fa, fb, fc, fd)], vg[idx(fa, fb, fc, fd)], golden, name);
    }

    // (L1 L2 | H1s H1s): mixed SP bra over an s-only ket.
    let vk = quartet(&mut spec, &sh[1], &sh[2], &sh[3], &sh[3]);
    let vg = quartet(&mut generic, &sh[1], &sh[2], &sh[3], &sh[3]);
    let jdx = |fa: usize, fb: usize| fa * 4 + fb;
    assert_golden(vk[jdx(0, 0)], vg[jdx(0, 0)], 4.08218033706e-1, "(L1s L2s|hh)");
    assert_golden(vk[jdx(1, 1)], vg[jdx(1, 1)], 2.77378905660e-1, "(L1px L2px|hh)");
    assert_golden(vk[jdx(3, 3)], vg[jdx(3, 3)], 2.64415885594e-1, "(L1pz L2pz|hh)");
    // The water plane makes the lone out-of-plane p component odd:
    // its overlap-like couplings to s vanish identically.
    assert_symmetry_zero(vk[jdx(2, 0)], vg[jdx(2, 0)], "(L1py L2s|hh)");

    // (L2 H | L2 H'): p functions split across bra and ket.
    let vk = quartet(&mut spec, &sh[2], &sh[3], &sh[2], &sh[4]);
    let vg = quartet(&mut generic, &sh[2], &sh[3], &sh[2], &sh[4]);
    let kdx = |fa: usize, fc: usize| fa * 4 + fc;
    assert_golden(vk[kdx(0, 0)], vg[kdx(0, 0)], 1.73568411240e-1, "(L2s h|L2s h')");
    assert_golden(vk[kdx(1, 1)], vg[kdx(1, 1)], 1.41863966344e-1, "(L2px h|L2px h')");
    assert_symmetry_zero(vk[kdx(3, 2)], vg[kdx(3, 2)], "(L2pz h|L2py h')");

    assert!(spec.spec_quartets_computed() > 0, "SP quartets must dispatch to kernels");
    assert_eq!(generic.spec_quartets_computed(), 0);
}
