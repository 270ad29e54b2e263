//! Fock-level golden anchor: the serial two-electron matrix `G` at a
//! deterministic density, pinned to values generated at the commit before
//! the Fock builders were collapsed onto one task-loop driver, and every
//! parallel algorithm held to the serial result through
//! `FockAlgorithm::builder()`.
//!
//! The parity suites compare builders with each other, so they cannot see
//! a change that moves serial and the parallel builders together; the
//! pinned numbers here can. The counts each build does (quartets, tasks,
//! claims, flushes) are pinned in `tests/work_ledger.rs`.

use phi_scf::chem::basis::{BasisName, BasisSet};
use phi_scf::chem::geom::small;
use phi_scf::chem::{Atom, Element, Molecule};
use phi_scf::dmpi::DdiMode;
use phi_scf::hf::{DensitySet, FockAlgorithm, FockData};
use phi_scf::linalg::Mat;

const TAU: f64 = 1e-10;
const REL_TOL: f64 = 1e-12;

/// The deterministic test density: symmetric, dense, not too structured.
fn density(n: usize, seed: usize) -> Mat {
    let mut d = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = 0.3 + 0.1 * ((i * 7 + j * 3 + seed) % 5) as f64 - 0.05 * (i as f64 - j as f64);
            d[(i, j)] = v;
            d[(j, i)] = v;
        }
    }
    d
}

/// Pinned numbers of one matrix.
struct Golden {
    trace: f64,
    frobenius: f64,
    elements: &'static [(usize, usize, f64)],
}

/// Pinned serial results of one system: restricted `G(D_0)`, and the two
/// channels of the unrestricted build at `(D_0, D_2)`.
struct System {
    label: &'static str,
    molecule: fn() -> Molecule,
    basis: BasisName,
    rhf: Golden,
    uhf_alpha: Golden,
    uhf_beta: Golden,
}

const SYSTEMS: [System; 2] = [
    System {
        label: "water/6-31G(d)",
        molecule: small::water,
        basis: BasisName::B631gd,
        rhf: Golden {
            trace: 1.2598557805665824e2,
            frobenius: 3.872236062504323e1,
            elements: &[
                (0, 0, 1.0240254657762499e1),
                (3, 1, -7.552013917791048e-2),
                (5, 5, 5.295684264679478e0),
                (7, 2, -1.9495708871690057e-1),
                (9, 4, -2.1493141882553646e-1),
                (11, 11, 7.2848402838976485e0),
                (12, 6, -3.511287389571755e-2),
                (14, 0, 2.1424044496645656e-1),
                (15, 13, -2.787022799004169e-1),
                (17, 8, 1.8910390942828021e0),
                (18, 3, -2.5710406155023294e-2),
                (18, 18, 4.153261903628707e0),
            ],
        },
        uhf_alpha: Golden {
            trace: 2.717851109466542e2,
            frobenius: 8.407465743012371e1,
            elements: &[
                (0, 0, 2.283665486939561e1),
                (3, 1, -4.513512687492678e-1),
                (5, 5, 1.1516073925126674e1),
                (7, 2, -3.842197745305619e-1),
                (9, 4, -3.130499150228679e-1),
                (11, 11, 1.5489444210412664e1),
                (12, 6, -1.786571203702807e-2),
                (14, 0, 4.809064959215017e-1),
                (15, 13, -5.664591144692316e-1),
                (17, 8, 4.160289593774892e0),
                (18, 3, -1.4960014638929445e-1),
                (18, 18, 9.044864511358494e0),
            ],
        },
        uhf_beta: Golden {
            trace: 2.6914293138348364e2,
            frobenius: 8.323838589004559e1,
            elements: &[
                (0, 0, 2.138183546024999e1),
                (3, 1, 2.141608910977546e-1),
                (5, 5, 1.1628935335559367e1),
                (7, 2, -6.074433008968855e-1),
                (9, 4, -7.852781471196973e-1),
                (11, 11, 1.5465814784665712e1),
                (12, 6, -3.678982042195868e-1),
                (14, 0, 5.523522490064605e-1),
                (15, 13, -4.231376493642637e-1),
                (17, 8, 3.894639294916572e0),
                (18, 3, 1.3092151347877756e-1),
                (18, 18, 9.023182982063089e0),
            ],
        },
    },
    System {
        label: "h_chain(8, 5.0)/STO-3G",
        molecule: || small::h_chain(8, 5.0),
        basis: BasisName::Sto3g,
        rhf: Golden {
            trace: 2.7829066124955215e0,
            frobenius: 1.0058807550427116e0,
            elements: &[
                (0, 0, 2.91303079655365e-1),
                (1, 0, -3.672519267368486e-2),
                (2, 1, -3.693368780626505e-2),
                (3, 3, 3.8063812400384367e-1),
                (4, 0, -1.062273251195944e-2),
                (4, 2, -3.316915178949968e-2),
                (5, 5, 3.714249520031919e-1),
                (6, 1, -1.9604314657965284e-3),
                (6, 4, -3.316895528447472e-2),
                (7, 0, -5.232025858178894e-3),
                (7, 6, -3.672519267368484e-2),
                (7, 7, 2.9130307965536484e-1),
            ],
        },
        uhf_alpha: Golden {
            trace: 8.037543648258742e0,
            frobenius: 2.8742656226821937e0,
            elements: &[
                (0, 0, 8.529070666696389e-1),
                (1, 0, -6.40944105213504e-2),
                (2, 1, -6.362719606437228e-2),
                (3, 3, 1.0919815194049913e0),
                (4, 0, -2.124546502391888e-2),
                (4, 2, -6.632597195812655e-2),
                (5, 5, 1.0676851077215639e0),
                (6, 1, -3.920862931593057e-3),
                (6, 4, -6.632583278947632e-2),
                (7, 0, -1.0464051716357788e-2),
                (7, 6, -6.40944105213504e-2),
                (7, 7, 8.529070666696383e-1),
            ],
        },
        uhf_beta: Golden {
            trace: 6.714531135861913e0,
            frobenius: 2.4272013545081794e0,
            elements: &[
                (0, 0, 6.919349293072958e-1),
                (1, 0, -1.0868463429228817e-1),
                (2, 1, -1.0678984761421957e-1),
                (3, 3, 9.25138443440885e-1),
                (4, 0, -7.387021540980219e-3),
                (4, 2, -3.950727806424538e-2),
                (5, 5, 9.008420318167588e-1),
                (6, 1, -1.1489000697405974e-2),
                (6, 4, -3.9507958710101224e-2),
                (7, 0, -2.364056760975181e-3),
                (7, 6, -1.0868463429228808e-1),
                (7, 7, 6.919349293072956e-1),
            ],
        },
    },
];

fn assert_rel(what: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= REL_TOL * want.abs(),
        "{what}: got {got:e}, pinned {want:e} (relative error {:e})",
        ((got - want) / want).abs()
    );
}

fn assert_golden(what: &str, g: &Mat, golden: &Golden) {
    assert_rel(&format!("{what} trace"), g.trace(), golden.trace);
    assert_rel(&format!("{what} Frobenius norm"), g.frobenius_norm(), golden.frobenius);
    for &(i, j, want) in golden.elements {
        assert_rel(&format!("{what} G[{i},{j}]"), g[(i, j)], want);
        assert_eq!(g[(i, j)], g[(j, i)], "{what}: G must be exactly symmetric at ({i},{j})");
    }
}

#[test]
fn serial_g_matches_the_pinned_values() {
    for sys in &SYSTEMS {
        let basis = BasisSet::build(&(sys.molecule)(), sys.basis);
        let data = FockData::build(&basis);
        let ctx = data.context(&basis, TAU);
        let n = basis.n_basis();
        let (d_a, d_b) = (density(n, 0), density(n, 2));
        let serial = FockAlgorithm::Serial.builder();

        let rhf = serial.build(&ctx, &DensitySet::Restricted(&d_a));
        assert!(rhf.g_beta.is_none());
        assert_golden(&format!("{} RHF", sys.label), &rhf.g, &sys.rhf);

        let uhf = serial.build(&ctx, &DensitySet::Unrestricted { alpha: &d_a, beta: &d_b });
        assert_golden(&format!("{} UHF alpha", sys.label), &uhf.g, &sys.uhf_alpha);
        let beta = uhf.g_beta.as_ref().expect("unrestricted build has a beta channel");
        assert_golden(&format!("{} UHF beta", sys.label), beta, &sys.uhf_beta);
    }
}

#[test]
fn every_algorithm_matches_serial() {
    let algorithms = [
        FockAlgorithm::MpiOnly { n_ranks: 3 },
        FockAlgorithm::PrivateFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 2, n_threads: 2 },
        FockAlgorithm::Distributed { n_ranks: 3 },
        FockAlgorithm::Sharded { n_ranks: 3, mode: DdiMode::Mpi3OneSided },
    ];
    for sys in &SYSTEMS {
        let basis = BasisSet::build(&(sys.molecule)(), sys.basis);
        let data = FockData::build(&basis);
        let ctx = data.context(&basis, TAU);
        let n = basis.n_basis();
        let (d_a, d_b) = (density(n, 0), density(n, 2));
        for dens in
            [DensitySet::Restricted(&d_a), DensitySet::Unrestricted { alpha: &d_a, beta: &d_b }]
        {
            let want = FockAlgorithm::Serial.builder().build(&ctx, &dens);
            for alg in algorithms {
                let got = alg.builder().build(&ctx, &dens);
                assert_eq!(got.stats.quartets_computed, want.stats.quartets_computed);
                let channels = [(&got.g, &want.g)]
                    .into_iter()
                    .chain(got.g_beta.as_ref().zip(want.g_beta.as_ref()));
                for (ch, (g, w)) in channels.enumerate() {
                    // Same contributions, different summation order.
                    let scale = w.as_slice().iter().fold(1.0f64, |m, v| m.max(v.abs()));
                    assert!(
                        g.max_abs_diff(w) <= REL_TOL * scale,
                        "{} {alg:?} channel {ch}: differs from serial by {:e}",
                        sys.label,
                        g.max_abs_diff(w)
                    );
                }
                assert_eq!(got.g_beta.is_some(), want.g_beta.is_some());
            }
        }
    }
}

#[test]
fn shared_fock_uhf_matches_serial_where_kl_meets_ij() {
    // OH/6-31G(d): six shells, one of them d, so most canonical quartets
    // have k or l equal to i or j and their (k, l) Coulomb block lands in
    // FI or FJ, while the rest go through the per-quartet (k, l) scratch
    // up to 6 x 6 wide; both channels of both routes are held to serial.
    let oh = Molecule::neutral(vec![
        Atom { element: Element::O, pos: [0.0, 0.0, 0.0] },
        Atom { element: Element::H, pos: [0.3, -0.2, 1.8] },
    ]);
    let basis = BasisSet::build(&oh, BasisName::B631gd);
    let data = FockData::build(&basis);
    let ctx = data.context(&basis, TAU);
    let n = basis.n_basis();
    let (d_a, d_b) = (density(n, 0), density(n, 2));
    let dens = DensitySet::Unrestricted { alpha: &d_a, beta: &d_b };
    let want = FockAlgorithm::Serial.builder().build(&ctx, &dens);
    let want_beta = want.g_beta.as_ref().expect("unrestricted build has a beta channel");
    for (n_ranks, n_threads) in [(1, 2), (1, 3), (2, 2)] {
        let got = FockAlgorithm::SharedFock { n_ranks, n_threads }.builder().build(&ctx, &dens);
        let got_beta = got.g_beta.as_ref().expect("unrestricted build has a beta channel");
        for (ch, (g, w)) in [(&got.g, &want.g), (got_beta, want_beta)].into_iter().enumerate() {
            let scale = w.as_slice().iter().fold(1.0f64, |m, v| m.max(v.abs()));
            assert!(
                g.max_abs_diff(w) <= REL_TOL * scale,
                "{n_ranks}x{n_threads} channel {ch}: differs from serial by {:e}",
                g.max_abs_diff(w)
            );
        }
    }
}
