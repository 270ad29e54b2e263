//! Bench: one two-electron Fock build with each algorithm through
//! `FockAlgorithm::builder()`. (On a single host core the parallel
//! variants mostly measure orchestration overhead over the serial
//! baseline; the cluster behaviour comes from phi-knlsim, and whole-SCF
//! time-to-solution from `benchmark/`.)
//!
//! Also asserts (hard, not timed) that every DLB-driven builder reports a
//! non-zero `dlb_calls` in its stats — the uniform counter contract.
//!
//! Full mode benches the C6 ring in 6-31G(d) (the calibration system);
//! `PHI_BENCH_SMOKE=1` switches to water/6-31G so CI finishes in seconds.

use hf::{DensitySet, FockAlgorithm, FockContext};
use phi_bench::microbench::{black_box, smoke_mode, Runner};
use phi_chem::basis::{BasisName, BasisSet};
use phi_chem::geom::small;
use phi_dmpi::DdiMode;
use phi_integrals::{Screening, ShellPairs};
use phi_linalg::Mat;

fn main() {
    let (label, mol, basis_name) = if smoke_mode() {
        ("water, 6-31G", small::water(), BasisName::B631g)
    } else {
        ("C6 ring, 6-31G(d)", small::c_ring(6, 1.39), BasisName::B631gd)
    };
    let basis = BasisSet::build(&mol, basis_name);
    let pairs = ShellPairs::build(&basis);
    let screening = Screening::from_pairs(&basis, &pairs);
    let tau = 1e-10;
    let ctx = FockContext::new(&basis, &pairs, &screening, tau);
    let n = basis.n_basis();
    let d = Mat::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.05 });
    let dens = DensitySet::Restricted(&d);

    // The uniform stats contract: every DLB-driven builder must report the
    // world-global DLB counter reads (serial reports zero).
    for alg in [
        FockAlgorithm::Serial,
        FockAlgorithm::MpiOnly { n_ranks: 2 },
        FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 2 },
        FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 2 },
        FockAlgorithm::Distributed { n_ranks: 2 },
        FockAlgorithm::Sharded { n_ranks: 2, mode: DdiMode::Mpi3OneSided },
    ] {
        let gb = alg.builder().build(&ctx, &dens);
        match alg {
            FockAlgorithm::Serial => {
                assert_eq!(gb.stats.dlb_calls, 0, "serial build must not touch the DLB counter")
            }
            _ => assert!(
                gb.stats.dlb_calls > 0,
                "{} reported zero dlb_calls — the uniform counter is broken",
                alg.label()
            ),
        }
    }

    let mut r = Runner::new("fock_build");
    println!("# system: {label}");

    r.bench("serial", || {
        black_box(FockAlgorithm::Serial.builder().build(&ctx, &dens).g.trace());
    });
    r.bench("mpi_only_2ranks", || {
        black_box(FockAlgorithm::MpiOnly { n_ranks: 2 }.builder().build(&ctx, &dens).g.trace());
    });
    r.bench("private_fock_1x2", || {
        black_box(
            FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 2 }
                .builder()
                .build(&ctx, &dens)
                .g
                .trace(),
        );
    });
    r.bench("shared_fock_1x2", || {
        black_box(
            FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 2 }
                .builder()
                .build(&ctx, &dens)
                .g
                .trace(),
        );
    });
}
