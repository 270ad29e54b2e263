//! The fixed scenario matrix: two systems, seven workloads, one seeded
//! geometry generator. The program under test only ever sees the
//! generated [`Molecule`].

use hf::FockAlgorithm;
use phi_chem::geom::small;
use phi_chem::{Atom, BasisName, Molecule};
use phi_dmpi::DdiMode;

/// A molecule/basis pair with its pinned RHF energies.
pub struct System {
    pub basis: BasisName,
    pub molecule: fn() -> Molecule,
    /// Converged serial RHF energies (Eh) at `--seed 0` and `--seed 1`,
    /// checked to 1e-8 on every workload of the system.
    pub pinned: [f64; 2],
}

/// Three waters on a ring of radius 3.2 bohr (O-O 2.93 A), molecule `k`
/// turned about z by `2 pi k / 3 + 0.7 k` rad and the odd one lifted
/// 0.3 bohr, so the cluster has no symmetry element: 24 shells (s, SP, d
/// on O; s on H), 57 functions, every one of the 25 ERI classes populated.
/// RHF converges in 15 iterations at every seed tried (0..25 and four
/// large ones), which is what lets time-to-solution be a steady metric;
/// the repo's historical C6 ring needs 31 to 37 iterations once the
/// jitter breaks its D6h symmetry (see README).
fn water_trimer() -> Molecule {
    let mut atoms = Vec::with_capacity(9);
    for k in 0..3 {
        let th = 2.0 * std::f64::consts::PI * k as f64 / 3.0;
        let w = small::water().rotated_z(th + 0.7 * k as f64).translated([
            3.2 * th.cos(),
            3.2 * th.sin(),
            0.3 * (k % 2) as f64,
        ]);
        atoms.extend_from_slice(w.atoms());
    }
    Molecule::neutral(atoms)
}

pub static W3: System = System {
    basis: BasisName::B631gd,
    molecule: water_trimer,
    pinned: [-228.01570793, -228.01602849],
};

/// 28 H atoms, 1.8 bohr apart: 56 s shells, one ERI class, 84 % of the
/// 1.27 M canonical quartets screened. 28 rather than the issue's 50
/// because one SCF must fit several times into a 10 s run, and because at
/// 28 the iteration count is 17 at almost every seed (16 to 18 seen) while
/// at 30 it flips between 18 and 19.
fn h_chain_28() -> Molecule {
    small::h_chain(28, 1.8)
}

pub static HCHAIN28: System =
    System { basis: BasisName::B631g, molecule: h_chain_28, pinned: [-14.99185444, -14.98579349] };

/// `--smoke` only: the repo's standard validation molecule.
pub static WATER: System = System {
    basis: BasisName::B631gd,
    molecule: small::water,
    pinned: [-76.01052998, -76.01069667],
};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub system: &'static System,
    pub algorithm: FockAlgorithm,
}

impl Workload {
    /// `(ranks, threads per rank)` the algorithm spawns.
    pub fn topology(&self) -> (usize, usize) {
        match self.algorithm {
            FockAlgorithm::Serial => (1, 1),
            FockAlgorithm::MpiOnly { n_ranks }
            | FockAlgorithm::Distributed { n_ranks }
            | FockAlgorithm::Sharded { n_ranks, .. } => (n_ranks, 1),
            FockAlgorithm::PrivateFock { n_ranks, n_threads }
            | FockAlgorithm::SharedFock { n_ranks, n_threads } => (n_ranks, n_threads),
        }
    }

    pub fn workers(&self) -> usize {
        let (r, t) = self.topology();
        r * t
    }

    pub fn is_serial(&self) -> bool {
        self.algorithm == FockAlgorithm::Serial
    }
}

pub static WORKLOADS: [Workload; 7] = [
    Workload {
        name: "w3-631gd-serial",
        why: "plain single-thread baseline; heavy-class ERI kernels and digestion do the work, screening none",
        system: &W3,
        algorithm: FockAlgorithm::Serial,
    },
    Workload {
        name: "hchain28-631g-serial",
        why: "same integrals layer used the opposite way: one ssss class, Boys F0, per-quartet overhead and screening dominate",
        system: &HCHAIN28,
        algorithm: FockAlgorithm::Serial,
    },
    Workload {
        name: "w3-631gd-mpi2",
        why: "Algorithm 1: dmpi world spawn, lease DLB, gsumf; near-ideal today, the should-not-move control for omp changes",
        system: &W3,
        algorithm: FockAlgorithm::MpiOnly { n_ranks: 2 },
    },
    Workload {
        name: "w3-631gd-private1x2",
        why: "Algorithm 2: omp collapse(2) dynamic loop and per-thread Fock reduction",
        system: &W3,
        algorithm: FockAlgorithm::PrivateFock { n_ranks: 1, n_threads: 2 },
    },
    Workload {
        name: "w3-631gd-shared1x2",
        why: "Algorithm 3, the paper's headline: dynamic kl schedule and FI/FJ flushes around ERI-heavy tasks",
        system: &W3,
        algorithm: FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 2 },
    },
    Workload {
        name: "hchain28-631g-shared1x2",
        why: "Algorithm 3 with ~1 us tasks: schedule, flush and barrier cost is the run, not a minority of it",
        system: &HCHAIN28,
        algorithm: FockAlgorithm::SharedFock { n_ranks: 1, n_threads: 2 },
    },
    Workload {
        name: "w3-631gd-sharded2",
        why: "ddi windows, ShardDensity cache, RowShardFock flushes: the accumulator as distributed get/accumulate traffic",
        system: &W3,
        algorithm: FockAlgorithm::Sharded { n_ranks: 2, mode: DdiMode::Mpi3OneSided },
    },
];

pub static SMOKE: [Workload; 2] = [
    Workload {
        name: "water-631gd-serial",
        why: "smoke: keeps the harness compiling and its checks honest",
        system: &WATER,
        algorithm: FockAlgorithm::Serial,
    },
    Workload {
        name: "water-631gd-mpi2",
        why: "smoke: one parallel builder through the parity checks",
        system: &WATER,
        algorithm: FockAlgorithm::MpiOnly { n_ranks: 2 },
    },
];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in [0, 1) from the splitmix64 stream.
fn uniform(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// The system's geometry with every coordinate moved by a uniform
/// +-0.01 A drawn from the seed's splitmix64 stream. Symmetry-exact zero
/// integrals, which digestion skips, would otherwise flatter the numbers.
/// Seed 0 is the unjittered geometry.
pub fn geometry(system: &System, seed: u64) -> Molecule {
    let mol = (system.molecule)();
    if seed == 0 {
        return mol;
    }
    let amp = 0.01 * phi_chem::ANGSTROM;
    let mut state = seed;
    let atoms = mol
        .atoms()
        .iter()
        .map(|a| Atom {
            element: a.element,
            pos: a.pos.map(|x| x + amp * (2.0 * uniform(&mut state) - 1.0)),
        })
        .collect();
    Molecule::new(atoms, mol.charge())
}
