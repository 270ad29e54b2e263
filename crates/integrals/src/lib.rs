//! Gaussian integral engine (McMurchie–Davidson scheme).
//!
//! GAMESS ships a mature Fortran ERI stack (rotated-axis + Rys quadrature);
//! no equivalent exists in the Rust ecosystem, so this crate implements the
//! full set of integrals the Hartree-Fock method needs from scratch:
//!
//! * [`boys`] — the Boys function `F_m(T)`, the transcendental core of every
//!   Coulomb-type integral;
//! * [`hermite`] — Hermite Gaussian expansion coefficients `E_t^{ij}`;
//! * [`rints`] — Hermite Coulomb integrals `R^0_{tuv}`;
//! * [`one_electron`] — overlap, kinetic and nuclear-attraction matrices;
//! * [`eri`] — contracted two-electron repulsion integrals over shell
//!   quartets, the quantity Algorithms 1–3 of the paper parallelize over;
//! * [`kernels`] — class-specialized, batched ERI kernels (monomorphized
//!   per combined bra/ket angular momentum, structure-of-arrays primitive
//!   batching), differentially tested against the generic recursion;
//! * [`screening`] — Cauchy–Schwarz bounds `Q_ij = sqrt((ij|ij))`, the
//!   screening the paper applies at both the `ij`-task and `ijkl`-quartet
//!   level, plus survivor-count statistics that drive the cluster
//!   simulator;
//! * [`shell_pairs`] — the persistent shell-pair dataset (Hermite `E`
//!   tables, product centers, prefactors, folded normalization, Schwarz
//!   bounds), built once per geometry/basis and shared read-only by every
//!   Fock-build rank and thread.
//!
//! Angular momentum is general in the recurrences and exercised through
//! cartesian *d* functions (everything 6-31G(d) needs); combined SP shells
//! are handled by iterating their angular blocks.

pub mod boys;
pub mod cart;
pub mod eri;
pub mod hermite;
pub mod kernels;
pub mod one_electron;
pub mod rints;
pub mod screening;
pub mod shell_pairs;

pub use eri::{EriEngine, GenericKernel};
pub use kernels::{
    class_index, ClassKernels, EriKernel, KernelRun, CLASS_LABELS, CLASS_TRACE_NAMES, GENERIC_SLOT,
    N_CLASS_SLOTS, N_SPEC, SPEC_LMAX,
};
pub use one_electron::{kinetic_matrix, nuclear_attraction_matrix, overlap_matrix};
pub use screening::Screening;
pub use shell_pairs::{ShellPair, ShellPairs};
