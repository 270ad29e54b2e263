//! Hartree-Fock SCF with the paper's three parallel Fock-build algorithms.
//!
//! This crate is the reproduction of the paper's contribution: restricted
//! Hartree-Fock over the `phi-integrals` engine, with two-electron Fock
//! matrix construction parallelized three ways on the `phi-dmpi` +
//! `phi-omp` substrates:
//!
//! * [`FockAlgorithm::MpiOnly`] — Algorithm 1, the stock GAMESS scheme:
//!   every rank replicates all matrices, DLB over the significant `(i,j)`
//!   shell pairs, `gsumf` reduction;
//! * [`FockAlgorithm::PrivateFock`] — Algorithm 2 ("shared density, private
//!   Fock"): hybrid ranks x threads, density shared per rank, Fock
//!   replicated per thread, MPI DLB over `i`, collapsed `(j,k)` OpenMP loop;
//! * [`FockAlgorithm::SharedFock`] — Algorithm 3 ("shared density, shared
//!   Fock"): density and Fock both shared per rank, MPI DLB over combined
//!   `ij` pairs that pass the task-level Schwarz prescreen (the
//!   significant-pair list), OpenMP over combined `kl`, thread-private
//!   `FI`/`FJ` column buffers with lazy `FI` flushing.
//!
//! [`FockAlgorithm::Serial`] defines ground truth (up to floating-point
//! summation order) for all three; [`FockAlgorithm::Distributed`] adds the
//! related-work distributed-data baseline and [`FockAlgorithm::Sharded`]
//! the build in which no rank holds a full matrix.
//!
//! The six are policy rows — task space, team schedule, accumulator, lease
//! mode, final reduce — over one task-loop driver and one digester
//! ([`fock::digest`], generic over [`fock::DensityRead`] and
//! [`fock::FockSink`]). Drivers assemble a [`FockContext`] (basis +
//! persistent shell pairs + screening) once, pick a [`FockBuilder`] via
//! [`FockAlgorithm::builder`] — the only entry to a build — and hand it a
//! [`DensitySet`]. Every builder returns the same [`GBuild`] (`G` plus
//! uniformly collected [`FockBuildStats`]).
//!
//! The driver ([`scf`]) handles the rest of the method: core-Hamiltonian
//! guess, symmetric orthogonalization, (optional) DIIS acceleration,
//! convergence on the density RMS — and reports per-iteration Fock
//! timings and the modeled per-rank memory that reproduce the paper's
//! tables.

pub mod diis;
pub mod fock;
pub mod guess;
pub mod memory_model;
pub mod scf;
pub mod stats;

pub use fock::engine::{FockBuilder, FockContext, FockData};
pub use fock::{DensitySet, FockAlgorithm, GBuild};
pub use memory_model::MemoryModel;
pub use scf::{run_scf, ScfConfig, ScfResult, ScfStop};
pub use stats::FockBuildStats;
