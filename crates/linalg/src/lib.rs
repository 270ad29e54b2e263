//! Dense linear algebra substrate for the phi-scf workspace.
//!
//! The Hartree-Fock SCF loop needs a small, self-contained set of dense
//! operations on real symmetric matrices: matrix products, a symmetric
//! eigensolver (for Fock diagonalization and S^(-1/2)), and a linear solver
//! (for DIIS). The paper's host code (GAMESS) links MKL for these but notes
//! that the BLAS choice "does not affect the performance of the SCF code"; we
//! implement everything from scratch so the workspace has no native
//! dependencies.
//!
//! Layout convention: all matrices are dense row-major [`Mat`]. Eigenvectors
//! are returned as *columns* of the vector matrix, matching the usual
//! `F C = S C eps` convention of quantum chemistry codes.

pub mod eigen;
pub mod matrix;
pub mod power;
pub mod solve;

pub use eigen::{eigh, jacobi_eigh, Eigh};
pub use matrix::Mat;
pub use power::{sym_inv_sqrt, sym_pow};
pub use solve::solve;
