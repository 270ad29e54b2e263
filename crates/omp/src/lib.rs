//! OpenMP-like threading runtime.
//!
//! The paper's hybrid algorithms are written against a handful of OpenMP
//! constructs: `parallel` regions, `master` + `barrier`, worksharing `do`
//! loops with `schedule(dynamic)`, `nowait` and `collapse(2)`, and
//! reductions over thread-private buffers. This crate provides safe Rust
//! equivalents with the same semantics, so the Fock builders in the `hf`
//! crate map line-for-line onto Algorithms 2 and 3:
//!
//! * [`Team::parallel`] — a parallel region over a fixed-size thread team;
//! * [`ThreadCtx`] — per-thread view: `thread_num`, `barrier`, `master`,
//!   worksharing loops;
//! * [`PaddedColumns`] — the paper's Figure 1 data structure: one padded
//!   column per thread for false-sharing-free accumulation, flushed by a
//!   chunked row-wise parallel reduction;
//! * [`SharedAccumulator`] — an atomically updatable `f64` buffer standing
//!   in for the shared Fock matrix (the safe-Rust substitution for the
//!   paper's unsynchronized distinct-element writes).
//!
//! Worksharing loops follow the OpenMP contract: every thread of the team
//! must reach every construct in the same order, and each loop ends with an
//! implicit team barrier unless it is the `nowait` form. The barrier spins
//! briefly and then parks, so a team may have more threads than the host
//! has cores.

mod barrier;
pub mod reduce;
pub mod schedule;
pub mod shared;
pub mod sync;
pub mod team;

pub use reduce::PaddedColumns;
pub use schedule::Schedule;
pub use shared::SharedAccumulator;
pub use team::{Team, ThreadCtx};
