//! MPI/DDI substrate: an in-process SPMD rank runtime.
//!
//! GAMESS parallelizes through the Distributed Data Interface (DDI), a thin
//! layer over MPI providing a global dynamic load-balancing counter
//! (`ddi_dlbnext`), global sums (`ddi_gsumf`) and one-sided distributed
//! arrays. There is no mature Rust MPI stack (the reproduction band calls
//! this out explicitly), so this crate *is* that substrate: ranks are OS
//! threads with disjoint owned memory, point-to-point messages travel over
//! channels, and the global sum is a binomial tree over those channels.
//!
//! What makes this a faithful stand-in rather than a toy:
//!
//! * **Memory is modeled, not counted.** Ranks are threads of one
//!   process, so what every rank of a real MPI job would hold (the
//!   density, the shell-pair dataset) exists once here. This crate counts
//!   no bytes; the per-rank footprint of the paper's Table 2 is stated
//!   once, by `hf::MemoryModel`.
//! * **Identical API semantics.** [`Rank::lease_next`] hands every task
//!   of a build to exactly one live rank, like a `ddi_dlbnext` loop;
//!   [`Rank::try_gsumf`] is an all-reduce sum over `f64` slices like
//!   `ddi_gsumf`.
//! * **DDI windows.** [`ddi::DistributedArray`] is DDI's distributed array
//!   over MPI-3 one-sided windows, the transport the paper ran (§6.2): no
//!   data-server processes.

//! * **Failure is a first-class input.** [`fault::FaultPlan`] schedules
//!   deterministic rank kills and stragglers, the failures that are
//!   routine at the paper's 3,000-node scale; task leases and the
//!   failure-aware barrier/reduction let survivors reclaim a dead rank's
//!   tasks and finish the computation. Messages are delivered as MPI
//!   delivers them, reliably and in order, so nothing is retransmitted. A
//!   run without a plan pays for none of it.

pub mod ddi;
pub mod fault;
pub mod sync;
pub mod world;

pub use ddi::{DdiMode, DistributedArray};
pub use fault::{CommError, FaultPlan, LeaseMode, RetryPolicy};
pub use world::{run_world, run_world_with_config, Rank, WorldConfig, WorldResult};
