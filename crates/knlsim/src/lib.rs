//! Xeon Phi (Knights Landing) node and cluster performance model.
//!
//! The paper's evaluation runs on hardware this reproduction does not have:
//! up to 3,000 KNL nodes of the Theta Cray XC40. Per the substitution plan
//! in DESIGN.md, this crate replaces the machine with a calibrated model
//! driven by *real measured quantities*:
//!
//! * the builders' own task list, `hf::fock::SignificantPairs` over the
//!   `phi-integrals::screening` `Q` table, with each task's quartet tests
//!   and its surviving quartets per cost class counted exactly
//!   ([`workload`]);
//! * per-quartet ERI+digestion costs measured by running the actual Rust
//!   engine on representative shell quartets ([`calibrate`]);
//! * the per-node memory footprint from the `hf` memory model, which
//!   decides rank-count feasibility and MCDRAM-vs-DDR bandwidth.
//!
//! On top sit the machine parameters ([`node`]): 64 cores x 4 SMT, MCDRAM
//! 16 GB @ 400 GB/s vs DDR4 192 GB @ 100 GB/s, cluster modes and memory
//! modes; a dragonfly-flavoured network model ([`network`]); and a
//! discrete-event simulation of the DLB task distribution ([`des`]) whose
//! load-balance behaviour — not a formula — produces the paper's scaling
//! curves. [`scenarios`] packages one entry point per paper figure/table.

pub mod calibrate;
pub mod cost;
pub mod des;
pub mod network;
pub mod node;
pub mod report;
pub mod scenarios;
pub mod workload;
