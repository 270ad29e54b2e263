//! Shared support for the benches in `benches/`, each of which gates a
//! claim nothing else does. The experiments that regenerate the paper's
//! tables and figures are the `phi-bench` binary (`src/main.rs`; DESIGN.md
//! §4 has the experiment index).

pub mod microbench;
