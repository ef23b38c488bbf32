//! # hmc-bench
//!
//! The evaluation harness: shared setup code regenerating every table and
//! figure of the HMC-Sim paper (Table I simulated-runtime comparison,
//! Figure 5 per-cycle trace series, the Figure 1 topology walks and the
//! Figure 3 stage schedule), plus parameter-sweep ablations. Binaries live
//! in `src/bin/`; `tests/ablations.rs` pins the simulated cycle counts of
//! the spec-latitude ablations. Nothing here times anything: that is
//! `benchmark/`'s job alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod table1;

pub use harness::{paper_setup, scaled_requests, SetupOptions};
pub use table1::{run_table1, table1_speedups, Table1Row};
