//! # hmc-bench
//!
//! The evaluation harness: shared setup code regenerating every table and
//! figure of the HMC-Sim paper (Table I simulated-runtime comparison,
//! Figure 5 per-cycle trace series, the Figure 1 topology walks and the
//! Figure 3 stage schedule), plus parameter-sweep ablations. Binaries live
//! in `src/bin/`, criterion micro/macro benches in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;
pub mod harness;
pub mod table1;

pub use emit::{compare, measure, BenchRecord, BenchSummary, WorkloadShape, SHAPES};
pub use harness::{paper_setup, scaled_requests, SetupOptions};
pub use table1::{run_table1, table1_speedups, Table1Row};
