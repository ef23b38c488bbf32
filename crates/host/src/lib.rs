//! # hmc-host
//!
//! The host-processor side of an HMC-Sim experiment: 9-bit tag management
//! with out-of-order response correlation, round-robin and locality-aware
//! link selection, and the inject-until-stall run loop of the paper's
//! §VI.A random-access test harness. Runs report simulated cycles — the
//! Table I metric — plus latency distributions and stall counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod host;
pub mod tags;

pub use driver::{
    run_workload, run_workload_captured, run_workload_with_progress, Driver, RunConfig, RunReport,
    SessionOp, Stop,
};
pub use host::{Host, HostStats, LatencyStats, LinkSelection};
pub use tags::{Pending, TagPool, NUM_TAGS};
