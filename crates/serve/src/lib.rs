//! # hmc-serve
//!
//! A concurrent simulation service for the HMC-Sim stack. Clients connect
//! over Unix-domain sockets or TCP and speak a length-prefixed binary
//! protocol (`hmc_types::wire`): open a session backed by a private
//! simulated device, submit batches of memory operations, poll completed
//! responses, snapshot metrics, close. The thread that receives a frame
//! runs the session's next quantum and a bounded worker pool runs the
//! rest. A quantum is a budgeted run of `hmc_host::Driver`, the loop
//! `hmc_host::run_workload` runs to completion, so served responses and
//! cycle counts are bit-identical to `run_workload` output by
//! construction — the service adds multi-tenancy and a network boundary,
//! never timing drift.
//!
//! Admission control and backpressure are explicit protocol citizens:
//! a concurrent-session cap, bounded per-session inflight queues (typed
//! BUSY frames instead of unbounded buffering), bounded response buffers
//! that pause the pump until polled, idle-session reaping, and a graceful
//! drain on SIGTERM (stop accepting, quiesce every device, flush
//! responses, exit 0).
//!
//! The `hmc-serve` binary is the daemon; `loadgen` drives N concurrent
//! sessions with `hmc-workloads` traffic and reports throughput and
//! latency percentiles as JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod manager;
pub mod proto;
pub mod server;
pub mod session;

pub use client::{
    busy_reason_label, Client, PollResult, RetryPolicy, ServerInfo, SubmitReport, SubmitResult,
};
pub use hmc_host::SessionOp;
pub use manager::{ServerConfig, SessionManager};
pub use proto::{write_frame, FrameReader, ReadOutcome};
pub use server::{DrainOutcome, Server};
pub use session::{
    memop_to_wire, wire_to_memop, wire_to_session_op, workload_to_wire, PumpOutcome, SessionLimits,
    SessionState,
};
