//! # hmc-conform
//!
//! Model-based conformance checking for the HMC-Sim engine.
//!
//! The crate pits the cycle-accurate device model against a *golden
//! functional oracle* — a few hundred lines of obviously-correct Rust
//! that knows what the memory semantics of §II's command set must
//! produce, but nothing about queues, crossbars, or clock domains. A
//! deterministic fuzzer generates seeded command streams, the harness
//! drives the same stream through the engine stepped, the engine
//! batched (jumping what the fast-forward horizon proves dead), and the
//! oracle, and any divergence — wrong read data, wrong response class,
//! lost or duplicated tags, the two engine runs disagreeing with each
//! other, leaked link tokens,
//! protocol-invariant violations — fails the stream. Failing
//! streams are [shrunk](shrink) to a minimal reproduction and written
//! as a replay trace loadable by `hmc_workloads::Replay`.
//!
//! Everything is deterministic: streams come from a seeded LCG, no
//! wall-clock or OS entropy is consulted anywhere, and a `(seed,
//! preset, map, stream length)` tuple names a stream forever.
//!
//! ## The ownership discipline
//!
//! The engine guarantees completion order only per `(link, vault,
//! bank)` stream (paper §III.C); requests on different links race. To
//! keep the oracle *exact* rather than merely plausible, the fuzzer
//! partitions memory blocks across links — block `b` is only ever
//! accessed through link `b % num_links` ([`harness::owner_link`]).
//! Every pair of operations on the same block then shares a stream,
//! so program order equals memory order and the oracle can apply
//! writes at issue time and know precisely what every read returns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod harness;
pub mod legs;
pub mod oracle;
pub mod shrink;

pub use fuzz::{
    campaign, crossing_pairs, default_hammer_faults, default_link_faults, gen_stream,
    hammer_burst, hammer_demo, CampaignConfig, CampaignReport, HammerDemoReport, Lcg, MapKind,
};
pub use harness::{
    owner_link, run_case, run_case_cross_interconnect, run_case_cross_timing, run_case_lenient,
    CaseOutcome, CorruptSpec, CrossInterconnectOutcome, CrossTimingOutcome, Failure, FuzzCase,
    MismatchTally,
};
pub use legs::{Leg, CI_LEGS};
pub use oracle::Oracle;
pub use shrink::{shrink_case, write_repro, ShrinkReport};
