//! # hmc-trace
//!
//! The tracing infrastructure of the HMC-Sim stack (paper §IV.E): trace
//! events stamped with cycle + physical locality, verbosity filtering,
//! pluggable sinks (text, in-memory, counting, fan-out, shared), per-kind
//! statistics, and the online per-cycle series collector that regenerates
//! the paper's Figure 5 without multi-gigabyte trace files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod event;
pub mod power;
pub mod series;
pub mod sink;
pub mod stage;
pub mod stats;

pub use analysis::{
    analyze_bandwidth, percentile_sorted, transaction_efficiency, BandwidthReport,
    LatencyPercentiles, TrafficCounts,
};
pub use event::{EventKind, TraceEvent, TraceRecord};
pub use stage::EventStage;
pub use power::{estimate_energy, Activity, EnergyModel, EnergyReport};
pub use series::{SeriesCollector, SeriesRow};
pub use sink::{
    CountingSink, MultiSink, NullSink, SharedSink, TextSink, TraceSink, Tracer, VecSink,
    Verbosity,
};
pub use stats::{EventCounters, VaultUtilization};
