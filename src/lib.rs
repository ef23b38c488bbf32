//! # hmc-sim
//!
//! A Rust reproduction of **HMC-Sim** — the simulation framework for
//! Hybrid Memory Cube devices introduced by Leidel & Chen (IPDPSW 2014)
//! as part of the Goblin-Core64 project.
//!
//! The workspace models the full HMC 1.0 device stack:
//!
//! * [`hmc_types`] — the packet protocol (FLITs, commands, header/tail
//!   words, CRC-32/Koopman), 34-bit addressing with configurable
//!   interleave maps, and the device configuration model;
//! * [`hmc_mem`] — sparse DRAM storage, banks with row-buffer and
//!   DRAM-die accounting, per-vault bank stacks;
//! * [`hmc_core`] — the device hierarchy (links → crossbars → quads →
//!   vaults → banks → DRAMs), fixed-depth queue slots, the six-stage
//!   sub-cycle clock, registers with MODE/JTAG access, topologies with
//!   chaining, routing, and link-error simulation;
//! * [`hmc_trace`] — cycle-stamped trace events, verbosity filtering,
//!   pluggable sinks, and the per-cycle series collector behind the
//!   paper's Figure 5;
//! * [`hmc_host`] — tag management, round-robin / locality-aware link
//!   selection, and the inject-until-stall run loop of the paper's §VI.A
//!   harness;
//! * [`hmc_workloads`] — glibc-PRNG random access, streams, GUPS,
//!   pointer chases, stencils, replays and mixtures.
//!
//! # Quick start
//!
//! ```
//! use hmc_sim::prelude::*;
//!
//! // One 4-link, 16-vault, 2 GiB device, every link host-attached.
//! let mut sim = HmcSim::new(1, DeviceConfig::small()).unwrap();
//! let host_id = sim.host_cube_id(0);
//! topology::build_simple(&mut sim, host_id).unwrap();
//!
//! // Write 64 bytes, read them back.
//! let data = [7u8; 64];
//! let wr = Packet::request(Command::Wr(BlockSize::B64), 0, 0x1000, 1, 0, &data).unwrap();
//! let rd = Packet::request(Command::Rd(BlockSize::B64), 0, 0x1000, 2, 1, &[]).unwrap();
//! sim.send(0, 0, wr).unwrap();
//! sim.send(0, 1, rd).unwrap();
//! for _ in 0..4 {
//!     sim.clock().unwrap();
//! }
//! while let Ok(rsp) = sim.recv(0, 1) {
//!     let info = decode_response(&rsp).unwrap();
//!     if info.tag == 2 {
//!         assert_eq!(info.data, data.to_vec());
//!     }
//! }
//! ```
//!
//! The examples directory walks through the paper's Figure 4 calling
//! sequence (`quickstart`), the §VI random-access harness
//! (`random_access`), the Figure 1 topologies (`chained_topologies`),
//! register access (`register_access`), block-size bandwidth sweeps
//! (`bandwidth_sweep`), and multi-object NUMA modelling
//! (`numa_channels`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hmc_core;
pub use hmc_host;
pub use hmc_mem;
pub use hmc_trace;
pub use hmc_types;
pub use hmc_workloads;

/// The most common imports for driving a simulation.
pub mod prelude {
    pub use hmc_core::builder::{decode_response, ResponseInfo};
    pub use hmc_core::{topology, ConflictPolicy, HmcSim, SimParams};
    pub use hmc_host::{run_workload, Host, LinkSelection, RunConfig, RunReport};
    pub use hmc_trace::{
        CountingSink, SeriesCollector, SharedSink, TraceSink, Tracer, Verbosity,
    };
    pub use hmc_types::{
        BlockSize, Command, CubeId, Cycle, DeviceConfig, HmcError, LinkFaultConfig, LinkId, Packet,
        PhysAddr, Result, StorageMode, VaultId,
    };
    pub use hmc_workloads::{
        Gups, MemOp, Mixed, OpKind, PointerChase, RandomAccess, Replay, Stencil, Stream,
        StreamMode, UpdateKind, Workload,
    };
}
