//! # hmc-core
//!
//! The HMC-Sim device model: the full structure hierarchy of the paper's
//! §IV (devices → links / crossbars / quads → vaults → banks → DRAMs),
//! fixed-depth queue slots, the six-stage sub-cycle clock of Figure 3,
//! the register file with in-band (MODE) and side-band (JTAG) access,
//! flexible topologies with hop-by-hop routing between chained cubes, and
//! a C-style facade mirroring the Figure 4 calling sequence.
//!
//! # Quick start
//!
//! ```
//! use hmc_core::{topology, HmcSim};
//! use hmc_types::{BlockSize, Command, DeviceConfig, Packet};
//!
//! let mut sim = HmcSim::new(1, DeviceConfig::small()).unwrap();
//! let host = sim.host_cube_id(0);
//! topology::build_simple(&mut sim, host).unwrap();
//!
//! let req = Packet::request(Command::Rd(BlockSize::B64), 0, 0x40, 1, 0, &[]).unwrap();
//! sim.send(0, 0, req).unwrap();
//! for _ in 0..4 {
//!     sim.clock().unwrap();
//! }
//! let rsp = sim.recv(0, 0).unwrap();
//! assert_eq!(rsp.tag(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod args;
pub mod builder;
pub mod device;
pub(crate) mod engine;
pub mod fault;
pub mod invariants;
pub mod jtag;
pub mod link;
pub mod noc;
pub mod params;
pub mod quad;
pub mod queue;
pub mod register;
pub mod report;
pub mod routing;
pub mod sim;
pub mod stages;
pub mod timing;
pub mod topology;
pub mod vault;
pub mod xbar;

pub use api::{hmcsim_clock, hmcsim_init, hmcsim_link_config, hmcsim_recv, hmcsim_send, LinkType};
pub use args::Args;
pub use builder::{build_mem_request, decode_response, ResponseInfo};
pub use device::Device;
pub use fault::FaultState;
pub use invariants::InvariantState;
pub use link::{Endpoint, Link};
pub use noc::{Interconnect, MeshTopology, NocParams, NocSink, NocState, RingTopology, Topology};
pub use params::{ConflictPolicy, RefreshParams, SimParams};
pub use quad::Quad;
pub use queue::{BodyPool, PacketQueue, QueueEntry};
pub use register::{regs, RegClass, RegisterFile};
pub use report::{DeviceUtilizationReport, VaultUtilizationReport};
pub use routing::RouteTable;
pub use sim::{HmcSim, SimStats, MAX_CUBES};
pub use timing::{
    make_timing, ClassicTiming, DdrTiming, IssueGrant, RowOutcome, TimingParams, VaultTiming,
};
pub use vault::{Vault, VaultStats};
pub use xbar::Crossbar;
