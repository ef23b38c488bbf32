//! C-style API facade.
//!
//! The original HMC-Sim "is implemented in ANSI-style C and packaged as a
//! single library object" (paper §V) with four major function classes:
//! device initialization, topology initialization, packet handlers and
//! register interface functions. This module mirrors the Figure 4 calling
//! sequence one-to-one, so code written against the C API translates
//! mechanically:
//!
//! ```text
//! hmcsim_init(&hmc, …)            → hmcsim_init(…) -> HmcSim
//! hmcsim_link_config(&hmc, …)     → hmcsim_link_config(&mut sim, …)
//! hmcsim_build_memrequest(&hmc,…) → hmcsim_build_memrequest(…)
//! hmcsim_send(&hmc, …)            → hmcsim_send(&mut sim, …)
//! hmcsim_recv(&hmc, …)            → hmcsim_recv(&mut sim, …)
//! hmcsim_clock(&hmc)              → hmcsim_clock(&mut sim)
//! hmcsim_free(&hmc)               → drop(sim)
//! ```

use hmc_types::units::GIB;
use hmc_types::{
    BlockSize, Command, CubeId, DeviceConfig, HmcError, LinkId, Packet, Result, StorageMode,
    TimingKind,
};

use crate::builder;
use crate::params::SimParams;
use crate::sim::HmcSim;
use crate::timing::TimingParams;

/// Link configuration types of `hmcsim_link_config`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkType {
    /// A host-to-device link (`HMC_LINK_HOST_DEV`).
    HostDev,
    /// A device-to-device chaining link (`HMC_LINK_DEV_DEV`).
    DevDev,
}

/// Initialize a simulation object: the `hmcsim_init` equivalent, taking
/// the same positional geometry arguments as the C call in Figure 4.
///
/// `capacity_gb` is per-device capacity in gibibytes. The geometry is
/// validated as a whole; devices are homogeneous (§V.A) and start in
/// their reset state.
#[allow(clippy::too_many_arguments)]
pub fn hmcsim_init(
    num_devs: u8,
    num_links: u8,
    num_vaults: u16,
    queue_depth: usize,
    num_banks: u16,
    num_drams: u16,
    capacity_gb: u64,
    xbar_depth: usize,
) -> Result<HmcSim> {
    let config = DeviceConfig {
        num_links,
        num_vaults,
        banks_per_vault: num_banks,
        drams_per_bank: num_drams,
        capacity_bytes: capacity_gb.checked_mul(GIB).ok_or_else(|| {
            HmcError::InvalidConfig(format!("capacity of {capacity_gb} GiB overflows"))
        })?,
        xbar_depth,
        vault_depth: queue_depth,
        link_speed: hmc_types::LinkSpeed::Gbps10,
        lanes_per_link: if num_links == 8 { 8 } else { 16 },
        block_size: BlockSize::B128,
        storage_mode: StorageMode::Functional,
        timing: TimingKind::Classic,
        interconnect: hmc_types::InterconnectKind::Crossbar,
        arbitration: hmc_types::ArbitrationKind::RoundRobin,
        cell_faults: None,
        link_faults: None,
    };
    HmcSim::new(num_devs, config)
}

/// Configure one link: the `hmcsim_link_config` equivalent.
///
/// For [`LinkType::HostDev`], `src_dev` is the host cube ID and
/// `dest_dev` the device; `dest_link` selects the device-side link
/// (`src_link` is accepted for signature parity and ignored, as hosts
/// have no modeled link block). For [`LinkType::DevDev`], both ends name
/// devices within this object.
pub fn hmcsim_link_config(
    sim: &mut HmcSim,
    src_dev: CubeId,
    dest_dev: CubeId,
    _src_link: LinkId,
    dest_link: LinkId,
    link_type: LinkType,
) -> Result<()> {
    match link_type {
        LinkType::HostDev => sim.connect_host(dest_dev, dest_link, src_dev),
        LinkType::DevDev => sim.connect_devices(src_dev, _src_link, dest_dev, dest_link),
    }
}

/// Build a memory request packet: the `hmcsim_build_memrequest`
/// equivalent. Returns the packet whose head/tail the C API would write
/// into the caller's payload buffer.
pub fn hmcsim_build_memrequest(
    cub: CubeId,
    addr: u64,
    tag: u16,
    cmd: Command,
    link: LinkId,
    payload: &[u8],
) -> Result<Packet> {
    builder::build_mem_request(cmd, cub, addr, tag, link, payload)
}

/// Send a request packet on a host link: the `hmcsim_send` equivalent.
/// Returns `HMC_STALL` (here [`HmcError::Stalled`]) when the crossbar
/// arbitration queue is full.
pub fn hmcsim_send(sim: &mut HmcSim, dev: CubeId, link: LinkId, packet: Packet) -> Result<()> {
    sim.send(dev, link, packet)
}

/// Poll a host link for a response packet: the `hmcsim_recv` equivalent.
pub fn hmcsim_recv(sim: &mut HmcSim, dev: CubeId, link: LinkId) -> Result<Packet> {
    sim.recv(dev, link)
}

/// Advance the simulation one clock cycle: the `hmcsim_clock` equivalent.
pub fn hmcsim_clock(sim: &mut HmcSim) -> Result<()> {
    sim.clock()
}

/// Decode a response packet: the response-decode utility of §V.C.
pub fn hmcsim_decode_memresponse(packet: &Packet) -> Result<builder::ResponseInfo> {
    builder::decode_response(packet)
}

/// Switch the event-driven fast-forward engine mode on or off. An
/// extension beyond the C API's Figure 4 sequence: when enabled, batch
/// clocking jumps across provably quiescent cycles while remaining
/// bit-identical to stepped execution (see
/// [`crate::params::SimParams::fast_forward`]).
pub fn hmcsim_set_fast_forward(sim: &mut HmcSim, enable: bool) {
    sim.set_params(SimParams {
        fast_forward: enable,
        ..*sim.params()
    });
}

/// Select the vault timing backend by kind, keeping default DDR
/// parameters. An extension beyond the C API: the C library hard-wires
/// the constant-time conflict model; here it is one of the pluggable
/// [`crate::timing::VaultTiming`] backends.
pub fn hmcsim_set_timing(sim: &mut HmcSim, kind: TimingKind) {
    sim.set_params(SimParams {
        timing: TimingParams::of(kind),
        ..*sim.params()
    });
}

/// Side-band JTAG register read (§V.D).
pub fn hmcsim_jtag_reg_read(sim: &HmcSim, dev: CubeId, reg: u32) -> Result<u64> {
    sim.jtag_reg_read(dev, reg)
}

/// Side-band JTAG register write (§V.D).
pub fn hmcsim_jtag_reg_write(sim: &mut HmcSim, dev: CubeId, reg: u32, value: u64) -> Result<()> {
    sim.jtag_reg_write(dev, reg, value)
}

/// Release a simulation object: the `hmcsim_free` equivalent. Rust drops
/// the object automatically; this exists for sequence parity with Fig. 4.
pub fn hmcsim_free(sim: HmcSim) {
    drop(sim);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_calling_sequence_works_end_to_end() {
        // Section A: init the devices.
        let mut hmc = hmcsim_init(1, 4, 16, 4, 8, 16, 2, 8).unwrap();
        let host = hmc.host_cube_id(0);

        // Section B: config the link topology.
        for i in 0..4 {
            hmcsim_link_config(&mut hmc, host, 0, i, i, LinkType::HostDev).unwrap();
        }

        // Section C: build a request packet and send it.
        let packet =
            hmcsim_build_memrequest(0, 0x8000, 5, Command::Rd(BlockSize::B64), 0, &[]).unwrap();
        hmcsim_send(&mut hmc, 0, 0, packet).unwrap();

        // Clock the sim until the response arrives.
        let mut response = None;
        for _ in 0..10 {
            hmcsim_clock(&mut hmc).unwrap();
            if let Ok(p) = hmcsim_recv(&mut hmc, 0, 0) {
                response = Some(p);
                break;
            }
        }
        let response = response.expect("response within ten cycles");
        let info = hmcsim_decode_memresponse(&response).unwrap();
        assert_eq!(info.tag, 5);
        assert!(info.is_ok());
        assert_eq!(info.data.len(), 64);

        // Section A again: free the devices.
        hmcsim_free(hmc);
    }

    #[test]
    fn init_validates_geometry() {
        assert!(hmcsim_init(1, 3, 16, 4, 8, 16, 2, 8).is_err(), "bad links");
        assert!(hmcsim_init(1, 4, 8, 4, 8, 16, 2, 8).is_err(), "bad vaults");
        assert!(hmcsim_init(1, 4, 16, 0, 8, 16, 2, 8).is_err(), "zero queue");
        // Depths past `MAX_QUEUE_DEPTH` are refused before anything is allocated.
        for (queue, xbar) in [(1 << 40, 8), (4, 1 << 40)] {
            assert!(hmcsim_init(1, 4, 16, queue, 8, 16, 2, xbar).is_err());
        }
        assert!(hmcsim_init(1, 8, 32, 4, 16, 16, 8, 8).is_ok(), "8-link ok");
    }

    #[test]
    fn dev_dev_link_config() {
        let mut hmc = hmcsim_init(2, 4, 16, 4, 8, 16, 2, 8).unwrap();
        let host = hmc.host_cube_id(0);
        hmcsim_link_config(&mut hmc, host, 0, 0, 0, LinkType::HostDev).unwrap();
        hmcsim_link_config(&mut hmc, 0, 1, 1, 0, LinkType::DevDev).unwrap();
        assert!(hmc.finalize_topology().is_ok());
    }

    #[test]
    fn fast_forward_toggle_reaches_the_params() {
        let mut hmc = hmcsim_init(1, 4, 16, 4, 8, 16, 2, 8).unwrap();
        assert!(!hmc.params().fast_forward, "off by default");
        hmcsim_set_fast_forward(&mut hmc, true);
        assert!(hmc.params().fast_forward);
        // The Figure 4 sequence still works with the mode on.
        let host = hmc.host_cube_id(0);
        for i in 0..4 {
            hmcsim_link_config(&mut hmc, host, 0, i, i, LinkType::HostDev).unwrap();
        }
        let packet =
            hmcsim_build_memrequest(0, 0x4000, 3, Command::Rd(BlockSize::B32), 1, &[]).unwrap();
        hmcsim_send(&mut hmc, 0, 1, packet).unwrap();
        hmc.clock_batch(16).unwrap();
        let response = hmcsim_recv(&mut hmc, 0, 1).expect("response well within the batch");
        assert_eq!(hmcsim_decode_memresponse(&response).unwrap().tag, 3);
        hmcsim_set_fast_forward(&mut hmc, false);
        assert!(!hmc.params().fast_forward);
    }

    #[test]
    fn timing_backend_toggle_reaches_the_params() {
        let mut hmc = hmcsim_init(1, 4, 16, 4, 8, 16, 2, 8).unwrap();
        assert_eq!(
            hmc.params().timing.kind,
            TimingKind::Classic,
            "classic by default"
        );
        hmcsim_set_timing(&mut hmc, TimingKind::Ddr);
        assert_eq!(hmc.params().timing.kind, TimingKind::Ddr);
        // The Figure 4 sequence still completes under the DDR backend.
        let host = hmc.host_cube_id(0);
        for i in 0..4 {
            hmcsim_link_config(&mut hmc, host, 0, i, i, LinkType::HostDev).unwrap();
        }
        let packet =
            hmcsim_build_memrequest(0, 0x4000, 3, Command::Rd(BlockSize::B32), 1, &[]).unwrap();
        hmcsim_send(&mut hmc, 0, 1, packet).unwrap();
        hmc.clock_batch(64).unwrap();
        let response = hmcsim_recv(&mut hmc, 0, 1).expect("response well within the batch");
        assert_eq!(hmcsim_decode_memresponse(&response).unwrap().tag, 3);
        assert_eq!(hmc.stats().row_misses, 1, "first touch activates the row");
    }

    #[test]
    fn jtag_wrappers_delegate() {
        let mut hmc = hmcsim_init(1, 4, 16, 4, 8, 16, 2, 8).unwrap();
        hmcsim_jtag_reg_write(&mut hmc, 0, crate::register::regs::GC, 7).unwrap();
        assert_eq!(
            hmcsim_jtag_reg_read(&hmc, 0, crate::register::regs::GC).unwrap(),
            7
        );
    }
}
