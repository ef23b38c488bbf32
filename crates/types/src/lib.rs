//! # hmc-types
//!
//! Protocol-level primitives for the HMC-Sim simulation stack: the HMC 1.0
//! packet format (FLITs, commands, 64-bit header/tail words), CRC-32/Koopman
//! checksums, the 34-bit physical address space with configurable interleave
//! maps, and the device configuration model (links, vaults, banks, queue
//! depths, SERDES rates).
//!
//! Everything in this crate is pure data + arithmetic: no simulation state,
//! no I/O. The simulator core (`hmc-core`) and every other crate in the
//! workspace builds on these definitions.
//!
//! The bit layouts used here follow the field inventory of the Hybrid Memory
//! Cube Specification 1.0 (CUB/ADRS/TAG/LNG/DLN/CMD in the header;
//! CRC/RTC/SLID/SEQ/FRP/RRP in the tail) with a documented packing; see
//! [`packet`] for the exact placement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod cellfault;
pub mod command;
pub mod config;
pub mod crc;
pub mod error;
pub mod flit;
pub mod interconnect;
pub mod linkfault;
pub mod packet;
pub mod timing;
pub mod units;
pub mod wire;

pub use address::{
    AddressMap, BankFirstMap, CustomMap, DecodedAddr, Field, LinearMap, LowInterleaveMap,
    MapGeometry, PhysAddr,
};
pub use cellfault::{CellFaultConfig, Mitigation};
pub use command::{BlockSize, Command};
pub use config::{DeviceConfig, StorageMode};
pub use error::{HmcError, Result};
pub use flit::{FLIT_BYTES, MAX_DATA_BYTES, MAX_PACKET_BYTES, MAX_PACKET_FLITS};
pub use interconnect::{ArbitrationKind, InterconnectKind};
pub use linkfault::LinkFaultConfig;
pub use packet::{Packet, ResponseStatus};
pub use timing::{DdrTimings, PagePolicy, TimingKind};
pub use units::LinkSpeed;
pub use wire::{
    BusyReason, Frame, WireErrorCode, WireOp, WireResponse, WireStats, MAX_FRAME_LEN, WIRE_VERSION,
};

/// Identifier of a cube (device) within a simulation object.
///
/// Per HMC-Sim semantics, host processors are identified by cube IDs strictly
/// greater than the number of devices (`num_devices + 1 + k` for host `k`),
/// so hosts and memory devices share one ID space and can exchange packets
/// seamlessly (paper §V.B).
pub type CubeId = u8;

/// Index of a link on a device (0..num_links).
pub type LinkId = u8;

/// Index of a vault within a device (0..num_vaults).
pub type VaultId = u16;

/// Index of a bank within a vault (0..banks_per_vault).
pub type BankId = u16;

/// Index of a quad unit within a device (0..num_links; one quad per link).
pub type QuadId = u8;

/// A simulation clock value (64-bit, paper §IV.C.6).
pub type Cycle = u64;

/// The SplitMix64 output finalizer: two xor-shift-multiply rounds and a
/// last xor-shift. Every stateless hash and seeded stream in the
/// workspace (link- and cell-fault draws, the fuzzer's generator, client
/// backoff jitter) mixes through this one function.
#[inline]
pub const fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::splitmix64_mix;

    #[test]
    fn splitmix64_mix_gives_the_reference_first_output() {
        // SplitMix64 from state 0 adds the golden-ratio increment once
        // and finalizes: its first output is 0xe220a8397b1dcdaf.
        assert_eq!(splitmix64_mix(0x9e37_79b9_7f4a_7c15), 0xe220_a839_7b1d_cdaf);
    }
}
