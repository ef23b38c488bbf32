//! Device configuration, status and control registers.
//!
//! "The HMC-Sim device representation contains storage for all internal
//! device configuration, read and status registers found within the HMC
//! device specification. … There are registers that can be read and
//! written (RW), registers that are read-only (RO) and registers that are
//! self-clearing after being written to (RWS)" (paper §IV.D).
//!
//! "Register indexing on physical HMC devices is not purely linear and
//! does not begin at zero. As such, we have implemented a series of macros
//! that translate HMC device register index formats to a linear format"
//! (§IV.D) — here [`RegisterFile::linear_index`] performs that
//! translation, with the registers stored in one contiguous `Vec`.

use hmc_types::{HmcError, Result};

/// Register access classes (paper §IV.D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegClass {
    /// Readable and writable.
    Rw,
    /// Read-only; in-band and JTAG writes are rejected.
    Ro,
    /// Self-clearing after being written: the written value is visible
    /// until the next clock edge, then reverts to zero.
    Rws,
}

/// HMC register indices (hexadecimal device format, non-linear).
///
/// Link-indexed registers (LC / LRLL / LR / IBTC) step by `0x1000` per
/// link. (The classic 4-link format steps by `0x10000`, but that stride
/// collides with the EDR block once links 4–7 exist, so this
/// implementation uses a denser per-link bank that stays unique for
/// 8-link devices.)
pub mod regs {
    /// Error detect register 0 (RWS).
    pub const EDR0: u32 = 0x2b0000;
    /// Error detect register 1 (RWS).
    pub const EDR1: u32 = 0x2b0001;
    /// Error detect register 2 (RWS).
    pub const EDR2: u32 = 0x2b0002;
    /// Error detect register 3 (RWS).
    pub const EDR3: u32 = 0x2b0003;
    /// Global error status (RO).
    pub const ERR: u32 = 0x2b0004;
    /// Global configuration (RW).
    pub const GC: u32 = 0x280000;
    /// Link configuration for link `l` (RW).
    pub const fn lc(l: u8) -> u32 {
        0x240000 + (l as u32) * 0x1000
    }
    /// Link run-length limit for link `l` (RW).
    pub const fn lrll(l: u8) -> u32 {
        0x240003 + (l as u32) * 0x1000
    }
    /// Link retry state for link `l` (RW).
    pub const fn lr(l: u8) -> u32 {
        0x240011 + (l as u32) * 0x1000
    }
    /// Input-buffer token count for link `l` (RW).
    pub const fn ibtc(l: u8) -> u32 {
        0x040000 + (l as u32) * 0x1000
    }
    /// Global retry limit (RW).
    pub const GRL: u32 = 0x2c0000;
    /// Address configuration (RW).
    pub const AC: u32 = 0x2c0003;
    /// Vault control (RW).
    pub const VCR: u32 = 0x108000;
    /// Feature register (RO): capacity and link count, set at init.
    pub const FEAT: u32 = 0x2c0007;
    /// Revision and vendor ID (RO).
    pub const RVID: u32 = 0x2c0008;
}

/// Power-on RVID value: 'H''C' plus revision 1.
pub const RVID_RESET: u64 = 0x4843_0001;

/// Encode the FEAT register from device geometry: capacity (GB) in the low
/// byte, link count in bits 8..16, vault count in bits 16..24.
pub fn encode_feat(capacity_gb: u64, num_links: u8, num_vaults: u16) -> u64 {
    capacity_gb | ((num_links as u64) << 8) | ((num_vaults as u64) << 16)
}

#[derive(Debug, Clone)]
struct Register {
    index: u32,
    class: RegClass,
    value: u64,
    reset_value: u64,
    /// RWS: written this cycle, clears at the next clock edge.
    pending_clear: bool,
}

/// Most links a device has (the 8-link configurations).
const MAX_LINKS: usize = 8;

/// The register file of one device: contiguous storage, non-linear lookup.
///
/// Stage 6 touches the same few registers every cycle, so their linear
/// slots are resolved once here rather than searched per cycle, and the
/// file counts the RWS registers waiting to self-clear so that an edge
/// with nothing pending costs one compare.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    regs: Vec<Register>,
    /// Linear slot of the AC register.
    ac_slot: usize,
    /// Linear slot of each link's IBTC register (`num_links` used).
    ibtc_slots: [usize; MAX_LINKS],
    /// RWS registers with `pending_clear` set.
    pending_clears: usize,
}

impl RegisterFile {
    /// Build the register file for a device with `num_links` links.
    ///
    /// # Panics
    ///
    /// If `num_links` exceeds 8, which [`DeviceConfig::validate`]
    /// rejects.
    ///
    /// [`DeviceConfig::validate`]: hmc_types::DeviceConfig::validate
    pub fn new(num_links: u8, capacity_gb: u64, num_vaults: u16) -> Self {
        assert!(
            num_links as usize <= MAX_LINKS,
            "{num_links} links exceed the {MAX_LINKS}-link maximum"
        );
        let mut regs = Vec::new();
        let mut push = |index: u32, class: RegClass, reset: u64| {
            regs.push(Register {
                index,
                class,
                value: reset,
                reset_value: reset,
                pending_clear: false,
            });
        };
        push(regs::EDR0, RegClass::Rws, 0);
        push(regs::EDR1, RegClass::Rws, 0);
        push(regs::EDR2, RegClass::Rws, 0);
        push(regs::EDR3, RegClass::Rws, 0);
        push(regs::ERR, RegClass::Ro, 0);
        push(regs::GC, RegClass::Rw, 0);
        push(regs::GRL, RegClass::Rw, 0);
        push(regs::AC, RegClass::Rw, 0);
        push(regs::VCR, RegClass::Rw, 0);
        push(
            regs::FEAT,
            RegClass::Ro,
            encode_feat(capacity_gb, num_links, num_vaults),
        );
        push(regs::RVID, RegClass::Ro, RVID_RESET);
        for l in 0..num_links {
            push(regs::lc(l), RegClass::Rw, 0);
            push(regs::lrll(l), RegClass::Rw, 0);
            push(regs::lr(l), RegClass::Rw, 0);
            push(regs::ibtc(l), RegClass::Rw, 0);
        }
        // Keep storage sorted by device index so linear translation is a
        // binary search over one well-aligned block.
        regs.sort_by_key(|r| r.index);
        let mut file = RegisterFile {
            regs,
            ac_slot: 0,
            ibtc_slots: [0; MAX_LINKS],
            pending_clears: 0,
        };
        file.ac_slot = file.linear_index(regs::AC).expect("AC is always present");
        for l in 0..num_links {
            file.ibtc_slots[l as usize] = file
                .linear_index(regs::ibtc(l))
                .expect("every link has an IBTC register");
        }
        file
    }

    /// Number of registers present.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// True when the file holds no registers (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Translate a device register index to its linear storage position.
    pub fn linear_index(&self, index: u32) -> Result<usize> {
        self.regs
            .binary_search_by_key(&index, |r| r.index)
            .map_err(|_| {
                HmcError::RegisterAccess(format!("unknown register index {index:#08x}"))
            })
    }

    /// The access class of a register.
    pub fn class(&self, index: u32) -> Result<RegClass> {
        Ok(self.regs[self.linear_index(index)?].class)
    }

    /// Read a register's current value.
    pub fn read(&self, index: u32) -> Result<u64> {
        Ok(self.regs[self.linear_index(index)?].value)
    }

    /// Write a register, honouring its class: RO writes are rejected; RWS
    /// writes take effect and self-clear at the next clock edge.
    pub fn write(&mut self, index: u32, value: u64) -> Result<()> {
        let i = self.linear_index(index)?;
        let reg = &mut self.regs[i];
        match reg.class {
            RegClass::Ro => Err(HmcError::RegisterAccess(format!(
                "register {index:#08x} is read-only"
            ))),
            RegClass::Rw => {
                reg.value = value;
                Ok(())
            }
            RegClass::Rws => {
                reg.value = value;
                if !reg.pending_clear {
                    reg.pending_clear = true;
                    self.pending_clears += 1;
                }
                Ok(())
            }
        }
    }

    /// Internal: set a RO register (device-side status updates).
    pub(crate) fn set_internal(&mut self, index: u32, value: u64) -> Result<()> {
        let i = self.linear_index(index)?;
        self.regs[i].value = value;
        Ok(())
    }

    /// Count one error response in the global error register (RO from
    /// the host's perspective; updated device-side, saturating).
    pub(crate) fn count_error_response(&mut self) {
        let count = self.read(regs::ERR).unwrap_or(0);
        let _ = self.set_internal(regs::ERR, count.saturating_add(1));
    }

    /// The AC (address configuration) register's value.
    pub(crate) fn ac(&self) -> u64 {
        self.regs[self.ac_slot].value
    }

    /// Mirror link `link`'s token count into its IBTC register.
    pub(crate) fn set_ibtc(&mut self, link: usize, tokens: u64) {
        self.regs[self.ibtc_slots[link]].value = tokens;
    }

    /// Clock edge: self-clear RWS registers written since the last edge.
    /// Returns at once when none was written.
    pub fn tick(&mut self) {
        if self.pending_clears == 0 {
            return;
        }
        for r in &mut self.regs {
            if r.pending_clear {
                r.value = 0;
                r.pending_clear = false;
            }
        }
        self.pending_clears = 0;
    }

    /// Restore all registers to their power-on values.
    pub fn reset(&mut self) {
        for r in &mut self.regs {
            r.value = r.reset_value;
            r.pending_clear = false;
        }
        self.pending_clears = 0;
    }

    /// Iterate `(device_index, class, value)` in linear order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, RegClass, u64)> + '_ {
        self.regs.iter().map(|r| (r.index, r.class, r.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file() -> RegisterFile {
        RegisterFile::new(4, 2, 16)
    }

    #[test]
    fn four_link_device_has_expected_register_count() {
        // 11 globals + 4 per-link banks of 4.
        assert_eq!(file().len(), 11 + 16);
        // 8-link devices grow the per-link banks.
        assert_eq!(RegisterFile::new(8, 8, 32).len(), 11 + 32);
    }

    #[test]
    fn linear_translation_is_dense_and_ordered() {
        let f = file();
        let mut positions: Vec<usize> = f
            .iter()
            .map(|(idx, _, _)| f.linear_index(idx).unwrap())
            .collect();
        positions.sort_unstable();
        let expect: Vec<usize> = (0..f.len()).collect();
        assert_eq!(positions, expect, "every register maps to a unique slot");
    }

    #[test]
    fn unknown_index_rejected() {
        let f = file();
        assert!(matches!(
            f.read(0xdead_beef),
            Err(HmcError::RegisterAccess(_))
        ));
        assert!(f.linear_index(regs::lc(7)).is_err(), "LC7 absent on 4-link");
    }

    #[test]
    fn rw_registers_read_back_writes() {
        let mut f = file();
        f.write(regs::GC, 0x1234).unwrap();
        assert_eq!(f.read(regs::GC).unwrap(), 0x1234);
        f.write(regs::lc(2), 7).unwrap();
        assert_eq!(f.read(regs::lc(2)).unwrap(), 7);
        f.tick();
        assert_eq!(f.read(regs::GC).unwrap(), 0x1234, "RW survives the edge");
    }

    #[test]
    fn ro_registers_reject_writes() {
        let mut f = file();
        assert!(f.write(regs::ERR, 1).is_err());
        assert!(f.write(regs::FEAT, 1).is_err());
        assert!(f.write(regs::RVID, 1).is_err());
    }

    #[test]
    fn rws_registers_self_clear_on_the_next_edge() {
        let mut f = file();
        f.write(regs::EDR0, 0xff).unwrap();
        assert_eq!(f.read(regs::EDR0).unwrap(), 0xff, "visible until the edge");
        f.tick();
        assert_eq!(f.read(regs::EDR0).unwrap(), 0, "self-cleared");
        f.tick();
        assert_eq!(f.read(regs::EDR0).unwrap(), 0);
    }

    #[test]
    fn repeated_rws_writes_clear_once_and_every_written_register_clears() {
        let mut f = file();
        f.write(regs::EDR0, 1).unwrap();
        f.write(regs::EDR0, 2).unwrap();
        assert_eq!(
            f.pending_clears, 1,
            "one register pending, however often written"
        );
        f.tick();
        assert_eq!(f.read(regs::EDR0).unwrap(), 0);
        assert_eq!(f.pending_clears, 0);
        f.write(regs::EDR1, 3).unwrap();
        f.write(regs::EDR3, 4).unwrap();
        assert_eq!(f.pending_clears, 2);
        f.tick();
        assert_eq!(f.read(regs::EDR1).unwrap(), 0);
        assert_eq!(f.read(regs::EDR3).unwrap(), 0);
        assert_eq!(f.pending_clears, 0);
        // RW writes never pend.
        f.write(regs::GC, 5).unwrap();
        assert_eq!(f.pending_clears, 0);
    }

    #[test]
    fn reset_clears_the_pending_count() {
        let mut f = file();
        f.write(regs::EDR2, 9).unwrap();
        f.reset();
        assert_eq!(f.pending_clears, 0);
        assert_eq!(f.read(regs::EDR2).unwrap(), 0);
        // The next write pends afresh and clears at its edge.
        f.write(regs::EDR2, 7).unwrap();
        assert_eq!(f.pending_clears, 1);
        f.tick();
        assert_eq!(f.read(regs::EDR2).unwrap(), 0);
    }

    #[test]
    fn resolved_slots_match_linear_translation() {
        for links in [4u8, 8] {
            let mut f = RegisterFile::new(links, 8, 4 * links as u16);
            assert_eq!(f.ac_slot, f.linear_index(regs::AC).unwrap());
            for l in 0..links {
                assert_eq!(
                    f.ibtc_slots[l as usize],
                    f.linear_index(regs::ibtc(l)).unwrap()
                );
                f.set_ibtc(l as usize, 100 + l as u64);
            }
            for l in 0..links {
                assert_eq!(f.read(regs::ibtc(l)).unwrap(), 100 + l as u64);
            }
            f.write(regs::AC, 2).unwrap();
            assert_eq!(f.ac(), 2);
        }
    }

    #[test]
    fn feat_encodes_geometry() {
        let f = RegisterFile::new(8, 8, 32);
        let feat = f.read(regs::FEAT).unwrap();
        assert_eq!(feat & 0xff, 8, "capacity GB");
        assert_eq!((feat >> 8) & 0xff, 8, "links");
        assert_eq!((feat >> 16) & 0xff, 32, "vaults");
        assert_eq!(f.read(regs::RVID).unwrap(), RVID_RESET);
    }

    #[test]
    fn internal_updates_can_set_ro_registers() {
        let mut f = file();
        f.set_internal(regs::ERR, 0b10).unwrap();
        assert_eq!(f.read(regs::ERR).unwrap(), 0b10);
    }

    #[test]
    fn reset_restores_power_on_values() {
        let mut f = file();
        f.write(regs::GC, 99).unwrap();
        f.set_internal(regs::ERR, 5).unwrap();
        f.reset();
        assert_eq!(f.read(regs::GC).unwrap(), 0);
        assert_eq!(f.read(regs::ERR).unwrap(), 0);
        assert_eq!(f.read(regs::RVID).unwrap(), RVID_RESET);
    }

    #[test]
    fn class_lookup() {
        let f = file();
        assert_eq!(f.class(regs::GC).unwrap(), RegClass::Rw);
        assert_eq!(f.class(regs::ERR).unwrap(), RegClass::Ro);
        assert_eq!(f.class(regs::EDR3).unwrap(), RegClass::Rws);
    }
}
