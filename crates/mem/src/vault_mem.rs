//! Per-vault memory: the stack of banks a vault controller manages.
//!
//! "Once within a target memory vault, memory storage is again broken into
//! the traditional concept of banks and DRAMs. Vertical access through the
//! stacked memory layers is analogous to choosing the appropriate memory
//! bank" (paper §III.A). [`VaultMemory`] owns the banks of one vault and
//! dispatches decoded accesses to them.

use hmc_types::address::DecodedAddr;
use hmc_types::config::{DeviceConfig, StorageMode};
use hmc_types::{BankId, HmcError, Result};

use crate::bank::Bank;

/// The memory stack of a single vault: `banks_per_vault` banks.
#[derive(Debug)]
pub struct VaultMemory {
    banks: Vec<Bank>,
}

impl VaultMemory {
    /// Build a vault's bank stack from a device configuration.
    pub fn new(config: &DeviceConfig) -> Self {
        let banks = (0..config.banks_per_vault)
            .map(|_| {
                Bank::new(
                    config.rows_per_bank(),
                    config.block_size.bytes() as u32,
                    config.storage_mode,
                )
            })
            .collect();
        VaultMemory { banks }
    }

    /// Build directly from raw geometry (used by unit tests).
    pub fn from_parts(num_banks: u16, rows: u64, block_bytes: u32, mode: StorageMode) -> Self {
        let banks = (0..num_banks)
            .map(|_| Bank::new(rows, block_bytes, mode))
            .collect();
        VaultMemory { banks }
    }

    /// Number of banks in the vault.
    pub fn num_banks(&self) -> u16 {
        self.banks.len() as u16
    }

    fn bank_mut(&mut self, bank: BankId) -> Result<&mut Bank> {
        let limit = self.banks.len() as u16;
        self.banks
            .get_mut(bank as usize)
            .ok_or(HmcError::OutOfRange {
                what: "bank",
                index: bank as u64,
                limit: limit as u64,
            })
    }

    /// Immutable bank access (geometry and residency inspection).
    pub fn bank(&self, bank: BankId) -> Result<&Bank> {
        self.banks.get(bank as usize).ok_or(HmcError::OutOfRange {
            what: "bank",
            index: bank as u64,
            limit: self.banks.len() as u64,
        })
    }

    /// Read `buf.len()` bytes at the decoded coordinates.
    pub fn read(&mut self, at: DecodedAddr, buf: &mut [u8]) -> Result<()> {
        self.bank_mut(at.bank)?.read(at.row, at.offset, buf)
    }

    /// Write `data` at the decoded coordinates.
    pub fn write(&mut self, at: DecodedAddr, data: &[u8]) -> Result<()> {
        self.bank_mut(at.bank)?.write(at.row, at.offset, data)
    }

    /// Dual 8-byte atomic add at the decoded coordinates.
    pub fn two_add8(&mut self, at: DecodedAddr, op0: u64, op1: u64) -> Result<(u64, u64)> {
        self.bank_mut(at.bank)?.two_add8(at.row, at.offset, op0, op1)
    }

    /// 16-byte atomic add at the decoded coordinates.
    pub fn add16(&mut self, at: DecodedAddr, op: u128) -> Result<u128> {
        self.bank_mut(at.bank)?.add16(at.row, at.offset, op)
    }

    /// Masked bit-write at the decoded coordinates.
    pub fn bit_write(&mut self, at: DecodedAddr, data: u64, mask: u64) -> Result<u64> {
        self.bank_mut(at.bank)?.bit_write(at.row, at.offset, data, mask)
    }

    /// XOR `xor` into the 64-bit word at index `word` of `(bank, row)`
    /// — the cell-fault injection hook (see [`Bank::corrupt_word`]).
    /// Out-of-range banks are ignored.
    pub fn corrupt_word(&mut self, bank: BankId, row: u64, word: u32, xor: u64) {
        if let Some(b) = self.banks.get_mut(bank as usize) {
            b.corrupt_word(row, word, xor);
        }
    }

    /// Reset every bank (device reset).
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            b.reset();
        }
    }

    /// Host bytes resident across all banks.
    pub fn resident_bytes(&self) -> u64 {
        self.banks.iter().map(|b| b.resident_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm() -> VaultMemory {
        VaultMemory::from_parts(8, 256, 128, StorageMode::Functional)
    }

    fn at(bank: u16, row: u64, offset: u32) -> DecodedAddr {
        DecodedAddr {
            vault: 0,
            bank,
            row,
            offset,
        }
    }

    #[test]
    fn dispatches_to_the_addressed_bank() {
        let mut v = vm();
        v.write(at(3, 10, 0), &[0x77; 16]).unwrap();
        let mut buf = [0u8; 16];
        v.read(at(3, 10, 0), &mut buf).unwrap();
        assert_eq!(buf, [0x77; 16]);
        // Other banks see nothing.
        v.read(at(4, 10, 0), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(v.bank(3).unwrap().resident_bytes(), 128);
        assert_eq!(v.bank(4).unwrap().resident_bytes(), 0);
    }

    #[test]
    fn invalid_bank_rejected() {
        let mut v = vm();
        assert!(matches!(
            v.write(at(8, 0, 0), &[0; 8]),
            Err(HmcError::OutOfRange { .. })
        ));
    }

    #[test]
    fn atomics_route_through_banks() {
        let mut v = vm();
        v.write(at(1, 0, 0), &7u64.to_le_bytes()).unwrap();
        let (old, _) = v.two_add8(at(1, 0, 0), 3, 0).unwrap();
        assert_eq!(old, 7);
        let old = v.add16(at(2, 0, 0), 9).unwrap();
        assert_eq!(old, 0);
        let old = v.bit_write(at(2, 0, 16), 0xff, 0xff).unwrap();
        assert_eq!(old, 0);
        let mut buf = [0u8; 8];
        v.read(at(1, 0, 0), &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 10);
    }

    #[test]
    fn config_construction_matches_geometry() {
        let cfg = DeviceConfig::small();
        let v = VaultMemory::new(&cfg);
        assert_eq!(v.num_banks(), cfg.banks_per_vault);
        assert_eq!(
            v.bank(0).unwrap().capacity_bytes(),
            cfg.bank_capacity_bytes()
        );
    }

    #[test]
    fn reset_clears_all_banks() {
        let mut v = vm();
        v.write(at(0, 0, 0), &[5; 8]).unwrap();
        v.reset();
        assert_eq!(v.resident_bytes(), 0);
    }
}
