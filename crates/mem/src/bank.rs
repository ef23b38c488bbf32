//! Bank storage.
//!
//! "Once within a bank layer, the DRAM is organized traditionally using
//! rows and columns" (paper §III.A). A [`Bank`] owns a sparse store of the
//! rows it has touched and refuses spans outside its geometry. It counts
//! nothing: an access is counted once, by its vault, and the row buffer
//! is the timing backend's (`hmc_core::timing`).

use hmc_types::config::StorageMode;
use hmc_types::{HmcError, Result};

use crate::storage::RowStore;

/// One memory bank: rows × block-size bytes of storage.
#[derive(Debug)]
pub struct Bank {
    rows: u64,
    block_bytes: u32,
    mode: StorageMode,
    store: RowStore,
}

impl Bank {
    /// Create a bank of `rows` rows of `block_bytes` each, in the given
    /// storage mode.
    pub fn new(rows: u64, block_bytes: u32, mode: StorageMode) -> Self {
        Bank {
            rows,
            block_bytes,
            mode,
            // Timing-only banks never materialize a row, and an empty
            // store allocates nothing.
            store: RowStore::new(block_bytes),
        }
    }

    /// Bank capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.rows * self.block_bytes as u64
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    fn check_span(&self, row: u64, offset: u32, len: usize) -> Result<()> {
        if row >= self.rows {
            return Err(HmcError::OutOfRange {
                what: "row",
                index: row,
                limit: self.rows,
            });
        }
        if offset as usize + len > self.block_bytes as usize {
            return Err(HmcError::InvalidAddress {
                addr: row * self.block_bytes as u64 + offset as u64,
                reason: format!(
                    "access of {len} bytes at block offset {offset} crosses the \
                     {}-byte block boundary",
                    self.block_bytes
                ),
            });
        }
        Ok(())
    }

    /// Read `buf.len()` bytes from `(row, offset)`.
    ///
    /// In timing-only mode the buffer is zero-filled.
    pub fn read(&mut self, row: u64, offset: u32, buf: &mut [u8]) -> Result<()> {
        self.check_span(row, offset, buf.len())?;
        let cell = match self.mode {
            StorageMode::Functional => self.store.row(row),
            StorageMode::TimingOnly => None,
        };
        match cell {
            Some(cell) => buf.copy_from_slice(&cell[offset as usize..][..buf.len()]),
            None => buf.fill(0),
        }
        Ok(())
    }

    /// Write `data` to `(row, offset)`.
    pub fn write(&mut self, row: u64, offset: u32, data: &[u8]) -> Result<()> {
        self.check_span(row, offset, data.len())?;
        if self.mode == StorageMode::Functional {
            self.store.row_mut(row)[offset as usize..][..data.len()].copy_from_slice(data);
        }
        Ok(())
    }

    /// The shared body of the atomics: check one `N`-byte
    /// read-modify-write at `(row, offset)` and, on a functional bank,
    /// replace those bytes by `f(old)`. Returns the old bytes (zeros in
    /// timing-only mode).
    fn atomic<const N: usize>(
        &mut self,
        row: u64,
        offset: u32,
        f: impl FnOnce([u8; N]) -> [u8; N],
    ) -> Result<[u8; N]> {
        self.check_span(row, offset, N)?;
        Ok(match self.mode {
            StorageMode::Functional => self.update(row, offset as usize, f),
            StorageMode::TimingOnly => [0; N],
        })
    }

    /// Replace the `N` bytes at `at` of `row`'s cell by `f(old)`, in place
    /// and with one cell lookup; `at + N <= block_bytes` is the caller's.
    fn update<const N: usize>(
        &mut self,
        row: u64,
        at: usize,
        f: impl FnOnce([u8; N]) -> [u8; N],
    ) -> [u8; N] {
        let bytes = &mut self.store.row_mut(row)[at..at + N];
        let mut old = [0u8; N];
        old.copy_from_slice(bytes);
        bytes.copy_from_slice(&f(old));
        old
    }

    /// Dual 8-byte add-immediate (2ADD8): adds `op0` to the u64 at
    /// `(row, offset)` and `op1` to the u64 at `(row, offset + 8)`,
    /// wrapping. Returns the two original values.
    pub fn two_add8(&mut self, row: u64, offset: u32, op0: u64, op1: u64) -> Result<(u64, u64)> {
        // The two little-endian words are the halves of one little-endian
        // u128.
        let halves = |v: u128| (v as u64, (v >> 64) as u64);
        let old = self.atomic(row, offset, |old: [u8; 16]| {
            let (old0, old1) = halves(u128::from_le_bytes(old));
            let new = old0.wrapping_add(op0) as u128 | (old1.wrapping_add(op1) as u128) << 64;
            new.to_le_bytes()
        })?;
        Ok(halves(u128::from_le_bytes(old)))
    }

    /// Single 16-byte add-immediate (ADD16): 128-bit add of `op` to the
    /// 16 bytes at `(row, offset)`, wrapping. Returns the original value.
    pub fn add16(&mut self, row: u64, offset: u32, op: u128) -> Result<u128> {
        let old = self.atomic(row, offset, |old| {
            u128::from_le_bytes(old).wrapping_add(op).to_le_bytes()
        })?;
        Ok(u128::from_le_bytes(old))
    }

    /// Bit write (BWR): 8 bytes of write data qualified by an 8-byte mask;
    /// only mask-set bits are updated. Returns the original value.
    pub fn bit_write(&mut self, row: u64, offset: u32, data: u64, mask: u64) -> Result<u64> {
        let old = self.atomic(row, offset, |old| {
            ((u64::from_le_bytes(old) & !mask) | (data & mask)).to_le_bytes()
        })?;
        Ok(u64::from_le_bytes(old))
    }

    /// XOR `xor` into the 64-bit little-endian word at index `word` of
    /// `row` — the cell-fault injection hook. Faults are physics, not
    /// accesses. Out-of-range coordinates are ignored, and timing-only
    /// banks skip the data mutation (the fault subsystem still counts the
    /// flips so both storage modes report identical fault statistics).
    pub fn corrupt_word(&mut self, row: u64, word: u32, xor: u64) {
        let offset = word as u64 * 8;
        if xor == 0 || row >= self.rows || offset + 8 > self.block_bytes as u64 {
            return;
        }
        if self.mode == StorageMode::Functional {
            self.update(row, offset as usize, |old| {
                (u64::from_le_bytes(old) ^ xor).to_le_bytes()
            });
        }
    }

    /// Reset the bank: clear its data.
    pub fn reset(&mut self) {
        self.store.clear();
    }

    /// Resident (host-allocated) bytes backing this bank.
    pub fn resident_bytes(&self) -> u64 {
        self.store.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> Bank {
        Bank::new(1024, 128, StorageMode::Functional)
    }

    #[test]
    fn write_read_roundtrip() {
        let mut b = bank();
        let data: Vec<u8> = (0..64u8).collect();
        b.write(5, 32, &data).unwrap();
        let mut buf = [0u8; 64];
        b.read(5, 32, &mut buf).unwrap();
        assert_eq!(buf.to_vec(), data);
    }

    #[test]
    fn rows_are_isolated() {
        let mut b = bank();
        b.write(1, 0, &[0xaa; 16]).unwrap();
        let mut buf = [0xffu8; 16];
        b.read(2, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn out_of_range_row_rejected() {
        let mut b = bank();
        assert!(matches!(
            b.read(1024, 0, &mut [0u8; 8]),
            Err(HmcError::OutOfRange { .. })
        ));
    }

    #[test]
    fn block_boundary_crossing_rejected() {
        let mut b = bank();
        // 64 bytes at offset 96 would cross the 128-byte block boundary.
        assert!(matches!(
            b.write(0, 96, &[0u8; 64]),
            Err(HmcError::InvalidAddress { .. })
        ));
        // Exactly reaching the boundary is fine.
        b.write(0, 96, &[0u8; 32]).unwrap();
    }

    /// A span past the bank's capacity used to abort inside the store;
    /// it is refused here, typed, before storage is reached.
    #[test]
    fn out_of_range_read_is_a_typed_error() {
        let mut b = Bank::new(4, 32, StorageMode::Functional);
        let mut buf = [0x77u8; 20];
        for row in [4, u64::MAX] {
            assert!(matches!(
                b.read(row, 0, &mut buf),
                Err(HmcError::OutOfRange {
                    what: "row",
                    limit: 4,
                    ..
                })
            ));
        }
        // The last row holds bytes 96..128: 20 bytes at 26 would leave it.
        assert!(matches!(
            b.read(3, 26, &mut buf),
            Err(HmcError::InvalidAddress { addr: 122, .. })
        ));
        assert!(matches!(
            b.read(3, u32::MAX, &mut buf),
            Err(HmcError::InvalidAddress { .. })
        ));
        assert_eq!(buf, [0x77; 20], "a refused read leaves the buffer alone");
    }

    #[test]
    fn out_of_range_write_is_a_typed_error() {
        let mut b = Bank::new(4, 32, StorageMode::Functional);
        assert!(matches!(
            b.write(4, 0, &[1; 20]),
            Err(HmcError::OutOfRange { what: "row", .. })
        ));
        assert!(matches!(
            b.write(3, 26, &[1; 20]),
            Err(HmcError::InvalidAddress { .. })
        ));
        assert!(matches!(
            b.two_add8(3, 24, 1, 1),
            Err(HmcError::InvalidAddress { .. })
        ));
        assert!(matches!(b.add16(4, 0, 1), Err(HmcError::OutOfRange { .. })));
        assert!(matches!(
            b.bit_write(3, 25, 1, 1),
            Err(HmcError::InvalidAddress { .. })
        ));
        assert_eq!(b.resident_bytes(), 0, "a refused call materializes nothing");
    }

    #[test]
    fn two_add8_is_a_dual_wrapping_add() {
        let mut b = bank();
        b.write(0, 0, &100u64.to_le_bytes()).unwrap();
        b.write(0, 8, &u64::MAX.to_le_bytes()).unwrap();
        let (old0, old1) = b.two_add8(0, 0, 5, 2).unwrap();
        assert_eq!(old0, 100);
        assert_eq!(old1, u64::MAX);
        let mut buf = [0u8; 8];
        b.read(0, 0, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 105);
        b.read(0, 8, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 1, "wrapping add");
    }

    #[test]
    fn add16_is_a_128_bit_add() {
        let mut b = bank();
        b.write(0, 16, &u128::MAX.to_le_bytes()).unwrap();
        let old = b.add16(0, 16, 3).unwrap();
        assert_eq!(old, u128::MAX);
        let mut buf = [0u8; 16];
        b.read(0, 16, &mut buf).unwrap();
        assert_eq!(u128::from_le_bytes(buf), 2, "carry propagates across words");
    }

    #[test]
    fn bit_write_respects_mask() {
        let mut b = bank();
        b.write(0, 0, &0xffff_0000_ffff_0000u64.to_le_bytes()).unwrap();
        let old = b
            .bit_write(0, 0, 0x1234_5678_9abc_def0, 0x0000_ffff_0000_ffff)
            .unwrap();
        assert_eq!(old, 0xffff_0000_ffff_0000);
        let mut buf = [0u8; 8];
        b.read(0, 0, &mut buf).unwrap();
        assert_eq!(
            u64::from_le_bytes(buf),
            (0xffff_0000_ffff_0000u64 & !0x0000_ffff_0000_ffffu64)
                | (0x1234_5678_9abc_def0u64 & 0x0000_ffff_0000_ffffu64)
        );
    }

    #[test]
    fn word_updates_roundtrip_in_place() {
        let mut b = bank();
        assert_eq!(
            b.update(9, 40, |_: [u8; 8]| 0x0123_4567_89ab_cdefu64.to_le_bytes()),
            [0; 8]
        );
        let old = b.update(9, 40, |old: [u8; 8]| {
            (u64::from_le_bytes(old) + 1).to_le_bytes()
        });
        assert_eq!(u64::from_le_bytes(old), 0x0123_4567_89ab_cdef);
        let mut buf = [0u8; 16];
        b.read(9, 40, &mut buf).unwrap();
        assert_eq!(
            u64::from_le_bytes(buf[..8].try_into().unwrap()),
            0x0123_4567_89ab_cdf0
        );
        assert_eq!(buf[8..], [0u8; 8], "the next word is untouched");
        assert_eq!(b.resident_bytes(), 128, "two updates, one cell");
    }

    #[test]
    fn timing_only_skips_data_but_counts() {
        // No bytes, but every span is checked as on a functional bank.
        let mut b = Bank::new(64, 128, StorageMode::TimingOnly);
        b.write(0, 0, &[0xee; 32]).unwrap();
        let mut buf = [0xffu8; 32];
        b.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 32], "timing-only reads return zeros");
        assert!(b.read(64, 0, &mut buf).is_err(), "spans are still checked");
        assert_eq!(b.resident_bytes(), 0, "no rows materialized");
        assert_eq!(b.two_add8(0, 0, 1, 1).unwrap(), (0, 0));
        assert_eq!(b.add16(0, 0, 1).unwrap(), 0);
        assert_eq!(b.bit_write(0, 0, 1, 1).unwrap(), 0);
    }

    #[test]
    fn corrupt_word_flips_bits_without_side_effects() {
        let mut b = bank();
        b.write(7, 0, &0x00ff_00ff_00ff_00ffu64.to_le_bytes()).unwrap();
        b.corrupt_word(7, 0, 0x0000_0000_0000_00ff);
        let mut buf = [0u8; 8];
        b.read(7, 0, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 0x00ff_00ff_00ff_0000);
        // Out-of-range coordinates are silently ignored.
        b.corrupt_word(4096, 0, u64::MAX);
        b.corrupt_word(0, 1024, u64::MAX);
        assert_eq!(b.resident_bytes(), 128, "the faulted row only");
        // Timing-only banks ignore the data entirely.
        let mut t = Bank::new(64, 128, StorageMode::TimingOnly);
        t.corrupt_word(0, 0, u64::MAX);
        assert_eq!(t.resident_bytes(), 0, "no rows materialized");
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut b = bank();
        b.write(0, 0, &[5; 8]).unwrap();
        b.reset();
        assert_eq!(b.resident_bytes(), 0);
        let mut buf = [0xffu8; 8];
        b.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }
}
