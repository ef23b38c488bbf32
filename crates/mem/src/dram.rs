//! DRAM die modelling.
//!
//! Within a bank, data is striped across a block of DRAM dies ("Each bank
//! contains a reference to a block of DRAMs. … The DRAM contains the
//! designated data storage for all I/O operations", paper §IV.A). The vault
//! controller addresses DRAM in 16-byte units and performs all reads and
//! writes as 32-byte column fetches (§III.A).
//!
//! This module models the *accounting* side of the DRAM layer: which dies a
//! column fetch touches and how many fetches an access requires. Actual
//! bytes live in the bank's [`RowStore`](crate::storage::RowStore).

/// Bytes delivered by one column fetch (§III.A).
pub const COLUMN_FETCH_BYTES: usize = 32;

/// Bytes of DRAM addressing granularity (1 Mb blocks each addressing
/// 16 bytes, §III.A).
pub const DRAM_ADDRESS_BYTES: usize = 16;

/// Per-die access counters for one bank's block of DRAMs.
#[derive(Debug, Clone)]
pub struct DramBlock {
    /// Column-fetch count per die.
    accesses: Vec<u64>,
}

impl DramBlock {
    /// Create a block of `dies` DRAM dies.
    pub fn new(dies: u16) -> Self {
        DramBlock {
            accesses: vec![0; dies as usize],
        }
    }

    /// Number of dies in the block.
    pub fn dies(&self) -> u16 {
        self.accesses.len() as u16
    }

    /// Number of column fetches needed for an access of `bytes` bytes.
    pub fn column_fetches(bytes: usize) -> usize {
        bytes.div_ceil(COLUMN_FETCH_BYTES)
    }

    /// Record an access of `bytes` bytes starting at bank-local `offset`,
    /// crediting each die its column fetches. Dies are interleaved in
    /// 16-byte units: die = (offset / 16) % dies.
    pub fn record_access(&mut self, offset: u64, bytes: usize) {
        let dies = self.accesses.len() as u64;
        if dies == 0 || bytes == 0 {
            return;
        }
        let first_unit = offset / DRAM_ADDRESS_BYTES as u64;
        let units = bytes.div_ceil(DRAM_ADDRESS_BYTES) as u64;
        for u in first_unit..first_unit + units {
            self.accesses[(u % dies) as usize] += 1;
        }
    }

    /// Access count (16-byte unit touches) of a single die.
    pub fn die_accesses(&self, die: u16) -> u64 {
        self.accesses[die as usize]
    }

    /// Total unit touches across all dies.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Reset counters (device reset).
    pub fn reset(&mut self) {
        self.accesses.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_fetch_math() {
        // §III.A: requests are performed in 32-byte column fetches.
        assert_eq!(DramBlock::column_fetches(16), 1);
        assert_eq!(DramBlock::column_fetches(32), 1);
        assert_eq!(DramBlock::column_fetches(33), 2);
        assert_eq!(DramBlock::column_fetches(64), 2);
        assert_eq!(DramBlock::column_fetches(128), 4);
    }

    #[test]
    fn accesses_stripe_across_dies() {
        let mut b = DramBlock::new(4);
        // A 64-byte access = four 16-byte units touching dies 0,1,2,3.
        b.record_access(0, 64);
        for d in 0..4 {
            assert_eq!(b.die_accesses(d), 1);
        }
        // A second 64-byte access at offset 64 wraps to the same dies.
        b.record_access(64, 64);
        for d in 0..4 {
            assert_eq!(b.die_accesses(d), 2);
        }
        assert_eq!(b.total_accesses(), 8);
    }

    #[test]
    fn unaligned_offset_starts_on_the_right_die() {
        let mut b = DramBlock::new(8);
        b.record_access(48, 16); // unit 3 -> die 3
        assert_eq!(b.die_accesses(3), 1);
        assert_eq!(b.total_accesses(), 1);
    }

    #[test]
    fn small_access_touches_one_die() {
        let mut b = DramBlock::new(16);
        b.record_access(0, 8);
        assert_eq!(b.die_accesses(0), 1);
        assert_eq!(b.total_accesses(), 1);
    }

    #[test]
    fn reset_clears_counts() {
        let mut b = DramBlock::new(2);
        b.record_access(0, 128);
        assert!(b.total_accesses() > 0);
        b.reset();
        assert_eq!(b.total_accesses(), 0);
    }

    #[test]
    fn zero_byte_access_is_a_noop() {
        let mut b = DramBlock::new(4);
        b.record_access(0, 0);
        assert_eq!(b.total_accesses(), 0);
    }
}
