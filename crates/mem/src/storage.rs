//! Sparse row-granular byte storage.
//!
//! HMC devices reach 8 GB; a simulator cannot eagerly allocate that much
//! host memory per bank. [`RowStore`] materialises one zeroed cell of
//! `cell_bytes` (the bank's block size, ≤ 128) per *touched row* and reads
//! an untouched row as absent — matching a freshly reset device whose DRAM
//! content is architecturally undefined (we define it as zero for
//! determinism).
//!
//! The row is the granule because it is the unit no access can leave:
//! [`Bank`](crate::bank::Bank) proves `offset + len <= block_bytes` with a
//! typed error before it reaches storage, so every operation is one lookup
//! and works in place on one cell. A random 64-byte write therefore costs
//! one cell, not a zero-filled 4 KiB page around it. The store hands out
//! whole cells and takes any `u64` as a row number, so no call can be
//! driven out of range.

use std::collections::HashMap;
use std::ops::Range;

/// Cells carved from one zeroed allocation. Cells come from chunks, not
/// from a box each, so dropping or resetting a bank is one `free` per 64
/// rows rather than one per row (a quarter-million of them at the end of
/// a functional run); chunks stay small because every bank holds a partly
/// used one.
const CHUNK_CELLS: usize = 64;

/// A sparse, zero-default store of fixed-size row cells.
#[derive(Debug)]
pub struct RowStore {
    cell_bytes: usize,
    /// Row number → cell number, in materialisation order.
    cells: HashMap<u64, usize>,
    /// `CHUNK_CELLS` cells each; [`RowStore::locate`] places cell `n`.
    chunks: Vec<Box<[u8]>>,
}

impl RowStore {
    /// Create an empty store of `cell_bytes`-byte rows. Allocates nothing.
    pub fn new(cell_bytes: u32) -> Self {
        RowStore {
            cell_bytes: cell_bytes as usize,
            cells: HashMap::new(),
            chunks: Vec::new(),
        }
    }

    /// Number of rows currently materialised.
    pub fn resident_rows(&self) -> usize {
        self.cells.len()
    }

    /// Bytes of the materialised rows: `resident_rows()` cells.
    /// The unused tail of the newest chunk is not counted.
    pub fn resident_bytes(&self) -> u64 {
        self.cells.len() as u64 * self.cell_bytes as u64
    }

    /// Where cell `n` lives: its chunk, and its bytes there.
    fn locate(&self, n: usize) -> (usize, Range<usize>) {
        let at = (n % CHUNK_CELLS) * self.cell_bytes;
        (n / CHUNK_CELLS, at..at + self.cell_bytes)
    }

    /// The cell of `row`, or `None` if the row was never touched (it reads
    /// as zeros). Never materialises anything.
    pub fn row(&self, row: u64) -> Option<&[u8]> {
        let (chunk, bytes) = self.locate(*self.cells.get(&row)?);
        Some(&self.chunks[chunk][bytes])
    }

    /// The cell of `row`, materialised zeroed on first touch.
    pub fn row_mut(&mut self, row: u64) -> &mut [u8] {
        let next = self.cells.len();
        let n = *self.cells.entry(row).or_insert(next);
        let (chunk, bytes) = self.locate(n);
        if chunk == self.chunks.len() {
            self.chunks
                .push(vec![0u8; CHUNK_CELLS * self.cell_bytes].into_boxed_slice());
        }
        &mut self.chunks[chunk][bytes]
    }

    /// Drop all resident rows (device reset).
    pub fn clear(&mut self) {
        self.cells.clear();
        self.chunks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_store_reads_zero() {
        let s = RowStore::new(64);
        assert!(s.row(12345).is_none(), "an untouched row is absent");
        assert_eq!(s.resident_rows(), 0, "reads must not materialize rows");
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut s = RowStore::new(128);
        let data: Vec<u8> = (0..64u8).collect();
        s.row_mut(1000)[32..96].copy_from_slice(&data);
        let cell = s.row(1000).unwrap();
        assert_eq!(cell.len(), 128);
        assert_eq!(&cell[32..96], &data[..]);
        assert_eq!(&cell[..32], &[0u8; 32], "the rest of a new cell is zero");
        assert_eq!(&cell[96..], &[0u8; 32]);
    }

    #[test]
    fn cells_continue_across_chunk_boundaries() {
        // 48 does not divide any power of two: a cell layout that assumed
        // so would let the last cell of a chunk run into the next.
        let mut s = RowStore::new(48);
        let rows = 3 * CHUNK_CELLS as u64 + 5;
        for row in 0..rows {
            s.row_mut(row * 7).fill(row as u8 + 1);
        }
        assert_eq!(s.resident_rows(), rows as usize);
        assert_eq!(s.resident_bytes(), rows * 48);
        for row in 0..rows {
            assert_eq!(s.row(row * 7).unwrap(), &[row as u8 + 1; 48][..]);
        }
    }

    #[test]
    fn adjacent_writes_do_not_interfere() {
        let mut s = RowStore::new(32);
        s.row_mut(0)[..16].fill(0xaa);
        s.row_mut(0)[16..].fill(0xbb);
        s.row_mut(1).fill(0xcc);
        assert_eq!(&s.row(0).unwrap()[..16], &[0xaa; 16]);
        assert_eq!(&s.row(0).unwrap()[16..], &[0xbb; 16]);
        assert_eq!(s.row(1).unwrap(), &[0xcc; 32][..]);
        assert_eq!(s.resident_rows(), 2);
    }

    #[test]
    fn sparseness_is_preserved() {
        // Any u64 is a row number: the store has no range to leave.
        let mut s = RowStore::new(128);
        s.row_mut(0)[0] = 1;
        s.row_mut(1 << 40)[7] = 2;
        s.row_mut(u64::MAX)[127] = 3;
        assert_eq!(s.resident_rows(), 3);
        assert_eq!(s.resident_bytes(), 3 * 128);
        assert_eq!(s.row(1 << 40).unwrap()[7], 2);
        assert_eq!(s.row(u64::MAX).unwrap()[127], 3);
    }

    #[test]
    fn clear_resets_contents() {
        let mut s = RowStore::new(16);
        s.row_mut(0).fill(9);
        s.clear();
        assert_eq!(s.resident_rows(), 0);
        assert!(s.row(0).is_none());
        assert_eq!(
            s.row_mut(0),
            &[0u8; 16][..],
            "a re-touched row starts zeroed"
        );
    }

    #[test]
    fn degenerate_cell_sizes_do_not_panic() {
        let mut s = RowStore::new(0);
        assert!(s.row_mut(5).is_empty());
        assert_eq!(s.row(5), Some(&[][..]));
        assert_eq!(s.resident_bytes(), 0);
    }
}
