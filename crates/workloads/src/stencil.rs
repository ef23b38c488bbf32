//! A 2D five-point stencil sweep.
//!
//! Scientific kernels like Jacobi relaxation read a cell's four neighbours
//! and write the cell. Mapped onto an HMC device, row-neighbour reads hit
//! adjacent interleave positions while column neighbours land `width`
//! blocks away — a structured mix of locality and conflict that
//! complements the random and streaming workloads.

use hmc_types::BlockSize;

use crate::op::{MemOp, Workload};

/// A five-point stencil sweep over a `width × height` grid of blocks.
#[derive(Debug, Clone)]
pub struct Stencil {
    width: u64,
    height: u64,
    block: BlockSize,
    x: u64,
    y: u64,
    phase: u8,
    sweeps_left: u64,
    done: bool,
}

impl Stencil {
    /// A stencil over a `width × height` grid of `block`-sized cells,
    /// swept `sweeps` times. Interior cells only (borders are skipped),
    /// so both dimensions must be at least 3.
    ///
    /// # Panics
    /// Panics if either dimension is below 3 or `sweeps` is zero.
    pub fn new(width: u64, height: u64, block: BlockSize, sweeps: u64) -> Self {
        assert!(width >= 3 && height >= 3, "grid must be at least 3x3");
        assert!(sweeps > 0, "at least one sweep");
        Stencil {
            width,
            height,
            block,
            x: 1,
            y: 1,
            phase: 0,
            sweeps_left: sweeps,
            done: false,
        }
    }

    fn cell_addr(&self, x: u64, y: u64) -> u64 {
        (y * self.width + x) * self.block.bytes() as u64
    }
}

impl Workload for Stencil {
    fn next_op(&mut self) -> Option<MemOp> {
        if self.done {
            return None;
        }
        let (x, y) = (self.x, self.y);
        let op = match self.phase {
            0 => MemOp::read(self.cell_addr(x - 1, y), self.block),
            1 => MemOp::read(self.cell_addr(x + 1, y), self.block),
            2 => MemOp::read(self.cell_addr(x, y - 1), self.block),
            3 => MemOp::read(self.cell_addr(x, y + 1), self.block),
            _ => MemOp::write(self.cell_addr(x, y), self.block),
        };
        self.phase += 1;
        if self.phase == 5 {
            self.phase = 0;
            self.x += 1;
            if self.x == self.width - 1 {
                self.x = 1;
                self.y += 1;
                if self.y == self.height - 1 {
                    self.y = 1;
                    self.sweeps_left -= 1;
                    if self.sweeps_left == 0 {
                        self.done = true;
                    }
                }
            }
        }
        Some(op)
    }

    fn name(&self) -> &'static str {
        "stencil-5pt"
    }

    fn len_hint(&self) -> Option<u64> {
        Some((self.width - 2) * (self.height - 2) * 5 * self.sweeps_left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    #[test]
    fn one_interior_cell_emits_four_reads_then_a_write() {
        let mut s = Stencil::new(3, 3, BlockSize::B64, 1);
        let ops: Vec<MemOp> = std::iter::from_fn(|| s.next_op()).collect();
        assert_eq!(ops.len(), 5);
        assert!(ops[..4].iter().all(|o| o.kind == OpKind::Read));
        assert_eq!(ops[4].kind, OpKind::Write);
        // Cross around centre (1,1) on a 3-wide grid of 64-byte cells.
        assert_eq!(ops[0].addr, 3 * 64); // west
        assert_eq!(ops[1].addr, (3 + 2) * 64); // east
        assert_eq!(ops[2].addr, 64); // north
        assert_eq!(ops[3].addr, (2 * 3 + 1) * 64); // south
        assert_eq!(ops[4].addr, (3 + 1) * 64); // centre
    }

    #[test]
    fn op_count_matches_formula() {
        let mut s = Stencil::new(6, 5, BlockSize::B64, 2);
        let expect = (6 - 2) * (5 - 2) * 5 * 2;
        assert_eq!(s.len_hint(), Some(expect));
        let mut n = 0;
        while s.next_op().is_some() {
            n += 1;
        }
        assert_eq!(n, expect);
    }

    #[test]
    fn addresses_stay_inside_the_grid() {
        let mut s = Stencil::new(8, 8, BlockSize::B64, 1);
        while let Some(op) = s.next_op() {
            assert!(op.addr < 8 * 8 * 64);
        }
    }

    #[test]
    #[should_panic(expected = "3x3")]
    fn degenerate_grid_rejected() {
        Stencil::new(2, 8, BlockSize::B64, 1);
    }
}
