//! Memory operations and the workload abstraction.
//!
//! A workload is a deterministic stream of [`MemOp`]s. The host driver
//! (`hmc-host`) turns each op into a compliant request packet, injects it
//! round-robin across host links until stalled, and clocks the simulation —
//! exactly the shape of the paper's §VI.A test application.

use hmc_types::{BlockSize, Command};

/// What an operation does at its target address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Memory read of `size` bytes.
    Read,
    /// Memory write of `size` bytes.
    Write,
    /// Posted (no-response) write of `size` bytes.
    PostedWrite,
    /// Dual 8-byte atomic add.
    TwoAdd8,
    /// 16-byte atomic add.
    Add16,
    /// Masked 8-byte bit-write.
    BitWrite,
}

/// One memory operation of a workload stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Operation class.
    pub kind: OpKind,
    /// Target physical address (block aligned by generators).
    pub addr: u64,
    /// Block size for reads/writes (atomics always move one FLIT).
    pub size: BlockSize,
}

impl MemOp {
    /// A read op.
    pub fn read(addr: u64, size: BlockSize) -> Self {
        MemOp {
            kind: OpKind::Read,
            addr,
            size,
        }
    }

    /// A write op.
    pub fn write(addr: u64, size: BlockSize) -> Self {
        MemOp {
            kind: OpKind::Write,
            addr,
            size,
        }
    }

    /// The HMC command this operation maps to.
    pub fn command(&self) -> Command {
        match self.kind {
            OpKind::Read => Command::Rd(self.size),
            OpKind::Write => Command::Wr(self.size),
            OpKind::PostedWrite => Command::PostedWr(self.size),
            OpKind::TwoAdd8 => Command::TwoAdd8,
            OpKind::Add16 => Command::Add16,
            OpKind::BitWrite => Command::Bwr,
        }
    }

    /// Request payload size in bytes for this operation.
    pub fn payload_bytes(&self) -> usize {
        self.command().request_data_bytes()
    }

    /// True when the device owes the host a response for this op.
    pub fn expects_response(&self) -> bool {
        self.command().response_command().is_some()
    }
}

/// A deterministic stream of memory operations.
pub trait Workload {
    /// The next operation, or `None` when the workload is exhausted (and
    /// on every call after that).
    fn next_op(&mut self) -> Option<MemOp>;

    /// Human-readable workload name for reports.
    fn name(&self) -> &'static str;

    /// Total operations this workload will emit, when known in advance.
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_map_to_commands() {
        assert_eq!(
            MemOp::read(0, BlockSize::B64).command(),
            Command::Rd(BlockSize::B64)
        );
        assert_eq!(
            MemOp::write(0, BlockSize::B32).command(),
            Command::Wr(BlockSize::B32)
        );
        let atomic = MemOp {
            kind: OpKind::Add16,
            addr: 0,
            size: BlockSize::B16,
        };
        assert_eq!(atomic.command(), Command::Add16);
    }

    #[test]
    fn payload_sizes_follow_commands() {
        assert_eq!(MemOp::read(0, BlockSize::B128).payload_bytes(), 0);
        assert_eq!(MemOp::write(0, BlockSize::B128).payload_bytes(), 128);
        let bwr = MemOp {
            kind: OpKind::BitWrite,
            addr: 0,
            size: BlockSize::B64,
        };
        assert_eq!(bwr.payload_bytes(), 16, "atomics carry one FLIT");
    }

    #[test]
    fn posted_writes_expect_no_response() {
        let posted = MemOp {
            kind: OpKind::PostedWrite,
            addr: 0,
            size: BlockSize::B64,
        };
        assert!(!posted.expects_response());
        assert!(MemOp::write(0, BlockSize::B64).expects_response());
        assert!(MemOp::read(0, BlockSize::B64).expects_response());
    }
}
