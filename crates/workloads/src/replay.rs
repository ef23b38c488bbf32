//! Trace-replay workloads.
//!
//! Records an operation stream to a simple CSV form (`kind,addr,size`)
//! and replays it later — the bridge between HMC-Sim and trace-driven
//! front-ends (CPU simulators, instrumentation traces) that the paper's
//! host-agnostic design targets ("attached to an arbitrary core
//! processor", abstract).

use std::io::{BufRead, Write};

use hmc_types::{BlockSize, HmcError, Result};

use crate::op::{MemOp, OpKind, Workload};

/// A workload replaying a recorded operation list.
#[derive(Debug, Clone)]
pub struct Replay {
    ops: Vec<MemOp>,
    idx: usize,
}

impl Replay {
    /// Replay an in-memory operation list.
    pub fn new(ops: Vec<MemOp>) -> Self {
        Replay { ops, idx: 0 }
    }

    /// Record another workload's full stream for later replay.
    pub fn record<W: Workload>(workload: &mut W) -> Self {
        let mut ops = Vec::new();
        while let Some(op) = workload.next_op() {
            ops.push(op);
        }
        Replay::new(ops)
    }

    /// Number of operations in the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Reset to the beginning (re-runnable).
    pub fn rewind(&mut self) {
        self.idx = 0;
    }

    /// Serialize as CSV: `kind,addr,size` with a header line.
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "kind,addr,size")?;
        for op in &self.ops {
            writeln!(w, "{},{:#x},{}", kind_name(op.kind), op.addr, op.size.bytes())?;
        }
        Ok(())
    }

    /// Parse the CSV form produced by [`Replay::write_csv`].
    ///
    /// Blank lines, `#`-prefixed comment lines (conformance repro files
    /// carry their provenance this way), and the `kind,addr,size` header
    /// are skipped wherever they appear.
    pub fn read_csv<R: BufRead>(r: R) -> Result<Self> {
        let mut ops = Vec::new();
        // Numbered from 1, as an editor shows them.
        for (line, lineno) in r.lines().zip(1u64..) {
            let line = line.map_err(|e| HmcError::Internal(format!("trace read: {e}")))?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with("kind") {
                continue;
            }
            let mut parts = line.split(',');
            let (kind, addr, size) = (
                parts.next().unwrap_or(""),
                parts.next().unwrap_or(""),
                parts.next().unwrap_or(""),
            );
            let kind = parse_kind(kind).ok_or_else(|| {
                HmcError::InvalidConfig(format!("trace line {lineno}: unknown kind {kind:?}"))
            })?;
            let addr = parse_addr(addr).ok_or_else(|| {
                HmcError::InvalidConfig(format!("trace line {lineno}: bad address {addr:?}"))
            })?;
            let size = size
                .trim()
                .parse()
                .ok()
                .and_then(|bytes| BlockSize::from_bytes(bytes).ok())
                .ok_or_else(|| {
                    HmcError::InvalidConfig(format!("trace line {lineno}: bad size {size:?}"))
                })?;
            ops.push(MemOp { kind, addr, size });
        }
        Ok(Replay::new(ops))
    }
}

fn kind_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Read => "RD",
        OpKind::Write => "WR",
        OpKind::PostedWrite => "P_WR",
        OpKind::TwoAdd8 => "2ADD8",
        OpKind::Add16 => "ADD16",
        OpKind::BitWrite => "BWR",
    }
}

fn parse_kind(s: &str) -> Option<OpKind> {
    Some(match s.trim() {
        "RD" => OpKind::Read,
        "WR" => OpKind::Write,
        "P_WR" => OpKind::PostedWrite,
        "2ADD8" => OpKind::TwoAdd8,
        "ADD16" => OpKind::Add16,
        "BWR" => OpKind::BitWrite,
        _ => return None,
    })
}

fn parse_addr(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

impl Workload for Replay {
    fn next_op(&mut self) -> Option<MemOp> {
        let op = self.ops.get(self.idx).copied();
        if op.is_some() {
            self.idx += 1;
        }
        op
    }

    fn name(&self) -> &'static str {
        "replay"
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.ops.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_access::RandomAccess;

    #[test]
    fn replays_in_recorded_order() {
        let ops = vec![
            MemOp::read(0x40, BlockSize::B64),
            MemOp::write(0x80, BlockSize::B32),
        ];
        let mut r = Replay::new(ops.clone());
        assert_eq!(r.next_op(), Some(ops[0]));
        assert_eq!(r.next_op(), Some(ops[1]));
        assert_eq!(r.next_op(), None);
        r.rewind();
        assert_eq!(r.next_op(), Some(ops[0]));
    }

    #[test]
    fn records_another_workload_faithfully() {
        let mut source = RandomAccess::new(1, 1 << 20, BlockSize::B64, 50, 100);
        let mut replay = Replay::record(&mut source);
        assert_eq!(replay.len(), 100);
        let mut source2 = RandomAccess::new(1, 1 << 20, BlockSize::B64, 50, 100);
        for _ in 0..100 {
            assert_eq!(replay.next_op(), source2.next_op());
        }
    }

    #[test]
    fn csv_roundtrip_preserves_every_op() {
        let ops = vec![
            MemOp::read(0x1234, BlockSize::B128),
            MemOp::write(0, BlockSize::B16),
            MemOp {
                kind: OpKind::PostedWrite,
                addr: 0x3_0000_0000,
                size: BlockSize::B64,
            },
            MemOp {
                kind: OpKind::Add16,
                addr: 16,
                size: BlockSize::B16,
            },
            MemOp {
                kind: OpKind::TwoAdd8,
                addr: 32,
                size: BlockSize::B16,
            },
            MemOp {
                kind: OpKind::BitWrite,
                addr: 48,
                size: BlockSize::B16,
            },
        ];
        let r = Replay::new(ops.clone());
        let mut buf = Vec::new();
        r.write_csv(&mut buf).unwrap();
        let parsed = Replay::read_csv(&buf[..]).unwrap();
        assert_eq!(parsed.ops, ops);
    }

    #[test]
    fn csv_parse_rejects_garbage() {
        // The reported line is the one an editor shows: 1-based, with
        // header, blank and comment lines counted.
        for (text, want) in [
            ("XX,0x0,64\n", "trace line 1: unknown kind \"XX\""),
            ("kind,addr,size\nXX,0x0,64\n", "trace line 2: unknown kind \"XX\""),
            ("kind,addr,size\n\nRD,zzz,64\n", "trace line 3: bad address \"zzz\""),
            ("kind,addr,size\nRD,0x0,63\n", "trace line 2: bad size \"63\""),
            (
                "# hmc-conform reproduction\n# seed: 0x5eed\nkind,addr,size\nRD,0x40,64\nWR,0x80,big\n",
                "trace line 5: bad size \"big\"",
            ),
        ] {
            match Replay::read_csv(text.as_bytes()) {
                Err(HmcError::InvalidConfig(msg)) => assert_eq!(msg, want, "{text:?}"),
                other => panic!("{text:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn blank_lines_and_header_are_skipped() {
        let parsed = Replay::read_csv("kind,addr,size\n\nRD,0x40,64\n\n".as_bytes()).unwrap();
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn comment_lines_are_skipped() {
        let text = "# hmc-conform reproduction\n# seed: 0x5eed\nkind,addr,size\nRD,0x40,64\n# trailing note\nWR,0x80,16\n";
        let parsed = Replay::read_csv(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
    }
}
