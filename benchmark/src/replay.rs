//! Isolated layer replays.
//!
//! Some layers cannot be separated from outside while the driver runs:
//! packet building, CRC and address decode all happen inside
//! `Host::try_issue`, bank storage inside `HmcSim::clock`, the wire
//! codec inside the server's connection threads. Each replay here feeds
//! one such layer the workload's own generated op stream, through the
//! layer's public functions, and times nothing else. They run in the
//! traced pass only.

use std::hint::black_box;
use std::time::Instant;

use hmc_core::{DdrTiming, VaultTiming};
use hmc_mem::VaultMemory;
use hmc_types::address::{AddressMap, DecodedAddr};
use hmc_types::{DeviceConfig, Frame, LinkId, Packet, PhysAddr, TimingKind};
use hmc_workloads::{MemOp, OpKind, Workload};

use crate::harness::Layers;

/// Ops one replay consumes at most; enough for stable per-op figures
/// while keeping the whole traced pass inside its time budget.
pub const REPLAY_OPS: usize = 200_000;

/// Ops per wire frame in the codec replays (the serve batch size).
const FRAME_OPS: usize = 512;

/// Packets the CRC replay cycles through.
const CRC_SAMPLE: usize = 1024;

fn per_op(start: Instant, n: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Pull up to [`REPLAY_OPS`] ops out of a generator, timing the pulls:
/// returns the ops and `workloads.next_op_ns_per_req`.
pub fn pull_ops<W: Workload + ?Sized>(workload: &mut W) -> (Vec<MemOp>, f64) {
    let mut ops = Vec::with_capacity(REPLAY_OPS);
    let t = Instant::now();
    while ops.len() < REPLAY_OPS {
        match workload.next_op() {
            Some(op) => ops.push(op),
            None => break,
        }
    }
    let ns = per_op(t, ops.len());
    (ops, ns)
}

/// The payload `Host::try_issue` would attach: a pattern derived from
/// the address.
fn payload(op: &MemOp, buf: &mut [u8; 128]) -> usize {
    let n = op.payload_bytes();
    let seed = op.addr as u8;
    for (i, b) in buf[..n].iter_mut().enumerate() {
        *b = seed.wrapping_add(i as u8);
    }
    n
}

/// `types.*` replays on `ops`: packet build (header, payload copy,
/// seal), CRC verification of the built packets, address decode, and the
/// wire codec over 512-op submit frames.
pub fn types_layer(ops: &[MemOp], config: &DeviceConfig, out: &mut Layers) {
    if ops.is_empty() {
        return;
    }
    let links = config.num_links;
    let mut buf = [0u8; 128];
    let build = |i: usize, op: &MemOp, buf: &mut [u8; 128]| {
        let n = payload(op, buf);
        let link = (i % links as usize) as LinkId;
        Packet::request(op.command(), 0, op.addr, (i % 512) as u16, link, &buf[..n])
            .expect("generated ops build valid packets")
    };
    let t = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        black_box(build(i, op, &mut buf));
    }
    out.set("types.packet_build_ns_per_req", per_op(t, ops.len()));

    // Verify a cache-resident sample of the packets over and over, so
    // the figure is the CRC's cost and not the memory system's.
    let sample: Vec<Packet> = ops
        .iter()
        .take(CRC_SAMPLE)
        .enumerate()
        .map(|(i, op)| build(i, op, &mut buf))
        .collect();
    let rounds = ops.len().div_ceil(sample.len());
    let t = Instant::now();
    let mut good = 0usize;
    for _ in 0..rounds {
        for p in &sample {
            good += usize::from(black_box(p).verify_crc());
        }
    }
    out.set(
        "types.crc_verify_ns_per_pkt",
        per_op(t, rounds * sample.len()),
    );
    assert_eq!(good, rounds * sample.len(), "sealed packets verify");

    let map = config.default_map().expect("preset geometry maps");
    let t = Instant::now();
    for op in ops {
        let at = PhysAddr::new(op.addr).and_then(|a| map.decode(a));
        black_box(at.expect("generated addresses decode"));
    }
    out.set("types.addr_decode_ns_per_req", per_op(t, ops.len()));

    let frames: Vec<Frame> = ops
        .chunks(FRAME_OPS)
        .map(|chunk| Frame::SubmitBatch {
            session: 1,
            ops: chunk.iter().map(hmc_serve::memop_to_wire).collect(),
        })
        .collect();
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(|f| black_box(f).encode_body()).collect();
    out.set("types.wire_encode_ns_per_op", per_op(t, ops.len()));
    let t = Instant::now();
    for body in &encoded {
        black_box(Frame::decode_body(black_box(body)).expect("encoded frames decode"));
    }
    out.set("types.wire_decode_ns_per_op", per_op(t, ops.len()));
}

/// `core.sim_new_ms`: median host time of `HmcSim::new` alone.
pub fn sim_new_ms(config: &DeviceConfig) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(hmc_core::HmcSim::new(1, config.clone()).expect("preset validates"));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&samples)
}

/// `mem.access_ns_per_req`: the decoded stream through one
/// `VaultMemory` per vault, in the config's storage mode.
pub fn mem_layer(ops: &[MemOp], config: &DeviceConfig, out: &mut Layers) {
    if ops.is_empty() {
        return;
    }
    let map = config.default_map().expect("preset geometry maps");
    let decoded: Vec<(DecodedAddr, &MemOp)> = ops
        .iter()
        .map(|op| {
            (
                map.decode(PhysAddr::new_truncating(op.addr))
                    .expect("decodes"),
                op,
            )
        })
        .collect();
    let mut vaults: Vec<VaultMemory> = (0..config.num_vaults)
        .map(|_| VaultMemory::new(config))
        .collect();
    let mut buf = [0u8; 128];
    let t = Instant::now();
    for (at, op) in &decoded {
        let mem = &mut vaults[at.vault as usize];
        let n = op.size.bytes();
        match op.kind {
            OpKind::Read => mem.read(*at, &mut buf[..n]).expect("in range"),
            OpKind::Write | OpKind::PostedWrite => {
                let n = payload(op, &mut buf);
                mem.write(*at, &buf[..n]).expect("in range");
            }
            OpKind::TwoAdd8 => {
                black_box(mem.two_add8(*at, op.addr, 1).expect("in range"));
            }
            OpKind::Add16 => {
                black_box(mem.add16(*at, u128::from(op.addr)).expect("in range"));
            }
            OpKind::BitWrite => {
                black_box(mem.bit_write(*at, op.addr, 0xff).expect("in range"));
            }
        }
    }
    black_box(&buf);
    out.set("mem.access_ns_per_req", per_op(t, decoded.len()));
}

/// `core.ddr_issue_ns_per_access`: the stream's (bank, row) sequence
/// through one `DdrTiming` per vault — `blocked_until` until the bank
/// admits the access, then `try_issue`.
pub fn ddr_layer(ops: &[MemOp], config: &DeviceConfig, out: &mut Layers) {
    if ops.is_empty() {
        return;
    }
    let map = config.default_map().expect("preset geometry maps");
    let decoded: Vec<DecodedAddr> = ops
        .iter()
        .map(|op| {
            map.decode(PhysAddr::new_truncating(op.addr))
                .expect("decodes")
        })
        .collect();
    let timings = hmc_core::TimingParams::of(TimingKind::Ddr).ddr;
    let mut vaults: Vec<(DdrTiming, u64)> = (0..config.num_vaults)
        .map(|v| {
            (
                DdrTiming::new(timings, v, config.banks_per_vault, None),
                0u64,
            )
        })
        .collect();
    let t = Instant::now();
    for at in &decoded {
        let (timing, cycle) = &mut vaults[at.vault as usize];
        while let Some(retry) = timing.blocked_until(at.bank, at.row, *cycle) {
            *cycle = retry;
        }
        black_box(timing.try_issue(at.bank, at.row, *cycle));
        *cycle += 1;
    }
    out.set("core.ddr_issue_ns_per_access", per_op(t, decoded.len()));
}
