//! The two burst/gap benchmark schedules, batched against stepped.
//!
//! `idle_ff` sends bursts of 4 reads with gaps of about 20,000 cycles
//! under the classic backend; `bursty_ff_ddr` sends bursts of 16 reads
//! to rows of one bank with gaps of about 512 cycles under DDR. Both are
//! driven here exactly as `benchmark/src/burst_gap.rs` drives them (the
//! same addresses, gap jitter and tail), at the scale of that file's own
//! stepped-vs-fast-forward check: one run clocks every span with one
//! `clock_batch`, which jumps what the fast-forward horizon proves dead,
//! and the other with one `clock()` per cycle. The clock, the response
//! `(tag, latency)` stream and `SimStats` must agree. The bursty shape
//! also runs over the ring and the mesh, where the horizon first asks
//! whether the fabric still holds a packet.

use hmc_sim::hmc_core::{HmcSim, NocParams, SimParams, SimStats, TimingParams};
use hmc_sim::hmc_types::{
    BlockSize, Command, DeviceConfig, InterconnectKind, LinkId, Packet, StorageMode, TimingKind,
};
use hmc_sim::hmc_workloads::GlibcRandom;

/// The benchmark's seed.
const SEED: u32 = 1;

/// One burst/gap schedule.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    bursts: u64,
    burst_len: u16,
    gap: u64,
    timing: TimingKind,
    fabric: InterconnectKind,
}

/// `idle_ff` at the size its stepped-vs-fast-forward check runs:
/// 80,000 bursts ÷ 50, capped at 1,500,000 cycles ÷ 20,000 a gap.
const IDLE: Schedule = Schedule {
    bursts: 75,
    burst_len: 4,
    gap: 20_000,
    timing: TimingKind::Classic,
    fabric: InterconnectKind::Crossbar,
};

/// `bursty_ff_ddr` at 1/50 scale: 1,200 bursts ÷ 50.
const BURSTY_DDR: Schedule = Schedule {
    bursts: 24,
    burst_len: 16,
    gap: 512,
    timing: TimingKind::Ddr,
    fabric: InterconnectKind::Crossbar,
};

/// What one run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    clock: u64,
    /// `(tag, latency)` of every response, in drain order.
    responses: Vec<(u16, u64)>,
    stats: SimStats,
}

/// Advance `n` cycles: one batch, or one `clock()` per cycle.
fn advance(sim: &mut HmcSim, n: u64, batched: bool) {
    if batched {
        sim.clock_batch(n).unwrap();
    } else {
        (0..n).for_each(|_| sim.clock().unwrap());
    }
}

fn drain(sim: &mut HmcSim, responses: &mut Vec<(u16, u64)>) {
    for link in 0..4 {
        while let Ok((packet, latency)) = sim.recv_with_latency(0, link) {
            responses.push((packet.tag(), latency));
        }
    }
}

fn run(s: Schedule, batched: bool) -> Outcome {
    let cfg = DeviceConfig::small().with_storage_mode(StorageMode::TimingOnly);
    let mut sim = HmcSim::new(1, cfg).unwrap().with_params(SimParams {
        timing: TimingParams::of(s.timing),
        interconnect: NocParams::of(s.fabric),
        ..SimParams::default()
    });
    for l in 0..4 {
        sim.connect_host(0, l, sim.host_cube_id(0)).unwrap();
    }
    let offset = GlibcRandom::new(SEED).below(1 << 30);
    let mut gaps = GlibcRandom::new(SEED ^ 0x9e37);
    let mut responses = Vec::new();
    let mut tag = 0u16;
    for burst in 0..s.bursts {
        for i in 0..s.burst_len {
            let link = (i % 4) as LinkId;
            let addr = ((offset + burst * 0x9e37 + u64::from(i) * 0x1_0000) % (1 << 30)) & !63;
            let read = Packet::request(Command::Rd(BlockSize::B64), 0, addr, tag, link, &[]);
            let read = read.unwrap();
            // A full crossbar: give the device a cycle and free link
            // buffers before retrying the same request.
            while sim.send(0, link, read.clone()).is_err() {
                advance(&mut sim, 1, batched);
                drain(&mut sim, &mut responses);
            }
            tag = (tag + 1) % 512;
        }
        let gap = s.gap - s.gap / 4 + gaps.below(s.gap / 2 + 1);
        advance(&mut sim, gap, batched);
        drain(&mut sim, &mut responses);
    }
    while !sim.is_idle() {
        advance(&mut sim, 64, batched);
        drain(&mut sim, &mut responses);
    }
    let requests = s.bursts * u64::from(s.burst_len);
    assert_eq!(
        responses.len() as u64,
        requests,
        "{s:?}: every read answers"
    );
    Outcome {
        clock: sim.current_clock(),
        responses,
        stats: sim.stats(),
    }
}

fn assert_batched_matches_stepped(s: Schedule) -> Outcome {
    let stepped = run(s, false);
    assert_eq!(run(s, true), stepped, "{s:?}");
    stepped
}

#[test]
fn idle_ff_schedule_batched_matches_stepped() {
    let out = assert_batched_matches_stepped(IDLE);
    assert!(
        out.clock > IDLE.bursts * IDLE.gap * 3 / 4,
        "the gaps elapsed"
    );
}

#[test]
fn bursty_ff_ddr_schedule_batched_matches_stepped() {
    let out = assert_batched_matches_stepped(BURSTY_DDR);
    assert!(out.stats.row_misses > 0, "the row-buffer model ran");
}

#[test]
fn bursty_ddr_schedule_over_buffered_fabrics_batched_matches_stepped() {
    for fabric in [InterconnectKind::Ring, InterconnectKind::Mesh] {
        let out = assert_batched_matches_stepped(Schedule {
            fabric,
            ..BURSTY_DDR
        });
        assert!(
            out.stats.noc_hops > 0,
            "{fabric:?}: packets crossed the fabric"
        );
    }
}
