//! The fast-forward horizon treats a crossbar request queue whose walk
//! can only re-visit requests stalled on full vault queues as inert, and
//! jumps to the vault's next bank edge instead of stepping through the
//! wait. These tests drive the traffic that lives in that state — the
//! benchmark's `bursty_ff_ddr` shape: 16 reads to rows of one bank over
//! four links into `small()`'s four-slot vault queues, then a gap of
//! about 512 cycles — through the engine stepped (one `clock()` per
//! cycle) and batched (`clock_batch`, which asks the horizon), and
//! demand that nothing observable differs.

use hmc_sim::hmc_core::{regs, topology, HmcSim, RefreshParams, SimParams, SimStats, TimingParams};
use hmc_sim::hmc_trace::{EventKind, SharedSink, TraceRecord, Tracer, VecSink, Verbosity};
use hmc_sim::hmc_types::{
    BlockSize, Command, DeviceConfig, LinkFaultConfig, LinkId, Packet, StorageMode, TimingKind,
};

const BURSTS: u64 = 24;
const BURST_LEN: u16 = 16;

/// What one run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(link, tag, latency)` of every response, in drain order.
    responses: Vec<(LinkId, u16, u64)>,
    clock: u64,
    stats: SimStats,
    /// Every trace record, when the run was traced.
    trace: Vec<TraceRecord>,
}

/// Extras layered over the plain burst/gap schedule.
#[derive(Clone, Copy, Debug, Default)]
struct Scenario {
    /// Record every event at full verbosity.
    traced: bool,
    /// Write the AC register (selecting another address map) a few
    /// cycles into every third burst, while requests sit keyed in the
    /// crossbar queues.
    ac_swaps: bool,
}

/// Receive everything waiting on the four host links.
fn drain(sim: &mut HmcSim, responses: &mut Vec<(LinkId, u16, u64)>) {
    for link in 0..4 {
        while let Ok((p, latency)) = sim.recv_with_latency(0, link) {
            responses.push((link, p.tag(), latency));
        }
    }
}

/// Advance `n` cycles: one batch, which may jump, or one `clock()` per
/// cycle.
fn advance(sim: &mut HmcSim, n: u64, batched: bool) {
    if batched {
        sim.clock_batch(n).unwrap();
    } else {
        (0..n).for_each(|_| sim.clock().unwrap());
    }
}

fn run(params: SimParams, scenario: Scenario, batched: bool) -> Outcome {
    let cfg = DeviceConfig::small().with_storage_mode(StorageMode::TimingOnly);
    // The invariant sweep runs everywhere but under map swaps, where its
    // per-(link, vault, bank) stream-order check does not apply: a swap
    // re-routes waiting requests, which regroups the streams.
    let mut sim = HmcSim::new(1, cfg).unwrap().with_params(SimParams {
        check_invariants: !scenario.ac_swaps,
        ..params
    });
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    let sink = SharedSink::new(VecSink::default());
    if scenario.traced {
        sim.set_tracer(Tracer::new(Verbosity::Full, Box::new(sink.clone())));
    }

    let mut responses = Vec::new();
    let mut tag = 0u16;
    for burst in 0..BURSTS {
        for i in 0..BURST_LEN {
            let link = (i % 4) as LinkId;
            let addr = ((burst * 0x9e37 + u64::from(i) * 0x1_0000) % (1 << 30)) & !63;
            let packet = Packet::request(Command::Rd(BlockSize::B64), 0, addr, tag, link, &[]);
            let packet = packet.unwrap();
            // A stalled send (a link down retraining) clocks one cycle
            // and retries, as a host loop would.
            let refused_until = sim.current_clock() + 100_000;
            while let Err(e) = sim.send(0, link, packet.clone()) {
                assert!(e.is_stall(), "send failed: {e:?}");
                assert!(
                    sim.current_clock() < refused_until,
                    "{:?} timing, {scenario:?}, batched {batched}: burst {burst} read {i} \
                     refused for 100,000 cycles",
                    params.timing.kind
                );
                advance(&mut sim, 1, batched);
            }
            tag += 1;
        }
        let gap = 480 + (burst * 37) % 64;
        if scenario.ac_swaps && burst % 3 == 1 {
            advance(&mut sim, 3, batched);
            let waiting: usize = (0..4)
                .map(|l| sim.device(0).unwrap().xbars[l].rqst.len())
                .sum();
            assert!(
                waiting > 0,
                "the swap must find requests waiting at the crossbar"
            );
            sim.jtag_reg_write(0, regs::AC, (burst / 3 + 1) % 3)
                .unwrap();
            advance(&mut sim, gap - 3, batched);
        } else {
            advance(&mut sim, gap, batched);
        }
        drain(&mut sim, &mut responses);
    }
    // Sixteen row conflicts on one bank outlast a gap; let the tail out.
    while responses.len() < (BURSTS * u64::from(BURST_LEN)) as usize {
        assert!(
            sim.current_clock() < 100_000,
            "{:?} timing, {scenario:?}, batched {batched}: the last bursts never drained",
            params.timing.kind
        );
        advance(&mut sim, 64, batched);
        drain(&mut sim, &mut responses);
    }
    assert_eq!(
        sim.invariant_violations(),
        &[] as &[String],
        "invariants must hold stepped and batched"
    );
    let trace = std::mem::take(&mut sink.0.lock().records);
    Outcome {
        responses,
        clock: sim.current_clock(),
        stats: sim.stats(),
        trace,
    }
}

/// The stepped run is the reference; the batched run must reproduce it
/// exactly.
fn assert_engines_agree(params: SimParams, scenario: Scenario) -> Outcome {
    let stepped = run(params, scenario, false);
    assert_eq!(stepped, run(params, scenario, true), "batched");
    stepped
}

fn timing(kind: TimingKind) -> SimParams {
    SimParams {
        timing: TimingParams::of(kind),
        ..SimParams::default()
    }
}

#[test]
fn fast_forward_matches_stepped_under_classic_and_ddr() {
    for kind in [TimingKind::Classic, TimingKind::Ddr] {
        let out = assert_engines_agree(timing(kind), Scenario::default());
        let misses = out.stats.row_misses;
        assert_eq!(misses > 0, kind == TimingKind::Ddr, "{kind:?}: {misses}");
    }
}

#[test]
fn traced_runs_record_identical_event_streams() {
    let traced = Scenario {
        traced: true,
        ..Scenario::default()
    };
    // At the default window a full vault queue also re-emits
    // `BankConflict` every cycle, which alone keeps the horizon at zero;
    // a one-entry window leaves `XbarRqstStall` as the only event of
    // the wait.
    for (kind, vault_window) in [
        (TimingKind::Classic, None),
        (TimingKind::Ddr, None),
        (TimingKind::Ddr, Some(1)),
    ] {
        let params = SimParams {
            vault_window,
            ..timing(kind)
        };
        let out = assert_engines_agree(params, traced);
        let stalls = out
            .trace
            .iter()
            .filter(|r| r.event.kind() == EventKind::XbarRqstStall)
            .count();
        assert!(
            stalls > 500,
            "{kind:?}: the schedule must stall at the crossbar cycle after cycle ({stalls})"
        );
    }
}

#[test]
fn serialized_links_and_refresh_stay_bit_identical() {
    for kind in [TimingKind::Classic, TimingKind::Ddr] {
        assert_engines_agree(
            SimParams {
                link_flits_per_cycle: Some(4),
                refresh: Some(RefreshParams {
                    interval: 64,
                    duration: 6,
                }),
                ..timing(kind)
            },
            Scenario::default(),
        );
    }
}

#[test]
fn faulty_links_stay_bit_identical() {
    let faults = LinkFaultConfig::default()
        .with_error_rate_ppm(250_000)
        .with_retry_cycles(11)
        .with_seed(0x5eed);
    for kind in [TimingKind::Classic, TimingKind::Ddr] {
        let out = assert_engines_agree(
            SimParams {
                link_faults: Some(faults),
                ..timing(kind)
            },
            Scenario::default(),
        );
        assert!(out.stats.link_retries > 0, "the links must actually retry");
    }
}

#[test]
fn ac_register_swaps_under_stalled_packets_stay_bit_identical() {
    let swaps = Scenario {
        ac_swaps: true,
        ..Scenario::default()
    };
    for kind in [TimingKind::Classic, TimingKind::Ddr] {
        let swapped = assert_engines_agree(timing(kind), swaps);
        let plain = run(timing(kind), Scenario::default(), false);
        assert_ne!(
            swapped.responses, plain.responses,
            "the swaps must re-route waiting requests"
        );
    }
}
