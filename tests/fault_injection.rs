//! Error simulation (§IV requirement 5): lossy links with CRC detection
//! and retransmission penalties, plus the live-register behaviours (IBTC
//! mirrors tokens; AC switches address-map modes).

use hmc_sim::hmc_core::{regs, topology, HmcSim, SimParams, SimStats};
use hmc_sim::hmc_host::{run_workload, Host, RunConfig};
use hmc_sim::hmc_trace::{CountingSink, EventKind, SharedSink, Tracer, Verbosity};
use hmc_sim::hmc_types::{
    BlockSize, CellFaultConfig, Command, DeviceConfig, LinkFaultConfig, Mitigation, Packet,
    StorageMode,
};
use hmc_sim::hmc_workloads::{Hammer, RandomAccess};

fn sim() -> HmcSim {
    let mut s = HmcSim::new(
        1,
        DeviceConfig::small()
            .with_queue_depths(32, 16)
            .with_storage_mode(StorageMode::TimingOnly),
    )
    .unwrap();
    let host = s.host_cube_id(0);
    topology::build_simple(&mut s, host).unwrap();
    s
}

/// [`sim`] with link-fault injection armed.
fn faulty_sim(faults: LinkFaultConfig) -> HmcSim {
    sim().with_params(SimParams {
        link_faults: Some(faults),
        ..SimParams::default()
    })
}

#[test]
fn corrupted_packets_are_detected_and_recovered() {
    let mut s = faulty_sim(LinkFaultConfig {
        error_rate_ppm: 250_000,
        retry_cycles: 4,
        // Effectively unbounded retries: this test is about recovery,
        // not exhaustion (0.25^1000 never happens).
        retry_limit: 1_000,
        seed: 42,
        ..LinkFaultConfig::default()
    });
    let sink = SharedSink::new(CountingSink::default());
    s.set_tracer(Tracer::new(Verbosity::Stalls, Box::new(sink.clone())));
    let host_id = s.host_cube_id(0);
    let mut host = Host::attach(&s, host_id).unwrap();
    let mut w = RandomAccess::new(1, 1 << 28, BlockSize::B64, 50, 2_000);
    let report = run_workload(&mut s, &mut host, &mut w, RunConfig::default()).unwrap();

    // Every request still completes — retransmission recovers them all.
    assert_eq!(report.completed, 2_000);
    assert_eq!(report.errors, 0);

    let injected = s.fault_state().unwrap().injected;
    assert!(injected > 300, "~25% of 2000 packets should corrupt");
    assert_eq!(
        injected,
        s.stats().link_retries,
        "every corruption is detected and retried exactly once"
    );
    assert_eq!(
        sink.0.lock().counters.get(EventKind::LinkRetry),
        injected,
        "each detection raises one LINK_RETRY trace event"
    );
}

#[test]
fn retry_exhaustion_poisons_every_abandoned_request() {
    // Aggressive corruption against a tight retry budget: ~12% of
    // packets (0.35^2) exhaust their attempts. The device must still
    // answer *every* request — abandoned packets come back as poisoned
    // error responses, never silent drops — and each abort takes the
    // link down for a retraining window.
    let mut s = faulty_sim(LinkFaultConfig {
        error_rate_ppm: 350_000,
        retry_cycles: 3,
        retry_limit: 1,
        retrain_cycles: 16,
        seed: 0x000B_AD11,
    });
    let sink = SharedSink::new(CountingSink::default());
    s.set_tracer(Tracer::new(Verbosity::Stalls, Box::new(sink.clone())));
    let host_id = s.host_cube_id(0);
    let mut host = Host::attach(&s, host_id).unwrap();
    let mut w = RandomAccess::new(3, 1 << 28, BlockSize::B64, 50, 2_000);
    let report = run_workload(&mut s, &mut host, &mut w, RunConfig::default()).unwrap();

    // Exactly one response per request: nothing dropped, nothing doubled.
    assert_eq!(report.completed, 2_000);
    assert_eq!(host.stats.orphans, 0);

    let stats = s.stats();
    let poisoned = stats.poisoned_responses;
    assert!(poisoned > 0, "the tight cap must actually exhaust");
    assert_eq!(report.errors, poisoned, "every error is a poison");
    assert_eq!(host.stats.poisoned, poisoned);

    let counters = &sink.0.lock().counters;
    assert_eq!(
        counters.get(EventKind::LinkDown),
        poisoned,
        "one LINK_DOWN per abandoned packet"
    );
    assert_eq!(counters.get(EventKind::PoisonedResponse), poisoned);
    assert_eq!(counters.get(EventKind::LinkRetry), stats.link_retries);
    assert_eq!(
        stats.link_retries + counters.get(EventKind::LinkDown),
        s.fault_state().unwrap().injected,
        "every corruption either scheduled a retry or took the link down"
    );
    assert!(
        counters.get(EventKind::LinkRetrain) > 0,
        "downed links must come back up and log it"
    );
}

#[test]
fn retry_exhaustion_is_bit_identical_stepped_and_fast_forward() {
    // A retry budget tight enough that links go down: exhaustion aborts,
    // poisoned responses and retraining windows must land on the same
    // cycles whether dead cycles are stepped or jumped. The host visits
    // every 40 cycles, so retry timers (5) and retraining windows (24)
    // run out inside batches the device otherwise sits idle in.
    let faults = LinkFaultConfig {
        error_rate_ppm: 300_000,
        retry_cycles: 5,
        retry_limit: 1,
        retrain_cycles: 24,
        seed: 0x0015_04ED,
    };
    const REQUESTS: u64 = 1_000;
    // Batched (`clock_batch`, which may jump) or one `clock()` a cycle.
    let run = |batched: bool| {
        let mut s = HmcSim::new(1, DeviceConfig::small())
            .unwrap()
            .with_params(SimParams {
                link_faults: Some(faults),
                ..SimParams::default()
            });
        let host = s.host_cube_id(0);
        topology::build_simple(&mut s, host).unwrap();
        let counting = SharedSink::new(CountingSink::default());
        s.set_tracer(Tracer::new(Verbosity::Full, Box::new(counting.clone())));
        let blocks = s.config().capacity_bytes / 64;
        let mut sent = 0u64;
        let mut seen = Vec::new();
        while (seen.len() as u64) < REQUESTS {
            'inject: for link in 0..4u8 {
                loop {
                    if sent == REQUESTS {
                        break 'inject;
                    }
                    let addr = sent.wrapping_mul(0x9e37_79b9) % blocks * 64;
                    let tag = (sent % 0x1ff) as u16;
                    let cmd = Command::Rd(BlockSize::B64);
                    let p = Packet::request(cmd, 0, addr, tag, link, &[]).unwrap();
                    match s.send(0, link, p) {
                        Ok(()) => sent += 1,
                        Err(e) if e.is_stall() => break,
                        Err(e) => panic!("send failed: {e}"),
                    }
                }
            }
            if batched {
                s.clock_batch(40).unwrap();
            } else {
                (0..40).for_each(|_| s.clock().unwrap());
            }
            for link in 0..4u8 {
                while let Ok(p) = s.recv(0, link) {
                    seen.push((s.current_clock(), link, p.tag()));
                }
            }
            assert!(s.current_clock() < 1_000_000, "the run did not converge");
        }
        let fault_counts = (s.fault_state().unwrap().injected, s.stats());
        let counters = &counting.0.lock().counters;
        let events: Vec<u64> = EventKind::ALL.iter().map(|&k| counters.get(k)).collect();
        (seen, events, s.current_clock(), fault_counts)
    };
    let stepped = run(false);
    let (_, stats) = stepped.3;
    assert!(
        stats.poisoned_responses > 0,
        "the tight retry budget must actually poison"
    );
    assert_eq!(stepped, run(true));
}

#[test]
fn lossy_links_cost_cycles() {
    let run = |ppm: u32| {
        let mut s = if ppm > 0 {
            faulty_sim(
                LinkFaultConfig::default()
                    .with_error_rate_ppm(ppm)
                    .with_seed(7),
            )
        } else {
            sim()
        };
        let host_id = s.host_cube_id(0);
        let mut host = Host::attach(&s, host_id).unwrap();
        let mut w = RandomAccess::new(1, 1 << 28, BlockSize::B64, 50, 2_000);
        run_workload(&mut s, &mut host, &mut w, RunConfig::default())
            .unwrap()
            .cycles
    };
    let clean = run(0);
    let lossy = run(200_000);
    assert!(
        lossy > clean,
        "20% packet loss ({lossy} cycles) must be slower than clean ({clean})"
    );
}

#[test]
fn zero_rate_fault_injection_is_a_noop() {
    let mut s = faulty_sim(LinkFaultConfig::default().with_seed(1));
    let host_id = s.host_cube_id(0);
    let mut host = Host::attach(&s, host_id).unwrap();
    let mut w = RandomAccess::new(1, 1 << 28, BlockSize::B64, 50, 500);
    let report = run_workload(&mut s, &mut host, &mut w, RunConfig::default()).unwrap();
    assert_eq!(report.completed, 500);
    assert_eq!(s.fault_state().unwrap().injected, 0);
}

#[test]
fn a_rerun_after_reset_counts_link_faults_like_a_fresh_sim() {
    let faults = LinkFaultConfig::default()
        .with_error_rate_ppm(100_000)
        .with_retry_limit(1)
        .with_seed(7);
    let run = |s: &mut HmcSim| {
        let host_id = s.host_cube_id(0);
        let mut host = Host::attach(s, host_id).unwrap();
        let mut w = RandomAccess::new(1, 1 << 28, BlockSize::B64, 50, 2_000);
        run_workload(s, &mut host, &mut w, RunConfig::default()).unwrap();
        let stats = s.stats();
        let injected = s.fault_state().unwrap().injected;
        (injected, stats.link_retries, stats.poisoned_responses)
    };
    let mut s = faulty_sim(faults);
    let fresh = run(&mut s);
    assert!(
        fresh.1 > 0 && fresh.2 > 0,
        "the run must retry and poison: {fresh:?}"
    );
    s.reset();
    assert_eq!(s.fault_state().unwrap().injected, 0);
    assert_eq!(run(&mut s), fresh);
}

#[test]
fn an_armed_cell_fault_hook_flips_bits_without_moving_a_cycle() {
    // The injection hook charges no cycles of its own — only the TRR
    // mitigation spends refresh time — so with mitigation off a run that
    // crosses the disturbance threshold many times over must simulate
    // the identical span as one with cell faults unconfigured.
    let armed = CellFaultConfig::default()
        .with_hammer_threshold(64)
        .with_flip_prob_ppm(1_000_000)
        .with_mitigation(Mitigation::None);
    let run = |cell_faults: Option<CellFaultConfig>| {
        let mut s = HmcSim::new(1, DeviceConfig::small())
            .unwrap()
            .with_params(SimParams {
                cell_faults,
                ..SimParams::default()
            });
        let host_id = s.host_cube_id(0);
        topology::build_simple(&mut s, host_id).unwrap();
        let mut host = Host::attach(&s, host_id).unwrap();
        let geometry = s.config().geometry();
        let mut w = Hammer::new(geometry, BlockSize::B64, 0, 0, geometry.rows / 2, 6_000).unwrap();
        let report = run_workload(&mut s, &mut host, &mut w, RunConfig::default()).unwrap();
        (report.cycles, report.completed, s.stats())
    };
    let (off_cycles, off_completed, off) = run(None);
    let (on_cycles, on_completed, on) = run(Some(armed));
    assert_eq!(off_cycles, on_cycles);
    assert_eq!((off_completed, on_completed), (6_000, 6_000));
    assert!(on.bit_flips > 0, "the armed run must actually flip bits");
    let timing_only = SimStats {
        hammer_activations: 0,
        bit_flips: 0,
        trr_refreshes: 0,
        retention_decays: 0,
        ..on
    };
    assert_eq!(off, timing_only);
}

#[test]
fn ibtc_registers_mirror_live_token_counts() {
    let mut s = sim();
    let initial = s.device(0).unwrap().links[0].tokens as u64;
    // Queue a few reads on link 0 without clocking: tokens consumed.
    for tag in 0..4u16 {
        let rd = Packet::request(Command::Rd(BlockSize::B16), 0, 0, tag, 0, &[]).unwrap();
        s.send(0, 0, rd).unwrap();
    }
    // IBTC updates at the clock edge (stage 6)... but the crossbar also
    // drains this cycle, returning the tokens. Use a vault-full setup
    // instead: just check the register equals the live value after a
    // clock with traffic in flight.
    s.clock().unwrap();
    let live = s.device(0).unwrap().links[0].tokens as u64;
    let reg = s.jtag_reg_read(0, regs::ibtc(0)).unwrap();
    assert_eq!(reg, live, "IBTC register mirrors the live token pool");
    assert!(reg <= initial);
}

#[test]
fn ac_register_switches_address_map_modes() {
    let mut s = sim();
    assert_eq!(s.address_map().name(), "low-interleave");
    // Mode 2: linear map.
    s.jtag_reg_write(0, regs::AC, 2).unwrap();
    s.clock().unwrap();
    assert_eq!(s.address_map().name(), "linear");
    // Mode 1: bank-first.
    s.jtag_reg_write(0, regs::AC, 1).unwrap();
    s.clock().unwrap();
    assert_eq!(s.address_map().name(), "bank-first");
    // Unknown mode: unchanged.
    s.jtag_reg_write(0, regs::AC, 99).unwrap();
    s.clock().unwrap();
    assert_eq!(s.address_map().name(), "bank-first");
    // Back to default.
    s.jtag_reg_write(0, regs::AC, 0).unwrap();
    s.clock().unwrap();
    assert_eq!(s.address_map().name(), "low-interleave");
}

#[test]
fn ac_map_switch_affects_routing_behaviour() {
    // Under the linear map, sequential blocks pile into vault 0; under
    // low-interleave they rotate. Observe through vault stats.
    let mut s = sim();
    s.jtag_reg_write(0, regs::AC, 2).unwrap(); // linear
    s.clock().unwrap();
    for tag in 0..8u16 {
        let rd = Packet::request(
            Command::Rd(BlockSize::B64),
            0,
            tag as u64 * 128,
            tag,
            0,
            &[],
        )
        .unwrap();
        s.send(0, 0, rd).unwrap();
    }
    for _ in 0..16 {
        s.clock().unwrap();
        while s.recv(0, 0).is_ok() {}
    }
    let v0 = s.device(0).unwrap().vaults[0].stats.processed();
    assert_eq!(v0, 8, "linear map sends all sequential blocks to vault 0");
}
