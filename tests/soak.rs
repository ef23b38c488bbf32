//! Soak tests: longer mixed-traffic runs exercising the whole stack at
//! once — mixed workloads, replay determinism, functional-mode data
//! integrity under concurrency, and every device configuration.

use hmc_sim::hmc_core::{decode_response, topology, HmcSim, SimParams};
use hmc_sim::hmc_host::{run_workload, Host, RunConfig};
use hmc_sim::hmc_types::{BlockSize, Command, DeviceConfig, Packet, StorageMode};
use hmc_sim::hmc_workloads::{
    Gups, Mixed, RandomAccess, Replay, Stream, StreamMode, UpdateKind,
};

fn build(cfg: DeviceConfig) -> (HmcSim, Host) {
    let mut sim = HmcSim::new(1, cfg).unwrap();
    let host_id = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host_id).unwrap();
    let host = Host::attach(&sim, host_id).unwrap();
    (sim, host)
}

fn mixed_workload(seed: u32) -> Mixed {
    Mixed::new(
        seed,
        vec![
            (
                4,
                Box::new(RandomAccess::new(seed, 1 << 26, BlockSize::B64, 50, 4_000)),
            ),
            (
                2,
                Box::new(Stream::unit(
                    1 << 24,
                    BlockSize::B128,
                    StreamMode::Copy,
                    2_000,
                )),
            ),
            (
                1,
                Box::new(Gups::new(seed, 1 << 20, UpdateKind::TwoAdd8, 1_000)),
            ),
        ],
    )
}

#[test]
fn mixed_traffic_soaks_clean_on_every_paper_config() {
    for (label, cfg) in DeviceConfig::paper_configs() {
        let (mut sim, mut host) =
            build(cfg.with_storage_mode(StorageMode::TimingOnly));
        let mut w = mixed_workload(7);
        let report = run_workload(&mut sim, &mut host, &mut w, RunConfig::default())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(report.injected, 7_000, "{label}");
        assert_eq!(report.completed, 7_000, "{label}");
        assert_eq!(report.errors, 0, "{label}");
        assert!(sim.is_idle(), "{label}: device must drain");
    }
}

#[test]
fn replayed_mixture_reproduces_cycle_counts_exactly() {
    // Record the mixture once, then replay it twice: identical streams
    // must produce identical simulated timings.
    let mut source = mixed_workload(11);
    let recorded = Replay::record(&mut source);
    assert_eq!(recorded.len(), 7_000);

    let run = |trace: &Replay| {
        let (mut sim, mut host) = build(
            DeviceConfig::paper_4link_8bank_2gb().with_storage_mode(StorageMode::TimingOnly),
        );
        let mut replay = trace.clone();
        run_workload(&mut sim, &mut host, &mut replay, RunConfig::default())
            .unwrap()
            .cycles
    };
    let first = run(&recorded);
    let second = run(&recorded);
    assert_eq!(first, second, "replays must be cycle-deterministic");
}

#[test]
fn csv_roundtripped_trace_times_identically() {
    let mut source = RandomAccess::new(5, 1 << 24, BlockSize::B64, 50, 3_000);
    let recorded = Replay::record(&mut source);
    let mut csv = Vec::new();
    recorded.write_csv(&mut csv).unwrap();
    let parsed = Replay::read_csv(&csv[..]).unwrap();

    let run = |mut w: Replay| {
        let (mut sim, mut host) = build(
            DeviceConfig::paper_4link_8bank_2gb().with_storage_mode(StorageMode::TimingOnly),
        );
        run_workload(&mut sim, &mut host, &mut w, RunConfig::default())
            .unwrap()
            .cycles
    };
    assert_eq!(run(recorded), run(parsed));
}

#[test]
fn functional_mode_scatter_gather_integrity() {
    // Scatter 256 distinct blocks through the driver, then gather them
    // with raw packets and verify every byte.
    let (mut sim, _host) = build(
        DeviceConfig::small()
            .with_queue_depths(64, 32)
            .with_storage_mode(StorageMode::Functional),
    );
    // Scatter phase: direct sends, two writes in flight per link.
    let mut written = Vec::new();
    for i in 0..256u64 {
        let addr = i * 256 + 0x10_0000;
        let val = (i as u8) ^ 0x5a;
        let wr = Packet::request(
            Command::Wr(BlockSize::B32),
            0,
            addr,
            (i % 512) as u16,
            (i % 4) as u8,
            &[val; 32],
        )
        .unwrap();
        let refused_until = sim.current_clock() + 100_000;
        loop {
            match sim.send(0, (i % 4) as u8, wr.clone()) {
                Ok(()) => break,
                Err(e) if e.is_stall() => {
                    assert!(
                        sim.current_clock() < refused_until,
                        "scatter write {i} refused for 100,000 cycles"
                    );
                    sim.clock().unwrap();
                    for l in 0..4 {
                        while sim.recv(0, l).is_ok() {}
                    }
                }
                Err(e) => panic!("{e}"),
            }
        }
        written.push((addr, val));
    }
    for _ in 0..64 {
        sim.clock().unwrap();
        for l in 0..4 {
            while sim.recv(0, l).is_ok() {}
        }
    }
    assert!(sim.is_idle());
    // Gather phase.
    for (i, (addr, val)) in written.into_iter().enumerate() {
        let rd = Packet::request(
            Command::Rd(BlockSize::B32),
            0,
            addr,
            (i % 512) as u16,
            0,
            &[],
        )
        .unwrap();
        sim.send(0, 0, rd).unwrap();
        let mut ok = false;
        for _ in 0..16 {
            sim.clock().unwrap();
            if let Ok(p) = sim.recv(0, 0) {
                let info = decode_response(&p).unwrap();
                assert_eq!(info.data, vec![val; 32], "block at {addr:#x}");
                ok = true;
                break;
            }
        }
        assert!(ok, "no response for block {addr:#x}");
    }
}

#[test]
fn sustained_pressure_against_tiny_queues_never_wedges() {
    // Small queues + heavy traffic: the run completes without the
    // max-cycles guard firing, proving no deadlock in the stall graph.
    let (mut sim, mut host) = build(
        DeviceConfig::small()
            .with_queue_depths(2, 1)
            .with_storage_mode(StorageMode::TimingOnly),
    );
    let mut w = RandomAccess::new(3, 1 << 26, BlockSize::B128, 50, 3_000);
    let report = run_workload(
        &mut sim,
        &mut host,
        &mut w,
        RunConfig {
            max_cycles: 1 << 22,
            ..RunConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.completed, 3_000);
    assert!(report.send_stalls > 0, "tiny queues must exert back-pressure");
}

#[test]
fn million_request_run_returns_every_token_and_drains_every_queue() {
    // Token conservation at scale: after a 1M-request mixed run the
    // device must quiesce completely — zero resident packets anywhere in
    // the structure hierarchy and every link's IBTC token pool back at
    // exactly its initial allotment. A single leaked FLIT fails this.
    let (mut sim, mut host) = build(
        DeviceConfig::paper_4link_8bank_2gb().with_storage_mode(StorageMode::TimingOnly),
    );
    let initial: Vec<u32> = sim.device(0).unwrap().links.iter().map(|l| l.tokens).collect();
    let mut w = RandomAccess::new(21, 1 << 26, BlockSize::B64, 50, 1_000_000);
    let report = run_workload(&mut sim, &mut host, &mut w, RunConfig::default()).unwrap();
    assert_eq!(report.injected, 1_000_000);
    assert_eq!(report.completed, 1_000_000);
    assert_eq!(report.errors, 0);

    assert!(sim.is_idle(), "device must quiesce after the run");
    assert_eq!(sim.total_occupancy(), 0, "no packet may remain in any queue");
    let dev = sim.device(0).unwrap();
    for (l, &init) in dev.links.iter().zip(&initial) {
        assert!(
            l.at_initial_tokens(),
            "link {} leaked tokens: {}/{} at quiesce",
            l.id,
            l.tokens,
            l.initial_tokens
        );
        assert_eq!(l.tokens, init, "link {} token pool drifted", l.id);
    }
}

#[test]
fn invariant_checked_soak_reports_zero_violations() {
    // The same stack with the protocol invariant checker armed on the
    // sim: a clean run must report exactly zero violations.
    let (mut sim, mut host) = build(
        DeviceConfig::paper_4link_16bank_4gb().with_storage_mode(StorageMode::Functional),
    );
    sim.set_params(SimParams {
        check_invariants: true,
        ..*sim.params()
    });
    let mut w = mixed_workload(13);
    let report = run_workload(&mut sim, &mut host, &mut w, RunConfig::default()).unwrap();
    assert_eq!(report.completed, 7_000);
    assert_eq!(
        report.invariant_violations, 0,
        "first violation: {:?}",
        sim.invariant_violations().first()
    );
}

#[test]
fn profile_predictions_match_observed_utilization() {
    use hmc_sim::hmc_workloads::profile;
    // Profile the workload statically, run it, and compare the hottest
    // vault prediction against the simulator's utilization report.
    let cfg = DeviceConfig::small().with_storage_mode(StorageMode::TimingOnly);
    let map = cfg.default_map().unwrap();
    let mut for_profile = RandomAccess::new(9, 1 << 26, BlockSize::B64, 50, 5_000);
    let predicted = profile(&mut for_profile, &map, u64::MAX).unwrap();

    let (mut sim, mut host) = build(cfg);
    let mut w = RandomAccess::new(9, 1 << 26, BlockSize::B64, 50, 5_000);
    run_workload(&mut sim, &mut host, &mut w, RunConfig::default()).unwrap();
    let observed = &sim.utilization()[0];

    for (v, report) in observed.vaults.iter().enumerate() {
        assert_eq!(
            report.controller.processed(), predicted.vault_counts[v],
            "vault {v}: simulator and profiler must agree exactly"
        );
    }
}
