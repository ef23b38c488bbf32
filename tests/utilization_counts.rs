//! One count per fact: an access is counted once, by its vault, from the
//! timing backend's grant, and every other view — `SimStats`, the
//! utilization report, the energy model's activity — reads or sums it.

use hmc_sim::hmc_core::{topology, HmcSim, SimParams, TimingParams};
use hmc_sim::hmc_host::{run_workload, Host, RunConfig};
use hmc_sim::hmc_types::{BlockSize, Command, DeviceConfig, Packet, StorageMode, TimingKind};
use hmc_sim::hmc_workloads::WorkloadSpec;

/// `hmcsim --workload stream --requests 4000` on 4l8b under `timing`.
fn stream_run(timing: TimingKind) -> HmcSim {
    let cfg = DeviceConfig::paper_4link_8bank_2gb().with_storage_mode(StorageMode::TimingOnly);
    let mut sim = HmcSim::new(1, cfg.clone()).unwrap().with_params(SimParams {
        timing: TimingParams::of(timing),
        ..SimParams::default()
    });
    let host_id = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host_id).unwrap();
    let mut host = Host::attach(&sim, host_id).unwrap();
    let mut w = WorkloadSpec::new("stream", 1, 2 << 30, 4_000)
        .with_block(BlockSize::B64)
        .with_geometry(cfg.geometry())
        .build()
        .unwrap();
    let report = run_workload(&mut sim, &mut host, w.as_mut(), RunConfig::default()).unwrap();
    assert_eq!(report.completed, 4_000);
    sim
}

#[test]
fn ddr_row_counts_are_the_sum_of_the_vaults() {
    let mut sim = stream_run(TimingKind::Ddr);
    let stats = sim.stats();
    let vaults = &sim.device(0).unwrap().vaults;
    let sum = |f: fn(&hmc_sim::hmc_core::VaultStats) -> u64| -> u64 {
        vaults.iter().map(|v| f(&v.stats)).sum()
    };
    let hits = sum(|s| s.row_hits);
    assert!(hits > 0, "a stream reuses open rows");
    assert_eq!(stats.row_hits, hits);
    assert_eq!(stats.row_misses, sum(|s| s.row_misses));
    assert_eq!(stats.precharges, sum(|s| s.precharges));
    let processed = sum(|s| s.processed());
    assert_eq!(hits + stats.row_misses, processed, "one outcome per access");

    let report = &sim.utilization()[0];
    assert_eq!(report.total_processed(), processed);
    assert_eq!(report.row_hit_rate(), hits as f64 / processed as f64);
    assert!(report.render().starts_with(&format!(
        "device 0 utilization ({processed} ops processed, row-hit rate {:.1}%)",
        hits as f64 / processed as f64 * 100.0
    )));
    assert_eq!(sim.activity().row_activations, stats.row_misses);

    // The counts live in the vaults, so a device reset takes them along.
    sim.reset_device(0).unwrap();
    let after = sim.stats();
    assert_eq!(
        (after.row_hits, after.row_misses, after.precharges),
        (0, 0, 0)
    );
    assert_eq!(after.sent, stats.sent, "the stored counters stay");
}

#[test]
fn classic_has_no_row_buffer_so_every_access_activates() {
    let sim = stream_run(TimingKind::Classic);
    let report = &sim.utilization()[0];
    assert!(report.vaults.iter().all(|v| v.controller.row_hits == 0));
    assert_eq!(sim.stats().row_hits, 0);
    assert_eq!(report.row_hit_rate(), 0.0);
    assert_eq!(sim.activity().row_activations, report.total_processed());
}

#[test]
fn stats_cycles_is_the_clock() {
    let mut sim = HmcSim::new(1, DeviceConfig::small()).unwrap();
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    let rd = Packet::request(Command::Rd(BlockSize::B64), 0, 0, 1, 0, &[]).unwrap();
    sim.send(0, 0, rd).unwrap();
    // The read answers within a few cycles; the rest of the batch is
    // dead and jumped.
    sim.clock_batch(10_000).unwrap();
    assert!(sim.recv(0, 0).is_ok());
    assert_eq!(sim.current_clock(), 10_000);
    assert_eq!(sim.stats().cycles, sim.current_clock());
    sim.reset();
    assert_eq!(sim.stats().cycles, 0);
    sim.clock().unwrap();
    assert_eq!(sim.stats().cycles, 1);
}
