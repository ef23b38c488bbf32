//! Multiple hosts sharing one simulation object: the link structure
//! "supports the ability to attach devices to both hosts (processors) or
//! other HMC devices" (§III.A), and hosts are ordinary cube IDs above the
//! device range (§V.B) — so several processors can share a cube.

use hmc_sim::hmc_core::{topology, HmcSim};
use hmc_sim::hmc_host::{run_workload, Host, RunConfig};
use hmc_sim::hmc_types::{BlockSize, Command, DeviceConfig, Packet, StorageMode};
use hmc_sim::hmc_workloads::{RandomAccess, Workload};

/// One device, two hosts: host A on links 0–1, host B on links 2–3.
fn dual_host_sim() -> (HmcSim, u8, u8) {
    let mut sim = HmcSim::new(
        1,
        DeviceConfig::small()
            .with_queue_depths(32, 16)
            .with_storage_mode(StorageMode::Functional),
    )
    .unwrap();
    let host_a = sim.host_cube_id(0);
    let host_b = sim.host_cube_id(1);
    sim.connect_host(0, 0, host_a).unwrap();
    sim.connect_host(0, 1, host_a).unwrap();
    sim.connect_host(0, 2, host_b).unwrap();
    sim.connect_host(0, 3, host_b).unwrap();
    sim.finalize_topology().unwrap();
    (sim, host_a, host_b)
}

#[test]
fn hosts_discover_only_their_own_links() {
    let (sim, host_a, host_b) = dual_host_sim();
    let a = Host::attach(&sim, host_a).unwrap();
    let b = Host::attach(&sim, host_b).unwrap();
    assert_eq!(a.ports(), &[(0, 0), (0, 1)]);
    assert_eq!(b.ports(), &[(0, 2), (0, 3)]);
}

#[test]
fn responses_return_to_the_issuing_host() {
    let (mut sim, _a, _b) = dual_host_sim();
    // Host A sends on link 0, host B on link 2, same address.
    let ra = Packet::request(Command::Rd(BlockSize::B16), 0, 0x40, 1, 0, &[]).unwrap();
    let rb = Packet::request(Command::Rd(BlockSize::B16), 0, 0x40, 2, 2, &[]).unwrap();
    sim.send(0, 0, ra).unwrap();
    sim.send(0, 2, rb).unwrap();
    for _ in 0..8 {
        sim.clock().unwrap();
    }
    let pa = sim.recv(0, 0).expect("host A response on its link");
    let pb = sim.recv(0, 2).expect("host B response on its link");
    assert_eq!(pa.tag(), 1);
    assert_eq!(pb.tag(), 2);
    assert!(sim.recv(0, 1).is_err());
    assert!(sim.recv(0, 3).is_err());
}

#[test]
fn two_hosts_run_workloads_concurrently() {
    let (mut sim, host_a, host_b) = dual_host_sim();
    let mut a = Host::attach(&sim, host_a).unwrap();
    let mut b = Host::attach(&sim, host_b).unwrap();
    let mut wa = RandomAccess::new(1, 1 << 24, BlockSize::B64, 50, 1_000);
    let mut wb = RandomAccess::new(2, 1 << 24, BlockSize::B64, 50, 1_000);

    // Interleave the two drivers by hand on a shared clock.
    let mut safety = 0u32;
    loop {
        a.inject(&mut sim, 0, || wa.next_op()).unwrap();
        b.inject(&mut sim, 0, || wb.next_op()).unwrap();
        sim.clock().unwrap();
        a.drain(&mut sim).unwrap();
        b.drain(&mut sim).unwrap();
        if a.stats.completed == 1_000 && b.stats.completed == 1_000 {
            break;
        }
        safety += 1;
        assert!(safety < 100_000, "dual-host run did not converge");
    }
    assert_eq!(a.stats.errors + b.stats.errors, 0);
    assert_eq!(a.stats.orphans + b.stats.orphans, 0, "no cross-host leaks");
}

#[test]
fn shared_device_with_driver_loop_per_host_in_sequence() {
    // Simpler integration: run host A's workload to completion, then
    // host B's, against the same device state.
    let (mut sim, host_a, host_b) = dual_host_sim();
    let mut a = Host::attach(&sim, host_a).unwrap();
    let mut b = Host::attach(&sim, host_b).unwrap();
    let ra = run_workload(
        &mut sim,
        &mut a,
        &mut RandomAccess::new(3, 1 << 24, BlockSize::B64, 50, 500),
        RunConfig::default(),
    )
    .unwrap();
    let rb = run_workload(
        &mut sim,
        &mut b,
        &mut RandomAccess::new(4, 1 << 24, BlockSize::B64, 50, 500),
        RunConfig::default(),
    )
    .unwrap();
    assert_eq!(ra.completed, 500);
    assert_eq!(rb.completed, 500);
}

#[test]
fn chained_device_serves_a_second_host_through_the_chain() {
    // host A - dev0 - dev1 - host B: both hosts reach both devices.
    let mut sim = HmcSim::new(2, DeviceConfig::small()).unwrap();
    let host_a = sim.host_cube_id(0);
    let host_b = sim.host_cube_id(1);
    sim.connect_host(0, 0, host_a).unwrap();
    sim.connect_devices(0, 1, 1, 0).unwrap();
    sim.connect_host(1, 1, host_b).unwrap();
    sim.finalize_topology().unwrap();

    // Host A writes device 1; host B reads it back.
    let data = [0xabu8; 16];
    let wr = Packet::request(Command::Wr(BlockSize::B16), 1, 0x200, 1, 0, &data).unwrap();
    sim.send(0, 0, wr).unwrap();
    for _ in 0..16 {
        sim.clock().unwrap();
        if sim.recv(0, 0).is_ok() {
            break;
        }
    }
    let rd = Packet::request(Command::Rd(BlockSize::B16), 1, 0x200, 2, 1, &[]).unwrap();
    sim.send(1, 1, rd).unwrap();
    let mut got = None;
    for _ in 0..16 {
        sim.clock().unwrap();
        if let Ok(p) = sim.recv(1, 1) {
            got = Some(p.data_as_bytes());
            break;
        }
    }
    assert_eq!(got.unwrap(), data.to_vec(), "host B sees host A's write");
}

#[test]
fn simple_topology_requests_leave_through_their_target_cubes_links() {
    // Figure 1's "simple" topology wires every link of every cube to the
    // host, and the cubes are not chained: a request for one cube sent
    // down another's link comes back `Misroute`. Eight links per cube
    // gives the host sixteen ports.
    let paper = DeviceConfig::paper_8link_8bank_4gb().with_storage_mode(StorageMode::TimingOnly);
    for config in [DeviceConfig::small().with_queue_depths(32, 16), paper] {
        let links = config.num_links as usize;
        let mut sim = HmcSim::new(2, config).unwrap();
        let host_id = sim.host_cube_id(0);
        topology::build_simple(&mut sim, host_id).unwrap();
        let mut host = Host::attach(&sim, host_id).unwrap();
        assert_eq!(host.ports().len(), 2 * links);
        for target in [1u8, 0] {
            let mut w = RandomAccess::new(1, 1 << 24, BlockSize::B64, 50, 2_000);
            let cfg = RunConfig {
                target_cube: target,
                ..RunConfig::default()
            };
            let report = run_workload(&mut sim, &mut host, &mut w, cfg).unwrap();
            assert_eq!(
                (report.errors, report.completed),
                (0, 2_000),
                "{links} links, cube {target}"
            );
            let processed: u64 = sim
                .device(target)
                .unwrap()
                .vaults
                .iter()
                .map(|v| v.stats.processed())
                .sum();
            assert_eq!(processed, 2_000, "{links} links, cube {target}");
        }
    }
}
