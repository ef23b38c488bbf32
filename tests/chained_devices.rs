//! Multi-device (chained) behaviour: cross-cube routing of requests and
//! responses, child/root stage ordering, flow-control packets, and the
//! multi-object (NUMA-style) usage pattern of §IV.A.

use hmc_sim::hmc_core::{decode_response, topology, HmcSim};
use hmc_sim::hmc_host::{run_workload, Host, RunConfig};
use hmc_sim::hmc_types::{BlockSize, Command, DeviceConfig, Packet};
use hmc_sim::hmc_workloads::RandomAccess;

fn chain(n: u8) -> HmcSim {
    let mut s = HmcSim::new(n, DeviceConfig::small().with_queue_depths(32, 16)).unwrap();
    let host = s.host_cube_id(0);
    topology::build_chain(&mut s, host).unwrap();
    s
}

#[test]
fn workload_against_a_remote_device_completes() {
    let mut sim = chain(3);
    let host_id = sim.host_cube_id(0);
    let mut host = Host::attach(&sim, host_id).unwrap();
    let mut w = RandomAccess::new(1, 1 << 28, BlockSize::B64, 50, 1_000);
    let report = run_workload(
        &mut sim,
        &mut host,
        &mut w,
        RunConfig {
            target_cube: 2,
            ..RunConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.completed, 1_000);
    assert_eq!(report.errors, 0);
    assert!(
        report.mean_latency >= 5.0,
        "two chained hops each way must cost cycles (mean {})",
        report.mean_latency
    );
    // The remote device did the memory work; the root did none.
    let far: u64 = sim.device(2).unwrap().vaults.iter().map(|v| v.stats.processed()).sum();
    let near: u64 = sim.device(0).unwrap().vaults.iter().map(|v| v.stats.processed()).sum();
    assert_eq!(far, 1_000);
    assert_eq!(near, 0);
}

#[test]
fn mixed_near_and_far_traffic_shares_the_chain() {
    let mut sim = chain(2);
    let host_id = sim.host_cube_id(0);
    let host = Host::attach(&sim, host_id).unwrap();
    // Alternate targets by hand.
    let mut near_latency = Vec::new();
    let mut far_latency = Vec::new();
    for i in 0..50u64 {
        let target = (i % 2) as u8;
        let rd = Packet::request(
            Command::Rd(BlockSize::B64),
            target,
            i * 128,
            (i % 512) as u16,
            0,
            &[],
        )
        .unwrap();
        let start = sim.current_clock();
        sim.send(0, 0, rd).unwrap();
        loop {
            sim.clock().unwrap();
            if sim.recv(0, 0).is_ok() {
                let lat = sim.current_clock() - start;
                if target == 0 {
                    near_latency.push(lat);
                } else {
                    far_latency.push(lat);
                }
                break;
            }
            assert!(sim.current_clock() - start < 64);
        }
    }
    let near: u64 = near_latency.iter().sum::<u64>() / near_latency.len() as u64;
    let far: u64 = far_latency.iter().sum::<u64>() / far_latency.len() as u64;
    assert!(far > near, "far device {far} must exceed near {near}");
    drop(host);
}

#[test]
fn flow_control_packets_are_consumed_silently() {
    let mut sim = chain(2);
    for cmd in [Command::Null, Command::Pret, Command::Tret, Command::Irtry] {
        let p = Packet::flow(cmd, 0, 4).unwrap();
        sim.send(0, 0, p).unwrap();
    }
    for _ in 0..4 {
        sim.clock().unwrap();
    }
    assert!(sim.is_idle(), "flow packets retire without residue");
    assert!(sim.recv(0, 0).is_err(), "flow packets elicit no response");
}

#[test]
fn token_pool_depletes_and_refills() {
    // Token accounting: a link's pool shrinks while packets sit in its
    // crossbar queue and refills as they drain.
    let mut sim = chain(2);
    let initial = sim.device(0).unwrap().links[0].tokens;
    for tag in 0..4u16 {
        let rd = Packet::request(Command::Rd(BlockSize::B16), 0, 0, tag, 0, &[]).unwrap();
        sim.send(0, 0, rd).unwrap();
    }
    let after_send = sim.device(0).unwrap().links[0].tokens;
    assert_eq!(initial - after_send, 4, "one FLIT per queued read");
    for _ in 0..4 {
        sim.clock().unwrap();
        while sim.recv(0, 0).is_ok() {}
    }
    assert_eq!(
        sim.device(0).unwrap().links[0].tokens,
        initial,
        "tokens return as the crossbar retires packets"
    );
}

#[test]
fn child_devices_never_hold_host_links() {
    let sim = chain(4);
    assert!(sim.device(0).unwrap().is_root());
    for d in 1..4 {
        assert!(!sim.device(d).unwrap().is_root(), "device {d} is a child");
    }
}

#[test]
fn two_sim_objects_run_independently() {
    // §IV.A: multiple HMC-Sim objects model NUMA-style systems; their
    // clocks and state must be fully independent.
    let mut a = chain(1);
    let mut b = chain(1);
    let rd = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 1, 0, &[]).unwrap();
    a.send(0, 0, rd).unwrap();
    for _ in 0..3 {
        a.clock().unwrap();
    }
    assert_eq!(a.current_clock(), 3);
    assert_eq!(b.current_clock(), 0, "object B never ticked");
    assert!(a.recv(0, 0).is_ok());
    assert!(b.recv(0, 0).is_err());
}

#[test]
fn writes_to_far_devices_are_durable() {
    let mut sim = chain(3);
    let data = [0x77u8; 64];
    let wr = Packet::request(Command::Wr(BlockSize::B64), 2, 0x5000, 1, 0, &data).unwrap();
    sim.send(0, 0, wr).unwrap();
    for _ in 0..16 {
        sim.clock().unwrap();
        if sim.recv(0, 0).is_ok() {
            break;
        }
    }
    let rd = Packet::request(Command::Rd(BlockSize::B64), 2, 0x5000, 2, 0, &[]).unwrap();
    sim.send(0, 0, rd).unwrap();
    let mut got = None;
    for _ in 0..16 {
        sim.clock().unwrap();
        if let Ok(p) = sim.recv(0, 0) {
            got = Some(decode_response(&p).unwrap().data);
            break;
        }
    }
    assert_eq!(got.unwrap(), data.to_vec());
}
