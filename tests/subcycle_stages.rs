//! Figure 3 semantics: packets progress one internal stage per sub-cycle,
//! never jumping from the crossbar interface to a memory bank inside a
//! single sub-cycle operation, and responses register root-first.

use hmc_sim::hmc_core::{topology, HmcSim};
use hmc_sim::hmc_types::{BlockSize, Command, DeviceConfig, Packet};

fn single() -> HmcSim {
    let mut sim = HmcSim::new(1, DeviceConfig::small()).unwrap();
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    sim
}

fn chain(n: u8) -> HmcSim {
    let mut sim = HmcSim::new(n, DeviceConfig::small()).unwrap();
    let host = sim.host_cube_id(0);
    topology::build_chain(&mut sim, host).unwrap();
    sim
}

fn read(cub: u8, tag: u16) -> Packet {
    Packet::request(Command::Rd(BlockSize::B16), cub, 0x40, tag, 0, &[]).unwrap()
}

/// Where tag currently sits: (xbar_rqst, vault_rqst, vault_rsp, xbar_rsp)
/// counts summed over all devices.
fn locate(sim: &HmcSim, tag: u16) -> (usize, usize, usize, usize) {
    let mut loc = (0, 0, 0, 0);
    for d in 0..sim.num_devices() {
        let dev = sim.device(d).unwrap();
        for x in &dev.xbars {
            loc.0 += x.rqst.iter().filter(|e| e.packet.tag() == tag).count();
            loc.3 += x.rsp().iter().filter(|e| e.packet.tag() == tag).count();
        }
        for v in &dev.vaults {
            loc.1 += v.rqst.iter().filter(|e| e.packet.tag() == tag).count();
            loc.2 += v.rsp.iter().filter(|e| e.packet.tag() == tag).count();
        }
    }
    loc
}

#[test]
fn injected_packet_waits_in_the_crossbar_until_clocked() {
    let mut sim = single();
    sim.send(0, 0, read(0, 1)).unwrap();
    // "Without this call, external memory operations may progress until
    // appropriate stall signals are recognized. However, internal device
    // operations will not progress" (§V.A): no clock, packet stays put.
    assert_eq!(locate(&sim, 1), (1, 0, 0, 0));
    assert!(sim.recv(0, 0).is_err());
}

#[test]
fn single_device_request_resolves_through_the_stage_pipeline() {
    let mut sim = single();
    sim.send(0, 0, read(0, 1)).unwrap();
    // One clock: stage 2 moves it to the vault, stage 4 processes it,
    // stage 5 registers the response — three different sub-cycles.
    sim.clock().unwrap();
    assert_eq!(
        locate(&sim, 1),
        (0, 0, 0, 1),
        "after one cycle the response sits in the crossbar response queue"
    );
    let rsp = sim.recv(0, 0).unwrap();
    assert_eq!(rsp.tag(), 1);
}

#[test]
fn chained_requests_take_one_hop_per_cycle() {
    let mut sim = chain(3); // host - 0 - 1 - 2
    sim.send(0, 0, read(2, 7)).unwrap();
    // Cycle 1: root xbar (stage 2) forwards to device 1.
    sim.clock().unwrap();
    let at = |sim: &HmcSim, d: u8, tag| {
        sim.device(d)
            .unwrap()
            .xbars
            .iter()
            .flat_map(|x| x.rqst.iter())
            .any(|e| e.packet.tag() == tag)
    };
    assert!(at(&sim, 1, 7), "cycle 1: request at device 1's crossbar");
    // Cycle 2: child stage forwards device1 -> device2, where the packet
    // is processed within the same cycle's later stages.
    sim.clock().unwrap();
    let (xq, _vq, _vr, xr) = locate(&sim, 7);
    assert_eq!(xq, 0, "request fully consumed at device 2");
    assert!(xr >= 1, "response born on device 2");
    // Responses also take one hop per cycle back to the root.
    let mut delivered = None;
    for extra in 1..=4 {
        sim.clock().unwrap();
        if let Ok(p) = sim.recv(0, 0) {
            delivered = Some((extra, p));
            break;
        }
    }
    let (extra, p) = delivered.expect("response arrives");
    assert_eq!(p.tag(), 7);
    assert!(extra >= 2, "two chained hops back cannot be instantaneous");
}

#[test]
fn deeper_chains_cost_proportionally_more_cycles() {
    let mut latencies = Vec::new();
    for target in 0..4u8 {
        let mut sim = chain(4);
        sim.send(0, 0, read(target, 9)).unwrap();
        let mut cycles = 0;
        loop {
            sim.clock().unwrap();
            cycles += 1;
            if sim.recv(0, 0).is_ok() {
                break;
            }
            assert!(cycles < 64, "target {target} unreachable");
        }
        latencies.push(cycles);
    }
    assert!(
        latencies.windows(2).all(|w| w[0] < w[1]),
        "latency must grow with chain depth: {latencies:?}"
    );
}

#[test]
fn clock_updates_are_stage_six() {
    let mut sim = single();
    assert_eq!(sim.current_clock(), 0);
    for i in 1..=5 {
        sim.clock().unwrap();
        assert_eq!(sim.current_clock(), i);
    }
}

#[test]
fn trace_events_are_stamped_within_the_current_clock_domain() {
    // "All trace messages reported by the first four stages are
    // registered within the current clock domain" (§IV.C.6): events from
    // cycle N carry clock value N, not N+1.
    use hmc_sim::hmc_trace::{SharedSink, Tracer, VecSink, Verbosity};
    let mut sim = single();
    let sink = SharedSink::new(VecSink::default());
    sim.set_tracer(Tracer::new(Verbosity::Full, Box::new(sink.clone())));
    sim.send(0, 0, read(0, 3)).unwrap();
    sim.clock().unwrap();
    let records = &sink.0.lock().records;
    assert!(!records.is_empty());
    assert!(
        records.iter().all(|r| r.cycle == 0),
        "first-cycle events carry clock value 0"
    );
}
