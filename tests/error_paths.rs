//! Error-path coverage: misroutes, zombies, address errors, command
//! errors, CRC rejection, and stall signalling — the behaviours §IV
//! requirement 2 demands for deliberately misconfigured systems.

use hmc_sim::hmc_core::{decode_response, topology, HmcSim, SimParams};
use hmc_sim::hmc_trace::{CountingSink, EventKind, SharedSink, Tracer, Verbosity};
use hmc_sim::hmc_types::{
    BlockSize, Command, DeviceConfig, HmcError, Packet, ResponseStatus,
};

fn traced_sim(n: u8) -> (HmcSim, SharedSink<CountingSink>) {
    let mut s = HmcSim::new(n, DeviceConfig::small()).unwrap();
    let sink = SharedSink::new(CountingSink::default());
    s.set_tracer(Tracer::new(Verbosity::Stalls, Box::new(sink.clone())));
    (s, sink)
}

fn pump_for_response(sim: &mut HmcSim, link: u8, max: u32) -> Option<Packet> {
    for _ in 0..max {
        sim.clock().unwrap();
        if let Ok(p) = sim.recv(0, link) {
            return Some(p);
        }
    }
    None
}

#[test]
fn request_to_nonexistent_cube_is_misrouted_with_trace() {
    let (mut sim, sink) = traced_sim(1);
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    // Cube 5 does not exist anywhere in the topology.
    let req = Packet::request(Command::Rd(BlockSize::B16), 5, 0, 1, 0, &[]).unwrap();
    sim.send(0, 0, req).unwrap();
    let rsp = pump_for_response(&mut sim, 0, 8).expect("error response");
    let info = decode_response(&rsp).unwrap();
    assert_eq!(info.status, ResponseStatus::Misroute);
    assert_eq!(info.tag, 1);
    let counters = &sink.0.lock().counters;
    assert_eq!(counters.get(EventKind::Misroute), 1);
    assert_eq!(counters.get(EventKind::ErrorResponse), 1);
}

#[test]
fn zombie_detection_retires_packets_that_circle() {
    // A ring with a tiny hop budget: a request for a far device exceeds
    // the budget and is retired as a zombie.
    let (mut sim, sink) = {
        let mut s = HmcSim::new(6, DeviceConfig::small())
            .unwrap()
            .with_params(SimParams {
                hop_budget: 2,
                ..SimParams::default()
            });
        let sink = SharedSink::new(CountingSink::default());
        s.set_tracer(Tracer::new(Verbosity::Stalls, Box::new(sink.clone())));
        (s, sink)
    };
    let host = sim.host_cube_id(0);
    topology::build_chain(&mut sim, host).unwrap();
    // Device 5 is 5 hops away; budget is 2.
    let req = Packet::request(Command::Rd(BlockSize::B16), 5, 0, 3, 0, &[]).unwrap();
    sim.send(0, 0, req).unwrap();
    let rsp = pump_for_response(&mut sim, 0, 16).expect("zombie error response");
    let info = decode_response(&rsp).unwrap();
    assert_eq!(info.status, ResponseStatus::Zombie);
    assert!(sink.0.lock().counters.get(EventKind::Zombie) >= 1);
}

#[test]
fn address_beyond_capacity_is_an_address_error() {
    let (mut sim, _) = traced_sim(1);
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    let req =
        Packet::request(Command::Rd(BlockSize::B16), 0, (1 << 34) - 64, 2, 0, &[]).unwrap();
    sim.send(0, 0, req).unwrap();
    let rsp = pump_for_response(&mut sim, 0, 8).expect("error response");
    assert_eq!(rsp.errstat().unwrap(), ResponseStatus::AddressError);
}

#[test]
fn corrupt_crc_is_rejected_at_send() {
    let mut sim = HmcSim::new(1, DeviceConfig::small()).unwrap();
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    let mut req = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 1, 0, &[]).unwrap();
    req.data[0] ^= 1; // corrupt a dead word: CRC still fine
    assert!(sim.send(0, 0, req.clone()).is_ok());
    req.set_addr(0x40); // corrupt a live field without resealing
    assert!(matches!(
        sim.send(0, 0, req),
        Err(HmcError::InvalidPacket(_))
    ));
}

#[test]
fn stall_signalling_matches_queue_capacity() {
    let mut sim = HmcSim::new(
        1,
        DeviceConfig::small().with_queue_depths(4, 2),
    )
    .unwrap();
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    for tag in 0..4 {
        let req = Packet::request(Command::Rd(BlockSize::B16), 0, 0, tag, 0, &[]).unwrap();
        sim.send(0, 0, req).unwrap();
    }
    let req = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 4, 0, &[]).unwrap();
    let err = sim.send(0, 0, req).unwrap_err();
    assert!(err.is_stall());
    // One clock frees slots (the crossbar drains into vaults).
    sim.clock().unwrap();
    let req = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 5, 0, &[]).unwrap();
    assert!(sim.send(0, 0, req).is_ok());
}

#[test]
fn vault_response_queue_backpressure_stalls_processing() {
    // Tiny response queues + no host drain: vaults must hold requests
    // rather than dropping responses.
    let mut sim = HmcSim::new(
        1,
        DeviceConfig::small().with_queue_depths(16, 1),
    )
    .unwrap();
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    // Two reads to the same vault: the second's response cannot register
    // while the first still occupies the single vault response slot...
    // but stage 5 drains the slot into the (roomier) crossbar response
    // queue each cycle, so after enough cycles both responses exist.
    for tag in 0..2 {
        let req = Packet::request(Command::Rd(BlockSize::B16), 0, 0, tag, 0, &[]).unwrap();
        sim.send(0, 0, req).unwrap();
    }
    let mut got = 0;
    for _ in 0..16 {
        sim.clock().unwrap();
        while sim.recv(0, 0).is_ok() {
            got += 1;
        }
    }
    assert_eq!(got, 2, "both responses eventually deliver");
}

#[test]
fn error_register_accumulates_device_side_failures() {
    let mut sim = HmcSim::new(1, DeviceConfig::small()).unwrap();
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    let err_reg = hmc_sim::hmc_core::regs::ERR;
    assert_eq!(sim.jtag_reg_read(0, err_reg).unwrap(), 0);
    for i in 0..3 {
        let req = Packet::request(
            Command::Rd(BlockSize::B16),
            0,
            (1 << 34) - 64,
            i,
            0,
            &[],
        )
        .unwrap();
        sim.send(0, 0, req).unwrap();
        pump_for_response(&mut sim, 0, 8).unwrap();
    }
    assert_eq!(sim.jtag_reg_read(0, err_reg).unwrap(), 3);
}

#[test]
fn vault_failures_are_traced_and_counted_posted_or_not() {
    // A 128-byte write on a 64-byte-block device decodes, routes and
    // reaches its bank, which refuses the span: a vault-level failure.
    // The posted form owes no response but is traced and counted alike.
    let err_reg = hmc_sim::hmc_core::regs::ERR;
    for (cmd, responds) in [
        (Command::Wr(BlockSize::B128), true),
        (Command::PostedWr(BlockSize::B128), false),
    ] {
        let mut sim =
            HmcSim::new(1, DeviceConfig::small().with_block_size(BlockSize::B64)).unwrap();
        let sink = SharedSink::new(CountingSink::default());
        sim.set_tracer(Tracer::new(Verbosity::Stalls, Box::new(sink.clone())));
        let host = sim.host_cube_id(0);
        topology::build_simple(&mut sim, host).unwrap();
        let req = Packet::request(cmd, 0, 0x1000, 9, 0, &[0x5a; 128]).unwrap();
        sim.send(0, 0, req).unwrap();
        let rsp = pump_for_response(&mut sim, 0, 16);
        assert_eq!(rsp.is_some(), responds, "{cmd:?}");
        if let Some(rsp) = rsp {
            assert_eq!(rsp.errstat().unwrap(), ResponseStatus::InternalError);
        }
        assert_eq!(
            sink.0.lock().counters.get(EventKind::ErrorResponse),
            1,
            "{cmd:?}"
        );
        assert_eq!(sim.jtag_reg_read(0, err_reg).unwrap(), 1, "{cmd:?}");
    }
}

#[test]
fn an_error_response_waits_for_a_full_response_queue() {
    // Eight reads fill link 0's response queue (crossbar depth 8) and
    // stay there: the host never receives them. A ninth request the
    // crossbar answers itself must wait in its slot for a response slot,
    // not retire with its error response dropped.
    let mut sim = HmcSim::new(1, DeviceConfig::small()).unwrap();
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    for tag in 0..8 {
        let addr = 0x40 * tag as u64;
        let req = Packet::request(Command::Rd(BlockSize::B16), 0, addr, tag, 0, &[]).unwrap();
        sim.send(0, 0, req).unwrap();
    }
    for _ in 0..50 {
        sim.clock().unwrap();
    }
    assert_eq!(sim.pending_responses(0, 0).unwrap(), 8);

    let beyond = sim.config().capacity_bytes + 4096;
    let req = Packet::request(Command::Rd(BlockSize::B16), 0, beyond, 100, 0, &[]).unwrap();
    sim.send(0, 0, req).unwrap();
    for _ in 0..50 {
        sim.clock().unwrap();
    }
    assert_eq!(
        sim.free_request_slots(0, 0).unwrap(),
        7,
        "the bad request waits in its crossbar slot"
    );

    let mut answered = Vec::new();
    for _ in 0..50 {
        while let Ok(p) = sim.recv(0, 0) {
            let info = decode_response(&p).unwrap();
            answered.push((info.tag, info.status));
        }
        sim.clock().unwrap();
    }
    assert!(sim.is_idle());
    let mut clean: Vec<u16> = answered
        .iter()
        .filter(|&&(_, status)| status == ResponseStatus::Ok)
        .map(|&(tag, _)| tag)
        .collect();
    clean.sort_unstable();
    assert_eq!(clean, (0..8).collect::<Vec<u16>>());
    let errors: Vec<_> = answered.iter().filter(|&&(tag, _)| tag == 100).collect();
    assert_eq!(errors, [&(100, ResponseStatus::AddressError)]);
}
