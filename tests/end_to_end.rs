//! Functional end-to-end tests: data integrity through the full device
//! pipeline for every command class, all block sizes, and the host/driver
//! stack.

use hmc_sim::hmc_core::{decode_response, topology, HmcSim};
use hmc_sim::hmc_host::{run_workload, Host, RunConfig};
use hmc_sim::hmc_types::{
    BlockSize, Command, DeviceConfig, Packet, ResponseStatus, StorageMode,
};
use hmc_sim::hmc_workloads::{
    Gups, PointerChase, RandomAccess, Stencil, Stream, StreamMode, UpdateKind,
};

fn sim() -> HmcSim {
    let mut s = HmcSim::new(1, DeviceConfig::small().with_queue_depths(32, 16)).unwrap();
    let host = s.host_cube_id(0);
    topology::build_simple(&mut s, host).unwrap();
    s
}

/// Send one request and pump the clock until its response returns.
fn transact(sim: &mut HmcSim, link: u8, packet: Packet) -> hmc_sim::hmc_core::ResponseInfo {
    let what = format!("{:?} tag {}", packet.cmd().unwrap(), packet.tag());
    sim.send(0, link, packet).unwrap();
    for _ in 0..64 {
        sim.clock().unwrap();
        if let Ok(p) = sim.recv(0, link) {
            return decode_response(&p).unwrap();
        }
    }
    panic!("{what}: no response within 64 cycles");
}

#[test]
fn write_read_roundtrip_at_every_block_size() {
    let mut s = sim();
    for (i, bs) in BlockSize::ALL.iter().enumerate() {
        let addr = (i as u64) * 4096;
        let data: Vec<u8> = (0..bs.bytes() as u32).map(|b| (b % 251) as u8).collect();
        let wr = Packet::request(Command::Wr(*bs), 0, addr, 1, 0, &data).unwrap();
        let r = transact(&mut s, 0, wr);
        assert_eq!(r.cmd, Command::WrResponse, "{bs:?}");
        assert!(r.is_ok());
        let rd = Packet::request(Command::Rd(*bs), 0, addr, 2, 0, &[]).unwrap();
        let r = transact(&mut s, 0, rd);
        assert_eq!(r.cmd, Command::RdResponse);
        assert_eq!(r.data, data, "{bs:?} data integrity");
    }
}

#[test]
fn posted_writes_land_without_responses() {
    let mut s = sim();
    let data = [0x42u8; 32];
    let wr = Packet::request(Command::PostedWr(BlockSize::B32), 0, 0x2000, 0x1ff, 0, &data)
        .unwrap();
    s.send(0, 0, wr).unwrap();
    for _ in 0..8 {
        s.clock().unwrap();
    }
    assert!(s.recv(0, 0).is_err(), "posted write produces no response");
    let rd = Packet::request(Command::Rd(BlockSize::B32), 0, 0x2000, 1, 0, &[]).unwrap();
    let r = transact(&mut s, 0, rd);
    assert_eq!(r.data, data.to_vec(), "posted data is durable");
}

#[test]
fn atomic_commands_read_modify_write() {
    let mut s = sim();
    // Seed [100, 200] at 0x3000.
    let mut seed = [0u8; 16];
    seed[..8].copy_from_slice(&100u64.to_le_bytes());
    seed[8..].copy_from_slice(&200u64.to_le_bytes());
    transact(
        &mut s,
        0,
        Packet::request(Command::Wr(BlockSize::B16), 0, 0x3000, 1, 0, &seed).unwrap(),
    );
    // 2ADD8 adds (5, 7).
    let mut ops = [0u8; 16];
    ops[..8].copy_from_slice(&5u64.to_le_bytes());
    ops[8..].copy_from_slice(&7u64.to_le_bytes());
    let r = transact(
        &mut s,
        0,
        Packet::request(Command::TwoAdd8, 0, 0x3000, 2, 0, &ops).unwrap(),
    );
    assert_eq!(r.cmd, Command::WrResponse);
    // ADD16 adds 1 (128-bit).
    let mut one = [0u8; 16];
    one[0] = 1;
    transact(
        &mut s,
        0,
        Packet::request(Command::Add16, 0, 0x3000, 3, 0, &one).unwrap(),
    );
    // BWR clears the low 32 bits of the first word.
    let mut bwr = [0u8; 16];
    bwr[8..].copy_from_slice(&0x0000_0000_ffff_ffffu64.to_le_bytes());
    transact(
        &mut s,
        0,
        Packet::request(Command::Bwr, 0, 0x3000, 4, 0, &bwr).unwrap(),
    );
    let r = transact(
        &mut s,
        0,
        Packet::request(Command::Rd(BlockSize::B16), 0, 0x3000, 5, 0, &[]).unwrap(),
    );
    let w0 = u64::from_le_bytes(r.data[..8].try_into().unwrap());
    let w1 = u64::from_le_bytes(r.data[8..].try_into().unwrap());
    // 100 + 5 (2ADD8) + 1 (ADD16) = 106, then BWR clears its low 32 bits.
    assert_eq!(w0, 106 & 0xffff_ffff_0000_0000);
    assert_eq!(w1, 207, "200 + 7, ADD16 carry does not reach word 1");
}

#[test]
fn out_of_range_addresses_produce_error_responses() {
    let mut s = sim();
    let over = s.config().capacity_bytes;
    let rd = Packet::request(Command::Rd(BlockSize::B16), 0, over, 1, 0, &[]).unwrap();
    let r = transact(&mut s, 0, rd);
    assert_eq!(r.cmd, Command::ErrorResponse);
    assert_eq!(r.status, ResponseStatus::AddressError);
    assert!(r.data_invalid);
    // The device's global error register counted it.
    assert!(s.jtag_reg_read(0, hmc_sim::hmc_core::regs::ERR).unwrap() >= 1);
}

#[test]
fn every_workload_generator_runs_clean_through_the_driver() {
    let host_id;
    let mut s = {
        let mut s = HmcSim::new(
            1,
            DeviceConfig::small()
                .with_queue_depths(32, 16)
                .with_storage_mode(StorageMode::Functional),
        )
        .unwrap();
        host_id = s.host_cube_id(0);
        topology::build_simple(&mut s, host_id).unwrap();
        s
    };
    let mut host = Host::attach(&s, host_id).unwrap();

    let reports = [
        run_workload(
            &mut s,
            &mut host,
            &mut RandomAccess::new(1, 1 << 24, BlockSize::B64, 50, 2_000),
            RunConfig::default(),
        )
        .unwrap(),
        run_workload(
            &mut s,
            &mut host,
            &mut Stream::unit(1 << 20, BlockSize::B128, StreamMode::Copy, 1_000),
            RunConfig::default(),
        )
        .unwrap(),
        run_workload(
            &mut s,
            &mut host,
            &mut Gups::new(2, 1 << 20, UpdateKind::Add16, 1_000),
            RunConfig::default(),
        )
        .unwrap(),
        run_workload(
            &mut s,
            &mut host,
            &mut PointerChase::new(3, 1 << 16, BlockSize::B64, 500),
            RunConfig::default(),
        )
        .unwrap(),
        run_workload(
            &mut s,
            &mut host,
            &mut Stencil::new(16, 16, BlockSize::B64, 1),
            RunConfig::default(),
        )
        .unwrap(),
    ];
    for r in &reports {
        assert_eq!(r.errors, 0);
        assert_eq!(r.completed + r.posted, r.injected);
        assert!(r.cycles > 0);
    }
    assert!(s.is_idle());
}

#[test]
fn functional_gups_updates_are_all_applied() {
    let mut s = sim();
    let host_id = s.host_cube_id(0);
    let host = Host::attach(&s, host_id).unwrap();
    // 100 ADD16 updates over a tiny 4-slot table, then read the table
    // back and verify the sum of all slots equals the update count times
    // the operand (each update adds the address-seeded payload pattern —
    // so instead verify via direct packets on a single slot).
    let mut total = 0u64;
    for i in 0..100u64 {
        let mut op = [0u8; 16];
        op[..8].copy_from_slice(&i.to_le_bytes());
        let r = transact(
            &mut s,
            0,
            Packet::request(Command::Add16, 0, 0x4000, 1, 0, &op).unwrap(),
        );
        assert!(r.is_ok());
        total += i;
    }
    let rd = Packet::request(Command::Rd(BlockSize::B16), 0, 0x4000, 2, 0, &[]).unwrap();
    let r = transact(&mut s, 0, rd);
    let w0 = u64::from_le_bytes(r.data[..8].try_into().unwrap());
    assert_eq!(w0, total);
    drop(host);
}

#[test]
fn timing_only_mode_preserves_cycle_behaviour() {
    // The same workload must take the same number of cycles in
    // functional and timing-only modes — only data movement differs.
    let mut cycles = Vec::new();
    for mode in [StorageMode::Functional, StorageMode::TimingOnly] {
        let mut s = HmcSim::new(
            1,
            DeviceConfig::small()
                .with_queue_depths(32, 16)
                .with_storage_mode(mode),
        )
        .unwrap();
        let host_id = s.host_cube_id(0);
        topology::build_simple(&mut s, host_id).unwrap();
        let mut host = Host::attach(&s, host_id).unwrap();
        let mut w = RandomAccess::new(5, 1 << 28, BlockSize::B64, 50, 3_000);
        let r = run_workload(&mut s, &mut host, &mut w, RunConfig::default()).unwrap();
        cycles.push(r.cycles);
    }
    assert_eq!(cycles[0], cycles[1], "storage mode must not affect timing");
}

#[test]
fn clock_batch_matches_per_cycle_clocking() {
    // One `clock_batch(16)` must leave exactly what sixteen `clock()`
    // calls leave — on a nearly idle device (most of the batch is dead
    // cycles) and on a loaded `small()` one.
    for requests in [1u16, 24] {
        let build = || {
            let mut s = HmcSim::new(1, DeviceConfig::small()).unwrap();
            let host = s.host_cube_id(0);
            topology::build_simple(&mut s, host).unwrap();
            for tag in 0..requests {
                let (link, addr) = ((tag % 4) as u8, 0x40 + u64::from(tag) * 0x1_0040);
                let cmd = Command::Rd(BlockSize::B64);
                let p = Packet::request(cmd, 0, addr, tag, link, &[]).unwrap();
                s.send(0, link, p).unwrap();
            }
            s
        };
        let drain = |s: &mut HmcSim| {
            let mut got = Vec::new();
            for link in 0..4 {
                while let Ok((p, latency)) = s.recv_with_latency(0, link) {
                    got.push((link, p.tag(), p.data_words().to_vec(), latency));
                }
            }
            got
        };
        let mut single = build();
        for _ in 0..16 {
            single.clock().unwrap();
        }
        let mut batched = build();
        batched.clock_batch(16).unwrap();
        let what = format!("{requests} request(s)");
        assert_eq!(single.current_clock(), batched.current_clock(), "{what}");
        assert_eq!(single.stats(), batched.stats(), "{what}");
        let got = drain(&mut single);
        assert!(!got.is_empty(), "{what}: responses inside the batch");
        assert_eq!(got, drain(&mut batched), "{what}");
    }
}
