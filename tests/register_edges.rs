//! The stage-6 register edge, stepped and batched: an RWS write
//! self-clears at the first edge, the IBTC registers mirror each link's
//! live token count, and an AC write selects the address map that
//! routes packets from the next edge on. A batch's jump runs stage 6
//! once, so each check runs with `clock_batch` over a span the horizon
//! can jump as well as with one `clock()` per cycle. A reset returns
//! the AC register and the map it selected to power-on together.

use hmc_sim::hmc_core::{regs, topology, HmcSim};
use hmc_sim::hmc_host::{run_workload, Host, RunConfig, RunReport};
use hmc_sim::hmc_types::{
    AddressMap, BlockSize, Command, DecodedAddr, DeviceConfig, LinearMap, LowInterleaveMap, Packet,
    PhysAddr, StorageMode,
};
use hmc_sim::hmc_workloads::RandomAccess;

fn sim() -> HmcSim {
    let cfg = DeviceConfig::small().with_storage_mode(StorageMode::TimingOnly);
    let mut sim = HmcSim::new(1, cfg).unwrap();
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    sim
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

fn decode(map: &dyn AddressMap, addr: u64) -> DecodedAddr {
    map.decode(PhysAddr::new(addr).unwrap()).unwrap()
}

fn read(addr: u64, tag: u16, link: u8) -> Packet {
    Packet::request(Command::Rd(BlockSize::B64), 0, addr, tag, link, &[]).unwrap()
}

/// Reads each vault has processed.
fn vault_reads(sim: &HmcSim) -> Vec<u64> {
    sim.device(0)
        .unwrap()
        .vaults
        .iter()
        .map(|v| v.stats.reads)
        .collect()
}

#[test]
fn rws_writes_clear_at_the_first_edge() {
    for batched in [false, true] {
        for span in [1, 1_000] {
            let mut s = sim();
            s.jtag_reg_write(0, regs::EDR0, 0xff).unwrap();
            s.jtag_reg_write(0, regs::EDR0, 0xfe).unwrap();
            assert_eq!(s.jtag_reg_read(0, regs::EDR0).unwrap(), 0xfe);
            advance(&mut s, span, batched);
            assert_eq!(s.jtag_reg_read(0, regs::EDR0).unwrap(), 0);
            // A second round after the first edge clears as well, every
            // register written.
            s.jtag_reg_write(0, regs::EDR1, 1).unwrap();
            s.jtag_reg_write(0, regs::EDR3, 3).unwrap();
            advance(&mut s, span, batched);
            for reg in [regs::EDR0, regs::EDR1, regs::EDR2, regs::EDR3] {
                assert_eq!(
                    s.jtag_reg_read(0, reg).unwrap(),
                    0,
                    "{reg:#x}, batched {batched}, span {span}"
                );
            }
        }
    }
}

#[test]
fn ibtc_registers_mirror_live_link_tokens() {
    for batched in [false, true] {
        for span in [1, 1_000] {
            let mut s = sim();
            // Reads for vault 0 (its queue holds four): link 0 fills it
            // and leaves one waiting, links 1 to 3 leave two, three and
            // four, so after one cycle every link has spent a different
            // number of tokens and a slot mix-up shows. After a longer
            // span the vault has taken them all and the tokens are back.
            let mut tag = 0;
            for (link, reads) in [5, 2, 3, 4].into_iter().enumerate() {
                for _ in 0..reads {
                    let addr = u64::from(tag) * 0x800;
                    s.send(0, link as u8, read(addr, tag, link as u8)).unwrap();
                    tag += 1;
                }
            }
            advance(&mut s, span, batched);
            let d = s.device(0).unwrap();
            let tokens: Vec<u64> = d.links.iter().map(|l| u64::from(l.tokens)).collect();
            let ibtc: Vec<u64> = (0..4u8)
                .map(|l| s.jtag_reg_read(0, regs::ibtc(l)).unwrap())
                .collect();
            assert_eq!(ibtc, tokens, "batched {batched}, span {span}");
            let distinct = tokens.iter().collect::<std::collections::BTreeSet<_>>();
            assert_eq!(distinct.len(), if span == 1 { 4 } else { 1 }, "{tokens:?}");
        }
    }
}

#[test]
fn an_ac_write_reroutes_from_the_next_edge() {
    let geometry = DeviceConfig::small().geometry();
    let low = LowInterleaveMap::new(geometry).unwrap();
    let linear = LinearMap::new(geometry).unwrap();
    // Two addresses whose vault differs under the two maps.
    let (a, b) = (0x12340, 0x56780);
    for addr in [a, b] {
        assert_ne!(decode(&low, addr).vault, decode(&linear, addr).vault);
    }
    for batched in [false, true] {
        for span in [1, 1_000] {
            let mut s = sim();
            s.jtag_reg_write(0, regs::AC, 2).unwrap();
            // Routed in stage 2 of the cycle whose stage 6 applies the
            // write: still under the power-on map.
            s.send(0, 0, read(a, 1, 0)).unwrap();
            advance(&mut s, span, batched);
            assert_eq!(decode(s.address_map(), b), decode(&linear, b));
            s.send(0, 0, read(b, 2, 0)).unwrap();
            advance(&mut s, 1_000, batched);
            let mut expect = vec![0; 16];
            expect[decode(&low, a).vault as usize] += 1;
            expect[decode(&linear, b).vault as usize] += 1;
            assert_eq!(vault_reads(&s), expect, "batched {batched}, span {span}");
        }
    }
}

fn random_access_report(sim: &mut HmcSim) -> RunReport {
    let mut host = Host::attach(sim, sim.host_cube_id(0)).unwrap();
    let mut w = RandomAccess::new(7, 1 << 30, BlockSize::B64, 50, 20_000);
    run_workload(sim, &mut host, &mut w, RunConfig::default()).unwrap()
}

#[test]
fn reset_restores_the_power_on_map_after_an_ac_swap() {
    let mut fresh = sim();
    let fresh_decode = decode(fresh.address_map(), 0x12340);
    let fresh_report = random_access_report(&mut fresh);

    let mut s = sim();
    s.jtag_reg_write(0, regs::AC, 1).unwrap();
    s.clock().unwrap();
    assert_ne!(decode(s.address_map(), 0x12340), fresh_decode);
    s.reset();
    assert_eq!(s.jtag_reg_read(0, regs::AC).unwrap(), 0);
    assert_eq!(decode(s.address_map(), 0x12340), fresh_decode);
    assert_eq!(random_access_report(&mut s), fresh_report);
}

#[test]
fn reset_keeps_a_map_installed_under_mode_zero() {
    let geometry = DeviceConfig::small().geometry();
    let linear = LinearMap::new(geometry).unwrap();
    let mut s = sim();
    s.set_address_map(Box::new(linear)).unwrap();
    s.clock().unwrap();
    s.reset();
    assert_eq!(s.address_map().name(), linear.name());
    assert_eq!(decode(s.address_map(), 0x12340), decode(&linear, 0x12340));
}
