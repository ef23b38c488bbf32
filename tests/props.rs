//! Property-based tests over the protocol and addressing invariants:
//! packet codec roundtrips, CRC error detection, address-map bijectivity,
//! queue FIFO discipline, and end-to-end data integrity under random
//! operation sequences.

use proptest::prelude::*;

use hmc_sim::hmc_core::queue::{ClassCensus, UNCLASSIFIED};
use hmc_sim::hmc_core::{decode_response, topology, HmcSim, PacketQueue, QueueEntry};
use hmc_sim::hmc_types::address::{AddressMap, Field};
use hmc_sim::hmc_types::crc::crc32k;
use hmc_sim::hmc_types::{
    BankFirstMap, BlockSize, Command, CustomMap, DeviceConfig, LinearMap, LowInterleaveMap,
    MapGeometry, Packet, PhysAddr,
};

fn arb_block_size() -> impl Strategy<Value = BlockSize> {
    prop::sample::select(BlockSize::ALL.to_vec())
}

fn arb_request_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        arb_block_size().prop_map(Command::Rd),
        arb_block_size().prop_map(Command::Wr),
        arb_block_size().prop_map(Command::PostedWr),
        Just(Command::TwoAdd8),
        Just(Command::Add16),
        Just(Command::Bwr),
        Just(Command::PostedTwoAdd8),
        Just(Command::PostedAdd16),
        Just(Command::PostedBwr),
        Just(Command::ModeRead),
        Just(Command::ModeWrite),
    ]
}

proptest! {
    #[test]
    fn packet_request_roundtrips_all_fields(
        cmd in arb_request_command(),
        cub in 0u8..8,
        addr in 0u64..(1 << 34),
        tag in 0u16..512,
        link in 0u8..8,
        seed in any::<u8>(),
    ) {
        let data: Vec<u8> = (0..cmd.request_data_bytes())
            .map(|i| seed.wrapping_add(i as u8))
            .collect();
        let p = Packet::request(cmd, cub, addr, tag, link, &data).unwrap();
        prop_assert_eq!(p.cmd().unwrap(), cmd);
        prop_assert_eq!(p.cub(), cub);
        prop_assert_eq!(p.addr(), addr);
        prop_assert_eq!(p.tag(), tag);
        prop_assert_eq!(p.slid(), link);
        prop_assert_eq!(p.lng(), cmd.request_flits());
        prop_assert_eq!(p.data_as_bytes(), data);
        prop_assert!(p.validate().is_ok());
    }

    #[test]
    fn header_bit_corruption_never_passes_validation(
        addr in 0u64..(1 << 34),
        tag in 0u16..512,
        bit in 0u32..64,
    ) {
        let mut p = Packet::request(Command::Rd(BlockSize::B64), 1, addr, tag, 0, &[]).unwrap();
        p.header ^= 1u64 << bit;
        // Either the CRC catches it, or (if it's a reserved bit) the CRC
        // changes; no silent pass of a *live* field flip is possible.
        let live = p.validate().is_ok();
        if live {
            // Only reserved-bit flips may still validate — but then the
            // CRC must have been recomputed... which we never did, so a
            // passing packet means the bit was reserved AND the CRC
            // covers it. CRC covers all 64 header bits, so nothing may
            // pass.
            prop_assert!(false, "corrupted header bit {bit} passed validation");
        }
    }

    #[test]
    fn crc_differs_for_different_payloads(a in any::<Vec<u8>>(), b in any::<Vec<u8>>()) {
        prop_assume!(a != b);
        // Not a cryptographic guarantee, but for short random inputs a
        // collision would almost surely indicate an implementation bug.
        prop_assume!(a.len() <= 144 && b.len() <= 144);
        if crc32k(&a) == crc32k(&b) {
            // Allow the astronomically rare true collision: lengths must
            // at least differ for it to be plausible.
            prop_assert_ne!(a.len(), b.len(), "CRC collision on equal-length short inputs");
        }
    }

    #[test]
    fn address_maps_are_bijective(
        order in prop::sample::select(vec![
            [Field::Vault, Field::Bank, Field::Row],
            [Field::Bank, Field::Vault, Field::Row],
            [Field::Row, Field::Bank, Field::Vault],
            [Field::Vault, Field::Row, Field::Bank],
            [Field::Row, Field::Vault, Field::Bank],
            [Field::Bank, Field::Row, Field::Vault],
        ]),
        addr_seed in any::<u64>(),
    ) {
        let g = MapGeometry { block_bytes: 64, vaults: 16, banks: 8, rows: 1 << 16 };
        let m = CustomMap::new(g, order).unwrap();
        let addr = PhysAddr::new(addr_seed % g.capacity_bytes()).unwrap();
        let d = m.decode(addr).unwrap();
        prop_assert!(d.vault < 16);
        prop_assert!(d.bank < 8);
        prop_assert!(d.row < (1 << 16));
        prop_assert!(d.offset < 64);
        prop_assert_eq!(m.encode(d).unwrap(), addr);
    }

    #[test]
    fn all_map_kinds_are_bijective_on_paper_geometries(
        kind in 0usize..4,
        preset in 0usize..4,
        addr_seed in any::<u64>(),
        other_seed in any::<u64>(),
    ) {
        // The four map kinds the conformance fuzzer sweeps (three
        // specification maps plus a custom ordering), over the real
        // paper geometries — up to the 8 GB preset, which spans the
        // full 33-bit offset range of the 34-bit HMC address space.
        let g = DeviceConfig::paper_configs()[preset].1.geometry();
        let maps: [Box<dyn AddressMap>; 4] = [
            Box::new(LowInterleaveMap::new(g).unwrap()),
            Box::new(BankFirstMap::new(g).unwrap()),
            Box::new(LinearMap::new(g).unwrap()),
            Box::new(CustomMap::new(g, [Field::Row, Field::Vault, Field::Bank]).unwrap()),
        ];
        let m = &maps[kind];

        // decode ∘ encode is the identity on every in-capacity address…
        let addr = PhysAddr::new(addr_seed % g.capacity_bytes()).unwrap();
        let d = m.decode(addr).unwrap();
        prop_assert!(d.vault < g.vaults);
        prop_assert!(d.bank < g.banks);
        prop_assert!(d.row < g.rows);
        prop_assert!(d.offset < g.block_bytes);
        prop_assert_eq!(m.encode(d).unwrap(), addr);

        // …and injective: distinct addresses never decode to the same
        // (vault, bank, row, offset) coordinates.
        let other = PhysAddr::new(other_seed % g.capacity_bytes()).unwrap();
        let e = m.decode(other).unwrap();
        if addr != other {
            prop_assert!(
                (d.vault, d.bank, d.row, d.offset) != (e.vault, e.bank, e.row, e.offset),
                "coordinate collision between {:#x} and {:#x}",
                addr.raw(), other.raw()
            );
        }

        // Same (vault, bank, row) block => the addresses differ only in
        // their offset bits (blocks never alias).
        if (d.vault, d.bank, d.row) == (e.vault, e.bank, e.row) {
            let back = m.encode(hmc_sim::hmc_types::DecodedAddr { offset: e.offset, ..d }).unwrap();
            prop_assert_eq!(back, other, "block aliasing between distinct addresses");
        }

        // Addresses past the device capacity are rejected, not wrapped.
        if g.capacity_bytes() < (1 << hmc_sim::hmc_types::PhysAddr::BITS) {
            let beyond = PhysAddr::new(g.capacity_bytes()).unwrap();
            prop_assert!(m.decode(beyond).is_err());
        }
    }

    #[test]
    fn standard_maps_agree_on_offset_and_ranges(addr_seed in any::<u64>()) {
        let g = MapGeometry { block_bytes: 128, vaults: 32, banks: 16, rows: 1 << 12 };
        let addr = PhysAddr::new(addr_seed % g.capacity_bytes()).unwrap();
        let maps: [&dyn AddressMap; 3] = [
            &LowInterleaveMap::new(g).unwrap(),
            &BankFirstMap::new(g).unwrap(),
            &LinearMap::new(g).unwrap(),
        ];
        let offsets: Vec<u32> = maps.iter().map(|m| m.decode(addr).unwrap().offset).collect();
        prop_assert!(offsets.windows(2).all(|w| w[0] == w[1]),
            "all maps share the in-block offset");
    }

    /// The one packet queue against a `Vec<(tag, word)>`: every
    /// operation that moves slots must move their words with them, and
    /// keep the class census a recount of the words. The words are
    /// route classes (one bit each, `UNCLASSIFIED` among them), as in a
    /// crossbar request queue. The depths are shallow, so the ring's seam
    /// moves through every position.
    #[test]
    fn queue_preserves_fifo_under_random_push_pop(
        depth in 1usize..=9,
        ops in prop::collection::vec((0u8..8, any::<u16>()), 1..300),
    ) {
        // Few classes, so that a class is often held by several slots.
        let class = |arg: u16| match arg % 6 {
            5 => UNCLASSIFIED,
            v => 1u64 << (v * 7),
        };
        let mut q = PacketQueue::<u64>::new(depth);
        let mut model: Vec<(u16, u64)> = Vec::new();
        let mut next_tag = 0u16;
        for (op, arg) in ops {
            match op {
                0..=2 => {
                    let tag = next_tag % 512;
                    let p = Packet::request(Command::Rd(BlockSize::B16), 0, 0, tag, 0, &[]).unwrap();
                    match q.push_with(QueueEntry::new(p, 1, 0, 0), class(arg)) {
                        Ok(()) => model.push((tag, class(arg))),
                        Err(back) => {
                            prop_assert_eq!(model.len(), depth, "refused below depth");
                            prop_assert_eq!(back.packet.tag(), tag);
                        }
                    }
                    next_tag = next_tag.wrapping_add(1);
                }
                3 => {
                    let got = q.pop().map(|e| e.packet.tag());
                    let want = (!model.is_empty()).then(|| model.remove(0).0);
                    prop_assert_eq!(got, want);
                }
                4 => {
                    // Out of range one time in `len + 1`.
                    let i = arg as usize % (model.len() + 1);
                    let got = q.remove(i).map(|e| e.packet.tag());
                    let want = (i < model.len()).then(|| model.remove(i).0);
                    prop_assert_eq!(got, want);
                }
                5 if !model.is_empty() => {
                    let i = arg as usize % model.len();
                    q.set_word(i, class(arg >> 4));
                    model[i].1 = class(arg >> 4);
                }
                6 => {
                    // Vacate the slots whose bit is set in `arg`, then
                    // compact: the rest keep their order and words.
                    let vacated: Vec<usize> = (0..model.len()).filter(|i| arg >> i & 1 != 0).collect();
                    for &i in &vacated {
                        prop_assert_eq!(q.vacate(i).packet.tag(), model[i].0);
                    }
                    prop_assert_eq!(q.len(), model.len(), "a vacated slot still counts");
                    let mut removed = Vec::new();
                    q.compact(|i| removed.push(i));
                    prop_assert_eq!(removed, vacated.iter().rev().copied().collect::<Vec<_>>());
                    for &i in vacated.iter().rev() {
                        model.remove(i);
                    }
                }
                7 if arg % 16 == 0 => {
                    q.clear();
                    model.clear();
                }
                _ => {}
            }
            let slots: Vec<(u16, u64)> = q.iter().map(|e| e.packet.tag()).zip(q.words()).collect();
            prop_assert_eq!(&slots, &model);
            prop_assert_eq!(q.census(), &ClassCensus::of(model.iter().map(|m| m.1)));
            prop_assert_eq!(q.class_union(), model.iter().fold(0, |u, m| u | m.1));
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_full(), model.len() == depth);
            prop_assert_eq!(q.free_slots(), depth - model.len());
            prop_assert_eq!(q.front().map(|e| e.packet.tag()), model.first().map(|m| m.0));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_write_read_sequences_preserve_data(
        ops in prop::collection::vec((0u64..256, any::<u8>()), 1..40),
        seed in any::<u8>(),
    ) {
        // A reference model (HashMap of 16-byte blocks) must agree with
        // the simulated device after any random sequence of writes.
        let mut sim = HmcSim::new(1, DeviceConfig::small().with_queue_depths(64, 32)).unwrap();
        let host = sim.host_cube_id(0);
        topology::build_simple(&mut sim, host).unwrap();
        let mut model: std::collections::HashMap<u64, [u8; 16]> = Default::default();

        for (i, (block, value)) in ops.iter().enumerate() {
            let addr = block * 16;
            let data = [value.wrapping_add(seed); 16];
            let wr = Packet::request(
                Command::Wr(BlockSize::B16), 0, addr, (i % 512) as u16, 0, &data,
            ).unwrap();
            sim.send(0, 0, wr).unwrap();
            // Complete each write before the next to keep the model simple.
            let mut done = false;
            for _ in 0..32 {
                sim.clock().unwrap();
                if sim.recv(0, 0).is_ok() { done = true; break; }
            }
            prop_assert!(done);
            model.insert(addr, data);
        }
        for (addr, expect) in model {
            let rd = Packet::request(Command::Rd(BlockSize::B16), 0, addr, 0, 0, &[]).unwrap();
            sim.send(0, 0, rd).unwrap();
            let mut got = None;
            for _ in 0..32 {
                sim.clock().unwrap();
                if let Ok(p) = sim.recv(0, 0) {
                    got = Some(decode_response(&p).unwrap().data);
                    break;
                }
            }
            prop_assert_eq!(got.unwrap(), expect.to_vec());
        }
    }

    #[test]
    fn every_command_class_survives_device_transit(
        cmd in arb_request_command(),
        block in 0u64..1024,
    ) {
        prop_assume!(!cmd.is_mode()); // mode needs register addresses
        let mut sim = HmcSim::new(1, DeviceConfig::small()).unwrap();
        let host = sim.host_cube_id(0);
        topology::build_simple(&mut sim, host).unwrap();
        let addr = block * 128;
        let data: Vec<u8> = (0..cmd.request_data_bytes()).map(|i| i as u8).collect();
        let req = Packet::request(cmd, 0, addr, 5, 0, &data).unwrap();
        sim.send(0, 0, req).unwrap();
        let mut responses = 0;
        for _ in 0..32 {
            sim.clock().unwrap();
            while let Ok(p) = sim.recv(0, 0) {
                let info = decode_response(&p).unwrap();
                prop_assert!(info.is_ok());
                prop_assert_eq!(info.tag, 5);
                responses += 1;
            }
        }
        if cmd.response_command().is_some() {
            prop_assert_eq!(responses, 1, "{:?}", cmd);
        } else {
            prop_assert_eq!(responses, 0, "posted {:?}", cmd);
        }
        prop_assert!(sim.is_idle());
    }
}
