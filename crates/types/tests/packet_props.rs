//! Property tests over the protocol layer: field packing, CRC coverage,
//! command-table totality, and interleave-map structure.

use proptest::prelude::*;

use hmc_types::address::{AddressMap, Field};
use hmc_types::crc::{crc32k, Crc32k};
use hmc_types::{
    BlockSize, Command, CustomMap, HmcError, LowInterleaveMap, MapGeometry, Packet, PhysAddr,
    ResponseStatus,
};

/// `Packet::set_data_bytes` as it was when it copied every chunk of up to
/// eight bytes through a variable-length `copy_from_slice`.
fn set_data_bytes_reference(p: &mut Packet, bytes: &[u8]) {
    p.data = [0; 16];
    for (i, chunk) in bytes.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        p.data[i] = u64::from_le_bytes(word);
    }
}

/// `Packet::copy_data_to` of the same vintage.
fn copy_data_to_reference(p: &Packet, out: &mut [u8]) -> usize {
    let n = p.data_bytes();
    for (chunk, w) in out[..n].chunks_mut(8).zip(p.data_words()) {
        chunk.copy_from_slice(&w.to_le_bytes()[..chunk.len()]);
    }
    n
}

/// `Packet::response` as it was when it built every response in a fresh
/// packet: the reference the in-place rewrite must reproduce word for word.
fn response_reference(
    cmd: Command,
    tag: u16,
    slid: u8,
    status: ResponseStatus,
    data: &[u8],
) -> Packet {
    let mut p = Packet::default();
    p.set_cmd(cmd);
    p.set_tag(tag);
    let flits = hmc_types::flit::flits_for_data(data.len());
    p.set_lng(flits);
    p.set_dln(flits);
    p.set_errstat(status);
    p.set_response_slid(slid);
    p.set_dinv(!status.is_ok());
    set_data_bytes_reference(&mut p, data);
    p.seal();
    p
}

/// Every response the simulator builds: read data of each block size,
/// the three fixed-shape completions, and an error of each status.
fn every_response(payload: &[u8]) -> Vec<(Command, ResponseStatus, &[u8])> {
    let ok = ResponseStatus::Ok;
    let mut all = vec![
        (Command::WrResponse, ok, &payload[..0]),
        (Command::ModeReadResponse, ok, &payload[..16]),
        (Command::ModeWriteResponse, ok, &payload[..0]),
    ];
    all.extend(BlockSize::ALL.map(|bs| (Command::RdResponse, ok, &payload[..bs.bytes()])));
    all.extend(ResponseStatus::ALL.map(|status| (Command::ErrorResponse, status, &payload[..0])));
    all
}

proptest! {
    // ---------------------------------------------------------- packets

    #[test]
    fn header_fields_never_interfere(
        cub in 0u8..8,
        addr in 0u64..(1 << 34),
        tag in 0u16..512,
        lng in 1usize..=9,
    ) {
        let mut p = Packet::default();
        p.set_cub(cub);
        p.set_addr(addr);
        p.set_tag(tag);
        p.set_lng(lng);
        p.set_dln(lng);
        // Re-read every field after all writes: packing must be disjoint.
        prop_assert_eq!(p.cub(), cub);
        prop_assert_eq!(p.addr(), addr);
        prop_assert_eq!(p.tag(), tag);
        prop_assert_eq!(p.lng(), lng);
        prop_assert_eq!(p.dln(), lng);
        // Overwrite one field; the others must be untouched.
        p.set_addr(0);
        prop_assert_eq!(p.cub(), cub);
        prop_assert_eq!(p.tag(), tag);
    }

    #[test]
    fn tail_fields_never_interfere(
        crc in any::<u32>(),
        rtc in 0u8..32,
        slid in 0u8..8,
        seq in 0u8..8,
        frp in 0u16..512,
        rrp in 0u16..512,
    ) {
        let mut p = Packet::default();
        p.set_crc(crc);
        p.set_rtc(rtc);
        p.set_slid(slid);
        p.set_seq(seq);
        p.set_frp(frp);
        p.set_rrp(rrp);
        prop_assert_eq!(p.crc(), crc);
        prop_assert_eq!(p.rtc(), rtc);
        prop_assert_eq!(p.slid(), slid);
        prop_assert_eq!(p.seq(), seq);
        prop_assert_eq!(p.frp(), frp);
        prop_assert_eq!(p.rrp(), rrp);
    }

    #[test]
    fn payload_roundtrips_at_any_legal_length(len in 0usize..=128, seed in any::<u8>()) {
        let data: Vec<u8> = (0..len).map(|i| seed.wrapping_mul(31).wrapping_add(i as u8)).collect();
        let mut p = Packet::default();
        p.set_lng(hmc_types::flit::flits_for_data(len));
        p.set_data_bytes(&data);
        let mut out = p.data_as_bytes();
        out.truncate(len);
        prop_assert_eq!(out, data);
    }

    #[test]
    fn payload_conversion_matches_the_per_chunk_reference(
        bytes in prop::collection::vec(any::<u8>(), 128..129),
        stale in any::<u64>(),
        lng in 0usize..16,
    ) {
        // Every length, ragged ones included, not a sample of them.
        for len in 0..=128 {
            // bytes -> words, whole-packet equality, from a packet whose
            // sixteen words all held something else.
            let mut dirty = Packet {
                data: [stale; 16],
                ..Packet::default()
            };
            dirty.set_lng(lng);
            let (mut got, mut want) = (dirty.clone(), dirty);
            got.set_data_bytes(&bytes[..len]);
            set_data_bytes_reference(&mut want, &bytes[..len]);
            prop_assert_eq!(&got, &want, "length {}", len);
            // words -> bytes, at every LNG the 4-bit field can claim.
            let (mut out, mut out_ref) = ([0xa5u8; 130], [0xa5u8; 130]);
            let n = got.copy_data_to(&mut out);
            prop_assert_eq!(n, copy_data_to_reference(&want, &mut out_ref));
            prop_assert_eq!(out, out_ref);
        }
    }

    #[test]
    fn a_request_rewritten_in_place_is_the_response_built_afresh(
        tag in 0u16..512,
        slid in 0u8..8,
        cub in 0u8..8,
        addr in 0u64..(1 << 34),
        bytes in prop::collection::vec(any::<u8>(), 256..257),
        stale in any::<u64>(),
    ) {
        let (payload, answer) = bytes.split_at(128);
        for cmd in Command::all().into_iter().filter(|c| c.is_request()) {
            let data = &payload[..cmd.request_data_bytes()];
            let mut request = Packet::request(cmd, cub, addr, tag, slid, data).unwrap();
            // Dead words past the payload are not on the wire and may hold
            // anything (`send` accepts them); give the FRP/RRP/SEQ fields,
            // which a response tail lays out differently, something too.
            for w in &mut request.data[data.len() / 8..] {
                *w = stale;
            }
            request.set_seq(5);
            request.set_frp(0x1a5);
            request.set_rrp(0x0f3);
            request.seal();
            for (rsp, status, data) in every_response(answer) {
                let mut got = request.clone();
                got.make_response(rsp, status, data).unwrap();
                let want = response_reference(rsp, tag, slid, status, data);
                prop_assert_eq!(&got, &want, "{:?} answered by {:?}/{:?}", cmd, rsp, status);
                prop_assert_eq!(&Packet::response(rsp, tag, slid, status, data).unwrap(), &want);
                got.validate().unwrap();
            }
        }
    }

    #[test]
    fn response_payload_corruption_is_detected(
        byte in 0usize..64,
        bit in 0u8..8,
    ) {
        let data = [0x3cu8; 64];
        let mut p = Packet::response(Command::RdResponse, 1, 0, ResponseStatus::Ok, &data).unwrap();
        let word = byte / 8;
        let shift = (byte % 8) * 8 + bit as usize;
        p.data[word] ^= 1u64 << shift;
        prop_assert!(!p.verify_crc(), "flip at byte {byte} bit {bit} undetected");
    }

    // --------------------------------------------------------------- CRC

    #[test]
    fn crc_is_deterministic_and_chunk_invariant(data in prop::collection::vec(any::<u8>(), 0..256), split in any::<usize>()) {
        let whole = crc32k(&data);
        let cut = if data.is_empty() { 0 } else { split % data.len() };
        let mut st = Crc32k::new();
        st.update(&data[..cut]);
        st.update(&data[cut..]);
        prop_assert_eq!(st.finish(), whole);
    }

    #[test]
    fn crc_catches_single_byte_substitutions(
        data in prop::collection::vec(any::<u8>(), 1..144),
        pos in any::<usize>(),
        delta in 1u8..=255,
    ) {
        let mut corrupted = data.clone();
        let i = pos % data.len();
        corrupted[i] = corrupted[i].wrapping_add(delta);
        prop_assert_ne!(crc32k(&data), crc32k(&corrupted));
    }

    // ---------------------------------------------------------- commands

    #[test]
    fn command_decode_never_panics(code in 0u8..64) {
        match Command::decode(code) {
            Ok(cmd) => prop_assert_eq!(cmd.encode(), code),
            Err(HmcError::UnknownCommand(c)) => prop_assert_eq!(c, code),
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    #[test]
    fn request_flit_counts_bound_packet_size(code in 0u8..64) {
        if let Ok(cmd) = Command::decode(code) {
            if cmd.is_request() {
                let flits = cmd.request_flits();
                prop_assert!((1..=9).contains(&flits), "{cmd:?}: {flits}");
                prop_assert_eq!(
                    flits,
                    1 + cmd.request_data_bytes().div_ceil(16)
                );
            }
        }
    }

    // ----------------------------------------------------- address maps

    #[test]
    fn low_interleave_vault_stride_is_one_block(
        block in prop::sample::select(vec![16u32, 32, 64, 128]),
        base in any::<u64>(),
    ) {
        let g = MapGeometry { block_bytes: block, vaults: 16, banks: 8, rows: 1 << 10 };
        let m = LowInterleaveMap::new(g).unwrap();
        let cap = g.capacity_bytes();
        let a = (base % (cap - block as u64)) / block as u64 * block as u64;
        let d0 = m.decode(PhysAddr::new(a).unwrap()).unwrap();
        let d1 = m.decode(PhysAddr::new(a + block as u64).unwrap()).unwrap();
        // Adjacent blocks always differ in vault (mod 16 increment).
        prop_assert_eq!((d0.vault + 1) % 16, d1.vault % 16);
    }

    #[test]
    fn custom_maps_partition_address_bits(
        perm in prop::sample::select(vec![
            [Field::Vault, Field::Bank, Field::Row],
            [Field::Bank, Field::Row, Field::Vault],
            [Field::Row, Field::Vault, Field::Bank],
        ]),
        addr in any::<u64>(),
    ) {
        let g = MapGeometry { block_bytes: 32, vaults: 32, banks: 16, rows: 1 << 8 };
        let m = CustomMap::new(g, perm).unwrap();
        let a = PhysAddr::new(addr % g.capacity_bytes()).unwrap();
        let d = m.decode(a).unwrap();
        let back = m.encode(d).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn block_size_total_order_matches_bytes(a in 0u8..8, b in 0u8..8) {
        let x = BlockSize::from_ordinal(a).unwrap();
        let y = BlockSize::from_ordinal(b).unwrap();
        prop_assert_eq!(x.cmp(&y), x.bytes().cmp(&y.bytes()));
    }
}
