//! The in-place host boundary against the by-value one.
//!
//! `HmcSim::send_with` fills the pooled body a request travels in, and
//! `HmcSim::recv_with` reads a response where it lands; `send` and
//! `recv_with_latency` copy a packet in and out. Two simulations fed one
//! seeded stream — valid requests mixed with malformed ones (a flipped
//! CRC bit, LNG ≠ DLN, a response command, a non-host link, a cube that
//! does not exist) — one through each pair, must agree on every result,
//! every counter, every queue and every packet body, and deliver the
//! same responses with the same latencies.

use std::mem::discriminant;

use hmc_core::builder::decode_response;
use hmc_core::{HmcSim, ResponseInfo, SimParams};
use hmc_types::{Command, CubeId, DeviceConfig, LinkId, Packet, ResponseStatus, Result};
use proptest::prelude::*;

/// Links 0..3 are host links; link 3 is left unconnected.
const HOST_LINKS: LinkId = 3;

fn sim() -> HmcSim {
    let mut s = HmcSim::new(1, DeviceConfig::small()).unwrap();
    let host = s.host_cube_id(0);
    for link in 0..HOST_LINKS {
        s.connect_host(0, link, host).unwrap();
    }
    s
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One send in the stream: where it goes, the packet, and — for a valid
/// request — the arguments `send_with` fills the body from.
struct Send {
    dev: CubeId,
    link: LinkId,
    packet: Packet,
    request: Option<(Command, u64, u16, Vec<u8>)>,
}

fn next_send(rng: &mut Lcg, requests: &[Command]) -> Send {
    let cmd = requests[rng.below(requests.len() as u64) as usize];
    let addr = rng.below((2 << 30) / 16) * 16;
    let tag = rng.below(512) as u16;
    let link = rng.below(HOST_LINKS as u64) as LinkId;
    let data: Vec<u8> = (0..cmd.request_data_bytes())
        .map(|_| rng.next() as u8)
        .collect();
    let mut packet = Packet::request(cmd, 0, addr, tag, link, &data).unwrap();
    let mut send = Send {
        dev: 0,
        link,
        packet: packet.clone(),
        request: None,
    };
    match rng.below(12) {
        0 => send.packet.set_crc(packet.crc() ^ 1 << rng.below(32)),
        1 => {
            packet.set_dln(packet.lng() % 9 + 1);
            packet.seal();
            send.packet = packet;
        }
        2 => {
            send.packet =
                Packet::response(Command::RdResponse, tag, link, ResponseStatus::Ok, &[]).unwrap()
        }
        3 => send.link = HOST_LINKS,
        4 => send.dev = 1,
        5 => send.packet = Packet::flow(Command::Null, 0, 0).unwrap(),
        _ => send.request = Some((cmd, addr, tag, data)),
    }
    send
}

/// Everything a send may change, for comparing the two simulations.
fn observe(s: &HmcSim) -> impl PartialEq + std::fmt::Debug {
    let queues: Vec<(usize, usize)> = s
        .device(0)
        .unwrap()
        .xbars
        .iter()
        .map(|x| (x.rqst.len(), x.rsp().len()))
        .collect();
    (
        s.stats(),
        queues,
        s.total_occupancy(),
        s.packet_bodies_created(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn in_place_sends_and_receives_match_by_value(seed in any::<u64>()) {
        let requests: Vec<Command> = Command::all().into_iter().filter(|c| c.is_request()).collect();
        let (mut by_value, mut in_place) = (sim(), sim());
        let mut rng = Lcg(seed);
        let mut info = ResponseInfo::default();
        let (mut sends, mut stalls, mut responses) = (0, 0, 0);
        for _ in 0..120 {
            // Bursts of sends between clocks, long enough to fill a link's
            // eight-slot queue now and then.
            for _ in 0..rng.below(40) {
                let s = next_send(&mut rng, &requests);
                let want = by_value.send(s.dev, s.link, s.packet.clone());
                let got = in_place.send_with(s.dev, s.link, |body| -> Result<()> {
                    match &s.request {
                        Some((cmd, addr, tag, data)) => {
                            body.fill_request(*cmd, 0, *addr, *tag, s.link, data)
                        }
                        None => {
                            body.clone_from(&s.packet);
                            Ok(())
                        }
                    }
                });
                assert_eq!(
                    want.as_ref().map_err(discriminant),
                    got.as_ref().map_err(discriminant),
                    "{want:?} by value, {got:?} in place"
                );
                assert_eq!(observe(&by_value), observe(&in_place));
                sends += usize::from(got.is_ok());
                stalls += usize::from(got.is_err_and(|e| e.is_stall()));
            }
            by_value.clock().unwrap();
            in_place.clock().unwrap();
            for link in 0..HOST_LINKS {
                loop {
                    let want = by_value.recv_with_latency(0, link);
                    let got = in_place.recv_with(0, link, |p, latency| {
                        info.decode_from(p).unwrap();
                        (p.clone(), latency)
                    });
                    match (want, got) {
                        (Ok(want), Ok(got)) => {
                            assert_eq!(want, got);
                            assert_eq!(info, decode_response(&want.0).unwrap());
                            responses += 1;
                        }
                        (Err(want), Err(got)) => {
                            assert_eq!(discriminant(&want), discriminant(&got));
                            break;
                        }
                        (want, got) => panic!("{want:?} by value, {got:?} in place"),
                    }
                }
            }
            assert_eq!(observe(&by_value), observe(&in_place));
        }
        assert!(
            sends > 100 && stalls > 10 && responses > 50,
            "{sends} sends, {stalls} stalls, {responses} responses"
        );
        // Every refused body went back to the pool.
        for s in [&mut by_value, &mut in_place] {
            s.set_params(SimParams {
                check_invariants: true,
                ..*s.params()
            });
            s.clock().unwrap();
            let lost: Vec<&String> = s
                .invariant_violations()
                .iter()
                .filter(|v| v.starts_with("packet bodies:"))
                .collect();
            assert!(lost.is_empty(), "{lost:?}");
        }
    }

    #[test]
    fn fill_request_over_a_dirty_body_is_the_built_request(
        seed in any::<u64>(),
        dirt in any::<u64>(),
    ) {
        let requests: Vec<Command> = Command::all().into_iter().filter(|c| c.is_request()).collect();
        let mut rng = Lcg(seed);
        let mut body = Packet {
            header: dirt,
            data: [dirt.rotate_left(7); 16],
            tail: !dirt,
        };
        for _ in 0..32 {
            let cmd = requests[rng.below(requests.len() as u64) as usize];
            let (addr, tag, link) = (rng.below(1 << 34), rng.below(512) as u16, rng.below(8) as u8);
            let cub = rng.below(8) as u8;
            let data: Vec<u8> = (0..cmd.request_data_bytes()).map(|_| rng.next() as u8).collect();
            body.fill_request(cmd, cub, addr, tag, link, &data).unwrap();
            let want = Packet::request(cmd, cub, addr, tag, link, &data).unwrap();
            assert_eq!((body.header, body.data, body.tail), (want.header, want.data, want.tail));
        }
    }
}

#[test]
fn a_reused_decode_keeps_no_payload_from_the_last_response() {
    let mut info = ResponseInfo::default();
    let payload: Vec<u8> = (0..128u8).collect();
    let read = Packet::response(Command::RdResponse, 9, 2, ResponseStatus::Ok, &payload).unwrap();
    info.decode_from(&read).unwrap();
    assert_eq!(info.data, payload);
    let write = Packet::response(Command::WrResponse, 10, 1, ResponseStatus::Ok, &[]).unwrap();
    info.decode_from(&write).unwrap();
    assert!(info.data.is_empty());
    assert_eq!(info, decode_response(&write).unwrap());
    assert!(
        info.data.capacity() >= 128,
        "the buffer is kept for the next read"
    );
}
