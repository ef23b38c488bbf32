//! The stall-aware crossbar walk memoizes "local request for vault v" in
//! a route class in each stalled slot's word. These tests pin one place
//! where that memo could change a simulated bit: an address-map swap
//! while packets wait in a crossbar queue (goldens captured from the
//! commit before the memo existed). The other — a retry-gated packet
//! sitting behind a keyed, blocked one on a faulty link — needs a packet
//! placed in a crossbar queue by hand, so it is a unit test in
//! `hmc-core` (`stages::tests`).

use hmc_sim::hmc_core::{regs, topology, HmcSim};
use hmc_sim::hmc_trace::{SharedSink, TraceEvent, Tracer, VecSink, Verbosity};
use hmc_sim::hmc_types::{BlockSize, Command, DeviceConfig, LinearMap, Packet, StorageMode};

const REQUESTS: u16 = 12;

/// A deep crossbar queue in front of two-slot vault queues, so a burst
/// to one vault stalls at the crossbar.
fn congested() -> (HmcSim, SharedSink<VecSink>) {
    let cfg = DeviceConfig::small()
        .with_queue_depths(16, 2)
        .with_storage_mode(StorageMode::TimingOnly);
    let mut sim = HmcSim::new(1, cfg).unwrap();
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    let sink = SharedSink::new(VecSink::default());
    sim.set_tracer(Tracer::new(Verbosity::Full, Box::new(sink.clone())));
    (sim, sink)
}

/// Request `k` of the burst: alternating 64-byte reads and writes whose
/// addresses all decode to vault 0 under the default low-interleave map
/// (vault bits sit just above the 128-byte block offset) and to several
/// vaults under the bank-first and linear maps.
fn burst_packet(k: u16) -> Packet {
    let addr = (k as u64) << 11;
    let tag = k + 1;
    if k.is_multiple_of(2) {
        Packet::request(Command::Rd(BlockSize::B64), 0, addr, tag, 0, &[]).unwrap()
    } else {
        Packet::request(Command::Wr(BlockSize::B64), 0, addr, tag, 0, &[0xa5; 64]).unwrap()
    }
}

struct Outcome {
    /// Clock value once the last response was received.
    cycles: u64,
    /// `(tag, latency)` in response order.
    latencies: Vec<(u16, u64)>,
    /// `(tag, vault, bank)` of every bank completion, in emission order.
    completions: Vec<(u16, u16, u16)>,
}

/// Send the burst on link 0, clock twice so most of it is stalled in the
/// crossbar request queue behind vault 0, apply `swap`, run to drain.
fn run_with_swap(swap: impl FnOnce(&mut HmcSim)) -> Outcome {
    let (mut sim, sink) = congested();
    for k in 0..REQUESTS {
        sim.send(0, 0, burst_packet(k)).unwrap();
    }
    sim.clock().unwrap();
    sim.clock().unwrap();
    let waiting = sim.device(0).unwrap().xbars[0].rqst.len();
    assert!(
        waiting >= 6,
        "the burst must still be stalled at the crossbar when the map changes ({waiting} waiting)"
    );
    swap(&mut sim);

    let mut latencies = Vec::new();
    while latencies.len() < REQUESTS as usize {
        assert!(sim.current_clock() < 10_000, "burst never drained");
        sim.clock().unwrap();
        while let Ok((p, lat)) = sim.recv_with_latency(0, 0) {
            latencies.push((p.tag(), lat));
        }
    }
    let completions = sink
        .0
        .lock()
        .records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::ReadComplete {
                tag, vault, bank, ..
            }
            | TraceEvent::WriteComplete {
                tag, vault, bank, ..
            } => Some((tag, vault, bank)),
            _ => None,
        })
        .collect();
    Outcome {
        cycles: sim.current_clock(),
        latencies,
        completions,
    }
}

#[test]
fn waiting_packets_are_rerouted_when_the_ac_register_swaps_the_map() {
    // AC = 1 selects the bank-first map at the next clock edge.
    let got = run_with_swap(|sim| sim.jtag_reg_write(0, regs::AC, 1).unwrap());
    assert_eq!(got.cycles, AC_SWAP.0);
    assert_eq!(got.latencies, AC_SWAP.1);
    assert_eq!(got.completions, AC_SWAP.2);
}

#[test]
fn waiting_packets_are_rerouted_when_set_address_map_swaps_the_map() {
    let got = run_with_swap(|sim| {
        let map = LinearMap::new(sim.config().geometry()).unwrap();
        sim.set_address_map(Box::new(map)).unwrap();
    });
    assert_eq!(got.cycles, SET_MAP_SWAP.0);
    assert_eq!(got.latencies, SET_MAP_SWAP.1);
    assert_eq!(got.completions, SET_MAP_SWAP.2);
}

#[test]
fn the_swap_scenarios_differ_from_an_unswapped_run() {
    // Guard on the scenario itself: if the swap moved nothing, the two
    // tests above would pin nothing about the memo.
    let plain = run_with_swap(|_| {});
    assert!(plain.completions.iter().all(|&(_, vault, _)| vault == 0));
    assert_ne!(plain.completions, AC_SWAP.2);
    assert_ne!(plain.completions, SET_MAP_SWAP.2);
}

type Golden = (u64, &'static [(u16, u64)], &'static [(u16, u16, u16)]);

/// Captured from the parent commit (no route keys; every stalled packet
/// re-decoded every cycle).
#[rustfmt::skip]
const AC_SWAP: Golden = (
    4,
    &[
        (1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 3),
        (9, 4), (10, 4), (11, 4), (12, 4), (7, 4), (8, 4),
    ],
    &[
        (1, 0, 0), (2, 0, 1), (3, 0, 2), (4, 0, 3), (5, 0, 4), (6, 0, 5),
        (9, 0, 0), (10, 2, 0), (11, 4, 0), (12, 6, 0), (7, 12, 0), (8, 14, 0),
    ],
);
#[rustfmt::skip]
const SET_MAP_SWAP: Golden = (
    10,
    &[
        (1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 4),
        (7, 5), (8, 6), (9, 7), (10, 8), (11, 9), (12, 10),
    ],
    &[
        (1, 0, 0), (2, 0, 1), (3, 0, 2), (4, 0, 3), (5, 0, 0), (6, 0, 0),
        (7, 0, 0), (8, 0, 0), (9, 0, 0), (10, 0, 0), (11, 0, 0), (12, 0, 0),
    ],
);
