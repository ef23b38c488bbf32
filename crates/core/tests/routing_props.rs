//! Routing properties over the Figure 1 topology presets and the
//! intra-cube NoC fabrics.
//!
//! For every (source device, destination cube) pair on small chain, ring,
//! mesh, and torus instances, the route table's hop-by-hop paths must be
//! loop-free and minimal — the same length as a breadth-first shortest
//! path computed independently from the link wiring. BFS-built tables make
//! this sound like a tautology, but the property pins the whole pipeline:
//! builder wiring, endpoint bookkeeping, and table indexing, any of which
//! a refactor could silently break.
//!
//! The proptests at the bottom check the same contract one level down,
//! for the intra-cube quad fabrics ([`hmc_core::noc`]): ring and mesh
//! next-hop routes are loop-free and exactly as long as an independent
//! BFS over the fabric wiring, and a buffered [`NocState`] drains from
//! *any* reachable buffer state — including completely full planes and
//! transiently refusing delivery queues — in bounded time (the
//! deadlock-freedom claim the virtual-channel planes and the rotation
//! escape exist to uphold).

use std::collections::VecDeque;

use hmc_core::noc::{NocClass, NocDest};
use hmc_core::{
    topology, Endpoint, HmcSim, Interconnect, MeshTopology, NocParams, NocSink, NocState,
    QueueEntry, RingTopology,
};
use hmc_types::config::VAULTS_PER_QUAD;
use hmc_types::{
    ArbitrationKind, BlockSize, Command, CubeId, DeviceConfig, InterconnectKind, Packet,
};
use proptest::prelude::*;

/// All device-device and device-host edges as an adjacency list over cube
/// IDs (hosts included), rebuilt here from the wiring so the reference
/// distances share nothing with `RouteTable`'s own BFS.
fn adjacency(sim: &HmcSim, num_cubes: usize) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); num_cubes];
    for dev in 0..sim.num_devices() {
        let d = sim.device(dev).unwrap();
        for link in &d.links {
            let peer = match link.remote {
                Endpoint::Device(c, _) => c as usize,
                Endpoint::Host(h) => h as usize,
                Endpoint::Unconnected => continue,
            };
            if !adj[dev as usize].contains(&peer) {
                adj[dev as usize].push(peer);
            }
            if !adj[peer].contains(&(dev as usize)) {
                adj[peer].push(dev as usize);
            }
        }
    }
    adj
}

fn bfs_distances(adj: &[Vec<usize>], from: usize) -> Vec<Option<usize>> {
    let mut dist = vec![None; adj.len()];
    dist[from] = Some(0);
    let mut queue = VecDeque::from([from]);
    while let Some(cur) = queue.pop_front() {
        for &next in &adj[cur] {
            if dist[next].is_none() {
                dist[next] = Some(dist[cur].unwrap() + 1);
                queue.push_back(next);
            }
        }
    }
    dist
}

/// Follow next-hop links from `source` toward `target`, asserting
/// loop-freedom, and return the hop count.
fn walk(sim: &mut HmcSim, source: CubeId, target: CubeId, label: &str) -> usize {
    let num_devices = sim.num_devices();
    let mut cur = source;
    let mut hops = 0usize;
    let mut visited = vec![false; num_devices as usize];
    loop {
        assert!(
            !visited[cur as usize],
            "{label}: path {source}->{target} revisits device {cur}"
        );
        visited[cur as usize] = true;
        let link = sim
            .route_table()
            .unwrap()
            .next_hop(cur, target)
            .unwrap_or_else(|| panic!("{label}: no route {cur}->{target}"));
        let remote = sim.device(cur).unwrap().links[link as usize].remote;
        hops += 1;
        match remote {
            Endpoint::Device(c, _) => {
                if c == target {
                    return hops;
                }
                cur = c;
            }
            Endpoint::Host(h) => {
                assert_eq!(h, target, "{label}: hop from {cur} leads to the wrong host");
                return hops;
            }
            Endpoint::Unconnected => {
                panic!("{label}: route {cur}->{target} points at an unconnected link")
            }
        }
        assert!(
            hops <= num_devices as usize + 1,
            "{label}: path {source}->{target} exceeds the device count"
        );
    }
}

/// The property: every routable pair's walked path is loop-free (checked
/// in `walk`) and exactly as long as the independent BFS shortest path.
fn assert_minimal_loop_free_routes(mut sim: HmcSim, label: &str) {
    let n = sim.num_devices() as usize;
    let host = sim.host_cube_id(0) as usize;
    let num_cubes = sim.route_table().unwrap().num_targets();
    assert!(host < num_cubes);
    let adj = adjacency(&sim, num_cubes);

    let mut checked = 0usize;
    for source in 0..n {
        let dist = bfs_distances(&adj, source);
        for target in (0..n).chain([host]) {
            if target == source {
                assert_eq!(
                    sim.route_table().unwrap().next_hop(source as CubeId, target as CubeId),
                    None,
                    "{label}: self-route must be None"
                );
                continue;
            }
            let shortest = dist[target]
                .unwrap_or_else(|| panic!("{label}: {source}->{target} unreachable in wiring"));
            let walked = walk(&mut sim, source as CubeId, target as CubeId, label);
            assert_eq!(
                walked, shortest,
                "{label}: path {source}->{target} is {walked} hops, shortest is {shortest}"
            );
            checked += 1;
        }
    }
    assert!(checked >= n * n, "{label}: property checked too few pairs");
}

fn small_sim(n: u8) -> HmcSim {
    HmcSim::new(n, DeviceConfig::small()).unwrap()
}

fn eight_link_sim(n: u8) -> HmcSim {
    HmcSim::new(
        n,
        DeviceConfig::paper_8link_8bank_4gb().with_queue_depths(8, 4),
    )
    .unwrap()
}

#[test]
fn chain_routes_are_loop_free_and_minimal() {
    for n in [1u8, 2, 3, 4, 6] {
        let mut sim = small_sim(n);
        let host = sim.host_cube_id(0);
        topology::build_chain(&mut sim, host).unwrap();
        assert_minimal_loop_free_routes(sim, &format!("chain[{n}]"));
    }
}

#[test]
fn ring_routes_are_loop_free_and_minimal() {
    // Odd and even rings: even rings have equal-length two-way ties the
    // table must break consistently; odd rings have a strict shorter way.
    for n in [3u8, 4, 5, 6] {
        let mut sim = small_sim(n);
        let host = sim.host_cube_id(0);
        topology::build_ring(&mut sim, host).unwrap();
        assert_minimal_loop_free_routes(sim, &format!("ring[{n}]"));
    }
}

#[test]
fn mesh_routes_are_loop_free_and_minimal() {
    for (w, h) in [(2u8, 2u8), (3, 2), (2, 3), (3, 1), (1, 4)] {
        let mut sim = small_sim(w * h);
        let host = sim.host_cube_id(0);
        topology::build_mesh(&mut sim, w, h, host).unwrap();
        assert_minimal_loop_free_routes(sim, &format!("mesh[{w}x{h}]"));
    }
}

#[test]
fn torus_routes_are_loop_free_and_minimal() {
    // 2x2 is the largest square torus the 3-bit CUB space admits; also
    // check the rectangular 2x3 (6 devices + host = 7 cubes).
    for (w, h) in [(2u8, 2u8), (3, 2)] {
        let mut sim = eight_link_sim(w * h);
        let host = sim.host_cube_id(0);
        topology::build_torus(&mut sim, w, h, host).unwrap();
        assert_minimal_loop_free_routes(sim, &format!("torus[{w}x{h}]"));
    }
}

#[test]
fn the_simple_topology_is_all_single_hop() {
    let mut sim = small_sim(1);
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    assert_eq!(sim.route_table().unwrap().next_hop(0, host), Some(0));
    assert_minimal_loop_free_routes(sim, "simple[1]");
}

// --- Intra-cube NoC fabric properties -----------------------------------

/// Walk `fabric.next_hop` from `from` to `dest`, asserting loop-freedom,
/// and return the hop count.
fn walk_fabric(fabric: &impl Interconnect, from: u8, dest: u8, label: &str) -> u32 {
    let nq = fabric.num_quads();
    let mut visited = vec![false; nq as usize];
    let mut cur = from;
    let mut steps = 0u32;
    while cur != dest {
        assert!(
            !visited[cur as usize],
            "{label}: path {from}->{dest} revisits quad {cur}"
        );
        visited[cur as usize] = true;
        cur = fabric.next_hop(cur, dest);
        steps += 1;
        assert!(steps <= nq as u32, "{label}: path {from}->{dest} exceeds quad count");
    }
    steps
}

/// Every (from, dest) pair: the walked path is loop-free, its length is
/// `hops(from, dest)`, and that length equals the independent BFS
/// shortest distance over `adj` (the wiring the fabric admits).
fn assert_fabric_minimal(fabric: &impl Interconnect, adj: &[Vec<usize>], label: &str) {
    let nq = fabric.num_quads();
    for from in 0..nq {
        let dist = bfs_distances(adj, from as usize);
        for dest in 0..nq {
            let walked = walk_fabric(fabric, from, dest, label);
            assert_eq!(walked, fabric.hops(from, dest), "{label}: hops({from},{dest}) lies");
            let shortest = dist[dest as usize]
                .unwrap_or_else(|| panic!("{label}: {from}->{dest} unreachable in wiring"));
            assert_eq!(
                walked as usize, shortest,
                "{label}: path {from}->{dest} is {walked} hops, shortest is {shortest}"
            );
        }
    }
}

/// A request/response packet for fabric tests; `cycle` seeds
/// `entry_cycle` so OldestFirst arbitration sees distinct ages.
fn fabric_entry(tag: u16, cycle: u64) -> QueueEntry {
    let p = Packet::request(Command::Rd(BlockSize::B32), 0, 0, tag % 512, 0, &[]).unwrap();
    QueueEntry::new(p, 0, 0, cycle)
}

/// Delivery queues that refuse everything until `accepting` is set, then
/// take everything, noting where each packet went.
#[derive(Default)]
struct Drain {
    accepting: bool,
    vaults: Vec<u16>,
    links: Vec<u8>,
}

impl NocSink for Drain {
    fn full(&self, _: NocDest) -> bool {
        !self.accepting
    }

    fn deliver(&mut self, dest: NocDest, _: QueueEntry) {
        assert!(self.accepting, "delivered into a full queue");
        match dest {
            NocDest::ToVault(v) => self.vaults.push(v),
            NocDest::ToLink(l) => self.links.push(l),
        }
    }
}

proptest! {
    /// Unidirectional ring routes match a directed BFS over the only
    /// wiring the ring admits (quad q forwards to q+1 mod Q alone).
    #[test]
    fn ring_fabric_routes_are_loop_free_and_minimal(quads in 1u8..=32) {
        let ring = RingTopology::new(quads);
        let adj: Vec<Vec<usize>> = (0..quads as usize)
            .map(|q| vec![(q + 1) % quads as usize])
            .collect();
        assert_fabric_minimal(&ring, &adj, &format!("noc-ring[{quads}]"));
    }

    /// XY-routed mesh routes match an undirected BFS over the grid's
    /// neighbor wiring, for every geometry the constructor accepts.
    #[test]
    fn mesh_fabric_routes_are_loop_free_and_minimal(rows in 1u8..=4, cols in 1u8..=8) {
        let mesh = MeshTopology::new(rows, cols);
        let nq = (rows * cols) as usize;
        let mut adj = vec![Vec::new(); nq];
        for r in 0..rows as usize {
            for c in 0..cols as usize {
                let q = r * cols as usize + c;
                if c + 1 < cols as usize {
                    adj[q].push(q + 1);
                    adj[q + 1].push(q);
                }
                if r + 1 < rows as usize {
                    adj[q].push(q + cols as usize);
                    adj[q + cols as usize].push(q);
                }
            }
        }
        assert_fabric_minimal(&mesh, &adj, &format!("noc-mesh[{rows}x{cols}]"));
    }

    /// Deadlock freedom: from any reachable buffer state — up to and
    /// including every segment buffer of both planes packed full of
    /// through-traffic — a buffered fabric whose delivery queues accept
    /// (after an optional transient refusal window) drains to zero
    /// occupancy in bounded time, delivering every packet to the vault
    /// or link it was injected for.
    #[test]
    fn buffered_fabrics_drain_from_any_full_state(
        (kind, quads) in prop_oneof![
            (Just(InterconnectKind::Ring), 2u8..=8),
            (Just(InterconnectKind::Mesh), 2u8..=8),
        ],
        arbitration in prop_oneof![
            Just(ArbitrationKind::RoundRobin),
            Just(ArbitrationKind::OldestFirst),
            Just(ArbitrationKind::LocalityAware),
        ],
        buffer_depth in 1u16..=3,
        quad_drain in 1u16..=4,
        refuse_cycles in 0u64..=6,
        raw_packets in prop::collection::vec((any::<bool>(), 0u8..64, 0u8..64, 0u8..4), 0..96),
    ) {
        let params = NocParams { kind, arbitration, buffer_depth, quad_drain };
        let num_vaults = quads as u16 * VAULTS_PER_QUAD;
        let mut noc = NocState::new(&params, quads, num_vaults)
            .expect("ring/mesh params always build a state");

        // Fill buffers from the raw tuples: remap the destination away
        // from the source quad (local traffic bypasses the NoC) and
        // skip packets whose segment buffer is already full — vecs long
        // enough to pack every buffer of both planes are in range, so
        // the completely-full state is exercised.
        let mut want_vaults: Vec<u16> = Vec::new();
        let mut want_links: Vec<u8> = Vec::new();
        for (i, &(response, src, dst, lane)) in raw_packets.iter().enumerate() {
            let src = src % quads;
            let dest_quad = (src + 1 + dst % (quads - 1)) % quads;
            let dest = if response {
                NocDest::ToLink(dest_quad)
            } else {
                NocDest::ToVault(dest_quad as u16 * VAULTS_PER_QUAD + lane as u16 % VAULTS_PER_QUAD)
            };
            if !noc.has_room(src, dest.class()) {
                continue;
            }
            match dest {
                NocDest::ToVault(v) => want_vaults.push(v),
                NocDest::ToLink(l) => want_links.push(l),
            }
            noc.inject(src, dest, fabric_entry(i as u16, i as u64), 0);
        }
        let injected = noc.occupancy();
        prop_assert_eq!(injected, want_vaults.len() + want_links.len());

        // Worst-case service time is far below this: every packet needs
        // at most `quads` hops, and each cycle with accepting sinks
        // either moves a packet or triggers the rotation escape.
        let bound = refuse_cycles + (injected as u64 + 1) * (quads as u64 + 1) * 4 + 16;
        let mut sink = Drain::default();
        let mut clock = 0u64;
        while noc.occupancy() > 0 {
            clock += 1;
            prop_assert!(
                clock <= bound,
                "{kind:?}[{quads}]/{arbitration:?} depth {buffer_depth} drain {quad_drain}: \
                 {} of {injected} packets still buffered after {bound} cycles",
                noc.occupancy()
            );
            sink.accepting = clock > refuse_cycles;
            noc.advance(clock, &mut sink, false, false);
        }

        // Conservation: exactly the injected packets came out, each at
        // its own destination (order across streams is unconstrained).
        sink.vaults.sort_unstable();
        want_vaults.sort_unstable();
        prop_assert_eq!(sink.vaults, want_vaults);
        sink.links.sort_unstable();
        want_links.sort_unstable();
        prop_assert_eq!(sink.links, want_links);

        // Drained fabrics accept fresh traffic on both planes again.
        for q in 0..quads {
            prop_assert!(noc.has_room(q, NocClass::Request));
            prop_assert!(noc.has_room(q, NocClass::Response));
        }
    }
}
