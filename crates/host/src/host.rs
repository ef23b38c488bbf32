//! The host processor model.
//!
//! The paper's test application "will send as many memory requests as
//! possible to the target device or devices until an appropriate stall is
//! received indicating that the crossbar arbitration queues are full. The
//! application selects appropriate HMC links in a simple round-robin
//! fashion in order to naively balance the traffic across all possible
//! injection points" (§VI.A).
//!
//! [`Host`] implements that injector — plus the locality-aware variant the
//! paper's §VI.B corollary motivates ("locality-aware host devices have
//! the potential to reduce memory latency and reduce internal memory
//! device contention").

use hmc_core::builder::ResponseInfo;
use hmc_core::HmcSim;
use hmc_types::{CubeId, Cycle, HmcError, LinkId, PhysAddr, Result};
use hmc_workloads::MemOp;

use crate::tags::{Pending, TagPool};

/// How the host picks an injection link for each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSelection {
    /// Simple round-robin over all host links (the paper's harness).
    RoundRobin,
    /// Prefer the link co-located with the destination vault's quad,
    /// falling back to round-robin when that port is stalled.
    LocalityAware,
}

/// Latency histogram over power-of-two buckets.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    /// `buckets[i]` counts latencies in `[2^i, 2^(i+1))` (bucket 0: 0–1).
    pub buckets: [u64; 24],
    /// Total responses observed.
    pub count: u64,
    /// Sum of latencies (average computation).
    pub sum: u64,
    /// Maximum observed latency.
    pub max: Cycle,
}

impl LatencyStats {
    /// Record one latency observation.
    pub fn record(&mut self, latency: Cycle) {
        let bucket = (64 - latency.max(1).leading_zeros() as usize - 1).min(23);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += latency;
        self.max = self.max.max(latency);
    }

    /// Mean latency in cycles.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Host-side operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Requests accepted by the device.
    pub injected: u64,
    /// Responses received and correlated.
    pub completed: u64,
    /// Posted requests injected (no response expected).
    pub posted: u64,
    /// Error responses received.
    pub errors: u64,
    /// Responses delivered with a poisoned ERRSTAT — the device gave up
    /// on the request after exhausting the link-retry protocol. A subset
    /// of `errors`.
    pub poisoned: u64,
    /// Send attempts rejected with a stall.
    pub send_stalls: u64,
    /// Injection attempts deferred because all 512 tags were in flight.
    pub tag_stalls: u64,
    /// Responses whose tag could not be correlated.
    pub orphans: u64,
}

/// The ports a request for one cube may leave through — a contiguous run
/// of [`Host::ports`], which `attach` discovers device by device — and
/// the round-robin cursor over that run.
#[derive(Debug, Clone, Copy)]
struct Route {
    first: usize,
    len: usize,
    next: usize,
}

impl Route {
    fn over(first: usize, end: usize) -> Route {
        Route {
            first,
            len: end - first,
            next: 0,
        }
    }
}

/// A host processor attached to one or more host links.
#[derive(Debug)]
pub struct Host {
    /// This host's cube ID.
    pub cube_id: CubeId,
    ports: Vec<(CubeId, LinkId)>,
    /// `routes[t]` for each device `t`, then one over every port for a
    /// target outside the device range.
    routes: Vec<Route>,
    /// An op the device refused, retried before anything newer.
    held: Option<MemOp>,
    selection: LinkSelection,
    tags: TagPool,
    /// Operation counters.
    pub stats: HostStats,
    /// Request-to-response latency distribution.
    pub latency: LatencyStats,
    scratch: Vec<u8>,
    /// Every response is decoded into this one value, in place.
    response: ResponseInfo,
}

impl Host {
    /// Discover this host's links from the simulation topology.
    pub fn attach(sim: &HmcSim, cube_id: CubeId) -> Result<Self> {
        let mut ports = Vec::new();
        let mut routes = Vec::new();
        for dev in 0..sim.num_devices() {
            let first = ports.len();
            for link in &sim.device(dev)?.links {
                if link.remote == hmc_core::Endpoint::Host(cube_id) {
                    ports.push((dev, link.id));
                }
            }
            routes.push(Route::over(first, ports.len()));
        }
        if ports.is_empty() {
            return Err(HmcError::Topology(format!(
                "host {cube_id} has no links in this topology"
            )));
        }
        // A cube with no port of its own (a chain behind cube 0), or a
        // target outside the device range, is sent through every port and
        // the devices route it onward.
        let every = Route::over(0, ports.len());
        for route in routes.iter_mut().filter(|r| r.len == 0) {
            *route = every;
        }
        routes.push(every);
        Ok(Host {
            cube_id,
            ports,
            routes,
            held: None,
            selection: LinkSelection::RoundRobin,
            tags: TagPool::new(),
            stats: HostStats::default(),
            latency: LatencyStats::default(),
            scratch: vec![0u8; 128],
            response: ResponseInfo::default(),
        })
    }

    /// Switch the link-selection policy (builder style).
    pub fn with_selection(mut self, selection: LinkSelection) -> Self {
        self.selection = selection;
        self
    }

    /// The host's injection ports as `(device, link)` pairs.
    pub fn ports(&self) -> &[(CubeId, LinkId)] {
        &self.ports
    }

    /// Requests currently awaiting responses.
    pub fn outstanding(&self) -> usize {
        self.tags.outstanding()
    }

    fn write_payload(&mut self, op: &MemOp) -> usize {
        let n = op.payload_bytes();
        // A recognizable deterministic pattern derived from the address.
        let seed = op.addr as u8;
        for (i, b) in self.scratch[..n].iter_mut().enumerate() {
            *b = seed.wrapping_add(i as u8);
        }
        n
    }

    /// The port a request for `target` tries first: the one on the
    /// destination quad's link under [`LinkSelection::LocalityAware`]
    /// (link i is closest to quad i), as a position in `route`.
    fn preferred(&self, sim: &HmcSim, route: &Route, target: CubeId, op: &MemOp) -> Option<usize> {
        if self.selection != LinkSelection::LocalityAware {
            return None;
        }
        let decoded = PhysAddr::new(op.addr)
            .and_then(|a| sim.address_map().decode(a))
            .ok()?;
        let quad = (decoded.vault / 4) as LinkId;
        self.ports[route.first..route.first + route.len]
            .iter()
            .position(|&port| port == (target, quad))
    }

    /// Try to inject one operation toward device `target`.
    ///
    /// `target`'s own ports (every port when it has none) are tried
    /// round-robin from the one after the last that accepted a request
    /// for it, the preferred port first under
    /// [`LinkSelection::LocalityAware`]. Returns `Ok(true)` when
    /// the request was accepted, `Ok(false)` when every candidate port
    /// stalled or no tag was available (retry after clocking); genuine
    /// errors (bad topology, malformed op) propagate.
    pub fn try_issue(&mut self, sim: &mut HmcSim, target: CubeId, op: &MemOp) -> Result<bool> {
        let cmd = op.command();
        let expects_response = op.expects_response();
        if expects_response && self.tags.exhausted() {
            self.stats.tag_stalls += 1;
            return Ok(false);
        }
        let r = (target as usize).min(self.routes.len() - 1);
        let route = self.routes[r];
        let preferred = self.preferred(sim, &route, target, op);
        let rotation = (route.next..route.len).chain(0..route.next);
        let payload_len = self.write_payload(op);
        for pos in preferred
            .into_iter()
            .chain(rotation.filter(|&pos| Some(pos) != preferred))
        {
            let (dev, link) = self.ports[route.first + pos];
            // Tag 0x1ff is reserved for posted requests (no correlation).
            let tag = if expects_response {
                self.tags
                    .alloc(Pending {
                        addr: op.addr,
                        cmd,
                        issue_cycle: sim.current_clock(),
                        dev,
                        link,
                    })
                    .expect("exhaustion checked above")
            } else {
                0x1ff
            };
            let payload = &self.scratch[..payload_len];
            match sim.send_with(dev, link, |p| {
                p.fill_request(cmd, target, op.addr, tag, link, payload)
            }) {
                Ok(()) => {
                    self.routes[r].next = if pos + 1 == route.len { 0 } else { pos + 1 };
                    self.stats.injected += 1;
                    if !expects_response {
                        self.stats.posted += 1;
                    }
                    return Ok(true);
                }
                Err(e) if e.is_stall() => {
                    self.stats.send_stalls += 1;
                    if expects_response {
                        self.tags.complete(tag);
                    }
                    continue;
                }
                Err(e) => {
                    if expects_response {
                        self.tags.complete(tag);
                    }
                    return Err(e);
                }
            }
        }
        Ok(false)
    }

    /// The §VI.A inject-until-stall step: retry the held op, then draw
    /// ops from `source` and issue them toward `target` until one stalls
    /// (it is held for the next call), the tags run out, or `source`
    /// returns `None`. Returns true when `source` ran dry with no op held.
    pub fn inject<F>(&mut self, sim: &mut HmcSim, target: CubeId, mut source: F) -> Result<bool>
    where
        F: FnMut() -> Option<MemOp>,
    {
        loop {
            let Some(op) = self.held.take().or_else(&mut source) else {
                return Ok(true);
            };
            if !self.try_issue(sim, target, &op)? {
                self.held = Some(op);
                return Ok(false);
            }
        }
    }

    /// True while an op refused by [`Host::inject`] waits to be retried.
    pub fn holds_op(&self) -> bool {
        self.held.is_some()
    }

    /// Drain every pending response from all ports, correlating tags and
    /// recording latencies. Returns the number of responses consumed.
    pub fn drain(&mut self, sim: &mut HmcSim) -> Result<usize> {
        self.drain_with(sim, |_, _| {})
    }

    /// [`Host::drain`] that hands every *correlated* response (decoded
    /// info plus its latency in cycles) to `capture`, in the exact order
    /// responses come off the links. This is how a serving session
    /// forwards device responses to a remote client without changing the
    /// drain schedule the in-process driver uses.
    ///
    /// Every response is decoded into the same host-owned
    /// [`ResponseInfo`], so `capture` borrows it and clones what it keeps.
    pub fn drain_with<F>(&mut self, sim: &mut HmcSim, mut capture: F) -> Result<usize>
    where
        F: FnMut(&ResponseInfo, Cycle),
    {
        let mut drained = 0;
        for &(dev, link) in &self.ports {
            loop {
                let info = &mut self.response;
                let latency = match sim.recv_with(dev, link, |p, latency| {
                    info.decode_from(p).map(|()| latency)
                }) {
                    Ok(decoded) => decoded?,
                    Err(HmcError::NoResponse { .. }) => break,
                    Err(e) => return Err(e),
                };
                drained += 1;
                let info = &self.response;
                if !info.is_ok() {
                    self.stats.errors += 1;
                    if info.status == hmc_types::ResponseStatus::LinkPoisoned {
                        self.stats.poisoned += 1;
                    }
                }
                match self.tags.complete(info.tag) {
                    Some(_ctx) => {
                        self.stats.completed += 1;
                        self.latency.record(latency);
                        capture(info, latency);
                    }
                    None => {
                        self.stats.orphans += 1;
                    }
                }
            }
        }
        Ok(drained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_core::topology;
    use hmc_types::{BlockSize, DeviceConfig};
    use hmc_workloads::OpKind;

    fn sim() -> HmcSim {
        let mut s = HmcSim::new(1, DeviceConfig::small()).unwrap();
        let host = s.host_cube_id(0);
        topology::build_simple(&mut s, host).unwrap();
        s
    }

    #[test]
    fn attach_discovers_all_host_links() {
        let s = sim();
        let h = Host::attach(&s, s.host_cube_id(0)).unwrap();
        assert_eq!(h.ports().len(), 4);
        assert!(Host::attach(&s, 7).is_err(), "unknown host has no links");
    }

    #[test]
    fn issue_and_complete_a_read() {
        let mut s = sim();
        let mut h = Host::attach(&s, s.host_cube_id(0)).unwrap();
        let op = MemOp::read(0x40, BlockSize::B64);
        assert!(h.try_issue(&mut s, 0, &op).unwrap());
        assert_eq!(h.outstanding(), 1);
        for _ in 0..5 {
            s.clock().unwrap();
        }
        let drained = h.drain(&mut s).unwrap();
        assert_eq!(drained, 1);
        assert_eq!(h.stats.completed, 1);
        assert_eq!(h.outstanding(), 0);
        assert!(h.latency.count == 1 && h.latency.max >= 1);
    }

    #[test]
    fn round_robin_rotates_ports() {
        let mut s = sim();
        let mut h = Host::attach(&s, s.host_cube_id(0)).unwrap();
        for i in 0..4u64 {
            let op = MemOp::read(i * 64, BlockSize::B64);
            h.try_issue(&mut s, 0, &op).unwrap();
        }
        // One packet per link xbar queue.
        for l in 0..4u8 {
            assert_eq!(
                s.device(0).unwrap().xbars[l as usize].rqst.len(),
                1,
                "link {l}"
            );
        }
    }

    #[test]
    fn injection_reports_backpressure_when_everything_is_full() {
        let mut s = sim(); // xbar depth 8 per link, 4 links = 32 slots
        let mut h = Host::attach(&s, s.host_cube_id(0)).unwrap();
        let mut accepted = 0;
        for i in 0..100u64 {
            let op = MemOp::read((i % 512) * 64, BlockSize::B64);
            if h.try_issue(&mut s, 0, &op).unwrap() {
                accepted += 1;
            } else {
                break;
            }
        }
        assert_eq!(accepted, 32, "all crossbar slots filled, then stall");
        assert!(h.stats.send_stalls > 0);
    }

    #[test]
    fn posted_writes_use_no_tags() {
        let mut s = sim();
        let mut h = Host::attach(&s, s.host_cube_id(0)).unwrap();
        let op = MemOp {
            kind: OpKind::PostedWrite,
            addr: 0,
            size: BlockSize::B64,
        };
        assert!(h.try_issue(&mut s, 0, &op).unwrap());
        assert_eq!(h.outstanding(), 0);
        assert_eq!(h.stats.posted, 1);
        for _ in 0..5 {
            s.clock().unwrap();
        }
        assert_eq!(h.drain(&mut s).unwrap(), 0, "no response for posted");
    }

    #[test]
    fn locality_aware_prefers_the_co_located_link() {
        let mut s = sim();
        let mut h = Host::attach(&s, s.host_cube_id(0))
            .unwrap()
            .with_selection(LinkSelection::LocalityAware);
        // Address decoding: low-interleave, 128-byte blocks; block index 5
        // lands in vault 5, quad 1 -> link 1.
        let op = MemOp::read(5 * 128, BlockSize::B64);
        h.try_issue(&mut s, 0, &op).unwrap();
        assert_eq!(s.device(0).unwrap().xbars[1].rqst.len(), 1);
        assert_eq!(s.device(0).unwrap().xbars[0].rqst.len(), 0);
    }

    #[test]
    fn locality_aware_falls_back_when_the_preferred_port_is_full() {
        let mut s = sim(); // xbar depth 8
        let mut h = Host::attach(&s, s.host_cube_id(0))
            .unwrap()
            .with_selection(LinkSelection::LocalityAware);
        // Fill link 1 (the preferred port for vault 5) to the brim.
        for tag in 0..8u16 {
            let p = hmc_types::Packet::request(
                hmc_types::Command::Rd(BlockSize::B64),
                0,
                5 * 128,
                tag,
                1,
                &[],
            )
            .unwrap();
            s.send(0, 1, p).unwrap();
        }
        // The next locality-preferred issue must fall back to another link.
        let op = MemOp::read(5 * 128, BlockSize::B64);
        assert!(h.try_issue(&mut s, 0, &op).unwrap());
        assert_eq!(
            s.device(0).unwrap().xbars[1].rqst.len(),
            8,
            "preferred port stayed full"
        );
        let elsewhere: usize = [0usize, 2, 3]
            .iter()
            .map(|&l| s.device(0).unwrap().xbars[l].rqst.len())
            .sum();
        assert_eq!(elsewhere, 1, "fallback port took the request");
        assert!(h.stats.send_stalls >= 1, "the stall was recorded");
    }

    #[test]
    fn outstanding_is_capped_by_the_tag_space() {
        // 512 tags: with nothing draining, issue 513 response-expecting
        // ops; the 513th reports backpressure without touching the sim.
        let mut s = {
            let mut s = HmcSim::new(
                1,
                hmc_types::DeviceConfig::small().with_queue_depths(256, 128),
            )
            .unwrap();
            let host = s.host_cube_id(0);
            topology::build_simple(&mut s, host).unwrap();
            s
        };
        let mut h = Host::attach(&s, s.host_cube_id(0)).unwrap();
        for i in 0..512u64 {
            let op = MemOp::read((i % 256) * 128, BlockSize::B64);
            assert!(h.try_issue(&mut s, 0, &op).unwrap(), "op {i}");
        }
        assert_eq!(h.outstanding(), 512);
        let op = MemOp::read(0, BlockSize::B64);
        assert!(!h.try_issue(&mut s, 0, &op).unwrap(), "tag space exhausted");
        assert_eq!(s.stats().sent, 512, "the 513th never reached the device");
    }

    #[test]
    fn a_request_that_cannot_be_built_gives_its_tag_back() {
        let mut s = sim();
        let mut h = Host::attach(&s, s.host_cube_id(0)).unwrap();
        // Past the 34-bit address field: more attempts than there are tags.
        let bad = MemOp::read(1 << 34, BlockSize::B64);
        for _ in 0..600 {
            let err = h.try_issue(&mut s, 0, &bad).unwrap_err();
            assert!(matches!(err, HmcError::InvalidAddress { .. }), "{err}");
            assert_eq!(h.outstanding(), 0);
        }
        assert!(h
            .try_issue(&mut s, 0, &MemOp::read(0x40, BlockSize::B64))
            .unwrap());
        assert_eq!((h.outstanding(), h.stats.tag_stalls), (1, 0));
        assert_eq!(
            s.packet_bodies_created(),
            1,
            "every refused fill gave its body back for the next"
        );
    }

    #[test]
    fn latency_stats_bucket_correctly() {
        let mut l = LatencyStats::default();
        l.record(1);
        l.record(3);
        l.record(1000);
        assert_eq!(l.count, 3);
        assert_eq!(l.max, 1000);
        assert!(l.mean() > 300.0);
        assert_eq!(l.buckets[0], 1); // latency 1
        assert_eq!(l.buckets[1], 1); // latency 3
        assert_eq!(l.buckets[9], 1); // latency 1000 in [512,1024)
    }
}
