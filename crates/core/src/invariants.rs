//! The protocol invariant checker.
//!
//! A conformance layer behind [`crate::params::SimParams::check_invariants`]:
//! when the
//! flag is off (the default) every hook below costs one branch and the
//! clock hot path stays allocation-free; when it is on, the simulation
//! object cross-checks itself every cycle against the properties the
//! packet protocol guarantees:
//!
//! * **queue-slot validity** — no queue ever exceeds its configured
//!   depth, every resident packet has a legal FLIT count, and decoded
//!   vault/bank coordinates stay inside the device geometry;
//! * **token conservation** — for every host link, the live token count
//!   plus the FLITs parked in that link's crossbar request queue equals
//!   the initial allotment (IBTC semantics, paper §IV.A);
//! * **tag lifecycle** — a 9-bit tag is never reused by a host while a
//!   response for it is still owed, and every delivered response
//!   correlates to an in-flight tag;
//! * **CRC validity** — every packet delivered to a host carries an
//!   intact CRC-32/Koopman seal;
//! * **stream-order preservation** — responses for requests that entered
//!   on the same link and target the same vault and bank are delivered
//!   in issue order (the §III.C link→bank stream-order guarantee; weak
//!   ordering may only reorder *across* streams);
//! * **memo validity** — what the engine skips work on is still what a
//!   fresh look would say: every crossbar route class names the vault a
//!   fresh decode gives, every sleeping vault's next tick would do
//!   nothing before its cached edge (`sleep edge:`), every live NoC scan
//!   memo counts exactly the stalls and refusing targets a dry scan of
//!   its segment derives (`noc memo:`), and every NoC segment's head set
//!   and key counts are what its packets imply (`noc heads:`);
//! * **skipped walks** — a crossbar walk the engine skips on its idle
//!   hint and the crossbar gate is re-proved inert slot by slot, when it
//!   is skipped (`skipped walk:`), and every response queue's host and
//!   mover count are what the link's far end and the queue's entries
//!   imply (`xbar movers:`); every crossbar request queue's class
//!   census is a recount of its route classes (`xbar census:`), and
//!   every device's full-vault mask names exactly the vaults whose
//!   request queue is full (`full vaults:`);
//! * **body conservation** — every packet body the simulation created is
//!   on its free list or resident in a slot: no path that retires an
//!   entry forgets to recycle its body.
//!
//! Violations are recorded, not panicked, so differential harnesses (the
//! `hmc-conform` crate) can shrink a failing input down to a minimal
//! reproduction after the fact.

use std::collections::HashMap;

use hmc_trace::EventKind;
use hmc_types::{CubeId, LinkId, Packet, PhysAddr, MAX_PACKET_FLITS};

use crate::link::Endpoint;
use crate::queue::{ClassCensus, QueueEntry, NO_ROUTE, UNCLASSIFIED};
use crate::sim::HmcSim;

/// Recorded violations are capped so a hard failure loop cannot grow the
/// report without bound; the total count keeps rising past the cap.
const MAX_RECORDED: usize = 64;

/// One in-flight (host, tag) pair: `None` stream for register traffic.
#[derive(Debug, Clone, Copy)]
struct TagInfo {
    stream: Option<u64>,
    seq: u64,
}

/// Per-stream issue and delivery sequence counters.
#[derive(Debug, Clone, Copy, Default)]
struct StreamSeq {
    next_issue: u64,
    last_delivered: Option<u64>,
}

/// Checker state, lazily boxed onto [`HmcSim`] when the flag is on.
#[derive(Debug, Default)]
pub struct InvariantState {
    /// (host << 16 | tag) -> in-flight info.
    in_flight: HashMap<u32, TagInfo>,
    /// Packed (dev, link, vault, bank) -> sequence counters.
    streams: HashMap<u64, StreamSeq>,
    /// First [`MAX_RECORDED`] violation descriptions.
    violations: Vec<String>,
    /// Total violations observed (may exceed `violations.len()`).
    total: u64,
}

impl InvariantState {
    fn record(&mut self, msg: String) {
        self.total += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(msg);
        }
    }
}

fn tag_key(host: CubeId, tag: u16) -> u32 {
    ((host as u32) << 16) | tag as u32
}

fn stream_key(dev: CubeId, link: LinkId, vault: u16, bank: u16) -> u64 {
    ((dev as u64) << 48) | ((link as u64) << 40) | ((vault as u64) << 20) | bank as u64
}

impl HmcSim {
    /// Violations recorded so far (empty when the checker is off or the
    /// run is clean). At most the first 64 are retained.
    pub fn invariant_violations(&self) -> &[String] {
        self.inv
            .as_ref()
            .map(|s| s.violations.as_slice())
            .unwrap_or(&[])
    }

    /// Total violation count, including any past the recording cap.
    pub fn total_invariant_violations(&self) -> u64 {
        self.inv.as_ref().map(|s| s.total).unwrap_or(0)
    }

    /// Drop recorded violations and in-flight tracking (fresh run).
    pub fn clear_invariant_state(&mut self) {
        self.inv = None;
    }

    fn inv_state(&mut self) -> &mut InvariantState {
        self.inv.get_or_insert_with(Default::default)
    }

    /// Send-side hook: tag-lifecycle and stream-sequence bookkeeping.
    /// Called only when the flag is on, after the packet is accepted.
    pub(crate) fn inv_record_send(&mut self, dev: CubeId, link: LinkId, host: CubeId, p: &Packet) {
        let cmd = match p.cmd() {
            Ok(c) => c,
            Err(_) => return, // send() already rejected it
        };
        if cmd.is_flow() || cmd.response_command().is_none() {
            // Flow packets carry no tag; posted requests owe no response,
            // so their shared tag (0x1ff) is exempt from the lifecycle.
            return;
        }
        let stream = if cmd.is_mode() {
            None // register traffic has no vault/bank stream
        } else {
            PhysAddr::new(p.addr())
                .ok()
                .and_then(|a| self.map.decode(a).ok())
                .map(|d| stream_key(dev, link, d.vault, d.bank))
        };
        let tag = p.tag();
        let state = self.inv_state();
        let seq = match stream {
            Some(k) => {
                let s = state.streams.entry(k).or_default();
                let seq = s.next_issue;
                s.next_issue += 1;
                seq
            }
            None => 0,
        };
        if state
            .in_flight
            .insert(tag_key(host, tag), TagInfo { stream, seq })
            .is_some()
        {
            state.record(format!(
                "tag reuse: host {host} reissued tag {tag:#x} while a response was in flight"
            ));
        }
    }

    /// Receive-side hook: egress CRC, tag correlation, stream order.
    /// Called only when the flag is on, after an entry leaves a host
    /// link's response queue.
    pub(crate) fn inv_check_recv(&mut self, dev: CubeId, link: LinkId, entry: &QueueEntry) {
        let host = match self
            .devices
            .get(dev as usize)
            .and_then(|d| d.links.get(link as usize))
            .map(|l| l.remote)
        {
            Some(Endpoint::Host(h)) => h,
            _ => return,
        };
        let p = &entry.packet;
        if !p.verify_crc() {
            let tag = p.tag();
            self.inv_state().record(format!(
                "egress CRC: packet tag {tag:#x} delivered on dev {dev} link {link} \
                 fails CRC-32/Koopman verification"
            ));
        }
        let cmd = match p.cmd() {
            Ok(c) if c.is_response() => c,
            Ok(c) => {
                let m = c.mnemonic();
                self.inv_state().record(format!(
                    "egress class: non-response packet {m} delivered on dev {dev} link {link}"
                ));
                return;
            }
            Err(_) => {
                let raw = p.raw_cmd();
                self.inv_state().record(format!(
                    "egress class: undecodable command {raw:#x} delivered on dev {dev} link {link}"
                ));
                return;
            }
        };
        let _ = cmd;
        let tag = p.tag();
        // A poisoned response aborted at the link layer: its request
        // never completed in the memory stream, so it is exempt from
        // stream-order accounting (it may legitimately outrun earlier
        // same-stream responses still in the vault pipeline). Tag
        // correlation still applies — exactly one response per request.
        let poisoned = p.errstat() == Ok(hmc_types::ResponseStatus::LinkPoisoned);
        let state = self.inv_state();
        match state.in_flight.remove(&tag_key(host, tag)) {
            None => state.record(format!(
                "tag correlation: response tag {tag:#x} on dev {dev} link {link} \
                 matches no in-flight request of host {host}"
            )),
            Some(_) if poisoned => {}
            Some(info) => {
                if let Some(k) = info.stream {
                    let last = state.streams.get(&k).and_then(|s| s.last_delivered);
                    if let Some(last) = last {
                        if info.seq <= last {
                            state.record(format!(
                                "stream order: tag {tag:#x} (issue seq {}) delivered after \
                                 seq {last} of the same (link, vault, bank) stream {k:#x}",
                                info.seq
                            ));
                        }
                    }
                    if last.is_none_or(|l| info.seq > l) {
                        state.streams.entry(k).or_default().last_delivered = Some(info.seq);
                    }
                }
            }
        }
    }

    /// Skip-side hook: called when stage 1/2 skips link `l`'s walk of
    /// device `di` as inert, before the skip. The crossbar gate reads
    /// route classes in bulk; this re-proves the skip the long way, as the
    /// walk itself would find it: every slot keyed, clean and not
    /// retry-gated, bound for a vault on the direct path whose request
    /// queue is full; no stall event recorded; no retraining to record.
    pub(crate) fn inv_check_skipped_walk(&mut self, di: usize, l: usize) {
        let (clock, rules) = (self.clock, self.link_rules());
        let dev = &self.devices[di];
        let (rqst, link) = (&dev.xbars[l].rqst, &dev.links[l]);
        let noc_vaults = dev.noc_vaults(l as LinkId);
        let mut found = Vec::new();
        if rules.retry && link.retraining && !link.retrain_gated(clock) {
            found.push("its link owes a LinkRetrain record".to_string());
        }
        if !rqst.is_empty() && self.tracer.enabled(EventKind::XbarRqstStall) {
            found.push("the tracer records XbarRqstStall".to_string());
        }
        for (slot, e) in rqst.iter().enumerate() {
            let vault = rqst.route_key(slot);
            let inert = vault != NO_ROUTE
                && !e.corrupt
                && !e.retry_gated(clock)
                && noc_vaults >> vault & 1 == 0
                && dev.vaults[vault as usize].rqst.is_full();
            if !inert {
                found.push(format!(
                    "slot {slot} (tag {:#x}, route {vault}) could move or be reported",
                    e.packet.tag()
                ));
            }
        }
        if !found.is_empty() {
            let state = self.inv_state();
            for why in found {
                state.record(format!(
                    "skipped walk: dev {di} xbar {l} skipped at cycle {clock}, but {why}"
                ));
            }
        }
    }

    /// Whole-device structural sweep, run at the end of every cycle while
    /// the flag is on: queue-slot validity and token conservation.
    pub(crate) fn inv_check_cycle(&mut self) {
        let mut found: Vec<String> = Vec::new();
        let banks = self.config.banks_per_vault;
        let vaults = self.config.num_vaults;
        let clock = self.clock;
        let inputs = self.cycle_inputs();
        let check_entry = |found: &mut Vec<String>, what: &str, e: &QueueEntry| {
            let flits = e.packet.lng();
            if flits == 0 || flits > MAX_PACKET_FLITS {
                found.push(format!(
                    "queue slot: {what} holds a packet with illegal length {flits} FLITs \
                     (tag {:#x}, cycle {clock})",
                    e.packet.tag()
                ));
            }
            if e.is_decoded() && (e.dest_vault >= vaults || e.dest_bank >= banks) {
                found.push(format!(
                    "queue slot: {what} decoded out of range (vault {} / bank {}, \
                     geometry {vaults}x{banks}, tag {:#x})",
                    e.dest_vault,
                    e.dest_bank,
                    e.packet.tag()
                ));
            }
        };
        for d in &self.devices {
            let di = d.id;
            for (li, x) in d.xbars.iter().enumerate() {
                let (rqst, rsp) = (&x.rqst, x.rsp());
                for (name, len, depth) in [
                    ("rqst", rqst.len(), rqst.depth()),
                    ("rsp", rsp.len(), rsp.depth()),
                ] {
                    if len > depth {
                        found.push(format!(
                            "queue depth: dev {di} xbar {li} {name} holds {len} of {depth} slots"
                        ));
                    }
                }
                let entries = rqst.iter().map(|e| ("rqst", e));
                for (name, e) in entries.chain(rsp.iter().map(|e| ("rsp", e))) {
                    check_entry(&mut found, &format!("dev {di} xbar {li} {name}"), e);
                }
                // Route keys: a keyed slot is skipped by the crossbar walk
                // on the key alone, so the memo must still be what a fresh
                // classification would say, and the packet must be one
                // the link-retry code has no business with.
                for (slot, e) in x.rqst.iter().enumerate() {
                    let class = x.rqst.route_class(slot);
                    if class == UNCLASSIFIED {
                        continue;
                    }
                    let fresh = PhysAddr::new(e.packet.addr())
                        .and_then(|a| self.map.decode(a))
                        .ok()
                        .map(|d| (d.vault, d.bank, d.row));
                    let stored = (e.dest_vault, e.dest_bank, e.dest_row);
                    let stored_class = 1u64.checked_shl(e.dest_vault.into());
                    if fresh != Some(stored) || stored_class != Some(class) {
                        found.push(format!(
                            "route key: dev {di} xbar {li} slot {slot} keyed {class:#x} with stored \
                             route {stored:?}, but the address map decodes {fresh:?} \
                             (tag {:#x}, cycle {clock})",
                            e.packet.tag()
                        ));
                    }
                    if e.corrupt || e.retry_gated(clock) {
                        found.push(format!(
                            "route key: dev {di} xbar {li} slot {slot} is keyed but corrupt \
                             or retry-gated (tag {:#x}, cycle {clock})",
                            e.packet.tag()
                        ));
                    }
                }
            }
            // Mover counts: a response queue without movers is not
            // walked, so the count and the host it is taken against must
            // be what the link and the queue's entries say.
            for (l, x) in d.links.iter().zip(&d.xbars) {
                let host = l.remote.host();
                let movers = x.rsp().iter().filter(|e| host != Some(e.dest_cube)).count();
                if x.host() != host || x.movers() != movers {
                    found.push(format!(
                        "xbar movers: dev {di} xbar {} keeps host {:?} and {} movers, but its \
                         link is wired to {:?} and {movers} of its {} responses move (cycle {clock})",
                        l.id,
                        x.host(),
                        x.movers(),
                        l.remote,
                        x.rsp().len()
                    ));
                }
            }
            // Class censuses and the full-vault mask: the crossbar walk
            // and its gate read both instead of the slots and the vault
            // queues, so each must be what a recount says.
            for (li, x) in d.xbars.iter().enumerate() {
                let recount = ClassCensus::of(x.rqst.words());
                if *x.rqst.census() != recount {
                    found.push(format!(
                        "xbar census: dev {di} xbar {li} counts classes {:#x}, but its {} \
                         slots hold {:#x} (cycle {clock})",
                        x.rqst.class_union(),
                        x.rqst.len(),
                        recount.classes()
                    ));
                }
            }
            let full = d
                .vaults
                .iter()
                .filter(|v| v.rqst.is_full())
                .fold(0u64, |m, v| m | 1 << v.id);
            if d.full_vaults != full {
                found.push(format!(
                    "full vaults: dev {di} keeps full-vault mask {:#x}, but the vaults whose \
                     request queue is full are {full:#x} (cycle {clock})",
                    d.full_vaults
                ));
            }
            // NoC scan memos: a memoized segment is not scanned while its
            // refusing targets stay full, so the memo must still be what
            // a dry scan of the packets it holds derives. A scan visits
            // its segment's heads alone, so the kept head set must be
            // what the packets imply.
            if let Some(noc) = d.noc() {
                noc.check_memos(clock, |msg| found.push(format!("noc memo: dev {di} {msg}")));
                noc.check_heads(|msg| found.push(format!("noc heads: dev {di} {msg}")));
            }
            for v in &d.vaults {
                // Sleep edges: a sleeping walk is skipped on the cached
                // edge alone — also in a vault woken only to release
                // data-ready responses — so a fresh scan must still find
                // nothing to issue or stage, and no edge earlier than the
                // one cached.
                if v.walk_asleep(clock) {
                    let fresh = crate::engine::idle_edge(v, &inputs);
                    if fresh.is_none_or(|edge| edge < v.wake_at) {
                        found.push(format!(
                            "sleep edge: dev {di} vault {} sleeps until {} but a fresh scan \
                             says {fresh:?} (None = work to do now; cycle {clock})",
                            v.id, v.wake_at
                        ));
                    }
                }
                for (name, q) in [("rqst", &v.rqst), ("rsp", &v.rsp)] {
                    if q.len() > q.depth() {
                        found.push(format!(
                            "queue depth: dev {di} vault {} {name} holds {} of {} slots",
                            v.id,
                            q.len(),
                            q.depth()
                        ));
                    }
                }
                for e in v.rqst.iter() {
                    check_entry(&mut found, &format!("dev {di} vault {}", v.id), e);
                    if e.is_decoded() && e.dest_vault != v.id {
                        found.push(format!(
                            "routing: packet for vault {} resident in vault {} of dev {di} \
                             (tag {:#x})",
                            e.dest_vault,
                            v.id,
                            e.packet.tag()
                        ));
                    }
                }
            }
            for (l, x) in d.links.iter().zip(&d.xbars) {
                if l.tokens > l.initial_tokens {
                    found.push(format!(
                        "token overflow: dev {di} link {} holds {} of {} tokens",
                        l.id, l.tokens, l.initial_tokens
                    ));
                }
                if l.is_host_link() {
                    let parked = x.rqst.resident_flits();
                    if l.tokens + parked != l.initial_tokens {
                        found.push(format!(
                            "token conservation: dev {di} link {} has {} live + {} parked \
                             tokens against an initial allotment of {} (cycle {clock})",
                            l.id, l.tokens, parked, l.initial_tokens
                        ));
                    }
                }
            }
        }
        // Packet bodies: every one the pool created is on its free list or
        // in a slot — an entry that died without giving its body back (or
        // one that entered a queue around the pool) shows here.
        let resident = self.total_occupancy() + self.scratch.forwards.len();
        let (created, free) = (self.bodies.created(), self.bodies.free());
        if created != (free + resident) as u64 {
            found.push(format!(
                "packet bodies: {created} created, but {free} free + {resident} resident \
                 (cycle {clock})"
            ));
        }
        if !found.is_empty() {
            let state = self.inv_state();
            for msg in found {
                state.record(msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SimParams;
    use crate::topology;
    use hmc_types::{BlockSize, Command, DeviceConfig};

    fn sim() -> HmcSim {
        let mut s = HmcSim::new(1, DeviceConfig::small())
            .unwrap()
            .with_params(SimParams {
                check_invariants: true,
                ..SimParams::default()
            });
        let host = s.host_cube_id(0);
        topology::build_simple(&mut s, host).unwrap();
        s
    }

    fn read(addr: u64, tag: u16, link: u8) -> Packet {
        Packet::request(Command::Rd(BlockSize::B64), 0, addr, tag, link, &[]).unwrap()
    }

    #[test]
    fn clean_run_records_nothing() {
        let mut s = sim();
        for tag in 0..4 {
            s.send(0, 0, read(tag as u64 * 64, tag, 0)).unwrap();
        }
        for _ in 0..16 {
            s.clock().unwrap();
            for l in 0..4 {
                while s.recv(0, l).is_ok() {}
            }
        }
        assert!(s.is_idle());
        assert_eq!(s.invariant_violations(), &[] as &[String]);
        assert_eq!(s.total_invariant_violations(), 0);
    }

    #[test]
    fn tag_reuse_while_in_flight_is_flagged() {
        let mut s = sim();
        s.send(0, 0, read(0, 7, 0)).unwrap();
        s.send(0, 1, read(64, 7, 1)).unwrap();
        assert_eq!(s.total_invariant_violations(), 1);
        assert!(s.invariant_violations()[0].contains("tag reuse"));
    }

    #[test]
    fn orphan_response_is_flagged() {
        use hmc_types::packet::ResponseStatus;
        let mut s = sim();
        let rsp =
            Packet::response(Command::RdResponse, 9, 0, ResponseStatus::Ok, &[0u8; 64]).unwrap();
        let entry = QueueEntry::new(rsp, 0, s.host_cube_id(0), 0);
        s.devices[0].xbars[0].push_rsp(entry).unwrap();
        let _ = s.recv(0, 0).unwrap();
        assert_eq!(s.total_invariant_violations(), 1);
        assert!(s.invariant_violations()[0].contains("tag correlation"));
    }

    #[test]
    fn corrupted_egress_crc_is_flagged() {
        use hmc_types::packet::ResponseStatus;
        let mut s = sim();
        s.send(0, 0, read(0, 3, 0)).unwrap();
        let mut rsp =
            Packet::response(Command::RdResponse, 3, 0, ResponseStatus::Ok, &[0u8; 64]).unwrap();
        rsp.set_crc(rsp.crc() ^ 0x8000_0000);
        let entry = QueueEntry::new(rsp, 0, s.host_cube_id(0), 0);
        s.devices[0].xbars[0].push_rsp(entry).unwrap();
        let _ = s.recv(0, 0).unwrap();
        assert!(s
            .invariant_violations()
            .iter()
            .any(|v| v.contains("egress CRC")));
    }

    #[test]
    fn token_imbalance_is_flagged_by_the_cycle_sweep() {
        let mut s = sim();
        s.devices[0].links[0].tokens -= 1; // simulate a leak
        s.clock().unwrap();
        assert!(s
            .invariant_violations()
            .iter()
            .any(|v| v.contains("token conservation")));
    }

    #[test]
    fn stale_or_unclean_route_keys_are_flagged() {
        let mut s = HmcSim::new(1, DeviceConfig::small().with_queue_depths(16, 2))
            .unwrap()
            .with_params(SimParams {
                check_invariants: true,
                ..SimParams::default()
            });
        let host = s.host_cube_id(0);
        topology::build_simple(&mut s, host).unwrap();
        // Ten reads to vault 0 (vault bits sit above the 128-byte block
        // offset) against a two-slot vault queue: two cycles in, the
        // tail is stalled at the crossbar and keyed.
        for tag in 0..10 {
            s.send(0, 0, read((tag as u64) << 11, tag, 0)).unwrap();
        }
        s.clock().unwrap();
        s.clock().unwrap();
        let rqst = &s.devices[0].xbars[0].rqst;
        assert_ne!(rqst.route_class(0), UNCLASSIFIED, "stalled head is keyed");
        let head = rqst.get(0).unwrap();
        let (vault, bank, row) = (head.dest_vault, head.dest_bank, head.dest_row);
        assert_eq!(s.total_invariant_violations(), 0, "a real memo is clean");

        // A memo the address map no longer agrees with…
        s.devices[0].xbars[0]
            .rqst
            .set_route(0, vault + 1, bank, row);
        s.inv_check_cycle();
        assert!(s.invariant_violations()[0].contains("route key"));
        // …and a keyed packet the link-retry code still owns.
        let flagged = s.total_invariant_violations();
        s.devices[0].xbars[0].rqst.set_route(0, vault, bank, row);
        s.devices[0].xbars[0].rqst.get_mut(0).unwrap().corrupt = true;
        s.inv_check_cycle();
        assert_eq!(s.total_invariant_violations(), flagged + 1);
        assert!(s
            .invariant_violations()
            .last()
            .unwrap()
            .contains("corrupt or retry-gated"));
    }

    #[test]
    fn a_stale_noc_memo_is_flagged() {
        use crate::noc::NocParams;
        use crate::timing::TimingParams;
        use hmc_types::{InterconnectKind, TimingKind};
        // Two-slot vault queues behind a mesh: reads from link 0 to new
        // rows of one DDR bank of vault 12 (quad 3) pile up in the
        // fabric, whose delivery is refused while each row miss keeps
        // the vault queue full.
        let mut s = HmcSim::new(1, DeviceConfig::small().with_queue_depths(32, 2))
            .unwrap()
            .with_params(SimParams {
                check_invariants: true,
                interconnect: NocParams::of(InterconnectKind::Mesh),
                timing: TimingParams::of(TimingKind::Ddr),
                ..SimParams::default()
            });
        let host = s.host_cube_id(0);
        topology::build_simple(&mut s, host).unwrap();
        // Vault bits sit just above the 128-byte block offset; rows far
        // above the bank bits.
        for tag in 0..24 {
            s.send(0, 0, read(12 << 7 | (tag as u64) << 20, tag, 0))
                .unwrap();
        }
        let mut memos = 0;
        for _ in 0..200 {
            s.clock().unwrap();
            memos = s.devices[0].noc.as_mut().unwrap().corrupt_memos();
            if memos > 0 {
                break;
            }
        }
        assert!(memos > 0, "a refused delivery leaves a memo");
        assert_eq!(s.total_invariant_violations(), 0, "real memos are clean");
        s.inv_check_cycle();
        assert_eq!(s.total_invariant_violations(), memos as u64);
        assert!(
            s.invariant_violations()[0].starts_with("noc memo: dev 0 Request segment of quad"),
            "{:?}",
            s.invariant_violations()
        );
    }

    #[test]
    fn a_link_rewired_around_the_sim_is_flagged_as_stale_movers() {
        let mut s = sim();
        for tag in 0..3 {
            s.send(0, 0, read(tag as u64 * 64, tag, 0)).unwrap();
        }
        while s.devices[0].xbars[0].rsp().len() < 3 {
            assert!(s.current_clock() < 100, "the reads never completed");
            s.clock().unwrap();
        }
        assert_eq!(s.total_invariant_violations(), 0, "real counts are clean");
        // A rewiring that bypasses `disconnect` leaves the crossbar
        // counting against the old host: three movers stage 5 never sees.
        s.devices[0].links[0].remote = Endpoint::Unconnected;
        s.inv_check_cycle();
        assert_eq!(s.total_invariant_violations(), 1);
        assert!(
            s.invariant_violations()[0]
                .starts_with("xbar movers: dev 0 xbar 0 keeps host Some(1) and 0 movers"),
            "{:?}",
            s.invariant_violations()
        );
    }

    #[test]
    fn a_class_census_out_of_step_with_its_slots_is_flagged() {
        let mut s = keyed_behind_a_full_vault();
        let keyed = s.devices[0].xbars[0].rqst.len();
        s.inv_check_cycle();
        assert_eq!(s.total_invariant_violations(), 0, "kept censuses are clean");
        // A census that missed every slot: the gate would read an empty
        // queue, and the walk would stop before its first slot.
        *s.devices[0].xbars[0].rqst.census_mut() = ClassCensus::default();
        s.inv_check_cycle();
        assert_eq!(
            s.invariant_violations(),
            [format!(
                "xbar census: dev 0 xbar 0 counts classes 0x0, but its {keyed} slots hold 0x1 \
                 (cycle {})",
                s.clock
            )]
        );
    }

    #[test]
    fn a_full_vault_mask_out_of_step_with_the_vaults_is_flagged() {
        let mut s = keyed_behind_a_full_vault();
        assert_eq!(s.devices[0].full_vaults, 1, "vault 0 filled up");
        // The vault's head taken around stage 4: the mask still says
        // full, and the gate would hold the keyed slots back.
        let head = s.devices[0].vaults[0].rqst.pop().unwrap();
        s.bodies.give(head.packet);
        s.inv_check_cycle();
        assert_eq!(s.total_invariant_violations(), 1);
        assert!(
            s.invariant_violations()[0].starts_with(
                "full vaults: dev 0 keeps full-vault mask 0x1, but the vaults whose request \
                 queue is full are 0x0"
            ),
            "{:?}",
            s.invariant_violations()
        );
    }

    #[test]
    fn a_device_reset_forgets_its_full_vaults() {
        let mut s = keyed_behind_a_full_vault();
        s.reset_device(0).unwrap();
        // Before any vault is ticked again.
        s.inv_check_cycle();
        assert_eq!(s.invariant_violations(), &[] as &[String]);
        assert_eq!(s.devices[0].full_vaults, 0);
    }

    /// Ten reads to rows of one DDR bank of vault 0 against a two-slot
    /// vault queue, clocked until the vault is full of row misses and
    /// everything left on link 0 is keyed behind it: skipping link 0's
    /// walk is sound.
    fn keyed_behind_a_full_vault() -> HmcSim {
        use crate::timing::TimingParams;
        use hmc_types::TimingKind;
        let mut s = HmcSim::new(1, DeviceConfig::small().with_queue_depths(16, 2))
            .unwrap()
            .with_params(SimParams {
                check_invariants: true,
                timing: TimingParams::of(TimingKind::Ddr),
                ..SimParams::default()
            });
        let host = s.host_cube_id(0);
        topology::build_simple(&mut s, host).unwrap();
        for tag in 0..10 {
            s.send(0, 0, read(u64::from(tag) << 16, tag, 0)).unwrap();
        }
        while s.devices[0].xbars[0].rqst.class_union() != 1
            || !s.devices[0].vaults[0].rqst.is_full()
        {
            assert!(s.current_clock() < 8, "the burst never settled");
            s.clock().unwrap();
        }
        s.inv_check_skipped_walk(0, 0);
        assert_eq!(s.total_invariant_violations(), 0, "an inert walk is clean");
        s
    }

    #[test]
    fn a_skipped_walk_that_could_act_is_flagged() {
        use hmc_trace::{NullSink, Tracer, Verbosity};
        let last = |s: &HmcSim| s.invariant_violations().last().unwrap().clone();

        // An unkeyed arrival behind the keyed slots would be routed.
        let mut s = keyed_behind_a_full_vault();
        s.send(0, 0, read(64, 10, 0)).unwrap();
        s.inv_check_skipped_walk(0, 0);
        assert_eq!(s.total_invariant_violations(), 1);
        assert!(
            last(&s).starts_with("skipped walk: dev 0 xbar 0"),
            "{}",
            last(&s)
        );
        assert!(last(&s).contains("tag 0xa, route 65535"), "{}", last(&s));

        // A free vault slot lets every keyed slot move.
        let mut s = keyed_behind_a_full_vault();
        let keyed = s.devices[0].xbars[0].rqst.len() as u64;
        drop(s.devices[0].vaults[0].rqst.pop());
        s.inv_check_skipped_walk(0, 0);
        assert_eq!(s.total_invariant_violations(), keyed);

        // A tracer that records the stall hears from every walk.
        let mut s = keyed_behind_a_full_vault();
        let verbosity = Verbosity::threshold_for(EventKind::XbarRqstStall);
        s.set_tracer(Tracer::new(verbosity, Box::new(NullSink)));
        s.inv_check_skipped_walk(0, 0);
        assert_eq!(s.total_invariant_violations(), 1);
        assert!(
            last(&s).ends_with("the tracer records XbarRqstStall"),
            "{}",
            last(&s)
        );
    }

    #[test]
    fn a_late_walk_edge_is_flagged_in_a_vault_woken_only_to_release() {
        use crate::timing::TimingParams;
        use hmc_types::TimingKind;
        let mut s = HmcSim::new(1, DeviceConfig::small())
            .unwrap()
            .with_params(SimParams {
                check_invariants: true,
                timing: TimingParams::of(TimingKind::Ddr),
                ..SimParams::default()
            });
        let host = s.host_cube_id(0);
        topology::build_simple(&mut s, host).unwrap();
        // Rows 0 and 1 of vault 0, bank 0: row 1 waits out tRAS, past
        // row 0's data-ready edge.
        for row in 0..2u16 {
            s.send(0, 0, read(u64::from(row) << 14, row, 0)).unwrap();
        }
        let releasing = |s: &HmcSim| {
            let v = &s.devices[0].vaults[0];
            v.walk_asleep(s.clock) && !v.asleep(s.clock)
        };
        while !releasing(&s) {
            assert!(s.current_clock() < 100, "never woken to release");
            s.clock().unwrap();
        }
        assert_eq!(s.total_invariant_violations(), 0, "the real edge is clean");
        s.devices[0].vaults[0].wake_at += 1;
        s.inv_check_cycle();
        assert_eq!(s.total_invariant_violations(), 1);
        assert!(
            s.invariant_violations()[0].starts_with("sleep edge: dev 0 vault 0"),
            "{:?}",
            s.invariant_violations()
        );
    }

    #[test]
    fn a_device_is_reset_through_the_sim() {
        fn with_traffic_in_flight() -> HmcSim {
            let mut s = sim();
            for tag in 0..6 {
                let link = (tag % 4) as u8;
                s.send(0, link, read(tag as u64 * 64, tag, link)).unwrap();
            }
            s.clock().unwrap();
            assert_eq!(s.total_occupancy(), 6);
            assert_eq!(s.total_invariant_violations(), 0);
            s
        }
        let mut s = with_traffic_in_flight();
        s.reset_device(0).unwrap();
        assert_eq!(s.current_clock(), 1, "one device, not the simulation");
        s.clock().unwrap();
        assert_eq!(s.invariant_violations(), &[] as &[String]);
        assert_eq!(s.packet_bodies_created(), 0, "the six went with the queues");
        assert!(s.reset_device(1).is_err());

        // Around the sim, the pool still counts the freed bodies as owed.
        let mut s = with_traffic_in_flight();
        s.device_mut(0).unwrap().reset();
        s.clock().unwrap();
        assert!(s.invariant_violations()[0]
            .contains("packet bodies: 6 created, but 0 free + 0 resident"));
    }

    #[test]
    fn a_packet_body_that_is_not_recycled_is_flagged() {
        let mut s = sim();
        s.send(0, 0, read(0, 1, 0)).unwrap();
        while s.devices[0].xbars[0].rsp().is_empty() {
            s.clock().unwrap();
        }
        assert_eq!(s.total_invariant_violations(), 0, "one body, resident");
        // Retire the response around `recv`: its body is freed, not
        // given back.
        drop(s.devices[0].xbars[0].pop_rsp());
        s.clock().unwrap();
        assert_eq!(s.total_invariant_violations(), 1);
        assert!(s.invariant_violations()[0]
            .contains("packet bodies: 1 created, but 0 free + 0 resident"));
        // The next request finds the free list empty and creates another.
        s.send(0, 0, read(64, 2, 0)).unwrap();
        s.clock().unwrap();
        assert!(s.invariant_violations()[1]
            .contains("packet bodies: 2 created, but 0 free + 1 resident"));

        // The same retirement through `recv`, and through a reset, is clean.
        let mut s = sim();
        s.send(0, 0, read(0, 1, 0)).unwrap();
        s.send(0, 1, read(64, 2, 1)).unwrap();
        while s.recv(0, 0).is_err() {
            s.clock().unwrap();
        }
        s.reset();
        s.send(0, 0, read(0, 3, 0)).unwrap();
        s.clock().unwrap();
        assert_eq!(s.invariant_violations(), &[] as &[String]);
        assert_eq!(
            s.packet_bodies_created(),
            1,
            "the one `recv` recycled; reset freed the other"
        );
    }

    #[test]
    fn checker_off_keeps_no_state() {
        let mut s = HmcSim::new(1, DeviceConfig::small()).unwrap();
        let host = s.host_cube_id(0);
        topology::build_simple(&mut s, host).unwrap();
        s.send(0, 0, read(0, 1, 0)).unwrap();
        s.clock().unwrap();
        assert_eq!(s.invariant_violations(), &[] as &[String]);
        assert_eq!(s.total_invariant_violations(), 0);
    }

    #[test]
    fn recording_caps_but_keeps_counting() {
        let mut state = InvariantState::default();
        for i in 0..(MAX_RECORDED + 10) {
            state.record(format!("v{i}"));
        }
        assert_eq!(state.violations.len(), MAX_RECORDED);
        assert_eq!(state.total, (MAX_RECORDED + 10) as u64);
    }
}
