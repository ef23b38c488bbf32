//! The six sub-cycle clock stages (paper §IV.C, Figure 3).
//!
//! One call to [`HmcSim::clock`](crate::sim::HmcSim::clock) progresses the
//! devices by a single leading and trailing clock edge. Internally the
//! cycle decomposes into six sub-cycle operations, executed in this strict
//! order:
//!
//! 1. process child-device link crossbar transactions;
//! 2. process root-device link crossbar request transactions;
//! 3. recognize bank conflicts on vault request queues (trace only);
//! 4. process vault queue memory request transactions;
//! 5. register response packets with crossbar response queues (root
//!    devices first, then children);
//! 6. update the internal clock value.
//!
//! "Request and response packets are only progressed by a single internal
//! stage per sub-cycle operation" — a packet cannot jump from the crossbar
//! interface to a memory bank inside one sub-cycle; it moves crossbar →
//! vault queue in stage 1/2 and vault queue → bank in stage 4.
//!
//! This module owns the stages that move packets between queues: the
//! crossbar walks of stages 1 and 2, the NoC sub-stage, stage 5, and the
//! helpers they share. Stages 3 and 4 — the per-vault bank walk — and
//! the cycle loop that calls everything in order live in
//! the `engine` module.

use hmc_trace::{EventKind, TraceEvent};
use hmc_types::packet::ResponseStatus::{self, AddressError, CommandError, Misroute, Zombie};
use hmc_types::{AddressMap, BankId, Command, CubeId, LinkId, PhysAddr, QuadId, VaultId};

use crate::device;
use crate::engine::Gate;
use crate::fault::Retry;
use crate::link::{Endpoint, LinkRules};
use crate::noc::{NocClass, NocDest, NocEvent, NocSink};
use crate::quad::Quad;
use crate::queue::{QueueEntry, UNCLASSIFIED};
use crate::sim::HmcSim;
use crate::vault::Vault;
use crate::xbar::Crossbar;

/// What the crossbar does with a request packet: the route unit of the
/// stage-1/2 walk. A pure function of the packet, the cube it sits in
/// and the address map — no queue occupancy, clock or link state — so
/// the answer for a packet that stays put can only change when the
/// address map does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Undecodable command field: retired with a `CommandError` response.
    BadCommand,
    /// Flow-control packet (NULL/PRET/TRET/IRTRY): retires at the crossbar.
    Flow(Command),
    /// Bound for another cube: forwarded along the chain.
    Remote(CubeId),
    /// MODE_READ / MODE_WRITE: executed at the logic layer.
    Mode(Command),
    /// Memory request whose address the map rejects: retired with an
    /// `AddressError` response.
    BadAddress,
    /// Memory request for a vault of this cube.
    Local {
        /// Destination vault.
        vault: VaultId,
        /// Destination bank within the vault.
        bank: BankId,
        /// Destination DRAM row.
        row: u64,
    },
}

/// Classify the request in `e`, resident in cube `dev_id`. The checks run
/// in the order the crossbar applies them: a bad command wins over
/// everything, flow packets retire wherever they are, a remote packet is
/// forwarded without its address ever being looked at, and only a local
/// non-MODE request is decoded (reusing coordinates already stored in
/// the entry).
pub(crate) fn classify(e: &QueueEntry, dev_id: CubeId, map: &dyn AddressMap) -> Route {
    let Ok(cmd) = e.packet.cmd() else {
        return Route::BadCommand;
    };
    if cmd.is_flow() {
        return Route::Flow(cmd);
    }
    if e.dest_cube != dev_id {
        return Route::Remote(e.dest_cube);
    }
    if cmd.is_mode() {
        return Route::Mode(cmd);
    }
    if e.is_decoded() {
        return Route::Local {
            vault: e.dest_vault,
            bank: e.dest_bank,
            row: e.dest_row,
        };
    }
    match PhysAddr::new(e.packet.addr()).and_then(|a| map.decode(a)) {
        Ok(d) => Route::Local {
            vault: d.vault,
            bank: d.bank,
            row: d.row,
        },
        Err(_) => Route::BadAddress,
    }
}

/// Where one device's NoC delivers: its vault request queues (through
/// [`Vault::push_request`], which wakes a sleeping vault) and its egress
/// crossbar response queues.
struct DeviceSink<'a> {
    vaults: &'a mut [Vault],
    /// [`Device::full_vaults`](crate::device::Device::full_vaults).
    full_vaults: &'a mut u64,
    xbars: &'a mut [Crossbar],
    /// Stage 4's scan window ([`Vault::push_request`]).
    window: usize,
}

impl NocSink for DeviceSink<'_> {
    fn full(&self, dest: NocDest) -> bool {
        match dest {
            NocDest::ToVault(v) => self.vaults[v as usize].rqst.is_full(),
            NocDest::ToLink(l) => self.xbars[l as usize].rsp().is_full(),
        }
    }

    fn deliver(&mut self, dest: NocDest, entry: QueueEntry) {
        let pushed = match dest {
            NocDest::ToVault(v) => {
                device::push_request(self.vaults, self.full_vaults, v, entry, self.window)
            }
            NocDest::ToLink(l) => self.xbars[l as usize].push_rsp(entry),
        };
        pushed.expect("the fabric probes `full` before it delivers");
    }
}

/// What the walk does after one crossbar request slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The packet left its slot.
    Moved,
    /// The packet left and took the link down: nothing else moves on it.
    LinkDown,
    /// The packet stays; the walk goes on to the next slot.
    Passed,
    /// The packet stays, and so does everything behind it on this link.
    Stop,
}

/// A response the crossbar generates itself.
#[derive(Debug, Clone, Copy)]
enum Answer {
    /// MODE_READ / MODE_WRITE, executed at the logic layer.
    Mode(Command),
    /// A rejected request: bad command or address, zombie, misroute.
    Error(ResponseStatus),
}

/// One link's flow-control latches for one walk.
struct Walk {
    /// [`Device::noc_vaults`](crate::device::Device::noc_vaults) of the link.
    noc_vaults: u64,
    /// The vaults whose class stalled a packet this walk, one bit each:
    /// later packets for them may not pass (stream order). A direct-path
    /// vault latches its own bit when its queue is full. A full NoC
    /// injection buffer latches every NoC-riding vault at once: every
    /// cross-quad packet on this link injects at the same quad.
    held: u64,
    /// Remote cubes whose forward path stalled this walk.
    blocked_cubes: u8,
    /// Free-slot snapshot of remote crossbar queues we forward into, so
    /// capacity claimed by this walk is not double-booked.
    remote_free: [[Option<usize>; 8]; 8],
}

impl HmcSim {
    /// Stages 1 and 2: the crossbar request walks of child devices
    /// (without a host link), then of root devices (with one); bit *d*
    /// of `roots` is set when device *d* is a root
    /// ([`HmcSim::root_devices`]).
    pub(crate) fn stages12_xbar_requests(&mut self, roots: u64) {
        let rules = self.link_rules();
        for root in [false, true] {
            for di in 0..self.devices.len() {
                if (roots >> di & 1 != 0) == root {
                    self.process_xbar_requests(di, rules);
                }
            }
        }
    }

    /// The root devices ([`Device::is_root`](crate::device::Device::is_root)),
    /// bit *d* for device *d*: asked once per cycle, for the stage
    /// orders of stages 1/2 and 5.
    pub(crate) fn root_devices(&self) -> u64 {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_root())
            .fold(0, |roots, (di, _)| roots | 1 << di)
    }

    /// The link-layer rules the installed parameters set for every link.
    #[inline]
    pub(crate) fn link_rules(&self) -> LinkRules {
        LinkRules::new(self.faults.is_some(), self.params().link_flits_per_cycle)
    }

    /// The shared crossbar walk of stages 1 and 2: route each link's
    /// queued request packets to local vaults or across chained links,
    /// honouring pass-ahead weak ordering (a stalled packet may be passed
    /// by later packets bound for other vaults or cubes, never by packets
    /// of its own stream, §III.C). The link layer opens and closes each
    /// link's turn ([`Link::open_turn`](crate::link::Link::open_turn)),
    /// [`HmcSim::retry_step`] vets each packet under error simulation,
    /// and [`HmcSim::route_step`] routes it; a packet that left is
    /// counted here alone.
    ///
    /// The walk is stall-aware: a local memory request that stalls is
    /// memoized as a route class in its slot's word
    /// ([`PacketQueue::set_route`](crate::queue::PacketQueue::set_route)),
    /// and a later visit skips the slot on the key alone once its class
    /// (its vault, or NoC injection) has been found blocked in the same
    /// walk. DESIGN.md "crossbar walk" gives the three rules that keep
    /// this bit-identical to visiting every slot.
    ///
    /// A link's walk is skipped when it provably does nothing:
    ///
    /// * its queue is empty and the link layer keeps no per-turn state
    ///   ([`LinkRules::stateless`]);
    /// * its last walk moved nothing and held no NoC-riding class (the
    ///   [`Crossbar`] `idle_walk` hint), and [`HmcSim::xbar_rqst_gate`]
    ///   — the predicate the fast-forward horizon jumps on — answers
    ///   [`Gate::Inert`]. The link is then left as a one-cycle jump
    ///   leaves it ([`Link::skip_turns`](crate::link::Link::skip_turns)).
    fn process_xbar_requests(&mut self, di: usize, rules: LinkRules) {
        let max_drain = self.params().xbar_drain_per_cycle;
        // Deferred chain-forwards stage in a reusable buffer (capacity
        // retained across cycles — the steady-state walk allocates
        // nothing).
        let mut forwards = std::mem::take(&mut self.scratch.forwards);

        for l in 0..self.config.num_links as usize {
            let xbar = &self.devices[di].xbars[l];
            if xbar.rqst.is_empty() && rules.stateless() {
                continue;
            }
            if xbar.idle_walk && self.xbar_rqst_gate(&self.devices[di], l) == Gate::Inert {
                if self.params().check_invariants {
                    self.inv_check_skipped_walk(di, l);
                }
                self.devices[di].links[l].skip_turns(rules, 1);
                continue;
            }
            let turn = self.devices[di].links[l].open_turn(rules, self.clock);
            if turn.retrained {
                self.stats.link_retrains += 1;
                self.emit(TraceEvent::LinkRetrain {
                    cube: di as CubeId,
                    link: l as LinkId,
                });
            }
            let Some(budget) = turn.budget else {
                continue;
            };
            let mut walk = Walk {
                noc_vaults: self.devices[di].noc_vaults(l as LinkId),
                held: 0,
                blocked_cubes: 0,
                remote_free: [[None; 8]; 8],
            };
            let (mut drained, mut drained_flits, mut idx) = (0usize, 0usize, 0usize);
            debug_assert!(forwards.is_empty());
            while drained < max_drain && drained_flits < budget {
                // Stall-aware skip: a keyed slot is a clean local memory
                // request for the keyed vault, and when its class is
                // already latched in `held` the route step would pass it
                // over with no side effect — so pass over such slots on
                // their keys alone. The first blocked packet of each
                // class still takes the route step, which is what
                // latches the class and emits the stall. The queue's class
                // census says in one AND when no slot is left to visit.
                let rqst = &self.devices[di].xbars[l].rqst;
                if rqst.class_union() & !walk.held == 0 {
                    break;
                }
                idx = rqst.next_unblocked(idx, walk.held);
                if idx >= rqst.len() {
                    break;
                }
                let flits = rqst.get(idx).expect("idx checked").packet.lng();
                let retry = match self.faults {
                    Some(_) => self.retry_step(di, l, idx),
                    None => Retry::Clean,
                };
                let step = match retry {
                    Retry::Clean => self.route_step(di, l, idx, &mut walk, &mut forwards),
                    Retry::Hold => Step::Stop,
                    Retry::Down => Step::LinkDown,
                };
                match step {
                    Step::Passed => idx += 1,
                    Step::Stop => break,
                    Step::Moved | Step::LinkDown => {
                        drained += 1;
                        drained_flits += flits;
                        if step == Step::LinkDown {
                            break;
                        }
                    }
                }
            }

            self.devices[di].links[l].close_turn(rules, budget, drained_flits);
            self.devices[di].xbars[l].idle_walk = drained == 0 && walk.held & walk.noc_vaults == 0;
            for (entry, r, rl) in forwards.drain(..) {
                self.devices[r].xbars[rl]
                    .rqst
                    .push(entry)
                    .expect("capacity reserved in snapshot");
            }
        }

        self.scratch.forwards = forwards;
    }

    /// Route the clean request in slot `idx` of link `l`'s crossbar queue:
    /// to a local vault, one hop along the chain, or answered here.
    /// Always inlined, as is [`HmcSim::route_local`]: they are the body of
    /// the walk's hot loop, which must not pay a call per visited slot.
    #[inline(always)]
    fn route_step(
        &mut self,
        di: usize,
        l: usize,
        idx: usize,
        walk: &mut Walk,
        forwards: &mut Vec<(QueueEntry, usize, usize)>,
    ) -> Step {
        let dev_id = di as CubeId;
        let rqst = &self.devices[di].xbars[l].rqst;
        let e = rqst.get(idx).expect("idx checked");
        let dest = match classify(e, dev_id, self.map.as_ref()) {
            Route::Local { vault, bank, row } => {
                return self.route_local(di, l, idx, (vault, bank, row), walk)
            }
            Route::Remote(dest) => dest,
            Route::Flow(cmd) => {
                let entry = self.take_xbar_request(di, l, idx);
                self.process_flow_packet(di, l, cmd, entry);
                return Step::Moved;
            }
            Route::Mode(cmd) => return self.answer(di, l, idx, Answer::Mode(cmd)),
            Route::BadCommand => return self.answer(di, l, idx, Answer::Error(CommandError)),
            Route::BadAddress => return self.answer(di, l, idx, Answer::Error(AddressError)),
        };
        // Packets for other cubes: chaining forward.
        if walk.blocked_cubes & (1u8 << (dest & 0x7)) != 0 {
            return Step::Passed;
        }
        if e.hops + 1 > self.params().hop_budget {
            return self.answer(di, l, idx, Answer::Error(Zombie));
        }
        let routes = self.routes.as_ref().expect("routes built before clocking");
        let next = routes.next_hop(dev_id, dest);
        let links = &self.devices[di].links;
        let (next_link, r, rl) = match next.map(|n| (n, links[n as usize].remote)) {
            Some((n, Endpoint::Device(r, rl))) => (n, r as usize, rl as usize),
            // No route, or the route ends at a host: requests cannot be
            // delivered to hosts.
            _ => return self.answer(di, l, idx, Answer::Error(Misroute)),
        };
        let free = walk.remote_free[r][rl]
            .get_or_insert_with(|| self.devices[r].xbars[rl].rqst.free_slots());
        if *free == 0 {
            walk.blocked_cubes |= 1u8 << (dest & 0x7);
            return Step::Passed;
        }
        *free -= 1;
        let mut entry = self.take_xbar_request(di, l, idx);
        entry.hops += 1;
        entry.arrival_cycle = self.clock;
        entry.arrival_link = rl as LinkId;
        self.emit(TraceEvent::Forwarded {
            cube: dev_id,
            link: next_link,
            next_cube: r as CubeId,
            dest_cube: dest,
            tag: entry.packet.tag(),
        });
        forwards.push((entry, r, rl));
        Step::Moved
    }

    /// Route a memory request for vault `dest.0` of this device into the
    /// vault's queue (or the NoC), or latch its class stalled.
    #[inline(always)]
    fn route_local(
        &mut self,
        di: usize,
        l: usize,
        idx: usize,
        (vault, bank, row): (VaultId, BankId, u64),
        walk: &mut Walk,
    ) -> Step {
        let dev_id = di as CubeId;
        let bit = 1u64 << vault;
        let via_noc = walk.noc_vaults & bit != 0;
        if walk.held & bit == 0 {
            if via_noc {
                let noc = self.devices[di].noc.as_ref().expect("via_noc");
                if !noc.has_room(l as QuadId, NocClass::Request) {
                    self.stats.noc_stalls += 1;
                    let tag = self.xbar_rqst_tag(di, l, idx);
                    self.emit(TraceEvent::NocStall {
                        cube: dev_id,
                        quad: l as QuadId,
                        tag,
                    });
                    walk.held |= walk.noc_vaults;
                }
            } else if self.devices[di].vaults[vault as usize].rqst.is_full() {
                let tag = self.xbar_rqst_tag(di, l, idx);
                self.emit(TraceEvent::XbarRqstStall {
                    cube: dev_id,
                    link: l as LinkId,
                    vault,
                    tag,
                });
                walk.held |= bit;
            }
        }
        if walk.held & bit != 0 {
            // Memoize the classification for the cycles this packet
            // waits: decoded once, not once per stalled cycle. Never for
            // a corrupt or retry-gated packet — those must keep reaching
            // the link-retry step.
            let rqst = &mut self.devices[di].xbars[l].rqst;
            let e = rqst.get(idx).expect("idx checked");
            if rqst.route_class(idx) == UNCLASSIFIED && !e.corrupt && !e.retry_gated(self.clock) {
                rqst.set_route(idx, vault, bank, row);
            }
            return Step::Passed;
        }

        let mut entry = self.take_xbar_request(di, l, idx);
        entry.dest_vault = vault;
        entry.dest_bank = bank;
        entry.dest_row = row;
        entry.arrival_cycle = self.clock;
        // "Higher latencies are detected due to the physical locality of
        // the queue versus the destination vault" (§IV.C): the arrival
        // link's quad is not the vault's.
        let dest_quad = Quad::of_vault(vault);
        let arrival_quad = entry.arrival_link; // quad index == link index
        if arrival_quad != dest_quad {
            self.emit(TraceEvent::RouteLatency {
                cube: dev_id,
                link: l as LinkId,
                arrival_quad,
                dest_quad,
                vault,
                tag: entry.packet.tag(),
            });
        }
        if via_noc {
            let noc = self.devices[di].noc.as_mut().expect("via_noc");
            noc.inject(l as QuadId, NocDest::ToVault(vault), entry, self.clock);
        } else {
            let window = self.params().window_for(self.config.banks_per_vault);
            let dev = &mut self.devices[di];
            device::push_request(&mut dev.vaults, &mut dev.full_vaults, vault, entry, window)
                .expect("fullness checked above");
        }
        Step::Moved
    }

    /// Retire the request in slot `idx` of link `l`'s crossbar queue with
    /// a response the crossbar generates itself (§V.D for MODE). The
    /// response is owed, so the request waits in its slot, passed over
    /// like any stalled packet, while the link's response queue is full
    /// ([`HmcSim::reply_blocked`]). A failed posted request retires
    /// silently.
    fn answer(&mut self, di: usize, l: usize, idx: usize, answer: Answer) -> Step {
        if self.reply_blocked(di, l, idx) {
            return Step::Passed;
        }
        let entry = self.take_xbar_request(di, l, idx);
        let (cube, tag) = (di as CubeId, entry.packet.tag());
        // The register data a MODE_READ returns: one FLIT, value first.
        let mut data = [0u8; 16];
        let (rsp, status, len) = match answer {
            Answer::Mode(cmd) => {
                let (reg, write) = (entry.packet.addr() as u32, cmd == Command::ModeWrite);
                let registers = &mut self.devices[di].registers;
                let done = if write {
                    let value = entry.packet.data_words().first().copied().unwrap_or(0);
                    let done = registers.write(reg, value);
                    done.map(|()| (Command::ModeWriteResponse, 0))
                } else {
                    registers.read(reg).map(|v| {
                        data[..8].copy_from_slice(&v.to_le_bytes());
                        (Command::ModeReadResponse, data.len())
                    })
                };
                self.emit(TraceEvent::ModeAccess {
                    cube,
                    reg,
                    write,
                    tag,
                });
                match done {
                    Ok((rsp, len)) => (rsp, ResponseStatus::Ok, len),
                    Err(hmc_types::HmcError::RegisterAccess(msg))
                        if write && msg.contains("read-only") =>
                    {
                        (Command::ErrorResponse, CommandError, 0)
                    }
                    Err(_) => (Command::ErrorResponse, AddressError, 0),
                }
            }
            Answer::Error(status) => {
                match status {
                    ResponseStatus::Zombie => self.emit(TraceEvent::Zombie {
                        cube,
                        tag,
                        hops: entry.hops + 1,
                    }),
                    ResponseStatus::Misroute => self.emit(TraceEvent::Misroute {
                        cube,
                        link: l as LinkId,
                        dest_cube: entry.dest_cube,
                        tag,
                    }),
                    _ => {}
                }
                self.devices[di].registers.count_error_response();
                (Command::ErrorResponse, status, 0)
            }
        };
        if !status.is_ok() {
            let status = status.encode();
            self.emit(TraceEvent::ErrorResponse { cube, tag, status });
        }
        if entry.packet.cmd().is_ok_and(|c| c.is_posted()) {
            self.bodies.give(entry.packet);
        } else {
            let resp = entry.into_response(rsp, status, &data[..len], cube, self.clock);
            let pushed = self.devices[di].xbars[l].push_rsp(resp);
            pushed.expect("response slot checked");
        }
        Step::Moved
    }

    /// Move responses already in crossbar response queues one step: to a
    /// host-deliverable position, across a chained link, or to the egress
    /// crossbar within this device.
    ///
    /// Only a mover ([`Crossbar::movers`]) can do anything here: an entry
    /// parked for the host on its link is passed over on its header alone.
    /// So a queue with no movers is not walked at all, which is the same
    /// predicate that lets the fast-forward horizon call it inert
    /// (`HmcSim::xbar_rsp_gate`).
    pub(crate) fn forward_xbar_responses(&mut self, di: usize) {
        let dev_id = di as CubeId;
        let num_links = self.config.num_links as usize;
        let max_drain = self.params().xbar_drain_per_cycle;

        for l in 0..num_links {
            if self.devices[di].xbars[l].movers() == 0 {
                continue;
            }
            let mut idx = 0usize;
            let mut moved = 0usize;
            loop {
                if moved >= max_drain {
                    break;
                }
                let xbar = &self.devices[di].xbars[l];
                let Some(e) = xbar.rsp().get(idx) else {
                    break;
                };
                // One internal stage per sub-cycle (§IV.C): an entry that
                // already moved this cycle (re-routed from another link or
                // forwarded from another device) waits for the next edge.
                // An entry deliverable where it sits waits for a host
                // `recv`.
                if e.arrival_cycle >= self.clock || xbar.parked(e) {
                    idx += 1;
                    continue;
                }
                let dest = e.dest_cube;
                let next = self
                    .routes
                    .as_ref()
                    .expect("routes built before clocking")
                    .next_hop(dev_id, dest);
                let Some(e_link) = next else {
                    // Zombie response: its host is unreachable.
                    let entry = self.devices[di].xbars[l].remove_rsp(idx).expect("present");
                    self.misrouted_response(di, l as LinkId, entry);
                    moved += 1;
                    continue;
                };
                // Cross this link to the peer device, or re-route within
                // the device to the egress crossbar.
                let e_link = e_link as usize;
                let (r, rl) = match self.devices[di].links[l].remote {
                    _ if e_link != l => (di, e_link),
                    Endpoint::Device(r, rl) => (r as usize, rl as usize),
                    _ => {
                        // Route says "this link" but it's a host link for
                        // a different host, or unconnected.
                        let entry = self.devices[di].xbars[l].remove_rsp(idx).expect("present");
                        self.misrouted_response(di, l as LinkId, entry);
                        moved += 1;
                        continue;
                    }
                };
                if self.devices[r].xbars[rl].rsp().is_full() {
                    let tag = self.xbar_rsp_tag(di, l, idx);
                    self.emit(TraceEvent::XbarRspStall {
                        cube: dev_id,
                        link: e_link as LinkId,
                        tag,
                    });
                    idx += 1;
                    continue;
                }
                let mut entry = self.devices[di].xbars[l].remove_rsp(idx).expect("present");
                entry.arrival_cycle = self.clock;
                if e_link == l {
                    entry.arrival_link = rl as LinkId;
                    entry.hops += 1;
                }
                let pushed = self.devices[r].xbars[rl].push_rsp(entry);
                pushed.expect("fullness checked");
                moved += 1;
            }
        }
    }

    /// Stage 5 for one vault: register up to
    /// [`rsp_drain_per_cycle`](crate::params::SimParams::rsp_drain_per_cycle)
    /// head entries of the vault response queue with their egress
    /// crossbar response queue, routing each as it reaches the head. The
    /// queue is FIFO: a head that cannot move (egress queue or NoC
    /// segment full) holds everything behind it for the cycle.
    pub(crate) fn drain_vault_responses(&mut self, di: usize, vi: usize) {
        let dev_id = di as CubeId;
        let vault_quad = Quad::of_vault(vi as VaultId);
        let clock = self.clock;
        for _ in 0..self.params().rsp_drain_per_cycle {
            let dev = &mut self.devices[di];
            let Some(head) = dev.vaults[vi].rsp.front() else {
                break;
            };
            let (tag, arrival_link, dest) = (head.packet.tag(), head.arrival_link, head.dest_cube);
            // Prefer the link the request arrived on when it reaches the
            // destination host directly (SLID association).
            let direct = dev
                .links
                .get(arrival_link as usize)
                .is_some_and(|l| l.remote == Endpoint::Host(dest));
            let egress = if direct {
                Some(arrival_link)
            } else {
                self.routes
                    .as_ref()
                    .expect("routes built before clocking")
                    .next_hop(dev_id, dest)
            };
            let Some(e_link) = egress else {
                let entry = dev.vaults[vi].rsp.pop().expect("head present");
                self.misrouted_response(di, arrival_link, entry);
                continue;
            };
            // Buffered NoC fabrics carry cross-quad responses through the
            // vault's quad segment; same-quad responses (and everything
            // under the crossbar fabric) push directly.
            if dev.rides_noc(e_link, vi as VaultId) {
                let noc = dev.noc.as_mut().expect("rides_noc");
                if !noc.has_room(vault_quad, NocClass::Response) {
                    self.stats.noc_stalls += 1;
                    self.emit(TraceEvent::NocStall {
                        cube: dev_id,
                        quad: vault_quad,
                        tag,
                    });
                    break;
                }
                let entry = dev.vaults[vi].rsp.pop().expect("head present");
                noc.inject(vault_quad, NocDest::ToLink(e_link), entry, clock);
                continue;
            }
            let egress = &mut dev.xbars[e_link as usize];
            if egress.rsp().is_full() {
                self.emit(TraceEvent::XbarRspStall {
                    cube: dev_id,
                    link: e_link,
                    tag,
                });
                break;
            }
            let mut entry = dev.vaults[vi].rsp.pop().expect("head present");
            entry.arrival_cycle = clock;
            egress.push_rsp(entry).expect("fullness checked");
        }
    }

    /// The NoC sub-stage: advance each buffered fabric one segment step,
    /// delivering arrived cross-quad requests into vault request queues
    /// and arrived cross-quad responses into egress crossbar response
    /// queues. Runs between stage 2 and stage 3, so arrivals are visible
    /// to this cycle's vault walk. No-op (one branch) under the crossbar
    /// fabric.
    pub(crate) fn noc_advance(&mut self, di: usize) {
        let dev_id = di as CubeId;
        let clock = self.clock;
        let record_hops = self.tracer.enabled(EventKind::NocHop);
        let record_stalls = self.tracer.enabled(EventKind::NocStall);
        let window = self.params().window_for(self.config.banks_per_vault);
        let device::Device {
            noc,
            vaults,
            full_vaults,
            xbars,
            ..
        } = &mut self.devices[di];
        let Some(noc) = noc.as_mut() else {
            return;
        };
        let mut sink = DeviceSink {
            vaults,
            full_vaults,
            xbars,
            window,
        };
        let delta = noc.advance(clock, &mut sink, record_hops, record_stalls);
        self.stats.noc_hops += delta.hops;
        self.stats.noc_stalls += delta.stalls;
        self.stats.noc_arb_losses += delta.arb_losses;
        if record_hops || record_stalls {
            for ev in noc.drain_events() {
                let event = match ev {
                    NocEvent::Hop {
                        from_quad,
                        to_quad,
                        tag,
                    } => TraceEvent::NocHop {
                        cube: dev_id,
                        from_quad,
                        to_quad,
                        tag,
                    },
                    NocEvent::Stall { quad, tag } => TraceEvent::NocStall {
                        cube: dev_id,
                        quad,
                        tag,
                    },
                };
                self.tracer.emit(clock, event);
            }
        }
    }

    // ----------------------------------------------------------- helpers

    /// The tag of slot `idx` of link `l`'s crossbar request queue, for the
    /// event about to report it: the walk itself never needs one.
    fn xbar_rqst_tag(&self, di: usize, l: usize, idx: usize) -> u16 {
        let rqst = &self.devices[di].xbars[l].rqst;
        rqst.get(idx).expect("idx checked").packet.tag()
    }

    /// The tag of entry `idx` of link `l`'s crossbar response queue, for
    /// the stall event about to report it.
    fn xbar_rsp_tag(&self, di: usize, l: usize, idx: usize) -> u16 {
        let rsp = self.devices[di].xbars[l].rsp();
        rsp.get(idx).expect("idx checked").packet.tag()
    }

    /// Retire a response whose host is unreachable from link `link`, as
    /// misrouted.
    fn misrouted_response(&mut self, di: usize, link: LinkId, entry: QueueEntry) {
        self.emit(TraceEvent::Misroute {
            cube: di as CubeId,
            link,
            dest_cube: entry.dest_cube,
            tag: entry.packet.tag(),
        });
        self.bodies.give(entry.packet);
    }

    /// Retire slot `idx` of link `l`'s crossbar request queue and hand
    /// its link-layer flow-control tokens back.
    pub(crate) fn take_xbar_request(&mut self, di: usize, l: usize, idx: usize) -> QueueEntry {
        let dev = &mut self.devices[di];
        let entry = dev.xbars[l].rqst.remove(idx).expect("slot present");
        let flits = entry.packet.lng() as u32;
        dev.links[l].return_tokens(flits);
        if dev.links[l].is_host_link() && self.tracer.enabled(EventKind::TokenReturn) {
            self.emit(TraceEvent::TokenReturn {
                cube: di as CubeId,
                link: l as LinkId,
                tokens: flits as u8,
            });
        }
        entry
    }

    /// The one rule for a response the crossbar owes: true when the
    /// request in slot `idx` of link `l`'s crossbar queue must wait,
    /// because it is non-posted and the link's response queue is full.
    /// A posted request owes no response and never waits.
    #[inline]
    pub(crate) fn reply_blocked(&self, di: usize, l: usize, idx: usize) -> bool {
        let xbar = &self.devices[di].xbars[l];
        xbar.rsp().is_full() && {
            let e = xbar.rqst.get(idx).expect("idx checked");
            !e.packet.cmd().is_ok_and(|c| c.is_posted())
        }
    }

    /// Retire a flow-control packet at the crossbar (§IV requirement 5:
    /// all packet variations are supported).
    fn process_flow_packet(&mut self, di: usize, l: usize, cmd: Command, entry: QueueEntry) {
        match cmd {
            Command::Tret | Command::Pret => {
                let rtc = entry.packet.rtc() as u32;
                self.devices[di].links[l].return_tokens(rtc);
                self.emit(TraceEvent::TokenReturn {
                    cube: di as CubeId,
                    link: l as LinkId,
                    tokens: entry.packet.rtc(),
                });
            }
            // NULL packets are discarded; IRTRY retires link retry state,
            // which this model treats as a no-op.
            _ => {}
        }
        self.bodies.give(entry.packet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noc::NocParams;
    use crate::params::SimParams;
    use crate::queue::NO_ROUTE;
    use hmc_trace::{SharedSink, Tracer, VecSink, Verbosity};
    use hmc_types::{
        BankFirstMap, BlockSize, DeviceConfig, InterconnectKind, LinearMap, LowInterleaveMap,
        Packet,
    };

    const DEV: CubeId = 1;

    fn rd(cub: CubeId, addr: u64) -> QueueEntry {
        let p = Packet::request(Command::Rd(BlockSize::B64), cub, addr, 1, 0, &[]).unwrap();
        QueueEntry::new(p, 9, cub, 0)
    }

    fn default_map() -> LowInterleaveMap {
        LowInterleaveMap::new(DeviceConfig::small().geometry()).unwrap()
    }

    #[test]
    fn flow_packets_retire_whatever_cube_they_name() {
        for cmd in [Command::Null, Command::Pret, Command::Tret, Command::Irtry] {
            for cub in [DEV, DEV + 1] {
                let e = QueueEntry::new(Packet::flow(cmd, cub, 3).unwrap(), 9, cub, 0);
                assert_eq!(classify(&e, DEV, &default_map()), Route::Flow(cmd));
            }
        }
    }

    #[test]
    fn mode_accesses_are_local_logic_layer_operations() {
        let reg = crate::register::regs::GC as u64;
        let read = Packet::request(Command::ModeRead, DEV, reg, 1, 0, &[]).unwrap();
        let write = Packet::request(Command::ModeWrite, DEV, reg, 2, 0, &[0u8; 16]).unwrap();
        for (p, cmd) in [(read, Command::ModeRead), (write, Command::ModeWrite)] {
            let e = QueueEntry::new(p.clone(), 9, DEV, 0);
            assert_eq!(classify(&e, DEV, &default_map()), Route::Mode(cmd));
            // Bound for another cube, a MODE packet is forwarded like any other.
            let e = QueueEntry::new(p, 9, DEV + 1, 0);
            assert_eq!(classify(&e, DEV, &default_map()), Route::Remote(DEV + 1));
        }
    }

    #[test]
    fn remote_requests_are_forwarded_without_decoding_their_address() {
        let bad_addr = (1 << 34) - 64;
        assert_eq!(
            classify(&rd(DEV + 2, bad_addr), DEV, &default_map()),
            Route::Remote(DEV + 2)
        );
        assert_eq!(
            classify(&rd(DEV, bad_addr), DEV, &default_map()),
            Route::BadAddress
        );
    }

    #[test]
    fn an_undecodable_command_wins_over_every_other_field() {
        for cub in [DEV, DEV + 1] {
            let mut e = rd(cub, (1 << 34) - 64);
            e.packet.header = (e.packet.header & !0x3f) | 0x3f; // undefined CMD
            e.packet.seal();
            assert_eq!(classify(&e, DEV, &default_map()), Route::BadCommand);
        }
    }

    #[test]
    fn local_requests_decode_under_whichever_map_is_installed() {
        let g = DeviceConfig::small().geometry();
        let maps: [Box<dyn AddressMap>; 3] = [
            Box::new(LowInterleaveMap::new(g).unwrap()),
            Box::new(BankFirstMap::new(g).unwrap()),
            Box::new(LinearMap::new(g).unwrap()),
        ];
        let mut seen = Vec::new();
        for map in &maps {
            for addr in [0x0, 0x1880, 0x2_4000, 0x1234_5680] {
                let d = map.decode(PhysAddr::new(addr).unwrap()).unwrap();
                let want = Route::Local {
                    vault: d.vault,
                    bank: d.bank,
                    row: d.row,
                };
                assert_eq!(classify(&rd(DEV, addr), DEV, map.as_ref()), want);
                seen.push(want);
            }
        }
        assert_ne!(seen[..4], seen[4..8], "the maps must actually differ");
        assert_ne!(seen[..4], seen[8..], "the maps must actually differ");
    }

    #[test]
    fn stored_coordinates_are_reused_not_decoded_again() {
        let mut e = rd(DEV, 0x1880);
        e.dest_vault = 7;
        e.dest_bank = 3;
        e.dest_row = 42;
        assert_eq!(
            classify(&e, DEV, &default_map()),
            Route::Local {
                vault: 7,
                bank: 3,
                row: 42
            }
        );
    }

    // ---- stage 5: the vault response drain ----
    //
    // The expected moves and events below were captured from the
    // plan-then-commit implementation this function replaced.

    const HOST: CubeId = 1;
    /// Vault 1 sits in quad 0: link 0 is its own quad, link 2 is not.
    const VAULT: usize = 1;

    fn rsp(tag: u16, arrival_link: LinkId, dest: CubeId) -> QueueEntry {
        let status = ResponseStatus::Ok;
        let p = Packet::response(Command::RdResponse, tag, arrival_link, status, &[0; 16]).unwrap();
        let mut e = QueueEntry::new(p, 0, dest, 0);
        e.arrival_link = arrival_link;
        e
    }

    /// A one-device sim at clock 9 whose vault 1 holds, in order, a
    /// response for link 0 (routable), one for link 2 (whose crossbar
    /// response queue is full, and on a mesh whose quad-0 response
    /// segment is full too), and one for a host nobody is wired to.
    fn blocked_drain(
        kind: InterconnectKind,
        rsp_drain_per_cycle: usize,
    ) -> (HmcSim, SharedSink<VecSink>) {
        let mut interconnect = NocParams::of(kind);
        interconnect.buffer_depth = 2;
        let mut sim = HmcSim::new(1, DeviceConfig::small())
            .unwrap()
            .with_params(SimParams {
                rsp_drain_per_cycle,
                interconnect,
                ..SimParams::default()
            });
        for l in 0..4 {
            sim.connect_host(0, l, HOST).unwrap();
        }
        sim.ensure_routes().unwrap();
        sim.clock = 9;
        let sink = SharedSink::new(VecSink::default());
        sim.set_tracer(Tracer::new(Verbosity::Full, Box::new(sink.handle())));
        let dev = &mut sim.devices[0];
        while !dev.xbars[2].rsp().is_full() {
            dev.xbars[2].push_rsp(rsp(100, 2, HOST)).unwrap();
        }
        if let Some(noc) = dev.noc.as_mut() {
            while noc.has_room(0, NocClass::Response) {
                noc.inject(0, NocDest::ToLink(3), rsp(200, 3, HOST), 9);
            }
        }
        for e in [rsp(1, 0, HOST), rsp(2, 2, HOST), rsp(3, 1, 5)] {
            dev.vaults[VAULT].rsp.push(e).unwrap();
        }
        (sim, sink)
    }

    /// One stage-5 pass over the vault: the tags left in its response
    /// queue and the events the pass raised.
    fn drain_pass(sim: &mut HmcSim, sink: &SharedSink<VecSink>) -> (Vec<u16>, Vec<TraceEvent>) {
        sim.drain_vault_responses(0, VAULT);
        let q = &sim.devices[0].vaults[VAULT].rsp;
        let left = (0..q.len())
            .map(|i| q.get(i).unwrap().packet.tag())
            .collect();
        let events = sink.0.lock().records.drain(..).map(|r| r.event).collect();
        (left, events)
    }

    const MISROUTE: TraceEvent = TraceEvent::Misroute {
        cube: 0,
        link: 1,
        dest_cube: 5,
        tag: 3,
    };

    #[test]
    fn a_full_egress_queue_holds_the_vault_response_queue_in_order() {
        let stall = TraceEvent::XbarRspStall {
            cube: 0,
            link: 2,
            tag: 2,
        };
        // One response per cycle: the routable head goes, the next one
        // stalls (and says so) every cycle it waits.
        let (mut sim, sink) = blocked_drain(InterconnectKind::Crossbar, 1);
        assert_eq!(drain_pass(&mut sim, &sink), (vec![2, 3], vec![]));
        assert_eq!(drain_pass(&mut sim, &sink), (vec![2, 3], vec![stall]));
        assert_eq!(drain_pass(&mut sim, &sink), (vec![2, 3], vec![stall]));
        sim.devices[0].xbars[2].pop_rsp().unwrap();
        assert_eq!(drain_pass(&mut sim, &sink), (vec![3], vec![]));
        assert_eq!(drain_pass(&mut sim, &sink), (vec![], vec![MISROUTE]));
        assert_eq!(drain_pass(&mut sim, &sink), (vec![], vec![]));

        // Four per cycle: the same stall ends the pass early, and the
        // unreachable response behind it waits its turn.
        let (mut sim, sink) = blocked_drain(InterconnectKind::Crossbar, 4);
        assert_eq!(drain_pass(&mut sim, &sink), (vec![2, 3], vec![stall]));
        assert_eq!(drain_pass(&mut sim, &sink), (vec![2, 3], vec![stall]));
        sim.devices[0].xbars[2].pop_rsp().unwrap();
        assert_eq!(drain_pass(&mut sim, &sink), (vec![], vec![MISROUTE]));

        let dev = &sim.devices[0];
        assert_eq!(dev.xbars[0].rsp().len(), 1);
        assert_eq!(dev.xbars[0].rsp().front().unwrap().arrival_cycle, 9);
        assert!(dev.xbars[2].rsp().is_full(), "tag 2 took the freed slot");
        assert_eq!(sim.stats.noc_stalls, 0);
        assert_eq!(sim.bodies.free(), 1, "the misrouted body came back");
    }

    #[test]
    fn a_full_noc_segment_holds_cross_quad_responses_on_a_mesh() {
        let stall = TraceEvent::NocStall {
            cube: 0,
            quad: 0,
            tag: 2,
        };
        for (per_cycle, first_pass) in [(1, vec![]), (4, vec![stall])] {
            let (mut sim, sink) = blocked_drain(InterconnectKind::Mesh, per_cycle);
            // The same-quad head pushes straight into crossbar 0; the
            // cross-quad response needs the full quad-0 segment.
            assert_eq!(
                drain_pass(&mut sim, &sink),
                (vec![2, 3], first_pass.clone())
            );
            assert_eq!(drain_pass(&mut sim, &sink), (vec![2, 3], vec![stall]));
            let stalls = 1 + first_pass.len() as u64;
            assert_eq!(sim.stats.noc_stalls, stalls, "one bump per stalled pass");
            assert_eq!(sim.devices[0].xbars[0].rsp().len(), 1);

            // With room in the segment it rides the NoC — crossbar 2
            // being full is the fabric's problem at delivery, not stage 5's.
            sim.devices[0].noc.as_mut().unwrap().clear();
            if per_cycle == 1 {
                assert_eq!(drain_pass(&mut sim, &sink), (vec![3], vec![]));
            }
            assert_eq!(drain_pass(&mut sim, &sink), (vec![], vec![MISROUTE]));
            assert_eq!(sim.devices[0].noc.as_ref().unwrap().occupancy(), 1);
            assert_eq!(sim.stats.noc_stalls, stalls);
            assert_eq!(sim.bodies.free(), 1, "the misrouted body came back");
        }
    }

    // ---- stage 2: requests placed in a crossbar queue behind `send` ----

    /// Clock `sim` until link 0 answers, for at most `max` cycles.
    fn pump_for_response(sim: &mut HmcSim, max: u32) -> Option<Packet> {
        for _ in 0..max {
            sim.clock().unwrap();
            if let Ok(p) = sim.recv(0, 0) {
                return Some(p);
            }
        }
        None
    }

    #[test]
    fn undecodable_command_in_flight_yields_command_error() {
        let mut sim = HmcSim::new(1, DeviceConfig::small()).unwrap();
        let host = sim.host_cube_id(0);
        crate::topology::build_simple(&mut sim, host).unwrap();
        // Build a valid packet, then give it an undefined CMD and reseal
        // so it passes CRC but fails decode inside the device.
        let mut req = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 7, 0, &[]).unwrap();
        req.header = (req.header & !0x3f) | 0x3f; // 0x3f is undefined
        req.seal();
        // send() validates and rejects it up front — the host-side guard.
        assert!(sim.send(0, 0, req.clone()).is_err());
        // Place it behind the guard to exercise the device-side path.
        let entry = QueueEntry::new(req, host, 0, 0);
        sim.devices[0].xbars[0].rqst.push(entry).unwrap();
        let rsp = pump_for_response(&mut sim, 8).expect("command error response");
        assert_eq!(rsp.errstat().unwrap(), ResponseStatus::CommandError);
    }

    /// Tags resident in link 0's crossbar request queue, head first.
    fn rqst_tags(sim: &HmcSim) -> Vec<u16> {
        let rqst = &sim.devices[0].xbars[0].rqst;
        rqst.iter().map(|e| e.packet.tag()).collect()
    }

    #[test]
    fn a_retry_gated_packet_behind_keyed_blocked_ones_still_ends_the_walk() {
        // A deep crossbar queue in front of two-slot vault queues, so a
        // burst to one vault stalls at the crossbar, fully traced.
        let cfg = DeviceConfig::small()
            .with_queue_depths(16, 2)
            .with_storage_mode(hmc_types::StorageMode::TimingOnly);
        let mut sim = HmcSim::new(1, cfg).unwrap();
        let host = sim.host_cube_id(0);
        crate::topology::build_simple(&mut sim, host).unwrap();
        let sink = SharedSink::new(VecSink::default());
        sim.set_tracer(Tracer::new(Verbosity::Full, Box::new(sink.handle())));
        sim.set_params(SimParams {
            link_faults: Some(hmc_types::LinkFaultConfig {
                error_rate_ppm: 0,
                ..hmc_types::LinkFaultConfig::default()
            }),
            ..*sim.params()
        });
        // Ten requests to vault 0 (alternating 64-byte reads and writes;
        // the vault bits sit just above the 128-byte block offset): two
        // cycles in, the ones still at the crossbar are stalled behind
        // its two-slot queue and keyed.
        for k in 0..10u16 {
            let (addr, tag) = ((k as u64) << 11, k + 1);
            let p = if k.is_multiple_of(2) {
                Packet::request(Command::Rd(BlockSize::B64), 0, addr, tag, 0, &[])
            } else {
                Packet::request(Command::Wr(BlockSize::B64), 0, addr, tag, 0, &[0xa5; 64])
            };
            sim.send(0, 0, p.unwrap()).unwrap();
        }
        sim.clock().unwrap();
        sim.clock().unwrap();
        // Behind them, a request the link is retransmitting (gated, as a
        // detected corruption leaves it; never seen by a walk, so
        // unkeyed) and then one for idle vault 2 that nothing but the
        // gate holds back.
        let vault_rd = |vault: u64, tag| {
            Packet::request(Command::Rd(BlockSize::B64), 0, vault << 7, tag, 0, &[]).unwrap()
        };
        sim.send(0, 0, vault_rd(1, 100)).unwrap();
        sim.send(0, 0, vault_rd(2, 101)).unwrap();
        let gate_until = sim.current_clock() + 3;
        let rqst = &mut sim.devices[0].xbars[0].rqst;
        let gated_slot = rqst.len() - 2;
        assert!(gated_slot >= 2, "stalled packets sit ahead of the gate");
        assert_ne!(rqst.route_key(0), NO_ROUTE, "the stalled head is keyed");
        assert_eq!(rqst.route_key(gated_slot), NO_ROUTE);
        rqst.get_mut(gated_slot).unwrap().retry_until = gate_until;

        // While the gate holds, every walk skips or stalls on the keyed
        // vault-0 packets and must then `break` at the gated one: tag 101
        // stays in the crossbar although its vault is idle.
        while sim.current_clock() < gate_until {
            sim.clock().unwrap();
            assert!(rqst_tags(&sim).ends_with(&[100, 101]));
        }
        // The next walk finds the gate lapsed: both move on.
        sim.clock().unwrap();
        assert!(!rqst_tags(&sim).contains(&100) && !rqst_tags(&sim).contains(&101));
        let mut seen = 0;
        while seen < 12 {
            assert!(sim.current_clock() < 10_000, "never drained");
            sim.clock().unwrap();
            while sim.recv(0, 0).is_ok() {
                seen += 1;
            }
        }
    }
}
