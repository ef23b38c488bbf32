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
//! [`crate::engine`].

use hmc_trace::{EventKind, TraceEvent};
use hmc_types::packet::ResponseStatus;
use hmc_types::{AddressMap, BankId, Command, CubeId, LinkId, PhysAddr, QuadId, VaultId};

use crate::link::Endpoint;
use crate::noc::{NocClass, NocDest, NocEvent, NocSink};
use crate::quad::Quad;
use crate::queue::{QueueEntry, NO_ROUTE};
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
    xbars: &'a mut [Crossbar],
    /// Stage 4's scan window ([`Vault::push_request`]).
    window: usize,
}

impl NocSink for DeviceSink<'_> {
    fn full(&self, dest: NocDest) -> bool {
        match dest {
            NocDest::ToVault(v) => self.vaults[v as usize].rqst.is_full(),
            NocDest::ToLink(l) => self.xbars[l as usize].rsp.is_full(),
        }
    }

    fn deliver(&mut self, dest: NocDest, entry: QueueEntry) {
        let pushed = match dest {
            NocDest::ToVault(v) => self.vaults[v as usize].push_request(entry, self.window),
            NocDest::ToLink(l) => self.xbars[l as usize].rsp.push(entry),
        };
        pushed.expect("the fabric probes `full` before it delivers");
    }
}

impl HmcSim {
    /// Stage 1: crossbar transactions on child devices (devices without a
    /// host link).
    pub(crate) fn stage1_child_xbar_requests(&mut self) {
        for di in 0..self.devices.len() {
            if !self.devices[di].is_root() {
                self.process_xbar_requests(di);
            }
        }
    }

    /// Stage 2: crossbar request transactions on root devices (devices
    /// connected directly to a host interface).
    pub(crate) fn stage2_root_xbar_requests(&mut self) {
        for di in 0..self.devices.len() {
            if self.devices[di].is_root() {
                self.process_xbar_requests(di);
            }
        }
    }

    /// The shared crossbar walk of stages 1 and 2: route each link's
    /// queued request packets to local vaults or across chained links,
    /// honouring pass-ahead weak ordering (a stalled packet may be passed
    /// by later packets bound for other vaults or cubes, never by packets
    /// of its own stream, §III.C).
    ///
    /// The walk is stall-aware: a local memory request that stalls is
    /// memoized as a route key beside its slot
    /// ([`RoutedQueue`](crate::queue::RoutedQueue)),
    /// and a later visit skips the slot on the key alone once its class
    /// (its vault, or NoC injection) has been found blocked in the same
    /// walk. DESIGN.md "crossbar walk" gives the three rules that keep
    /// this bit-identical to visiting every slot.
    fn process_xbar_requests(&mut self, di: usize) {
        let dev_id = di as CubeId;
        let num_links = self.config.num_links as usize;
        let max_drain = self.params().xbar_drain_per_cycle;
        let vault_window = self.params().window_for(self.config.banks_per_vault);
        // Optional SERDES serialization: each link direction moves at
        // most this many FLITs per cycle when configured. A zero budget
        // could never drain a packet, so it is clamped to one beat.
        let flit_budget = self.params().link_flits_per_cycle.map(|f| f.max(1));

        // Deferred chain-forwards stage in a reusable buffer (capacity
        // retained across cycles — the steady-state walk allocates
        // nothing).
        let mut forwards = std::mem::take(&mut self.scratch.forwards);

        for l in 0..num_links {
            // Link-retry protocol: a link that exhausted its retries is
            // down, retraining — nothing moves until the window lapses,
            // and the first walk afterward records the completed
            // retraining and restarts the wire SEQ counter.
            if self.faults.is_some() {
                if self.devices[di].links[l].retrain_gated(self.clock) {
                    continue;
                }
                if self.devices[di].links[l].retraining {
                    let link = &mut self.devices[di].links[l];
                    link.retraining = false;
                    link.wire_seq = 0;
                    self.stats.link_retrains += 1;
                    self.emit(TraceEvent::LinkRetrain {
                        cube: dev_id,
                        link: l as LinkId,
                    });
                }
            }
            // Resolve this link's FLIT budget, paying down debt from
            // earlier oversized packets first.
            let budget = if let Some(f) = flit_budget {
                let debt = self.devices[di].links[l].flit_debt as usize;
                if debt >= f {
                    self.devices[di].links[l].flit_debt = (debt - f) as u32;
                    continue;
                }
                f - debt
            } else {
                usize::MAX
            };
            let mut drained = 0usize;
            let mut drained_flits = 0usize;
            let mut idx = 0usize;
            // The vaults whose class stalled a packet this walk, one bit
            // each: later packets for them may not pass (stream order). A
            // direct-path vault latches its own bit when its queue is
            // full. A full NoC injection buffer latches every NoC-riding
            // vault at once: every cross-quad packet on this link injects
            // at the same quad, so one full buffer blocks them all.
            let noc_vaults = self.devices[di].noc_vaults(l as LinkId);
            let mut held: u64 = 0;
            // Remote cubes whose forward path stalled this walk.
            let mut blocked_cubes: u8 = 0;
            // Free-slot snapshot of remote crossbar queues we forward
            // into, so capacity claimed by this walk is not double-booked.
            let mut remote_free: [[Option<usize>; 8]; 8] = [[None; 8]; 8];
            debug_assert!(forwards.is_empty());
            loop {
                if drained >= max_drain {
                    break;
                }
                if drained_flits >= budget {
                    break;
                }
                // Stall-aware skip: a keyed slot is a clean local memory
                // request for the keyed vault, and when its class is
                // already latched in `held` the slow path below would do
                // `idx += 1; continue` with no side effect — so pass over
                // such slots on their keys alone. The first blocked packet
                // of each class still takes the slow path, which is what
                // latches the class and emits the stall.
                let rqst = &self.devices[di].xbars[l].rqst;
                idx = rqst.next_unblocked(idx, held);
                if idx >= rqst.len() {
                    break;
                }
                let key = rqst.route_key(idx);

                let (flits, corrupt, gated) = {
                    let e = rqst.get(idx).expect("idx checked");
                    (e.packet.lng() as u32, e.corrupt, e.retry_gated(self.clock))
                };

                // Error simulation: the crossbar's CRC check catches
                // packets corrupted in link transit. A detected
                // corruption triggers the StartRetry/IRTRY exchange —
                // the packet (and its stream) holds in place while the
                // peer retransmits in order from its retry buffer — and
                // a packet that exhausts the attempt cap is aborted with
                // a poisoned response while the link goes down to
                // retrain.
                if self.faults.is_some() {
                    if gated {
                        // Retransmission in flight: the packet (and, to
                        // preserve stream order, everything behind it on
                        // this link) waits. Same gate the fast-forward
                        // horizon models via `QueueEntry::retry_gated`.
                        break;
                    }
                    if corrupt {
                        let cfg = self.faults.as_ref().expect("checked").config;
                        let clock = self.clock;
                        let (next_attempt, send_seq, posted) = {
                            let e = rqst.get(idx).expect("idx checked");
                            (
                                e.attempt + 1,
                                e.send_seq,
                                e.packet.cmd().map(|c| c.is_posted()).unwrap_or(false),
                            )
                        };
                        // Retry exhaustion with no response slot free:
                        // hold everything as-is (no counters, no events)
                        // and rerun the abort next cycle, so a deferred
                        // abort never double-counts.
                        if next_attempt > cfg.retry_limit
                            && !posted
                            && self.devices[di].xbars[l].rsp.is_full()
                        {
                            break;
                        }
                        if next_attempt <= cfg.retry_limit {
                            // Schedule the in-order retransmission and
                            // pre-decide its fate from the stateless
                            // corruption stream (observable only once
                            // the retry timer lapses).
                            let refate = self.faults.as_mut().expect("checked").roll_attempt(
                                dev_id,
                                l as LinkId,
                                send_seq,
                                next_attempt,
                            );
                            let e = self.devices[di].xbars[l]
                                .rqst
                                .get_mut(idx)
                                .expect("idx checked");
                            e.attempt = next_attempt;
                            e.corrupt = refate;
                            e.retry_until = clock + cfg.retry_cycles;
                            let tag = e.packet.tag();
                            self.stats.link_retries += 1;
                            self.emit(TraceEvent::LinkRetry {
                                cube: dev_id,
                                link: l as LinkId,
                                tag,
                            });
                            // The IRTRY exchange retransmits from the
                            // error point onward: everything behind the
                            // corrupted packet holds too, exactly as the
                            // `retry_gated` check does on later cycles.
                            break;
                        }
                        // Retry exhaustion: abort with a poisoned
                        // response and take the link down. Delivery is
                        // guaranteed — the full-response-queue case broke
                        // out above before anything mutated.
                        let entry = self.take_xbar_request(di, l, idx, flits);
                        self.emit(TraceEvent::LinkDown {
                            cube: dev_id,
                            link: l as LinkId,
                            tag: entry.packet.tag(),
                            attempts: next_attempt,
                        });
                        self.poison_response(di, l, entry);
                        let link = &mut self.devices[di].links[l];
                        link.retrain_until = clock + cfg.retrain_cycles;
                        link.retraining = true;
                        drained_flits += flits as usize;
                        // The link is down: nothing else moves on it
                        // this cycle (`drained` needs no bump — the walk
                        // ends here).
                        break;
                    }
                }

                let route = classify(
                    rqst.get(idx).expect("idx checked"),
                    dev_id,
                    self.map.as_ref(),
                );
                let (vault, bank, row) = match route {
                    Route::Local { vault, bank, row } => (vault, bank, row),
                    Route::BadCommand => {
                        let entry = self.take_xbar_request(di, l, idx, flits);
                        self.xbar_error_response(di, l, entry, ResponseStatus::CommandError);
                        drained += 1;
                        drained_flits += flits as usize;
                        continue;
                    }
                    // Flow-control packets retire at the crossbar.
                    Route::Flow(cmd) => {
                        let entry = self.take_xbar_request(di, l, idx, flits);
                        self.process_flow_packet(di, l, cmd, entry);
                        drained += 1;
                        drained_flits += flits as usize;
                        continue;
                    }
                    // Packets for other cubes: chaining forward.
                    Route::Remote(dest) => {
                        if blocked_cubes & (1u8 << (dest & 0x7)) != 0 {
                            idx += 1;
                            continue;
                        }
                        let hops = rqst.get(idx).expect("idx checked").hops;
                        if hops + 1 > self.params().hop_budget {
                            let entry = self.take_xbar_request(di, l, idx, flits);
                            self.emit(TraceEvent::Zombie {
                                cube: dev_id,
                                tag: entry.packet.tag(),
                                hops: hops + 1,
                            });
                            self.xbar_error_response(di, l, entry, ResponseStatus::Zombie);
                            drained += 1;
                            drained_flits += flits as usize;
                            continue;
                        }
                        let next = self
                            .routes
                            .as_ref()
                            .expect("routes built before clocking")
                            .next_hop(dev_id, dest);
                        let (r, rl) = match next.map(|n| self.devices[di].links[n as usize].remote)
                        {
                            Some(Endpoint::Device(r, rl)) => (r as usize, rl as usize),
                            _ => {
                                // No route, or the route terminates at a
                                // host: requests cannot be delivered to
                                // hosts.
                                let entry = self.take_xbar_request(di, l, idx, flits);
                                self.emit(TraceEvent::Misroute {
                                    cube: dev_id,
                                    link: l as LinkId,
                                    dest_cube: dest,
                                    tag: entry.packet.tag(),
                                });
                                self.xbar_error_response(di, l, entry, ResponseStatus::Misroute);
                                drained += 1;
                                drained_flits += flits as usize;
                                continue;
                            }
                        };
                        let free = match &mut remote_free[r][rl] {
                            Some(f) => f,
                            slot @ None => {
                                *slot = Some(self.devices[r].xbars[rl].rqst.free_slots());
                                slot.as_mut().expect("just set")
                            }
                        };
                        if *free == 0 {
                            blocked_cubes |= 1u8 << (dest & 0x7);
                            idx += 1;
                            continue;
                        }
                        *free -= 1;
                        let mut entry = self.take_xbar_request(di, l, idx, flits);
                        entry.hops += 1;
                        entry.arrival_cycle = self.clock;
                        entry.arrival_link = rl as LinkId;
                        let next_link = next.expect("matched Device endpoint");
                        self.emit(TraceEvent::Forwarded {
                            cube: dev_id,
                            link: next_link,
                            next_cube: r as CubeId,
                            dest_cube: dest,
                            tag: entry.packet.tag(),
                        });
                        forwards.push((entry, r, rl));
                        drained += 1;
                        drained_flits += flits as usize;
                        continue;
                    }
                    // MODE register accesses: logic-layer operations.
                    Route::Mode(cmd) => {
                        if self.devices[di].xbars[l].rsp.is_full() {
                            idx += 1;
                            continue;
                        }
                        let entry = self.take_xbar_request(di, l, idx, flits);
                        self.execute_mode_access(di, l, cmd, entry);
                        drained += 1;
                        drained_flits += flits as usize;
                        continue;
                    }
                    Route::BadAddress => {
                        let entry = self.take_xbar_request(di, l, idx, flits);
                        self.xbar_error_response(di, l, entry, ResponseStatus::AddressError);
                        drained += 1;
                        drained_flits += flits as usize;
                        continue;
                    }
                };

                // ---- memory requests for this device ----
                let dest_quad = Quad::of_vault(vault);
                let bit = 1u64 << vault;
                let via_noc = noc_vaults & bit != 0;
                if held & bit == 0 {
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
                            held |= noc_vaults;
                        }
                    } else if self.devices[di].vaults[vault as usize].rqst.is_full() {
                        let tag = self.xbar_rqst_tag(di, l, idx);
                        self.emit(TraceEvent::XbarRqstStall {
                            cube: dev_id,
                            link: l as LinkId,
                            vault,
                            tag,
                        });
                        held |= bit;
                    }
                }
                if held & bit != 0 {
                    // Memoize the classification for the cycles this
                    // packet waits: decoded once, not once per stalled
                    // cycle. Never for a corrupt or retry-gated packet —
                    // those must keep reaching the link-retry code above.
                    if key == NO_ROUTE && !corrupt && !gated {
                        self.devices[di].xbars[l]
                            .rqst
                            .set_route(idx, vault, bank, row);
                    }
                    idx += 1;
                    continue;
                }

                let mut entry = self.take_xbar_request(di, l, idx, flits);
                entry.dest_vault = vault;
                entry.dest_bank = bank;
                entry.dest_row = row;
                entry.arrival_cycle = self.clock;
                // "Higher latencies are detected due to the physical
                // locality of the queue versus the destination vault"
                // (§IV.C): the arrival link's quad is not the vault's.
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
                    self.devices[di].noc.as_mut().expect("via_noc").inject(
                        l as QuadId,
                        NocDest::ToVault(vault),
                        entry,
                        self.clock,
                    );
                } else {
                    self.devices[di].vaults[vault as usize]
                        .push_request(entry, vault_window)
                        .expect("fullness checked above");
                }
                drained += 1;
                drained_flits += flits as usize;
            }

            if flit_budget.is_some() {
                // Oversized final packets leave a beat debt for later
                // cycles so long-run throughput honours the line rate.
                self.devices[di].links[l].flit_debt = drained_flits.saturating_sub(budget) as u32;
            }
            for (entry, r, rl) in forwards.drain(..) {
                self.devices[r].xbars[rl]
                    .rqst
                    .push(entry)
                    .expect("capacity reserved in snapshot");
            }
        }

        self.scratch.forwards = forwards;
    }

    /// Move responses already in crossbar response queues one step: to a
    /// host-deliverable position, across a chained link, or to the egress
    /// crossbar within this device.
    pub(crate) fn forward_xbar_responses(&mut self, di: usize) {
        let dev_id = di as CubeId;
        let num_links = self.config.num_links as usize;
        let max_drain = self.params().xbar_drain_per_cycle;

        for l in 0..num_links {
            let mut idx = 0usize;
            let mut moved = 0usize;
            loop {
                if moved >= max_drain {
                    break;
                }
                if idx >= self.devices[di].xbars[l].rsp.len() {
                    break;
                }
                let (dest, tag, arrived) = {
                    let e = self.devices[di].xbars[l].rsp.get(idx).expect("idx checked");
                    (e.dest_cube, e.packet.tag(), e.arrival_cycle)
                };
                // One internal stage per sub-cycle (§IV.C): an entry that
                // already moved this cycle (re-routed from another link or
                // forwarded from another device) waits for the next edge.
                if arrived >= self.clock {
                    idx += 1;
                    continue;
                }
                // Deliverable where it sits: host attached to this link.
                if self.devices[di].links[l].remote == Endpoint::Host(dest) {
                    idx += 1;
                    continue;
                }
                let next = self
                    .routes
                    .as_ref()
                    .expect("routes built before clocking")
                    .next_hop(dev_id, dest);
                let Some(e_link) = next else {
                    // Zombie response: its host is unreachable.
                    let entry = self.devices[di].xbars[l].rsp.remove(idx).expect("present");
                    self.emit(TraceEvent::Misroute {
                        cube: dev_id,
                        link: l as LinkId,
                        dest_cube: dest,
                        tag: entry.packet.tag(),
                    });
                    self.bodies.give(entry.packet);
                    moved += 1;
                    continue;
                };
                let e_link = e_link as usize;
                if e_link == l {
                    // This link faces the right direction: cross it.
                    match self.devices[di].links[l].remote {
                        Endpoint::Device(r, rl) => {
                            let (r, rl) = (r as usize, rl as usize);
                            if self.devices[r].xbars[rl].rsp.is_full() {
                                self.emit(TraceEvent::XbarRspStall {
                                    cube: dev_id,
                                    link: l as LinkId,
                                    tag,
                                });
                                idx += 1;
                                continue;
                            }
                            let mut entry =
                                self.devices[di].xbars[l].rsp.remove(idx).expect("present");
                            entry.arrival_cycle = self.clock;
                            entry.arrival_link = rl as LinkId;
                            entry.hops += 1;
                            self.devices[r].xbars[rl]
                                .rsp
                                .push(entry)
                                .expect("fullness checked");
                            moved += 1;
                        }
                        _ => {
                            // Route says "this link" but it's a host link
                            // for a different host, or unconnected.
                            let entry =
                                self.devices[di].xbars[l].rsp.remove(idx).expect("present");
                            self.emit(TraceEvent::Misroute {
                                cube: dev_id,
                                link: l as LinkId,
                                dest_cube: entry.dest_cube,
                                tag: entry.packet.tag(),
                            });
                            self.bodies.give(entry.packet);
                            moved += 1;
                        }
                    }
                } else {
                    // Re-route within the device to the egress crossbar.
                    if self.devices[di].xbars[e_link].rsp.is_full() {
                        self.emit(TraceEvent::XbarRspStall {
                            cube: dev_id,
                            link: e_link as LinkId,
                            tag,
                        });
                        idx += 1;
                        continue;
                    }
                    let mut entry = self.devices[di].xbars[l].rsp.remove(idx).expect("present");
                    entry.arrival_cycle = self.clock;
                    self.devices[di].xbars[e_link]
                        .rsp
                        .push(entry)
                        .expect("fullness checked");
                    moved += 1;
                }
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
                // Unreachable host: retire the response as misrouted.
                let entry = dev.vaults[vi].rsp.pop().expect("head present");
                self.bodies.give(entry.packet);
                self.emit(TraceEvent::Misroute {
                    cube: dev_id,
                    link: arrival_link,
                    dest_cube: dest,
                    tag,
                });
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
            let egress_rsp = &mut dev.xbars[e_link as usize].rsp;
            if egress_rsp.is_full() {
                self.emit(TraceEvent::XbarRspStall {
                    cube: dev_id,
                    link: e_link,
                    tag,
                });
                break;
            }
            let mut entry = dev.vaults[vi].rsp.pop().expect("head present");
            entry.arrival_cycle = clock;
            egress_rsp.push(entry).expect("fullness checked");
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
        let crate::device::Device {
            noc, vaults, xbars, ..
        } = &mut self.devices[di];
        let Some(noc) = noc.as_mut() else {
            return;
        };
        let mut sink = DeviceSink {
            vaults,
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

    /// Retire slot `idx` of link `l`'s crossbar request queue and hand
    /// its link-layer tokens back.
    fn take_xbar_request(&mut self, di: usize, l: usize, idx: usize, flits: u32) -> QueueEntry {
        let entry = self.devices[di].xbars[l]
            .rqst
            .remove(idx)
            .expect("slot present");
        self.return_link_tokens(di, l, flits);
        entry
    }

    /// Return link-layer flow-control tokens when a packet retires from a
    /// host link's crossbar queue.
    fn return_link_tokens(&mut self, di: usize, l: usize, flits: u32) {
        let is_host = self.devices[di].links[l].is_host_link();
        self.devices[di].links[l].return_tokens(flits);
        if is_host && self.tracer.enabled(EventKind::TokenReturn) {
            self.emit(TraceEvent::TokenReturn {
                cube: di as CubeId,
                link: l as LinkId,
                tokens: flits as u8,
            });
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

    /// Execute an in-band MODE_READ / MODE_WRITE register access at the
    /// crossbar logic layer and enqueue the response (§V.D).
    fn execute_mode_access(&mut self, di: usize, l: usize, cmd: Command, entry: QueueEntry) {
        let dev_id = di as CubeId;
        let reg = entry.packet.addr() as u32;
        let tag = entry.packet.tag();
        let write = cmd == Command::ModeWrite;

        // The register data a MODE_READ returns: one FLIT, value first.
        let mut data = [0u8; 16];
        let failed = |status| (Command::ErrorResponse, status, &[][..]);
        let (rsp, status, data) = if write {
            let value = entry.packet.data_words().first().copied().unwrap_or(0);
            match self.devices[di].registers.write(reg, value) {
                Ok(()) => (Command::ModeWriteResponse, ResponseStatus::Ok, &[][..]),
                Err(hmc_types::HmcError::RegisterAccess(msg)) if msg.contains("read-only") => {
                    failed(ResponseStatus::CommandError)
                }
                Err(_) => failed(ResponseStatus::AddressError),
            }
        } else {
            match self.devices[di].registers.read(reg) {
                Ok(v) => {
                    data[..8].copy_from_slice(&v.to_le_bytes());
                    (Command::ModeReadResponse, ResponseStatus::Ok, &data[..])
                }
                Err(_) => failed(ResponseStatus::AddressError),
            }
        };

        self.emit(TraceEvent::ModeAccess {
            cube: dev_id,
            reg,
            write,
            tag,
        });
        if !status.is_ok() {
            self.emit(TraceEvent::ErrorResponse {
                cube: dev_id,
                tag,
                status: status.encode(),
            });
        }
        let resp = entry.into_response(rsp, status, data, dev_id, self.clock);
        self.devices[di].xbars[l]
            .rsp
            .push(resp)
            .expect("response slot checked by caller");
    }

    /// Generate an error response for a request that failed at the
    /// crossbar (bad command, bad address, misroute, zombie). Posted
    /// requests fail silently; full response queues drop the error (the
    /// condition is still traced).
    fn xbar_error_response(
        &mut self,
        di: usize,
        l: usize,
        entry: QueueEntry,
        status: ResponseStatus,
    ) {
        let posted = entry.packet.cmd().map(|c| c.is_posted()).unwrap_or(false);
        let tag = entry.packet.tag();
        self.emit(TraceEvent::ErrorResponse {
            cube: di as CubeId,
            tag,
            status: status.encode(),
        });
        self.devices[di].registers.count_error_response();
        if posted {
            self.bodies.give(entry.packet);
            return;
        }
        let cube = di as CubeId;
        let resp = entry.into_response(Command::ErrorResponse, status, &[], cube, self.clock);
        // Best effort: if the response queue is full the error is dropped;
        // the trace event above still records the failure.
        if let Err(dropped) = self.devices[di].xbars[l].rsp.push(resp) {
            self.bodies.give(dropped.packet);
        }
    }

    /// Generate the poisoned response for a request that exhausted the
    /// link-retry protocol. Unlike [`Self::xbar_error_response`] this
    /// path never drops: the caller verified a response slot is free
    /// before retiring the request, so every non-posted request ends in
    /// exactly one clean or poisoned response. Posted requests fail
    /// silently (they carry no response by definition).
    fn poison_response(&mut self, di: usize, l: usize, entry: QueueEntry) {
        let posted = entry.packet.cmd().map(|c| c.is_posted()).unwrap_or(false);
        let tag = entry.packet.tag();
        self.devices[di].registers.count_error_response();
        if posted {
            self.bodies.give(entry.packet);
            return;
        }
        self.emit(TraceEvent::PoisonedResponse {
            cube: di as CubeId,
            link: l as LinkId,
            tag,
        });
        self.stats.poisoned_responses += 1;
        let (cmd, status) = (Command::ErrorResponse, ResponseStatus::LinkPoisoned);
        let resp = entry.into_response(cmd, status, &[], di as CubeId, self.clock);
        self.devices[di].xbars[l]
            .rsp
            .push(resp)
            .expect("poison slot checked by caller");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noc::NocParams;
    use crate::params::SimParams;
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
        while !dev.xbars[2].rsp.is_full() {
            dev.xbars[2].rsp.push(rsp(100, 2, HOST)).unwrap();
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
        sim.devices[0].xbars[2].rsp.pop().unwrap();
        assert_eq!(drain_pass(&mut sim, &sink), (vec![3], vec![]));
        assert_eq!(drain_pass(&mut sim, &sink), (vec![], vec![MISROUTE]));
        assert_eq!(drain_pass(&mut sim, &sink), (vec![], vec![]));

        // Four per cycle: the same stall ends the pass early, and the
        // unreachable response behind it waits its turn.
        let (mut sim, sink) = blocked_drain(InterconnectKind::Crossbar, 4);
        assert_eq!(drain_pass(&mut sim, &sink), (vec![2, 3], vec![stall]));
        assert_eq!(drain_pass(&mut sim, &sink), (vec![2, 3], vec![stall]));
        sim.devices[0].xbars[2].rsp.pop().unwrap();
        assert_eq!(drain_pass(&mut sim, &sink), (vec![], vec![MISROUTE]));

        let dev = &sim.devices[0];
        assert_eq!(dev.xbars[0].rsp.len(), 1);
        assert_eq!(dev.xbars[0].rsp.front().unwrap().arrival_cycle, 9);
        assert!(dev.xbars[2].rsp.is_full(), "tag 2 took the freed slot");
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
            assert_eq!(sim.devices[0].xbars[0].rsp.len(), 1);

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
}
