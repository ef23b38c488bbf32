//! Intra-cube network-on-chip between quad segments.
//!
//! The paper's logic layer is an idealized full crossbar: stage 2 hands a
//! request from any link directly to any vault queue in one sub-cycle,
//! and stage 5 hands vault responses straight back to any egress
//! crossbar. Hadidi et al. (PAPERS.md) show the intra-HMC network often
//! bounds real cube performance, so this module generalizes that hop
//! into a configurable fabric: packets whose arrival quad differs from
//! their destination quad traverse per-quad bounded segment buffers, one
//! quad-to-quad hop per cycle, under a pluggable arbitration policy.
//!
//! # Model
//!
//! * The **crossbar** fabric is the absence of NoC state
//!   ([`NocState::new`] returns `None`): the engine's original direct
//!   push paths run untouched, keeping the default bit-identical to the
//!   pre-NoC engine by construction.
//! * **Ring** and **mesh** fabrics instantiate one bounded FIFO buffer
//!   per quad *per traffic class* ([`NocClass`]): requests and
//!   responses ride separate virtual-channel planes. Stage 2 injects
//!   cross-quad requests at the arrival link's quad; stage 5 injects
//!   cross-quad responses at the vault's quad. A dedicated serial
//!   sub-stage ([`NocState::advance`], run between stage 2 and the
//!   vault phase) moves each buffered packet at most one segment per
//!   cycle toward its destination quad, then delivers it into the vault
//!   request queue (requests) or egress crossbar response queue
//!   (responses) once it arrives.
//! * Routing is deterministic and minimal per fabric ([`Interconnect`]),
//!   so a (source quad, destination) pair always takes the same path.
//!   Combined with per-destination FIFO order inside every buffer (an
//!   entry may not overtake an earlier entry bound for the same
//!   destination), per-stream packet order is preserved end to end —
//!   the property the conformance oracle checks.
//! * Arbitration ([`ArbitrationKind`]) decides which buffered packets
//!   move when more want to than the per-quad drain budget allows;
//!   losers are counted in `SimStats::noc_arb_losses`. Full segment or
//!   delivery queues stall the packet in place (`noc_stalls`,
//!   `NocStall` trace events); successful segment crossings count as
//!   hops (`noc_hops`, `NocHop` events).
//!
//! # Deadlock freedom
//!
//! Two mechanisms make the buffered fabrics deadlock-free under any
//! closed-loop load, as long as the host drains its responses:
//!
//! 1. **Virtual-channel planes.** Requests and responses never share a
//!    buffer, so the classic request–reply protocol deadlock (full
//!    buffers block response injection, vault response queues fill,
//!    vaults stall, vault request queues fill, request deliveries
//!    stall — a closed cycle) cannot form. The dependency chain is
//!    acyclic: request plane → vault → response plane → egress
//!    crossbar → host.
//! 2. **Cycle rotation.** Within one plane, through-traffic can still
//!    fill a cycle of segment buffers end to end (trivially the whole
//!    ring; a pair of interior mesh quads exchanging opposite-direction
//!    streams). When an entire advance pass moves nothing in a plane
//!    yet packets sit stalled on full segment buffers, the blocked
//!    packets necessarily contain such a cycle, and
//!    [`NocState::advance`] rotates it one step: every member packet
//!    simultaneously takes the slot its successor vacates, so progress
//!    resumes without any buffer ever exceeding its depth. A rotated
//!    packet logs both the stall it suffered and the hop the rotation
//!    granted in the same cycle.
//!
//! All NoC state lives on the [`crate::Device`]. Fast-forward treats
//! any non-empty NoC as live: the quiescent horizon collapses to zero
//! while packets are in flight between quads.

use std::collections::VecDeque;

use hmc_types::{ArbitrationKind, Cycle, InterconnectKind, LinkId, QuadId, VaultId};

use crate::quad::Quad;
use crate::queue::QueueEntry;

/// Routing contract a non-crossbar fabric implements: a deterministic,
/// loop-free, minimal next-hop function over quad segments.
///
/// Implementations must satisfy, for every `from != dest`:
///
/// * progress: following `next_hop` repeatedly reaches `dest` in exactly
///   `hops(from, dest)` steps (no loops, no dead ends);
/// * minimality: `hops` is the shortest segment distance the fabric's
///   wiring admits;
/// * determinism: the path depends only on `(from, dest)`, never on
///   buffer occupancy — required for per-stream order preservation.
pub trait Interconnect {
    /// Number of quad segments in the fabric.
    fn num_quads(&self) -> u8;

    /// The quad one segment closer to `dest` from `from`.
    ///
    /// Must not be called with `from == dest` (a delivered packet has no
    /// next hop); implementations may panic on that input.
    fn next_hop(&self, from: QuadId, dest: QuadId) -> QuadId;

    /// Total quad-to-quad segments on the route from `from` to `dest`
    /// (zero when they are equal).
    fn hops(&self, from: QuadId, dest: QuadId) -> u32;
}

/// Unidirectional ring of quad segments: quad `q` forwards only to
/// `(q + 1) mod Q`, so the distance from `p` to `q` is `(q - p) mod Q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingTopology {
    quads: u8,
}

impl RingTopology {
    /// A ring over `quads` segments (at least one).
    pub fn new(quads: u8) -> RingTopology {
        assert!(quads >= 1, "ring needs at least one quad");
        RingTopology { quads }
    }
}

impl Interconnect for RingTopology {
    fn num_quads(&self) -> u8 {
        self.quads
    }

    fn next_hop(&self, from: QuadId, dest: QuadId) -> QuadId {
        debug_assert_ne!(from, dest, "delivered packets have no next hop");
        (from + 1) % self.quads
    }

    fn hops(&self, from: QuadId, dest: QuadId) -> u32 {
        let q = self.quads as u32;
        (dest as u32 + q - from as u32) % q
    }
}

/// 2D mesh of quad segments with deterministic XY routing: packets
/// correct their column first, then their row, taking minimal
/// Manhattan-distance hops. Quad `q` sits at row `q / cols`, column
/// `q % cols`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshTopology {
    rows: u8,
    cols: u8,
}

impl MeshTopology {
    /// A mesh with the given geometry (`rows * cols` quads, both ≥ 1).
    pub fn new(rows: u8, cols: u8) -> MeshTopology {
        assert!(rows >= 1 && cols >= 1, "mesh needs at least one quad");
        MeshTopology { rows, cols }
    }

    /// The canonical geometry for a device with `quads` quad units: two
    /// rows when that divides evenly with at least two columns (2×2 for
    /// four quads, 2×4 for eight), otherwise a 1×Q degenerate line.
    pub fn for_quads(quads: u8) -> MeshTopology {
        if quads >= 4 && quads.is_multiple_of(2) {
            MeshTopology::new(2, quads / 2)
        } else {
            MeshTopology::new(1, quads)
        }
    }

    fn coords(&self, q: QuadId) -> (u8, u8) {
        (q / self.cols, q % self.cols)
    }
}

impl Interconnect for MeshTopology {
    fn num_quads(&self) -> u8 {
        self.rows * self.cols
    }

    fn next_hop(&self, from: QuadId, dest: QuadId) -> QuadId {
        debug_assert_ne!(from, dest, "delivered packets have no next hop");
        let (fr, fc) = self.coords(from);
        let (_, dc) = self.coords(dest);
        if fc != dc {
            // X first: step along the row toward the destination column.
            let nc = if dc > fc { fc + 1 } else { fc - 1 };
            fr * self.cols + nc
        } else {
            // Column correct: step along the column toward the row.
            let (dr, _) = self.coords(dest);
            let nr = if dr > fr { fr + 1 } else { fr - 1 };
            nr * self.cols + fc
        }
    }

    fn hops(&self, from: QuadId, dest: QuadId) -> u32 {
        let (fr, fc) = self.coords(from);
        let (dr, dc) = self.coords(dest);
        (fr.abs_diff(dr) + fc.abs_diff(dc)) as u32
    }
}

/// Runtime fabric dispatch for the two buffered topologies (the crossbar
/// has no `NocState` at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Unidirectional ring.
    Ring(RingTopology),
    /// 2D mesh with XY routing.
    Mesh(MeshTopology),
}

impl Interconnect for Topology {
    fn num_quads(&self) -> u8 {
        match self {
            Topology::Ring(t) => t.num_quads(),
            Topology::Mesh(t) => t.num_quads(),
        }
    }

    fn next_hop(&self, from: QuadId, dest: QuadId) -> QuadId {
        match self {
            Topology::Ring(t) => t.next_hop(from, dest),
            Topology::Mesh(t) => t.next_hop(from, dest),
        }
    }

    fn hops(&self, from: QuadId, dest: QuadId) -> u32 {
        match self {
            Topology::Ring(t) => t.hops(from, dest),
            Topology::Mesh(t) => t.hops(from, dest),
        }
    }
}

/// Interconnect scenario parameters, carried in
/// [`crate::SimParams::interconnect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocParams {
    /// Which fabric carries cross-quad packets.
    pub kind: InterconnectKind,
    /// How a quad segment orders its buffered packets.
    pub arbitration: ArbitrationKind,
    /// Capacity of each per-quad segment buffer (ring/mesh only).
    pub buffer_depth: u16,
    /// Packets a quad segment may move (forward or deliver) per cycle.
    pub quad_drain: u16,
}

impl Default for NocParams {
    fn default() -> NocParams {
        NocParams {
            kind: InterconnectKind::Crossbar,
            arbitration: ArbitrationKind::RoundRobin,
            buffer_depth: 16,
            quad_drain: 4,
        }
    }
}

impl NocParams {
    /// Parameters for `kind` with the default arbitration, depth, and
    /// drain budget.
    pub fn of(kind: InterconnectKind) -> NocParams {
        NocParams {
            kind,
            ..NocParams::default()
        }
    }

    /// Same parameters with a different arbitration policy.
    pub fn with_arbitration(mut self, arbitration: ArbitrationKind) -> NocParams {
        self.arbitration = arbitration;
        self
    }
}

/// Traffic class of a buffered packet. Each class rides its own
/// virtual-channel plane of segment buffers so that response delivery
/// can never be starved by request congestion — the separation that
/// rules out request–reply protocol deadlock (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocClass {
    /// Host requests heading to a vault ([`NocDest::ToVault`]).
    Request,
    /// Vault responses heading to an egress link ([`NocDest::ToLink`]).
    Response,
}

impl NocClass {
    /// Both planes, in the order [`NocState::advance`] processes them.
    pub const ALL: [NocClass; 2] = [NocClass::Request, NocClass::Response];

    fn index(self) -> usize {
        match self {
            NocClass::Request => 0,
            NocClass::Response => 1,
        }
    }
}

/// Where a buffered packet is ultimately headed within the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocDest {
    /// A request bound for a vault's request queue.
    ToVault(VaultId),
    /// A response bound for an egress crossbar's response queue.
    ToLink(LinkId),
}

impl NocDest {
    /// The virtual-channel plane this destination's traffic rides.
    pub fn class(self) -> NocClass {
        match self {
            NocDest::ToVault(_) => NocClass::Request,
            NocDest::ToLink(_) => NocClass::Response,
        }
    }

    /// The quad segment hosting the destination (quad id == link index;
    /// vaults map through [`Quad::of_vault`]).
    pub fn quad(self) -> QuadId {
        match self {
            NocDest::ToVault(v) => Quad::of_vault(v),
            NocDest::ToLink(l) => l,
        }
    }

    /// A dense small index for per-destination order bookkeeping:
    /// vaults first, then links after `num_vaults`.
    fn order_key(self, num_vaults: u16) -> u32 {
        match self {
            NocDest::ToVault(v) => v as u32,
            NocDest::ToLink(l) => num_vaults as u32 + l as u32,
        }
    }
}

/// One packet in flight between quads.
#[derive(Debug, Clone)]
pub struct NocEntry {
    /// The queued packet, exactly as the crossbar paths carry it.
    pub entry: QueueEntry,
    /// Final destination within the device.
    pub dest: NocDest,
    /// Clock of the last segment move (or injection): a packet whose
    /// `moved_at` equals the current clock already took its hop this
    /// cycle and waits for the next edge — the NoC's copy of the
    /// engine's one-stage-per-sub-cycle rule.
    pub moved_at: Cycle,
}

/// Per-cycle counter deltas from one [`NocState::advance`] call, merged
/// into `SimStats` by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocDelta {
    /// Successful quad-to-quad segment crossings.
    pub hops: u64,
    /// Packets held in place by a full segment buffer or a full
    /// delivery queue.
    pub stalls: u64,
    /// Packets that were free to move but lost arbitration (drain
    /// budget exhausted).
    pub arb_losses: u64,
}

/// A trace-worthy occurrence staged during [`NocState::advance`]; the
/// engine drains these into full `TraceEvent`s (the NoC itself does not
/// know its cube id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocEvent {
    /// A packet crossed one segment.
    Hop {
        /// Segment it left.
        from_quad: QuadId,
        /// Segment it entered.
        to_quad: QuadId,
        /// Packet tag.
        tag: u16,
    },
    /// A packet could not move into a full segment or delivery queue.
    Stall {
        /// Segment holding the packet.
        quad: QuadId,
        /// Packet tag.
        tag: u16,
    },
}

/// "No such index" in the per-destination order tables.
const NO_INDEX: u32 = u32::MAX;

/// A segment-buffer slot. Every slot holds a packet except while the
/// scan of its own buffer is running: a winner is moved out of its slot
/// (not cloned) the moment it hops or delivers, and the vacated slots
/// are squeezed out when the scan ends.
type Slot = Option<NocEntry>;

fn live(slot: &Slot) -> &NocEntry {
    slot.as_ref()
        .expect("segment slots are vacant only inside their own buffer's scan")
}

/// Reusable buffers of the rotation escape, so that a saturated fabric
/// rotating every cycle allocates nothing.
#[derive(Debug, Default)]
struct RotateScratch {
    /// Per quad: the packet it would move if its next segment had room
    /// (buffer index, next quad).
    cand: Vec<Option<(usize, QuadId)>>,
    /// Per quad: 0 unvisited, 1 on the current path, 2 done.
    state: Vec<u8>,
    /// Quads on the wait-for path being walked.
    path: Vec<usize>,
    /// Members of the cycle being rotated, lifted out of their buffers.
    moving: Vec<(usize, QuadId, NocEntry)>,
}

/// Buffered-fabric state for one device: per-quad, per-class segment
/// FIFOs plus arbitration bookkeeping. Lives as `Device::noc`; `None`
/// there means the crossbar fabric (no buffering, original engine
/// paths).
#[derive(Debug)]
pub struct NocState {
    topology: Topology,
    arbitration: ArbitrationKind,
    buffer_depth: usize,
    quad_drain: usize,
    num_vaults: u16,
    num_quads: usize,
    /// One bounded FIFO per quad segment per traffic class, plane-major
    /// (`class.index() * num_quads + quad`), preallocated to
    /// `buffer_depth` so the steady state never allocates.
    buffers: Vec<VecDeque<Slot>>,
    /// Round-robin scan origin per buffer (pre-compaction index space).
    rr_next: Vec<usize>,
    /// Scratch: candidate scan order for one quad (indices).
    scratch_order: Vec<u32>,
    /// Scratch: indices vacated in the current quad's scan.
    scratch_vacated: Vec<u32>,
    /// Scratch, per destination order key: the earliest index in the
    /// buffer being scanned that still holds a packet for that
    /// destination ([`NO_INDEX`] when none does).
    first: Vec<u32>,
    /// Scratch, per buffer index: the next later index bound for the
    /// same destination.
    next_same: Vec<u32>,
    rotate_scratch: RotateScratch,
    /// Events staged by `advance`, drained by the engine afterwards.
    events: Vec<NocEvent>,
}

impl NocState {
    /// Build fabric state for a device with `num_quads` quad segments
    /// and `num_vaults` vaults. Returns `None` for the crossbar fabric:
    /// its absence *is* the crossbar, leaving the engine's direct push
    /// paths (and their bit-exact behaviour) untouched.
    pub fn new(params: &NocParams, num_quads: u8, num_vaults: u16) -> Option<NocState> {
        let topology = match params.kind {
            InterconnectKind::Crossbar => return None,
            InterconnectKind::Ring => Topology::Ring(RingTopology::new(num_quads)),
            InterconnectKind::Mesh => Topology::Mesh(MeshTopology::for_quads(num_quads)),
        };
        let depth = (params.buffer_depth as usize).max(1);
        let nq = num_quads as usize;
        Some(NocState {
            topology,
            arbitration: params.arbitration,
            buffer_depth: depth,
            quad_drain: (params.quad_drain as usize).max(1),
            num_vaults,
            num_quads: nq,
            buffers: (0..2 * nq)
                .map(|_| VecDeque::with_capacity(depth))
                .collect(),
            rr_next: vec![0; 2 * nq],
            scratch_order: Vec::with_capacity(depth),
            scratch_vacated: Vec::with_capacity(depth),
            // Order keys: vaults, then egress links (link id == quad id).
            first: vec![NO_INDEX; num_vaults as usize + nq],
            next_same: Vec::with_capacity(depth),
            rotate_scratch: RotateScratch {
                cand: Vec::with_capacity(nq),
                state: Vec::with_capacity(nq),
                path: Vec::with_capacity(nq),
                moving: Vec::with_capacity(nq),
            },
            // One advance stages at most one event per buffered packet
            // plus one rotation hop per quad, on each plane.
            events: Vec::with_capacity(2 * nq * (depth + 1)),
        })
    }

    /// The fabric this state implements.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The arbitration policy in force.
    pub fn arbitration(&self) -> ArbitrationKind {
        self.arbitration
    }

    /// Total packets currently buffered between quads. Non-zero means
    /// the device is live: drain loops must keep clocking and the
    /// fast-forward horizon must collapse to zero.
    pub fn occupancy(&self) -> usize {
        self.buffers.iter().map(|b| b.len()).sum()
    }

    /// Total segment slots: the bound on [`NocState::occupancy`].
    pub fn capacity(&self) -> usize {
        self.buffers.len() * self.buffer_depth
    }

    /// Drop all in-flight packets and bookkeeping (device reset).
    pub fn clear(&mut self) {
        for b in &mut self.buffers {
            b.clear();
        }
        for r in &mut self.rr_next {
            *r = 0;
        }
        self.events.clear();
    }

    /// Whether quad `q`'s segment buffer for `class` traffic can accept
    /// another injection.
    pub fn has_room(&self, quad: QuadId, class: NocClass) -> bool {
        self.buffers[class.index() * self.num_quads + quad as usize].len() < self.buffer_depth
    }

    /// Inject a packet at `quad` bound for `dest`, onto the plane of
    /// `dest`'s traffic class. The caller must have checked
    /// [`NocState::has_room`]; the packet may first move at the next
    /// clock edge (`moved_at = clock`).
    pub fn inject(&mut self, quad: QuadId, dest: NocDest, entry: QueueEntry, clock: Cycle) {
        debug_assert!(
            self.has_room(quad, dest.class()),
            "caller checks has_room before inject"
        );
        debug_assert_ne!(dest.quad(), quad, "local traffic bypasses the NoC");
        self.buffers[dest.class().index() * self.num_quads + quad as usize].push_back(Some(
            NocEntry {
                entry,
                dest,
                moved_at: clock,
            },
        ));
    }

    /// Hand over the trace events staged by [`NocState::advance`], oldest
    /// first, in one pass (the staging buffer keeps its capacity).
    pub fn drain_events(&mut self) -> impl Iterator<Item = NocEvent> + '_ {
        self.events.drain(..)
    }

    /// Iterate over every buffered packet (invariant sweeps).
    pub fn entries(&self) -> impl Iterator<Item = &NocEntry> {
        self.buffers.iter().flat_map(|b| b.iter().map(live))
    }

    /// Run one NoC sub-cycle. For each virtual-channel plane (requests,
    /// then responses) and each quad segment in index order, move up to
    /// `quad_drain` packets one step — forwarding to the next segment
    /// on their route, or delivering packets that have reached their
    /// destination quad through `deliver_vault` / `deliver_link` (each
    /// returns the packet back on a full target queue). Each plane has
    /// its own drain budget per quad, modelling separate physical
    /// channels.
    ///
    /// Per-destination FIFO order is enforced: a packet may move only if
    /// no earlier-positioned packet with the same destination is still
    /// in its buffer. With deterministic routing this preserves global
    /// per-stream order regardless of arbitration policy. The check is a
    /// table lookup (`index_destinations`), so one buffer's
    /// scan is linear in its occupancy.
    ///
    /// If a plane's pass moves nothing while packets sit stalled on
    /// full segment buffers, the cycle-rotation escape runs (see the
    /// module docs) so a plane full of through-traffic can never wedge.
    ///
    /// `record_hops` / `record_stalls` gate event staging so disabled
    /// tracers pay nothing; counter deltas are always returned.
    pub fn advance<FV, FL>(
        &mut self,
        clock: Cycle,
        mut deliver_vault: FV,
        mut deliver_link: FL,
        record_hops: bool,
        record_stalls: bool,
    ) -> NocDelta
    where
        FV: FnMut(VaultId, QueueEntry) -> Result<(), QueueEntry>,
        FL: FnMut(LinkId, QueueEntry) -> Result<(), QueueEntry>,
    {
        let mut delta = NocDelta::default();
        let num_quads = self.num_quads;
        for class in NocClass::ALL {
            let base = class.index() * num_quads;
            let mut plane_moves = 0u64;
            let mut plane_fwd_stalls = 0u64;
            for q in 0..num_quads {
                let bi = base + q;
                let len = self.buffers[bi].len();
                if len == 0 {
                    continue;
                }
                self.build_scan_order(bi, len, q as QuadId);
                self.index_destinations(bi);
                let order = std::mem::take(&mut self.scratch_order);
                self.scratch_vacated.clear();
                let mut budget = self.quad_drain;
                for &iu in order.iter() {
                    let i = iu as usize;
                    let (dest, moved_at, tag) = {
                        let e = live(&self.buffers[bi][i]);
                        (e.dest, e.moved_at, e.entry.packet.tag())
                    };
                    // One segment per cycle: skip packets that hopped
                    // into this buffer during this very advance call
                    // (or were injected this cycle).
                    if moved_at >= clock {
                        continue;
                    }
                    // Per-destination FIFO: an earlier same-destination
                    // packet still present holds this one in place.
                    let key = dest.order_key(self.num_vaults) as usize;
                    if self.first[key] != iu {
                        continue;
                    }
                    if budget == 0 {
                        delta.arb_losses += 1;
                        continue;
                    }
                    let dest_quad = dest.quad();
                    if dest_quad == q as QuadId {
                        // Arrived: deliver into the vault request queue
                        // or the egress crossbar response queue.
                        let mut e = self.buffers[bi][i]
                            .take()
                            .expect("live slot read above")
                            .entry;
                        let arrived = std::mem::replace(&mut e.arrival_cycle, clock);
                        let res = match dest {
                            NocDest::ToVault(v) => deliver_vault(v, e),
                            NocDest::ToLink(l) => deliver_link(l, e),
                        };
                        if let Err(mut refused) = res {
                            // Refused: the packet stays exactly as it was.
                            refused.arrival_cycle = arrived;
                            self.buffers[bi][i] = Some(NocEntry {
                                entry: refused,
                                dest,
                                moved_at,
                            });
                            delta.stalls += 1;
                            if record_stalls {
                                self.events.push(NocEvent::Stall {
                                    quad: q as QuadId,
                                    tag,
                                });
                            }
                            continue;
                        }
                    } else {
                        let next = self.topology.next_hop(q as QuadId, dest_quad) as usize;
                        debug_assert_ne!(next, q, "next_hop must make progress");
                        if self.buffers[base + next].len() >= self.buffer_depth {
                            delta.stalls += 1;
                            plane_fwd_stalls += 1;
                            if record_stalls {
                                self.events.push(NocEvent::Stall {
                                    quad: q as QuadId,
                                    tag,
                                });
                            }
                            continue;
                        }
                        let mut e = self.buffers[bi][i].take().expect("live slot read above");
                        e.moved_at = clock;
                        self.buffers[base + next].push_back(Some(e));
                        delta.hops += 1;
                        if record_hops {
                            self.events.push(NocEvent::Hop {
                                from_quad: q as QuadId,
                                to_quad: next as QuadId,
                                tag,
                            });
                        }
                    }
                    // The packet left: its successor for the same
                    // destination (necessarily still here — it was held
                    // until now) becomes the earliest.
                    self.first[key] = self.next_same[i];
                    self.scratch_vacated.push(iu);
                    budget -= 1;
                    plane_moves += 1;
                }
                if let Some(&w) = self.scratch_vacated.last() {
                    self.rr_next[bi] = (w as usize + 1) % len;
                    // Squeeze out the vacated slots, highest index first
                    // so earlier removals do not shift later ones, so
                    // subsequent quads see true occupancy when forwarding
                    // into this buffer. Winners are few and mostly near
                    // the head, where a removal shifts next to nothing.
                    self.scratch_vacated.sort_unstable();
                    for &iu in self.scratch_vacated.iter().rev() {
                        self.buffers[bi].remove(iu as usize);
                    }
                }
                self.scratch_order = order;
            }
            if plane_moves == 0 && plane_fwd_stalls > 0 {
                delta.hops += self.rotate(class, clock, record_hops);
            }
        }
        delta
    }

    /// Build the per-destination order tables for buffer `bi` in one
    /// reverse pass: `first[key]` is the earliest index bound for the
    /// destination with order key `key`, `next_same[i]` the next index
    /// after `i` with `i`'s destination. A packet at `i` is FIFO-held
    /// iff `first[key] != i`; when it leaves, `first[key]` advances to
    /// `next_same[i]`.
    fn index_destinations(&mut self, bi: usize) {
        let buf = &self.buffers[bi];
        self.first.fill(NO_INDEX);
        self.next_same.clear();
        self.next_same.resize(buf.len(), NO_INDEX);
        for (i, slot) in buf.iter().enumerate().rev() {
            let key = live(slot).dest.order_key(self.num_vaults) as usize;
            self.next_same[i] = self.first[key];
            self.first[key] = i as u32;
        }
    }

    /// Deadlock escape for one virtual-channel plane (see the module
    /// docs): when an entire advance pass moved nothing in the plane
    /// yet packets were stalled on full segment buffers, every chain of
    /// full-buffer waits over the finitely many quads either reaches a
    /// buffer whose movable packets all wait on delivery queues (engine
    /// backpressure, resolved outside the fabric) or closes on itself.
    /// Each closed cycle found is rotated one step: every member packet
    /// simultaneously takes the slot its successor vacates, so no
    /// buffer ever exceeds `buffer_depth`. Returns the hops taken.
    fn rotate(&mut self, class: NocClass, clock: Cycle, record_hops: bool) -> u64 {
        let nq = self.num_quads;
        let base = class.index() * nq;
        let RotateScratch {
            mut cand,
            mut state,
            mut path,
            mut moving,
        } = std::mem::take(&mut self.rotate_scratch);
        // The packet each quad would move if its next segment had room:
        // the first (index order) entry that is aged, not FIFO-held,
        // and not yet at its destination quad. In a zero-move pass such
        // an entry is necessarily stalled on a full next buffer.
        cand.clear();
        cand.resize(nq, None);
        for (q, slot) in cand.iter_mut().enumerate() {
            self.index_destinations(base + q);
            for (i, e) in self.buffers[base + q].iter().map(live).enumerate() {
                if e.moved_at >= clock {
                    continue;
                }
                let dest_quad = e.dest.quad();
                if dest_quad == q as QuadId {
                    continue;
                }
                if self.first[e.dest.order_key(self.num_vaults) as usize] != i as u32 {
                    continue;
                }
                let next = self.topology.next_hop(q as QuadId, dest_quad);
                if self.buffers[base + next as usize].len() >= self.buffer_depth {
                    *slot = Some((i, next));
                }
                break;
            }
        }
        // Walk the wait-for edges quad → next(candidate) to find
        // cycles; rotate each disjoint cycle found once.
        let mut hops = 0u64;
        state.clear();
        state.resize(nq, 0u8);
        for start in 0..nq {
            if state[start] != 0 {
                continue;
            }
            path.clear();
            let mut q = start;
            let cycle_head = loop {
                if state[q] == 1 {
                    break Some(q);
                }
                if state[q] == 2 || cand[q].is_none() {
                    break None;
                }
                state[q] = 1;
                path.push(q);
                q = cand[q].expect("checked above").1 as usize;
            };
            if let Some(head) = cycle_head {
                let pos = path.iter().position(|&p| p == head).expect("head is on path");
                for &p in &path[pos..] {
                    let (i, next) = cand[p].expect("cycle members have candidates");
                    let mut e = self.buffers[base + p]
                        .remove(i)
                        .flatten()
                        .expect("candidate index valid");
                    e.moved_at = clock;
                    moving.push((p, next, e));
                }
                for (p, next, e) in moving.drain(..) {
                    let tag = e.entry.packet.tag();
                    self.buffers[base + next as usize].push_back(Some(e));
                    hops += 1;
                    if record_hops {
                        self.events.push(NocEvent::Hop {
                            from_quad: p as QuadId,
                            to_quad: next,
                            tag,
                        });
                    }
                }
            }
            for &p in &path {
                state[p] = 2;
            }
            if state[q] == 0 {
                state[q] = 2;
            }
        }
        self.rotate_scratch = RotateScratch {
            cand,
            state,
            path,
            moving,
        };
        hops
    }

    /// Fill `scratch_order` with the indices of buffer `bi` (quad
    /// `quad`'s segment on one plane) in the order the arbitration
    /// policy scans them.
    fn build_scan_order(&mut self, bi: usize, len: usize, quad: QuadId) {
        self.scratch_order.clear();
        match self.arbitration {
            ArbitrationKind::RoundRobin => {
                let start = (self.rr_next[bi] % len) as u32;
                self.scratch_order.extend(start..len as u32);
                self.scratch_order.extend(0..start);
            }
            ArbitrationKind::OldestFirst => {
                self.scratch_order.extend(0..len as u32);
                let buf = &self.buffers[bi];
                self.scratch_order
                    .sort_unstable_by_key(|&i| (live(&buf[i as usize]).entry.entry_cycle, i));
            }
            ArbitrationKind::LocalityAware => {
                let buf = &self.buffers[bi];
                let local = |i: &u32| live(&buf[*i as usize]).dest.quad() == quad;
                self.scratch_order.extend((0..len as u32).filter(local));
                self.scratch_order
                    .extend((0..len as u32).filter(|i| !local(i)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routes_are_minimal_and_loop_free() {
        for quads in [1u8, 2, 4, 8] {
            let ring = RingTopology::new(quads);
            for from in 0..quads {
                for dest in 0..quads {
                    if from == dest {
                        assert_eq!(ring.hops(from, dest), 0);
                        continue;
                    }
                    let mut cur = from;
                    let mut steps = 0u32;
                    while cur != dest {
                        cur = ring.next_hop(cur, dest);
                        steps += 1;
                        assert!(steps <= quads as u32, "ring path loops");
                    }
                    assert_eq!(steps, ring.hops(from, dest));
                }
            }
        }
    }

    #[test]
    fn mesh_routes_are_minimal_and_loop_free() {
        for quads in [1u8, 2, 4, 6, 8] {
            let mesh = MeshTopology::for_quads(quads);
            assert_eq!(mesh.num_quads(), quads);
            for from in 0..quads {
                for dest in 0..quads {
                    if from == dest {
                        assert_eq!(mesh.hops(from, dest), 0);
                        continue;
                    }
                    let mut cur = from;
                    let mut steps = 0u32;
                    while cur != dest {
                        cur = mesh.next_hop(cur, dest);
                        steps += 1;
                        assert!(steps <= quads as u32, "mesh path loops");
                    }
                    assert_eq!(steps, mesh.hops(from, dest));
                }
            }
        }
    }

    #[test]
    fn mesh_geometry_prefers_two_rows() {
        assert_eq!(MeshTopology::for_quads(4), MeshTopology::new(2, 2));
        assert_eq!(MeshTopology::for_quads(8), MeshTopology::new(2, 4));
        assert_eq!(MeshTopology::for_quads(2), MeshTopology::new(1, 2));
        assert_eq!(MeshTopology::for_quads(3), MeshTopology::new(1, 3));
    }

    #[test]
    fn crossbar_params_build_no_state() {
        assert!(NocState::new(&NocParams::default(), 4, 16).is_none());
        assert!(NocState::new(&NocParams::of(InterconnectKind::Ring), 4, 16).is_some());
        assert!(NocState::new(&NocParams::of(InterconnectKind::Mesh), 4, 16).is_some());
    }

    fn test_entry(tag: u16) -> QueueEntry {
        use hmc_types::{Command, Packet};
        let p =
            Packet::request(Command::Rd(hmc_types::BlockSize::B32), 0, 0, tag, 0, &[]).unwrap();
        QueueEntry::new(p, 9, 0, 0)
    }

    #[test]
    fn ring_packet_hops_toward_its_quad_and_delivers() {
        let params = NocParams::of(InterconnectKind::Ring);
        let mut noc = NocState::new(&params, 4, 16).unwrap();
        // Vault 12 lives in quad 3; inject at quad 0 => three hops.
        assert!(noc.has_room(0, NocClass::Request));
        noc.inject(0, NocDest::ToVault(12), test_entry(7), 0);
        assert_eq!(noc.occupancy(), 1);

        let mut delivered = Vec::new();
        let mut hops = 0u64;
        for clock in 1..=4u64 {
            let d = noc.advance(
                clock,
                |v, e| {
                    delivered.push((v, e.packet.tag()));
                    Ok(())
                },
                |_, _| panic!("no responses in this test"),
                true,
                true,
            );
            hops += d.hops;
            assert_eq!(d.stalls, 0);
            assert_eq!(d.arb_losses, 0);
        }
        assert_eq!(hops, 3);
        assert_eq!(delivered, vec![(12u16, 7u16)]);
        assert_eq!(noc.occupancy(), 0);
        // Three hop events were staged (plus none for the delivery).
        let hop_events = noc
            .drain_events()
            .filter(|ev| matches!(ev, NocEvent::Hop { .. }))
            .count();
        assert_eq!(hop_events, 3);
    }

    #[test]
    fn full_delivery_queue_stalls_packet_in_place() {
        let params = NocParams::of(InterconnectKind::Ring);
        let mut noc = NocState::new(&params, 4, 16).unwrap();
        // Quad 1 is one hop from quad 0.
        noc.inject(0, NocDest::ToVault(4), test_entry(1), 0);
        let d = noc.advance(1, |_, _| Ok(()), |_, _| unreachable!(), false, false);
        assert_eq!(d.hops, 1);
        assert_eq!(noc.occupancy(), 1);
        // Delivery refused: the packet stays buffered at its quad.
        let mut refused = |_: VaultId, e: QueueEntry| -> Result<(), QueueEntry> { Err(e) };
        let d = noc.advance(2, &mut refused, |_, _| unreachable!(), false, false);
        assert_eq!(d.stalls, 1);
        assert_eq!(noc.occupancy(), 1);
        // Accept it now.
        let d = noc.advance(3, |_, _| Ok(()), |_, _| unreachable!(), false, false);
        assert_eq!(d.stalls, 0);
        assert_eq!(noc.occupancy(), 0);
        let _ = d;
    }

    #[test]
    fn same_destination_packets_never_reorder() {
        // Two packets to the same vault injected in order must deliver
        // in order under every arbitration policy.
        for arb in ArbitrationKind::ALL {
            let params = NocParams::of(InterconnectKind::Ring).with_arbitration(arb);
            let mut noc = NocState::new(&params, 4, 16).unwrap();
            noc.inject(0, NocDest::ToVault(8), test_entry(1), 0);
            noc.inject(0, NocDest::ToVault(8), test_entry(2), 0);
            let mut delivered = Vec::new();
            for clock in 1..=8u64 {
                noc.advance(
                    clock,
                    |_, e| {
                        delivered.push(e.packet.tag());
                        Ok(())
                    },
                    |_, _| unreachable!(),
                    false,
                    false,
                );
            }
            assert_eq!(delivered, vec![1, 2], "{} reordered", arb.name());
        }
    }

    #[test]
    fn drain_budget_counts_arbitration_losses() {
        let mut params = NocParams::of(InterconnectKind::Ring);
        params.quad_drain = 1;
        let mut noc = NocState::new(&params, 4, 16).unwrap();
        // Three packets to three different vaults in quad 1: one moves,
        // two lose arbitration.
        noc.inject(0, NocDest::ToVault(4), test_entry(1), 0);
        noc.inject(0, NocDest::ToVault(5), test_entry(2), 0);
        noc.inject(0, NocDest::ToVault(6), test_entry(3), 0);
        let d = noc.advance(1, |_, _| unreachable!(), |_, _| unreachable!(), false, false);
        assert_eq!(d.hops, 1);
        assert_eq!(d.arb_losses, 2);
    }

    #[test]
    fn full_segment_buffer_refuses_injection() {
        let mut params = NocParams::of(InterconnectKind::Ring);
        params.buffer_depth = 2;
        let mut noc = NocState::new(&params, 4, 16).unwrap();
        noc.inject(0, NocDest::ToVault(4), test_entry(1), 0);
        noc.inject(0, NocDest::ToVault(5), test_entry(2), 0);
        assert!(!noc.has_room(0, NocClass::Request));
        assert!(noc.has_room(1, NocClass::Request));
        // The response plane is a separate virtual channel: a request
        // plane packed to the brim never blocks response injection.
        assert!(noc.has_room(0, NocClass::Response));
    }

    #[test]
    fn responses_bypass_a_congested_request_plane() {
        let mut params = NocParams::of(InterconnectKind::Ring);
        params.buffer_depth = 2;
        let mut noc = NocState::new(&params, 4, 16).unwrap();
        // Fill quad 0's request plane with packets whose deliveries
        // will be refused (vault queues "full"), then inject a response
        // at the same quad: it must still route and deliver.
        noc.inject(0, NocDest::ToVault(4), test_entry(1), 0);
        noc.inject(0, NocDest::ToVault(5), test_entry(2), 0);
        noc.inject(0, NocDest::ToLink(2), test_entry(9), 0);
        let mut delivered = Vec::new();
        for clock in 1..=4u64 {
            noc.advance(
                clock,
                |_, e| Err(e), // vaults refuse everything
                |l, e| {
                    delivered.push((l, e.packet.tag()));
                    Ok(())
                },
                false,
                false,
            );
        }
        assert_eq!(delivered, vec![(2u8, 9u16)]);
    }

    #[test]
    fn full_ring_of_through_traffic_rotates_and_drains() {
        // Every request-plane buffer completely full of cross-quad
        // traffic: no segment has room, so without the rotation escape
        // the ring would wedge forever. With it, the cycle rotates one
        // step per stuck cycle and everything eventually delivers.
        for arb in ArbitrationKind::ALL {
            let mut params = NocParams::of(InterconnectKind::Ring).with_arbitration(arb);
            params.buffer_depth = 2;
            let mut noc = NocState::new(&params, 4, 16).unwrap();
            let mut tag = 0u16;
            for q in 0..4u8 {
                for k in 0..2u16 {
                    // Dest quads q+2 and q+3: all traffic is cross-quad.
                    let dq = (q + 2 + k as u8 % 2) % 4;
                    noc.inject(q, NocDest::ToVault(VaultId::from(dq) * 4), test_entry(tag), 0);
                    tag += 1;
                }
            }
            assert_eq!(noc.occupancy(), 8);
            let mut delivered = 0;
            for clock in 1..=64u64 {
                noc.advance(
                    clock,
                    |_, _| {
                        delivered += 1;
                        Ok(())
                    },
                    |_, _| unreachable!("request-plane only"),
                    false,
                    false,
                );
            }
            assert_eq!(delivered, 8, "{} wedged", arb.name());
            assert_eq!(noc.occupancy(), 0);
        }
    }

    #[test]
    fn opposed_mesh_streams_rotate_through_full_buffers() {
        // 2x4 mesh: quads 1 and 2 (interior, row 0) each full of
        // through-traffic headed the opposite way — the bidirectional
        // wedge a shared per-node buffer admits. Rotation exchanges the
        // two heads so both streams keep moving.
        let mut params = NocParams::of(InterconnectKind::Mesh);
        params.buffer_depth = 2;
        let mut noc = NocState::new(&params, 8, 32).unwrap();
        // Quad 1 wants quad 3 (east, via 2); quad 2 wants quad 0 (west, via 1).
        noc.inject(1, NocDest::ToVault(12), test_entry(1), 0);
        noc.inject(1, NocDest::ToVault(13), test_entry(2), 0);
        noc.inject(2, NocDest::ToVault(0), test_entry(3), 0);
        noc.inject(2, NocDest::ToVault(1), test_entry(4), 0);
        let mut delivered = 0;
        for clock in 1..=16u64 {
            noc.advance(
                clock,
                |_, _| {
                    delivered += 1;
                    Ok(())
                },
                |_, _| unreachable!(),
                false,
                false,
            );
        }
        assert_eq!(delivered, 4, "opposed streams wedged");
        assert_eq!(noc.occupancy(), 0);
    }

    #[test]
    fn clear_empties_all_buffers() {
        let params = NocParams::of(InterconnectKind::Mesh);
        let mut noc = NocState::new(&params, 4, 16).unwrap();
        noc.inject(0, NocDest::ToVault(12), test_entry(1), 0);
        noc.inject(2, NocDest::ToLink(1), test_entry(2), 0);
        assert_eq!(noc.occupancy(), 2);
        assert_eq!(noc.entries().count(), 2);
        noc.clear();
        assert_eq!(noc.occupancy(), 0);
    }

    #[test]
    fn locality_aware_prefers_local_deliveries() {
        // 2x2 mesh, drain 1. Quad 1 receives a through-packet from quad
        // 0 (bound for quad 3 via XY) and a local delivery from quad 3
        // in the same cycle; locality-aware spends the budget on the
        // local one, the through-packet loses arbitration.
        let mut params = NocParams::of(InterconnectKind::Mesh)
            .with_arbitration(ArbitrationKind::LocalityAware);
        params.quad_drain = 1;
        let mut noc = NocState::new(&params, 4, 16).unwrap();
        noc.inject(0, NocDest::ToVault(13), test_entry(1), 0); // quad 3, via quad 1
        noc.inject(3, NocDest::ToVault(4), test_entry(2), 0); // quad 1, via quad 1
        let d = noc.advance(1, |_, _| unreachable!(), |_, _| unreachable!(), false, false);
        assert_eq!(d.hops, 2, "both packets hop into quad 1");
        let mut delivered = Vec::new();
        let d = noc.advance(
            2,
            |_, e| {
                delivered.push(e.packet.tag());
                Ok(())
            },
            |_, _| unreachable!(),
            false,
            false,
        );
        assert_eq!(delivered, vec![2], "local delivery should win the budget");
        assert_eq!(d.arb_losses, 1, "the through-packet lost arbitration");
    }

    // ---- differential check against the pre-table advance pass ----

    impl NocState {
        /// The advance pass as it stood before the per-destination order
        /// tables: the FIFO hold is the quadratic "any earlier entry,
        /// not yet moved, with my destination" predicate, winners are
        /// cloned out and their originals removed afterwards, and the
        /// rotation escape allocates as it goes.
        fn advance_reference<FV, FL>(
            &mut self,
            clock: Cycle,
            mut deliver_vault: FV,
            mut deliver_link: FL,
        ) -> NocDelta
        where
            FV: FnMut(VaultId, QueueEntry) -> Result<(), QueueEntry>,
            FL: FnMut(LinkId, QueueEntry) -> Result<(), QueueEntry>,
        {
            let mut delta = NocDelta::default();
            let nv = self.num_vaults;
            for class in NocClass::ALL {
                let base = class.index() * self.num_quads;
                let mut plane_moves = 0u64;
                let mut plane_fwd_stalls = 0u64;
                for q in 0..self.num_quads {
                    let bi = base + q;
                    let len = self.buffers[bi].len();
                    if len == 0 {
                        continue;
                    }
                    self.build_scan_order(bi, len, q as QuadId);
                    let order = self.scratch_order.clone();
                    let mut moved: Vec<u32> = Vec::new();
                    let mut budget = self.quad_drain;
                    let mut last_winner = None;
                    for &iu in &order {
                        let i = iu as usize;
                        let e = live(&self.buffers[bi][i]).clone();
                        let tag = e.entry.packet.tag();
                        if e.moved_at >= clock {
                            continue;
                        }
                        let key = e.dest.order_key(nv);
                        let held = (0..i).any(|j| {
                            !moved.contains(&(j as u32))
                                && live(&self.buffers[bi][j]).dest.order_key(nv) == key
                        });
                        if held {
                            continue;
                        }
                        if budget == 0 {
                            delta.arb_losses += 1;
                            continue;
                        }
                        let dest_quad = e.dest.quad();
                        if dest_quad == q as QuadId {
                            let mut out = e.entry;
                            out.arrival_cycle = clock;
                            let res = match e.dest {
                                NocDest::ToVault(v) => deliver_vault(v, out),
                                NocDest::ToLink(l) => deliver_link(l, out),
                            };
                            if res.is_err() {
                                delta.stalls += 1;
                                self.events.push(NocEvent::Stall {
                                    quad: q as QuadId,
                                    tag,
                                });
                                continue;
                            }
                        } else {
                            let next = self.topology.next_hop(q as QuadId, dest_quad) as usize;
                            if self.buffers[base + next].len() >= self.buffer_depth {
                                delta.stalls += 1;
                                plane_fwd_stalls += 1;
                                self.events.push(NocEvent::Stall {
                                    quad: q as QuadId,
                                    tag,
                                });
                                continue;
                            }
                            self.buffers[base + next].push_back(Some(NocEntry {
                                moved_at: clock,
                                ..e
                            }));
                            delta.hops += 1;
                            self.events.push(NocEvent::Hop {
                                from_quad: q as QuadId,
                                to_quad: next as QuadId,
                                tag,
                            });
                        }
                        budget -= 1;
                        moved.push(iu);
                        last_winner = Some(iu);
                        plane_moves += 1;
                    }
                    moved.sort_unstable();
                    for &iu in moved.iter().rev() {
                        self.buffers[bi].remove(iu as usize);
                    }
                    if let Some(w) = last_winner {
                        self.rr_next[bi] = (w as usize + 1) % len;
                    }
                }
                if plane_moves == 0 && plane_fwd_stalls > 0 {
                    delta.hops += self.rotate_reference(class, clock);
                }
            }
            delta
        }

        fn rotate_reference(&mut self, class: NocClass, clock: Cycle) -> u64 {
            let nq = self.num_quads;
            let nv = self.num_vaults;
            let base = class.index() * nq;
            let mut cand: Vec<Option<(usize, QuadId)>> = vec![None; nq];
            for (q, slot) in cand.iter_mut().enumerate() {
                let b = &self.buffers[base + q];
                for i in 0..b.len() {
                    let e = live(&b[i]);
                    if e.moved_at >= clock || e.dest.quad() == q as QuadId {
                        continue;
                    }
                    let key = e.dest.order_key(nv);
                    if (0..i).any(|j| live(&b[j]).dest.order_key(nv) == key) {
                        continue;
                    }
                    let next = self.topology.next_hop(q as QuadId, e.dest.quad());
                    if self.buffers[base + next as usize].len() >= self.buffer_depth {
                        *slot = Some((i, next));
                    }
                    break;
                }
            }
            let mut hops = 0u64;
            let mut state = vec![0u8; nq];
            for start in 0..nq {
                if state[start] != 0 {
                    continue;
                }
                let mut path: Vec<usize> = Vec::new();
                let mut q = start;
                let cycle_head = loop {
                    if state[q] == 1 {
                        break Some(q);
                    }
                    if state[q] == 2 || cand[q].is_none() {
                        break None;
                    }
                    state[q] = 1;
                    path.push(q);
                    q = cand[q].unwrap().1 as usize;
                };
                if let Some(head) = cycle_head {
                    let pos = path.iter().position(|&p| p == head).unwrap();
                    let mut moving = Vec::new();
                    for &p in &path[pos..] {
                        let (i, next) = cand[p].unwrap();
                        let mut e = self.buffers[base + p].remove(i).flatten().unwrap();
                        e.moved_at = clock;
                        moving.push((p, next, e));
                    }
                    for (p, next, e) in moving {
                        self.events.push(NocEvent::Hop {
                            from_quad: p as QuadId,
                            to_quad: next,
                            tag: e.entry.packet.tag(),
                        });
                        self.buffers[base + next as usize].push_back(Some(e));
                        hops += 1;
                    }
                }
                for &p in &path {
                    state[p] = 2;
                }
                if state[q] == 0 {
                    state[q] = 2;
                }
            }
            hops
        }

        /// `(tag, moved_at)` of every slot of every buffer, plus the
        /// round-robin origins: everything `advance` may change.
        fn snapshot(&self) -> (Vec<Vec<(u16, Cycle)>>, Vec<usize>) {
            let buffers = self
                .buffers
                .iter()
                .map(|b| {
                    b.iter()
                        .map(|s| (live(s).entry.packet.tag(), live(s).moved_at))
                        .collect()
                })
                .collect();
            (buffers, self.rr_next.clone())
        }
    }

    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }
    }

    /// Fill every buffer of both planes of a fresh fabric to a random
    /// level (often full) with cross-quad packets of random age.
    fn random_fabric(params: &NocParams, quads: u8, seed: u64) -> NocState {
        let mut rng = Lcg(seed);
        let num_vaults = quads as u16 * 4;
        let mut noc = NocState::new(params, quads, num_vaults).unwrap();
        let mut tag = 0u16;
        for q in 0..quads {
            for response in [false, true] {
                let fill = rng.below(params.buffer_depth as u64 + 2).min(params.buffer_depth as u64);
                for _ in 0..fill {
                    let dest_quad = (q + 1 + rng.below(quads as u64 - 1) as u8) % quads;
                    let dest = if response {
                        NocDest::ToLink(dest_quad)
                    } else {
                        // Few distinct vaults per quad, so same-destination
                        // runs (the FIFO hold) are common.
                        NocDest::ToVault(dest_quad as u16 * 4 + rng.below(2) as u16)
                    };
                    let mut e = test_entry(tag);
                    e.entry_cycle = rng.below(4);
                    noc.inject(q, dest, e, 0);
                    tag += 1;
                }
            }
        }
        noc
    }

    /// A delivery queue for the differential test: logs what it accepts.
    /// Mode 0 accepts everything, 1 refuses everything, 2 refuses a
    /// destination- and clock-dependent third. Links log as 100 + id.
    struct Sink {
        mode: u64,
        clock: Cycle,
        log: std::cell::RefCell<Vec<(u16, u16, Cycle)>>,
    }

    impl Sink {
        fn offer(&self, dest: u16, e: QueueEntry) -> Result<(), QueueEntry> {
            let refuse = match self.mode {
                0 => false,
                1 => true,
                _ => (dest as u64 + self.clock).is_multiple_of(3),
            };
            if refuse {
                return Err(e);
            }
            self.log
                .borrow_mut()
                .push((dest, e.packet.tag(), e.arrival_cycle));
            Ok(())
        }
    }

    #[test]
    fn table_driven_advance_matches_the_quadratic_reference() {
        for kind in [InterconnectKind::Ring, InterconnectKind::Mesh] {
            for arb in ArbitrationKind::ALL {
                for (quads, depth, drain) in [(4u8, 3u16, 1u16), (4, 6, 4), (8, 2, 2)] {
                    for mode in 0..3u64 {
                        for seed in 0..12u64 {
                            let mut params = NocParams::of(kind).with_arbitration(arb);
                            params.buffer_depth = depth;
                            params.quad_drain = drain;
                            let mut new = random_fabric(&params, quads, seed);
                            let mut old = random_fabric(&params, quads, seed);
                            assert_eq!(new.snapshot(), old.snapshot());
                            for clock in 1..=10u64 {
                                let sink = |mode| Sink {
                                    mode,
                                    clock,
                                    log: Default::default(),
                                };
                                let (got, want) = (sink(mode), sink(mode));
                                let d_new = new.advance(
                                    clock,
                                    |v, e| got.offer(v, e),
                                    |l, e| got.offer(100 + l as u16, e),
                                    true,
                                    true,
                                );
                                let d_old = old.advance_reference(
                                    clock,
                                    |v, e| want.offer(v, e),
                                    |l, e| want.offer(100 + l as u16, e),
                                );
                                let ctx = format!(
                                    "{kind:?}/{} quads {quads} depth {depth} drain {drain} \
                                     mode {mode} seed {seed} clock {clock}",
                                    arb.name()
                                );
                                assert_eq!(got.log, want.log, "delivered order: {ctx}");
                                assert_eq!(d_new, d_old, "delta: {ctx}");
                                assert!(
                                    new.drain_events().eq(old.drain_events()),
                                    "event list: {ctx}"
                                );
                                assert_eq!(new.snapshot(), old.snapshot(), "buffers: {ctx}");
                            }
                        }
                    }
                }
            }
        }
    }
}
