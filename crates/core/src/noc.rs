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

use hmc_types::{ArbitrationKind, Cycle, InterconnectKind, LinkId, QuadId, VaultId};

use crate::quad::Quad;
use crate::queue::{PacketQueue, QueueEntry, SlotWord};

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

    /// The destination's *key*, a dense small index for per-destination
    /// bookkeeping: vaults first, then links after `num_vaults`.
    fn key(self, num_vaults: u16) -> u16 {
        match self {
            NocDest::ToVault(v) => v,
            NocDest::ToLink(l) => num_vaults + l as u16,
        }
    }

    /// The destination with key `key` (see [`NocDest::key`]).
    fn of_key(key: u16, num_vaults: u16) -> NocDest {
        match key.checked_sub(num_vaults) {
            None => NocDest::ToVault(key),
            Some(l) => NocDest::ToLink(l as LinkId),
        }
    }
}

/// Where [`NocState::advance`] delivers arrived packets: the device's
/// vault request queues and egress crossbar response queues. One object
/// answers both questions, so the probe and the delivery cannot disagree.
pub trait NocSink {
    /// True while `dest`'s queue cannot take another packet.
    fn full(&self, dest: NocDest) -> bool;

    /// Hand `entry` to `dest`'s queue. Called only when
    /// [`NocSink::full`] has just said there is room.
    fn deliver(&mut self, dest: NocDest, entry: QueueEntry);
}

/// What a scan reads of a buffered packet, kept as its slot's word so
/// that a packet the scan passes over costs no read of its entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotMeta {
    /// The packet's destination key ([`NocDest::key`]).
    key: u16,
    /// Clock of the last segment move (or injection): a packet whose
    /// `moved_at` equals the current clock already took its hop this
    /// cycle and waits for the next edge — the NoC's copy of the
    /// engine's one-stage-per-sub-cycle rule.
    moved_at: Cycle,
}

impl SlotWord for SlotMeta {
    type Census = ();
}

// A segment's queue keeps no census, and is no larger for the queues
// that do.
const _: () =
    assert!(std::mem::size_of::<PacketQueue<SlotMeta>>() == std::mem::size_of::<PacketQueue<()>>());

/// What one buffer's scan found when it moved nothing: every packet it
/// could have moved was refused by a full target. While the buffer holds
/// the same packets and every such target is still full, a scan would
/// find exactly this again, so [`NocState::advance`] replays it instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ScanMemo {
    /// Packets refused by a full target.
    stalls: u32,
    /// Of those, the ones refused by a full next segment (they feed the
    /// rotation trigger).
    fwd_stalls: u32,
    /// Quads whose segment on this plane refused a forward, one bit each.
    full_segments: u64,
    /// Destination keys whose delivery queue refused, one bit each.
    full_sinks: u64,
}

/// The set bits of `mask`, lowest first.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (bit < 64).then_some(bit)
    })
}

/// One quad segment buffer on one plane: a bounded FIFO of packets whose
/// slot words are their [`SlotMeta`], the set of slots free to move under
/// per-destination FIFO order, and the memo of its last zero-move scan.
/// Every operation that changes which packets it holds drops the memo and
/// keeps the head set in step.
#[derive(Debug)]
struct Segment {
    /// Every slot holds a packet except while the scan of this buffer is
    /// running: a winner is vacated (not cloned) the moment it hops or
    /// delivers, and the vacated slots are compacted out when the scan
    /// ends.
    slots: PacketQueue<SlotMeta>,
    /// The *heads*: slot `i` is the first packet in the buffer for its
    /// destination key exactly when bit `i % 64` of word `i / 64` is set.
    /// Only a head may move (an earlier packet for the same destination
    /// holds the rest in place). A vacated slot is no head.
    heads: Vec<u64>,
    /// Per destination key, the packets buffered for it (vacated slots
    /// not counted): a push is a head exactly when its key counts none.
    keyed: Vec<u16>,
    memo: Option<ScanMemo>,
}

impl Segment {
    fn with_capacity(depth: usize, num_keys: usize) -> Segment {
        Segment {
            slots: PacketQueue::new(depth),
            heads: vec![0; depth.div_ceil(64)],
            keyed: vec![0; num_keys],
            memo: None,
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn is_head(&self, i: usize) -> bool {
        self.heads[i / 64] >> (i % 64) & 1 != 0
    }

    fn set_head(&mut self, i: usize) {
        self.heads[i / 64] |= 1 << (i % 64);
    }

    /// The first head in `from..end`, reading the head set a word at a
    /// time.
    fn next_head(&self, from: usize, end: usize) -> Option<usize> {
        if from >= end {
            return None;
        }
        let mut w = from / 64;
        let mut word = self.heads[w] & (!0u64 << (from % 64));
        while word == 0 {
            w += 1;
            if w * 64 >= end {
                return None;
            }
            word = self.heads[w];
        }
        let i = w * 64 + word.trailing_zeros() as usize;
        (i < end).then_some(i)
    }

    /// Every head, in index order.
    fn heads(&self) -> impl Iterator<Item = usize> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let i = self.next_head(at, self.len())?;
            at = i + 1;
            Some(i)
        })
    }

    fn push_back(&mut self, meta: SlotMeta, entry: QueueEntry) {
        self.memo = None;
        let key = meta.key as usize;
        if self.keyed[key] == 0 {
            self.set_head(self.len());
        }
        self.keyed[key] += 1;
        self.slots.push_with(entry, meta).expect("room was checked");
    }

    /// Vacate head `i` during this buffer's scan (compacted out after it).
    /// The next slot bound for the same destination becomes its head.
    fn take(&mut self, i: usize) -> QueueEntry {
        debug_assert!(self.is_head(i), "only a head moves");
        self.memo = None;
        self.heads[i / 64] &= !(1 << (i % 64));
        let key = self.slots.word(i).key;
        self.keyed[key as usize] -= 1;
        if self.keyed[key as usize] > 0 {
            // No vacated slot after `i` can carry `key`: it would have
            // moved while `i` held it.
            let next = (i + 1..self.len())
                .find(|&j| self.slots.word(j).key == key)
                .expect("a counted packet is buffered behind the head");
            self.set_head(next);
        }
        self.slots.vacate(i)
    }

    /// Drop the vacated slots, shifting the head bits above each down one.
    fn compact(&mut self) {
        let heads = &mut self.heads;
        self.slots.compact(|i| {
            let below = (1u64 << (i % 64)) - 1;
            for w in i / 64..heads.len() {
                let keep = if w == i / 64 { below } else { 0 };
                let carry = heads.get(w + 1).map_or(0, |next| next << 63);
                heads[w] = heads[w] & keep | (heads[w] >> 1) & !keep | carry;
            }
        });
    }

    /// Lift head `i` out of the buffer (the rotation escape).
    fn lift(&mut self, i: usize) -> (SlotMeta, QueueEntry) {
        let (meta, entry) = (self.slots.word(i), self.take(i));
        self.compact();
        (meta, entry)
    }

    fn clear(&mut self) {
        self.memo = None;
        self.slots.clear();
        self.heads.fill(0);
        self.keyed.fill(0);
    }

    /// The head set and key counts the buffered packets imply, derived
    /// from scratch (outside a scan, when every slot is live).
    fn derive_heads(&self) -> (Vec<u64>, Vec<u16>) {
        let mut heads = vec![0u64; self.heads.len()];
        let mut keyed = vec![0u16; self.keyed.len()];
        for (i, m) in self.slots.words().enumerate() {
            if keyed[m.key as usize] == 0 {
                heads[i / 64] |= 1 << (i % 64);
            }
            keyed[m.key as usize] += 1;
        }
        (heads, keyed)
    }

    /// The packet in slot `i`, outside this buffer's scan.
    fn entry(&self, i: usize) -> &QueueEntry {
        self.slots.get(i).expect("slot in range")
    }
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
    moving: Vec<(usize, QuadId, SlotMeta, QueueEntry)>,
}

/// Where one buffer's scan stands in its arbitration order.
enum Cursor {
    /// Round-robin: the heads in `at..end`, then those in `0..wrap`.
    Ring { at: usize, end: usize, wrap: usize },
    /// Oldest-first and locality-aware: the heads among `scratch_order`
    /// from position `n` on.
    Table { n: usize },
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
    /// Destination keys: `num_vaults` vaults, then one link per quad.
    num_keys: usize,
    /// `route[quad * num_keys + key]`: the quad a packet for `key` moves
    /// to next from `quad` — `quad` itself once it has arrived. The
    /// topology's `next_hop`, tabulated once.
    route: Vec<QuadId>,
    /// One bounded FIFO per quad segment per traffic class, plane-major
    /// (`class.index() * num_quads + quad`), preallocated to
    /// `buffer_depth` so the steady state never allocates.
    segments: Vec<Segment>,
    /// Round-robin scan origin per buffer (pre-compaction index space).
    rr_next: Vec<usize>,
    /// Scratch: oldest-first and locality-aware scan order for one quad
    /// (indices).
    scratch_order: Vec<u32>,
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
        // Keys: vaults, then egress links (link id == quad id).
        let num_keys = num_vaults as usize + nq;
        assert!(num_keys <= 64, "destination keys index the bits of a u64");
        let route = (0..num_quads)
            .flat_map(|q| {
                (0..num_keys as u16).map(move |key| match NocDest::of_key(key, num_vaults).quad() {
                    dest if dest == q => q,
                    dest => topology.next_hop(q, dest),
                })
            })
            .collect();
        Some(NocState {
            topology,
            arbitration: params.arbitration,
            buffer_depth: depth,
            quad_drain: (params.quad_drain as usize).max(1),
            num_vaults,
            num_quads: nq,
            num_keys,
            route,
            segments: (0..2 * nq)
                .map(|_| Segment::with_capacity(depth, num_keys))
                .collect(),
            rr_next: vec![0; 2 * nq],
            scratch_order: Vec::with_capacity(depth),
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
        self.segments.iter().map(Segment::len).sum()
    }

    /// True when no packet is in flight: `occupancy() == 0`, but stops at
    /// the first occupied segment.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.len() == 0)
    }

    /// Total segment slots: the bound on [`NocState::occupancy`].
    pub fn capacity(&self) -> usize {
        self.segments.len() * self.buffer_depth
    }

    /// Drop all in-flight packets and bookkeeping (device reset).
    pub fn clear(&mut self) {
        for s in &mut self.segments {
            s.clear();
        }
        for r in &mut self.rr_next {
            *r = 0;
        }
        self.events.clear();
    }

    /// Whether quad `q`'s segment buffer for `class` traffic can accept
    /// another injection.
    pub fn has_room(&self, quad: QuadId, class: NocClass) -> bool {
        self.segments[class.index() * self.num_quads + quad as usize].len() < self.buffer_depth
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
        let meta = SlotMeta {
            key: dest.key(self.num_vaults),
            moved_at: clock,
        };
        self.segments[dest.class().index() * self.num_quads + quad as usize].push_back(meta, entry);
    }

    /// Hand over the trace events staged by [`NocState::advance`], oldest
    /// first, in one pass (the staging buffer keeps its capacity).
    pub fn drain_events(&mut self) -> impl Iterator<Item = NocEvent> + '_ {
        self.events.drain(..)
    }

    /// Every buffered packet with the segment holding it: its plane and
    /// quad, segment by segment, head first.
    pub fn residents(&self) -> impl Iterator<Item = (NocClass, QuadId, &QueueEntry)> {
        let nq = self.num_quads;
        self.segments.iter().enumerate().flat_map(move |(bi, s)| {
            let (class, quad) = (NocClass::ALL[bi / nq], (bi % nq) as QuadId);
            s.slots.iter().map(move |e| (class, quad, e))
        })
    }

    /// Run one NoC sub-cycle. For each virtual-channel plane (requests,
    /// then responses) and each quad segment in index order, move up to
    /// `quad_drain` packets one step — forwarding to the next segment
    /// on their route, or delivering packets that have reached their
    /// destination quad into `sink`, which is asked first whether the
    /// target queue is full. Each plane has its own drain budget per
    /// quad, modelling separate physical channels.
    ///
    /// Per-destination FIFO order is enforced: a packet may move only if
    /// no earlier-positioned packet with the same destination is still
    /// in its buffer. With deterministic routing this preserves global
    /// per-stream order regardless of arbitration policy. Each buffer
    /// keeps the set of its packets that are first for their destination
    /// (its *heads*) up to date as packets come and go, and the scan
    /// visits those alone: a packet held behind another costs nothing.
    ///
    /// A buffer whose last scan moved nothing is not scanned again while
    /// it holds the same packets and every target that refused them is
    /// still full: that scan's stall counts are replayed instead
    /// (`ScanMemo`; `NocStall` tracing, which names each stalled
    /// packet, always scans).
    ///
    /// If a plane's pass moves nothing while packets sit stalled on
    /// full segment buffers, the cycle-rotation escape runs (see the
    /// module docs) so a plane full of through-traffic can never wedge.
    ///
    /// `record_hops` / `record_stalls` gate event staging so disabled
    /// tracers pay nothing; counter deltas are always returned.
    pub fn advance(
        &mut self,
        clock: Cycle,
        sink: &mut impl NocSink,
        record_hops: bool,
        record_stalls: bool,
    ) -> NocDelta {
        let mut delta = NocDelta::default();
        let num_quads = self.num_quads;
        for class in NocClass::ALL {
            let base = class.index() * num_quads;
            let mut plane_moves = 0u64;
            let mut plane_fwd_stalls = 0u64;
            for q in 0..num_quads {
                let bi = base + q;
                if self.segments[bi].len() == 0 {
                    continue;
                }
                let memo = self.segments[bi].memo;
                if let Some(m) = memo.filter(|m| !record_stalls && self.memo_holds(m, base, sink)) {
                    delta.stalls += m.stalls as u64;
                    plane_fwd_stalls += m.fwd_stalls as u64;
                    continue;
                }
                let (moves, fwd_stalls) =
                    self.scan(bi, clock, sink, &mut delta, record_hops, record_stalls);
                plane_moves += moves;
                plane_fwd_stalls += fwd_stalls;
            }
            if plane_moves == 0 && plane_fwd_stalls > 0 {
                delta.hops += self.rotate(class, clock, record_hops);
            }
        }
        delta
    }

    /// True when every target that refused the scan `m` memoizes (on the
    /// plane starting at buffer `base`) would refuse again now.
    fn memo_holds(&self, m: &ScanMemo, base: usize, sink: &impl NocSink) -> bool {
        bits(m.full_segments).all(|q| self.segments[base + q].len() >= self.buffer_depth)
            && bits(m.full_sinks).all(|key| sink.full(NocDest::of_key(key as u16, self.num_vaults)))
    }

    /// Scan buffer `bi` once in its arbitration order, moving what may
    /// move and counting the rest into `delta`. Memoizes a scan that
    /// moved nothing and skipped no packet as too fresh to move. Returns
    /// the packets moved and the forward stalls.
    fn scan(
        &mut self,
        bi: usize,
        clock: Cycle,
        sink: &mut impl NocSink,
        delta: &mut NocDelta,
        record_hops: bool,
        record_stalls: bool,
    ) -> (u64, u64) {
        // Buffer `bi` is quad `q`'s segment on the plane starting at `base`.
        let q = bi % self.num_quads;
        let base = bi - q;
        let len = self.segments[bi].len();
        // Round-robin walks the heads of its two index ranges directly;
        // the other policies sort a scratch order and test the head bit.
        let mut cursor = if self.arbitration == ArbitrationKind::RoundRobin {
            let start = self.rr_next[bi] % len;
            Cursor::Ring {
                at: start,
                end: len,
                wrap: start,
            }
        } else {
            self.build_scan_order(bi, len, q as QuadId);
            Cursor::Table { n: 0 }
        };
        let (mut moves, mut last_won) = (0u64, None);
        let mut budget = self.quad_drain;
        let mut memo = ScanMemo::default();
        let mut saw_fresh = false;
        // A head promoted when its predecessor leaves is visited only if
        // it lies later in scan order than that predecessor.
        while let Some(i) = self.next_visit(bi, &mut cursor) {
            let SlotMeta { key, moved_at } = self.segments[bi].slots.word(i);
            // One segment per cycle: skip packets that hopped into this
            // buffer during this very advance call (or were injected
            // this cycle).
            if moved_at >= clock {
                saw_fresh = true;
                continue;
            }
            if budget == 0 {
                delta.arb_losses += 1;
                continue;
            }
            let next = self.route[q * self.num_keys + key as usize] as usize;
            let refused = if next == q {
                // Arrived: deliver into the vault request queue or the
                // egress crossbar response queue, if it has room.
                let dest = NocDest::of_key(key, self.num_vaults);
                let full = sink.full(dest);
                if full {
                    memo.full_sinks |= 1 << key;
                } else {
                    let mut e = self.segments[bi].take(i);
                    e.arrival_cycle = clock;
                    sink.deliver(dest, e);
                }
                full
            } else if self.segments[base + next].len() >= self.buffer_depth {
                memo.full_segments |= 1 << next;
                memo.fwd_stalls += 1;
                true
            } else {
                let e = self.segments[bi].take(i);
                if record_hops {
                    self.events.push(NocEvent::Hop {
                        from_quad: q as QuadId,
                        to_quad: next as QuadId,
                        tag: e.packet.tag(),
                    });
                }
                let meta = SlotMeta {
                    key,
                    moved_at: clock,
                };
                self.segments[base + next].push_back(meta, e);
                delta.hops += 1;
                false
            };
            if refused {
                memo.stalls += 1;
                if record_stalls {
                    self.events.push(NocEvent::Stall {
                        quad: q as QuadId,
                        tag: self.segments[bi].entry(i).packet.tag(),
                    });
                }
                continue;
            }
            (moves, last_won) = (moves + 1, Some(i));
            budget -= 1;
        }
        delta.stalls += memo.stalls as u64;
        if let Some(w) = last_won {
            self.rr_next[bi] = (w + 1) % len;
            // Compact out the vacated slots, so that subsequent quads see
            // true occupancy when forwarding into this buffer. Winners are
            // few and mostly near the head, where a removal shifts next to
            // nothing.
            self.segments[bi].compact();
        } else if !saw_fresh {
            self.segments[bi].memo = Some(memo);
        }
        (moves, memo.fwd_stalls as u64)
    }

    /// The next head the scan of buffer `bi` visits in its arbitration
    /// order, reading the head set as it stands now.
    fn next_visit(&self, bi: usize, cursor: &mut Cursor) -> Option<usize> {
        let seg = &self.segments[bi];
        match cursor {
            Cursor::Ring { at, end, wrap } => {
                let i = match seg.next_head(*at, *end) {
                    Some(i) => i,
                    None => {
                        let i = seg.next_head(0, *wrap)?;
                        (*end, *wrap) = (*wrap, 0);
                        i
                    }
                };
                *at = i + 1;
                Some(i)
            }
            Cursor::Table { n } => {
                let rest = &self.scratch_order[*n..];
                let p = rest.iter().position(|&i| seg.is_head(i as usize))?;
                *n += p + 1;
                Some(rest[p] as usize)
            }
        }
    }

    /// Re-derive every live scan memo from the packets its buffer holds,
    /// at `clock` (the clock of the next advance), and report each one
    /// that disagrees. The dry scan is independent of the one `advance`
    /// runs: the first packet per destination is the only one free to
    /// move; a memo must count each of them as refused — none too fresh
    /// to move — and name exactly their targets. Then, whenever those
    /// targets are all full, the memo is what a scan would find.
    pub(crate) fn check_memos(&self, clock: Cycle, mut report: impl FnMut(String)) {
        let nq = self.num_quads;
        for (bi, seg) in self.segments.iter().enumerate() {
            let Some(memo) = seg.memo else {
                continue;
            };
            let q = bi % nq;
            let (mut seen, mut fresh, mut want) = (0u64, 0usize, ScanMemo::default());
            for m in seg.slots.words() {
                if seen >> m.key & 1 != 0 {
                    continue;
                }
                seen |= 1 << m.key;
                if m.moved_at >= clock {
                    fresh += 1;
                    continue;
                }
                want.stalls += 1;
                match self.route[q * self.num_keys + m.key as usize] {
                    next if next as usize == q => want.full_sinks |= 1 << m.key,
                    next => {
                        want.fwd_stalls += 1;
                        want.full_segments |= 1 << next;
                    }
                }
            }
            if fresh > 0 || want != memo {
                let class = NocClass::ALL[bi / nq];
                report(format!(
                    "{class:?} segment of quad {q} memoizes {memo:?}, but a dry scan at cycle \
                     {clock} derives {want:?} with {fresh} packet(s) too fresh to move"
                ));
            }
        }
    }

    /// Re-derive every buffer's head set and key counts from the packets
    /// it holds and report each buffer whose kept ones disagree.
    pub(crate) fn check_heads(&self, mut report: impl FnMut(String)) {
        let nq = self.num_quads;
        for (bi, seg) in self.segments.iter().enumerate() {
            let (heads, keyed) = seg.derive_heads();
            if heads != seg.heads || keyed != seg.keyed {
                let (class, q) = (NocClass::ALL[bi / nq], bi % nq);
                report(format!(
                    "{class:?} segment of quad {q} keeps heads {:x?} and key counts {:?}, \
                     but its {} packet(s) imply heads {heads:x?} and key counts {keyed:?}",
                    seg.heads,
                    seg.keyed,
                    seg.len()
                ));
            }
        }
    }

    /// Flip the head bit of the last slot of the first non-empty buffer —
    /// the drift [`NocState::check_heads`] must flag — and return whether
    /// there was one.
    #[cfg(test)]
    pub(crate) fn corrupt_heads(&mut self) -> bool {
        let Some(seg) = self.segments.iter_mut().find(|s| s.len() > 0) else {
            return false;
        };
        let i = seg.len() - 1;
        seg.heads[i / 64] ^= 1 << (i % 64);
        true
    }

    /// Make every live scan memo claim one stall more than its buffer
    /// holds — the stale memo [`NocState::check_memos`] must flag — and
    /// return how many there were.
    #[cfg(test)]
    pub(crate) fn corrupt_memos(&mut self) -> usize {
        let memos = self.segments.iter_mut().filter_map(|s| s.memo.as_mut());
        memos.map(|m| m.stalls += 1).count()
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
        // the first (index order) head that is aged and not yet at its
        // destination quad. In a zero-move pass such a head is
        // necessarily stalled on a full next buffer.
        cand.clear();
        cand.resize(nq, None);
        for (q, slot) in cand.iter_mut().enumerate() {
            let seg = &self.segments[base + q];
            for i in seg.heads() {
                let m = seg.slots.word(i);
                if m.moved_at >= clock {
                    continue;
                }
                let next = self.route[q * self.num_keys + m.key as usize];
                if next as usize == q {
                    continue;
                }
                if self.segments[base + next as usize].len() >= self.buffer_depth {
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
                    let (mut m, e) = self.segments[base + p].lift(i);
                    m.moved_at = clock;
                    moving.push((p, next, m, e));
                }
                for (p, next, m, e) in moving.drain(..) {
                    if record_hops {
                        self.events.push(NocEvent::Hop {
                            from_quad: p as QuadId,
                            to_quad: next,
                            tag: e.packet.tag(),
                        });
                    }
                    self.segments[base + next as usize].push_back(m, e);
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
        self.rotate_scratch = RotateScratch {
            cand,
            state,
            path,
            moving,
        };
        hops
    }

    /// Fill `scratch_order` with the indices of buffer `bi` (quad
    /// `quad`'s segment on one plane) in the order the oldest-first or
    /// locality-aware policy scans them (round-robin needs no table).
    fn build_scan_order(&mut self, bi: usize, len: usize, quad: QuadId) {
        self.scratch_order.clear();
        let seg = &self.segments[bi];
        match self.arbitration {
            ArbitrationKind::RoundRobin => unreachable!("round-robin scans its ranges directly"),
            ArbitrationKind::OldestFirst => {
                self.scratch_order.extend(0..len as u32);
                self.scratch_order
                    .sort_unstable_by_key(|&i| (seg.entry(i as usize).entry_cycle, i));
            }
            ArbitrationKind::LocalityAware => {
                let route = &self.route[quad as usize * self.num_keys..];
                let local = |i: &u32| route[seg.slots.word(*i as usize).key as usize] == quad;
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

    /// A packet tagged `tag` modulo the 9-bit tag space, carrying all of
    /// `tag` in `send_seq` (which the fabric never reads) so that the
    /// differential tests can tell every packet apart.
    fn test_entry(tag: u16) -> QueueEntry {
        use hmc_types::{Command, Packet};
        let b32 = Command::Rd(hmc_types::BlockSize::B32);
        let p = Packet::request(b32, 0, 0, tag % 512, 0, &[]).unwrap();
        QueueEntry {
            send_seq: tag.into(),
            ..QueueEntry::new(p, 9, 0, 0)
        }
    }

    /// A sink for the unit tests: vault (link) queues are full while
    /// `refuse_vaults` (`refuse_links`) is set; accepted packets are
    /// logged as (destination, tag).
    #[derive(Default)]
    struct Recorder {
        refuse_vaults: bool,
        refuse_links: bool,
        got: Vec<(NocDest, u16)>,
    }

    impl Recorder {
        fn refusing_vaults() -> Recorder {
            Recorder {
                refuse_vaults: true,
                ..Recorder::default()
            }
        }

        fn tags(&self) -> Vec<u16> {
            self.got.iter().map(|&(_, tag)| tag).collect()
        }
    }

    impl NocSink for Recorder {
        fn full(&self, dest: NocDest) -> bool {
            match dest {
                NocDest::ToVault(_) => self.refuse_vaults,
                NocDest::ToLink(_) => self.refuse_links,
            }
        }

        fn deliver(&mut self, dest: NocDest, entry: QueueEntry) {
            assert!(!self.full(dest), "delivered into a full queue");
            self.got.push((dest, entry.packet.tag()));
        }
    }

    #[test]
    fn ring_packet_hops_toward_its_quad_and_delivers() {
        let params = NocParams::of(InterconnectKind::Ring);
        let mut noc = NocState::new(&params, 4, 16).unwrap();
        // Vault 12 lives in quad 3; inject at quad 0 => three hops.
        assert!(noc.has_room(0, NocClass::Request));
        noc.inject(0, NocDest::ToVault(12), test_entry(7), 0);
        assert_eq!(noc.occupancy(), 1);

        let mut sink = Recorder::default();
        let mut hops = 0u64;
        for clock in 1..=4u64 {
            let d = noc.advance(clock, &mut sink, true, true);
            hops += d.hops;
            assert_eq!(d.stalls, 0);
            assert_eq!(d.arb_losses, 0);
        }
        assert_eq!(hops, 3);
        assert_eq!(sink.got, vec![(NocDest::ToVault(12), 7)]);
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
        let d = noc.advance(1, &mut Recorder::default(), false, false);
        assert_eq!(d.hops, 1);
        assert_eq!(noc.occupancy(), 1);
        // Delivery refused: the packet stays buffered at its quad, every
        // cycle the queue stays full.
        for clock in 2..=4 {
            let d = noc.advance(clock, &mut Recorder::refusing_vaults(), false, false);
            assert_eq!(d.stalls, 1);
            assert_eq!(noc.occupancy(), 1);
        }
        // Accept it now.
        let mut sink = Recorder::default();
        let d = noc.advance(5, &mut sink, false, false);
        assert_eq!(d.stalls, 0);
        assert_eq!(noc.occupancy(), 0);
        assert_eq!(sink.tags(), [1]);
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
            let mut sink = Recorder::default();
            for clock in 1..=8u64 {
                noc.advance(clock, &mut sink, false, false);
            }
            assert_eq!(sink.tags(), vec![1, 2], "{} reordered", arb.name());
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
        let mut sink = Recorder::default();
        let d = noc.advance(1, &mut sink, false, false);
        assert_eq!(d.hops, 1);
        assert_eq!(d.arb_losses, 2);
        assert!(sink.got.is_empty(), "nothing has arrived yet");
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
        let mut sink = Recorder::refusing_vaults();
        for clock in 1..=4u64 {
            noc.advance(clock, &mut sink, false, false);
        }
        assert_eq!(sink.got, vec![(NocDest::ToLink(2), 9)]);
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
            let mut sink = Recorder::default();
            for clock in 1..=64u64 {
                noc.advance(clock, &mut sink, false, false);
            }
            assert_eq!(sink.got.len(), 8, "{} wedged", arb.name());
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
        let mut sink = Recorder::default();
        for clock in 1..=16u64 {
            noc.advance(clock, &mut sink, false, false);
        }
        assert_eq!(sink.got.len(), 4, "opposed streams wedged");
        assert_eq!(noc.occupancy(), 0);
    }

    #[test]
    fn clear_empties_all_buffers() {
        let params = NocParams::of(InterconnectKind::Mesh);
        let mut noc = NocState::new(&params, 4, 16).unwrap();
        noc.inject(0, NocDest::ToVault(12), test_entry(1), 0);
        noc.inject(2, NocDest::ToLink(1), test_entry(2), 0);
        assert_eq!(noc.occupancy(), 2);
        let residents: Vec<_> = noc
            .residents()
            .map(|(class, quad, e)| (class, quad, e.packet.tag()))
            .collect();
        assert_eq!(
            residents,
            [(NocClass::Request, 0, 1), (NocClass::Response, 2, 2)]
        );
        noc.clear();
        assert_eq!(noc.occupancy(), 0);
        assert_eq!(noc.residents().count(), 0);
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
        let d = noc.advance(1, &mut Recorder::default(), false, false);
        assert_eq!(d.hops, 2, "both packets hop into quad 1");
        let mut sink = Recorder::default();
        let d = noc.advance(2, &mut sink, false, false);
        assert_eq!(sink.tags(), vec![2], "local delivery should win the budget");
        assert_eq!(d.arb_losses, 1, "the through-packet lost arbitration");
    }

    // ---- differential check against the pre-table advance pass ----

    impl Segment {
        /// Remove slot `i`, head or not, and re-derive the head set from
        /// scratch: the reference passes' removal.
        fn remove_any(&mut self, i: usize) -> (SlotMeta, QueueEntry) {
            self.memo = None;
            let meta = self.slots.word(i);
            let entry = self.slots.remove(i).expect("a live slot");
            (self.heads, self.keyed) = self.derive_heads();
            (meta, entry)
        }
    }

    impl NocState {
        /// The order the arbitration policy scans buffer `bi` (quad
        /// `quad`'s segment) in, from the buffer alone.
        fn reference_order(&self, bi: usize, quad: QuadId) -> Vec<usize> {
            let seg = &self.segments[bi];
            let len = seg.len();
            let dest_quad =
                |i: usize| NocDest::of_key(seg.slots.word(i).key, self.num_vaults).quad();
            match self.arbitration {
                ArbitrationKind::RoundRobin => {
                    let start = self.rr_next[bi] % len;
                    (start..len).chain(0..start).collect()
                }
                ArbitrationKind::OldestFirst => {
                    let mut order: Vec<usize> = (0..len).collect();
                    order.sort_by_key(|&i| (seg.entry(i).entry_cycle, i));
                    order
                }
                ArbitrationKind::LocalityAware => {
                    let (mut order, through): (Vec<usize>, Vec<usize>) =
                        (0..len).partition(|&i| dest_quad(i) == quad);
                    order.extend(through);
                    order
                }
            }
        }

        /// The advance pass as it stood before the per-destination order
        /// tables: the FIFO hold is the quadratic "any earlier entry,
        /// not yet moved, with my destination" predicate, routes come
        /// from the topology rather than the table, winners are cloned
        /// out and their originals removed afterwards, no scan is ever
        /// memoized, and the rotation escape allocates as it goes. It
        /// stages every event.
        fn advance_reference(&mut self, clock: Cycle, sink: &mut impl NocSink) -> NocDelta {
            let mut delta = NocDelta::default();
            let nv = self.num_vaults;
            for class in NocClass::ALL {
                let base = class.index() * self.num_quads;
                let mut plane_moves = 0u64;
                let mut plane_fwd_stalls = 0u64;
                for q in 0..self.num_quads {
                    let bi = base + q;
                    let len = self.segments[bi].len();
                    if len == 0 {
                        continue;
                    }
                    let mut moved: Vec<usize> = Vec::new();
                    let mut budget = self.quad_drain;
                    let mut last_winner = None;
                    for i in self.reference_order(bi, q as QuadId) {
                        let m = self.segments[bi].slots.word(i);
                        let e = self.segments[bi].entry(i).clone();
                        let tag = e.packet.tag();
                        if m.moved_at >= clock {
                            continue;
                        }
                        let seg = &self.segments[bi];
                        let held =
                            (0..i).any(|j| !moved.contains(&j) && seg.slots.word(j).key == m.key);
                        if held {
                            continue;
                        }
                        if budget == 0 {
                            delta.arb_losses += 1;
                            continue;
                        }
                        let dest = NocDest::of_key(m.key, nv);
                        if dest.quad() == q as QuadId {
                            if sink.full(dest) {
                                delta.stalls += 1;
                                self.events.push(NocEvent::Stall {
                                    quad: q as QuadId,
                                    tag,
                                });
                                continue;
                            }
                            let mut out = e;
                            out.arrival_cycle = clock;
                            sink.deliver(dest, out);
                        } else {
                            let next = self.topology.next_hop(q as QuadId, dest.quad()) as usize;
                            if self.segments[base + next].len() >= self.buffer_depth {
                                delta.stalls += 1;
                                plane_fwd_stalls += 1;
                                self.events.push(NocEvent::Stall {
                                    quad: q as QuadId,
                                    tag,
                                });
                                continue;
                            }
                            let hopped = SlotMeta {
                                moved_at: clock,
                                ..m
                            };
                            self.segments[base + next].push_back(hopped, e);
                            delta.hops += 1;
                            self.events.push(NocEvent::Hop {
                                from_quad: q as QuadId,
                                to_quad: next as QuadId,
                                tag,
                            });
                        }
                        budget -= 1;
                        moved.push(i);
                        last_winner = Some(i);
                        plane_moves += 1;
                    }
                    moved.sort_unstable();
                    for &i in moved.iter().rev() {
                        self.segments[bi].remove_any(i);
                    }
                    if let Some(w) = last_winner {
                        self.rr_next[bi] = (w + 1) % len;
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
                let seg = &self.segments[base + q];
                for (i, m) in seg.slots.words().enumerate() {
                    let dest = NocDest::of_key(m.key, nv);
                    if m.moved_at >= clock || dest.quad() == q as QuadId {
                        continue;
                    }
                    if seg.slots.words().take(i).any(|p| p.key == m.key) {
                        continue;
                    }
                    let next = self.topology.next_hop(q as QuadId, dest.quad());
                    if self.segments[base + next as usize].len() >= self.buffer_depth {
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
                        let (m, e) = self.segments[base + p].remove_any(i);
                        let m = SlotMeta {
                            moved_at: clock,
                            ..m
                        };
                        moving.push((p, next, m, e));
                    }
                    for (p, next, m, e) in moving {
                        self.events.push(NocEvent::Hop {
                            from_quad: p as QuadId,
                            to_quad: next,
                            tag: e.packet.tag(),
                        });
                        self.segments[base + next as usize].push_back(m, e);
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

        /// `(packet, key, moved_at)` of every slot of every buffer, plus
        /// the round-robin origins: everything `advance` may change.
        #[allow(clippy::type_complexity)]
        fn snapshot(&self) -> (Vec<Vec<(u64, u16, Cycle)>>, Vec<usize>) {
            let buffers = self
                .segments
                .iter()
                .map(|s| {
                    (0..s.len())
                        .map(|i| {
                            let m = s.slots.word(i);
                            (s.entry(i).send_seq, m.key, m.moved_at)
                        })
                        .collect()
                })
                .collect();
            (buffers, self.rr_next.clone())
        }

        /// Buffers whose memo would be replayed if the advance reached
        /// them now, with `sink` as it stands.
        fn memos_that_hold(&self, sink: &impl NocSink) -> u64 {
            let nq = self.num_quads;
            let holds = |(bi, s): &(usize, &Segment)| {
                s.memo
                    .is_some_and(|m| self.memo_holds(&m, bi / nq * nq, sink))
            };
            self.segments.iter().enumerate().filter(holds).count() as u64
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
    /// level (often full) with cross-quad packets of random age. In a
    /// buffer deeper than 16 a destination repeats in runs of up to
    /// `1 + depth / 16`, so that some destinations first appear far back.
    fn random_fabric(params: &NocParams, quads: u8, seed: u64) -> NocState {
        let mut rng = Lcg(seed);
        let num_vaults = quads as u16 * 4;
        let mut noc = NocState::new(params, quads, num_vaults).unwrap();
        let max_run = 1 + params.buffer_depth as u64 / 16;
        let mut tag = 0u16;
        for q in 0..quads {
            for response in [false, true] {
                let fill = rng.below(params.buffer_depth as u64 + 2).min(params.buffer_depth as u64);
                let (mut dest, mut run) = (NocDest::ToLink(q), 0);
                for _ in 0..fill {
                    if run == 0 {
                        // No draw for a shallow buffer: its stream is the
                        // one the shallow geometries always ran.
                        run = if max_run > 1 {
                            1 + rng.below(max_run)
                        } else {
                            1
                        };
                        let dest_quad = (q + 1 + rng.below(quads as u64 - 1) as u8) % quads;
                        dest = if response {
                            NocDest::ToLink(dest_quad)
                        } else {
                            // Few distinct vaults per quad, so
                            // same-destination runs (the FIFO hold) are
                            // common.
                            NocDest::ToVault(dest_quad as u16 * 4 + rng.below(2) as u16)
                        };
                    }
                    run -= 1;
                    let mut e = test_entry(tag);
                    e.entry_cycle = rng.below(4);
                    noc.inject(q, dest, e, 0);
                    tag += 1;
                }
            }
        }
        noc
    }

    /// Inject up to `max` cross-quad packets, tags from `tag` on, at
    /// every segment in turn until it is full. Deterministic, so two
    /// equal fabrics stay equal.
    fn top_up(noc: &mut NocState, max: usize, tag: u16, clock: Cycle) {
        let quads = noc.num_quads as u8;
        let mut n = 0u16;
        for response in [false, true] {
            for q in 0..quads {
                while (n as usize) < max {
                    let t = tag + n;
                    let dest_quad = (q + 1 + (t % (quads as u16 - 1)) as u8) % quads;
                    let dest = if response {
                        NocDest::ToLink(dest_quad)
                    } else {
                        NocDest::ToVault(dest_quad as u16 * 4 + t % 2)
                    };
                    if !noc.has_room(q, dest.class()) {
                        break;
                    }
                    let mut e = test_entry(t);
                    e.entry_cycle = clock;
                    noc.inject(q, dest, e, clock);
                    n += 1;
                }
            }
        }
    }

    /// A delivery queue for the differential test: logs what it accepts.
    /// Mode 0 accepts everything, 1 refuses everything, 2 refuses a
    /// destination- and clock-dependent third. Links log as 100 + id.
    struct Sink {
        mode: u64,
        clock: Cycle,
        log: Vec<(u16, u64, Cycle)>,
    }

    impl Sink {
        fn new(mode: u64, clock: Cycle) -> Sink {
            Sink {
                mode,
                clock,
                log: Vec::new(),
            }
        }

        fn id(dest: NocDest) -> u16 {
            match dest {
                NocDest::ToVault(v) => v,
                NocDest::ToLink(l) => 100 + l as u16,
            }
        }
    }

    impl NocSink for Sink {
        fn full(&self, dest: NocDest) -> bool {
            match self.mode {
                0 => false,
                1 => true,
                _ => (Sink::id(dest) as u64 + self.clock).is_multiple_of(3),
            }
        }

        fn deliver(&mut self, dest: NocDest, e: QueueEntry) {
            assert!(!self.full(dest), "delivered into a full queue");
            self.log.push((Sink::id(dest), e.send_seq, e.arrival_cycle));
        }
    }

    /// Every fabric × policy × geometry the differential tests sweep.
    /// Depths 70 and 130 spread a buffer's head set over two and three
    /// words.
    fn fabrics() -> impl Iterator<Item = (NocParams, u8)> {
        [InterconnectKind::Ring, InterconnectKind::Mesh]
            .into_iter()
            .flat_map(|kind| ArbitrationKind::ALL.map(move |arb| (kind, arb)))
            .flat_map(|(kind, arb)| {
                let geometries = [
                    (4u8, 3u16, 1u16),
                    (4, 6, 4),
                    (8, 2, 2),
                    (8, 70, 3),
                    (4, 130, 4),
                ];
                geometries.map(move |(quads, depth, drain)| {
                    let mut params = NocParams::of(kind).with_arbitration(arb);
                    params.buffer_depth = depth;
                    params.quad_drain = drain;
                    (params, quads)
                })
            })
    }

    /// Words past the first that hold a head, over every buffer.
    fn deep_head_words(noc: &NocState) -> usize {
        let words = |s: &Segment| s.heads[1..].iter().filter(|&&w| w != 0).count();
        noc.segments.iter().map(words).sum()
    }

    #[test]
    fn table_driven_advance_matches_the_quadratic_reference() {
        let mut deep_heads = 0;
        for (params, quads) in fabrics() {
            // The reference is quadratic in a buffer's occupancy.
            let seeds = if params.buffer_depth > 64 { 4 } else { 12 };
            for mode in 0..3u64 {
                for seed in 0..seeds {
                    let mut new = random_fabric(&params, quads, seed);
                    let mut old = random_fabric(&params, quads, seed);
                    assert_eq!(new.snapshot(), old.snapshot());
                    for clock in 1..=10u64 {
                        deep_heads += deep_head_words(&new);
                        let (mut got, mut want) = (Sink::new(mode, clock), Sink::new(mode, clock));
                        let d_new = new.advance(clock, &mut got, true, true);
                        let d_old = old.advance_reference(clock, &mut want);
                        let ctx = format!(
                            "{params:?} quads {quads} mode {mode} seed {seed} clock {clock}"
                        );
                        assert_eq!(got.log, want.log, "delivered order: {ctx}");
                        assert_eq!(d_new, d_old, "delta: {ctx}");
                        assert!(
                            new.drain_events().eq(old.drain_events()),
                            "event list: {ctx}"
                        );
                        assert_eq!(new.snapshot(), old.snapshot(), "buffers: {ctx}");
                        new.check_heads(|msg| panic!("{ctx}: {msg}"));
                    }
                }
            }
        }
        assert!(
            deep_heads > 1000,
            "only {deep_heads} heads past the first word"
        );
    }

    /// Untraced, a buffer whose scan moved nothing replays its memo. Each
    /// cycle must still match the reference — deliveries, deltas and
    /// buffers — and stage no event, and every live memo must survive
    /// the invariant checker's dry scan. The schedule: three refuse-all
    /// cycles (memos recorded, then replayed), an accepting sink, an
    /// injection, more refusals, a mixed sink, then both planes packed
    /// full so that the refuse-all cycles after it can move nothing but
    /// by rotation.
    #[test]
    fn untraced_advance_replays_memos_and_matches_the_reference() {
        let (mut replays, mut rotations) = (0u64, 0u64);
        for (params, quads) in fabrics() {
            let seeds = if params.buffer_depth > 64 { 3 } else { 8 };
            for seed in 0..seeds {
                let mut new = random_fabric(&params, quads, seed);
                let mut old = random_fabric(&params, quads, seed);
                for clock in 1..=14u64 {
                    let mode = match clock {
                        4 => 0,
                        9 => 2,
                        _ => 1,
                    };
                    let injected = match clock {
                        5 => 1,
                        10 => usize::MAX,
                        _ => 0,
                    };
                    top_up(&mut new, injected, 200 + clock as u16 * 20, clock);
                    top_up(&mut old, injected, 200 + clock as u16 * 20, clock);
                    let (mut got, mut want) = (Sink::new(mode, clock), Sink::new(mode, clock));
                    replays += new.memos_that_hold(&got);
                    let d_new = new.advance(clock, &mut got, false, false);
                    let d_old = old.advance_reference(clock, &mut want);
                    old.events.clear();
                    let ctx = format!("{params:?} quads {quads} seed {seed} clock {clock}");
                    assert_eq!(got.log, want.log, "delivered order: {ctx}");
                    assert_eq!(d_new, d_old, "delta: {ctx}");
                    assert!(new.events.is_empty(), "untraced events: {ctx}");
                    assert_eq!(new.snapshot(), old.snapshot(), "buffers: {ctx}");
                    new.check_memos(clock + 1, |msg| panic!("{ctx}: {msg}"));
                    new.check_heads(|msg| panic!("{ctx}: {msg}"));
                    // Every segment is full and every sink refuses: any
                    // hop is the rotation escape's.
                    if clock == 11 && d_new.hops > 0 {
                        rotations += 1;
                    }
                }
            }
        }
        assert!(replays > 500, "only {replays} memo replays");
        assert!(rotations > 20, "only {rotations} forced rotations");
    }

    #[test]
    fn a_stale_memo_fails_the_dry_scan() {
        let params = NocParams::of(InterconnectKind::Ring);
        let mut noc = NocState::new(&params, 4, 16).unwrap();
        // Two packets for quad 1, one hop away, whose vaults then refuse.
        noc.inject(0, NocDest::ToVault(4), test_entry(1), 0);
        noc.inject(0, NocDest::ToVault(5), test_entry(2), 0);
        noc.advance(1, &mut Recorder::default(), false, false);
        noc.advance(2, &mut Recorder::refusing_vaults(), false, false);
        let mut found = Vec::new();
        noc.check_memos(3, |msg| found.push(msg));
        assert_eq!(found, [] as [String; 0], "a real memo is clean");
        assert_eq!(noc.corrupt_memos(), 1, "quad 1 stalled its delivery");
        noc.check_memos(3, |msg| found.push(msg));
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("Request segment of quad 1"), "{found:?}");
    }

    #[test]
    fn a_drifted_head_set_fails_the_check() {
        let params = NocParams::of(InterconnectKind::Ring);
        let mut noc = NocState::new(&params, 4, 16).unwrap();
        // Two packets for one vault and one for another: heads 0 and 2.
        noc.inject(0, NocDest::ToVault(8), test_entry(1), 0);
        noc.inject(0, NocDest::ToVault(8), test_entry(2), 0);
        noc.inject(0, NocDest::ToVault(9), test_entry(3), 0);
        let mut found = Vec::new();
        noc.check_heads(|msg| found.push(msg));
        assert_eq!(found, [] as [String; 0], "a kept head set is clean");
        assert!(noc.corrupt_heads());
        noc.check_heads(|msg| found.push(msg));
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("Request segment of quad 0"), "{found:?}");
    }

    #[test]
    fn heads_follow_their_slots_across_word_boundaries() {
        let mut params = NocParams::of(InterconnectKind::Ring);
        params.buffer_depth = 200;
        let mut noc = NocState::new(&params, 4, 16).unwrap();
        // Quad 0 holds packets for vault 4 (quad 1, one hop) but for one
        // for vault 5 in slot 64 and one for vault 6 in slot 128: heads
        // 0, 64 and 128, the first bit of each of three words.
        for tag in 0..140u16 {
            let vault = match tag {
                64 => 5,
                128 => 6,
                _ => 4,
            };
            noc.inject(0, NocDest::ToVault(vault), test_entry(tag), 0);
        }
        let heads = |noc: &NocState| noc.segments[0].heads().collect::<Vec<_>>();
        assert_eq!(heads(&noc), [0, 64, 128]);
        // The first advance moves four packets for vault 4 (drain 4), each
        // promoting the next; squeezing out slots 0-3 moves the other two
        // heads down across a word boundary each.
        let mut sink = Recorder::default();
        let d = noc.advance(1, &mut sink, false, false);
        assert_eq!((d.hops, d.arb_losses), (4, 3));
        assert_eq!(heads(&noc), [0, 60, 124]);
        noc.check_heads(|msg| panic!("{msg}"));
        for clock in 2..=80 {
            noc.advance(clock, &mut sink, false, false);
            noc.check_heads(|msg| panic!("cycle {clock}: {msg}"));
        }
        assert_eq!(noc.occupancy(), 0);
        let order = |vault| {
            let to = NocDest::ToVault(vault);
            let got = sink.got.iter().filter(|g| g.0 == to);
            got.map(|g| g.1).collect::<Vec<u16>>()
        };
        let vault4: Vec<u16> = (0..140).filter(|&t| t != 64 && t != 128).collect();
        assert_eq!(order(4), vault4);
        assert_eq!((order(5), order(6)), (vec![64], vec![128]));
    }
}
