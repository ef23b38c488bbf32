//! Packet queues.
//!
//! "All the queuing structures present in the HMC-Sim structure hierarchy
//! share the same software representation. Each queue contains one or more
//! queue slots … in order to act as a registered input or output logic
//! stage" (paper §IV.A). The C implementation scans fixed slot arrays with
//! valid bits; this port keeps the slot *semantics* (fixed depth ≥ 1, FIFO
//! arrival order, one packet per slot) in a ring buffer of 64-byte
//! [`QueueEntry`] headers, each owning its nine-FLIT packet body on the
//! heap: a slot moves from queue to queue as four stores, and the body is
//! written at `send` (filled in place by `send_with`), rewritten in place
//! into the response, read in place at `recv_with` and recycled
//! ([`BodyPool`]). A response queue tick costs O(occupied slots). A
//! vault request queue's tick walks its scan window only while something
//! there can issue: a walk that leaves every entry held caches the
//! earliest cycle that can change (`Vault::wake_at`), and the cycles
//! before it cost one compare. Every packet queue is one [`PacketQueue`],
//! whose slots each carry a word its owner chooses: `()` for vault and
//! crossbar response queues; a NoC segment's scan metadata; and a
//! crossbar request queue's `u64` *route class*, so its tick costs one
//! AND per occupied slot plus full slow-path visits only for the packets
//! that move and the first blocked packet of each route class — not one
//! per stalled slot, which is what a congested fabric is made of. A
//! word type may keep a census of the words in its queue
//! ([`SlotWord::Census`]): the route classes keep one per class
//! ([`ClassCensus`]), so the union of a queue's classes costs one load,
//! while `()` and the NoC's words keep none and pay nothing.

use std::collections::VecDeque;

use hmc_types::packet::ResponseStatus;
use hmc_types::{BankId, Command, CubeId, Cycle, LinkId, Packet, VaultId};

/// Sentinel for "not yet decoded" vault/bank coordinates.
pub const UNDECODED: u16 = u16::MAX;

/// A packet occupying a queue slot, with the simulator-side metadata that
/// the C implementation keeps alongside each slot.
///
/// The slot is split in two. What every stage moves from queue to queue is
/// this 64-byte header; the packet itself — "sufficient storage for the
/// largest possible packet with nine FLITs" (§IV.A), 144 bytes — is a body
/// on the heap that is written once when the request is sent, rewritten in
/// place when the request becomes its response
/// ([`QueueEntry::into_response`]), read once when the host receives it,
/// and then recycled through the simulation's [`BodyPool`]. DESIGN.md
/// "Write-once packet bodies".
#[derive(Debug, Clone)]
pub struct QueueEntry {
    /// The packet itself (always sized for the maximal nine-FLIT packet).
    pub packet: Box<Packet>,
    /// Cycle at which the packet entered the *device* (latency tracking).
    pub entry_cycle: Cycle,
    /// Cycle at which the packet entered *this queue*.
    pub arrival_cycle: Cycle,
    /// Link on which the packet first entered the current device.
    pub arrival_link: LinkId,
    /// Cube that originated the packet (the host for requests; the
    /// device for responses).
    pub src_cube: CubeId,
    /// Final destination cube (device for requests, host for responses).
    pub dest_cube: CubeId,
    /// Chaining hops taken so far (zombie detection, §V.B).
    pub hops: u32,
    /// Decoded destination vault ([`UNDECODED`] until the crossbar
    /// resolves it; flow/mode packets never resolve one).
    pub dest_vault: VaultId,
    /// Decoded destination bank ([`UNDECODED`] until resolved).
    pub dest_bank: BankId,
    /// Decoded destination DRAM row (meaningful once `dest_vault` is
    /// resolved; the DDR timing backend keys row-buffer state on it).
    pub dest_row: u64,
    /// Corrupted in link transit (error simulation); cleared when the
    /// receiving crossbar detects it and models the retransmission.
    pub corrupt: bool,
    /// Cycle until which the packet is held for link retransmission.
    pub retry_until: Cycle,
    /// Transmission attempts so far: 0 until the first corruption is
    /// detected, then incremented per detection. A packet whose attempt
    /// count exceeds the configured retry limit while still corrupt is
    /// aborted with a poisoned response.
    pub attempt: u32,
    /// The link's monotonic send-sequence slot this packet occupied at
    /// injection — the stable key of its deterministic corruption
    /// stream.
    pub send_seq: u64,
}

// A slot moves between queues as four 16-byte stores; past 64 bytes it
// becomes a `memmove` call again.
const _: () = assert!(std::mem::size_of::<QueueEntry>() <= 64);

impl QueueEntry {
    /// Wrap a packet with fresh metadata, in a body of its own.
    pub fn new(packet: Packet, src_cube: CubeId, dest_cube: CubeId, cycle: Cycle) -> Self {
        Self::with_body(Box::new(packet), src_cube, dest_cube, cycle)
    }

    /// Wrap a packet already in its body (see [`BodyPool::take`]) with
    /// fresh metadata.
    pub fn with_body(
        packet: Box<Packet>,
        src_cube: CubeId,
        dest_cube: CubeId,
        cycle: Cycle,
    ) -> Self {
        QueueEntry {
            packet,
            entry_cycle: cycle,
            arrival_cycle: cycle,
            arrival_link: 0,
            src_cube,
            dest_cube,
            hops: 0,
            dest_vault: UNDECODED,
            dest_bank: UNDECODED,
            dest_row: 0,
            corrupt: false,
            retry_until: 0,
            attempt: 0,
            send_seq: 0,
        }
    }

    /// Turn this request into the response `device` owes for it at
    /// `cycle`, reusing its body ([`Packet::make_response`]). The one
    /// statement of what a response inherits from its request: the
    /// device-entry stamp, so host-observed latency spans the whole round
    /// trip, and the arrival link, so it leaves on the link the request
    /// came in on (the link-stream association of §III.C). It travels
    /// back to the cube the request came from; everything else — hop
    /// count, decoded coordinates, link-retry state — starts afresh.
    ///
    /// # Panics
    /// Panics if `cmd` is not a response command.
    pub fn into_response(
        self,
        cmd: Command,
        status: ResponseStatus,
        data: &[u8],
        device: CubeId,
        cycle: Cycle,
    ) -> QueueEntry {
        let mut packet = self.packet;
        packet
            .make_response(cmd, status, data)
            .expect("responses are built from response commands");
        QueueEntry {
            entry_cycle: self.entry_cycle,
            arrival_link: self.arrival_link,
            ..QueueEntry::with_body(packet, device, self.src_cube, cycle)
        }
    }

    /// True once the crossbar has resolved vault/bank coordinates.
    pub fn is_decoded(&self) -> bool {
        self.dest_vault != UNDECODED
    }

    /// True while the entry is held for link retransmission at `clock`:
    /// the crossbar already detected a corruption and armed
    /// `retry_until`, and the retry timer has not yet expired. The gate
    /// holds regardless of whether the in-flight retransmission is
    /// itself fated to arrive corrupt (`corrupt` pre-decides the next
    /// attempt's fate; it is only *observable* once the timer expires
    /// and the walk re-checks the head). An undetected corruption
    /// (`corrupt` with a lapsed timer) is *not* gated — its detection
    /// is itself an observable state change the crossbar walk must
    /// perform. Shared by the stepped walk (which breaks the link on a
    /// gated head) and the fast-forward horizon (which treats the gated
    /// span as dead time).
    pub fn retry_gated(&self, clock: Cycle) -> bool {
        self.retry_until > clock
    }
}

/// The simulation's packet bodies: one free list, owned by
/// [`HmcSim`](crate::sim::HmcSim). A body is created the first time the
/// list is empty and recycled for ever after, so the steady state
/// allocates nothing and the resident set follows the live high-water
/// mark — nothing is created ahead of use. Every place an entry dies
/// hands its body back with [`BodyPool::give`]; one that is dropped
/// instead is simply freed. Nothing the simulation computes depends on
/// which body a packet lands in; only `check_invariants` counts them
/// (`packet bodies:`), so that a path that starts leaking is noticed.
#[derive(Debug, Default)]
pub struct BodyPool {
    // Boxes, not packets: a body moves between the list and an entry as
    // one pointer, and it is the allocation itself that is recycled.
    #[allow(clippy::vec_box)]
    free: Vec<Box<Packet>>,
    created: u64,
}

impl BodyPool {
    /// Size the free list for `slots` bodies in all, so that it never
    /// grows while bodies come and go: the device's queue slots bound how
    /// many are alive at once, plus the one a send holds while it is
    /// refused. Reserves room for pointers only; no body is created
    /// before a packet needs it.
    pub fn reserve(&mut self, slots: usize) {
        self.free
            .reserve((slots + 1).saturating_sub(self.free.len()));
    }

    /// A body holding `packet`: a recycled one, else a new one.
    pub fn take(&mut self, packet: Packet) -> Box<Packet> {
        match self.free.pop() {
            Some(mut body) => {
                *body = packet;
                body
            }
            None => {
                self.created += 1;
                Box::new(packet)
            }
        }
    }

    /// A body as it is — still holding whatever packet it last carried,
    /// for the caller to overwrite whole ([`Packet::fill_request`]) — or
    /// a new, zeroed one.
    pub fn take_any(&mut self) -> Box<Packet> {
        self.free.pop().unwrap_or_else(|| {
            self.created += 1;
            Box::default()
        })
    }

    /// Recycle the body of an entry that has left the simulation.
    pub fn give(&mut self, body: Box<Packet>) {
        self.free.push(body);
    }

    /// Bodies created and not [forgotten](BodyPool::forget).
    pub fn created(&self) -> u64 {
        self.created
    }

    /// Bodies waiting on the free list.
    pub fn free(&self) -> usize {
        self.free.len()
    }

    /// `dropped` resident bodies were freed along with the queues that
    /// held them (a device reset, a fabric swapped out under traffic):
    /// they are no longer anyone's to give back.
    pub fn forget(&mut self, dropped: usize) {
        self.created = self.created.saturating_sub(dropped as u64);
    }
}

/// Route key of a slot the crossbar walk has not classified (or whose
/// classification is not memoizable: flow, MODE, remote, erroneous,
/// corrupt or retry-gated packets), as [`PacketQueue::route_key`]
/// decodes it.
pub const NO_ROUTE: u16 = u16::MAX;

/// Route class bit of a slot the crossbar walk has not classified: bit
/// 63, which no vault's bit ever is (vault ids stay below 32).
pub const UNCLASSIFIED: u64 = 1 << 63;

/// A word a queue slot carries beside its entry, and what the queue keeps
/// about its words as a whole: the [`Census`](SlotWord::Census), which
/// every operation that adds, drops or rewrites a word keeps in step
/// (push, pop, remove, compact, clear, [`PacketQueue::set_word`]). A word
/// type that needs no census keeps `()`, and its queue stays the size
/// it was.
pub trait SlotWord: Copy {
    /// The summary of the words in one queue.
    type Census: std::fmt::Debug + Default;

    /// `word` entered the queue.
    #[inline(always)]
    fn enter(_census: &mut Self::Census, _word: Self) {}

    /// `word` left the queue.
    #[inline(always)]
    fn leave(_census: &mut Self::Census, _word: Self) {}
}

impl SlotWord for () {
    type Census = ();
}

/// The route classes of one crossbar request queue, counted: how many
/// slots hold each class bit ([`UNCLASSIFIED`] included) and the mask of
/// the classes present. A class word has exactly one bit set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassCensus {
    counts: [u16; 64],
    present: u64,
}

impl Default for ClassCensus {
    fn default() -> Self {
        ClassCensus {
            counts: [0; 64],
            present: 0,
        }
    }
}

impl ClassCensus {
    /// The census of `classes`, counted afresh (what `check_invariants`
    /// holds a queue's kept census against).
    pub fn of(classes: impl IntoIterator<Item = u64>) -> Self {
        let mut census = ClassCensus::default();
        classes.into_iter().for_each(|class| census.add(class));
        census
    }

    /// The union of the classes counted.
    #[inline]
    pub fn classes(&self) -> u64 {
        self.present
    }

    #[inline(always)]
    fn add(&mut self, class: u64) {
        debug_assert!(class.is_power_of_two(), "a class is one bit");
        self.counts[class.trailing_zeros() as usize] += 1;
        self.present |= class;
    }

    #[inline(always)]
    fn sub(&mut self, class: u64) {
        let count = &mut self.counts[class.trailing_zeros() as usize];
        *count -= 1;
        if *count == 0 {
            self.present &= !class;
        }
    }
}

/// A crossbar request queue's word is its route class (see the
/// `PacketQueue<u64>` methods), counted in a [`ClassCensus`].
impl SlotWord for u64 {
    type Census = ClassCensus;

    #[inline(always)]
    fn enter(census: &mut ClassCensus, class: u64) {
        census.add(class);
    }

    #[inline(always)]
    fn leave(census: &mut ClassCensus, class: u64) {
        census.sub(class);
    }
}

/// A fixed-depth FIFO of queue slots, each holding a packet and one word
/// `W` its owner keeps about it (see the module docs). Every operation
/// that moves slots moves the words with them; the words sit in a ring
/// of their own, so a scan that reads them alone touches no entry. The
/// queue keeps its words' [census](SlotWord::Census) in step.
///
/// A slot may be *vacated* in place ([`PacketQueue::vacate`]): its packet
/// moves out, while the slot and its word keep their index until
/// [`PacketQueue::compact`] drops every vacated slot in one pass; until
/// then the queue takes pushes only. A vacated slot counts toward
/// [`len`](PacketQueue::len); reading its entry panics.
#[derive(Debug)]
pub struct PacketQueue<W: SlotWord = ()> {
    depth: usize,
    slots: VecDeque<Option<QueueEntry>>,
    words: VecDeque<W>,
    census: W::Census,
    /// Bit `i % 64` of word `i / 64` marks slot `i` vacated (grown on use).
    vacated: Vec<u64>,
}

// The census costs nothing where a word type keeps none.
const _: () = assert!(std::mem::size_of::<PacketQueue<()>>() <= 96);

const VACATED: &str = "a vacated slot is compacted before it is read";

fn live(slot: &Option<QueueEntry>) -> &QueueEntry {
    slot.as_ref().expect(VACATED)
}

impl<W: SlotWord> PacketQueue<W> {
    /// Create a queue of `depth` slots.
    ///
    /// # Panics
    /// Panics if `depth` is zero — "there must exist at least one queue
    /// slot for each logical queue representation" (§IV.A).
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "queues must have at least one slot");
        PacketQueue {
            depth,
            slots: VecDeque::with_capacity(depth),
            words: VecDeque::with_capacity(depth),
            census: W::Census::default(),
            vacated: Vec::new(),
        }
    }

    /// Configured slot count.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot is valid.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True when every slot is valid (arrivals must stall).
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.depth
    }

    /// Free slots remaining.
    pub fn free_slots(&self) -> usize {
        self.depth - self.slots.len()
    }

    /// Enqueue at the tail with its word; returns the entry back on
    /// overflow so the caller can leave it in its upstream queue (a
    /// stall).
    pub fn push_with(&mut self, entry: QueueEntry, word: W) -> Result<(), QueueEntry> {
        if self.is_full() {
            return Err(entry);
        }
        self.slots.push_back(Some(entry));
        self.words.push_back(word);
        W::enter(&mut self.census, word);
        Ok(())
    }

    /// Dequeue from the head.
    pub fn pop(&mut self) -> Option<QueueEntry> {
        let word = self.words.pop_front()?;
        W::leave(&mut self.census, word);
        self.slots.pop_front().map(|slot| slot.expect(VACATED))
    }

    /// Peek at the head without removing.
    pub fn front(&self) -> Option<&QueueEntry> {
        self.slots.front().map(live)
    }

    /// Peek at slot `i` (0 = head).
    pub fn get(&self, i: usize) -> Option<&QueueEntry> {
        self.slots.get(i).map(live)
    }

    /// Mutable peek at slot `i` (0 = head).
    pub fn get_mut(&mut self, i: usize) -> Option<&mut QueueEntry> {
        Some(self.slots.get_mut(i)?.as_mut().expect(VACATED))
    }

    /// The word of slot `i` (0 = head); panics if there is no slot `i`.
    pub fn word(&self, i: usize) -> W {
        self.words[i]
    }

    /// Replace the word of slot `i` (0 = head); panics if there is none.
    pub fn set_word(&mut self, i: usize, word: W) {
        let old = std::mem::replace(&mut self.words[i], word);
        W::leave(&mut self.census, old);
        W::enter(&mut self.census, word);
    }

    /// The census of every slot's word.
    pub fn census(&self) -> &W::Census {
        &self.census
    }

    /// The census, to be set out of step by a test of the checker that
    /// must notice.
    #[cfg(test)]
    pub(crate) fn census_mut(&mut self) -> &mut W::Census {
        &mut self.census
    }

    /// Every slot's word, head first.
    pub fn words(&self) -> impl Iterator<Item = W> + '_ {
        self.words.iter().copied()
    }

    /// Remove slot `i` (0 = head), preserving the order of the rest.
    /// Used by the crossbar's pass-ahead walk, where a stalled packet may
    /// be passed by later packets bound elsewhere (§III.C weak ordering).
    pub fn remove(&mut self, i: usize) -> Option<QueueEntry> {
        let word = self.words.remove(i)?;
        W::leave(&mut self.census, word);
        self.slots.remove(i).map(|slot| slot.expect(VACATED))
    }

    /// Move the packet out of slot `i`, leaving the slot vacated in place
    /// (see the type docs); panics if there is no such packet.
    pub fn vacate(&mut self, i: usize) -> QueueEntry {
        self.vacated.resize(self.vacated.len().max(i / 64 + 1), 0);
        self.vacated[i / 64] |= 1 << (i % 64);
        self.slots[i].take().expect("a slot is vacated once")
    }

    /// Drop every vacated slot and its word, preserving the order of the
    /// rest; `removed(i)` hears of each, highest index first.
    pub fn compact(&mut self, mut removed: impl FnMut(usize)) {
        for w in (0..self.vacated.len()).rev() {
            while self.vacated[w] != 0 {
                let i = w * 64 + 63 - self.vacated[w].leading_zeros() as usize;
                self.vacated[w] &= !(1 << (i % 64));
                self.slots.remove(i);
                let word = self.words.remove(i).expect("a vacated slot is in the ring");
                W::leave(&mut self.census, word);
                removed(i);
            }
        }
    }

    /// Iterate entries head-to-tail.
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        self.slots.iter().map(live)
    }

    /// Total FLITs resident across all occupied slots. Token-conservation
    /// checks compare this against the FLITs outstanding on the feeding
    /// link.
    pub fn resident_flits(&self) -> u32 {
        self.iter().map(|e| e.packet.lng() as u32).sum()
    }

    /// Drop every entry (device reset).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.words.clear();
        self.census = W::Census::default();
        self.vacated.fill(0);
    }
}

impl PacketQueue {
    /// Enqueue at the tail; returns the entry back on overflow so the
    /// caller can leave it in its upstream queue (a stall).
    pub fn push(&mut self, entry: QueueEntry) -> Result<(), QueueEntry> {
        self.push_with(entry, ())
    }
}

/// A crossbar request queue: each slot's word is its *route class*, in
/// which the crossbar request walk memoizes "clean local memory request
/// for vault *v*" as bit *v* ([`UNCLASSIFIED`] on arrival), so a later
/// walk can tell a stalled slot is still stalled with one AND and without
/// touching the entry. The queue counts its classes ([`ClassCensus`]),
/// so the walk and the crossbar gate learn which classes are present
/// without reading a slot.
impl PacketQueue<u64> {
    /// Enqueue at the tail; the new slot is unclassified.
    pub fn push(&mut self, entry: QueueEntry) -> Result<(), QueueEntry> {
        self.push_with(entry, UNCLASSIFIED)
    }

    /// Route class of slot `i`: bit *v* when it is keyed to vault *v*,
    /// [`UNCLASSIFIED`] when it is not keyed or there is no such slot.
    pub fn route_class(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(UNCLASSIFIED)
    }

    /// Route key of slot `i`: the vault its class bit names, or
    /// [`NO_ROUTE`] when it is unclassified.
    pub fn route_key(&self, i: usize) -> u16 {
        match self.route_class(i) {
            UNCLASSIFIED => NO_ROUTE,
            class => class.trailing_zeros() as u16,
        }
    }

    /// The union of every slot's route class: [`UNCLASSIFIED`] is in it
    /// when some slot is unclassified, and bit *v* when some slot is
    /// keyed to vault *v*. Read off the queue's [`ClassCensus`] in
    /// constant time.
    #[inline]
    pub fn class_union(&self) -> u64 {
        self.census.classes()
    }

    /// The first slot at or after `from` that a stall-aware walk must
    /// visit — one whose class has a bit clear in the `held` mask (bit
    /// *v* for vault *v*; never [`UNCLASSIFIED`], so an unclassified
    /// slot is always visited) — or [`len`](PacketQueue::len) when every
    /// remaining slot is keyed and held (`from` itself when it is already
    /// past the end). Reads the classes only, as the ring buffer's two
    /// contiguous runs, four slots per branch. A caller that must know
    /// only whether any slot is left to visit asks
    /// [`class_union`](PacketQueue::class_union)` & !held` instead, in
    /// constant time: it is zero exactly when this returns `len` from
    /// the head.
    pub fn next_unblocked(&self, from: usize, held: u64) -> usize {
        debug_assert_eq!(held & UNCLASSIFIED, 0, "held names vaults only");
        let (head, tail) = self.words.as_slices();
        let h = from.min(head.len());
        let t = (from - h).min(tail.len());
        first_unheld(&head[h..], held)
            .map(|p| h + p)
            .or_else(|| first_unheld(&tail[t..], held).map(|p| head.len() + t + p))
            .unwrap_or(from.max(self.words.len()))
    }

    /// Memoize slot `i`'s route: the class bit, and the decoded
    /// coordinates in the entry, are written together so they can never
    /// disagree.
    ///
    /// # Panics
    /// Panics if there is no slot `i`.
    pub fn set_route(&mut self, i: usize, vault: VaultId, bank: BankId, row: u64) {
        debug_assert!(vault < 63, "vault bits stay clear of UNCLASSIFIED");
        self.set_word(i, 1 << vault);
        let e = self.get_mut(i).expect("a slot to route");
        e.dest_vault = vault;
        e.dest_bank = bank;
        e.dest_row = row;
    }

    /// Forget every memoized route (the address map changed): keyed
    /// slots return to [`UNCLASSIFIED`] and their entries to undecoded,
    /// so the next walk re-decodes them under the new map.
    pub fn forget_routes(&mut self) {
        for i in 0..self.len() {
            if self.word(i) != UNCLASSIFIED {
                self.set_word(i, UNCLASSIFIED);
                let e = self.get_mut(i).expect("i < len");
                e.dest_vault = UNDECODED;
                e.dest_bank = UNDECODED;
                e.dest_row = 0;
            }
        }
    }
}

/// The position of the first class in `classes` with a bit outside
/// `held`. Four classes are tested per branch: on a congested fabric
/// nearly every slot is held, and the scan runs long.
#[inline(always)]
fn first_unheld(classes: &[u64], held: u64) -> Option<usize> {
    let free = |class: &u64| class & !held != 0;
    let mut quads = classes.chunks_exact(4);
    for (n, c) in quads.by_ref().enumerate() {
        if (c[0] | c[1] | c[2] | c[3]) & !held != 0 {
            return c.iter().position(free).map(|p| 4 * n + p);
        }
    }
    let rest = quads.remainder();
    rest.iter()
        .position(free)
        .map(|p| classes.len() - rest.len() + p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::{BlockSize, Command};

    fn entry(tag: u16) -> QueueEntry {
        let p = Packet::request(Command::Rd(BlockSize::B16), 0, 0, tag, 0, &[]).unwrap();
        QueueEntry::new(p, 5, 0, 0)
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = PacketQueue::<()>::new(4);
        for t in 0..4 {
            q.push(entry(t)).unwrap();
        }
        for t in 0..4 {
            assert_eq!(q.pop().unwrap().packet.tag(), t);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_returns_the_entry() {
        let mut q = PacketQueue::<()>::new(2);
        q.push(entry(0)).unwrap();
        q.push(entry(1)).unwrap();
        assert!(q.is_full());
        let back = q.push(entry(2)).unwrap_err();
        assert_eq!(back.packet.tag(), 2, "rejected entry comes back intact");
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_depth_rejected() {
        PacketQueue::<()>::new(0);
    }

    #[test]
    fn single_slot_queue_works() {
        // The minimum legal queue: one slot (§IV.A).
        let mut q = PacketQueue::<()>::new(1);
        q.push(entry(9)).unwrap();
        assert!(q.is_full());
        assert_eq!(q.pop().unwrap().packet.tag(), 9);
        assert!(q.is_empty());
    }

    #[test]
    fn remove_preserves_order_of_rest() {
        let mut q = PacketQueue::<()>::new(4);
        for t in 0..4 {
            q.push(entry(t)).unwrap();
        }
        let removed = q.remove(1).unwrap();
        assert_eq!(removed.packet.tag(), 1);
        let rest: Vec<u16> = std::iter::from_fn(|| q.pop())
            .map(|e| e.packet.tag())
            .collect();
        assert_eq!(rest, vec![0, 2, 3]);
    }

    #[test]
    fn free_slot_accounting() {
        let mut q = PacketQueue::<()>::new(3);
        assert_eq!(q.free_slots(), 3);
        q.push(entry(0)).unwrap();
        assert_eq!(q.free_slots(), 2);
        q.pop();
        assert_eq!(q.free_slots(), 3);
    }

    #[test]
    fn entry_metadata_defaults() {
        let e = entry(3);
        assert_eq!(e.src_cube, 5);
        assert_eq!(e.hops, 0);
        assert!(!e.is_decoded());
        assert_eq!(e.dest_vault, UNDECODED);
    }

    /// Every field of an entry, the packet by value.
    #[allow(clippy::type_complexity)]
    fn fields(
        e: &QueueEntry,
    ) -> (
        Packet,
        (Cycle, Cycle, LinkId),
        (CubeId, CubeId, u32),
        (VaultId, BankId, u64),
        (bool, Cycle, u32, u64),
    ) {
        (
            (*e.packet).clone(),
            (e.entry_cycle, e.arrival_cycle, e.arrival_link),
            (e.src_cube, e.dest_cube, e.hops),
            (e.dest_vault, e.dest_bank, e.dest_row),
            (e.corrupt, e.retry_until, e.attempt, e.send_seq),
        )
    }

    #[test]
    fn a_response_built_in_place_is_the_entry_built_afresh() {
        let payload: Vec<u8> = (0..128u8).map(|i| i.wrapping_mul(37) | 1).collect();
        let mut responses = vec![
            (Command::WrResponse, ResponseStatus::Ok, 0),
            (Command::ModeReadResponse, ResponseStatus::Ok, 16),
            (Command::ModeWriteResponse, ResponseStatus::Ok, 0),
        ];
        responses
            .extend(BlockSize::ALL.map(|bs| (Command::RdResponse, ResponseStatus::Ok, bs.bytes())));
        responses.extend(ResponseStatus::ALL.map(|s| (Command::ErrorResponse, s, 0)));

        let (host, device) = (6, 1);
        for cmd in Command::all().into_iter().filter(|c| c.is_request()) {
            for (tag, slid) in [(0, 0), (1, 7), (0x155, 2), (0x1ff, 5)] {
                for &(rsp, status, len) in &responses {
                    let data = &payload[..cmd.request_data_bytes()];
                    let p = Packet::request(cmd, device, 0x40, tag, slid, data).unwrap();
                    // A request that has been everywhere: forwarded,
                    // routed, corrupted and retried.
                    let request = QueueEntry {
                        entry_cycle: 11,
                        arrival_cycle: 12,
                        arrival_link: 3,
                        hops: 2,
                        dest_vault: 5,
                        dest_bank: 4,
                        dest_row: 77,
                        corrupt: true,
                        retry_until: 99,
                        attempt: 2,
                        send_seq: 1234,
                        ..QueueEntry::new(p, host, device, 11)
                    };
                    let body: *const Packet = &*request.packet;
                    let answer = &payload[128 - len..];
                    let got = request.into_response(rsp, status, answer, device, 40);
                    assert!(std::ptr::eq(&*got.packet, body), "the same body, rewritten");

                    // What the four call sites used to spell out.
                    let fresh = Packet::response(rsp, tag, slid, status, answer).unwrap();
                    let mut want = QueueEntry::new(fresh, device, host, 40);
                    want.entry_cycle = 11;
                    want.arrival_link = 3;
                    assert_eq!(
                        fields(&got),
                        fields(&want),
                        "{cmd:?} answered by {rsp:?}/{status:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_pool_hands_back_the_bodies_it_was_given() {
        let mut pool = BodyPool::default();
        pool.reserve(4);
        let a = pool.take(entry(1).packet.as_ref().clone());
        let b = pool.take(entry(2).packet.as_ref().clone());
        assert_eq!((pool.created(), pool.free()), (2, 0));
        let (a_at, b_at): (*const Packet, *const Packet) = (&*a, &*b);
        pool.give(a);
        pool.give(b);
        assert_eq!((pool.created(), pool.free()), (2, 2));
        // Last in, first out; the recycled body holds the new packet.
        let c = pool.take(entry(3).packet.as_ref().clone());
        assert!(std::ptr::eq(&*c, b_at));
        assert_eq!(c.tag(), 3);
        let d = pool.take(entry(4).packet.as_ref().clone());
        assert!(std::ptr::eq(&*d, a_at));
        assert_eq!(
            (pool.created(), pool.free()),
            (2, 0),
            "nothing new was needed"
        );
        // `take_any` hands a recycled body back as it was left, and makes
        // a zeroed one when the list is empty.
        pool.give(d);
        let e = pool.take_any();
        assert!(std::ptr::eq(&*e, a_at));
        assert_eq!(e.tag(), 4, "not cleared: the filler overwrites it whole");
        let f = pool.take_any();
        assert_eq!(*f, Packet::default());
        assert_eq!((pool.created(), pool.free()), (3, 0));
        // Three residents dropped with their queue, not given back.
        drop((c, e, f));
        pool.forget(3);
        assert_eq!((pool.created(), pool.free()), (0, 0));
    }

    #[test]
    fn retry_gating_tracks_timer_and_corruption() {
        let mut e = entry(1);
        assert!(!e.retry_gated(0), "fresh entries are not gated");
        e.retry_until = 10;
        assert!(e.retry_gated(5));
        assert!(e.retry_gated(9));
        assert!(!e.retry_gated(10), "timer expiry cycle is live");
        e.corrupt = true;
        assert!(
            e.retry_gated(5),
            "an armed timer gates even when the in-flight retransmission is fated corrupt"
        );
        assert!(
            !e.retry_gated(10),
            "undetected corruption with a lapsed timer is live work"
        );
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = PacketQueue::<()>::new(4);
        q.push(entry(0)).unwrap();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.free_slots(), 4);
    }

    #[test]
    fn get_and_iter_view_slots_in_order() {
        let mut q = PacketQueue::<()>::new(4);
        for t in 0..3 {
            q.push(entry(t)).unwrap();
        }
        assert_eq!(q.get(0).unwrap().packet.tag(), 0);
        assert_eq!(q.get(2).unwrap().packet.tag(), 2);
        assert!(q.get(3).is_none());
        let tags: Vec<u16> = q.iter().map(|e| e.packet.tag()).collect();
        assert_eq!(tags, vec![0, 1, 2]);
    }

    /// `(tag, route key)` of every slot, head first.
    fn keyed(q: &PacketQueue<u64>) -> Vec<(u16, u16)> {
        (0..q.len())
            .map(|i| (q.get(i).unwrap().packet.tag(), q.route_key(i)))
            .collect()
    }

    #[test]
    fn route_keys_stay_in_lock_step_with_their_slots() {
        let mut q = PacketQueue::<u64>::new(8);
        for t in 0..5 {
            q.push(entry(t)).unwrap();
        }
        assert!(
            keyed(&q).iter().all(|&(_, k)| k == NO_ROUTE),
            "NO_ROUTE on arrival"
        );
        assert_eq!(q.class_union(), UNCLASSIFIED);
        for i in 1..5 {
            q.set_route(i, 10 + i as u16, i as u16, 100 + i as u64);
        }
        assert_eq!(
            keyed(&q),
            [(0, NO_ROUTE), (1, 11), (2, 12), (3, 13), (4, 14)]
        );
        assert_eq!(
            (q.route_class(0), q.route_class(2)),
            (UNCLASSIFIED, 1 << 12)
        );
        let e = q.get(3).unwrap();
        assert_eq!((e.dest_vault, e.dest_bank, e.dest_row), (13, 3, 103));

        assert_eq!(q.remove(2).unwrap().packet.tag(), 2);
        assert_eq!(keyed(&q), [(0, NO_ROUTE), (1, 11), (3, 13), (4, 14)]);
        assert_eq!(q.remove(0).unwrap().packet.tag(), 0);
        assert_eq!(keyed(&q), [(1, 11), (3, 13), (4, 14)]);
        assert_eq!(q.class_union(), 1 << 11 | 1 << 13 | 1 << 14);
        q.push(entry(7)).unwrap();
        assert_eq!(keyed(&q), [(1, 11), (3, 13), (4, 14), (7, NO_ROUTE)]);
        assert!(q.remove(5).is_none(), "out of range removes nothing");
        assert_eq!(keyed(&q).len(), 4);
        assert_eq!(q.route_class(4), UNCLASSIFIED, "no such slot");

        // A pre-decoded but unkeyed entry keeps its coordinates; keyed
        // ones go back to undecoded.
        q.get_mut(3).unwrap().dest_vault = 3;
        q.forget_routes();
        assert!(keyed(&q).iter().all(|&(_, k)| k == NO_ROUTE));
        assert_eq!(q.get(3).unwrap().dest_vault, 3);
        assert!((0..3).all(|i| !q.get(i).unwrap().is_decoded()));

        q.set_route(1, 4, 0, 0);
        q.clear();
        q.push(entry(5)).unwrap();
        assert_eq!(keyed(&q), [(5, NO_ROUTE)], "clear drops the classes too");
    }

    #[test]
    fn next_unblocked_passes_over_keyed_blocked_slots_only() {
        let mut q = PacketQueue::<u64>::new(8);
        for t in 0..5 {
            q.push(entry(t)).unwrap();
        }
        for (i, vault) in [(1, 11), (2, 12), (4, 11)] {
            q.set_route(i, vault, 0, 0);
        }
        // Slots: unkeyed, 11, 12, unkeyed, 11. Every vault held:
        let all = !UNCLASSIFIED;
        assert_eq!(
            q.next_unblocked(0, all),
            0,
            "unkeyed slots are always visited"
        );
        assert_eq!(q.next_unblocked(1, all), 3);
        assert_eq!(q.next_unblocked(1, 1 << 11), 2, "vault 12 is not held back");
        assert_eq!(q.next_unblocked(1, 0), 1);
        assert_eq!(
            q.next_unblocked(4, 1 << 11),
            5,
            "len() when nothing is left"
        );
        assert_eq!(q.next_unblocked(5, all), 5);
        assert_eq!(q.next_unblocked(7, all), 7, "past the end stays put");
    }

    /// The key scan as it stood before class bits: one decoded `u16` key
    /// and one predicate call per slot.
    fn next_unblocked_reference(
        q: &PacketQueue<u64>,
        from: usize,
        blocked: impl Fn(VaultId) -> bool,
    ) -> usize {
        let mut i = from;
        while i < q.len() {
            let key = q.route_key(i);
            if key == NO_ROUTE || !blocked(key) {
                break;
            }
            i += 1;
        }
        i
    }

    #[test]
    fn the_mask_scan_matches_the_per_slot_scan_across_every_ring_split() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
        // Deep enough that each contiguous run holds several four-slot
        // chunks and a remainder.
        let depth = 13;
        let mut splits = std::collections::BTreeSet::new();
        let mut checked = 0u64;
        for len in 0..=depth {
            // Rotate the ring's head through every offset, so the
            // occupied run wraps at every possible point.
            for offset in 0..PacketQueue::<u64>::new(depth).words.capacity() {
                let mut q = PacketQueue::<u64>::new(depth);
                for _ in 0..offset {
                    q.push(entry(0)).unwrap();
                    q.remove(0).unwrap();
                }
                for i in 0..len {
                    q.push(entry(i as u16)).unwrap();
                    // A few vaults (so held runs are long) plus
                    // unclassified slots; vault 31 is the highest bit.
                    match next(6) {
                        0 => {}
                        5 => q.set_route(i, 31, 0, 0),
                        v => q.set_route(i, v as u16 * 7, 0, 0),
                    }
                }
                let head = q.words.as_slices().0.len();
                splits.insert((len, head));
                for _ in 0..8 {
                    let held = match next(4) {
                        0 => 0,
                        1 => !UNCLASSIFIED,
                        _ => (next(u64::MAX) | next(u64::MAX) << 31) & !UNCLASSIFIED,
                    };
                    let blocked = |v: VaultId| held >> v & 1 != 0;
                    for from in [0, head, head.saturating_sub(1), head + 1, len, len + 3]
                        .into_iter()
                        .chain((0..=len).filter(|_| next(3) == 0))
                    {
                        assert_eq!(
                            q.next_unblocked(from, held),
                            next_unblocked_reference(&q, from, blocked),
                            "len {len}, head run {head}, from {from}, held {held:#x}, classes {:x?}",
                            q.words
                        );
                        checked += 1;
                    }
                }
            }
        }
        // Every full queue was seen split at every point.
        assert!((1..=depth).all(|h| splits.contains(&(depth, h))));
        assert!(checked > 10_000);
    }
}
