//! Vault controllers.
//!
//! "The vault structure maps directly to the notion of a vertically stacked
//! vault unit within the HMC specification. Each vault contains response
//! and request queues whose respective depths are configured at
//! initialization time in order to mimic the presence of a vault
//! controller. Each vault also contains a reference to a block of memory
//! bank structures" (paper §IV.A).
//!
//! A vault's packet-execution path (sub-cycle stage 4) processes write
//! packets, read packets and atomic (read-modify-write) packets "in
//! equivalent and constant time as long as their bank addressing does not
//! conflict" (§IV.C.4), registering responses in the vault response queue.

use std::collections::VecDeque;

use hmc_mem::{CellFaultState, VaultMemory};
use hmc_types::address::AddressMap;
use hmc_types::packet::ResponseStatus;
use hmc_types::{Command, CubeId, Cycle, PhysAddr, VaultId};

use crate::queue::{BodyPool, PacketQueue, QueueEntry};
use crate::timing::{ClassicTiming, VaultTiming};

/// Largest data payload a packet can carry (eight 16-byte data FLITs of
/// the maximal nine-FLIT packet) — sizes the stack staging buffers.
const MAX_BLOCK_BYTES: usize = 128;

/// Per-vault operation counters: the one place an access is counted.
/// Device totals, the utilization report, the energy model and the row
/// fields of [`crate::SimStats`] are sums of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VaultStats {
    /// Reads processed.
    pub reads: u64,
    /// Writes processed (including posted).
    pub writes: u64,
    /// Atomics processed (including posted).
    pub atomics: u64,
    /// Error responses generated.
    pub errors: u64,
    /// Accesses the timing backend granted on an already-open row (DDR
    /// backend only; the classic backend models no row buffer).
    pub row_hits: u64,
    /// Accesses that had to activate a row first (row misses and row
    /// conflicts; DDR backend only).
    pub row_misses: u64,
    /// Precharge commands the timing backend issued (DDR backend only).
    pub precharges: u64,
}

impl VaultStats {
    /// Requests fully processed by this vault.
    pub fn processed(&self) -> u64 {
        self.reads + self.writes + self.atomics
    }
}

/// The result of executing one request packet at a vault.
///
/// Response entries are registered directly in the vault's response
/// queue by [`Vault::execute`]; this enum only reports *what happened*
/// so stage 4 can stage trace events and error-register updates without
/// a heap-allocated hand-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Execution {
    /// The request completed; no response is owed (posted commands).
    Done,
    /// The request completed and a normal response was registered in
    /// the vault response queue.
    Responded,
    /// The request failed with the given status. An error response was
    /// registered in the vault response queue unless the command is
    /// posted; stage 4 traces and counts the failure either way.
    Failed(ResponseStatus),
}

/// A response whose data is not ready yet: the timing backend granted
/// the access at issue time but the column data lands `data_ready`
/// cycles later. Held by the vault until release into [`Vault::rsp`].
#[derive(Debug)]
pub struct PendingRsp {
    /// Cycle the response may enter the response queue.
    pub ready_at: Cycle,
    /// Issue order within this vault (ties on `ready_at` release in
    /// issue order, preserving per-bank stream order).
    pub seq: u64,
    /// The finished response entry.
    pub entry: QueueEntry,
}

/// One vault: controller queues plus the memory bank stack.
#[derive(Debug)]
pub struct Vault {
    /// Vault index on the device.
    pub id: VaultId,
    /// Request queue (from the crossbar). Arrivals enter through
    /// [`Vault::push_request`] and nothing else, so a sleeping vault
    /// hears of every one that matters (and through
    /// `device::push_request`, which keeps the device's full-vault
    /// mask).
    pub rqst: PacketQueue,
    /// Response queue (toward the crossbar).
    pub rsp: PacketQueue,
    /// Responses issued but not yet data-ready, ordered by (`ready_at`,
    /// issue order) so the head is the next to release (always empty
    /// under the classic backend, which returns data the cycle it
    /// issues, so it is allocated on first use rather than at build).
    pub pending: VecDeque<PendingRsp>,
    /// Issue-order counter for `pending` tie-breaks.
    pub pending_seq: u64,
    /// The bank stack.
    pub mem: VaultMemory,
    /// The timing backend deciding when requests issue and data returns.
    pub timing: Box<dyn VaultTiming>,
    /// Cell-fault injection state (RowHammer + retention), installed by
    /// the simulation when `SimParams::cell_faults` is set. One per
    /// vault: it tracks that vault's rows and writes into `mem`.
    pub faults: Option<Box<CellFaultState>>,
    /// Operation counters.
    pub stats: VaultStats,
    /// The walk's cached sleep edge: a lower bound on the first cycle at
    /// which this vault's stage-3/4 walk can issue or stage anything,
    /// given that no request arrives inside its scan window first. While
    /// the clock is short of it the tick skips the walk, and the
    /// fast-forward horizon reads it instead of scanning. `0` is awake
    /// (the next tick runs its walk), [`Cycle::MAX`] asleep with no edge
    /// of its own (an empty queue). The data-ready edge is not part of
    /// it: that is the head of [`Vault::pending`], read in O(1) where it
    /// is needed ([`Vault::asleep`]), and a release never changes what
    /// the walk finds. Like [`VaultTiming::blocked_until`], whose edges it
    /// is the minimum of, it may be early — the walk runs, finds nothing
    /// and sleeps again — but never late. Written by every tick that ran
    /// its walk, dropped by [`Vault::wake`]; DESIGN.md "The sleeping
    /// vault".
    pub(crate) wake_at: Cycle,
}

impl Vault {
    /// Create vault `id` with `depth`-slot controller queues over the
    /// given bank stack, running the classic (constant-time) backend
    /// until the simulation installs another.
    pub fn new(id: VaultId, depth: usize, mem: VaultMemory) -> Self {
        Vault {
            id,
            rqst: PacketQueue::new(depth),
            rsp: PacketQueue::new(depth),
            pending: VecDeque::new(),
            pending_seq: 0,
            mem,
            timing: Box::new(ClassicTiming::new()),
            faults: None,
            stats: VaultStats::default(),
            wake_at: 0,
        }
    }

    /// Enqueue a request arriving from the crossbar or the NoC; a full
    /// queue hands the entry back. An arrival that lands inside the
    /// `window` slots stage 4 scans per cycle wakes a sleeping vault: it
    /// may be issuable at once. One that lands beyond the window changes
    /// nothing the walk reads before the window's own edge, so the vault
    /// sleeps on.
    pub fn push_request(&mut self, entry: QueueEntry, window: usize) -> Result<(), QueueEntry> {
        if self.rqst.len() < window {
            self.wake();
        }
        self.rqst.push(entry)
    }

    /// Drop the cached sleep edge: the next tick runs its walk.
    pub(crate) fn wake(&mut self) {
        self.wake_at = 0;
    }

    /// True while the stage-3/4 walk at `clock` has provably nothing to
    /// issue or stage (see [`Vault::wake_at`]).
    pub(crate) fn walk_asleep(&self, clock: Cycle) -> bool {
        clock < self.wake_at
    }

    /// True while the whole stage-3/4 tick at `clock` has provably
    /// nothing to do: the walk sleeps and no pending response is
    /// data-ready. The engine does not call a sleeping vault's tick.
    pub(crate) fn asleep(&self, clock: Cycle) -> bool {
        self.walk_asleep(clock) && self.pending.front().is_none_or(|p| p.ready_at > clock)
    }

    /// True when registering another response would overflow the
    /// controller's response capacity: queued responses plus not-yet-
    /// ready pending ones fill every slot. Reduces to `rsp.is_full()`
    /// under the classic backend (`pending` stays empty).
    pub fn rsp_capacity_full(&self) -> bool {
        self.rsp.len() + self.pending.len() >= self.rsp.depth()
    }

    /// Earliest `ready_at` among pending responses (the data-ready term
    /// of the sleep edge).
    pub fn pending_min_ready(&self) -> Option<Cycle> {
        self.pending.front().map(|p| p.ready_at)
    }

    /// Move every pending response whose data is ready at `clock` into
    /// the response queue, in (`ready_at`, issue order), while it has
    /// room. Runs at the start of the vault's stage-4 tick, before new
    /// issues. True when anything moved.
    pub fn release_ready(&mut self, clock: Cycle) -> bool {
        let mut released = false;
        while !self.rsp.is_full() && self.pending.front().is_some_and(|p| p.ready_at <= clock) {
            let mut p = self.pending.pop_front().expect("front checked");
            p.entry.arrival_cycle = clock;
            let _ = self.rsp.push(p.entry);
            released = true;
        }
        released
    }

    /// True when the addressed command will need a response slot.
    pub fn needs_response(cmd: Command) -> bool {
        cmd.response_command().is_some()
    }

    /// Execute one request packet against this vault's banks.
    ///
    /// The caller (stage 4) has already verified bank availability and —
    /// for non-posted commands — a free response-queue slot; any owed
    /// response is built in the request's own body
    /// ([`QueueEntry::into_response`]) and registered directly in
    /// [`Vault::rsp`], and a request that owes none gives its body back
    /// to `bodies`. Failures (bad address, bad command) produce error
    /// response entries rather than simulator errors, mirroring the
    /// device's error response packets (§IV.C). The hot path is
    /// allocation-free: read/write payloads stage through a stack buffer
    /// sized for the maximal nine-FLIT packet.
    ///
    /// `data_ready` is the timing backend's grant for this access: the
    /// cycle the response data becomes available. The classic backend
    /// always grants `data_ready == cycle` (the response registers
    /// immediately); later grants park the response in [`Vault::pending`]
    /// until [`Vault::release_ready`] moves it into the queue.
    pub fn execute(
        &mut self,
        entry: QueueEntry,
        map: &dyn AddressMap,
        device: CubeId,
        cycle: Cycle,
        data_ready: Cycle,
        bodies: &mut BodyPool,
    ) -> Execution {
        let cmd = entry.packet.cmd().ok();
        let decoded = PhysAddr::new(entry.packet.addr()).and_then(|a| map.decode(a));
        let (cmd, decoded) = match (cmd, decoded) {
            (Some(cmd), Ok(decoded)) => (cmd, decoded),
            (cmd, _) => {
                let status = match cmd {
                    None => ResponseStatus::CommandError,
                    Some(_) => ResponseStatus::AddressError,
                };
                return self.error_response(entry, cmd, status, device, cycle, data_ready, bodies);
            }
        };

        // What the banks did, and the payload of the response owed for it.
        let mut buf = [0u8; MAX_BLOCK_BYTES];
        let mut data: &[u8] = &[];
        let outcome = match cmd {
            Command::Rd(bs) => {
                let buf = &mut buf[..bs.bytes()];
                let read = self.mem.read(decoded, buf);
                self.stats.reads += read.is_ok() as u64;
                data = buf;
                read
            }
            Command::Wr(_) | Command::PostedWr(_) => {
                let n = entry.packet.copy_data_to(&mut buf);
                let written = self.mem.write(decoded, &buf[..n]);
                self.stats.writes += written.is_ok() as u64;
                written
            }
            Command::TwoAdd8 | Command::PostedTwoAdd8 => {
                let ops = entry.packet.data_words();
                let added = self.mem.two_add8(decoded, ops[0], ops[1]).map(drop);
                self.stats.atomics += added.is_ok() as u64;
                added
            }
            Command::Add16 | Command::PostedAdd16 => {
                let ops = entry.packet.data_words();
                let op = (ops[0] as u128) | ((ops[1] as u128) << 64);
                let added = self.mem.add16(decoded, op).map(drop);
                self.stats.atomics += added.is_ok() as u64;
                added
            }
            Command::Bwr | Command::PostedBwr => {
                let ops = entry.packet.data_words();
                let (bits, mask) = (ops[0], ops[1]);
                let written = self.mem.bit_write(decoded, bits, mask).map(drop);
                self.stats.atomics += written.is_ok() as u64;
                written
            }
            // MODE accesses are logic-layer operations handled at the
            // crossbar; one arriving here is a protocol violation.
            _ => {
                let status = ResponseStatus::CommandError;
                return self.error_response(
                    entry,
                    Some(cmd),
                    status,
                    device,
                    cycle,
                    data_ready,
                    bodies,
                );
            }
        };
        if outcome.is_err() {
            let status = ResponseStatus::InternalError;
            return self.error_response(
                entry,
                Some(cmd),
                status,
                device,
                cycle,
                data_ready,
                bodies,
            );
        }

        match cmd.response_command() {
            // Posted: the request is done and so is its body.
            None => {
                bodies.give(entry.packet);
                Execution::Done
            }
            Some(rsp) => {
                let rsp = entry.into_response(rsp, ResponseStatus::Ok, data, device, cycle);
                self.register_response(rsp, cycle, data_ready, bodies);
                Execution::Responded
            }
        }
    }

    /// Fail `request` with `status`. `cmd` is its command when that much
    /// decoded.
    #[allow(clippy::too_many_arguments)]
    fn error_response(
        &mut self,
        request: QueueEntry,
        cmd: Option<Command>,
        status: ResponseStatus,
        device: CubeId,
        cycle: Cycle,
        data_ready: Cycle,
        bodies: &mut BodyPool,
    ) -> Execution {
        self.stats.errors += 1;
        // Posted requests owe no response even on failure; the error is
        // only visible through traces and the ERR register, which the
        // stage-4 walk bumps for every failure (`count_error_response`).
        if cmd.is_some_and(Command::is_posted) {
            bodies.give(request.packet);
        } else {
            let rsp = request.into_response(Command::ErrorResponse, status, &[], device, cycle);
            self.register_response(rsp, cycle, data_ready, bodies);
        }
        Execution::Failed(status)
    }

    fn register_response(
        &mut self,
        e: QueueEntry,
        cycle: Cycle,
        data_ready: Cycle,
        bodies: &mut BodyPool,
    ) {
        if data_ready > cycle {
            // Timed backends: the data lands later; park the finished
            // response until `release_ready` moves it into the queue.
            let seq = self.pending_seq;
            self.pending_seq += 1;
            // `seq` only grows, so behind every entry due no later keeps
            // the (`ready_at`, `seq`) order.
            let at = self.pending.partition_point(|p| p.ready_at <= data_ready);
            self.pending.insert(
                at,
                PendingRsp {
                    ready_at: data_ready,
                    seq,
                    entry: e,
                },
            );
            return;
        }
        // Stage 4 verified a free slot before executing a command that
        // owes a response, so this cannot overflow in the engine; a
        // direct caller that ignored the contract just loses the entry.
        if let Err(lost) = self.rsp.push(e) {
            bodies.give(lost.packet);
        }
    }

    /// Drop queue contents and counters; reset banks and the timing
    /// backend (device reset).
    pub fn reset(&mut self) {
        self.rqst.clear();
        self.rsp.clear();
        self.pending.clear();
        self.pending_seq = 0;
        self.mem.reset();
        self.timing.reset();
        if let Some(faults) = &mut self.faults {
            faults.reset();
        }
        self.stats = VaultStats::default();
        self.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::config::StorageMode;
    use hmc_types::{BlockSize, LowInterleaveMap, MapGeometry, Packet};

    fn map() -> LowInterleaveMap {
        LowInterleaveMap::new(MapGeometry {
            block_bytes: 128,
            vaults: 16,
            banks: 8,
            rows: 64,
        })
        .unwrap()
    }

    fn vault() -> Vault {
        Vault::new(
            0,
            4,
            VaultMemory::from_parts(8, 64, 128, StorageMode::Functional),
        )
    }

    fn request(cmd: Command, addr: u64, tag: u16, data: &[u8]) -> QueueEntry {
        let p = Packet::request(cmd, 0, addr, tag, 2, data).unwrap();
        let mut e = QueueEntry::new(p, 6, 0, 0);
        e.arrival_link = 2;
        e
    }

    /// [`Vault::execute`] as device 0, with nowhere for a retired body to
    /// go but the allocator.
    fn execute(
        v: &mut Vault,
        entry: QueueEntry,
        map: &LowInterleaveMap,
        cycle: Cycle,
        data_ready: Cycle,
    ) -> Execution {
        v.execute(entry, map, 0, cycle, data_ready, &mut BodyPool::default())
    }

    /// Pop the response `execute` just registered in the vault queue.
    fn take_rsp(v: &mut Vault) -> QueueEntry {
        v.rsp.pop().expect("a response entry was registered")
    }

    #[test]
    fn write_then_read_roundtrip_through_execution() {
        let mut v = vault();
        let m = map();
        let data = [0x5au8; 64];
        // Vault 0 addresses: low-interleave places vault bits just above
        // the 128-byte offset, so address 0 targets vault 0, bank 0.
        let exec = execute(
            &mut v,
            request(Command::Wr(BlockSize::B64), 0, 1, &data),
            &m,
            5,
            5,
        );
        assert_eq!(exec, Execution::Responded);
        let e = take_rsp(&mut v);
        assert_eq!(e.packet.cmd().unwrap(), Command::WrResponse);
        assert_eq!(e.packet.tag(), 1);
        assert_eq!(e.packet.errstat().unwrap(), ResponseStatus::Ok);
        assert_eq!(e.src_cube, 0);
        assert_eq!(e.dest_cube, 6, "response returns to the host");
        assert_eq!(e.arrival_link, 2);
        let exec = execute(
            &mut v,
            request(Command::Rd(BlockSize::B64), 0, 2, &[]),
            &m,
            6,
            6,
        );
        assert_eq!(exec, Execution::Responded);
        let e = take_rsp(&mut v);
        assert_eq!(e.packet.cmd().unwrap(), Command::RdResponse);
        assert_eq!(e.packet.data_as_bytes(), data.to_vec());
        assert_eq!(e.packet.response_slid(), 2, "SLID echoed");
        assert_eq!(v.stats.processed(), 2);
        assert_eq!(v.stats.reads, 1);
        assert_eq!(v.stats.writes, 1);
    }

    #[test]
    fn posted_writes_complete_silently() {
        let mut v = vault();
        let m = map();
        let exec = execute(
            &mut v,
            request(Command::PostedWr(BlockSize::B32), 0, 3, &[1u8; 32]),
            &m,
            0,
            0,
        );
        assert_eq!(exec, Execution::Done, "posted write must not respond");
        assert!(v.rsp.is_empty());
        assert_eq!(v.stats.writes, 1);
    }

    #[test]
    fn two_add8_adds_both_words() {
        let mut v = vault();
        let m = map();
        let mut payload = [0u8; 16];
        payload[..8].copy_from_slice(&10u64.to_le_bytes());
        payload[8..].copy_from_slice(&20u64.to_le_bytes());
        execute(&mut v, request(Command::TwoAdd8, 0, 1, &payload), &m, 0, 0);
        execute(&mut v, request(Command::TwoAdd8, 0, 2, &payload), &m, 0, 0);
        v.rsp.clear();
        let exec = execute(
            &mut v,
            request(Command::Rd(BlockSize::B16), 0, 3, &[]),
            &m,
            0,
            0,
        );
        assert_eq!(exec, Execution::Responded);
        let bytes = take_rsp(&mut v).packet.data_as_bytes();
        assert_eq!(u64::from_le_bytes(bytes[..8].try_into().unwrap()), 20);
        assert_eq!(u64::from_le_bytes(bytes[8..].try_into().unwrap()), 40);
        assert_eq!(v.stats.atomics, 2);
    }

    #[test]
    fn add16_carries_across_words() {
        let mut v = vault();
        let m = map();
        // Seed memory with u64::MAX in the low word so +1 carries.
        let mut seed = [0u8; 16];
        seed[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        execute(
            &mut v,
            request(Command::Wr(BlockSize::B16), 0, 1, &seed),
            &m,
            0,
            0,
        );
        let mut op = [0u8; 16];
        op[0] = 1;
        execute(&mut v, request(Command::Add16, 0, 2, &op), &m, 0, 0);
        v.rsp.clear();
        let exec = execute(
            &mut v,
            request(Command::Rd(BlockSize::B16), 0, 3, &[]),
            &m,
            0,
            0,
        );
        assert_eq!(exec, Execution::Responded);
        let bytes = take_rsp(&mut v).packet.data_as_bytes();
        let val = u128::from_le_bytes(bytes.try_into().unwrap());
        assert_eq!(val, 1u128 << 64);
    }

    #[test]
    fn bwr_applies_mask() {
        let mut v = vault();
        let m = map();
        let mut seed = [0u8; 16];
        seed[..8].copy_from_slice(&0xffff_ffff_ffff_ffffu64.to_le_bytes());
        execute(
            &mut v,
            request(Command::Wr(BlockSize::B16), 0, 1, &seed),
            &m,
            0,
            0,
        );
        let mut op = [0u8; 16];
        op[..8].copy_from_slice(&0u64.to_le_bytes()); // data
        op[8..].copy_from_slice(&0x0000_0000_ffff_ffffu64.to_le_bytes()); // mask
        execute(&mut v, request(Command::Bwr, 0, 2, &op), &m, 0, 0);
        v.rsp.clear();
        let exec = execute(
            &mut v,
            request(Command::Rd(BlockSize::B16), 0, 3, &[]),
            &m,
            0,
            0,
        );
        assert_eq!(exec, Execution::Responded);
        let bytes = take_rsp(&mut v).packet.data_as_bytes();
        assert_eq!(
            u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            0xffff_ffff_0000_0000
        );
    }

    #[test]
    fn out_of_capacity_address_yields_error_response() {
        let mut v = vault();
        let m = map();
        // Beyond the 16-vault x 8-bank x 64-row x 128-byte capacity.
        let over = m.geometry().capacity_bytes();
        let exec = execute(
            &mut v,
            request(Command::Rd(BlockSize::B16), over, 7, &[]),
            &m,
            0,
            0,
        );
        assert_eq!(exec, Execution::Failed(ResponseStatus::AddressError));
        let e = take_rsp(&mut v);
        assert_eq!(e.packet.cmd().unwrap(), Command::ErrorResponse);
        assert_eq!(e.packet.errstat().unwrap(), ResponseStatus::AddressError);
        assert_eq!(e.packet.tag(), 7);
        assert!(e.packet.dinv());
        assert_eq!(v.stats.errors, 1);
        assert_eq!(v.stats.processed(), 0);
    }

    #[test]
    fn mode_commands_at_a_vault_are_command_errors() {
        let mut v = vault();
        let m = map();
        let exec = execute(&mut v, request(Command::ModeRead, 0, 1, &[]), &m, 0, 0);
        assert_eq!(exec, Execution::Failed(ResponseStatus::CommandError));
        let e = take_rsp(&mut v);
        assert_eq!(e.packet.errstat().unwrap(), ResponseStatus::CommandError);
    }

    #[test]
    fn posted_failures_stay_silent() {
        let mut v = vault();
        let m = map();
        let over = m.geometry().capacity_bytes();
        let exec = execute(
            &mut v,
            request(Command::PostedWr(BlockSize::B16), over, 1, &[0u8; 16]),
            &m,
            0,
            0,
        );
        assert_eq!(
            exec,
            Execution::Failed(ResponseStatus::AddressError),
            "stage 4 still traces and counts it"
        );
        assert!(v.rsp.is_empty(), "but a posted failure owes no response");
        assert_eq!(v.stats.errors, 1);
    }

    #[test]
    fn reset_restores_fresh_vault() {
        let mut v = vault();
        let m = map();
        execute(
            &mut v,
            request(Command::Wr(BlockSize::B16), 0, 1, &[1; 16]),
            &m,
            0,
            0,
        );
        v.wake_at = 99;
        v.reset();
        assert!(!v.asleep(0), "no sleep edge survives a reset");
        assert_eq!(v.stats, VaultStats::default());
        let exec = execute(
            &mut v,
            request(Command::Rd(BlockSize::B16), 0, 2, &[]),
            &m,
            0,
            0,
        );
        assert_eq!(exec, Execution::Responded);
        assert_eq!(take_rsp(&mut v).packet.data_as_bytes(), vec![0u8; 16]);
    }

    #[test]
    fn delayed_data_parks_then_releases_in_ready_order() {
        let mut v = vault();
        let m = map();
        // Grant data at cycle 20: the response parks in `pending`.
        let exec = execute(
            &mut v,
            request(Command::Rd(BlockSize::B16), 0, 1, &[]),
            &m,
            10,
            20,
        );
        assert_eq!(exec, Execution::Responded);
        assert!(v.rsp.is_empty());
        assert_eq!(v.pending.len(), 1);
        assert_eq!(v.pending_min_ready(), Some(20));
        // A later issue with an earlier ready time releases first.
        execute(
            &mut v,
            request(Command::Rd(BlockSize::B16), 0, 2, &[]),
            &m,
            11,
            15,
        );
        assert!(!v.rsp_capacity_full());
        v.release_ready(14);
        assert!(v.rsp.is_empty(), "nothing ready before its cycle");
        v.release_ready(25);
        assert_eq!(v.rsp.len(), 2);
        let first = v.rsp.pop().unwrap();
        assert_eq!(first.packet.tag(), 2, "earlier ready_at releases first");
        assert_eq!(first.arrival_cycle, 25, "arrival restamped at release");
        assert_eq!(first.entry_cycle, 0, "latency origin preserved");
        assert_eq!(v.rsp.pop().unwrap().packet.tag(), 1);
        assert!(v.pending.is_empty());
    }

    #[test]
    fn pending_stays_ordered_by_ready_cycle_then_issue_order() {
        let mut v = vault();
        let m = map();
        // Issue order 0..4 with ready cycles 30, 10, 20, 10.
        for (tag, ready) in [(0u16, 30u64), (1, 10), (2, 20), (3, 10)] {
            let rd = request(Command::Rd(BlockSize::B16), 0, tag, &[]);
            execute(&mut v, rd, &m, 0, ready);
        }
        let order: Vec<u16> = v.pending.iter().map(|p| p.entry.packet.tag()).collect();
        assert_eq!(order, [1, 3, 2, 0]);
        assert_eq!(v.pending_min_ready(), Some(10));
        assert!(!v.release_ready(9));
        assert!(v.release_ready(20));
        let released: Vec<u16> = v.rsp.iter().map(|e| e.packet.tag()).collect();
        assert_eq!(released, [1, 3, 2], "ties release in issue order");
        assert_eq!(v.pending_min_ready(), Some(30));
    }

    #[test]
    fn push_request_wakes_only_for_an_arrival_inside_the_window() {
        let mut v = vault();
        let rd = |tag| request(Command::Rd(BlockSize::B16), 0, tag, &[]);
        v.wake_at = 50;
        v.push_request(rd(1), 2).unwrap();
        assert!(!v.asleep(0), "slot 0 of a two-slot window");
        v.push_request(rd(2), 2).unwrap();
        v.wake_at = 50;
        v.push_request(rd(3), 2).unwrap();
        assert!(v.asleep(0), "slot 2 is beyond it");
        v.push_request(rd(4), 2).unwrap();
        assert!(v.push_request(rd(5), 2).is_err(), "depth 4: handed back");
    }

    #[test]
    fn capacity_counts_pending_and_queued_responses() {
        let mut v = vault(); // depth 4
        let m = map();
        for tag in 0..3 {
            execute(
                &mut v,
                request(Command::Rd(BlockSize::B16), 0, tag, &[]),
                &m,
                0,
                100,
            );
        }
        execute(
            &mut v,
            request(Command::Rd(BlockSize::B16), 0, 9, &[]),
            &m,
            0,
            0,
        );
        assert_eq!(v.pending.len(), 3);
        assert_eq!(v.rsp.len(), 1);
        assert!(v.rsp_capacity_full());
    }

    #[test]
    fn needs_response_tracks_command_class() {
        assert!(Vault::needs_response(Command::Rd(BlockSize::B64)));
        assert!(Vault::needs_response(Command::Wr(BlockSize::B64)));
        assert!(!Vault::needs_response(Command::PostedWr(BlockSize::B64)));
        assert!(!Vault::needs_response(Command::Null));
    }
}
