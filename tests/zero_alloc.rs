//! The steady-state serial clock must perform no per-cycle heap
//! allocation (the paper's Table I runs clock tens of millions of
//! cycles; allocator traffic in the hot loop dominated profiles before
//! the engine moved to reusable scratch buffers).
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up phase grows every reusable buffer to its steady-state
//! capacity, an identical measured phase must allocate nothing.
//!
//! The warm-up is not a fixed number of rounds. Packet bodies are created
//! the first time one is needed and recycled for ever after, so the
//! simulation allocates exactly as often as its live packet count reaches
//! a new high — and under random saturating traffic it keeps finding
//! slightly fuller states for a long time: on the ring leg, first-use
//! bodies still turn up in rounds 4,864..6,400 (2 + 2, after nine clean
//! 256-round windows). So the warm-up first raises the body population
//! to its ceiling — a window in which the host sends but never receives
//! backs every queue up to its last slot (or, through the host model, up
//! to its 512 tags, which bound its live packets) — and then runs windows
//! of the measured traffic until a whole one allocates nothing, giving up
//! at a cap: an allocation made per cycle, the thing this test exists to
//! catch, never converges. The window after that is the measured one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hmc_sim::hmc_core::{regs, topology, HmcSim, NocParams, SimParams, TimingParams};
use hmc_sim::hmc_host::Host;
use hmc_sim::hmc_types::{
    BlockSize, Command, DeviceConfig, InterconnectKind, LinkFaultConfig, Packet, StorageMode,
    TimingKind,
};
use hmc_sim::hmc_workloads::MemOp;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// What a leg built from raw packets sends besides the saturating 50/50
/// RD64/WR64 stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    /// Nothing else: every request is answered and received.
    Plain,
    /// The packets that die inside the device: a quarter of the stream
    /// is posted writes (half of the writes), and every round adds a
    /// MODE_READ, answered in place at the crossbar, and a NULL flow
    /// packet, retired there.
    Internal,
}

/// Rounds per allocation-counting window, warm-up and measured alike.
const WINDOW: usize = 256;
/// Warm-up rounds after which a leg that still allocates has failed.
const WARMUP_CAP: usize = 8192;

/// Send `packet` on `link`, using up `tag` when it is accepted; false on
/// back-pressure.
fn try_send(sim: &mut HmcSim, link: u8, packet: Packet, tag: &mut u16) -> bool {
    match sim.send(0, link, packet) {
        Ok(()) => {
            *tag = if *tag >= 0x1ff { 1 } else { *tag + 1 };
            true
        }
        Err(e) if e.is_stall() => false,
        Err(e) => panic!("send failed: {e}"),
    }
}

/// One harness round: inject mixed reads/writes round-robin until
/// back-pressure, clock once, and — unless the host is `deaf` — drain
/// all responses.
fn packet_round(sim: &mut HmcSim, rng: &mut Lcg, tag: &mut u16, mix: Mix, deaf: bool) {
    let capacity = sim.config().capacity_bytes;
    let data = [0x5au8; 64];
    let request = |cmd: Command, addr: u64, tag: u16, link: u8| {
        let payload = &data[..cmd.request_data_bytes()];
        Packet::request(cmd, 0, addr, tag, link, payload).unwrap()
    };
    if mix == Mix::Internal {
        let mode_read = request(Command::ModeRead, regs::GC as u64, *tag, 0);
        try_send(sim, 0, mode_read, tag);
        try_send(sim, 0, Packet::flow(Command::Null, 0, 0).unwrap(), tag);
    }
    for link in 0..sim.config().num_links {
        loop {
            let addr = (rng.next() % (capacity / 64)) * 64;
            let cmd = match (rng.next() % 4, mix) {
                (0, Mix::Internal) => Command::PostedWr(BlockSize::B64),
                (0 | 2, _) => Command::Wr(BlockSize::B64),
                _ => Command::Rd(BlockSize::B64),
            };
            if !try_send(sim, link, request(cmd, addr, *tag, link), tag) {
                break;
            }
        }
    }
    sim.clock().unwrap();
    if deaf {
        return;
    }
    for link in 0..sim.config().num_links {
        while sim.recv(0, link).is_ok() {}
    }
}

/// The run loop's round through the host model: `Host::try_issue` the
/// 50/50 RD64/WR64 stream until the host reports back-pressure (keeping
/// the refused op in `pending` for the next round), clock once, and —
/// unless `deaf` — `Host::drain`. Every read response is decoded, payload
/// and all.
fn host_round(
    sim: &mut HmcSim,
    host: &mut Host,
    rng: &mut Lcg,
    pending: &mut Option<MemOp>,
    deaf: bool,
) {
    let capacity = sim.config().capacity_bytes;
    loop {
        let op = pending.take().unwrap_or_else(|| {
            let addr = (rng.next() % (capacity / 64)) * 64;
            match rng.next() % 2 {
                0 => MemOp::write(addr, BlockSize::B64),
                _ => MemOp::read(addr, BlockSize::B64),
            }
        });
        if !host.try_issue(sim, 0, &op).unwrap() {
            *pending = Some(op);
            break;
        }
    }
    sim.clock().unwrap();
    if !deaf {
        host.drain(sim).unwrap();
    }
}

/// The fast-forward round: a burst of up to 16 reads round-robin over
/// the links (cut short by back-pressure), one `clock_batch` across a
/// gap of 64 to 575 cycles, which the engine jumps in spans and steps on
/// the cycles those jumps land on, and — unless `deaf` — a drain.
fn burst_round(sim: &mut HmcSim, rng: &mut Lcg, tag: &mut u16, deaf: bool) {
    let capacity = sim.config().capacity_bytes;
    let links = sim.config().num_links;
    for i in 0..16u8 {
        let link = i % links;
        let addr = (rng.next() % (capacity / 64)) * 64;
        let read = Packet::request(Command::Rd(BlockSize::B64), 0, addr, *tag, link, &[]).unwrap();
        if !try_send(sim, link, read, tag) {
            break;
        }
    }
    sim.clock_batch(64 + rng.next() % 512).unwrap();
    if deaf {
        return;
    }
    for link in 0..links {
        while sim.recv(0, link).is_ok() {}
    }
}

/// How a leg drives the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Through {
    /// Hand-built packets through `HmcSim::send` and `HmcSim::recv`.
    Packets(Mix),
    /// The host model, in the run loop's inject / clock / drain shape.
    Host,
    /// Burst / gap rounds of reads ([`burst_round`]) through
    /// `clock_batch`.
    Bursts,
}

/// One configuration of the simulator under saturating traffic.
#[derive(Debug, Clone, Copy)]
struct Leg {
    timing: TimingKind,
    fabric: InterconnectKind,
    through: Through,
    link_faults: Option<LinkFaultConfig>,
}

/// A leg's injector state between rounds.
enum Injector {
    /// The packet mix, and the next request's tag.
    Packets { mix: Mix, tag: u16 },
    /// The next read's tag.
    Bursts { tag: u16 },
    /// The host, and the op its last stall left over.
    Host {
        host: Box<Host>,
        pending: Option<MemOp>,
    },
}

impl Injector {
    fn new(sim: &HmcSim, through: Through) -> Injector {
        match through {
            Through::Packets(mix) => Injector::Packets { mix, tag: 1 },
            Through::Bursts => Injector::Bursts { tag: 1 },
            Through::Host => Injector::Host {
                host: Box::new(Host::attach(sim, sim.host_cube_id(0)).unwrap()),
                pending: None,
            },
        }
    }

    fn round(&mut self, sim: &mut HmcSim, rng: &mut Lcg, deaf: bool) {
        match self {
            Injector::Packets { mix, tag } => packet_round(sim, rng, tag, *mix, deaf),
            Injector::Bursts { tag } => burst_round(sim, rng, tag, deaf),
            Injector::Host { host, pending } => host_round(sim, host, rng, pending, deaf),
        }
    }

    /// Receive every response waiting on the host links.
    fn drain(&mut self, sim: &mut HmcSim) {
        match self {
            Injector::Packets { .. } | Injector::Bursts { .. } => {
                for link in 0..sim.config().num_links {
                    while sim.recv(0, link).is_ok() {}
                }
            }
            Injector::Host { host, .. } => {
                host.drain(sim).unwrap();
            }
        }
    }
}

/// Warm a single-device simulator up under `round`s of saturating
/// traffic until a window of them allocates nothing, then count the
/// allocations — and the packet bodies created — in the next window;
/// then drain it and check that no body went missing on the way.
fn steady_state_allocations(leg: Leg) -> (u64, u64) {
    let cfg = DeviceConfig::paper_4link_8bank_2gb().with_storage_mode(StorageMode::TimingOnly);
    let mut sim = HmcSim::new(1, cfg).unwrap().with_params(SimParams {
        timing: TimingParams::of(leg.timing),
        interconnect: NocParams {
            buffer_depth: 2,
            ..NocParams::of(leg.fabric)
        },
        link_faults: leg.link_faults,
        ..SimParams::default()
    });
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();

    let mut rng = Lcg(0xFEED);
    let mut injector = Injector::new(&sim, leg.through);
    let mut window = |sim: &mut HmcSim, deaf: bool| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..WINDOW {
            injector.round(sim, &mut rng, deaf);
        }
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };

    // Warm-up. First the packet-body population: a window in which the
    // host receives nothing backs every queue up to its last slot, which
    // is as many bodies as the device can ever hold. Then every reusable
    // buffer (event stages, queue-backed structures): windows of the
    // measured traffic until one of them allocates nothing.
    window(&mut sim, true);
    let mut warmed = 0;
    while window(&mut sim, false) > 0 {
        warmed += WINDOW;
        assert!(
            warmed < WARMUP_CAP,
            "{leg:?} still allocates after {warmed} warm-up rounds: that is per-cycle \
             allocation, not a buffer growing to its steady-state capacity"
        );
    }

    let bodies = sim.packet_bodies_created();
    let allocations = window(&mut sim, false);
    let stats = sim.stats();
    if leg.fabric != InterconnectKind::Crossbar {
        assert!(
            stats.noc_hops > 0 && stats.noc_stalls > 0,
            "the buffered leg must actually saturate its fabric"
        );
    }
    assert_eq!(
        stats.row_misses > 0,
        leg.timing == TimingKind::Ddr,
        "the DDR leg must run the row-buffer model, the others must not"
    );
    assert_eq!(
        stats.poisoned_responses > 0,
        leg.link_faults.is_some(),
        "the degraded-link leg must actually exhaust retries, the others must not"
    );
    let created = sim.packet_bodies_created() - bodies;

    // The warm-up left more bodies free than the measured traffic uses,
    // so a path that loses one now and then would not have to allocate
    // for a long while. Count them instead: once the device has drained,
    // the invariant checker's first sweep must find every body created
    // back on the free list.
    while !sim.is_idle() {
        sim.clock().unwrap();
        injector.drain(&mut sim);
    }
    sim.set_params(SimParams {
        check_invariants: true,
        ..*sim.params()
    });
    sim.clock().unwrap();
    assert_eq!(sim.invariant_violations(), &[] as &[String], "{leg:?}");
    (allocations, created)
}

/// The crossbar, and a ring and a mesh whose two-slot segment buffers
/// stay packed (three quarters of the random traffic is cross-quad), so
/// the NoC advance pass, the head sets its segments keep, its stalls and
/// its rotation escape all run every cycle; then the crossbar again under the DDR backend, where
/// every response waits in the vault's data-ready queue (an ordered
/// insert that must stay inside its initial capacity) and vaults sleep
/// and wake. The last two legs are about packet bodies: traffic whose
/// entries die inside the device instead of at `recv` ([`Mix::Internal`]),
/// first on clean links and then on links bad enough that one packet in
/// eleven exhausts its retries and is poisoned — wherever an entry dies,
/// its body must come back, or some later `send` allocates a new one.
/// Then the host boundary: the plain stream through `Host::try_issue`
/// and `Host::drain`, where every request is built in its pooled body
/// and every response decoded into the host's one reusable
/// `ResponseInfo`. The eighth leg is the fast-forward horizon, run under
/// the classic and then the DDR backend: burst / gap rounds through
/// `clock_batch`, so the horizon, its jumps and the steps they land on
/// all run. One test, every leg in turn: the allocation counter is
/// process-wide, so concurrent tests would count each other's work.
#[test]
fn steady_state_serial_clock_allocates_nothing() {
    let plain = |timing, fabric| Leg {
        timing,
        fabric,
        through: Through::Packets(Mix::Plain),
        link_faults: None,
    };
    let internal = Leg {
        through: Through::Packets(Mix::Internal),
        ..plain(TimingKind::Classic, InterconnectKind::Crossbar)
    };
    let poisoning = LinkFaultConfig::default()
        .with_error_rate_ppm(300_000)
        .with_retry_limit(1)
        .with_retry_cycles(2)
        .with_retrain_cycles(4);
    for leg in [
        plain(TimingKind::Classic, InterconnectKind::Crossbar),
        plain(TimingKind::Classic, InterconnectKind::Ring),
        plain(TimingKind::Classic, InterconnectKind::Mesh),
        plain(TimingKind::Ddr, InterconnectKind::Crossbar),
        internal,
        Leg {
            link_faults: Some(poisoning),
            ..internal
        },
        Leg {
            through: Through::Host,
            ..plain(TimingKind::Classic, InterconnectKind::Crossbar)
        },
        Leg {
            through: Through::Bursts,
            ..plain(TimingKind::Classic, InterconnectKind::Crossbar)
        },
        Leg {
            through: Through::Bursts,
            ..plain(TimingKind::Ddr, InterconnectKind::Crossbar)
        },
    ] {
        let (allocations, bodies) = steady_state_allocations(leg);
        assert_eq!(
            (allocations, bodies),
            (0, 0),
            "steady-state clock() must not touch the allocator in {leg:?} ({allocations} \
             allocations, {bodies} packet bodies created in {WINDOW} loaded cycles)"
        );
    }
}
