//! The steady-state serial clock must perform no per-cycle heap
//! allocation (the paper's Table I runs clock tens of millions of
//! cycles; allocator traffic in the hot loop dominated profiles before
//! the engine moved to reusable scratch buffers).
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up phase grows every reusable buffer to its steady-state
//! capacity, an identical measured phase must allocate nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hmc_sim::hmc_core::{topology, HmcSim, NocParams, TimingParams};
use hmc_sim::hmc_types::{
    BlockSize, Command, DeviceConfig, InterconnectKind, Packet, StorageMode, TimingKind,
};

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

/// One harness round: inject mixed reads/writes round-robin until
/// back-pressure, clock once, drain all responses.
fn round(sim: &mut HmcSim, rng: &mut Lcg, tag: &mut u16, capacity: u64, num_links: u8) {
    for link in 0..num_links {
        loop {
            let addr = (rng.next() % (capacity / 64)) * 64;
            let write = rng.next().is_multiple_of(2);
            let packet = if write {
                let data = [0x5au8; 64];
                Packet::request(Command::Wr(BlockSize::B64), 0, addr, *tag, link, &data).unwrap()
            } else {
                Packet::request(Command::Rd(BlockSize::B64), 0, addr, *tag, link, &[]).unwrap()
            };
            match sim.send(0, link, packet) {
                Ok(()) => *tag = if *tag >= 0x1ff { 1 } else { *tag + 1 },
                Err(e) if e.is_stall() => break,
                Err(e) => panic!("send failed: {e}"),
            }
        }
    }
    sim.clock().unwrap();
    for link in 0..num_links {
        while sim.recv(0, link).is_ok() {}
    }
}

/// Warm a single-device simulator up under `round`s of saturating
/// traffic, then count the allocations of an identical measured phase.
fn steady_state_allocations(timing: TimingKind, interconnect: NocParams) -> u64 {
    let cfg = DeviceConfig::paper_4link_8bank_2gb().with_storage_mode(StorageMode::TimingOnly);
    let mut sim = HmcSim::new(1, cfg).unwrap();
    sim.set_timing(TimingParams::of(timing));
    sim.set_interconnect(interconnect);
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();

    let capacity = sim.config().capacity_bytes;
    let num_links = sim.config().num_links;
    let mut rng = Lcg(0xFEED);
    let mut tag: u16 = 1;

    // Warm-up: grow every reusable buffer (event stages, drain plans,
    // queue-backed structures) to steady-state capacity.
    for _ in 0..256 {
        round(&mut sim, &mut rng, &mut tag, capacity, num_links);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..256 {
        round(&mut sim, &mut rng, &mut tag, capacity, num_links);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let stats = sim.stats();
    if interconnect.kind != InterconnectKind::Crossbar {
        assert!(
            stats.noc_hops > 0 && stats.noc_stalls > 0,
            "the buffered leg must actually saturate its fabric"
        );
    }
    assert_eq!(
        stats.row_misses > 0,
        timing == TimingKind::Ddr,
        "the DDR leg must run the row-buffer model, the others must not"
    );
    after - before
}

/// The crossbar, and a ring and a mesh whose two-slot segment buffers
/// stay packed (three quarters of the random traffic is cross-quad), so
/// the NoC advance pass, its stalls and its rotation escape all run
/// every cycle; then the crossbar again under the DDR backend, where
/// every response waits in the vault's data-ready queue (an ordered
/// insert that must stay inside its initial capacity) and vaults sleep
/// and wake. One test, four legs in turn: the allocation counter is
/// process-wide, so concurrent tests would count each other's work.
#[test]
fn steady_state_serial_clock_allocates_nothing() {
    for (timing, kind) in [
        (TimingKind::Classic, InterconnectKind::Crossbar),
        (TimingKind::Classic, InterconnectKind::Ring),
        (TimingKind::Classic, InterconnectKind::Mesh),
        (TimingKind::Ddr, InterconnectKind::Crossbar),
    ] {
        let allocations = steady_state_allocations(
            timing,
            NocParams {
                buffer_depth: 2,
                ..NocParams::of(kind)
            },
        );
        assert_eq!(
            allocations, 0,
            "steady-state clock() must not touch the allocator under {timing:?} timing on \
             the {kind:?} fabric ({allocations} allocations in 256 loaded cycles)"
        );
    }
}
