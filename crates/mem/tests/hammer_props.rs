//! Property tests for the cell-fault injection subsystem.
//!
//! These check the `CellFaultState` contract against small independent
//! models over randomized activation schedules:
//!
//!  * activation counters lazily reset at every refresh-window edge,
//!  * disturbance lands only in rows physically adjacent to aggressors
//!    that crossed the hammer threshold — and nowhere else,
//!  * TRR at the spec threshold prevents every flip while firing a
//!    targeted refresh (with its bank-park cost) at each crossing,
//!  * retention decay fires at most once per row per window and only
//!    past the horizon,
//!  * the fault stream is a pure function of the activation multiset:
//!    shuffling the global interleaving leaves the corrupted image
//!    bit-identical (the property that makes the engine mode unable
//!    to perturb faults — the engine-level analogue is enforced by the
//!    hmc-conform stepped-vs-fast-forward sweep).

use std::collections::HashMap;

use proptest::prelude::*;

use hmc_mem::{CellFaultState, VaultMemory};
use hmc_types::address::DecodedAddr;
use hmc_types::cellfault::{CellFaultConfig, Mitigation};
use hmc_types::config::StorageMode;

const BANKS: u16 = 4;
const ROWS: u64 = 64;
const BLOCK: u32 = 128;
const WINDOW: u64 = 1_000;
const ROW_BITS: u32 = BLOCK * 8;

fn mem() -> VaultMemory {
    VaultMemory::from_parts(BANKS, ROWS, BLOCK, StorageMode::Functional)
}

fn hammer_cfg(threshold: u32, ppm: u32) -> CellFaultConfig {
    CellFaultConfig::default()
        .with_hammer_threshold(threshold)
        .with_flip_prob_ppm(ppm)
        .with_refresh_window(WINDOW)
}

fn row_bytes(mem: &mut VaultMemory, bank: u16, row: u64) -> Vec<u8> {
    let mut buf = vec![0u8; BLOCK as usize];
    mem.read(DecodedAddr { vault: 0, bank, row, offset: 0 }, &mut buf)
        .expect("in-range row read");
    buf
}

/// Seeded Fisher-Yates so schedules shuffle deterministically per case.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (seed >> 33) as usize % (i + 1));
    }
}

proptest! {
    /// Counter model: activations accumulate within a refresh window
    /// and read back as zero the moment the window index changes —
    /// regardless of how the schedule hops rows, banks, and windows.
    #[test]
    fn activation_counts_reset_exactly_at_window_edges(
        steps in prop::collection::vec(
            (0u16..BANKS, 0u64..ROWS, 0u64..400), 1..80),
    ) {
        // threshold 0 disables crossings, isolating the pure counter.
        let mut state = CellFaultState::new(hammer_cfg(0, 0), 0, ROWS, BLOCK);
        let mut mem = mem();
        let mut cycle = 0u64;
        let mut model: HashMap<(u16, u64), (u64, u64)> = HashMap::new();
        for &(bank, row, advance) in &steps {
            cycle += advance;
            let w = cycle / WINDOW;
            let slot = model.entry((bank, row)).or_insert((w, 0));
            if slot.0 != w {
                *slot = (w, 0); // window edge: disturbance dissipated
            }
            slot.1 += 1;
            let out = state.on_activation(bank, row, cycle, &mut mem);
            prop_assert_eq!(out.flip_count, 0);
            prop_assert_eq!(state.activation_count(bank, row, cycle), slot.1);
        }
        // Every tracked row reads back as zero one window later.
        for (&(bank, row), &(w, _)) in &model {
            prop_assert_eq!(state.activation_count(bank, row, (w + 1) * WINDOW), 0);
        }
        prop_assert_eq!(mem.resident_bytes(), 0, "counting never touches cells");
    }

    /// With aggressors spaced four rows apart and exactly one threshold
    /// crossing each (at saturating flip probability), corruption is
    /// fully characterized: both neighbors of every aggressor flip all
    /// their bits, and *no other row* — aggressors included — changes.
    #[test]
    fn flips_land_only_adjacent_to_over_threshold_aggressors(
        raw_slots in prop::collection::vec(0u64..15, 1..6),
        threshold in 2u32..8,
        extra in 0u32..2,
        order_seed in any::<u64>(),
    ) {
        let mut slots = raw_slots;
        slots.sort_unstable();
        slots.dedup();
        let aggressors: Vec<u64> = slots.iter().map(|s| 2 + s * 4).collect();
        // `threshold + extra < 2*threshold`: exactly one crossing each.
        let mut schedule: Vec<u64> = aggressors
            .iter()
            .flat_map(|&row| std::iter::repeat_n(row, (threshold + extra) as usize))
            .collect();
        shuffle(&mut schedule, order_seed);

        let cfg = hammer_cfg(threshold, 1_000_000);
        let mut state = CellFaultState::new(cfg, 0, ROWS, BLOCK);
        let mut mem = mem();
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for (i, &row) in schedule.iter().enumerate() {
            let out = state.on_activation(0, row, i as u64, &mut mem);
            let n = counts.entry(row).or_insert(0);
            *n += 1;
            if *n == threshold {
                // The crossing disturbs both neighbors, every bit.
                prop_assert_eq!(out.flips, [(row - 1, ROW_BITS), (row + 1, ROW_BITS)]);
                prop_assert_eq!(out.flip_count, 2 * ROW_BITS as u64);
            } else {
                prop_assert_eq!(out.flip_count, 0, "flip without a crossing");
            }
        }
        let victim = |row: u64| aggressors.iter().any(|&a| row + 1 == a || row == a + 1);
        for row in 0..ROWS {
            let bytes = row_bytes(&mut mem, 0, row);
            let expect = if victim(row) { 0xFFu8 } else { 0x00 };
            prop_assert!(
                bytes.iter().all(|&b| b == expect),
                "row {} corrupted wrongly (victim: {})", row, victim(row)
            );
        }
    }

    /// TRR at the spec threshold: arbitrary single-window schedules
    /// never flip a bit; instead a targeted refresh (with its bank
    /// park) fires at every crossing and restarts the aggressor count.
    #[test]
    fn trr_at_spec_threshold_prevents_all_flips(
        schedule in prop::collection::vec((0u16..BANKS, 1u64..ROWS - 1), 8..120),
        threshold in 1u32..6,
    ) {
        let cfg = hammer_cfg(threshold, 1_000_000).with_mitigation(Mitigation::Trr);
        let trr_cost = cfg.trr_cost as u64;
        let mut state = CellFaultState::new(cfg, 0, ROWS, BLOCK);
        let mut mem = mem();
        let mut counts: HashMap<(u16, u64), u32> = HashMap::new();
        for (i, &(bank, row)) in schedule.iter().enumerate() {
            let cycle = i as u64;
            let out = state.on_activation(bank, row, cycle, &mut mem);
            prop_assert_eq!(out.flip_count, 0, "TRR let a disturbance through");
            let n = counts.entry((bank, row)).or_insert(0);
            *n += 1;
            if *n == threshold {
                prop_assert!(out.trr, "no targeted refresh at the crossing");
                prop_assert_eq!(out.park_until, Some(cycle + trr_cost));
                *n = 0; // refresh erased the accumulated disturbance
            } else {
                prop_assert!(!out.trr);
                prop_assert_eq!(out.park_until, None);
            }
            prop_assert_eq!(state.activation_count(bank, row, cycle), *n as u64);
        }
        prop_assert_eq!(mem.resident_bytes(), 0, "no cell was ever written");
    }

    /// Retention model: a row accessed past the horizon decays exactly
    /// once per refresh window (every bit, at saturating probability);
    /// accesses before the horizon never decay anything.
    #[test]
    fn retention_decays_once_per_window_and_only_past_the_horizon(
        accesses in prop::collection::vec((0u64..ROWS, 0u64..700), 1..80),
    ) {
        const HORIZON: u64 = 400;
        let cfg = CellFaultConfig {
            retention_prob_ppm: 1_000_000,
            ..CellFaultConfig::default()
                .with_hammer_threshold(0)
                .with_retention(HORIZON)
                .with_refresh_window(WINDOW)
        };
        let mut state = CellFaultState::new(cfg, 0, ROWS, BLOCK);
        let mut mem = mem();
        let mut decayed: HashMap<u64, u64> = HashMap::new(); // row -> window + 1
        let mut cycle = 0u64;
        for &(row, advance) in &accesses {
            cycle += advance;
            let w = cycle / WINDOW;
            let fresh = cycle % WINDOW >= HORIZON && decayed.get(&row) != Some(&(w + 1));
            let bits = state.on_access(0, row, cycle, &mut mem);
            if fresh {
                prop_assert_eq!(bits, ROW_BITS as u64, "full decay expected");
                decayed.insert(row, w + 1);
            } else {
                prop_assert_eq!(bits, 0, "decay before horizon or twice in a window");
            }
        }
    }

    /// Determinism: the same multiset of (bank, row) activations —
    /// delivered in shuffled global interleavings, with overlapping
    /// victims and repeated crossings allowed — corrupts the exact
    /// same cells and tallies the exact same flip count.
    #[test]
    fn fault_streams_are_bit_identical_across_interleavings(
        schedule in prop::collection::vec((0u16..BANKS, 1u64..ROWS - 1), 4..60),
        seed in any::<u64>(),
        order_seeds in prop::collection::vec(any::<u64>(), 2..4),
    ) {
        let run = |order: &[(u16, u64)]| {
            let cfg = hammer_cfg(3, 300_000).with_seed(seed);
            let mut state = CellFaultState::new(cfg, 0, ROWS, BLOCK);
            let mut mem = mem();
            let mut flips = 0u64;
            // All inside window 0: the cycle can't reorder crossings.
            for (i, &(bank, row)) in order.iter().enumerate() {
                flips += state.on_activation(bank, row, i as u64, &mut mem).flip_count;
            }
            let mut image = Vec::with_capacity(BANKS as usize * ROWS as usize * BLOCK as usize);
            for bank in 0..BANKS {
                for row in 0..ROWS {
                    image.extend_from_slice(&row_bytes(&mut mem, bank, row));
                }
            }
            (flips, image)
        };
        let baseline = run(&schedule);
        for &order_seed in &order_seeds {
            let mut permuted = schedule.clone();
            shuffle(&mut permuted, order_seed);
            let outcome = run(&permuted);
            prop_assert_eq!(&outcome.0, &baseline.0, "flip totals diverged");
            prop_assert_eq!(&outcome.1, &baseline.1, "corrupted image diverged");
        }
    }
}
