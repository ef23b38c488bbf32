//! Deterministic cell-level fault injection: RowHammer disturbance and
//! retention decay, layered on the bank model.
//!
//! The design goal is bit-identical fault streams in stepped and
//! fast-forward runs, achieved by two rules:
//!
//! 1. **No per-cycle work.** Activation counters are *lazily window-
//!    normalized*: each tracked row stores the refresh-window index it
//!    was last touched in, and a touch from a later window resets the
//!    count first — the same trick `DdrTiming` uses for refresh, so
//!    fast-forward jumps cannot miss a window edge.
//! 2. **No sequential RNG.** Every flip decision is a pure function of
//!    `(seed, axis, vault, bank, row, window, crossing, word, bit)`
//!    hashed through a SplitMix64-style mixer. Order of evaluation is
//!    irrelevant, so stepping or jumping a span cannot perturb the
//!    stream.
//!
//! One [`CellFaultState`] lives inside each vault; the engine calls
//! [`CellFaultState::on_access`]
//! for the retention axis and [`CellFaultState::on_activation`] when the
//! timing backend reports a row activation, and turns the returned
//! [`ActivationOutcome`] into trace events, statistics, and TRR bank
//! parking.

use std::collections::HashMap;

use hmc_types::cellfault::{CellFaultConfig, Mitigation};
use hmc_types::{splitmix64_mix as mix, BankId, Cycle};

use crate::vault_mem::VaultMemory;

/// Refresh-window divisor applied by [`Mitigation::ElevatedRefresh`]:
/// the elevated duty refreshes four times as often.
pub const ELEVATED_REFRESH_DIVISOR: u64 = 4;

/// Hash-domain tag separating hammer flips from every other draw.
const TAG_HAMMER: u64 = 0x4841_4d4d_4552_5f31; // "HAMMER_1"
/// Hash-domain tag separating retention decay from every other draw.
const TAG_RETENTION: u64 = 0x5245_5445_4e54_5f31; // "RETENT_1"

/// Order-independent hash of a draw coordinate: each part is absorbed
/// through a multiply + SplitMix64 round, so nearby coordinates (row
/// ±1, consecutive windows) produce unrelated streams.
pub fn fault_hash(parts: &[u64]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &p in parts {
        h = mix(h ^ p.wrapping_mul(0xff51_afd7_ed55_8ccd));
    }
    h
}

/// Whether a uniform `draw` falls inside a probability of `ppm` parts
/// per million. Saturating: `ppm >= 1_000_000` always hits — a strict
/// compare against a scaled threshold would miss `u64::MAX` draws.
pub fn ppm_hits(draw: u64, ppm: u32) -> bool {
    if ppm >= 1_000_000 {
        return true;
    }
    let threshold = ((u64::MAX as u128) * ppm as u128 / 1_000_000) as u64;
    draw < threshold
}

/// Deterministic 64-bit flip mask: one Bernoulli(`ppm`) draw per bit,
/// derived from `seed` by a counter-mode SplitMix64 stream.
pub fn flip_mask(seed: u64, ppm: u32) -> u64 {
    if ppm == 0 {
        return 0;
    }
    let mut mask = 0u64;
    let mut s = seed;
    for bit in 0..64 {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        if ppm_hits(mix(s), ppm) {
            mask |= 1u64 << bit;
        }
    }
    mask
}

/// Per-row tracking entry, lazily normalized to the current window.
#[derive(Debug, Clone, Copy, Default)]
struct RowTrack {
    /// Activations within window `act_window`.
    acts: u64,
    /// Refresh-window index `acts` belongs to.
    act_window: u64,
    /// `window + 1` of the last retention decay applied to this row
    /// (`0` = never), so decay fires at most once per window.
    decayed: u64,
}

/// What one activation did to the array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivationOutcome {
    /// Bits flipped per adjacent victim row as `(row, bits)`; slots
    /// with `bits == 0` are inert (edge rows have only one neighbor).
    pub flips: [(u64, u32); 2],
    /// Total victim bits flipped by this activation.
    pub flip_count: u64,
    /// A TRR targeted refresh fired instead of a disturbance.
    pub trr: bool,
    /// TRR refresh cost: the bank should stay busy until this cycle.
    pub park_until: Option<Cycle>,
}

/// Per-vault cell-fault injection state.
///
/// Holds only the sparse activation/decay tracking map — flip decisions
/// themselves are stateless hashes — so cloning and resetting the
/// state is cheap and cannot perturb the fault stream.
#[derive(Debug, Clone)]
pub struct CellFaultState {
    cfg: CellFaultConfig,
    vault: u64,
    rows: u64,
    words_per_row: u32,
    tracks: HashMap<(BankId, u64), RowTrack>,
}

impl CellFaultState {
    /// Create fault state for one vault of `rows`-row banks with
    /// `block_bytes`-byte rows.
    pub fn new(cfg: CellFaultConfig, vault: u16, rows: u64, block_bytes: u32) -> Self {
        CellFaultState {
            cfg,
            vault: vault as u64,
            rows,
            words_per_row: (block_bytes / 8).max(1),
            tracks: HashMap::new(),
        }
    }

    /// The installed configuration.
    pub fn config(&self) -> &CellFaultConfig {
        &self.cfg
    }

    /// Cycles per refresh window after mitigation: elevated refresh
    /// duty divides the configured window by [`ELEVATED_REFRESH_DIVISOR`].
    pub fn effective_window(&self) -> u64 {
        let w = self.cfg.refresh_window.max(1);
        match self.cfg.mitigation {
            Mitigation::ElevatedRefresh => (w / ELEVATED_REFRESH_DIVISOR).max(1),
            _ => w,
        }
    }

    /// Activation count of `(bank, row)` as seen at `cycle` — zero if
    /// the row's last activation was in an earlier refresh window.
    /// Test/oracle accessor.
    pub fn activation_count(&self, bank: BankId, row: u64, cycle: Cycle) -> u64 {
        let w = cycle / self.effective_window();
        match self.tracks.get(&(bank, row)) {
            Some(t) if t.act_window == w => t.acts,
            _ => 0,
        }
    }

    /// Retention axis, called on *every* access: if the access lands
    /// past the retention horizon within its refresh window, the
    /// accessed row decays (once per window) before the data is read.
    /// Returns the number of bits flipped.
    pub fn on_access(&mut self, bank: BankId, row: u64, cycle: Cycle, mem: &mut VaultMemory) -> u64 {
        let horizon = self.cfg.retention_cycles;
        if horizon == 0 {
            return 0;
        }
        let window = self.effective_window();
        if cycle % window < horizon {
            return 0; // refresh was recent enough; cells still hold
        }
        let w = cycle / window;
        let t = self.tracks.entry((bank, row)).or_default();
        if t.decayed == w + 1 {
            return 0;
        }
        t.decayed = w + 1;
        let (seed, ppm, vault, words) =
            (self.cfg.seed, self.cfg.retention_prob_ppm, self.vault, self.words_per_row);
        let mut bits = 0u64;
        for word in 0..words {
            let h = fault_hash(&[seed, TAG_RETENTION, vault, bank as u64, row, w, word as u64]);
            let xor = flip_mask(h, ppm);
            if xor != 0 {
                mem.corrupt_word(bank, row, word, xor);
                bits += xor.count_ones() as u64;
            }
        }
        bits
    }

    /// Hammer axis, called once per row *activation* (not per row-buffer
    /// hit): bumps the aggressor's lazily-normalized count and, on each
    /// threshold crossing, either disturbs the physically adjacent
    /// victim rows or — under [`Mitigation::Trr`] — refreshes them
    /// instead, erasing the accumulated disturbance and charging the
    /// bank `trr_cost` cycles.
    pub fn on_activation(
        &mut self,
        bank: BankId,
        row: u64,
        cycle: Cycle,
        mem: &mut VaultMemory,
    ) -> ActivationOutcome {
        let mut out = ActivationOutcome::default();
        let window = self.effective_window();
        let w = cycle / window;
        let t = self.tracks.entry((bank, row)).or_default();
        if t.act_window != w {
            t.act_window = w;
            t.acts = 0; // refresh-window edge: disturbance dissipated
        }
        t.acts += 1;
        let threshold = self.cfg.hammer_threshold as u64;
        if threshold == 0 || !t.acts.is_multiple_of(threshold) {
            return out;
        }
        let crossing = t.acts / threshold;
        if self.cfg.mitigation == Mitigation::Trr {
            // Targeted refresh: neighbors are refreshed, not disturbed,
            // and the aggressor's count restarts from zero.
            t.acts = 0;
            out.trr = true;
            out.park_until = Some(cycle.saturating_add(self.cfg.trr_cost as u64));
            return out;
        }
        let (seed, ppm, vault, rows, words) = (
            self.cfg.seed,
            self.cfg.flip_prob_ppm,
            self.vault,
            self.rows,
            self.words_per_row,
        );
        let victims = [row.checked_sub(1), (row + 1 < rows).then_some(row + 1)];
        for (slot, victim) in victims.into_iter().enumerate() {
            let Some(victim) = victim else { continue };
            let mut bits = 0u32;
            for word in 0..words {
                let h = fault_hash(&[
                    seed,
                    TAG_HAMMER,
                    vault,
                    bank as u64,
                    victim,
                    w,
                    crossing,
                    word as u64,
                ]);
                let xor = flip_mask(h, ppm);
                if xor != 0 {
                    mem.corrupt_word(bank, victim, word, xor);
                    bits += xor.count_ones();
                }
            }
            out.flips[slot] = (victim, bits);
            out.flip_count += bits as u64;
        }
        out
    }

    /// Clear all tracking state (device reset).
    pub fn reset(&mut self) {
        self.tracks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::config::StorageMode;

    fn state(cfg: CellFaultConfig) -> (CellFaultState, VaultMemory) {
        let mem = VaultMemory::from_parts(8, 256, 128, StorageMode::Functional);
        (CellFaultState::new(cfg, 0, 256, 128), mem)
    }

    fn hammer_cfg() -> CellFaultConfig {
        CellFaultConfig::default()
            .with_hammer_threshold(4)
            .with_flip_prob_ppm(1_000_000)
            .with_refresh_window(1_000)
    }

    #[test]
    fn ppm_saturates_at_unit_probability() {
        assert!(ppm_hits(u64::MAX, 1_000_000), "unit rate must always fire");
        assert!(ppm_hits(u64::MAX, 2_000_000));
        assert!(!ppm_hits(u64::MAX, 999_999));
        assert!(ppm_hits(0, 1));
        assert!(!ppm_hits(u64::MAX / 2, 1));
    }

    #[test]
    fn flip_mask_is_deterministic_and_scales_with_ppm() {
        assert_eq!(flip_mask(42, 500), flip_mask(42, 500));
        assert_eq!(flip_mask(7, 0), 0);
        assert_eq!(flip_mask(7, 1_000_000), u64::MAX);
        // Across many seeds, a 1% rate flips vastly fewer bits than 50%.
        let count = |ppm| -> u32 { (0..512).map(|s| flip_mask(s, ppm).count_ones()).sum() };
        assert!(count(10_000) < count(500_000) / 4);
    }

    #[test]
    fn threshold_crossing_flips_adjacent_rows_only() {
        let (mut cf, mut mem) = state(hammer_cfg());
        for i in 0..4 {
            let out = cf.on_activation(2, 100, i, &mut mem);
            if i < 3 {
                assert_eq!(out, ActivationOutcome::default());
            } else {
                // 100% flip probability: both neighbors fully flipped.
                assert_eq!(out.flips[0], (99, 128 * 8));
                assert_eq!(out.flips[1], (101, 128 * 8));
                assert_eq!(out.flip_count, 2 * 128 * 8);
            }
        }
        let mut buf = [0u8; 128];
        mem.read(
            hmc_types::DecodedAddr { vault: 0, bank: 2, row: 99, offset: 0 },
            &mut buf,
        )
        .unwrap();
        assert_eq!(buf, [0xff; 128], "victim fully flipped");
        mem.read(
            hmc_types::DecodedAddr { vault: 0, bank: 2, row: 100, offset: 0 },
            &mut buf,
        )
        .unwrap();
        assert_eq!(buf, [0u8; 128], "aggressor itself untouched");
    }

    #[test]
    fn edge_rows_have_one_neighbor() {
        let (mut cf, mut mem) = state(hammer_cfg());
        let mut out = ActivationOutcome::default();
        for i in 0..4 {
            out = cf.on_activation(0, 0, i, &mut mem);
        }
        assert_eq!(out.flips[0], (0, 0), "row -1 does not exist");
        assert_eq!(out.flips[1].0, 1);
        let mut out = ActivationOutcome::default();
        for i in 0..4 {
            out = cf.on_activation(0, 255, i, &mut mem);
        }
        assert_eq!(out.flips[0].0, 254);
        assert_eq!(out.flips[1], (0, 0), "row 256 does not exist");
    }

    #[test]
    fn counts_reset_exactly_at_window_edges() {
        let (mut cf, mut mem) = state(hammer_cfg());
        for i in 0..3 {
            cf.on_activation(0, 10, 997 + i, &mut mem);
        }
        assert_eq!(cf.activation_count(0, 10, 999), 3);
        // Cycle 1000 opens a new window; the count restarts at 1.
        let out = cf.on_activation(0, 10, 1_000, &mut mem);
        assert_eq!(out.flip_count, 0);
        assert_eq!(cf.activation_count(0, 10, 1_000), 1);
        // And the stale count reads as zero from the new window.
        assert_eq!(cf.activation_count(0, 11, 1_000), 0);
    }

    #[test]
    fn lazy_normalization_survives_window_skips() {
        // Jumping several whole windows (fast-forward) must behave as
        // if the counter were reset at every edge in between.
        let (mut cf, mut mem) = state(hammer_cfg());
        for i in 0..3 {
            cf.on_activation(0, 10, i, &mut mem);
        }
        let out = cf.on_activation(0, 10, 5_500, &mut mem);
        assert_eq!(out.flip_count, 0);
        assert_eq!(cf.activation_count(0, 10, 5_500), 1);
    }

    #[test]
    fn trr_fires_instead_of_flipping_and_parks_the_bank() {
        let cfg = hammer_cfg().with_mitigation(Mitigation::Trr);
        let (mut cf, mut mem) = state(cfg);
        let mut trr = 0;
        for i in 0..12 {
            let out = cf.on_activation(1, 50, i, &mut mem);
            assert_eq!(out.flip_count, 0, "TRR prevents all flips");
            if out.trr {
                trr += 1;
                assert_eq!(out.park_until, Some(i + 16));
            }
        }
        // Count resets on each TRR, so crossings repeat every 4 acts.
        assert_eq!(trr, 3);
        assert_eq!(mem.resident_bytes(), 0, "no data was touched");
    }

    #[test]
    fn elevated_refresh_shrinks_the_window() {
        let cfg = hammer_cfg().with_mitigation(Mitigation::ElevatedRefresh);
        let (mut cf, mut mem) = state(cfg);
        assert_eq!(cf.effective_window(), 250);
        // Three activations per 250-cycle window never reach 4.
        let mut flips = 0u64;
        for wnd in 0..4u64 {
            for i in 0..3 {
                flips += cf.on_activation(0, 9, wnd * 250 + i, &mut mem).flip_count;
            }
        }
        assert_eq!(flips, 0, "elevated duty keeps counts under threshold");
    }

    #[test]
    fn retention_decays_once_per_window_past_horizon() {
        let cfg = CellFaultConfig::default()
            .with_hammer_threshold(0)
            .with_retention(100)
            .with_refresh_window(1_000);
        let cfg = CellFaultConfig { retention_prob_ppm: 1_000_000, ..cfg };
        let (mut cf, mut mem) = state(cfg);
        // Early in the window: cells still hold.
        assert_eq!(cf.on_access(3, 40, 50, &mut mem), 0);
        // Past the horizon: full decay (100% here), once.
        assert_eq!(cf.on_access(3, 40, 500, &mut mem), 128 * 8);
        assert_eq!(cf.on_access(3, 40, 600, &mut mem), 0, "once per window");
        // Next window decays again.
        assert_eq!(cf.on_access(3, 40, 1_500, &mut mem), 128 * 8);
    }

    #[test]
    fn retention_never_fires_when_horizon_exceeds_window() {
        let cfg = CellFaultConfig::default()
            .with_hammer_threshold(0)
            .with_retention(2_000)
            .with_refresh_window(1_000);
        let (mut cf, mut mem) = state(cfg);
        for c in (0..10_000).step_by(37) {
            assert_eq!(cf.on_access(0, 0, c, &mut mem), 0);
        }
    }

    #[test]
    fn streams_are_order_independent() {
        // The same set of activations in a different interleaving must
        // produce the same flips — the stateless-hash property.
        let run = |pairs: &[(BankId, u64)]| -> u64 {
            let (mut cf, mut mem) = state(hammer_cfg());
            let mut flips = 0;
            for (i, &(bank, row)) in pairs.iter().enumerate() {
                flips += cf.on_activation(bank, row, i as u64 / 2, &mut mem).flip_count;
            }
            flips
        };
        let a: Vec<(BankId, u64)> = (0..16).map(|i| ((i % 2) as BankId, 20 + (i % 2))).collect();
        let b: Vec<(BankId, u64)> = a.iter().rev().copied().collect();
        assert_eq!(run(&a), run(&b));
        assert!(run(&a) > 0);
    }

    #[test]
    fn reset_clears_tracking() {
        let (mut cf, mut mem) = state(hammer_cfg());
        for i in 0..3 {
            cf.on_activation(0, 10, i, &mut mem);
        }
        cf.reset();
        assert_eq!(cf.activation_count(0, 10, 0), 0);
    }
}
