//! Deterministic command-stream generation and the fuzz campaign.
//!
//! Streams come from a 64-bit LCG seeded by the campaign's base seed
//! and the stream index — no wall-clock, no OS entropy. The campaign
//! rotates every stream across the four paper device presets and the
//! four address-map kinds, so a `(base seed, stream index)` pair names
//! one exact `(preset, map, ops)` case forever.

use hmc_core::SimParams;
use hmc_types::cellfault::{CellFaultConfig, Mitigation};
use hmc_types::{
    AddressMap, BankFirstMap, BankId, BlockSize, CustomMap, DecodedAddr, DeviceConfig, Field,
    LinearMap, LinkFaultConfig, LowInterleaveMap, MapGeometry, VaultId,
};
use hmc_workloads::{MemOp, OpKind};

use crate::harness::{owner_link, run_case, run_case_lenient, CorruptSpec, Failure, FuzzCase};

/// A 64-bit linear congruential generator (Knuth's MMIX multiplier)
/// with a splitmix-style output mix — deterministic, seedable, and
/// dependency-free.
#[derive(Debug, Clone, Copy)]
pub struct Lcg(u64);

impl Lcg {
    /// Seed the generator.
    pub fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        hmc_types::splitmix64_mix(self.0)
    }

    /// Uniform-ish value in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The address-map kinds the campaign sweeps: the three specification
/// maps plus one [`CustomMap`] ordering none of them uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKind {
    /// `[offset][vault][bank][row]` — the specification default.
    LowInterleave,
    /// `[offset][bank][vault][row]` — the conflict-prone ablation.
    BankFirst,
    /// `[offset][row][bank][vault]` — the DIMM-like layout.
    Linear,
    /// `[offset][row][vault][bank]` via [`CustomMap`] — an ordering no
    /// built-in map provides.
    Custom,
}

impl MapKind {
    /// All kinds, in sweep order.
    pub const ALL: [MapKind; 4] = [
        MapKind::LowInterleave,
        MapKind::BankFirst,
        MapKind::Linear,
        MapKind::Custom,
    ];

    /// Instantiate the map for a device geometry.
    pub fn make(self, geometry: MapGeometry) -> Box<dyn AddressMap> {
        match self {
            MapKind::LowInterleave => {
                Box::new(LowInterleaveMap::new(geometry).expect("paper geometries validate"))
            }
            MapKind::BankFirst => {
                Box::new(BankFirstMap::new(geometry).expect("paper geometries validate"))
            }
            MapKind::Linear => {
                Box::new(LinearMap::new(geometry).expect("paper geometries validate"))
            }
            MapKind::Custom => Box::new(
                CustomMap::new(geometry, [Field::Row, Field::Vault, Field::Bank])
                    .expect("paper geometries validate"),
            ),
        }
    }

    /// Sweep-order label.
    pub fn name(self) -> &'static str {
        match self {
            MapKind::LowInterleave => "low-interleave",
            MapKind::BankFirst => "bank-first",
            MapKind::Linear => "linear",
            MapKind::Custom => "custom-rvb",
        }
    }
}

/// Read/write sizes the generator draws from (all ≤ the presets'
/// 128-byte block).
const SIZES: [BlockSize; 4] = [BlockSize::B16, BlockSize::B32, BlockSize::B64, BlockSize::B128];

/// Generate one seeded operation stream for a device configuration.
///
/// Addresses stay inside a small working set of blocks so that
/// read-after-write and atomic read-modify-write chains actually
/// collide; offsets respect each command's span and alignment rules
/// (atomics 16-byte aligned, BWR 8-byte aligned, reads/writes at
/// offset 0 so the span never crosses a block).
pub fn gen_stream(seed: u64, len: usize, config: &DeviceConfig) -> Vec<MemOp> {
    let block = config.block_size.bytes() as u64;
    // Working set: a handful of blocks per link keeps collisions hot.
    let blocks = (config.num_links as u64 * 12).min(config.capacity_bytes / block);
    let mut lcg = Lcg::new(seed);
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let base = lcg.below(blocks) * block;
        let op = match lcg.below(100) {
            0..=39 => MemOp::read(base, SIZES[lcg.below(4) as usize]),
            40..=64 => MemOp::write(base, SIZES[lcg.below(4) as usize]),
            65..=74 => MemOp {
                kind: OpKind::PostedWrite,
                addr: base,
                size: SIZES[lcg.below(4) as usize],
            },
            75..=84 => MemOp {
                kind: OpKind::TwoAdd8,
                addr: base + lcg.below(block / 16) * 16,
                size: BlockSize::B16,
            },
            85..=89 => MemOp {
                kind: OpKind::Add16,
                addr: base + lcg.below(block / 16) * 16,
                size: BlockSize::B16,
            },
            _ => MemOp {
                kind: OpKind::BitWrite,
                addr: base + lcg.below(block / 8) * 8,
                size: BlockSize::B16,
            },
        };
        ops.push(op);
    }
    ops
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of streams to run.
    pub streams: usize,
    /// Operations per stream.
    pub stream_len: usize,
    /// Base seed; stream `i` uses `base_seed ^ splitmix(i)`.
    pub base_seed: u64,
    /// Force the stepped-vs-fast-forward axis and a seeded idle gap
    /// onto every stream, instead of the default rotation (the axis on
    /// every stream, gaps on two of every three).
    pub fast_forward: bool,
    /// The simulation axes every stream runs under (see
    /// [`FuzzCase::params`]). Its fault blocks parameterize the `hammer`
    /// and `link_errors` axes below and stay off until those arm them;
    /// each stream re-seeds them with its own stream seed.
    pub params: SimParams,
    /// Arm the RowHammer fault axis: every stream runs with cell-fault
    /// injection installed (TRR-mitigated by default, so the oracle
    /// stays exact), and every second stream carries an appended
    /// adversarial hammer burst that actually crosses the threshold.
    /// Off by default — pinned-seed campaigns keep their behaviour.
    /// `params.cell_faults` overrides [`default_hammer_faults`].
    pub hammer: bool,
    /// Arm the link-error axis: every stream runs with the retry
    /// protocol under fire ([`default_link_faults`] unless
    /// `params.link_faults` overrides them),
    /// the oracle predicting the exact poisoned tag set at issue time,
    /// and the poisoned-op sets included in the differential compare.
    /// Off by default — pinned-seed campaigns keep their behaviour.
    pub link_errors: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            streams: 64,
            stream_len: 48,
            base_seed: 0xC0FF_EE00,
            fast_forward: false,
            params: SimParams::default(),
            hammer: false,
            link_errors: false,
        }
    }
}

/// Default link-fault axis for `--link-errors` campaigns: a packet
/// error rate high enough that retries are constant, a retry budget
/// tight enough that exhaustion (25%² = 6.25% of packets) actually
/// happens, and short retry/retrain windows so streams still quiesce
/// quickly. Every protocol edge — CRC detection, in-order
/// retransmission, exhaustion aborts, poisoned responses, link
/// retraining — fires inside an ordinary 48-op stream.
pub fn default_link_faults() -> LinkFaultConfig {
    LinkFaultConfig::default()
        .with_error_rate_ppm(250_000)
        .with_retry_cycles(4)
        .with_retry_limit(1)
        .with_retrain_cycles(24)
}

/// Default cell-fault axis for `--hammer` campaigns: a threshold low
/// enough for the appended bursts to cross it, aggressive flip odds,
/// and TRR armed — so the oracle stays exact while the whole fault
/// machinery (counting, crossings, targeted refresh, bank parking) is
/// exercised in both engine modes.
pub fn default_hammer_faults() -> CellFaultConfig {
    CellFaultConfig::default()
        .with_hammer_threshold(64)
        .with_flip_prob_ppm(200_000)
        .with_mitigation(Mitigation::Trr)
}

/// Hammer read pairs per aggressor for exactly one threshold crossing:
/// 1.25 × threshold lands in `[threshold, 2·threshold)`, so no victim
/// bit can be flipped twice (and thereby XOR back to clean).
pub fn crossing_pairs(threshold: u32) -> u64 {
    let t = threshold.max(1) as u64;
    t + t / 4
}

/// Build a deterministic adversarial hammer burst for `config` under
/// `map`: ping-pong reads of two aggressor rows in one seeded
/// `(vault, bank)`, far enough apart that their victim rows are
/// disjoint and chosen to share one owner link — the engine's
/// per-`(link, vault, bank)` ordering guarantee then makes every read
/// close the other aggressor's row, so each is a fresh activation —
/// followed by a full read-back of all four victim rows. Returns the
/// ops and the index of the first read-back op, which callers install
/// as the case's drain barrier so read-back is globally ordered after
/// every flip.
pub fn hammer_burst(
    config: &DeviceConfig,
    map: MapKind,
    seed: u64,
    pairs: u64,
) -> (Vec<MemOp>, usize) {
    let geometry = config.geometry();
    let m = map.make(geometry);
    let block = config.block_size.bytes() as u64;
    let mut lcg = Lcg::new(seed ^ 0x4841_4d52); // "HAMR"
    let vault = lcg.below(geometry.vaults as u64) as VaultId;
    let bank = lcg.below(geometry.banks as u64) as BankId;
    let addr_of = |row: u64| {
        m.encode(DecodedAddr { vault, bank, row, offset: 0 })
            .expect("rows validated against geometry")
            .raw()
    };
    // First aggressor: an interior row with room above for the partner.
    let a = 2 + lcg.below(geometry.rows.saturating_sub(80).max(1));
    // Partner: the first row ≥ a+4 whose block lands on the same owner
    // link. Distance ≥ 4 keeps the two victim pairs {a±1} and {b±1}
    // disjoint from each other and from both aggressors.
    let a_link = owner_link(addr_of(a), block, config.num_links);
    let b = (a + 4..geometry.rows - 1)
        .find(|&r| owner_link(addr_of(r), block, config.num_links) == a_link)
        .unwrap_or(a + 4);
    let size = config.block_size;
    let mut ops = Vec::with_capacity(2 * pairs as usize + 4);
    for _ in 0..pairs {
        ops.push(MemOp::read(addr_of(a), size));
        ops.push(MemOp::read(addr_of(b), size));
    }
    let barrier = ops.len();
    for victim in [a - 1, a + 1, b - 1, b + 1] {
        ops.push(MemOp::read(addr_of(victim), size));
    }
    (ops, barrier)
}

/// Campaign outcome.
#[derive(Debug)]
pub struct CampaignReport {
    /// Streams executed (including the failing one, if any).
    pub streams_run: usize,
    /// Total responses checked by the oracle across all engine runs.
    pub responses_checked: u64,
    /// The first failing case and its failure, if any.
    pub failure: Option<(FuzzCase, Failure)>,
}

impl CampaignReport {
    /// True when every stream passed.
    pub fn is_clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Build the case for stream `i` of a campaign: preset and map derive
/// from the stream index, so every preset × map combination is
/// exercised on a fixed schedule.
pub fn case_for_stream(cfg: &CampaignConfig, i: usize) -> FuzzCase {
    let presets = DeviceConfig::paper_configs();
    let (label, device) = &presets[i % presets.len()];
    let map = MapKind::ALL[(i / presets.len()) % MapKind::ALL.len()];
    let seed = cfg.base_seed ^ Lcg::new(i as u64).next_u64();
    let ops = gen_stream(seed, cfg.stream_len, device);
    let mut case = FuzzCase::new(label, device.clone(), map, seed, ops).with_params(SimParams {
        cell_faults: None,
        link_faults: None,
        ..cfg.params
    });
    // The fast-forward axis runs on every stream; idle gaps (the jumps
    // that make the axis bite) rotate onto two of every three streams
    // with seeded shape, unless forced everywhere.
    if cfg.fast_forward || !i.is_multiple_of(3) {
        let mut gap = Lcg::new(seed ^ 0x6a70);
        case.gap_every = 2 + gap.below(4);
        case.gap_cycles = 200 + gap.below(4_000);
    }
    if cfg.link_errors {
        let base = cfg.params.link_faults.unwrap_or_else(default_link_faults);
        case.params.link_faults = Some(base.with_seed(seed));
    }
    if cfg.hammer {
        let base = cfg.params.cell_faults.unwrap_or_else(default_hammer_faults);
        // Every stream runs with the axis armed (the counting path must
        // be deterministic even without crossings); every second stream
        // carries a real adversarial burst that crosses the threshold.
        case.params.cell_faults = Some(base.with_seed(seed));
        if i % 2 == 1 {
            let pairs = crossing_pairs(base.hammer_threshold);
            let (mut burst, barrier) = hammer_burst(&case.config, map, seed, pairs);
            case.barrier = Some(case.ops.len() + barrier);
            case.ops.append(&mut burst);
        }
    }
    case
}

/// Report of the hammer end-to-end detection demo.
#[derive(Debug, Clone, Copy)]
pub struct HammerDemoReport {
    /// Victim bits the engine flipped in the unmitigated run.
    pub bit_flips: u64,
    /// Corrupted bits the oracle flagged end-to-end — equal to
    /// [`HammerDemoReport::bit_flips`] by the demo's pass condition.
    pub detected_bits: u64,
    /// Read responses that carried corruption.
    pub corrupted_responses: u64,
    /// Targeted refreshes fired by the TRR-mitigated leg.
    pub trr_refreshes: u64,
    /// Mitigation cycle cost: mitigated minus unmitigated span.
    pub trr_cycle_cost: i64,
}

/// The hammer corruption-detection demo — the fault-injection analogue
/// of `--demo-corruption`, proving the oracle catches *every* injected
/// flip end to end:
///
/// 1. An adversarial burst runs unmitigated, stepped and fast-forward,
///    in detection mode. Both runs must observe the bit-identical
///    corruption, and the oracle's flagged-bit tally must equal the
///    engine's `bit_flips` counter exactly — 100% detection.
/// 2. The same stream re-runs under TRR in *strict* mode: it must
///    complete clean, with zero flips and at least one targeted
///    refresh.
///
/// `faults` overrides the axis parameters (threshold, flip odds); the
/// demo pins mitigation, retention, and a one-window refresh horizon
/// itself, since the exact-tally comparison depends on them.
pub fn hammer_demo(
    base_seed: u64,
    faults: Option<CellFaultConfig>,
) -> Result<HammerDemoReport, Failure> {
    let device = DeviceConfig::small();
    let seed = base_seed ^ 0x6465_6d6f; // "demo"
    let base = faults.unwrap_or_else(default_hammer_faults);
    let armed = CellFaultConfig {
        mitigation: Mitigation::None,
        retention_cycles: 0,
        refresh_window: base.refresh_window.max(1 << 20),
        ..base
    }
    .with_seed(seed);
    let pairs = crossing_pairs(armed.hammer_threshold);
    let (ops, barrier) = hammer_burst(&device, MapKind::LowInterleave, seed, pairs);
    let mut case = FuzzCase::new("small", device, MapKind::LowInterleave, seed, ops);
    case.barrier = Some(barrier);
    case.params.cell_faults = Some(armed);

    let (outcome, tally) = run_case_lenient(&case)?;
    let [_, bit_flips, _, _] = outcome.reference.fault_stats;
    if bit_flips == 0 {
        return Err(Failure {
            description: "demo burst crossed no hammer threshold (no bits flipped)".into(),
        });
    }
    if tally.bits != bit_flips {
        return Err(Failure {
            description: format!(
                "detection gap: engine flipped {bit_flips} victim bits but the oracle \
                 flagged {} across {} responses",
                tally.bits, tally.responses
            ),
        });
    }

    let mut mitigated = case.clone();
    mitigated.params.cell_faults = Some(armed.with_mitigation(Mitigation::Trr));
    let trr_outcome = run_case(&mitigated)?;
    let [_, trr_flips, trr_refreshes, _] = trr_outcome.reference.fault_stats;
    if trr_flips != 0 || trr_refreshes == 0 {
        return Err(Failure {
            description: format!(
                "TRR leg flipped {trr_flips} bits with {trr_refreshes} targeted refreshes"
            ),
        });
    }

    Ok(HammerDemoReport {
        bit_flips,
        detected_bits: tally.bits,
        corrupted_responses: tally.responses,
        trr_refreshes,
        trr_cycle_cost: trr_outcome.reference.cycles as i64 - outcome.reference.cycles as i64,
    })
}

/// Run a fuzz campaign, optionally seeding a deliberate corruption
/// into stream `corrupt_stream` (checker-of-the-checker tests). Stops
/// at the first failure.
pub fn campaign_with_corruption(
    cfg: &CampaignConfig,
    corrupt: Option<(usize, CorruptSpec)>,
) -> CampaignReport {
    let mut checked = 0u64;
    for i in 0..cfg.streams {
        let mut case = case_for_stream(cfg, i);
        if let Some((stream, spec)) = corrupt {
            if stream == i {
                // Corrupt the first written address; the fault is only
                // observable through a later read of that block, so
                // append one if the stream happens to lack it (keeps
                // the block-ownership discipline: same block, same
                // owner link).
                let addr = match case
                    .ops
                    .iter()
                    .find(|o| matches!(o.kind, OpKind::Write | OpKind::PostedWrite))
                {
                    Some(o) => o.addr,
                    None => {
                        case.ops.push(MemOp::write(spec.addr, BlockSize::B16));
                        spec.addr
                    }
                };
                if !case.ops.iter().any(|o| {
                    o.kind == OpKind::Read && o.addr == addr
                }) {
                    case.ops.push(MemOp::read(addr, BlockSize::B16));
                }
                case.corrupt = Some(CorruptSpec { addr, xor: spec.xor });
            }
        }
        match run_case(&case) {
            Ok(out) => checked += out.checked,
            Err(failure) => {
                return CampaignReport {
                    streams_run: i + 1,
                    responses_checked: checked,
                    failure: Some((case, failure)),
                }
            }
        }
    }
    CampaignReport {
        streams_run: cfg.streams,
        responses_checked: checked,
        failure: None,
    }
}

/// Run a clean fuzz campaign (no seeded corruption).
pub fn campaign(cfg: &CampaignConfig) -> CampaignReport {
    campaign_with_corruption(cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::owner_link;

    #[test]
    fn streams_are_deterministic() {
        let cfg = DeviceConfig::paper_4link_8bank_2gb();
        assert_eq!(gen_stream(42, 64, &cfg), gen_stream(42, 64, &cfg));
        assert_ne!(gen_stream(42, 64, &cfg), gen_stream(43, 64, &cfg));
    }

    #[test]
    fn generated_ops_respect_span_and_alignment() {
        let cfg = DeviceConfig::paper_8link_16bank_8gb();
        let block = cfg.block_size.bytes() as u64;
        for op in gen_stream(7, 2_000, &cfg) {
            assert!(op.addr < cfg.capacity_bytes);
            let off = op.addr % block;
            match op.kind {
                OpKind::Read | OpKind::Write | OpKind::PostedWrite => {
                    assert_eq!(off, 0);
                    assert!(op.size.bytes() as u64 <= block);
                }
                OpKind::TwoAdd8 | OpKind::Add16 => {
                    assert_eq!(off % 16, 0);
                    assert!(off + 16 <= block);
                }
                OpKind::BitWrite => {
                    assert_eq!(off % 8, 0);
                    assert!(off + 8 <= block);
                }
            }
        }
    }

    #[test]
    fn every_block_has_a_single_owner_link() {
        let cfg = DeviceConfig::paper_4link_8bank_2gb();
        let block = cfg.block_size.bytes() as u64;
        let ops = gen_stream(11, 1_000, &cfg);
        let mut owners = std::collections::HashMap::new();
        for op in &ops {
            let owner = owner_link(op.addr, block, cfg.num_links);
            let prev = owners.insert(op.addr / block, owner);
            assert!(prev.is_none() || prev == Some(owner));
        }
    }

    #[test]
    fn case_schedule_covers_presets_maps_and_threads() {
        let cfg = CampaignConfig { streams: 16, ..Default::default() };
        let mut pairs = std::collections::HashSet::new();
        for i in 0..16 {
            let case = case_for_stream(&cfg, i);
            pairs.insert((case.label.clone(), case.map.name()));
        }
        assert_eq!(pairs.len(), 16, "every paper preset under every map kind");
    }

    #[test]
    fn gap_rotation_covers_both_shapes_and_the_force_flag_gaps_all() {
        let cfg = CampaignConfig { streams: 12, ..Default::default() };
        let gapped = (0..12)
            .filter(|&i| case_for_stream(&cfg, i).gap_cycles > 0)
            .count();
        assert_eq!(gapped, 8, "two of every three streams carry a gap");
        for i in 0..12 {
            let case = case_for_stream(&cfg, i);
            assert!(case.fast_forward, "the axis runs on every stream");
            assert_eq!(case.gap_every > 0, case.gap_cycles > 0);
        }
        let forced = CampaignConfig { fast_forward: true, ..cfg };
        assert!((0..12).all(|i| case_for_stream(&forced, i).gap_cycles > 0));
    }

    #[test]
    fn hammer_bursts_ping_pong_one_owner_link_with_disjoint_victims() {
        let device = DeviceConfig::small();
        let block = device.block_size.bytes() as u64;
        for map in MapKind::ALL {
            let (ops, barrier) = hammer_burst(&device, map, 99, 80);
            assert_eq!(ops.len(), 2 * 80 + 4);
            assert_eq!(barrier, 160, "barrier sits between burst and read-back");
            assert_eq!(ops, hammer_burst(&device, map, 99, 80).0, "deterministic");
            // The ping-pong alternates exactly two addresses on one link.
            let a = ops[0].addr;
            let b = ops[1].addr;
            assert_ne!(a, b);
            assert_eq!(
                owner_link(a, block, device.num_links),
                owner_link(b, block, device.num_links),
                "{}: aggressors must share a (link, vault, bank) stream",
                map.name()
            );
            for pair in ops[..barrier].chunks(2) {
                assert_eq!((pair[0].addr, pair[1].addr), (a, b));
                assert!(pair.iter().all(|o| o.kind == OpKind::Read));
            }
            // Four distinct victim rows, none of them an aggressor.
            let victims: std::collections::HashSet<u64> =
                ops[barrier..].iter().map(|o| o.addr).collect();
            assert_eq!(victims.len(), 4);
            assert!(!victims.contains(&a) && !victims.contains(&b));
        }
    }

    #[test]
    fn hammer_campaigns_arm_every_stream_and_burst_every_second() {
        let cfg = CampaignConfig { streams: 8, hammer: true, ..Default::default() };
        for i in 0..8 {
            let case = case_for_stream(&cfg, i);
            let faults = case.params.cell_faults.expect("hammer campaigns arm every stream");
            assert_eq!(faults.seed, case.seed, "per-stream fault seed");
            assert_eq!(faults.mitigation, Mitigation::Trr, "campaign default is TRR");
            if i % 2 == 1 {
                let pairs = crossing_pairs(faults.hammer_threshold);
                assert_eq!(case.ops.len(), cfg.stream_len + 2 * pairs as usize + 4);
                assert_eq!(case.barrier, Some(cfg.stream_len + 2 * pairs as usize));
            } else {
                assert_eq!(case.ops.len(), cfg.stream_len, "armed but burst-free");
                assert_eq!(case.barrier, None);
            }
        }
        // The default campaign stays exactly as before the axis existed.
        let plain = CampaignConfig { streams: 8, ..Default::default() };
        for i in 0..8 {
            let case = case_for_stream(&plain, i);
            assert!(case.params.cell_faults.is_none() && case.barrier.is_none());
        }
    }

    #[test]
    fn link_error_campaigns_arm_every_stream_with_per_stream_seeds() {
        let cfg = CampaignConfig { streams: 6, link_errors: true, ..Default::default() };
        for i in 0..6 {
            let case = case_for_stream(&cfg, i);
            let lf = case.params.link_faults.expect("link-error campaigns arm every stream");
            assert_eq!(lf.seed, case.seed, "per-stream fault seed");
            assert_eq!(lf.error_rate_ppm, default_link_faults().error_rate_ppm);
        }
        // The default campaign stays exactly as before the axis existed.
        let plain = CampaignConfig { streams: 6, ..Default::default() };
        assert!((0..6).all(|i| case_for_stream(&plain, i).params.link_faults.is_none()));
    }

    #[test]
    fn a_small_link_error_campaign_passes_end_to_end() {
        let cfg = CampaignConfig {
            streams: 4,
            stream_len: 32,
            link_errors: true,
            ..Default::default()
        };
        let report = campaign(&cfg);
        if let Some((case, failure)) = &report.failure {
            panic!("stream {} ({}): {failure}", report.streams_run - 1, case.label);
        }
        assert!(report.responses_checked > 0);
    }

    #[test]
    fn crossing_pairs_land_inside_one_crossing() {
        for t in [1u32, 4, 64, 256, 1000] {
            let p = crossing_pairs(t);
            assert!(p >= t as u64 && p < 2 * t as u64, "threshold {t}: {p} pairs");
        }
        assert!(crossing_pairs(0) > 0, "disabled axis still builds a burst");
    }

    #[test]
    fn all_map_kinds_instantiate_on_all_presets() {
        for (_, cfg) in DeviceConfig::paper_configs() {
            for kind in MapKind::ALL {
                let map = kind.make(cfg.geometry());
                assert!(!map.name().is_empty());
            }
        }
    }
}
