//! End-to-end conformance checks: CI's twelve conformance legs (the
//! rows of [`CI_LEGS`]), a clean mini-campaign over all four paper
//! presets and map kinds, and the checker-of-the-checker path — a
//! deliberately corrupted datapath must be caught, shrunk to a minimal
//! stream, and reproduced from the written replay file.
//!
//! Every leg runs here at `min(CI count, 300)` streams; its
//! `#[ignore]`d `*_at_ci_count` twin runs CI's count:
//! `cargo test --release -p hmc-conform --test conformance -- --ignored`.
//! A divergent campaign is shrunk, and its repro written to
//! `fuzz-repro/<name>.csv` at the workspace root.

use std::io::BufReader;
use std::path::Path;

use hmc_conform::fuzz::{campaign_with_corruption, case_for_stream, gen_stream};
use hmc_conform::{
    campaign, hammer_demo, run_case, run_case_cross_interconnect, run_case_cross_timing,
    shrink_case, write_repro, CampaignConfig, CorruptSpec, FuzzCase, Leg, MapKind, CI_LEGS,
};
use hmc_core::{NocParams, RefreshParams, SimParams, TimingParams};
use hmc_types::{DeviceConfig, TimingKind};
use hmc_workloads::{OpKind, Replay, Workload};

fn axes(timing: TimingKind, interconnect: NocParams) -> SimParams {
    SimParams {
        timing: TimingParams::of(timing),
        interconnect,
        ..SimParams::default()
    }
}

/// Run `cfg` and fail on its first divergent stream, after shrinking it
/// and writing its repro to `fuzz-repro/<what>.csv`.
fn assert_campaign_clean(what: &str, cfg: &CampaignConfig) {
    let report = campaign(cfg);
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repro = crate_dir
        .ancestors()
        .nth(2)
        .unwrap()
        .join(format!("fuzz-repro/{}.csv", what.replace(' ', "-")));
    let mut account = Vec::new();
    if report.shrink_failure(&repro, |line| account.push(line)) {
        panic!("{what} campaign:\n{}", account.join("\n"));
    }
    assert_eq!(report.streams_run, cfg.streams, "{what}");
    assert!(report.responses_checked > 0, "{what}");
    println!(
        "{what}: PASS: {} streams clean, {} responses oracle-checked",
        report.streams_run, report.responses_checked
    );
}

/// Run CI's leg at `seed` at the stream count `streams` picks for it.
fn run_leg(seed: u64, streams: fn(&Leg) -> usize) {
    let leg = Leg::by_seed(seed).expect("a CI leg");
    assert_campaign_clean(leg.name, &leg.config(streams(leg)));
}

/// Each CI leg's two tests: tier-1's at `Leg::tier1_streams`, and its
/// `#[ignore]`d twin at CI's count, which CI's conformance job runs.
macro_rules! leg_tests {
    ($($seed:literal => $tier1:ident, $ci:ident;)*) => {
        $(
            #[test]
            fn $tier1() {
                run_leg($seed, Leg::tier1_streams);
            }

            #[test]
            #[ignore = "CI's stream count; run with --release -- --ignored"]
            fn $ci() {
                run_leg($seed, |leg| leg.ci_streams);
            }
        )*

        /// The seeds the leg tests run, in table order.
        const TESTED_SEEDS: &[u64] = &[$($seed),*];
    };
}

leg_tests! {
    0xC0FF_EE00 => pinned_campaign_at_the_ci_seed_is_clean, pinned_campaign_at_ci_count;
    0xC0FF_EE01 => fast_forward_campaign_at_the_ci_seed_is_clean, fast_forward_campaign_at_ci_count;
    0xC0FF_EE02 => ddr_campaign_with_pinned_seed_is_clean, ddr_campaign_at_ci_count;
    0xC0FF_EE03 => ring_campaign_with_pinned_seed_is_clean, ring_campaign_at_ci_count;
    0xC0FF_EE04 => mesh_campaign_with_pinned_seed_is_clean, mesh_campaign_at_ci_count;
    0xC0FF_EE05 => hammer_campaign_with_pinned_seed_is_clean, hammer_campaign_at_ci_count;
    0xC0FF_EE06 => link_error_campaign_at_the_ci_seed_is_clean, link_error_campaign_at_ci_count;
    0xC0FF_EE07 => ddr_fast_forward_campaign_at_the_ci_seed_is_clean, ddr_fast_forward_campaign_at_ci_count;
    0xC0FF_EE08 => combined_axis_campaign_at_the_ci_seed_is_clean, combined_axis_campaign_at_ci_count;
    0xC0FF_EE09 => ring_fast_forward_campaign_at_the_ci_seed_is_clean, ring_fast_forward_campaign_at_ci_count;
    0xC0FF_EE0A => serialized_link_campaign_at_the_ci_seed_is_clean, serialized_link_campaign_at_ci_count;
    0xC0FF_EE0B => mesh_locality_aware_campaign_at_the_ci_seed_is_clean, mesh_locality_aware_campaign_at_ci_count;
}

#[test]
fn the_leg_table_names_each_ci_seed_once_and_every_leg_is_tested() {
    let ci_seeds: Vec<u64> = (0..12).map(|i| 0xC0FF_EE00 + i).collect();
    let table: Vec<u64> = CI_LEGS.iter().map(|leg| leg.base_seed).collect();
    assert_eq!(table, ci_seeds, "C0FFEE00..0B, once each, in order");
    assert_eq!(TESTED_SEEDS, &ci_seeds[..]);
    let mut names: Vec<&str> = CI_LEGS.iter().map(|leg| leg.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), CI_LEGS.len(), "names pick distinct files");
}

/// Enough streams to hit every (preset, map) pair once: 4 presets
/// rotate fastest, maps every 4 streams -> 16 streams covers the grid.
fn mini_campaign() -> CampaignConfig {
    CampaignConfig {
        streams: 16,
        stream_len: 32,
        base_seed: 0xD1FF_5EED,
        force_gaps: false,
        ..CampaignConfig::default()
    }
}

#[test]
fn mini_campaign_is_clean_across_presets_and_maps() {
    assert_campaign_clean("mini", &mini_campaign());
}

#[test]
fn full_thread_sweep_passes_on_one_stream_per_preset() {
    let cfg = CampaignConfig {
        streams: 4,
        stream_len: 32,
        base_seed: 0xFADE,
        force_gaps: false,
        ..CampaignConfig::default()
    };
    assert_campaign_clean("full-thread sweep", &cfg);
}

#[test]
fn seeded_corruption_is_caught_shrunk_and_replayable() {
    let cfg = mini_campaign();
    let spec = CorruptSpec { addr: 0, xor: 0xbad0_bad0 };
    let report = campaign_with_corruption(&cfg, Some((0, spec)));
    let (case, failure) = report.failure.expect("the corrupted stream must fail");
    assert_eq!(report.streams_run, 1, "stream 0 carries the corruption");
    assert!(
        failure.description.contains("mismatch"),
        "the oracle flags wrong read data: {failure}"
    );

    // Shrink to a minimal stream — the corrupted write plus the read
    // that observes it, possibly with an op the ddmin pass cannot
    // split away.
    let shrunk = shrink_case(&case);
    assert!(shrunk.minimal.ops.len() < case.ops.len());
    assert!(shrunk.minimal.ops.len() >= 2);

    // The repro file must round-trip through hmc_workloads::Replay and
    // still reproduce the failure when re-run as a case.
    let path = std::env::temp_dir().join("hmc_conform_it_repro.csv");
    write_repro(&shrunk.minimal, &shrunk.failure, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let mut replay = Replay::read_csv(BufReader::new(&bytes[..])).unwrap();
    assert_eq!(replay.len(), shrunk.minimal.ops.len());

    let mut ops = Vec::new();
    while let Some(op) = replay.next_op() {
        ops.push(op);
    }
    let replayed = FuzzCase {
        ops,
        ..shrunk.minimal.clone()
    };
    assert!(
        run_case(&replayed).is_err(),
        "the replayed minimal case must still fail"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn posted_only_streams_quiesce_on_every_preset() {
    // Posted traffic exercises the no-tag, no-response path: quiesce
    // (idle device, tokens restored) is the only observable contract.
    for (label, device) in DeviceConfig::paper_configs() {
        let block = device.block_size.bytes() as u64;
        let ops: Vec<_> = (0..24)
            .map(|i| hmc_workloads::MemOp {
                kind: OpKind::PostedWrite,
                addr: (i % 8) * block,
                size: hmc_types::BlockSize::B32,
            })
            .collect();
        let case = FuzzCase::new(label, device, MapKind::LowInterleave, 1, ops);
        let out = run_case(&case).unwrap_or_else(|f| panic!("{label}: {f}"));
        assert_eq!(out.checked, 0, "posted ops owe no responses");
    }
}

#[test]
fn campaign_schedule_is_reproducible() {
    let cfg = mini_campaign();
    for i in 0..8 {
        let a = case_for_stream(&cfg, i);
        let b = case_for_stream(&cfg, i);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.map, b.map);
        assert_eq!(a.gap_every, b.gap_every);
        assert_eq!(a.gap_cycles, b.gap_cycles);
    }
}

#[test]
fn forced_fast_forward_campaign_is_clean() {
    // Every stream gapped, so every fast-forward run really jumps.
    let cfg = CampaignConfig {
        streams: 8,
        stream_len: 24,
        base_seed: 0x0FF0_FF00,
        force_gaps: true,
        ..CampaignConfig::default()
    };
    assert_campaign_clean("forced fast-forward", &cfg);
}

#[test]
fn ddr_full_thread_sweep_passes_stepped_and_fast_forward() {
    // DdrTiming with every stream gapped: stepped and fast-forward
    // engine modes, bit-identical.
    let cfg = CampaignConfig {
        streams: 4,
        stream_len: 32,
        base_seed: 0xFADE,
        force_gaps: true,
        params: axes(TimingKind::Ddr, NocParams::default()),
        ..CampaignConfig::default()
    };
    assert_campaign_clean("ddr full-thread sweep", &cfg);
}

#[test]
fn backends_agree_functionally_on_every_preset_and_map() {
    // The backend-differential axis of the conformance suite: the same
    // seeded stream on every preset × address map, run to completion
    // under the classic constant-time model and the DDR state machine.
    // Responses (op, owner link, data) must match bit-for-bit; cycle
    // counts are expected to differ and are only reported.
    let mut deltas = Vec::new();
    for (pi, (label, device)) in DeviceConfig::paper_configs().iter().enumerate() {
        for (mi, map) in MapKind::ALL.into_iter().enumerate() {
            let seed = 0x5EED_0000 + (pi * 4 + mi) as u64;
            let ops = gen_stream(seed, 24, device);
            let case = FuzzCase::new(label, device.clone(), map, seed, ops);
            let out = run_case_cross_timing(&case)
                .unwrap_or_else(|f| panic!("{label} / {}: {f}", map.name()));
            assert!(out.classic.checked > 0);
            assert_eq!(out.classic.checked, out.ddr.checked);
            deltas.push((label.to_string(), map.name(), out.latency_delta));
        }
    }
    assert_eq!(deltas.len(), 16, "all preset x map pairs ran");
    // Reported, not asserted: how much slower (or faster) DDR ran.
    for (preset, map, delta) in &deltas {
        eprintln!("latency delta ({preset}, {map}): ddr - classic = {delta} cycles");
    }
}

#[test]
fn fabrics_agree_functionally_on_every_preset_and_map() {
    // The fabric-differential axis: the same seeded stream on every
    // preset × address map, run to completion on the crossbar, the
    // ring, and the mesh. Responses (op, owner link, data) must match
    // bit-for-bit; hop latency makes cycle counts differ, so those are
    // only reported.
    let mut deltas = Vec::new();
    for (pi, (label, device)) in DeviceConfig::paper_configs().iter().enumerate() {
        for (mi, map) in MapKind::ALL.into_iter().enumerate() {
            let seed = 0xFAB0_0000 + (pi * 4 + mi) as u64;
            let ops = gen_stream(seed, 24, device);
            let case = FuzzCase::new(label, device.clone(), map, seed, ops);
            let out = run_case_cross_interconnect(&case)
                .unwrap_or_else(|f| panic!("{label} / {}: {f}", map.name()));
            assert!(out.crossbar.checked > 0);
            assert_eq!(out.crossbar.checked, out.ring.checked);
            assert_eq!(out.crossbar.checked, out.mesh.checked);
            deltas.push((label.to_string(), map.name(), out.ring_delta, out.mesh_delta));
        }
    }
    assert_eq!(deltas.len(), 16, "all preset x map pairs ran");
    for (preset, map, ring, mesh) in &deltas {
        eprintln!("fabric deltas ({preset}, {map}): ring {ring:+}, mesh {mesh:+} cycles");
    }
}

#[test]
fn hammer_demo_proves_end_to_end_detection() {
    // The fault-injection checker-of-the-checker: every injected flip
    // must surface through response data and be flagged by the oracle,
    // and the same adversarial stream must complete clean under TRR.
    let report = hammer_demo(0xC0FF_EE00, None).unwrap_or_else(|f| panic!("{f}"));
    assert!(report.bit_flips > 0, "the burst must actually flip bits");
    assert_eq!(report.detected_bits, report.bit_flips, "100% detection");
    assert!(report.corrupted_responses > 0);
    assert!(report.trr_refreshes > 0, "the mitigated leg must fire TRR");
}

/// A [`gen_stream`] stream folded onto rows of one bank in each of two
/// neighbouring vaults (under the low-interleave map; two hot spots
/// under any map): block `b` of the generator's working set becomes row
/// `b / 2` of block column `b % 2`, offsets kept. Two owner links each
/// pour a crossbar queue's worth of requests at one four-slot vault
/// queue, which is what fills it.
fn hot_bank_stream(seed: u64, len: usize, device: &DeviceConfig) -> Vec<hmc_workloads::MemOp> {
    let block = device.block_size.bytes() as u64;
    let row_stride = block * u64::from(device.num_vaults) * u64::from(device.banks_per_vault);
    let mut ops = gen_stream(seed, len, device);
    for op in &mut ops {
        let (b, offset) = (op.addr / block, op.addr % block);
        op.addr = (b % 2) * block + (b / 2) * row_stride + offset;
    }
    ops
}

#[test]
fn hot_bank_streams_fill_small_vault_queues_under_fast_forward() {
    // The campaign presets have 64-slot vault queues, which 48-op
    // streams never fill, so the fast-forward horizon's rule for a
    // crossbar stalled on a full vault queue never sees campaign
    // traffic. These streams do fill `small()`'s four slots, and every
    // gap starts with requests waiting at the crossbar. Run like a
    // campaign — stepped and fast-forward, oracle and invariants on —
    // under both backends.
    let device = DeviceConfig::small();
    for timing in [TimingKind::Ddr, TimingKind::Classic] {
        for i in 0..100u64 {
            let seed = 0xC0FF_EE07 ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let map = MapKind::ALL[i as usize % MapKind::ALL.len()];
            let ops = hot_bank_stream(seed, 48, &device);
            let mut case = FuzzCase::new("small", device.clone(), map, seed, ops)
                .with_params(axes(timing, NocParams::default()));
            case.gap_every = 1 + i % 3;
            case.gap_cycles = 100 + seed % 300;
            let out = run_case(&case).unwrap_or_else(|f| {
                panic!("{timing:?} stream {i} / {} (seed {seed:#x}): {f}", map.name())
            });
            assert!(out.checked > 0);
        }
    }
}

/// A [`gen_stream`] stream folded onto rows of one bank in each of four
/// vaults, two per owner link: block `b` becomes row `b / 4` of block
/// column 0, 1, 4 or 5 (by `b % 4`), offsets kept. Under the
/// low-interleave map links 0 and 1 each pour requests at two four-slot
/// vault queues, so each of their crossbar queues holds keyed slots
/// bound for two vaults, and the walk takes a request for whichever
/// vault frees a slot first from behind keyed slots bound for the other.
fn two_hot_banks_per_link(
    seed: u64,
    len: usize,
    device: &DeviceConfig,
) -> Vec<hmc_workloads::MemOp> {
    let block = device.block_size.bytes() as u64;
    let row_stride = block * u64::from(device.num_vaults) * u64::from(device.banks_per_vault);
    let mut ops = gen_stream(seed, len, device);
    for op in &mut ops {
        let (b, offset) = (op.addr / block, op.addr % block);
        let column = b % 2 + 4 * (b / 2 % 2);
        op.addr = column * block + (b / 4) * row_stride + offset;
    }
    ops
}

#[test]
fn two_hot_banks_per_link_take_requests_from_behind_keyed_slots() {
    // The campaign legs never fill a vault queue, so no crossbar slot is
    // keyed in them, and a slot's route key that drifts to a neighbour
    // when the walk removes a packet from the middle of the queue goes
    // unseen. These streams fill `small()`'s four-slot vault queues from
    // two vaults per crossbar queue and make that removal routine.
    // Stepped and batched, oracle and invariants on, both backends.
    let device = DeviceConfig::small();
    for timing in [TimingKind::Classic, TimingKind::Ddr] {
        for i in 0..100u64 {
            let seed = 0xC0FF_EE0C ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let map = MapKind::ALL[i as usize % MapKind::ALL.len()];
            let ops = two_hot_banks_per_link(seed, 48, &device);
            let mut case = FuzzCase::new("small", device.clone(), map, seed, ops)
                .with_params(axes(timing, NocParams::default()));
            case.gap_every = 1 + i % 3;
            case.gap_cycles = 100 + seed % 300;
            let out = run_case(&case).unwrap_or_else(|f| {
                panic!("{timing:?} stream {i} / {} (seed {seed:#x}): {f}", map.name())
            });
            assert!(out.checked > 0);
        }
    }
}

#[test]
fn hot_bank_streams_stay_conformant_under_periodic_refresh() {
    // No campaign leg sets `SimParams::refresh`, so nothing compared a
    // fast-forward run with a stepped one while refresh windows rotated
    // through busy banks — where a window closes the row a queued row
    // conflict was waiting out tRAS on, and the request must issue at
    // the window's end, not at the stale tRAS edge. The same hot-bank
    // streams, a different refresh schedule per stream.
    let device = DeviceConfig::small();
    for timing in [TimingKind::Ddr, TimingKind::Classic] {
        for i in 0..40u64 {
            let seed = 0xC0FF_EE08 ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let map = MapKind::ALL[i as usize % MapKind::ALL.len()];
            let refresh = RefreshParams {
                interval: 16 + 4 * (i % 13),
                duration: 1 + i % 8,
            };
            let ops = hot_bank_stream(seed, 48, &device);
            let params = SimParams {
                refresh: Some(refresh),
                ..axes(timing, NocParams::default())
            };
            let mut case =
                FuzzCase::new("small", device.clone(), map, seed, ops).with_params(params);
            case.gap_every = 1 + i % 3;
            case.gap_cycles = 100 + seed % 300;
            let out = run_case(&case).unwrap_or_else(|f| {
                panic!(
                    "{timing:?} stream {i} / {} / {refresh:?} (seed {seed:#x}): {f}",
                    map.name()
                )
            });
            assert!(out.checked > 0);
        }
    }
}

#[test]
fn hot_bank_streams_park_banks_under_sleeping_vaults() {
    // TRR parks a bank from inside the tick that issued to it, and the
    // vault caches that park as the edge it sleeps on. The campaign's
    // hammer streams spread over 64-slot vault queues; these fill
    // `small()`'s four slots behind one bank, with every activation
    // crossing a threshold of one, so parks land under queued requests.
    // A two-entry scan window, shallower than the queue, makes requests
    // slide into the window behind every issue. DDR, stepped and
    // fast-forward, oracle and invariants on.
    let device = DeviceConfig::small();
    let mut trr = 0;
    for i in 0..100u64 {
        let seed = 0xC0FF_EE05 ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let map = MapKind::ALL[i as usize % MapKind::ALL.len()];
        let faults = hmc_conform::default_hammer_faults()
            .with_hammer_threshold(1)
            .with_seed(seed);
        let params = SimParams {
            cell_faults: Some(faults),
            vault_window: Some(2),
            ..axes(TimingKind::Ddr, NocParams::default())
        };
        let ops = hot_bank_stream(seed, 48, &device);
        let mut case = FuzzCase::new("small", device.clone(), map, seed, ops).with_params(params);
        case.gap_every = 1 + i % 3;
        case.gap_cycles = 100 + seed % 300;
        let out = run_case(&case)
            .unwrap_or_else(|f| panic!("stream {i} / {} (seed {seed:#x}): {f}", map.name()));
        assert!(out.checked > 0);
        trr += out.reference.fault_stats[2];
    }
    assert!(trr > 0, "the leg must park banks");
}
