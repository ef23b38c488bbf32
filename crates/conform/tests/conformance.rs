//! End-to-end conformance checks: a clean mini-campaign over all four
//! paper presets and map kinds, and the checker-of-the-checker path —
//! a deliberately corrupted datapath must be caught, shrunk to a
//! minimal stream, and reproduced from the written replay file.

use std::io::BufReader;

use hmc_conform::fuzz::{campaign_with_corruption, case_for_stream, gen_stream};
use hmc_conform::{
    campaign, hammer_demo, run_case, run_case_cross_interconnect, run_case_cross_timing,
    shrink_case, write_repro, CampaignConfig, CorruptSpec, FuzzCase, MapKind,
};
use hmc_core::{NocParams, RefreshParams, SimParams, TimingParams};
use hmc_types::{ArbitrationKind, DeviceConfig, InterconnectKind, TimingKind};
use hmc_workloads::{OpKind, Replay, Workload};

fn axes(timing: TimingKind, interconnect: NocParams) -> SimParams {
    SimParams {
        timing: TimingParams::of(timing),
        interconnect,
        ..SimParams::default()
    }
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
    let report = campaign(&mini_campaign());
    if let Some((case, failure)) = &report.failure {
        panic!(
            "stream on {} / {} (seed {:#x}) diverged: {failure}",
            case.label,
            case.map.name(),
            case.seed
        );
    }
    assert_eq!(report.streams_run, 16);
    assert!(report.responses_checked > 0);
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
    let report = campaign(&cfg);
    assert!(report.is_clean(), "{:?}", report.failure.map(|(_, f)| f.to_string()));
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
    let report = campaign(&cfg);
    assert!(report.is_clean(), "{:?}", report.failure.map(|(_, f)| f.to_string()));
    assert_eq!(report.streams_run, 8);
}

#[test]
fn ddr_campaign_with_pinned_seed_is_clean() {
    // The DDR backend through the full harness: oracle agreement,
    // invariant checks, fast-forward axis, quiesce — all
    // under the cycle-accurate state machine, at a pinned seed so this
    // is the same guard every CI run executes.
    let cfg = CampaignConfig {
        streams: 16,
        stream_len: 32,
        base_seed: 0xC0FF_EE02,
        force_gaps: false,
        params: axes(TimingKind::Ddr, NocParams::default()),
        ..CampaignConfig::default()
    };
    let report = campaign(&cfg);
    if let Some((case, failure)) = &report.failure {
        panic!(
            "ddr stream on {} / {} (seed {:#x}) diverged: {failure}",
            case.label,
            case.map.name(),
            case.seed
        );
    }
    assert_eq!(report.streams_run, 16);
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
    let report = campaign(&cfg);
    assert!(report.is_clean(), "{:?}", report.failure.map(|(_, f)| f.to_string()));
}

/// Run `cfg` and fail on its first divergent stream.
fn assert_campaign_clean(what: &str, cfg: &CampaignConfig) {
    let report = campaign(cfg);
    if let Some((case, failure)) = &report.failure {
        panic!(
            "{what} stream on {} / {} (seed {:#x}) diverged: {failure}",
            case.label,
            case.map.name(),
            case.seed
        );
    }
    assert_eq!(report.streams_run, cfg.streams);
    assert!(report.responses_checked > 0);
}

#[test]
fn pinned_campaign_at_the_ci_seed_is_clean() {
    // CI's pinned differential leg (seed C0FFEE00: crossbar, classic
    // timing, the fast-forward axis on the default rotation) at 100 of
    // its 10,000 streams.
    let cfg = CampaignConfig {
        streams: 100,
        base_seed: 0xC0FF_EE00,
        ..CampaignConfig::default()
    };
    assert_campaign_clean("pinned", &cfg);
}

#[test]
fn fast_forward_campaign_at_the_ci_seed_is_clean() {
    // CI's fast-forward guard (seed C0FFEE01) at 100 of its 1,000
    // streams: every stream gapped, so every fast-forward run jumps.
    let cfg = CampaignConfig {
        streams: 100,
        base_seed: 0xC0FF_EE01,
        force_gaps: true,
        ..CampaignConfig::default()
    };
    assert_campaign_clean("fast-forward", &cfg);
}

#[test]
fn ddr_fast_forward_campaign_at_the_ci_seed_is_clean() {
    // CI's `--timing ddr --fast-forward` leg (seed C0FFEE07) at 100 of
    // its 500 streams: every stream gapped, so every fast-forward run
    // jumps over vaults that sleep on cached bank and data-ready edges.
    let cfg = CampaignConfig {
        streams: 100,
        base_seed: 0xC0FF_EE07,
        force_gaps: true,
        params: axes(TimingKind::Ddr, NocParams::default()),
        ..CampaignConfig::default()
    };
    assert_campaign_clean("ddr fast-forward", &cfg);
}

#[test]
fn combined_axis_campaign_at_the_ci_seed_is_clean() {
    // CI's combined leg (seed C0FFEE08: hammer, link errors, mesh, ddr,
    // fast-forward) at 100 of its 1,000 streams.
    let cfg = CampaignConfig {
        streams: 100,
        base_seed: 0xC0FF_EE08,
        force_gaps: true,
        hammer: true,
        link_errors: true,
        params: axes(TimingKind::Ddr, NocParams::of(InterconnectKind::Mesh)),
        ..CampaignConfig::default()
    };
    assert_campaign_clean("combined-axis", &cfg);
}

#[test]
fn link_error_campaign_at_the_ci_seed_is_clean() {
    // CI's degraded-link leg (seed C0FFEE06) at 100 of its 1,000
    // streams: retry-gated heads and retraining links in the stall walk.
    let cfg = CampaignConfig {
        streams: 100,
        base_seed: 0xC0FF_EE06,
        link_errors: true,
        ..CampaignConfig::default()
    };
    assert_campaign_clean("link-error", &cfg);
}

#[test]
fn ring_fast_forward_campaign_at_the_ci_seed_is_clean() {
    // CI's ring fast-forward leg (seed C0FFEE09) at 100 of its 500
    // streams.
    let cfg = CampaignConfig {
        streams: 100,
        base_seed: 0xC0FF_EE09,
        force_gaps: true,
        params: axes(TimingKind::Classic, NocParams::of(InterconnectKind::Ring)),
        ..CampaignConfig::default()
    };
    assert_campaign_clean("ring fast-forward", &cfg);
}

#[test]
fn serialized_link_campaign_at_the_ci_seed_is_clean() {
    // CI's serialized-link leg (seed C0FFEE0A: link errors, a one-beat
    // FLIT budget, fast-forward) at 100 of its 1,000 streams: FLIT debt
    // paid by walks, by skipped walks and by jumps.
    let cfg = CampaignConfig {
        streams: 100,
        base_seed: 0xC0FF_EE0A,
        force_gaps: true,
        link_errors: true,
        params: SimParams {
            link_flits_per_cycle: Some(1),
            ..SimParams::default()
        },
        ..CampaignConfig::default()
    };
    assert_campaign_clean("serialized-link", &cfg);
}

#[test]
fn mesh_locality_aware_campaign_at_the_ci_seed_is_clean() {
    // CI's mesh locality-aware leg (seed C0FFEE0B) at 100 of its 1,000
    // streams.
    let mesh =
        NocParams::of(InterconnectKind::Mesh).with_arbitration(ArbitrationKind::LocalityAware);
    let cfg = CampaignConfig {
        streams: 100,
        base_seed: 0xC0FF_EE0B,
        params: axes(TimingKind::Classic, mesh),
        ..CampaignConfig::default()
    };
    assert_campaign_clean("mesh locality-aware", &cfg);
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
fn hammer_campaign_with_pinned_seed_is_clean() {
    // The RowHammer fault axis through the full harness at a pinned
    // seed — the CI hammer leg's guard. Every stream runs with fault
    // injection armed (TRR-mitigated), every second stream carries a
    // threshold-crossing adversarial burst, and the seeded fault
    // stream must be bit-identical stepped and fast-forward.
    let cfg = CampaignConfig {
        streams: 8,
        stream_len: 24,
        base_seed: 0xC0FF_EE05,
        hammer: true,
        ..CampaignConfig::default()
    };
    let report = campaign(&cfg);
    if let Some((case, failure)) = &report.failure {
        panic!(
            "hammer stream on {} / {} (seed {:#x}) diverged: {failure}",
            case.label,
            case.map.name(),
            case.seed
        );
    }
    assert_eq!(report.streams_run, 8);
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

#[test]
fn ring_campaign_with_pinned_seed_is_clean() {
    // The ring fabric through the full harness at a pinned seed — the
    // same guard the CI interconnect leg executes.
    let cfg = CampaignConfig {
        streams: 16,
        stream_len: 32,
        base_seed: 0xC0FF_EE03,
        params: axes(TimingKind::Classic, NocParams::of(InterconnectKind::Ring)),
        ..CampaignConfig::default()
    };
    let report = campaign(&cfg);
    if let Some((case, failure)) = &report.failure {
        panic!(
            "ring stream on {} / {} (seed {:#x}) diverged: {failure}",
            case.label,
            case.map.name(),
            case.seed
        );
    }
    assert_eq!(report.streams_run, 16);
}

#[test]
fn mesh_campaign_with_pinned_seed_is_clean() {
    // As above for the mesh, crossed with a non-default arbitration
    // policy so the oldest-first scan order sees campaign traffic too.
    let cfg = CampaignConfig {
        streams: 16,
        stream_len: 32,
        base_seed: 0xC0FF_EE04,
        params: axes(
            TimingKind::Classic,
            NocParams::of(InterconnectKind::Mesh).with_arbitration(ArbitrationKind::OldestFirst),
        ),
        ..CampaignConfig::default()
    };
    let report = campaign(&cfg);
    if let Some((case, failure)) = &report.failure {
        panic!(
            "mesh stream on {} / {} (seed {:#x}) diverged: {failure}",
            case.label,
            case.map.name(),
            case.seed
        );
    }
    assert_eq!(report.streams_run, 16);
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
