//! Round-trip coverage for the shipped device configuration files.
//!
//! Every JSON file under `configs/` must load, validate, and — for the
//! four paper-geometry files plus `small.json` — match the corresponding
//! built-in preset field-for-field, so a config handed to `hmc-serve` or
//! the CLI by file is indistinguishable from one selected by name. The
//! axes a config carries (timing backend, fabric, fault blocks) install
//! exactly as the same axes set through `SimParams` do.

use std::path::PathBuf;

use hmc_sim::hmc_core::{topology, HmcSim, NocParams, SimParams, TimingParams};
use hmc_sim::hmc_host::{run_workload, Host, RunConfig};
use hmc_sim::hmc_trace::{SharedSink, Tracer, VecSink, Verbosity};
use hmc_sim::hmc_types::{
    BlockSize, CellFaultConfig, DeviceConfig, InterconnectKind, LinkFaultConfig, TimingKind,
};
use hmc_sim::hmc_workloads::Hammer;

fn configs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("configs")
}

fn load(name: &str) -> DeviceConfig {
    let path = configs_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_shipped_config_loads_and_validates() {
    let mut seen = 0;
    for entry in std::fs::read_dir(configs_dir()).expect("configs/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let config: DeviceConfig = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        config
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    assert!(seen >= 5, "expected at least the five shipped configs, found {seen}");
}

#[test]
fn the_paper_geometry_files_match_their_presets_field_for_field() {
    // (file, preset name) — `DeviceConfig` derives `PartialEq`, so this
    // comparison covers every field, including queue depths and SERDES
    // lane counts.
    for (file, preset) in [
        ("4l8b.json", "4l8b"),
        ("4l16b.json", "4l16b"),
        ("8l8b.json", "8l8b"),
        ("8l16b.json", "8l16b"),
        ("small.json", "small"),
    ] {
        let from_file = load(file);
        let built_in = DeviceConfig::by_name(preset).expect("preset exists");
        assert_eq!(
            from_file, built_in,
            "configs/{file} drifted from the {preset} preset"
        );
    }
}

#[test]
fn configs_survive_a_serialize_deserialize_round_trip() {
    for (_, config) in DeviceConfig::paper_configs() {
        let json = serde_json::to_string(&config).unwrap();
        let back: DeviceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }
}

/// `sim` with every link attached to host 0.
fn wired(mut sim: HmcSim) -> HmcSim {
    let host_id = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host_id).unwrap();
    sim
}

/// One hammer stream through a wired `sim`, fully traced: the
/// parameters, what the run reports, the counters, the link-fault state
/// and every trace record.
fn traced_hammer_run(mut sim: HmcSim) -> impl PartialEq + std::fmt::Debug {
    let host_id = sim.host_cube_id(0);
    let sink = SharedSink::new(VecSink::default());
    sim.set_tracer(Tracer::new(Verbosity::Full, Box::new(sink.clone())));
    let mut host = Host::attach(&sim, host_id).unwrap();
    let geometry = sim.config().geometry();
    let mut w = Hammer::new(geometry, BlockSize::B64, 0, 0, geometry.rows / 2, 1_000).unwrap();
    let report = run_workload(&mut sim, &mut host, &mut w, RunConfig::default()).unwrap();
    let stats = sim.stats();
    assert!(
        stats.row_misses > 0 && stats.noc_hops > 0 && stats.bit_flips > 0 && stats.link_retries > 0,
        "the stream must exercise every axis: {stats:?}"
    );
    let faults = sim.fault_state().map(|f| (f.config, f.injected));
    let records = std::mem::take(&mut sink.0.lock().records);
    (*sim.params(), report, stats, faults, records)
}

#[test]
fn axes_carried_by_a_config_install_like_axes_set_as_parameters() {
    let cell = CellFaultConfig::default()
        .with_hammer_threshold(64)
        .with_flip_prob_ppm(1_000_000);
    let link = LinkFaultConfig::default()
        .with_error_rate_ppm(50_000)
        .with_retry_limit(1)
        .with_seed(7);
    let params = SimParams {
        timing: TimingParams::of(TimingKind::Ddr),
        interconnect: NocParams::of(InterconnectKind::Mesh),
        cell_faults: Some(cell),
        link_faults: Some(link),
        ..SimParams::default()
    };
    let plain = DeviceConfig::small();
    let carried = plain
        .clone()
        .with_timing(TimingKind::Ddr)
        .with_interconnect(InterconnectKind::Mesh)
        .with_cell_faults(Some(cell))
        .with_link_faults(Some(link));

    let by_config = traced_hammer_run(wired(HmcSim::new(1, carried).unwrap()));
    let by_builder = traced_hammer_run(wired(
        HmcSim::new(1, plain.clone()).unwrap().with_params(params),
    ));
    // A wired sim, not yet clocked, switched over in place.
    let mut live = wired(HmcSim::new(1, plain).unwrap());
    live.set_params(params);
    let by_set = traced_hammer_run(live);

    assert_eq!(by_builder, by_config);
    assert_eq!(by_set, by_config);
}
