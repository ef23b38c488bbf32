//! Ablation benches over the design choices DESIGN.md calls out. Each
//! group reports simulated cycle counts (printed) alongside criterion's
//! host wall times:
//!
//! * queue depths — crossbar/vault slot counts vs. runtime;
//! * address maps — the spec's low-interleave default vs. bank-first and
//!   linear orders (§III.B motivation);
//! * conflict policy — reordering vaults vs. strictly in-order vaults;
//! * link selection — round-robin vs. locality-aware hosts (§VI.B);
//! * posted writes — acknowledged vs. fire-and-forget write traffic;
//! * refresh — DRAM refresh duty cycles vs. the paper's refresh-free model;
//! * error rate — lossy-link retransmission cost.

use criterion::{criterion_group, criterion_main, Criterion};
use hmc_core::{topology, ConflictPolicy, HmcSim, RefreshParams, SimParams};
use hmc_host::{run_workload, Host, LinkSelection, RunConfig};
use hmc_types::{
    BankFirstMap, BlockSize, DeviceConfig, LinearMap, LinkFaultConfig, StorageMode,
};
use hmc_workloads::{RandomAccess, Stream, StreamMode};

const REQUESTS: u64 = 16_384;

fn base_config() -> DeviceConfig {
    DeviceConfig::paper_4link_8bank_2gb().with_storage_mode(StorageMode::TimingOnly)
}

fn build(config: DeviceConfig, params: Option<SimParams>) -> (HmcSim, Host) {
    let mut sim = HmcSim::new(1, config).unwrap();
    if let Some(p) = params {
        sim = sim.with_params(p);
    }
    let host_id = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host_id).unwrap();
    let host = Host::attach(&sim, host_id).unwrap();
    (sim, host)
}

fn random(seed: u32) -> RandomAccess {
    RandomAccess::new(seed, 2 << 30, BlockSize::B64, 50, REQUESTS)
}

fn cycles_of(sim: &mut HmcSim, host: &mut Host, w: &mut RandomAccess) -> u64 {
    run_workload(sim, host, w, RunConfig::default()).unwrap().cycles
}

fn bench_queue_depths(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_queue_depth");
    g.sample_size(10);
    for (xbar, vault) in [(32usize, 16usize), (128, 64), (512, 256)] {
        let cfg = base_config().with_queue_depths(xbar, vault);
        let (mut sim, mut host) = build(cfg.clone(), None);
        let cycles = cycles_of(&mut sim, &mut host, &mut random(1));
        println!("queue_depth/x{xbar}_v{vault}: {cycles} simulated cycles");
        g.bench_function(format!("x{xbar}_v{vault}"), |b| {
            b.iter(|| {
                let (mut sim, mut host) = build(cfg.clone(), None);
                cycles_of(&mut sim, &mut host, &mut random(1))
            })
        });
    }
    g.finish();
}

fn bench_address_maps(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_address_map");
    g.sample_size(10);
    // Sequential streaming is where interleave order matters most: the
    // low-interleave default rotates vaults; linear piles onto one bank.
    let geometry = base_config().geometry();
    type MapSetup = Option<Box<dyn Fn(&mut HmcSim)>>;
    let runs: Vec<(&str, MapSetup)> = vec![
        ("low_interleave", None),
        (
            "bank_first",
            Some(Box::new(move |sim: &mut HmcSim| {
                sim.set_address_map(Box::new(BankFirstMap::new(geometry).unwrap()))
                    .unwrap();
            })),
        ),
        (
            "linear",
            Some(Box::new(move |sim: &mut HmcSim| {
                sim.set_address_map(Box::new(LinearMap::new(geometry).unwrap()))
                    .unwrap();
            })),
        ),
    ];
    for (name, setup) in &runs {
        let run = || {
            let (mut sim, mut host) = build(base_config(), None);
            if let Some(f) = setup {
                f(&mut sim);
            }
            let mut w = Stream::unit(1 << 28, BlockSize::B128, StreamMode::ReadOnly, REQUESTS);
            run_workload(&mut sim, &mut host, &mut w, RunConfig::default())
                .unwrap()
                .cycles
        };
        println!("address_map/{name}: {} simulated cycles (stream)", run());
        g.bench_function(*name, |b| b.iter(run));
    }
    g.finish();
}

fn bench_conflict_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_conflict_policy");
    g.sample_size(10);
    for (name, policy) in [
        ("skip_conflicting", ConflictPolicy::SkipConflicting),
        ("stall_queue", ConflictPolicy::StallQueue),
    ] {
        let params = SimParams {
            conflict_policy: policy,
            ..SimParams::default()
        };
        let (mut sim, mut host) = build(base_config(), Some(params));
        let cycles = cycles_of(&mut sim, &mut host, &mut random(1));
        println!("conflict_policy/{name}: {cycles} simulated cycles");
        g.bench_function(name, |b| {
            b.iter(|| {
                let (mut sim, mut host) = build(base_config(), Some(params));
                cycles_of(&mut sim, &mut host, &mut random(1))
            })
        });
    }
    g.finish();
}

fn bench_link_selection(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_link_selection");
    g.sample_size(10);
    for (name, selection) in [
        ("round_robin", LinkSelection::RoundRobin),
        ("locality_aware", LinkSelection::LocalityAware),
    ] {
        let run = move || {
            let (mut sim, host) = build(base_config(), None);
            let mut host = host.with_selection(selection);
            let mut w = random(1);
            let report = run_workload(&mut sim, &mut host, &mut w, RunConfig::default()).unwrap();
            (report.cycles, report.mean_latency)
        };
        let (cycles, lat) = run();
        println!("link_selection/{name}: {cycles} cycles, mean latency {lat:.1}");
        g.bench_function(name, |b| b.iter(run));
    }
    g.finish();
}

fn bench_posted_writes(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_posted_writes");
    g.sample_size(10);
    for (name, posted) in [("acknowledged", false), ("posted", true)] {
        let run = move || {
            let (mut sim, mut host) = build(base_config(), None);
            let mut w = RandomAccess::new(1, 2 << 30, BlockSize::B64, 0, REQUESTS)
                .with_posted_writes(posted);
            run_workload(&mut sim, &mut host, &mut w, RunConfig::default())
                .unwrap()
                .cycles
        };
        println!("posted_writes/{name}: {} simulated cycles", run());
        g.bench_function(name, |b| b.iter(run));
    }
    g.finish();
}

fn bench_refresh(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_refresh");
    g.sample_size(10);
    for (name, refresh) in [
        ("none", None),
        (
            "duty_12pct",
            Some(RefreshParams {
                interval: 16,
                duration: 2,
            }),
        ),
        (
            "duty_50pct",
            Some(RefreshParams {
                interval: 16,
                duration: 8,
            }),
        ),
    ] {
        let params = SimParams {
            refresh,
            ..SimParams::default()
        };
        let (mut sim, mut host) = build(base_config(), Some(params));
        let cycles = cycles_of(&mut sim, &mut host, &mut random(1));
        println!("refresh/{name}: {cycles} simulated cycles");
        g.bench_function(name, |b| {
            b.iter(|| {
                let (mut sim, mut host) = build(base_config(), Some(params));
                cycles_of(&mut sim, &mut host, &mut random(1))
            })
        });
    }
    g.finish();
}

fn bench_error_rates(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_error_rate");
    g.sample_size(10);
    for (name, ppm) in [("clean", 0), ("ber_1e3", 1_000), ("ber_1e2", 10_000)] {
        let run = move || {
            let faults = LinkFaultConfig::default()
                .with_error_rate_ppm(ppm)
                .with_seed(11);
            let params = SimParams {
                link_faults: (ppm > 0).then_some(faults),
                ..SimParams::default()
            };
            let (mut sim, mut host) = build(base_config(), Some(params));
            cycles_of(&mut sim, &mut host, &mut random(1))
        };
        println!("error_rate/{name}: {} simulated cycles", run());
        g.bench_function(name, |b| b.iter(run));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_queue_depths,
    bench_address_maps,
    bench_conflict_policy,
    bench_link_selection,
    bench_posted_writes,
    bench_refresh,
    bench_error_rates
);
criterion_main!(benches);
