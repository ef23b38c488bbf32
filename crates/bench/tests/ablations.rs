//! Simulated-cycle ablations over the specification latitude DESIGN.md
//! documents: queueing, address maps, conflict handling, link selection,
//! posted writes, refresh and link errors. Each test pins the exact cycle
//! counts of the EXPERIMENTS.md "Beyond the paper" table and the ordering
//! that table states, so the table cannot drift from the code; a failing
//! count prints the new values.
//!
//! Every run is the paper's single-device harness (`paper_setup`) on a
//! timing-only 4-link/8-bank/2 GB device, 16,384 requests.

use hmc_bench::{paper_setup, SetupOptions};
use hmc_core::{ConflictPolicy, HmcSim, RefreshParams, SimParams};
use hmc_host::{run_workload, Host, LinkSelection, RunConfig};
use hmc_types::{AddressMap, BankFirstMap, BlockSize, DeviceConfig, LinearMap, LinkFaultConfig};
use hmc_workloads::{RandomAccess, Stream, StreamMode, Workload};

const REQUESTS: u64 = 16_384;

fn setup(config: DeviceConfig, params: SimParams) -> (HmcSim, Host) {
    let opts = SetupOptions {
        params,
        ..SetupOptions::default()
    };
    paper_setup(config, opts, None)
}

/// The 4-link/8-bank/2 GB device under `params`.
fn paper(params: SimParams) -> (HmcSim, Host) {
    setup(DeviceConfig::paper_4link_8bank_2gb(), params)
}

/// The paper's random-access stream over 2 GB, 64-byte blocks, 50 % reads.
fn random() -> RandomAccess {
    RandomAccess::new(1, 2 << 30, BlockSize::B64, 50, REQUESTS)
}

/// Run `workload` to completion and return its simulated cycles.
fn cycles((mut sim, mut host): (HmcSim, Host), mut workload: impl Workload) -> u64 {
    let report = run_workload(&mut sim, &mut host, &mut workload, RunConfig::default()).unwrap();
    assert_eq!(report.injected, REQUESTS);
    report.cycles
}

#[test]
fn queue_depth() {
    let [shallow, paper, deep] = [(32, 16), (128, 64), (512, 256)].map(|(xbar, vault)| {
        let config = DeviceConfig::paper_4link_8bank_2gb().with_queue_depths(xbar, vault);
        cycles(setup(config, SimParams::default()), random())
    });
    assert_eq!([shallow, paper, deep], [279, 226, 223]);
    assert!(shallow > paper && paper > deep);
}

#[test]
fn address_map() {
    // Sequential streaming is where interleave order matters most: the
    // low-interleave default rotates vaults; linear piles onto one bank.
    let geometry = DeviceConfig::paper_4link_8bank_2gb().geometry();
    let maps: [Option<Box<dyn AddressMap>>; 3] = [
        None,
        Some(Box::new(BankFirstMap::new(geometry).unwrap())),
        Some(Box::new(LinearMap::new(geometry).unwrap())),
    ];
    let [low, bank_first, linear] = maps.map(|map| {
        let (mut sim, host) = paper(SimParams::default());
        if let Some(map) = map {
            sim.set_address_map(map).unwrap();
        }
        let stream = Stream::unit(1 << 28, BlockSize::B128, StreamMode::ReadOnly, REQUESTS);
        cycles((sim, host), stream)
    });
    assert_eq!([low, bank_first, linear], [128, 128, 16_384]);
    assert!(low == bank_first && linear > 100 * low, "linear serialises");
}

#[test]
fn conflict_policy() {
    let [skip, stall] =
        [ConflictPolicy::SkipConflicting, ConflictPolicy::StallQueue].map(|policy| {
            let params = SimParams {
                conflict_policy: policy,
                ..SimParams::default()
            };
            cycles(paper(params), random())
        });
    assert_eq!([skip, stall], [226, 336]);
    assert!(skip < stall, "reordering beats in-order");
}

#[test]
fn link_selection() {
    let [round_robin, locality] =
        [LinkSelection::RoundRobin, LinkSelection::LocalityAware].map(|selection| {
            let (sim, host) = paper(SimParams::default());
            cycles((sim, host.with_selection(selection)), random())
        });
    assert_eq!([round_robin, locality], [226, 220]);
    assert!(locality < round_robin, "the §VI.B locality corollary");
}

#[test]
fn posted_writes() {
    let [acknowledged, posted] = [false, true].map(|posted| {
        let writes = RandomAccess::new(1, 2 << 30, BlockSize::B64, 0, REQUESTS);
        let sim = paper(SimParams::default());
        cycles(sim, writes.with_posted_writes(posted))
    });
    assert_eq!([acknowledged, posted], [226, 224]);
    assert!(posted <= acknowledged, "no response FLIT to wait for");
}

#[test]
fn refresh() {
    let [none, light, heavy] = [0, 2, 8].map(|duration| {
        let refresh = RefreshParams {
            interval: 16,
            duration,
        };
        let params = SimParams {
            refresh: (duration > 0).then_some(refresh),
            ..SimParams::default()
        };
        cycles(paper(params), random())
    });
    assert_eq!([none, light, heavy], [226, 232, 281]);
    assert!(none < light && light < heavy);
}

#[test]
fn link_error_rate() {
    let [clean, low, high] = [0, 1_000, 10_000].map(|ppm| {
        let faults = LinkFaultConfig::default()
            .with_error_rate_ppm(ppm)
            .with_seed(11);
        let params = SimParams {
            link_faults: (ppm > 0).then_some(faults),
            ..SimParams::default()
        };
        cycles(paper(params), random())
    });
    assert_eq!([clean, low, high], [226, 224, 488]);
    assert!(high > clean, "retries cost cycles");
}
