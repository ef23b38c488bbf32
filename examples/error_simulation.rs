//! Error simulation (§IV requirement 5): lossy SERDES links with CRC
//! detection and retransmission, swept across packet error rates.
//!
//! Run with: `cargo run --release --example error_simulation`

use hmc_sim::prelude::*;

fn run(ppm: u32) -> (RunReport, u64, u64, u64) {
    let config = DeviceConfig::paper_4link_8bank_2gb().with_storage_mode(StorageMode::TimingOnly);
    let faults = LinkFaultConfig::default()
        .with_error_rate_ppm(ppm)
        .with_seed(0xbad1);
    let mut sim = HmcSim::new(1, config)
        .expect("config")
        .with_params(SimParams {
            link_faults: (ppm > 0).then_some(faults),
            ..SimParams::default()
        });
    let host_id = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host_id).expect("topology");
    let mut host = Host::attach(&sim, host_id).expect("host");
    let mut workload = RandomAccess::new(1, 2 << 30, BlockSize::B64, 50, 50_000);
    let report = run_workload(&mut sim, &mut host, &mut workload, RunConfig::default())
        .expect("run completes");
    let injected = sim.fault_state().map_or(0, |f| f.injected);
    let stats = sim.stats();
    (
        report,
        injected,
        stats.link_retries,
        stats.poisoned_responses,
    )
}

fn main() {
    println!("link error simulation: 50,000 random requests per point\n");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "error rate", "cycles", "req/cyc", "latency", "corruptions", "retries", "poisoned"
    );
    let (clean, _, _, _) = run(0);
    for ppm in [0, 100, 1_000, 10_000, 50_000, 200_000] {
        let (report, injected, retries, poisoned) = run(ppm);
        println!(
            "{:>10} {:>10} {:>10.2} {:>10.1} {:>12} {:>12} {:>10}",
            format!("{ppm} ppm"),
            report.cycles,
            report.throughput,
            report.mean_latency,
            injected,
            retries,
            poisoned
        );
        assert_eq!(report.completed, 50_000, "every request still completes");
        assert_eq!(
            injected,
            retries + poisoned,
            "every corruption is detected: retried, or poisoned at the cap"
        );
        assert_eq!(report.errors, poisoned, "errors are exactly the poisons");
    }
    println!(
        "\nall runs answered all 50,000 requests — corrupted packets are\n\
         detected by the crossbar CRC check and recovered by in-order\n\
         retransmission; packets that exhaust the retry cap come back as\n\
         poisoned error responses while the link retrains\n\
         (clean baseline: {} cycles).",
        clean.cycles
    );
}
