//! Request-latency distributions for all four paper configurations under
//! the §VI.A random-access workload, plus the bandwidth-utilization and
//! transaction-efficiency analysis of §IV.E.
//!
//! Usage:
//!   latency [--requests N] [--seed S] [simulation axes]
//!
//! The simulation axes are the shared flags of `SimParams::USAGE`
//! (`--help` lists them).

use hmc_bench::harness::{paper_setup, SetupOptions};
use hmc_core::{Args, SimParams};
use hmc_host::{run_workload, RunConfig};
use hmc_trace::analysis::{analyze_bandwidth, TrafficCounts};
use hmc_types::{BlockSize, DeviceConfig};
use hmc_workloads::RandomAccess;

fn main() {
    let mut requests: u64 = 100_000;
    let mut seed: u32 = 1;
    let mut args = Args::from_env(
        "latency",
        "usage: latency [--requests N] [--seed S] [simulation axes]",
    );
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--requests" => requests = args.value(&flag),
            "--seed" => seed = args.value(&flag),
            _ => args.axis(&flag),
        }
    }
    let params = args.params_over(SimParams::default());
    let opts = SetupOptions {
        params,
        ..SetupOptions::default()
    };

    println!("request latency distributions ({requests} random 64-byte requests, 50/50 mix)\n");
    for (label, cfg) in DeviceConfig::paper_configs() {
        let links = cfg.num_links;
        let lanes = cfg.lanes_per_link;
        let speed = cfg.link_speed;
        let (mut sim, mut host) = paper_setup(cfg, opts, None);
        let mut w = RandomAccess::new(seed, 2 << 30, BlockSize::B64, 50, requests);
        let report = run_workload(&mut sim, &mut host, &mut w, RunConfig::default())
            .expect("latency run completes");

        println!("== {label} ==");
        println!(
            "   cycles {}   throughput {:.2} req/cycle   mean latency {:.1}   max {}",
            report.cycles, report.throughput, report.mean_latency, report.max_latency
        );

        // Histogram over power-of-two buckets.
        let hist = &host.latency;
        let peak = hist.buckets.iter().copied().max().unwrap_or(1).max(1);
        for (i, &count) in hist.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let lo = 1u64 << i;
            let hi = (1u64 << (i + 1)) - 1;
            let bar = "#".repeat(((count * 50) / peak) as usize);
            println!("   {lo:>6}-{hi:<6} {count:>8} {bar}");
        }

        // §IV.E analysis: bandwidth utilization & transaction efficiency
        // at a nominal 1.25 GHz logic-layer clock.
        let reads = report.completed / 2;
        let writes = report.completed - reads;
        let counts = TrafficCounts::uniform(BlockSize::B64, reads, writes);
        let bw = analyze_bandwidth(&counts, report.cycles, links, lanes, speed, 1.25);
        println!(
            "   data {:.1} MiB, wire {:.1} MiB, efficiency {:.1}%",
            bw.data_bytes as f64 / (1 << 20) as f64,
            bw.wire_bytes as f64 / (1 << 20) as f64,
            bw.efficiency * 100.0
        );
        println!(
            "   {:.1} data bytes/cycle (packet-arbitration crossbar model; absolute\n\
             \x20  GB/s needs the serialized-link model below)\n",
            bw.data_bytes_per_cycle
        );
    }

    // A serialized-link run: one FLIT per link direction per cycle, the
    // physical rate of a full-width 10 Gbps link at 1.25 GHz. Utilization
    // against the 160 GB/s peak is now meaningful.
    println!("== 4-Link; 8-Bank; 2GB with serialized links (1 FLIT/cycle/link) ==");
    let serialized = SetupOptions {
        params: SimParams {
            link_flits_per_cycle: Some(1),
            ..params
        },
        ..opts
    };
    let (mut sim, mut host) =
        paper_setup(DeviceConfig::paper_4link_8bank_2gb(), serialized, None);
    let serialized_requests = requests.min(20_000);
    let mut w = RandomAccess::new(seed, 2 << 30, BlockSize::B64, 50, serialized_requests);
    let report = run_workload(&mut sim, &mut host, &mut w, RunConfig::default()).unwrap();
    let counts = TrafficCounts::uniform(
        BlockSize::B64,
        report.completed / 2,
        report.completed - report.completed / 2,
    );
    let bw = analyze_bandwidth(&counts, report.cycles, 4, 16, hmc_types::LinkSpeed::Gbps10, 1.25);
    println!(
        "   cycles {}   throughput {:.2} req/cycle   mean latency {:.1}",
        report.cycles, report.throughput, report.mean_latency
    );
    println!(
        "   achieved {:.1} GB/s of {:.0} GB/s peak ({:.1}% utilization at 1.25 GHz)",
        bw.achieved_gbs,
        bw.peak_gbs,
        bw.utilization * 100.0
    );
}
