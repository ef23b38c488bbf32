//! Regenerate the paper's Figure 5: per-cycle random-access simulation
//! trace series for all four device configurations.
//!
//! For each configuration this runs the §VI.A random-access harness with
//! full tracing and emits a CSV time series of the five plotted
//! quantities — bank conflicts, read requests, write requests, crossbar
//! request stalls and routed-latency penalty events per cycle — plus an
//! ASCII sparkline summary and per-vault utilization totals.
//!
//! Usage:
//!   figure5 [--scale N] [--seed S] [--bin W] [--out DIR] [simulation axes]
//!
//! Defaults: 1/256 scale, bin width auto (~200 rows), output CSVs to the
//! current directory as `figure5_<config>.csv`. The simulation axes are
//! the shared flags of `SimParams::USAGE` (`--help` lists them).

use std::fs::File;
use std::io::BufWriter;

use hmc_bench::harness::{paper_setup, paper_workload, SetupOptions};
use hmc_core::{Args, SimParams};
use hmc_host::{run_workload, RunConfig};
use hmc_trace::{SeriesCollector, SharedSink, Verbosity};
use hmc_types::{DeviceConfig, StorageMode};

fn main() {
    let mut scale: u64 = 256;
    let mut seed: u32 = 1;
    let mut bin: u64 = 0; // 0 = auto
    let mut out_dir = String::from(".");
    let mut args = Args::from_env(
        "figure5",
        "usage: figure5 [--scale N] [--seed S] [--bin W] [--out DIR] [simulation axes]",
    );
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--scale" => scale = args.value(&flag),
            "--seed" => seed = args.value(&flag),
            "--bin" => bin = args.value(&flag),
            "--out" => out_dir = args.value(&flag),
            _ => args.axis(&flag),
        }
    }
    let opts = SetupOptions {
        verbosity: Verbosity::Full,
        storage: StorageMode::TimingOnly,
        params: args.params_over(SimParams::default()),
    };

    println!("Figure 5: random access simulation results (1/{scale} scale, seed {seed})\n");

    for (label, cfg) in DeviceConfig::paper_configs() {
        let slug = label
            .to_lowercase()
            .replace("; ", "_")
            .replace([' ', '-', ';'], "");
        let vaults = cfg.num_vaults;
        // Auto bin: target roughly 200 rows given the expected cycle count.
        let requests = hmc_bench::scaled_requests(scale);
        let expected_cycles = (requests / 60).max(200);
        let bin_width = if bin > 0 { bin } else { (expected_cycles / 200).max(1) };

        let series = SharedSink::new(SeriesCollector::new(bin_width, vaults));
        let (mut sim, mut host) = paper_setup(cfg, opts, Some(Box::new(series.clone())));
        let mut workload = paper_workload(seed, scale);
        let report = run_workload(&mut sim, &mut host, &mut workload, RunConfig::default())
            .expect("figure5 run completes");
        if report.invariant_violations > 0 {
            args.die(format_args!(
                "{label}: {} invariant violation(s); first: {:?}",
                report.invariant_violations,
                sim.invariant_violations().first()
            ));
        }

        let collector = series.0.lock();
        let totals = collector.totals();
        println!("== {label} ==");
        println!(
            "   cycles {}   reads {}   writes {}   bank conflicts {}   xbar stalls {}   latency events {}",
            report.cycles,
            totals.reads,
            totals.writes,
            totals.bank_conflicts,
            totals.xbar_stalls,
            totals.latency_events
        );
        if let Some(peak) = collector.peak_conflict_bin() {
            println!(
                "   peak conflict bin: cycle {} with {} conflicts",
                peak.cycle, peak.bank_conflicts
            );
        }
        let vu = collector.vaults();
        let (busiest, load) = vu.busiest_vault();
        println!(
            "   busiest vault {} ({} requests); load imbalance (cv) {:.4}",
            busiest,
            load,
            vu.load_imbalance()
        );
        println!(
            "   conflicts/cycle: {}",
            sparkline(collector.rows().iter().map(|r| r.bank_conflicts))
        );
        println!(
            "   requests/cycle:  {}",
            sparkline(collector.rows().iter().map(|r| r.reads + r.writes))
        );

        let path = format!("{out_dir}/figure5_{slug}.csv");
        let file = File::create(&path).unwrap_or_else(|e| args.die(format_args!("{path}: {e}")));
        collector
            .write_csv(BufWriter::new(file))
            .unwrap_or_else(|e| args.die(format_args!("{path}: {e}")));
        println!("   series written to {path} (bin width {bin_width} cycles)\n");
    }
}

fn sparkline<I: Iterator<Item = u64>>(values: I) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let vals: Vec<u64> = values.collect();
    // Downsample to at most 60 columns.
    let cols = 60.min(vals.len().max(1));
    let chunk = vals.len().div_ceil(cols).max(1);
    let sampled: Vec<u64> = vals
        .chunks(chunk)
        .map(|c| c.iter().sum::<u64>() / c.len() as u64)
        .collect();
    let max = sampled.iter().copied().max().unwrap_or(0).max(1);
    sampled
        .iter()
        .map(|&v| BARS[((v * 7) / max) as usize])
        .collect()
}
