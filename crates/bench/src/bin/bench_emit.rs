//! `bench_emit` — measure engine throughput and emit `BENCH_*.json`
//! trajectory records.
//!
//! Runs the canonical workload shapes (dense, bursty, sparse) in both
//! engine modes, prints a stepped-vs-fast-forward comparison table, and
//! writes one JSON record per run plus one summary per shape into the
//! output directory. CI archives the files as the performance trajectory.
//! A shape whose two legs disagree on simulated cycles, requests or
//! responses gets no speed-up and no files, and the run exits nonzero.
//!
//! Usage:
//!   bench_emit [--out DIR] [--workload dense|bursty|sparse|all]
//!              [--timing both] [--interconnect all]
//!              [--min-sparse-speedup X] [--hammer] [simulation axes]
//!
//! The simulation axes are the shared flags of `SimParams::USAGE`
//! (`--help` lists them); `--timing` and `--interconnect` additionally
//! accept the sweep spellings `both` and `all` here.
//!
//! `--timing both` emits one record point per vault timing backend, so
//! the archived trajectory tracks both the paper's constant-time model
//! and the DDR state machine. `--interconnect all` likewise emits one
//! point per intra-cube fabric (crossbar, ring, mesh).
//! `--min-sparse-speedup X` exits nonzero if the *classic crossbar*
//! sparse-shape speedup falls below `X` — the CI guard for the
//! fast-forward win (DDR spans are dominated by bank timing and
//! buffered fabrics by hop latency, so the guard does not apply to
//! them).
//!
//! `--hammer` additionally emits `BENCH_hammer_*` records: the
//! double-sided hammer shape run with cell faults off and with
//! injection armed (mitigation stripped), plus a summary pinning the
//! simulated-cycle overhead of the disarmed fault hook at zero — the
//! run exits nonzero if the two spans differ. The cell-fault flags
//! parameterize the armed run.
//!
//! The link-fault flags arm seeded SERDES corruption with the link
//! retry/retrain/poison protocol on the shaped runs, so the trajectory
//! can also track engine throughput under degraded links.

use std::path::PathBuf;

use hmc_bench::emit::{
    compare, hammer_overhead, shape_by_name, write_hammer_summary, write_record, write_summary,
    SHAPES,
};
use hmc_core::{Args, SimParams};
use hmc_types::{InterconnectKind, TimingKind};

fn main() {
    let mut out = PathBuf::from("results");
    let mut workload = String::from("all");
    let mut all_timings = false;
    let mut all_fabrics = false;
    let mut min_sparse_speedup: Option<f64> = None;
    let mut hammer = false;
    let mut args = Args::from_env(
        "bench_emit",
        "usage: bench_emit [--out DIR] [--workload dense|bursty|sparse|all] \
         [--timing both] [--interconnect all] [--min-sparse-speedup X] [--hammer] \
         [simulation axes]",
    );
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--out" => out = args.value(&flag),
            "--workload" => workload = args.value(&flag),
            // The sweep spellings; single values fall through to the
            // shared parser.
            "--timing" if args.peek() == Some("both") => {
                args.next_flag();
                all_timings = true;
            }
            "--interconnect" if args.peek() == Some("all") => {
                args.next_flag();
                all_fabrics = true;
            }
            "--min-sparse-speedup" => min_sparse_speedup = Some(args.value(&flag)),
            "--hammer" => hammer = true,
            _ => args.axis(&flag),
        }
    }
    let params = args.params_over(SimParams::default());
    let timings = if all_timings {
        TimingKind::ALL.to_vec()
    } else {
        vec![params.timing.kind]
    };
    let fabrics = if all_fabrics {
        InterconnectKind::ALL.to_vec()
    } else {
        vec![params.interconnect.kind]
    };

    let shapes: Vec<_> = if workload == "all" {
        SHAPES.to_vec()
    } else {
        vec![shape_by_name(&workload)
            .unwrap_or_else(|| args.die(format_args!("unknown workload {workload}")))]
    };
    std::fs::create_dir_all(&out)
        .unwrap_or_else(|e| args.die(format_args!("{}: {e}", out.display())));

    println!(
        "{:<8} {:<8} {:<9} {:>16} {:>16} {:>9}  (cycles/sec)",
        "workload", "timing", "fabric", "stepped", "fast-forward", "speedup",
    );
    let mut failed = false;
    for timing in &timings {
        for fabric in &fabrics {
            let mut point = params;
            point.timing.kind = *timing;
            point.interconnect.kind = *fabric;
            for shape in &shapes {
                let (stepped, fast, summary) = match compare(*shape, point) {
                    Ok(legs) => legs,
                    Err(mismatch) => {
                        eprintln!("bench_emit: {mismatch}");
                        failed = true;
                        continue;
                    }
                };
                println!(
                    "{:<8} {:<8} {:<9} {:>16.3e} {:>16.3e} {:>8.2}x",
                    summary.workload,
                    summary.timing,
                    summary.interconnect,
                    summary.stepped_cycles_per_sec,
                    summary.fast_forward_cycles_per_sec,
                    summary.speedup
                );
                for r in [&stepped, &fast] {
                    let path = write_record(&out, r)
                        .unwrap_or_else(|e| args.die(format_args!("write record: {e}")));
                    eprintln!("bench_emit: wrote {}", path.display());
                }
                let path = write_summary(&out, &summary)
                    .unwrap_or_else(|e| args.die(format_args!("write summary: {e}")));
                eprintln!("bench_emit: wrote {}", path.display());
                if let Some(min) = min_sparse_speedup {
                    if *timing == TimingKind::Classic
                        && *fabric == InterconnectKind::Crossbar
                        && summary.workload == "sparse"
                        && summary.speedup < min
                    {
                        eprintln!(
                            "bench_emit: sparse speedup {:.2}x below required {min}x",
                            summary.speedup
                        );
                        failed = true;
                    }
                }
            }
        }
    }
    if hammer {
        let cfg = params.cell_faults.unwrap_or_default();
        let (off, on, summary) = hammer_overhead(cfg);
        println!(
            "{:<8} {:<8} {:<9} {:>16.3e} {:>16.3e} {:>8} cycle overhead ({} bit flips armed)",
            "hammer",
            "classic",
            "crossbar",
            summary.off_cycles_per_sec,
            summary.on_cycles_per_sec,
            summary.simulated_cycle_overhead,
            summary.bit_flips_on
        );
        for r in [&off, &on] {
            let path =
                write_record(&out, r).unwrap_or_else(|e| args.die(format_args!("write record: {e}")));
            eprintln!("bench_emit: wrote {}", path.display());
        }
        let path = write_hammer_summary(&out, &summary)
            .unwrap_or_else(|e| args.die(format_args!("write summary: {e}")));
        eprintln!("bench_emit: wrote {}", path.display());
        if summary.simulated_cycle_overhead != 0 {
            eprintln!(
                "bench_emit: disarmed fault hook changed the simulated span by {} cycles",
                summary.simulated_cycle_overhead
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
