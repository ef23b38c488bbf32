//! Parameter sweeps over the queueing latitude the specification leaves
//! to implementers (§IV requirement 3): crossbar depth × vault depth ×
//! vault window, plus crossbar drain rate, against the paper's random
//! access workload. Emits CSV for plotting.
//!
//! Sweep points are independent simulations, so they run concurrently on
//! `std::thread::scope` workers (`--jobs`, default = available cores);
//! each point's simulation is deterministic and the CSV is emitted in
//! sweep order regardless of completion order.
//!
//! Usage:
//!   sweep [--requests N] [--seed S] [--out FILE] [--jobs N] [simulation axes]
//!
//! The simulation axes are the shared flags of `SimParams::USAGE`
//! (`--help` lists them); every grid point runs under them.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicUsize, Ordering};

use hmc_core::{topology, Args, HmcSim, SimParams};
use hmc_host::{run_workload, Host, RunConfig};
use hmc_types::{BlockSize, DeviceConfig, StorageMode};
use hmc_workloads::RandomAccess;

struct Point {
    xbar_depth: usize,
    vault_depth: usize,
    window: Option<usize>,
    drain: usize,
    cycles: u64,
    throughput: f64,
    mean_latency: f64,
}

/// One grid point: `(xbar depth, vault depth, vault window, xbar drain)`.
type GridPoint = (usize, usize, Option<usize>, usize);

fn run_point(requests: u64, seed: u32, point: GridPoint, axes: SimParams) -> Point {
    let (xbar_depth, vault_depth, window, drain) = point;
    let cfg = DeviceConfig::paper_4link_8bank_2gb()
        .with_storage_mode(StorageMode::TimingOnly)
        .with_queue_depths(xbar_depth, vault_depth);
    let mut sim = HmcSim::new(1, cfg).unwrap().with_params(SimParams {
        vault_window: window,
        xbar_drain_per_cycle: drain,
        ..axes
    });
    let host_id = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host_id).unwrap();
    let mut host = Host::attach(&sim, host_id).unwrap();
    let mut w = RandomAccess::new(seed, 2 << 30, BlockSize::B64, 50, requests);
    let report = run_workload(&mut sim, &mut host, &mut w, RunConfig::default()).unwrap();
    Point {
        xbar_depth,
        vault_depth,
        window,
        drain,
        cycles: report.cycles,
        throughput: report.throughput,
        mean_latency: report.mean_latency,
    }
}

fn main() {
    let mut requests: u64 = 32_768;
    let mut seed: u32 = 1;
    let mut out: Option<String> = None;
    let mut jobs: usize = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut args = Args::from_env(
        "sweep",
        "usage: sweep [--requests N] [--seed S] [--out FILE] [--jobs N] [simulation axes]",
    );
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--requests" => requests = args.value(&flag),
            "--seed" => seed = args.value(&flag),
            "--out" => out = Some(args.value(&flag)),
            "--jobs" => {
                jobs = args.value(&flag);
                if jobs == 0 {
                    args.die("--jobs must be at least 1");
                }
            }
            _ => args.axis(&flag),
        }
    }
    let axes = args.params_over(SimParams::default());
    // Opened before the sweep: a path that cannot be opened fails in one
    // line now, not in a panic after every point has run.
    let mut sink: Box<dyn Write> = match &out {
        Some(path) => Box::new(BufWriter::new(
            File::create(path).unwrap_or_else(|e| args.die(format_args!("{path}: {e}"))),
        )),
        None => Box::new(std::io::stdout().lock()),
    };

    // Enumerate the sweep grid first; each tuple is an independent
    // simulation, so the points run concurrently below.
    let mut grid: Vec<GridPoint> = Vec::new();
    for xbar in [16usize, 32, 64, 128, 256] {
        for vault in [8usize, 16, 32, 64] {
            grid.push((xbar, vault, None, 32));
        }
    }
    for window in [1usize, 2, 4, 8, 16, 32] {
        grid.push((128, 64, Some(window), 32));
    }
    for drain in [1usize, 2, 4, 8, 16, 32, 64] {
        grid.push((128, 64, None, drain));
    }

    // Scoped worker pool over an atomic work-index: results land in their
    // grid slot, so the CSV order is deterministic regardless of which
    // worker finishes first.
    let jobs = jobs.min(grid.len());
    eprintln!("sweeping {} points on {jobs} threads ...", grid.len());
    let mut slots: Vec<Option<Point>> = Vec::new();
    slots.resize_with(grid.len(), || None);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let grid = &grid;
        let cursor = &cursor;
        let mut handles = Vec::new();
        for _ in 0..jobs {
            handles.push(s.spawn(move || {
                let mut local: Vec<(usize, Point)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= grid.len() {
                        break;
                    }
                    local.push((i, run_point(requests, seed, grid[i], axes)));
                }
                local
            }));
        }
        for h in handles {
            for (i, p) in h.join().expect("sweep worker panicked") {
                slots[i] = Some(p);
            }
        }
    });
    let points: Vec<Point> = slots
        .into_iter()
        .map(|p| p.expect("every grid point computed"))
        .collect();

    writeln!(
        sink,
        "xbar_depth,vault_depth,window,drain,cycles,req_per_cycle,mean_latency"
    )
    .unwrap();
    for p in &points {
        writeln!(
            sink,
            "{},{},{},{},{},{:.4},{:.2}",
            p.xbar_depth,
            p.vault_depth,
            p.window.map(|w| w.to_string()).unwrap_or_else(|| "banks".into()),
            p.drain,
            p.cycles,
            p.throughput,
            p.mean_latency
        )
        .unwrap();
    }
    sink.flush().unwrap();
    eprintln!("{} sweep points written", points.len());
}
