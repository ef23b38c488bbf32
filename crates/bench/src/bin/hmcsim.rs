//! `hmcsim` — drive an HMC-Sim device from the command line.
//!
//! The downstream-user entry point: pick a device configuration, a
//! workload, and reporting options; get cycles, throughput, latency,
//! utilization, trace statistics and an energy estimate.
//!
//! `hmcsim --help` prints the synopsis (`USAGE` below) and the shared
//! simulation-axis flags (`SimParams::USAGE`). Those are applied on top of the parameters the
//! device configuration seeds, so a `--config-file` that names a timing
//! backend, fabric or fault block is honoured unless a flag overrides it.

use std::fs::File;
use std::io::BufWriter;

use hmc_core::{topology, Args, HmcSim};
use hmc_host::{run_workload, Host, LinkSelection, RunConfig};
use hmc_trace::{
    estimate_energy, EnergyModel, MultiSink, SeriesCollector, SharedSink, TextSink,
    Tracer, Verbosity,
};
use hmc_types::{BlockSize, DeviceConfig, InterconnectKind, StorageMode, TimingKind};
use hmc_workloads::{Workload, WorkloadSpec};

const USAGE: &str = "\
usage: hmcsim [--config 4l8b|4l16b|8l8b|8l16b|small | --config-file F.json]
              [--dump-config F.json]
              [--workload random|stream|gups|chase|stencil|hotspot|hammer]
              [--requests N] [--seed S] [--read-pct P] [--block BYTES]
              [--locality] [--series FILE] [--trace FILE] [--utilization]
              [--energy] [--profile] [simulation axes]";

struct Options {
    args: Args,
    config: DeviceConfig,
    config_name: String,
    workload: String,
    requests: u64,
    seed: u32,
    read_pct: u8,
    block: BlockSize,
    locality: bool,
    series: Option<String>,
    trace: Option<String>,
    utilization: bool,
    energy: bool,
    profile: bool,
    dump_config: Option<String>,
}

fn parse_options() -> Options {
    let mut o = Options {
        args: Args::from_env("hmcsim", USAGE),
        config: DeviceConfig::paper_4link_8bank_2gb(),
        config_name: "4l8b".into(),
        workload: "random".into(),
        requests: 100_000,
        seed: 1,
        read_pct: 50,
        block: BlockSize::B64,
        locality: false,
        series: None,
        trace: None,
        utilization: false,
        energy: false,
        profile: false,
        dump_config: None,
    };
    while let Some(flag) = o.args.next_flag() {
        let args = &mut o.args;
        match flag.as_str() {
            "--config-file" => {
                let path: String = args.value(&flag);
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| args.die(format_args!("{path}: {e}")));
                o.config = serde_json::from_str(&text)
                    .unwrap_or_else(|e| args.die(format_args!("{path}: {e}")));
                if let Err(e) = o.config.validate() {
                    args.die(format_args!("{path}: {e}"));
                }
                o.config_name = path;
            }
            "--dump-config" => o.dump_config = Some(args.value(&flag)),
            "--config" => {
                o.config_name = args.value(&flag);
                o.config = DeviceConfig::by_name(&o.config_name).unwrap_or_else(|| {
                    args.die(format_args!("unknown config {}", o.config_name))
                });
            }
            "--workload" => o.workload = args.value(&flag),
            "--requests" => o.requests = args.value(&flag),
            "--seed" => o.seed = args.value(&flag),
            "--read-pct" => o.read_pct = args.value(&flag),
            "--block" => {
                o.block = BlockSize::from_bytes(args.value(&flag))
                    .unwrap_or_else(|e| args.die(e));
            }
            "--locality" => o.locality = true,
            "--series" => o.series = Some(args.value(&flag)),
            "--trace" => o.trace = Some(args.value(&flag)),
            "--utilization" => o.utilization = true,
            "--energy" => o.energy = true,
            "--profile" => o.profile = true,
            _ => args.axis(&flag),
        }
    }
    o
}

fn build_workload(o: &Options) -> Box<dyn Workload> {
    let working_set = o.config.capacity_bytes.min(2 << 30);
    WorkloadSpec::new(&o.workload, o.seed, working_set, o.requests)
        .with_block(o.block)
        .with_read_pct(o.read_pct)
        .with_geometry(o.config.geometry())
        .build()
        .unwrap_or_else(|e| o.args.die(e))
}

fn main() {
    let o = parse_options();
    if let Some(path) = &o.dump_config {
        let json = serde_json::to_string_pretty(&o.config).expect("config serializes");
        std::fs::write(path, json).unwrap_or_else(|e| o.args.die(format_args!("{path}: {e}")));
        eprintln!("hmcsim: configuration written to {path}");
        return;
    }
    // Every output file opens before the run: a path that cannot be
    // opened fails in one line now, not in a panic after the simulation.
    let create = |path: &String| {
        File::create(path).unwrap_or_else(|e| o.args.die(format_args!("{path}: {e}")))
    };
    let trace_file = o.trace.as_ref().map(create);
    let series_file = o.series.as_ref().map(create);
    let config = o.config.clone().with_storage_mode(StorageMode::TimingOnly);
    let sim = HmcSim::new(1, config).expect("config validates");
    // Defaults < config file < command line: the flags land on top of
    // whatever axes the device config seeded.
    let params = o.args.params_over(*sim.params());
    let mut sim = sim.with_params(params);
    let host_id = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host_id).expect("topology");

    // Optional sinks: per-cycle series and/or a text trace file.
    let series = series_file.map(|file| {
        (
            file,
            SharedSink::new(SeriesCollector::new(16, sim.config().num_vaults)),
        )
    });
    let mut sinks = MultiSink::new();
    let mut any_sink = false;
    if let Some((_, s)) = &series {
        sinks = sinks.with(Box::new(s.clone()));
        any_sink = true;
    }
    if let Some(file) = trace_file {
        sinks = sinks.with(Box::new(TextSink::new(BufWriter::new(file))));
        any_sink = true;
    }
    if any_sink {
        sim.set_tracer(Tracer::new(Verbosity::Full, Box::new(sinks)));
    }

    let mut host = Host::attach(&sim, host_id).expect("host attach");
    if o.locality {
        host = host.with_selection(LinkSelection::LocalityAware);
    }
    let mut workload = build_workload(&o);

    if o.profile {
        // Static address profile of an identical workload instance.
        let mut for_profile = build_workload(&o);
        let map = sim.config().default_map().expect("geometry");
        let p = hmc_workloads::profile(for_profile.as_mut(), &map, 1_000_000)
            .expect("profile");
        println!("address profile (first 1M ops):");
        print!("{}", p.render());
        println!();
    }

    eprintln!(
        "hmcsim: {} workload, {} ops, config {} ...",
        workload.name(),
        workload.len_hint().unwrap_or(o.requests),
        o.config_name
    );
    let report = run_workload(&mut sim, &mut host, workload.as_mut(), RunConfig::default())
        .expect("run completes");

    println!("cycles            {}", report.cycles);
    println!("injected          {}", report.injected);
    println!("completed         {}", report.completed);
    println!("posted            {}", report.posted);
    println!("errors            {}", report.errors);
    println!("send stalls       {}", report.send_stalls);
    println!("throughput        {:.3} req/cycle", report.throughput);
    println!(
        "latency           mean {:.1}, max {} cycles",
        report.mean_latency, report.max_latency
    );
    if params.timing.kind == TimingKind::Ddr {
        let s = sim.stats();
        println!(
            "row buffer        {} hits, {} misses, {} precharges",
            s.row_hits, s.row_misses, s.precharges
        );
    }
    if params.interconnect.kind != InterconnectKind::Crossbar {
        let s = sim.stats();
        println!(
            "noc ({})        {} hops, {} stalls, {} arbitration losses",
            params.interconnect.kind.name(),
            s.noc_hops,
            s.noc_stalls,
            s.noc_arb_losses
        );
    }
    if let Some(f) = sim.fault_state() {
        let s = sim.stats();
        println!(
            "link errors       {} injected, {} retries, {} retrains, {} poisoned responses",
            f.injected, s.link_retries, s.link_retrains, s.poisoned_responses
        );
    }
    if params.cell_faults.is_some() {
        let s = sim.stats();
        println!(
            "cell faults       {} activations, {} bit flips, {} TRR refreshes, {} retention decays",
            s.hammer_activations, s.bit_flips, s.trr_refreshes, s.retention_decays
        );
    }
    if params.check_invariants {
        println!("invariants        {} violation(s)", report.invariant_violations);
        if report.invariant_violations > 0 {
            eprintln!(
                "hmcsim: invariant check failed; first violation: {:?}",
                sim.invariant_violations().first()
            );
            std::process::exit(1);
        }
    }

    if o.utilization {
        println!();
        for r in sim.utilization() {
            print!("{}", r.render());
        }
    }

    if o.energy {
        let activity = sim.activity();
        let energy = estimate_energy(&activity, &EnergyModel::hmc_gen1(), 1.25);
        println!();
        println!("energy (HMC gen-1 coefficients @ 1.25 GHz):");
        println!("  link        {:>14.0} pJ", energy.link_pj);
        println!("  dram        {:>14.0} pJ", energy.dram_pj);
        println!("  activate    {:>14.0} pJ", energy.activate_pj);
        println!("  logic       {:>14.0} pJ", energy.logic_pj);
        println!("  background  {:>14.0} pJ", energy.background_pj);
        println!("  total       {:>14.0} pJ", energy.total_pj);
        println!("  {:.2} pJ/bit, {:.2} W average", energy.pj_per_bit, energy.avg_power_w);
        if params.link_flits_per_cycle.is_none() {
            println!(
                "  (pJ/bit is robust; average watts assume real time per cycle —\n\
                 \x20  pass --serialize-flits 1 for physically-paced link timing)"
            );
        }
    }

    if let (Some(path), Some((file, s))) = (&o.series, series) {
        s.0.lock()
            .write_csv(BufWriter::new(file))
            .unwrap_or_else(|e| o.args.die(format_args!("{path}: {e}")));
        eprintln!("hmcsim: series written to {path}");
    }
    sim.tracer_mut().flush();
    if let Some(path) = &o.trace {
        eprintln!("hmcsim: trace written to {path}");
    }
}
