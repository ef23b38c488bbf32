//! `conform-fuzz` — the deterministic conformance fuzz campaign.
//!
//! `conform-fuzz --help` prints the synopsis (`USAGE` below) and the
//! shared simulation-axis flags (`SimParams::USAGE`); every stream runs
//! under them, stepped and batched, with the invariant checker always
//! armed.
//!
//! Runs `N` seeded command streams differentially through the engine
//! stepped (one `clock()` per cycle), the engine batched (`clock_batch`,
//! which jumps what the fast-forward horizon proves dead), and the
//! functional oracle, rotating over the four paper presets and four
//! address maps. `--fast-forward` forces a seeded idle gap (the
//! horizon's jump fodder) onto every stream instead of the default
//! two-of-three rotation. `--timing` selects
//! the vault timing backend the streams run under — `both` runs the
//! whole campaign once per backend, so every stream is checked under
//! the classic constant-time model *and* the cycle-accurate DDR state
//! machine. `--interconnect` does the same for the intra-cube fabric
//! axis (`all` sweeps crossbar, ring, and mesh), and `--arbitration`
//! picks the hop-arbitration policy buffered fabrics use. Exits non-zero
//! on the first divergence, after shrinking it and writing a repro
//! trace. `--demo-corruption` instead *injects* a datapath fault into
//! one stream and exits zero only if the harness catches and shrinks
//! it — the checker checking itself. `--hammer` arms the RowHammer
//! fault axis on every stream (TRR-mitigated by default, so streams
//! stay oracle-clean) and appends a threshold-crossing adversarial
//! burst to every second stream: the seeded fault stream — counters,
//! crossings, targeted refreshes, bank parks — must then be
//! bit-identical stepped and batched.
//! `--demo-hammer` runs the fault-injection detection demo instead:
//! an unmitigated burst whose every flipped bit the oracle must flag
//! end to end, then the same stream completing clean under TRR. The
//! shared cell-fault flags (`--hammer-threshold`, `--flip-prob`,
//! `--retention`, `--mitigation`) parameterize both. `--link-errors`
//! arms the link-retry axis on every stream: packets are corrupted in
//! SERDES transit, recovered by in-order retransmission, or — past the
//! retry cap — aborted with poisoned responses while the link
//! retrains, and the oracle predicts the exact poisoned tag set at
//! issue time from the stateless fault stream. The shared link-fault
//! flags (`--link-error-rate`, `--link-retry-limit`,
//! `--link-retry-cycles`, `--retrain-cycles`, `--link-fault-seed`)
//! parameterize the axis.

use std::path::PathBuf;
use std::process::ExitCode;

use hmc_conform::{campaign, hammer_demo, shrink_case, write_repro, CampaignConfig};
use hmc_conform::fuzz::campaign_with_corruption;
use hmc_conform::CorruptSpec;
use hmc_core::{Args, SimParams};
use hmc_types::{InterconnectKind, TimingKind};

const USAGE: &str = "\
usage: conform-fuzz [--streams N] [--len N] [--seed HEX] [--fast-forward]
                    [--timing both] [--interconnect all] [--repro-dir DIR]
                    [--demo-corruption] [--hammer] [--demo-hammer]
                    [--link-errors] [simulation axes]";

fn main() -> ExitCode {
    let mut cfg = CampaignConfig::default();
    let mut repro_dir = PathBuf::from(".");
    let mut demo_corruption = false;
    let mut demo_hammer = false;
    let mut all_timings = false;
    let mut all_fabrics = false;

    let mut args = Args::from_env("conform-fuzz", USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--streams" => cfg.streams = args.value(&flag),
            "--len" => cfg.stream_len = args.value(&flag),
            "--seed" => {
                let v: String = args.value(&flag);
                cfg.base_seed = u64::from_str_radix(v.trim_start_matches("0x"), 16)
                    .unwrap_or_else(|_| args.die(format_args!("--seed needs a hex value, got {v:?}")));
            }
            // Here the flag forces an idle gap onto every stream; every
            // stream runs stepped and batched either way.
            "--fast-forward" => cfg.force_gaps = true,
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
            "--repro-dir" => repro_dir = args.value(&flag),
            "--demo-corruption" => demo_corruption = true,
            "--hammer" => cfg.hammer = true,
            "--demo-hammer" => demo_hammer = true,
            "--link-errors" => cfg.link_errors = true,
            _ => args.axis(&flag),
        }
    }
    cfg.params = args.params_over(SimParams::default());
    let timings = if all_timings {
        TimingKind::ALL.to_vec()
    } else {
        vec![cfg.params.timing.kind]
    };
    let fabrics = if all_fabrics {
        InterconnectKind::ALL.to_vec()
    } else {
        vec![cfg.params.interconnect.kind]
    };

    // Any link-fault parameter implies the axis itself.
    if cfg.params.link_faults.is_some() {
        cfg.link_errors = true;
    }

    if demo_corruption {
        return run_corruption_demo(&cfg, &repro_dir);
    }
    if demo_hammer {
        return run_hammer_demo(&cfg);
    }

    let mut streams_clean = 0usize;
    let mut responses_checked = 0u64;
    for kind in &timings {
        for fabric in &fabrics {
            let mut cfg = cfg.clone();
            cfg.params.timing.kind = *kind;
            cfg.params.interconnect.kind = *fabric;
            println!(
                "conform-fuzz: {} streams x {} ops, base seed {:#x}, \
                 {} timing, {} fabric ({} arbitration){}",
                cfg.streams,
                cfg.stream_len,
                cfg.base_seed,
                kind.name(),
                fabric.name(),
                cfg.params.interconnect.arbitration.name(),
                if cfg.hammer { ", hammer axis armed" } else { "" },
            );
            if cfg.link_errors {
                let lf = cfg.params.link_faults.unwrap_or_else(hmc_conform::default_link_faults);
                println!(
                    "link-retry axis armed: error rate {} ppm, retry limit {}, \
                     retry {} cycles, retrain {} cycles",
                    lf.error_rate_ppm, lf.retry_limit, lf.retry_cycles, lf.retrain_cycles
                );
            }
            let report = campaign(&cfg);
            if report.shrink_failure(&repro_dir.join("conform-repro.csv"), |line| {
                eprintln!("{line}")
            }) {
                return ExitCode::FAILURE;
            }
            streams_clean += report.streams_run;
            responses_checked += report.responses_checked;
        }
    }
    println!(
        "PASS: {streams_clean} streams clean across {} backend(s) x {} fabric(s), \
         {responses_checked} responses oracle-checked",
        timings.len(),
        fabrics.len()
    );
    ExitCode::SUCCESS
}

/// Fault-injection self-test: an unmitigated adversarial hammer burst
/// whose every flipped bit the oracle must flag end to end (tallied
/// bits equal the engine's `bit_flips` counter exactly, bit-identical
/// stepped and batched), then the same stream completing clean
/// under TRR.
fn run_hammer_demo(cfg: &CampaignConfig) -> ExitCode {
    match hammer_demo(cfg.base_seed, cfg.params.cell_faults) {
        Ok(report) => {
            println!(
                "hammer detection: {} injected bit flips, {} flagged by the oracle \
                 across {} corrupted responses (100% detection)",
                report.bit_flips, report.detected_bits, report.corrupted_responses
            );
            println!(
                "PASS: TRR re-run clean — 0 flips, {} targeted refreshes, {:+} cycles \
                 of mitigation cost",
                report.trr_refreshes, report.trr_cycle_cost
            );
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("FAIL: {failure}");
            ExitCode::FAILURE
        }
    }
}

/// Self-test mode: inject a known datapath corruption and demand the
/// harness catch it, shrink it, and write a loadable repro.
fn run_corruption_demo(cfg: &CampaignConfig, repro_dir: &std::path::Path) -> ExitCode {
    let demo = CampaignConfig {
        streams: cfg.streams.clamp(1, 4),
        ..cfg.clone()
    };
    let spec = CorruptSpec { addr: 0, xor: 0xbad0_bad0_bad0_bad0 };
    let report = campaign_with_corruption(&demo, Some((0, spec)));
    let Some((case, failure)) = report.failure else {
        eprintln!("FAIL: seeded corruption was NOT detected");
        return ExitCode::FAILURE;
    };
    println!("seeded corruption detected: {failure}");
    let shrunk = shrink_case(&case);
    let path = repro_dir.join("conform-demo-repro.csv");
    if let Err(e) = write_repro(&shrunk.minimal, &shrunk.failure, &path) {
        eprintln!("could not write repro file: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "PASS: shrunk {} -> {} ops in {} runs, repro at {}",
        shrunk.original_len,
        shrunk.minimal.ops.len(),
        shrunk.runs,
        path.display()
    );
    ExitCode::SUCCESS
}
