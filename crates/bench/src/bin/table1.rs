//! Regenerate the paper's Table I: simulated runtime in clock cycles for
//! the four device configurations under 33,554,432 random 64-byte
//! requests (50/50 read/write).
//!
//! Usage:
//!   table1 [--scale N] [--full] [--seed S] [simulation axes]
//!
//! `--scale N` runs 1/N of the paper's request count (default 16);
//! `--full` is shorthand for `--scale 1` (the paper's exact request
//! count; takes a few minutes per configuration). The simulation axes
//! are the shared flags of `SimParams::USAGE` (`--help` lists them):
//! `--check` fails the run on any protocol invariant violation.

use hmc_bench::table1::{format_table, run_table1};
use hmc_core::{Args, SimParams};

fn main() {
    let mut scale: u64 = 16;
    let mut seed: u32 = 1;
    let mut args = Args::from_env(
        "table1",
        "usage: table1 [--scale N] [--full] [--seed S] [simulation axes]",
    );
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--full" => scale = 1,
            "--scale" => scale = args.value(&flag),
            "--seed" => seed = args.value(&flag),
            _ => args.axis(&flag),
        }
    }
    let params = args.params_over(SimParams::default());
    let check = params.check_invariants;

    eprintln!(
        "Running Table I at 1/{scale} scale (seed {seed}, {} timing, {} fabric{}) ...",
        params.timing.kind.name(),
        params.interconnect.kind.name(),
        if check { ", invariants checked" } else { "" }
    );
    let rows = run_table1(scale, seed, params, |config, cycles| {
        eprint!("\r  config {} of 4: {cycles:>10} cycles", config + 1);
    });
    eprintln!();
    println!("{}", format_table(&rows, scale));
    if check {
        let violations: u64 = rows.iter().map(|r| r.invariant_violations).sum();
        if violations > 0 {
            for r in &rows {
                if r.invariant_violations > 0 {
                    eprintln!(
                        "table1: {}: {} invariant violation(s)",
                        r.label, r.invariant_violations
                    );
                }
            }
            std::process::exit(1);
        }
        println!("Invariant check: 0 violations across all configurations.");
    }
}
