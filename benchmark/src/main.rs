//! The repo benchmark: eight layer-targeted workloads, host-time and
//! simulated-time metrics, and an outside-in traced run.
//!
//! ```text
//! hmc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hmc-benchmark --all           [--seed <n>] [--seconds <s>] [--smoke]
//! hmc-benchmark --check-repeat  [--seed <n>] [--seconds <s>] [--smoke]
//! ```
//!
//! The first form measures one workload in this process and prints, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`); the readable
//! report goes to standard error and `benchmark/out/`. `--all` runs
//! every workload, untraced then traced, one child process each (so
//! `peak_rss_mb` is per workload). `--check-repeat` runs two untraced
//! sets back to back and fails if any end-to-end metric moved by more
//! than its bound in `BENCHMARK.json`. `--smoke` divides every
//! workload's size by 50. Run from the repo root; see
//! `benchmark/README.md` for the metric dictionary.

mod burst_gap;
mod calib;
mod digest;
mod harness;
mod host_driven;
mod meta;
mod metrics;
mod replay;
mod serve;
mod span;
mod spec;
mod stats;

use std::process::{Command, ExitCode, Stdio};

use burst_gap::BurstGap;
use harness::{measure, Args, Report};
use host_driven::HostDriven;
use metrics::WORKLOADS;
use serve::ServeClosed;
use spec::{parse_result_line, BenchmarkSpec, ResultLine};

/// Size divisor of `--smoke`, and the seconds each of its runs measures
/// for unless `--seconds` says otherwise.
const SMOKE_DIV: u64 = 50;
const SMOKE_SECONDS: f64 = 0.2;

/// End-to-end metrics in simulated time: exact for a fixed seed.
const SIMULATED: [&str; 2] = ["sim_cycles", "sim_mean_latency_cycles"];

enum Mode {
    One(String),
    All,
    CheckRepeat,
}

fn usage(why: &str) -> ExitCode {
    eprintln!(
        "benchmark: {why}\n\
         usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <div>] [--smoke]\n\
         \x20      --all | --check-repeat  [--seed <n>] [--seconds <s>] [--smoke]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn run_one(name: &str, args: Args) -> Option<Report> {
    let (seed, div) = (args.seed, args.scale_div);
    let name = WORKLOADS.into_iter().find(|w| *w == name)?;
    Some(match name {
        "table1_paper" => measure(name, &HostDriven::table1_paper(seed, div), args),
        "dense_ddr" => measure(name, &HostDriven::dense_ddr(seed, div), args),
        "hotspot_mesh" => measure(name, &HostDriven::hotspot_mesh(seed, div), args),
        "idle_ff" => measure(name, &BurstGap::idle_ff(seed, div), args),
        "bursty_ff_ddr" => measure(name, &BurstGap::bursty_ff_ddr(seed, div), args),
        "functional_rw" => measure(name, &HostDriven::functional_rw(seed, div), args),
        "traced_fig5" => measure(name, &HostDriven::traced_fig5(seed, div), args),
        "serve_closed" => measure(name, &ServeClosed::new(seed, div), args),
        _ => unreachable!("every name in WORKLOADS has an arm"),
    })
}

/// Run one workload in a child process and parse its result line. The
/// child's readable report passes through on standard error.
fn child(name: &str, args: Args, trace: bool) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &args.scale_div.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{name}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{name}: printed no result"))?;
    let result = parse_result_line(line).map_err(|e| format!("{name}: {e}"))?;
    if !out.status.success() || !result.correct {
        return Err(format!(
            "{name}: failed its correctness gate ({})",
            out.status
        ));
    }
    Ok(result)
}

fn run_all(args: Args) -> ExitCode {
    let mut failures = Vec::new();
    for name in WORKLOADS {
        for trace in [false, true] {
            if let Err(e) = child(name, args, trace) {
                failures.push(e);
            }
        }
    }
    for f in &failures {
        eprintln!("benchmark: {f}");
    }
    eprintln!(
        "benchmark: {} workloads, {} failure(s); results and traces under {}/",
        WORKLOADS.len(),
        failures.len(),
        harness::OUT_DIR
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two full untraced sets back to back: every end-to-end metric of the
/// second must be within its bound of the first, and the simulated ones
/// (deterministic for a fixed seed) must not differ at all.
fn check_repeat(args: Args) -> ExitCode {
    let spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| BenchmarkSpec::parse(&t))
    {
        Ok(spec) => spec,
        Err(e) => return usage(&format!("BENCHMARK.json (run from the repo root): {e}")),
    };
    let set = || WORKLOADS.map(|name| child(name, args, false));
    let (first, second) = (set(), set());
    let mut bad = 0;
    for (name, pair) in WORKLOADS.iter().zip(first.into_iter().zip(second)) {
        let (Ok(first), Ok(second)) = pair else {
            eprintln!("benchmark: {name}: a run failed");
            bad += 1;
            continue;
        };
        for (m, (a, b)) in spec
            .end_to_end
            .iter()
            .zip(first.metrics.iter().zip(&second.metrics))
        {
            let worse = if m.better == "lower" {
                b.1 / a.1 - 1.0
            } else {
                a.1 / b.1 - 1.0
            };
            let ok = if SIMULATED.contains(&m.name.as_str()) {
                a.1 == b.1
            } else {
                worse <= m.bound
            };
            bad += usize::from(!ok);
            eprintln!(
                "check-repeat {name:<14} {:<24} {:>16.6} -> {:>16.6} {:<6} {:+7.2}% worse (bound {:.0}%) {}",
                m.name,
                a.1,
                b.1,
                m.unit,
                100.0 * worse,
                100.0 * m.bound,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn value<T: std::str::FromStr>(
    flag: &str,
    argv: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let v = argv.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot read `{v}`"))
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<(Mode, Args), String> {
    let mut mode = None;
    let mut seconds = None;
    let mut args = Args {
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale_div: 1,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => mode = Some(Mode::One(value(&flag, &mut argv)?)),
            "--all" => mode = Some(Mode::All),
            "--check-repeat" => mode = Some(Mode::CheckRepeat),
            "--smoke" => args.scale_div = SMOKE_DIV,
            // Any integer is a seed; the generators take its low 32 bits.
            "--seed" => args.seed = value::<u64>(&flag, &mut argv)? as u32,
            "--seconds" => seconds = Some(value(&flag, &mut argv)?),
            "--scale" => args.scale_div = value::<u64>(&flag, &mut argv)?.max(1),
            "--trace" => {
                args.trace = match value::<u8>(&flag, &mut argv)? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.seconds = seconds.unwrap_or(if args.scale_div == SMOKE_DIV {
        SMOKE_SECONDS
    } else {
        args.seconds
    });
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let mode = mode.ok_or("one of --workload, --all, --check-repeat is required")?;
    Ok((mode, args))
}

fn main() -> ExitCode {
    let (mode, args) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(why) => return usage(&why),
    };
    match mode {
        Mode::All => run_all(args),
        Mode::CheckRepeat => check_repeat(args),
        Mode::One(name) => match run_one(&name, args) {
            None => usage(&format!("unknown workload {name}")),
            Some(report) => {
                println!("{}", report.result_line());
                if report.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
        },
    }
}
