//! Facts about the host and the process that go into every output file.

use std::process::Command;

use serde::Serialize;

/// Where and with what a result was measured.
#[derive(Debug, Clone, Serialize)]
pub struct HostMeta {
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Logical CPUs available to the process.
    pub nproc: u64,
    /// `rustc --version` of the toolchain on the PATH.
    pub rustc: String,
    /// Short git revision of the checkout, when it is one.
    pub git_rev: String,
    /// Workload seed.
    pub seed: u64,
    /// Divisor applied to every workload's size (1 = full, 50 = smoke).
    pub scale_div: u64,
    /// Measuring time asked for, seconds.
    pub seconds: f64,
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

impl HostMeta {
    /// Collect the metadata (spawns `rustc` and `git`, each waited for).
    pub fn collect(seed: u64, scale_div: u64, seconds: f64) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostMeta {
            cpu_model,
            nproc: nproc() as u64,
            rustc: first_line_of("rustc", &["--version"]),
            git_rev: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
            seed,
            scale_div,
            seconds,
        }
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
