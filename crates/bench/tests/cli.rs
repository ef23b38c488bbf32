//! The command-line contract of the bench binaries: one shared usage
//! block, uniform exit status 2 for unknown, missing and malformed
//! arguments, and `hmcsim`'s *defaults < config file < flags* precedence.

use std::process::{Command, Output};

use hmc_core::SimParams;
use hmc_types::{DeviceConfig, InterconnectKind, TimingKind};

const BINS: [(&str, &str); 6] = [
    ("figure3", env!("CARGO_BIN_EXE_figure3")),
    ("figure5", env!("CARGO_BIN_EXE_figure5")),
    ("hmcsim", env!("CARGO_BIN_EXE_hmcsim")),
    ("latency", env!("CARGO_BIN_EXE_latency")),
    ("sweep", env!("CARGO_BIN_EXE_sweep")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn assert_usage_error(name: &str, bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(
        stderr.starts_with(&format!("{name}: ")),
        "{name} {args:?}: {stderr}"
    );
}

#[test]
fn every_binary_prints_the_shared_usage_and_rejects_bad_arguments() {
    for (name, bin) in BINS {
        let help = run(bin, &["--help"]);
        assert!(help.status.success(), "{name} --help");
        let text = String::from_utf8_lossy(&help.stdout);
        assert!(
            text.starts_with(&format!("usage: {name}")),
            "{name}: {text}"
        );
        assert!(
            text.contains(SimParams::USAGE),
            "{name} --help lacks the shared block"
        );
        assert_usage_error(name, bin, &["--no-such-flag"]);
        assert_usage_error(name, bin, &["--serialize-flits"]);
        assert_usage_error(name, bin, &["--serialize-flits", "zebra"]);
        assert_usage_error(name, bin, &["--timing", "fast"]);
        // The engine has no thread axis: `hmc-serve --threads` (its
        // worker pool) is the only `--threads` in the workspace.
        let out = run(bin, &["--threads", "4"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{name}: unknown argument --threads")),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn sweep_no_longer_swallows_malformed_values() {
    let sweep = env!("CARGO_BIN_EXE_sweep");
    assert_usage_error("sweep", sweep, &["--requests", "abc"]);
    assert_usage_error("sweep", sweep, &["--seed", "x"]);
    assert_usage_error("sweep", sweep, &["--jobs", "0"]);
}

/// An output path that cannot be opened is a one-line usage error, found
/// before the run rather than as a panic after it.
#[test]
fn unopenable_output_paths_fail_before_the_run() {
    let path = "/nonexistent-dir/out.txt";
    let hmcsim = env!("CARGO_BIN_EXE_hmcsim");
    let sweep = env!("CARGO_BIN_EXE_sweep");
    for (name, bin, args) in [
        ("hmcsim", hmcsim, ["--requests", "200", "--trace", path]),
        ("hmcsim", hmcsim, ["--requests", "200", "--series", path]),
        ("sweep", sweep, ["--requests", "100", "--out", path]),
    ] {
        let out = run(bin, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{name}: {path}: ")),
            "{name} {args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.lines().any(|l| l.starts_with("cycles")),
            "{name} {args:?} simulated first: {stdout}"
        );
    }
}

/// `figure3` walks a request across the fabric it runs on: the crossbar
/// prints only its two walks, and a buffered fabric adds a third whose
/// read crosses from quad 0 to quad 2 and back. On a 2×2 mesh that is one
/// hop each way; on the unidirectional ring it is two.
#[test]
fn figure3_shows_the_fabric_it_runs_on() {
    let figure3 = env!("CARGO_BIN_EXE_figure3");
    // Cycles whose snapshot names a NoC segment buffer.
    let noc_cycles = |args: &[&str]| {
        let out = run(figure3, args);
        assert!(out.status.success(), "figure3 {args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let cycles = stdout.lines().filter(|l| l.contains("dev0.noc.q")).count();
        (stdout, cycles)
    };
    let (crossbar, none) = noc_cycles(&[]);
    assert_eq!(none, 0);
    assert!(!crossbar.contains("quad-2 vault"), "{crossbar}");
    let (mesh, mesh_cycles) = noc_cycles(&["--interconnect", "mesh"]);
    assert!(mesh.contains("dev0.noc.q0.rqst"), "{mesh}");
    assert!(mesh.contains("dev0.noc.q2.rsp"), "{mesh}");
    let (_, ring_cycles) = noc_cycles(&["--interconnect", "ring"]);
    assert!(
        ring_cycles > mesh_cycles,
        "ring {ring_cycles} vs mesh {mesh_cycles} cycles in NoC buffers"
    );
}

/// Simulated cycles of one `hmcsim --requests 2000` run with `extra`.
fn hmcsim_cycles(extra: &[&str]) -> u64 {
    let mut args = vec!["--requests", "2000"];
    args.extend_from_slice(extra);
    let out = run(env!("CARGO_BIN_EXE_hmcsim"), &args);
    assert!(
        out.status.success(),
        "hmcsim {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("cycles")?.trim().parse().ok())
        .expect("hmcsim prints a cycles line")
}

/// `core::report` and `trace::power` have one consumer each, both here.
#[test]
fn hmcsim_prints_a_utilization_row_per_vault_and_an_energy_total() {
    let out = run(
        env!("CARGO_BIN_EXE_hmcsim"),
        &["--requests", "2000", "--utilization", "--energy"],
    );
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("vault "))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .collect();
    let vaults = DeviceConfig::paper_4link_8bank_2gb().num_vaults as usize;
    assert_eq!(rows.len(), vaults, "{text}");
    for (v, row) in rows.iter().enumerate() {
        let first = row.split_whitespace().next().unwrap();
        assert_eq!(first.parse(), Ok(v), "{row}");
    }
    let total: u64 = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("total")?.trim().strip_suffix("pJ"))
        .expect("hmcsim --energy prints a total line")
        .trim()
        .parse()
        .expect("picojoules");
    assert!(total > 0);
}

#[test]
fn config_file_axes_are_honoured_and_flags_override_them() {
    let dir = std::env::temp_dir().join(format!("hmc_bench_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, config: DeviceConfig| {
        let path = dir.join(name);
        std::fs::write(&path, serde_json::to_string(&config).unwrap()).unwrap();
        path.to_str().unwrap().to_string()
    };
    let preset = DeviceConfig::paper_4link_8bank_2gb;
    let ddr = write("ddr.json", preset().with_timing(TimingKind::Ddr));
    let ring = write(
        "ring.json",
        preset().with_interconnect(InterconnectKind::Ring),
    );

    let default = hmcsim_cycles(&[]);
    let by_flag = hmcsim_cycles(&["--timing", "ddr"]);
    assert_ne!(by_flag, default, "the DDR backend changes the cycle count");
    assert_eq!(hmcsim_cycles(&["--config-file", &ddr]), by_flag);
    // An explicit flag wins over the file, wherever it sits.
    assert_eq!(
        hmcsim_cycles(&["--config-file", &ddr, "--timing", "classic"]),
        default
    );
    assert_eq!(
        hmcsim_cycles(&["--timing", "classic", "--config-file", &ddr]),
        default
    );

    let by_flag = hmcsim_cycles(&["--interconnect", "ring"]);
    assert_ne!(by_flag, default, "the ring fabric changes the cycle count");
    assert_eq!(hmcsim_cycles(&["--config-file", &ring]), by_flag);
    assert_eq!(
        hmcsim_cycles(&["--config-file", &ring, "--interconnect", "crossbar"]),
        default
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A config file past a geometry bound is one line naming the field and
/// its limit, exit 2 — the bound lives in `DeviceConfig::validate`, so
/// nothing after parsing can refuse what parsing accepted.
#[test]
fn a_config_file_past_the_bank_bound_is_a_usage_error() {
    let path = std::env::temp_dir().join(format!("hmc_bench_banks_{}.json", std::process::id()));
    let config = DeviceConfig {
        banks_per_vault: 128,
        ..DeviceConfig::small()
    };
    std::fs::write(&path, serde_json::to_string(&config).unwrap()).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_hmcsim"),
        &["--config-file", path.to_str().unwrap()],
    );
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("hmcsim: ")
            && stderr.contains("banks_per_vault")
            && stderr.contains("..=64"),
        "{stderr}"
    );
}
