//! `conform-fuzz` speaks the shared command-line contract: the common
//! usage block under `--help`, exit status 2 for unknown, missing and
//! malformed arguments. Its campaign path runs each CI leg's flags to
//! the same verdict as the leg's campaign in process, a cell-fault flag
//! arms the hammer axis, and both self tests pass.

use std::io::BufReader;
use std::process::{Command, Output};

use hmc_conform::{campaign, CI_LEGS};
use hmc_core::SimParams;
use hmc_workloads::Replay;

const BIN: &str = env!("CARGO_BIN_EXE_conform-fuzz");

#[test]
fn help_prints_the_shared_usage_block() {
    let out = Command::new(BIN).arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("usage: conform-fuzz"), "{text}");
    assert!(text.contains(SimParams::USAGE));
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["--no-such-flag"][..],
        &["--streams"],
        &["--streams", "many"],
        &["--seed", "xyz"],
        &["--timing", "fast"],
        &["--link-retry-limit"],
        // Neither the engine nor the campaign has a thread axis.
        &["--threads", "8"],
        &["--full-sweep"],
    ] {
        let out = Command::new(BIN).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("conform-fuzz: "), "{args:?}: {stderr}");
    }
}

fn run(args: &[&str]) -> Output {
    let out = Command::new(BIN).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "conform-fuzz {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn the_campaign_path_passes_at_the_pinned_seed() {
    let out = run(&["--streams", "4", "--seed", "C0FFEE00"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\nPASS: 4 streams clean"), "{text}");
}

/// Each leg's flags, run by the binary, reach the verdict its campaign
/// reaches in process: the same streams and the same responses checked.
#[test]
fn every_leg_runs_the_same_campaign_through_its_flags() {
    for leg in &CI_LEGS {
        let report = campaign(&leg.campaign(2));
        if let Some((_, _, failure)) = &report.failure {
            panic!("{} leg, in process: {failure}", leg.name);
        }
        let mut args = vec!["--streams", "2"];
        args.extend(leg.flags.split_whitespace());
        let out = run(&args);
        let pass = format!(
            "PASS: 2 streams clean across 1 backend(s) x 1 fabric(s), {} responses \
             oracle-checked",
            report.responses_checked
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(&pass), "{} leg, {args:?}: {text}", leg.name);
    }
}

/// Any cell-fault flag arms the hammer axis, as any link-fault flag arms
/// the link one: an unmitigated threshold of 64 is crossed by stream 1's
/// burst, whose flipped bits the oracle catches.
#[test]
fn a_cell_fault_flag_arms_the_hammer_axis() {
    let dir = std::env::temp_dir().join(format!("conform-cli-hammer-{}", std::process::id()));
    let args = ["--streams", "2", "--hammer-threshold", "64", "--repro-dir"];
    let out = Command::new(BIN).args(args).arg(&dir).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(", hammer axis armed\n"), "{text}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("FAIL on stream 1 "), "{stderr}");
    assert!(stderr.contains("read data mismatch"), "{stderr}");
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_corruption_demo_writes_a_loadable_repro() {
    let dir = std::env::temp_dir().join(format!("conform-cli-demo-{}", std::process::id()));
    let out = run(&["--demo-corruption", "--repro-dir", dir.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("PASS: shrunk"), "{text}");
    let bytes = std::fs::read(dir.join("conform-demo-repro.csv")).unwrap();
    let replay = Replay::read_csv(BufReader::new(&bytes[..])).unwrap();
    assert!(replay.len() >= 2, "the corrupted write and its read");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_hammer_demo_detects_every_flip() {
    let out = run(&["--demo-hammer"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(100% detection)"), "{text}");
    assert!(text.contains("PASS: TRR re-run clean"), "{text}");
}
