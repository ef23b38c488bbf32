//! `conform-fuzz` speaks the shared command-line contract: the common
//! usage block under `--help`, exit status 2 for unknown, missing and
//! malformed arguments.

use std::process::Command;

use hmc_core::SimParams;

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
