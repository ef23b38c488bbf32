//! `hmc-serve` and `loadgen` speak the shared command-line contract: the
//! common usage block under `--help`, exit status 2 for unknown, missing
//! and malformed arguments — and each refuses the simulation axes that
//! belong to the other side of the wire.

use std::process::Command;

use hmc_core::SimParams;

const BINS: [(&str, &str); 2] = [
    ("hmc-serve", env!("CARGO_BIN_EXE_hmc-serve")),
    ("loadgen", env!("CARGO_BIN_EXE_loadgen")),
];

fn assert_usage_error(name: &str, bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(
        stderr.starts_with(&format!("{name}: ")),
        "{name} {args:?}: {stderr}"
    );
}

#[test]
fn help_prints_the_shared_usage_block() {
    for (name, bin) in BINS {
        let out = Command::new(bin).arg("--help").output().unwrap();
        assert!(out.status.success(), "{name} --help");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.starts_with(&format!("usage: {name}")),
            "{name}: {text}"
        );
        assert!(
            text.contains(SimParams::USAGE),
            "{name} --help lacks the shared block"
        );
    }
}

#[test]
fn bad_arguments_exit_2() {
    for (name, bin) in BINS {
        assert_usage_error(name, bin, &["--no-such-flag"]);
        assert_usage_error(name, bin, &["--socket"]);
        assert_usage_error(name, bin, &["--link-error-rate", "lots"]);
        // Neither a socket nor an address.
        assert_usage_error(name, bin, &[]);
    }
    assert_usage_error("hmc-serve", BINS[0].1, &["--threads", "zebra"]);
    assert_usage_error("loadgen", BINS[1].1, &["--sessions", "-1"]);
}

/// `--threads` sizes `hmc-serve`'s worker pool and is no simulation
/// axis: `loadgen`, which has no pool, does not know the flag.
#[test]
fn threads_belongs_to_the_worker_pool_alone() {
    // Accepted and parsed: the only complaint left is the missing socket.
    let out = Command::new(BINS[0].1)
        .args(["--threads", "4"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("need --socket"), "{stderr}");

    let out = Command::new(BINS[1].1)
        .args([
            "--socket",
            "/nonexistent/hmc-cli-test.sock",
            "--threads",
            "4",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("loadgen: unknown argument --threads"),
        "{stderr}"
    );
}

#[test]
fn each_side_refuses_the_axes_it_cannot_apply() {
    let sock = ["--socket", "/nonexistent/hmc-cli-test.sock"];
    // A session's config always names its backend and fabric.
    assert_usage_error(
        "hmc-serve",
        BINS[0].1,
        &[&sock[..], &["--timing", "ddr"]].concat(),
    );
    assert_usage_error(
        "hmc-serve",
        BINS[0].1,
        &[&sock[..], &["--interconnect", "mesh"]].concat(),
    );
    // Engine-side axes do not ride in a device config.
    assert_usage_error("loadgen", BINS[1].1, &[&sock[..], &["--check"]].concat());
    assert_usage_error(
        "loadgen",
        BINS[1].1,
        &[&sock[..], &["--stall-queue"]].concat(),
    );
}
