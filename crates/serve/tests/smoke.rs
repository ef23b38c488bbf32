//! The serving layer end to end, through the real binaries: for each
//! scenario, an `hmc-serve` daemon on a Unix socket, one or more
//! `loadgen` runs against it at CI's own request counts, then SIGTERM,
//! which must drain the daemon to exit status 0. Every loadgen run must
//! exit 0 with no lost and no duplicated tags, and each scenario checks
//! what its traffic is for on the reports.
//!
//! Reports go to `loadgen-report/<name>.json` at the workspace root,
//! each child's stderr beside them as `<name>.log`. Every child is
//! waited on with a time limit and killed and reaped when a check
//! fails, so a failing scenario leaves no process running.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus};
use std::time::{Duration, Instant};

use serde::Deserialize;

const SERVE: &str = env!("CARGO_BIN_EXE_hmc-serve");
const LOADGEN: &str = env!("CARGO_BIN_EXE_loadgen");

/// How long the daemon may take to bind its socket.
const BIND_LIMIT: Duration = Duration::from_secs(10);
/// How long one loadgen run may take.
const LOAD_LIMIT: Duration = Duration::from_secs(60);
/// How long a SIGTERMed daemon may take to exit: past its own 30 s
/// drain window, which ends in exit status 1.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

// No libc crate in this workspace; `hmc-serve` binds `signal` the same way.
extern "C" {
    fn kill(pid: i32, signal: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// The parts of a loadgen report the scenarios check.
#[derive(Deserialize)]
struct Report {
    lost_tags: u64,
    duplicated_tags: u64,
    total_bit_flips: u64,
    total_trr_refreshes: u64,
    total_link_retries: u64,
    total_link_retrains: u64,
    total_poisoned_responses: u64,
    per_session: Vec<SessionErrors>,
}

#[derive(Deserialize)]
struct SessionErrors {
    errors: u64,
}

/// One daemon and the loadgen runs made against it.
struct Scenario {
    name: &'static str,
    /// `hmc-serve` arguments besides `--socket`.
    server: &'static str,
    /// One loadgen run each, in order: its report's name and its
    /// arguments besides `--socket` and `--json`.
    loads: &'static [(&'static str, &'static str)],
    /// What the reports, in `loads` order, must show besides no lost
    /// and no duplicated tags.
    check: fn(&[Report]),
}

const SCENARIOS: [Scenario; 6] = [
    Scenario {
        name: "loopback",
        server: "--threads 4",
        loads: &[(
            "loadgen-report",
            "--sessions 4 --requests 5000 --workload random --preset small",
        )],
        check: |_| {},
    },
    // Four sessions share one worker at 256-cycle slices, and every 16
    // ops a 2,000-cycle gap spans several quanta: a frame's own thread
    // runs one quantum, the worker the rest, back and forth.
    Scenario {
        name: "one-worker",
        server: "--threads 1 --slice 256",
        loads: &[(
            "loadgen-one-worker",
            "--sessions 4 --requests 2000 --workload random --preset small \
             --idle-gap 2000 --idle-every 16",
        )],
        check: |_| {},
    },
    // Hotspot sessions on the two buffered fabrics, each under a
    // non-default arbitration policy.
    Scenario {
        name: "noc",
        server: "--threads 4",
        loads: &[
            (
                "loadgen-noc-ring",
                "--sessions 2 --requests 2000 --workload hotspot --preset small \
                 --hot-quad 2 --interconnect ring --arbitration oldest-first",
            ),
            (
                "loadgen-noc-mesh",
                "--sessions 2 --requests 2000 --workload hotspot --preset small \
                 --hot-quad 2 --interconnect mesh --arbitration locality-aware",
            ),
        ],
        check: |_| {},
    },
    // The same hammer sessions unmitigated, then under TRR.
    Scenario {
        name: "hammer",
        server: "--threads 4",
        loads: &[
            (
                "loadgen-hammer-none",
                "--sessions 2 --requests 3000 --workload hammer --preset small \
                 --hammer-threshold 64 --flip-prob 1000000",
            ),
            (
                "loadgen-hammer-trr",
                "--sessions 2 --requests 3000 --workload hammer --preset small \
                 --hammer-threshold 64 --flip-prob 1000000 --mitigation trr",
            ),
        ],
        check: |reports| {
            let (none, trr) = (&reports[0], &reports[1]);
            assert!(
                none.total_bit_flips > 0,
                "unmitigated hammer must flip bits"
            );
            assert_eq!(
                trr.total_bit_flips, 0,
                "TRR at spec threshold must prevent all flips"
            );
            assert!(trr.total_trr_refreshes > 0, "TRR must actually fire");
        },
    },
    // The daemon in degraded-link mode: retry-exhausted requests come
    // back as poisoned error frames.
    Scenario {
        name: "link",
        server: "--threads 4 --link-error-rate 300000 --link-retry-limit 1 \
                 --retrain-cycles 32 --link-fault-seed 77",
        loads: &[(
            "loadgen-link",
            "--sessions 2 --requests 3000 --workload random --preset small",
        )],
        check: |reports| {
            let rep = &reports[0];
            assert!(
                rep.total_poisoned_responses > 0,
                "degraded link must poison some responses"
            );
            let errors: u64 = rep.per_session.iter().map(|s| s.errors).sum();
            assert!(
                errors >= rep.total_poisoned_responses,
                "every poisoned response must arrive as an error frame"
            );
            assert!(rep.total_link_retries > 0, "retry protocol must engage");
            assert!(
                rep.total_link_retrains > 0,
                "exhaustion must retrain the link"
            );
        },
    },
    // Open-loop sessions whose idle gaps every server jumps.
    Scenario {
        name: "idle",
        server: "--threads 4",
        loads: &[(
            "loadgen-idle-report",
            "--sessions 4 --requests 2000 --workload random --preset small \
             --idle-gap 20000 --idle-every 16",
        )],
        check: |_| {},
    },
];

/// A child process that is killed and reaped if the test lets go of it
/// while it still runs.
struct Reaped {
    child: Child,
    what: String,
}

impl Reaped {
    /// Start `command` with its stderr in `log`.
    fn spawn(command: &mut Command, what: String, log: &Path) -> Reaped {
        let log = File::create(log).unwrap_or_else(|e| panic!("{}: {e}", log.display()));
        let child = command
            .stderr(log)
            .spawn()
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        Reaped { child, what }
    }

    fn exited(&mut self) -> Option<ExitStatus> {
        self.child.try_wait().unwrap()
    }

    /// Wait for the child to exit, failing (and so killing it) after
    /// `limit`.
    fn wait(&mut self, limit: Duration) -> ExitStatus {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(status) = self.exited() {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "{}: still running after {limit:?}",
                self.what
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        // No panic here: this runs while a failed check unwinds.
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}

/// `loadgen-report/` at the workspace root, where CI collects reports.
fn report_dir() -> PathBuf {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = crate_dir.ancestors().nth(2).unwrap().join("loadgen-report");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(name: &str) {
    let scenario = SCENARIOS
        .iter()
        .find(|s| s.name == name)
        .expect("a scenario of the table");
    let dir = report_dir();
    let socket = std::env::temp_dir().join(format!("hmc-smoke-{name}-{}.sock", std::process::id()));
    std::fs::remove_file(&socket).ok();

    let what = format!("{name}: hmc-serve");
    let mut server = Reaped::spawn(
        Command::new(SERVE)
            .arg("--socket")
            .arg(&socket)
            .args(scenario.server.split_whitespace()),
        what.clone(),
        &dir.join(format!("{name}-hmc-serve.log")),
    );
    let deadline = Instant::now() + BIND_LIMIT;
    while !socket.exists() {
        assert!(server.exited().is_none(), "{what} exited before binding");
        assert!(
            Instant::now() < deadline,
            "{what}: no socket after {BIND_LIMIT:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut reports = Vec::new();
    for (report, args) in scenario.loads {
        let json = dir.join(format!("{report}.json"));
        let what = format!("{name}: loadgen {report}");
        let status = Reaped::spawn(
            Command::new(LOADGEN)
                .arg("--socket")
                .arg(&socket)
                .args(args.split_whitespace())
                .arg("--json")
                .arg(&json),
            what.clone(),
            &dir.join(format!("{report}.log")),
        )
        .wait(LOAD_LIMIT);
        assert!(status.success(), "{what} exited {status}");
        let text = std::fs::read_to_string(&json).unwrap();
        let rep: Report = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(rep.lost_tags, 0, "{what}: lost tags");
        assert_eq!(rep.duplicated_tags, 0, "{what}: duplicated tags");
        reports.push(rep);
    }

    let pid = i32::try_from(server.child.id()).unwrap();
    // SAFETY: `kill` reads its two integer arguments and nothing else;
    // the pid is our own child's, not yet reaped.
    assert_eq!(unsafe { kill(pid, SIGTERM) }, 0, "{what}: SIGTERM");
    let status = server.wait(DRAIN_LIMIT);
    assert_eq!(
        status.code(),
        Some(0),
        "{what} exited {status} after SIGTERM"
    );
    std::fs::remove_file(&socket).ok();
    (scenario.check)(&reports);
}

#[test]
fn loopback_sessions_drain_on_sigterm() {
    run("loopback");
}

#[test]
fn one_worker_with_short_slices_loses_no_tag() {
    run("one-worker");
}

#[test]
fn hotspot_sessions_on_ring_and_mesh_fabrics() {
    run("noc");
}

#[test]
fn hammer_sessions_flip_bits_unmitigated_and_none_under_trr() {
    run("hammer");
}

#[test]
fn degraded_link_sessions_get_poisoned_responses_as_error_frames() {
    run("link");
}

#[test]
fn open_loop_idle_sessions_drain_on_sigterm() {
    run("idle");
}
