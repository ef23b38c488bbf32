//! `hmc-serve` — the simulation service daemon.
//!
//! `hmc-serve --help` prints the synopsis (`USAGE` below) and the shared
//! simulation-axis flags (`SimParams::USAGE`). `--threads` sizes the
//! worker pool, which runs every quantum after the one a submit or poll
//! runs on its own connection thread — sessions run in parallel, each
//! simulation on one thread at a time; every session's device is built
//! under the shared axes, with the session's own config laid on top. So
//! the link-fault flags put the whole daemon into degraded-link mode — every
//! session whose config does not arm its own
//! `link_faults` block inherits the server's, and retry-exhausted
//! requests come back to clients as poisoned error frames. The timing
//! backend and the fabric are always the session config's to name
//! (`loadgen` forwards them), so those flags are refused here.
//!
//! At least one of `--socket` (Unix-domain) or `--listen` (TCP) is
//! required. SIGTERM and SIGINT trigger the graceful drain: stop
//! accepting, quiesce every session's device, flush responses, exit 0
//! (1 if the drain window expired with sessions still busy).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hmc_core::{Args, SimParams};
use hmc_serve::{DrainOutcome, Server, ServerConfig};
use hmc_types::DeviceConfig;

// No libc crate in this workspace: bind the two POSIX symbols the daemon
// needs directly. The handler only sets an atomic flag — the one thing
// that is async-signal-safe — and the accept/read loops poll it.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN_REQUESTED.store(true, Ordering::Release);
}

const USAGE: &str = "\
usage: hmc-serve [--socket PATH] [--listen ADDR] [--max-sessions N]
                 [--threads N] [--inflight N] [--responses N] [--slice N]
                 [--idle-timeout SECS (0 = never)] [--drain-timeout SECS]
                 [simulation axes]";

fn main() {
    let mut socket: Option<PathBuf> = None;
    let mut listen: Option<String> = None;
    let mut cfg = ServerConfig::default();
    let mut idle_timeout: u64 = 300;
    let mut drain_timeout: u64 = 30;
    let mut args = Args::from_env("hmc-serve", USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--socket" => socket = Some(args.value(&flag)),
            "--listen" => listen = Some(args.value(&flag)),
            "--max-sessions" => cfg.max_sessions = args.value(&flag),
            "--threads" => cfg.threads = args.value(&flag),
            "--inflight" => cfg.limits.inflight_limit = args.value(&flag),
            "--responses" => cfg.limits.response_limit = args.value(&flag),
            "--slice" => cfg.limits.slice_cycles = args.value(&flag),
            "--idle-timeout" => idle_timeout = args.value(&flag),
            "--drain-timeout" => drain_timeout = args.value(&flag),
            _ => args.axis(&flag),
        }
    }
    if socket.is_none() && listen.is_none() {
        args.die("need --socket and/or --listen");
    }
    let l = cfg.limits;
    if cfg.max_sessions == 0
        || l.inflight_limit == 0
        || l.response_limit == 0
        || l.slice_cycles == 0
    {
        args.die("--max-sessions/--inflight/--responses/--slice must be nonzero");
    }
    cfg.params = args.params_over(SimParams::default());
    if cfg.params.with_device_axes(&DeviceConfig::small()) != cfg.params {
        args.die(
            "--timing/--interconnect/--arbitration belong to the session config, not the server",
        );
    }
    cfg.idle_timeout = (idle_timeout > 0).then(|| Duration::from_secs(idle_timeout));

    let mut server = Server::new(cfg);
    if let Some(path) = &socket {
        server.bind_uds(path).unwrap_or_else(|e| args.die(e));
        eprintln!("hmc-serve: listening on {}", path.display());
    }
    if let Some(addr) = &listen {
        let local = server.bind_tcp(addr).unwrap_or_else(|e| args.die(e));
        eprintln!("hmc-serve: listening on tcp {local}");
    }

    // Relay SIGTERM/SIGINT into the server's shutdown flag. The static
    // atomic decouples the handler from the server object; a bridge
    // thread forwards it.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
    let flag: Arc<AtomicBool> = server.shutdown_flag();
    std::thread::spawn(move || loop {
        if SHUTDOWN_REQUESTED.load(Ordering::Acquire) {
            flag.store(true, Ordering::Release);
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });

    eprintln!(
        "hmc-serve: ready ({} worker(s), {} session cap)",
        cfg.threads.max(1),
        cfg.max_sessions,
    );
    if let Some(f) = &cfg.params.link_faults {
        eprintln!(
            "hmc-serve: degraded-link mode: {} ppm error rate, retry limit {}, \
             retrain {} cycles",
            f.error_rate_ppm, f.retry_limit, f.retrain_cycles
        );
    }
    match server.run(Duration::from_secs(drain_timeout)) {
        DrainOutcome::Drained => {
            eprintln!("hmc-serve: drained cleanly");
            std::process::exit(0);
        }
        DrainOutcome::TimedOut => {
            eprintln!("hmc-serve: drain timed out with sessions still busy");
            std::process::exit(1);
        }
    }
}
