//! `serve_closed`: the only workload through the serving tier — wire
//! codec, connection threads, run queue and session pump.
//!
//! An in-process `hmc_serve::Server` with `ServerConfig::default()`
//! listens on a Unix-domain socket (the daemon's `main` is flag parsing
//! and signals around exactly this). Each client thread owns one
//! connection and one session (preset `small`, functional storage) and
//! runs a closed loop: submit a 512-op batch, poll until the whole batch
//! has answered, repeat. The first batches on a fresh server are slower
//! than the rest, so every client runs warm-up batches and the clients
//! start their timed batches together from a barrier. The batch size is
//! below the server's inflight limit, so steady state has no BUSY; any
//! that occur are retried and counted.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hmc_core::{topology, HmcSim};
use hmc_host::{run_workload_captured, Host, RunConfig};
use hmc_serve::{
    memop_to_wire, Client, DrainOutcome, PumpOutcome, RetryPolicy, Server, ServerConfig,
    SessionLimits, SessionManager, SessionState,
};
use hmc_types::{BlockSize, DeviceConfig, Frame, WireOp, WireResponse};
use hmc_workloads::{MemOp, RandomAccess, Workload};

use crate::digest::Digest;
use crate::harness::{Bench, Layers, Outcome, TracedRun, OUT_DIR};
use crate::meta::nproc;
use crate::replay;
use crate::span::{Probe, Recorder};
use crate::stats::percentile_sorted;

/// Operations per submitted batch.
const BATCH_OPS: usize = 512;
/// Untimed batches each client runs first on its fresh server.
const WARMUP_BATCHES: usize = 20;
/// Working set of each session's stream: small enough that functional
/// storage stays a few MiB per session.
const WORKING_SET: u64 = 1 << 24;
/// Session preset.
const PRESET: &str = "small";

/// The closed-loop serving workload.
pub struct ServeClosed {
    /// Per client: every batch it submits, warm-up first.
    streams: Vec<Vec<Vec<WireOp>>>,
    /// The same streams as memory ops, for the in-process references.
    ops: Vec<Vec<MemOp>>,
}

/// A started server with connected clients and open sessions.
pub struct ServeState {
    server: JoinHandle<DrainOutcome>,
    shutdown: Arc<AtomicBool>,
    clients: Vec<(Client, u64)>,
    open_session_ms: f64,
}

/// What one client thread saw.
#[derive(Default)]
struct ClientRun {
    responses: Vec<WireResponse>,
    batch_rtt_ns: Vec<u64>,
    submit_rtt_ns: Vec<u64>,
    poll_rtt_ns: Vec<u64>,
    polls: u64,
    empty_polls: u64,
    busy_retries: u64,
    backoff_ms: u64,
    cycles: u64,
    failed: u64,
    started: Option<Instant>,
    ended: Option<Instant>,
    rec: Option<Recorder>,
}

/// Fold a session's responses — tag, status, latency and data, in
/// arrival order — into `d`.
fn digest_responses<'a>(responses: impl Iterator<Item = &'a WireResponse>, d: &mut Digest) {
    for r in responses {
        d.u64(u64::from(r.tag));
        d.u64(u64::from(r.status));
        d.u64(r.latency);
        d.bytes(&r.data);
    }
}

impl ServeClosed {
    /// `nproc` (at most 2) clients, each with a seeded random 64 B
    /// half-read stream cut into 512-op batches.
    pub fn new(seed: u32, div: u64) -> Self {
        let clients = nproc().clamp(1, 2);
        let batches = WARMUP_BATCHES + (300 / div).max(2) as usize;
        let ops: Vec<Vec<MemOp>> = (0..clients)
            .map(|c| {
                let mut gen = RandomAccess::new(
                    seed.wrapping_mul(31).wrapping_add(c as u32),
                    WORKING_SET,
                    BlockSize::B64,
                    50,
                    (batches * BATCH_OPS) as u64,
                );
                std::iter::from_fn(|| gen.next_op()).collect()
            })
            .collect();
        let streams = ops
            .iter()
            .map(|stream| {
                stream
                    .chunks(BATCH_OPS)
                    .map(|b| b.iter().map(memop_to_wire).collect())
                    .collect()
            })
            .collect();
        ServeClosed { streams, ops }
    }

    fn timed_ops(&self) -> u64 {
        self.streams
            .iter()
            .map(|s| ((s.len() - WARMUP_BATCHES) * BATCH_OPS) as u64)
            .sum()
    }

    /// One client's closed loop. With a recorder, each batch is a
    /// `batch` span (`warmup_batch` before the start barrier) with
    /// `submit` and `poll` children.
    fn client_loop(
        client: &mut Client,
        session: u64,
        batches: &[Vec<WireOp>],
        start: &Barrier,
        rec: Option<Recorder>,
    ) -> ClientRun {
        let mut run = ClientRun {
            rec,
            ..ClientRun::default()
        };
        let mut probe = Probe::new(run.rec.as_mut());
        let (n_batch, n_warm) = (probe.name("batch"), probe.name("warmup_batch"));
        let (n_submit, n_poll) = (probe.name("submit"), probe.name("poll"));
        let policy = RetryPolicy::default();
        let mut cycles_before = 0;
        for (b, ops) in batches.iter().enumerate() {
            let timed = b >= WARMUP_BATCHES;
            if b == WARMUP_BATCHES {
                cycles_before = client.stats(session).expect("stats").cycles;
                start.wait();
                run.started = Some(Instant::now());
            }
            let t_batch = Instant::now();
            let span = probe.open(if timed { n_batch } else { n_warm }, b as u64);
            let s = probe.open(n_submit, b as u64);
            let report = client
                .submit_all_with(session, ops, &policy)
                .expect("submit");
            probe.close(s);
            if timed {
                run.submit_rtt_ns.push(t_batch.elapsed().as_nanos() as u64);
                run.busy_retries += report.busy_retries;
                run.backoff_ms += report.backoff_ms;
            }
            let mut got = 0;
            while got < ops.len() {
                let t_poll = Instant::now();
                let p = probe.open(n_poll, b as u64);
                let poll = client.poll(session, BATCH_OPS as u32).expect("poll");
                probe.close(p);
                got += poll.items.len();
                if timed {
                    run.poll_rtt_ns.push(t_poll.elapsed().as_nanos() as u64);
                    run.polls += 1;
                    run.empty_polls += u64::from(poll.items.is_empty());
                    run.responses.extend(poll.items);
                }
            }
            probe.close(span);
            if timed {
                run.batch_rtt_ns.push(t_batch.elapsed().as_nanos() as u64);
            }
        }
        run.ended = Some(Instant::now());
        let stats = client.close(session).expect("close");
        run.cycles = stats.cycles - cycles_before;
        let expected = (batches.len() * BATCH_OPS) as u64;
        run.failed = run.responses.iter().filter(|r| !r.ok).count() as u64
            + stats.orphans
            + stats.errors
            + expected.abs_diff(stats.completed)
            + u64::from(stats.outstanding);
        run
    }

    /// The in-process reference for one client: its batches through a
    /// `SessionState` directly — submit, pump to idle, take responses.
    /// Returns the timed batches' responses, the cycles they took, and
    /// host nanoseconds per op.
    fn session_reference(&self, client: usize) -> (Vec<WireResponse>, u64, f64) {
        let mut session = SessionState::new(
            DeviceConfig::by_name(PRESET).expect("preset exists"),
            SessionLimits::default(),
        )
        .expect("session builds");
        let mut responses = Vec::new();
        let (mut cycles_before, mut ns) = (0, 0u128);
        for (b, ops) in self.streams[client].iter().enumerate() {
            if b == WARMUP_BATCHES {
                cycles_before = session.snapshot().cycles;
            }
            let t = Instant::now();
            assert_eq!(session.submit(ops).expect("valid ops"), ops.len());
            while session.pump().expect("pump") != PumpOutcome::Idle {}
            let got = session.take_responses(usize::MAX);
            if b >= WARMUP_BATCHES {
                ns += t.elapsed().as_nanos();
                responses.extend(got);
            }
        }
        let cycles = session.snapshot().cycles - cycles_before;
        let per_op = ns as f64 / responses.len().max(1) as f64;
        (responses, cycles, per_op)
    }

    /// `serve.manager_handle_ns_per_op`: client 0's frames through
    /// `SessionManager::handle`, worker pool and all, without a socket.
    fn manager_ns_per_op(&self) -> f64 {
        let (mgr, workers) = SessionManager::start(ServerConfig::default());
        let opened = mgr.handle(&Frame::OpenSession {
            preset: PRESET.into(),
            config_json: String::new(),
            inflight_limit: 0,
            response_limit: 0,
        });
        let Frame::SessionOpened { session } = opened else {
            panic!("manager refused the session: {opened:?}");
        };
        let (mut ns, mut ops_done) = (0u128, 0usize);
        for (b, ops) in self.streams[0].iter().enumerate() {
            let t = Instant::now();
            let submit = Frame::SubmitBatch {
                session,
                ops: ops.clone(),
            };
            assert!(matches!(mgr.handle(&submit), Frame::BatchAccepted { .. }));
            let mut got = 0;
            while got < ops.len() {
                let poll = Frame::Poll {
                    session,
                    max: BATCH_OPS as u32,
                };
                match mgr.handle(&poll) {
                    Frame::Responses { items, .. } => got += items.len(),
                    other => panic!("poll answered {other:?}"),
                }
            }
            if b >= WARMUP_BATCHES {
                ns += t.elapsed().as_nanos();
                ops_done += ops.len();
            }
        }
        mgr.stop_workers();
        for w in workers {
            w.join().expect("worker exits");
        }
        ns as f64 / ops_done.max(1) as f64
    }

    /// `serve.inproc_run_ns_per_op`: client 0's stream as one
    /// `run_workload_captured` call — the simulate floor.
    fn inproc_ns_per_op(&self) -> f64 {
        let mut sim = HmcSim::new(1, DeviceConfig::by_name(PRESET).expect("preset exists"))
            .expect("validates");
        let host_id = sim.host_cube_id(0);
        topology::build_simple(&mut sim, host_id).expect("simple topology");
        let mut host = Host::attach(&sim, host_id).expect("host links wired");
        let mut stream = hmc_workloads::Replay::new(self.ops[0].clone());
        let t = Instant::now();
        let (report, captured) =
            run_workload_captured(&mut sim, &mut host, &mut stream, RunConfig::default())
                .expect("the run completes");
        std::hint::black_box(captured);
        t.elapsed().as_nanos() as f64 / report.injected.max(1) as f64
    }
}

fn socket_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!("{OUT_DIR}/serve-{}-{n}.sock", std::process::id()))
}

impl Bench for ServeClosed {
    type State = ServeState;

    fn setup(&self) -> ServeState {
        std::fs::create_dir_all(OUT_DIR).expect("output directory");
        let path = socket_path();
        let mut server = Server::new(ServerConfig::default());
        server.bind_uds(&path).expect("bind");
        let shutdown = server.shutdown_flag();
        let server = std::thread::spawn(move || server.run(Duration::from_secs(5)));
        let mut open_ns = 0u128;
        let clients = self
            .streams
            .iter()
            .map(|_| {
                let mut client = Client::connect_uds(&path).expect("connect");
                let t = Instant::now();
                let session = client
                    .open_session_preset(PRESET, 0, 0)
                    .expect("open session");
                open_ns += t.elapsed().as_nanos();
                (client, session)
            })
            .collect();
        ServeState {
            server,
            shutdown,
            clients,
            open_session_ms: open_ns as f64 / 1e6 / self.streams.len() as f64,
        }
    }

    fn run(&self, state: ServeState, rec: Option<&mut Recorder>) -> Outcome {
        let ServeState {
            server,
            shutdown,
            mut clients,
            open_session_ms,
        } = state;
        let start = Barrier::new(clients.len());
        let origin = rec.as_ref().map(|r| r.origin());
        let runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&self.streams)
                .map(|((client, session), batches)| {
                    let (start, session) = (&start, *session);
                    scope.spawn(move || {
                        Self::client_loop(
                            client,
                            session,
                            batches,
                            start,
                            origin.map(Recorder::new),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        // Clients gone first, or the server waits out its grace period
        // for their connections.
        drop(clients);
        shutdown.store(true, Ordering::Release);
        let drained = server.join().expect("server thread");

        let mut out = Outcome {
            requests: self.timed_ops(),
            ..Outcome::default()
        };
        let mut digest = Digest::new();
        let (mut polls, mut empty, mut busy, mut backoff) = (0u64, 0u64, 0u64, 0u64);
        let (mut submit_rtts, mut poll_rtts) = (Vec::new(), Vec::new());
        let first_start = runs
            .iter()
            .filter_map(|r| r.started)
            .min()
            .expect("clients ran");
        let last_end = runs
            .iter()
            .filter_map(|r| r.ended)
            .max()
            .expect("clients ran");
        let mut rec = rec;
        for run in runs {
            digest_responses(run.responses.iter(), &mut digest);
            out.latency_sum += run.responses.iter().map(|r| r.latency).sum::<u64>();
            out.latency_count += run.responses.len() as u64;
            out.cycles += run.cycles;
            out.failed += run.failed;
            out.batch_rtt_ns.extend(run.batch_rtt_ns);
            submit_rtts.extend(run.submit_rtt_ns);
            poll_rtts.extend(run.poll_rtt_ns);
            polls += run.polls;
            empty += run.empty_polls;
            busy += run.busy_retries;
            backoff += run.backoff_ms;
            if let (Some(rec), Some(theirs)) = (rec.as_deref_mut(), run.rec) {
                rec.absorb(theirs);
            }
        }
        out.failed += out.requests.abs_diff(out.latency_count);
        if drained != DrainOutcome::Drained {
            out.failed += 1;
        }
        digest.u64(out.cycles);
        out.digest = digest.finish();
        out.timed_ns = Some((last_end - first_start).as_nanos() as u64);
        submit_rtts.sort_unstable();
        poll_rtts.sort_unstable();
        let batches = out.batch_rtt_ns.len().max(1) as f64;
        out.counts = vec![
            ("serve.open_session_ms", open_session_ms),
            (
                "serve.submit_rtt_us_p50",
                percentile_sorted(&submit_rtts, 50.0) as f64 / 1e3,
            ),
            (
                "serve.poll_rtt_us_p50",
                percentile_sorted(&poll_rtts, 50.0) as f64 / 1e3,
            ),
            ("serve.polls_per_batch", polls as f64 / batches),
            (
                "serve.empty_poll_share",
                100.0 * empty as f64 / polls.max(1) as f64,
            ),
            ("serve.busy_retries", busy as f64),
            ("serve.backoff_ms", backoff as f64),
        ];
        out
    }

    fn verify(&self, reference: &Outcome, _traced: Option<&Outcome>) -> Vec<String> {
        // Zero lost, duplicated or altered responses: what came over the
        // socket must be bit-identical, in order, to the same batches
        // pumped through a session in-process.
        let mut digest = Digest::new();
        let mut cycles = 0;
        for client in 0..self.streams.len() {
            let (responses, c, _) = self.session_reference(client);
            digest_responses(responses.iter(), &mut digest);
            cycles += c;
        }
        digest.u64(cycles);
        if (digest.finish(), cycles) != (reference.digest, reference.cycles) {
            return vec![format!(
                "served responses differ from the in-process session reference \
                 ({} cycles served, {cycles} in process)",
                reference.cycles
            )];
        }
        Vec::new()
    }

    fn layer_metrics(&self, run: &TracedRun<'_>, out: &mut Layers) {
        // Counts and client-observed latencies come from the untraced
        // baseline reps; only the span attribution needs the traced rep.
        let mut rtts: Vec<u64> = run
            .baseline
            .iter()
            .flat_map(|o| o.batch_rtt_ns.iter().copied())
            .collect();
        rtts.sort_unstable();
        for (name, p) in [
            ("serve.batch_rtt_ms_p50", 50.0),
            ("serve.batch_rtt_ms_p95", 95.0),
            ("serve.batch_rtt_ms_p99", 99.0),
        ] {
            out.set(name, percentile_sorted(&rtts, p) as f64 / 1e6);
        }
        for (name, value) in &run.baseline[0].counts {
            out.set(name, *value);
        }
        out.set(
            "bench.span_coverage_pct",
            100.0 * run.total_ns("batch") / (run.traced_wall_ns * self.streams.len() as f64),
        );

        out.set("serve.manager_handle_ns_per_op", self.manager_ns_per_op());
        out.set("serve.session_pump_ns_per_op", self.session_reference(0).2);
        out.set("serve.inproc_run_ns_per_op", self.inproc_ns_per_op());

        let cfg = DeviceConfig::by_name(PRESET).expect("preset exists");
        out.set("core.sim_new_ms", replay::sim_new_ms(&cfg));
        let mut stream = hmc_workloads::Replay::new(self.ops[0].clone());
        let (ops, _) = replay::pull_ops(&mut stream);
        let mut gen = RandomAccess::new(1, WORKING_SET, BlockSize::B64, 50, ops.len() as u64);
        out.set("workloads.next_op_ns_per_req", replay::pull_ops(&mut gen).1);
        replay::types_layer(&ops, &cfg, out);
        replay::mem_layer(&ops, &cfg, out);
    }
}
