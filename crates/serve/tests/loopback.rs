//! End-to-end loopback tests for the serving stack.
//!
//! The load-bearing one is the differential check: a fixed workload run
//! through a real `hmc-serve` server over a Unix-domain socket must
//! produce responses bit-identical (tag, data, ordering, latency) to the
//! in-process `hmc_host` driver on the same seed and preset. The rest
//! cover the concurrency and backpressure contract: concurrent sessions
//! with zero lost or duplicated tags, typed BUSY on full queues, the
//! admission cap, idle reaping, and the graceful drain.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use hmc_core::{topology, HmcSim};
use hmc_host::{run_workload_captured, Host, RunConfig};
use hmc_serve::{
    workload_to_wire, Client, DrainOutcome, Server, ServerConfig, SessionManager, SubmitResult,
};
use hmc_types::{BusyReason, DeviceConfig, Frame, WireErrorCode, WireOp, WireResponse};
use hmc_workloads::WorkloadSpec;

fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hmc-serve-test-{}-{name}.sock", std::process::id()))
}

fn start_server(name: &str, cfg: ServerConfig) -> (PathBuf, Server) {
    let path = socket_path(name);
    let mut server = Server::new(cfg);
    server.bind_uds(&path).unwrap();
    (path, server)
}

/// Poll a session dry: collect responses until the server reports the
/// session idle with nothing outstanding and nothing left buffered.
fn poll_until_idle(client: &mut Client, session: u64, deadline: Duration) -> Vec<WireResponse> {
    let mut items = Vec::new();
    let until = Instant::now() + deadline;
    loop {
        let poll = client.poll(session, 0).unwrap();
        let empty = poll.items.is_empty();
        items.extend(poll.items);
        if poll.idle && poll.outstanding == 0 && empty {
            return items;
        }
        assert!(Instant::now() < until, "session never went idle");
        if empty {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[test]
fn served_responses_are_bit_identical_to_the_in_process_driver() {
    let cfg = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let (path, server) = start_server("differential", cfg);
    let flag = server.shutdown_flag();
    let run = std::thread::spawn(move || server.run(Duration::from_secs(30)));
    let mut client = Client::connect_uds(&path).unwrap();

    // The second input keeps more than 512 requests in flight on the
    // paper's 4-link device, so the host runs out of tags and retries a
    // held op: the served run must take that retry exactly as the driver.
    for (preset, tag_stalls) in [("small", false), ("4l8b", true)] {
        let config = DeviceConfig::by_name(preset).unwrap();
        let spec = WorkloadSpec::new("random", 42, 1 << 24, 2_000);

        // In-process reference: the session pump's construction mirrors
        // this exactly (one device, simple topology, host on cube 0).
        let mut sim = HmcSim::new(1, config).unwrap();
        let host_id = sim.host_cube_id(0);
        topology::build_simple(&mut sim, host_id).unwrap();
        let mut host = Host::attach(&sim, host_id).unwrap();
        let mut reference_workload = spec.clone().build().unwrap();
        let (report, captured) = run_workload_captured(
            &mut sim,
            &mut host,
            reference_workload.as_mut(),
            RunConfig::default(),
        )
        .unwrap();
        assert_eq!(report.completed, 2_000, "{preset}: every op answered");
        assert_eq!(host.stats.tag_stalls > 0, tag_stalls, "{preset}");

        // Served run: same spec, fresh workload, one batch so the
        // inflight queue never runs dry mid-run (the determinism
        // precondition).
        let mut served_workload = spec.build().unwrap();
        let ops = workload_to_wire(served_workload.as_mut());
        let session = client
            .open_session_preset(preset, ops.len() as u32, 0)
            .unwrap();
        match client.submit(session, &ops).unwrap() {
            SubmitResult::Accepted { accepted, .. } => {
                assert_eq!(accepted as usize, ops.len(), "batch must admit whole");
            }
            SubmitResult::Busy { .. } => panic!("fresh session rejected its first batch"),
        }
        let served = poll_until_idle(&mut client, session, Duration::from_secs(30));
        let final_stats = client.close(session).unwrap();

        assert_eq!(
            served.len(),
            captured.len(),
            "{preset}: served and in-process runs completed different response counts"
        );
        for (i, (wire, reference)) in served.iter().zip(captured.iter()).enumerate() {
            assert_eq!(
                wire.tag, reference.info.tag,
                "{preset}: tag diverged at response {i}"
            );
            assert_eq!(
                wire.data, reference.info.data,
                "{preset}: data diverged at response {i} (tag {})",
                wire.tag
            );
            assert_eq!(
                wire.latency, reference.latency,
                "{preset}: latency diverged at response {i} (tag {})",
                wire.tag
            );
            assert_eq!(
                wire.ok,
                reference.info.is_ok(),
                "{preset}: status diverged at {i}"
            );
        }
        assert_eq!(final_stats.completed, report.completed);
        assert_eq!(final_stats.injected, report.injected);
        assert_eq!(final_stats.tag_stalls, host.stats.tag_stalls);
        assert_eq!(final_stats.orphans, 0);
    }

    flag.store(true, Ordering::Release);
    assert_eq!(run.join().unwrap(), DrainOutcome::Drained);
}

#[test]
fn eight_concurrent_sessions_lose_and_duplicate_nothing() {
    let (path, server) = start_server("concurrent", ServerConfig::default());
    let flag = server.shutdown_flag();
    let run = std::thread::spawn(move || server.run(Duration::from_secs(30)));

    const SESSIONS: usize = 8;
    const REQUESTS: u64 = 400;
    let results: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let path = path.clone();
                scope.spawn(move || {
                    let mut client = Client::connect_uds(&path).unwrap();
                    let mut workload =
                        WorkloadSpec::new("random", 100 + i as u32, 1 << 24, REQUESTS)
                            .build()
                            .unwrap();
                    let ops = workload_to_wire(workload.as_mut());
                    let expected = ops
                        .iter()
                        .filter(|op| op.kind != WireOp::KIND_POSTED_WRITE)
                        .count() as u64;
                    // Default response limit: this test submits everything
                    // before polling, so the buffer must hold the whole run
                    // (a tight bound here would deadlock submit_all by
                    // design — that contract is covered separately).
                    let session = client.open_session_preset("small", 128, 0).unwrap();
                    for chunk in ops.chunks(64) {
                        client.submit_all(session, chunk).unwrap();
                    }
                    let served =
                        poll_until_idle(&mut client, session, Duration::from_secs(30));
                    let stats = client.close(session).unwrap();
                    assert_eq!(stats.outstanding, 0);
                    assert_eq!(stats.orphans, 0);
                    (expected, served.len() as u64, stats.completed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (expected, received, completed)) in results.iter().enumerate() {
        assert_eq!(
            received, expected,
            "session {i} lost or duplicated responses"
        );
        assert_eq!(completed, expected, "session {i} device count mismatch");
    }

    flag.store(true, Ordering::Release);
    assert_eq!(run.join().unwrap(), DrainOutcome::Drained);
}

#[test]
fn a_full_inflight_queue_answers_busy() {
    let cfg = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let (mgr, _workers) = SessionManager::start(cfg);
    // A one-deep response buffer pauses the pump almost immediately, so
    // the four-slot inflight queue stays full and BUSY must surface.
    let Frame::SessionOpened { session } = mgr.open_session("small", "", 4, 1) else {
        panic!("open failed");
    };
    let ops: Vec<WireOp> = (0..4)
        .map(|i| WireOp {
            kind: WireOp::KIND_READ,
            addr: i * 64,
            size_bytes: 64,
        })
        .collect();

    let mut saw_busy = false;
    for _ in 0..10_000 {
        match mgr.submit(session, &ops) {
            Frame::BatchAccepted { .. } => {}
            Frame::Busy {
                reason,
                retry_hint_ms,
            } => {
                assert_eq!(BusyReason::from_u8(reason), Some(BusyReason::InflightFull));
                assert!(retry_hint_ms > 0, "BUSY must carry a retry hint");
                saw_busy = true;
                break;
            }
            other => panic!("unexpected reply {other:?}"),
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(saw_busy, "a bounded queue under load never said BUSY");
    mgr.stop_workers();
}

#[test]
fn the_admission_cap_returns_busy_sessions_full() {
    let cfg = ServerConfig {
        max_sessions: 2,
        threads: 1,
        ..ServerConfig::default()
    };
    let (mgr, _workers) = SessionManager::start(cfg);
    let Frame::SessionOpened { session: first } = mgr.open_session("small", "", 0, 0) else {
        panic!("first open failed");
    };
    assert!(matches!(
        mgr.open_session("small", "", 0, 0),
        Frame::SessionOpened { .. }
    ));
    match mgr.open_session("small", "", 0, 0) {
        Frame::Busy { reason, .. } => {
            assert_eq!(BusyReason::from_u8(reason), Some(BusyReason::SessionsFull));
        }
        other => panic!("expected BUSY at the cap, got {other:?}"),
    }
    // Closing one frees the slot.
    assert!(matches!(mgr.close(first), Frame::Closed(_)));
    assert!(matches!(
        mgr.open_session("small", "", 0, 0),
        Frame::SessionOpened { .. }
    ));
    mgr.stop_workers();
}

#[test]
fn a_config_sized_to_exhaust_memory_is_refused_and_the_manager_keeps_serving() {
    let (mgr, _workers) = SessionManager::start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    // Before `DeviceConfig::validate` bounded the queue depths this
    // reached `VecDeque::with_capacity` and aborted the whole process
    // ("memory allocation of 70368744177664 bytes failed").
    let mut hostile = DeviceConfig::small();
    hostile.xbar_depth = 1 << 40;
    let json = serde_json::to_string(&hostile).unwrap();
    match mgr.open_session("", &json, 0, 0) {
        Frame::Error { code, message } => {
            assert_eq!(code, WireErrorCode::BadConfig as u8);
            assert!(message.contains("xbar_depth"), "names the field: {message}");
        }
        other => panic!("expected BadConfig, got {other:?}"),
    }
    assert_eq!(mgr.active_sessions(), 0);

    let Frame::SessionOpened { session } = mgr.open_session("small", "", 0, 0) else {
        panic!("an ordinary session must still open");
    };
    let ops: Vec<WireOp> = (0..16)
        .map(|i| WireOp {
            kind: WireOp::KIND_READ,
            addr: i * 64,
            size_bytes: 64,
        })
        .collect();
    assert!(matches!(
        mgr.submit(session, &ops),
        Frame::BatchAccepted { .. }
    ));
    let mut served = 0;
    let until = Instant::now() + Duration::from_secs(30);
    while served < ops.len() {
        let Frame::Responses { items, .. } = mgr.poll(session, 0) else {
            panic!("poll failed");
        };
        assert!(items.iter().all(|r| r.ok));
        served += items.len();
        assert!(
            Instant::now() < until,
            "the ordinary session never answered"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    let Frame::Closed(stats) = mgr.close(session) else {
        panic!("close failed");
    };
    assert_eq!(stats.completed, ops.len() as u64);
    mgr.stop_workers();
}

#[test]
fn an_out_of_range_address_is_refused_and_the_session_keeps_serving() {
    let (mgr, _workers) = SessionManager::start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let Frame::SessionOpened { session } = mgr.open_session("small", "", 0, 0) else {
        panic!("open failed");
    };
    let read = |addr| WireOp {
        kind: WireOp::KIND_READ,
        addr,
        size_bytes: 64,
    };
    // Admitted, this read would fail the pump, and a failed pump drops
    // the session; refused at submit, it costs the client one batch.
    match mgr.submit(session, &[read(0), read(1 << 34)]) {
        Frame::Error { code, message } => {
            assert_eq!(code, WireErrorCode::BadFrame as u8);
            assert!(
                message.contains("0x400000000"),
                "names the address: {message}"
            );
        }
        other => panic!("expected the batch refused, got {other:?}"),
    }
    let ops: Vec<WireOp> = (0..16).map(|i| read(i * 64)).collect();
    assert!(matches!(
        mgr.submit(session, &ops),
        Frame::BatchAccepted { .. }
    ));
    let mut served = 0;
    let until = Instant::now() + Duration::from_secs(30);
    while served < ops.len() {
        let Frame::Responses { items, .. } = mgr.poll(session, 0) else {
            panic!("the session was dropped");
        };
        assert!(items.iter().all(|r| r.ok));
        served += items.len();
        assert!(Instant::now() < until, "the session never answered");
        std::thread::sleep(Duration::from_micros(200));
    }
    let Frame::Closed(stats) = mgr.close(session) else {
        panic!("close failed");
    };
    assert_eq!((stats.completed, stats.outstanding), (ops.len() as u64, 0));
    mgr.stop_workers();
}

#[test]
fn idle_sessions_are_reaped_and_busy_ones_spared() {
    let cfg = ServerConfig {
        threads: 1,
        idle_timeout: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    };
    let (mgr, _workers) = SessionManager::start(cfg);
    let Frame::SessionOpened { session: idle } = mgr.open_session("small", "", 0, 0) else {
        panic!("open failed");
    };
    // This one pauses with work still queued (one-deep response buffer),
    // so the reaper must spare it no matter how stale the client is.
    let Frame::SessionOpened { session: busy } = mgr.open_session("small", "", 64, 1) else {
        panic!("open failed");
    };
    let ops: Vec<WireOp> = (0..64)
        .map(|i| WireOp {
            kind: WireOp::KIND_READ,
            addr: i * 64,
            size_bytes: 64,
        })
        .collect();
    assert!(matches!(
        mgr.submit(busy, &ops),
        Frame::BatchAccepted { .. }
    ));

    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(mgr.reap_idle(), 1, "exactly the neglected-and-idle session");
    assert!(matches!(
        mgr.stats(idle),
        Frame::Error { code, .. } if code == WireErrorCode::UnknownSession as u8
    ));
    assert!(matches!(mgr.stats(busy), Frame::Stats(_)));
    mgr.stop_workers();
}

#[test]
fn a_draining_manager_refuses_new_sessions_and_work() {
    let (mgr, _workers) = SessionManager::start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let Frame::SessionOpened { session } = mgr.open_session("small", "", 0, 0) else {
        panic!("open failed");
    };
    mgr.begin_drain();
    assert!(matches!(
        mgr.open_session("small", "", 0, 0),
        Frame::Error { code, .. } if code == WireErrorCode::ShuttingDown as u8
    ));
    let op = WireOp {
        kind: WireOp::KIND_READ,
        addr: 0,
        size_bytes: 64,
    };
    assert!(matches!(
        mgr.submit(session, &[op]),
        Frame::Error { code, .. } if code == WireErrorCode::ShuttingDown as u8
    ));
    // Draining still lets clients collect what is theirs.
    assert!(matches!(mgr.poll(session, 0), Frame::Responses { .. }));
    assert!(mgr.wait_drained(Duration::from_secs(5)));
    mgr.stop_workers();
}

#[test]
fn the_shutdown_frame_triggers_a_clean_drain_with_work_buffered() {
    let (path, server) = start_server("drain", ServerConfig::default());
    let run = std::thread::spawn(move || server.run(Duration::from_secs(30)));

    let mut client = Client::connect_uds(&path).unwrap();
    let mut workload = WorkloadSpec::new("stream", 9, 1 << 22, 500).build().unwrap();
    let ops = workload_to_wire(workload.as_mut());
    let session = client.open_session_preset("small", 0, 0).unwrap();
    client.submit_all(session, &ops).unwrap();

    // Ask for shutdown while the batch is (potentially) still pumping:
    // the drain must finish the work, not abandon it.
    client.shutdown_server().unwrap();
    assert_eq!(run.join().unwrap(), DrainOutcome::Drained);
    assert!(!path.exists(), "socket file must be removed after the drain");
}

#[test]
fn degraded_link_sessions_deliver_poisoned_responses_as_error_frames() {
    use hmc_types::{LinkFaultConfig, ResponseStatus};

    let (path, server) = start_server("degraded", ServerConfig::default());
    let flag = server.shutdown_flag();
    let run = std::thread::spawn(move || server.run(Duration::from_secs(30)));

    // An aggressively lossy link with a tight retry cap: a solid
    // fraction of requests exhaust their retries server-side and must
    // come back as poisoned error frames — never silently succeed,
    // never vanish.
    let config = DeviceConfig::small().with_link_faults(Some(
        LinkFaultConfig::default()
            .with_error_rate_ppm(600_000)
            .with_retry_limit(1)
            .with_retry_cycles(4)
            .with_retrain_cycles(16)
            .with_seed(0xD06_F00D),
    ));
    let json = serde_json::to_string(&config).unwrap();

    let mut client = Client::connect_uds(&path).unwrap();
    let mut workload = WorkloadSpec::new("random", 7, 1 << 24, 400).build().unwrap();
    let ops = workload_to_wire(workload.as_mut());
    let expected = ops
        .iter()
        .filter(|op| op.kind != WireOp::KIND_POSTED_WRITE)
        .count() as u64;
    let session = client.open_session_json(&json, 0, 0).unwrap();
    for chunk in ops.chunks(64) {
        client.submit_all(session, chunk).unwrap();
    }
    let served = poll_until_idle(&mut client, session, Duration::from_secs(30));
    let stats = client.close(session).unwrap();

    assert_eq!(
        served.len() as u64,
        expected,
        "every non-posted op gets exactly one response, poisoned or clean"
    );
    let poisoned: Vec<&WireResponse> = served
        .iter()
        .filter(|r| r.status == ResponseStatus::LinkPoisoned.encode())
        .collect();
    assert!(
        !poisoned.is_empty(),
        "the lossy link must actually poison some responses"
    );
    for r in &poisoned {
        assert!(!r.ok, "poisoned responses are error frames, not successes");
        assert!(r.data.is_empty(), "poisoned frames carry no data");
    }
    assert_eq!(stats.poisoned_responses, poisoned.len() as u64);
    assert!(stats.errors >= stats.poisoned_responses);
    assert!(stats.link_retries > 0, "retries precede every exhaustion");
    assert!(stats.link_retrains > 0, "exhaustion takes the link down");
    assert_eq!(stats.orphans, 0, "poison never strands a tag");

    flag.store(true, Ordering::Release);
    assert_eq!(run.join().unwrap(), DrainOutcome::Drained);
}

#[test]
fn version_mismatch_is_rejected_at_hello() {
    use hmc_serve::{write_frame, FrameReader, ReadOutcome};
    use std::os::unix::net::UnixStream;

    let (path, server) = start_server("version", ServerConfig::default());
    let flag = server.shutdown_flag();
    let run = std::thread::spawn(move || server.run(Duration::from_secs(10)));

    let mut stream = UnixStream::connect(&path).unwrap();
    write_frame(&mut stream, &Frame::Hello { version: 999 }).unwrap();
    let mut reader = FrameReader::new();
    let reply = loop {
        match reader.poll(&mut stream).unwrap() {
            ReadOutcome::Frame(f) => break f,
            ReadOutcome::TimedOut => continue,
            ReadOutcome::Eof => panic!("server hung up without a reply"),
            ReadOutcome::Malformed(reason) => panic!("undecodable reply: {reason}"),
        }
    };
    assert!(matches!(
        reply,
        Frame::Error { code, .. } if code == WireErrorCode::VersionMismatch as u8
    ));

    flag.store(true, Ordering::Release);
    assert_eq!(run.join().unwrap(), DrainOutcome::Drained);
}
