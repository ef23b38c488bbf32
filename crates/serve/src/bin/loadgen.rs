//! `loadgen` — concurrent load generator for `hmc-serve`.
//!
//! `loadgen --help` prints the synopsis (`USAGE` below) and the shared
//! simulation-axis flags (`SimParams::USAGE`). The ones a device config
//! carries — timing
//! backend, fabric, arbitration, and the cell- and link-fault blocks —
//! ride to the server in each session's `DeviceConfig` JSON; the
//! engine-side ones are `hmc-serve`'s to set and are refused here.
//!
//! Each session runs on its own thread with its own connection: open a
//! session, submit the workload in batches (BUSY backpressure is polled
//! through, never buffered client-side), poll responses until every
//! expected one arrived, verify zero lost or duplicated tags, snapshot
//! stats, close. The report carries per-session and aggregate simulated
//! throughput plus p50/p95/p99 response latency, as JSON on stdout or to
//! `--json FILE`.
//!
//! `--idle-gap` switches the stream to open-loop arrivals: after every
//! `--idle-every` memory operations an idle-gap op (`WireOp::idle`) is
//! interleaved, telling the session's device to run that many cycles
//! with no injection — a client that thinks between bursts rather than
//! saturating the queue. Against a server in `--fast-forward` mode the
//! dead cycles are jumped instead of stepped, so the same open-loop run
//! finishes in a fraction of the wall time with identical responses;
//! the report's `wall_seconds`/`sim_cycles` pair is the before/after
//! evidence.
//!
//! `--workload hotspot` concentrates `--hot-pct` percent of each
//! session's requests on the vaults of quad `--hot-quad` (via the
//! preset's address geometry). Combined with `--interconnect ring|mesh`,
//! cross-quad hops and arbitration pressure show up directly in the
//! latency percentiles.
//!
//! `--workload hammer` runs the geometry-aware double-sided RowHammer
//! stream against one bank of each session's device. Passing any
//! cell-fault flag (`--hammer-threshold`, `--flip-prob`, `--retention`,
//! `--mitigation`) arms injection server-side, and the closing stats
//! frame reports the device's activation/bit-flip/TRR/retention
//! counters, which the report aggregates — an adversarial end-to-end
//! corruption probe.
//!
//! The link-fault flags arm the link-retry protocol the same way:
//! transmission corruption rides into each session's device,
//! retry-exhausted requests come back as
//! poisoned error responses (counted under `errors` and
//! `poisoned_responses`), and the report carries the per-session
//! retry/retrain/poison counters. BUSY backpressure is absorbed with a
//! bounded exponential backoff (`--retry-attempts`, `--retry-base-ms`;
//! jittered per session) and the report counts every retry and the
//! milliseconds spent backing off.

use std::path::PathBuf;
use std::time::Instant;

use hmc_core::{Args, SimParams};
use hmc_serve::{busy_reason_label, workload_to_wire, Client, RetryPolicy, SubmitResult};
use hmc_trace::{percentile_sorted, LatencyPercentiles};
use hmc_types::{BlockSize, DeviceConfig, WireOp};
use hmc_workloads::WorkloadSpec;
use serde::Serialize;

const USAGE: &str = "\
usage: loadgen (--socket PATH | --connect ADDR) [--sessions N] [--requests N]
               [--workload random|stream|gups|chase|stencil|hotspot|hammer]
               [--preset 4l8b|4l16b|8l8b|8l16b|small] [--seed S] [--read-pct P]
               [--block BYTES] [--batch N] [--poll-max N]
               [--idle-gap CYCLES (0 = closed-loop)] [--idle-every OPS]
               [--hot-quad Q] [--hot-pct P] [--retry-attempts N]
               [--retry-base-ms MS] [--json FILE] [simulation axes]";

struct Options {
    socket: Option<PathBuf>,
    connect: Option<String>,
    sessions: usize,
    requests: u64,
    workload: String,
    /// The preset with the command line's device axes stamped on.
    config: DeviceConfig,
    preset: String,
    seed: u32,
    read_pct: u8,
    block: usize,
    batch: usize,
    poll_max: u32,
    idle_gap: u64,
    idle_every: u64,
    hot_quad: u8,
    hot_pct: u8,
    params: SimParams,
    retry_attempts: u32,
    retry_base_ms: u64,
    json: Option<PathBuf>,
}

fn parse_options() -> Options {
    let mut o = Options {
        socket: None,
        connect: None,
        sessions: 4,
        requests: 20_000,
        workload: "random".into(),
        config: DeviceConfig::small(),
        preset: "small".into(),
        seed: 1,
        read_pct: 50,
        block: 64,
        batch: 1024,
        poll_max: 512,
        idle_gap: 0,
        idle_every: 32,
        hot_quad: 0,
        hot_pct: hmc_workloads::DEFAULT_HOT_PCT,
        params: SimParams::default(),
        retry_attempts: RetryPolicy::default().max_attempts,
        retry_base_ms: RetryPolicy::default().base_delay_ms,
        json: None,
    };
    let mut args = Args::from_env("loadgen", USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--socket" => o.socket = Some(args.value(&flag)),
            "--connect" => o.connect = Some(args.value(&flag)),
            "--sessions" => o.sessions = args.value(&flag),
            "--requests" => o.requests = args.value(&flag),
            "--workload" => o.workload = args.value(&flag),
            "--preset" => o.preset = args.value(&flag),
            "--seed" => o.seed = args.value(&flag),
            "--read-pct" => o.read_pct = args.value(&flag),
            "--block" => o.block = args.value(&flag),
            "--batch" => o.batch = args.value(&flag),
            "--poll-max" => o.poll_max = args.value(&flag),
            "--idle-gap" => o.idle_gap = args.value(&flag),
            "--idle-every" => o.idle_every = args.value(&flag),
            "--hot-quad" => o.hot_quad = args.value(&flag),
            "--hot-pct" => o.hot_pct = args.value(&flag),
            "--json" => o.json = Some(args.value(&flag)),
            "--retry-attempts" => o.retry_attempts = args.value(&flag),
            "--retry-base-ms" => o.retry_base_ms = args.value(&flag),
            _ => args.axis(&flag),
        }
    }
    if o.socket.is_none() && o.connect.is_none() {
        args.die("need --socket or --connect");
    }
    if o.sessions == 0 || o.batch == 0 {
        args.die("--sessions and --batch must be nonzero");
    }
    if o.idle_gap > 0 && o.idle_every == 0 {
        args.die("--idle-every must be nonzero with --idle-gap");
    }
    o.params = args.params_over(SimParams::default());
    let p = &o.params;
    o.config = DeviceConfig::by_name(&o.preset)
        .unwrap_or_else(|| args.die(format_args!("unknown preset {:?}", o.preset)))
        .with_timing(p.timing.kind)
        .with_interconnect(p.interconnect.kind)
        .with_arbitration(p.interconnect.arbitration)
        .with_cell_faults(p.cell_faults)
        .with_link_faults(p.link_faults);
    // Only what the session config carries reaches the server.
    if SimParams::default().with_device_axes(&o.config) != o.params {
        args.die(
            "--fast-forward/--check/--serialize-flits/--stall-queue are \
             server-side; pass them to hmc-serve",
        );
    }
    o
}

/// One session's results, a plain row for the JSON report.
#[derive(Debug, Clone, Serialize)]
struct SessionReport {
    session: u64,
    requests: u64,
    responses: u64,
    idle_gaps: u64,
    sim_cycles: u64,
    sim_throughput: f64,
    p50_latency: u64,
    p95_latency: u64,
    p99_latency: u64,
    max_latency: u64,
    send_stalls: u64,
    tag_stalls: u64,
    token_stalls: u64,
    busy_rejections: u64,
    backoff_ms: u64,
    errors: u64,
    link_retries: u64,
    link_retrains: u64,
    poisoned_responses: u64,
    hammer_activations: u64,
    bit_flips: u64,
    trr_refreshes: u64,
    retention_decays: u64,
}

/// The whole run, aggregate + per-session rows.
#[derive(Debug, Clone, Serialize)]
struct LoadgenReport {
    sessions: u64,
    workload: String,
    preset: String,
    interconnect: String,
    arbitration: String,
    requests_per_session: u64,
    idle_gap_cycles: u64,
    idle_every_ops: u64,
    total_requests: u64,
    total_responses: u64,
    total_sim_cycles: u64,
    wall_seconds: f64,
    ops_per_second: f64,
    aggregate_p50_latency: u64,
    aggregate_p95_latency: u64,
    aggregate_p99_latency: u64,
    lost_tags: u64,
    duplicated_tags: u64,
    total_hammer_activations: u64,
    total_bit_flips: u64,
    total_trr_refreshes: u64,
    total_retention_decays: u64,
    total_busy_retries: u64,
    total_backoff_ms: u64,
    total_link_retries: u64,
    total_link_retrains: u64,
    total_poisoned_responses: u64,
    per_session: Vec<SessionReport>,
}

struct SessionOutcome {
    report: SessionReport,
    latencies: Vec<u64>,
    lost: u64,
    duplicated: u64,
}

fn drive_session(o: &Options, index: usize) -> Result<SessionOutcome, String> {
    let mut client = match (&o.socket, &o.connect) {
        (Some(path), _) => Client::connect_uds(path),
        (_, Some(addr)) => Client::connect_tcp(addr),
        _ => unreachable!("validated in parse_options"),
    }
    .map_err(|e| format!("session {index}: {e}"))?;

    // Non-default axes ride in on the preset's config JSON, so the
    // server builds the session's device with them enabled.
    let session = if o.params == SimParams::default() {
        client.open_session_preset(&o.preset, 0, 0)
    } else {
        let json = serde_json::to_string(&o.config)
            .map_err(|e| format!("session {index}: config json: {e}"))?;
        client.open_session_json(&json, 0, 0)
    }
    .map_err(|e| format!("session {index}: open: {e}"))?;

    // Distinct seeds per session: concurrent identical streams would
    // still be valid, but distinct ones exercise the device mix better.
    let capacity = o.config.capacity_bytes;
    let block = BlockSize::from_bytes(o.block).map_err(|e| format!("--block: {e}"))?;
    let spec = WorkloadSpec::new(
        &o.workload,
        o.seed.wrapping_add(index as u32),
        capacity.min(2 << 30),
        o.requests,
    )
    .with_block(block)
    .with_read_pct(o.read_pct)
    .with_hotspot(o.hot_quad, o.hot_pct)
    // Quad-aware generators need the preset's address geometry.
    .with_geometry(o.config.geometry());
    let mut workload = spec.build().map_err(|e| e.to_string())?;
    let mut ops = workload_to_wire(workload.as_mut());
    let mut idle_gaps = 0u64;
    if o.idle_gap > 0 {
        // Open-loop arrivals: a think-time gap after every idle_every
        // memory ops. The gap is part of the submitted stream, so the
        // server runs the identical schedule whether it steps or jumps.
        let mut spaced = Vec::with_capacity(ops.len() + ops.len() / o.idle_every as usize + 1);
        for (i, op) in ops.iter().enumerate() {
            spaced.push(*op);
            if (i as u64 + 1).is_multiple_of(o.idle_every) {
                spaced.push(WireOp::idle(o.idle_gap));
                idle_gaps += 1;
            }
        }
        ops = spaced;
    }
    let expected: u64 = ops
        .iter()
        .filter(|op| {
            op.kind != WireOp::KIND_POSTED_WRITE && op.kind != WireOp::KIND_IDLE
        })
        .count() as u64;

    let mut received = 0u64;
    let mut latencies: Vec<u64> = Vec::with_capacity(expected as usize);
    // Bounded BUSY handling: exponential backoff with per-session jitter,
    // attempts reset on any admission. Polling between attempts keeps the
    // response buffer draining, so backpressure can actually clear.
    let policy = RetryPolicy::default()
        .with_max_attempts(o.retry_attempts)
        .with_base_delay_ms(o.retry_base_ms)
        .with_jitter_seed(index as u64 + 1);
    let mut jitter = policy.jitter_seed;
    let mut consecutive_busy = 0u32;
    let mut busy_rejections = 0u64;
    let mut backoff_ms = 0u64;
    let mut pending_backoff: Option<u64> = None;
    let mut errors = 0u64;
    // Tag-conservation accounting: the server owns tag assignment, but a
    // client can still detect duplication (more responses than requests
    // in any window of 512, the tag space) via per-tag balance.
    let mut tag_seen = vec![0i64; 512];
    let mut duplicated = 0u64;

    let mut rest: &[WireOp] = &ops;
    while !rest.is_empty() || received < expected {
        if !rest.is_empty() {
            let take = rest.len().min(o.batch);
            match client
                .submit(session, &rest[..take])
                .map_err(|e| format!("session {index}: submit: {e}"))?
            {
                SubmitResult::Accepted { accepted, .. } => {
                    rest = &rest[accepted as usize..];
                    consecutive_busy = 0;
                }
                SubmitResult::Busy {
                    reason,
                    retry_hint_ms,
                } => {
                    if consecutive_busy >= policy.max_attempts {
                        return Err(format!(
                            "session {index}: still BUSY ({}) after {} consecutive \
                             submit attempts",
                            busy_reason_label(reason),
                            consecutive_busy
                        ));
                    }
                    let delay = policy.backoff_delay(consecutive_busy, retry_hint_ms, &mut jitter);
                    consecutive_busy += 1;
                    busy_rejections += 1;
                    backoff_ms += delay;
                    pending_backoff = Some(delay);
                }
            }
        }
        let poll = client
            .poll(session, o.poll_max)
            .map_err(|e| format!("session {index}: poll: {e}"))?;
        for r in &poll.items {
            received += 1;
            latencies.push(r.latency);
            if !r.ok {
                errors += 1;
            }
            let slot = &mut tag_seen[(r.tag as usize) % 512];
            *slot += 1;
            // More responses for one tag than total batches could ever
            // re-issue it means duplication; flag gross violations.
            if *slot > (o.requests as i64) {
                duplicated += 1;
            }
        }
        if let Some(delay) = pending_backoff.take() {
            // The poll above already drained what it could; sleep out the
            // backoff period before the next submission attempt.
            std::thread::sleep(std::time::Duration::from_millis(delay));
        } else if poll.items.is_empty() && !rest.is_empty() {
            // Backpressured and nothing to read yet: brief breather.
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    let stats = client
        .stats(session)
        .map_err(|e| format!("session {index}: stats: {e}"))?;
    let lost = expected.saturating_sub(received) + stats.orphans;
    let final_stats = client
        .close(session)
        .map_err(|e| format!("session {index}: close: {e}"))?;
    if final_stats.outstanding != 0 {
        return Err(format!(
            "session {index}: closed with {} outstanding",
            final_stats.outstanding
        ));
    }

    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    let report = SessionReport {
        session,
        requests: ops.iter().filter(|op| op.kind != WireOp::KIND_IDLE).count() as u64,
        responses: received,
        idle_gaps,
        sim_cycles: final_stats.cycles,
        sim_throughput: if final_stats.cycles > 0 {
            final_stats.injected as f64 / final_stats.cycles as f64
        } else {
            0.0
        },
        p50_latency: percentile_sorted(&sorted, 50.0),
        p95_latency: percentile_sorted(&sorted, 95.0),
        p99_latency: percentile_sorted(&sorted, 99.0),
        max_latency: final_stats.max_latency,
        send_stalls: final_stats.send_stalls,
        tag_stalls: final_stats.tag_stalls,
        token_stalls: final_stats.token_stalls,
        busy_rejections,
        backoff_ms,
        errors,
        link_retries: final_stats.link_retries,
        link_retrains: final_stats.link_retrains,
        poisoned_responses: final_stats.poisoned_responses,
        hammer_activations: final_stats.hammer_activations,
        bit_flips: final_stats.bit_flips,
        trr_refreshes: final_stats.trr_refreshes,
        retention_decays: final_stats.retention_decays,
    };
    Ok(SessionOutcome {
        report,
        latencies,
        lost,
        duplicated,
    })
}

fn main() {
    let o = parse_options();
    let started = Instant::now();

    let outcomes: Vec<Result<SessionOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..o.sessions)
            .map(|i| {
                let o = &o;
                scope.spawn(move || drive_session(o, i))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panics")).collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64();

    let mut failed = false;
    let mut sessions = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(s) => sessions.push(s),
            Err(e) => {
                eprintln!("loadgen: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }

    let mut all_latencies = Vec::new();
    for s in &sessions {
        all_latencies.extend_from_slice(&s.latencies);
    }
    let agg = LatencyPercentiles::from_samples(&mut all_latencies);
    let total_requests: u64 = sessions.iter().map(|s| s.report.requests).sum();
    let total_responses: u64 = sessions.iter().map(|s| s.report.responses).sum();
    let lost_tags: u64 = sessions.iter().map(|s| s.lost).sum();
    let duplicated_tags: u64 = sessions.iter().map(|s| s.duplicated).sum();

    let total_sim_cycles: u64 = sessions.iter().map(|s| s.report.sim_cycles).sum();
    let report = LoadgenReport {
        sessions: o.sessions as u64,
        workload: o.workload.clone(),
        preset: o.preset.clone(),
        interconnect: o.params.interconnect.kind.name().into(),
        arbitration: o.params.interconnect.arbitration.name().into(),
        requests_per_session: o.requests,
        idle_gap_cycles: o.idle_gap,
        idle_every_ops: o.idle_every,
        total_requests,
        total_responses,
        total_sim_cycles,
        wall_seconds,
        ops_per_second: if wall_seconds > 0.0 {
            total_requests as f64 / wall_seconds
        } else {
            0.0
        },
        aggregate_p50_latency: agg.p50,
        aggregate_p95_latency: agg.p95,
        aggregate_p99_latency: agg.p99,
        lost_tags,
        duplicated_tags,
        total_hammer_activations: sessions.iter().map(|s| s.report.hammer_activations).sum(),
        total_bit_flips: sessions.iter().map(|s| s.report.bit_flips).sum(),
        total_trr_refreshes: sessions.iter().map(|s| s.report.trr_refreshes).sum(),
        total_retention_decays: sessions.iter().map(|s| s.report.retention_decays).sum(),
        total_busy_retries: sessions.iter().map(|s| s.report.busy_rejections).sum(),
        total_backoff_ms: sessions.iter().map(|s| s.report.backoff_ms).sum(),
        total_link_retries: sessions.iter().map(|s| s.report.link_retries).sum(),
        total_link_retrains: sessions.iter().map(|s| s.report.link_retrains).sum(),
        total_poisoned_responses: sessions.iter().map(|s| s.report.poisoned_responses).sum(),
        per_session: sessions.iter().map(|s| s.report.clone()).collect(),
    };

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    match &o.json {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("loadgen: {}: {e}", path.display());
                std::process::exit(1);
            });
            eprintln!("loadgen: report written to {}", path.display());
        }
        None => println!("{json}"),
    }
    eprintln!(
        "loadgen: {} sessions x {} requests in {:.2}s ({:.0} ops/s), \
         p50/p95/p99 = {}/{}/{} cycles, {} lost, {} duplicated",
        o.sessions,
        o.requests,
        wall_seconds,
        report.ops_per_second,
        agg.p50,
        agg.p95,
        agg.p99,
        lost_tags,
        duplicated_tags
    );
    if report.total_busy_retries > 0 {
        eprintln!(
            "loadgen: backpressure: {} BUSY retries absorbed, {} ms backing off",
            report.total_busy_retries, report.total_backoff_ms
        );
    }
    if o.params.link_faults.is_some() {
        eprintln!(
            "loadgen: link faults: {} retries, {} retrains, {} poisoned responses",
            report.total_link_retries,
            report.total_link_retrains,
            report.total_poisoned_responses
        );
    }
    if o.params.cell_faults.is_some() {
        eprintln!(
            "loadgen: cell faults: {} activations, {} bit flips, {} TRR refreshes, \
             {} retention decays",
            report.total_hammer_activations,
            report.total_bit_flips,
            report.total_trr_refreshes,
            report.total_retention_decays
        );
    }
    if lost_tags > 0 || duplicated_tags > 0 {
        eprintln!("loadgen: TAG CONSERVATION VIOLATED");
        std::process::exit(1);
    }
}
