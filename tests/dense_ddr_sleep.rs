//! Under the DDR backend a vault whose scan window holds nothing
//! issuable sleeps until its next bank or data-ready edge. This is the
//! traffic that lives in that state — the benchmark's `dense_ddr` shape:
//! the paper's random stream into 4l8b with the host's 512 tags
//! outstanding, so every vault queue stands about 32 deep behind eight
//! banks — driven three ways that must leave the same thing record for
//! record: one `clock()` per cycle, `clock_batch(n)`, and fast-forward.

use hmc_sim::hmc_core::{topology, HmcSim, SimParams, SimStats, TimingParams};
use hmc_sim::hmc_host::Host;
use hmc_sim::hmc_trace::{SharedSink, TraceRecord, Tracer, VecSink, Verbosity};
use hmc_sim::hmc_types::{BlockSize, DeviceConfig, StorageMode, TimingKind};
use hmc_sim::hmc_workloads::{RandomAccess, Workload};

const REQUESTS: u64 = 3_000;
/// Cycles between host visits: long enough for a vault to fall asleep
/// and be woken inside one batch.
const VISIT_EVERY: u64 = 5;

#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(tag, latency)` of every response, in drain order.
    responses: Vec<(u16, u64)>,
    clock: u64,
    stats: SimStats,
    trace: Vec<TraceRecord>,
}

/// Issue until the device pushes back, advance `VISIT_EVERY` cycles,
/// drain; repeat until the stream is answered.
fn run(params: SimParams, traced: bool, advance: fn(&mut HmcSim, u64)) -> Outcome {
    let cfg = DeviceConfig::paper_4link_8bank_2gb().with_storage_mode(StorageMode::TimingOnly);
    let mut sim = HmcSim::new(1, cfg).unwrap().with_params(SimParams {
        timing: TimingParams::of(TimingKind::Ddr),
        check_invariants: true,
        ..params
    });
    let host_id = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host_id).unwrap();
    let sink = SharedSink::new(VecSink::default());
    if traced {
        sim.set_tracer(Tracer::new(Verbosity::Full, Box::new(sink.clone())));
    }
    let mut host = Host::attach(&sim, host_id).unwrap();
    // The paper's stream (§VI.A), cut short: random 64 B blocks over
    // 2 GiB, half reads, half writes.
    let mut stream = RandomAccess::new(1, 2 << 30, BlockSize::B64, 50, REQUESTS);

    let mut responses = Vec::new();
    let mut next = stream.next_op();
    let mut deepest = 0;
    while next.is_some() || host.outstanding() > 0 {
        while let Some(op) = &next {
            if !host.try_issue(&mut sim, 0, op).unwrap() {
                break;
            }
            next = stream.next_op();
        }
        deepest = deepest.max(host.outstanding());
        advance(&mut sim, VISIT_EVERY);
        host.drain_with(&mut sim, |info, latency| {
            responses.push((info.tag, latency))
        })
        .unwrap();
        assert!(sim.current_clock() < 100_000, "the stream never drained");
    }
    assert_eq!(deepest, 512, "the shape keeps every tag outstanding");
    assert_eq!(sim.invariant_violations(), &[] as &[String]);
    let trace = std::mem::take(&mut sink.0.lock().records);
    Outcome {
        responses,
        clock: sim.current_clock(),
        stats: sim.stats(),
        trace,
    }
}

#[test]
fn per_cycle_batched_and_fast_forward_clocking_agree_record_for_record() {
    let per_cycle = |sim: &mut HmcSim, n: u64| (0..n).for_each(|_| sim.clock().unwrap());
    let batched = |sim: &mut HmcSim, n: u64| sim.clock_batch(n).unwrap();
    // Any tracer records `BankConflict`, which stage 3 re-reports every
    // cycle for a window of more than one entry — such a vault never
    // sleeps. So: untraced (vaults sleep most cycles; responses,
    // latencies and counters compared), traced at full verbosity (every
    // record compared), and traced with a one-entry window, where both
    // hold at once.
    for (traced, vault_window) in [(false, None), (true, None), (true, Some(1))] {
        let what = format!("traced {traced}, window {vault_window:?}");
        let stepped = SimParams {
            vault_window,
            ..SimParams::default()
        };
        let reference = run(stepped, traced, per_cycle);
        assert_eq!(reference.responses.len() as u64, REQUESTS, "{what}");
        assert_eq!(reference.trace.is_empty(), !traced, "{what}");
        assert!(
            reference.stats.row_misses > REQUESTS / 2,
            "{what}: random rows, nearly every request waits out a row cycle"
        );
        assert_eq!(reference, run(stepped, traced, batched), "{what}: batched");
        let fast = SimParams {
            fast_forward: true,
            ..stepped
        };
        let jumped = run(fast, traced, batched);
        assert_eq!(reference, jumped, "{what}: fast-forward");
    }
}
