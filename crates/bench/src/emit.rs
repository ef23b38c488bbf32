//! `BENCH_*.json` emitter: machine-readable engine-throughput records.
//!
//! Each record captures one measured run — workload shape, engine mode,
//! simulated cycles, wall time and the derived cycles/sec —
//! so CI can archive a trajectory of engine performance over time and
//! EXPERIMENTS.md tables can be regenerated from artifacts instead of
//! prose. Every record also stamps the host's logical CPU count so
//! trajectory comparisons can tell apart runs taken on differently
//! sized machines. Files are named
//! `BENCH_<workload>_<mode>_<timing>[_<fabric>]_t1.json` (the fabric
//! segment appears only for buffered ring/mesh runs, keeping crossbar
//! file names stable); the summary comparing stepped against
//! fast-forward for one workload under one timing backend is
//! `BENCH_summary_<workload>_<timing>[_<fabric>]_t1.json`. The `_t1`
//! suffix and every record's `"threads": 1` date from a thread axis the
//! engine no longer has; both are literals now, kept so the committed
//! `results/` trajectory and CI's artifact names stay comparable.
//!
//! The workload shapes mirror the engine's differential tests: rounds of
//! (send a burst of reads, batch-clock a gap, drain responses). `dense`
//! keeps the queues busy nearly every cycle, `bursty` alternates short
//! bursts with medium gaps, and `sparse` models an idle-heavy device
//! where almost every cycle is dead — the shape the event-driven
//! fast-forward mode exists for.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use hmc_core::{HmcSim, SimParams};
use hmc_types::{
    BlockSize, CellFaultConfig, Command, DeviceConfig, InterconnectKind, LinkId, Mitigation,
    Packet, StorageMode,
};
use hmc_workloads::{Hammer, Workload};
use serde::{Deserialize, Serialize};

/// Schema tag stamped into every emitted record.
pub const SCHEMA: &str = "hmc-bench/1";

/// The burst/gap shape of one measured workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadShape {
    /// Workload name, used in filenames and records.
    pub name: &'static str,
    /// Number of (burst, gap, drain) rounds.
    pub bursts: u64,
    /// Reads sent per burst, round-robin across the four host links.
    pub burst_len: u16,
    /// Cycles batch-clocked after each burst.
    pub gap: u64,
}

/// The three canonical shapes: dense, bursty and sparse.
pub const SHAPES: [WorkloadShape; 3] = [
    WorkloadShape {
        name: "dense",
        bursts: 400,
        burst_len: 24,
        gap: 32,
    },
    WorkloadShape {
        name: "bursty",
        bursts: 150,
        burst_len: 16,
        gap: 512,
    },
    WorkloadShape {
        name: "sparse",
        bursts: 40,
        burst_len: 4,
        gap: 20_000,
    },
];

/// Look up a canonical shape by name.
pub fn shape_by_name(name: &str) -> Option<WorkloadShape> {
    SHAPES.into_iter().find(|s| s.name == name)
}

/// One measured engine-throughput run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Record schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Workload shape name (`dense`, `bursty`, `sparse`).
    pub workload: String,
    /// Engine mode: `stepped` or `fast-forward`.
    pub mode: String,
    /// Vault timing backend: `classic` or `ddr` (defaults to empty on
    /// records written before the field existed).
    #[serde(default)]
    pub timing: String,
    /// Intra-cube interconnect fabric: `crossbar`, `ring` or `mesh`
    /// (defaults to empty on records written before the field existed).
    #[serde(default)]
    pub interconnect: String,
    /// Per-hop arbitration policy buffered fabrics used (empty on old
    /// records).
    #[serde(default)]
    pub arbitration: String,
    /// Always 1 (schema field from the former thread axis).
    pub threads: u64,
    /// Logical CPU count of the host that took the measurement
    /// (`std::thread::available_parallelism`); 0 on records written
    /// before the field existed or when the count is unavailable.
    /// Throughput numbers are only comparable across records taken on
    /// similarly-sized hosts.
    #[serde(default)]
    pub num_cpus: u64,
    /// Simulated clock cycles elapsed over the run.
    pub simulated_cycles: u64,
    /// Wall-clock time for the run, nanoseconds.
    pub wall_ns: u64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Requests injected.
    pub requests: u64,
    /// Responses drained.
    pub responses: u64,
    /// Seconds since the Unix epoch when the run finished.
    pub unix_time_secs: u64,
}

/// Stepped-vs-fast-forward comparison for one workload shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSummary {
    /// Record schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Workload shape name.
    pub workload: String,
    /// Vault timing backend both runs used (`classic` or `ddr`).
    #[serde(default)]
    pub timing: String,
    /// Intra-cube interconnect fabric both runs used (empty on old
    /// records).
    #[serde(default)]
    pub interconnect: String,
    /// Always 1 (schema field from the former thread axis).
    pub threads: u64,
    /// Stepped-mode simulated cycles per second.
    pub stepped_cycles_per_sec: f64,
    /// Fast-forward-mode simulated cycles per second.
    pub fast_forward_cycles_per_sec: f64,
    /// `fast_forward_cycles_per_sec / stepped_cycles_per_sec`.
    pub speedup: f64,
}

fn mode_name(fast_forward: bool) -> &'static str {
    if fast_forward {
        "fast-forward"
    } else {
        "stepped"
    }
}

fn unix_now_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn host_num_cpus() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0)
}

fn emit_sim(params: SimParams) -> HmcSim {
    let cfg = DeviceConfig::small().with_storage_mode(StorageMode::TimingOnly);
    let mut sim = HmcSim::new(1, cfg)
        .expect("small config validates")
        .with_params(params);
    for l in 0..4 {
        sim.connect_host(0, l, sim.host_cube_id(0))
            .expect("host link wires");
    }
    sim
}

/// The record for one finished run of `sim`.
fn finished(
    workload: &str,
    mode: &str,
    sim: &HmcSim,
    wall: Duration,
    requests: u64,
    responses: u64,
) -> BenchRecord {
    let params = sim.params();
    let simulated_cycles = sim.current_clock();
    let wall_ns = wall.as_nanos().max(1) as u64;
    BenchRecord {
        schema: SCHEMA.into(),
        workload: workload.into(),
        mode: mode.into(),
        timing: params.timing.kind.name().into(),
        interconnect: params.interconnect.kind.name().into(),
        arbitration: params.interconnect.arbitration.name().into(),
        threads: 1,
        num_cpus: host_num_cpus(),
        simulated_cycles,
        wall_ns,
        cycles_per_sec: simulated_cycles as f64 * 1e9 / wall_ns as f64,
        requests,
        responses,
        unix_time_secs: unix_now_secs(),
    }
}

fn drain(sim: &mut HmcSim, responses: &mut u64) {
    for link in 0..4 {
        while sim.recv(0, link).is_ok() {
            *responses += 1;
        }
    }
}

/// Measure one workload shape under `params`. The schedule is
/// deterministic given the shape, so stepped and fast-forward runs
/// simulate the identical cycle span — only wall time differs.
pub fn measure(shape: WorkloadShape, params: SimParams) -> BenchRecord {
    let mut sim = emit_sim(params);
    let mut requests = 0u64;
    let mut responses = 0u64;
    let start = Instant::now();
    let mut tag = 0u16;
    for burst in 0..shape.bursts {
        for i in 0..shape.burst_len {
            let link = (i % 4) as LinkId;
            let addr = (burst * 0x9e37 + i as u64 * 0x1_0000) % (1 << 30);
            loop {
                let p = Packet::request(Command::Rd(BlockSize::B64), 0, addr, tag, link, &[])
                    .expect("read request builds");
                match sim.send(0, link, p) {
                    Ok(()) => break,
                    // Crossbar full: give the device a cycle and free
                    // link buffers before retrying the same request.
                    Err(_) => {
                        sim.clock_batch(1).expect("clock");
                        drain(&mut sim, &mut responses);
                    }
                }
            }
            // Tags are a 9-bit field; reuse is safe here because far
            // fewer than 512 requests are ever outstanding at once.
            tag = (tag + 1) % (1 << 9);
            requests += 1;
        }
        sim.clock_batch(shape.gap).expect("clock");
        drain(&mut sim, &mut responses);
    }
    while !sim.is_idle() {
        sim.clock_batch(64).expect("clock");
        drain(&mut sim, &mut responses);
    }
    let mode = mode_name(params.fast_forward);
    finished(shape.name, mode, &sim, start.elapsed(), requests, responses)
}

/// Fold a stepped and a fast-forward record of one shape into their
/// comparison. A speed-up only means something between runs that
/// simulated the same thing, so this refuses — naming the shape and the
/// counts — when the two legs disagree on simulated cycles, requests or
/// responses.
pub fn summarize(stepped: &BenchRecord, fast: &BenchRecord) -> Result<BenchSummary, String> {
    let span = |r: &BenchRecord| (r.simulated_cycles, r.requests, r.responses);
    if span(stepped) != span(fast) {
        return Err(format!(
            "{}: stepped and fast-forward legs simulated different things \
             (cycles, requests, responses): {:?} vs {:?}",
            stepped.workload,
            span(stepped),
            span(fast)
        ));
    }
    Ok(BenchSummary {
        schema: SCHEMA.into(),
        workload: stepped.workload.clone(),
        timing: stepped.timing.clone(),
        interconnect: stepped.interconnect.clone(),
        threads: 1,
        stepped_cycles_per_sec: stepped.cycles_per_sec,
        fast_forward_cycles_per_sec: fast.cycles_per_sec,
        speedup: fast.cycles_per_sec / stepped.cycles_per_sec.max(f64::MIN_POSITIVE),
    })
}

/// Measure one shape stepped and fast-forward under otherwise identical
/// `params`, and fold the comparison ([`summarize`], whose refusal is
/// the error).
pub fn compare(
    shape: WorkloadShape,
    params: SimParams,
) -> Result<(BenchRecord, BenchRecord, BenchSummary), String> {
    let [stepped, fast] = [false, true].map(|fast_forward| {
        measure(shape, SimParams { fast_forward, ..params })
    });
    let summary = summarize(&stepped, &fast)?;
    Ok((stepped, fast, summary))
}

/// Requests in the measured hammer shape: enough double-sided
/// activations of one bank to cross the default disturbance threshold
/// many times within a single refresh window.
pub const HAMMER_REQUESTS: u64 = 6_000;

/// Measure the double-sided hammer shape under `params`, whose
/// `cell_faults` arm (or leave off) the injection. The request schedule
/// is identical either way, so comparing the two runs isolates the cost
/// of the fault hook itself.
pub fn measure_hammer(params: SimParams) -> (BenchRecord, u64) {
    let mut sim = emit_sim(params);
    let geometry = sim.config().geometry();
    let mut hammer = Hammer::new(
        geometry,
        BlockSize::B64,
        0,
        0,
        geometry.rows / 2,
        HAMMER_REQUESTS,
    )
    .expect("small geometry has interior rows");
    let mut requests = 0u64;
    let mut responses = 0u64;
    let start = Instant::now();
    let mut tag = 0u16;
    while let Some(op) = hammer.next_op() {
        let link = (requests % 4) as LinkId;
        loop {
            let p = Packet::request(op.command(), 0, op.addr, tag, link, &[])
                .expect("hammer read builds");
            match sim.send(0, link, p) {
                Ok(()) => break,
                Err(_) => {
                    sim.clock_batch(1).expect("clock");
                    drain(&mut sim, &mut responses);
                }
            }
        }
        tag = (tag + 1) % (1 << 9);
        requests += 1;
        if requests.is_multiple_of(64) {
            sim.clock_batch(32).expect("clock");
            drain(&mut sim, &mut responses);
        }
    }
    while !sim.is_idle() {
        sim.clock_batch(64).expect("clock");
        drain(&mut sim, &mut responses);
    }
    let mode = if params.cell_faults.is_some() {
        "faults-on"
    } else {
        "faults-off"
    };
    let record = finished("hammer", mode, &sim, start.elapsed(), requests, responses);
    (record, sim.stats().bit_flips)
}

/// Faults-off vs faults-armed comparison for the hammer shape.
///
/// The injection hook charges no cycles of its own — only the TRR
/// mitigation spends refresh time — so with mitigation forced off the
/// armed run must simulate the *identical* cycle span as the baseline.
/// CI archives this record to pin the overhead-when-off at zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HammerOverheadSummary {
    /// Record schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Always `hammer`.
    pub workload: String,
    /// Always 1 (schema field from the former thread axis).
    pub threads: u64,
    /// Simulated cycles with cell faults unconfigured.
    pub off_simulated_cycles: u64,
    /// Simulated cycles with injection armed (mitigation forced off).
    pub on_simulated_cycles: u64,
    /// `on - off`; pinned at zero.
    pub simulated_cycle_overhead: i64,
    /// Baseline throughput, simulated cycles per second.
    pub off_cycles_per_sec: f64,
    /// Armed-run throughput, simulated cycles per second.
    pub on_cycles_per_sec: f64,
    /// Bits flipped during the armed run.
    pub bit_flips_on: u64,
}

/// Run the hammer shape with faults off and with injection armed
/// (mitigation stripped so timing is comparable), and fold the
/// comparison.
pub fn hammer_overhead(cfg: CellFaultConfig) -> (BenchRecord, BenchRecord, HammerOverheadSummary) {
    let (off, _) = measure_hammer(SimParams::default());
    let (on, bit_flips_on) = measure_hammer(SimParams {
        cell_faults: Some(cfg.with_mitigation(Mitigation::None)),
        ..SimParams::default()
    });
    let summary = HammerOverheadSummary {
        schema: SCHEMA.into(),
        workload: "hammer".into(),
        threads: 1,
        off_simulated_cycles: off.simulated_cycles,
        on_simulated_cycles: on.simulated_cycles,
        simulated_cycle_overhead: on.simulated_cycles as i64 - off.simulated_cycles as i64,
        off_cycles_per_sec: off.cycles_per_sec,
        on_cycles_per_sec: on.cycles_per_sec,
        bit_flips_on,
    };
    (off, on, summary)
}

/// Write one hammer overhead summary into `dir` as
/// `BENCH_hammer_overhead_t1.json`, returning the path.
pub fn write_hammer_summary(
    dir: &Path,
    summary: &HammerOverheadSummary,
) -> std::io::Result<PathBuf> {
    let path = dir.join("BENCH_hammer_overhead_t1.json");
    let json = serde_json::to_string_pretty(summary)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

/// `_<fabric>` filename segment for buffered fabrics; empty for the
/// crossbar (and for pre-fabric records), so legacy trajectory file
/// names stay stable.
fn fabric_segment(interconnect: &str) -> String {
    if interconnect.is_empty() || interconnect == InterconnectKind::Crossbar.name() {
        String::new()
    } else {
        format!("_{interconnect}")
    }
}

/// File name for a record:
/// `BENCH_<workload>_<mode>_<timing>[_<fabric>]_t1.json`.
pub fn record_file_name(record: &BenchRecord) -> String {
    format!(
        "BENCH_{}_{}_{}{}_t1.json",
        record.workload,
        record.mode,
        record.timing,
        fabric_segment(&record.interconnect),
    )
}

/// File name for a summary:
/// `BENCH_summary_<workload>_<timing>[_<fabric>]_t1.json`.
pub fn summary_file_name(summary: &BenchSummary) -> String {
    format!(
        "BENCH_summary_{}_{}{}_t1.json",
        summary.workload,
        summary.timing,
        fabric_segment(&summary.interconnect),
    )
}

/// Write one record into `dir`, returning the path written.
pub fn write_record(dir: &Path, record: &BenchRecord) -> std::io::Result<PathBuf> {
    let path = dir.join(record_file_name(record));
    let json = serde_json::to_string_pretty(record)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

/// Write one summary into `dir`, returning the path written.
pub fn write_summary(dir: &Path, summary: &BenchSummary) -> std::io::Result<PathBuf> {
    let path = dir.join(summary_file_name(summary));
    let json = serde_json::to_string_pretty(summary)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_core::{NocParams, TimingParams};
    use hmc_types::{LinkFaultConfig, TimingKind};

    fn stepped_and_fast(params: SimParams) -> (BenchRecord, BenchRecord) {
        let (stepped, fast, _) = compare(tiny(), params).unwrap();
        (stepped, fast)
    }

    fn ddr() -> SimParams {
        SimParams {
            timing: TimingParams::of(TimingKind::Ddr),
            ..SimParams::default()
        }
    }

    fn tiny() -> WorkloadShape {
        WorkloadShape {
            name: "sparse",
            bursts: 3,
            burst_len: 4,
            gap: 2_000,
        }
    }

    #[test]
    fn degraded_links_still_answer_every_request() {
        // Retries stretch the span but every request must still end in
        // exactly one response (clean or poisoned), in both modes.
        let lf = LinkFaultConfig::default()
            .with_error_rate_ppm(200_000)
            .with_retry_limit(1)
            .with_retry_cycles(4)
            .with_retrain_cycles(16)
            .with_seed(11);
        let clean = measure(tiny(), SimParams::default());
        let (stepped, fast) = stepped_and_fast(SimParams {
            link_faults: Some(lf),
            ..SimParams::default()
        });
        assert_eq!(stepped.simulated_cycles, fast.simulated_cycles);
        assert_eq!(stepped.responses, fast.responses);
        assert_eq!(stepped.responses, clean.responses, "every read must answer");
    }

    #[test]
    fn both_modes_simulate_the_identical_span() {
        let (stepped, fast) = stepped_and_fast(SimParams::default());
        assert_eq!(stepped.simulated_cycles, fast.simulated_cycles);
        assert_eq!(stepped.requests, fast.requests);
        assert_eq!(stepped.responses, fast.responses);
        assert_eq!(stepped.responses, 12, "every read must answer");
        assert_eq!(stepped.mode, "stepped");
        assert_eq!(fast.mode, "fast-forward");
        assert_eq!(stepped.interconnect, "crossbar");
        assert!(stepped.num_cpus >= 1, "host CPU count must be stamped");
        assert!(stepped.cycles_per_sec > 0.0);
        assert!(fast.cycles_per_sec > 0.0);
    }

    #[test]
    fn ddr_backend_spans_match_across_modes_too() {
        let (stepped, fast) = stepped_and_fast(ddr());
        assert_eq!(stepped.simulated_cycles, fast.simulated_cycles);
        assert_eq!(stepped.responses, fast.responses);
        assert_eq!(stepped.responses, 12, "every read must answer");
        assert_eq!(stepped.timing, "ddr");
    }

    #[test]
    fn buffered_fabric_spans_match_across_modes() {
        let (stepped, fast) = stepped_and_fast(SimParams {
            interconnect: NocParams::of(InterconnectKind::Ring),
            ..SimParams::default()
        });
        assert_eq!(stepped.simulated_cycles, fast.simulated_cycles);
        assert_eq!(stepped.responses, fast.responses);
        assert_eq!(stepped.responses, 12, "every read must answer");
        assert_eq!(stepped.interconnect, "ring");
        assert_eq!(stepped.arbitration, "round-robin");
        assert!(record_file_name(&stepped).contains("_ring_"));
    }

    #[test]
    fn legs_that_simulated_different_things_get_no_speedup() {
        let (stepped, fast, _) = compare(tiny(), SimParams::default()).unwrap();
        let doctor: [fn(&mut BenchRecord); 3] = [
            |r| r.simulated_cycles += 1,
            |r| r.requests -= 1,
            |r| r.responses -= 1,
        ];
        for edit in doctor {
            let mut other = fast.clone();
            edit(&mut other);
            let refusal = summarize(&stepped, &other).unwrap_err();
            assert!(refusal.starts_with("sparse: "), "names the shape: {refusal}");
        }
        assert!(summarize(&stepped, &fast).is_ok());
    }

    #[test]
    fn records_round_trip_through_json() {
        let (stepped, fast, summary) = compare(tiny(), SimParams::default()).unwrap();
        for r in [&stepped, &fast] {
            let json = serde_json::to_string(r).unwrap();
            let back: BenchRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, r);
        }
        let json = serde_json::to_string(&summary).unwrap();
        let back: BenchSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
        assert!(summary.speedup > 0.0);
    }

    #[test]
    fn emitted_files_land_where_named() {
        let dir = std::env::temp_dir().join("hmc_bench_emit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let record = measure(tiny(), SimParams { fast_forward: true, ..ddr() });
        let path = write_record(&dir, &record).unwrap();
        assert!(path.ends_with("BENCH_sparse_fast-forward_ddr_t1.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let back: BenchRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back, record);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hammer_overhead_when_off_is_pinned_at_zero() {
        let cfg = CellFaultConfig::default()
            .with_hammer_threshold(64)
            .with_flip_prob_ppm(1_000_000);
        let (off, on, summary) = hammer_overhead(cfg);
        assert_eq!(off.workload, "hammer");
        assert_eq!(off.mode, "faults-off");
        assert_eq!(on.mode, "faults-on");
        assert_eq!(
            summary.simulated_cycle_overhead, 0,
            "the fault hook must not perturb timing without TRR"
        );
        assert_eq!(off.simulated_cycles, on.simulated_cycles);
        assert_eq!(off.responses, on.responses);
        assert!(summary.bit_flips_on > 0, "armed run must actually flip bits");
    }

    #[test]
    fn canonical_shapes_resolve_by_name() {
        for s in SHAPES {
            assert_eq!(shape_by_name(s.name).unwrap().name, s.name);
        }
        assert!(shape_by_name("nope").is_none());
    }
}
