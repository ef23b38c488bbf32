//! The five workloads driven through `hmc_host`: the host model issues a
//! generated op stream into one device and `run_workload` runs the
//! inject-until-stall loop (paper §VI.A) to completion.
//!
//! | workload | what it loads |
//! |---|---|
//! | `table1_paper` | the paper's evaluation and the default path: host and crossbar stages both show |
//! | `dense_ddr` | the DDR timing backend and the per-cycle queue scans inside `clock` |
//! | `hotspot_mesh` | the buffered NoC (`noc_advance`), which crossbar runs bypass |
//! | `functional_rw` | functional storage: payload copies and the sparse paged store |
//! | `traced_fig5` | the tracer and its sinks, on the critical path only here |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hmc_conform::{owner_link, Oracle};
use hmc_core::{decode_response, topology, HmcSim, NocParams, TimingParams};
use hmc_host::{run_workload, run_workload_captured, Host, Pending, RunConfig, RunReport, TagPool};
use hmc_trace::{
    CountingSink, EventKind, MultiSink, SeriesCollector, SharedSink, TraceRecord, TraceSink,
    Tracer, Verbosity,
};
use hmc_types::{
    ArbitrationKind, BlockSize, CubeId, DeviceConfig, HmcError, InterconnectKind, Packet, Result,
    StorageMode, TimingKind,
};
use hmc_workloads::{
    Gups, Hotspot, MemOp, Mixed, RandomAccess, UpdateKind, Workload, PAPER_REQUESTS,
};

use crate::digest::Digest;
use crate::harness::{raw_wall_ns, Bench, Layers, Outcome, TracedRun};
use crate::replay;
use crate::span::Recorder;

/// Paper Table I speed-ups: 1.700× from doubling banks, 2.319× from
/// doubling links. The model's absolute cycle counts sit well below the
/// paper's, so only these ratios are validated.
const PAPER_BANK_SPEEDUP: f64 = 1.700;
const PAPER_LINK_SPEEDUP: f64 = 2.319;

/// Share of `hotspot_mesh` requests aimed at the hot quad. The
/// generator's default of 90 % is bimodal under round-robin arbitration
/// on the mesh — about a third of seeds take twice the cycles of the
/// rest — which no seeded benchmark can report a stable figure for; at
/// 75 % every seed lands within 0.5 % of the same cycle count.
const HOT_PCT: u8 = 75;

/// Footprint of the `functional_rw` streams.
const FUNCTIONAL_FOOTPRINT: u64 = 256 << 20;

/// The op stream a workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stream {
    /// glibc-LCG random 64 B requests, half reads, over 2 GiB — the
    /// paper's harness (`RandomAccess::paper_scaled`).
    Paper,
    /// The same mix with 75 % of requests aimed at quad 0's vaults.
    Hotspot,
    /// Random 64 B writes, read-backs of the same addresses, and GUPS
    /// dual-add atomics over 256 MiB, weighted 2:2:1.
    FunctionalMix,
}

/// A generator behind a concrete type, so `run_workload` is
/// monomorphised per generator exactly as the repo's own binaries
/// instantiate it.
enum Gen {
    Random(RandomAccess),
    Hotspot(Hotspot),
    Mixed(Mixed),
}

macro_rules! with_gen {
    ($gen:expr, $w:ident => $body:expr) => {
        match $gen {
            Gen::Random($w) => $body,
            Gen::Hotspot($w) => $body,
            Gen::Mixed($w) => $body,
        }
    };
}

/// One host-driven workload: a stream, and the device configurations
/// ("legs") it is run against in turn.
pub struct HostDriven {
    legs: Vec<DeviceConfig>,
    timing: TimingKind,
    noc: NocParams,
    threads: usize,
    stream: Stream,
    tracer: bool,
    seed: u32,
    requests: u64,
}

/// One leg, built and ready to run.
pub struct LegState {
    sim: HmcSim,
    host: Host,
    gen: Gen,
    sinks: Option<(SharedSink<SeriesCollector>, SharedSink<CountingSink>)>,
}

fn cfg_4l8b(storage: StorageMode) -> DeviceConfig {
    DeviceConfig::paper_4link_8bank_2gb().with_storage_mode(storage)
}

impl HostDriven {
    fn new(legs: Vec<DeviceConfig>, stream: Stream, seed: u32, requests: u64) -> Self {
        HostDriven {
            legs,
            timing: TimingKind::Classic,
            noc: NocParams::default(),
            threads: 1,
            stream,
            tracer: false,
            seed,
            requests: requests.max(1),
        }
    }

    /// §VI.A as `table1` runs it: the four paper configurations in turn,
    /// timing-only storage, classic timing, crossbar, stepped.
    pub fn table1_paper(seed: u32, div: u64) -> Self {
        let legs = DeviceConfig::paper_configs()
            .into_iter()
            .map(|(_, cfg)| cfg.with_storage_mode(StorageMode::TimingOnly))
            .collect();
        Self::new(legs, Stream::Paper, seed, PAPER_REQUESTS / (256 * div))
    }

    /// 4l8b, the paper stream under the DDR timing backend.
    pub fn dense_ddr(seed: u32, div: u64) -> Self {
        let mut w = Self::new(
            vec![cfg_4l8b(StorageMode::TimingOnly)],
            Stream::Paper,
            seed,
            PAPER_REQUESTS / (256 * div),
        );
        w.timing = TimingKind::Ddr;
        w
    }

    /// 4l8b, hotspot stream, mesh fabric, round-robin arbitration.
    pub fn hotspot_mesh(seed: u32, div: u64) -> Self {
        let mut w = Self::new(
            vec![cfg_4l8b(StorageMode::TimingOnly)],
            Stream::Hotspot,
            seed,
            32_000 / div,
        );
        w.noc = NocParams::of(InterconnectKind::Mesh).with_arbitration(ArbitrationKind::RoundRobin);
        w
    }

    /// 4l8b with functional storage under the write/read-back/atomic mix.
    pub fn functional_rw(seed: u32, div: u64) -> Self {
        Self::new(
            vec![cfg_4l8b(StorageMode::Functional)],
            Stream::FunctionalMix,
            seed,
            300_000 / div,
        )
    }

    /// 4l8b, the Figure 5 path: full-verbosity tracer into a series
    /// collector and a counting sink.
    pub fn traced_fig5(seed: u32, div: u64) -> Self {
        let mut w = Self::new(
            vec![cfg_4l8b(StorageMode::TimingOnly)],
            Stream::Paper,
            seed,
            PAPER_REQUESTS / (64 * div),
        );
        w.tracer = true;
        w
    }

    fn gen(&self, cfg: &DeviceConfig) -> Gen {
        match self.stream {
            Stream::Paper => Gen::Random(RandomAccess::paper_scaled(
                self.seed,
                PAPER_REQUESTS / self.requests,
            )),
            Stream::Hotspot => Gen::Hotspot(
                Hotspot::new(
                    self.seed,
                    cfg.geometry(),
                    BlockSize::B64,
                    0,
                    HOT_PCT,
                    50,
                    self.requests,
                )
                .expect("paper geometry has quad 0"),
            ),
            Stream::FunctionalMix => {
                // Writes and read-backs share a seed, so read-back `i`
                // targets the address write `i` targets.
                let fifth = self.requests / 5;
                let rw = |read_pct| {
                    RandomAccess::new(
                        self.seed,
                        FUNCTIONAL_FOOTPRINT,
                        BlockSize::B64,
                        read_pct,
                        2 * fifth,
                    )
                };
                let gups = Gups::new(
                    self.seed.wrapping_add(1),
                    FUNCTIONAL_FOOTPRINT,
                    UpdateKind::TwoAdd8,
                    self.requests - 4 * fifth,
                );
                Gen::Mixed(Mixed::new(
                    self.seed,
                    vec![
                        (2, Box::new(rw(0))),
                        (2, Box::new(rw(100))),
                        (1, Box::new(gups)),
                    ],
                ))
            }
        }
    }

    fn build_sim(&self, cfg: &DeviceConfig) -> HmcSim {
        let mut sim = HmcSim::new(1, cfg.clone())
            .expect("paper configs validate")
            .with_threads(self.threads)
            .with_timing(TimingParams::of(self.timing))
            .with_interconnect(self.noc);
        let host_id = sim.host_cube_id(0);
        topology::build_simple(&mut sim, host_id).expect("simple topology");
        sim
    }

    /// The stream of leg 0, for the isolated replays.
    fn replay_ops(&self) -> (Vec<MemOp>, f64) {
        with_gen!(&mut self.gen(&self.legs[0]), w => replay::pull_ops(w))
    }

    /// `functional_rw`'s verification pass: the same stream through a
    /// fresh device, every response checked against the golden oracle.
    /// Links follow the oracle's block-ownership rule (a block is only
    /// ever accessed through one link), which makes same-block order —
    /// and so every read's expected data — defined.
    fn oracle_pass(&self) -> Vec<String> {
        let cfg = &self.legs[0];
        let mut sim = self.build_sim(cfg);
        let (links, block) = (cfg.num_links, cfg.block_size.bytes() as u64);
        let mut gen = self.gen(cfg);
        let mut tags = TagPool::new();
        let mut oracle = Oracle::new();
        let mut failures = Vec::new();
        let mut payload = [0u8; 128];
        let mut pending: Option<MemOp> = None;
        let (mut issued, mut exhausted) = (0usize, false);
        while !(exhausted && pending.is_none() && tags.outstanding() == 0) {
            loop {
                let Some(op) = pending
                    .take()
                    .or_else(|| with_gen!(&mut gen, w => w.next_op()))
                else {
                    exhausted = true;
                    break;
                };
                let link = owner_link(op.addr, block, links);
                let Some(tag) = tags.alloc(Pending {
                    addr: op.addr,
                    cmd: op.command(),
                    issue_cycle: sim.current_clock(),
                    dev: 0,
                    link,
                }) else {
                    pending = Some(op);
                    break;
                };
                let n = op.payload_bytes();
                for (i, b) in payload[..n].iter_mut().enumerate() {
                    *b = (op.addr as u8)
                        .wrapping_add(i as u8)
                        .wrapping_add(issued as u8);
                }
                let packet = Packet::request(op.command(), 0, op.addr, tag, link, &payload[..n])
                    .expect("generated ops build valid packets");
                match sim.send(0, link, packet) {
                    Ok(()) => {
                        oracle.issue(issued, &op, Some(tag), &payload[..n]);
                        issued += 1;
                    }
                    Err(e) if e.is_stall() => {
                        tags.complete(tag);
                        pending = Some(op);
                        break;
                    }
                    Err(e) => return vec![format!("oracle pass: send failed: {e}")],
                }
            }
            if let Err(e) = sim.clock() {
                return vec![format!("oracle pass: clock failed: {e}")];
            }
            for link in 0..links {
                while let Ok(packet) = sim.recv(0, link) {
                    match decode_response(&packet) {
                        Ok(info) => {
                            tags.complete(info.tag);
                            if let Err(why) = oracle.check_response(&info) {
                                failures.push(format!("oracle: {why}"));
                            }
                        }
                        Err(e) => failures.push(format!("oracle pass: undecodable response: {e}")),
                    }
                }
            }
            if sim.current_clock() > 1 << 30 {
                failures.push("oracle pass: no progress".into());
                break;
            }
        }
        if oracle.checked != issued as u64 || oracle.outstanding() != 0 {
            failures.push(format!(
                "oracle pass: {} of {issued} responses checked, {} still owed",
                oracle.checked,
                oracle.outstanding()
            ));
        }
        failures.truncate(8);
        failures
    }
}

/// A sink that times the real sink behind it (traced rep only).
struct TimedSink {
    inner: MultiSink,
    ns: Arc<AtomicU64>,
}

impl TraceSink for TimedSink {
    fn record(&mut self, rec: &TraceRecord) {
        let t = Instant::now();
        self.inner.record(rec);
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

fn fan_out(sinks: &(SharedSink<SeriesCollector>, SharedSink<CountingSink>)) -> MultiSink {
    MultiSink::new()
        .with(Box::new(sinks.0.clone()))
        .with(Box::new(sinks.1.clone()))
}

/// The benchmark's copy of `hmc_host::driver::run_loop`, line for line
/// for a default `RunConfig`, with a span around each call into a layer:
/// the inject phase (its `next_op` and `try_issue` calls accumulated per
/// call), `clock`, and `drain`. Response tags and latencies are folded
/// into `tags` in arrival order. It must reproduce `run_workload`'s
/// `RunReport` exactly; the harness checks that it does.
fn traced_run_loop<W: Workload + ?Sized>(
    sim: &mut HmcSim,
    host: &mut Host,
    workload: &mut W,
    cfg: RunConfig,
    rec: &mut Recorder,
    tags: &mut Digest,
) -> Result<RunReport> {
    let (n_run, n_inject) = (rec.name("run"), rec.name("inject"));
    let (n_clock, n_drain) = (rec.name("clock"), rec.name("drain"));
    let a_next = rec.accumulator("next_op", "inject");
    let a_issue = rec.accumulator("try_issue", "inject");
    let target: CubeId = cfg.target_cube;

    let start_violations = sim.total_invariant_violations();
    let start_cycle = sim.current_clock();
    let start_stats = host.stats;
    let mut pending: Option<MemOp> = None;
    let mut exhausted = false;
    let root = rec.open(n_run, start_cycle);

    loop {
        let cycle = sim.current_clock();
        // Inject until a stall, tag exhaustion, or workload end.
        let span = rec.open(n_inject, cycle);
        loop {
            let op = match pending.take() {
                Some(op) => op,
                None => {
                    let t = rec.now();
                    let next = workload.next_op();
                    rec.add(a_next, rec.now() - t);
                    match next {
                        Some(op) => op,
                        None => {
                            exhausted = true;
                            break;
                        }
                    }
                }
            };
            let t = rec.now();
            let accepted = host.try_issue(sim, target, &op)?;
            rec.add(a_issue, rec.now() - t);
            if accepted {
                continue;
            }
            pending = Some(op);
            break;
        }
        rec.close(span);

        let span = rec.open(n_clock, cycle);
        sim.clock()?;
        rec.close(span);

        let span = rec.open(n_drain, cycle);
        host.drain_with(sim, |info, latency| {
            tags.u64(u64::from(info.tag));
            tags.u64(latency);
        })?;
        rec.close(span);

        let elapsed = sim.current_clock() - start_cycle;
        if exhausted && pending.is_none() && host.outstanding() == 0 {
            // Posted traffic may still be in flight inside the device;
            // drain it so back-to-back runs start clean.
            let mut settle = 0u32;
            while !sim.is_idle() && settle < 10_000 {
                sim.clock()?;
                host.drain(sim)?;
                settle += 1;
            }
            break;
        }
        if elapsed > cfg.max_cycles {
            return Err(HmcError::Internal(format!(
                "workload run exceeded {} cycles with {} requests outstanding",
                cfg.max_cycles,
                host.outstanding()
            )));
        }
    }
    rec.close(root);

    let cycles = sim.current_clock() - start_cycle;
    let injected = host.stats.injected - start_stats.injected;
    Ok(RunReport {
        cycles,
        injected,
        completed: host.stats.completed - start_stats.completed,
        posted: host.stats.posted - start_stats.posted,
        errors: host.stats.errors - start_stats.errors,
        send_stalls: host.stats.send_stalls - start_stats.send_stalls,
        mean_latency: host.latency.mean(),
        max_latency: host.latency.max,
        throughput: if cycles > 0 {
            injected as f64 / cycles as f64
        } else {
            0.0
        },
        invariant_violations: sim.total_invariant_violations() - start_violations,
    })
}

impl Bench for HostDriven {
    type State = Vec<LegState>;

    fn setup(&self) -> Vec<LegState> {
        self.legs
            .iter()
            .map(|cfg| {
                let mut sim = self.build_sim(cfg);
                let sinks = self.tracer.then(|| {
                    // Bin width as `figure5` picks it: about 200 rows.
                    let bin = (self.requests / 60).max(200) / 200;
                    (
                        SharedSink::new(SeriesCollector::new(bin.max(1), cfg.num_vaults)),
                        SharedSink::new(CountingSink::default()),
                    )
                });
                if let Some(sinks) = &sinks {
                    sim.set_tracer(Tracer::new(Verbosity::Full, Box::new(fan_out(sinks))));
                }
                let host = Host::attach(&sim, sim.host_cube_id(0)).expect("host links wired");
                LegState {
                    gen: self.gen(cfg),
                    sim,
                    host,
                    sinks,
                }
            })
            .collect()
    }

    fn run(&self, mut state: Vec<LegState>, mut rec: Option<&mut Recorder>) -> Outcome {
        let mut digest = Digest::new();
        let mut tags = Digest::new();
        let sink_ns = Arc::new(AtomicU64::new(0));
        let mut counts: Vec<(&'static str, f64)> = Vec::new();
        let mut count = |name: &'static str, v: f64| match counts.iter_mut().find(|c| c.0 == name) {
            Some(c) => c.1 += v,
            None => counts.push((name, v)),
        };
        let (mut requests, mut failed, mut cycles) = (0u64, 0u64, 0u64);
        let (mut latency_sum, mut latency_count) = (0u64, 0u64);
        let mut leg_cycles = Vec::new();
        for leg in &mut state {
            let LegState {
                sim,
                host,
                gen,
                sinks,
            } = leg;
            let cfg = RunConfig::default();
            let report = match rec.as_deref_mut() {
                None => with_gen!(gen, w => run_workload(sim, host, w, cfg)),
                Some(rec) => {
                    if let Some(sinks) = sinks {
                        let timed = TimedSink {
                            inner: fan_out(sinks),
                            ns: sink_ns.clone(),
                        };
                        sim.set_tracer(Tracer::new(Verbosity::Full, Box::new(timed)));
                    }
                    with_gen!(gen, w => traced_run_loop(sim, host, w, cfg, rec, &mut tags))
                }
            }
            .expect("the run completes");
            let (hs, ss) = (host.stats, sim.stats());
            digest.bytes(format!("{report:?}{ss:?}{hs:?}{:?}", host.latency).as_bytes());
            requests += report.injected;
            failed += report.injected.abs_diff(report.completed + report.posted)
                + report.errors
                + hs.orphans;
            cycles += report.cycles;
            latency_sum += host.latency.sum;
            latency_count += host.latency.count;
            leg_cycles.push(report.cycles);
            count("host.send_stalls", hs.send_stalls as f64);
            count("host.tag_stalls", hs.tag_stalls as f64);
            count("core.token_stalls", ss.token_stalls as f64);
            count("core.row_hits", ss.row_hits as f64);
            count("core.row_misses", ss.row_misses as f64);
            count("core.precharges", ss.precharges as f64);
            count("core.noc_hops", ss.noc_hops as f64);
            count("core.noc_stalls", ss.noc_stalls as f64);
            count("core.noc_arb_losses", ss.noc_arb_losses as f64);
            count("trace.events", sim.tracer_mut().emitted() as f64);
            if let Some((series, counting)) = sinks {
                let totals = series.0.lock().totals();
                let counters = counting.0.lock().counters.clone();
                digest.bytes(format!("{totals:?}{counters:?}").as_bytes());
                count(
                    "trace.bank_conflicts",
                    counters.get(EventKind::BankConflict) as f64,
                );
                count(
                    "trace.xbar_rqst_stalls",
                    counters.get(EventKind::XbarRqstStall) as f64,
                );
            }
            let resident: u64 = sim
                .device(0)
                .expect("device 0 exists")
                .vaults
                .iter()
                .map(|v| v.mem.resident_bytes())
                .sum();
            count("mem.resident_mb", resident as f64 / (1 << 20) as f64);
        }
        Outcome {
            requests,
            failed,
            cycles,
            latency_sum,
            latency_count,
            digest: digest.finish(),
            leg_cycles,
            counts,
            tag_digest: rec.is_some().then(|| tags.finish()),
            sink_ns: sink_ns.load(Ordering::Relaxed),
            ..Outcome::default()
        }
    }

    fn verify(&self, _reference: &Outcome, traced: Option<&Outcome>) -> Vec<String> {
        let mut failures = traced.map_or_else(Vec::new, |t| self.check_tag_order(t));
        if self.stream == Stream::FunctionalMix {
            failures.extend(self.oracle_pass());
        }
        failures
    }

    fn layer_metrics(&self, run: &TracedRun<'_>, out: &mut Layers) {
        let traced = run.traced;
        for (name, value) in &traced.counts {
            out.set(name, *value);
        }

        // Host-time attribution from the spans of the copied driver loop.
        let total = |name: &str| run.total_ns(name);
        let (reqs, cycles) = (traced.requests as f64, traced.cycles as f64);
        out.set("workloads.next_op_ns_per_req", total("next_op") / reqs);
        out.set("host.try_issue_ns_per_req", total("try_issue") / reqs);
        out.set("host.drain_ns_per_req", total("drain") / reqs);
        out.set(
            "host.issue_accept_ratio",
            reqs / run.count("try_issue").max(1.0),
        );
        out.set("core.clock_ns_per_cycle", total("clock") / cycles);
        out.set("core.clock_ns_per_req", total("clock") / reqs);
        out.set(
            "core.clock_share",
            100.0 * total("clock") / run.traced_wall_ns,
        );
        out.set(
            "bench.span_coverage_pct",
            100.0 * (total("inject") + total("clock") + total("drain")) / run.traced_wall_ns,
        );

        if self.legs.len() == 4 {
            let c = |i: usize| traced.leg_cycles[i] as f64;
            let banks = (c(0) / c(1) + c(2) / c(3)) / 2.0;
            let links = (c(0) / c(2) + c(1) / c(3)) / 2.0;
            out.set(
                "table1.bank_speedup_err_pct",
                100.0 * (banks / PAPER_BANK_SPEEDUP - 1.0).abs(),
            );
            out.set(
                "table1.link_speedup_err_pct",
                100.0 * (links / PAPER_LINK_SPEEDUP - 1.0).abs(),
            );
            // The sharded engine on the 4l8b leg, two threads over one.
            let shard = |threads| HostDriven {
                legs: vec![self.legs[0].clone()],
                threads,
                requests: (self.requests / 4).max(1),
                ..Self::table1_paper(self.seed, 1)
            };
            out.set(
                "core.shard_t2_over_t1",
                raw_wall_ns(&shard(2), 2).0 / raw_wall_ns(&shard(1), 2).0,
            );
        }

        // The same stream with one layer taken out of the path.
        let variant = |f: &dyn Fn(&mut HostDriven)| {
            let mut v = HostDriven {
                legs: self.legs.clone(),
                ..*self
            };
            f(&mut v);
            run.baseline_wall_ns / raw_wall_ns(&v, 2).0
        };
        if self.noc.kind != InterconnectKind::Crossbar {
            out.set(
                "core.mesh_over_xbar_wall_ratio",
                variant(&|v| v.noc = NocParams::default()),
            );
        }
        if self.stream == Stream::FunctionalMix {
            out.set(
                "mem.functional_over_timing_only_ratio",
                variant(&|v| v.legs[0].storage_mode = StorageMode::TimingOnly),
            );
        }
        if self.tracer {
            let events = traced
                .counts
                .iter()
                .find(|c| c.0 == "trace.events")
                .map_or(1.0, |c| c.1.max(1.0));
            out.set("trace.record_ns_per_event", traced.sink_ns as f64 / events);
            out.set(
                "trace.share",
                100.0 * traced.sink_ns as f64 / run.traced_wall_ns,
            );
            out.set("trace.on_over_off_ratio", variant(&|v| v.tracer = false));
        }

        out.set("core.sim_new_ms", replay::sim_new_ms(&self.legs[0]));

        let (ops, _) = self.replay_ops();
        replay::types_layer(&ops, &self.legs[0], out);
        replay::mem_layer(&ops, &self.legs[0], out);
        if self.timing == TimingKind::Ddr {
            replay::ddr_layer(&ops, &self.legs[0], out);
        }
    }
}

impl HostDriven {
    /// The traced pass's extra check: the benchmark's copied driver loop
    /// and `run_workload_captured` see the same tags in the same order
    /// with the same latencies. Returns failure messages.
    fn check_tag_order(&self, traced: &Outcome) -> Vec<String> {
        let mut d = Digest::new();
        for mut leg in self.setup() {
            let LegState { sim, host, gen, .. } = &mut leg;
            let (_, captured) =
                with_gen!(gen, w => run_workload_captured(sim, host, w, RunConfig::default()))
                    .expect("the captured run completes");
            for r in &captured {
                d.u64(u64::from(r.info.tag));
                d.u64(r.latency);
            }
        }
        if Some(d.finish()) != traced.tag_digest {
            return vec![
                "response tags arrived in a different order in the copied driver loop".into(),
            ];
        }
        Vec::new()
    }
}
