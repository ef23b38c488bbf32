//! The two fast-forward workloads: rounds of (send a burst of reads,
//! batch-clock a gap, drain), driven directly with `Packet::request`,
//! `send`, `clock_batch` and `recv_with_latency` — the shapes
//! `bench_emit` calls `sparse` and `bursty` — with the engine's
//! event-driven fast-forward mode on.
//!
//! | workload | what it loads |
//! |---|---|
//! | `idle_ff` | `quiescent_horizon` + `fast_forward_jump`: almost every cycle is dead and the six stages barely run |
//! | `bursty_ff_ddr` | the same horizon under the DDR backend, where bank timers keep it from seeing far |

use hmc_core::{HmcSim, SimParams, TimingParams};
use hmc_types::{BlockSize, Command, DeviceConfig, LinkId, Packet, StorageMode, TimingKind};
use hmc_workloads::{GlibcRandom, MemOp};

use crate::digest::Digest;
use crate::harness::{raw_wall_ns, Bench, Layers, Outcome, TracedRun};
use crate::replay;
use crate::span::{Probe, Recorder};

/// Scale of the stepped-vs-fast-forward comparison relative to the
/// timed schedule, and the simulated cycles it may cost at most (the
/// stepped leg runs about a million cycles per second).
const FF_CHECK_DIV: u64 = 50;
const FF_CHECK_MAX_CYCLES: u64 = 1_500_000;

/// One burst/gap schedule.
#[derive(Debug, Clone, Copy)]
pub struct BurstGap {
    bursts: u64,
    burst_len: u16,
    gap: u64,
    timing: TimingKind,
    fast_forward: bool,
    seed: u32,
}

impl BurstGap {
    /// Bursts of 4 reads, gaps around 20,000 cycles, classic timing.
    pub fn idle_ff(seed: u32, div: u64) -> Self {
        BurstGap {
            bursts: (80_000 / div).max(1),
            burst_len: 4,
            gap: 20_000,
            timing: TimingKind::Classic,
            fast_forward: true,
            seed,
        }
    }

    /// Bursts of 16 reads, gaps around 512 cycles, DDR timing.
    pub fn bursty_ff_ddr(seed: u32, div: u64) -> Self {
        BurstGap {
            bursts: (1_200 / div).max(1),
            burst_len: 16,
            gap: 512,
            timing: TimingKind::Ddr,
            fast_forward: true,
            seed,
        }
    }

    /// The address of request `i` of burst `burst`: `bench_emit`'s
    /// pattern — a burst walks rows of one bank, successive bursts move
    /// across vaults and banks — displaced by a seeded offset. Under the
    /// DDR backend the row walk keeps a bank's timers running through
    /// most of a 512-cycle gap, which is what `bursty_ff_ddr` is for.
    fn addr(&self, offset: u64, burst: u64, i: u16) -> u64 {
        ((offset + burst * 0x9e37 + u64::from(i) * 0x1_0000) % (1 << 30)) & !63
    }

    /// The schedule's read stream, for the isolated replays.
    fn ops(&self) -> Vec<MemOp> {
        let offset = self.offset();
        (0..self.bursts)
            .flat_map(|b| (0..self.burst_len).map(move |i| (b, i)))
            .take(replay::REPLAY_OPS)
            .map(|(b, i)| MemOp::read(self.addr(offset, b, i), BlockSize::B64))
            .collect()
    }

    fn offset(&self) -> u64 {
        GlibcRandom::new(self.seed).below(1 << 30)
    }

    /// A 1/50-scale (or smaller) copy of the schedule stepped and
    /// fast-forwarded: both must simulate the identical span. Returns
    /// `(stepped wall ÷ fast-forward wall, failure messages)`.
    fn stepped_vs_fast_forward(&self) -> (f64, Vec<String>) {
        let small = BurstGap {
            bursts: (self.bursts / FF_CHECK_DIV)
                .min(FF_CHECK_MAX_CYCLES / self.gap)
                .max(2),
            ..*self
        };
        let mode = |fast_forward| BurstGap {
            fast_forward,
            ..small
        };
        let (ff_wall, ff) = raw_wall_ns(&mode(true), 3);
        let (stepped_wall, stepped) = raw_wall_ns(&mode(false), 1);
        let mut failures = Vec::new();
        if (ff.cycles, ff.digest) != (stepped.cycles, stepped.digest) {
            failures.push(format!(
                "fast-forward simulated {} cycles (digest {:016x}), stepped {} ({:016x})",
                ff.cycles, ff.digest, stepped.cycles, stepped.digest
            ));
        }
        (stepped_wall / ff_wall, failures)
    }
}

struct Names {
    send: usize,
    recv: usize,
    burst: u16,
    clock_batch: u16,
}

fn drain(
    sim: &mut HmcSim,
    out: &mut Outcome,
    digest: &mut Digest,
    probe: &mut Probe<'_>,
    n: &Names,
) {
    for link in 0..4 {
        loop {
            let t = probe.now();
            let Ok((packet, latency)) = sim.recv_with_latency(0, link) else {
                break;
            };
            probe.add_since(n.recv, t);
            out.latency_sum += latency;
            out.latency_count += 1;
            digest.u64(u64::from(packet.tag()));
            digest.u64(latency);
        }
    }
}

impl Bench for BurstGap {
    type State = HmcSim;

    fn setup(&self) -> HmcSim {
        let cfg = DeviceConfig::small().with_storage_mode(StorageMode::TimingOnly);
        let mut sim = HmcSim::new(1, cfg)
            .expect("small config validates")
            .with_params(SimParams {
                fast_forward: self.fast_forward,
                timing: TimingParams::of(self.timing),
                ..SimParams::default()
            });
        for l in 0..4 {
            sim.connect_host(0, l, sim.host_cube_id(0))
                .expect("host link wires");
        }
        sim
    }

    fn run(&self, mut sim: HmcSim, rec: Option<&mut Recorder>) -> Outcome {
        let mut out = Outcome::default();
        let mut digest = Digest::new();
        let mut probe = Probe::new(rec);
        let n = Names {
            burst: probe.name("burst"),
            clock_batch: probe.name("clock_batch"),
            send: probe.accumulator("send", "burst"),
            recv: probe.accumulator("recv", "burst"),
        };
        let offset = self.offset();
        // Gap lengths jitter around the nominal gap, from the seed.
        let mut gaps = GlibcRandom::new(self.seed ^ 0x9e37);
        let mut tag = 0u16;
        for burst in 0..self.bursts {
            let span = probe.open(n.burst, burst);
            for i in 0..self.burst_len {
                let link = (i % 4) as LinkId;
                let addr = self.addr(offset, burst, i);
                loop {
                    let p = Packet::request(Command::Rd(BlockSize::B64), 0, addr, tag, link, &[])
                        .expect("read request builds");
                    let t = probe.now();
                    let sent = sim.send(0, link, p);
                    probe.add_since(n.send, t);
                    match sent {
                        Ok(()) => break,
                        // Crossbar full: give the device a cycle and free
                        // link buffers before retrying the same request.
                        Err(_) => {
                            sim.clock_batch(1).expect("clock");
                            drain(&mut sim, &mut out, &mut digest, &mut probe, &n);
                        }
                    }
                }
                // Far fewer than 512 requests are ever outstanding.
                tag = (tag + 1) % 512;
                out.requests += 1;
            }
            let gap = self.gap - self.gap / 4 + gaps.below(self.gap / 2 + 1);
            let clock = probe.open(n.clock_batch, burst);
            sim.clock_batch(gap).expect("clock");
            probe.close(clock);
            drain(&mut sim, &mut out, &mut digest, &mut probe, &n);
            probe.close(span);
        }
        while !sim.is_idle() {
            sim.clock_batch(64).expect("clock");
            drain(&mut sim, &mut out, &mut digest, &mut probe, &n);
        }
        let stats = sim.stats();
        digest.bytes(format!("{stats:?}").as_bytes());
        out.cycles = sim.current_clock();
        out.failed = out.requests.abs_diff(out.latency_count);
        out.digest = digest.finish();
        out.counts = vec![
            ("core.token_stalls", stats.token_stalls as f64),
            ("core.row_hits", stats.row_hits as f64),
            ("core.row_misses", stats.row_misses as f64),
            ("core.precharges", stats.precharges as f64),
        ];
        out
    }

    fn verify(&self, _reference: &Outcome, _traced: Option<&Outcome>) -> Vec<String> {
        self.stepped_vs_fast_forward().1
    }

    fn layer_metrics(&self, run: &TracedRun<'_>, out: &mut Layers) {
        for (name, value) in &run.traced.counts {
            out.set(name, *value);
        }
        let total = |name: &str| run.total_ns(name);
        let per_call = |name: &str| run.total_ns(name) / run.count(name).max(1.0);
        out.set("core.clock_batch_ns_per_burst", per_call("clock_batch"));
        out.set("core.send_ns_per_req", per_call("send"));
        out.set("core.recv_ns_per_rsp", per_call("recv"));
        out.set(
            "core.clock_ns_per_cycle",
            total("clock_batch") / run.traced.cycles as f64,
        );
        out.set(
            "core.clock_ns_per_req",
            total("clock_batch") / run.traced.requests as f64,
        );
        out.set(
            "core.clock_share",
            100.0 * total("clock_batch") / run.traced_wall_ns,
        );
        out.set(
            "bench.span_coverage_pct",
            100.0 * total("burst") / run.traced_wall_ns,
        );
        out.set("core.ff_speedup", self.stepped_vs_fast_forward().0);

        let cfg = DeviceConfig::small().with_storage_mode(StorageMode::TimingOnly);
        out.set("core.sim_new_ms", replay::sim_new_ms(&cfg));
        let ops = self.ops();
        replay::types_layer(&ops, &cfg, out);
        replay::mem_layer(&ops, &cfg, out);
        if self.timing == TimingKind::Ddr {
            replay::ddr_layer(&ops, &cfg, out);
        }
    }
}
