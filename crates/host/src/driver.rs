//! The inject-until-stall run loop of the paper's random-access test
//! application (§VI.A): each cycle the host sends as many requests as the
//! device accepts, clocks the simulation once, and drains responses.
//! [`Driver`] is that loop, resumable under a cycle budget: a budget
//! sliced into quanta steps exactly the schedule of one unbroken run.
//! [`run_workload`] runs it to completion and reports simulated cycles —
//! the Table I metric; a serving session runs it a quantum at a time, so
//! a served run matches the in-process run by construction.

use hmc_core::builder::TimedResponse;
use hmc_core::{HmcSim, ResponseInfo};
use hmc_types::{CubeId, Cycle, HmcError, Result};
use hmc_workloads::{MemOp, Workload};

use crate::host::Host;

/// Driver options. The run loop only reads the simulation it is handed:
/// engine mode, invariant checking, timing backend, fabric and fault
/// axes are the caller's `SimParams`, set on the sim before the run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Device the workload targets.
    pub target_cube: CubeId,
    /// Abort the run if it exceeds this many cycles (deadlock guard).
    pub max_cycles: u64,
    /// Progress callback interval in cycles (0 = no callbacks).
    pub progress_every: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            target_cube: 0,
            max_cycles: 1 << 34,
            progress_every: 0,
        }
    }
}

/// The outcome of a workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Simulated runtime in clock cycles (the Table I metric).
    pub cycles: Cycle,
    /// Requests accepted by the device.
    pub injected: u64,
    /// Responses received and correlated.
    pub completed: u64,
    /// Posted requests (fire-and-forget).
    pub posted: u64,
    /// Error responses observed.
    pub errors: u64,
    /// Send attempts that stalled.
    pub send_stalls: u64,
    /// Mean request latency in cycles.
    pub mean_latency: f64,
    /// Maximum request latency in cycles.
    pub max_latency: Cycle,
    /// Requests per cycle (throughput).
    pub throughput: f64,
    /// Protocol invariant violations observed (always zero unless the
    /// sim runs with `SimParams::check_invariants` set).
    pub invariant_violations: u64,
}

/// One input to the [`Driver`]: a memory op to inject, or an idle gap the
/// device runs through with no injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOp {
    /// A memory operation bound for the device.
    Mem(MemOp),
    /// Run the device this many cycles (zero: none) with no injection.
    /// The gap models think time: ops behind it wait the whole gap out.
    Idle(u64),
}

/// Why [`Driver::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The source ran dry, every response is home and the device is idle.
    Done,
    /// A step's response callback asked to stop (the step ran to its end).
    Halted,
    /// The cycle budget ran out with work remaining.
    Budget,
}

/// The resumable inject → clock → drain loop: the target device and the
/// unserved part of an idle gap (a refused op waits in the [`Host`]).
#[derive(Debug, Clone)]
pub struct Driver {
    target: CubeId,
    gap: u64,
}

impl Driver {
    /// A driver issuing toward device `target`.
    pub fn new(target: CubeId) -> Self {
        Driver { target, gap: 0 }
    }

    /// True while the driver has work of its own, whatever its source
    /// still holds: a gap to serve, a refused op to retry, a response
    /// outstanding, or a packet still in the device.
    pub fn busy(&self, sim: &HmcSim, host: &Host) -> bool {
        self.gap > 0 || host.holds_op() || host.outstanding() > 0 || !sim.is_idle()
    }

    /// Run steps until done, a step's `deliver` returned true, or `budget`
    /// cycles have elapsed. A step serves the idle gap drawn last (a cycle
    /// while anything is in flight, then one batch fast-forward may jump),
    /// or injects from `source` until a stall, a gap or a dry source and
    /// clocks once; either way it then drains every response into
    /// `deliver`. The run is done when a step's inject ran dry and nothing
    /// is [`busy`](Driver::busy), so posted traffic is settled by the same
    /// steps, under the same budget.
    pub fn run<S: FnMut() -> Option<SessionOp>, D: FnMut(&ResponseInfo, Cycle) -> bool>(
        &mut self,
        sim: &mut HmcSim,
        host: &mut Host,
        mut budget: u64,
        mut source: S,
        mut deliver: D,
    ) -> Result<Stop> {
        while budget > 0 {
            let mut dry = false;
            if self.gap > 0 {
                // Step while a response can still arrive; then jump.
                let advance = if host.outstanding() > 0 || !sim.is_idle() {
                    1
                } else {
                    self.gap.min(budget)
                };
                sim.clock_batch(advance)?;
                self.gap -= advance;
                budget -= advance;
            } else {
                let gap = &mut self.gap;
                dry = host.inject(sim, self.target, || loop {
                    match source()? {
                        SessionOp::Mem(op) => return Some(op),
                        SessionOp::Idle(0) => {}
                        SessionOp::Idle(n) => {
                            *gap = n;
                            return None;
                        }
                    }
                })? && self.gap == 0;
                sim.clock()?;
                budget -= 1;
            }
            let mut halt = false;
            host.drain_with(sim, |info, latency| halt |= deliver(info, latency))?;
            if dry && !self.busy(sim, host) {
                return Ok(Stop::Done);
            }
            if halt {
                return Ok(Stop::Halted);
            }
        }
        Ok(Stop::Budget)
    }
}

/// Run `workload` to completion through `host` against `sim`.
///
/// Returns the run report; fails with [`HmcError::Internal`] if the run,
/// settling its posted traffic included, exceeds `max_cycles` (a
/// deadlocked or misconfigured topology).
pub fn run_workload<W: Workload + ?Sized>(
    sim: &mut HmcSim,
    host: &mut Host,
    workload: &mut W,
    cfg: RunConfig,
) -> Result<RunReport> {
    run_workload_with_progress(sim, host, workload, cfg, |_, _| {})
}

/// [`run_workload`] that also captures every correlated response in the
/// exact order it came off the links: the in-process reference a served
/// run of the same workload must reproduce bit for bit.
pub fn run_workload_captured<W: Workload + ?Sized>(
    sim: &mut HmcSim,
    host: &mut Host,
    workload: &mut W,
    cfg: RunConfig,
) -> Result<(RunReport, Vec<TimedResponse>)> {
    let mut captured = Vec::new();
    let capture = |info: &ResponseInfo, latency| {
        captured.push(TimedResponse {
            info: info.clone(),
            latency,
        });
        false
    };
    let report = run_loop(sim, host, workload, cfg, |_, _| {}, capture)?;
    Ok((report, captured))
}

/// [`run_workload`] with a progress callback `(cycles_elapsed, injected)`,
/// invoked every `cfg.progress_every` cycles.
pub fn run_workload_with_progress<W: Workload + ?Sized, F: FnMut(Cycle, u64)>(
    sim: &mut HmcSim,
    host: &mut Host,
    workload: &mut W,
    cfg: RunConfig,
    progress: F,
) -> Result<RunReport> {
    run_loop(sim, host, workload, cfg, progress, |_, _| false)
}

/// [`Driver::run`] to completion, in quanta that end on every multiple of
/// `progress_every` and one cycle past `max_cycles`.
fn run_loop<W: Workload + ?Sized, F: FnMut(Cycle, u64), D: FnMut(&ResponseInfo, Cycle) -> bool>(
    sim: &mut HmcSim,
    host: &mut Host,
    workload: &mut W,
    cfg: RunConfig,
    mut progress: F,
    mut deliver: D,
) -> Result<RunReport> {
    let start_violations = sim.total_invariant_violations();
    let start_cycle = sim.current_clock();
    let start_stats = host.stats;
    let mut driver = Driver::new(cfg.target_cube);
    let mut stop = Stop::Budget;
    while stop != Stop::Done {
        let elapsed = sim.current_clock() - start_cycle;
        if elapsed > cfg.max_cycles {
            return Err(HmcError::Internal(format!(
                "workload run exceeded {} cycles with {} requests outstanding \
                 (deadlock or unreachable topology?)",
                cfg.max_cycles,
                host.outstanding()
            )));
        }
        let to_progress = elapsed
            .checked_rem(cfg.progress_every)
            .map_or(u64::MAX, |r| cfg.progress_every - r);
        let budget = to_progress.min((cfg.max_cycles - elapsed).saturating_add(1));
        let source = || workload.next_op().map(SessionOp::Mem);
        stop = driver.run(sim, host, budget, source, &mut deliver)?;
        let elapsed = sim.current_clock() - start_cycle;
        if cfg.progress_every > 0 && elapsed.is_multiple_of(cfg.progress_every) {
            progress(elapsed, host.stats.injected - start_stats.injected);
        }
    }

    // Every run steps at least one cycle.
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
        throughput: injected as f64 / cycles as f64,
        invariant_violations: sim.total_invariant_violations() - start_violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_core::{topology, SimParams};
    use hmc_types::{BlockSize, DeviceConfig};
    use hmc_workloads::{RandomAccess, Stream, StreamMode};

    /// A fresh one-device sim of `config` with its host, wired simply.
    fn wired(config: DeviceConfig) -> (HmcSim, Host) {
        let mut s = HmcSim::new(1, config).unwrap();
        let id = s.host_cube_id(0);
        topology::build_simple(&mut s, id).unwrap();
        let h = Host::attach(&s, id).unwrap();
        (s, h)
    }

    fn sim() -> HmcSim {
        wired(DeviceConfig::small().with_queue_depths(32, 16)).0
    }

    #[test]
    fn random_workload_runs_to_completion() {
        let mut s = sim();
        let mut h = Host::attach(&s, s.host_cube_id(0)).unwrap();
        let mut w = RandomAccess::new(1, 1 << 24, BlockSize::B64, 50, 2_000);
        let report = run_workload(&mut s, &mut h, &mut w, RunConfig::default()).unwrap();
        assert_eq!(report.injected, 2_000);
        assert_eq!(report.completed, 2_000);
        assert_eq!(report.errors, 0);
        assert!(report.cycles > 0);
        assert!(report.throughput > 0.0);
        assert!(s.is_idle(), "run must drain the device");
    }

    #[test]
    fn stream_workload_runs_to_completion() {
        let mut s = sim();
        let mut h = Host::attach(&s, s.host_cube_id(0)).unwrap();
        let mut w = Stream::unit(1 << 20, BlockSize::B64, StreamMode::Copy, 1_000);
        let report = run_workload(&mut s, &mut h, &mut w, RunConfig::default()).unwrap();
        assert_eq!(report.completed, 1_000);
        assert!(report.mean_latency >= 1.0);
        assert!(report.max_latency >= 1);
    }

    #[test]
    fn max_cycles_guard_fires() {
        let mut s = sim();
        let mut h = Host::attach(&s, s.host_cube_id(0)).unwrap();
        let mut w = RandomAccess::new(1, 1 << 24, BlockSize::B64, 50, 100_000);
        let cfg = RunConfig {
            max_cycles: 10,
            ..RunConfig::default()
        };
        assert!(matches!(
            run_workload(&mut s, &mut h, &mut w, cfg),
            Err(HmcError::Internal(_))
        ));
    }

    #[test]
    fn progress_callback_is_invoked() {
        let mut s = sim();
        let mut h = Host::attach(&s, s.host_cube_id(0)).unwrap();
        let mut w = RandomAccess::new(2, 1 << 24, BlockSize::B64, 50, 3_000);
        let mut calls = 0;
        let cfg = RunConfig {
            progress_every: 10,
            ..RunConfig::default()
        };
        run_workload_with_progress(&mut s, &mut h, &mut w, cfg, |_, _| calls += 1).unwrap();
        assert!(calls > 0);
    }

    #[test]
    fn captured_run_matches_the_plain_run() {
        let mut s = sim();
        let mut h = Host::attach(&s, s.host_cube_id(0)).unwrap();
        let mut w = RandomAccess::new(7, 1 << 24, BlockSize::B64, 50, 800);
        let (report, captured) =
            run_workload_captured(&mut s, &mut h, &mut w, RunConfig::default()).unwrap();
        assert_eq!(captured.len() as u64, report.completed);
        // Same seed through the plain runner: identical report, and the
        // capture must not have perturbed the schedule.
        s.reset();
        let mut h2 = Host::attach(&s, s.host_cube_id(0)).unwrap();
        let mut w2 = RandomAccess::new(7, 1 << 24, BlockSize::B64, 50, 800);
        let plain = run_workload(&mut s, &mut h2, &mut w2, RunConfig::default()).unwrap();
        assert_eq!(report, plain);
    }

    #[test]
    fn fast_forward_runs_produce_identical_reports() {
        let mut s = sim();
        let mut h = Host::attach(&s, s.host_cube_id(0)).unwrap();
        let mut w = RandomAccess::new(11, 1 << 24, BlockSize::B64, 50, 1_200);
        let stepped = run_workload(&mut s, &mut h, &mut w, RunConfig::default()).unwrap();

        s.reset();
        let mut h2 = Host::attach(&s, s.host_cube_id(0)).unwrap();
        let mut w2 = RandomAccess::new(11, 1 << 24, BlockSize::B64, 50, 1_200);
        s.set_params(SimParams {
            fast_forward: true,
            ..*s.params()
        });
        let fast = run_workload(&mut s, &mut h2, &mut w2, RunConfig::default()).unwrap();
        assert_eq!(stepped, fast);
    }

    #[test]
    fn back_to_back_runs_are_independent() {
        let mut s = sim();
        let mut h = Host::attach(&s, s.host_cube_id(0)).unwrap();
        let mut w1 = RandomAccess::new(3, 1 << 24, BlockSize::B64, 50, 500);
        let r1 = run_workload(&mut s, &mut h, &mut w1, RunConfig::default()).unwrap();
        let mut w2 = RandomAccess::new(3, 1 << 24, BlockSize::B64, 50, 500);
        let r2 = run_workload(&mut s, &mut h, &mut w2, RunConfig::default()).unwrap();
        assert_eq!(r1.injected, r2.injected);
        assert_eq!(r1.completed, 500);
        assert_eq!(r2.completed, 500);
    }

    fn posted_writes() -> RandomAccess {
        RandomAccess::new(42, 1 << 24, BlockSize::B64, 0, 2_000).with_posted_writes(true)
    }

    #[test]
    fn the_settle_obeys_the_cycle_guard() {
        // 2,000 posted writes leave the device busy after the last inject;
        // settling them takes past 20 cycles, which the guard must see.
        let (mut s, mut h) = wired(DeviceConfig::by_name("4l8b").unwrap());
        let mut w = posted_writes();
        let cfg = RunConfig {
            max_cycles: 20,
            ..RunConfig::default()
        };
        let run = run_workload(&mut s, &mut h, &mut w, cfg);
        assert!(matches!(run, Err(HmcError::Internal(_))), "{run:?}");

        let (mut s, mut h) = wired(DeviceConfig::by_name("4l8b").unwrap());
        let mut w = posted_writes();
        let report = run_workload(&mut s, &mut h, &mut w, RunConfig::default()).unwrap();
        assert!(report.cycles > 20 && s.is_idle(), "{report:?}");
    }

    /// Everything a run leaves behind: cycles, host counters, latency
    /// mean and max, and the correlated responses in arrival order.
    type Responses = Vec<(u16, Vec<u8>, Cycle)>;
    type Trace = (Cycle, crate::HostStats, f64, Cycle, Responses);

    /// `ops` through a fresh sim's [`Driver`], in quanta of `budget`.
    fn sliced(ops: &[SessionOp], budget: u64) -> Trace {
        let (mut s, mut h) = wired(DeviceConfig::small().with_queue_depths(32, 16));
        let (mut driver, mut ops, mut got) = (Driver::new(0), ops.iter().copied(), Vec::new());
        let mut deliver = |info: &ResponseInfo, latency| {
            got.push((info.tag, info.data.clone(), latency));
            false
        };
        let mut source = || ops.next();
        while driver
            .run(&mut s, &mut h, budget, &mut source, &mut deliver)
            .unwrap()
            != Stop::Done
        {}
        let cycles = s.current_clock();
        (cycles, h.stats, h.latency.mean(), h.latency.max, got)
    }

    #[test]
    fn quanta_are_invisible() {
        let workload = || RandomAccess::new(9, 1 << 24, BlockSize::B64, 50, 1_500);
        let workload = || workload().with_posted_writes(true);
        let plain: Vec<SessionOp> = std::iter::from_fn({
            let mut w = workload();
            move || w.next_op()
        })
        .map(SessionOp::Mem)
        .collect();
        // The same stream with a gap after every 200 ops and at the end.
        let gapped: Vec<SessionOp> = plain
            .chunks(200)
            .flat_map(|c| c.iter().copied().chain([SessionOp::Idle(333)]))
            .collect();

        let (mut s, mut h) = wired(DeviceConfig::small().with_queue_depths(32, 16));
        let (report, captured) =
            run_workload_captured(&mut s, &mut h, &mut workload(), RunConfig::default()).unwrap();
        let whole = sliced(&plain, u64::MAX);
        let captured: Vec<_> = captured
            .into_iter()
            .map(|r| (r.info.tag, r.info.data, r.latency))
            .collect();
        assert_eq!(
            (
                report.cycles,
                report.injected,
                report.posted,
                report.send_stalls
            ),
            (
                whole.0,
                whole.1.injected,
                whole.1.posted,
                whole.1.send_stalls
            )
        );
        assert_eq!(
            (report.mean_latency, report.max_latency),
            (whole.2, whole.3)
        );
        assert_eq!(captured, whole.4);
        assert!(
            whole.1.send_stalls > 0 && whole.1.posted > 0,
            "{:?}",
            whole.1
        );

        let gapped_whole = sliced(&gapped, u64::MAX);
        assert!(gapped_whole.0 > whole.0.max(8 * 333), "the gaps elapsed");
        for budget in [1, 7, 4_096] {
            assert_eq!(sliced(&plain, budget), whole, "budget {budget}");
            assert_eq!(
                sliced(&gapped, budget),
                gapped_whole,
                "gapped, budget {budget}"
            );
        }
    }
}
