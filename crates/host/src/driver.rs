//! The inject-until-stall run loop.
//!
//! Reproduces the control flow of the paper's random-access test
//! application (§VI.A): each cycle the host sends as many requests as the
//! device accepts, clocks the simulation once, and drains responses; the
//! run completes when the workload is exhausted and every response has
//! returned. The report carries the simulated runtime in clock cycles —
//! the quantity Table I compares across device configurations.

use hmc_core::builder::TimedResponse;
use hmc_core::HmcSim;
use hmc_types::{CubeId, Cycle, HmcError, Result};
use hmc_workloads::Workload;

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

/// Run `workload` to completion through `host` against `sim`.
///
/// Returns the run report; fails with [`HmcError::Internal`] if the run
/// exceeds `max_cycles` (a deadlocked or misconfigured topology).
pub fn run_workload<W: Workload + ?Sized>(
    sim: &mut HmcSim,
    host: &mut Host,
    workload: &mut W,
    cfg: RunConfig,
) -> Result<RunReport> {
    run_workload_with_progress(sim, host, workload, cfg, |_, _| {})
}

/// [`run_workload`] that also captures every correlated response in the
/// exact order it came off the links.
///
/// This is the in-process reference for the serving path's differential
/// check: the same workload run through a loopback `hmc-serve` session
/// must produce a bit-identical response sequence (tag, data, order).
pub fn run_workload_captured<W: Workload + ?Sized>(
    sim: &mut HmcSim,
    host: &mut Host,
    workload: &mut W,
    cfg: RunConfig,
) -> Result<(RunReport, Vec<TimedResponse>)> {
    let mut captured = Vec::new();
    let report = run_loop(sim, host, workload, cfg, |_, _| {}, Some(&mut captured))?;
    Ok((report, captured))
}

/// [`run_workload`] with a progress callback `(cycles_elapsed, injected)`,
/// invoked every `cfg.progress_every` cycles.
pub fn run_workload_with_progress<W, F>(
    sim: &mut HmcSim,
    host: &mut Host,
    workload: &mut W,
    cfg: RunConfig,
    progress: F,
) -> Result<RunReport>
where
    W: Workload + ?Sized,
    F: FnMut(Cycle, u64),
{
    run_loop(sim, host, workload, cfg, progress, None)
}

fn run_loop<W, F>(
    sim: &mut HmcSim,
    host: &mut Host,
    workload: &mut W,
    cfg: RunConfig,
    mut progress: F,
    mut capture: Option<&mut Vec<TimedResponse>>,
) -> Result<RunReport>
where
    W: Workload + ?Sized,
    F: FnMut(Cycle, u64),
{
    let start_violations = sim.total_invariant_violations();
    let start_cycle = sim.current_clock();
    let start_stats = host.stats;

    loop {
        let exhausted = host.inject(sim, cfg.target_cube, || workload.next_op())?;

        sim.clock()?;
        match capture {
            Some(ref mut sink) => {
                host.drain_with(sim, |info, latency| {
                    sink.push(TimedResponse {
                        info: info.clone(),
                        latency,
                    })
                })?;
            }
            None => {
                host.drain(sim)?;
            }
        }

        let elapsed = sim.current_clock() - start_cycle;
        if cfg.progress_every > 0 && elapsed.is_multiple_of(cfg.progress_every) {
            progress(elapsed, host.stats.injected - start_stats.injected);
        }

        if exhausted && host.outstanding() == 0 {
            // Posted traffic may still be in flight inside the device;
            // drain it so back-to-back runs start clean.
            // (Posted responses never correlate, so the capture sink is
            // not needed here — but keep the schedule identical anyway.)
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
                "workload run exceeded {} cycles with {} requests outstanding \
                 (deadlock or unreachable topology?)",
                cfg.max_cycles,
                host.outstanding()
            )));
        }
    }

    let cycles = sim.current_clock() - start_cycle;
    let injected = host.stats.injected - start_stats.injected;
    let completed = host.stats.completed - start_stats.completed;
    Ok(RunReport {
        cycles,
        injected,
        completed,
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

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_core::{topology, SimParams};
    use hmc_types::{BlockSize, DeviceConfig};
    use hmc_workloads::{RandomAccess, Stream, StreamMode};

    fn sim() -> HmcSim {
        let mut s = HmcSim::new(
            1,
            DeviceConfig::small().with_queue_depths(32, 16),
        )
        .unwrap();
        let host = s.host_cube_id(0);
        topology::build_simple(&mut s, host).unwrap();
        s
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
}
