//! One serving session: a private simulated device plus the host-side
//! state that pumps client-submitted operations through it.
//!
//! Determinism contract: the pump is `hmc_host`'s [`Driver`] — the one
//! inject → clock → drain loop `hmc_host::run_workload` runs — stepped
//! one quantum at a time over the session's inflight queue. A budget
//! sliced into quanta steps exactly the schedule of one unbroken run, so
//! responses seen through the service are bit-identical (tag, data,
//! latency, order) to an in-process driver run, and so is the cycle
//! count. Sessions built under server parameters with
//! `SimParams::fast_forward` set arm the engine's event-driven
//! fast-forward mode, which jumps the dead cycles of client-scheduled
//! [`SessionOp::Idle`] gaps without changing any observable.

use std::collections::VecDeque;

use hmc_core::{topology, HmcSim, SimParams};
use hmc_host::{Driver, Host, SessionOp, Stop};
use hmc_types::{
    BlockSize, DeviceConfig, HmcError, PhysAddr, Result, WireOp, WireResponse, WireStats,
    MAX_FRAME_LEN,
};
use hmc_workloads::{MemOp, OpKind, Workload};

/// Per-session limits and pacing, fixed at open time.
#[derive(Debug, Clone, Copy)]
pub struct SessionLimits {
    /// Bound on queued-but-not-yet-injected operations. Submissions past
    /// this bound are rejected with BUSY, never buffered.
    pub inflight_limit: usize,
    /// Bound on buffered completed responses. The pump pauses when the
    /// buffer is full and resumes as the client polls it down.
    pub response_limit: usize,
    /// Cycles one scheduling quantum may execute before the worker yields
    /// the session back to the run queue.
    pub slice_cycles: u64,
}

impl Default for SessionLimits {
    fn default() -> Self {
        SessionLimits {
            inflight_limit: 4096,
            response_limit: 8192,
            slice_cycles: 4096,
        }
    }
}

/// Why the pump stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpOutcome {
    /// Nothing left to do: no queued ops, no outstanding tags, device
    /// quiescent. The session leaves the run queue until new work arrives.
    Idle,
    /// The response buffer reached its bound; pumping resumes after the
    /// client polls responses off.
    Paused,
    /// The slice budget ran out with work remaining; reschedule.
    Working,
}

/// Convert a wire operation into a [`SessionOp`].
pub fn wire_to_session_op(op: &WireOp) -> Result<SessionOp> {
    if op.kind == WireOp::KIND_IDLE {
        if op.addr == 0 {
            return Err(HmcError::Wire("idle gap of zero cycles".into()));
        }
        return Ok(SessionOp::Idle(op.addr));
    }
    wire_to_memop(op).map(SessionOp::Mem)
}

/// Convert a wire operation into a [`MemOp`]. Idle gaps are not memory
/// operations and are rejected here; use [`wire_to_session_op`] for the
/// full session vocabulary. So is an address past the 34-bit HMC address
/// field, which no request packet can carry.
pub fn wire_to_memop(op: &WireOp) -> Result<MemOp> {
    if op.addr > PhysAddr::MAX {
        return Err(HmcError::Wire(format!(
            "address {:#x} exceeds the 34-bit HMC address field",
            op.addr
        )));
    }
    let kind = match op.kind {
        WireOp::KIND_READ => OpKind::Read,
        WireOp::KIND_WRITE => OpKind::Write,
        WireOp::KIND_POSTED_WRITE => OpKind::PostedWrite,
        WireOp::KIND_TWO_ADD8 => OpKind::TwoAdd8,
        WireOp::KIND_ADD16 => OpKind::Add16,
        WireOp::KIND_BIT_WRITE => OpKind::BitWrite,
        other => return Err(HmcError::Wire(format!("unknown op kind {other}"))),
    };
    let size = BlockSize::from_bytes(op.size_bytes as usize)
        .map_err(|e| HmcError::Wire(e.to_string()))?;
    Ok(MemOp {
        kind,
        addr: op.addr,
        size,
    })
}

/// Convert a [`MemOp`] into its wire form.
pub fn memop_to_wire(op: &MemOp) -> WireOp {
    let kind = match op.kind {
        OpKind::Read => WireOp::KIND_READ,
        OpKind::Write => WireOp::KIND_WRITE,
        OpKind::PostedWrite => WireOp::KIND_POSTED_WRITE,
        OpKind::TwoAdd8 => WireOp::KIND_TWO_ADD8,
        OpKind::Add16 => WireOp::KIND_ADD16,
        OpKind::BitWrite => WireOp::KIND_BIT_WRITE,
    };
    WireOp {
        kind,
        addr: op.addr,
        size_bytes: op.size.bytes() as u16,
    }
}

/// Convert a whole workload into wire operations (loadgen, tests).
pub fn workload_to_wire(workload: &mut dyn Workload) -> Vec<WireOp> {
    let mut ops = Vec::new();
    while let Some(op) = workload.next_op() {
        ops.push(memop_to_wire(&op));
    }
    ops
}

/// One session's simulation and queues. Owned behind the manager's
/// per-session mutex; all methods take `&mut self`.
pub struct SessionState {
    sim: HmcSim,
    host: Host,
    driver: Driver,
    limits: SessionLimits,
    /// Ops admitted but not yet drawn by the driver, in issue order (a
    /// stalled op waits in the host, which retries it first).
    inflight: VecDeque<SessionOp>,
    /// Completed responses awaiting a client poll.
    responses: VecDeque<WireResponse>,
}

impl SessionState {
    /// Build a fresh single-device session from a validated config.
    pub fn new(config: DeviceConfig, limits: SessionLimits) -> Result<SessionState> {
        SessionState::with_params(config, limits, SimParams::default())
    }

    /// [`SessionState::new`] under server-wide simulation parameters.
    /// Precedence is *defaults < server parameters < session config*:
    /// the axes a `DeviceConfig` carries (timing backend, fabric, and
    /// its fault blocks when set) are laid over `params`.
    pub fn with_params(
        config: DeviceConfig,
        limits: SessionLimits,
        params: SimParams,
    ) -> Result<SessionState> {
        let params = params.with_device_axes(&config);
        let mut sim = HmcSim::new(1, config)?.with_params(params);
        let host_id = sim.host_cube_id(0);
        topology::build_simple(&mut sim, host_id)?;
        let host = Host::attach(&sim, host_id)?;
        Ok(SessionState {
            sim,
            host,
            driver: Driver::new(0),
            limits,
            inflight: VecDeque::new(),
            responses: VecDeque::new(),
        })
    }

    /// Free slots in the inflight queue.
    pub fn queue_free(&self) -> usize {
        self.limits
            .inflight_limit
            .saturating_sub(self.inflight.len())
    }

    /// Admit a prefix of `ops` bounded by the inflight queue's free space.
    /// Returns how many were admitted (0 means the caller should send
    /// BUSY). Malformed ops fail the whole batch before any admission.
    pub fn submit(&mut self, ops: &[WireOp]) -> Result<usize> {
        let mut decoded = Vec::with_capacity(ops.len());
        for op in ops {
            decoded.push(wire_to_session_op(op)?);
        }
        let take = decoded.len().min(self.queue_free());
        self.inflight.extend(decoded.drain(..take));
        Ok(take)
    }

    /// Move up to `max` buffered responses out, oldest first, as many as
    /// one `Responses` frame carries: the prefix whose encoding fits
    /// [`MAX_FRAME_LEN`], and always at least one. The rest stay
    /// buffered for the next poll.
    pub fn take_responses(&mut self, max: usize) -> Vec<WireResponse> {
        let mut room = MAX_FRAME_LEN as usize - WireResponse::FRAME_OVERHEAD;
        let mut n = 0;
        for r in self.responses.iter().take(max.max(1)) {
            if n > 0 && r.encoded_len() > room {
                break;
            }
            room = room.saturating_sub(r.encoded_len());
            n += 1;
        }
        self.responses.drain(..n).collect()
    }

    /// Completed responses awaiting a poll.
    pub fn buffered(&self) -> usize {
        self.responses.len()
    }

    /// True while ops are queued or the driver is busy; a session without
    /// work is drained (buffered responses may still await a poll).
    pub fn has_work(&self) -> bool {
        !self.inflight.is_empty() || self.driver.busy(&self.sim, &self.host)
    }

    /// True when the response buffer has reached its bound.
    pub fn paused(&self) -> bool {
        self.responses.len() >= self.limits.response_limit
    }

    /// Requests currently awaiting device responses.
    pub fn outstanding(&self) -> usize {
        self.host.outstanding()
    }

    /// Execute one scheduling quantum: up to `limits.slice_cycles` cycles
    /// of the [`Driver`] over the inflight queue, responses into the
    /// buffer. It ends early when a step fills the buffer to its bound
    /// (`Paused`) or the session runs dry (`Idle`).
    pub fn pump(&mut self) -> Result<PumpOutcome> {
        if self.paused() {
            return Ok(PumpOutcome::Paused);
        }
        if !self.has_work() {
            return Ok(PumpOutcome::Idle);
        }
        let (inflight, responses) = (&mut self.inflight, &mut self.responses);
        let limit = self.limits.response_limit;
        let stop = self.driver.run(
            &mut self.sim,
            &mut self.host,
            self.limits.slice_cycles.max(1),
            || inflight.pop_front(),
            |info, latency| {
                responses.push_back(WireResponse {
                    tag: info.tag,
                    ok: info.is_ok(),
                    status: info.status.encode(),
                    latency,
                    data: info.data.clone(),
                });
                responses.len() >= limit
            },
        )?;
        Ok(match stop {
            Stop::Done => PumpOutcome::Idle,
            Stop::Halted => PumpOutcome::Paused,
            Stop::Budget => PumpOutcome::Working,
        })
    }

    /// A point-in-time metrics snapshot.
    pub fn snapshot(&self) -> WireStats {
        let hs = self.host.stats;
        let ss = self.sim.stats();
        WireStats {
            cycles: ss.cycles,
            injected: hs.injected,
            completed: hs.completed,
            posted: hs.posted,
            errors: hs.errors,
            send_stalls: hs.send_stalls,
            tag_stalls: hs.tag_stalls,
            token_stalls: ss.token_stalls,
            orphans: hs.orphans,
            outstanding: self.host.outstanding() as u32,
            queue_occupancy: self.sim.total_occupancy() as u32,
            inflight: (self.inflight.len() + usize::from(self.host.holds_op())) as u32,
            buffered_responses: self.responses.len() as u32,
            mean_latency: self.host.latency.mean(),
            max_latency: self.host.latency.max,
            hammer_activations: ss.hammer_activations,
            bit_flips: ss.bit_flips,
            trr_refreshes: ss.trr_refreshes,
            retention_decays: ss.retention_decays,
            link_retries: ss.link_retries,
            link_retrains: ss.link_retrains,
            poisoned_responses: ss.poisoned_responses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_workloads::WorkloadSpec;

    fn small_session(limits: SessionLimits) -> SessionState {
        SessionState::new(DeviceConfig::small(), limits).unwrap()
    }

    fn pump_to_idle(s: &mut SessionState) {
        for _ in 0..10_000 {
            match s.pump().unwrap() {
                PumpOutcome::Idle => return,
                PumpOutcome::Paused => panic!("unexpected pause"),
                PumpOutcome::Working => {}
            }
        }
        panic!("session never went idle");
    }

    #[test]
    fn op_conversion_roundtrips() {
        for kind in [
            OpKind::Read,
            OpKind::Write,
            OpKind::PostedWrite,
            OpKind::TwoAdd8,
            OpKind::Add16,
            OpKind::BitWrite,
        ] {
            let op = MemOp {
                kind,
                addr: 0x1000,
                size: BlockSize::B64,
            };
            assert_eq!(wire_to_memop(&memop_to_wire(&op)).unwrap(), op);
        }
        assert!(wire_to_memop(&WireOp {
            kind: 99,
            addr: 0,
            size_bytes: 64
        })
        .is_err());
        assert!(wire_to_memop(&WireOp {
            kind: WireOp::KIND_READ,
            addr: 0,
            size_bytes: 17
        })
        .is_err());
    }

    #[test]
    fn a_batch_runs_to_idle_and_answers_everything() {
        let mut s = small_session(SessionLimits::default());
        let mut w = WorkloadSpec::new("random", 5, 1 << 24, 1_000).build().unwrap();
        let ops = workload_to_wire(w.as_mut());
        let expected = ops
            .iter()
            .filter(|o| wire_to_memop(o).unwrap().expects_response())
            .count();
        assert_eq!(s.submit(&ops).unwrap(), ops.len());
        pump_to_idle(&mut s);
        assert_eq!(s.responses.len(), expected);
        assert_eq!(s.outstanding(), 0);
        let snap = s.snapshot();
        assert_eq!(snap.completed as usize, expected);
        assert_eq!(snap.orphans, 0);
        assert!(snap.cycles > 0);
    }

    #[test]
    fn submissions_beyond_the_inflight_bound_are_clipped() {
        let limits = SessionLimits {
            inflight_limit: 16,
            ..SessionLimits::default()
        };
        let mut s = small_session(limits);
        let ops: Vec<WireOp> = (0..40)
            .map(|i| WireOp {
                kind: WireOp::KIND_READ,
                addr: i * 64,
                size_bytes: 64,
            })
            .collect();
        assert_eq!(s.submit(&ops).unwrap(), 16);
        assert_eq!(s.queue_free(), 0);
        assert_eq!(s.submit(&ops).unwrap(), 0, "full queue admits nothing");
        pump_to_idle(&mut s);
        assert_eq!(s.queue_free(), 16);
    }

    #[test]
    fn the_pump_pauses_on_a_full_response_buffer() {
        let limits = SessionLimits {
            response_limit: 8,
            ..SessionLimits::default()
        };
        let mut s = small_session(limits);
        let ops: Vec<WireOp> = (0..64)
            .map(|i| WireOp {
                kind: WireOp::KIND_READ,
                addr: i * 64,
                size_bytes: 64,
            })
            .collect();
        assert_eq!(s.submit(&ops).unwrap(), 64);
        let mut paused = false;
        for _ in 0..10_000 {
            match s.pump().unwrap() {
                PumpOutcome::Paused => {
                    paused = true;
                    break;
                }
                PumpOutcome::Idle => break,
                PumpOutcome::Working => {}
            }
        }
        assert!(paused, "an 8-deep buffer must pause a 64-read batch");
        assert!(s.responses.len() >= 8);
        // Polling responses off unblocks the pump.
        let mut got = s.take_responses(64).len();
        for _ in 0..10_000 {
            match s.pump().unwrap() {
                PumpOutcome::Idle => break,
                _ => got += s.take_responses(64).len(),
            }
        }
        got += s.take_responses(64).len();
        assert_eq!(got, 64);
    }

    #[test]
    fn malformed_ops_fail_the_whole_batch_atomically() {
        let mut s = small_session(SessionLimits::default());
        let ops = [
            WireOp {
                kind: WireOp::KIND_READ,
                addr: 0,
                size_bytes: 64,
            },
            WireOp {
                kind: 200,
                addr: 64,
                size_bytes: 64,
            },
        ];
        assert!(s.submit(&ops).is_err());
        assert_eq!(s.queue_free(), SessionLimits::default().inflight_limit);
        assert!(!s.has_work());

        // An address no request packet can carry is malformed too, not a
        // pump error after admission.
        let ops = [
            ops[0],
            WireOp {
                kind: WireOp::KIND_READ,
                addr: 1 << 34,
                size_bytes: 64,
            },
        ];
        let err = s.submit(&ops).unwrap_err();
        assert!(
            matches!(&err, HmcError::Wire(m) if m.contains("0x400000000")),
            "{err}"
        );
        assert_eq!(s.queue_free(), SessionLimits::default().inflight_limit);
        assert!(!s.has_work());
        assert_eq!(s.outstanding(), 0);
    }

    #[test]
    fn idle_gaps_advance_the_device_without_injection() {
        let mut s = small_session(SessionLimits::default());
        let read = |i: u64| WireOp {
            kind: WireOp::KIND_READ,
            addr: i * 64,
            size_bytes: 64,
        };
        let mut ops: Vec<WireOp> = (0..8).map(read).collect();
        ops.push(WireOp::idle(50_000));
        ops.extend((8..16).map(read));
        assert_eq!(s.submit(&ops).unwrap(), ops.len());
        pump_to_idle(&mut s);
        let snap = s.snapshot();
        assert!(
            snap.cycles >= 50_000,
            "the gap must elapse on the device clock, got {}",
            snap.cycles
        );
        assert_eq!(s.take_responses(100).len(), 16, "gaps answer nothing");
        assert_eq!(snap.completed, 16);
    }

    #[test]
    fn fast_forward_sessions_are_bit_identical_to_stepped() {
        let run = |fast_forward: bool| {
            let params = SimParams {
                fast_forward,
                ..SimParams::default()
            };
            let mut s =
                SessionState::with_params(DeviceConfig::small(), SessionLimits::default(), params)
                    .unwrap();
            let mut ops = Vec::new();
            for i in 0u64..24 {
                ops.push(WireOp {
                    kind: if i % 3 == 0 {
                        WireOp::KIND_WRITE
                    } else {
                        WireOp::KIND_READ
                    },
                    addr: i * 128,
                    size_bytes: 64,
                });
                if i % 6 == 5 {
                    ops.push(WireOp::idle(9_000));
                }
            }
            assert_eq!(s.submit(&ops).unwrap(), ops.len());
            pump_to_idle(&mut s);
            let responses = s.take_responses(1_000);
            (responses, s.snapshot())
        };
        let (stepped_rsp, stepped_snap) = run(false);
        let (fast_rsp, fast_snap) = run(true);
        assert_eq!(stepped_rsp, fast_rsp, "responses must match exactly");
        assert_eq!(stepped_snap.cycles, fast_snap.cycles);
        assert_eq!(stepped_snap.completed, fast_snap.completed);
        assert_eq!(stepped_snap.mean_latency, fast_snap.mean_latency);
        assert!(stepped_snap.cycles >= 4 * 9_000, "the gaps elapsed");
    }

    #[test]
    fn zero_cycle_idle_gaps_fail_the_batch() {
        let mut s = small_session(SessionLimits::default());
        let ops = [
            WireOp {
                kind: WireOp::KIND_READ,
                addr: 0,
                size_bytes: 64,
            },
            WireOp::idle(0),
        ];
        assert!(s.submit(&ops).is_err());
        assert!(!s.has_work(), "atomic rejection admits nothing");
        assert!(wire_to_memop(&WireOp::idle(5)).is_err(), "not a memory op");
        assert_eq!(
            wire_to_session_op(&WireOp::idle(5)).unwrap(),
            SessionOp::Idle(5)
        );
    }

    #[test]
    fn hammer_sessions_report_fault_stats_and_trr_suppresses_flips() {
        use hmc_types::{CellFaultConfig, Mitigation};
        let run = |mitigation: Mitigation| {
            let faults = CellFaultConfig::default()
                .with_hammer_threshold(64)
                .with_flip_prob_ppm(1_000_000)
                .with_mitigation(mitigation);
            let config = DeviceConfig::small().with_cell_faults(Some(faults));
            let geometry = config.geometry();
            let mut s = SessionState::new(config, SessionLimits::default()).unwrap();
            let mut w = WorkloadSpec::new("hammer", 1, 1 << 24, 2_000)
                .with_geometry(geometry)
                .build()
                .unwrap();
            let ops = workload_to_wire(w.as_mut());
            assert_eq!(s.submit(&ops).unwrap(), ops.len());
            loop {
                match s.pump().unwrap() {
                    PumpOutcome::Idle => break,
                    _ => {
                        s.take_responses(usize::MAX);
                    }
                }
            }
            s.snapshot()
        };
        let unmitigated = run(Mitigation::None);
        assert!(unmitigated.hammer_activations > 0, "activations must be counted");
        assert!(unmitigated.bit_flips > 0, "hammering must flip bits over the wire");
        let mitigated = run(Mitigation::Trr);
        assert_eq!(mitigated.bit_flips, 0, "TRR at spec threshold must prevent flips");
        assert!(mitigated.trr_refreshes > 0, "TRR must actually fire");
    }

    #[test]
    fn posted_only_batches_quiesce() {
        let mut s = small_session(SessionLimits::default());
        let ops: Vec<WireOp> = (0..32)
            .map(|i| WireOp {
                kind: WireOp::KIND_POSTED_WRITE,
                addr: i * 64,
                size_bytes: 64,
            })
            .collect();
        s.submit(&ops).unwrap();
        pump_to_idle(&mut s);
        assert!(s.take_responses(100).is_empty(), "posted ops answer nothing");
        let snap = s.snapshot();
        assert_eq!(snap.posted, 32);
        assert_eq!(snap.queue_occupancy, 0);
    }
}
