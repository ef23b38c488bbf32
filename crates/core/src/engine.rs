//! The clock engine.
//!
//! One call to [`HmcSim::clock`] runs the six sub-cycle stages of paper
//! §IV.C once, in order, on the calling thread ([`HmcSim::clock_cycle`]):
//! the crossbar request walks of stages 1 and 2 and the NoC sub-stage
//! ([`crate::stages`]), stages 3 and 4 for every vault in flat vault
//! order ([`tick_vault`]), the root-first response registration of
//! stage 5, and the stage-6 clock update. [`HmcSim::clock_batch`] is the
//! only loop over cycles; with [`SimParams::fast_forward`] set it asks
//! [`HmcSim::quiescent_horizon`] before each cycle how many upcoming
//! cycles are provably dead and jumps them instead of stepping them.
//! DESIGN.md "One cycle path" records why there is no second,
//! intra-cycle-parallel engine.
//!
//! **Why vault events are staged.** [`tick_vault`] visits a vault once
//! and runs its stage 3 and its stage 4 back to back, but the trace
//! (paper §IV.E) lists a cycle's events in sub-cycle order: every
//! vault's stage-3 conflicts before any vault's stage-4 completions. The
//! walk therefore stages the two kinds into separate [`EventStage`]
//! buffers and the cycle flushes conflicts, then completions, before
//! stage 5 emits anything. Nothing else is staged: counters and the
//! error register are updated where the event happens.
//!
//! **Zero-allocation hot path.** The per-cycle buffers (the two event
//! stages and the stage-1/2 forward staging) live in [`EngineScratch`]
//! and are reused with retained capacity; the steady-state `clock()`
//! performs no heap allocation (`tests/zero_alloc.rs`).
//!
//! [`SimParams::fast_forward`]: crate::params::SimParams::fast_forward

use hmc_trace::{EventKind, EventStage, TraceEvent};
use hmc_types::address::AddressMap;
use hmc_types::{CubeId, Cycle, QuadId, Result, VaultId};

use crate::device::Device;
use crate::link::Endpoint;
use crate::params::{ConflictPolicy, RefreshParams};
use crate::quad::Quad;
use crate::queue::{QueueEntry, NO_ROUTE, UNDECODED};
use crate::register::{regs, RegisterFile};
use crate::sim::{HmcSim, SimStats};
use crate::timing::RowOutcome;
use crate::vault::{Execution, Vault};

/// Read-only per-cycle inputs of [`tick_vault`], resolved once per cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CycleInputs {
    clock: Cycle,
    conflicts_enabled: bool,
    /// Row-buffer trace events (RowHit/RowMiss/Precharge) are enabled on
    /// the sink; the `SimStats` row counters bump regardless.
    row_events: bool,
    window: usize,
    banks: u16,
    policy: ConflictPolicy,
    refresh: Option<RefreshParams>,
    /// RowHammerFlip/TargetedRefresh trace events are enabled on the
    /// sink; the `SimStats` fault counters bump regardless.
    fault_events: bool,
}

/// One gate's verdict on the upcoming cycles, as folded by
/// [`HmcSim::quiescent_horizon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// The next cycle may do observable work and must run stepped.
    Live,
    /// Provably idle for this many cycles (at least one); the cycle
    /// after them may be live.
    Held(u64),
    /// Idle for as long as every other gate is: nothing here can change
    /// before some other gate's edge fires, so it contributes no wake-up
    /// edge of its own.
    Inert,
}

/// Reusable per-simulation scratch buffers (owned by [`HmcSim`]).
#[derive(Debug, Default)]
pub(crate) struct EngineScratch {
    /// Stage-3 conflict events, staged in flat vault order.
    pub(crate) conflicts: EventStage,
    /// Stage-4 completion/stall/error events, staged in flat vault order.
    pub(crate) completions: EventStage,
    /// Stage-1/2 deferred chain-forward staging.
    pub(crate) forwards: Vec<(QueueEntry, usize, usize)>,
}

/// Stages 3 and 4 for one vault: bank-conflict recognition over the
/// spatial window (trace only, §IV.C.3), then the windowed request walk
/// (§IV.C.4). Trace events are staged, not emitted (see the module doc);
/// `stats` and the device's error register are updated in place.
///
/// Timing decisions inside the walk are delegated to the vault's
/// [`crate::timing::VaultTiming`] backend: a bank that already issued
/// this cycle (classic) or is paying DDR command spacing answers
/// `blocked_until(..) != None` and its packet stalls exactly like the
/// original `used`-bitmask check; an admitted packet's grant carries the
/// data-ready cycle (`execute` parks late data in `Vault::pending`) and
/// the row-buffer outcome (staged as RowHit/RowMiss/Precharge events and
/// counted into `stats`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn tick_vault(
    vault: &mut Vault,
    registers: &mut RegisterFile,
    dev_id: CubeId,
    vi: usize,
    inputs: &CycleInputs,
    map: &dyn AddressMap,
    conflicts: &mut EventStage,
    completions: &mut EventStage,
    stats: &mut SimStats,
) {
    // Release pending responses whose data became ready, before the walk
    // (their freed capacity admits new requests this cycle).
    if !vault.pending.is_empty() {
        vault.release_ready(inputs.clock);
    }

    // ---- stage 3: recognize bank conflicts (no state modified) ----
    if inputs.conflicts_enabled {
        let mut seen: u64 = 0;
        for idx in 0..inputs.window.min(vault.rqst.len()) {
            let e = vault.rqst.get(idx).expect("idx bounded");
            let bank = e.dest_bank;
            if bank == UNDECODED {
                continue;
            }
            let bit = 1u64 << (bank & 0x3f);
            if seen & bit != 0 {
                conflicts.stage(TraceEvent::BankConflict {
                    cube: dev_id,
                    vault: vault.id,
                    bank,
                    addr: e.packet.addr(),
                    tag: e.packet.tag(),
                });
            } else {
                seen |= bit;
            }
        }
    }

    // ---- stage 4: windowed request walk ----
    let mut blocked: u64 = 0;
    // A bank under periodic refresh is out of service for the whole
    // cycle (optional extension; None = paper model).
    if let Some(r) = inputs.refresh {
        if let Some(b) = r.bank_under_refresh(inputs.clock, vi as u16, inputs.banks) {
            blocked |= 1u64 << (b & 0x3f);
        }
    }
    let mut idx = 0usize;
    let mut scanned = 0usize;
    loop {
        if scanned >= inputs.window {
            break;
        }
        // Packets are removed mid-walk, so bounds are rechecked every
        // iteration.
        let (bank, row, cmd_res) = {
            if idx >= vault.rqst.len() {
                break;
            }
            let e = vault.rqst.get(idx).expect("idx checked");
            (e.dest_bank, e.dest_row, e.packet.cmd())
        };
        scanned += 1;
        let bit = 1u64 << (bank & 0x3f);
        if (blocked & bit != 0)
            || vault
                .timing
                .blocked_until(bank, row, inputs.clock)
                .is_some()
        {
            // The bank is held — refresh or response-stall for the rest
            // of the cycle, or the timing backend (already issued this
            // cycle under classic; paying command spacing under DDR).
            // Window conflicts are traced by stage 3. The bank bit is
            // latched so no younger packet to the same bank can overtake
            // a timing-stalled elder this cycle: `blocked_until` is
            // row-dependent under DDR (a row hit would be admissible
            // while a row conflict waits out tRAS), and per-(link,
            // vault, bank) delivery order must hold regardless.
            blocked |= bit;
            if inputs.policy == ConflictPolicy::StallQueue {
                break;
            }
            idx += 1;
            continue;
        }
        let cmd = cmd_res.ok();
        let needs_rsp = cmd.map(Vault::needs_response).unwrap_or(true);
        if needs_rsp && vault.rsp_capacity_full() {
            let tag = vault.rqst.get(idx).expect("idx checked").packet.tag();
            completions.stage(TraceEvent::VaultRspStall {
                cube: dev_id,
                vault: vi as VaultId,
                tag,
            });
            blocked |= bit;
            if inputs.policy == ConflictPolicy::StallQueue {
                break;
            }
            idx += 1;
            continue;
        }

        let entry = vault.rqst.remove(idx).expect("idx checked");
        let tag = entry.packet.tag();
        let bytes = entry.packet.data_bytes() as u32;
        let grant = vault.timing.try_issue(bank, row, inputs.clock);
        match grant.outcome {
            RowOutcome::None => {}
            RowOutcome::Hit => stats.row_hits += 1,
            RowOutcome::Miss | RowOutcome::Conflict => stats.row_misses += 1,
        }
        if grant.pre_cycle.is_some() {
            stats.precharges += 1;
        }
        // ---- cell-fault hook: retention decay before the access reads
        // data, then hammer accounting on every row activation (any
        // non-Hit outcome opens the row; classic's None counts too).
        if vault.faults.is_some() {
            let Vault {
                faults, mem, timing, ..
            } = &mut *vault;
            let f = faults.as_mut().expect("checked above");
            let decayed = f.on_access(bank, row, inputs.clock, mem);
            stats.retention_decays += decayed;
            if grant.outcome != RowOutcome::Hit {
                let out = f.on_activation(bank, row, inputs.clock, mem);
                stats.hammer_activations += 1;
                stats.bit_flips += out.flip_count;
                if out.trr {
                    stats.trr_refreshes += 1;
                    if let Some(until) = out.park_until {
                        timing.park_bank(bank, until);
                    }
                    if inputs.fault_events {
                        completions.stage(TraceEvent::TargetedRefresh {
                            cube: dev_id,
                            vault: vi as VaultId,
                            bank,
                            row,
                        });
                    }
                }
                if inputs.fault_events {
                    for (victim, bits) in out.flips {
                        if bits > 0 {
                            completions.stage(TraceEvent::RowHammerFlip {
                                cube: dev_id,
                                vault: vi as VaultId,
                                bank,
                                row: victim,
                                bits: bits as u64,
                            });
                        }
                    }
                }
            }
        }
        if inputs.row_events && grant.outcome != RowOutcome::None {
            if grant.pre_cycle.is_some() {
                completions.stage(TraceEvent::Precharge {
                    cube: dev_id,
                    vault: vi as VaultId,
                    bank,
                    tag,
                });
            }
            completions.stage(match grant.outcome {
                RowOutcome::Hit => TraceEvent::RowHit {
                    cube: dev_id,
                    vault: vi as VaultId,
                    bank,
                    row,
                    tag,
                },
                _ => TraceEvent::RowMiss {
                    cube: dev_id,
                    vault: vi as VaultId,
                    bank,
                    row,
                    tag,
                },
            });
        }
        match vault.execute(entry, map, dev_id, inputs.clock, grant.data_ready) {
            Execution::Done | Execution::Responded => {}
            Execution::RespondedError(status) => {
                completions.stage(TraceEvent::ErrorResponse {
                    cube: dev_id,
                    tag,
                    status: status.encode(),
                });
                registers.count_error_response();
            }
        }
        match cmd {
            Some(hmc_types::Command::Rd(bs)) => completions.stage(TraceEvent::ReadComplete {
                cube: dev_id,
                vault: vi as VaultId,
                bank,
                bytes: bs.bytes() as u32,
                tag,
            }),
            Some(c) if c.is_write() => completions.stage(TraceEvent::WriteComplete {
                cube: dev_id,
                vault: vi as VaultId,
                bank,
                bytes,
                tag,
            }),
            Some(c) if c.is_atomic() => completions.stage(TraceEvent::AtomicComplete {
                cube: dev_id,
                vault: vi as VaultId,
                bank,
                tag,
            }),
            _ => {}
        }
    }
}

impl HmcSim {
    /// Resolve the per-cycle read-only inputs of [`tick_vault`].
    fn cycle_inputs(&self) -> CycleInputs {
        CycleInputs {
            clock: self.clock,
            conflicts_enabled: self.tracer.enabled(EventKind::BankConflict),
            row_events: self.tracer.enabled(EventKind::RowHit),
            window: self.params.window_for(self.config.banks_per_vault),
            banks: self.config.banks_per_vault,
            policy: self.params.conflict_policy,
            refresh: self.params.refresh,
            fault_events: self.tracer.enabled(EventKind::RowHammerFlip)
                || self.tracer.enabled(EventKind::TargetedRefresh),
        }
    }

    /// Advance the simulation by `cycles` clock cycles.
    ///
    /// Results are bit-identical to calling [`HmcSim::clock`] `cycles`
    /// times, with or without [`crate::params::SimParams::fast_forward`];
    /// batching exists so the fast-forward mode has a span of cycles to
    /// jump across.
    pub fn clock_batch(&mut self, cycles: u64) -> Result<()> {
        self.ensure_routes()?;
        self.ensure_timing();
        self.ensure_noc();
        self.ensure_cell_faults();
        self.ensure_link_faults();
        let mut done = 0u64;
        while done < cycles {
            let dead = if self.params.fast_forward {
                self.quiescent_horizon(cycles - done)
            } else {
                0
            };
            if dead > 0 {
                self.fast_forward_jump(dead);
                done += dead;
            } else {
                self.clock_cycle();
                done += 1;
            }
        }
        Ok(())
    }

    /// The number of upcoming cycles — capped at `max` — during which
    /// every stage of every device is provably quiescent: no queue walk
    /// would move, mutate, or retire a packet, and no trace event would
    /// be emitted. Zero means the next cycle may do observable work and
    /// must run stepped.
    ///
    /// A device with packets in flight on a buffered NoC is live. Apart
    /// from that the predicate is three per-unit gates, each answering
    /// [`Gate::Live`], [`Gate::Held`] for a computable number of cycles,
    /// or [`Gate::Inert`] (idle until another gate's edge fires):
    ///
    /// * [`HmcSim::xbar_rqst_gate`], per link — retraining window, FLIT
    ///   debt, retry timer, and the inert stage-1/2 walk over requests
    ///   that all wait on full vault queues;
    /// * [`HmcSim::xbar_rsp_gate`], per link — responses parked for a
    ///   host `recv`;
    /// * [`HmcSim::vault_gate`], per vault — response queue, pending
    ///   data-ready edges, and the stage-3/4 scan window held by refresh
    ///   or by the timing backend's exact bank edges.
    ///
    /// The returned horizon is the minimum over all `Held` spans (debt
    /// paydown completion, retry-timer and retraining expiry, the next
    /// [`RefreshParams::window_edge_after`], timing-backend retry edges,
    /// pending data-ready cycles), clamped to `max` and to the remaining
    /// `u64` clock range: the jump lands on the earliest edge, never past
    /// it, and that cycle runs stepped. Everything the walks *would* do
    /// in dead cycles (FLIT-debt decay) is replayed exactly by
    /// [`HmcSim::fast_forward_jump`].
    pub(crate) fn quiescent_horizon(&self, max: u64) -> u64 {
        let mut horizon = max.min(u64::MAX - self.clock);
        if horizon == 0 {
            return 0;
        }
        let mut fold = |gate: Gate| match gate {
            Gate::Live => false,
            Gate::Held(dead) => {
                horizon = horizon.min(dead);
                true
            }
            Gate::Inert => true,
        };
        for dev in &self.devices {
            // Packets in flight between quads on a buffered NoC move (or
            // at least contend) every cycle: the device is live until the
            // fabric drains. The crossbar default has no NoC state, so
            // this costs one branch.
            if dev.noc.as_ref().is_some_and(|n| n.occupancy() > 0) {
                return 0;
            }
            for l in 0..self.config.num_links as usize {
                if !fold(self.xbar_rqst_gate(dev, l)) || !fold(self.xbar_rsp_gate(dev, l)) {
                    return 0;
                }
            }
            for quad in &dev.quads {
                for vi in quad.vault_range() {
                    if !fold(self.vault_gate(dev, vi)) {
                        return 0;
                    }
                }
            }
        }
        horizon
    }

    /// The link / crossbar-request gate of link `l`: what the stage-1/2
    /// walk over this link's request queue does in the upcoming cycles.
    ///
    /// * A link down for retraining skips its walk outright until the
    ///   window lapses — and the first walk after expiry records the
    ///   completed retraining (the `LinkRetrain` event), which is
    ///   observable work: held until just short of that walk.
    /// * An empty queue's walk does nothing (inert).
    /// * FLIT debt covering the cycle's beat budget skips the walk
    ///   outright; once the debt is sub-budget the walk runs and breaks
    ///   on a retry-gated head (zeroing the residual debt), so the link
    ///   is held until the *later* of the two edges.
    /// * Otherwise the walk runs, and is *inert* exactly when it visits
    ///   nothing but stalled requests it cannot move and would not report:
    ///   1. every slot carries a route key — a clean local memory
    ///      request, never corrupt or retry-gated (`check_invariants`
    ///      re-proves that every cycle). An unkeyed slot keeps the queue
    ///      live, so the cycle that memoizes a newly stalled packet still
    ///      runs stepped;
    ///   2. every keyed slot takes the direct path (a NoC-riding slot
    ///      bumps `stats.noc_stalls` every cycle it waits) and its
    ///      destination vault's request queue is full;
    ///   3. the tracer does not record `XbarRqstStall`, which the walk
    ///      re-emits every cycle for the first stalled packet per vault.
    ///
    ///   Such a walk leaves every slot and latch as it found them and
    ///   only zeroes sub-budget FLIT debt, which
    ///   [`Link::decay_flit_debt`](crate::link::Link::decay_flit_debt)
    ///   reproduces. It needs no edge of its own: a vault queue stops
    ///   being full only when stage 4 issues from it, and every entry in
    ///   that (non-empty) vault's scan window already contributes its
    ///   exact edge through [`HmcSim::vault_gate`]. The one thing that
    ///   un-keys a slot without any packet moving is an address-map swap:
    ///   `set_address_map` forgets the keys at once, and an AC-register
    ///   write not yet applied holds the walk inert for exactly one more
    ///   cycle — the stage-6 edge that applies it.
    fn xbar_rqst_gate(&self, dev: &Device, l: usize) -> Gate {
        let link = &dev.links[l];
        let rqst = &dev.xbars[l].rqst;
        let faults_on = self.faults.is_some();
        if faults_on && link.retraining {
            return match link.retrain_until.saturating_sub(self.clock) {
                0 => Gate::Live,
                dead => Gate::Held(dead),
            };
        }
        if rqst.is_empty() {
            return Gate::Inert;
        }
        let debt_dead = self
            .params
            .link_flits_per_cycle
            .map_or(0, |f| link.debt_dead_cycles(f.max(1)));
        let retry_dead = match rqst.front() {
            Some(e) if faults_on && e.retry_gated(self.clock) => e.retry_until - self.clock,
            _ => 0,
        };
        let dead = debt_dead.max(retry_dead);
        if dead > 0 {
            return Gate::Held(dead);
        }
        let buffered = dev.noc.is_some();
        let inert = !self.tracer.enabled(EventKind::XbarRqstStall)
            && rqst.route_keys().all(|vault| {
                vault != NO_ROUTE
                    && !(buffered && l as QuadId != Quad::of_vault(vault))
                    && dev.vaults[vault as usize].rqst.is_full()
            });
        if !inert {
            Gate::Live
        } else if self.ac_swap_pending() {
            Gate::Held(1)
        } else {
            Gate::Inert
        }
    }

    /// True when a write to the AC register has not yet reached the
    /// address map: the next stage-6 edge installs the selected map and
    /// forgets every route key (`HmcSim::install_map`), so the cycle
    /// after it routes the waiting requests afresh.
    fn ac_swap_pending(&self) -> bool {
        self.devices[0].registers.read(regs::AC).unwrap_or(0) != self.ac_mode
    }

    /// The crossbar-response gate of link `l`: inert when the response
    /// queue holds only entries parked in host-deliverable position
    /// (waiting on a host `recv`, which only the host can trigger), live
    /// when the stage-5 forward walk would move or stall-report one.
    fn xbar_rsp_gate(&self, dev: &Device, l: usize) -> Gate {
        let remote = dev.links[l].remote;
        if dev.xbars[l].rsp_all_parked(|e| remote == Endpoint::Host(e.dest_cube)) {
            Gate::Inert
        } else {
            Gate::Live
        }
    }

    /// The vault gate of vault `vi`: what [`tick_vault`] and the stage-5
    /// drain do in the upcoming cycles.
    ///
    /// * Any queued response is live (stage 5 would route or stall it).
    /// * Pending responses wake the vault exactly when the earliest
    ///   data-ready edge arrives (DDR backend; the classic backend keeps
    ///   `pending` empty).
    /// * Every entry the stage-4 walk would scan must be provably held,
    ///   either by the bank this vault currently has under refresh (until
    ///   the refresh window edge) or by the timing backend
    ///   ([`crate::timing::VaultTiming::blocked_until`]: an exact
    ///   tRP/tRAS/tCCD/refresh/park edge under DDR; the classic backend
    ///   never blocks between cycles, which leaves only the
    ///   refresh-parked window). An issuable entry is live — it issues,
    ///   or stage 4 reports `VaultRspStall` for it every cycle. Under
    ///   [`ConflictPolicy::StallQueue`] the walk breaks at its first held
    ///   entry, so that entry's edge is the only one.
    /// * When bank-conflict tracing is enabled the window may hold at
    ///   most one entry, because stage 3 re-emits `BankConflict` every
    ///   cycle for same-bank window pairs.
    fn vault_gate(&self, dev: &Device, vi: usize) -> Gate {
        let vault = &dev.vaults[vi];
        if !vault.rsp.is_empty() {
            return Gate::Live;
        }
        // The earliest cycle at which anything here can change.
        let mut wake = vault.pending_min_ready().unwrap_or(u64::MAX);
        let banks = self.config.banks_per_vault;
        let window = self.params.window_for(banks).min(vault.rqst.len());
        if window > 1 && self.tracer.enabled(EventKind::BankConflict) {
            return Gate::Live;
        }
        let refresh = self.params.refresh;
        let refreshed_bank =
            refresh.and_then(|r| r.bank_under_refresh(self.clock, vi as u16, banks));
        for i in 0..window {
            let e = vault.rqst.get(i).expect("i bounded");
            if !e.is_decoded() {
                // Defensive: never fast-forward past an undecoded entry.
                return Gate::Live;
            }
            let timing_edge = vault
                .timing
                .blocked_until(e.dest_bank, e.dest_row, self.clock);
            let refresh_edge = (refreshed_bank == Some(e.dest_bank)).then(|| {
                refresh
                    .expect("refreshed_bank implies refresh")
                    .window_edge_after(self.clock)
            });
            // Held until the later of the two; issuable now when neither.
            let Some(edge) = timing_edge.max(refresh_edge) else {
                return Gate::Live;
            };
            wake = wake.min(edge);
            if self.params.conflict_policy == ConflictPolicy::StallQueue {
                break;
            }
        }
        if wake <= self.clock {
            Gate::Live
        } else if wake == u64::MAX {
            Gate::Inert
        } else {
            Gate::Held(wake - self.clock)
        }
    }

    /// Jump the clock across `dead` cycles proven quiescent by
    /// [`HmcSim::quiescent_horizon`], reproducing exactly the state a
    /// stepped engine would reach:
    ///
    /// * FLIT debt decays by `dead` cycles' worth of beat budget
    ///   ([`crate::link::Link::decay_flit_debt`] mirrors the stepped
    ///   walk's decrement-then-zero sequence);
    /// * stage 6 runs once — its per-cycle effects are idempotent across
    ///   dead cycles (the register tick only clears already-cleared RWS
    ///   state, the IBTC mirror rewrites unchanged token counts, and an
    ///   AC map swap can only trigger on the first edge since no register
    ///   writes happen mid-jump) — and the clock/cycle counters advance
    ///   by the full jump;
    /// * when invariant checking is on, the sweep runs once per jump
    ///   rather than once per skipped cycle: on a clean run both schedules
    ///   observe zero violations, and a violating state is caught at the
    ///   jump edge (see DESIGN.md on the per-jump checking policy).
    pub(crate) fn fast_forward_jump(&mut self, dead: u64) {
        debug_assert!(dead >= 1, "zero-length jumps must run stepped");
        if let Some(f) = self.params.link_flits_per_cycle.map(|f| f.max(1)) {
            for dev in &mut self.devices {
                for link in &mut dev.links {
                    // A retraining link's walk is skipped before its
                    // debt paydown, so its debt stays frozen until the
                    // window lapses; decaying it here would diverge
                    // from the stepped engine.
                    if link.flit_debt > 0 && !link.retraining {
                        link.decay_flit_debt(dead, f);
                    }
                }
            }
        }
        self.stage6_update_clock();
        self.clock += dead - 1;
        self.stats.cycles += dead - 1;
        if self.params.check_invariants {
            self.inv_check_cycle();
        }
    }

    /// One clock cycle: the six sub-cycle stages of §IV.C in order.
    pub(crate) fn clock_cycle(&mut self) {
        self.stage1_child_xbar_requests();
        self.stage2_root_xbar_requests();
        // NoC sub-stage (buffered fabrics only): move in-flight packets
        // one segment and deliver arrivals before stages 3 and 4 read
        // the vault queues.
        for di in 0..self.devices.len() {
            self.noc_advance(di);
        }

        // ---- stages 3 and 4, every vault in flat order ----
        let inputs = self.cycle_inputs();
        let scratch = &mut self.scratch;
        for (di, dev) in self.devices.iter_mut().enumerate() {
            let Device {
                vaults, registers, ..
            } = dev;
            for (vi, vault) in vaults.iter_mut().enumerate() {
                tick_vault(
                    vault,
                    registers,
                    di as CubeId,
                    vi,
                    &inputs,
                    self.map.as_ref(),
                    &mut scratch.conflicts,
                    &mut scratch.completions,
                    &mut self.stats,
                );
            }
        }
        // Sub-cycle order in the trace: conflicts, then completions.
        scratch.conflicts.flush_into(&mut self.tracer, self.clock);
        scratch.completions.flush_into(&mut self.tracer, self.clock);

        // ---- stage 5: roots first, then children (§IV.C.5) ----
        for root_pass in [true, false] {
            for di in 0..self.devices.len() {
                if self.devices[di].is_root() != root_pass {
                    continue;
                }
                self.forward_xbar_responses(di);
                for vi in 0..self.devices[di].vaults.len() {
                    self.drain_vault_responses(di, vi);
                }
            }
        }

        self.stage6_update_clock();
        if self.params.check_invariants {
            self.inv_check_cycle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Gate;
    use crate::noc::NocParams;
    use crate::params::{ConflictPolicy, RefreshParams, SimParams};
    use crate::queue::QueueEntry;
    use crate::register::regs;
    use crate::sim::HmcSim;
    use crate::timing::TimingParams;
    use crate::xbar::Crossbar;
    use hmc_trace::{EventKind, NullSink, Tracer, Verbosity};
    use hmc_types::{
        ArbitrationKind, BlockSize, Command, DdrTimings, DeviceConfig, InterconnectKind,
        LinkFaultConfig, LinkId, Packet, TimingKind,
    };

    fn sim_with(params: SimParams) -> HmcSim {
        let mut s = HmcSim::new(1, DeviceConfig::small())
            .unwrap()
            .with_params(params);
        for l in 0..4 {
            s.connect_host(0, l, s.host_cube_id(0)).unwrap();
        }
        s
    }

    fn ff_params() -> SimParams {
        SimParams {
            fast_forward: true,
            ..SimParams::default()
        }
    }

    fn read_packet(addr: u64, tag: u16, link: LinkId) -> Packet {
        Packet::request(Command::Rd(BlockSize::B64), 0, addr, tag, link, &[]).unwrap()
    }

    /// Drive `sim` through the same bursty schedule every differential
    /// test uses: `bursts` rounds of (send `k` reads, batch-clock a long
    /// mostly-dead gap, drain all responses). Returns every received
    /// (tag, latency) in drain order plus the final (clock, cycles).
    fn bursty_run(sim: &mut HmcSim, bursts: u64, k: u16, gap: u64) -> (Vec<(u16, u64)>, u64, u64) {
        let mut got = Vec::new();
        let mut tag = 0u16;
        for burst in 0..bursts {
            for i in 0..k {
                let link = (i % 4) as LinkId;
                let addr = (burst * 0x9e37 + i as u64 * 0x1_0000) % (1 << 30);
                // A stalled send (full queue, dry tokens, or a link down
                // retraining) clocks one cycle and retries — the same
                // deterministic throttling a real host loop performs.
                let mut tries = 0u32;
                loop {
                    match sim.send(0, link, read_packet(addr, tag, link)) {
                        Ok(()) => break,
                        Err(e) if e.is_stall() => {
                            sim.clock_batch(1).unwrap();
                            tries += 1;
                            assert!(tries < 100_000, "send stalled forever");
                        }
                        Err(e) => panic!("send failed: {e:?}"),
                    }
                }
                tag += 1;
            }
            sim.clock_batch(gap).unwrap();
            for link in 0..4 {
                while let Ok((p, lat)) = sim.recv_with_latency(0, link) {
                    got.push((p.tag(), lat));
                }
            }
        }
        (got, sim.current_clock(), sim.stats().cycles)
    }

    #[test]
    fn empty_sim_fast_forwards_whole_batches() {
        let mut s = sim_with(ff_params());
        s.clock_batch(10_000).unwrap();
        assert_eq!(s.current_clock(), 10_000);
        assert_eq!(s.stats().cycles, 10_000);
        // The horizon itself reports the full remaining span.
        assert_eq!(s.quiescent_horizon(500), 500);
        assert_eq!(s.quiescent_horizon(0), 0, "zero span never jumps");
    }

    #[test]
    fn any_live_stage_forces_stepping() {
        let mut s = sim_with(ff_params());
        s.send(0, 0, read_packet(0, 1, 0)).unwrap();
        assert_eq!(
            s.quiescent_horizon(100),
            0,
            "a pending crossbar request is live"
        );
    }

    #[test]
    fn link_debt_gates_the_jump_by_exact_paydown() {
        let mut s = sim_with(SimParams {
            link_flits_per_cycle: Some(2),
            ..ff_params()
        });
        s.send(0, 0, read_packet(0, 1, 0)).unwrap();
        s.devices[0].links[0].flit_debt = 7;
        // 7 FLITs at 2/cycle: cycles 1..=3 are full-budget skips, the
        // fourth cycle walks with the 1-FLIT remainder.
        assert_eq!(s.quiescent_horizon(100), 3);
        s.devices[0].links[0].flit_debt = 1;
        assert_eq!(s.quiescent_horizon(100), 0, "sub-budget debt walks now");
    }

    #[test]
    fn refresh_parked_window_jumps_to_the_window_edge() {
        let refresh = RefreshParams {
            interval: 100,
            duration: 10,
        };
        let mut s = sim_with(SimParams {
            refresh: Some(refresh),
            ..ff_params()
        });
        let vault = 3u16;
        let banks = s.config.banks_per_vault;
        let bank = refresh
            .bank_under_refresh(0, vault, banks)
            .expect("cycle 0 is inside the first window");
        let mut e = QueueEntry::new(read_packet(0, 9, 0), 1, 0, 0);
        e.dest_vault = vault;
        e.dest_bank = bank;
        s.devices[0].vaults[vault as usize].rqst.push(e).unwrap();

        // Entire (single-entry) window parked on the refreshed bank:
        // dead until the window edge at cycle 10.
        assert_eq!(s.quiescent_horizon(100), 10);

        // A request for any other bank is serviceable immediately.
        let other = (bank + 1) % banks;
        s.devices[0].vaults[vault as usize]
            .rqst
            .get_mut(0)
            .unwrap()
            .dest_bank = other;
        assert_eq!(s.quiescent_horizon(100), 0);

        // Without refresh configured a pending vault request is live.
        s.params.refresh = None;
        s.devices[0].vaults[vault as usize]
            .rqst
            .get_mut(0)
            .unwrap()
            .dest_bank = bank;
        assert_eq!(s.quiescent_horizon(100), 0);
    }

    #[test]
    fn retry_timer_blocks_until_its_expiry_cycle() {
        let mut s = sim_with(ff_params());
        s.set_link_faults(Some(LinkFaultConfig::default()));
        s.send(0, 0, read_packet(0, 1, 0)).unwrap();
        {
            let e = s.devices[0].xbars[0].rqst.get_mut(0).unwrap();
            e.retry_until = 5;
        }
        // Clock 0: gated for exactly 5 cycles; the expiry cycle itself
        // must run stepped (the walk moves the packet that cycle).
        assert_eq!(s.quiescent_horizon(100), 5);
        s.fast_forward_jump(5);
        assert_eq!(s.current_clock(), 5);
        assert_eq!(
            s.quiescent_horizon(100),
            0,
            "the retry fires on the jump-target cycle"
        );
        // An armed timer gates even when the in-flight retransmission is
        // fated to arrive corrupt: the next detection only becomes
        // observable at the timer's expiry.
        {
            let e = s.devices[0].xbars[0].rqst.get_mut(0).unwrap();
            e.retry_until = 50;
            e.corrupt = true;
        }
        assert_eq!(s.quiescent_horizon(100), 45);
        // An undetected corruption with a lapsed timer is live work (the
        // walk performs the detection that cycle).
        s.devices[0].xbars[0].rqst.get_mut(0).unwrap().retry_until = 0;
        assert_eq!(s.quiescent_horizon(100), 0);
    }

    #[test]
    fn retraining_link_sleeps_until_its_window_lapses() {
        let mut s = sim_with(ff_params());
        s.set_link_faults(Some(LinkFaultConfig::default()));
        s.clock_batch(1).unwrap();
        {
            let link = &mut s.devices[0].links[0];
            link.retrain_until = 40;
            link.retraining = true;
        }
        // Down until cycle 40; the expiry walk records the completed
        // retraining (LinkRetrain), so the horizon stops just short.
        assert_eq!(s.quiescent_horizon(100), 39);
        assert!(
            matches!(
                s.send(0, 0, read_packet(0, 1, 0)),
                Err(hmc_types::HmcError::Stalled { cube: 0, link: 0 })
            ),
            "a retraining link rejects host sends"
        );
        s.clock_batch(39).unwrap();
        assert_eq!(
            s.quiescent_horizon(100),
            0,
            "the pending retraining record is observable work"
        );
        s.clock_batch(1).unwrap();
        assert_eq!(s.stats().link_retrains, 1);
        assert!(!s.devices[0].links[0].retraining);
        assert!(s.send(0, 0, read_packet(0, 1, 0)).is_ok());
    }

    #[test]
    fn horizon_clamps_at_clock_overflow_proximity() {
        let mut s = sim_with(ff_params());
        s.clock = u64::MAX - 5;
        assert_eq!(s.quiescent_horizon(1_000), 5);
        s.fast_forward_jump(5);
        assert_eq!(s.clock, u64::MAX, "jump lands exactly on the ceiling");
        assert_eq!(s.quiescent_horizon(1_000), 0, "no headroom left");
    }

    #[test]
    fn fast_forward_matches_stepped_on_bursty_traffic() {
        let params = SimParams {
            refresh: Some(RefreshParams {
                interval: 64,
                duration: 6,
            }),
            link_flits_per_cycle: Some(4),
            ..SimParams::default()
        };
        let mut stepped = sim_with(params);
        let mut fast = sim_with(SimParams {
            fast_forward: true,
            ..params
        });
        let a = bursty_run(&mut stepped, 6, 12, 400);
        let b = bursty_run(&mut fast, 6, 12, 400);
        assert_eq!(a, b, "fast-forward must be bit-identical to stepped");
    }

    #[test]
    fn ddr_timing_edges_gate_the_horizon_exactly() {
        let t = DdrTimings::default();
        let mut s = sim_with(SimParams {
            timing: TimingParams::of(TimingKind::Ddr),
            ..ff_params()
        });
        s.ensure_timing();
        let vault = 2usize;
        // Open row 0 on bank 1 at cycle 0: a miss, ACT at 0, and the
        // bank accepts its next column access at tRCD + tCCD.
        let _ = s.devices[0].vaults[vault].timing.try_issue(1, 0, 0);

        // A same-row request is held by exactly the bank-ready edge.
        let mut e = QueueEntry::new(read_packet(0, 7, 0), 1, 0, 0);
        e.dest_vault = vault as u16;
        e.dest_bank = 1;
        e.dest_row = 0;
        s.devices[0].vaults[vault].rqst.push(e).unwrap();
        let ready = t.t_rcd + t.t_ccd;
        assert_eq!(s.quiescent_horizon(1_000), ready);

        // A row conflict additionally waits out tRAS from the ACT: the
        // first jump lands on the ready edge, the second exactly on the
        // tRAS expiry, where the cycle goes live (PRE can fire).
        s.devices[0].vaults[vault].rqst.get_mut(0).unwrap().dest_row = 3;
        assert_eq!(s.quiescent_horizon(1_000), ready);
        s.fast_forward_jump(ready);
        assert_eq!(s.quiescent_horizon(1_000), t.t_ras - ready);
        s.fast_forward_jump(t.t_ras - ready);
        assert_eq!(s.current_clock(), t.t_ras);
        assert_eq!(
            s.quiescent_horizon(1_000),
            0,
            "the conflict issues at the tRAS edge"
        );
    }

    #[test]
    fn ddr_refresh_boundary_is_a_fast_forward_edge() {
        let refresh = RefreshParams {
            interval: 100,
            duration: 10,
        };
        let mut s = sim_with(SimParams {
            timing: TimingParams::of(TimingKind::Ddr),
            refresh: Some(refresh),
            ..ff_params()
        });
        s.ensure_timing();
        let vault = 3u16;
        let banks = s.config.banks_per_vault;
        let bank = refresh
            .bank_under_refresh(0, vault, banks)
            .expect("cycle 0 is inside the first window");
        let mut e = QueueEntry::new(read_packet(0, 9, 0), 1, 0, 0);
        e.dest_vault = vault;
        e.dest_bank = bank;
        e.dest_row = 0;
        s.devices[0].vaults[vault as usize].rqst.push(e).unwrap();
        // The stage-4 refresh bit and the DDR shadow state agree: the
        // bank is parked until the window edge, and the horizon lands
        // exactly there.
        assert_eq!(s.quiescent_horizon(1_000), 10);
        s.fast_forward_jump(10);
        assert_eq!(s.quiescent_horizon(1_000), 0, "live at the window edge");
    }

    #[test]
    fn ddr_fast_forward_matches_stepped_on_bursty_traffic() {
        let params = SimParams {
            timing: TimingParams::of(TimingKind::Ddr),
            refresh: Some(RefreshParams {
                interval: 64,
                duration: 6,
            }),
            link_flits_per_cycle: Some(4),
            ..SimParams::default()
        };
        let mut stepped = sim_with(params);
        let mut fast = sim_with(SimParams {
            fast_forward: true,
            ..params
        });
        let a = bursty_run(&mut stepped, 6, 12, 400);
        let b = bursty_run(&mut fast, 6, 12, 400);
        assert_eq!(a, b, "DDR fast-forward must be bit-identical to stepped");
        let s = stepped.stats();
        assert!(
            s.row_hits + s.row_misses > 0,
            "the schedule must actually exercise the row-buffer model"
        );
    }

    #[test]
    fn faulty_links_stay_bit_identical_under_fast_forward() {
        let faults = Some(
            LinkFaultConfig::default()
                .with_error_rate_ppm(300_000)
                .with_retry_cycles(11)
                .with_seed(0xDEAD_BEEF),
        );
        let mut stepped = sim_with(SimParams::default());
        let mut fast = sim_with(ff_params());
        stepped.set_link_faults(faults);
        fast.set_link_faults(faults);
        let a = bursty_run(&mut stepped, 6, 8, 250);
        let b = bursty_run(&mut fast, 6, 8, 250);
        assert_eq!(a, b, "retry timers must fire identically across jumps");
        assert!(
            stepped.fault_state().unwrap().detected > 0,
            "the schedule must actually exercise retries"
        );
    }

    fn noc_params(kind: InterconnectKind, arb: ArbitrationKind) -> SimParams {
        SimParams {
            interconnect: NocParams::of(kind).with_arbitration(arb),
            ..SimParams::default()
        }
    }

    #[test]
    fn ring_noc_delivers_everything_the_crossbar_does() {
        let mut xbar = sim_with(SimParams::default());
        let mut ring = sim_with(noc_params(
            InterconnectKind::Ring,
            ArbitrationKind::RoundRobin,
        ));
        let (a, ..) = bursty_run(&mut xbar, 4, 12, 250);
        let (b, ..) = bursty_run(&mut ring, 4, 12, 250);
        let mut ta: Vec<u16> = a.iter().map(|&(t, _)| t).collect();
        let mut tb: Vec<u16> = b.iter().map(|&(t, _)| t).collect();
        ta.sort_unstable();
        tb.sort_unstable();
        assert_eq!(ta, tb, "every request completes on the ring fabric");
        assert!(ring.stats().noc_hops > 0, "cross-quad traffic must hop");
        assert_eq!(xbar.stats().noc_hops, 0, "crossbar never enters the NoC");
    }

    #[test]
    fn ring_fast_forward_matches_stepped() {
        let ring = noc_params(InterconnectKind::Ring, ArbitrationKind::RoundRobin);
        let mut stepped = sim_with(ring);
        let mut fast = sim_with(SimParams {
            fast_forward: true,
            ..ring
        });
        let a = bursty_run(&mut stepped, 5, 12, 300);
        let b = bursty_run(&mut fast, 5, 12, 300);
        assert_eq!(a, b, "jumps must account for in-flight ring hops");
        assert!(stepped.stats().noc_hops > 0);
    }

    #[test]
    fn mesh_fast_forward_matches_stepped() {
        let mesh = noc_params(InterconnectKind::Mesh, ArbitrationKind::OldestFirst);
        let mut stepped = sim_with(mesh);
        let mut fast = sim_with(SimParams {
            fast_forward: true,
            ..mesh
        });
        let a = bursty_run(&mut stepped, 5, 12, 300);
        let b = bursty_run(&mut fast, 5, 12, 300);
        assert_eq!(a, b, "jumps must account for in-flight mesh hops");
        assert!(stepped.stats().noc_hops > 0);
    }

    #[test]
    fn arbitration_policies_survive_fast_forward_bit_identically() {
        for arb in [
            ArbitrationKind::RoundRobin,
            ArbitrationKind::OldestFirst,
            ArbitrationKind::LocalityAware,
        ] {
            let params = noc_params(InterconnectKind::Mesh, arb);
            let mut stepped = sim_with(params);
            let mut fast = sim_with(SimParams {
                fast_forward: true,
                ..params
            });
            let a = bursty_run(&mut stepped, 4, 12, 250);
            let b = bursty_run(&mut fast, 4, 12, 250);
            assert_eq!(a, b, "{} must not depend on jump placement", arb.name());
        }
    }

    #[test]
    fn in_flight_noc_hops_force_stepping() {
        let mut s = sim_with(SimParams {
            fast_forward: true,
            interconnect: NocParams::of(InterconnectKind::Ring),
            ..SimParams::default()
        });
        // Block-stride addresses walk the vault field, so link 0 sends to
        // vaults outside its local quad; after one cycle stage 2 has
        // injected into the NoC but nothing hops until the next cycle.
        for i in 0..8u16 {
            s.send(0, 0, read_packet(u64::from(i) * 0x80, i, 0)).unwrap();
        }
        s.clock().unwrap();
        let occ = s.devices[0].noc.as_ref().unwrap().occupancy();
        assert!(occ > 0, "the schedule must leave packets in flight");
        assert_eq!(s.quiescent_horizon(100), 0, "in-flight hops are live work");
    }

    /// Stepped DDR: these tests call the horizon and the jump directly,
    /// and `clock_batch` on such a sim is the stepped reference.
    fn ddr_params() -> SimParams {
        SimParams {
            timing: TimingParams::of(TimingKind::Ddr),
            ..SimParams::default()
        }
    }

    /// Row `i` of vault 0, bank 0 under `small()`'s default map.
    fn row_addr(i: u16) -> u64 {
        u64::from(i) * 0x1_0000
    }

    /// The state `bursty_ff_ddr` spends its gaps in: twelve reads to
    /// rows of one bank sent over links 0 and 1, clocked stepped until
    /// vault 0's four-slot request queue is full of row misses (the
    /// issued head's bank still paying command spacing) and everything
    /// left in the two crossbar request queues is keyed.
    fn stalled_on_full_vault(params: SimParams) -> HmcSim {
        let mut s = sim_with(params);
        for i in 0..12u16 {
            let link = (i % 2) as LinkId;
            s.send(0, link, read_packet(row_addr(i), i, link)).unwrap();
        }
        let settled = |s: &HmcSim| {
            let dev = &s.devices[0];
            let keyed = |x: &Crossbar| x.rqst.route_keys().all(|k| k == 0);
            dev.vaults[0].rqst.is_full() && dev.xbars.iter().all(keyed)
        };
        while !settled(&s) {
            assert!(s.current_clock() < 8, "the burst never settled");
            s.clock_batch(1).unwrap();
        }
        let dev = &s.devices[0];
        assert!(!dev.xbars[0].rqst.is_empty() && !dev.xbars[1].rqst.is_empty());
        s
    }

    /// The edge vault 0's head entry waits for.
    fn head_edge(s: &HmcSim) -> u64 {
        let vault = &s.devices[0].vaults[0];
        let e = vault.rqst.front().unwrap();
        vault
            .timing
            .blocked_until(e.dest_bank, e.dest_row, s.clock)
            .expect("the head's bank is busy")
    }

    #[test]
    fn xbar_walk_stalled_on_a_full_vault_sleeps_until_the_bank_edge() {
        let mut s = stalled_on_full_vault(ddr_params());
        let t = DdrTimings::default();
        let edge = head_edge(&s);
        assert_eq!(edge, t.t_rcd + t.t_ccd, "ACT at cycle 0, then tRCD + tCCD");
        let dev = &s.devices[0];
        assert_eq!(s.xbar_rqst_gate(dev, 0), Gate::Inert);
        assert_eq!(s.xbar_rqst_gate(dev, 1), Gate::Inert);
        assert_eq!(s.xbar_rqst_gate(dev, 2), Gate::Inert, "an empty queue");
        assert_eq!(s.xbar_rsp_gate(dev, 0), Gate::Inert);
        assert_eq!(s.vault_gate(dev, 0), Gate::Held(edge - s.clock));
        assert_eq!(s.vault_gate(dev, 1), Gate::Inert, "an empty vault");
        assert_eq!(s.quiescent_horizon(10_000), edge - s.clock);

        // The jump lands exactly where the stepped engine next does
        // something, and leaves what the stepped engine leaves.
        let mut stepped = stalled_on_full_vault(ddr_params());
        let dead = edge - s.clock;
        s.fast_forward_jump(dead);
        stepped.clock_batch(dead).unwrap();
        assert_eq!(s.current_clock(), stepped.current_clock());
        assert_eq!(s.stats(), stepped.stats());
        for (a, b) in s.devices[0].xbars.iter().zip(&stepped.devices[0].xbars) {
            assert_eq!(a.rqst.len(), b.rqst.len());
        }
        // The head is a row conflict: from the bank edge it waits out
        // tRAS, but the issued read's data comes back first — the next
        // jump stops there, where the vault releases the response.
        let data_ready = t.t_rcd + t.t_cas;
        assert_eq!(s.quiescent_horizon(10_000), data_ready - edge);
        s.fast_forward_jump(data_ready - edge);
        assert_eq!(s.quiescent_horizon(10_000), 0, "the response releases");
    }

    #[test]
    fn any_broken_inert_condition_keeps_the_crossbar_live() {
        // An unkeyed slot at the tail: the walk has yet to look at it.
        let mut s = stalled_on_full_vault(ddr_params());
        s.send(0, 1, read_packet(row_addr(12), 12, 1)).unwrap();
        assert_eq!(s.xbar_rqst_gate(&s.devices[0], 0), Gate::Inert);
        assert_eq!(s.xbar_rqst_gate(&s.devices[0], 1), Gate::Live);
        assert_eq!(s.quiescent_horizon(10_000), 0);

        // A keyed slot whose vault has a free slot moves this cycle.
        let mut s = stalled_on_full_vault(ddr_params());
        s.devices[0].vaults[0].rqst.pop().unwrap();
        assert_eq!(s.xbar_rqst_gate(&s.devices[0], 0), Gate::Live);
        assert_eq!(s.xbar_rqst_gate(&s.devices[0], 1), Gate::Live);
        assert_eq!(s.quiescent_horizon(10_000), 0);

        // A tracer that records XbarRqstStall hears from the walk every
        // cycle.
        let mut s = stalled_on_full_vault(ddr_params());
        s.set_tracer(Tracer::new(
            Verbosity::threshold_for(EventKind::XbarRqstStall),
            Box::new(NullSink),
        ));
        assert_eq!(s.xbar_rqst_gate(&s.devices[0], 0), Gate::Live);
        assert_eq!(s.quiescent_horizon(10_000), 0);
    }

    #[test]
    fn a_keyed_slot_that_rides_the_noc_keeps_the_crossbar_live() {
        let mut s = sim_with(SimParams {
            interconnect: NocParams::of(InterconnectKind::Mesh),
            ..ddr_params()
        });
        s.ensure_timing();
        s.ensure_noc();
        // Vault 0 (quad 0) full behind a busy bank, and one keyed request
        // for it on link 0 (same quad: direct push) and on link 1 (cross
        // quad: would inject into the empty mesh this cycle).
        let _ = s.devices[0].vaults[0].timing.try_issue(0, 0, 0);
        for i in 1..=4u16 {
            let mut e = QueueEntry::new(read_packet(row_addr(i), i, 0), 1, 0, 0);
            (e.dest_vault, e.dest_bank, e.dest_row) = (0, 0, u64::from(i));
            s.devices[0].vaults[0].rqst.push(e).unwrap();
        }
        for link in 0..2u8 {
            let e = QueueEntry::new(read_packet(row_addr(9), 9, link), 1, 0, 0);
            let rqst = &mut s.devices[0].xbars[link as usize].rqst;
            rqst.push(e).unwrap();
            rqst.set_route(0, 0, 0, 9);
        }
        assert_eq!(s.xbar_rqst_gate(&s.devices[0], 0), Gate::Inert);
        assert_eq!(s.xbar_rqst_gate(&s.devices[0], 1), Gate::Live);
        assert_eq!(s.quiescent_horizon(10_000), 0);
    }

    #[test]
    fn link_retry_state_behind_keyed_slots_keeps_the_crossbar_live() {
        for (corrupt, retry_for) in [(true, 0), (false, 50)] {
            let mut s = stalled_on_full_vault(ddr_params());
            s.set_link_faults(Some(LinkFaultConfig::default()));
            assert_eq!(
                s.xbar_rqst_gate(&s.devices[0], 1),
                Gate::Inert,
                "armed faults alone change nothing: keyed slots are clean"
            );
            s.send(0, 1, read_packet(row_addr(12), 12, 1)).unwrap();
            let clock = s.clock;
            let rqst = &mut s.devices[0].xbars[1].rqst;
            let tail = rqst.len() - 1;
            let e = rqst.get_mut(tail).unwrap();
            e.corrupt = corrupt;
            e.retry_until = clock + retry_for;
            // Never keyed, so the walk must reach it: it detects the
            // corruption, or breaks on the timer — which holds the link
            // only from the head of the queue.
            assert_eq!(s.xbar_rqst_gate(&s.devices[0], 1), Gate::Live);
            assert_eq!(s.quiescent_horizon(10_000), 0);
        }
    }

    #[test]
    fn an_address_map_swap_wakes_the_stalled_crossbar() {
        // `set_address_map` forgets the route keys at once.
        let mut s = stalled_on_full_vault(ddr_params());
        let map = hmc_types::LowInterleaveMap::new(s.config.geometry()).unwrap();
        s.set_address_map(Box::new(map)).unwrap();
        assert_eq!(s.xbar_rqst_gate(&s.devices[0], 0), Gate::Live);
        assert_eq!(s.quiescent_horizon(10_000), 0);

        // An AC-register write reaches the map at the next stage-6 edge:
        // that one cycle is still inert, the one after routes afresh.
        let mut s = stalled_on_full_vault(ddr_params());
        s.jtag_reg_write(0, regs::AC, 1).unwrap();
        assert_eq!(s.xbar_rqst_gate(&s.devices[0], 0), Gate::Held(1));
        assert_eq!(s.quiescent_horizon(10_000), 1);
        s.fast_forward_jump(1);
        assert_eq!(s.xbar_rqst_gate(&s.devices[0], 0), Gate::Live);
        assert_eq!(s.quiescent_horizon(10_000), 0);
    }

    #[test]
    fn jumping_an_inert_walk_settles_flit_debt_like_the_stepped_walk() {
        let params = SimParams {
            link_flits_per_cycle: Some(2),
            ..ddr_params()
        };
        let mut fast = stalled_on_full_vault(params);
        let mut stepped = stalled_on_full_vault(params);
        // Residual debt below the beat budget: the walk runs, moves
        // nothing, and its trailing store zeroes the debt.
        fast.devices[0].links[1].flit_debt = 1;
        stepped.devices[0].links[1].flit_debt = 1;
        assert_eq!(fast.xbar_rqst_gate(&fast.devices[0], 1), Gate::Inert);
        let dead = fast.quiescent_horizon(10_000);
        assert_eq!(dead, head_edge(&fast) - fast.clock);
        fast.fast_forward_jump(dead);
        stepped.clock_batch(dead).unwrap();
        assert_eq!(stepped.devices[0].links[1].flit_debt, 0);
        assert_eq!(fast.devices[0].links[1].flit_debt, 0);
        assert_eq!(fast.current_clock(), stepped.current_clock());

        // Debt that covers the budget skips the walk: held, not inert.
        fast.devices[0].links[1].flit_debt = 5;
        assert_eq!(fast.xbar_rqst_gate(&fast.devices[0], 1), Gate::Held(2));
    }

    /// Vault 2 with bank 1 busy on row 0: a row-conflict head for bank
    /// 1 and an issuable request for bank 2 behind it.
    fn held_head_issuable_tail(policy: ConflictPolicy) -> HmcSim {
        let mut s = sim_with(SimParams {
            conflict_policy: policy,
            ..ddr_params()
        });
        s.ensure_timing();
        let _ = s.devices[0].vaults[2].timing.try_issue(1, 0, 0);
        for (tag, bank, row) in [(1u16, 1u16, 3u64), (2, 2, 0)] {
            let mut e = QueueEntry::new(read_packet(0, tag, 0), 1, 0, 0);
            (e.dest_vault, e.dest_bank, e.dest_row) = (2, bank, row);
            s.devices[0].vaults[2].rqst.push(e).unwrap();
        }
        s
    }

    #[test]
    fn in_order_vault_sleeps_on_its_held_head_alone() {
        let t = DdrTimings::default();
        // Out of order, the tail passes the held head: live.
        let s = held_head_issuable_tail(ConflictPolicy::SkipConflicting);
        assert_eq!(s.vault_gate(&s.devices[0], 2), Gate::Live);
        // In order, stage 4 breaks at the held head and never looks at
        // the tail: the head's edge is the only one.
        let s = held_head_issuable_tail(ConflictPolicy::StallQueue);
        let edge = t.t_rcd + t.t_ccd;
        assert_eq!(s.vault_gate(&s.devices[0], 2), Gate::Held(edge));
        assert_eq!(s.quiescent_horizon(1_000), edge);
    }

    #[test]
    fn stall_queue_fast_forward_matches_stepped_behind_a_held_head() {
        let run = |fast_forward: bool| {
            let mut s = sim_with(SimParams {
                fast_forward,
                conflict_policy: ConflictPolicy::StallQueue,
                ..ddr_params()
            });
            let mut got = Vec::new();
            for burst in 0..6u16 {
                // Two rows of one bank (the second waits out tRAS/tRP at
                // the head of the vault queue), then other banks behind.
                let addrs = [row_addr(burst), row_addr(burst + 7), 0x800, 0x1000];
                for (i, &addr) in addrs.iter().enumerate() {
                    let tag = burst * 4 + i as u16;
                    s.send(0, 0, read_packet(addr, tag, 0)).unwrap();
                }
                s.clock_batch(200).unwrap();
                while let Ok((p, lat)) = s.recv_with_latency(0, 0) {
                    got.push((p.tag(), lat));
                }
            }
            assert_eq!(got.len(), 24, "every read answers within its gap");
            (got, s.current_clock(), s.stats())
        };
        assert_eq!(run(false), run(true));
    }
}
