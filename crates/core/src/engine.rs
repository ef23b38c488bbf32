//! The clock engine.
//!
//! One call to [`HmcSim::clock`] runs the six sub-cycle stages of paper
//! §IV.C once, in order, on the calling thread ([`HmcSim::clock_cycle`]):
//! the crossbar request walks of stages 1 and 2 and the NoC sub-stage
//! ([`crate::stages`]), stages 3 and 4 for every vault that is not
//! asleep, in flat vault order ([`tick_vault`]), the root-first response
//! registration of stage 5, and the stage-6 clock update. [`HmcSim::clock_batch`] is the
//! only loop over cycles; it asks [`HmcSim::quiescent_horizon`] before
//! each cycle how many upcoming cycles are provably dead and jumps them
//! instead of stepping them, so `n` calls of `clock()` are its stepped
//! reference. There is no engine mode to choose. DESIGN.md "One cycle
//! path" records why there is no second, intra-cycle-parallel engine.
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
//! and are reused with retained capacity, and a packet's body is the one
//! its request arrived in, recycled when it leaves ([`BodyPool`]); the
//! steady-state `clock()` performs no heap allocation
//! (`tests/zero_alloc.rs`).

use hmc_trace::{EventKind, EventStage, TraceEvent};
use hmc_types::address::AddressMap;
use hmc_types::{CubeId, Cycle, LinkId, Result, VaultId};

use crate::device::Device;
use crate::link::LinkWait;
use crate::params::{ConflictPolicy, RefreshParams};
use crate::queue::{BodyPool, QueueEntry, UNCLASSIFIED, UNDECODED};
use crate::register::RegisterFile;
use crate::sim::{HmcSim, SimStats};
use crate::timing::{RowOutcome, VaultTiming};
use crate::vault::{Execution, Vault};

/// Read-only per-cycle inputs of [`tick_vault`], resolved once per cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CycleInputs {
    clock: Cycle,
    conflicts_enabled: bool,
    /// Row-buffer trace events (RowHit/RowMiss/Precharge) are enabled on
    /// the sink; the `VaultStats` row counters bump regardless.
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

/// A unit whose gate [`HmcSim::quiescent_horizon`] found live,
/// remembered so the next call asks it first: busy cycles tend to come in
/// runs, and a run is usually carried by one queue. Each names a device
/// and a link (the crossbar gates) or a vault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LiveUnit {
    /// [`HmcSim::xbar_rqst_gate`] of `(device, link)`.
    Rqst(u8, u16),
    /// [`HmcSim::xbar_rsp_gate`] of `(device, link)`.
    Rsp(u8, u16),
    /// [`HmcSim::vault_gate`] of `(device, vault)`.
    Vault(u8, u16),
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

/// The banks a stage-4 walk of vault `vault` finds latched before it has
/// looked at any entry: the one under periodic refresh, out of service
/// for the whole cycle (optional extension; `None` = paper model).
fn refresh_latch(inputs: &CycleInputs, vault: VaultId) -> u64 {
    inputs
        .refresh
        .and_then(|r| r.bank_under_refresh(inputs.clock, vault, inputs.banks))
        .map_or(0, |b| 1u64 << (b & 0x3f))
}

/// Stage 4's per-entry hold rule, written once for the walk that acts on
/// it ([`tick_vault`]) and the scan that only predicts it
/// ([`idle_edge`]). `None`: the entry's bank can take it this cycle.
/// `Some(edge)`: it is held, and its bank is now in `latched`, so no
/// younger packet to the same bank can overtake it this cycle —
/// `blocked_until` is row-dependent under DDR (a row hit would be
/// admissible while a row conflict waits out tRAS), and per-(link,
/// vault, bank) delivery order must hold regardless. The edge is the
/// timing backend's (already issued this cycle under classic; paying
/// command spacing under DDR) for the first held entry of a bank, and
/// [`Cycle::MAX`] for one that found its bank latched already — by
/// refresh, by a response stall, or by that elder — and waits on
/// whatever latched it.
fn hold_edge(
    timing: &dyn VaultTiming,
    latched: &mut u64,
    bank: u16,
    row: u64,
    clock: Cycle,
) -> Option<Cycle> {
    let bit = 1u64 << (bank & 0x3f);
    if *latched & bit != 0 {
        return Some(Cycle::MAX);
    }
    let edge = timing.blocked_until(bank, row, clock)?;
    *latched |= bit;
    Some(edge)
}

/// The cycle a walk that will find every scanned entry held sleeps
/// until — the two terms of [`Vault::wake_at`]: `held`, the minimum
/// [`hold_edge`] over the entries in its scan window; and, with periodic
/// refresh configured and anything queued, the next edge of its
/// schedule: a window that opens or closes re-answers `blocked_until`
/// (it parks the bank, or closes the row a tRAS wait was counted from)
/// and moves the stage-4 refresh bit. The data-ready edge is the head of
/// `pending`, read where it is needed ([`Vault::asleep`]).
fn sleep_edge(vault: &Vault, held: Cycle, inputs: &CycleInputs) -> Cycle {
    match inputs.refresh {
        Some(r) if !vault.rqst.is_empty() => held.min(r.window_edge_after(inputs.clock)),
        _ => held,
    }
}

/// The sleep edge of a walk that issued, reported no `VaultRspStall`,
/// staged no stage-3 conflicts and ran out of order. The entries it held
/// keep the edges it just computed: an issue changes only its own bank,
/// and that bank's younger entries asked `blocked_until` after it. Only
/// the entries that slid into the window behind the issues — from slot
/// `from` on — are new, and they are asked here under the walk's
/// `latched` banks, stopping at the first one free by the next cycle
/// (`0`: the walk runs again). Out of line, so the classic backend's
/// walk, which never gets here, does not pay for it.
#[inline(never)]
fn issued_edge(
    vault: &Vault,
    mut latched: u64,
    mut held: Cycle,
    from: usize,
    inputs: &CycleInputs,
) -> Cycle {
    let next = inputs.clock.saturating_add(1);
    let timing = vault.timing.as_ref();
    for e in vault.rqst.iter().take(inputs.window).skip(from) {
        match hold_edge(timing, &mut latched, e.dest_bank, e.dest_row, inputs.clock) {
            Some(edge) if edge > next => held = held.min(edge),
            _ => return 0,
        }
    }
    sleep_edge(vault, held, inputs)
}

/// What the next stage-3/4 walk of a vault would do, without doing it:
/// `None` when it would issue or stage something, else the edge that
/// walk would go to sleep on. Pure, and blind to `pending` (a release
/// never changes what the walk finds). The fast-forward horizon asks it
/// about vaults whose walk just acted or just received an arrival, and
/// `check_invariants` re-derives every cached edge with it.
pub(crate) fn idle_edge(vault: &Vault, inputs: &CycleInputs) -> Option<Cycle> {
    let window = inputs.window.min(vault.rqst.len());
    if inputs.restages_conflicts(window) {
        return None;
    }
    let timing = vault.timing.as_ref();
    let mut latched = refresh_latch(inputs, vault.id);
    let mut held = Cycle::MAX;
    for e in vault.rqst.iter().take(window) {
        // An issuable entry issues, or stage 4 reports `VaultRspStall`
        // for it every cycle.
        let edge = hold_edge(timing, &mut latched, e.dest_bank, e.dest_row, inputs.clock)?;
        held = held.min(edge);
        if inputs.policy == ConflictPolicy::StallQueue {
            break;
        }
    }
    Some(sleep_edge(vault, held, inputs))
}

/// Stages 3 and 4 for one vault: bank-conflict recognition over the
/// spatial window (trace only, §IV.C.3), then the windowed request walk
/// (§IV.C.4). Trace events are staged, not emitted (see the module doc);
/// `vault.stats`, the cell-fault counters in `stats` and the device's
/// error register are updated in place.
///
/// The engine does not call it for a sleeping vault ([`Vault::asleep`]).
/// One whose walk sleeps ([`Vault::walk_asleep`]) was woken only to
/// release data-ready responses, and returns after the release. Every
/// walk caches the edge of the next one in [`Vault::wake_at`]: a walk
/// that did nothing has learnt, entry by entry, when that can first
/// change ([`sleep_edge`]); one that issued asks only the entries that
/// slid into its window ([`issued_edge`]). One that reported
/// `VaultRspStall`, staged conflicts or issued in order leaves the
/// walk awake.
///
/// Timing decisions inside the walk are delegated to the vault's
/// [`crate::timing::VaultTiming`] backend through [`hold_edge`]; an
/// admitted packet's grant carries the data-ready cycle (`execute` parks
/// late data in `Vault::pending`) and the row-buffer outcome (staged as
/// RowHit/RowMiss/Precharge events and counted into `vault.stats`).
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
    bodies: &mut BodyPool,
) {
    // Release pending responses whose data became ready, before the walk
    // (their freed capacity admits new requests this cycle).
    vault.release_ready(inputs.clock);
    if vault.walk_asleep(inputs.clock) {
        return;
    }

    // ---- stage 3: recognize bank conflicts (no state modified) ----
    let window = inputs.window.min(vault.rqst.len());
    // The walk stays awake after staging conflicts or a response stall.
    let mut awake = inputs.restages_conflicts(window);
    let mut issued = false;
    if awake {
        let mut seen: u64 = 0;
        for e in vault.rqst.iter().take(window) {
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
    let mut latched = refresh_latch(inputs, vault.id);
    let mut held = Cycle::MAX;
    let mut idx = 0usize;
    let mut scanned = 0usize;
    loop {
        if scanned >= inputs.window {
            break;
        }
        // Packets are removed mid-walk, so bounds are rechecked every
        // iteration.
        // The hold rule reads the slot's header alone; the body is not
        // touched until the entry is admitted.
        let Some(e) = vault.rqst.get(idx) else {
            break;
        };
        let (bank, row) = (e.dest_bank, e.dest_row);
        scanned += 1;
        let timing = vault.timing.as_ref();
        if let Some(edge) = hold_edge(timing, &mut latched, bank, row, inputs.clock) {
            // Window conflicts are traced by stage 3.
            held = held.min(edge);
            if inputs.policy == ConflictPolicy::StallQueue {
                break;
            }
            idx += 1;
            continue;
        }
        // From here the tick issues the entry or reports its stall.
        let packet = &vault.rqst.get(idx).expect("idx checked").packet;
        let cmd = packet.cmd().ok();
        let tag = packet.tag();
        let needs_rsp = cmd.map(Vault::needs_response).unwrap_or(true);
        if needs_rsp && vault.rsp_capacity_full() {
            completions.stage(TraceEvent::VaultRspStall {
                cube: dev_id,
                vault: vi as VaultId,
                tag,
            });
            awake = true;
            latched |= 1u64 << (bank & 0x3f);
            if inputs.policy == ConflictPolicy::StallQueue {
                break;
            }
            idx += 1;
            continue;
        }

        issued = true;
        let entry = vault.rqst.remove(idx).expect("idx checked");
        let bytes = entry.packet.data_bytes() as u32;
        let grant = vault.timing.try_issue(bank, row, inputs.clock);
        // The one count of the grant's row outcome.
        match grant.outcome {
            RowOutcome::None => {}
            RowOutcome::Hit => vault.stats.row_hits += 1,
            RowOutcome::Miss | RowOutcome::Conflict => vault.stats.row_misses += 1,
        }
        if grant.pre_cycle.is_some() {
            vault.stats.precharges += 1;
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
        match vault.execute(entry, map, dev_id, inputs.clock, grant.data_ready, bodies) {
            Execution::Done | Execution::Responded => {}
            Execution::Failed(status) => {
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
    // `idx` counts the entries the walk held: the slots it left behind.
    vault.wake_at = if awake {
        0
    } else if !issued {
        sleep_edge(vault, held, inputs)
    } else if inputs.policy == ConflictPolicy::StallQueue
        || idx == 0
        || held <= inputs.clock.saturating_add(1)
    {
        // In order, the walk stops at its held head and never asks the
        // entries behind it. Out of order with nothing held
        // (the classic backend's steady state) or an edge at the next
        // cycle, the walk runs again anyway.
        0
    } else {
        issued_edge(vault, latched, held, idx, inputs)
    };
}

impl CycleInputs {
    /// Stage 3 re-emits `BankConflict` every cycle for same-bank pairs
    /// among the `window` entries it scans, so with that event recorded
    /// a window of more than one entry is never idle.
    fn restages_conflicts(&self, window: usize) -> bool {
        self.conflicts_enabled && window > 1
    }
}

impl HmcSim {
    /// Resolve the per-cycle read-only inputs of [`tick_vault`].
    pub(crate) fn cycle_inputs(&self) -> CycleInputs {
        CycleInputs {
            clock: self.clock,
            conflicts_enabled: self.tracer.enabled(EventKind::BankConflict),
            row_events: self.tracer.enabled(EventKind::RowHit),
            window: self.params().window_for(self.config.banks_per_vault),
            banks: self.config.banks_per_vault,
            policy: self.params().conflict_policy,
            refresh: self.params().refresh,
            fault_events: self.tracer.enabled(EventKind::RowHammerFlip)
                || self.tracer.enabled(EventKind::TargetedRefresh),
        }
    }

    /// Wake every vault when whether stage 3's `BankConflict` is recorded
    /// changed since the last clock, so a `set_tracer` or
    /// `tracer_mut().set_verbosity` between clock calls cannot leave a
    /// vault sleeping on an edge derived under the old rules. Everything
    /// else a tick reads from outside its vault changes only through
    /// [`HmcSim::set_params`], which wakes every vault itself. No-op on
    /// the steady-state hot path.
    fn ensure_vault_edges(&mut self) {
        let traced = self.tracer.enabled(EventKind::BankConflict);
        if traced == self.edges_trace_conflicts {
            return;
        }
        for v in self.devices.iter_mut().flat_map(|d| &mut d.vaults) {
            v.wake();
        }
        self.edges_trace_conflicts = traced;
    }

    /// Advance the simulation by `cycles` clock cycles.
    ///
    /// Results are bit-identical to calling [`HmcSim::clock`] `cycles`
    /// times. Before each cycle (but the one a jump lands on, and a
    /// last single cycle) the batch asks the fast-forward horizon how
    /// many upcoming cycles are provably dead and jumps them; batching
    /// exists so the horizon has a span of cycles to jump across. A
    /// batch of one steps: that is [`HmcSim::clock`].
    pub fn clock_batch(&mut self, cycles: u64) -> Result<()> {
        self.ensure_routes()?;
        self.ensure_vault_edges();
        let mut done = 0u64;
        // Whether the last iteration jumped. The horizon clamps every
        // jump to the earliest edge, so the cycle a jump lands on is live
        // by construction and steps without asking the horizon again.
        // Stepping is exact in any case: were its gates to hold once
        // more, the landing step would cost time, not a different result.
        let mut landed = false;
        while done < cycles {
            // A last single cycle steps too: the horizon could save at
            // most that cycle, and proving it dead walks every gate, which
            // costs more than stepping a dead cycle (whose walks the same
            // gates and sleep edges already skip). So `clock()`, a batch
            // of one, never asks.
            let dead = if landed || cycles - done == 1 {
                0
            } else {
                self.quiescent_horizon(cycles - done)
            };
            landed = dead > 0;
            if landed {
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
    /// A device with packets in flight on a buffered NoC is live, and
    /// that is asked first, before any per-unit gate: under dense
    /// traffic over a ring or mesh almost every call ends there. Apart
    /// from that the predicate is three per-unit gates, each answering
    /// [`Gate::Live`], [`Gate::Held`] for a computable number of cycles,
    /// or [`Gate::Inert`] (idle until another gate's edge fires):
    ///
    /// * [`HmcSim::xbar_rqst_gate`], per link — retraining window, FLIT
    ///   debt, retry timer, and the inert stage-1/2 walk over requests
    ///   that all wait on full vault queues;
    /// * [`HmcSim::xbar_rsp_gate`], per link — no response movers: all
    ///   are parked for a host `recv`;
    /// * [`HmcSim::vault_gate`], per vault — response queue, and the
    ///   vault's sleep edge: pending data-ready cycles and the stage-3/4
    ///   scan window held by refresh or by the timing backend's bank
    ///   edges.
    ///
    /// The returned horizon is the minimum over all `Held` spans (debt
    /// paydown completion, retry-timer and retraining expiry, the next
    /// [`RefreshParams::window_edge_after`], timing-backend retry edges,
    /// pending data-ready cycles), clamped to `max` and to the remaining
    /// `u64` clock range: the jump lands on the earliest edge, never past
    /// it, and that cycle runs stepped. Everything the walks *would* do
    /// in dead cycles (FLIT-debt decay) is replayed exactly by
    /// [`HmcSim::fast_forward_jump`].
    ///
    /// The unit whose gate answered [`Gate::Live`] last time
    /// ([`LiveUnit`]) is asked first, and while it stays live the scan
    /// stops there. That cannot change the answer: the horizon is zero
    /// exactly when some gate is live, whichever is found first.
    pub(crate) fn quiescent_horizon(&self, max: u64) -> u64 {
        let mut horizon = max.min(u64::MAX - self.clock);
        if horizon == 0 {
            return 0;
        }
        // Packets in flight between quads on a buffered NoC move (or at
        // least contend) every cycle: the device is live until the
        // fabric drains. The crossbar default has no NoC state, so this
        // costs one branch per device.
        let noc_busy = |dev: &Device| dev.noc.as_ref().is_some_and(|n| !n.is_empty());
        if self.devices.iter().any(noc_busy) {
            return 0;
        }
        if let Some(unit) = self.live_hint.get() {
            if self.unit_gate(unit) == Gate::Live {
                return 0;
            }
        }
        let inputs = self.cycle_inputs();
        let mut fold = |gate: Gate, unit: LiveUnit| match gate {
            Gate::Live => {
                self.live_hint.set(Some(unit));
                false
            }
            Gate::Held(dead) => {
                horizon = horizon.min(dead);
                true
            }
            Gate::Inert => true,
        };
        for (dev_index, dev) in self.devices.iter().enumerate() {
            let dev_index = dev_index as u8;
            for l in 0..self.config.num_links as usize {
                let link = l as u16;
                if !fold(self.xbar_rqst_gate(dev, l), LiveUnit::Rqst(dev_index, link))
                    || !fold(self.xbar_rsp_gate(dev, l), LiveUnit::Rsp(dev_index, link))
                {
                    return 0;
                }
            }
            for quad in &dev.quads {
                for vi in quad.vault_range() {
                    let unit = LiveUnit::Vault(dev_index, vi as u16);
                    if !fold(self.vault_gate(dev, vi, &inputs), unit) {
                        return 0;
                    }
                }
            }
        }
        horizon
    }

    /// The gate of one unit. Only a vault's gate reads the cycle inputs,
    /// so a crossbar hint is answered without resolving them.
    fn unit_gate(&self, unit: LiveUnit) -> Gate {
        match unit {
            LiveUnit::Rqst(d, l) => self.xbar_rqst_gate(&self.devices[d as usize], l as usize),
            LiveUnit::Rsp(d, l) => self.xbar_rsp_gate(&self.devices[d as usize], l as usize),
            LiveUnit::Vault(d, v) => {
                let inputs = self.cycle_inputs();
                self.vault_gate(&self.devices[d as usize], v as usize, &inputs)
            }
        }
    }

    /// The link / crossbar-request gate of link `l`: what the stage-1/2
    /// walk over this link's request queue does in the upcoming cycles.
    ///
    /// * The link layer answers first ([`Link::wait`](crate::link::Link::wait)).
    ///   A link down for retraining skips its walk until the window
    ///   lapses, and the first walk after expiry records the completed
    ///   retraining (the `LinkRetrain` event), which is observable work:
    ///   held until just short of that walk.
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
    ///   1 and 2 are read off the union of the slots' route classes
    ///   ([`PacketQueue::class_union`](crate::queue::PacketQueue::class_union),
    ///   kept by the queue's class census) and the device's full-vault
    ///   mask ([`Device::full_vaults`]), so the gate costs a few ANDs,
    ///   whatever the queue's depth and however many vaults it names.
    ///
    ///   Such a walk leaves every slot and latch as it found them and
    ///   only zeroes sub-budget FLIT debt, which
    ///   [`Link::skip_turns`](crate::link::Link::skip_turns) reproduces.
    ///   It needs no edge of its own: a vault queue stops being full
    ///   only when stage 4 issues from it, and every entry in
    ///   that (non-empty) vault's scan window already contributes its
    ///   exact edge through [`HmcSim::vault_gate`]. The one thing that
    ///   un-keys a slot without any packet moving is an address-map swap:
    ///   `set_address_map` forgets the keys at once, and an AC-register
    ///   write not yet applied holds the walk inert for exactly one more
    ///   cycle — the stage-6 edge that applies it.
    ///
    /// A stepped cycle asks this gate too, before the walk of a link
    /// whose last walk was idle, and skips the walk on [`Gate::Inert`]
    /// the way a one-cycle jump skips it: the step and the jump share
    /// one inert predicate. The tracer is checked before the union is
    /// read, so a traced run pays one branch.
    pub(crate) fn xbar_rqst_gate(&self, dev: &Device, l: usize) -> Gate {
        let rqst = &dev.xbars[l].rqst;
        let debt_dead = match dev.links[l].wait(self.link_rules(), self.clock) {
            LinkWait::Retrain(0) => return Gate::Live,
            LinkWait::Retrain(dead) => return Gate::Held(dead),
            LinkWait::Debt(dead) => dead,
        };
        if rqst.is_empty() {
            return Gate::Inert;
        }
        let retry_dead = match rqst.front() {
            Some(e) if self.faults.is_some() && e.retry_gated(self.clock) => {
                e.retry_until - self.clock
            }
            _ => 0,
        };
        let dead = debt_dead.max(retry_dead);
        if dead > 0 {
            return Gate::Held(dead);
        }
        if self.tracer.enabled(EventKind::XbarRqstStall) {
            return Gate::Live;
        }
        let classes = rqst.class_union();
        let inert = classes & (UNCLASSIFIED | dev.noc_vaults(l as LinkId)) == 0
            && classes & !dev.full_vaults == 0;
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
        self.devices[0].registers.ac() != self.ac_mode
    }

    /// The crossbar-response gate of link `l`: inert when the response
    /// queue has no movers ([`Crossbar::movers`](crate::xbar::Crossbar::movers)):
    /// every entry is parked for the host on this link, waiting on a
    /// host `recv`, which only the host can trigger. Live when the
    /// stage-5 forward walk may move or stall-report one. The forward
    /// walk skips the queue on the same count.
    fn xbar_rsp_gate(&self, dev: &Device, l: usize) -> Gate {
        if dev.xbars[l].movers() == 0 {
            Gate::Inert
        } else {
            Gate::Live
        }
    }

    /// The vault gate of vault `vi`: what [`tick_vault`] and the stage-5
    /// drain do in the upcoming cycles.
    ///
    /// * Any queued response is live (stage 5 would route or stall it).
    /// * A sleeping walk answers from its cached edge
    ///   ([`Vault::wake_at`]) in constant time.
    /// * An awake walk — it acted last cycle, or a request just arrived
    ///   inside its scan window — is asked what it would do
    ///   ([`idle_edge`], the same hold rule the walk applies): live when
    ///   it would issue or stage anything, else the edge it would cache.
    /// * The head of `pending` adds the next data-ready edge: held until
    ///   the earlier of the two, or inert when neither has one.
    fn vault_gate(&self, dev: &Device, vi: usize, inputs: &CycleInputs) -> Gate {
        let vault = &dev.vaults[vi];
        if !vault.rsp.is_empty() {
            return Gate::Live;
        }
        let walk = if vault.walk_asleep(self.clock) {
            vault.wake_at
        } else {
            match idle_edge(vault, inputs) {
                Some(edge) => edge,
                None => return Gate::Live,
            }
        };
        let wake = walk.min(vault.pending_min_ready().unwrap_or(Cycle::MAX));
        if wake <= self.clock {
            Gate::Live
        } else if wake == Cycle::MAX {
            Gate::Inert
        } else {
            Gate::Held(wake - self.clock)
        }
    }

    /// Jump the clock across `dead` cycles proven quiescent by
    /// [`HmcSim::quiescent_horizon`], reproducing exactly the state a
    /// stepped engine would reach:
    ///
    /// * every link is left as `dead` turns that move nothing leave it
    ///   ([`crate::link::Link::skip_turns`]: FLIT debt pays down, frozen
    ///   while the link retrains);
    /// * stage 6 runs once — its per-cycle effects are idempotent across
    ///   dead cycles (the register tick is a no-op unless an RWS write is
    ///   pending, and then clears it on the first edge; the IBTC mirror
    ///   rewrites unchanged token counts; and an AC map swap can only
    ///   trigger on the first edge since no register writes happen
    ///   mid-jump) — and the clock/cycle counters advance by the full
    ///   jump;
    /// * when invariant checking is on, the sweep runs once per jump
    ///   rather than once per skipped cycle: on a clean run both schedules
    ///   observe zero violations, and a violating state is caught at the
    ///   jump edge (see DESIGN.md on the per-jump checking policy).
    pub(crate) fn fast_forward_jump(&mut self, dead: u64) {
        debug_assert!(dead >= 1, "zero-length jumps must run stepped");
        let rules = self.link_rules();
        for dev in &mut self.devices {
            for link in &mut dev.links {
                link.skip_turns(rules, dead);
            }
        }
        self.stage6_update_clock();
        self.clock += dead - 1;
        if self.params().check_invariants {
            self.inv_check_cycle();
        }
    }

    /// One clock cycle: the six sub-cycle stages of §IV.C in order.
    pub(crate) fn clock_cycle(&mut self) {
        // No stage rewires a link, so which devices are roots holds for
        // the whole cycle.
        let roots = self.root_devices();
        self.stages12_xbar_requests(roots);
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
                vaults,
                registers,
                full_vaults,
                ..
            } = dev;
            for (vi, vault) in vaults.iter_mut().enumerate() {
                if vault.asleep(inputs.clock) {
                    continue;
                }
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
                    &mut self.bodies,
                );
                if !vault.rqst.is_full() {
                    *full_vaults &= !(1 << vi);
                }
            }
        }
        // Sub-cycle order in the trace: conflicts, then completions.
        scratch.conflicts.flush_into(&mut self.tracer, self.clock);
        scratch.completions.flush_into(&mut self.tracer, self.clock);

        // ---- stage 5: roots first, then children (§IV.C.5) ----
        for root_pass in [true, false] {
            for di in 0..self.devices.len() {
                if (roots >> di & 1 != 0) != root_pass {
                    continue;
                }
                self.forward_xbar_responses(di);
                for vi in 0..self.devices[di].vaults.len() {
                    if !self.devices[di].vaults[vi].rsp.is_empty() {
                        self.drain_vault_responses(di, vi);
                    }
                }
            }
        }

        self.stage6_update_clock();
        if self.params().check_invariants {
            self.inv_check_cycle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Gate;
    use crate::noc::NocParams;
    use crate::params::{ConflictPolicy, RefreshParams, SimParams};
    use crate::queue::{PacketQueue, QueueEntry, NO_ROUTE};
    use crate::register::regs;
    use crate::sim::{HmcSim, SimStats};
    use crate::timing::{DdrTiming, IssueGrant, TimingParams, VaultTiming};
    use crate::xbar::Crossbar;
    use hmc_trace::{
        EventKind, NullSink, SharedSink, TraceEvent, TraceRecord, Tracer, VecSink, Verbosity,
    };
    use hmc_types::{
        ArbitrationKind, BlockSize, Command, DdrTimings, DeviceConfig, InterconnectKind,
        LinkFaultConfig, LinkId, Packet, TimingKind,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn sim_with(params: SimParams) -> HmcSim {
        let mut s = HmcSim::new(1, DeviceConfig::small())
            .unwrap()
            .with_params(params);
        for l in 0..4 {
            s.connect_host(0, l, s.host_cube_id(0)).unwrap();
        }
        s
    }

    /// Links armed with the default (zero-rate) faults.
    fn faulty_params() -> SimParams {
        SimParams {
            link_faults: Some(LinkFaultConfig::default()),
            ..SimParams::default()
        }
    }

    /// `n` stepped cycles: the reference every batch must reproduce.
    fn step(s: &mut HmcSim, n: u64) {
        for _ in 0..n {
            s.clock().unwrap();
        }
    }

    /// Advance `n` cycles: one batch, which jumps what the horizon
    /// proves dead, or `n` stepped cycles.
    fn advance(s: &mut HmcSim, n: u64, batched: bool) {
        if batched {
            s.clock_batch(n).unwrap();
        } else {
            step(s, n);
        }
    }

    fn read_packet(addr: u64, tag: u16, link: LinkId) -> Packet {
        Packet::request(Command::Rd(BlockSize::B64), 0, addr, tag, link, &[]).unwrap()
    }

    /// Hand `e` to vault `vault` of device 0 the way stage 2 and the NoC
    /// do.
    fn deliver(s: &mut HmcSim, vault: usize, e: QueueEntry) {
        let window = s.params().window_for(s.config.banks_per_vault);
        let dev = &mut s.devices[0];
        let (vaults, full) = (&mut dev.vaults, &mut dev.full_vaults);
        crate::device::push_request(vaults, full, vault as u16, e, window).unwrap();
    }

    fn vault_gate(s: &HmcSim, vault: usize) -> Gate {
        s.vault_gate(&s.devices[0], vault, &s.cycle_inputs())
    }

    /// Drive `sim` through the same bursty schedule every differential
    /// test uses: `bursts` rounds of (send `k` reads, clock a long
    /// mostly-dead gap, drain all responses), batched or stepped.
    /// Returns every received (tag, latency) in drain order plus the
    /// final (clock, cycles).
    fn bursty_run(
        sim: &mut HmcSim,
        batched: bool,
        bursts: u64,
        k: u16,
        gap: u64,
    ) -> (Vec<(u16, u64)>, u64, u64) {
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
                            advance(sim, 1, batched);
                            tries += 1;
                            assert!(tries < 100_000, "send stalled forever");
                        }
                        Err(e) => panic!("send failed: {e:?}"),
                    }
                }
                tag += 1;
            }
            advance(sim, gap, batched);
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
        let mut s = sim_with(SimParams::default());
        s.clock_batch(10_000).unwrap();
        assert_eq!(s.current_clock(), 10_000);
        assert_eq!(s.stats().cycles, 10_000);
        // The horizon itself reports the full remaining span.
        assert_eq!(s.quiescent_horizon(500), 500);
        assert_eq!(s.quiescent_horizon(0), 0, "zero span never jumps");
    }

    #[test]
    fn any_live_stage_forces_stepping() {
        let mut s = sim_with(SimParams::default());
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
            ..SimParams::default()
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
            ..SimParams::default()
        });
        let vault = 3u16;
        let banks = s.config.banks_per_vault;
        let bank = refresh
            .bank_under_refresh(0, vault, banks)
            .expect("cycle 0 is inside the first window");
        let mut e = QueueEntry::new(read_packet(0, 9, 0), 1, 0, 0);
        e.dest_vault = vault;
        e.dest_bank = bank;
        deliver(&mut s, vault as usize, e);

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
        s.set_params(SimParams {
            refresh: None,
            ..*s.params()
        });
        s.devices[0].vaults[vault as usize]
            .rqst
            .get_mut(0)
            .unwrap()
            .dest_bank = bank;
        assert_eq!(s.quiescent_horizon(100), 0);
    }

    #[test]
    fn retry_timer_blocks_until_its_expiry_cycle() {
        let mut s = sim_with(faulty_params());
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
        let mut s = sim_with(faulty_params());
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
        let mut s = sim_with(SimParams::default());
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
        let a = bursty_run(&mut sim_with(params), false, 6, 12, 400);
        let b = bursty_run(&mut sim_with(params), true, 6, 12, 400);
        assert_eq!(a, b, "a batch must be bit-identical to stepped");
    }

    #[test]
    fn ddr_timing_edges_gate_the_horizon_exactly() {
        let t = DdrTimings::default();
        let mut s = sim_with(SimParams {
            timing: TimingParams::of(TimingKind::Ddr),
            ..SimParams::default()
        });
        let vault = 2usize;
        // Open row 0 on bank 1 at cycle 0: a miss, ACT at 0, and the
        // bank accepts its next column access at tRCD + tCCD.
        let _ = s.devices[0].vaults[vault].timing.try_issue(1, 0, 0);

        // A same-row request is held by exactly the bank-ready edge.
        let mut e = QueueEntry::new(read_packet(0, 7, 0), 1, 0, 0);
        e.dest_vault = vault as u16;
        e.dest_bank = 1;
        e.dest_row = 0;
        deliver(&mut s, vault, e);
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
            ..SimParams::default()
        });
        let vault = 3u16;
        let banks = s.config.banks_per_vault;
        let bank = refresh
            .bank_under_refresh(0, vault, banks)
            .expect("cycle 0 is inside the first window");
        let mut e = QueueEntry::new(read_packet(0, 9, 0), 1, 0, 0);
        e.dest_vault = vault;
        e.dest_bank = bank;
        e.dest_row = 0;
        deliver(&mut s, vault as usize, e);
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
        let a = bursty_run(&mut stepped, false, 6, 12, 400);
        let b = bursty_run(&mut sim_with(params), true, 6, 12, 400);
        assert_eq!(a, b, "a DDR batch must be bit-identical to stepped");
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
        let params = SimParams {
            link_faults: faults,
            ..SimParams::default()
        };
        let mut stepped = sim_with(params);
        let a = bursty_run(&mut stepped, false, 6, 8, 250);
        let b = bursty_run(&mut sim_with(params), true, 6, 8, 250);
        assert_eq!(a, b, "retry timers must fire identically across jumps");
        assert!(
            stepped.stats().link_retries > 0,
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
        let (a, ..) = bursty_run(&mut xbar, false, 4, 12, 250);
        let (b, ..) = bursty_run(&mut ring, false, 4, 12, 250);
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
        let a = bursty_run(&mut stepped, false, 5, 12, 300);
        let b = bursty_run(&mut sim_with(ring), true, 5, 12, 300);
        assert_eq!(a, b, "jumps must account for in-flight ring hops");
        assert!(stepped.stats().noc_hops > 0);
    }

    #[test]
    fn mesh_fast_forward_matches_stepped() {
        let mesh = noc_params(InterconnectKind::Mesh, ArbitrationKind::OldestFirst);
        let mut stepped = sim_with(mesh);
        let a = bursty_run(&mut stepped, false, 5, 12, 300);
        let b = bursty_run(&mut sim_with(mesh), true, 5, 12, 300);
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
            let a = bursty_run(&mut sim_with(params), false, 4, 12, 250);
            let b = bursty_run(&mut sim_with(params), true, 4, 12, 250);
            assert_eq!(a, b, "{} must not depend on jump placement", arb.name());
        }
    }

    #[test]
    fn in_flight_noc_hops_force_stepping() {
        let mut s = sim_with(SimParams {
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

    /// DDR timing: these tests call the horizon and the jump directly,
    /// and [`step`] is the stepped reference.
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
            let keyed = |x: &Crossbar| x.rqst.class_union() & !1 == 0;
            dev.vaults[0].rqst.is_full() && dev.xbars.iter().all(keyed)
        };
        while !settled(&s) {
            assert!(s.current_clock() < 8, "the burst never settled");
            s.clock().unwrap();
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
        assert_eq!(vault_gate(&s, 0), Gate::Held(edge - s.clock));
        assert_eq!(vault_gate(&s, 1), Gate::Inert, "an empty vault");
        assert_eq!(s.quiescent_horizon(10_000), edge - s.clock);

        // The jump lands exactly where the stepped engine next does
        // something, and leaves what the stepped engine leaves.
        let mut stepped = stalled_on_full_vault(ddr_params());
        let dead = edge - s.clock;
        s.fast_forward_jump(dead);
        step(&mut stepped, dead);
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

        // A keyed slot whose vault has a free slot moves this cycle (the
        // vault's head taken as stage 4 takes it, full bit and all).
        let mut s = stalled_on_full_vault(ddr_params());
        s.devices[0].vaults[0].rqst.pop().unwrap();
        s.devices[0].full_vaults &= !1;
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
        // Vault 0 (quad 0) full behind a busy bank, and one keyed request
        // for it on link 0 (same quad: direct push) and on link 1 (cross
        // quad: would inject into the empty mesh this cycle).
        let _ = s.devices[0].vaults[0].timing.try_issue(0, 0, 0);
        for i in 1..=4u16 {
            let mut e = QueueEntry::new(read_packet(row_addr(i), i, 0), 1, 0, 0);
            (e.dest_vault, e.dest_bank, e.dest_row) = (0, 0, u64::from(i));
            deliver(&mut s, 0, e);
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

    /// The crossbar gate's inert rule as it stood before route classes:
    /// every slot decoded to its vault and tested on its own.
    fn per_slot_inert(s: &HmcSim, l: usize) -> bool {
        let dev = &s.devices[0];
        let (rqst, noc_vaults) = (&dev.xbars[l].rqst, dev.noc_vaults(l as LinkId));
        (0..rqst.len()).all(|i| match rqst.route_key(i) {
            NO_ROUTE => false,
            v => noc_vaults >> v & 1 == 0 && dev.vaults[v as usize].rqst.is_full(),
        })
    }

    #[test]
    fn the_class_union_gate_matches_the_per_slot_rule_on_random_queues() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
        // One vault per quad, so that on a ring or mesh each link reaches
        // one of them directly and three through the fabric.
        let vaults = [0u16, 5, 10, 15];
        let (mut inert, mut live) = (0, 0);
        for trial in 0..600 {
            let fabric = InterconnectKind::ALL[trial % 3];
            let mut s = sim_with(SimParams {
                interconnect: NocParams::of(fabric),
                ..ddr_params()
            });
            // Most vault queues full, the rest empty or part full.
            for &v in &vaults {
                let depth = s.devices[0].vaults[v as usize].rqst.depth() as u64;
                let fill = if next(4) == 0 { next(depth) } else { depth };
                for i in 0..fill as u16 {
                    let mut e = QueueEntry::new(read_packet(0, i, 0), 1, 0, 0);
                    (e.dest_vault, e.dest_bank, e.dest_row) = (v, 0, u64::from(i));
                    deliver(&mut s, v as usize, e);
                }
            }
            for l in 0..4u8 {
                let rqst = &mut s.devices[0].xbars[l as usize].rqst;
                for i in 0..next(rqst.depth() as u64 + 1) as usize {
                    rqst.push(QueueEntry::new(read_packet(0, i as u16, l), 1, 0, 0))
                        .unwrap();
                    if next(8) != 0 {
                        rqst.set_route(i, vaults[next(4) as usize], 0, 0);
                    }
                }
            }
            for l in 0..4 {
                let want = if per_slot_inert(&s, l) {
                    inert += 1;
                    Gate::Inert
                } else {
                    live += 1;
                    Gate::Live
                };
                assert_eq!(
                    s.xbar_rqst_gate(&s.devices[0], l),
                    want,
                    "trial {trial} link {l} over {fabric:?}"
                );
            }
        }
        assert!(inert > 200 && live > 200, "{inert} inert, {live} live");
    }

    #[test]
    fn link_retry_state_behind_keyed_slots_keeps_the_crossbar_live() {
        for (corrupt, retry_for) in [(true, 0), (false, 50)] {
            let mut s = stalled_on_full_vault(ddr_params());
            s.set_params(SimParams {
                link_faults: Some(LinkFaultConfig::default()),
                ..*s.params()
            });
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
        step(&mut stepped, dead);
        assert_eq!(stepped.devices[0].links[1].flit_debt, 0);
        assert_eq!(fast.devices[0].links[1].flit_debt, 0);
        assert_eq!(fast.current_clock(), stepped.current_clock());

        // Debt that covers the budget skips the walk: held, not inert.
        fast.devices[0].links[1].flit_debt = 5;
        assert_eq!(fast.xbar_rqst_gate(&fast.devices[0], 1), Gate::Held(2));
    }

    // ---- stage 1/2 and stage 5 skip what the horizon proves inert ----

    /// One stepped cycle with every idle-walk hint cleared, so that each
    /// link's walk runs: the engine as it was before stage 1/2 asked the
    /// crossbar gate.
    fn step_walking_every_link(s: &mut HmcSim) {
        for x in s.devices.iter_mut().flat_map(|d| &mut d.xbars) {
            x.idle_walk = false;
        }
        s.clock().unwrap();
    }

    /// The non-empty links of device 0 whose walk the next stepped cycle
    /// skips on the hint and the gate.
    fn skipped_walks(s: &HmcSim) -> Vec<usize> {
        let dev = &s.devices[0];
        let skipped = |&l: &usize| {
            let x = &dev.xbars[l];
            !x.rqst.is_empty() && x.idle_walk && s.xbar_rqst_gate(dev, l) == Gate::Inert
        };
        (0..dev.xbars.len()).filter(skipped).collect()
    }

    fn tags<W: crate::queue::SlotWord>(q: &PacketQueue<W>) -> Vec<u16> {
        q.iter().map(|e| e.packet.tag()).collect()
    }

    /// Everything a skipped walk could leave differently on device 0:
    /// every crossbar and vault request queue in order, each link's FLIT
    /// debt and tokens, the clock and the counters.
    type WalkState = (Vec<Vec<u16>>, Vec<(u32, u32)>, u64, SimStats);

    fn walk_state(s: &HmcSim) -> WalkState {
        let dev = &s.devices[0];
        let xbars = dev.xbars.iter().map(|x| tags(&x.rqst));
        let queues = xbars.chain(dev.vaults.iter().map(|v| tags(&v.rqst)));
        let links = dev.links.iter().map(|l| (l.flit_debt, l.tokens)).collect();
        (queues.collect(), links, s.clock, s.stats())
    }

    #[test]
    fn a_skipped_serialized_walk_leaves_the_debt_the_walk_would() {
        let params = SimParams {
            link_flits_per_cycle: Some(2),
            ..ddr_params()
        };
        let mut skipping = stalled_on_full_vault(params);
        let mut walking = stalled_on_full_vault(params);
        for s in [&mut skipping, &mut walking] {
            s.clock().unwrap(); // a walk that moves nothing sets the hint
            for link in &mut s.devices[0].links[..2] {
                link.flit_debt = 1;
            }
        }
        assert_eq!(skipped_walks(&skipping), [0, 1]);
        skipping.clock().unwrap();
        step_walking_every_link(&mut walking);
        let debt = |s: &HmcSim| s.devices[0].links[1].flit_debt;
        assert_eq!(
            debt(&walking),
            0,
            "the walk's trailing store zeroes sub-budget debt"
        );
        assert_eq!(debt(&skipping), 0);
        assert_eq!(walk_state(&skipping), walk_state(&walking));
    }

    #[test]
    fn a_skipped_walk_runs_again_on_the_cycle_its_vault_frees_a_slot() {
        let mut skipping = stalled_on_full_vault(ddr_params());
        let mut walking = stalled_on_full_vault(ddr_params());
        let (mut skips, mut wakes) = (0, 0);
        let mut last: Vec<usize> = Vec::new();
        while !skipping.devices[0].xbars[..2]
            .iter()
            .all(|x| x.rqst.is_empty())
        {
            assert!(
                skipping.current_clock() < 5_000,
                "the crossbar never drained"
            );
            let lens: Vec<usize> = skipping.devices[0]
                .xbars
                .iter()
                .map(|x| x.rqst.len())
                .collect();
            let now = skipped_walks(&skipping);
            skipping.clock().unwrap();
            step_walking_every_link(&mut walking);
            let clock = skipping.current_clock();
            assert_eq!(walk_state(&skipping), walk_state(&walking), "cycle {clock}");
            let moved = |l: &usize| skipping.devices[0].xbars[*l].rqst.len() < lens[*l];
            wakes += last.iter().filter(|l| !now.contains(l) && moved(l)).count();
            skips += now.len();
            last = now;
        }
        assert!(skips > 100, "{skips} walks skipped");
        assert!(wakes > 0, "no skipped walk moved on the cycle after");
    }

    #[test]
    fn a_traced_stall_walk_is_never_skipped() {
        let mut skipping = stalled_on_full_vault(ddr_params());
        let mut walking = stalled_on_full_vault(ddr_params());
        let sinks = [&mut skipping, &mut walking].map(|s| {
            let sink = SharedSink::new(VecSink::default());
            let verbosity = Verbosity::threshold_for(EventKind::XbarRqstStall);
            s.set_tracer(Tracer::new(verbosity, Box::new(sink.handle())));
            sink
        });
        for _ in 0..16 {
            assert!(skipped_walks(&skipping).is_empty());
            skipping.clock().unwrap();
            step_walking_every_link(&mut walking);
        }
        let [skipped, walked] = sinks.map(|sink| {
            let records = std::mem::take(&mut sink.0.lock().records);
            let stall = |r: &TraceRecord| matches!(r.event, TraceEvent::XbarRqstStall { .. });
            records.into_iter().filter(stall).collect::<Vec<_>>()
        });
        assert_eq!(skipped, walked);
        assert_eq!(skipped.len(), 32, "both stalled links report every cycle");
    }

    #[test]
    fn forwarded_responses_count_as_movers_on_a_chain() {
        let mut s = HmcSim::new(2, DeviceConfig::small())
            .unwrap()
            .with_params(SimParams {
                check_invariants: true,
                ..SimParams::default()
            });
        let host = s.host_cube_id(0);
        crate::topology::build_chain(&mut s, host).unwrap();
        for tag in 0..8u16 {
            let read = Command::Rd(BlockSize::B64);
            let p = Packet::request(read, 1, u64::from(tag) * 64, tag, 0, &[]).unwrap();
            s.send(0, 0, p).unwrap();
        }
        let (mut movers, mut got) = (0, 0);
        while got < 8 {
            assert!(s.current_clock() < 500, "{got} of 8 responses came back");
            s.clock().unwrap();
            // No link of cube 1 reaches a host: every response there
            // moves on.
            for x in &s.devices[1].xbars {
                assert_eq!(x.movers(), x.rsp().len());
                movers += x.movers();
            }
            while s.recv(0, 0).is_ok() {
                got += 1;
            }
        }
        assert!(movers > 0, "no response was ever forwarded");
        assert_eq!(s.invariant_violations(), &[] as &[String]);
    }

    #[test]
    fn rewiring_a_link_after_traffic_recounts_its_movers() {
        let mut s = sim_with(SimParams::default());
        for tag in 0..4u16 {
            s.send(0, 0, read_packet(u64::from(tag) * 64, tag, 0))
                .unwrap();
        }
        while s.pending_responses(0, 0).unwrap() < 4 {
            assert!(s.current_clock() < 100, "the reads never completed");
            s.clock().unwrap();
        }
        let movers = |s: &HmcSim| s.devices[0].xbars[0].movers();
        assert_eq!(movers(&s), 0, "parked for the host's recv");
        assert_eq!(s.xbar_rsp_gate(&s.devices[0], 0), Gate::Inert);
        s.disconnect(0, 0).unwrap();
        assert_eq!(movers(&s), 4, "no host to deliver to");
        assert_eq!(s.xbar_rsp_gate(&s.devices[0], 0), Gate::Live);
        s.connect_host(0, 0, s.host_cube_id(0)).unwrap();
        assert_eq!(movers(&s), 0);
        assert_eq!(s.xbar_rsp_gate(&s.devices[0], 0), Gate::Inert);
        s.connect_host(0, 0, s.host_cube_id(1)).unwrap();
        assert_eq!(movers(&s), 4, "parked for another host");
    }

    /// Vault 2 with bank 1 busy on row 0: a row-conflict head for bank
    /// 1 and an issuable request for bank 2 behind it.
    fn held_head_issuable_tail(policy: ConflictPolicy) -> HmcSim {
        let mut s = sim_with(SimParams {
            conflict_policy: policy,
            ..ddr_params()
        });
        let _ = s.devices[0].vaults[2].timing.try_issue(1, 0, 0);
        for (tag, bank, row) in [(1u16, 1u16, 3u64), (2, 2, 0)] {
            let mut e = QueueEntry::new(read_packet(0, tag, 0), 1, 0, 0);
            (e.dest_vault, e.dest_bank, e.dest_row) = (2, bank, row);
            deliver(&mut s, 2, e);
        }
        s
    }

    #[test]
    fn in_order_vault_sleeps_on_its_held_head_alone() {
        let t = DdrTimings::default();
        // Out of order, the tail passes the held head: live.
        let s = held_head_issuable_tail(ConflictPolicy::SkipConflicting);
        assert_eq!(vault_gate(&s, 2), Gate::Live);
        // In order, stage 4 breaks at the held head and never looks at
        // the tail: the head's edge is the only one.
        let s = held_head_issuable_tail(ConflictPolicy::StallQueue);
        let edge = t.t_rcd + t.t_ccd;
        assert_eq!(vault_gate(&s, 2), Gate::Held(edge));
        assert_eq!(s.quiescent_horizon(1_000), edge);
    }

    #[test]
    fn stall_queue_fast_forward_matches_stepped_behind_a_held_head() {
        let run = |batched: bool| {
            let mut s = sim_with(SimParams {
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
                advance(&mut s, 200, batched);
                while let Ok((p, lat)) = s.recv_with_latency(0, 0) {
                    got.push((p.tag(), lat));
                }
            }
            assert_eq!(got.len(), 24, "every read answers within its gap");
            (got, s.current_clock(), s.stats())
        };
        assert_eq!(run(false), run(true));
    }
    // ------------------------------------------------ the sleeping vault

    /// Vault 0, bank `bank`, row `row` under `small()`'s default map.
    fn bank_row_addr(bank: u16, row: u64) -> u64 {
        row << 14 | u64::from(bank) << 11
    }

    /// Reads to the given (bank, row)s of vault 0, tagged by position,
    /// sent on link 0 and clocked until the crossbar has handed them all
    /// over and vault 0's tick has found nothing left to do: under DDR
    /// the head of each bank has issued and the rest wait on its edges.
    fn vault0_asleep(params: SimParams, reads: &[(u16, u64)]) -> HmcSim {
        let mut s = sim_with(SimParams {
            check_invariants: true,
            ..params
        });
        for (tag, &(bank, row)) in reads.iter().enumerate() {
            let p = read_packet(bank_row_addr(bank, row), tag as u16, 0);
            s.send(0, 0, p).unwrap();
        }
        while !(s.devices[0].xbars[0].rqst.is_empty() && s.devices[0].vaults[0].asleep(s.clock)) {
            assert!(s.current_clock() < 8, "vault 0 never went to sleep");
            s.clock().unwrap();
        }
        s
    }

    fn assert_clean(s: &HmcSim) {
        assert_eq!(s.invariant_violations(), &[] as &[String]);
    }

    #[test]
    fn a_vault_with_nothing_issuable_sleeps_until_its_first_bank_edge() {
        let t = DdrTimings::default();
        // Row 0 issues at cycle 0; row 1 waits on the bank, row 2 is
        // latched behind row 1 and adds no edge of its own.
        let s = vault0_asleep(ddr_params(), &[(0, 0), (0, 1), (0, 2)]);
        let vault = &s.devices[0].vaults[0];
        assert_eq!(vault.rqst.len(), 2);
        assert_eq!(vault.wake_at, t.t_rcd + t.t_ccd);
        assert_eq!(vault_gate(&s, 0), Gate::Held(vault.wake_at - s.clock));
        // An empty vault sleeps without an edge.
        assert_eq!(s.devices[0].vaults[1].wake_at, u64::MAX);
        assert_eq!(vault_gate(&s, 1), Gate::Inert);
        assert_clean(&s);
    }

    #[test]
    fn an_arrival_wakes_a_sleeping_vault_only_inside_its_scan_window() {
        let params = SimParams {
            vault_window: Some(2),
            ..ddr_params()
        };
        // One held entry in a window of two: a read for an idle bank
        // lands inside the window and issues the cycle it is delivered.
        let mut s = vault0_asleep(params, &[(0, 0), (0, 1)]);
        assert_eq!(s.devices[0].vaults[0].rqst.len(), 1);
        let misses = s.stats().row_misses;
        s.send(0, 0, read_packet(bank_row_addr(1, 0), 9, 0))
            .unwrap();
        s.clock().unwrap();
        assert_eq!(s.stats().row_misses, misses + 1, "issued on delivery");
        assert_clean(&s);

        // Two held entries fill the window: the same read lands beyond
        // it, where stage 4 will not look before the window moves — the
        // vault is not even woken to re-derive the edge it has.
        let mut s = vault0_asleep(params, &[(0, 0), (0, 1), (0, 2)]);
        let (misses, edge) = (s.stats().row_misses, s.devices[0].vaults[0].wake_at);
        deliver_read(&mut s, 1, 0, 9);
        assert_eq!(s.devices[0].vaults[0].wake_at, edge);
        s.clock().unwrap();
        assert_eq!(s.devices[0].vaults[0].rqst.len(), 3);
        assert_eq!(s.stats().row_misses, misses);
        assert_clean(&s);
    }

    #[test]
    fn a_response_becoming_data_ready_wakes_the_vault_exactly_then() {
        let t = DdrTimings::default();
        let mut s = vault0_asleep(ddr_params(), &[(0, 0)]);
        let ready_at = t.t_rcd + t.t_cas;
        assert!(s.devices[0].vaults[0].rqst.is_empty());
        // The walk of an empty queue has no edge; the data-ready one is
        // the head of `pending`.
        assert_eq!(s.devices[0].vaults[0].wake_at, u64::MAX);
        assert_eq!(vault_gate(&s, 0), Gate::Held(ready_at - s.clock));
        let dead = ready_at - s.clock;
        step(&mut s, dead);
        assert!(s.recv(0, 0).is_err(), "cycle {ready_at} has not run yet");
        s.clock().unwrap();
        assert_eq!(s.recv(0, 0).unwrap().tag(), 0);
        assert_clean(&s);
    }

    #[test]
    fn in_order_vault_caches_its_held_head_edge_alone() {
        let t = DdrTimings::default();
        let params = SimParams {
            conflict_policy: ConflictPolicy::StallQueue,
            ..ddr_params()
        };
        // Behind the held head sits a read for an idle bank: out of
        // order it would have issued, in order it is never looked at.
        let s = vault0_asleep(params, &[(0, 0), (0, 1), (1, 0)]);
        assert_eq!(s.devices[0].vaults[0].rqst.len(), 2);
        assert_eq!(s.devices[0].vaults[0].wake_at, t.t_rcd + t.t_ccd);
        assert_eq!(s.stats().row_misses, 1);
        assert_clean(&s);
    }

    #[test]
    fn a_change_to_anything_the_tick_reads_wakes_every_vault() {
        type Change = fn(&mut HmcSim);
        let changes: [(&str, Change); 7] = [
            ("BankConflict tracing, new tracer", |s| {
                let level = Verbosity::threshold_for(EventKind::BankConflict);
                s.set_tracer(Tracer::new(level, Box::new(NullSink)));
            }),
            ("BankConflict tracing, new verbosity", |s| {
                let level = Verbosity::threshold_for(EventKind::BankConflict);
                s.tracer_mut().set_verbosity(level);
            }),
            ("vault_window", |s| {
                s.set_params(SimParams {
                    vault_window: Some(1),
                    ..*s.params()
                })
            }),
            ("conflict_policy", |s| {
                s.set_params(SimParams {
                    conflict_policy: ConflictPolicy::StallQueue,
                    ..*s.params()
                })
            }),
            ("refresh", |s| {
                s.set_params(SimParams {
                    refresh: Some(RefreshParams {
                        interval: 64,
                        duration: 6,
                    }),
                    ..*s.params()
                })
            }),
            ("timing", |s| {
                s.set_params(SimParams {
                    timing: TimingParams::default(),
                    ..*s.params()
                })
            }),
            ("cell faults", |s| {
                s.set_params(SimParams {
                    cell_faults: Some(hmc_types::CellFaultConfig::default()),
                    ..*s.params()
                })
            }),
        ];
        for (what, change) in changes {
            let mut s = vault0_asleep(ddr_params(), &[(0, 0), (0, 1), (0, 2)]);
            change(&mut s);
            // Zero cycles: only the clock-entry check runs.
            s.clock_batch(0).unwrap();
            let dev = &s.devices[0];
            assert!(dev.vaults.iter().all(|v| !v.asleep(s.clock)), "{what}");
            // Whatever the new rules make of the queue, the edges the
            // vaults go back to sleep on are derived under them.
            step(&mut s, 40);
            assert_eq!(s.invariant_violations(), &[] as &[String], "{what}");
        }
    }

    #[test]
    fn newly_recorded_bank_conflicts_are_reported_from_the_next_cycle() {
        // Rows 1 and 2 wait in one window on one bank, asleep; stage 3
        // re-reports the pair every cycle from the moment it is recorded.
        let mut s = vault0_asleep(ddr_params(), &[(0, 0), (0, 1), (0, 2)]);
        let sink = hmc_trace::SharedSink::new(hmc_trace::VecSink::default());
        let level = Verbosity::threshold_for(EventKind::BankConflict);
        s.set_tracer(Tracer::new(level, Box::new(sink.clone())));
        let first = s.clock;
        step(&mut s, 3);
        let conflicts: Vec<u64> = sink
            .0
            .lock()
            .records
            .iter()
            .filter(|r| r.event.kind() == EventKind::BankConflict)
            .map(|r| r.cycle)
            .collect();
        assert_eq!(conflicts, [first, first + 1, first + 2]);
    }

    #[test]
    fn a_timing_backend_swap_reissues_what_the_old_one_held() {
        let mut s = vault0_asleep(ddr_params(), &[(0, 0), (0, 1)]);
        // Classic installs with every bank free: the held read goes now.
        s.set_params(SimParams {
            timing: TimingParams::default(),
            ..*s.params()
        });
        s.clock().unwrap();
        assert!(s.devices[0].vaults[0].rqst.is_empty());
        assert_clean(&s);
    }

    #[test]
    fn a_trr_park_moves_the_edge_the_vault_sleeps_on() {
        let t = DdrTimings::default();
        let trr = hmc_types::CellFaultConfig {
            hammer_threshold: 1,
            mitigation: hmc_types::Mitigation::Trr,
            trr_cost: 100,
            ..hmc_types::CellFaultConfig::default()
        };
        // The first activation crosses the threshold: the bank is parked
        // for a targeted refresh from the cycle it issued (0), well past
        // its command spacing. The park lands inside the tick that
        // issued, before the younger read asks the bank, so that tick
        // caches the park as its edge.
        let mut s = vault0_asleep(
            SimParams {
                cell_faults: Some(trr),
                ..ddr_params()
            },
            &[(0, 0), (0, 1)],
        );
        assert_eq!(s.stats().trr_refreshes, 1);
        assert_eq!(s.current_clock(), 1, "asleep straight after the issue");
        assert!(100 > t.t_rcd + t.t_cas, "the park outlasts the data edge");
        assert_eq!(s.devices[0].vaults[0].wake_at, 100);
        assert_eq!(vault_gate(&s, 0), Gate::Held(t.t_rcd + t.t_cas - 1));
        // The release does not walk: the walk sleeps on to the park.
        let dead = t.t_rcd + t.t_cas + 2 - s.clock;
        step(&mut s, dead);
        assert_eq!(s.devices[0].vaults[0].wake_at, 100, "then the park");
        let dead = 100 - s.clock;
        step(&mut s, dead);
        assert_eq!(s.stats().row_misses, 1, "cycle 100 has not run yet");
        s.clock().unwrap();
        assert_eq!(s.stats().row_misses, 2, "issued at the park edge");
        assert_clean(&s);
    }

    /// A read of (bank, row) handed to vault 0 in one of the sim's own
    /// bodies (the checker counts them), as stage 2 would.
    fn deliver_read(s: &mut HmcSim, bank: u16, row: u64, tag: u16) {
        let body = s.bodies.take(read_packet(bank_row_addr(bank, row), tag, 0));
        let mut e = QueueEntry::with_body(body, s.host_cube_id(0), 0, s.clock);
        (e.dest_vault, e.dest_bank, e.dest_row) = (0, bank, row);
        deliver(s, 0, e);
    }

    /// A two-slot DDR window whose tick at cycle 1 issues a row miss on
    /// bank 0, holds the younger bank-0 read on it (edge `1 + tRCD +
    /// tCCD`), and lets `slide_in` slide into the window behind the
    /// issue. Bank 1 opened row 0 at cycle 0, so it is busy until `tRCD +
    /// tCCD`, one cycle before bank 0.
    fn issuing_tick(slide_in: (u16, u64)) -> HmcSim {
        let mut s = sim_with(SimParams {
            check_invariants: true,
            vault_window: Some(2),
            ..ddr_params()
        });
        deliver_read(&mut s, 1, 0, 0);
        s.clock().unwrap();
        deliver_read(&mut s, 0, 0, 1);
        deliver_read(&mut s, 0, 1, 2);
        deliver_read(&mut s, slide_in.0, slide_in.1, 3);
        s.clock().unwrap();
        assert_eq!(s.stats().row_misses, 2, "one issue per tick");
        assert_eq!(s.devices[0].vaults[0].rqst.len(), 2);
        s
    }

    #[test]
    fn an_issuing_tick_whose_slid_in_entries_are_held_sleeps_on_their_earliest_edge() {
        let t = DdrTimings::default();
        // Bank 1 still serves row 0: the read that slid in waits for it,
        // one cycle before the held bank-0 read could go.
        let mut s = issuing_tick((1, 1));
        let vault = &s.devices[0].vaults[0];
        assert!(vault.asleep(s.clock), "asleep straight after the issue");
        assert_eq!(vault.wake_at, t.t_rcd + t.t_ccd, "the slid-in entry's edge");
        let misses = s.stats().row_misses;
        let dead = vault.wake_at - s.clock;
        step(&mut s, dead);
        assert_eq!(s.stats().row_misses, misses, "nothing moves before it");
        step(&mut s, 60);
        assert!(s.devices[0].vaults[0].rqst.is_empty());
        assert_clean(&s);
    }

    #[test]
    fn an_issuing_tick_with_a_slid_in_entry_free_next_cycle_stays_awake() {
        // Bank 2 is idle: the read that slid in issues the next cycle.
        let mut s = issuing_tick((2, 0));
        assert_eq!(s.devices[0].vaults[0].wake_at, 0);
        let misses = s.stats().row_misses;
        s.clock().unwrap();
        assert_eq!(s.stats().row_misses, misses + 1, "issued the cycle after");
        assert_clean(&s);
    }

    /// A DDR backend that counts every question asked of it.
    #[derive(Debug)]
    struct Counting {
        inner: DdrTiming,
        asks: Arc<AtomicU64>,
    }

    impl Counting {
        fn ask(&self) {
            self.asks.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl VaultTiming for Counting {
        fn blocked_until(&self, bank: u16, row: u64, cycle: u64) -> Option<u64> {
            self.ask();
            self.inner.blocked_until(bank, row, cycle)
        }
        fn try_issue(&mut self, bank: u16, row: u64, cycle: u64) -> IssueGrant {
            self.ask();
            self.inner.try_issue(bank, row, cycle)
        }
        fn park_bank(&mut self, bank: u16, until: u64) {
            self.ask();
            self.inner.park_bank(bank, until)
        }
        fn reset(&mut self) {
            self.inner.reset()
        }
        fn kind(&self) -> TimingKind {
            self.inner.kind()
        }
    }

    #[test]
    fn a_data_ready_wake_releases_without_asking_the_timing_backend() {
        let t = DdrTimings::default();
        // Unchecked: the invariant checker asks the backend too.
        let mut s = sim_with(ddr_params());
        let asks = Arc::default();
        s.devices[0].vaults[0].timing = Box::new(Counting {
            inner: DdrTiming::new(t, 0, s.config.banks_per_vault, None),
            asks: Arc::clone(&asks),
        });
        // Row 0 issues at cycle 0; row 1 waits for the bank (tRCD + tCCD),
        // then for tRAS to precharge — past row 0's data-ready edge.
        deliver_read(&mut s, 0, 0, 0);
        deliver_read(&mut s, 0, 1, 1);
        let ready_at = t.t_rcd + t.t_cas;
        step(&mut s, ready_at);
        assert_eq!(s.devices[0].vaults[0].wake_at, t.t_ras);
        assert!(ready_at < t.t_ras);
        let before = asks.load(Ordering::Relaxed);
        s.clock().unwrap();
        assert_eq!(s.recv(0, 0).unwrap().tag(), 0, "released at {ready_at}");
        assert_eq!(asks.load(Ordering::Relaxed), before);
    }

    #[test]
    fn a_skipped_invalidation_is_an_invariant_violation() {
        // A push behind `push_request`'s back: the vault sleeps on with
        // an issuable request inside its window.
        let mut s = vault0_asleep(ddr_params(), &[(0, 0), (0, 1)]);
        let mut e = QueueEntry::new(read_packet(bank_row_addr(1, 0), 9, 0), 1, 0, s.clock);
        (e.dest_vault, e.dest_bank, e.dest_row) = (0, 1, 0);
        s.devices[0].vaults[0].rqst.push(e).unwrap();
        s.clock().unwrap();
        assert!(s.invariant_violations()[0].contains("sleep edge"));

        // An edge later than the one a fresh scan derives.
        let mut s = vault0_asleep(ddr_params(), &[(0, 0), (0, 1)]);
        s.devices[0].vaults[0].wake_at += 1;
        s.clock().unwrap();
        assert!(s.invariant_violations()[0].contains("sleep edge"));
    }

    // ---- whole runs: the production stepper against walking every link ----

    /// A seeded bursty stream: 96-cycle bursts of sends, three in four
    /// to the hot vault of the sending link's quad and one in eight to
    /// the next quad's, then a 160-cycle gap. The host drains its
    /// responses only in every other 64-cycle window, so vault queues
    /// fill behind full response queues and crossbar slots wait keyed on
    /// them.
    struct BurstyStream {
        rng: u64,
        tag: u16,
    }

    impl BurstyStream {
        fn below(&mut self, n: u64) -> u64 {
            self.rng = self
                .rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.rng >> 33) % n
        }

        /// The sends of cycle `clock`, as `(link, packet)`.
        fn sends(&mut self, clock: u64) -> Vec<(LinkId, Packet)> {
            if clock % 256 >= 96 {
                return Vec::new();
            }
            (0..self.below(3))
                .map(|_| {
                    let link = self.below(4) as LinkId;
                    // Quad q's hot vault is 4q + 1; link l sits in quad l.
                    let hot = |quad: u64| quad % 4 * 4 + 1;
                    let vault = match self.below(8) {
                        0 => self.below(16),
                        1 => hot(link as u64 + 1),
                        _ => hot(link as u64),
                    };
                    let addr = vault << 7 | self.below(8) << 11 | self.below(64) << 16;
                    self.tag = (self.tag + 1) % 512;
                    // Reads, and writes of every size: a write's FLITs
                    // leave debt on a serialized link.
                    let p = match self.below(2 * BlockSize::ALL.len() as u64) as usize {
                        n if n < BlockSize::ALL.len() => read_packet(addr, self.tag, link),
                        n => {
                            let size = BlockSize::ALL[n - BlockSize::ALL.len()];
                            let data = vec![self.tag as u8; size.bytes()];
                            let wr = Command::Wr(size);
                            Packet::request(wr, 0, addr, self.tag, link, &data).unwrap()
                        }
                    };
                    (link, p)
                })
                .collect()
        }
    }

    /// Run one bursty stream twice for 2,048 cycles: on the production
    /// engine under `params`, one `clock()` a cycle or (`batched`) one
    /// `clock_batch(2)` every two, which asks the horizon; and stepped with
    /// every idle-walk hint cleared, so that every link's walk runs. The
    /// walk state must agree after every cycle, the host must receive the
    /// same `(tag, cycle)` stream, and a traced run must record the same
    /// events. Returns how often the gate called a non-empty link inert.
    fn production_matches_walking_every_link(
        params: SimParams,
        batched: bool,
        traced: bool,
        seed: u64,
    ) -> usize {
        let ctx = format!("{params:?} batched {batched} traced {traced} seed {seed}");
        let mut production = sim_with(params);
        let mut walking = sim_with(params);
        let sinks = [&mut production, &mut walking].map(|s| {
            let sink = SharedSink::new(VecSink::default());
            if traced {
                let verbosity = Verbosity::threshold_for(EventKind::XbarRqstStall);
                s.set_tracer(Tracer::new(verbosity, Box::new(sink.handle())));
            }
            sink
        });
        let mut stream = BurstyStream { rng: seed, tag: 0 };
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut skipped = 0;
        // A batched leg clocks two-cycle batches (a one-cycle batch
        // steps), each after the sends of both its cycles.
        let span = if batched { 2 } else { 1 };
        for clock in (0..2048u64).step_by(span as usize) {
            for (link, p) in (clock..clock + span).flat_map(|c| stream.sends(c)) {
                let sent = production.send(0, link, p.clone()).is_ok();
                let also = walking.send(0, link, p).is_ok();
                assert_eq!(also, sent, "{ctx} cycle {clock}");
            }
            let dev = &production.devices[0];
            let inert = |l: &usize| {
                let x = &dev.xbars[*l];
                !x.rqst.is_empty() && production.xbar_rqst_gate(dev, *l) == Gate::Inert
            };
            skipped += (0..dev.xbars.len()).filter(inert).count();
            advance(&mut production, span, batched);
            for _ in 0..span {
                step_walking_every_link(&mut walking);
            }
            let (got_state, want_state) = (walk_state(&production), walk_state(&walking));
            assert_eq!(got_state, want_state, "{ctx} cycle {clock}");
            if clock / 64 % 2 == 1 {
                for (s, log) in [(&mut production, &mut got), (&mut walking, &mut want)] {
                    for link in 0..4 {
                        while let Ok(p) = s.recv(0, link) {
                            log.push((p.tag(), s.current_clock()));
                        }
                    }
                }
            }
        }
        assert_eq!(got, want, "{ctx}: response stream");
        assert!(got.len() > 300, "{ctx}: only {} responses", got.len());
        let [a, b] = sinks.map(|sink| std::mem::take(&mut sink.0.lock().records));
        assert_eq!(a, b, "{ctx}: trace");
        assert!(!traced || !a.is_empty(), "{ctx}: nothing traced");
        skipped
    }

    /// A gate that only delays packets changes no data and no stream
    /// order, so the oracle cannot see it: these runs compare timing.
    /// Each leg is a fabric × timing backend × link axis; the traced leg
    /// records `XbarRqstStall`, which no walk may skip; the batched legs
    /// ask the gate through the horizon, where NoC-riding slots and the
    /// hint-free jump meet.
    #[test]
    fn whole_runs_on_the_production_stepper_match_walking_every_link() {
        use InterconnectKind::{Crossbar, Mesh, Ring};
        use TimingKind::{Classic, Ddr};
        let faults = LinkFaultConfig {
            error_rate_ppm: 250_000,
            ..LinkFaultConfig::default()
        };
        // Fabric and its segment depth, timing backend, link errors, a
        // one-FLIT link budget, batched clocking.
        let axes = |kind, buffer_depth, timing, errors: bool, serialized: bool, batched: bool| {
            let params = SimParams {
                interconnect: NocParams {
                    buffer_depth,
                    ..NocParams::of(kind)
                },
                timing: TimingParams::of(timing),
                link_faults: errors.then_some(faults),
                link_flits_per_cycle: serialized.then_some(1),
                ..SimParams::default()
            };
            (params, batched)
        };
        let legs = [
            axes(Crossbar, 16, Classic, false, false, false),
            axes(Crossbar, 16, Ddr, false, false, false),
            axes(Ring, 16, Classic, false, false, false),
            axes(Mesh, 16, Ddr, false, false, false),
            axes(Ring, 16, Classic, false, false, true),
            axes(Mesh, 16, Ddr, false, false, true),
            axes(Crossbar, 16, Classic, true, false, false),
            axes(Crossbar, 16, Ddr, false, true, false),
            axes(Crossbar, 16, Classic, true, true, true),
            axes(Mesh, 16, Classic, true, true, true),
            axes(Ring, 16, Classic, true, false, true),
        ];
        let mut skipped = 0;
        for (i, (params, batched)) in legs.into_iter().enumerate() {
            let seed = 0x5eed + i as u64;
            skipped += production_matches_walking_every_link(params, batched, false, seed);
        }
        assert!(skipped > 10_000, "only {skipped} walks skipped");
        let (plain, _) = axes(Crossbar, 16, Classic, false, false, false);
        production_matches_walking_every_link(plain, false, true, 0x5eed);
        // One-slot ring segments behind serialized links: a NoC-riding
        // slot can wait out the whole NoC draining while writes ahead of
        // it hold its link, and then only its class keeps the jump from
        // passing over its injection. The state is rare, so these legs
        // sweep seeds.
        for errors in [false, true] {
            let (params, batched) = axes(Ring, 1, Ddr, errors, true, true);
            for seed in 0..6 {
                production_matches_walking_every_link(params, batched, false, seed);
            }
        }
    }
}
