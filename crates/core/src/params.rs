//! Tunable simulation parameters.
//!
//! The HMC specification deliberately leaves the crossbar and vault
//! queueing mechanisms "defined in an ambiguous manner such that
//! implementers may tailor the device to specific requirements" (paper
//! §IV, requirement 3). [`SimParams`] collects the knobs our
//! implementation exposes over that latitude; the defaults reproduce the
//! behaviour used for the paper-shape experiments, and the ablation
//! tests (`crates/bench/tests/ablations.rs`) sweep them.

use hmc_types::{
    ArbitrationKind, CellFaultConfig, DeviceConfig, HmcError, InterconnectKind, LinkFaultConfig,
    Result, TimingKind,
};

use crate::args::Args;
use crate::noc::NocParams;
use crate::timing::TimingParams;

/// How a vault reacts to a bank conflict inside its per-cycle window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// Skip the conflicting packet and keep scanning the window — the
    /// weak-ordering reordering the spec allows vaults ("local vaults may
    /// also reorder queued packets in order to make most efficient use of
    /// bandwidth", §III.C). Same-bank order is still preserved.
    SkipConflicting,
    /// Stop processing the vault for the rest of the cycle at the first
    /// conflict — a strictly in-order vault controller.
    StallQueue,
}

/// Periodic DRAM refresh modelling: every `interval` cycles, each vault
/// takes one bank (rotating, staggered across vaults) out of service for
/// `duration` cycles — the classic per-bank refresh penalty real DRAM
/// stacks pay and the paper's constant-time model omits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshParams {
    /// Cycles between the starts of consecutive refresh windows.
    pub interval: u64,
    /// Cycles a bank stays out of service per window.
    pub duration: u64,
}

impl RefreshParams {
    /// The bank a vault has under refresh at `cycle`, if any. Windows
    /// rotate through the banks and are staggered across vaults so the
    /// whole device never pauses at once.
    pub fn bank_under_refresh(&self, cycle: u64, vault: u16, banks: u16) -> Option<u16> {
        if self.interval == 0 || banks == 0 {
            return None;
        }
        if cycle % self.interval < self.duration.min(self.interval) {
            let window = cycle / self.interval;
            Some(((window + vault as u64) % banks as u64) as u16)
        } else {
            None
        }
    }

    /// The first cycle strictly after `cycle` at which the refresh
    /// schedule changes state: the end of an in-progress window, or the
    /// start of the next window (which also rotates the refreshed bank
    /// when windows run back-to-back, `duration >= interval`). The
    /// fast-forward horizon uses this as the wake-up edge for vaults
    /// parked behind a bank under refresh. Saturates at `u64::MAX` near
    /// clock overflow; a zero interval (refresh inert) never produces an
    /// edge.
    pub fn window_edge_after(&self, cycle: u64) -> u64 {
        if self.interval == 0 {
            return u64::MAX;
        }
        let start = (cycle / self.interval) * self.interval;
        let dur = self.duration.min(self.interval);
        if cycle - start < dur {
            if dur == self.interval {
                start.saturating_add(self.interval)
            } else {
                start.saturating_add(dur)
            }
        } else {
            start.saturating_add(self.interval)
        }
    }
}

/// Per-simulation tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimParams {
    /// Maximum request packets one link's crossbar moves per cycle
    /// (toward vaults or across chained links).
    pub xbar_drain_per_cycle: usize,
    /// Spatial window (in queue slots) a vault scans per cycle for
    /// processable packets and conflict recognition. `None` means one
    /// window per bank (`banks_per_vault` slots).
    pub vault_window: Option<usize>,
    /// Maximum response packets one vault registers with crossbar
    /// response queues per cycle.
    pub rsp_drain_per_cycle: usize,
    /// Chaining hops after which a packet is retired as a zombie
    /// (loopback protection, §V.B).
    pub hop_budget: u32,
    /// Optional SERDES serialization model: FLITs one link direction can
    /// accept per cycle. `None` (default) matches the paper's model,
    /// which arbitrates packets, not link beats; `Some(1)` corresponds to
    /// a full-width 10 Gbps link at a 1.25 GHz logic clock. Zero is
    /// clamped to one beat (a zero budget could never move a packet).
    pub link_flits_per_cycle: Option<usize>,
    /// Vault behaviour on bank conflicts.
    pub conflict_policy: ConflictPolicy,
    /// Optional periodic DRAM refresh (`None` = the paper's model).
    pub refresh: Option<RefreshParams>,
    /// Run the protocol invariant checker every cycle: queue-slot
    /// validity, per-link token conservation, tag uniqueness while in
    /// flight, CRC validity of egress packets, and per-stream order
    /// preservation. `false` (the default) costs a single branch per
    /// cycle and keeps the hot path allocation-free; violations found
    /// while `true` are recorded on the simulation object (see
    /// `HmcSim::invariant_violations`).
    pub check_invariants: bool,
    // Read by nothing: `HmcSim::clock_batch` always asks the
    // fast-forward horizon and `HmcSim::clock` always steps, whatever
    // this says. Kept for `benchmark/src/burst_gap.rs`, which still sets
    // it in a struct literal and changes only together with the
    // benchmark; ROADMAP item 3(f) deletes it with the `with_threads`
    // shim.
    #[doc(hidden)]
    pub fast_forward: bool,
    /// Vault timing backend: the paper's constant-time conflict window
    /// (the default, bit-identical to the pre-trait engine) or the
    /// cycle-accurate DDR state machine. See `crate::timing`.
    pub timing: TimingParams,
    /// Intra-cube interconnect between quads: the paper's idealized full
    /// crossbar (the default, bit-identical to the pre-NoC engine) or a
    /// buffered ring/mesh fabric with pluggable arbitration. See
    /// `crate::noc`.
    pub interconnect: NocParams,
    /// Cell-level fault injection: RowHammer disturbance and retention
    /// decay in the DRAM array, with optional mitigation. `None` (the
    /// default) keeps the array perfect and the fault path a single
    /// branch per vault access. See `hmc_mem::cellfault`.
    pub cell_faults: Option<CellFaultConfig>,
    /// Link-level fault injection: SERDES transmission corruption
    /// driving the spec's link-retry protocol, with retry exhaustion
    /// escalating to poisoned responses and link retraining. `None`
    /// (the default) keeps the links perfect and the retry path a
    /// single branch per crossbar walk. See `crate::fault`.
    pub link_faults: Option<LinkFaultConfig>,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            // Calibrated so that link count and bank count both shape
            // throughput, as in the paper's Table I: the per-link crossbar
            // drain binds when banks are plentiful (link speedup) and the
            // per-vault conflict window binds when they are not (bank
            // speedup).
            xbar_drain_per_cycle: 32,
            vault_window: None,
            rsp_drain_per_cycle: 64,
            hop_budget: 16,
            link_flits_per_cycle: None,
            conflict_policy: ConflictPolicy::SkipConflicting,
            refresh: None,
            check_invariants: false,
            fast_forward: false,
            timing: TimingParams::default(),
            interconnect: NocParams::default(),
            cell_faults: None,
            link_faults: None,
        }
    }
}

impl SimParams {
    /// The flags [`SimParams::apply_flag`] understands — the one usage
    /// block every binary prints under its own synopsis.
    pub const USAGE: &'static str = "\
simulation axes (the same flags on every binary):
  --check                 run the protocol invariant checker every cycle
  --timing KIND           vault timing backend: classic | ddr
  --interconnect KIND     intra-cube fabric: crossbar | ring | mesh
  --arbitration KIND      ring/mesh hop arbitration:
                          round-robin | oldest-first | locality-aware
  --serialize-flits N     FLITs one link direction moves per cycle
  --stall-queue           in-order vaults: stall at the first bank conflict
  --hammer-threshold N    cell faults (any of these four flags arms them):
  --flip-prob PPM           activations per disturbance, flip odds,
  --retention CYCLES        retention horizon, and
  --mitigation KIND         none | trr | elevated
  --link-error-rate PPM   link faults (any of these five flags arms them):
  --link-retry-limit N      corruption odds per transmission, retransmissions
  --link-retry-cycles N     before poisoning, cycles per retry,
  --retrain-cycles N        cycles a link retrains after exhaustion,
  --link-fault-seed HEX     and the corruption-stream seed";

    /// `self` with the axes a [`DeviceConfig`] carries laid over it: the
    /// config's timing backend, fabric and arbitration policy replace
    /// `self`'s, and its fault blocks win where it has them.
    /// [`crate::HmcSim::new`] seeds its parameters this way from the
    /// defaults.
    pub fn with_device_axes(mut self, config: &DeviceConfig) -> Self {
        self.timing.kind = config.timing;
        self.interconnect.kind = config.interconnect;
        self.interconnect.arbitration = config.arbitration;
        self.cell_faults = config.cell_faults.or(self.cell_faults);
        self.link_faults = config.link_faults.or(self.link_faults);
        self
    }

    /// Apply one command-line flag, pulling its value (if it takes one)
    /// from `args`. Returns `Ok(false)` — with `self` and `args`
    /// untouched — when `flag` is not a simulation axis, and an error
    /// when its value is missing or malformed. This is the only parser
    /// of these flags in the workspace; see [`SimParams::USAGE`].
    pub fn apply_flag(&mut self, flag: &str, args: &mut Args) -> Result<bool> {
        match flag {
            "--check" => self.check_invariants = true,
            "--stall-queue" => self.conflict_policy = ConflictPolicy::StallQueue,
            "--serialize-flits" => {
                let flits: usize = args.try_value(flag)?;
                if flits == 0 {
                    return Err(HmcError::InvalidConfig(format!("{flag} must be at least 1")));
                }
                self.link_flits_per_cycle = Some(flits);
            }
            "--timing" => {
                self.timing.kind = args.try_named(flag, TimingKind::by_name, "`classic` or `ddr`")?
            }
            "--interconnect" => {
                self.interconnect.kind = args.try_named(
                    flag,
                    InterconnectKind::by_name,
                    "`crossbar`, `ring`, or `mesh`",
                )?
            }
            "--arbitration" => {
                self.interconnect.arbitration = args.try_named(
                    flag,
                    ArbitrationKind::by_name,
                    "`round-robin`, `oldest-first`, or `locality-aware`",
                )?
            }
            _ => {
                let hit = CellFaultConfig::apply_flag(&mut self.cell_faults, flag, args.peek())?
                    || LinkFaultConfig::apply_flag(&mut self.link_faults, flag, args.peek())?;
                if hit {
                    args.next_flag();
                }
                return Ok(hit);
            }
        }
        Ok(true)
    }

    /// Resolve the vault window for a device with `banks` banks per vault.
    pub fn window_for(&self, banks: u16) -> usize {
        self.vault_window.unwrap_or(banks as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = SimParams::default();
        assert!(p.xbar_drain_per_cycle >= 1);
        assert!(p.rsp_drain_per_cycle >= 1);
        assert!(p.hop_budget >= 2);
        assert_eq!(p.conflict_policy, ConflictPolicy::SkipConflicting);
    }

    #[test]
    fn window_defaults_to_bank_count() {
        let p = SimParams::default();
        assert_eq!(p.window_for(8), 8);
        assert_eq!(p.window_for(16), 16);
    }

    #[test]
    fn explicit_window_overrides() {
        let p = SimParams {
            vault_window: Some(4),
            ..SimParams::default()
        };
        assert_eq!(p.window_for(16), 4);
    }

    #[test]
    fn refresh_windows_rotate_and_stagger() {
        let r = RefreshParams {
            interval: 100,
            duration: 10,
        };
        // In-window at cycle 5, out at cycle 50.
        assert_eq!(r.bank_under_refresh(5, 0, 8), Some(0));
        assert_eq!(r.bank_under_refresh(50, 0, 8), None);
        // Next window refreshes the next bank.
        assert_eq!(r.bank_under_refresh(105, 0, 8), Some(1));
        // Vault stagger: vault 3 is three banks ahead.
        assert_eq!(r.bank_under_refresh(5, 3, 8), Some(3));
        // Wraps around the bank count.
        assert_eq!(r.bank_under_refresh(5, 9, 8), Some(1));
    }

    #[test]
    fn degenerate_refresh_is_inert() {
        let r = RefreshParams {
            interval: 0,
            duration: 10,
        };
        assert_eq!(r.bank_under_refresh(5, 0, 8), None);
        let r = RefreshParams {
            interval: 100,
            duration: 0,
        };
        assert_eq!(r.bank_under_refresh(5, 0, 8), None);
    }

    #[test]
    fn window_edges_bracket_refresh_windows() {
        let r = RefreshParams {
            interval: 100,
            duration: 10,
        };
        // In-window: the edge is the window's end.
        assert_eq!(r.window_edge_after(0), 10);
        assert_eq!(r.window_edge_after(9), 10);
        // Out-of-window: the edge is the next window's start.
        assert_eq!(r.window_edge_after(10), 100);
        assert_eq!(r.window_edge_after(99), 100);
        assert_eq!(r.window_edge_after(100), 110);
        // Edges are always strictly in the future, so fast-forward jumps
        // make progress.
        for cycle in 0..350 {
            assert!(r.window_edge_after(cycle) > cycle, "cycle {cycle}");
        }
    }

    #[test]
    fn back_to_back_windows_rotate_at_interval_boundaries() {
        // duration >= interval: the device is always in-window; the only
        // edge is the bank rotation at each interval boundary.
        let r = RefreshParams {
            interval: 50,
            duration: 50,
        };
        assert_eq!(r.window_edge_after(0), 50);
        assert_eq!(r.window_edge_after(49), 50);
        assert_eq!(r.window_edge_after(50), 100);
        let r = RefreshParams {
            interval: 50,
            duration: 120,
        };
        assert_eq!(r.window_edge_after(10), 50, "duration clamps to interval");
    }

    #[test]
    fn window_edge_saturates_near_clock_overflow() {
        let r = RefreshParams {
            interval: u64::MAX,
            duration: u64::MAX,
        };
        // start = 0, dur == interval: edge saturates instead of wrapping.
        assert_eq!(r.window_edge_after(5), u64::MAX);
        let r = RefreshParams {
            interval: 1 << 62,
            duration: 1 << 62,
        };
        let near_max = u64::MAX - 10;
        let edge = r.window_edge_after(near_max);
        assert!(edge >= near_max, "no wrap-around");
        // Inert refresh never produces an edge.
        let r = RefreshParams {
            interval: 0,
            duration: 9,
        };
        assert_eq!(r.window_edge_after(123), u64::MAX);
    }

    /// Apply one flag (plus its value, if given) to a fresh default.
    fn flag(argv: &[&str]) -> (Result<bool>, SimParams, Option<String>) {
        let mut args = Args::new("t", "", argv[1..].iter().map(|s| s.to_string()).collect());
        let mut p = SimParams::default();
        let hit = p.apply_flag(argv[0], &mut args);
        (hit, p, args.next_flag())
    }

    #[test]
    fn apply_flag_sets_exactly_the_named_axis() {
        let d = SimParams::default();
        let cell = CellFaultConfig::default();
        let link = LinkFaultConfig::default();
        let table: Vec<(&[&str], SimParams)> = vec![
            (&["--check"], SimParams { check_invariants: true, ..d }),
            (
                &["--stall-queue"],
                SimParams { conflict_policy: ConflictPolicy::StallQueue, ..d },
            ),
            (
                &["--serialize-flits", "2"],
                SimParams { link_flits_per_cycle: Some(2), ..d },
            ),
            (
                &["--timing", "ddr"],
                SimParams { timing: TimingParams::of(TimingKind::Ddr), ..d },
            ),
            (
                &["--interconnect", "mesh"],
                SimParams { interconnect: NocParams::of(InterconnectKind::Mesh), ..d },
            ),
            (
                &["--arbitration", "oldest-first"],
                SimParams {
                    interconnect: d.interconnect.with_arbitration(ArbitrationKind::OldestFirst),
                    ..d
                },
            ),
            (
                &["--hammer-threshold", "64"],
                SimParams { cell_faults: Some(cell.with_hammer_threshold(64)), ..d },
            ),
            (
                &["--flip-prob", "5000"],
                SimParams { cell_faults: Some(cell.with_flip_prob_ppm(5_000)), ..d },
            ),
            (
                &["--retention", "900"],
                SimParams { cell_faults: Some(cell.with_retention(900)), ..d },
            ),
            (
                &["--mitigation", "trr"],
                SimParams {
                    cell_faults: Some(cell.with_mitigation(hmc_types::Mitigation::Trr)),
                    ..d
                },
            ),
            (
                &["--link-error-rate", "20000"],
                SimParams { link_faults: Some(link.with_error_rate_ppm(20_000)), ..d },
            ),
            (
                &["--link-retry-limit", "1"],
                SimParams { link_faults: Some(link.with_retry_limit(1)), ..d },
            ),
            (
                &["--link-retry-cycles", "4"],
                SimParams { link_faults: Some(link.with_retry_cycles(4)), ..d },
            ),
            (
                &["--retrain-cycles", "32"],
                SimParams { link_faults: Some(link.with_retrain_cycles(32)), ..d },
            ),
            (
                &["--link-fault-seed", "0xBEEF"],
                SimParams { link_faults: Some(link.with_seed(0xBEEF)), ..d },
            ),
        ];
        for (argv, want) in &table {
            // A trailing token proves the flag consumed its value and
            // nothing more.
            let mut with_tail = argv.to_vec();
            with_tail.push("--next");
            let (hit, got, rest) = flag(&with_tail);
            assert!(hit.unwrap(), "{argv:?} is a simulation axis");
            assert_eq!(got, *want, "{argv:?}");
            assert_eq!(rest.as_deref(), Some("--next"), "{argv:?}");
            // Every flag in the table is in the usage block.
            assert!(SimParams::USAGE.contains(argv[0]), "{} undocumented", argv[0]);
            if argv.len() == 2 {
                assert!(flag(&argv[..1]).0.is_err(), "{}: missing value", argv[0]);
                assert!(flag(&[argv[0], "zebra"]).0.is_err(), "{}: bad value", argv[0]);
            }
        }
        assert!(flag(&["--serialize-flits", "0"]).0.is_err());
    }

    #[test]
    fn apply_flag_leaves_unknown_flags_alone() {
        let (hit, p, rest) = flag(&["--requests", "5"]);
        assert!(!hit.unwrap());
        assert_eq!(p, SimParams::default());
        assert_eq!(rest.as_deref(), Some("5"), "the value is not consumed");
        let (hit, ..) = flag(&["--threads", "4"]);
        assert!(!hit.unwrap(), "the engine has no thread axis");
        let (hit, ..) = flag(&["--fast-forward"]);
        assert!(!hit.unwrap(), "no engine mode: a batch always asks the horizon");
    }

    #[test]
    fn device_axes_overlay_keeps_engine_axes_and_fills_fault_blocks() {
        let server = SimParams {
            check_invariants: true,
            timing: TimingParams::of(TimingKind::Ddr),
            link_faults: Some(LinkFaultConfig::default().with_error_rate_ppm(7)),
            ..SimParams::default()
        };
        let p = server.with_device_axes(&DeviceConfig::small());
        assert!(p.check_invariants);
        assert_eq!(p.timing.kind, TimingKind::Classic, "the config names its backend");
        assert_eq!(p.link_faults, server.link_faults, "an unset fault block inherits");
        let own = LinkFaultConfig::default().with_error_rate_ppm(9);
        let p = server.with_device_axes(&DeviceConfig::small().with_link_faults(Some(own)));
        assert_eq!(p.link_faults, Some(own), "the config's own block wins");
    }

    #[test]
    fn window_is_never_zero() {
        let p = SimParams {
            vault_window: Some(0),
            ..SimParams::default()
        };
        assert_eq!(p.window_for(8), 1);
    }
}
