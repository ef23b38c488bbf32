//! Pluggable vault timing backends.
//!
//! The paper's vault model treats every non-conflicting access as taking
//! "equivalent and constant time" (§IV.C.4). [`VaultTiming`] abstracts
//! that decision behind a trait so the memory model's fidelity becomes a
//! scenario axis: [`ClassicTiming`] reproduces the paper's conflict
//! window bit-for-bit, while [`DdrTiming`] runs a cycle-accurate
//! DDR-style per-bank state machine (row-buffer hits/misses/conflicts,
//! ACT/PRE/RD/WR spacing under tRCD/tRP/tRAS/tCAS/tCCD, refresh closing
//! open rows).
//!
//! ## Contract
//!
//! The engine consults a backend twice per candidate request:
//!
//! 1. [`VaultTiming::blocked_until`] — a **pure** admission query: may
//!    bank `bank` accept an access to `row` at `cycle`? `None` means
//!    issuable now; `Some(edge)`, with `edge > cycle`, is a lower bound
//!    on the first cycle at which the answer can change, given that
//!    nothing issues to the bank and the periodic-refresh schedule does
//!    not change state in between. It may be early (at `edge` the answer
//!    may be a later edge: a row conflict is first held until the bank
//!    is ready, then until tRAS allows the PRE) but never late: a vault
//!    sleeps, and the fast-forward horizon jumps, straight to the
//!    minimum such edge. Refresh is the caller's term: a window that
//!    opens on the bank before `edge` parks it and closes its row, which
//!    re-answers the query, so with refresh configured the caller also
//!    wakes at the next `RefreshParams::window_edge_after`.
//! 2. [`VaultTiming::try_issue`] — commits the access and returns an
//!    [`IssueGrant`]: when the data is ready, the row-buffer outcome, and
//!    the implied PRE/ACT/RD-or-WR command cycles (the property tests
//!    assert constraint spacing directly on these).
//!
//! `try_issue` must only be called at a cycle where `blocked_until`
//! returned `None`. Both backends are deterministic and carry no
//! interior mutability.
//!
//! Refresh is normalized lazily: rather than a per-cycle hook (which
//! fast-forward would skip), [`DdrTiming`] derives the most recent
//! refresh window for a bank from the cycle it is consulted at and
//! applies any not-yet-seen window before answering. Stepped and
//! fast-forwarded runs therefore observe identical bank state at every
//! consult, which is what keeps them bit-identical.

use hmc_types::{Cycle, DdrTimings, PagePolicy, TimingKind};

use crate::params::RefreshParams;

/// Timing-backend selection plus the DDR constraint set, carried in
/// `SimParams`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingParams {
    /// Which backend to run.
    pub kind: TimingKind,
    /// DDR constraints (used only by [`TimingKind::Ddr`]).
    pub ddr: DdrTimings,
}

impl TimingParams {
    /// Parameters for a backend kind with default constraints.
    pub fn of(kind: TimingKind) -> Self {
        TimingParams {
            kind,
            ..TimingParams::default()
        }
    }
}

/// Row-buffer outcome of an issued access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The backend does not model row buffers (classic).
    None,
    /// The addressed row was already open: column access only.
    Hit,
    /// The bank was precharged: ACT then column access.
    Miss,
    /// Another row was open: PRE, ACT, then column access.
    Conflict,
}

/// What an issued access implies: data readiness and the DDR command
/// schedule behind it. Classic grants carry `data_ready == rw_cycle ==
/// issue cycle` and no PRE/ACT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueGrant {
    /// Cycle the response data becomes available (the vault releases the
    /// response to its output queue at the first tick at or after this).
    pub data_ready: Cycle,
    /// Row-buffer outcome.
    pub outcome: RowOutcome,
    /// Cycle a PRE command fires, if the access precharges (row
    /// conflict, or closed-page auto-precharge).
    pub pre_cycle: Option<Cycle>,
    /// Cycle an ACT command fires, if the access opens a row.
    pub act_cycle: Option<Cycle>,
    /// Cycle the RD/WR column command fires.
    pub rw_cycle: Cycle,
}

/// Per-vault bank timing decisions: when a request may issue, when its
/// data returns, and how refresh interacts with bank state.
pub trait VaultTiming: Send + std::fmt::Debug {
    /// Pure admission query: `None` if bank `bank` can accept an access
    /// to `row` at `cycle`, else a cycle after `cycle` before which the
    /// answer cannot become `None` while nothing issues to the bank and
    /// no refresh window opens or closes — possibly early, never late
    /// (see the module contract). Must not mutate state: sleeping vaults
    /// and the fast-forward horizon rely on it without issuing.
    fn blocked_until(&self, bank: u16, row: u64, cycle: Cycle) -> Option<Cycle>;

    /// Commit an access at `cycle` (only after `blocked_until` returned
    /// `None` for the same arguments) and return its grant.
    fn try_issue(&mut self, bank: u16, row: u64, cycle: Cycle) -> IssueGrant;

    /// Hold bank `bank` out of service until `until` — the cost of an
    /// out-of-band refresh such as TRR targeted refresh. The park must
    /// surface through [`VaultTiming::blocked_until`] (its edges are
    /// what vaults sleep on); parking never shortens
    /// an existing busy period. The default ignores the request (a
    /// zero-cost refresh).
    fn park_bank(&mut self, bank: u16, until: Cycle) {
        let _ = (bank, until);
    }

    /// Return to power-on state (all banks precharged, no history).
    fn reset(&mut self);

    /// Which backend this is.
    fn kind(&self) -> TimingKind;
}

/// Build the backend selected by `params` for one vault.
pub fn make_timing(
    params: TimingParams,
    vault: u16,
    banks: u16,
    refresh: Option<RefreshParams>,
) -> Box<dyn VaultTiming> {
    match params.kind {
        TimingKind::Classic => Box::new(ClassicTiming::new()),
        TimingKind::Ddr => Box::new(DdrTiming::new(params.ddr, vault, banks, refresh)),
    }
}

/// The paper's constant-time model as a timing backend: one access per
/// bank per cycle, data ready the cycle it issues. Byte-identical to the
/// pre-trait `used`-bitmask walk.
#[derive(Debug, Clone)]
pub struct ClassicTiming {
    /// Banks that already issued during `cur_cycle` (same 64-bit mask,
    /// same `bank & 0x3f` indexing as the original walk).
    used: u64,
    cur_cycle: Cycle,
    /// Per-bank park deadlines (TRR refresh cost); absent — and the
    /// backend bit-identical to the original walk — until `park_bank`
    /// is first called, so building a backend costs no table.
    parked: Option<Box<[Cycle; 64]>>,
}

impl ClassicTiming {
    /// A fresh classic backend.
    pub fn new() -> Self {
        ClassicTiming {
            used: 0,
            cur_cycle: 0,
            parked: None,
        }
    }
}

impl Default for ClassicTiming {
    fn default() -> Self {
        Self::new()
    }
}

impl VaultTiming for ClassicTiming {
    fn blocked_until(&self, bank: u16, _row: u64, cycle: Cycle) -> Option<Cycle> {
        if let Some(parked) = &self.parked {
            let parked = parked[(bank & 0x3f) as usize];
            if cycle < parked {
                return Some(parked);
            }
        }
        if cycle == self.cur_cycle && self.used & (1u64 << (bank & 0x3f)) != 0 {
            Some(cycle.saturating_add(1))
        } else {
            None
        }
    }

    fn try_issue(&mut self, bank: u16, _row: u64, cycle: Cycle) -> IssueGrant {
        if cycle != self.cur_cycle {
            self.cur_cycle = cycle;
            self.used = 0;
        }
        self.used |= 1u64 << (bank & 0x3f);
        IssueGrant {
            data_ready: cycle,
            outcome: RowOutcome::None,
            pre_cycle: None,
            act_cycle: None,
            rw_cycle: cycle,
        }
    }

    fn park_bank(&mut self, bank: u16, until: Cycle) {
        let slot = (bank & 0x3f) as usize;
        let parked = self.parked.get_or_insert_with(|| Box::new([0; 64]));
        parked[slot] = parked[slot].max(until);
    }

    fn reset(&mut self) {
        self.used = 0;
        self.cur_cycle = 0;
        self.parked = None;
    }

    fn kind(&self) -> TimingKind {
        TimingKind::Classic
    }
}

/// Per-bank DDR state.
#[derive(Debug, Clone, Copy)]
struct BankState {
    /// The open row, meaningful only when `has_open`.
    open_row: u64,
    has_open: bool,
    /// Earliest cycle the bank accepts its next column access.
    ready_at: Cycle,
    /// Cycle of the last ACT (tRAS gates PRE until `act_at + t_ras`).
    act_at: Cycle,
    /// Most recent refresh window index already folded into this state.
    refresh_applied: Option<u64>,
}

impl BankState {
    fn fresh() -> Self {
        BankState {
            open_row: 0,
            has_open: false,
            ready_at: 0,
            act_at: 0,
            refresh_applied: None,
        }
    }
}

/// Cycle-accurate DDR-style state machine: per-bank row-buffer state and
/// ACT/PRE/RD/WR transitions under [`DdrTimings`].
#[derive(Debug, Clone)]
pub struct DdrTiming {
    t: DdrTimings,
    vault: u16,
    banks: Vec<BankState>,
    refresh: Option<RefreshParams>,
}

impl DdrTiming {
    /// A fresh DDR backend for vault `vault` with `banks` banks.
    pub fn new(t: DdrTimings, vault: u16, banks: u16, refresh: Option<RefreshParams>) -> Self {
        DdrTiming {
            t,
            vault,
            banks: vec![BankState::fresh(); (banks.max(1) as usize).min(64)],
            refresh,
        }
    }

    fn slot(&self, bank: u16) -> usize {
        (bank & 0x3f) as usize % self.banks.len()
    }

    /// The most recent refresh window for `bank` whose start is at or
    /// before `cycle`, with the cycle that window releases the bank.
    /// `None` when refresh is inert or the bank has not been refreshed
    /// yet.
    fn latest_refresh_window(&self, bank: usize, cycle: Cycle) -> Option<(u64, Cycle)> {
        let r = self.refresh?;
        let nbanks = self.banks.len() as u64;
        if r.interval == 0 || r.duration == 0 {
            return None;
        }
        // Window w refreshes bank (w + vault) % nbanks; solve for the
        // residue that lands on `bank`, then step back from the current
        // window index to the latest one with that residue.
        let residue = (bank as u64 + nbanks - self.vault as u64 % nbanks) % nbanks;
        let w0 = cycle / r.interval;
        let delta = (w0 % nbanks + nbanks - residue) % nbanks;
        let w = w0.checked_sub(delta)?;
        let start = w * r.interval;
        let dur = r.duration.min(r.interval);
        // Same edge math as `RefreshParams::window_edge_after` for an
        // in-progress window, so horizon jumps land exactly here.
        let end = if dur == r.interval {
            start.saturating_add(r.interval)
        } else {
            start.saturating_add(dur)
        };
        Some((w, end))
    }

    /// Bank state as of `cycle` with any not-yet-applied refresh window
    /// folded in, plus the window to record if one applied.
    fn shadow(&self, bank: usize, cycle: Cycle) -> (BankState, Option<u64>) {
        let mut st = self.banks[bank];
        if let Some((w, end)) = self.latest_refresh_window(bank, cycle) {
            if st.refresh_applied.is_none_or(|applied| w > applied) {
                // Refresh closes the open row and holds the bank until
                // the window releases it.
                st.has_open = false;
                st.ready_at = st.ready_at.max(end);
                st.refresh_applied = Some(w);
                return (st, Some(w));
            }
        }
        (st, None)
    }
}

impl VaultTiming for DdrTiming {
    fn blocked_until(&self, bank: u16, row: u64, cycle: Cycle) -> Option<Cycle> {
        let (st, _) = self.shadow(self.slot(bank), cycle);
        if cycle < st.ready_at {
            return Some(st.ready_at);
        }
        if st.has_open && st.open_row != row {
            // A row conflict must precharge, and PRE waits out tRAS.
            let pre_ok = st.act_at.saturating_add(self.t.t_ras);
            if cycle < pre_ok {
                return Some(pre_ok);
            }
        }
        None
    }

    fn try_issue(&mut self, bank: u16, row: u64, cycle: Cycle) -> IssueGrant {
        let slot = self.slot(bank);
        let (shadowed, applied) = self.shadow(slot, cycle);
        if applied.is_some() {
            self.banks[slot] = shadowed;
        }
        let st = &mut self.banks[slot];
        debug_assert!(cycle >= st.ready_at, "issue before bank ready");
        let t = self.t;
        if st.has_open && st.open_row == row {
            // Row hit: column access only.
            st.ready_at = cycle.saturating_add(t.t_ccd);
            return IssueGrant {
                data_ready: cycle.saturating_add(t.t_cas),
                outcome: RowOutcome::Hit,
                pre_cycle: None,
                act_cycle: None,
                rw_cycle: cycle,
            };
        }
        if !st.has_open {
            // Row miss: ACT, wait tRCD, column access.
            let rw = cycle.saturating_add(t.t_rcd);
            st.act_at = cycle;
            match t.page_policy {
                PagePolicy::Open => {
                    st.has_open = true;
                    st.open_row = row;
                    st.ready_at = rw.saturating_add(t.t_ccd);
                    IssueGrant {
                        data_ready: rw.saturating_add(t.t_cas),
                        outcome: RowOutcome::Miss,
                        pre_cycle: None,
                        act_cycle: Some(cycle),
                        rw_cycle: rw,
                    }
                }
                PagePolicy::Closed => {
                    // Auto-precharge once both tRAS (from ACT) and the
                    // column access allow it.
                    let pre = cycle
                        .saturating_add(t.t_ras)
                        .max(rw.saturating_add(t.t_ccd));
                    st.has_open = false;
                    st.ready_at = pre.saturating_add(t.t_rp);
                    IssueGrant {
                        data_ready: rw.saturating_add(t.t_cas),
                        outcome: RowOutcome::Miss,
                        pre_cycle: Some(pre),
                        act_cycle: Some(cycle),
                        rw_cycle: rw,
                    }
                }
            }
        } else {
            // Row conflict: PRE (tRAS already satisfied — blocked_until
            // gated on it), ACT after tRP, column access after tRCD.
            debug_assert!(cycle >= st.act_at.saturating_add(t.t_ras));
            let act = cycle.saturating_add(t.t_rp);
            let rw = act.saturating_add(t.t_rcd);
            st.act_at = act;
            st.open_row = row;
            st.has_open = matches!(t.page_policy, PagePolicy::Open);
            st.ready_at = rw.saturating_add(t.t_ccd);
            if matches!(t.page_policy, PagePolicy::Closed) {
                let pre = act.saturating_add(t.t_ras).max(rw.saturating_add(t.t_ccd));
                st.ready_at = pre.saturating_add(t.t_rp);
            }
            IssueGrant {
                data_ready: rw.saturating_add(t.t_cas),
                outcome: RowOutcome::Conflict,
                pre_cycle: Some(cycle),
                act_cycle: Some(act),
                rw_cycle: rw,
            }
        }
    }

    fn park_bank(&mut self, bank: u16, until: Cycle) {
        // The refresh busy period rides the ordinary readiness edge, so
        // it surfaces through `blocked_until` exactly.
        let slot = self.slot(bank);
        let st = &mut self.banks[slot];
        st.ready_at = st.ready_at.max(until);
    }

    fn reset(&mut self) {
        for b in &mut self.banks {
            *b = BankState::fresh();
        }
    }

    fn kind(&self) -> TimingKind {
        TimingKind::Ddr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ddr() -> DdrTiming {
        DdrTiming::new(DdrTimings::default(), 0, 8, None)
    }

    #[test]
    fn classic_allows_one_access_per_bank_per_cycle() {
        let mut c = ClassicTiming::new();
        assert_eq!(c.blocked_until(3, 0, 10), None);
        let g = c.try_issue(3, 0, 10);
        assert_eq!(g.data_ready, 10);
        assert_eq!(g.outcome, RowOutcome::None);
        assert_eq!(c.blocked_until(3, 7, 10), Some(11));
        // Other banks are free the same cycle; the bank frees next cycle.
        assert_eq!(c.blocked_until(4, 0, 10), None);
        assert_eq!(c.blocked_until(3, 0, 11), None);
    }

    #[test]
    fn classic_masks_banks_past_63_like_the_original_walk() {
        let mut c = ClassicTiming::new();
        c.try_issue(64, 0, 5); // bank 64 & 0x3f == bank 0
        assert_eq!(c.blocked_until(0, 0, 5), Some(6));
    }

    #[test]
    fn ddr_hit_miss_conflict_latencies() {
        let t = DdrTimings::default();
        let mut d = ddr();
        // Cold bank: miss pays tRCD + tCAS.
        assert_eq!(d.blocked_until(0, 7, 0), None);
        let miss = d.try_issue(0, 7, 0);
        assert_eq!(miss.outcome, RowOutcome::Miss);
        assert_eq!(miss.act_cycle, Some(0));
        assert_eq!(miss.rw_cycle, t.t_rcd);
        assert_eq!(miss.data_ready, t.t_rcd + t.t_cas);
        // Same row once ready: hit pays tCAS only.
        let ready = t.t_rcd + t.t_ccd;
        assert_eq!(d.blocked_until(0, 7, ready - 1), Some(ready));
        let hit = d.try_issue(0, 7, ready);
        assert_eq!(hit.outcome, RowOutcome::Hit);
        assert_eq!(hit.data_ready, ready + t.t_cas);
        // Different row: conflict waits for tRAS then pays tRP + tRCD + tCAS.
        let pre_ok = t.t_ras; // act_at was 0
        assert_eq!(d.blocked_until(0, 9, ready + t.t_ccd), Some(pre_ok));
        let conflict = d.try_issue(0, 9, pre_ok);
        assert_eq!(conflict.outcome, RowOutcome::Conflict);
        assert_eq!(conflict.pre_cycle, Some(pre_ok));
        assert_eq!(conflict.act_cycle, Some(pre_ok + t.t_rp));
        assert_eq!(conflict.data_ready, pre_ok + t.t_rp + t.t_rcd + t.t_cas);
    }

    #[test]
    fn ddr_closed_page_never_hits() {
        let t = DdrTimings {
            page_policy: PagePolicy::Closed,
            ..DdrTimings::default()
        };
        let mut d = DdrTiming::new(t, 0, 8, None);
        let first = d.try_issue(2, 5, 0);
        assert_eq!(first.outcome, RowOutcome::Miss);
        let pre = first.pre_cycle.unwrap();
        assert!(pre >= t.t_ras && pre >= t.t_rcd + t.t_ccd);
        // Next access to the very same row still misses (auto-precharged).
        let next_ok = d.blocked_until(2, 5, pre).unwrap();
        assert_eq!(next_ok, pre + t.t_rp);
        let second = d.try_issue(2, 5, next_ok);
        assert_eq!(second.outcome, RowOutcome::Miss);
    }

    #[test]
    fn refresh_closes_the_open_row_and_parks_the_bank() {
        let r = RefreshParams {
            interval: 1000,
            duration: 100,
        };
        let t = DdrTimings::default();
        let mut d = DdrTiming::new(t, 0, 8, Some(r));
        // Open row 3 on bank 0 well before its refresh window (window 0
        // refreshes bank 0 of vault 0 at cycles 0..100 — issue after).
        let g = d.try_issue(0, 3, 200);
        assert_eq!(g.outcome, RowOutcome::Miss);
        // Bank 0's next window is window 8 (8 % 8 == 0): cycles
        // 8000..8100. Mid-window the bank is parked until the edge.
        assert_eq!(d.blocked_until(0, 3, 8050), Some(8100));
        // After the window the row is closed: the same row misses again.
        assert_eq!(d.blocked_until(0, 3, 8100), None);
        let after = d.try_issue(0, 3, 8100);
        assert_eq!(after.outcome, RowOutcome::Miss);
    }

    #[test]
    fn refresh_shadow_is_pure_until_issue() {
        let r = RefreshParams {
            interval: 100,
            duration: 10,
        };
        let mut d = DdrTiming::new(DdrTimings::default(), 0, 4, Some(r));
        // blocked_until mid-window must not commit the window...
        assert_eq!(d.blocked_until(0, 1, 5), Some(10));
        assert!(d.banks[0].refresh_applied.is_none());
        // ...try_issue after the window does.
        let _ = d.try_issue(0, 1, 10);
        assert_eq!(d.banks[0].refresh_applied, Some(0));
    }

    #[test]
    fn ddr_respects_ccd_between_hits() {
        let t = DdrTimings::default();
        let mut d = ddr();
        let g0 = d.try_issue(1, 0, 0);
        let first_hit = g0.rw_cycle + t.t_ccd;
        let g1 = d.try_issue(1, 0, first_hit);
        assert_eq!(d.blocked_until(1, 0, first_hit + 1), Some(first_hit + t.t_ccd));
        assert!(g1.rw_cycle - g0.rw_cycle >= t.t_ccd);
    }

    #[test]
    fn park_bank_surfaces_through_blocked_until() {
        // Classic: the park is an exact edge and never shrinks.
        let mut c = ClassicTiming::new();
        c.park_bank(2, 50);
        assert_eq!(c.blocked_until(2, 0, 10), Some(50));
        assert_eq!(c.blocked_until(2, 0, 50), None);
        assert_eq!(c.blocked_until(3, 0, 10), None, "other banks free");
        c.park_bank(2, 30);
        assert_eq!(c.blocked_until(2, 0, 10), Some(50), "parks never shorten");
        // DDR: the park rides the bank's readiness edge.
        let mut d = ddr();
        d.park_bank(1, 77);
        assert_eq!(d.blocked_until(1, 0, 5), Some(77));
        assert_eq!(d.blocked_until(1, 0, 77), None);
    }

    #[test]
    fn make_timing_selects_backends() {
        let c = make_timing(TimingParams::default(), 0, 8, None);
        assert_eq!(c.kind(), TimingKind::Classic);
        let d = make_timing(TimingParams::of(TimingKind::Ddr), 0, 8, None);
        assert_eq!(d.kind(), TimingKind::Ddr);
    }
}
