//! Device links.
//!
//! "Links are analogous to an HMC physical device link. Per the current
//! specification, device links may connect a host and an HMC device or two
//! HMC devices (chaining). … Each link contains a reference to its closest
//! quad unit and the source and destination device identifiers (including
//! host devices)" (paper §IV.A).

use hmc_types::{CubeId, Cycle, LinkId, QuadId};

/// What sits at the far end of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Nothing attached; packets cannot use the link.
    Unconnected,
    /// A host processor with the given cube ID (hosts are identified by
    /// cube IDs greater than any device, §V.B).
    Host(CubeId),
    /// Another HMC device: `(cube, link)` names the peer link so forwarded
    /// packets land in the correct crossbar queue.
    Device(CubeId, LinkId),
}

impl Endpoint {
    /// True when the far end is a host processor.
    pub fn is_host(&self) -> bool {
        matches!(self, Endpoint::Host(_))
    }

    /// True when the far end is another device (a chaining link).
    pub fn is_device(&self) -> bool {
        matches!(self, Endpoint::Device(..))
    }

    /// The host at the far end, if the far end is a host.
    pub fn host(&self) -> Option<CubeId> {
        match self {
            Endpoint::Host(h) => Some(*h),
            _ => None,
        }
    }

    /// The cube at the far end, if any.
    pub fn cube(&self) -> Option<CubeId> {
        match self {
            Endpoint::Unconnected => None,
            Endpoint::Host(c) => Some(*c),
            Endpoint::Device(c, _) => Some(*c),
        }
    }
}

/// One bidirectional external link of a device.
#[derive(Debug, Clone)]
pub struct Link {
    /// Link index on this device.
    pub id: LinkId,
    /// The closest quad unit ("each link is physically closest to the
    /// respectively numbered quad unit", §IV.A): quad index == link index.
    pub quad: QuadId,
    /// The far-end endpoint.
    pub remote: Endpoint,
    /// Flow-control tokens available to senders into this link's crossbar
    /// input buffer, in FLITs (IBTC semantics). Senders consume a packet's
    /// FLIT count; tokens return when the crossbar retires the packet.
    pub tokens: u32,
    /// Initial token allotment (for reset).
    pub initial_tokens: u32,
    /// FLIT-beats owed from oversized packets under the serialized-link
    /// model (`SimParams::link_flits_per_cycle`); the link stalls until
    /// the debt drains.
    pub flit_debt: u32,
    /// Monotonic count of request packets sent into this link — the
    /// stable per-link sequence that keys the deterministic link-fault
    /// corruption stream. Never resets (unlike the 3-bit wire SEQ).
    pub send_seq: u64,
    /// 3-bit wire SEQ counter stamped into request tails at send; wraps
    /// modulo 8 and restarts after a link retraining, as the spec's
    /// retry protocol requires.
    pub wire_seq: u8,
    /// Cycle until which the link is down, retraining after a retry
    /// exhaustion. While `retrain_until > clock` the crossbar walk for
    /// this link is gated; the first walk after expiry records the
    /// completed retraining and restarts the wire SEQ.
    pub retrain_until: Cycle,
    /// True while a retraining window is pending its completion record
    /// (set at link-down, cleared when the post-expiry walk emits the
    /// `LinkRetrain` event).
    pub retraining: bool,
}

impl Link {
    /// A fresh, unconnected link. Tokens cover the crossbar queue in
    /// maximal nine-FLIT packets (`DeviceConfig::validate` bounds the
    /// depth at `MAX_QUEUE_DEPTH`, so the product fits).
    pub fn new(id: LinkId, xbar_depth: usize) -> Self {
        let tokens = (xbar_depth * hmc_types::MAX_PACKET_FLITS) as u32;
        Link {
            id,
            quad: id,
            remote: Endpoint::Unconnected,
            tokens,
            initial_tokens: tokens,
            flit_debt: 0,
            send_seq: 0,
            wire_seq: 0,
            retrain_until: 0,
            retraining: false,
        }
    }

    /// Take the next wire SEQ value (3-bit, wrapping) and advance the
    /// monotonic send counter; returns `(wire_seq, send_seq)` for the
    /// packet being sent.
    pub fn next_send_seq(&mut self) -> (u8, u64) {
        let wire = self.wire_seq;
        self.wire_seq = (self.wire_seq + 1) & 0x7;
        let seq = self.send_seq;
        self.send_seq += 1;
        (wire, seq)
    }

    /// True while the link is down retraining at `clock`.
    pub fn retrain_gated(&self, clock: Cycle) -> bool {
        self.retrain_until > clock
    }

    /// True when this link connects to a host.
    pub fn is_host_link(&self) -> bool {
        self.remote.is_host()
    }

    /// True when this link chains to another device.
    pub fn is_pass_through(&self) -> bool {
        self.remote.is_device()
    }

    /// Consume `flits` tokens; false (and unchanged) if insufficient.
    pub fn take_tokens(&mut self, flits: u32) -> bool {
        if self.tokens >= flits {
            self.tokens -= flits;
            true
        } else {
            false
        }
    }

    /// Return `flits` tokens (TRET processing), saturating at the initial
    /// allotment.
    pub fn return_tokens(&mut self, flits: u32) {
        self.tokens = (self.tokens + flits).min(self.initial_tokens);
    }

    /// True when the token pool is back to its initial allotment — i.e.
    /// every FLIT ever taken for this link has been returned. A quiesced
    /// simulation must satisfy this on every connected link (token
    /// conservation; checked by the invariant sweep and the soak tests).
    pub fn at_initial_tokens(&self) -> bool {
        self.tokens == self.initial_tokens
    }

    /// Restore the reset state (connectivity is preserved; tokens refill,
    /// retry/retrain bookkeeping clears).
    pub fn reset_tokens(&mut self) {
        self.tokens = self.initial_tokens;
        self.flit_debt = 0;
        self.send_seq = 0;
        self.wire_seq = 0;
        self.retrain_until = 0;
        self.retraining = false;
    }

    /// Open this link's turn of the stage-1/2 crossbar walk at `clock`. A
    /// retraining link skips its turns until the window lapses, and the
    /// next turn completes the retraining (the wire SEQ restarts). FLIT
    /// debt from oversized packets pays down first: debt covering the
    /// beat budget skips the turn, a smaller one shrinks the budget.
    #[inline]
    pub(crate) fn open_turn(&mut self, rules: LinkRules, clock: Cycle) -> Turn {
        if rules.retry && self.retrain_gated(clock) {
            return Turn {
                retrained: false,
                budget: None,
            };
        }
        let retrained = rules.retry && std::mem::take(&mut self.retraining);
        if retrained {
            self.wire_seq = 0;
        }
        let budget = match rules.beats {
            None => Some(usize::MAX),
            Some(beats) if self.flit_debt as usize >= beats => {
                self.flit_debt -= beats as u32;
                None
            }
            Some(beats) => Some(beats - self.flit_debt as usize),
        };
        Turn { retrained, budget }
    }

    /// Close a turn that moved `moved` FLITs of its `budget`: an oversized
    /// last packet leaves the excess as debt, so long-run throughput
    /// honours the line rate.
    #[inline]
    pub(crate) fn close_turn(&mut self, rules: LinkRules, budget: usize, moved: usize) {
        if rules.beats.is_some() {
            self.flit_debt = moved.saturating_sub(budget) as u32;
        }
    }

    /// Take the link down at `clock` after a retry exhaustion: its turns
    /// are skipped, and host sends refused, for `cycles` cycles.
    pub(crate) fn go_down(&mut self, clock: Cycle, cycles: u64) {
        self.retrain_until = clock + cycles;
        self.retraining = true;
    }

    /// How many turns from `clock` on [`Self::open_turn`] provably skips.
    pub(crate) fn wait(&self, rules: LinkRules, clock: Cycle) -> LinkWait {
        if rules.retry && self.retraining {
            return LinkWait::Retrain(self.retrain_until.saturating_sub(clock));
        }
        LinkWait::Debt(rules.beats.map_or(0, |b| self.flit_debt as u64 / b as u64))
    }

    /// Leave the link as `turns` turns that move nothing would, for a
    /// fast-forward jump: debt pays down a full budget per turn and the
    /// first sub-budget turn zeroes the rest. A retraining link's debt
    /// stays frozen; a jump never reaches the turn that ends retraining.
    pub(crate) fn skip_turns(&mut self, rules: LinkRules, turns: u64) {
        if let Some(beats) = rules.beats.filter(|_| !(rules.retry && self.retraining)) {
            let paid = (beats as u64).saturating_mul(turns);
            self.flit_debt = (self.flit_debt as u64).saturating_sub(paid) as u32;
        }
    }
}

/// The link-layer rules every link's turn runs under, from the installed
/// parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkRules {
    /// A link-fault block is installed: links go down and retrain.
    pub retry: bool,
    /// FLIT beats per link direction per cycle; `None` when unserialized.
    pub beats: Option<usize>,
}

impl LinkRules {
    /// The rules under link faults (`retry`) and a FLIT budget. A zero
    /// budget could never drain a packet, so it is clamped to one beat.
    #[inline]
    pub fn new(retry: bool, flits_per_cycle: Option<usize>) -> Self {
        let beats = flits_per_cycle.map(|f| f.max(1));
        LinkRules { retry, beats }
    }

    /// True when a turn has no link state to advance, so a walk over
    /// empty request queues does nothing at all.
    #[inline]
    pub fn stateless(self) -> bool {
        !self.retry && self.beats.is_none()
    }
}

/// What one link's turn does this cycle ([`Link::open_turn`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Turn {
    /// This turn completed a retraining window; the walk records it.
    pub retrained: bool,
    /// FLITs the walk may move, or `None` when the turn is skipped.
    pub budget: Option<usize>,
}

/// How many turns a link's walk is provably skipped ([`Link::wait`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkWait {
    /// Retraining; the turn after these completes it, which is observable.
    Retrain(u64),
    /// Paying FLIT debt; the turn after these opens.
    Debt(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_classification() {
        assert!(Endpoint::Host(5).is_host());
        assert!(!Endpoint::Host(5).is_device());
        assert!(Endpoint::Device(1, 2).is_device());
        assert!(!Endpoint::Unconnected.is_host());
        assert_eq!(Endpoint::Host(5).cube(), Some(5));
        assert_eq!(Endpoint::Device(1, 2).cube(), Some(1));
        assert_eq!(Endpoint::Unconnected.cube(), None);
        assert_eq!(Endpoint::Host(5).host(), Some(5));
        assert_eq!(Endpoint::Device(1, 2).host(), None);
    }

    #[test]
    fn links_pair_with_their_quad() {
        // §IV.A: link i is physically closest to quad i.
        for id in 0..8 {
            assert_eq!(Link::new(id, 8).quad, id);
        }
    }

    #[test]
    fn fresh_links_are_unconnected() {
        let l = Link::new(0, 8);
        assert!(!l.is_host_link());
        assert!(!l.is_pass_through());
    }

    #[test]
    fn token_pool_covers_the_crossbar_queue() {
        let l = Link::new(0, 128);
        assert_eq!(l.tokens, 128 * 9);
    }

    #[test]
    fn token_take_and_return() {
        let mut l = Link::new(0, 2); // 18 tokens
        assert!(l.take_tokens(9));
        assert!(l.take_tokens(9));
        assert!(!l.take_tokens(1), "pool exhausted");
        assert_eq!(l.tokens, 0);
        l.return_tokens(9);
        assert_eq!(l.tokens, 9);
        l.return_tokens(100);
        assert_eq!(l.tokens, 18, "saturates at the initial allotment");
    }

    #[test]
    fn debt_dead_cycles_count_full_budget_skips() {
        let mut l = Link::new(0, 4);
        let two = LinkRules::new(false, Some(2));
        assert_eq!(l.wait(two, 0), LinkWait::Debt(0), "no debt, no dead cycles");
        l.flit_debt = 5;
        // Cycles 1 and 2 are skipped (5 -> 3 -> 1); cycle 3 walks with a
        // partial budget, so only two cycles are provably dead.
        assert_eq!(l.wait(two, 0), LinkWait::Debt(2));
        let zero = LinkRules::new(false, Some(0));
        assert_eq!(l.wait(zero, 0), LinkWait::Debt(5), "zero budget: one beat");
        let unserialized = LinkRules::new(false, None);
        assert_eq!(l.wait(unserialized, 0), LinkWait::Debt(0));
    }

    #[test]
    fn debt_decay_matches_the_stepped_walk() {
        // Stepped reference: debt -= f while debt >= f, then one walk
        // with partial budget zeroes it.
        let stepped = |mut debt: u32, f: u32, cycles: u64| -> u32 {
            for _ in 0..cycles {
                if debt >= f {
                    debt -= f;
                } else {
                    debt = 0; // walk ran; trailing store zeroes sub-budget debt
                }
            }
            debt
        };
        for debt in [0u32, 1, 2, 5, 9, 17] {
            for f in [1usize, 2, 3, 9] {
                for cycles in [0u64, 1, 2, 3, 10] {
                    let mut l = Link::new(0, 4);
                    l.flit_debt = debt;
                    l.skip_turns(LinkRules::new(false, Some(f)), cycles);
                    assert_eq!(
                        l.flit_debt,
                        stepped(debt, f as u32, cycles),
                        "debt={debt} f={f} cycles={cycles}"
                    );
                }
            }
        }
    }

    /// One turn of a link whose request queue is empty: open it, and close
    /// it having moved nothing. True when the turn was skipped outright.
    fn idle_turn(l: &mut Link, rules: LinkRules, clock: Cycle) -> bool {
        let turn = l.open_turn(rules, clock);
        if let Some(budget) = turn.budget {
            l.close_turn(rules, budget, 0);
        }
        turn.budget.is_none() && !turn.retrained
    }

    #[test]
    fn idle_turns_and_one_jump_leave_the_same_link() {
        let mut state = 0x11_2a_7e_u64;
        let mut draw = |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            hmc_types::splitmix64_mix(state) % n
        };
        for case in 0..4_000 {
            let rules = LinkRules::new(draw(2) == 1, Some(1 + draw(9) as usize));
            let clock = draw(1 << 40);
            let mut link = Link::new(0, 8);
            link.flit_debt = draw(40) as u32;
            if draw(2) == 1 {
                link.go_down(clock, draw(24));
            }
            let wait = link.wait(rules, clock);
            let ctx = format!("case {case}: {rules:?} clock {clock} {wait:?} {link:?}");

            // Every turn the answer calls dead really does nothing, and a
            // retraining window's last answer is the turn that records it.
            let (LinkWait::Retrain(dead) | LinkWait::Debt(dead)) = wait;
            let mut probe = link.clone();
            for t in 0..dead {
                assert!(idle_turn(&mut probe, rules, clock + t), "{ctx}: turn {t}");
            }
            if let LinkWait::Retrain(_) = wait {
                assert!(probe.open_turn(rules, clock + dead).retrained, "{ctx}");
            }

            // A jump never reaches past a retraining window; an idle
            // walk under debt alone may be jumped for any length.
            let longest = match wait {
                LinkWait::Retrain(dead) => dead,
                LinkWait::Debt(_) => 64,
            };
            if longest == 0 {
                continue;
            }
            let turns = 1 + draw(longest);
            let mut stepped = link.clone();
            for t in 0..turns {
                idle_turn(&mut stepped, rules, clock + t);
            }
            let mut jumped = link.clone();
            jumped.skip_turns(rules, turns);
            assert_eq!(
                (stepped.flit_debt, stepped.retraining, stepped.retrain_until),
                (jumped.flit_debt, jumped.retraining, jumped.retrain_until),
                "{ctx}: {turns} turns"
            );
        }
    }

    #[test]
    fn reset_refills_tokens_and_keeps_wiring() {
        let mut l = Link::new(3, 4);
        l.remote = Endpoint::Device(2, 1);
        l.take_tokens(5);
        l.next_send_seq();
        l.retrain_until = 99;
        l.retraining = true;
        l.reset_tokens();
        assert_eq!(l.tokens, l.initial_tokens);
        assert_eq!(l.remote, Endpoint::Device(2, 1));
        assert_eq!(l.send_seq, 0);
        assert_eq!(l.wire_seq, 0);
        assert!(!l.retrain_gated(0));
        assert!(!l.retraining);
    }

    #[test]
    fn send_seq_wraps_on_the_wire_but_not_in_the_key() {
        let mut l = Link::new(0, 4);
        for i in 0..20u64 {
            let (wire, seq) = l.next_send_seq();
            assert_eq!(wire as u64, i & 7, "wire SEQ is 3-bit");
            assert_eq!(seq, i, "monotonic sequence never wraps");
        }
    }

    #[test]
    fn retrain_gate_tracks_the_window() {
        let mut l = Link::new(0, 4);
        assert!(!l.retrain_gated(0));
        l.retrain_until = 10;
        assert!(l.retrain_gated(9));
        assert!(!l.retrain_gated(10), "expiry cycle is live");
    }
}
