//! Link-level error simulation: the HMC link-retry protocol.
//!
//! HMC-Sim's packet handling is designed to support "functional
//! simulation, error simulation and performance simulation" (paper §IV,
//! requirement 5), and the packet tails carry the retry pointers (FRP /
//! RRP) and CRC the specification's link-retry protocol uses.
//!
//! This module models lossy SERDES links end to end. Each transmission
//! attempt of a packet crossing a host-to-device link is independently
//! corrupted with a configurable probability; the receiving crossbar
//! detects the corruption (the CRC check the real logic layer performs),
//! raises a [`LinkRetry`](hmc_trace::EventKind::LinkRetry) trace event —
//! the observable face of the spec's StartRetry/IRTRY exchange — and
//! stalls the link head for [`LinkFaultConfig::retry_cycles`] while the peer
//! retransmits in order from its retry buffer. A packet whose every
//! transmission through [`LinkFaultConfig::retry_limit`] retries stays
//! corrupt exhausts the protocol: the link goes down for a
//! [`LinkFaultConfig::retrain_cycles`] retraining window and the request is
//! aborted with a poisoned-`ERRSTAT`
//! ([`ResponseStatus::LinkPoisoned`](hmc_types::ResponseStatus))
//! response, so the host always sees a typed failure rather than a
//! silent drop.
//!
//! Corruption decisions are **stateless hashes** of
//! `(seed, cube, link, send_seq, attempt)` — the same discipline as
//! `hmc_mem::cellfault` — where `send_seq` is the link's monotonic send
//! sequence number. The fault stream is therefore a pure function of the
//! injected workload: bit-identical in stepped and fast-forward runs,
//! and predictable at issue time
//! ([`predicts_poison`]) by the conformance oracle.

use hmc_trace::TraceEvent;
use hmc_types::packet::ResponseStatus;
use hmc_types::{Command, CubeId, LinkFaultConfig, LinkId};

use crate::queue::QueueEntry;
use crate::sim::HmcSim;

/// One SplitMix64 step: the golden-ratio increment, then the finalizer.
fn mix(v: u64) -> u64 {
    hmc_types::splitmix64_mix(v.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// The uniform draw for one transmission attempt: a pure hash of the
/// stream seed and the transmission's stable identity.
fn transmission_draw(seed: u64, cube: u8, link: u8, send_seq: u64, attempt: u32) -> u64 {
    let mut h = mix(seed | 1);
    h = mix(h ^ ((cube as u64) << 32 | (link as u64)));
    h = mix(h ^ send_seq);
    mix(h ^ (attempt as u64))
}

/// Whether transmission `attempt` (0 = the initial send, `n` = the n-th
/// retransmission) of the packet holding slot `send_seq` in the link's
/// monotonic send order is corrupted under `config`.
///
/// A pure function of its arguments: independent of engine mode and
/// simulation history.
pub fn transmission_corrupt(
    config: &LinkFaultConfig,
    cube: u8,
    link: u8,
    send_seq: u64,
    attempt: u32,
) -> bool {
    hits(
        config.error_rate(),
        transmission_draw(config.seed, cube, link, send_seq, attempt),
    )
}

/// Whether the packet holding slot `send_seq` in `link`'s send order
/// will exhaust the retry protocol and be poisoned: true iff the
/// initial transmission *and* every one of the `retry_limit` allowed
/// retransmissions is corrupt. The conformance oracle uses this to
/// predict the exact poisoned tag set at issue time.
pub fn predicts_poison(config: &LinkFaultConfig, cube: u8, link: u8, send_seq: u64) -> bool {
    (0..=config.retry_limit).all(|a| transmission_corrupt(config, cube, link, send_seq, a))
}

/// Whether a uniform `draw` falls inside probability `rate`. A unit
/// rate is special-cased to always hit: the scaled threshold
/// saturates at `u64::MAX`, and the strict compare below would then
/// miss the one draw in 2^64 where the RNG emits `u64::MAX` itself.
fn hits(rate: f64, draw: u64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    draw < (rate * (u64::MAX as f64)) as u64
}

/// Live error-injection state: the configuration and the one count
/// nothing else keeps. A detection is a retry
/// (`SimStats::link_retries`) or, on the last allowed attempt, a
/// `LinkDown` event; the non-posted requests a `LinkDown` aborts are
/// `SimStats::poisoned_responses`.
#[derive(Debug, Clone)]
pub struct FaultState {
    /// The active configuration.
    pub config: LinkFaultConfig,
    /// Transmission attempts corrupted in transit so far (initial sends
    /// and retransmissions both count).
    pub injected: u64,
}

impl FaultState {
    /// Initialize from a configuration.
    pub fn new(config: LinkFaultConfig) -> Self {
        FaultState {
            config,
            injected: 0,
        }
    }

    /// Decide the fate of one transmission attempt, counting hits.
    pub fn roll_attempt(&mut self, cube: u8, link: u8, send_seq: u64, attempt: u32) -> bool {
        let hit = transmission_corrupt(&self.config, cube, link, send_seq, attempt);
        if hit {
            self.injected += 1;
        }
        hit
    }
}

/// What the link-retry protocol makes of a packet ([`HmcSim::retry_step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retry {
    /// Clean: the walk routes it.
    Clean,
    /// The packet holds, and so does everything behind it on this link.
    Hold,
    /// Retries exhausted: the packet left poisoned and the link went down.
    Down,
}

impl HmcSim {
    /// The link-retry protocol for the packet in slot `idx` of link `l`'s
    /// crossbar request queue, while a fault block is installed.
    ///
    /// The crossbar's CRC check catches packets corrupted in transit. A
    /// detection starts the StartRetry/IRTRY exchange: the packet and its
    /// stream hold while the peer retransmits in order, the retransmission's
    /// fate drawn from the stateless corruption stream. A packet out of
    /// attempts is aborted with a poisoned response and the link goes down
    /// to retrain. An abort that owes a response waits, counting and
    /// tracing nothing, for a response slot ([`HmcSim::reply_blocked`]).
    pub(crate) fn retry_step(&mut self, di: usize, l: usize, idx: usize) -> Retry {
        let clock = self.clock;
        let rqst = &mut self.devices[di].xbars[l].rqst;
        let e = rqst.get_mut(idx).expect("idx checked");
        if e.retry_gated(clock) {
            return Retry::Hold; // retransmission in flight
        }
        if !e.corrupt {
            return Retry::Clean;
        }
        let (cube, link, attempt) = (di as CubeId, l as LinkId, e.attempt + 1);
        let faults = self.faults.as_mut().expect("the walk checked");
        let cfg = faults.config;
        if attempt <= cfg.retry_limit {
            e.corrupt = faults.roll_attempt(cube, link, e.send_seq, attempt);
            e.attempt = attempt;
            e.retry_until = clock + cfg.retry_cycles;
            let tag = e.packet.tag();
            self.stats.link_retries += 1;
            self.emit(TraceEvent::LinkRetry { cube, link, tag });
            return Retry::Hold;
        }
        if self.reply_blocked(di, l, idx) {
            return Retry::Hold;
        }
        let entry = self.take_xbar_request(di, l, idx);
        self.emit(TraceEvent::LinkDown {
            cube,
            link,
            tag: entry.packet.tag(),
            attempts: attempt,
        });
        self.poison_response(di, l, entry);
        self.devices[di].links[l].go_down(clock, cfg.retrain_cycles);
        Retry::Down
    }

    /// The poisoned response for a request that exhausted its retries: the
    /// caller checked a slot is free, so every non-posted request ends in
    /// exactly one clean or poisoned response. Posted requests fail
    /// silently.
    fn poison_response(&mut self, di: usize, l: usize, entry: QueueEntry) {
        self.devices[di].registers.count_error_response();
        if entry.packet.cmd().is_ok_and(|c| c.is_posted()) {
            self.bodies.give(entry.packet);
            return;
        }
        self.emit(TraceEvent::PoisonedResponse {
            cube: di as CubeId,
            link: l as LinkId,
            tag: entry.packet.tag(),
        });
        self.stats.poisoned_responses += 1;
        let (cmd, status) = (Command::ErrorResponse, ResponseStatus::LinkPoisoned);
        let resp = entry.into_response(cmd, status, &[], di as CubeId, self.clock);
        self.devices[di].xbars[l]
            .push_rsp(resp)
            .expect("poison slot checked by the caller");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rate_is_off() {
        // Error simulation is opt-in, like every other injection
        // subsystem: the default config must inject nothing.
        let mut f = FaultState::new(LinkFaultConfig::default());
        assert!((0..10_000u64).all(|seq| !f.roll_attempt(0, 0, seq, 0)));
        assert_eq!(f.injected, 0);
    }

    #[test]
    fn unit_rate_always_fires() {
        let mut f = FaultState::new(LinkFaultConfig::default().with_error_rate_ppm(1_000_000));
        assert!((0..1_000u64).all(|seq| f.roll_attempt(1, 0, seq, 0)));
        assert_eq!(f.injected, 1_000);
    }

    #[test]
    fn unit_rate_fires_even_on_a_max_draw() {
        // Regression: the threshold for rate 1.0 saturates at u64::MAX,
        // so a strict `<` alone would miss a draw of exactly u64::MAX.
        assert!(hits(1.0, u64::MAX));
        assert!(hits(1.0, 0));
        // Just under unit rate keeps the strict compare.
        assert!(!hits(0.999_999, u64::MAX));
        assert!(!hits(0.0, 0));
    }

    #[test]
    fn intermediate_rates_are_roughly_calibrated() {
        let cfg = LinkFaultConfig::default().with_error_rate_ppm(100_000);
        let hits = (0..100_000u64)
            .filter(|&seq| transmission_corrupt(&cfg, 1, 0, seq, 0))
            .count();
        assert!(
            (8_000..12_000).contains(&hits),
            "10% rate produced {hits}/100000"
        );
    }

    #[test]
    fn streams_are_pure_functions_of_their_key() {
        let cfg = LinkFaultConfig::default().with_error_rate_ppm(500_000);
        for seq in 0..1_000u64 {
            // Same key, same fate — regardless of evaluation order.
            assert_eq!(
                transmission_corrupt(&cfg, 1, 2, seq, 0),
                transmission_corrupt(&cfg, 1, 2, seq, 0),
            );
        }
        // Distinct links, sequence numbers, and attempts decorrelate.
        let by_link: Vec<bool> =
            (0..256u64).map(|s| transmission_corrupt(&cfg, 1, 0, s, 0)).collect();
        let other_link: Vec<bool> =
            (0..256u64).map(|s| transmission_corrupt(&cfg, 1, 1, s, 0)).collect();
        assert_ne!(by_link, other_link);
        let retry: Vec<bool> =
            (0..256u64).map(|s| transmission_corrupt(&cfg, 1, 0, s, 1)).collect();
        assert_ne!(by_link, retry);
        // Different seeds produce different streams.
        let reseeded = cfg.with_seed(0xDEAD_BEEF);
        let other: Vec<bool> =
            (0..256u64).map(|s| transmission_corrupt(&reseeded, 1, 0, s, 0)).collect();
        assert_ne!(by_link, other);
    }

    #[test]
    fn poison_prediction_matches_attempt_fates() {
        let cfg = LinkFaultConfig::default()
            .with_error_rate_ppm(600_000)
            .with_retry_limit(2);
        let mut poisoned = 0usize;
        for seq in 0..10_000u64 {
            let all_corrupt =
                (0..=cfg.retry_limit).all(|a| transmission_corrupt(&cfg, 1, 0, seq, a));
            assert_eq!(predicts_poison(&cfg, 1, 0, seq), all_corrupt);
            poisoned += all_corrupt as usize;
        }
        // 0.6^3 ≈ 21.6% of requests should exhaust three attempts.
        assert!((1_500..2_900).contains(&poisoned), "got {poisoned}/10000");
        // Unit rate poisons everything; zero rate nothing.
        let always = cfg.with_error_rate_ppm(1_000_000);
        assert!(predicts_poison(&always, 1, 0, 7));
        let never = cfg.with_error_rate_ppm(0);
        assert!(!predicts_poison(&never, 1, 0, 7));
    }
}
