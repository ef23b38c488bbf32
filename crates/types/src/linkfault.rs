//! Link-level fault-injection configuration: SERDES transit errors and
//! the HMC link-retry protocol's escalation knobs.
//!
//! HMC-Sim's requirement 5 calls for "functional simulation, error
//! simulation and performance simulation" (paper §IV). The link-retry
//! subsystem models the spec's error path end to end: a corrupted
//! transmission is CRC-detected at the receiver, which triggers a
//! StartRetry/IRTRY exchange and an in-order retransmission from the
//! sender's retry buffer; a packet that stays corrupt past the
//! configured attempt cap takes the link down for a retraining window
//! and completes with a poisoned `ERRSTAT` response instead of
//! silently succeeding.
//!
//! Like [`crate::cellfault::CellFaultConfig`], this type is pure data
//! (all-integer, `Copy`, `Eq`, serde) so it can ride in `SimParams`,
//! device-config JSON, and the serve wire protocol. Corruption
//! decisions are stateless hashes of
//! `(seed, cube, link, send_seq, attempt)`, so the fault stream is
//! bit-identical in stepped and fast-forward runs. The live retry
//! state lives in `hmc_core` next to the link queues it governs.

use serde::{Deserialize, Serialize};

use crate::error::{HmcError, Result};

/// Deterministic link fault-injection parameters.
///
/// Probabilities are expressed in parts per million so the whole config
/// stays integer-valued (`Copy + Eq`, usable inside `SimParams`). The
/// subsystem is off unless a config is installed; an installed config
/// with `error_rate_ppm == 0` injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkFaultConfig {
    /// Per-transmission corruption probability in parts per million.
    /// Every transmission attempt (initial send and each retry) draws
    /// independently. Values at or above 1 000 000 corrupt every
    /// transmission.
    pub error_rate_ppm: u32,
    /// Cycles a detected corruption stalls the link head while the
    /// StartRetry/IRTRY exchange runs and the packet is retransmitted
    /// from the retry buffer.
    pub retry_cycles: u64,
    /// Retransmission attempts after the initial transmission before
    /// the link gives up: a packet still corrupt after `retry_limit`
    /// retries is aborted with a poisoned-`ERRSTAT` response and the
    /// link goes down for retraining.
    pub retry_limit: u32,
    /// Cycles the link trains back up after a retry exhaustion before
    /// it moves packets again. The wire SEQ counter restarts afterward.
    pub retrain_cycles: u64,
    /// Seed of the deterministic corruption streams. Corruption
    /// decisions are pure functions of
    /// `(seed, cube, link, send_seq, attempt)`, so they are independent
    /// of engine mode.
    pub seed: u64,
}

impl Default for LinkFaultConfig {
    fn default() -> Self {
        LinkFaultConfig {
            error_rate_ppm: 0,
            retry_cycles: 8,
            retry_limit: 3,
            retrain_cycles: 64,
            seed: 0x5eed_cafe,
        }
    }
}

// Hand-written serde impls (the vendored stand-in has no container
// defaults): config files may set only the knobs they care about, and
// each missing field falls back to this struct's `Default` value.
impl Serialize for LinkFaultConfig {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Object(vec![
            ("error_rate_ppm".into(), self.error_rate_ppm.to_value()),
            ("retry_cycles".into(), self.retry_cycles.to_value()),
            ("retry_limit".into(), self.retry_limit.to_value()),
            ("retrain_cycles".into(), self.retrain_cycles.to_value()),
            ("seed".into(), self.seed.to_value()),
        ])
    }
}

impl Deserialize for LinkFaultConfig {
    fn from_value(v: &serde::value::Value) -> std::result::Result<Self, serde::de::Error> {
        fn field_or<T: Deserialize>(
            fields: &[(String, serde::value::Value)],
            name: &str,
            fallback: T,
        ) -> std::result::Result<T, serde::de::Error> {
            match fields.iter().find(|(k, _)| k == name) {
                Some((_, v)) => T::from_value(v).map_err(|e| {
                    serde::de::Error::custom(format!(
                        "field `{name}` of `LinkFaultConfig`: {e}"
                    ))
                }),
                None => Ok(fallback),
            }
        }
        let fields = v.as_object().ok_or_else(|| {
            serde::de::Error::custom("expected an object for `LinkFaultConfig`")
        })?;
        let d = LinkFaultConfig::default();
        Ok(LinkFaultConfig {
            error_rate_ppm: field_or(fields, "error_rate_ppm", d.error_rate_ppm)?,
            retry_cycles: field_or(fields, "retry_cycles", d.retry_cycles)?,
            retry_limit: field_or(fields, "retry_limit", d.retry_limit)?,
            retrain_cycles: field_or(fields, "retrain_cycles", d.retrain_cycles)?,
            seed: field_or(fields, "seed", d.seed)?,
        })
    }
}

impl LinkFaultConfig {
    /// Replace the per-transmission error rate in ppm (builder style).
    pub fn with_error_rate_ppm(mut self, ppm: u32) -> Self {
        self.error_rate_ppm = ppm;
        self
    }

    /// Replace the retry stall window in cycles (builder style).
    pub fn with_retry_cycles(mut self, cycles: u64) -> Self {
        self.retry_cycles = cycles;
        self
    }

    /// Replace the retransmission attempt cap (builder style).
    pub fn with_retry_limit(mut self, limit: u32) -> Self {
        self.retry_limit = limit;
        self
    }

    /// Replace the retraining window in cycles (builder style).
    pub fn with_retrain_cycles(mut self, cycles: u64) -> Self {
        self.retrain_cycles = cycles;
        self
    }

    /// Replace the corruption-stream seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Per-transmission error rate as a fraction in `[0, 1]`.
    pub fn error_rate(&self) -> f64 {
        (self.error_rate_ppm.min(1_000_000) as f64) / 1_000_000.0
    }

    /// Apply one of the shared link-fault CLI flags to `slot`, used by
    /// every frontend so the flag vocabulary cannot drift:
    /// `--link-error-rate PPM`, `--link-retry-limit N`,
    /// `--retrain-cycles N`, `--link-retry-cycles N`,
    /// `--link-fault-seed HEX`.
    ///
    /// Returns `Ok(false)` when `flag` is not a link-fault flag (the
    /// caller keeps parsing), `Ok(true)` when it was consumed — a `None`
    /// slot is materialized with defaults first — and an error when the
    /// flag's value is missing or malformed.
    pub fn apply_flag(
        slot: &mut Option<LinkFaultConfig>,
        flag: &str,
        value: Option<&str>,
    ) -> Result<bool> {
        type Setter = fn(&mut LinkFaultConfig, &str) -> bool;
        let (set, what): (Setter, &str) = match flag {
            "--link-error-rate" => (
                |c, v| v.parse().map(|x| c.error_rate_ppm = x).is_ok(),
                "a ppm value",
            ),
            "--link-retry-limit" => (
                |c, v| v.parse().map(|x| c.retry_limit = x).is_ok(),
                "an attempt count",
            ),
            "--retrain-cycles" => (
                |c, v| v.parse().map(|x| c.retrain_cycles = x).is_ok(),
                "a cycle count",
            ),
            "--link-retry-cycles" => (
                |c, v| v.parse().map(|x| c.retry_cycles = x).is_ok(),
                "a cycle count",
            ),
            "--link-fault-seed" => (
                |c, v| {
                    u64::from_str_radix(v.trim_start_matches("0x"), 16)
                        .map(|x| c.seed = x)
                        .is_ok()
                },
                "a hex seed",
            ),
            _ => return Ok(false),
        };
        let v = value
            .ok_or_else(|| HmcError::InvalidConfig(format!("{flag} needs a value")))?;
        let mut cfg = slot.unwrap_or_default();
        if !set(&mut cfg, v) {
            return Err(HmcError::InvalidConfig(format!("{flag} needs {what}, got {v:?}")));
        }
        *slot = Some(cfg);
        Ok(true)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.retry_cycles == 0 {
            return Err(HmcError::InvalidConfig(
                "link-fault retry_cycles must be non-zero".into(),
            ));
        }
        if self.retrain_cycles == 0 {
            return Err(HmcError::InvalidConfig(
                "link-fault retrain_cycles must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_serialize() {
        let c = LinkFaultConfig::default();
        c.validate().unwrap();
        assert_eq!(c.error_rate_ppm, 0, "link errors are opt-in");
        let json = serde_json::to_string(&c).unwrap();
        let back: LinkFaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn partial_json_fills_defaults() {
        let c: LinkFaultConfig =
            serde_json::from_str(r#"{"error_rate_ppm": 5000, "retry_limit": 1}"#).unwrap();
        assert_eq!(c.error_rate_ppm, 5_000);
        assert_eq!(c.retry_limit, 1);
        assert_eq!(c.retrain_cycles, LinkFaultConfig::default().retrain_cycles);
    }

    #[test]
    fn error_rate_saturates_at_unity() {
        assert_eq!(LinkFaultConfig::default().error_rate(), 0.0);
        let full = LinkFaultConfig::default().with_error_rate_ppm(2_000_000);
        assert_eq!(full.error_rate(), 1.0);
        let half = LinkFaultConfig::default().with_error_rate_ppm(500_000);
        assert!((half.error_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cli_flags_materialize_and_compose() {
        let mut slot = None;
        assert!(!LinkFaultConfig::apply_flag(&mut slot, "--seed", Some("1")).unwrap());
        assert!(slot.is_none(), "unrelated flags leave the slot untouched");
        assert!(LinkFaultConfig::apply_flag(&mut slot, "--link-error-rate", Some("2500")).unwrap());
        assert!(LinkFaultConfig::apply_flag(&mut slot, "--link-retry-limit", Some("5")).unwrap());
        assert!(LinkFaultConfig::apply_flag(&mut slot, "--retrain-cycles", Some("128")).unwrap());
        assert!(
            LinkFaultConfig::apply_flag(&mut slot, "--link-fault-seed", Some("0xBEEF")).unwrap()
        );
        let cfg = slot.unwrap();
        assert_eq!(cfg.error_rate_ppm, 2_500);
        assert_eq!(cfg.retry_limit, 5);
        assert_eq!(cfg.retrain_cycles, 128);
        assert_eq!(cfg.seed, 0xBEEF);
        assert_eq!(cfg.retry_cycles, LinkFaultConfig::default().retry_cycles);
        let mut slot = None;
        assert!(LinkFaultConfig::apply_flag(&mut slot, "--link-error-rate", None).is_err());
        assert!(LinkFaultConfig::apply_flag(&mut slot, "--link-retry-limit", Some("x")).is_err());
        assert!(LinkFaultConfig::apply_flag(&mut slot, "--link-fault-seed", Some("zz")).is_err());
    }

    #[test]
    fn zero_windows_rejected() {
        assert!(LinkFaultConfig::default().with_retry_cycles(0).validate().is_err());
        assert!(LinkFaultConfig::default().with_retrain_cycles(0).validate().is_err());
    }

    #[test]
    fn builders_compose() {
        let c = LinkFaultConfig::default()
            .with_error_rate_ppm(10_000)
            .with_retry_cycles(4)
            .with_retry_limit(2)
            .with_retrain_cycles(32)
            .with_seed(42);
        assert_eq!(c.error_rate_ppm, 10_000);
        assert_eq!(c.retry_cycles, 4);
        assert_eq!(c.retry_limit, 2);
        assert_eq!(c.retrain_cycles, 32);
        assert_eq!(c.seed, 42);
    }
}
