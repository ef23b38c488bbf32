//! Cell-level fault-injection configuration: RowHammer disturbance and
//! retention decay.
//!
//! HMC-Sim's requirement 5 calls for "functional simulation, error
//! simulation and performance simulation" (paper §IV). The link-level
//! error model covers SERDES transit; [`CellFaultConfig`] extends error
//! simulation into the DRAM array itself, following the system-level
//! RowHammer modelling approach of HammerSim: rows activated more than
//! a threshold number of times within one refresh window disturb their
//! physically adjacent victim rows, flipping bits with a seeded per-bit
//! probability, and unrefreshed cells past a retention horizon decay on
//! their own. Two standard mitigations are modelled behind
//! [`Mitigation`].
//!
//! This type is pure data (all-integer, `Copy`, `Eq`, serde) so it can
//! ride in `SimParams`, device-config JSON, and the serve wire protocol
//! without floating-point or hashing hazards. The live injection state
//! lives in `hmc_mem` next to the banks it corrupts.

use serde::{Deserialize, Serialize};

use crate::error::{HmcError, Result};

/// RowHammer mitigation strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mitigation {
    /// No mitigation: threshold crossings flip victim-row bits.
    #[default]
    None,
    /// Target Row Refresh: when an aggressor row crosses the threshold,
    /// its neighbors are refreshed instead of disturbed (no flips), the
    /// aggressor's accumulated disturbance is erased, and the bank pays
    /// [`CellFaultConfig::trr_cost`] cycles of refresh busy time through
    /// the vault timing backend.
    Trr,
    /// Elevated refresh duty: the refresh window is shortened (divided
    /// by four), so activation counts reset before most aggressors can
    /// reach the threshold and fewer cells outlive the retention
    /// horizon. Crossings that still occur flip bits normally.
    ElevatedRefresh,
}

impl Mitigation {
    /// Every mitigation, for CLI sweeps and tests.
    pub const ALL: [Mitigation; 3] = [
        Mitigation::None,
        Mitigation::Trr,
        Mitigation::ElevatedRefresh,
    ];

    /// Short CLI/config name.
    pub fn name(self) -> &'static str {
        match self {
            Mitigation::None => "none",
            Mitigation::Trr => "trr",
            Mitigation::ElevatedRefresh => "elevated",
        }
    }

    /// Look up a mitigation by its short CLI name.
    pub fn by_name(name: &str) -> Option<Mitigation> {
        match name {
            "none" => Some(Mitigation::None),
            "trr" => Some(Mitigation::Trr),
            "elevated" | "elevated-refresh" => Some(Mitigation::ElevatedRefresh),
            _ => None,
        }
    }
}

/// Deterministic cell-fault injection parameters.
///
/// Probabilities are expressed in parts per million so the whole config
/// stays integer-valued (`Copy + Eq`, usable inside `SimParams`). The
/// subsystem is off unless a config is installed; an installed config
/// with `hammer_threshold == 0` and `retention_cycles == 0` injects
/// nothing but still counts activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellFaultConfig {
    /// Aggressor activations within one refresh window after which the
    /// adjacent victim rows are disturbed (every multiple fires again).
    /// `0` disables the hammer axis.
    pub hammer_threshold: u32,
    /// Per-bit flip probability in each victim row per threshold
    /// crossing, in parts per million. Values at or above 1 000 000
    /// flip every bit.
    pub flip_prob_ppm: u32,
    /// Retention horizon in cycles: cells left unrefreshed longer than
    /// this within a refresh window decay. `0` disables the retention
    /// axis; values at or above `refresh_window` never fire (refresh
    /// always arrives in time).
    pub retention_cycles: u64,
    /// Per-bit decay probability for a row read past the retention
    /// horizon, in parts per million, applied once per refresh window.
    pub retention_prob_ppm: u32,
    /// Cycles per refresh window: activation counters reset at every
    /// window edge and retention is measured from the window start.
    /// Independent of the timing backend's refresh modelling so the
    /// fault axis works under every backend. Must be non-zero.
    pub refresh_window: u64,
    /// Mitigation strategy.
    pub mitigation: Mitigation,
    /// Cycles a bank stays busy per targeted refresh ([`Mitigation::Trr`]).
    pub trr_cost: u32,
    /// Seed of the deterministic flip streams. Flip decisions are pure
    /// functions of (seed, vault, bank, row, window, crossing, bit), so
    /// they are independent of evaluation order and of whether the
    /// engine steps or jumps a span.
    pub seed: u64,
}

impl Default for CellFaultConfig {
    fn default() -> Self {
        CellFaultConfig {
            hammer_threshold: 256,
            flip_prob_ppm: 1_000,
            retention_cycles: 0,
            retention_prob_ppm: 500,
            refresh_window: 8_192,
            mitigation: Mitigation::None,
            trr_cost: 16,
            seed: 0x0ce1_1fa7,
        }
    }
}

// Hand-written serde impls (the vendored stand-in has no container
// defaults): config files may set only the knobs they care about, and
// each missing field falls back to this struct's `Default` value, not
// the field type's zero.
impl Serialize for CellFaultConfig {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Object(vec![
            ("hammer_threshold".into(), self.hammer_threshold.to_value()),
            ("flip_prob_ppm".into(), self.flip_prob_ppm.to_value()),
            ("retention_cycles".into(), self.retention_cycles.to_value()),
            ("retention_prob_ppm".into(), self.retention_prob_ppm.to_value()),
            ("refresh_window".into(), self.refresh_window.to_value()),
            ("mitigation".into(), self.mitigation.to_value()),
            ("trr_cost".into(), self.trr_cost.to_value()),
            ("seed".into(), self.seed.to_value()),
        ])
    }
}

impl Deserialize for CellFaultConfig {
    fn from_value(v: &serde::value::Value) -> std::result::Result<Self, serde::de::Error> {
        fn field_or<T: Deserialize>(
            fields: &[(String, serde::value::Value)],
            name: &str,
            fallback: T,
        ) -> std::result::Result<T, serde::de::Error> {
            match fields.iter().find(|(k, _)| k == name) {
                Some((_, v)) => T::from_value(v).map_err(|e| {
                    serde::de::Error::custom(format!(
                        "field `{name}` of `CellFaultConfig`: {e}"
                    ))
                }),
                None => Ok(fallback),
            }
        }
        let fields = v.as_object().ok_or_else(|| {
            serde::de::Error::custom("expected an object for `CellFaultConfig`")
        })?;
        let d = CellFaultConfig::default();
        Ok(CellFaultConfig {
            hammer_threshold: field_or(fields, "hammer_threshold", d.hammer_threshold)?,
            flip_prob_ppm: field_or(fields, "flip_prob_ppm", d.flip_prob_ppm)?,
            retention_cycles: field_or(fields, "retention_cycles", d.retention_cycles)?,
            retention_prob_ppm: field_or(fields, "retention_prob_ppm", d.retention_prob_ppm)?,
            refresh_window: field_or(fields, "refresh_window", d.refresh_window)?,
            mitigation: field_or(fields, "mitigation", d.mitigation)?,
            trr_cost: field_or(fields, "trr_cost", d.trr_cost)?,
            seed: field_or(fields, "seed", d.seed)?,
        })
    }
}

impl CellFaultConfig {
    /// Replace the hammer threshold (builder style).
    pub fn with_hammer_threshold(mut self, threshold: u32) -> Self {
        self.hammer_threshold = threshold;
        self
    }

    /// Replace the per-bit flip probability in ppm (builder style).
    pub fn with_flip_prob_ppm(mut self, ppm: u32) -> Self {
        self.flip_prob_ppm = ppm;
        self
    }

    /// Replace the retention horizon in cycles (builder style).
    pub fn with_retention(mut self, cycles: u64) -> Self {
        self.retention_cycles = cycles;
        self
    }

    /// Replace the refresh window length (builder style).
    pub fn with_refresh_window(mut self, cycles: u64) -> Self {
        self.refresh_window = cycles;
        self
    }

    /// Replace the mitigation strategy (builder style).
    pub fn with_mitigation(mut self, mitigation: Mitigation) -> Self {
        self.mitigation = mitigation;
        self
    }

    /// Replace the flip-stream seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Apply one of the shared cell-fault CLI flags to `slot`, used by
    /// every frontend so the flag vocabulary cannot drift:
    /// `--hammer-threshold N`, `--flip-prob PPM`, `--retention CYCLES`,
    /// `--mitigation none|trr|elevated`.
    ///
    /// Returns `Ok(false)` when `flag` is not a cell-fault flag (the
    /// caller keeps parsing), `Ok(true)` when it was consumed — a `None`
    /// slot is materialized with defaults first — and an error when the
    /// flag's value is missing or malformed.
    pub fn apply_flag(
        slot: &mut Option<CellFaultConfig>,
        flag: &str,
        value: Option<&str>,
    ) -> Result<bool> {
        type Setter = fn(&mut CellFaultConfig, &str) -> bool;
        let (set, what): (Setter, &str) = match flag {
            "--hammer-threshold" => (
                |c, v| v.parse().map(|x| c.hammer_threshold = x).is_ok(),
                "an activation count",
            ),
            "--flip-prob" => (
                |c, v| v.parse().map(|x| c.flip_prob_ppm = x).is_ok(),
                "a ppm value",
            ),
            "--retention" => (
                |c, v| v.parse().map(|x| c.retention_cycles = x).is_ok(),
                "a cycle count",
            ),
            "--mitigation" => (
                |c, v| Mitigation::by_name(v).map(|x| c.mitigation = x).is_some(),
                "`none`, `trr`, or `elevated`",
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
        if self.refresh_window == 0 {
            return Err(HmcError::InvalidConfig(
                "cell-fault refresh_window must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mitigation_names_roundtrip() {
        for m in Mitigation::ALL {
            assert_eq!(Mitigation::by_name(m.name()), Some(m));
        }
        assert_eq!(Mitigation::by_name("elevated-refresh"), Some(Mitigation::ElevatedRefresh));
        assert_eq!(Mitigation::by_name("bogus"), None);
    }

    #[test]
    fn defaults_validate_and_serialize() {
        let c = CellFaultConfig::default();
        c.validate().unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let back: CellFaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn partial_json_fills_defaults() {
        // Config files may set only the knobs they care about.
        let c: CellFaultConfig =
            serde_json::from_str(r#"{"hammer_threshold": 32, "mitigation": "Trr"}"#).unwrap();
        assert_eq!(c.hammer_threshold, 32);
        assert_eq!(c.mitigation, Mitigation::Trr);
        assert_eq!(c.refresh_window, CellFaultConfig::default().refresh_window);
    }

    #[test]
    fn cli_flags_materialize_and_compose() {
        let mut slot = None;
        assert!(!CellFaultConfig::apply_flag(&mut slot, "--seed", Some("1")).unwrap());
        assert!(slot.is_none(), "unrelated flags leave the slot untouched");
        assert!(CellFaultConfig::apply_flag(&mut slot, "--hammer-threshold", Some("64")).unwrap());
        assert!(CellFaultConfig::apply_flag(&mut slot, "--mitigation", Some("trr")).unwrap());
        let cfg = slot.unwrap();
        assert_eq!(cfg.hammer_threshold, 64);
        assert_eq!(cfg.mitigation, Mitigation::Trr);
        assert_eq!(cfg.flip_prob_ppm, CellFaultConfig::default().flip_prob_ppm);
        let mut slot = None;
        assert!(CellFaultConfig::apply_flag(&mut slot, "--flip-prob", None).is_err());
        assert!(CellFaultConfig::apply_flag(&mut slot, "--retention", Some("x")).is_err());
        assert!(CellFaultConfig::apply_flag(&mut slot, "--mitigation", Some("bogus")).is_err());
    }

    #[test]
    fn zero_window_rejected() {
        let c = CellFaultConfig::default().with_refresh_window(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_compose() {
        let c = CellFaultConfig::default()
            .with_hammer_threshold(64)
            .with_flip_prob_ppm(5_000)
            .with_retention(100)
            .with_refresh_window(1_000)
            .with_mitigation(Mitigation::ElevatedRefresh)
            .with_seed(42);
        assert_eq!(c.hammer_threshold, 64);
        assert_eq!(c.flip_prob_ppm, 5_000);
        assert_eq!(c.retention_cycles, 100);
        assert_eq!(c.refresh_window, 1_000);
        assert_eq!(c.mitigation, Mitigation::ElevatedRefresh);
        assert_eq!(c.seed, 42);
    }
}
