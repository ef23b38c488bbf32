//! A campaign is its command line: the one parser of `conform-fuzz`'s
//! flags, and CI's conformance legs written in them.
//!
//! [`parse_campaign`] reads a campaign's flags into a
//! [`CampaignConfig`], for the binary's argv and for every row of
//! [`CI_LEGS`] alike. Each row is one differential campaign: the
//! `conform-fuzz` flags that run it and the stream count CI's
//! conformance job runs it at. `tests/conformance.rs` runs every row
//! twice — at [`Leg::tier1_streams`] in the tier-1 `cargo test`, and
//! `#[ignore]`d at [`Leg::ci_streams`], which is CI's
//! `cargo test --release -p hmc-conform --test conformance -- --ignored`.

use std::fmt;

use hmc_core::Args;
use hmc_types::{HmcError, Result};

use crate::fuzz::{default_hammer_faults, default_link_faults, CampaignConfig};

/// Streams a leg runs in tier-1, when CI runs more.
pub const TIER1_STREAMS: usize = 300;

/// Why a command line names no campaign.
#[derive(Debug)]
pub enum ArgError {
    /// `--help` or `-h`: the caller prints its usage.
    Help,
    /// An argument no parser claims.
    Unknown(String),
    /// A flag's value is missing or malformed.
    Value(HmcError),
    /// A `--seed` value that is not hex.
    Seed(String),
}

impl From<HmcError> for ArgError {
    fn from(e: HmcError) -> Self {
        ArgError::Value(e)
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Help => f.write_str("usage requested"),
            ArgError::Unknown(flag) => write!(f, "unknown argument {flag} (--help lists the flags)"),
            ArgError::Value(e) => write!(f, "{e} (--help lists the flags)"),
            ArgError::Seed(v) => write!(f, "--seed needs a hex value, got {v:?}"),
        }
    }
}

/// Read a campaign's command line: the campaign flags (`--streams`,
/// `--len`, `--seed`, `--fast-forward`, `--hammer`, `--link-errors`)
/// and the shared simulation axes ([`hmc_core::SimParams::apply_flag`]),
/// in command-line order. `own` sees every other flag first and returns
/// whether it took it, pulling any value from `args`: a binary's own
/// modes live there, and a flag nobody takes is [`ArgError::Unknown`].
///
/// An armed `params.cell_faults` or `params.link_faults` is a fault
/// axis, and any of the shared fault flags arms one. `--hammer` and
/// `--link-errors` arm [`default_hammer_faults`] and
/// [`default_link_faults`] after every flag is read, each only where no
/// fault flag armed its axis.
pub fn parse_campaign(
    args: &mut Args,
    mut own: impl FnMut(&str, &mut Args) -> Result<bool>,
) -> std::result::Result<CampaignConfig, ArgError> {
    let mut cfg = CampaignConfig::default();
    let (mut hammer, mut link_errors) = (false, false);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--help" | "-h" => return Err(ArgError::Help),
            "--streams" => cfg.streams = args.try_value(&flag)?,
            "--len" => cfg.stream_len = args.try_value(&flag)?,
            "--seed" => {
                let v: String = args.try_value(&flag)?;
                cfg.base_seed = u64::from_str_radix(v.trim_start_matches("0x"), 16)
                    .map_err(|_| ArgError::Seed(v))?;
            }
            // Here the flag forces an idle gap onto every stream; every
            // stream runs stepped and batched either way.
            "--fast-forward" => cfg.force_gaps = true,
            "--hammer" => hammer = true,
            "--link-errors" => link_errors = true,
            _ if own(&flag, args)? || cfg.params.apply_flag(&flag, args)? => {}
            _ => return Err(ArgError::Unknown(flag)),
        }
    }
    if hammer {
        cfg.params.cell_faults.get_or_insert_with(default_hammer_faults);
    }
    if link_errors {
        cfg.params.link_faults.get_or_insert_with(default_link_faults);
    }
    Ok(cfg)
}

/// One CI conformance leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    /// What the leg guards, for failure messages and repro file names.
    pub name: &'static str,
    /// Streams CI's conformance job runs.
    pub ci_streams: usize,
    /// The `conform-fuzz` arguments that run the campaign, less
    /// `--streams`.
    pub flags: &'static str,
}

/// CI's twelve conformance legs, seeds `C0FFEE00` to `C0FFEE0B`.
pub const CI_LEGS: [Leg; 12] = [
    // Crossbar, classic timing, gaps on the default rotation.
    Leg {
        name: "pinned",
        ci_streams: 10_000,
        flags: "--seed C0FFEE00",
    },
    // Every stream gapped, so every batched run jumps.
    Leg {
        name: "fast-forward",
        ci_streams: 1_000,
        flags: "--seed C0FFEE01 --fast-forward",
    },
    Leg {
        name: "ddr",
        ci_streams: 1_000,
        flags: "--seed C0FFEE02 --timing ddr",
    },
    Leg {
        name: "ring",
        ci_streams: 1_000,
        flags: "--seed C0FFEE03 --interconnect ring",
    },
    Leg {
        name: "mesh oldest-first",
        ci_streams: 1_000,
        flags: "--seed C0FFEE04 --interconnect mesh --arbitration oldest-first",
    },
    // Cell faults armed (TRR-mitigated) on every stream, a
    // threshold-crossing burst on every second one.
    Leg {
        name: "hammer",
        ci_streams: 1_000,
        flags: "--seed C0FFEE05 --hammer",
    },
    // Retry-gated heads and retraining links in the stall walk.
    Leg {
        name: "link-error",
        ci_streams: 1_000,
        flags: "--seed C0FFEE06 --link-errors",
    },
    // Vaults that sleep on cached bank and data-ready edges, jumped.
    Leg {
        name: "ddr fast-forward",
        ci_streams: 500,
        flags: "--seed C0FFEE07 --fast-forward --timing ddr",
    },
    Leg {
        name: "combined-axis",
        ci_streams: 1_000,
        flags: "--seed C0FFEE08 --fast-forward --hammer --link-errors --timing ddr \
                --interconnect mesh",
    },
    Leg {
        name: "ring fast-forward",
        ci_streams: 500,
        flags: "--seed C0FFEE09 --fast-forward --interconnect ring",
    },
    // FLIT debt frozen while a link retrains, paid down when its walk
    // opens, and jumped in bulk.
    Leg {
        name: "serialized-link",
        ci_streams: 1_000,
        flags: "--seed C0FFEE0A --fast-forward --link-errors --serialize-flits 1",
    },
    // The one scan order no other leg runs on a mesh.
    Leg {
        name: "mesh locality-aware",
        ci_streams: 1_000,
        flags: "--seed C0FFEE0B --interconnect mesh --arbitration locality-aware",
    },
];

impl Leg {
    /// Streams the leg runs in tier-1: CI's count, capped at
    /// [`TIER1_STREAMS`].
    pub fn tier1_streams(&self) -> usize {
        self.ci_streams.min(TIER1_STREAMS)
    }

    /// The campaign this leg's flags name, at `streams` streams.
    pub fn campaign(&self, streams: usize) -> CampaignConfig {
        let argv = self.flags.split_whitespace().map(String::from).collect();
        let cfg = parse_campaign(&mut Args::new("conform-fuzz", "", argv), |_, _| Ok(false))
            .unwrap_or_else(|e| panic!("{} leg: {e}", self.name));
        CampaignConfig { streams, ..cfg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::cellfault::Mitigation;
    use hmc_types::{InterconnectKind, LinkFaultConfig, TimingKind};

    fn parse(argv: &[&str]) -> std::result::Result<CampaignConfig, ArgError> {
        let argv = argv.iter().map(|s| s.to_string()).collect();
        parse_campaign(&mut Args::new("test", "", argv), |_, _| Ok(false))
    }

    #[test]
    fn flags_name_every_axis_off_its_default() {
        let combined = CI_LEGS[8].campaign(7);
        assert_eq!(combined.streams, 7);
        assert_eq!(combined.base_seed, 0xC0FF_EE08);
        assert!(combined.force_gaps);
        assert_eq!(combined.params.timing.kind, TimingKind::Ddr);
        assert_eq!(combined.params.interconnect.kind, InterconnectKind::Mesh);
        assert_eq!(combined.params.cell_faults, Some(default_hammer_faults()));
        assert_eq!(combined.params.link_faults, Some(default_link_faults()));
        let serialized = CI_LEGS[10].campaign(1);
        assert_eq!(serialized.params.link_flits_per_cycle, Some(1));
        assert!(serialized.params.cell_faults.is_none());
        let pinned = CI_LEGS[0].campaign(1);
        let default = CampaignConfig::default();
        assert_eq!(pinned.base_seed, default.base_seed);
        assert_eq!(pinned.params, default.params);
    }

    #[test]
    fn fault_flags_arm_their_axis_and_win_over_the_defaults() {
        let threshold = parse(&["--hammer-threshold", "64"]).unwrap().params;
        assert_eq!(threshold.cell_faults.unwrap().hammer_threshold, 64);
        let both = parse(&["--hammer", "--hammer-threshold", "32"]).unwrap().params;
        assert_eq!(both.cell_faults.unwrap().mitigation, Mitigation::None, "not TRR's default");
        let rate = parse(&["--link-errors", "--link-error-rate", "9"]).unwrap().params;
        let retry_limit = LinkFaultConfig::default().retry_limit;
        assert_eq!(rate.link_faults.unwrap().retry_limit, retry_limit);
        assert_eq!(rate.link_faults.unwrap().error_rate_ppm, 9);
    }

    #[test]
    fn malformed_command_lines_are_typed_errors() {
        assert!(matches!(parse(&["--bogus"]), Err(ArgError::Unknown(f)) if f == "--bogus"));
        assert!(matches!(parse(&["--seed", "xyz"]), Err(ArgError::Seed(_))));
        assert!(matches!(parse(&["--streams"]), Err(ArgError::Value(_))));
        assert!(matches!(parse(&["--timing", "fast"]), Err(ArgError::Value(_))));
        assert!(matches!(parse(&["--len", "4", "-h"]), Err(ArgError::Help)));
    }

    #[test]
    fn tier1_caps_the_ci_count() {
        assert_eq!(CI_LEGS[0].tier1_streams(), TIER1_STREAMS);
        let small = Leg {
            ci_streams: 16,
            ..CI_LEGS[0]
        };
        assert_eq!(small.tier1_streams(), 16);
    }
}
