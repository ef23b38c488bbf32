//! CI's conformance legs, declared once.
//!
//! Each row of [`CI_LEGS`] is one differential campaign: a base seed,
//! the axes its streams run under, and the stream count CI's
//! conformance job runs it at. `tests/conformance.rs` runs every row
//! twice — at [`Leg::tier1_streams`] in the tier-1 `cargo test`, and
//! `#[ignore]`d at [`Leg::ci_streams`], which is CI's
//! `cargo test --release -p hmc-conform --test conformance -- --ignored`.
//! [`Leg::flags`] spells a row as the `conform-fuzz` command line that
//! runs the same campaign.

use hmc_core::{NocParams, SimParams, TimingParams};
use hmc_types::{ArbitrationKind, InterconnectKind, TimingKind};

use crate::fuzz::CampaignConfig;

/// Streams a leg runs in tier-1, when CI runs more.
pub const TIER1_STREAMS: usize = 300;

/// One CI conformance leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    /// What the leg guards, for failure messages.
    pub name: &'static str,
    /// The campaign's base seed (`conform-fuzz --seed`).
    pub base_seed: u64,
    /// Streams CI's conformance job runs.
    pub ci_streams: usize,
    /// An idle gap on every stream (`--fast-forward`), not on two of
    /// every three.
    pub force_gaps: bool,
    /// The RowHammer fault axis (`--hammer`).
    pub hammer: bool,
    /// The link-retry axis (`--link-errors`).
    pub link_errors: bool,
    /// The vault timing backend (`--timing`).
    pub timing: TimingKind,
    /// The intra-cube fabric (`--interconnect`).
    pub interconnect: InterconnectKind,
    /// How buffered fabrics order their packets (`--arbitration`).
    pub arbitration: ArbitrationKind,
    /// A FLIT budget per link direction and cycle (`--serialize-flits`).
    pub flits_per_cycle: Option<usize>,
}

/// Every axis at its default, 1,000 CI streams.
const DEFAULT: Leg = Leg {
    name: "",
    base_seed: 0,
    ci_streams: 1_000,
    force_gaps: false,
    hammer: false,
    link_errors: false,
    timing: TimingKind::Classic,
    interconnect: InterconnectKind::Crossbar,
    arbitration: ArbitrationKind::RoundRobin,
    flits_per_cycle: None,
};

/// CI's twelve conformance legs, seeds `C0FFEE00` to `C0FFEE0B`.
pub const CI_LEGS: [Leg; 12] = [
    // Crossbar, classic timing, gaps on the default rotation.
    Leg {
        name: "pinned",
        base_seed: 0xC0FF_EE00,
        ci_streams: 10_000,
        ..DEFAULT
    },
    // Every stream gapped, so every batched run jumps.
    Leg {
        name: "fast-forward",
        base_seed: 0xC0FF_EE01,
        force_gaps: true,
        ..DEFAULT
    },
    Leg {
        name: "ddr",
        base_seed: 0xC0FF_EE02,
        timing: TimingKind::Ddr,
        ..DEFAULT
    },
    Leg {
        name: "ring",
        base_seed: 0xC0FF_EE03,
        interconnect: InterconnectKind::Ring,
        ..DEFAULT
    },
    Leg {
        name: "mesh oldest-first",
        base_seed: 0xC0FF_EE04,
        interconnect: InterconnectKind::Mesh,
        arbitration: ArbitrationKind::OldestFirst,
        ..DEFAULT
    },
    // Cell faults armed (TRR-mitigated) on every stream, a
    // threshold-crossing burst on every second one.
    Leg {
        name: "hammer",
        base_seed: 0xC0FF_EE05,
        hammer: true,
        ..DEFAULT
    },
    // Retry-gated heads and retraining links in the stall walk.
    Leg {
        name: "link-error",
        base_seed: 0xC0FF_EE06,
        link_errors: true,
        ..DEFAULT
    },
    // Vaults that sleep on cached bank and data-ready edges, jumped.
    Leg {
        name: "ddr fast-forward",
        base_seed: 0xC0FF_EE07,
        ci_streams: 500,
        force_gaps: true,
        timing: TimingKind::Ddr,
        ..DEFAULT
    },
    Leg {
        name: "combined-axis",
        base_seed: 0xC0FF_EE08,
        force_gaps: true,
        hammer: true,
        link_errors: true,
        timing: TimingKind::Ddr,
        interconnect: InterconnectKind::Mesh,
        ..DEFAULT
    },
    Leg {
        name: "ring fast-forward",
        base_seed: 0xC0FF_EE09,
        ci_streams: 500,
        force_gaps: true,
        interconnect: InterconnectKind::Ring,
        ..DEFAULT
    },
    // FLIT debt frozen while a link retrains, paid down when its walk
    // opens, and jumped in bulk.
    Leg {
        name: "serialized-link",
        base_seed: 0xC0FF_EE0A,
        force_gaps: true,
        link_errors: true,
        flits_per_cycle: Some(1),
        ..DEFAULT
    },
    // The one scan order no other leg runs on a mesh.
    Leg {
        name: "mesh locality-aware",
        base_seed: 0xC0FF_EE0B,
        interconnect: InterconnectKind::Mesh,
        arbitration: ArbitrationKind::LocalityAware,
        ..DEFAULT
    },
];

impl Leg {
    /// The leg whose base seed is `seed`, if CI runs one.
    pub fn by_seed(seed: u64) -> Option<&'static Leg> {
        CI_LEGS.iter().find(|leg| leg.base_seed == seed)
    }

    /// Streams the leg runs in tier-1: CI's count, capped at
    /// [`TIER1_STREAMS`].
    pub fn tier1_streams(&self) -> usize {
        self.ci_streams.min(TIER1_STREAMS)
    }

    /// The campaign this leg runs, at `streams` streams of the default
    /// length.
    pub fn config(&self, streams: usize) -> CampaignConfig {
        CampaignConfig {
            streams,
            base_seed: self.base_seed,
            force_gaps: self.force_gaps,
            hammer: self.hammer,
            link_errors: self.link_errors,
            params: SimParams {
                timing: TimingParams::of(self.timing),
                interconnect: NocParams::of(self.interconnect).with_arbitration(self.arbitration),
                link_flits_per_cycle: self.flits_per_cycle,
                ..SimParams::default()
            },
            ..CampaignConfig::default()
        }
    }

    /// The `conform-fuzz` arguments that run this campaign, less
    /// `--streams`: every axis the leg moves off its default.
    pub fn flags(&self) -> Vec<String> {
        let mut flags = vec!["--seed".to_string(), format!("{:X}", self.base_seed)];
        let mut flag = |name: &str, value: Option<String>| {
            flags.push(name.to_string());
            flags.extend(value);
        };
        if self.force_gaps {
            flag("--fast-forward", None);
        }
        if self.hammer {
            flag("--hammer", None);
        }
        if self.link_errors {
            flag("--link-errors", None);
        }
        if self.timing != DEFAULT.timing {
            flag("--timing", Some(self.timing.name().to_string()));
        }
        if self.interconnect != DEFAULT.interconnect {
            flag("--interconnect", Some(self.interconnect.name().to_string()));
        }
        if self.arbitration != DEFAULT.arbitration {
            flag("--arbitration", Some(self.arbitration.name().to_string()));
        }
        if let Some(flits) = self.flits_per_cycle {
            flag("--serialize-flits", Some(flits.to_string()));
        }
        flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_name_every_axis_off_its_default() {
        let combined = Leg::by_seed(0xC0FF_EE08).unwrap();
        assert_eq!(
            combined.flags().join(" "),
            "--seed C0FFEE08 --fast-forward --hammer --link-errors --timing ddr \
             --interconnect mesh"
        );
        let serialized = Leg::by_seed(0xC0FF_EE0A).unwrap();
        assert_eq!(
            serialized.flags().join(" "),
            "--seed C0FFEE0A --fast-forward --link-errors --serialize-flits 1"
        );
        assert_eq!(CI_LEGS[0].flags().join(" "), "--seed C0FFEE00");
    }

    #[test]
    fn tier1_caps_the_ci_count() {
        assert_eq!(CI_LEGS[0].tier1_streams(), TIER1_STREAMS);
        let small = Leg {
            ci_streams: 16,
            ..DEFAULT
        };
        assert_eq!(small.tier1_streams(), 16);
    }
}
