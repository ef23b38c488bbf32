//! Named workload specifications.
//!
//! Every frontend that lets a user pick a workload by name — the `hmcsim`
//! CLI, the `loadgen` serving client, scripted experiments — needs the
//! same mapping from `(name, seed, working set, …)` to a concrete
//! generator. [`WorkloadSpec`] centralizes that mapping so the frontends
//! cannot drift apart: identical specs build identical (deterministic)
//! request streams.

use hmc_types::address::MapGeometry;
use hmc_types::{BlockSize, HmcError, QuadId, Result};

use crate::gups::{Gups, UpdateKind};
use crate::hammer::Hammer;
use crate::hotspot::{Hotspot, DEFAULT_HOT_PCT};
use crate::op::Workload;
use crate::pointer_chase::PointerChase;
use crate::random_access::RandomAccess;
use crate::stencil::Stencil;
use crate::stream::{Stream, StreamMode};

/// Names [`WorkloadSpec::build`] accepts, for help text and validation.
pub const WORKLOAD_NAMES: [&str; 7] =
    ["random", "stream", "gups", "chase", "stencil", "hotspot", "hammer"];

/// A by-name workload description that builds a deterministic generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Generator name (one of [`WORKLOAD_NAMES`]).
    pub name: String,
    /// Deterministic seed (ignored by `stream` and `stencil`).
    pub seed: u32,
    /// Address range the workload touches, in bytes.
    pub working_set: u64,
    /// Request block size (reads/writes; atomics ignore it).
    pub block: BlockSize,
    /// Percentage of reads for the `random` mix (0..=100).
    pub read_pct: u8,
    /// Number of operations to generate.
    pub requests: u64,
    /// Device geometry for quad-aware generators (`hotspot` requires
    /// it; others ignore it).
    pub geometry: Option<MapGeometry>,
    /// Quad the `hotspot` generator concentrates on.
    pub hot_quad: QuadId,
    /// Percentage of `hotspot` requests aimed at the hot quad.
    pub hot_pct: u8,
}

impl WorkloadSpec {
    /// A spec with the harness defaults: `random`, 50% reads, 64-byte
    /// blocks, over `working_set` bytes.
    pub fn new(name: &str, seed: u32, working_set: u64, requests: u64) -> Self {
        WorkloadSpec {
            name: name.to_string(),
            seed,
            working_set,
            block: BlockSize::B64,
            read_pct: 50,
            requests,
            geometry: None,
            hot_quad: 0,
            hot_pct: DEFAULT_HOT_PCT,
        }
    }

    /// Replace the block size (builder style).
    pub fn with_block(mut self, block: BlockSize) -> Self {
        self.block = block;
        self
    }

    /// Replace the read percentage (builder style).
    pub fn with_read_pct(mut self, read_pct: u8) -> Self {
        self.read_pct = read_pct;
        self
    }

    /// Supply the device geometry quad-aware generators need (builder
    /// style).
    pub fn with_geometry(mut self, geometry: MapGeometry) -> Self {
        self.geometry = Some(geometry);
        self
    }

    /// Point the `hotspot` generator at `quad` with `hot_pct`% of the
    /// traffic (builder style).
    pub fn with_hotspot(mut self, quad: QuadId, hot_pct: u8) -> Self {
        self.hot_quad = quad;
        self.hot_pct = hot_pct;
        self
    }

    /// Build the generator this spec describes.
    ///
    /// Fails with [`HmcError::InvalidConfig`] on an unknown name or an
    /// out-of-range read percentage.
    pub fn build(&self) -> Result<Box<dyn Workload>> {
        if self.read_pct > 100 {
            return Err(HmcError::InvalidConfig(format!(
                "read_pct {} exceeds 100",
                self.read_pct
            )));
        }
        let ws = self.working_set.max(self.block.bytes() as u64);
        Ok(match self.name.as_str() {
            "random" => Box::new(RandomAccess::new(
                self.seed,
                ws,
                self.block,
                self.read_pct,
                self.requests,
            )),
            "stream" => Box::new(Stream::unit(ws, self.block, StreamMode::Copy, self.requests)),
            "gups" => Box::new(Gups::new(self.seed, ws, UpdateKind::Add16, self.requests)),
            "chase" => Box::new(PointerChase::new(
                self.seed as u64,
                ws.min(1 << 26),
                self.block,
                self.requests,
            )),
            "stencil" => {
                // Square-ish grid sized to roughly the requested op count.
                let cells = (self.requests / 5).max(9);
                let side = ((cells as f64).sqrt() as u64 + 2).max(3);
                Box::new(Stencil::new(side, side, self.block, 1))
            }
            "hotspot" => {
                let geometry = self.geometry.ok_or_else(|| {
                    HmcError::InvalidConfig(
                        "hotspot workload needs a device geometry \
                         (WorkloadSpec::with_geometry)"
                            .into(),
                    )
                })?;
                Box::new(Hotspot::new(
                    self.seed,
                    geometry,
                    self.block,
                    self.hot_quad,
                    self.hot_pct,
                    self.read_pct,
                    self.requests,
                )?)
            }
            "hammer" => {
                let geometry = self.geometry.ok_or_else(|| {
                    HmcError::InvalidConfig(
                        "hammer workload needs a device geometry \
                         (WorkloadSpec::with_geometry)"
                            .into(),
                    )
                })?;
                // Vault 0, bank 0, disturbing the middle row.
                Box::new(Hammer::new(
                    geometry,
                    self.block,
                    0,
                    0,
                    geometry.rows / 2,
                    self.requests,
                )?)
            }
            other => {
                return Err(HmcError::InvalidConfig(format!(
                    "unknown workload {other:?} (expected one of {WORKLOAD_NAMES:?})"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_builds() {
        let geometry = hmc_types::DeviceConfig::small().geometry();
        for name in WORKLOAD_NAMES {
            let w = WorkloadSpec::new(name, 1, 1 << 24, 100)
                .with_geometry(geometry)
                .build();
            assert!(w.is_ok(), "{name}");
        }
        assert!(WorkloadSpec::new("bogus", 1, 1 << 24, 100).build().is_err());
    }

    #[test]
    fn hotspot_needs_a_geometry() {
        let bare = WorkloadSpec::new("hotspot", 1, 1 << 24, 100).build();
        assert!(bare.is_err(), "hotspot without geometry must be rejected");
        let geometry = hmc_types::DeviceConfig::small().geometry();
        let mut w = WorkloadSpec::new("hotspot", 1, 1 << 24, 100)
            .with_geometry(geometry)
            .with_hotspot(1, 95)
            .build()
            .unwrap();
        assert_eq!(w.name(), "hotspot");
        assert!(w.next_op().is_some());
    }

    #[test]
    fn identical_specs_build_identical_streams() {
        let spec = WorkloadSpec::new("random", 42, 1 << 24, 500).with_read_pct(30);
        let mut a = spec.build().unwrap();
        let mut b = spec.clone().build().unwrap();
        for i in 0..500 {
            assert_eq!(a.next_op(), b.next_op(), "op {i}");
        }
        assert_eq!(a.next_op(), None);
    }

    #[test]
    fn out_of_range_read_pct_is_rejected() {
        assert!(WorkloadSpec::new("random", 1, 1 << 20, 10)
            .with_read_pct(101)
            .build()
            .is_err());
    }

    #[test]
    fn tiny_working_sets_are_clamped_to_one_block() {
        let mut w = WorkloadSpec::new("random", 1, 1, 10).build().unwrap();
        assert!(w.next_op().is_some());
    }
}
