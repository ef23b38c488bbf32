//! Device, vault and bank utilization reporting.
//!
//! The paper's evaluations "elicit device, vault and bank utilization
//! trace data from within a theoretical device" (abstract). This module
//! reads the one set of access counters the simulator keeps — each
//! vault's [`VaultStats`], fed by stage 4 from the timing backend's grant
//! — plus resident storage, into one structured report, and sums them
//! into an [`Activity`] summary that feeds the energy model.

use hmc_trace::Activity;
use hmc_types::{CubeId, VaultId};

use crate::sim::HmcSim;
use crate::vault::VaultStats;

/// Utilization of one vault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaultUtilizationReport {
    /// Vault index.
    pub vault: VaultId,
    /// Vault controller counters.
    pub controller: VaultStats,
}

/// `hits / accesses`, 0 when there were no accesses.
fn hit_rate(hits: u64, accesses: u64) -> f64 {
    if accesses == 0 {
        0.0
    } else {
        hits as f64 / accesses as f64
    }
}

/// Utilization of one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceUtilizationReport {
    /// Device cube ID.
    pub cube: CubeId,
    /// Per-vault breakdown.
    pub vaults: Vec<VaultUtilizationReport>,
    /// Host memory resident for this device's banks (functional mode).
    pub resident_bytes: u64,
}

impl DeviceUtilizationReport {
    /// Total operations processed by the device's vaults.
    pub fn total_processed(&self) -> u64 {
        self.vaults.iter().map(|v| v.controller.processed()).sum()
    }

    /// Row-buffer hit rate across the device: hits over processed
    /// operations (0 when none; always 0 under the classic backend,
    /// which models no row buffer).
    pub fn row_hit_rate(&self) -> f64 {
        let hits = self.vaults.iter().map(|v| v.controller.row_hits).sum();
        hit_rate(hits, self.total_processed())
    }

    /// Render a per-vault table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "device {} utilization ({} ops processed, row-hit rate {:.1}%)\n",
            self.cube,
            self.total_processed(),
            self.row_hit_rate() * 100.0
        );
        out.push_str("vault   processed     reads    writes   atomics  row-hit%\n");
        for v in &self.vaults {
            let c = &v.controller;
            out.push_str(&format!(
                "{:>5} {:>11} {:>9} {:>9} {:>9} {:>9.1}\n",
                v.vault,
                c.processed(),
                c.reads,
                c.writes,
                c.atomics,
                hit_rate(c.row_hits, c.processed()) * 100.0
            ));
        }
        out
    }
}

impl HmcSim {
    /// Utilization reports for every device.
    pub fn utilization(&self) -> Vec<DeviceUtilizationReport> {
        self.devices
            .iter()
            .map(|d| DeviceUtilizationReport {
                cube: d.id,
                vaults: d
                    .vaults
                    .iter()
                    .map(|v| VaultUtilizationReport {
                        vault: v.id,
                        controller: v.stats,
                    })
                    .collect(),
                resident_bytes: d.vaults.iter().map(|v| v.mem.resident_bytes()).sum(),
            })
            .collect()
    }

    /// Summarize the whole object's activity for the energy model.
    ///
    /// Wire bytes are derived from per-command FLIT accounting at the
    /// vault level (request + response packets for each processed op) and
    /// are an approximation for multi-hop topologies, which move packets
    /// over several links. Every processed access that was not a row hit
    /// activates a row — the rule the cell-fault hook applies — so under
    /// the classic backend, which models no row buffer, each access pays
    /// one activation.
    pub fn activity(&self) -> Activity {
        let mut wire_bytes = 0u64;
        let mut dram_bytes = 0u64;
        let mut row_activations = 0u64;
        let mut packets = 0u64;
        for d in &self.devices {
            for v in &d.vaults {
                let s = &v.stats;
                // Saturating: a grant that then failed at the bank (an
                // error response) counts its row outcome but is not
                // processed.
                row_activations += s.processed().saturating_sub(s.row_hits);
                // Controller counters give us op classes; approximate
                // bytes with the dominant 64-byte shape when exact block
                // sizes were mixed (the harness reports exact bytes via
                // hmc_trace::TrafficCounts when it tracks them itself).
                dram_bytes += (s.reads + s.writes) * 64 + s.atomics * 16;
                // Request+response packet pairs for non-posted traffic.
                packets += 2 * s.processed();
                wire_bytes +=
                    s.reads * (1 + 5) * 16 + s.writes * (5 + 1) * 16 + s.atomics * (2 + 1) * 16;
            }
        }
        Activity {
            wire_bytes,
            dram_bytes,
            row_activations,
            packets,
            cycles: self.current_clock(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use hmc_trace::{estimate_energy, EnergyModel};
    use hmc_types::{BlockSize, Command, DeviceConfig, Packet};

    fn run_some_traffic() -> HmcSim {
        let mut s = HmcSim::new(1, DeviceConfig::small().with_queue_depths(32, 16)).unwrap();
        let host = s.host_cube_id(0);
        topology::build_simple(&mut s, host).unwrap();
        for i in 0..32u64 {
            let wr = Packet::request(
                Command::Wr(BlockSize::B64),
                0,
                i * 128,
                (i % 512) as u16,
                (i % 4) as u8,
                &[7u8; 64],
            )
            .unwrap();
            s.send(0, (i % 4) as u8, wr).unwrap();
        }
        for _ in 0..16 {
            s.clock().unwrap();
            for l in 0..4 {
                while s.recv(0, l).is_ok() {}
            }
        }
        s
    }

    #[test]
    fn utilization_accounts_for_every_operation() {
        let s = run_some_traffic();
        let reports = s.utilization();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.total_processed(), 32);
        // 32 sequential blocks over 16 vaults: two writes per vault.
        for v in &r.vaults {
            assert_eq!(v.controller.processed(), 2, "vault {}", v.vault);
            assert_eq!(v.controller.writes, 2, "vault {}", v.vault);
        }
        assert_eq!(
            r.resident_bytes,
            32 * 128,
            "functional mode materializes one 128-byte row per block written"
        );
    }

    #[test]
    fn row_hit_rate_is_bounded() {
        let s = run_some_traffic();
        let r = &s.utilization()[0];
        let rate = r.row_hit_rate();
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn render_produces_a_table() {
        let s = run_some_traffic();
        let text = s.utilization()[0].render();
        assert!(text.contains("device 0 utilization"));
        assert!(text.lines().count() >= 2 + 16, "header + 16 vault rows");
    }

    #[test]
    fn activity_feeds_the_energy_model() {
        let s = run_some_traffic();
        let activity = s.activity();
        assert_eq!(activity.packets, 64, "32 requests + 32 responses");
        assert_eq!(activity.dram_bytes, 32 * 64);
        assert!(activity.wire_bytes > activity.dram_bytes);
        assert!(activity.row_activations > 0);
        let energy = estimate_energy(&activity, &EnergyModel::hmc_gen1(), 1.25);
        assert!(energy.total_pj > 0.0);
        assert!(energy.pj_per_bit > 0.0);
    }

    #[test]
    fn fresh_device_reports_zero() {
        let s = HmcSim::new(1, DeviceConfig::small()).unwrap();
        let r = &s.utilization()[0];
        assert_eq!(r.total_processed(), 0);
        assert_eq!(r.row_hit_rate(), 0.0);
        assert_eq!(s.activity().packets, 0);
    }
}
