//! Bandwidth and transaction-efficiency analysis.
//!
//! "Entire application memory traces can be revisited and analyzed for
//! accuracy, latency characteristics, bandwidth utilization and overall
//! transaction efficiency" (paper §IV.E). This module computes those
//! derived quantities from run counts: how many bytes of user data moved,
//! how many bytes of packet overhead moved with them, what fraction of
//! the available link bandwidth the run achieved, and the user-data
//! share of the wire traffic.

use hmc_types::flit::FLIT_BYTES;
use hmc_types::units::aggregate_bandwidth_gbs;
use hmc_types::{BlockSize, Command, Cycle, LinkSpeed};
use serde::Serialize;

/// Aggregate run-level bandwidth analysis.
#[derive(Debug, Clone, Serialize)]
pub struct BandwidthReport {
    /// User data bytes moved (reads returned + writes submitted).
    pub data_bytes: u64,
    /// Total wire bytes including headers, tails and response packets.
    pub wire_bytes: u64,
    /// User-data share of wire traffic.
    pub efficiency: f64,
    /// Simulated cycles the traffic occupied.
    pub cycles: Cycle,
    /// User data bytes per simulated cycle.
    pub data_bytes_per_cycle: f64,
    /// Achieved user-data bandwidth in GB/s at the given device clock.
    pub achieved_gbs: f64,
    /// The device's aggregate link bandwidth in GB/s.
    pub peak_gbs: f64,
    /// Achieved / peak.
    pub utilization: f64,
}

/// Inputs for a bandwidth analysis: completed operation counts by shape.
#[derive(Debug, Clone, Default)]
pub struct TrafficCounts {
    /// `(block, completed reads)` pairs.
    pub reads: Vec<(BlockSize, u64)>,
    /// `(block, completed writes)` pairs (acknowledged).
    pub writes: Vec<(BlockSize, u64)>,
    /// `(block, completed posted writes)` pairs.
    pub posted_writes: Vec<(BlockSize, u64)>,
    /// Completed atomics (each one FLIT of operand, WR_RS response).
    pub atomics: u64,
}

impl TrafficCounts {
    /// Uniform single-block traffic (the paper's harness shape).
    pub fn uniform(block: BlockSize, reads: u64, writes: u64) -> Self {
        TrafficCounts {
            reads: vec![(block, reads)],
            writes: vec![(block, writes)],
            posted_writes: Vec::new(),
            atomics: 0,
        }
    }

    fn totals(&self) -> (u64, u64) {
        let mut data = 0u64;
        let mut wire = 0u64;
        for &(bs, n) in &self.reads {
            let cmd = Command::Rd(bs);
            data += n * bs.bytes() as u64;
            wire += n * ((cmd.request_flits() + cmd.response_flits()) * FLIT_BYTES) as u64;
        }
        for &(bs, n) in &self.writes {
            let cmd = Command::Wr(bs);
            data += n * bs.bytes() as u64;
            wire += n * ((cmd.request_flits() + cmd.response_flits()) * FLIT_BYTES) as u64;
        }
        for &(bs, n) in &self.posted_writes {
            let cmd = Command::PostedWr(bs);
            data += n * bs.bytes() as u64;
            wire += n * (cmd.request_flits() * FLIT_BYTES) as u64;
        }
        {
            let cmd = Command::Add16;
            data += self.atomics * 16;
            wire += self.atomics
                * ((cmd.request_flits() + cmd.response_flits()) * FLIT_BYTES) as u64;
        }
        (data, wire)
    }
}

/// Analyze a run: traffic counts + simulated cycles + device parameters.
///
/// `device_ghz` is the simulated device clock rate used to project cycle
/// counts onto wall-clock bandwidth (HMC logic-layer clocks sit in the
/// 1–1.25 GHz range; pick the rate your study assumes).
pub fn analyze_bandwidth(
    counts: &TrafficCounts,
    cycles: Cycle,
    num_links: u8,
    lanes_per_link: u8,
    speed: LinkSpeed,
    device_ghz: f64,
) -> BandwidthReport {
    let (data_bytes, wire_bytes) = counts.totals();
    let peak_gbs = aggregate_bandwidth_gbs(num_links, lanes_per_link, speed);
    let data_bytes_per_cycle = if cycles > 0 {
        data_bytes as f64 / cycles as f64
    } else {
        0.0
    };
    let achieved_gbs = data_bytes_per_cycle * device_ghz;
    BandwidthReport {
        data_bytes,
        wire_bytes,
        efficiency: if wire_bytes > 0 {
            data_bytes as f64 / wire_bytes as f64
        } else {
            0.0
        },
        cycles,
        data_bytes_per_cycle,
        achieved_gbs,
        peak_gbs,
        utilization: if peak_gbs > 0.0 {
            achieved_gbs / peak_gbs
        } else {
            0.0
        },
    }
}

/// p50/p95/p99 latency summary, the tail metrics a serving benchmark
/// reports alongside throughput.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct LatencyPercentiles {
    /// Median latency.
    pub p50: u64,
    /// 95th-percentile latency.
    pub p95: u64,
    /// 99th-percentile latency.
    pub p99: u64,
}

impl LatencyPercentiles {
    /// Compute p50/p95/p99 from raw samples (sorted internally).
    pub fn from_samples(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        LatencyPercentiles {
            p50: percentile_sorted(samples, 50.0),
            p95: percentile_sorted(samples, 95.0),
            p99: percentile_sorted(samples, 99.0),
        }
    }
}

/// The `p`-th percentile (nearest-rank method) of an ascending-sorted
/// sample set; 0 for an empty set.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_traffic_accounting() {
        // 100 RD64 + 100 WR64: data = 200*64; wire = 200 * 6 FLITs * 16.
        let counts = TrafficCounts::uniform(BlockSize::B64, 100, 100);
        let report = analyze_bandwidth(&counts, 1_000, 4, 16, LinkSpeed::Gbps10, 1.0);
        assert_eq!(report.data_bytes, 200 * 64);
        assert_eq!(report.wire_bytes, 200 * 6 * 16);
        assert!((report.efficiency - 64.0 / 96.0).abs() < 1e-12);
        assert!((report.data_bytes_per_cycle - 12.8).abs() < 1e-9);
        assert_eq!(report.peak_gbs, 160.0);
        assert!((report.achieved_gbs - 12.8).abs() < 1e-9);
        assert!((report.utilization - 12.8 / 160.0).abs() < 1e-9);
    }

    #[test]
    fn atomics_and_posted_writes_count() {
        let counts = TrafficCounts {
            reads: vec![],
            writes: vec![],
            posted_writes: vec![(BlockSize::B32, 10)],
            atomics: 5,
        };
        let report = analyze_bandwidth(&counts, 100, 4, 16, LinkSpeed::Gbps10, 1.0);
        // Posted WR32: 3 FLITs request only. ADD16: 2-FLIT request +
        // 1-FLIT response.
        assert_eq!(report.data_bytes, 10 * 32 + 5 * 16);
        assert_eq!(report.wire_bytes, 10 * 3 * 16 + 5 * 3 * 16);
    }

    #[test]
    fn zero_cycle_run_degrades_gracefully() {
        let counts = TrafficCounts::uniform(BlockSize::B64, 0, 0);
        let report = analyze_bandwidth(&counts, 0, 4, 16, LinkSpeed::Gbps10, 1.0);
        assert_eq!(report.data_bytes_per_cycle, 0.0);
        assert_eq!(report.utilization, 0.0);
        assert_eq!(report.efficiency, 0.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50);
        assert_eq!(percentile_sorted(&sorted, 95.0), 95);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }

    #[test]
    fn latency_percentiles_sort_their_input() {
        let mut samples = vec![30, 10, 20, 90, 40, 50, 60, 70, 80, 100];
        let p = LatencyPercentiles::from_samples(&mut samples);
        assert_eq!(p.p50, 50);
        assert_eq!(p.p95, 100);
        assert_eq!(p.p99, 100);
    }
}
