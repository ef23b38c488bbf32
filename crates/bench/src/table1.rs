//! Table I regeneration: simulated runtime in clock cycles across the
//! four paper device configurations.
//!
//! Paper values (33,554,432 64-byte requests, 50/50 read/write):
//!
//! | Device configuration  | Cycles     |
//! |-----------------------|------------|
//! | 4-Link;  8-Bank; 2GB  | 3,404,553  |
//! | 4-Link; 16-Bank; 4GB  | 2,327,858  |
//! | 8-Link;  8-Bank; 4GB  | 1,708,918  |
//! | 8-Link; 16-Bank; 8GB  |   879,183  |
//!
//! with an average 1.7× speedup from doubling banks and 2.319× from
//! doubling links. Absolute cycle counts depend on queueing choices the
//! spec leaves open (§IV req. 3); the reproduction targets the *shape* —
//! ordering and speedup factors.

use hmc_core::SimParams;
use hmc_host::{run_workload_with_progress, RunConfig};
use hmc_types::DeviceConfig;

use crate::harness::{paper_setup, paper_workload, scaled_requests, SetupOptions};

/// Paper Table I cycle counts, in configuration order.
pub const PAPER_CYCLES: [u64; 4] = [3_404_553, 2_327_858, 1_708_918, 879_183];

/// One regenerated Table I row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Configuration label, paper spelling.
    pub label: &'static str,
    /// Measured simulated runtime in clock cycles.
    pub cycles: u64,
    /// Requests injected.
    pub requests: u64,
    /// Requests per cycle.
    pub throughput: f64,
    /// The paper's cycle count for this configuration (full scale).
    pub paper_cycles: u64,
    /// Protocol invariant violations observed during the run (always 0
    /// unless the run was made with the invariant checker armed).
    pub invariant_violations: u64,
}

/// Run the Table I experiment at `1/scale` of the paper's request count
/// under `params`. Cycle counts are bit-identical across engine
/// modes; with `params.check_invariants` set the violations
/// found are reported per row in [`Table1Row::invariant_violations`].
///
/// `progress` is invoked as `(config_index, cycles_elapsed)` during runs.
pub fn run_table1<F: FnMut(usize, u64)>(
    scale: u64,
    seed: u32,
    params: SimParams,
    mut progress: F,
) -> Vec<Table1Row> {
    let opts = SetupOptions {
        params,
        ..SetupOptions::default()
    };
    let requests = scaled_requests(scale);
    DeviceConfig::paper_configs()
        .into_iter()
        .enumerate()
        .map(|(i, (label, cfg))| {
            let (mut sim, mut host) = paper_setup(cfg, opts, None);
            let mut workload = paper_workload(seed, scale);
            let report = run_workload_with_progress(
                &mut sim,
                &mut host,
                &mut workload,
                RunConfig {
                    progress_every: 65_536,
                    ..RunConfig::default()
                },
                |cycles, _| progress(i, cycles),
            )
            .expect("table1 run completes");
            Table1Row {
                label,
                cycles: report.cycles,
                requests,
                throughput: report.throughput,
                paper_cycles: PAPER_CYCLES[i],
                invariant_violations: report.invariant_violations,
            }
        })
        .collect()
}

/// Speedup summary over Table I rows: `(bank_speedups, link_speedups)` —
/// the two averages the paper reports (1.7× banks, 2.319× links).
pub fn table1_speedups(rows: &[Table1Row]) -> (f64, f64) {
    assert_eq!(rows.len(), 4, "expects the four paper configurations");
    let c = |i: usize| rows[i].cycles as f64;
    // Banks: 4L8B → 4L16B and 8L8B → 8L16B.
    let banks = (c(0) / c(1) + c(2) / c(3)) / 2.0;
    // Links: 4L8B → 8L8B and 4L16B → 8L16B.
    let links = (c(0) / c(2) + c(1) / c(3)) / 2.0;
    (banks, links)
}

/// Render the table in the paper's format, with paper-reference columns.
pub fn format_table(rows: &[Table1Row], scale: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "TABLE I. SIMULATION RUNTIME IN CLOCK CYCLES \
         ({} requests = 1/{} of paper scale)\n\n",
        rows.first().map(|r| r.requests).unwrap_or(0),
        scale.max(1)
    ));
    out.push_str(&format!(
        "{:<24} {:>14} {:>12} {:>16}\n",
        "Device Configuration", "Cycles", "Req/Cycle", "Paper (full)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:>14} {:>12.3} {:>16}\n",
            r.label, r.cycles, r.throughput, r.paper_cycles
        ));
    }
    if rows.len() == 4 {
        let (banks, links) = table1_speedups(rows);
        out.push_str(&format!(
            "\nAvg speedup, 2x banks: {banks:.3}x (paper: 1.700x)\n\
             Avg speedup, 2x links: {links:.3}x (paper: 2.319x)\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_arithmetic_matches_paper_on_paper_numbers() {
        let rows: Vec<Table1Row> = DeviceConfig::paper_configs()
            .into_iter()
            .zip(PAPER_CYCLES)
            .map(|((label, _), cycles)| Table1Row {
                label,
                cycles,
                requests: 33_554_432,
                throughput: 0.0,
                paper_cycles: cycles,
                invariant_violations: 0,
            })
            .collect();
        let (banks, links) = table1_speedups(&rows);
        assert!((banks - 1.703).abs() < 0.01, "banks speedup {banks}");
        assert!((links - 2.320).abs() < 0.01, "links speedup {links}");
    }

    #[test]
    fn tiny_scale_run_produces_ordered_rows() {
        // 1/8192 scale: 4096 requests per config — fast enough for tests.
        let rows = run_table1(8192, 1, SimParams::default(), |_, _| {});
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.cycles > 0, "{}: zero cycles", r.label);
            assert_eq!(r.requests, 4096);
        }
        let table = format_table(&rows, 8192);
        assert!(table.contains("4-Link; 8-Bank; 2GB"));
        assert!(table.contains("Avg speedup"));
    }

    #[test]
    fn fast_forward_rows_are_cycle_identical_to_stepped() {
        let stepped = run_table1(8192, 1, SimParams::default(), |_, _| {});
        let params = SimParams {
            fast_forward: true,
            ..SimParams::default()
        };
        let fast = run_table1(8192, 1, params, |_, _| {});
        for (s, f) in stepped.iter().zip(&fast) {
            assert_eq!(s.cycles, f.cycles, "{}: fast-forward perturbed timing", s.label);
            assert_eq!(s.requests, f.requests);
        }
    }

    #[test]
    fn checked_run_is_clean_and_cycle_identical_to_unchecked() {
        // The invariant checker must neither fire on a clean run nor
        // perturb simulated time (it only observes).
        let plain = run_table1(8192, 1, SimParams::default(), |_, _| {});
        let params = SimParams {
            check_invariants: true,
            ..SimParams::default()
        };
        let checked = run_table1(8192, 1, params, |_, _| {});
        for (p, c) in plain.iter().zip(&checked) {
            assert_eq!(c.invariant_violations, 0, "{}: violations", c.label);
            assert_eq!(p.cycles, c.cycles, "{}: checker perturbed timing", c.label);
        }
    }
}
