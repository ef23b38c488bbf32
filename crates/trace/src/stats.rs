//! Event statistics: per-kind counters and per-vault utilization tallies.

use serde::Serialize;

use crate::event::{EventKind, TraceEvent};
use hmc_types::VaultId;

/// Dense per-kind event counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct EventCounters {
    counts: Vec<u64>,
}

impl Default for EventCounters {
    fn default() -> Self {
        EventCounters {
            counts: vec![0; EventKind::ALL.len()],
        }
    }
}

impl EventCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment the counter for `kind`.
    pub fn count(&mut self, kind: EventKind) {
        self.counts[kind.index()] += 1;
    }

    /// Current count for `kind`.
    pub fn get(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Sum over all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterate `(kind, count)` pairs with nonzero counts.
    pub fn nonzero(&self) -> impl Iterator<Item = (EventKind, u64)> + '_ {
        EventKind::ALL
            .iter()
            .map(|&k| (k, self.get(k)))
            .filter(|&(_, c)| c > 0)
    }

    /// Render a human-readable summary table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (k, c) in self.nonzero() {
            out.push_str(&format!("{:<18} {c}\n", k.label()));
        }
        out
    }
}

/// Per-vault utilization tallies: the quantities Figure 5 plots per vault
/// (bank conflicts, read requests, write requests).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct VaultUtilization {
    /// Bank conflicts recognized per vault.
    pub conflicts: Vec<u64>,
    /// Read requests completed per vault.
    pub reads: Vec<u64>,
    /// Write requests completed per vault.
    pub writes: Vec<u64>,
    /// Atomic requests completed per vault.
    pub atomics: Vec<u64>,
}

impl VaultUtilization {
    /// Tallies for `num_vaults` vaults.
    pub fn new(num_vaults: u16) -> Self {
        let z = vec![0u64; num_vaults as usize];
        VaultUtilization {
            conflicts: z.clone(),
            reads: z.clone(),
            writes: z.clone(),
            atomics: z,
        }
    }

    /// Number of vaults tracked.
    pub fn num_vaults(&self) -> u16 {
        self.conflicts.len() as u16
    }

    /// Update tallies from one event (events without a vault are ignored).
    pub fn observe(&mut self, event: &TraceEvent) {
        let Some(v) = event.vault() else { return };
        let v = v as usize;
        if v >= self.conflicts.len() {
            return;
        }
        match event.kind() {
            EventKind::BankConflict => self.conflicts[v] += 1,
            EventKind::ReadComplete => self.reads[v] += 1,
            EventKind::WriteComplete => self.writes[v] += 1,
            EventKind::AtomicComplete => self.atomics[v] += 1,
            _ => {}
        }
    }

    /// The busiest vault by completed requests, with its count.
    pub fn busiest_vault(&self) -> (VaultId, u64) {
        let mut best = (0u16, 0u64);
        for v in 0..self.num_vaults() as usize {
            let load = self.reads[v] + self.writes[v] + self.atomics[v];
            if load > best.1 {
                best = (v as u16, load);
            }
        }
        best
    }

    /// Coefficient of variation of per-vault load — a balance metric for
    /// the round-robin-injection analysis of §VI.B.
    pub fn load_imbalance(&self) -> f64 {
        let n = self.num_vaults() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let loads: Vec<f64> = (0..self.num_vaults() as usize)
            .map(|v| (self.reads[v] + self.writes[v] + self.atomics[v]) as f64)
            .collect();
        let mean = loads.iter().sum::<f64>() / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = loads.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / n;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_increment_and_total() {
        let mut c = EventCounters::new();
        c.count(EventKind::BankConflict);
        c.count(EventKind::BankConflict);
        c.count(EventKind::ReadComplete);
        assert_eq!(c.get(EventKind::BankConflict), 2);
        assert_eq!(c.get(EventKind::ReadComplete), 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn nonzero_iterates_only_hit_kinds() {
        let mut c = EventCounters::new();
        c.count(EventKind::RouteLatency);
        let hits: Vec<_> = c.nonzero().collect();
        assert_eq!(hits, vec![(EventKind::RouteLatency, 1)]);
    }

    #[test]
    fn summary_renders_labels() {
        let mut c = EventCounters::new();
        c.count(EventKind::XbarRqstStall);
        assert!(c.summary().contains("XBAR_RQST_STALL"));
    }

    #[test]
    fn vault_utilization_tracks_per_vault() {
        let mut u = VaultUtilization::new(4);
        u.observe(&TraceEvent::ReadComplete {
            cube: 0,
            vault: 2,
            bank: 0,
            bytes: 64,
            tag: 0,
        });
        u.observe(&TraceEvent::WriteComplete {
            cube: 0,
            vault: 2,
            bank: 0,
            bytes: 64,
            tag: 1,
        });
        u.observe(&TraceEvent::BankConflict {
            cube: 0,
            vault: 3,
            bank: 1,
            addr: 0,
            tag: 2,
        });
        assert_eq!(u.reads[2], 1);
        assert_eq!(u.writes[2], 1);
        assert_eq!(u.conflicts[3], 1);
        assert_eq!(u.busiest_vault(), (2, 2));
    }

    #[test]
    fn vault_utilization_ignores_vaultless_events() {
        let mut u = VaultUtilization::new(2);
        u.observe(&TraceEvent::TokenReturn {
            cube: 0,
            link: 0,
            tokens: 1,
        });
        assert_eq!(u.reads.iter().sum::<u64>(), 0);
    }

    #[test]
    fn imbalance_is_zero_for_uniform_load() {
        let mut u = VaultUtilization::new(4);
        for v in 0..4 {
            u.observe(&TraceEvent::ReadComplete {
                cube: 0,
                vault: v,
                bank: 0,
                bytes: 64,
                tag: 0,
            });
        }
        assert!(u.load_imbalance().abs() < 1e-12);
    }

    #[test]
    fn imbalance_detects_skew() {
        let mut u = VaultUtilization::new(4);
        for _ in 0..100 {
            u.observe(&TraceEvent::ReadComplete {
                cube: 0,
                vault: 0,
                bank: 0,
                bytes: 64,
                tag: 0,
            });
        }
        assert!(u.load_imbalance() > 1.0);
    }
}
