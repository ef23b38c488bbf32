//! Shared experiment setup.

use hmc_core::{topology, HmcSim, SimParams};
use hmc_host::Host;
use hmc_trace::{TraceSink, Tracer, Verbosity};
use hmc_types::{DeviceConfig, StorageMode};
use hmc_workloads::{RandomAccess, PAPER_REQUESTS};

/// Options for building a paper-style single-device experiment.
#[derive(Debug, Clone, Copy)]
pub struct SetupOptions {
    /// Trace verbosity installed on the simulation.
    pub verbosity: Verbosity,
    /// Storage mode (Table I runs use timing-only).
    pub storage: StorageMode,
    /// Every simulation axis — the value the shared flag parser
    /// produces (`Args::params_over`).
    pub params: SimParams,
}

impl Default for SetupOptions {
    fn default() -> Self {
        SetupOptions {
            verbosity: Verbosity::Off,
            storage: StorageMode::TimingOnly,
            params: SimParams::default(),
        }
    }
}

/// Build the paper's single-device experiment: one device of `config`,
/// all links to one host (the "simple" topology), with an optional sink.
pub fn paper_setup(
    config: DeviceConfig,
    opts: SetupOptions,
    sink: Option<Box<dyn TraceSink>>,
) -> (HmcSim, Host) {
    let config = config.with_storage_mode(opts.storage);
    let mut sim = HmcSim::new(1, config)
        .expect("paper configs validate")
        .with_params(opts.params);
    let host_id = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host_id).expect("simple topology");
    if let Some(sink) = sink {
        sim.set_tracer(Tracer::new(opts.verbosity, sink));
    }
    let host = Host::attach(&sim, host_id).expect("host links wired");
    (sim, host)
}

/// Request count for a `1/scale` Table I run (`scale == 1` is the paper's
/// full 33,554,432 requests).
pub fn scaled_requests(scale: u64) -> u64 {
    (PAPER_REQUESTS / scale.max(1)).max(1)
}

/// The paper's random-access workload at a given scale, seeded.
pub fn paper_workload(seed: u32, scale: u64) -> RandomAccess {
    RandomAccess::paper_scaled(seed, scale.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_builds_all_four_paper_configs() {
        for (label, cfg) in DeviceConfig::paper_configs() {
            let (sim, host) = paper_setup(cfg.clone(), SetupOptions::default(), None);
            assert_eq!(sim.num_devices(), 1, "{label}");
            assert_eq!(host.ports().len(), cfg.num_links as usize, "{label}");
            assert_eq!(sim.config().storage_mode, StorageMode::TimingOnly);
        }
    }

    #[test]
    fn scaling_arithmetic() {
        assert_eq!(scaled_requests(1), 33_554_432);
        assert_eq!(scaled_requests(16), 2_097_152);
        assert_eq!(scaled_requests(0), 33_554_432);
        assert_eq!(scaled_requests(u64::MAX), 1);
    }
}
