//! Figure 2 correspondence: the physical HMC structure and the HMC-Sim
//! software structure must mirror each other — links ↔ crossbars ↔ quads,
//! four vaults per quad, banks per vault, DRAMs per bank.

use hmc_sim::hmc_core::{HmcSim, Quad};
use hmc_sim::hmc_types::{DeviceConfig, LinkSpeed};

#[test]
fn four_link_hierarchy_counts_match_figure_2() {
    let cfg = DeviceConfig::paper_4link_8bank_2gb();
    let sim = HmcSim::new(1, cfg.clone()).unwrap();
    let dev = sim.device(0).unwrap();

    assert_eq!(dev.links.len(), 4, "four external links");
    assert_eq!(dev.xbars.len(), 4, "one crossbar unit per link");
    assert_eq!(dev.quads.len(), 4, "one quad per link");
    assert_eq!(dev.vaults.len(), 16, "sixteen vaults (four per quad)");
    for quad in &dev.quads {
        assert_eq!(quad.vaults.len(), 4, "each quad owns four vaults");
    }
    for vault in &dev.vaults {
        assert_eq!(vault.mem.num_banks(), 8, "eight banks per vault");
    }
    // DRAMs per bank is a validated count (`hmcsim_init`'s `num_drams`,
    // §V.A): it sizes nothing, but an illegal one is refused.
    assert_eq!(sim.config().drams_per_bank, 16, "DRAM block per bank");
    let mut bad = cfg;
    bad.drams_per_bank = 3;
    assert!(HmcSim::new(1, bad).is_err());
}

#[test]
fn eight_link_hierarchy_scales() {
    let cfg = DeviceConfig::paper_8link_16bank_8gb();
    let sim = HmcSim::new(1, cfg).unwrap();
    let dev = sim.device(0).unwrap();
    assert_eq!(dev.links.len(), 8);
    assert_eq!(dev.quads.len(), 8);
    assert_eq!(dev.vaults.len(), 32);
    assert_eq!(dev.vaults[0].mem.num_banks(), 16);
}

#[test]
fn links_pair_with_their_closest_quad() {
    // §IV.A: "Each link is physically closest to the respectively
    // numbered quad unit, which contains a block of four vaults."
    let sim = HmcSim::new(1, DeviceConfig::small()).unwrap();
    let dev = sim.device(0).unwrap();
    for (i, link) in dev.links.iter().enumerate() {
        assert_eq!(link.quad as usize, i);
        let quad = &dev.quads[i];
        for v in quad.vaults {
            assert_eq!(Quad::of_vault(v) as usize, i);
        }
    }
}

#[test]
fn quads_partition_the_vaults() {
    let sim = HmcSim::new(1, DeviceConfig::paper_8link_8bank_4gb()).unwrap();
    let dev = sim.device(0).unwrap();
    let mut seen = std::collections::HashSet::new();
    for quad in &dev.quads {
        for v in quad.vaults {
            assert!(seen.insert(v), "vault {v} owned by two quads");
        }
    }
    assert_eq!(seen.len(), dev.vaults.len(), "every vault has an owner");
}

#[test]
fn capacity_distributes_across_the_hierarchy() {
    for (label, cfg) in DeviceConfig::paper_configs() {
        let total: u64 = cfg.num_vaults as u64
            * cfg.banks_per_vault as u64
            * cfg.bank_capacity_bytes();
        assert_eq!(total, cfg.capacity_bytes, "{label}");
    }
}

#[test]
fn bandwidth_limits_follow_the_spec() {
    // §III.A: four-link devices run 10/12.5/15 Gbps; eight-link only 10.
    assert!(LinkSpeed::Gbps15.legal_for_links(4));
    assert!(!LinkSpeed::Gbps15.legal_for_links(8));
    let mut cfg = DeviceConfig::paper_8link_8bank_4gb();
    cfg.link_speed = LinkSpeed::Gbps12_5;
    assert!(HmcSim::new(1, cfg).is_err());
}
