//! Device configuration: the flexible geometry knobs of the HMC spec.
//!
//! The specification "permits the flexible interpretation and implementation
//! of the target device … with respect to capacity, bandwidth, connectivity
//! and internal logic block functionality" (paper §I). HMC-Sim mirrors this
//! with an initialization call taking the device count, link count, vault
//! count, queue depths, bank/DRAM counts and capacity (paper Fig. 4).
//!
//! [`DeviceConfig`] captures one device's geometry; a simulation object
//! requires all devices to be physically homogeneous (§V.A), so one config
//! serves the whole object. The four device configurations evaluated in the
//! paper's §VI are provided as presets.

use serde::{Deserialize, Serialize};

use crate::address::{LowInterleaveMap, MapGeometry};
use crate::cellfault::CellFaultConfig;
use crate::command::BlockSize;
use crate::error::{HmcError, Result};
use crate::interconnect::{ArbitrationKind, InterconnectKind};
use crate::linkfault::LinkFaultConfig;
use crate::timing::TimingKind;
use crate::units::{aggregate_bandwidth_gbs, LinkSpeed, GIB};

/// Whether banks store actual data or only model timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StorageMode {
    /// Reads and writes move real bytes through sparse backing rows.
    Functional,
    /// Data movement is skipped; only timing/trace behaviour is modeled.
    /// Reads return zero-filled payloads. Used for the Table I runs, which
    /// measure cycles over 33.5M requests.
    TimingOnly,
}

/// Number of vaults attached to each quad unit (fixed by the spec: "Each
/// quad unit represents four vault units", paper §III.A).
pub const VAULTS_PER_QUAD: u16 = 4;

/// Deepest crossbar or vault queue a configuration may ask for. Every
/// queue reserves its slots when the device is built, so an unbounded
/// depth from a config file or a wire frame is an unbounded allocation.
/// `u16::MAX` is the range the fabric's own buffers already have
/// (`NocParams::buffer_depth`), keeps a link's token pool
/// (`xbar_depth × MAX_PACKET_FLITS`) far inside `u32`, and is 128× the
/// deepest queue any sweep in this repo builds.
pub const MAX_QUEUE_DEPTH: usize = u16::MAX as usize;

/// Most DRAM dies a bank may stack. The count sizes nothing — it is the
/// validated geometry of `hmcsim_init`'s `num_drams` — but the bound
/// stays so `DeviceConfig::validate` accepts exactly what it always has;
/// it is the same ceiling as [`MAX_BANKS_PER_VAULT`].
pub const MAX_DRAMS_PER_BANK: u16 = 64;

/// Most banks a vault may have: the vault scheduler keeps its per-cycle
/// bank sets (banks issued, latched, seen in a conflict scan) as one
/// `u64` bit per bank.
pub const MAX_BANKS_PER_VAULT: u16 = 64;

/// Geometry and queue configuration of a single HMC device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// External links: 4 or 8 (§III.A).
    pub num_links: u8,
    /// Vaults: must equal `4 × num_links` (one quad of four vaults per link).
    pub num_vaults: u16,
    /// Banks per vault: a power of two (8 or 16 in the paper's evaluation).
    pub banks_per_vault: u16,
    /// DRAM dies per bank (data-path width modelling; 16 by default).
    pub drams_per_bank: u16,
    /// Total device capacity in bytes; must be a power of two consistent
    /// with the vault/bank geometry.
    pub capacity_bytes: u64,
    /// Crossbar (link) queue depth in slots — 128 in the paper's tests.
    pub xbar_depth: usize,
    /// Vault queue depth in slots — 64 in the paper's tests.
    pub vault_depth: usize,
    /// SERDES lane rate.
    pub link_speed: LinkSpeed,
    /// SERDES lanes per link: 16 (full-width, 4-link) or 8 (8-link).
    pub lanes_per_link: u8,
    /// Maximum block request size; sets the address map's offset field.
    pub block_size: BlockSize,
    /// Functional or timing-only data storage.
    pub storage_mode: StorageMode,
    /// Vault timing backend the simulation starts with (selectable later
    /// through `SimParams`; absent from older config files, defaulting to
    /// the paper's constant-time model).
    #[serde(default)]
    pub timing: TimingKind,
    /// Intra-cube interconnect fabric the simulation starts with
    /// (selectable later through `SimParams`; absent from older config
    /// files, defaulting to the paper's idealized full crossbar).
    #[serde(default)]
    pub interconnect: InterconnectKind,
    /// NoC arbitration policy (used by the ring and mesh fabrics; absent
    /// from older config files, defaulting to round-robin).
    #[serde(default)]
    pub arbitration: ArbitrationKind,
    /// Cell-level fault injection (RowHammer + retention decay). `None`
    /// — the default, and what older config files deserialize to —
    /// leaves the DRAM array perfect and the fault path compiled out of
    /// the hot loop.
    #[serde(default)]
    pub cell_faults: Option<CellFaultConfig>,
    /// Link-level fault injection (SERDES transit errors driving the
    /// link-retry protocol). `None` — the default, and what older
    /// config files deserialize to — leaves the links perfect and the
    /// retry path compiled out of the hot loop.
    #[serde(default)]
    pub link_faults: Option<LinkFaultConfig>,
}

impl DeviceConfig {
    /// A small configuration handy for tests and examples: 4 links,
    /// 16 vaults, 8 banks, 2 GiB, shallow queues.
    pub fn small() -> Self {
        DeviceConfig {
            num_links: 4,
            num_vaults: 16,
            banks_per_vault: 8,
            drams_per_bank: 16,
            capacity_bytes: 2 * GIB,
            xbar_depth: 8,
            vault_depth: 4,
            link_speed: LinkSpeed::Gbps10,
            lanes_per_link: 16,
            block_size: BlockSize::B128,
            storage_mode: StorageMode::Functional,
            timing: TimingKind::Classic,
            interconnect: InterconnectKind::Crossbar,
            arbitration: ArbitrationKind::RoundRobin,
            cell_faults: None,
            link_faults: None,
        }
    }

    /// Paper §VI device 1: 4-link, 8 banks/vault, 2 GB.
    pub fn paper_4link_8bank_2gb() -> Self {
        DeviceConfig {
            num_links: 4,
            num_vaults: 16,
            banks_per_vault: 8,
            drams_per_bank: 16,
            capacity_bytes: 2 * GIB,
            xbar_depth: 128,
            vault_depth: 64,
            link_speed: LinkSpeed::Gbps10,
            lanes_per_link: 16,
            block_size: BlockSize::B128,
            storage_mode: StorageMode::Functional,
            timing: TimingKind::Classic,
            interconnect: InterconnectKind::Crossbar,
            arbitration: ArbitrationKind::RoundRobin,
            cell_faults: None,
            link_faults: None,
        }
    }

    /// Paper §VI device 2: 4-link, 16 banks/vault, 4 GB.
    pub fn paper_4link_16bank_4gb() -> Self {
        DeviceConfig {
            banks_per_vault: 16,
            capacity_bytes: 4 * GIB,
            ..Self::paper_4link_8bank_2gb()
        }
    }

    /// Paper §VI device 3: 8-link, 8 banks/vault, 4 GB.
    pub fn paper_8link_8bank_4gb() -> Self {
        DeviceConfig {
            num_links: 8,
            num_vaults: 32,
            capacity_bytes: 4 * GIB,
            lanes_per_link: 8,
            ..Self::paper_4link_8bank_2gb()
        }
    }

    /// Paper §VI device 4: 8-link, 16 banks/vault, 8 GB.
    pub fn paper_8link_16bank_8gb() -> Self {
        DeviceConfig {
            num_links: 8,
            num_vaults: 32,
            banks_per_vault: 16,
            capacity_bytes: 8 * GIB,
            lanes_per_link: 8,
            ..Self::paper_4link_8bank_2gb()
        }
    }

    /// All four paper configurations in Table I order, with their labels.
    pub fn paper_configs() -> [(&'static str, DeviceConfig); 4] {
        [
            ("4-Link; 8-Bank; 2GB", Self::paper_4link_8bank_2gb()),
            ("4-Link; 16-Bank; 4GB", Self::paper_4link_16bank_4gb()),
            ("8-Link; 8-Bank; 4GB", Self::paper_8link_8bank_4gb()),
            ("8-Link; 16-Bank; 8GB", Self::paper_8link_16bank_8gb()),
        ]
    }

    /// Look up a preset by its short CLI/service name (`4l8b`, `4l16b`,
    /// `8l8b`, `8l16b`, `small`). Returns `None` for unknown names.
    pub fn by_name(name: &str) -> Option<DeviceConfig> {
        match name {
            "4l8b" => Some(Self::paper_4link_8bank_2gb()),
            "4l16b" => Some(Self::paper_4link_16bank_4gb()),
            "8l8b" => Some(Self::paper_8link_8bank_4gb()),
            "8l16b" => Some(Self::paper_8link_16bank_8gb()),
            "small" => Some(Self::small()),
            _ => None,
        }
    }

    // ------------------------------------------------------------- builders

    /// Replace the storage mode (builder style).
    pub fn with_storage_mode(mut self, mode: StorageMode) -> Self {
        self.storage_mode = mode;
        self
    }

    /// Replace both queue depths (builder style).
    pub fn with_queue_depths(mut self, xbar: usize, vault: usize) -> Self {
        self.xbar_depth = xbar;
        self.vault_depth = vault;
        self
    }

    /// Replace the block (maximum request) size (builder style).
    pub fn with_block_size(mut self, block: BlockSize) -> Self {
        self.block_size = block;
        self
    }

    /// Replace the vault timing backend (builder style).
    pub fn with_timing(mut self, timing: TimingKind) -> Self {
        self.timing = timing;
        self
    }

    /// Replace the intra-cube interconnect fabric (builder style).
    pub fn with_interconnect(mut self, interconnect: InterconnectKind) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Replace the NoC arbitration policy (builder style).
    pub fn with_arbitration(mut self, arbitration: ArbitrationKind) -> Self {
        self.arbitration = arbitration;
        self
    }

    /// Install (or clear) cell-level fault injection (builder style).
    pub fn with_cell_faults(mut self, faults: Option<CellFaultConfig>) -> Self {
        self.cell_faults = faults;
        self
    }

    /// Install (or clear) link-level fault injection (builder style).
    pub fn with_link_faults(mut self, faults: Option<LinkFaultConfig>) -> Self {
        self.link_faults = faults;
        self
    }

    // ------------------------------------------------------------- derived

    /// Quad units on the device: one per link (§III.A).
    pub fn num_quads(&self) -> u8 {
        self.num_links
    }

    /// Capacity of a single bank in bytes.
    pub fn bank_capacity_bytes(&self) -> u64 {
        self.capacity_bytes / (self.num_vaults as u64 * self.banks_per_vault as u64)
    }

    /// Rows (blocks of `block_size` bytes) per bank.
    pub fn rows_per_bank(&self) -> u64 {
        self.bank_capacity_bytes() / self.block_size.bytes() as u64
    }

    /// Address-map geometry implied by this configuration.
    pub fn geometry(&self) -> MapGeometry {
        MapGeometry {
            block_bytes: self.block_size.bytes() as u32,
            vaults: self.num_vaults,
            banks: self.banks_per_vault,
            rows: self.rows_per_bank(),
        }
    }

    /// The specification's default low-interleave address map for this
    /// geometry (§III.B).
    pub fn default_map(&self) -> Result<LowInterleaveMap> {
        LowInterleaveMap::new(self.geometry())
    }

    /// Aggregate bidirectional link bandwidth in GB/s.
    pub fn aggregate_bandwidth_gbs(&self) -> f64 {
        aggregate_bandwidth_gbs(self.num_links, self.lanes_per_link, self.link_speed)
    }

    /// Number of address bits in use: 4-link devices use the lower 32 bits
    /// of the 34-bit field, 8-link devices the lower 33 (§III.B).
    pub fn address_bits_in_use(&self) -> u32 {
        match self.num_links {
            4 => 32,
            8 => 33,
            _ => 34,
        }
    }

    // ----------------------------------------------------------- validation

    /// Validate the whole configuration. Called by the simulator at init.
    pub fn validate(&self) -> Result<()> {
        if self.num_links != 4 && self.num_links != 8 {
            return Err(HmcError::InvalidConfig(format!(
                "num_links must be 4 or 8, got {}",
                self.num_links
            )));
        }
        if self.num_vaults != VAULTS_PER_QUAD * self.num_links as u16 {
            return Err(HmcError::InvalidConfig(format!(
                "num_vaults must be 4 per link ({} for {} links), got {}",
                VAULTS_PER_QUAD * self.num_links as u16,
                self.num_links,
                self.num_vaults
            )));
        }
        if !self.banks_per_vault.is_power_of_two()
            || !(2..=MAX_BANKS_PER_VAULT).contains(&self.banks_per_vault)
        {
            return Err(HmcError::InvalidConfig(format!(
                "banks_per_vault must be a power of two in 2..={MAX_BANKS_PER_VAULT}, got {}",
                self.banks_per_vault
            )));
        }
        if !self.drams_per_bank.is_power_of_two() || self.drams_per_bank > MAX_DRAMS_PER_BANK {
            return Err(HmcError::InvalidConfig(format!(
                "drams_per_bank must be a power of two no greater than \
                 {MAX_DRAMS_PER_BANK}, got {}",
                self.drams_per_bank
            )));
        }
        if !self.capacity_bytes.is_power_of_two() {
            return Err(HmcError::InvalidConfig(format!(
                "capacity must be a power of two, got {} bytes",
                self.capacity_bytes
            )));
        }
        let denom = self.num_vaults as u64
            * self.banks_per_vault as u64
            * self.block_size.bytes() as u64;
        if !self.capacity_bytes.is_multiple_of(denom) || self.capacity_bytes / denom == 0 {
            return Err(HmcError::InvalidConfig(format!(
                "capacity {} is not divisible into {} vaults x {} banks x {}-byte blocks",
                self.capacity_bytes,
                self.num_vaults,
                self.banks_per_vault,
                self.block_size.bytes()
            )));
        }
        for (field, depth) in [
            ("xbar_depth", self.xbar_depth),
            ("vault_depth", self.vault_depth),
        ] {
            // §IV.A: "There must exist at least one queue slot for each
            // logical queue representation."
            if !(1..=MAX_QUEUE_DEPTH).contains(&depth) {
                return Err(HmcError::InvalidConfig(format!(
                    "{field} must be 1..={MAX_QUEUE_DEPTH} slots, got {depth}"
                )));
            }
        }
        if !self.link_speed.legal_for_links(self.num_links) {
            return Err(HmcError::InvalidConfig(format!(
                "{:?} is not a legal lane rate for {}-link devices",
                self.link_speed, self.num_links
            )));
        }
        let legal_lanes = match self.num_links {
            4 => 16,
            _ => 8,
        };
        if self.lanes_per_link != legal_lanes {
            return Err(HmcError::InvalidConfig(format!(
                "{}-link devices use {} lanes per link, got {}",
                self.num_links, legal_lanes, self.lanes_per_link
            )));
        }
        if let Some(faults) = &self.cell_faults {
            faults.validate()?;
        }
        if let Some(faults) = &self.link_faults {
            faults.validate()?;
        }
        self.geometry().validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_validate() {
        for (label, cfg) in DeviceConfig::paper_configs() {
            cfg.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
        }
        DeviceConfig::small().validate().unwrap();
    }

    #[test]
    fn paper_presets_match_table_one_geometry() {
        let (l1, c1) = &DeviceConfig::paper_configs()[0];
        assert_eq!(*l1, "4-Link; 8-Bank; 2GB");
        assert_eq!(c1.num_links, 4);
        assert_eq!(c1.banks_per_vault, 8);
        assert_eq!(c1.capacity_bytes, 2 * GIB);
        assert_eq!(c1.num_vaults, 16);

        let (_, c4) = &DeviceConfig::paper_configs()[3];
        assert_eq!(c4.num_links, 8);
        assert_eq!(c4.banks_per_vault, 16);
        assert_eq!(c4.capacity_bytes, 8 * GIB);
        assert_eq!(c4.num_vaults, 32);

        // Paper §VI.A: 128 crossbar slots per link, 64 vault slots.
        for (_, c) in DeviceConfig::paper_configs() {
            assert_eq!(c.xbar_depth, 128);
            assert_eq!(c.vault_depth, 64);
        }
    }

    #[test]
    fn quads_track_links() {
        assert_eq!(DeviceConfig::paper_4link_8bank_2gb().num_quads(), 4);
        assert_eq!(DeviceConfig::paper_8link_8bank_4gb().num_quads(), 8);
    }

    #[test]
    fn bank_capacity_accounting() {
        let c = DeviceConfig::paper_4link_8bank_2gb();
        // 2 GiB over 16 vaults x 8 banks = 16 MiB banks.
        assert_eq!(c.bank_capacity_bytes(), 16 << 20);
        assert_eq!(c.rows_per_bank(), (16 << 20) / 128);
        assert_eq!(c.geometry().capacity_bytes(), c.capacity_bytes);
    }

    #[test]
    fn invalid_link_count_rejected() {
        let mut c = DeviceConfig::small();
        c.num_links = 6;
        assert!(c.validate().is_err());
    }

    #[test]
    fn vault_count_must_be_four_per_link() {
        let mut c = DeviceConfig::small();
        c.num_vaults = 8;
        assert!(c.validate().is_err());
        c.num_vaults = 16;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn queue_depths_require_at_least_one_slot() {
        let mut c = DeviceConfig::small();
        c.xbar_depth = 0;
        assert!(c.validate().is_err());
        let mut c = DeviceConfig::small();
        c.vault_depth = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn allocation_sizing_fields_are_bounded_by_name() {
        type Set = fn(&mut DeviceConfig, usize);
        let fields: [(&str, usize, Set); 4] = [
            ("xbar_depth", MAX_QUEUE_DEPTH, |c, v| c.xbar_depth = v),
            ("vault_depth", MAX_QUEUE_DEPTH, |c, v| c.vault_depth = v),
            ("drams_per_bank", MAX_DRAMS_PER_BANK as usize, |c, v| {
                c.drams_per_bank = v as u16
            }),
            ("banks_per_vault", MAX_BANKS_PER_VAULT as usize, |c, v| {
                c.banks_per_vault = v as u16
            }),
        ];
        for (field, bound, set) in fields {
            let mut c = DeviceConfig::small();
            set(&mut c, bound);
            c.validate()
                .unwrap_or_else(|e| panic!("{field} at its bound: {e}"));
            // One past the bound pins the edge; twice the bound is a power
            // of two, so for the fields that must be one only the bound
            // itself can refuse it.
            for past in [bound + 1, 2 * bound] {
                set(&mut c, past);
                match c.validate() {
                    Err(HmcError::InvalidConfig(msg)) => assert!(
                        msg.contains(field) && msg.contains(&bound.to_string()),
                        "{field} past its bound must name the field and the limit: {msg}"
                    ),
                    other => panic!("{field} = {past}: {other:?}"),
                }
            }
        }
        // The token pool of the deepest legal crossbar queue fits `u32`.
        assert!(u32::try_from(MAX_QUEUE_DEPTH * crate::MAX_PACKET_FLITS).is_ok());
    }

    #[test]
    fn eight_link_speed_restriction_enforced() {
        let mut c = DeviceConfig::paper_8link_8bank_4gb();
        c.link_speed = LinkSpeed::Gbps15;
        assert!(c.validate().is_err());
    }

    #[test]
    fn lane_width_enforced() {
        let mut c = DeviceConfig::paper_4link_8bank_2gb();
        c.lanes_per_link = 8;
        assert!(c.validate().is_err());
        let mut c = DeviceConfig::paper_8link_8bank_4gb();
        c.lanes_per_link = 16;
        assert!(c.validate().is_err());
    }

    #[test]
    fn non_power_of_two_capacity_rejected() {
        let mut c = DeviceConfig::small();
        c.capacity_bytes = 3 * GIB;
        assert!(c.validate().is_err());
    }

    #[test]
    fn address_bits_follow_link_count() {
        // §III.B: 4-link devices use the lower 32 bits, 8-link the lower 33.
        assert_eq!(
            DeviceConfig::paper_4link_8bank_2gb().address_bits_in_use(),
            32
        );
        assert_eq!(
            DeviceConfig::paper_8link_16bank_8gb().address_bits_in_use(),
            33
        );
    }

    #[test]
    fn default_map_interleaves_vaults_first() {
        use crate::address::{AddressMap, PhysAddr};
        let c = DeviceConfig::small();
        let m = c.default_map().unwrap();
        let block = c.block_size.bytes() as u64;
        let d0 = m.decode(PhysAddr::new(0).unwrap()).unwrap();
        let d1 = m.decode(PhysAddr::new(block).unwrap()).unwrap();
        assert_eq!(d0.vault + 1, d1.vault);
    }

    #[test]
    fn builder_helpers_compose() {
        let c = DeviceConfig::small()
            .with_storage_mode(StorageMode::TimingOnly)
            .with_queue_depths(32, 16)
            .with_block_size(BlockSize::B64);
        assert_eq!(c.storage_mode, StorageMode::TimingOnly);
        assert_eq!(c.xbar_depth, 32);
        assert_eq!(c.vault_depth, 16);
        assert_eq!(c.block_size, BlockSize::B64);
        c.validate().unwrap();
    }

    #[test]
    fn paper_bandwidths_are_plausible() {
        let c4 = DeviceConfig::paper_4link_8bank_2gb();
        assert_eq!(c4.aggregate_bandwidth_gbs(), 160.0);
        let c8 = DeviceConfig::paper_8link_8bank_4gb();
        assert_eq!(c8.aggregate_bandwidth_gbs(), 160.0);
    }

    #[test]
    fn config_serializes_roundtrip() {
        let c = DeviceConfig::paper_8link_16bank_8gb();
        let json = serde_json::to_string(&c).unwrap();
        let back: DeviceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn timing_field_defaults_for_older_config_files() {
        // Config JSON written before the timing backend existed must
        // still load, defaulting to the paper's classic model.
        let c = DeviceConfig::small();
        let json = serde_json::to_string(&c).unwrap();
        let stripped = json.replace(",\"timing\":\"Classic\"", "");
        assert_ne!(json, stripped, "timing field must serialize");
        let back: DeviceConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.timing, TimingKind::Classic);
        let ddr = c.with_timing(TimingKind::Ddr);
        assert_eq!(ddr.timing, TimingKind::Ddr);
        ddr.validate().unwrap();
    }

    #[test]
    fn cell_fault_field_defaults_for_older_config_files() {
        // Config JSON written before the cell-fault subsystem existed
        // must still load, defaulting to a perfect DRAM array.
        let c = DeviceConfig::small();
        let json = serde_json::to_string(&c).unwrap();
        let stripped = json.replace(",\"cell_faults\":null", "");
        assert_ne!(json, stripped, "cell_faults field must serialize");
        let back: DeviceConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.cell_faults, None);
        let faulty = c.with_cell_faults(Some(CellFaultConfig::default()));
        faulty.validate().unwrap();
        let json = serde_json::to_string(&faulty).unwrap();
        let back: DeviceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cell_faults, Some(CellFaultConfig::default()));
        let bad = DeviceConfig::small()
            .with_cell_faults(Some(CellFaultConfig::default().with_refresh_window(0)));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn link_fault_field_defaults_for_older_config_files() {
        // Config JSON written before the link-retry subsystem existed
        // must still load, defaulting to perfect links.
        let c = DeviceConfig::small();
        let json = serde_json::to_string(&c).unwrap();
        let stripped = json.replace(",\"link_faults\":null", "");
        assert_ne!(json, stripped, "link_faults field must serialize");
        let back: DeviceConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.link_faults, None);
        let faulty = c.with_link_faults(Some(
            LinkFaultConfig::default().with_error_rate_ppm(10_000),
        ));
        faulty.validate().unwrap();
        let json = serde_json::to_string(&faulty).unwrap();
        let back: DeviceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.link_faults,
            Some(LinkFaultConfig::default().with_error_rate_ppm(10_000))
        );
        let bad = DeviceConfig::small()
            .with_link_faults(Some(LinkFaultConfig::default().with_retrain_cycles(0)));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn interconnect_fields_default_for_older_config_files() {
        // Config JSON written before the NoC subsystem existed must
        // still load, defaulting to the paper's idealized crossbar.
        let c = DeviceConfig::small();
        let json = serde_json::to_string(&c).unwrap();
        let stripped = json
            .replace(",\"interconnect\":\"Crossbar\"", "")
            .replace(",\"arbitration\":\"RoundRobin\"", "");
        assert_ne!(json, stripped, "interconnect fields must serialize");
        let back: DeviceConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.interconnect, InterconnectKind::Crossbar);
        assert_eq!(back.arbitration, ArbitrationKind::RoundRobin);
        let ring = c
            .with_interconnect(InterconnectKind::Ring)
            .with_arbitration(ArbitrationKind::OldestFirst);
        assert_eq!(ring.interconnect, InterconnectKind::Ring);
        assert_eq!(ring.arbitration, ArbitrationKind::OldestFirst);
        ring.validate().unwrap();
    }
}
