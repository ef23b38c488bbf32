//! The HMC device structure.
//!
//! "Devices are analogous to a single Hybrid Memory Cube device package.
//! … The device structure contains three sub-structures: Links, Crossbar
//! Units and Quad Units \[plus\] any device-specific configuration
//! registers" (paper §IV.A). Below the quads sit the vaults, banks and
//! DRAMs, mirrored here by the `vaults` block whose [`Vault`]s own their
//! [`hmc_mem::VaultMemory`] bank stacks.
//!
//! The C implementation allocates each structure type "as a single block,
//! while hierarchical pointers are initialized to point within this
//! well-aligned allocation" (§IV.A). The Rust port keeps each structure
//! class in one contiguous `Vec` per device and links levels by index,
//! preserving the same allocation behaviour with safe ownership.

use hmc_mem::VaultMemory;
use hmc_types::config::VAULTS_PER_QUAD;
use hmc_types::{CubeId, DeviceConfig, LinkId, VaultId};

use crate::link::Link;
use crate::noc::NocState;
use crate::quad::Quad;
use crate::queue::QueueEntry;
use crate::register::RegisterFile;
use crate::vault::Vault;
use crate::xbar::Crossbar;

/// One simulated HMC device package.
#[derive(Debug)]
pub struct Device {
    /// Cube ID of this device (0-based within the simulation object).
    pub id: CubeId,
    /// External links, one crossbar unit each.
    pub links: Vec<Link>,
    /// Crossbar units (request + response queues per link).
    pub xbars: Vec<Crossbar>,
    /// Quad units (locality domains of four vaults).
    pub quads: Vec<Quad>,
    /// Vault controllers with their bank stacks.
    pub vaults: Vec<Vault>,
    /// The device register file.
    pub registers: RegisterFile,
    /// Buffered intra-cube fabric state (ring/mesh). `None` means the
    /// paper's idealized crossbar: stage 2 and stage 5 push directly and
    /// no NoC sub-stage runs — the pre-NoC engine, bit for bit. Installed
    /// only through [`Device::install_noc`], which keeps `noc_vaults` in
    /// step with it.
    pub(crate) noc: Option<NocState>,
    /// Per link: bit *v* set when traffic between that link and vault *v*
    /// rides the buffered fabric. All zero under the crossbar.
    noc_vaults: Vec<u64>,
    /// Bit *v* set exactly when vault *v*'s request queue is full: set
    /// by [`push_request`] when an arrival fills the queue, cleared by
    /// stage 4 when it takes a request from one, zeroed by
    /// [`Device::reset`]. What the crossbar gate asks of the vaults a
    /// request queue's classes name, in one AND.
    pub(crate) full_vaults: u64,
}

/// Push `entry` into vault `v`'s request queue through
/// [`Vault::push_request`], setting `v`'s bit in `full_vaults` (a
/// device's [`Device::full_vaults`]) when the arrival fills the queue.
/// Every arrival at a vault takes this path: the crossbar walk's direct
/// push and the NoC's delivery.
pub(crate) fn push_request(
    vaults: &mut [Vault],
    full_vaults: &mut u64,
    v: VaultId,
    entry: QueueEntry,
    window: usize,
) -> Result<(), QueueEntry> {
    let vault = &mut vaults[v as usize];
    vault.push_request(entry, window)?;
    if vault.rqst.is_full() {
        *full_vaults |= 1 << v;
    }
    Ok(())
}

// Vault ids index the bits of a `u64` mask: the NoC-vault masks above and
// the crossbar walk's per-walk latch. `DeviceConfig::validate` allows at
// most eight links, one quad of vaults each.
const _: () = assert!(8 * VAULTS_PER_QUAD as usize <= 64);

impl Device {
    /// Build a device in its reset state from a validated configuration.
    pub fn new(id: CubeId, config: &DeviceConfig) -> Self {
        let links = (0..config.num_links)
            .map(|l| Link::new(l, config.xbar_depth))
            .collect();
        let xbars = (0..config.num_links)
            .map(|l| Crossbar::new(l, config.xbar_depth))
            .collect();
        let quads = (0..config.num_quads()).map(Quad::new).collect();
        let vaults = (0..config.num_vaults)
            .map(|v| Vault::new(v, config.vault_depth, VaultMemory::new(config)))
            .collect();
        let registers = RegisterFile::new(
            config.num_links,
            config.capacity_bytes >> 30,
            config.num_vaults,
        );
        Device {
            id,
            links,
            xbars,
            quads,
            vaults,
            registers,
            noc: None,
            noc_vaults: vec![0; config.num_links as usize],
            full_vaults: 0,
        }
    }

    /// Install a buffered fabric (`None`: the crossbar) and the per-link
    /// NoC-vault masks that go with it, dropping the previous fabric and
    /// whatever it held.
    pub(crate) fn install_noc(&mut self, noc: Option<NocState>) {
        let num_vaults = self.vaults.len() as VaultId;
        debug_assert!(num_vaults <= 64, "vault ids must fit a u64 mask");
        for (l, mask) in self.noc_vaults.iter_mut().enumerate() {
            *mask = match noc {
                Some(_) => (0..num_vaults)
                    .filter(|&v| Quad::of_vault(v) as usize != l)
                    .fold(0, |m, v| m | 1 << v),
                None => 0,
            };
        }
        self.noc = noc;
    }

    /// The buffered fabric, if the device has one (`None`: the crossbar).
    pub fn noc(&self) -> Option<&NocState> {
        self.noc.as_ref()
    }

    /// The vaults whose traffic with link `link` rides the buffered
    /// fabric, as a mask (bit *v* for vault *v*); zero under the crossbar.
    #[inline]
    pub(crate) fn noc_vaults(&self, link: LinkId) -> u64 {
        self.noc_vaults[link as usize]
    }

    /// True when any link connects to a host — a "root" device in the
    /// paper's stage-ordering terminology (§IV.C).
    pub fn is_root(&self) -> bool {
        self.links.iter().any(|l| l.is_host_link())
    }

    /// Indices of links connected to hosts.
    pub fn host_links(&self) -> Vec<LinkId> {
        self.links
            .iter()
            .filter(|l| l.is_host_link())
            .map(|l| l.id)
            .collect()
    }

    /// True when a packet between link `link`'s crossbar unit and `vault`
    /// rides the buffered fabric: the device has one (ring or mesh) and
    /// the two sit in different quads (link `l` fronts quad `l`). The
    /// split is per packet, not per fabric — same-quad traffic on a mesh
    /// takes the direct push. A bit test against `Device::noc_vaults`,
    /// the one mask stage 2's walk, stage 5's drain and the fast-forward
    /// horizon's crossbar-request gate all read, so the horizon cannot
    /// disagree with the walks it stands in for.
    #[inline]
    pub fn rides_noc(&self, link: LinkId, vault: VaultId) -> bool {
        self.noc_vaults(link) >> vault & 1 != 0
    }

    /// Total packets resident in all device queues (drain checks),
    /// including packets in flight between quads on a buffered NoC.
    pub fn total_occupancy(&self) -> usize {
        self.xbars.iter().map(|x| x.occupancy()).sum::<usize>()
            + self
                .vaults
                .iter()
                .map(|v| v.rqst.len() + v.rsp.len() + v.pending.len())
                .sum::<usize>()
            + self.noc.as_ref().map_or(0, |n| n.occupancy())
    }

    /// Every slot of the device a packet can occupy — the bound on
    /// [`Device::total_occupancy`] (a vault's not-yet-ready responses
    /// count against its response queue's slots).
    pub fn packet_slots(&self) -> usize {
        self.xbars
            .iter()
            .map(|x| x.rqst.depth() + x.rsp().depth())
            .sum::<usize>()
            + self
                .vaults
                .iter()
                .map(|v| v.rqst.depth() + v.rsp.depth())
                .sum::<usize>()
            + self.noc.as_ref().map_or(0, |n| n.capacity())
    }

    /// Return the device to its reset state: queues emptied, registers at
    /// power-on values, banks cleared, link tokens refilled. Topology
    /// wiring is preserved.
    pub fn reset(&mut self) {
        for x in &mut self.xbars {
            x.clear();
        }
        for v in &mut self.vaults {
            v.reset();
        }
        self.full_vaults = 0;
        for l in &mut self.links {
            l.reset_tokens();
        }
        if let Some(n) = &mut self.noc {
            n.clear();
        }
        self.registers.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Endpoint;

    #[test]
    fn four_link_device_structure_matches_figure_2() {
        // Fig. 2 / §IV.A example: four links, four quads, sixteen vaults.
        let cfg = DeviceConfig::small();
        let d = Device::new(0, &cfg);
        assert_eq!(d.links.len(), 4);
        assert_eq!(d.xbars.len(), 4);
        assert_eq!(d.quads.len(), 4);
        assert_eq!(d.vaults.len(), 16);
        for (i, q) in d.quads.iter().enumerate() {
            assert_eq!(q.id as usize, i);
            for v in q.vaults {
                assert!((v as usize) < d.vaults.len());
            }
        }
        for v in &d.vaults {
            assert_eq!(v.mem.num_banks(), cfg.banks_per_vault);
        }
    }

    #[test]
    fn eight_link_device_doubles_the_hierarchy() {
        let cfg = DeviceConfig::paper_8link_16bank_8gb();
        let d = Device::new(1, &cfg);
        assert_eq!(d.links.len(), 8);
        assert_eq!(d.quads.len(), 8);
        assert_eq!(d.vaults.len(), 32);
        assert_eq!(d.vaults[0].mem.num_banks(), 16);
    }

    #[test]
    fn fresh_device_is_not_root() {
        let d = Device::new(0, &DeviceConfig::small());
        assert!(!d.is_root());
        assert!(d.host_links().is_empty());
    }

    #[test]
    fn root_detection_follows_link_wiring() {
        let mut d = Device::new(0, &DeviceConfig::small());
        d.links[2].remote = Endpoint::Host(4);
        assert!(d.is_root());
        assert_eq!(d.host_links(), vec![2]);
    }

    #[test]
    fn occupancy_starts_empty_and_reset_clears() {
        let cfg = DeviceConfig::small();
        let mut d = Device::new(0, &cfg);
        assert_eq!(d.total_occupancy(), 0);
        // Occupy a couple of queues directly.
        use crate::queue::QueueEntry;
        use hmc_types::{BlockSize, Command, Packet};
        let p = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 0, 0, &[]).unwrap();
        d.xbars[0].rqst.push(QueueEntry::new(p.clone(), 4, 0, 0)).unwrap();
        d.vaults[3]
            .push_request(QueueEntry::new(p, 4, 0, 0), 8)
            .unwrap();
        assert_eq!(d.total_occupancy(), 2);
        d.reset();
        assert_eq!(d.total_occupancy(), 0);
    }

    #[test]
    fn noc_vault_masks_come_and_go_with_the_fabric() {
        use crate::noc::NocParams;
        use hmc_types::InterconnectKind;
        let mut d = Device::new(0, &DeviceConfig::paper_8link_16bank_8gb());
        let riders = |d: &Device| {
            (0..8u8)
                .flat_map(|l| (0..32u16).map(move |v| (l, v)))
                .filter(|&(l, v)| d.rides_noc(l, v))
                .count()
        };
        assert_eq!(riders(&d), 0, "the crossbar carries nothing on a NoC");
        d.install_noc(NocState::new(&NocParams::of(InterconnectKind::Mesh), 8, 32));
        for l in 0..8u8 {
            for v in 0..32u16 {
                assert_eq!(
                    d.rides_noc(l, v),
                    l != Quad::of_vault(v),
                    "link {l} vault {v}"
                );
            }
        }
        d.install_noc(None);
        assert_eq!(riders(&d), 0, "the masks go with the fabric");
    }

    #[test]
    fn queue_depths_come_from_config() {
        let cfg = DeviceConfig::small().with_queue_depths(128, 64);
        let d = Device::new(0, &cfg);
        assert_eq!(d.xbars[0].rqst.depth(), 128);
        assert_eq!(d.vaults[0].rqst.depth(), 64);
    }
}
