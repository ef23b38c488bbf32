//! The top-level simulation object.
//!
//! An [`HmcSim`] corresponds to one `hmcsim_t` of the C API: a set of
//! physically homogeneous HMC devices (paper §V.A), the topology wiring
//! between them and their hosts, the address map, the clock, and the
//! tracer. "An application may contain more than one HMC-Sim object in
//! order to simulate architectural characteristics such as non-uniform
//! memory access" (§IV.A) — objects are fully independent values here.

use hmc_types::address::AddressMap;
use hmc_types::{CubeId, Cycle, DeviceConfig, HmcError, LinkId, Packet, Result};
use hmc_trace::{TraceEvent, Tracer};

use crate::device::Device;
use crate::engine::{EngineScratch, LiveUnit};
use crate::link::Endpoint;
use crate::params::SimParams;
use crate::queue::{BodyPool, QueueEntry};
use crate::routing::RouteTable;

/// The 3-bit CUB field bounds the ID space shared by devices and hosts.
pub const MAX_CUBES: usize = 8;

/// Whole-simulation counters, as returned by [`HmcSim::stats`].
///
/// `cycles` is the clock and the three row fields are sums of the
/// per-vault counts ([`crate::VaultStats`]); the simulation stores
/// neither a second time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Request packets accepted from hosts.
    pub sent: u64,
    /// Response packets delivered to hosts.
    pub received: u64,
    /// Clock cycles executed.
    pub cycles: u64,
    /// Sends rejected because the link's token pool ran dry (flow-control
    /// back-pressure, as opposed to a full crossbar queue).
    pub token_stalls: u64,
    /// Bank accesses that hit an already-open row (DDR timing backend
    /// only; the classic backend models no row buffer and leaves this 0).
    pub row_hits: u64,
    /// Bank accesses that had to activate a row first (row misses and
    /// row conflicts; DDR timing backend only).
    pub row_misses: u64,
    /// Precharge commands issued (row conflicts and closed-page
    /// auto-precharges; DDR timing backend only).
    pub precharges: u64,
    /// Quad-to-quad segment crossings on a buffered NoC fabric (ring or
    /// mesh; the crossbar fabric never hops and leaves this 0).
    pub noc_hops: u64,
    /// NoC packets held in place by a full segment buffer or a full
    /// delivery queue.
    pub noc_stalls: u64,
    /// NoC packets that were free to move but lost arbitration (their
    /// quad's drain budget was spent on other packets).
    pub noc_arb_losses: u64,
    /// Row activations counted by the cell-fault subsystem (zero unless
    /// [`SimParams::cell_faults`] is set).
    pub hammer_activations: u64,
    /// Victim-row bits flipped by RowHammer threshold crossings.
    pub bit_flips: u64,
    /// TRR targeted refreshes issued in place of disturbances.
    pub trr_refreshes: u64,
    /// Bits decayed by the retention axis (unrefreshed past the horizon).
    pub retention_decays: u64,
    /// Link-retry retransmissions scheduled after a CRC-detected
    /// corruption (zero unless link-error simulation is enabled).
    pub link_retries: u64,
    /// Link retraining windows completed after retry exhaustion took a
    /// link down.
    pub link_retrains: u64,
    /// Responses delivered with a poisoned ERRSTAT because their request
    /// exhausted the link-retry protocol.
    pub poisoned_responses: u64,
}

/// One HMC-Sim simulation object.
pub struct HmcSim {
    pub(crate) config: DeviceConfig,
    /// The parameters the devices are built for. [`HmcSim::set_params`],
    /// the only code that writes this field, installs every timing
    /// backend, fabric and fault block it names; the rest of the crate
    /// reads it through [`HmcSim::params`].
    params: SimParams,
    pub(crate) devices: Vec<Device>,
    pub(crate) map: Box<dyn AddressMap>,
    pub(crate) routes: Option<RouteTable>,
    pub(crate) clock: Cycle,
    pub(crate) tracer: Tracer,
    pub(crate) stats: SimStats,
    pub(crate) ac_mode: u64,
    pub(crate) faults: Option<crate::fault::FaultState>,
    pub(crate) scratch: EngineScratch,
    /// Every packet body not resident in a queue: the free list they are
    /// taken from at `send` and returned to wherever an entry dies.
    pub(crate) bodies: BodyPool,
    /// Invariant-checker state; `None` until the first hook fires with
    /// [`SimParams::check_invariants`] set (zero-cost when off).
    pub(crate) inv: Option<Box<crate::invariants::InvariantState>>,
    /// Whether the tracer recorded `BankConflict` when the vaults' cached
    /// sleep edges were derived: the one input of a vault's tick that can
    /// change without [`HmcSim::set_params`]. See
    /// `HmcSim::ensure_vault_edges`.
    pub(crate) edges_trace_conflicts: bool,
    /// The unit `HmcSim::quiescent_horizon` last found live, asked
    /// first on its next call. A hint only: any value gives the same
    /// horizon.
    pub(crate) live_hint: std::cell::Cell<Option<LiveUnit>>,
}

impl std::fmt::Debug for HmcSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmcSim")
            .field("devices", &self.devices.len())
            .field("clock", &self.clock)
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl HmcSim {
    /// Create `num_devices` homogeneous devices in their reset state.
    ///
    /// The config is validated here, exactly as `hmcsim_init` validates
    /// its geometry arguments before allocating (paper §V.A).
    pub fn new(num_devices: u8, config: DeviceConfig) -> Result<Self> {
        config.validate()?;
        if num_devices == 0 {
            return Err(HmcError::InvalidConfig(
                "at least one device is required".into(),
            ));
        }
        if num_devices as usize >= MAX_CUBES {
            return Err(HmcError::InvalidConfig(format!(
                "{num_devices} devices exceed the 3-bit CUB space \
                 ({MAX_CUBES} IDs shared with hosts)"
            )));
        }
        let devices: Vec<Device> = (0..num_devices).map(|i| Device::new(i, &config)).collect();
        let mut bodies = BodyPool::default();
        bodies.reserve(devices.iter().map(Device::packet_slots).sum());
        let map: Box<dyn AddressMap> = Box::new(config.default_map()?);
        let axes = SimParams::default().with_device_axes(&config);
        let mut sim = HmcSim {
            config,
            // What `Device::new` builds: classic timing, the crossbar, no
            // faults.
            params: SimParams::default(),
            devices,
            map,
            routes: None,
            clock: 0,
            tracer: Tracer::off(),
            stats: SimStats::default(),
            ac_mode: 0,
            faults: None,
            scratch: EngineScratch::default(),
            bodies,
            inv: None,
            edges_trace_conflicts: false,
            live_hint: std::cell::Cell::new(None),
        };
        debug_assert!(
            sim.installed_matches_params(),
            "Device::new must build what SimParams::default() names"
        );
        // The config's axes install like any other change of parameters;
        // an all-default config installs nothing.
        sim.set_params(axes);
        Ok(sim)
    }

    /// Whether the devices hold what `params` names: each vault's timing
    /// backend and cell-fault state, each device's fabric and the
    /// link-fault state. `set_params` installs only what differs from the
    /// stored parameters, so the two must never drift apart.
    fn installed_matches_params(&self) -> bool {
        let p = &self.params;
        let mesh_or_ring = p.interconnect.kind != hmc_types::InterconnectKind::Crossbar;
        self.faults.is_some() == p.link_faults.is_some()
            && self.devices.iter().all(|d| {
                d.noc.is_some() == mesh_or_ring
                    && d.vaults.iter().all(|v| {
                        v.timing.kind() == p.timing.kind
                            && v.faults.is_some() == p.cell_faults.is_some()
                    })
            })
    }

    /// Replace the simulation parameters (builder style); see
    /// [`HmcSim::set_params`].
    pub fn with_params(mut self, params: SimParams) -> Self {
        self.set_params(params);
        self
    }

    /// Replace the simulation parameters, installing what changed. This
    /// is the one place a timing backend, fabric or fault block reaches
    /// the devices, and each is rebuilt only when the parameters it is
    /// built from differ from the current ones:
    ///
    /// * `(timing, refresh)`: every vault's timing backend, with power-on
    ///   bank state (all rows closed);
    /// * `interconnect`: every device's fabric, with empty segment
    ///   buffers (packets in flight on the old fabric are dropped;
    ///   packets queued in crossbars and vaults are unaffected);
    /// * `cell_faults`: every vault's cell-fault state, with fresh (zero)
    ///   activation tracking (already-corrupted data stays corrupted);
    /// * `link_faults`: the link-fault state, with fresh counters
    ///   (in-flight retry and retraining bookkeeping is preserved).
    ///
    /// Turning `check_invariants` off drops the checker's state. Every
    /// vault then wakes, so no cached sleep edge outlives the rules it
    /// was derived under. Parameters equal to the current ones change
    /// nothing.
    ///
    /// Safe at any clock boundary; the next cycle runs under `params`.
    /// An axis changed and changed back before the next clock is
    /// installed twice, so it too restarts from power-on state.
    pub fn set_params(&mut self, params: SimParams) {
        if params == self.params {
            return;
        }
        let old = std::mem::replace(&mut self.params, params);
        if (params.timing, params.refresh) != (old.timing, old.refresh) {
            let banks = self.config.banks_per_vault;
            for v in self.devices.iter_mut().flat_map(|d| &mut d.vaults) {
                v.timing = crate::timing::make_timing(params.timing, v.id, banks, params.refresh);
            }
        }
        if params.interconnect != old.interconnect {
            let (quads, vaults) = (self.config.num_quads(), self.config.num_vaults);
            for d in &mut self.devices {
                // Packets in flight on the old fabric go with it.
                self.bodies
                    .forget(d.noc.as_ref().map_or(0, |n| n.occupancy()));
                d.install_noc(crate::noc::NocState::new(
                    &params.interconnect,
                    quads,
                    vaults,
                ));
            }
            // The fabric's segment slots hold bodies too.
            self.bodies
                .reserve(self.devices.iter().map(Device::packet_slots).sum());
        }
        if params.cell_faults != old.cell_faults {
            let rows = self.config.rows_per_bank();
            let block_bytes = self.config.block_size.bytes() as u32;
            for v in self.devices.iter_mut().flat_map(|d| &mut d.vaults) {
                v.faults = params.cell_faults.map(|cfg| {
                    Box::new(hmc_mem::CellFaultState::new(cfg, v.id, rows, block_bytes))
                });
            }
        }
        if params.link_faults != old.link_faults {
            self.install_link_faults();
        }
        if !params.check_invariants {
            self.inv = None;
        }
        for v in self.devices.iter_mut().flat_map(|d| &mut d.vaults) {
            v.wake();
        }
        debug_assert!(self.installed_matches_params());
    }

    /// Link-fault state for [`SimParams::link_faults`], with zeroed
    /// counters.
    fn install_link_faults(&mut self) {
        self.faults = self.params.link_faults.map(crate::fault::FaultState::new);
    }

    // Warts kept for `benchmark/src/host_driven.rs`, their one caller,
    // which changes only together with the benchmark. ROADMAP item 3(f)
    // deletes the three together; nothing in the workspace may call them.
    #[doc(hidden)]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    #[doc(hidden)]
    pub fn with_timing(self, timing: crate::timing::TimingParams) -> Self {
        let params = SimParams {
            timing,
            ..self.params
        };
        self.with_params(params)
    }

    #[doc(hidden)]
    pub fn with_interconnect(self, interconnect: crate::noc::NocParams) -> Self {
        let params = SimParams {
            interconnect,
            ..self.params
        };
        self.with_params(params)
    }

    /// Replace the address map (must match the device geometry).
    pub fn set_address_map(&mut self, map: Box<dyn AddressMap>) -> Result<()> {
        let g = map.geometry();
        if g != self.config.geometry() {
            return Err(HmcError::InvalidConfig(format!(
                "address map geometry {g:?} does not match the device geometry {:?}",
                self.config.geometry()
            )));
        }
        self.install_map(map);
        Ok(())
    }

    /// The one place the address map is replaced. Route keys memoize a
    /// decode under the old map, so every crossbar request queue forgets
    /// them here and waiting packets are routed afresh under the new one.
    fn install_map(&mut self, map: Box<dyn AddressMap>) {
        self.map = map;
        for d in &mut self.devices {
            for x in &mut d.xbars {
                x.rqst.forget_routes();
            }
        }
    }

    /// Install a tracer (verbosity + sink).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Link-error statistics while [`SimParams::link_faults`] is set.
    pub fn fault_state(&self) -> Option<&crate::fault::FaultState> {
        self.faults.as_ref()
    }

    /// Access the tracer (flushing, verbosity changes).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    // -------------------------------------------------------------- access

    /// The shared device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The simulation parameters.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Number of devices in the object.
    pub fn num_devices(&self) -> u8 {
        self.devices.len() as u8
    }

    /// The cube ID of host `k` (host IDs sit above all device IDs in the
    /// shared CUB space, §V.B).
    pub fn host_cube_id(&self, k: u8) -> CubeId {
        self.num_devices() + k
    }

    /// Current clock value.
    pub fn current_clock(&self) -> Cycle {
        self.clock
    }

    /// Whole-simulation counters: the stored ones, with `cycles` read
    /// from the clock and the row-buffer counts summed over every vault.
    pub fn stats(&self) -> SimStats {
        let mut s = SimStats {
            cycles: self.clock,
            ..self.stats
        };
        for v in self.devices.iter().flat_map(|d| &d.vaults) {
            s.row_hits += v.stats.row_hits;
            s.row_misses += v.stats.row_misses;
            s.precharges += v.stats.precharges;
        }
        s
    }

    /// Immutable device access.
    pub fn device(&self, id: CubeId) -> Result<&Device> {
        self.devices
            .get(id as usize)
            .ok_or_else(|| HmcError::cube_range(id, self.num_devices()))
    }

    /// Mutable device access, inside this crate only: a caller that set
    /// a link's far end by hand would leave its crossbar's host and mover
    /// count stale ([`HmcSim::rewire`] is the one way to change it). A
    /// device is reset through [`HmcSim::reset_device`], not
    /// `device_mut(id)?.reset()`: the bodies its queues hold belong to
    /// the simulation's pool.
    pub(crate) fn device_mut(&mut self, id: CubeId) -> Result<&mut Device> {
        let n = self.num_devices();
        self.devices
            .get_mut(id as usize)
            .ok_or_else(|| HmcError::cube_range(id, n))
    }

    /// The active address map.
    pub fn address_map(&self) -> &dyn AddressMap {
        self.map.as_ref()
    }

    /// Packet bodies created so far. A body is recycled when its entry
    /// leaves the simulation, so in the steady state this stops moving
    /// (`tests/zero_alloc.rs`).
    pub fn packet_bodies_created(&self) -> u64 {
        self.bodies.created()
    }

    /// True when no packet is resident in any queue of any device.
    pub fn is_idle(&self) -> bool {
        self.devices.iter().all(|d| d.total_occupancy() == 0)
    }

    /// Total packets resident across all devices.
    pub fn total_occupancy(&self) -> usize {
        self.devices.iter().map(|d| d.total_occupancy()).sum()
    }

    /// The active routing table, building it first if the topology has
    /// changed since the last build. Fails if the topology is invalid.
    pub fn route_table(&mut self) -> Result<&RouteTable> {
        self.ensure_routes()?;
        Ok(self.routes.as_ref().expect("ensure_routes built the table"))
    }

    // ------------------------------------------------------------ topology

    /// Connect device `dev` link `link` to host cube `host`.
    ///
    /// Host IDs must lie outside the device ID range (§V.B) and inside the
    /// 3-bit CUB space.
    pub fn connect_host(&mut self, dev: CubeId, link: LinkId, host: CubeId) -> Result<()> {
        let n = self.num_devices();
        if host < n {
            return Err(HmcError::Topology(format!(
                "host cube ID {host} collides with device IDs 0..{n}"
            )));
        }
        if host as usize >= MAX_CUBES {
            return Err(HmcError::Topology(format!(
                "host cube ID {host} exceeds the 3-bit CUB space"
            )));
        }
        self.rewire(dev, link, Endpoint::Host(host))
    }

    /// Chain two devices: `a.link_a <-> b.link_b` (both ends wired).
    ///
    /// Loopbacks are rejected: "the infrastructure does not permit users
    /// to configure links as loopbacks" (§V.B). Both devices must live in
    /// this simulation object.
    pub fn connect_devices(
        &mut self,
        a: CubeId,
        link_a: LinkId,
        b: CubeId,
        link_b: LinkId,
    ) -> Result<()> {
        if a == b {
            return Err(HmcError::Topology(format!(
                "loopback link on device {a} is not permitted"
            )));
        }
        let n = self.num_devices();
        if a >= n || b >= n {
            return Err(HmcError::Topology(format!(
                "devices {a} and {b} must both exist within this HMC-Sim object (0..{n})"
            )));
        }
        let num_links = self.config.num_links;
        if link_a >= num_links || link_b >= num_links {
            return Err(HmcError::link_range(link_a.max(link_b), num_links));
        }
        self.rewire(a, link_a, Endpoint::Device(b, link_b))?;
        self.rewire(b, link_b, Endpoint::Device(a, link_a))
    }

    /// Disconnect a link (returns it to `Unconnected`).
    pub fn disconnect(&mut self, dev: CubeId, link: LinkId) -> Result<()> {
        self.rewire(dev, link, Endpoint::Unconnected)
    }

    /// Wire device `dev` link `link` to `remote`: the link's far end, the
    /// crossbar's host and its mover count (which the host decides), and
    /// a route table rebuilt before the next use.
    fn rewire(&mut self, dev: CubeId, link: LinkId, remote: Endpoint) -> Result<()> {
        let d = self.device_mut(dev)?;
        let l = d
            .links
            .get_mut(link as usize)
            .ok_or_else(|| HmcError::link_range(link, 0))?;
        l.remote = remote;
        d.xbars[link as usize].set_host(remote.host());
        self.routes = None;
        Ok(())
    }

    /// Validate the topology and (re)build routes. Called implicitly by
    /// [`HmcSim::send`] and [`HmcSim::clock`]; callable eagerly for early
    /// error reporting.
    pub fn finalize_topology(&mut self) -> Result<()> {
        // "The user must configure at least one device that connects to a
        // host link. Otherwise, the host will have no access to main
        // memory" (§V.B).
        if !self.devices.iter().any(|d| d.is_root()) {
            return Err(HmcError::Topology(
                "no host link configured; the host would have no access to memory".into(),
            ));
        }
        self.routes = Some(RouteTable::build(&self.devices, MAX_CUBES));
        Ok(())
    }

    pub(crate) fn ensure_routes(&mut self) -> Result<()> {
        if self.routes.is_none() {
            self.finalize_topology()?;
        }
        Ok(())
    }

    // ------------------------------------------------------- send / recv

    /// Submit a fully-formed request or flow packet on a host link.
    ///
    /// Returns [`HmcError::Stalled`] when the link's crossbar queue (or
    /// its token pool) has no room — the signal the paper's harness uses
    /// to throttle injection (§VI.A).
    ///
    /// Errors come in this order: the topology; then a stall when the
    /// port refuses every packet, before the packet is looked at
    /// ([`HmcSim::open_port`]); then validation; then a token stall.
    pub fn send(&mut self, dev: CubeId, link: LinkId, packet: Packet) -> Result<()> {
        let host = self.open_port(dev, link)?;
        let body = self.bodies.take(packet);
        self.admit(dev, link, host, body)
    }

    /// [`HmcSim::send`] of a packet that `fill` writes straight into the
    /// pooled body it will travel in, so nothing is built on the stack
    /// and copied over. The body comes as its last packet left it: `fill`
    /// must overwrite it whole, as [`Packet::fill_request`] does.
    ///
    /// Errors come in `send`'s order, with `fill`'s own after the port's
    /// refusal (no body is taken and `fill` does not run) and before
    /// validation. A refused body goes back to the pool.
    pub fn send_with(
        &mut self,
        dev: CubeId,
        link: LinkId,
        fill: impl FnOnce(&mut Packet) -> Result<()>,
    ) -> Result<()> {
        let host = self.open_port(dev, link)?;
        let mut body = self.bodies.take_any();
        if let Err(e) = fill(&mut body) {
            self.bodies.give(body);
            return Err(e);
        }
        self.admit(dev, link, host, body)
    }

    /// The host cube at the far end of `dev`'s link `link`, building the
    /// routes first if the topology changed: a topology error unless it
    /// is a host link, and a stall while the port refuses every packet,
    /// whatever it is. It does when the link is down, retraining after
    /// retry exhaustion (the same stall signal as flow-control
    /// back-pressure, so host throttling loops need no special case), or
    /// its crossbar request queue is full.
    fn open_port(&mut self, dev: CubeId, link: LinkId) -> Result<CubeId> {
        self.ensure_routes()?;
        let d = self
            .devices
            .get(dev as usize)
            .ok_or_else(|| HmcError::cube_range(dev, self.devices.len() as u8))?;
        let l = d
            .links
            .get(link as usize)
            .ok_or_else(|| HmcError::link_range(link, d.links.len() as u8))?;
        let Endpoint::Host(host) = l.remote else {
            return Err(HmcError::Topology(format!(
                "link {link} on device {dev} is not a host link"
            )));
        };
        if (self.faults.is_some() && l.retrain_gated(self.clock))
            || d.xbars[link as usize].rqst.is_full()
        {
            return Err(HmcError::Stalled { cube: dev, link });
        }
        Ok(host)
    }

    /// The admission path `send` and `send_with` share: the packet in
    /// `body` enters `dev`'s crossbar queue for `link`, or the body goes
    /// back to the pool and the reason is returned.
    fn admit(&mut self, dev: CubeId, link: LinkId, host: CubeId, body: Box<Packet>) -> Result<()> {
        if let Err(e) = self.admission(dev, link, &body) {
            self.bodies.give(body);
            return Err(e);
        }
        if self.params.check_invariants {
            self.inv_record_send(dev, link, host, &body);
        }
        let dest = body.cub();
        let mut entry = QueueEntry::with_body(body, host, dest, self.clock);
        entry.arrival_link = link;
        // Error simulation: the packet may be corrupted in SERDES
        // transit. The link hands out its wire SEQ (stamped into the
        // request tail, re-sealed) and its monotonic send sequence — the
        // stable key under which every transmission attempt's fate is a
        // pure function of the fault seed, making the corruption stream
        // identical in stepped and fast-forward runs.
        if let Some(faults) = self.faults.as_mut() {
            let (wire, seq) = self.devices[dev as usize].links[link as usize].next_send_seq();
            entry.packet.set_seq(wire);
            entry.packet.seal();
            entry.send_seq = seq;
            entry.corrupt = faults.roll_attempt(dev, link, seq, 0);
        }
        let d = &mut self.devices[dev as usize];
        d.xbars[link as usize]
            .rqst
            .push(entry)
            .expect("fullness checked above");
        self.stats.sent += 1;
        Ok(())
    }

    /// Whether `packet` may enter `dev`'s crossbar queue for host link
    /// `link`, whose port is open ([`HmcSim::open_port`]): it is a valid
    /// request or flow packet and the link's token pool covers it. The
    /// tokens are taken when it may.
    fn admission(&mut self, dev: CubeId, link: LinkId, packet: &Packet) -> Result<()> {
        packet.validate()?;
        if packet.cmd()?.is_response() {
            return Err(HmcError::InvalidPacket(
                "hosts send request or flow packets, not responses".into(),
            ));
        }
        let d = &mut self.devices[dev as usize];
        if !d.links[link as usize].take_tokens(packet.lng() as u32) {
            self.stats.token_stalls += 1;
            return Err(HmcError::Stalled { cube: dev, link });
        }
        Ok(())
    }

    /// Receive one response packet from a host link, if available.
    pub fn recv(&mut self, dev: CubeId, link: LinkId) -> Result<Packet> {
        self.recv_with(dev, link, |p, _| p.clone())
    }

    /// Receive one response packet together with its request-to-response
    /// latency in cycles (device-entry to delivery).
    pub fn recv_with_latency(&mut self, dev: CubeId, link: LinkId) -> Result<(Packet, Cycle)> {
        self.recv_with(dev, link, |p, latency| (p.clone(), latency))
    }

    /// Receive one response from a host link and hand it to `read` where
    /// it lies, in its pooled body, with its request-to-response latency
    /// in cycles; the body is recycled once `read` returns. Returns what
    /// `read` returns, or [`HmcError::NoResponse`] when the link has no
    /// response waiting.
    pub fn recv_with<T>(
        &mut self,
        dev: CubeId,
        link: LinkId,
        read: impl FnOnce(&Packet, Cycle) -> T,
    ) -> Result<T> {
        let n = self.devices.len() as u8;
        let d = self
            .devices
            .get_mut(dev as usize)
            .ok_or_else(|| HmcError::cube_range(dev, n))?;
        let l = d
            .links
            .get(link as usize)
            .ok_or_else(|| HmcError::link_range(link, d.links.len() as u8))?;
        if !l.remote.is_host() {
            return Err(HmcError::Topology(format!(
                "link {link} on device {dev} is not a host link"
            )));
        }
        match d.xbars[link as usize].pop_rsp() {
            Some(entry) => {
                self.stats.received += 1;
                if self.params.check_invariants {
                    self.inv_check_recv(dev, link, &entry);
                }
                let latency = self.clock.saturating_sub(entry.entry_cycle);
                let out = read(&entry.packet, latency);
                self.bodies.give(entry.packet);
                Ok(out)
            }
            None => Err(HmcError::NoResponse { cube: dev, link }),
        }
    }

    // ------------------------------------------------------------- clock

    /// Advance the simulation by one clock cycle: the six sub-cycle
    /// stages of Figure 3 in order (paper §IV.C). A batch of one cycle
    /// steps without asking the fast-forward horizon, so `n` calls are
    /// the stepped reference [`HmcSim::clock_batch`]`(n)` reproduces bit
    /// for bit.
    ///
    /// Prefer [`HmcSim::clock_batch`] when clocking many cycles between
    /// host interactions: it jumps the provably dead ones.
    pub fn clock(&mut self) -> Result<()> {
        self.clock_batch(1)
    }

    pub(crate) fn stage6_update_clock(&mut self) {
        for d in &mut self.devices {
            d.registers.tick();
            // Mirror live link token counts into the IBTC registers so
            // in-band MODE_READs observe real flow-control state.
            for (l, link) in d.links.iter().enumerate() {
                d.registers.set_ibtc(l, link.tokens as u64);
            }
        }
        // The AC (address configuration) register selects among the
        // specification's default address map modes (§III.B): 0 =
        // low-interleave (default), 1 = bank-first, 2 = linear. Devices
        // are homogeneous, so device 0's AC governs the object; changes
        // take effect at the clock edge for subsequently routed packets.
        let ac = self.devices[0].registers.ac();
        if ac != self.ac_mode {
            self.apply_ac_mode(ac);
        }
        self.clock += 1;
    }

    /// Install the address map AC mode `ac` selects and record the mode.
    /// Unknown modes leave the current map in place.
    fn apply_ac_mode(&mut self, ac: u64) {
        let geometry = self.config.geometry();
        let new_map: Option<Box<dyn AddressMap>> = match ac {
            0 => hmc_types::LowInterleaveMap::new(geometry)
                .ok()
                .map(|m| Box::new(m) as Box<dyn AddressMap>),
            1 => hmc_types::BankFirstMap::new(geometry)
                .ok()
                .map(|m| Box::new(m) as Box<dyn AddressMap>),
            2 => hmc_types::LinearMap::new(geometry)
                .ok()
                .map(|m| Box::new(m) as Box<dyn AddressMap>),
            _ => None,
        };
        if let Some(map) = new_map {
            self.install_map(map);
        }
        self.ac_mode = ac;
    }

    // ------------------------------------------------------------- misc

    /// Reset one device to its power-on state ([`Device::reset`]); the
    /// clock, the statistics and every other device are untouched, except
    /// that the device's row-buffer counts, which live in its vaults,
    /// leave [`HmcSim::stats`] with them. Requests resident in the device
    /// are dropped unanswered.
    pub fn reset_device(&mut self, id: CubeId) -> Result<()> {
        let n = self.num_devices();
        let d = self
            .devices
            .get_mut(id as usize)
            .ok_or_else(|| HmcError::cube_range(id, n))?;
        // The resident bodies go with the queues (freed, not recycled).
        self.bodies.forget(d.total_occupancy());
        d.reset();
        Ok(())
    }

    /// Reset every device to its power-on state and zero the clock, the
    /// statistics and the link-fault counters. Topology wiring and the
    /// parameters are preserved.
    ///
    /// The AC register returns to mode 0, so a map an AC write selected
    /// gives way to the power-on low-interleave map. A map installed with
    /// [`HmcSim::set_address_map`] while the mode is 0 survives, like the
    /// parameters do.
    pub fn reset(&mut self) {
        for id in 0..self.num_devices() {
            self.reset_device(id).expect("id is below num_devices");
        }
        if self.ac_mode != 0 {
            self.apply_ac_mode(0);
        }
        self.clock = 0;
        self.stats = SimStats::default();
        self.inv = None;
        self.install_link_faults();
    }

    pub(crate) fn emit(&mut self, event: TraceEvent) {
        self.tracer.emit(self.clock, event);
    }

    /// Host-side view of free request slots on a host link.
    pub fn free_request_slots(&self, dev: CubeId, link: LinkId) -> Result<usize> {
        let d = self.device(dev)?;
        let x = d
            .xbars
            .get(link as usize)
            .ok_or_else(|| HmcError::link_range(link, d.links.len() as u8))?;
        Ok(x.rqst.free_slots())
    }

    /// Pending responses available on a host link.
    pub fn pending_responses(&self, dev: CubeId, link: LinkId) -> Result<usize> {
        let d = self.device(dev)?;
        let x = d
            .xbars
            .get(link as usize)
            .ok_or_else(|| HmcError::link_range(link, d.links.len() as u8))?;
        Ok(x.rsp().len())
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::{BlockSize, Command};

    fn sim() -> HmcSim {
        let mut s = HmcSim::new(1, DeviceConfig::small()).unwrap();
        for l in 0..4 {
            s.connect_host(0, l, s.host_cube_id(0)).unwrap();
        }
        s
    }

    fn read_packet(addr: u64, tag: u16, link: LinkId) -> Packet {
        Packet::request(Command::Rd(BlockSize::B64), 0, addr, tag, link, &[]).unwrap()
    }

    /// The serve worker pool moves whole sessions across threads.
    #[test]
    fn a_simulation_can_move_to_another_thread() {
        fn assert_send<T: Send>() {}
        assert_send::<HmcSim>();
    }

    #[test]
    fn init_validates_config_and_count() {
        assert!(HmcSim::new(0, DeviceConfig::small()).is_err());
        assert!(HmcSim::new(8, DeviceConfig::small()).is_err());
        let mut bad = DeviceConfig::small();
        bad.num_links = 5;
        assert!(HmcSim::new(1, bad).is_err());
        assert!(HmcSim::new(2, DeviceConfig::small()).is_ok());
    }

    #[test]
    fn host_ids_sit_above_devices() {
        let s = HmcSim::new(3, DeviceConfig::small()).unwrap();
        assert_eq!(s.host_cube_id(0), 3);
        assert_eq!(s.host_cube_id(1), 4);
    }

    #[test]
    fn host_id_collision_rejected() {
        let mut s = HmcSim::new(2, DeviceConfig::small()).unwrap();
        assert!(s.connect_host(0, 0, 1).is_err(), "1 is a device ID");
        assert!(s.connect_host(0, 0, 2).is_ok());
        assert!(s.connect_host(0, 0, 8).is_err(), "beyond CUB space");
    }

    #[test]
    fn loopback_links_rejected() {
        let mut s = HmcSim::new(2, DeviceConfig::small()).unwrap();
        assert!(matches!(
            s.connect_devices(0, 0, 0, 1),
            Err(HmcError::Topology(_))
        ));
    }

    #[test]
    fn chaining_requires_both_devices_in_object() {
        let mut s = HmcSim::new(2, DeviceConfig::small()).unwrap();
        assert!(s.connect_devices(0, 0, 2, 0).is_err());
        assert!(s.connect_devices(0, 1, 1, 1).is_ok());
        // Both ends wired.
        assert_eq!(
            s.device(0).unwrap().links[1].remote,
            Endpoint::Device(1, 1)
        );
        assert_eq!(
            s.device(1).unwrap().links[1].remote,
            Endpoint::Device(0, 1)
        );
    }

    #[test]
    fn hostless_topology_rejected_at_clock() {
        let mut s = HmcSim::new(2, DeviceConfig::small()).unwrap();
        s.connect_devices(0, 0, 1, 0).unwrap();
        assert!(matches!(s.clock(), Err(HmcError::Topology(_))));
    }

    #[test]
    fn send_requires_a_host_link() {
        let mut s = HmcSim::new(2, DeviceConfig::small()).unwrap();
        s.connect_host(0, 0, s.host_cube_id(0)).unwrap();
        s.connect_devices(0, 1, 1, 0).unwrap();
        assert!(s.send(0, 0, read_packet(0, 1, 0)).is_ok());
        assert!(matches!(
            s.send(0, 1, read_packet(0, 2, 1)),
            Err(HmcError::Topology(_))
        ));
        assert!(matches!(
            s.send(1, 2, read_packet(0, 3, 2)),
            Err(HmcError::Topology(_))
        ));
    }

    #[test]
    fn send_rejects_response_packets_and_bad_crc() {
        let mut s = sim();
        let resp = Packet::response(
            Command::RdResponse,
            1,
            0,
            hmc_types::ResponseStatus::Ok,
            &[0u8; 16],
        )
        .unwrap();
        assert!(s.send(0, 0, resp).is_err());
        let mut p = read_packet(0, 1, 0);
        p.set_crc(p.crc() ^ 1);
        assert!(matches!(s.send(0, 0, p), Err(HmcError::InvalidPacket(_))));
    }

    #[test]
    fn send_stalls_when_the_xbar_queue_fills() {
        let mut s = sim(); // xbar depth 8
        for tag in 0..8 {
            s.send(0, 0, read_packet(0, tag, 0)).unwrap();
        }
        let err = s.send(0, 0, read_packet(0, 99, 0)).unwrap_err();
        assert!(err.is_stall());
        assert_eq!(s.stats().sent, 8);
        // Other links are unaffected.
        assert!(s.send(0, 1, read_packet(0, 100, 1)).is_ok());
    }

    #[test]
    fn recv_on_empty_link_reports_no_response() {
        let mut s = sim();
        assert!(matches!(
            s.recv(0, 0),
            Err(HmcError::NoResponse { cube: 0, link: 0 })
        ));
    }

    #[test]
    fn clock_advances_and_counts() {
        let mut s = sim();
        s.clock().unwrap();
        s.clock().unwrap();
        assert_eq!(s.current_clock(), 2);
        assert_eq!(s.stats().cycles, 2);
    }

    #[test]
    fn reset_preserves_wiring_but_clears_state() {
        let mut s = sim();
        s.send(0, 0, read_packet(0, 1, 0)).unwrap();
        s.clock().unwrap();
        s.reset();
        assert_eq!(s.current_clock(), 0);
        assert!(s.is_idle());
        // Wiring preserved: sends still work.
        assert!(s.send(0, 0, read_packet(0, 2, 0)).is_ok());
    }

    #[test]
    fn address_map_swap_requires_matching_geometry() {
        use hmc_types::{BankFirstMap, MapGeometry};
        let mut s = sim();
        let ok = BankFirstMap::new(s.config().geometry()).unwrap();
        assert!(s.set_address_map(Box::new(ok)).is_ok());
        let bad = BankFirstMap::new(MapGeometry {
            block_bytes: 64,
            vaults: 16,
            banks: 8,
            rows: 16,
        })
        .unwrap();
        assert!(s.set_address_map(Box::new(bad)).is_err());
    }

    #[test]
    fn occupancy_tracking() {
        let mut s = sim();
        assert!(s.is_idle());
        s.send(0, 0, read_packet(0, 1, 0)).unwrap();
        assert_eq!(s.total_occupancy(), 1);
        assert!(!s.is_idle());
    }
}
