//! Demonstrate the paper's Figure 3: the six-stage sub-cycle clock
//! schedule for single- and multi-device configurations.
//!
//! A single read request is injected into a two-device chain targeting
//! the remote (child) device. The program prints, after every clock
//! cycle, which queue the packet (and later its response) occupies —
//! making the one-stage-per-sub-cycle progression of §IV.C directly
//! visible:
//!
//! ```text
//! host -> [root xbar] -> (forward) -> [child xbar] -> [child vault rqst]
//!      -> processed -> [child vault rsp] -> [child xbar rsp]
//!      -> (forward) -> [root xbar rsp] -> host
//! ```
//!
//! On a buffered fabric (`--interconnect ring|mesh`) a third walk sends a
//! read in on link 0 for a vault of quad 2, so the request and its
//! response cross the fabric: each cycle a packet spends in a segment
//! buffer shows as `dev0.noc.q{quad}.rqst|rsp`.
//!
//! Usage:
//!   figure3 [simulation axes]
//!
//! The simulation axes are the shared flags of `SimParams::USAGE`
//! (`--help` lists them); the walk runs under them.

use hmc_core::noc::NocClass;
use hmc_core::{topology, Args, HmcSim, SimParams};
use hmc_types::{BlockSize, Command, DeviceConfig, InterconnectKind, Packet};

fn snapshot(sim: &HmcSim, tag: u16) -> String {
    let mut places = Vec::new();
    for d in 0..sim.num_devices() {
        let dev = sim.device(d).unwrap();
        for x in &dev.xbars {
            if x.rqst.iter().any(|e| e.packet.tag() == tag) {
                places.push(format!("dev{d}.link{}.xbar_rqst", x.link));
            }
            if x.rsp().iter().any(|e| e.packet.tag() == tag) {
                places.push(format!("dev{d}.link{}.xbar_rsp", x.link));
            }
        }
        for v in &dev.vaults {
            if v.rqst.iter().any(|e| e.packet.tag() == tag) {
                places.push(format!("dev{d}.vault{}.rqst", v.id));
            }
            if v.rsp.iter().any(|e| e.packet.tag() == tag) {
                places.push(format!("dev{d}.vault{}.rsp", v.id));
            }
        }
        for (class, quad, e) in dev.noc().into_iter().flat_map(|n| n.residents()) {
            if e.packet.tag() == tag {
                let plane = match class {
                    NocClass::Request => "rqst",
                    NocClass::Response => "rsp",
                };
                places.push(format!("dev{d}.noc.q{quad}.{plane}"));
            }
        }
    }
    if places.is_empty() {
        "(in flight between stages or delivered)".into()
    } else {
        places.join(", ")
    }
}

fn walk(sim: &mut HmcSim, label: &str, target_dev: u8, addr: u64) {
    println!("== {label}: read request to device {target_dev} ==");
    let tag = 42;
    let packet =
        Packet::request(Command::Rd(BlockSize::B64), target_dev, addr, tag, 0, &[]).unwrap();
    sim.send(0, 0, packet).unwrap();
    println!("  cycle {:>2}: injected  -> {}", sim.current_clock(), snapshot(sim, tag));
    // Long enough for a DDR activate + column access under `--timing ddr`.
    for _ in 0..64 {
        sim.clock().unwrap();
        let where_now = snapshot(sim, tag);
        println!("  cycle {:>2}: clocked   -> {where_now}", sim.current_clock());
        if let Ok(rsp) = sim.recv(0, 0) {
            println!(
                "  cycle {:>2}: delivered -> response tag {} ({} FLITs)\n",
                sim.current_clock(),
                rsp.tag(),
                rsp.lng()
            );
            return;
        }
    }
    println!("  (no response within 64 cycles)\n");
}

fn main() {
    let mut args = Args::from_env("figure3", "usage: figure3 [simulation axes]");
    while let Some(flag) = args.next_flag() {
        args.axis(&flag);
    }
    let params = args.params_over(SimParams::default());

    println!("Figure 3: sub-cycle clock stage schedule\n");
    println!("Stages per clock call (paper §IV.C):");
    println!("  1. child-device link crossbar transactions");
    println!("  2. root-device link crossbar request transactions");
    println!("  3. bank-conflict recognition on vault request queues");
    println!("  4. vault queue memory request processing");
    println!("  5. response registration (root devices, then children)");
    println!("  6. clock value update\n");

    // Single device: request resolves within one cycle's stage walk.
    let cfg = DeviceConfig::small();
    let mut sim = HmcSim::new(1, cfg.clone()).unwrap().with_params(params);
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    walk(&mut sim, "single device", 0, 0x40);

    // Two-device chain: the packet takes one chaining hop per cycle.
    let mut sim = HmcSim::new(2, cfg.clone()).unwrap().with_params(params);
    let host = sim.host_cube_id(0);
    topology::build_chain(&mut sim, host).unwrap();
    walk(&mut sim, "two-device chain", 1, 0x40);

    // A buffered fabric carries what crosses quads: link 0 fronts quad 0,
    // and 0x400 decodes to vault 8, in quad 2.
    if params.interconnect.kind != InterconnectKind::Crossbar {
        let mut sim = HmcSim::new(1, cfg).unwrap().with_params(params);
        let host = sim.host_cube_id(0);
        topology::build_simple(&mut sim, host).unwrap();
        walk(&mut sim, "single device, quad-2 vault", 0, 0x400);
    }
}
