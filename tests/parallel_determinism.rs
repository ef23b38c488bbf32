//! The sharded clock engine must be bit-identical to the serial engine:
//! same completion cycle for every response, same response tag/payload
//! streams on every link, same per-category trace-event counts. These
//! tests drive identical seeded workloads through `threads = 1` and
//! `threads = 4` simulations and compare everything observable.

use hmc_sim::hmc_core::{topology, HmcSim};
use hmc_sim::hmc_trace::{CountingSink, EventKind, SharedSink, Tracer, Verbosity};
use hmc_sim::hmc_types::{BlockSize, Command, DeviceConfig, LinkFaultConfig, Packet};

/// One observed response: delivery cycle, link, tag, first payload word.
type Observation = (u64, u8, u16, u64);

/// Everything [`run`] observes: the response stream, per-kind trace-event
/// counts, and the completion cycle.
type RunResult = (Vec<Observation>, Vec<u64>, u64);

/// A deterministic glibc-style LCG — the workload generator for these
/// tests, kept local so the op stream can never drift under us.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// Drive `requests` mixed reads/writes through one device of `cfg` with
/// the given thread count; record every response in delivery order plus
/// the per-kind trace-event counts and final cycle/statistics.
fn run(cfg: DeviceConfig, threads: usize, requests: u64, seed: u64) -> RunResult {
    run_with_faults(cfg, threads, requests, seed, None).0
}

/// [`run`], optionally with link-error injection armed; also returns the
/// fault statistics `(injected, detected, poisoned)` for determinism
/// comparison.
fn run_with_faults(
    cfg: DeviceConfig,
    threads: usize,
    requests: u64,
    seed: u64,
    faults: Option<LinkFaultConfig>,
) -> (RunResult, (u64, u64, u64)) {
    let mut sim = HmcSim::new(1, cfg)
        .unwrap()
        .with_threads(threads)
        .with_link_faults(faults);
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    let counting = SharedSink::new(CountingSink::default());
    sim.set_tracer(Tracer::new(Verbosity::Full, Box::new(counting.clone())));

    let num_links = sim.config().num_links;
    let capacity = sim.config().capacity_bytes;
    let mut rng = Lcg(seed);
    let mut observations = Vec::new();
    let mut sent = 0u64;
    let mut received = 0u64;
    let mut next_tag: u16 = 1;

    while received < requests {
        // Inject round-robin across links until back-pressure or done.
        if sent < requests {
            'inject: for link in 0..num_links {
                loop {
                    if sent >= requests {
                        break 'inject;
                    }
                    let addr = (rng.next() % (capacity / 64)) * 64;
                    let tag = next_tag;
                    let write = rng.next().is_multiple_of(2);
                    let packet = if write {
                        let mut data = [0u8; 64];
                        data[..8].copy_from_slice(&rng.next().to_le_bytes());
                        Packet::request(Command::Wr(BlockSize::B64), 0, addr, tag, link, &data)
                            .unwrap()
                    } else {
                        Packet::request(Command::Rd(BlockSize::B64), 0, addr, tag, link, &[])
                            .unwrap()
                    };
                    match sim.send(0, link, packet) {
                        Ok(()) => {
                            sent += 1;
                            next_tag = if next_tag >= 0x1ff { 1 } else { next_tag + 1 };
                        }
                        Err(e) if e.is_stall() => break,
                        Err(e) => panic!("send failed: {e}"),
                    }
                }
            }
        }

        sim.clock().unwrap();

        for link in 0..num_links {
            while let Ok(p) = sim.recv(0, link) {
                let word = p.data_words().first().copied().unwrap_or(0);
                observations.push((sim.current_clock(), link, p.tag(), word));
                received += 1;
            }
        }
        assert!(
            sim.current_clock() < 1_000_000,
            "workload did not converge ({received}/{requests} responses)"
        );
    }

    let fault_stats = sim
        .fault_state()
        .map_or((0, 0, 0), |f| (f.injected, f.detected, f.poisoned));
    let counters = &counting.0.lock().counters;
    let counts: Vec<u64> = EventKind::ALL.iter().map(|&k| counters.get(k)).collect();
    (
        (observations, counts, sim.current_clock()),
        fault_stats,
    )
}

fn assert_bit_identical(cfg: DeviceConfig, requests: u64, seed: u64) {
    let (obs_serial, counts_serial, cycles_serial) = run(cfg.clone(), 1, requests, seed);
    let (obs_parallel, counts_parallel, cycles_parallel) = run(cfg, 4, requests, seed);

    assert_eq!(
        cycles_serial, cycles_parallel,
        "completion cycle counts diverge between serial and sharded engines"
    );
    for (i, &kind) in EventKind::ALL.iter().enumerate() {
        assert_eq!(
            counts_serial[i], counts_parallel[i],
            "{kind:?} trace-event counts diverge"
        );
    }
    assert_eq!(
        obs_serial.len(),
        obs_parallel.len(),
        "response counts diverge"
    );
    for (a, b) in obs_serial.iter().zip(&obs_parallel) {
        assert_eq!(a, b, "response stream diverges (cycle, link, tag, payload)");
    }
}

#[test]
fn small_config_is_bit_identical_across_threads() {
    assert_bit_identical(DeviceConfig::small(), 2_000, 0xD15EA5E);
}

#[test]
fn paper_4link_8bank_is_bit_identical_across_threads() {
    assert_bit_identical(DeviceConfig::paper_4link_8bank_2gb(), 2_000, 42);
}

#[test]
fn fault_injection_is_bit_identical_across_one_two_four_eight_threads() {
    // Error injection adds a second seeded random stream (the SERDES
    // corruption rolls) and the retry/retransmission timing path; all of
    // it must stay on the deterministic serial schedule regardless of
    // shard count. Compare full observable state across 1/2/4/8 threads.
    let faults = LinkFaultConfig {
        error_rate_ppm: 20_000,
        retry_cycles: 6,
        seed: 0xFA_0175,
        ..LinkFaultConfig::default()
    };
    let cfg = DeviceConfig::small();
    let (reference, ref_faults) =
        run_with_faults(cfg.clone(), 1, 1_500, 0xACC01ADE, Some(faults));
    assert!(
        ref_faults.0 > 0 && ref_faults.1 > 0,
        "the error rate must actually inject and detect corruptions \
         (injected {}, detected {})",
        ref_faults.0,
        ref_faults.1
    );
    for threads in [2, 4, 8] {
        let (run, fault_stats) =
            run_with_faults(cfg.clone(), threads, 1_500, 0xACC01ADE, Some(faults));
        assert_eq!(
            fault_stats, ref_faults,
            "{threads}-thread injected/detected counters diverge from serial"
        );
        assert_eq!(
            run.2, reference.2,
            "{threads}-thread completion cycle diverges from serial"
        );
        assert_eq!(
            run.0, reference.0,
            "{threads}-thread response stream diverges from serial"
        );
        assert_eq!(
            run.1, reference.1,
            "{threads}-thread trace-event counts diverge from serial"
        );
    }
}

#[test]
fn retry_exhaustion_is_bit_identical_across_threads() {
    // Same contract as above, but with a retry budget tight enough that
    // links actually go down: the exhaustion aborts, poisoned error
    // responses, and retraining windows must all land on the identical
    // cycles regardless of shard count.
    let faults = LinkFaultConfig {
        error_rate_ppm: 300_000,
        retry_cycles: 5,
        retry_limit: 1,
        retrain_cycles: 24,
        seed: 0x0015_04ED,
    };
    let cfg = DeviceConfig::small();
    let (reference, ref_faults) =
        run_with_faults(cfg.clone(), 1, 1_000, 0x0BAD_C0DE, Some(faults));
    assert!(
        ref_faults.2 > 0,
        "the tight retry budget must actually poison packets (poisoned {})",
        ref_faults.2
    );
    for threads in [2, 4, 8] {
        let (run, fault_stats) =
            run_with_faults(cfg.clone(), threads, 1_000, 0x0BAD_C0DE, Some(faults));
        assert_eq!(
            fault_stats, ref_faults,
            "{threads}-thread injected/detected/poisoned counters diverge"
        );
        assert_eq!(
            (run.2, &run.0, &run.1),
            (reference.2, &reference.0, &reference.1),
            "{threads}-thread observable state diverges from serial"
        );
    }
}

#[test]
fn clock_batch_matches_per_cycle_clocking() {
    // Batched parallel clocking must equal cycle-at-a-time serial
    // clocking on an idle-then-loaded device.
    let build = |threads: usize| {
        let mut sim = HmcSim::new(1, DeviceConfig::small()).unwrap().with_threads(threads);
        let host = sim.host_cube_id(0);
        topology::build_simple(&mut sim, host).unwrap();
        let p = Packet::request(Command::Rd(BlockSize::B64), 0, 0x40, 7, 0, &[]).unwrap();
        sim.send(0, 0, p).unwrap();
        sim
    };
    let mut serial = build(1);
    for _ in 0..16 {
        serial.clock().unwrap();
    }
    let mut batched = build(4);
    batched.clock_batch(16).unwrap();
    assert_eq!(serial.current_clock(), batched.current_clock());
    let a = serial.recv(0, 0).unwrap();
    let b = batched.recv(0, 0).unwrap();
    assert_eq!(a.tag(), b.tag());
    assert_eq!(a.data_words(), b.data_words());
}
