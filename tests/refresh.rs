//! Periodic DRAM refresh (optional extension): banks rotate out of
//! service on a configurable schedule, costing throughput but never
//! correctness.

use hmc_sim::hmc_core::{topology, HmcSim, RefreshParams, SimParams, TimingParams};
use hmc_sim::hmc_host::{run_workload, Host, RunConfig};
use hmc_sim::hmc_trace::{EventKind, SharedSink, TraceRecord, Tracer, VecSink, Verbosity};
use hmc_sim::hmc_types::{BlockSize, Command, DeviceConfig, Packet, StorageMode, TimingKind};
use hmc_sim::hmc_workloads::RandomAccess;

fn sim_with(refresh: Option<RefreshParams>) -> HmcSim {
    let cfg = DeviceConfig::small()
        .with_queue_depths(32, 16)
        .with_storage_mode(StorageMode::TimingOnly);
    let mut s = HmcSim::new(1, cfg).unwrap().with_params(SimParams {
        refresh,
        ..SimParams::default()
    });
    let host = s.host_cube_id(0);
    topology::build_simple(&mut s, host).unwrap();
    s
}

#[test]
fn a_request_to_a_refreshing_bank_waits_out_the_window() {
    // Refresh window covers cycles 0..8 of every 16-cycle interval, and
    // at window 0 vault 0 refreshes bank 0. Address 0 targets exactly
    // vault 0 / bank 0 under the low-interleave map.
    let mut s = sim_with(Some(RefreshParams {
        interval: 16,
        duration: 8,
    }));
    let rd = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 1, 0, &[]).unwrap();
    s.send(0, 0, rd).unwrap();
    let mut delivered_at = None;
    for _ in 0..32 {
        s.clock().unwrap();
        if s.recv(0, 0).is_ok() {
            delivered_at = Some(s.current_clock());
            break;
        }
    }
    let t = delivered_at.expect("request completes after the window");
    assert!(
        t >= 8,
        "the bank was under refresh until cycle 8, delivery at {t}"
    );
}

#[test]
fn requests_to_other_banks_proceed_during_refresh() {
    let mut s = sim_with(Some(RefreshParams {
        interval: 1_000,
        duration: 1_000, // bank 0 of vault 0 is under refresh forever
    }));
    // Bank 1 of vault 0: block index = 16 (wraps vaults) → vault 0,
    // bank 1 under low interleave with 128-byte blocks.
    let rd = Packet::request(Command::Rd(BlockSize::B16), 0, 16 * 128, 1, 0, &[]).unwrap();
    s.send(0, 0, rd).unwrap();
    s.clock().unwrap();
    assert!(s.recv(0, 0).is_ok(), "unrefreshed banks stay in service");
}

#[test]
fn refresh_costs_throughput_but_not_correctness() {
    let run = |refresh: Option<RefreshParams>| {
        let mut s = sim_with(refresh);
        let host_id = s.host_cube_id(0);
        let mut host = Host::attach(&s, host_id).unwrap();
        let mut w = RandomAccess::new(1, 1 << 28, BlockSize::B64, 50, 5_000);
        run_workload(&mut s, &mut host, &mut w, RunConfig::default()).unwrap()
    };
    let clean = run(None);
    let refreshed = run(Some(RefreshParams {
        interval: 8,
        duration: 4, // half of every interval: one bank of eight down
    }));
    assert_eq!(clean.completed, 5_000);
    assert_eq!(refreshed.completed, 5_000, "refresh never drops requests");
    assert_eq!(refreshed.errors, 0);
    assert!(
        refreshed.cycles > clean.cycles,
        "refresh ({}) must cost cycles over the clean run ({})",
        refreshed.cycles,
        clean.cycles
    );
}

#[test]
fn refresh_pressure_scales_with_duty_cycle() {
    let run = |duration: u64| {
        let mut s = sim_with(Some(RefreshParams {
            interval: 16,
            duration,
        }));
        let host_id = s.host_cube_id(0);
        let mut host = Host::attach(&s, host_id).unwrap();
        let mut w = RandomAccess::new(2, 1 << 28, BlockSize::B64, 50, 5_000);
        run_workload(&mut s, &mut host, &mut w, RunConfig::default())
            .unwrap()
            .cycles
    };
    let light = run(2);
    let heavy = run(12);
    assert!(
        heavy > light,
        "75% duty ({heavy}) must cost more than 12.5% duty ({light})"
    );
}

/// A row conflict waiting out tRAS is held until `act_at + t_ras`; a
/// refresh window that opens on its bank first closes the row, and the
/// request then issues at the window's *end*. The fast-forward horizon
/// used to fold a refresh edge only for the bank under refresh at the
/// moment it looked, and jumped to the stale tRAS edge — one cycle late
/// wherever that edge fell past the window (`ReadComplete` at cycle 129
/// stepped, 130 batched).
#[test]
fn fast_forward_honours_a_refresh_window_that_closes_a_row_under_a_tras_wait() {
    // Vault 0 refreshes bank 3 in window 3, from cycle 3 * interval.
    const BANK: u64 = 3;
    // Two reads to rows 0 and 64 of that bank, sent `lead` cycles in.
    // Batched (`clock_batch`, which may jump) or one `clock()` a cycle.
    let run = |refresh: RefreshParams, lead: u64, batched: bool| -> Vec<TraceRecord> {
        let advance = |s: &mut HmcSim, n: u64| {
            if batched {
                s.clock_batch(n).unwrap();
            } else {
                (0..n).for_each(|_| s.clock().unwrap());
            }
        };
        let cfg = DeviceConfig::small().with_storage_mode(StorageMode::TimingOnly);
        let mut s = HmcSim::new(1, cfg).unwrap().with_params(SimParams {
            refresh: Some(refresh),
            timing: TimingParams::of(TimingKind::Ddr),
            ..SimParams::default()
        });
        let host = s.host_cube_id(0);
        topology::build_simple(&mut s, host).unwrap();
        let sink = SharedSink::new(VecSink::default());
        s.set_tracer(Tracer::new(Verbosity::Full, Box::new(sink.clone())));
        advance(&mut s, lead);
        for (tag, row) in [(1u16, 0u64), (2, 64)] {
            let addr = row << 16 | BANK << 11;
            let rd = Packet::request(Command::Rd(BlockSize::B64), 0, addr, tag, 0, &[]);
            s.send(0, 0, rd.unwrap()).unwrap();
        }
        advance(&mut s, 120);
        let records = std::mem::take(&mut sink.0.lock().records);
        let is_read = |r: &&TraceRecord| r.event.kind() == EventKind::ReadComplete;
        assert_eq!(records.iter().filter(is_read).count(), 2, "{records:?}");
        records
    };
    // Every phase from a cold start to just past the window's opening:
    // the pair meets the window before, during and after its tRAS wait.
    let mut differing = Vec::new();
    for interval in [16, 20, 24, 32, 40, 50, 64] {
        for duration in [1, 2, 3, 5, 8] {
            let refresh = RefreshParams { interval, duration };
            for lead in 0..BANK * interval + 8 {
                if run(refresh, lead, false) != run(refresh, lead, true) {
                    differing.push((interval, duration, lead));
                }
            }
        }
    }
    assert_eq!(
        differing.len(),
        0,
        "batched diverged from stepped at (interval, duration, lead) {:?} …",
        &differing[..differing.len().min(8)]
    );
}
