//! Sharded clock engine scaling: wall-clock cost of a saturated
//! simulation batch as the worker-thread count sweeps 1, 2, 4, 8.
//!
//! Every thread count simulates the identical cycle stream (the engine
//! is bit-identical by construction; `tests/parallel_determinism.rs`
//! asserts it), so the groups are directly comparable. The parallel
//! engine amortizes its worker start-up over a batch, so the measured
//! unit is `clock_batch(BATCH)` on a device kept saturated by a
//! random-access host loop between batches.
//!
//! Speedup depends on the machine's core count — on a single-core
//! container every thread count degenerates to roughly serial cost plus
//! hand-off overhead; see EXPERIMENTS.md for recorded numbers.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hmc_bench::harness::{paper_setup, SetupOptions};
use hmc_types::{BlockSize, DeviceConfig};
use hmc_workloads::{RandomAccess, Workload};

/// Cycles per measured batch. Large enough to amortize the per-batch
/// worker spawn (~tens of microseconds per thread) far below the vault
/// work it parallelizes.
const BATCH: u64 = 64;

fn bench_thread_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("clock_parallel/8link_16bank");
    g.sample_size(20);
    g.throughput(Throughput::Elements(BATCH));
    for threads in [1usize, 2, 4, 8] {
        let (sim, mut host) =
            paper_setup(DeviceConfig::paper_8link_16bank_8gb(), SetupOptions::default(), None);
        let mut sim = sim.with_threads(threads);
        let mut workload = RandomAccess::new(1, 2 << 30, BlockSize::B64, 50, u64::MAX / 2);
        g.bench_function(format!("threads_{threads}"), |b| {
            b.iter_batched(
                || (),
                |()| {
                    // Saturate, batch-clock, drain — the §VI.A harness
                    // loop with the clock calls batched.
                    loop {
                        let op = workload.next_op().expect("endless workload");
                        if !host.try_issue(&mut sim, 0, &op).unwrap() {
                            break;
                        }
                    }
                    sim.clock_batch(BATCH).unwrap();
                    host.drain(&mut sim).unwrap();
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_thread_sweep);
criterion_main!(benches);
