//! Microbenchmarks of the memory substrate, driven as the vault
//! controller drives it: 64-byte `Bank` reads and writes and GUPS dual
//! adds, on rows that are new, resident or never touched.
//!
//! One iteration is a batch of [`BATCH`] calls (the report's `elem/s` is
//! calls per second). The spread cases take a new row every call, [`STRIDE`]
//! rows on from the last; the whole run makes fewer calls than the bank has
//! rows, so no row repeats.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hmc_mem::Bank;
use hmc_types::config::StorageMode;

const BATCH: u64 = 1024;
const BLOCK: u32 = 128;
/// A 64 MiB bank.
const ROWS: u64 = (64 << 20) / BLOCK as u64;
/// Odd, so a walk visits every row; 33 rows are 4,224 bytes, so
/// neighbouring calls never share a 4 KiB page either — the case the
/// paged store's `write_64B_page_spread` measured.
const STRIDE: u64 = 33;

fn new_bank(mode: StorageMode) -> Bank {
    Bank::new(ROWS, BLOCK, mode)
}

fn bench_bank(c: &mut Criterion) {
    let mut g = c.benchmark_group("bank");
    g.throughput(Throughput::Elements(BATCH));
    let data = [0xa5u8; 64];

    for (name, mode) in [
        ("write_64B_row_spread", StorageMode::Functional),
        ("write_64B_timing_only", StorageMode::TimingOnly),
    ] {
        let mut bank = new_bank(mode);
        let mut row = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    row = (row + STRIDE) % ROWS;
                    bank.write(black_box(row), 0, &data).unwrap();
                }
            })
        });
    }
    {
        let mut bank = new_bank(StorageMode::Functional);
        let mut offset = 0u32;
        g.bench_function("write_64B_hot_row", |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    offset ^= 64;
                    bank.write(black_box(7), offset, &data).unwrap();
                }
            })
        });
    }
    {
        // Every STRIDE-th row of the first RESIDENT strides holds data; the
        // rows between them were never touched.
        const RESIDENT: u64 = 4096;
        let mut bank = new_bank(StorageMode::Functional);
        for i in 0..RESIDENT {
            bank.write(i * STRIDE, 0, &[1u8; BLOCK as usize]).unwrap();
        }
        let mut row = 0u64;
        let mut buf = [0u8; 64];
        g.bench_function("read_64B_resident", |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    row = (row + 1) % RESIDENT;
                    bank.read(black_box(row * STRIDE), 64, &mut buf).unwrap();
                }
            })
        });
        g.bench_function("read_64B_untouched", |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    row = (row + 1) % RESIDENT;
                    bank.read(black_box(row * STRIDE + 1), 64, &mut buf)
                        .unwrap();
                }
            })
        });
    }
    {
        let mut bank = new_bank(StorageMode::Functional);
        let mut row = 0u64;
        g.bench_function("two_add8_spread", |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    row = (row + STRIDE) % ROWS;
                    black_box(bank.two_add8(black_box(row), 16, 3, 5).unwrap());
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_bank);
criterion_main!(benches);
