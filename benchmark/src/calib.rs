//! Machine-speed calibration.
//!
//! The sandboxes this benchmark runs in drift: the same binary on the
//! same input runs 10–30 % faster or slower for minutes at a time as
//! neighbours on the physical host come and go. Medians over the reps
//! of one run cannot remove a drift slower than the run. So every timed
//! rep is bracketed by a fixed, benchmark-owned kernel — integer work,
//! data-dependent branches and a random walk over a cache-resident
//! table, the simulator's instruction mix in miniature — and host times
//! are divided by how much slower than nominal the kernel ran just then.
//! The kernel shares no code with the simulator, so a change to the
//! simulator cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Words in the walked table (128 KiB: beyond L1, well inside L2).
const TABLE_WORDS: usize = 1 << 14;
/// Steps per calibration (about 5 ms on the reference host).
const STEPS: u32 = 600_000;
/// Nanoseconds one calibration takes on the reference host (the 2-core
/// Xeon @ 2.10 GHz sandbox, in its usual state); host-time metrics are
/// expressed in this machine's seconds.
pub const NOMINAL_NS: f64 = 5_000_000.0;

/// The calibration kernel's state; build once per process.
pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    /// Fill the table from a fixed xorshift stream.
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibrator { table }
    }

    /// Run the kernel once; returns its host time in nanoseconds.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mask = TABLE_WORDS - 1;
        let mut i = 0usize;
        let mut acc = 0u64;
        for step in 0..STEPS {
            let v = self.table[i];
            // A data-dependent branch and a read-modify-write, then hop.
            if v & 1 == 0 {
                acc = acc.wrapping_add(v >> 3);
            } else {
                acc ^= v.rotate_left(step & 31);
            }
            self.table[i] = v.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(acc);
            i = (v >> 17) as usize & mask;
        }
        black_box(acc);
        t.elapsed().as_nanos() as f64
    }
}
