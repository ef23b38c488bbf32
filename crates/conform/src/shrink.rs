//! Failure shrinking and reproduction files.
//!
//! When a fuzz stream fails, the raw stream is rarely the story — a
//! 48-operation case usually fails because of two or three operations
//! in it. [`shrink_case`] runs a ddmin-style delta debug: repeatedly
//! try dropping chunks of the stream, keeping any reduced stream that
//! still fails, down to chunk size one. Shrinking is deterministic
//! (the failure predicate is a full engine run, itself deterministic)
//! and sound under payload reindexing because the seeded corruption —
//! the usual failure source in checker-of-the-checker tests — is
//! keyed by *address*, not by stream position.
//!
//! The minimal stream is written with [`write_repro`] in the
//! `hmc_workloads::Replay` CSV dialect (`kind,addr,size`), so
//! `Replay::read_csv` + the printed `(preset, map, seed)` triple
//! reproduce the failure exactly. [`CampaignReport::shrink_failure`]
//! is the one path from a failed campaign to that file.

use std::io::Write as _;
use std::path::Path;

use hmc_workloads::Replay;

use crate::fuzz::CampaignReport;
use crate::harness::{run_case, Failure, FuzzCase};

/// The outcome of shrinking a failing case.
#[derive(Debug, Clone)]
pub struct ShrinkReport {
    /// The minimal failing case.
    pub minimal: FuzzCase,
    /// The failure the minimal case still produces.
    pub failure: Failure,
    /// Operations in the original failing stream.
    pub original_len: usize,
    /// Engine runs spent shrinking.
    pub runs: usize,
}

/// ddmin over the operation stream: drop chunks, halving the chunk
/// size whenever no chunk can be dropped, until single operations are
/// irremovable. The input case must fail; panics otherwise.
pub fn shrink_case(case: &FuzzCase) -> ShrinkReport {
    let mut failure = run_case(case).expect_err("shrink_case needs a failing case");
    let original_len = case.ops.len();
    let mut current = case.clone();
    let mut runs = 1usize;
    let mut chunk = (current.ops.len() / 2).max(1);

    loop {
        let mut progressed = false;
        let mut start = 0;
        while start < current.ops.len() && current.ops.len() > 1 {
            let end = (start + chunk).min(current.ops.len());
            let mut candidate = current.clone();
            candidate.ops.drain(start..end);
            if candidate.ops.is_empty() {
                start = end;
                continue;
            }
            runs += 1;
            match run_case(&candidate) {
                Err(f) => {
                    current = candidate;
                    failure = f;
                    progressed = true;
                    // Re-test from the same index: the stream shifted.
                }
                Ok(_) => start = end,
            }
        }
        if chunk == 1 && !progressed {
            break;
        }
        if !progressed {
            chunk = (chunk / 2).max(1);
        }
    }

    ShrinkReport {
        minimal: current,
        failure,
        original_len,
        runs,
    }
}

impl CampaignReport {
    /// If a stream diverged: describe it, shrink it and write the
    /// minimal repro to `path`, handing each line of that account to
    /// `log` as it happens (shrinking takes up to a few hundred runs).
    /// Returns whether a stream diverged.
    pub fn shrink_failure(&self, path: &Path, mut log: impl FnMut(String)) -> bool {
        let Some((case, failure)) = &self.failure else {
            return false;
        };
        log(format!(
            "FAIL on stream {} ({}, {} map, seed {:#x}, {} timing, {} fabric): {failure}",
            self.streams_run - 1,
            case.label,
            case.map.name(),
            case.seed,
            case.params.timing.kind.name(),
            case.params.interconnect.kind.name(),
        ));
        log("shrinking…".to_string());
        let shrunk = shrink_case(case);
        log(match write_repro(&shrunk.minimal, &shrunk.failure, path) {
            Ok(()) => format!(
                "minimal repro: {} of {} ops ({} runs) -> {}",
                shrunk.minimal.ops.len(),
                shrunk.original_len,
                shrunk.runs,
                path.display()
            ),
            Err(e) => format!("could not write repro file: {e}"),
        });
        true
    }
}

/// Write a reproduction file for a (typically minimal) failing case:
/// the `Replay` CSV trace with a `#`-prefixed preamble recording the
/// preset, map, seed, and failure — everything needed to re-run it.
pub fn write_repro(case: &FuzzCase, failure: &Failure, path: &Path) -> std::io::Result<()> {
    let mut out = Vec::new();
    writeln!(out, "# hmc-conform reproduction")?;
    writeln!(out, "# preset: {}", case.label)?;
    writeln!(out, "# map: {}", case.map.name())?;
    writeln!(out, "# seed: {:#x}", case.seed)?;
    let params = &case.params;
    writeln!(out, "# timing: {}", params.timing.kind.name())?;
    writeln!(
        out,
        "# interconnect: {} ({} arbitration)",
        params.interconnect.kind.name(),
        params.interconnect.arbitration.name()
    )?;
    writeln!(out, "# batched axis: {}", case.batched)?;
    if case.gap_every > 0 {
        writeln!(
            out,
            "# idle gaps: {} cycles every {} rounds",
            case.gap_cycles, case.gap_every
        )?;
    }
    if let Some(c) = case.corrupt {
        writeln!(out, "# corrupt: addr={:#x} xor={:#x}", c.addr, c.xor)?;
    }
    if let Some(f) = params.cell_faults {
        writeln!(
            out,
            "# cell-faults: threshold={} flip={}ppm retention={} window={} \
             mitigation={} seed={:#x}",
            f.hammer_threshold,
            f.flip_prob_ppm,
            f.retention_cycles,
            f.refresh_window,
            f.mitigation.name(),
            f.seed
        )?;
    }
    if let Some(f) = params.link_faults {
        writeln!(
            out,
            "# link-faults: rate={}ppm retry-limit={} retry={} retrain={} seed={:#x}",
            f.error_rate_ppm, f.retry_limit, f.retry_cycles, f.retrain_cycles, f.seed
        )?;
    }
    if let Some(b) = case.barrier {
        writeln!(out, "# drain barrier before op: {b}")?;
    }
    writeln!(out, "# failure: {failure}")?;
    Replay::new(case.ops.clone()).write_csv(&mut out)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::CorruptSpec;
    use crate::fuzz::{gen_stream, MapKind};
    use hmc_types::DeviceConfig;
    use hmc_workloads::OpKind;
    use std::io::BufReader;

    /// A corrupted write followed by a read of the same block is the
    /// canonical injected failure; shrinking must reduce an oversized
    /// stream to (essentially) that pair.
    /// First address in `ops` that is written and later read back.
    fn write_read_collision(ops: &[hmc_workloads::MemOp]) -> Option<u64> {
        ops.iter().enumerate().find_map(|(i, o)| {
            (matches!(o.kind, OpKind::Write | OpKind::PostedWrite)
                && ops[i + 1..]
                    .iter()
                    .any(|r| r.kind == OpKind::Read && r.addr == o.addr))
            .then_some(o.addr)
        })
    }

    #[test]
    fn shrinks_a_seeded_corruption_to_a_minimal_pair() {
        let device = DeviceConfig::small();
        // Deterministically pick the first seed whose stream contains a
        // write->read collision for the corruption to surface through.
        let (seed, ops, addr) = (0u64..64)
            .find_map(|seed| {
                let ops = gen_stream(seed, 40, &device);
                write_read_collision(&ops).map(|addr| (seed, ops, addr))
            })
            .expect("some small seed yields a W->R pair in 40 ops");
        let mut case = FuzzCase::new("small", device, MapKind::LowInterleave, seed, ops);
        case.corrupt = Some(CorruptSpec { addr, xor: 0xdead_beef });

        let report = shrink_case(&case);
        assert!(report.minimal.ops.len() <= 4, "minimal repro, got {} ops", report.minimal.ops.len());
        assert!(report.minimal.ops.len() >= 2, "needs the write and the read");
        assert!(report.minimal.ops.len() < report.original_len);
        // The minimal case still fails, with the same failure class.
        assert!(run_case(&report.minimal).is_err());
        assert!(report.failure.description.contains("mismatch"), "{}", report.failure);
    }

    #[test]
    fn repro_files_round_trip_through_replay() {
        let device = DeviceConfig::small();
        let ops = gen_stream(3, 8, &device);
        let case = FuzzCase::new("small", device, MapKind::Linear, 3, ops.clone());
        let failure = Failure { description: "synthetic".into() };
        let path = std::env::temp_dir().join("hmc_conform_repro_test.csv");
        write_repro(&case, &failure, &path).unwrap();
        let text = std::fs::read(&path).unwrap();
        let replay = Replay::read_csv(BufReader::new(&text[..])).unwrap();
        assert_eq!(replay.len(), ops.len());
        std::fs::remove_file(&path).ok();
    }
}
