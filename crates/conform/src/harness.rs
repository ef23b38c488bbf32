//! The differential conformance harness.
//!
//! Runs one fuzz case — a seeded operation stream against one device
//! preset and one address map — through the engine stepped (one
//! `clock()` per cycle) and, when the case arms the axis, again batched
//! (`clock_batch`, which jumps what the fast-forward horizon proves
//! dead), with the protocol invariant checker armed and the functional
//! [`Oracle`] checking every response.
//! Cases may also clock seeded idle gaps mid-stream, which is where a
//! batch actually jumps. A case passes only when every
//! engine run is internally clean (oracle agreement, zero invariant
//! violations, full quiesce with link tokens back at their initial
//! allotment) and all runs produce bit-identical observation streams.

use hmc_core::fault::predicts_poison;
use hmc_core::{decode_response, topology, HmcSim, SimParams};
use hmc_host::{Pending, TagPool};
use hmc_types::{Cycle, DeviceConfig, HmcError, LinkId, Packet};
use hmc_workloads::{MemOp, OpKind};

use crate::fuzz::{Lcg, MapKind};
use crate::oracle::Oracle;

/// Tag value reserved for posted (no-response) requests.
const POSTED_TAG: u16 = 0x1ff;

/// The link that owns a physical address under the fuzzer's
/// block-ownership discipline: block index modulo the link count.
/// Confining each block to one link makes per-block completion order
/// total (§III.C stream ordering), which is what lets the oracle be
/// exact. See the crate docs.
pub fn owner_link(addr: u64, block_bytes: u64, num_links: u8) -> LinkId {
    ((addr / block_bytes) % num_links as u64) as LinkId
}

/// A deliberate payload corruption, keyed by address so it survives
/// shrinking: every write-class operation targeting `addr` has its
/// first payload word XORed with `xor` *after* the oracle has seen the
/// clean data. The packet is then sealed normally (valid CRC), so the
/// corruption models a silent datapath fault the oracle must catch on
/// the next read of that block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptSpec {
    /// Target address whose writes are corrupted.
    pub addr: u64,
    /// XOR pattern applied to the first 8 payload bytes.
    pub xor: u64,
}

/// One self-contained fuzz case.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Human-readable preset label (diagnostics only).
    pub label: String,
    /// Device preset under test.
    pub config: DeviceConfig,
    /// Address map under test.
    pub map: MapKind,
    /// Stream seed — payloads derive from it deterministically.
    pub seed: u64,
    /// The operation stream.
    pub ops: Vec<MemOp>,
    /// Optional seeded corruption (conformance-of-the-checker tests).
    pub corrupt: Option<CorruptSpec>,
    /// Also run the case batched and demand observations bit-identical
    /// to the stepped run (the stepped-vs-batched axis).
    pub batched: bool,
    /// Clock an idle gap every this many injection rounds (0 = no
    /// gaps). Gaps are part of the case, so every engine run executes
    /// the identical gap schedule; they exist to push the batched run
    /// through real jumps mid-stream.
    pub gap_every: u64,
    /// Length of each injected idle gap in cycles.
    pub gap_cycles: u64,
    /// The simulation axes every engine run uses — timing backend,
    /// fabric, fault blocks and the rest — except `check_invariants`,
    /// which the harness sets. Defaults keep pinned-seed campaigns from
    /// before each axis existed on their exact behaviour. One case runs
    /// one backend and one fabric (cycle counts are only comparable
    /// within them); the cross-axis runner is [`run_case_across`]. Fault
    /// decisions are stateless hashes, so an armed fault stream is part
    /// of the case: every engine run must reproduce it bit-identically,
    /// and for link faults the harness mirrors each link's send counter and calls
    /// [`hmc_core::fault::predicts_poison`] at issue time, so the oracle
    /// knows the exact poisoned tag set before the engine does.
    pub params: SimParams,
    /// Drain barrier: before issuing the op at this index, injection
    /// pauses until every outstanding response has returned. Hammer
    /// cases place it between the hammer burst and the victim
    /// read-back, so read-back is globally ordered after every flip.
    pub barrier: Option<usize>,
}

impl FuzzCase {
    /// A case over `ops` with the batched axis armed, no gaps and no
    /// corruption.
    pub fn new(label: &str, config: DeviceConfig, map: MapKind, seed: u64, ops: Vec<MemOp>) -> Self {
        FuzzCase {
            label: label.to_string(),
            config,
            map,
            seed,
            ops,
            corrupt: None,
            batched: true,
            gap_every: 0,
            gap_cycles: 0,
            params: SimParams::default(),
            barrier: None,
        }
    }

    /// The same case under other simulation axes (builder style).
    pub fn with_params(mut self, params: SimParams) -> Self {
        self.params = params;
        self
    }
}

/// One completion observed at a host link: `(op index, cycle, link,
/// first response data word)`. Bit-identical across engines by the
/// determinism contract.
pub type Observation = (u32, Cycle, LinkId, u64);

/// The result of one engine run of a case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineRun {
    /// Completions in delivery order.
    pub observations: Vec<Observation>,
    /// Cycles from first injection to quiesce.
    pub cycles: Cycle,
    /// Cell-fault counters at quiesce: `[hammer activations, bit
    /// flips, TRR refreshes, retention decays]`. All zero when the
    /// fault axis is off; when armed, part of the cross-engine
    /// comparison — the fault stream itself must be bit-identical
    /// across the stepped and batched runs.
    pub fault_stats: [u64; 4],
    /// Link-retry counters at quiesce: `[retries, retrains, poisoned
    /// responses]`. All zero when link errors are off; when armed, part
    /// of the cross-engine comparison.
    pub link_stats: [u64; 3],
    /// Op indices (sorted) whose response came back poisoned — exactly
    /// the set [`hmc_core::fault::predicts_poison`] predicted at issue
    /// time, compared bit-for-bit across the stepped and batched runs.
    pub poisoned: Vec<u32>,
}

/// Oracle mismatches tolerated (and tallied) by a lenient engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MismatchTally {
    /// Read responses whose data diverged from the oracle.
    pub responses: u64,
    /// Total bits by which those responses diverged.
    pub bits: u64,
}

/// The result of a full (stepped and batched) case run.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The stepped run (the reference).
    pub reference: EngineRun,
    /// Responses checked by the oracle in the reference run.
    pub checked: u64,
}

/// A conformance failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Human-readable description: which run failed or diverged (engine
    /// mode, timing backend, fabric) and how.
    pub description: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.description)
    }
}

/// Deterministic payload bytes for operation `idx` of a `seed` stream.
/// Shared by the engine packet builder and the oracle — and by replay
/// reruns, which is why it depends only on `(seed, idx)`.
pub fn payload_for(seed: u64, idx: usize, len: usize) -> Vec<u8> {
    let mut lcg = Lcg::new(seed ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (0..len).map(|_| lcg.next_u64() as u8).collect()
}

fn is_write_class(kind: OpKind) -> bool {
    matches!(kind, OpKind::Write | OpKind::PostedWrite)
}

/// Human-readable clocking for failure messages.
pub fn mode_name(batched: bool) -> &'static str {
    if batched {
        "batched"
    } else {
        "stepped"
    }
}

/// Run one case, stepped or batched. Internally checks the oracle on
/// every response, the invariant checker every cycle, and full quiesce
/// at the end. A `lenient` run tolerates and tallies oracle read-data
/// mismatches instead of failing: the detection mode for unmitigated
/// cell-fault cases, where corrupted read data is exactly what the case
/// exists to observe.
fn run_engine(
    case: &FuzzCase,
    batched: bool,
    lenient: bool,
) -> Result<(EngineRun, MismatchTally), Failure> {
    let timing = case.params.timing.kind;
    let fabric = case.params.interconnect.kind;
    let fail = |description: String| Failure {
        description: format!(
            "[{} mode, {} timing, {} fabric] {description}",
            mode_name(batched),
            timing.name(),
            fabric.name(),
        ),
    };

    let mut sim = HmcSim::new(1, case.config.clone())
        .map_err(|e| fail(format!("sim construction: {e}")))?
        .with_params(SimParams {
            check_invariants: true,
            ..case.params
        });
    sim.set_address_map(case.map.make(case.config.geometry()))
        .map_err(|e| fail(format!("address map: {e}")))?;
    let host_id = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host_id).map_err(|e| fail(format!("topology: {e}")))?;

    let block = case.config.block_size.bytes() as u64;
    let links = case.config.num_links;
    // Mirror of each link's monotonic send counter. The engine stamps
    // the same sequence onto accepted packets (stalled sends consume
    // nothing), so `predicts_poison` over (link, seq) tells the oracle
    // at issue time which packets the retry protocol will abandon.
    let link_fault_cfg = case.params.link_faults;
    let mut send_seq = vec![0u64; links as usize];
    let mut poisoned_ops = Vec::new();
    let mut tags = TagPool::new();
    let mut tag_op = [u32::MAX; 512];
    let mut oracle = Oracle::new();
    let mut observations = Vec::with_capacity(case.ops.len());
    let mut next = 0usize;
    let start = sim.current_clock();
    // Generous deadlock guard: streams quiesce in a few thousand cycles.
    // Injected idle gaps are batch-clocked and accounted separately so
    // they never trip the guard.
    let max_cycles = 50_000 + 50 * case.ops.len() as u64;
    let mut round = 0u64;
    let mut gap_total = 0u64;
    let mut tally = MismatchTally::default();

    loop {
        // Strict in-order injection until the owner link stalls: the
        // ownership discipline forbids falling back to another link.
        while next < case.ops.len() {
            if case.barrier == Some(next) && tags.outstanding() > 0 {
                break; // drain barrier: everything in flight completes first
            }
            let op = case.ops[next];
            let link = owner_link(op.addr, block, links);
            let tag = if op.expects_response() {
                match tags.alloc(Pending {
                    addr: op.addr,
                    cmd: op.command(),
                    issue_cycle: sim.current_clock(),
                    dev: 0,
                    link,
                }) {
                    Some(t) => t,
                    None => break, // all 512 tags in flight
                }
            } else {
                POSTED_TAG
            };
            let payload = payload_for(case.seed, next, op.payload_bytes());
            let mut wire = payload.clone();
            if let Some(c) = case.corrupt {
                if c.addr == op.addr && is_write_class(op.kind) && wire.len() >= 8 {
                    let word = u64::from_le_bytes(wire[..8].try_into().unwrap()) ^ c.xor;
                    wire[..8].copy_from_slice(&word.to_le_bytes());
                }
            }
            let packet = Packet::request(op.command(), 0, op.addr, tag, link, &wire)
                .map_err(|e| fail(format!("op #{next}: packet build: {e}")))?;
            match sim.send(0, link, packet) {
                Ok(()) => {
                    let t = op.expects_response().then_some(tag);
                    if let Some(t) = t {
                        tag_op[t as usize] = next as u32;
                    }
                    let doomed = link_fault_cfg.as_ref().is_some_and(|fc| {
                        predicts_poison(fc, 0, link, send_seq[link as usize])
                    });
                    send_seq[link as usize] += 1;
                    if doomed {
                        // The retry protocol will exhaust on this packet:
                        // it never reaches memory, and (if non-posted)
                        // comes back as exactly one poisoned error frame.
                        oracle.issue_poisoned(next, &op, t);
                        poisoned_ops.push(next as u32);
                    } else {
                        oracle.issue(next, &op, t, &payload);
                    }
                    next += 1;
                }
                Err(HmcError::Stalled { .. }) => {
                    if op.expects_response() {
                        tags.complete(tag);
                    }
                    break;
                }
                Err(e) => return Err(fail(format!("op #{next}: send: {e}"))),
            }
        }

        sim.clock().map_err(|e| fail(format!("clock: {e}")))?;
        round += 1;
        if case.gap_every > 0 && case.gap_cycles > 0 && round.is_multiple_of(case.gap_every) {
            // The seeded idle gap: identical schedule in every engine
            // run (round counting is deterministic), so the observation
            // streams stay comparable while the batched run gets real
            // mid-stream jumps to prove itself on. The stepped run
            // clocks it one cycle at a time, the reference. (A round's
            // single `clock()` above asks no horizon in either run.)
            let gap = if batched {
                sim.clock_batch(case.gap_cycles)
            } else {
                (0..case.gap_cycles).try_for_each(|_| sim.clock())
            };
            gap.map_err(|e| fail(format!("gap clock: {e}")))?;
            gap_total += case.gap_cycles;
        }

        // Drain every host link in link order (deterministic).
        for link in 0..links {
            loop {
                let packet = match sim.recv(0, link) {
                    Ok(p) => p,
                    Err(HmcError::NoResponse { .. }) => break,
                    Err(e) => return Err(fail(format!("recv link {link}: {e}"))),
                };
                let rsp = decode_response(&packet)
                    .map_err(|e| fail(format!("link {link}: undecodable response: {e}")))?;
                let op_index = if lenient {
                    let (op_index, bits) = oracle
                        .check_response_lenient(&rsp)
                        .map_err(|e| fail(format!("oracle: {e}")))?;
                    if bits > 0 {
                        tally.responses += 1;
                        tally.bits += bits;
                    }
                    op_index
                } else {
                    oracle
                        .check_response(&rsp)
                        .map_err(|e| fail(format!("oracle: {e}")))?
                };
                if tags.complete(rsp.tag).is_none() {
                    return Err(fail(format!("tag {} completed twice", rsp.tag)));
                }
                debug_assert_eq!(tag_op[rsp.tag as usize], op_index as u32);
                tag_op[rsp.tag as usize] = u32::MAX;
                let word = rsp.data.get(..8).map_or(0, |b| {
                    u64::from_le_bytes(b.try_into().unwrap())
                });
                observations.push((op_index as u32, sim.current_clock(), link, word));
            }
        }

        if let Some(v) = sim.invariant_violations().first() {
            return Err(fail(format!(
                "invariant violation ({} total): {v}",
                sim.total_invariant_violations()
            )));
        }

        let done = next >= case.ops.len() && tags.outstanding() == 0;
        if done && sim.is_idle() {
            break;
        }
        if sim.current_clock() - start - gap_total > max_cycles {
            return Err(fail(format!(
                "no quiesce after {max_cycles} cycles: {} ops pending, {} tags in flight",
                case.ops.len() - next,
                tags.outstanding()
            )));
        }
    }

    // Quiesce conditions: the oracle ledger is empty and every link's
    // token pool is back at its initial allotment (token conservation).
    if oracle.outstanding() != 0 {
        return Err(fail(format!(
            "{} responses never delivered",
            oracle.outstanding()
        )));
    }
    let dev = sim.device(0).map_err(|e| fail(format!("{e}")))?;
    for l in &dev.links {
        if !l.at_initial_tokens() {
            return Err(fail(format!(
                "link {} leaked tokens: {} of {} at quiesce",
                l.id, l.tokens, l.initial_tokens
            )));
        }
    }

    let stats = sim.stats();
    poisoned_ops.sort_unstable();
    // Cross-check the engine's own poison ledger against the
    // prediction: stats count poisoned *responses* (posted drops emit
    // none), so count only ops that owed one.
    let owed: u64 = poisoned_ops
        .iter()
        .filter(|&&op| case.ops[op as usize].expects_response())
        .count() as u64;
    if stats.poisoned_responses != owed {
        return Err(fail(format!(
            "engine delivered {} poisoned responses where the fault stream \
             predicts {owed}",
            stats.poisoned_responses
        )));
    }
    Ok((
        EngineRun {
            observations,
            cycles: sim.current_clock() - start,
            fault_stats: [
                stats.hammer_activations,
                stats.bit_flips,
                stats.trr_refreshes,
                stats.retention_decays,
            ],
            link_stats: [
                stats.link_retries,
                stats.link_retrains,
                stats.poisoned_responses,
            ],
            poisoned: poisoned_ops,
        },
        tally,
    ))
}

/// Run one case stepped, the reference, then (when the case arms the
/// axis) batched, comparing bit-for-bit.
pub fn run_case(case: &FuzzCase) -> Result<CaseOutcome, Failure> {
    run_case_inner(case, false).map(|(out, _)| out)
}

/// [`run_case`] in detection mode: every engine run tolerates (and
/// tallies) oracle read-data mismatches, and the two runs must still
/// agree bit-for-bit — corrupted words included, since deterministic
/// fault injection makes even the corruption reproducible. Returns the
/// stepped reference's tally alongside the outcome.
pub fn run_case_lenient(case: &FuzzCase) -> Result<(CaseOutcome, MismatchTally), Failure> {
    run_case_inner(case, true)
}

fn run_case_inner(case: &FuzzCase, lenient: bool) -> Result<(CaseOutcome, MismatchTally), Failure> {
    let (reference, tally) = run_engine(case, false, lenient)?;
    let checked = reference.observations.len() as u64;
    if case.batched {
        let (run, _) = run_engine(case, true, lenient)?;
        if run != reference {
            let at = run
                .observations
                .iter()
                .zip(&reference.observations)
                .position(|(a, b)| a != b)
                .map_or_else(
                    || "stream lengths, cycle counts, or fault stats differ".to_string(),
                    |i| {
                        format!(
                            "first divergence at completion #{i}: \
                             stepped {:?}, batched {:?}",
                            reference.observations[i], run.observations[i]
                        )
                    },
                );
            return Err(Failure {
                description: format!(
                    "batched run ({} timing, {} fabric) diverges from stepped \
                     ({} vs {} completions, {} vs {} cycles, fault stats \
                     {:?} vs {:?}): {at}",
                    case.params.timing.kind.name(),
                    case.params.interconnect.kind.name(),
                    run.observations.len(),
                    reference.observations.len(),
                    run.cycles,
                    reference.cycles,
                    run.fault_stats,
                    reference.fault_stats,
                ),
            });
        }
    }
    Ok((CaseOutcome { reference, checked }, tally))
}

/// Functional (cycle-free) projection of a run for cross-backend
/// comparison: completions sorted by op index, carrying `(op, link,
/// data word)`. Two timing backends schedule the same case differently
/// — completions can interleave differently across links — but every
/// op must complete exactly once, on its owner link, with identical
/// data.
pub fn functional_observations(run: &EngineRun) -> Vec<(u32, LinkId, u64)> {
    let mut v: Vec<(u32, LinkId, u64)> = run
        .observations
        .iter()
        .map(|&(op, _, link, word)| (op, link, word))
        .collect();
    v.sort_unstable();
    v
}

/// Run one case under each of `variants` in turn — each through both
/// engine modes of [`run_case`] — and demand that every variant's
/// functional observations (op, link, data) equal the first's, the
/// reference, bit-for-bit. Cycle counts are left out of the comparison,
/// since the variants are *supposed* to schedule differently; the
/// outcomes come back in variant order for callers to report them.
pub fn run_case_across(case: &FuzzCase, variants: &[SimParams]) -> Result<Vec<CaseOutcome>, Failure> {
    let outcomes = variants
        .iter()
        .map(|&params| run_case(&case.clone().with_params(params)))
        .collect::<Result<Vec<_>, _>>()?;
    let name = |p: &SimParams| {
        format!("{} timing, {} fabric", p.timing.kind.name(), p.interconnect.kind.name())
    };
    let Some((first, rest)) = outcomes.split_first() else {
        return Ok(outcomes);
    };
    let reference = functional_observations(&first.reference);
    for (params, out) in variants[1..].iter().zip(rest) {
        let got = functional_observations(&out.reference);
        if got != reference {
            let at = reference.iter().zip(&got).position(|(x, y)| x != y).map_or_else(
                || format!("{} vs {} completions", reference.len(), got.len()),
                |i| format!("first divergence at op-sorted #{i}: {:?} vs {:?}", reference[i], got[i]),
            );
            return Err(Failure {
                description: format!(
                    "functional divergence ({} vs {}): {at}",
                    name(&variants[0]),
                    name(params)
                ),
            });
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_core::NocParams;
    use hmc_types::{ArbitrationKind, BlockSize, CellFaultConfig, InterconnectKind, LinkFaultConfig};

    fn tiny_case(ops: Vec<MemOp>) -> FuzzCase {
        FuzzCase::new("tiny", DeviceConfig::small(), MapKind::LowInterleave, 7, ops)
    }

    #[test]
    fn owner_link_partitions_blocks() {
        for b in 0..64u64 {
            let addr = b * 128;
            assert_eq!(owner_link(addr, 128, 4), (b % 4) as LinkId);
            assert_eq!(
                owner_link(addr, 128, 4),
                owner_link(addr + 127, 128, 4),
                "a block has one owner"
            );
        }
    }

    #[test]
    fn payloads_are_deterministic_and_distinct() {
        assert_eq!(payload_for(1, 0, 16), payload_for(1, 0, 16));
        assert_ne!(payload_for(1, 0, 16), payload_for(1, 1, 16));
        assert_ne!(payload_for(1, 0, 16), payload_for(2, 0, 16));
    }

    #[test]
    fn a_handwritten_stream_passes() {
        let block = 128u64;
        let ops = vec![
            MemOp::write(0, BlockSize::B128),
            MemOp::read(0, BlockSize::B128),
            MemOp::write(block, BlockSize::B64),
            MemOp::read(block, BlockSize::B64),
            MemOp { kind: OpKind::TwoAdd8, addr: 2 * block + 16, size: BlockSize::B16 },
            MemOp::read(2 * block, BlockSize::B32),
        ];
        let out = run_case(&tiny_case(ops)).unwrap();
        assert_eq!(out.checked, 6, "six non-posted ops, six responses");
        assert!(out.reference.cycles > 0);
        assert_eq!(out.reference.fault_stats, [0; 4], "fault axis off by default");
    }

    #[test]
    fn drain_barriers_order_later_ops_after_all_earlier_completions() {
        let block = 128u64;
        let ops = vec![
            MemOp::write(0, BlockSize::B64),
            MemOp::write(block, BlockSize::B64),
            MemOp::read(0, BlockSize::B64),
            MemOp::read(block, BlockSize::B64),
        ];
        let mut case = tiny_case(ops);
        case.barrier = Some(2);
        let out = run_case(&case).unwrap();
        assert_eq!(out.checked, 4);
        // Every pre-barrier completion is delivered strictly before any
        // post-barrier op completes.
        let last_write = out
            .reference
            .observations
            .iter()
            .filter(|o| o.0 < 2)
            .map(|o| o.1)
            .max()
            .unwrap();
        let first_read = out
            .reference
            .observations
            .iter()
            .filter(|o| o.0 >= 2)
            .map(|o| o.1)
            .min()
            .unwrap();
        assert!(last_write < first_read, "{last_write} vs {first_read}");
    }

    #[test]
    fn armed_but_idle_fault_axis_counts_activations_and_stays_clean() {
        let block = 128u64;
        let ops = vec![
            MemOp::write(0, BlockSize::B64),
            MemOp::read(0, BlockSize::B64),
            MemOp::read(5 * block, BlockSize::B32),
            MemOp::read(9 * block, BlockSize::B16),
        ];
        let mut case = tiny_case(ops);
        case.params.cell_faults = Some(CellFaultConfig::default());
        let out = run_case(&case).unwrap();
        assert_eq!(out.checked, 4);
        let [activations, flips, trr, decays] = out.reference.fault_stats;
        assert!(activations > 0, "armed axis counts row activations");
        assert_eq!((flips, trr, decays), (0, 0, 0), "default threshold never crossed");
    }

    #[test]
    fn gapped_streams_run_the_fast_forward_axis_bit_identically() {
        let block = 128u64;
        let ops = vec![
            MemOp::write(0, BlockSize::B64),
            MemOp::read(0, BlockSize::B64),
            MemOp::write(block, BlockSize::B128),
            MemOp::read(block, BlockSize::B128),
            MemOp::read(2 * block, BlockSize::B32),
            MemOp::read(3 * block, BlockSize::B16),
        ];
        let mut case = tiny_case(ops);
        case.gap_every = 2;
        case.gap_cycles = 5_000;
        assert!(case.batched, "the axis defaults on");
        let out = run_case(&case).unwrap();
        assert_eq!(out.checked, 6);
        // The gaps really ran: two rounds in, one 5k gap minimum.
        assert!(out.reference.cycles >= 5_000, "cycles {}", out.reference.cycles);
    }

    #[test]
    fn failure_reports_carry_the_engine_mode() {
        let f = Failure {
            description: format!("[{} mode] boom", mode_name(true)),
        };
        assert!(format!("{f}").contains("batched"));
        assert_eq!(mode_name(false), "stepped");
    }

    #[test]
    fn buffered_fabrics_agree_with_the_crossbar_functionally() {
        let block = 128u64;
        let ops = vec![
            MemOp::write(0, BlockSize::B128),
            MemOp::read(0, BlockSize::B128),
            MemOp::write(5 * block, BlockSize::B64),
            MemOp::read(5 * block, BlockSize::B64),
            MemOp { kind: OpKind::TwoAdd8, addr: 9 * block, size: BlockSize::B16 },
            MemOp::read(9 * block, BlockSize::B32),
            MemOp::read(14 * block, BlockSize::B16),
        ];
        let mut case = tiny_case(ops);
        case.gap_every = 3;
        case.gap_cycles = 1_000;
        let fabrics = InterconnectKind::ALL.map(|kind| SimParams {
            interconnect: NocParams::of(kind),
            ..SimParams::default()
        });
        let out = run_case_across(&case, &fabrics).unwrap();
        let [crossbar, ring, mesh] = [0, 1, 2].map(|i| &out[i]);
        assert_eq!(crossbar.checked, 7);
        assert_eq!(ring.checked, 7);
        assert_eq!(mesh.checked, 7);
        let delta = |run: &CaseOutcome| run.reference.cycles as i64 - crossbar.reference.cycles as i64;
        assert!(
            delta(ring) >= 0 && delta(mesh) >= 0,
            "buffered hops never make a stream faster (ring {:+}, mesh {:+})",
            delta(ring),
            delta(mesh)
        );
    }

    #[test]
    fn buffered_fabrics_pass_the_full_sweep_under_every_arbitration() {
        let block = 128u64;
        let ops = vec![
            MemOp::write(2 * block, BlockSize::B64),
            MemOp::read(2 * block, BlockSize::B64),
            MemOp::read(7 * block, BlockSize::B32),
            MemOp::read(11 * block, BlockSize::B128),
        ];
        for kind in [InterconnectKind::Ring, InterconnectKind::Mesh] {
            for arb in ArbitrationKind::ALL {
                let mut case = tiny_case(ops.clone());
                case.params.interconnect = NocParams::of(kind).with_arbitration(arb);
                case.gap_every = 2;
                case.gap_cycles = 500;
                let out = run_case(&case)
                    .unwrap_or_else(|f| panic!("{}/{}: {f}", kind.name(), arb.name()));
                assert_eq!(out.checked, 4);
            }
        }
    }

    #[test]
    fn link_errors_poison_predicted_ops_bit_identically_across_the_sweep() {
        // Most packets corrupt, one retry allowed: a solid fraction of
        // ops exhaust and must come back poisoned — predicted exactly
        // by the oracle at issue time, identically stepped and batched.
        let block = 128u64;
        let ops: Vec<MemOp> = (0..16u64)
            .map(|i| {
                if i % 2 == 0 {
                    MemOp::write((i / 2) * block, BlockSize::B64)
                } else {
                    MemOp::read((i / 2) * block, BlockSize::B64)
                }
            })
            .collect();
        let mut case = tiny_case(ops);
        case.params.link_faults = Some(
            LinkFaultConfig::default()
                .with_error_rate_ppm(800_000)
                .with_retry_limit(1)
                .with_retry_cycles(4)
                .with_retrain_cycles(16)
                .with_seed(5),
        );
        let out = run_case(&case).unwrap();
        assert_eq!(out.checked, 16, "every op gets exactly one response");
        let [retries, retrains, poisons] = out.reference.link_stats;
        assert!(poisons > 0, "the tight cap must actually poison");
        assert!(retries > 0 && retrains > 0);
        assert_eq!(
            out.reference.poisoned.len() as u64,
            poisons,
            "predicted set matches delivered poisons (no posted ops here)"
        );
    }

    #[test]
    fn clean_links_leave_the_link_axis_silent() {
        let ops = vec![
            MemOp::write(0, BlockSize::B64),
            MemOp::read(0, BlockSize::B64),
        ];
        let out = run_case(&tiny_case(ops)).unwrap();
        assert_eq!(out.reference.link_stats, [0; 3]);
        assert!(out.reference.poisoned.is_empty());
    }

    #[test]
    fn corruption_is_caught_by_the_oracle() {
        let ops = vec![MemOp::write(0, BlockSize::B64), MemOp::read(0, BlockSize::B64)];
        let mut case = tiny_case(ops);
        case.corrupt = Some(CorruptSpec { addr: 0, xor: 0x1 });
        let err = run_case(&case).unwrap_err();
        assert!(err.description.contains("mismatch"), "{err}");
    }
}
