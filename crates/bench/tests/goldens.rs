//! Golden outputs: `hmcsim` runs whose bytes are pinned by SHA-256.
//!
//! Every leg drives `hmc_host::run_workload` on the 4-link/8-bank device,
//! so a change to the host loop, a stage walk, a timing backend or the
//! tracer that moves one cycle, stall, hop or traced field fails here, by
//! name. CI's `golden-outputs` job runs this test on the release binary.
//!
//! * Stdout legs run invariant-checked (`--check`) and carry cycles,
//!   latencies, send stalls, NoC hop / stall / arbitration-loss counts
//!   and row-buffer counts. The round-robin fabric hashes were captured
//!   before the stall-aware crossbar walk and the linear NoC advance; the
//!   oldest-first and locality-aware ones before the NoC advance gained
//!   its hop table, compact slot keys and scan memos, so every branch of
//!   the scan order is pinned.
//! * Dense DDR (captured before vaults slept on cached bank edges) keeps
//!   every 4l8b vault queue ~32 deep behind busy banks, where a wrong
//!   sleep edge moves a cycle count within seconds, stepped and
//!   fast-forward alike.
//! * The trace files (full verbosity, 6,733 and 71,585 lines; captured
//!   before responses were built in place in their request's body) show
//!   a stale or clobbered read of a tag, link or address before it ever
//!   moves a cycle count.
//! * The DDR row-count legs (captured before the bank's own row-buffer
//!   model was deleted) pin that the report's row-hit column and the
//!   energy model's activations read the timing backend's counts.
//! * The config-file legs carry an axis in a dumped-and-edited config
//!   file, installed by `HmcSim::new` rather than by a flag, and must land
//!   on the flag legs' bytes.

use std::path::PathBuf;
use std::process::Command;

use hmc_types::{DeviceConfig, InterconnectKind, TimingKind};

const HMCSIM: &str = env!("CARGO_BIN_EXE_hmcsim");
const MESH_HOTSPOT: &str = "e0209f395bd8dc417312f968cd426e12ee9af969d315f238960f0ed02a28bd13";
const DENSE_DDR: &str = "7b1cb3cae193ee4786a231668045791605d3764f427e3d234e597f690eada677";

/// SHA-256 (FIPS 180-4) of `data`, as lowercase hex.
fn sha256(data: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Pad: a 1 bit, zeros up to a whole block with 8 bytes to spare, then
    // the message length in bits in those 8.
    let mut msg = data.to_vec();
    msg.push(0x80);
    msg.resize((msg.len() + 8).next_multiple_of(64), 0);
    let len = msg.len();
    msg[len - 8..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    for block in msg.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            (hh, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
        }
        for (x, y) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *x = x.wrapping_add(y);
        }
    }
    h.iter().map(|x| format!("{x:08x}")).collect()
}

#[test]
fn sha256_matches_the_standard_vectors() {
    let abc = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
    assert_eq!(sha256(b"abc"), abc);
    let empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
    assert_eq!(sha256(b""), empty);
    // 56 bytes: the padding spills into a second block.
    let two = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
    assert_eq!(
        sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        two
    );
}

/// Run `hmcsim` with `args`; its stdout, after checking it exited 0.
fn hmcsim(args: &[&str]) -> Vec<u8> {
    let out = Command::new(HMCSIM)
        .args(args)
        .output()
        .expect("hmcsim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "hmcsim {args:?} failed: {stderr}");
    out.stdout
}

/// A temporary file for leg `name` of this test process.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hmc-golden-{}-{name}", std::process::id()))
}

/// The SHA-256 of `hmcsim`'s stdout, invariant-checked on 20,000
/// requests, its device from `source` and the rest from `args`.
fn checked_run(source: [&str; 2], args: &str) -> String {
    let mut all = vec![source[0], source[1], "--check", "--requests", "20000"];
    all.extend(args.split_whitespace());
    sha256(&hmcsim(&all))
}

fn golden(args: &str, want: &str) {
    assert_eq!(
        checked_run(["--config", "4l8b"], args),
        want,
        "hmcsim {args}"
    );
}

/// A full-verbosity trace of 2,000 requests must hash to `want`.
fn trace_golden(name: &str, args: &str, want: &str) {
    let file = temp_path(name);
    let mut all = vec!["--config", "4l8b", "--requests", "2000"];
    all.extend(["--trace", file.to_str().unwrap()]);
    all.extend(args.split_whitespace());
    hmcsim(&all);
    let trace = std::fs::read(&file).expect("trace file written");
    std::fs::remove_file(&file).unwrap();
    assert_eq!(sha256(&trace), want, "hmcsim {all:?}");
}

/// 4l8b's dumped config file, parsed, edited by `edit` and written
/// back, then the stdout leg of `args` run from that file.
fn config_golden(name: &str, edit: fn(DeviceConfig) -> DeviceConfig, args: &str, want: &str) {
    let file = temp_path(name);
    let path = file.to_str().unwrap();
    hmcsim(&["--config", "4l8b", "--dump-config", path]);
    let dumped = std::fs::read_to_string(&file).unwrap();
    let config = edit(serde_json::from_str(&dumped).unwrap());
    std::fs::write(&file, serde_json::to_string(&config).unwrap()).unwrap();
    let got = checked_run(["--config-file", path], args);
    std::fs::remove_file(&file).unwrap();
    assert_eq!(got, want, "hmcsim --config-file with {name}, {args}");
}

#[test]
fn hotspot_over_mesh() {
    golden("--workload hotspot --interconnect mesh", MESH_HOTSPOT);
}

#[test]
fn hotspot_over_ring() {
    let want = "95553ab2006f27ebac5bd84a4c830a17343142dba5dd8ceebb5cbb07a4f87168";
    golden("--workload hotspot --interconnect ring", want);
}

#[test]
fn hotspot_over_mesh_oldest_first() {
    let want = "434bf077aa32519558608339506e5992a7187b2f687b92710d52be0c17fffddc";
    golden(
        "--workload hotspot --interconnect mesh --arbitration oldest-first",
        want,
    );
}

#[test]
fn hotspot_over_mesh_locality_aware() {
    let want = "67cfd2bd09380437487ce14913787d46049d6e4e9bbcbdc9c67362b7b91a9100";
    golden(
        "--workload hotspot --interconnect mesh --arbitration locality-aware",
        want,
    );
}

#[test]
fn hotspot_over_ring_oldest_first() {
    let want = "bca5b96d987af5d3925d0b8d5b56fc96995ea97ae159d82dd51c8407ebb05b69";
    golden(
        "--workload hotspot --interconnect ring --arbitration oldest-first",
        want,
    );
}

#[test]
fn hotspot_over_ring_locality_aware() {
    let want = "f83ebce854536597f8d4a844b45d5a2c7aba462da1cff80ba43cf2f18eccebd7";
    golden(
        "--workload hotspot --interconnect ring --arbitration locality-aware",
        want,
    );
}

#[test]
fn dense_ddr_stepped() {
    golden("--timing ddr", DENSE_DDR);
}

#[test]
fn dense_ddr_fast_forward() {
    golden("--timing ddr --fast-forward", DENSE_DDR);
}

#[test]
fn trace_file_classic() {
    let want = "26f21229a3b0c49119903e996659568f9b965ed16eaf9bfb04c054b05685616e";
    trace_golden("trace-classic.txt", "", want);
}

#[test]
fn trace_file_ddr() {
    let want = "40a60ceab037112d6b43b3d0dcb8089bcd9a0c80a1b4b4db5d09ed03edad4538";
    trace_golden("trace-ddr.txt", "--timing ddr", want);
}

#[test]
fn ddr_stream_row_counts() {
    let want = "bd813358b819fd1463ca7d63174ee5241ce3573db2d0e3b7bc5326eb6c9f320c";
    golden(
        "--timing ddr --utilization --energy --workload stream",
        want,
    );
}

#[test]
fn ddr_chase_row_counts() {
    let want = "a8f009819894ffdf32dcf25f668d3b96300505e60341736badceee19ca93d134";
    golden("--timing ddr --utilization --energy --workload chase", want);
}

#[test]
fn config_file_ddr() {
    let edit = |c: DeviceConfig| c.with_timing(TimingKind::Ddr);
    config_golden("config-ddr.json", edit, "", DENSE_DDR);
}

#[test]
fn config_file_mesh_hotspot() {
    let edit = |c: DeviceConfig| c.with_interconnect(InterconnectKind::Mesh);
    config_golden("config-mesh.json", edit, "--workload hotspot", MESH_HOTSPOT);
}
