//! The HMC 1.0 command set.
//!
//! HMC-Sim "implements all possible device packet variations using all
//! combinations of FLITs" (paper §IV, requirement 5). This module encodes
//! every request, response and flow-control command of the HMC 1.0
//! specification together with its 6-bit wire encoding, FLIT lengths and
//! semantic classification (read / write / posted / atomic / mode / flow).

use crate::error::{HmcError, Result};
use crate::flit::flits_for_data;

/// Data block sizes supported by read and write requests (16–128 bytes).
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    Hash,
    PartialOrd,
    Ord,
    serde::Serialize,
    serde::Deserialize,
)]
pub enum BlockSize {
    /// 16-byte block (one FLIT of data).
    B16,
    /// 32-byte block.
    B32,
    /// 48-byte block.
    B48,
    /// 64-byte block (the paper's §VI workload size).
    B64,
    /// 80-byte block.
    B80,
    /// 96-byte block.
    B96,
    /// 112-byte block.
    B112,
    /// 128-byte block (maximum: 8 data FLITs).
    B128,
}

impl BlockSize {
    /// All block sizes in ascending order.
    pub const ALL: [BlockSize; 8] = [
        BlockSize::B16,
        BlockSize::B32,
        BlockSize::B48,
        BlockSize::B64,
        BlockSize::B80,
        BlockSize::B96,
        BlockSize::B112,
        BlockSize::B128,
    ];

    /// Size in bytes.
    pub fn bytes(self) -> usize {
        match self {
            BlockSize::B16 => 16,
            BlockSize::B32 => 32,
            BlockSize::B48 => 48,
            BlockSize::B64 => 64,
            BlockSize::B80 => 80,
            BlockSize::B96 => 96,
            BlockSize::B112 => 112,
            BlockSize::B128 => 128,
        }
    }

    /// Number of data FLITs this block occupies on the wire.
    pub fn data_flits(self) -> usize {
        self.bytes() / 16
    }

    /// Zero-based ordinal used in command encodings (B16 = 0 … B128 = 7).
    pub fn ordinal(self) -> u8 {
        match self {
            BlockSize::B16 => 0,
            BlockSize::B32 => 1,
            BlockSize::B48 => 2,
            BlockSize::B64 => 3,
            BlockSize::B80 => 4,
            BlockSize::B96 => 5,
            BlockSize::B112 => 6,
            BlockSize::B128 => 7,
        }
    }

    /// Block size from its encoding ordinal.
    pub fn from_ordinal(ord: u8) -> Result<Self> {
        Ok(match ord {
            0 => BlockSize::B16,
            1 => BlockSize::B32,
            2 => BlockSize::B48,
            3 => BlockSize::B64,
            4 => BlockSize::B80,
            5 => BlockSize::B96,
            6 => BlockSize::B112,
            7 => BlockSize::B128,
            other => {
                return Err(HmcError::InvalidPacket(format!(
                    "block-size ordinal {other} out of range 0..=7"
                )))
            }
        })
    }

    /// Block size from a byte count (must be a multiple of 16 in 16..=128).
    pub fn from_bytes(bytes: usize) -> Result<Self> {
        if bytes == 0 || !bytes.is_multiple_of(16) || bytes > 128 {
            return Err(HmcError::InvalidPacket(format!(
                "{bytes} bytes is not a legal HMC block size (16..=128, multiple of 16)"
            )));
        }
        BlockSize::from_ordinal((bytes / 16 - 1) as u8)
    }
}

/// A decoded HMC command: flow control, request, or response.
///
/// Wire encodings (6-bit `CMD` field) follow HMC 1.0:
///
/// | command | code | command | code |
/// |---------|------|---------|------|
/// | NULL    | 0x00 | P_WR16–P_WR128 | 0x18–0x1F |
/// | PRET    | 0x01 | P_BWR   | 0x21 |
/// | TRET    | 0x02 | P_2ADD8 | 0x22 |
/// | IRTRY   | 0x03 | P_ADD16 | 0x23 |
/// | WR16–WR128 | 0x08–0x0F | MD_RD | 0x28 |
/// | MD_WR   | 0x10 | RD16–RD128 | 0x30–0x37 |
/// | BWR     | 0x11 | RD_RS   | 0x38 |
/// | 2ADD8   | 0x12 | WR_RS   | 0x39 |
/// | ADD16   | 0x13 | MD_RD_RS| 0x3A |
/// |         |      | MD_WR_RS| 0x3B |
/// |         |      | ERROR   | 0x3E |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    // ---- flow control ----
    /// Null packet: ignored by the receiver, drained from queues.
    Null,
    /// Packet return: retires link retry-pointer state.
    Pret,
    /// Token return: returns crossbar input-buffer tokens to the sender.
    Tret,
    /// Init/error retry marker.
    Irtry,

    // ---- requests ----
    /// Memory write request of the given block size (2–9 FLITs).
    Wr(BlockSize),
    /// Posted (no-response) memory write request.
    PostedWr(BlockSize),
    /// Mode register write (in-band register access, §V.D).
    ModeWrite,
    /// Bit write: 8-byte masked write (16-byte payload: mask + data).
    Bwr,
    /// Posted bit write.
    PostedBwr,
    /// Dual 8-byte add-immediate atomic (read-modify-write).
    TwoAdd8,
    /// Single 16-byte add-immediate atomic.
    Add16,
    /// Posted dual 8-byte add-immediate atomic.
    PostedTwoAdd8,
    /// Posted single 16-byte add-immediate atomic.
    PostedAdd16,
    /// Memory read request of the given block size (always 1 FLIT).
    Rd(BlockSize),
    /// Mode register read (in-band register access, §V.D).
    ModeRead,

    // ---- responses ----
    /// Read response carrying the requested data block.
    RdResponse,
    /// Write / atomic completion response.
    WrResponse,
    /// Mode register read response (one FLIT of register data).
    ModeReadResponse,
    /// Mode register write response.
    ModeWriteResponse,
    /// Error response (failed read/write, misroute, illegal request).
    ErrorResponse,
}

/// [`Command::decode`] as a table over the 6-bit code space; `None` marks
/// an undefined encoding. Must agree with [`Command::encode`] — the unit
/// tests check all 256 `u8` inputs against the specification's match.
const DECODE: [Option<Command>; 64] = {
    let mut t = [None; 64];
    t[0x00] = Some(Command::Null);
    t[0x01] = Some(Command::Pret);
    t[0x02] = Some(Command::Tret);
    t[0x03] = Some(Command::Irtry);
    t[0x10] = Some(Command::ModeWrite);
    t[0x11] = Some(Command::Bwr);
    t[0x12] = Some(Command::TwoAdd8);
    t[0x13] = Some(Command::Add16);
    t[0x21] = Some(Command::PostedBwr);
    t[0x22] = Some(Command::PostedTwoAdd8);
    t[0x23] = Some(Command::PostedAdd16);
    t[0x28] = Some(Command::ModeRead);
    t[0x38] = Some(Command::RdResponse);
    t[0x39] = Some(Command::WrResponse);
    t[0x3a] = Some(Command::ModeReadResponse);
    t[0x3b] = Some(Command::ModeWriteResponse);
    t[0x3e] = Some(Command::ErrorResponse);
    let mut ord = 0;
    while ord < BlockSize::ALL.len() {
        let bs = BlockSize::ALL[ord];
        t[0x08 + ord] = Some(Command::Wr(bs));
        t[0x18 + ord] = Some(Command::PostedWr(bs));
        t[0x30 + ord] = Some(Command::Rd(bs));
        ord += 1;
    }
    t
};

impl Command {
    /// Encode to the 6-bit wire `CMD` value.
    pub fn encode(self) -> u8 {
        match self {
            Command::Null => 0x00,
            Command::Pret => 0x01,
            Command::Tret => 0x02,
            Command::Irtry => 0x03,
            Command::Wr(bs) => 0x08 + bs.ordinal(),
            Command::ModeWrite => 0x10,
            Command::Bwr => 0x11,
            Command::TwoAdd8 => 0x12,
            Command::Add16 => 0x13,
            Command::PostedWr(bs) => 0x18 + bs.ordinal(),
            Command::PostedBwr => 0x21,
            Command::PostedTwoAdd8 => 0x22,
            Command::PostedAdd16 => 0x23,
            Command::ModeRead => 0x28,
            Command::Rd(bs) => 0x30 + bs.ordinal(),
            Command::RdResponse => 0x38,
            Command::WrResponse => 0x39,
            Command::ModeReadResponse => 0x3a,
            Command::ModeWriteResponse => 0x3b,
            Command::ErrorResponse => 0x3e,
        }
    }

    /// Decode a 6-bit wire `CMD` value: one load from the `DECODE`
    /// table. Every queue walk asks this of every packet it acts on, so
    /// it must inline and must not build its error until a code is
    /// actually unknown.
    #[inline]
    pub fn decode(code: u8) -> Result<Self> {
        match DECODE.get(code as usize) {
            Some(&Some(cmd)) => Ok(cmd),
            _ => Err(HmcError::UnknownCommand(code)),
        }
    }

    /// All commands, one per variant (block-sized commands at every size).
    pub fn all() -> Vec<Command> {
        let mut v = vec![
            Command::Null,
            Command::Pret,
            Command::Tret,
            Command::Irtry,
            Command::ModeWrite,
            Command::Bwr,
            Command::TwoAdd8,
            Command::Add16,
            Command::PostedBwr,
            Command::PostedTwoAdd8,
            Command::PostedAdd16,
            Command::ModeRead,
            Command::RdResponse,
            Command::WrResponse,
            Command::ModeReadResponse,
            Command::ModeWriteResponse,
            Command::ErrorResponse,
        ];
        for bs in BlockSize::ALL {
            v.push(Command::Wr(bs));
            v.push(Command::PostedWr(bs));
            v.push(Command::Rd(bs));
        }
        v
    }

    /// True for flow-control packets (NULL / PRET / TRET / IRTRY).
    pub fn is_flow(self) -> bool {
        matches!(
            self,
            Command::Null | Command::Pret | Command::Tret | Command::Irtry
        )
    }

    /// True for request packets (anything a host sends toward memory).
    pub fn is_request(self) -> bool {
        !self.is_flow() && !self.is_response()
    }

    /// True for response packets (memory → host).
    pub fn is_response(self) -> bool {
        matches!(
            self,
            Command::RdResponse
                | Command::WrResponse
                | Command::ModeReadResponse
                | Command::ModeWriteResponse
                | Command::ErrorResponse
        )
    }

    /// True for posted requests: the device sends no response packet.
    pub fn is_posted(self) -> bool {
        matches!(
            self,
            Command::PostedWr(_)
                | Command::PostedBwr
                | Command::PostedTwoAdd8
                | Command::PostedAdd16
        )
    }

    /// True for requests that read memory data (plain reads only).
    pub fn is_read(self) -> bool {
        matches!(self, Command::Rd(_))
    }

    /// True for requests that write memory data (plain + posted writes).
    pub fn is_write(self) -> bool {
        matches!(self, Command::Wr(_) | Command::PostedWr(_))
    }

    /// True for read-modify-write atomics (2ADD8 / ADD16 / BWR families).
    pub fn is_atomic(self) -> bool {
        matches!(
            self,
            Command::TwoAdd8
                | Command::Add16
                | Command::PostedTwoAdd8
                | Command::PostedAdd16
                | Command::Bwr
                | Command::PostedBwr
        )
    }

    /// True for in-band register access (MODE_READ / MODE_WRITE).
    pub fn is_mode(self) -> bool {
        matches!(self, Command::ModeRead | Command::ModeWrite)
    }

    /// Request payload size in bytes (data FLITs carried toward memory).
    ///
    /// Reads and MODE_READ carry none; writes carry their block; atomics
    /// carry one 16-byte FLIT of operand data; MODE_WRITE carries one FLIT.
    pub fn request_data_bytes(self) -> usize {
        match self {
            Command::Wr(bs) | Command::PostedWr(bs) => bs.bytes(),
            Command::Bwr
            | Command::PostedBwr
            | Command::TwoAdd8
            | Command::Add16
            | Command::PostedTwoAdd8
            | Command::PostedAdd16
            | Command::ModeWrite => 16,
            _ => 0,
        }
    }

    /// Total request packet length in FLITs.
    pub fn request_flits(self) -> usize {
        flits_for_data(self.request_data_bytes())
    }

    /// The response command a device generates on success, if any.
    pub fn response_command(self) -> Option<Command> {
        match self {
            Command::Rd(_) => Some(Command::RdResponse),
            Command::Wr(_) | Command::Bwr | Command::TwoAdd8 | Command::Add16 => {
                Some(Command::WrResponse)
            }
            Command::ModeRead => Some(Command::ModeReadResponse),
            Command::ModeWrite => Some(Command::ModeWriteResponse),
            _ => None,
        }
    }

    /// Response payload size in bytes for a request of this command.
    pub fn response_data_bytes(self) -> usize {
        match self {
            Command::Rd(bs) => bs.bytes(),
            Command::ModeRead => 16,
            _ => 0,
        }
    }

    /// Total response packet length in FLITs (0 if no response is sent).
    pub fn response_flits(self) -> usize {
        if self.response_command().is_none() {
            return 0;
        }
        flits_for_data(self.response_data_bytes())
    }

    /// Short mnemonic matching the specification's naming (e.g. `RD64`).
    pub fn mnemonic(self) -> String {
        match self {
            Command::Null => "NULL".into(),
            Command::Pret => "PRET".into(),
            Command::Tret => "TRET".into(),
            Command::Irtry => "IRTRY".into(),
            Command::Wr(bs) => format!("WR{}", bs.bytes()),
            Command::PostedWr(bs) => format!("P_WR{}", bs.bytes()),
            Command::ModeWrite => "MD_WR".into(),
            Command::Bwr => "BWR".into(),
            Command::PostedBwr => "P_BWR".into(),
            Command::TwoAdd8 => "2ADD8".into(),
            Command::Add16 => "ADD16".into(),
            Command::PostedTwoAdd8 => "P_2ADD8".into(),
            Command::PostedAdd16 => "P_ADD16".into(),
            Command::Rd(bs) => format!("RD{}", bs.bytes()),
            Command::ModeRead => "MD_RD".into(),
            Command::RdResponse => "RD_RS".into(),
            Command::WrResponse => "WR_RS".into(),
            Command::ModeReadResponse => "MD_RD_RS".into(),
            Command::ModeWriteResponse => "MD_WR_RS".into(),
            Command::ErrorResponse => "ERROR".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_size_bytes_and_flits() {
        assert_eq!(BlockSize::B16.bytes(), 16);
        assert_eq!(BlockSize::B128.bytes(), 128);
        assert_eq!(BlockSize::B64.data_flits(), 4);
        assert_eq!(BlockSize::B128.data_flits(), 8);
    }

    #[test]
    fn block_size_ordinal_roundtrip() {
        for bs in BlockSize::ALL {
            assert_eq!(BlockSize::from_ordinal(bs.ordinal()).unwrap(), bs);
            assert_eq!(BlockSize::from_bytes(bs.bytes()).unwrap(), bs);
        }
        assert!(BlockSize::from_ordinal(8).is_err());
        assert!(BlockSize::from_bytes(0).is_err());
        assert!(BlockSize::from_bytes(20).is_err());
        assert!(BlockSize::from_bytes(144).is_err());
    }

    #[test]
    fn every_command_roundtrips_through_wire_encoding() {
        for cmd in Command::all() {
            let code = cmd.encode();
            assert!(code < 64, "{cmd:?} encoding must fit 6 bits");
            assert_eq!(Command::decode(code).unwrap(), cmd, "roundtrip {cmd:?}");
        }
    }

    /// The decoder as the specification's table reads (the match
    /// [`Command::decode`] was before it became a lookup).
    fn decode_reference(code: u8) -> Result<Command> {
        Ok(match code {
            0x00 => Command::Null,
            0x01 => Command::Pret,
            0x02 => Command::Tret,
            0x03 => Command::Irtry,
            0x08..=0x0f => Command::Wr(BlockSize::from_ordinal(code - 0x08)?),
            0x10 => Command::ModeWrite,
            0x11 => Command::Bwr,
            0x12 => Command::TwoAdd8,
            0x13 => Command::Add16,
            0x18..=0x1f => Command::PostedWr(BlockSize::from_ordinal(code - 0x18)?),
            0x21 => Command::PostedBwr,
            0x22 => Command::PostedTwoAdd8,
            0x23 => Command::PostedAdd16,
            0x28 => Command::ModeRead,
            0x30..=0x37 => Command::Rd(BlockSize::from_ordinal(code - 0x30)?),
            0x38 => Command::RdResponse,
            0x39 => Command::WrResponse,
            0x3a => Command::ModeReadResponse,
            0x3b => Command::ModeWriteResponse,
            0x3e => Command::ErrorResponse,
            other => return Err(HmcError::UnknownCommand(other)),
        })
    }

    #[test]
    fn the_decode_table_answers_every_byte_as_the_match_did() {
        let mut defined = 0;
        for code in 0..=u8::MAX {
            match (Command::decode(code), decode_reference(code)) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got, want, "code {code:#x}");
                    defined += 1;
                }
                (Err(HmcError::UnknownCommand(got)), Err(HmcError::UnknownCommand(want))) => {
                    assert_eq!((got, want), (code, code));
                }
                (got, want) => panic!("code {code:#x}: table {got:?}, match {want:?}"),
            }
        }
        assert_eq!(defined, Command::all().len(), "no code decodes twice");
    }

    #[test]
    fn spec_encodings_are_exact() {
        assert_eq!(Command::Null.encode(), 0x00);
        assert_eq!(Command::Tret.encode(), 0x02);
        assert_eq!(Command::Wr(BlockSize::B16).encode(), 0x08);
        assert_eq!(Command::Wr(BlockSize::B128).encode(), 0x0f);
        assert_eq!(Command::ModeWrite.encode(), 0x10);
        assert_eq!(Command::PostedWr(BlockSize::B64).encode(), 0x1b);
        assert_eq!(Command::ModeRead.encode(), 0x28);
        assert_eq!(Command::Rd(BlockSize::B64).encode(), 0x33);
        assert_eq!(Command::RdResponse.encode(), 0x38);
        assert_eq!(Command::ErrorResponse.encode(), 0x3e);
    }

    #[test]
    fn undefined_encodings_are_rejected() {
        for code in [0x04u8, 0x05, 0x14, 0x20, 0x24, 0x29, 0x3c, 0x3f] {
            assert!(
                matches!(Command::decode(code), Err(HmcError::UnknownCommand(c)) if c == code),
                "code {code:#x} should be unknown"
            );
        }
    }

    #[test]
    fn classification_is_a_partition() {
        for cmd in Command::all() {
            let classes =
                [cmd.is_flow(), cmd.is_request(), cmd.is_response()];
            assert_eq!(
                classes.iter().filter(|&&b| b).count(),
                1,
                "{cmd:?} must be exactly one of flow/request/response"
            );
        }
    }

    #[test]
    fn read_requests_are_single_flit() {
        // §III.C: read requests for all payload sizes are one FLIT.
        for bs in BlockSize::ALL {
            assert_eq!(Command::Rd(bs).request_flits(), 1);
        }
    }

    #[test]
    fn write_requests_span_two_to_nine_flits() {
        // §III.C: write and atomic requests are 2–9 FLITs.
        assert_eq!(Command::Wr(BlockSize::B16).request_flits(), 2);
        assert_eq!(Command::Wr(BlockSize::B64).request_flits(), 5);
        assert_eq!(Command::Wr(BlockSize::B128).request_flits(), 9);
        assert_eq!(Command::TwoAdd8.request_flits(), 2);
        assert_eq!(Command::Add16.request_flits(), 2);
        assert_eq!(Command::Bwr.request_flits(), 2);
    }

    #[test]
    fn posted_requests_elicit_no_response() {
        for bs in BlockSize::ALL {
            assert_eq!(Command::PostedWr(bs).response_command(), None);
            assert_eq!(Command::PostedWr(bs).response_flits(), 0);
        }
        assert_eq!(Command::PostedAdd16.response_command(), None);
        assert_eq!(Command::PostedBwr.response_command(), None);
        assert_eq!(Command::PostedTwoAdd8.response_command(), None);
    }

    #[test]
    fn responses_carry_expected_payload() {
        assert_eq!(
            Command::Rd(BlockSize::B64).response_command(),
            Some(Command::RdResponse)
        );
        assert_eq!(Command::Rd(BlockSize::B64).response_flits(), 5);
        assert_eq!(Command::Wr(BlockSize::B64).response_flits(), 1);
        assert_eq!(Command::ModeRead.response_flits(), 2);
        assert_eq!(Command::ModeWrite.response_flits(), 1);
    }

    #[test]
    fn atomics_are_requests_with_write_responses() {
        for cmd in [Command::TwoAdd8, Command::Add16, Command::Bwr] {
            assert!(cmd.is_atomic());
            assert!(cmd.is_request());
            assert_eq!(cmd.response_command(), Some(Command::WrResponse));
        }
    }

    #[test]
    fn mnemonics_match_spec_names() {
        assert_eq!(Command::Rd(BlockSize::B64).mnemonic(), "RD64");
        assert_eq!(Command::PostedWr(BlockSize::B32).mnemonic(), "P_WR32");
        assert_eq!(Command::TwoAdd8.mnemonic(), "2ADD8");
        assert_eq!(Command::ModeReadResponse.mnemonic(), "MD_RD_RS");
    }

    #[test]
    fn posted_classification() {
        assert!(Command::PostedWr(BlockSize::B16).is_posted());
        assert!(!Command::Wr(BlockSize::B16).is_posted());
        assert!(Command::PostedBwr.is_posted());
        assert!(!Command::Bwr.is_posted());
    }
}
