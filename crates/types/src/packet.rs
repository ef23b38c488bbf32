//! HMC packet representation: 64-bit header, 0–8 data FLITs, 64-bit tail.
//!
//! All in-band communication between hosts and HMC devices is packetized
//! (paper §III.C). A packet is a multiple of a 16-byte FLIT; the header and
//! tail words together occupy one FLIT, and payloads occupy up to eight
//! more. Every packet reserves storage for the largest possible nine-FLIT
//! packet, exactly as the paper describes for HMC-Sim queue slots ("each
//! packet is configured to contain sufficient storage for the largest
//! possible packet with nine FLITs", §IV.A).
//!
//! # Field packing
//!
//! Header word (bit 0 = LSB):
//!
//! | bits   | field | width | meaning |
//! |--------|-------|-------|---------|
//! | 5:0    | CMD   | 6     | command encoding ([`Command`]) |
//! | 6      | —     | 1     | reserved |
//! | 10:7   | LNG   | 4     | packet length in FLITs |
//! | 14:11  | DLN   | 4     | duplicate length (must equal LNG) |
//! | 23:15  | TAG   | 9     | request/response correlation tag |
//! | 57:24  | ADRS  | 34    | physical address |
//! | 60:58  | —     | 3     | reserved |
//! | 63:61  | CUB   | 3     | destination cube ID |
//!
//! Request tail word:
//!
//! | bits   | field | width | meaning |
//! |--------|-------|-------|---------|
//! | 31:0   | CRC   | 32    | CRC-32/Koopman over header+data+tail(CRC=0) |
//! | 36:32  | RTC   | 5     | return token count |
//! | 39:37  | SLID  | 3     | source link ID |
//! | 42:40  | SEQ   | 3     | sequence number |
//! | 51:43  | FRP   | 9     | forward retry pointer |
//! | 60:52  | RRP   | 9     | return retry pointer |
//! | 63:61  | —     | 3     | reserved |
//!
//! Response tail word replaces FRP/RRP real estate with error status:
//!
//! | bits   | field   | width | meaning |
//! |--------|---------|-------|---------|
//! | 31:0   | CRC     | 32    | as above |
//! | 36:32  | RTC     | 5     | return token count |
//! | 43:37  | ERRSTAT | 7     | error status ([`ResponseStatus`]) |
//! | 44     | DINV    | 1     | data-invalid flag |
//! | 47:45  | SLID    | 3     | source link ID (echoed) |
//! | 50:48  | SEQ     | 3     | sequence number |
//! | 59:51  | FRP     | 9     | forward retry pointer |
//! | 63:60  | —       | 4     | reserved |

use crate::address::PhysAddr;
use crate::command::Command;
use crate::crc::Crc32k;
use crate::error::{HmcError, Result};
use crate::flit::{FLIT_BYTES, MAX_DATA_BYTES, MAX_DATA_WORDS};
use crate::{CubeId, LinkId};

/// Mask helpers: `field!(word, lo, width)` extracts, `set_field!` deposits.
macro_rules! field {
    ($word:expr, $lo:expr, $width:expr) => {
        (($word >> $lo) & ((1u64 << $width) - 1))
    };
}
macro_rules! set_field {
    ($word:expr, $lo:expr, $width:expr, $val:expr) => {{
        let mask = ((1u64 << $width) - 1) << $lo;
        $word = ($word & !mask) | ((($val as u64) << $lo) & mask);
    }};
}

/// The 7-bit `ERRSTAT` error status carried in response packet tails.
///
/// HMC-Sim generates "response packet generation following a failed read or
/// write operation \[error response packets\]" (paper §IV.C); these codes
/// identify why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseStatus {
    /// Operation completed successfully.
    Ok,
    /// The request command was undefined or unsupported by the device.
    CommandError,
    /// The decoded physical address fell outside the device capacity.
    AddressError,
    /// The packet could not be routed to its destination cube
    /// (deliberately misconfigured topologies, §IV requirement 2).
    Misroute,
    /// The packet exceeded its hop budget and was declared a zombie
    /// (loopback-adjacent misconfiguration, §V.B).
    Zombie,
    /// The request exhausted the link-retry protocol's attempt cap:
    /// every transmission was CRC-corrupt, the link went down for
    /// retraining, and this poisoned response was synthesized so the
    /// host sees a typed failure instead of a silent drop.
    LinkPoisoned,
    /// An internal vault/bank fault occurred during processing.
    InternalError,
}

impl ResponseStatus {
    /// Every status, in encoding order.
    pub const ALL: [ResponseStatus; 7] = [
        ResponseStatus::Ok,
        ResponseStatus::CommandError,
        ResponseStatus::AddressError,
        ResponseStatus::Misroute,
        ResponseStatus::Zombie,
        ResponseStatus::LinkPoisoned,
        ResponseStatus::InternalError,
    ];

    /// Wire encoding (7-bit field).
    pub fn encode(self) -> u8 {
        match self {
            ResponseStatus::Ok => 0x00,
            ResponseStatus::CommandError => 0x01,
            ResponseStatus::AddressError => 0x02,
            ResponseStatus::Misroute => 0x03,
            ResponseStatus::Zombie => 0x04,
            ResponseStatus::LinkPoisoned => 0x05,
            ResponseStatus::InternalError => 0x7f,
        }
    }

    /// Decode the 7-bit wire value.
    pub fn decode(code: u8) -> Result<Self> {
        Ok(match code & 0x7f {
            0x00 => ResponseStatus::Ok,
            0x01 => ResponseStatus::CommandError,
            0x02 => ResponseStatus::AddressError,
            0x03 => ResponseStatus::Misroute,
            0x04 => ResponseStatus::Zombie,
            0x05 => ResponseStatus::LinkPoisoned,
            0x7f => ResponseStatus::InternalError,
            other => {
                return Err(HmcError::InvalidPacket(format!(
                    "unknown ERRSTAT encoding {other:#04x}"
                )))
            }
        })
    }

    /// True when the status signals success.
    pub fn is_ok(self) -> bool {
        self == ResponseStatus::Ok
    }
}

/// A fully-formed HMC packet: header word, payload storage, tail word.
///
/// The payload array always reserves the maximum eight data FLITs
/// (16 × u64); `lng` determines how many words are live on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The 64-bit header word.
    pub header: u64,
    /// Payload storage for up to eight data FLITs (128 bytes).
    pub data: [u64; MAX_DATA_WORDS],
    /// The 64-bit tail word.
    pub tail: u64,
}

impl std::fmt::Display for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

impl Default for Packet {
    fn default() -> Self {
        Packet {
            header: 0,
            data: [0; MAX_DATA_WORDS],
            tail: 0,
        }
    }
}

impl Packet {
    // ---------------------------------------------------------------- header

    /// Raw 6-bit command field.
    pub fn raw_cmd(&self) -> u8 {
        field!(self.header, 0, 6) as u8
    }

    /// Decoded command.
    pub fn cmd(&self) -> Result<Command> {
        Command::decode(self.raw_cmd())
    }

    /// Set the command field.
    pub fn set_cmd(&mut self, cmd: Command) {
        set_field!(self.header, 0, 6, cmd.encode());
    }

    /// Packet length in FLITs (LNG field).
    pub fn lng(&self) -> usize {
        field!(self.header, 7, 4) as usize
    }

    /// Set the LNG field.
    pub fn set_lng(&mut self, flits: usize) {
        set_field!(self.header, 7, 4, flits as u64);
    }

    /// Duplicate length field (DLN; must equal LNG on valid packets).
    pub fn dln(&self) -> usize {
        field!(self.header, 11, 4) as usize
    }

    /// Set the DLN field.
    pub fn set_dln(&mut self, flits: usize) {
        set_field!(self.header, 11, 4, flits as u64);
    }

    /// 9-bit request/response correlation tag.
    pub fn tag(&self) -> u16 {
        field!(self.header, 15, 9) as u16
    }

    /// Set the tag field.
    pub fn set_tag(&mut self, tag: u16) {
        set_field!(self.header, 15, 9, tag);
    }

    /// 34-bit physical address.
    pub fn addr(&self) -> u64 {
        field!(self.header, 24, 34)
    }

    /// Set the physical address field.
    pub fn set_addr(&mut self, addr: u64) {
        set_field!(self.header, 24, 34, addr);
    }

    /// 3-bit destination cube ID.
    pub fn cub(&self) -> CubeId {
        field!(self.header, 61, 3) as CubeId
    }

    /// Set the destination cube ID.
    pub fn set_cub(&mut self, cub: CubeId) {
        set_field!(self.header, 61, 3, cub);
    }

    // ------------------------------------------------------------------ tail

    /// 5-bit return token count.
    pub fn rtc(&self) -> u8 {
        field!(self.tail, 32, 5) as u8
    }

    /// Set the return token count.
    pub fn set_rtc(&mut self, rtc: u8) {
        set_field!(self.tail, 32, 5, rtc);
    }

    /// Source link ID of a request packet.
    pub fn slid(&self) -> LinkId {
        field!(self.tail, 37, 3) as LinkId
    }

    /// Set the source link ID of a request packet.
    pub fn set_slid(&mut self, slid: LinkId) {
        set_field!(self.tail, 37, 3, slid);
    }

    /// 3-bit sequence number of a request packet.
    pub fn seq(&self) -> u8 {
        field!(self.tail, 40, 3) as u8
    }

    /// Set the sequence number of a request packet.
    pub fn set_seq(&mut self, seq: u8) {
        set_field!(self.tail, 40, 3, seq);
    }

    /// 9-bit forward retry pointer of a request packet.
    pub fn frp(&self) -> u16 {
        field!(self.tail, 43, 9) as u16
    }

    /// Set the forward retry pointer of a request packet.
    pub fn set_frp(&mut self, frp: u16) {
        set_field!(self.tail, 43, 9, frp);
    }

    /// 9-bit return retry pointer of a request packet.
    pub fn rrp(&self) -> u16 {
        field!(self.tail, 52, 9) as u16
    }

    /// Set the return retry pointer of a request packet.
    pub fn set_rrp(&mut self, rrp: u16) {
        set_field!(self.tail, 52, 9, rrp);
    }

    /// CRC field (low 32 bits of the tail, both packet classes).
    pub fn crc(&self) -> u32 {
        field!(self.tail, 0, 32) as u32
    }

    /// Set the CRC field.
    pub fn set_crc(&mut self, crc: u32) {
        set_field!(self.tail, 0, 32, crc);
    }

    // ------------------------------------------------- response-tail variant

    /// 7-bit ERRSTAT of a response packet.
    pub fn errstat(&self) -> Result<ResponseStatus> {
        ResponseStatus::decode(field!(self.tail, 37, 7) as u8)
    }

    /// Set the ERRSTAT of a response packet.
    pub fn set_errstat(&mut self, status: ResponseStatus) {
        set_field!(self.tail, 37, 7, status.encode());
    }

    /// Data-invalid flag of a response packet.
    pub fn dinv(&self) -> bool {
        field!(self.tail, 44, 1) != 0
    }

    /// Set the data-invalid flag of a response packet.
    pub fn set_dinv(&mut self, dinv: bool) {
        set_field!(self.tail, 44, 1, dinv as u64);
    }

    /// Source link ID echoed in a response packet tail.
    pub fn response_slid(&self) -> LinkId {
        field!(self.tail, 45, 3) as LinkId
    }

    /// Set the source link ID echoed in a response packet tail.
    pub fn set_response_slid(&mut self, slid: LinkId) {
        set_field!(self.tail, 45, 3, slid);
    }

    // ------------------------------------------------------------- payload

    /// Live payload size in bytes as implied by the LNG field, clamped
    /// to the eight-FLIT payload storage: the 4-bit LNG field of a
    /// corrupted packet can claim up to 15 FLITs, and accessors (CRC
    /// verification in particular) must not read past the packet for
    /// it. [`Packet::validate`] rejects such lengths outright.
    pub fn data_bytes(&self) -> usize {
        (self.lng().saturating_sub(1) * FLIT_BYTES).min(MAX_DATA_BYTES)
    }

    /// Live payload as a word slice.
    pub fn data_words(&self) -> &[u64] {
        &self.data[..self.data_bytes() / 8]
    }

    /// Copy a byte payload into the packet's data words (little-endian).
    ///
    /// # Panics
    /// Panics if `bytes.len()` exceeds the 128-byte maximum.
    pub fn set_data_bytes(&mut self, bytes: &[u8]) {
        assert!(bytes.len() <= MAX_DATA_WORDS * 8, "payload too large");
        self.data = [0; MAX_DATA_WORDS];
        // Whole words convert with a fixed-size load each; only a ragged
        // tail (never on a wire payload, which is whole FLITs) pays for a
        // variable-length copy.
        let mut words = bytes.chunks_exact(8);
        for (word, chunk) in self.data.iter_mut().zip(&mut words) {
            *word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.data[bytes.len() / 8] = u64::from_le_bytes(word);
        }
    }

    /// Extract the live payload as bytes (little-endian word order).
    pub fn data_as_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.data_bytes()];
        self.copy_data_to(&mut out);
        out
    }

    /// Copy the live payload into `out` without allocating, returning the
    /// number of bytes written (`data_bytes()`).
    ///
    /// # Panics
    /// Panics if `out` is shorter than the live payload.
    pub fn copy_data_to(&self, out: &mut [u8]) -> usize {
        // The live payload is whole FLITs, so whole words: no remainder.
        let n = self.data_bytes();
        for (chunk, w) in out[..n].chunks_exact_mut(8).zip(self.data_words()) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        n
    }

    // ---------------------------------------------------------- construction

    /// Build a fully-formed request packet (paper §V.C requires the
    /// application to submit "a preformatted, fully formed, compliant
    /// packet"; this is the `hmcsim_build_memrequest` equivalent).
    ///
    /// `data` must match the command's payload size exactly: empty for
    /// reads / MODE_READ, the block size for writes, one FLIT for atomics
    /// and MODE_WRITE.
    ///
    /// # Examples
    ///
    /// ```
    /// use hmc_types::{BlockSize, Command, Packet};
    ///
    /// let rd = Packet::request(Command::Rd(BlockSize::B64), 0, 0x1000, 5, 2, &[]).unwrap();
    /// assert_eq!(rd.lng(), 1, "reads are single-FLIT");
    /// assert!(rd.verify_crc());
    ///
    /// let wr = Packet::request(Command::Wr(BlockSize::B32), 0, 0x1000, 6, 2, &[0xab; 32]).unwrap();
    /// assert_eq!(wr.lng(), 3, "header/tail FLIT + two data FLITs");
    /// ```
    pub fn request(
        cmd: Command,
        cub: CubeId,
        addr: u64,
        tag: u16,
        link: LinkId,
        data: &[u8],
    ) -> Result<Packet> {
        let mut p = Packet::default();
        p.fill_request(cmd, cub, addr, tag, link, data)?;
        Ok(p)
    }

    /// Whether [`Packet::fill_request`] would accept these fields: `cmd`
    /// is a request command, `data_bytes` is its payload size, `addr`
    /// fits the 34-bit address field and `tag` the 9-bit tag field. The
    /// error is the one it would return.
    pub fn check_request(cmd: Command, addr: u64, tag: u16, data_bytes: usize) -> Result<()> {
        if !cmd.is_request() {
            return Err(HmcError::InvalidPacket(format!(
                "{} is not a request command",
                cmd.mnemonic()
            )));
        }
        let expected = cmd.request_data_bytes();
        if data_bytes != expected {
            return Err(HmcError::InvalidPacket(format!(
                "{} expects {expected} payload bytes, got {data_bytes}",
                cmd.mnemonic()
            )));
        }
        PhysAddr::new(addr)?;
        if tag >= (1 << 9) {
            return Err(HmcError::InvalidPacket(format!(
                "tag {tag} exceeds the 9-bit tag field"
            )));
        }
        Ok(())
    }

    /// [`Packet::request`] written over this packet, whatever it held:
    /// header, tail and all sixteen payload words are overwritten, so a
    /// recycled body keeps nothing of its last packet. On error the
    /// packet is left untouched.
    pub fn fill_request(
        &mut self,
        cmd: Command,
        cub: CubeId,
        addr: u64,
        tag: u16,
        link: LinkId,
        data: &[u8],
    ) -> Result<()> {
        Packet::check_request(cmd, addr, tag, data.len())?;
        self.header = 0;
        self.tail = 0;
        self.set_cmd(cmd);
        self.set_cub(cub);
        self.set_addr(addr);
        self.set_tag(tag);
        let flits = cmd.request_flits();
        self.set_lng(flits);
        self.set_dln(flits);
        self.set_slid(link);
        self.set_data_bytes(data);
        self.seal();
        Ok(())
    }

    /// Build a flow-control packet (NULL / PRET / TRET / IRTRY): one FLIT.
    pub fn flow(cmd: Command, cub: CubeId, rtc: u8) -> Result<Packet> {
        if !cmd.is_flow() {
            return Err(HmcError::InvalidPacket(format!(
                "{} is not a flow command",
                cmd.mnemonic()
            )));
        }
        let mut p = Packet::default();
        p.set_cmd(cmd);
        p.set_cub(cub);
        p.set_lng(1);
        p.set_dln(1);
        p.set_rtc(rtc);
        p.seal();
        Ok(p)
    }

    /// Build a fully-formed response packet.
    pub fn response(
        cmd: Command,
        tag: u16,
        slid: LinkId,
        status: ResponseStatus,
        data: &[u8],
    ) -> Result<Packet> {
        let mut p = Packet::default();
        p.set_tag(tag);
        p.set_slid(slid);
        p.make_response(cmd, status, data)?;
        Ok(p)
    }

    /// Turn this request into its response, in place: the response keeps
    /// the request's tag and echoes its source link, and everything else
    /// — header, tail, payload — is rewritten and sealed. Every payload
    /// word past `data` is cleared, so the result equals what
    /// [`Packet::response`] builds from the same tag and link, word for
    /// word, whatever the request carried (a nine-FLIT write answered by
    /// a one-FLIT `WR_RS` keeps none of its data).
    pub fn make_response(
        &mut self,
        cmd: Command,
        status: ResponseStatus,
        data: &[u8],
    ) -> Result<()> {
        if !cmd.is_response() {
            return Err(HmcError::InvalidPacket(format!(
                "{} is not a response command",
                cmd.mnemonic()
            )));
        }
        // Read what the response inherits before overwriting it.
        let (tag, slid) = (self.tag(), self.slid());
        self.header = 0;
        self.tail = 0;
        self.set_cmd(cmd);
        self.set_tag(tag);
        let flits = crate::flit::flits_for_data(data.len());
        self.set_lng(flits);
        self.set_dln(flits);
        self.set_errstat(status);
        self.set_response_slid(slid);
        self.set_dinv(!status.is_ok());
        self.set_data_bytes(data);
        self.seal();
        Ok(())
    }

    // -------------------------------------------------------------- display

    /// One-line human-readable summary for traces and debuggers, e.g.
    /// `RD64 cub=0 adrs=0x1000 tag=5 lng=1` or `?CMD(0x3f) …` for
    /// undecodable commands.
    pub fn summary(&self) -> String {
        let name = match self.cmd() {
            Ok(cmd) => cmd.mnemonic(),
            Err(_) => format!("?CMD({:#04x})", self.raw_cmd()),
        };
        format!(
            "{name} cub={} adrs={:#x} tag={} lng={}",
            self.cub(),
            self.addr(),
            self.tag(),
            self.lng()
        )
    }

    // ----------------------------------------------------------------- CRC

    /// CRC over the live packet contents with the CRC field zeroed.
    pub fn compute_crc(&self) -> u32 {
        let mut c = Crc32k::new();
        c.update_u64(self.header);
        for w in self.data_words() {
            c.update_u64(*w);
        }
        c.update_u64(self.tail & !0xffff_ffff);
        c.finish()
    }

    /// Stamp the CRC field with the checksum of the current contents.
    pub fn seal(&mut self) {
        let crc = self.compute_crc();
        self.set_crc(crc);
    }

    /// True when the CRC field matches the packet contents.
    pub fn verify_crc(&self) -> bool {
        self.crc() == self.compute_crc()
    }

    // ------------------------------------------------------------ validation

    /// Structural validation: decodable command, LNG==DLN, LNG consistent
    /// with the command class, CRC intact. This is the admission check the
    /// simulator applies to every packet entering a crossbar queue.
    pub fn validate(&self) -> Result<()> {
        let cmd = self.cmd()?;
        let lng = self.lng();
        if lng != self.dln() {
            return Err(HmcError::InvalidPacket(format!(
                "LNG {lng} != DLN {} (length duplication check failed)",
                self.dln()
            )));
        }
        if !crate::flit::is_valid_packet_length(lng) {
            return Err(HmcError::InvalidPacket(format!(
                "LNG {lng} outside 1..=9 FLITs"
            )));
        }
        let expected = if cmd.is_request() {
            cmd.request_flits()
        } else if cmd.is_flow() {
            1
        } else {
            // Responses: error responses are 1 FLIT; read/mode-read carry
            // variable payloads so we accept any legal length and let the
            // host correlate against the original request.
            lng
        };
        if lng != expected {
            return Err(HmcError::InvalidPacket(format!(
                "{} packets must be {expected} FLITs, got {lng}",
                cmd.mnemonic()
            )));
        }
        if !self.verify_crc() {
            return Err(HmcError::InvalidPacket(format!(
                "CRC mismatch: field {:#010x}, computed {:#010x}",
                self.crc(),
                self.compute_crc()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::BlockSize;

    #[test]
    fn header_fields_roundtrip_independently() {
        let mut p = Packet::default();
        p.set_cmd(Command::Rd(BlockSize::B64));
        p.set_cub(5);
        p.set_addr(0x3_dead_beef);
        p.set_tag(0x1ab);
        p.set_lng(9);
        p.set_dln(9);
        assert_eq!(p.cmd().unwrap(), Command::Rd(BlockSize::B64));
        assert_eq!(p.cub(), 5);
        assert_eq!(p.addr(), 0x3_dead_beef);
        assert_eq!(p.tag(), 0x1ab);
        assert_eq!(p.lng(), 9);
        assert_eq!(p.dln(), 9);
        // Mutating one field must not disturb neighbours.
        p.set_tag(0);
        assert_eq!(p.addr(), 0x3_dead_beef);
        assert_eq!(p.lng(), 9);
    }

    #[test]
    fn address_field_is_34_bits() {
        let mut p = Packet::default();
        p.set_addr((1 << 34) - 1);
        assert_eq!(p.addr(), (1 << 34) - 1);
        assert_eq!(p.cub(), 0, "address must not bleed into CUB");
    }

    #[test]
    fn tail_fields_roundtrip() {
        let mut p = Packet::default();
        p.set_rtc(0x1f);
        p.set_slid(7);
        p.set_seq(5);
        p.set_frp(0x1ff);
        p.set_rrp(0x155);
        p.set_crc(0xdead_beef);
        assert_eq!(p.rtc(), 0x1f);
        assert_eq!(p.slid(), 7);
        assert_eq!(p.seq(), 5);
        assert_eq!(p.frp(), 0x1ff);
        assert_eq!(p.rrp(), 0x155);
        assert_eq!(p.crc(), 0xdead_beef);
    }

    #[test]
    fn response_tail_fields_roundtrip() {
        let mut p = Packet::default();
        p.set_errstat(ResponseStatus::Misroute);
        p.set_dinv(true);
        p.set_response_slid(3);
        assert_eq!(p.errstat().unwrap(), ResponseStatus::Misroute);
        assert!(p.dinv());
        assert_eq!(p.response_slid(), 3);
    }

    #[test]
    fn read_request_builder_produces_single_flit_sealed_packet() {
        let p = Packet::request(Command::Rd(BlockSize::B64), 0, 0x1000, 7, 2, &[]).unwrap();
        assert_eq!(p.lng(), 1);
        assert_eq!(p.dln(), 1);
        assert_eq!(p.slid(), 2);
        assert!(p.verify_crc());
        p.validate().unwrap();
    }

    #[test]
    fn write_request_builder_carries_payload() {
        let data = [0xabu8; 64];
        let p = Packet::request(Command::Wr(BlockSize::B64), 1, 0x2000, 3, 0, &data).unwrap();
        assert_eq!(p.lng(), 5);
        assert_eq!(p.data_bytes(), 64);
        assert_eq!(p.data_as_bytes(), data.to_vec());
        p.validate().unwrap();
    }

    #[test]
    fn request_builder_rejects_payload_size_mismatch() {
        let err = Packet::request(Command::Wr(BlockSize::B64), 0, 0, 0, 0, &[0u8; 32]);
        assert!(matches!(err, Err(HmcError::InvalidPacket(_))));
        let err = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 0, 0, &[0u8; 16]);
        assert!(matches!(err, Err(HmcError::InvalidPacket(_))));
    }

    #[test]
    fn request_builder_rejects_oversized_address_and_tag() {
        let err = Packet::request(Command::Rd(BlockSize::B16), 0, 1 << 34, 0, 0, &[]);
        assert!(matches!(err, Err(HmcError::InvalidAddress { .. })));
        let err = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 512, 0, &[]);
        assert!(matches!(err, Err(HmcError::InvalidPacket(_))));
    }

    #[test]
    fn a_refused_fill_writes_nothing() {
        let dirty = Packet {
            header: u64::MAX,
            data: [0xdead_beef_dead_beef; MAX_DATA_WORDS],
            tail: u64::MAX,
        };
        let mut p = dirty.clone();
        let bad = p.fill_request(Command::Rd(BlockSize::B16), 0, 1 << 34, 0, 0, &[]);
        assert!(matches!(bad, Err(HmcError::InvalidAddress { .. })));
        assert_eq!(p, dirty);
    }

    #[test]
    fn request_builder_rejects_non_request_commands() {
        assert!(Packet::request(Command::RdResponse, 0, 0, 0, 0, &[]).is_err());
        assert!(Packet::request(Command::Null, 0, 0, 0, 0, &[]).is_err());
    }

    #[test]
    fn flow_packets_are_single_flit() {
        for cmd in [Command::Null, Command::Pret, Command::Tret, Command::Irtry] {
            let p = Packet::flow(cmd, 0, 9).unwrap();
            assert_eq!(p.lng(), 1);
            assert_eq!(p.rtc(), 9);
            p.validate().unwrap();
        }
        assert!(Packet::flow(Command::Rd(BlockSize::B16), 0, 0).is_err());
    }

    #[test]
    fn response_builder_round_trips_data() {
        let data: Vec<u8> = (0..64u8).collect();
        let p = Packet::response(Command::RdResponse, 42, 1, ResponseStatus::Ok, &data).unwrap();
        assert_eq!(p.tag(), 42);
        assert_eq!(p.lng(), 5);
        assert_eq!(p.errstat().unwrap(), ResponseStatus::Ok);
        assert!(!p.dinv());
        assert_eq!(p.data_as_bytes(), data);
        p.validate().unwrap();
    }

    #[test]
    fn error_responses_mark_data_invalid() {
        let p = Packet::response(
            Command::ErrorResponse,
            7,
            0,
            ResponseStatus::AddressError,
            &[],
        )
        .unwrap();
        assert!(p.dinv());
        assert_eq!(p.errstat().unwrap(), ResponseStatus::AddressError);
    }

    #[test]
    fn crc_detects_header_and_payload_corruption() {
        let mut p =
            Packet::request(Command::Wr(BlockSize::B32), 0, 0x40, 1, 0, &[0x5au8; 32]).unwrap();
        assert!(p.verify_crc());
        p.set_addr(0x80);
        assert!(!p.verify_crc(), "header corruption must break the CRC");
        p.seal();
        assert!(p.verify_crc());
        p.data[0] ^= 1;
        assert!(!p.verify_crc(), "payload corruption must break the CRC");
    }

    #[test]
    fn crc_ignores_dead_payload_words() {
        // Words beyond LNG are not on the wire and must not affect the CRC.
        let mut p = Packet::request(Command::Rd(BlockSize::B64), 0, 0x40, 1, 0, &[]).unwrap();
        let crc = p.compute_crc();
        p.data[10] = 0xffff_ffff_ffff_ffff;
        assert_eq!(p.compute_crc(), crc);
    }

    #[test]
    fn validate_rejects_length_duplication_mismatch() {
        let mut p = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 0, 0, &[]).unwrap();
        p.set_dln(2);
        p.seal();
        assert!(matches!(p.validate(), Err(HmcError::InvalidPacket(_))));
    }

    #[test]
    fn validate_rejects_wrong_length_for_command() {
        let mut p = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 0, 0, &[]).unwrap();
        p.set_lng(2);
        p.set_dln(2);
        p.seal();
        assert!(matches!(p.validate(), Err(HmcError::InvalidPacket(_))));
    }

    #[test]
    fn validate_rejects_bad_crc() {
        let mut p = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 0, 0, &[]).unwrap();
        p.set_crc(p.crc().wrapping_add(1));
        assert!(matches!(p.validate(), Err(HmcError::InvalidPacket(_))));
    }

    #[test]
    fn response_status_roundtrip() {
        for s in ResponseStatus::ALL {
            assert_eq!(ResponseStatus::decode(s.encode()).unwrap(), s);
        }
        assert!(ResponseStatus::decode(0x50).is_err());
    }

    #[test]
    fn summary_renders_mnemonic_and_fields() {
        let p = Packet::request(Command::Rd(BlockSize::B64), 2, 0x1000, 5, 0, &[]).unwrap();
        let s = p.summary();
        assert!(s.starts_with("RD64"));
        assert!(s.contains("cub=2"));
        assert!(s.contains("adrs=0x1000"));
        assert!(s.contains("tag=5"));
        assert_eq!(s, format!("{p}"), "Display matches summary");
        let mut bad = p.clone();
        bad.header = (bad.header & !0x3f) | 0x3f;
        assert!(bad.summary().starts_with("?CMD(0x3f)"));
    }

    #[test]
    fn data_byte_helpers_handle_partial_words() {
        let mut p = Packet::default();
        p.set_data_bytes(&[1, 2, 3]);
        assert_eq!(p.data[0], u64::from_le_bytes([1, 2, 3, 0, 0, 0, 0, 0]));
    }
}
