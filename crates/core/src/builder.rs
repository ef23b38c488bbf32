//! Request building and response decoding helpers.
//!
//! "The API provides two functions to assist with encoding and decoding
//! request and response packets, respectively" (paper §V.C). The builder
//! mirrors `hmcsim_build_memrequest` from the Figure 4 calling sequence;
//! the decoder correlates response packets — which "may arrive out of
//! order" — back to tags, status and payload for the calling application.

use hmc_types::packet::ResponseStatus;
use hmc_types::{Command, CubeId, Cycle, HmcError, LinkId, Packet, Result};

/// A decoded response packet, ready for host-side correlation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseInfo {
    /// The response command (RD_RS / WR_RS / MD_RD_RS / MD_WR_RS / ERROR).
    pub cmd: Command,
    /// The correlation tag echoed from the request.
    pub tag: u16,
    /// Completion status.
    pub status: ResponseStatus,
    /// True when the payload must not be trusted.
    pub data_invalid: bool,
    /// The payload (empty for write/mode-write/error responses).
    pub data: Vec<u8>,
    /// The link the original request entered on (SLID echo).
    pub slid: LinkId,
}

impl Default for ResponseInfo {
    /// A successful `WR_RS` for tag 0 on link 0: an empty response for
    /// [`ResponseInfo::decode_from`] to overwrite.
    fn default() -> Self {
        ResponseInfo {
            cmd: Command::WrResponse,
            tag: 0,
            status: ResponseStatus::Ok,
            data_invalid: false,
            data: Vec::new(),
            slid: 0,
        }
    }
}

impl ResponseInfo {
    /// True when the response signals success.
    pub fn is_ok(&self) -> bool {
        self.status.is_ok()
    }

    /// Decode `packet` over this value, reusing its payload buffer: once
    /// `data` has held the largest payload, decoding allocates nothing.
    /// On error the value is left untouched.
    pub fn decode_from(&mut self, packet: &Packet) -> Result<()> {
        let cmd = packet.cmd()?;
        if !cmd.is_response() {
            return Err(HmcError::InvalidPacket(format!(
                "{} is not a response command",
                cmd.mnemonic()
            )));
        }
        self.status = packet.errstat()?;
        self.cmd = cmd;
        self.tag = packet.tag();
        self.data_invalid = packet.dinv();
        self.slid = packet.response_slid();
        self.data.resize(packet.data_bytes(), 0);
        packet.copy_data_to(&mut self.data);
        Ok(())
    }
}

/// Build a fully formed, compliant memory request packet — the
/// `hmcsim_build_memrequest` equivalent.
///
/// `payload` must match the command class: empty for reads and MODE_READ,
/// the block size for writes, exactly 16 bytes for atomics and MODE_WRITE.
pub fn build_mem_request(
    cmd: Command,
    cub: CubeId,
    addr: u64,
    tag: u16,
    link: LinkId,
    payload: &[u8],
) -> Result<Packet> {
    Packet::request(cmd, cub, addr, tag, link, payload)
}

/// Decode a response packet into a new [`ResponseInfo`]
/// ([`ResponseInfo::decode_from`] reuses one).
pub fn decode_response(packet: &Packet) -> Result<ResponseInfo> {
    let mut info = ResponseInfo::default();
    info.decode_from(packet)?;
    Ok(info)
}

/// A received response paired with its observed latency — what
/// [`HmcSim::recv_with_latency`](crate::sim::HmcSim::recv_with_latency)
/// yields after decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedResponse {
    /// The decoded response.
    pub info: ResponseInfo,
    /// Cycles from device entry to host delivery.
    pub latency: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::BlockSize;

    #[test]
    fn build_matches_packet_request() {
        let a = build_mem_request(Command::Rd(BlockSize::B64), 1, 0x40, 7, 2, &[]).unwrap();
        let b = Packet::request(Command::Rd(BlockSize::B64), 1, 0x40, 7, 2, &[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn decode_read_response() {
        let data: Vec<u8> = (0..32).collect();
        let p = Packet::response(Command::RdResponse, 42, 3, ResponseStatus::Ok, &data).unwrap();
        let info = decode_response(&p).unwrap();
        assert_eq!(info.cmd, Command::RdResponse);
        assert_eq!(info.tag, 42);
        assert_eq!(info.slid, 3);
        assert!(info.is_ok());
        assert!(!info.data_invalid);
        assert_eq!(info.data, data);
    }

    #[test]
    fn decode_error_response() {
        let p = Packet::response(
            Command::ErrorResponse,
            9,
            0,
            ResponseStatus::AddressError,
            &[],
        )
        .unwrap();
        let info = decode_response(&p).unwrap();
        assert!(!info.is_ok());
        assert!(info.data_invalid);
        assert_eq!(info.status, ResponseStatus::AddressError);
        assert!(info.data.is_empty());
    }

    #[test]
    fn decode_rejects_request_packets() {
        let p = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 0, 0, &[]).unwrap();
        assert!(decode_response(&p).is_err());
    }

    #[test]
    fn a_refused_decode_leaves_the_value_alone() {
        let data = [7u8; 16];
        let p = Packet::response(Command::RdResponse, 4, 1, ResponseStatus::Ok, &data).unwrap();
        let mut info = decode_response(&p).unwrap();
        let before = info.clone();
        let rd = Packet::request(Command::Rd(BlockSize::B16), 0, 0, 0, 0, &[]).unwrap();
        assert!(info.decode_from(&rd).is_err());
        let mut bad_status = p.clone();
        bad_status.tail |= 0x50 << 37;
        bad_status.seal();
        assert!(info.decode_from(&bad_status).is_err());
        assert_eq!(info, before);
    }
}
