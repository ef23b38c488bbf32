//! The `hmc-serve` wire protocol: length-prefixed binary frames.
//!
//! A service boundary for the simulator (in the spirit of Ramulator 2.0's
//! external-frontend philosophy) needs a compact, versioned, deterministic
//! encoding. Every frame on the wire is `[u32 length LE][u8 opcode][body]`
//! where `length` counts the opcode byte plus the body. All integers are
//! little-endian; variable-size fields (strings, byte blobs, op vectors)
//! carry a `u32` element count first.
//!
//! This module defines the frame *data model* and its byte-level codec
//! only — socket framing (reading exactly one length-prefixed frame off a
//! stream) lives in `hmc-serve::proto`, keeping `hmc-types` free of I/O.

use crate::error::{HmcError, Result};

/// Protocol version spoken by this build. Bumped on any incompatible
/// frame-layout change; `Hello`/`HelloAck` negotiate an exact match.
/// Version 2 appended the cell-fault counters to `Stats`/`Closed`.
pub const WIRE_VERSION: u16 = 3;

/// Upper bound on one frame's encoded size (opcode + body). Guards the
/// server against hostile or corrupt length prefixes.
pub const MAX_FRAME_LEN: u32 = 1 << 24;

/// One memory operation as carried by a `SubmitBatch` frame.
///
/// `kind` is the [`WireOp`] operation code (see [`WireOp::KIND_READ`] and
/// friends); `size_bytes` is the block size for reads/writes (16..=128 in
/// steps of 16; atomics ignore it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireOp {
    /// Operation code (`KIND_*` constants).
    pub kind: u8,
    /// Target physical address.
    pub addr: u64,
    /// Block size in bytes for reads and writes.
    pub size_bytes: u16,
}

impl WireOp {
    /// Memory read.
    pub const KIND_READ: u8 = 0;
    /// Memory write (response expected).
    pub const KIND_WRITE: u8 = 1;
    /// Posted (no-response) write.
    pub const KIND_POSTED_WRITE: u8 = 2;
    /// Dual 8-byte atomic add.
    pub const KIND_TWO_ADD8: u8 = 3;
    /// 16-byte atomic add.
    pub const KIND_ADD16: u8 = 4;
    /// Masked 8-byte bit-write.
    pub const KIND_BIT_WRITE: u8 = 5;
    /// Client-scheduled idle gap: run the device for `addr` cycles with
    /// no injection (open-loop arrival modeling). Produces no response;
    /// `size_bytes` is ignored. Sessions in fast-forward mode jump these
    /// dead cycles instead of stepping them.
    pub const KIND_IDLE: u8 = 6;

    /// An idle-gap operation spanning `cycles` device cycles.
    pub fn idle(cycles: u64) -> WireOp {
        WireOp {
            kind: WireOp::KIND_IDLE,
            addr: cycles,
            size_bytes: 0,
        }
    }
}

/// One completed response as carried by a `Responses` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResponse {
    /// The 9-bit request tag the device correlated.
    pub tag: u16,
    /// True unless the device returned an error status.
    pub ok: bool,
    /// The response's 7-bit `ERRSTAT` wire encoding (0 on success;
    /// 0x05 marks a link-retry-exhausted poisoned response).
    pub status: u8,
    /// Request-to-response latency in simulated cycles.
    pub latency: u64,
    /// Response payload (read data; empty for write acknowledgements).
    pub data: Vec<u8>,
}

impl WireResponse {
    /// Bytes a `Responses` frame spends around its items: opcode, item
    /// count, `outstanding` and `idle`.
    pub const FRAME_OVERHEAD: usize = 10;

    /// Bytes this response takes in an encoded `Responses` frame: tag,
    /// ok, status, latency and data length (16), then the data.
    pub fn encoded_len(&self) -> usize {
        16 + self.data.len()
    }
}

/// A per-session metrics snapshot as carried by `Stats`/`Closed` frames.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WireStats {
    /// Simulated cycles executed for this session.
    pub cycles: u64,
    /// Requests accepted by the device.
    pub injected: u64,
    /// Responses received and correlated.
    pub completed: u64,
    /// Posted (no-response) requests injected.
    pub posted: u64,
    /// Error responses observed.
    pub errors: u64,
    /// Send attempts rejected with a queue-full stall.
    pub send_stalls: u64,
    /// Injection attempts deferred because all 512 tags were in flight.
    pub tag_stalls: u64,
    /// Send attempts rejected for lack of link flow-control tokens.
    pub token_stalls: u64,
    /// Responses whose tag could not be correlated.
    pub orphans: u64,
    /// Requests currently awaiting responses.
    pub outstanding: u32,
    /// Packets resident in device queues right now.
    pub queue_occupancy: u32,
    /// Operations waiting in the session's inflight queue.
    pub inflight: u32,
    /// Responses buffered for the client to poll.
    pub buffered_responses: u32,
    /// Mean request latency in simulated cycles.
    pub mean_latency: f64,
    /// Maximum request latency in simulated cycles.
    pub max_latency: u64,
    /// Row activations counted by the cell-fault model (0 when off).
    pub hammer_activations: u64,
    /// Bits flipped by injected RowHammer disturbance.
    pub bit_flips: u64,
    /// Targeted-row-refresh mitigations the device performed.
    pub trr_refreshes: u64,
    /// Cells decayed past the retention horizon.
    pub retention_decays: u64,
    /// Link-retry exchanges (detected transmission corruptions).
    pub link_retries: u64,
    /// Link retraining windows completed after retry exhaustion.
    pub link_retrains: u64,
    /// Responses delivered with a poisoned `ERRSTAT` after the link
    /// gave up on the request.
    pub poisoned_responses: u64,
}

/// Typed error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireErrorCode {
    /// The session ID is unknown (never opened, closed, or reaped idle).
    UnknownSession = 1,
    /// The frame could not be decoded or was not legal in this state.
    BadFrame = 2,
    /// The session's device configuration was rejected.
    BadConfig = 3,
    /// The server is draining and accepts no new sessions or work.
    ShuttingDown = 4,
    /// Protocol version mismatch in `Hello`.
    VersionMismatch = 5,
    /// An internal simulation error surfaced.
    Internal = 6,
}

impl WireErrorCode {
    /// Decode from the on-wire byte.
    pub fn from_u8(code: u8) -> Option<Self> {
        match code {
            1 => Some(Self::UnknownSession),
            2 => Some(Self::BadFrame),
            3 => Some(Self::BadConfig),
            4 => Some(Self::ShuttingDown),
            5 => Some(Self::VersionMismatch),
            6 => Some(Self::Internal),
            _ => None,
        }
    }
}

/// Typed backpressure reasons carried by [`Frame::Busy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum BusyReason {
    /// The server is at its concurrent-session limit.
    SessionsFull = 1,
    /// The session's bounded inflight queue has no free slot.
    InflightFull = 2,
    /// The session's response buffer is full; poll before submitting.
    ResponsesFull = 3,
}

impl BusyReason {
    /// Decode from the on-wire byte.
    pub fn from_u8(code: u8) -> Option<Self> {
        match code {
            1 => Some(Self::SessionsFull),
            2 => Some(Self::InflightFull),
            3 => Some(Self::ResponsesFull),
            _ => None,
        }
    }
}

/// Every frame of the `hmc-serve` protocol.
///
/// Client-to-server frames use opcodes `0x01..=0x07`; server-to-client
/// frames use `0x81..=0x87` plus the shared `Busy` (`0x7e`) and `Error`
/// (`0x7f`) frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client greeting; must be the first frame on a connection.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u16,
    },
    /// Server reply to a version-compatible `Hello`.
    HelloAck {
        /// The server's [`WIRE_VERSION`].
        version: u16,
        /// Admission-control limit on concurrent sessions.
        max_sessions: u32,
        /// Sessions currently open.
        active_sessions: u32,
    },
    /// Open a simulation session from a preset name or a config JSON body.
    OpenSession {
        /// Paper preset name (`4l8b`, `4l16b`, `8l8b`, `8l16b`, `small`);
        /// empty to use `config_json` instead.
        preset: String,
        /// A `DeviceConfig` JSON document (the `configs/*.json` schema);
        /// ignored unless `preset` is empty.
        config_json: String,
        /// Requested inflight-queue bound (0 = server default; clamped).
        inflight_limit: u32,
        /// Requested response-buffer bound (0 = server default; clamped).
        response_limit: u32,
    },
    /// Server reply carrying the new session's ID.
    SessionOpened {
        /// Session handle for subsequent frames.
        session: u64,
    },
    /// Submit a batch of memory operations to a session.
    SubmitBatch {
        /// Target session.
        session: u64,
        /// Operations, in issue order.
        ops: Vec<WireOp>,
    },
    /// Server reply: how much of the batch was admitted.
    BatchAccepted {
        /// Operations admitted to the inflight queue (prefix of the batch).
        accepted: u32,
        /// Free inflight-queue slots remaining after admission.
        queue_free: u32,
    },
    /// Ask for up to `max` buffered responses.
    Poll {
        /// Target session.
        session: u64,
        /// Maximum responses to return (0 = server default).
        max: u32,
    },
    /// Server reply to `Poll`.
    Responses {
        /// Completed responses, in device completion order.
        items: Vec<WireResponse>,
        /// Requests still awaiting responses after this poll.
        outstanding: u32,
        /// True when the session has no queued work, no outstanding
        /// requests, an idle device, and no responses left buffered.
        idle: bool,
    },
    /// Ask for a metrics snapshot.
    SnapshotStats {
        /// Target session.
        session: u64,
    },
    /// Server reply to `SnapshotStats`.
    Stats(WireStats),
    /// Close a session, releasing its device.
    CloseSession {
        /// Target session.
        session: u64,
    },
    /// Server reply to `CloseSession` with the session's final metrics.
    Closed(WireStats),
    /// Ask the server to begin a graceful drain (stop accepting, quiesce
    /// every device, flush responses, exit 0) — the in-band equivalent of
    /// SIGTERM.
    Shutdown,
    /// Server acknowledgement of `Shutdown`.
    ShuttingDown,
    /// Typed backpressure: the request was rejected, retry later.
    Busy {
        /// Why the request was rejected ([`BusyReason`] byte).
        reason: u8,
        /// Suggested retry delay in milliseconds.
        retry_hint_ms: u32,
    },
    /// Typed failure ([`WireErrorCode`] byte plus a human-readable cause).
    Error {
        /// Machine-readable error class.
        code: u8,
        /// Human-readable explanation.
        message: String,
    },
}

const OP_HELLO: u8 = 0x01;
const OP_OPEN_SESSION: u8 = 0x02;
const OP_SUBMIT_BATCH: u8 = 0x03;
const OP_POLL: u8 = 0x04;
const OP_SNAPSHOT_STATS: u8 = 0x05;
const OP_CLOSE_SESSION: u8 = 0x06;
const OP_SHUTDOWN: u8 = 0x07;
const OP_HELLO_ACK: u8 = 0x81;
const OP_SESSION_OPENED: u8 = 0x82;
const OP_BATCH_ACCEPTED: u8 = 0x83;
const OP_RESPONSES: u8 = 0x84;
const OP_STATS: u8 = 0x85;
const OP_CLOSED: u8 = 0x86;
const OP_SHUTTING_DOWN: u8 = 0x87;
const OP_BUSY: u8 = 0x7e;
const OP_ERROR: u8 = 0x7f;

impl Frame {
    /// The frame's opcode byte.
    pub fn opcode(&self) -> u8 {
        match self {
            Frame::Hello { .. } => OP_HELLO,
            Frame::OpenSession { .. } => OP_OPEN_SESSION,
            Frame::SubmitBatch { .. } => OP_SUBMIT_BATCH,
            Frame::Poll { .. } => OP_POLL,
            Frame::SnapshotStats { .. } => OP_SNAPSHOT_STATS,
            Frame::CloseSession { .. } => OP_CLOSE_SESSION,
            Frame::Shutdown => OP_SHUTDOWN,
            Frame::HelloAck { .. } => OP_HELLO_ACK,
            Frame::SessionOpened { .. } => OP_SESSION_OPENED,
            Frame::BatchAccepted { .. } => OP_BATCH_ACCEPTED,
            Frame::Responses { .. } => OP_RESPONSES,
            Frame::Stats(_) => OP_STATS,
            Frame::Closed(_) => OP_CLOSED,
            Frame::ShuttingDown => OP_SHUTTING_DOWN,
            Frame::Busy { .. } => OP_BUSY,
            Frame::Error { .. } => OP_ERROR,
        }
    }

    /// Encode opcode + body (without the length prefix).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.push(self.opcode());
        match self {
            Frame::Hello { version } => put_u16(&mut out, *version),
            Frame::HelloAck {
                version,
                max_sessions,
                active_sessions,
            } => {
                put_u16(&mut out, *version);
                put_u32(&mut out, *max_sessions);
                put_u32(&mut out, *active_sessions);
            }
            Frame::OpenSession {
                preset,
                config_json,
                inflight_limit,
                response_limit,
            } => {
                put_str(&mut out, preset);
                put_str(&mut out, config_json);
                put_u32(&mut out, *inflight_limit);
                put_u32(&mut out, *response_limit);
            }
            Frame::SessionOpened { session } => put_u64(&mut out, *session),
            Frame::SubmitBatch { session, ops } => {
                put_u64(&mut out, *session);
                put_u32(&mut out, ops.len() as u32);
                for op in ops {
                    out.push(op.kind);
                    put_u64(&mut out, op.addr);
                    put_u16(&mut out, op.size_bytes);
                }
            }
            Frame::BatchAccepted {
                accepted,
                queue_free,
            } => {
                put_u32(&mut out, *accepted);
                put_u32(&mut out, *queue_free);
            }
            Frame::Poll { session, max } => {
                put_u64(&mut out, *session);
                put_u32(&mut out, *max);
            }
            Frame::Responses {
                items,
                outstanding,
                idle,
            } => {
                put_u32(&mut out, items.len() as u32);
                for r in items {
                    put_u16(&mut out, r.tag);
                    out.push(r.ok as u8);
                    out.push(r.status);
                    put_u64(&mut out, r.latency);
                    put_u32(&mut out, r.data.len() as u32);
                    out.extend_from_slice(&r.data);
                }
                put_u32(&mut out, *outstanding);
                out.push(*idle as u8);
            }
            Frame::SnapshotStats { session } => put_u64(&mut out, *session),
            Frame::Stats(s) | Frame::Closed(s) => put_stats(&mut out, s),
            Frame::CloseSession { session } => put_u64(&mut out, *session),
            Frame::Shutdown | Frame::ShuttingDown => {}
            Frame::Busy {
                reason,
                retry_hint_ms,
            } => {
                out.push(*reason);
                put_u32(&mut out, *retry_hint_ms);
            }
            Frame::Error { code, message } => {
                out.push(*code);
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Encode the full on-wire form: `[u32 length][opcode][body]`.
    pub fn encode_framed(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut out = Vec::with_capacity(4 + body.len());
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(&body);
        out
    }

    /// Decode a frame from opcode + body bytes (the length prefix already
    /// stripped). Fails with [`HmcError::Wire`] on malformed input.
    pub fn decode_body(body: &[u8]) -> Result<Frame> {
        let mut c = Cursor { buf: body, pos: 0 };
        let opcode = c.u8()?;
        let frame = match opcode {
            OP_HELLO => Frame::Hello { version: c.u16()? },
            OP_HELLO_ACK => Frame::HelloAck {
                version: c.u16()?,
                max_sessions: c.u32()?,
                active_sessions: c.u32()?,
            },
            OP_OPEN_SESSION => Frame::OpenSession {
                preset: c.string()?,
                config_json: c.string()?,
                inflight_limit: c.u32()?,
                response_limit: c.u32()?,
            },
            OP_SESSION_OPENED => Frame::SessionOpened { session: c.u64()? },
            OP_SUBMIT_BATCH => {
                let session = c.u64()?;
                let n = c.u32()? as usize;
                if n > body.len() {
                    return Err(HmcError::Wire(format!(
                        "batch claims {n} ops but the frame is {} bytes",
                        body.len()
                    )));
                }
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    ops.push(WireOp {
                        kind: c.u8()?,
                        addr: c.u64()?,
                        size_bytes: c.u16()?,
                    });
                }
                Frame::SubmitBatch { session, ops }
            }
            OP_BATCH_ACCEPTED => Frame::BatchAccepted {
                accepted: c.u32()?,
                queue_free: c.u32()?,
            },
            OP_POLL => Frame::Poll {
                session: c.u64()?,
                max: c.u32()?,
            },
            OP_RESPONSES => {
                let n = c.u32()? as usize;
                if n > body.len() {
                    return Err(HmcError::Wire(format!(
                        "poll reply claims {n} responses but the frame is {} bytes",
                        body.len()
                    )));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(WireResponse {
                        tag: c.u16()?,
                        ok: c.u8()? != 0,
                        status: c.u8()?,
                        latency: c.u64()?,
                        data: c.blob()?,
                    });
                }
                Frame::Responses {
                    items,
                    outstanding: c.u32()?,
                    idle: c.u8()? != 0,
                }
            }
            OP_SNAPSHOT_STATS => Frame::SnapshotStats { session: c.u64()? },
            OP_STATS => Frame::Stats(get_stats(&mut c)?),
            OP_CLOSED => Frame::Closed(get_stats(&mut c)?),
            OP_CLOSE_SESSION => Frame::CloseSession { session: c.u64()? },
            OP_SHUTDOWN => Frame::Shutdown,
            OP_SHUTTING_DOWN => Frame::ShuttingDown,
            OP_BUSY => Frame::Busy {
                reason: c.u8()?,
                retry_hint_ms: c.u32()?,
            },
            OP_ERROR => Frame::Error {
                code: c.u8()?,
                message: c.string()?,
            },
            other => {
                return Err(HmcError::Wire(format!("unknown opcode 0x{other:02x}")))
            }
        };
        if c.pos != body.len() {
            return Err(HmcError::Wire(format!(
                "{} trailing bytes after frame 0x{opcode:02x}",
                body.len() - c.pos
            )));
        }
        Ok(frame)
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_stats(out: &mut Vec<u8>, s: &WireStats) {
    put_u64(out, s.cycles);
    put_u64(out, s.injected);
    put_u64(out, s.completed);
    put_u64(out, s.posted);
    put_u64(out, s.errors);
    put_u64(out, s.send_stalls);
    put_u64(out, s.tag_stalls);
    put_u64(out, s.token_stalls);
    put_u64(out, s.orphans);
    put_u32(out, s.outstanding);
    put_u32(out, s.queue_occupancy);
    put_u32(out, s.inflight);
    put_u32(out, s.buffered_responses);
    put_u64(out, s.mean_latency.to_bits());
    put_u64(out, s.max_latency);
    put_u64(out, s.hammer_activations);
    put_u64(out, s.bit_flips);
    put_u64(out, s.trr_refreshes);
    put_u64(out, s.retention_decays);
    put_u64(out, s.link_retries);
    put_u64(out, s.link_retrains);
    put_u64(out, s.poisoned_responses);
}

fn get_stats(c: &mut Cursor<'_>) -> Result<WireStats> {
    Ok(WireStats {
        cycles: c.u64()?,
        injected: c.u64()?,
        completed: c.u64()?,
        posted: c.u64()?,
        errors: c.u64()?,
        send_stalls: c.u64()?,
        tag_stalls: c.u64()?,
        token_stalls: c.u64()?,
        orphans: c.u64()?,
        outstanding: c.u32()?,
        queue_occupancy: c.u32()?,
        inflight: c.u32()?,
        buffered_responses: c.u32()?,
        mean_latency: f64::from_bits(c.u64()?),
        max_latency: c.u64()?,
        hammer_activations: c.u64()?,
        bit_flips: c.u64()?,
        trr_refreshes: c.u64()?,
        retention_decays: c.u64()?,
        link_retries: c.u64()?,
        link_retrains: c.u64()?,
        poisoned_responses: c.u64()?,
    })
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(HmcError::Wire(format!(
                "truncated frame: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn blob(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    fn string(&mut self) -> Result<String> {
        let bytes = self.blob()?;
        String::from_utf8(bytes)
            .map_err(|e| HmcError::Wire(format!("invalid UTF-8 in string field: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let body = f.encode_body();
        let back = Frame::decode_body(&body).unwrap_or_else(|e| panic!("{f:?}: {e}"));
        assert_eq!(f, back);
        // The framed form is the body plus a 4-byte length prefix.
        let framed = f.encode_framed();
        assert_eq!(framed.len(), body.len() + 4);
        let len = u32::from_le_bytes(framed[..4].try_into().unwrap()) as usize;
        assert_eq!(len, body.len());
        if let Frame::Responses { items, .. } = &f {
            let sized: usize = items.iter().map(WireResponse::encoded_len).sum();
            assert_eq!(body.len(), WireResponse::FRAME_OVERHEAD + sized);
        }
        assert_eq!(&framed[4..], &body[..]);
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip(Frame::Hello { version: 1 });
        roundtrip(Frame::HelloAck {
            version: 1,
            max_sessions: 64,
            active_sessions: 3,
        });
        roundtrip(Frame::OpenSession {
            preset: "4l8b".into(),
            config_json: String::new(),
            inflight_limit: 4096,
            response_limit: 0,
        });
        roundtrip(Frame::OpenSession {
            preset: String::new(),
            config_json: "{\"num_links\":4}".into(),
            inflight_limit: 0,
            response_limit: 128,
        });
        roundtrip(Frame::SessionOpened { session: 42 });
        roundtrip(Frame::SubmitBatch {
            session: 42,
            ops: vec![
                WireOp {
                    kind: WireOp::KIND_READ,
                    addr: 0x1234_5678_9abc,
                    size_bytes: 64,
                },
                WireOp {
                    kind: WireOp::KIND_TWO_ADD8,
                    addr: 0,
                    size_bytes: 16,
                },
            ],
        });
        roundtrip(Frame::SubmitBatch {
            session: 0,
            ops: vec![],
        });
        roundtrip(Frame::BatchAccepted {
            accepted: 100,
            queue_free: 28,
        });
        roundtrip(Frame::Poll {
            session: 42,
            max: 512,
        });
        roundtrip(Frame::Responses {
            items: vec![
                WireResponse {
                    tag: 511,
                    ok: true,
                    status: 0,
                    latency: 19,
                    data: vec![1, 2, 3, 4],
                },
                WireResponse {
                    tag: 0,
                    ok: false,
                    status: 0x05,
                    latency: 1,
                    data: vec![],
                },
            ],
            outstanding: 7,
            idle: false,
        });
        roundtrip(Frame::SnapshotStats { session: 42 });
        roundtrip(Frame::Stats(WireStats {
            cycles: 1000,
            injected: 500,
            completed: 499,
            posted: 1,
            errors: 0,
            send_stalls: 17,
            tag_stalls: 3,
            token_stalls: 5,
            orphans: 0,
            outstanding: 1,
            queue_occupancy: 2,
            inflight: 0,
            buffered_responses: 12,
            mean_latency: 19.25,
            max_latency: 83,
            hammer_activations: 4096,
            bit_flips: 3,
            trr_refreshes: 2,
            retention_decays: 1,
            link_retries: 9,
            link_retrains: 1,
            poisoned_responses: 4,
        }));
        roundtrip(Frame::Closed(WireStats::default()));
        roundtrip(Frame::CloseSession { session: 42 });
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::ShuttingDown);
        roundtrip(Frame::Busy {
            reason: BusyReason::InflightFull as u8,
            retry_hint_ms: 5,
        });
        roundtrip(Frame::Error {
            code: WireErrorCode::UnknownSession as u8,
            message: "session 9 was reaped".into(),
        });
    }

    #[test]
    fn truncated_frames_are_rejected() {
        for f in [
            Frame::Hello { version: 1 },
            Frame::SessionOpened { session: 42 },
            Frame::Stats(WireStats::default()),
            Frame::Error {
                code: 2,
                message: "x".into(),
            },
        ] {
            let body = f.encode_body();
            for cut in 1..body.len() {
                assert!(
                    Frame::decode_body(&body[..cut]).is_err(),
                    "{f:?} truncated to {cut} bytes must not decode"
                );
            }
        }
    }

    #[test]
    fn unknown_opcode_and_trailing_bytes_are_rejected() {
        assert!(Frame::decode_body(&[0x55]).is_err());
        assert!(Frame::decode_body(&[]).is_err());
        let mut body = Frame::Shutdown.encode_body();
        body.push(0);
        assert!(Frame::decode_body(&body).is_err(), "trailing byte");
    }

    #[test]
    fn hostile_counts_do_not_overallocate() {
        // A batch claiming u32::MAX ops must fail fast, not try to reserve.
        let mut body = vec![OP_SUBMIT_BATCH];
        body.extend_from_slice(&42u64.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Frame::decode_body(&body).is_err());
    }

    #[test]
    fn error_and_busy_codes_roundtrip() {
        for c in [
            WireErrorCode::UnknownSession,
            WireErrorCode::BadFrame,
            WireErrorCode::BadConfig,
            WireErrorCode::ShuttingDown,
            WireErrorCode::VersionMismatch,
            WireErrorCode::Internal,
        ] {
            assert_eq!(WireErrorCode::from_u8(c as u8), Some(c));
        }
        assert_eq!(WireErrorCode::from_u8(0), None);
        for r in [
            BusyReason::SessionsFull,
            BusyReason::InflightFull,
            BusyReason::ResponsesFull,
        ] {
            assert_eq!(BusyReason::from_u8(r as u8), Some(r));
        }
        assert_eq!(BusyReason::from_u8(99), None);
    }

    #[test]
    fn nan_latency_survives_the_wire() {
        // mean_latency is bit-preserved, not value-compared.
        let s = WireStats {
            mean_latency: f64::NAN,
            ..WireStats::default()
        };
        let body = Frame::Stats(s).encode_body();
        match Frame::decode_body(&body).unwrap() {
            Frame::Stats(back) => assert!(back.mean_latency.is_nan()),
            other => panic!("{other:?}"),
        }
    }
}
