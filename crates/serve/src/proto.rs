//! Stream framing for the wire protocol.
//!
//! `hmc-types::wire` defines the frame data model and its byte codec;
//! this module reads and writes those frames over blocking byte streams.
//! [`FrameReader`] accumulates partial reads so a read timeout (used by
//! server connection threads to poll the shutdown flag) never loses
//! framing mid-frame.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

use hmc_types::{Frame, HmcError, Result, MAX_FRAME_LEN};

/// One connection, over either transport: the client's and the server's
/// end of a session read and write it alike.
pub(crate) enum Conn {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Uds(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Uds(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Uds(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// The outcome of one [`FrameReader::poll`] call.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame arrived.
    Frame(Frame),
    /// The peer closed the stream cleanly (no partial frame pending).
    Eof,
    /// The read timed out or would block; call again later. Any partial
    /// frame stays buffered.
    TimedOut,
    /// A complete frame arrived but its body would not decode. The bad
    /// bytes are already discarded — the length prefix was sound, so
    /// framing is intact and the connection can keep serving. (A bad
    /// length prefix is a hard [`HmcError::Wire`] error instead: with
    /// the framing itself untrustworthy the stream cannot recover.)
    Malformed(String),
}

/// An incremental length-prefixed frame reader.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Try to complete one frame from `stream`.
    ///
    /// Blocking semantics follow the stream's own (set a read timeout on
    /// the socket to get periodic [`ReadOutcome::TimedOut`] returns).
    pub fn poll(&mut self, stream: &mut impl Read) -> Result<ReadOutcome> {
        loop {
            match self.try_decode()? {
                Some(Ok(frame)) => return Ok(ReadOutcome::Frame(frame)),
                Some(Err(reason)) => return Ok(ReadOutcome::Malformed(reason)),
                None => {}
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(ReadOutcome::Eof)
                    } else {
                        Err(HmcError::Wire(format!(
                            "peer closed the stream mid-frame ({} bytes buffered)",
                            self.buf.len()
                        )))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(ReadOutcome::TimedOut);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(HmcError::Wire(format!("read failed: {e}"))),
            }
        }
    }

    /// Decode one frame from the buffer if a complete one is present.
    /// `Some(Err(_))` is a complete-but-undecodable body, consumed from
    /// the buffer so the next frame stays aligned.
    fn try_decode(&mut self) -> Result<Option<std::result::Result<Frame, String>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap());
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(HmcError::Wire(format!(
                "frame length {len} outside (0, {MAX_FRAME_LEN}]"
            )));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let decoded = Frame::decode_body(&self.buf[4..total]);
        self.buf.drain(..total);
        Ok(Some(decoded.map_err(|e| e.to_string())))
    }
}

/// Write one frame to `stream` (blocking, flushed). A frame longer than
/// [`MAX_FRAME_LEN`], which no [`FrameReader`] accepts, is refused with
/// [`HmcError::Wire`] before a byte is written.
pub fn write_frame(stream: &mut impl Write, frame: &Frame) -> Result<()> {
    let bytes = frame.encode_framed();
    let len = bytes.len() - 4;
    if len > MAX_FRAME_LEN as usize {
        return Err(HmcError::Wire(format!(
            "frame 0x{:02x} of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
            frame.opcode()
        )));
    }
    stream
        .write_all(&bytes)
        .and_then(|()| stream.flush())
        .map_err(|e| HmcError::Wire(format!("write failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_through_a_stream() {
        let frames = [
            Frame::Hello { version: 1 },
            Frame::SessionOpened { session: 9 },
            Frame::Shutdown,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut stream = Cursor::new(wire);
        let mut reader = FrameReader::new();
        for f in &frames {
            match reader.poll(&mut stream).unwrap() {
                ReadOutcome::Frame(got) => assert_eq!(&got, f),
                other => panic!("{other:?}"),
            }
        }
        assert!(matches!(
            reader.poll(&mut stream).unwrap(),
            ReadOutcome::Eof
        ));
    }

    /// Yields one byte per read, then `WouldBlock` — models a socket with
    /// a read timeout delivering data slowly.
    struct Dribble {
        bytes: Vec<u8>,
        pos: usize,
        served_this_poll: bool,
    }

    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.served_this_poll || self.pos >= self.bytes.len() {
                self.served_this_poll = false;
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            out[0] = self.bytes[self.pos];
            self.pos += 1;
            self.served_this_poll = true;
            Ok(1)
        }
    }

    #[test]
    fn dribbled_bytes_reassemble_one_frame() {
        let f = Frame::Poll {
            session: 3,
            max: 100,
        };
        let bytes = f.encode_framed();
        let n = bytes.len();
        let mut stream = Dribble {
            bytes,
            pos: 0,
            served_this_poll: false,
        };
        let mut reader = FrameReader::new();
        let mut polls = 0;
        loop {
            match reader.poll(&mut stream).unwrap() {
                ReadOutcome::Frame(got) => {
                    assert_eq!(got, f);
                    assert!(polls >= n - 1, "one poll per byte: {polls} < {}", n - 1);
                    return;
                }
                ReadOutcome::TimedOut => polls += 1,
                ReadOutcome::Eof => panic!("unexpected EOF"),
                ReadOutcome::Malformed(reason) => panic!("undecodable: {reason}"),
            }
            assert!(polls < 10_000, "frame never completed");
        }
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let f = Frame::Hello { version: 1 };
        let bytes = f.encode_framed();
        let mut stream = Cursor::new(bytes[..bytes.len() - 1].to_vec());
        let mut reader = FrameReader::new();
        assert!(reader.poll(&mut stream).is_err());
    }

    #[test]
    fn bit_flipped_bodies_are_typed_and_the_stream_survives() {
        // good frame | corrupted frame | good frame: the reader must
        // yield Frame, Malformed, Frame — one bad body never desyncs
        // the stream or kills the connection.
        let good1 = Frame::Hello { version: 1 };
        let good2 = Frame::Poll { session: 7, max: 3 };
        let mut bad = Frame::SessionOpened { session: 1 }.encode_framed();
        bad[4] ^= 0xff; // flip the opcode byte; length prefix stays sound
        let mut wire = good1.encode_framed();
        wire.extend_from_slice(&bad);
        wire.extend_from_slice(&good2.encode_framed());

        let mut stream = Cursor::new(wire);
        let mut reader = FrameReader::new();
        match reader.poll(&mut stream).unwrap() {
            ReadOutcome::Frame(f) => assert_eq!(f, good1),
            other => panic!("{other:?}"),
        }
        match reader.poll(&mut stream).unwrap() {
            ReadOutcome::Malformed(reason) => {
                assert!(reason.contains("opcode"), "typed reason, got {reason:?}")
            }
            other => panic!("{other:?}"),
        }
        match reader.poll(&mut stream).unwrap() {
            ReadOutcome::Frame(f) => assert_eq!(f, good2),
            other => panic!("{other:?}"),
        }
        assert!(matches!(reader.poll(&mut stream).unwrap(), ReadOutcome::Eof));
    }

    #[test]
    fn truncated_bodies_are_malformed_not_fatal() {
        // A length prefix that claims more than the body delivers (the
        // peer lied about the payload, not the framing): decode fails,
        // the bytes drain, and the next frame still arrives.
        let inner = Frame::Poll { session: 9, max: 1 }.encode_framed();
        let mut wire = Vec::new();
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(&inner[4..6]); // opcode + 1 byte: too short
        wire.extend_from_slice(&inner);
        let mut stream = Cursor::new(wire);
        let mut reader = FrameReader::new();
        assert!(matches!(
            reader.poll(&mut stream).unwrap(),
            ReadOutcome::Malformed(_)
        ));
        match reader.poll(&mut stream).unwrap() {
            ReadOutcome::Frame(f) => assert_eq!(f, Frame::Poll { session: 9, max: 1 }),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn an_oversized_frame_is_refused_before_a_byte_is_written() {
        // A batch body is 13 bytes of header and 11 per op: the most ops
        // that fit the cap, and one more.
        let fit = (MAX_FRAME_LEN as usize - 13) / 11;
        let op = hmc_types::WireOp {
            kind: hmc_types::WireOp::KIND_READ,
            addr: 0,
            size_bytes: 64,
        };
        let frame = Frame::SubmitBatch {
            session: 1,
            ops: vec![op; fit + 1],
        };
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &frame).unwrap_err();
        assert!(
            matches!(&err, HmcError::Wire(m) if m.contains("0x03") && m.contains("16777216")),
            "{err}"
        );
        assert!(wire.is_empty(), "nothing written");
        let fits = Frame::SubmitBatch {
            session: 1,
            ops: vec![op; fit],
        };
        write_frame(&mut wire, &fits).unwrap();
        let mut reader = FrameReader::new();
        match reader.poll(&mut Cursor::new(wire)).unwrap() {
            ReadOutcome::Frame(got) => assert_eq!(got, fits),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut reader = FrameReader::new();
        assert!(reader.poll(&mut Cursor::new(wire)).is_err());
        let mut reader = FrameReader::new();
        assert!(reader
            .poll(&mut Cursor::new(0u32.to_le_bytes().to_vec()))
            .is_err());
    }
}
