//! Blocking client for the `hmc-serve` wire protocol.
//!
//! One [`Client`] wraps one connection; sessions are cheap handles on
//! the server side, so a client may open several. All calls are
//! synchronous request/reply — the server replies to every frame in
//! order on a given connection.

use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;

use hmc_types::{
    BusyReason, Frame, HmcError, Result, WireOp, WireResponse, WireStats, WIRE_VERSION,
};

use crate::manager::frame_error;
use crate::proto::{write_frame, Conn, FrameReader, ReadOutcome};

/// The server's reply to a submission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitResult {
    /// A batch prefix was admitted.
    Accepted {
        /// Operations admitted (prefix of the batch).
        accepted: u32,
        /// Inflight-queue slots left after admission.
        queue_free: u32,
    },
    /// Typed backpressure: nothing admitted, retry after the hint.
    Busy {
        /// Why ([`BusyReason`] byte).
        reason: u8,
        /// Suggested retry delay in milliseconds.
        retry_hint_ms: u32,
    },
}

/// One `Poll` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PollResult {
    /// Responses returned, oldest first.
    pub items: Vec<WireResponse>,
    /// Requests still awaiting device responses.
    pub outstanding: u32,
    /// True when the session is fully drained server-side, with no
    /// responses left buffered.
    pub idle: bool,
}

/// The server's greeting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Server protocol version.
    pub version: u16,
    /// Admission cap on concurrent sessions.
    pub max_sessions: u32,
    /// Sessions open at greeting time.
    pub active_sessions: u32,
}

/// Bounded retry schedule for BUSY backpressure: exponential backoff
/// from `base_delay_ms` doubling per consecutive rejection, capped at
/// `max_delay_ms`, plus deterministic jitter so a fleet of identical
/// clients does not resubmit in lockstep. An `Accepted` reply (even a
/// partial prefix) is progress and resets the attempt counter; only
/// `max_attempts` *consecutive* BUSY replies exhaust the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive BUSY replies tolerated before giving up.
    pub max_attempts: u32,
    /// First backoff delay in milliseconds.
    pub base_delay_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub max_delay_ms: u64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 32,
            base_delay_ms: 1,
            max_delay_ms: 64,
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// Override the consecutive-BUSY cap (`0` is clamped to one attempt).
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Override the first backoff delay.
    pub fn with_base_delay_ms(mut self, ms: u64) -> Self {
        self.base_delay_ms = ms;
        self
    }

    /// Override the backoff ceiling.
    pub fn with_max_delay_ms(mut self, ms: u64) -> Self {
        self.max_delay_ms = ms;
        self
    }

    /// Override the jitter seed (distinct per client keeps a fleet
    /// from thundering back in phase).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The delay before retry number `attempt` (0-based), honouring the
    /// server's `retry_hint_ms` as a floor. `jitter` is the caller-held
    /// stream state, advanced once per call (SplitMix64 — no OS entropy,
    /// so schedules are reproducible).
    pub fn backoff_delay(&self, attempt: u32, hint_ms: u32, jitter: &mut u64) -> u64 {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_delay_ms);
        let base = exp.max(u64::from(hint_ms)).min(self.max_delay_ms).max(1);
        *jitter = jitter.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = hmc_types::splitmix64_mix(*jitter);
        // Full jitter over [base/2, base]: keeps the exponential shape
        // while spreading resubmissions across half a period.
        base / 2 + z % (base / 2 + 1)
    }
}

/// What a bounded submit spent on backpressure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitReport {
    /// BUSY replies absorbed (each one slept a backoff period).
    pub busy_retries: u64,
    /// Milliseconds spent sleeping on backoff.
    pub backoff_ms: u64,
}

/// A blocking protocol client.
pub struct Client {
    stream: Conn,
    reader: FrameReader,
    /// The server's greeting, captured during connect.
    pub server: ServerInfo,
}

impl Client {
    /// Connect over a Unix-domain socket and exchange greetings.
    pub fn connect_uds(path: &Path) -> Result<Client> {
        let stream = UnixStream::connect(path)
            .map_err(|e| HmcError::Wire(format!("connect {}: {e}", path.display())))?;
        Self::finish_connect(Conn::Uds(stream))
    }

    /// Connect over TCP and exchange greetings.
    pub fn connect_tcp(addr: &str) -> Result<Client> {
        let stream =
            TcpStream::connect(addr).map_err(|e| HmcError::Wire(format!("connect {addr}: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| HmcError::Wire(format!("nodelay: {e}")))?;
        Self::finish_connect(Conn::Tcp(stream))
    }

    fn finish_connect(stream: Conn) -> Result<Client> {
        let mut client = Client {
            stream,
            reader: FrameReader::new(),
            server: ServerInfo {
                version: 0,
                max_sessions: 0,
                active_sessions: 0,
            },
        };
        let reply = client.roundtrip(&Frame::Hello {
            version: WIRE_VERSION,
        })?;
        match reply {
            Frame::HelloAck {
                version,
                max_sessions,
                active_sessions,
            } => {
                client.server = ServerInfo {
                    version,
                    max_sessions,
                    active_sessions,
                };
                Ok(client)
            }
            other => Err(frame_error(&other)),
        }
    }

    /// Send one frame and block for the reply.
    pub fn roundtrip(&mut self, frame: &Frame) -> Result<Frame> {
        write_frame(&mut self.stream, frame)?;
        loop {
            match self.reader.poll(&mut self.stream)? {
                ReadOutcome::Frame(f) => return Ok(f),
                ReadOutcome::Eof => {
                    return Err(HmcError::Wire("server closed the connection".into()))
                }
                ReadOutcome::TimedOut => continue,
                ReadOutcome::Malformed(reason) => {
                    return Err(HmcError::Wire(format!(
                        "server sent an undecodable frame: {reason}"
                    )))
                }
            }
        }
    }

    /// Open a session from a preset name. `0` limits take server defaults.
    pub fn open_session_preset(
        &mut self,
        preset: &str,
        inflight_limit: u32,
        response_limit: u32,
    ) -> Result<u64> {
        self.open_session(preset, "", inflight_limit, response_limit)
    }

    /// Open a session from a `DeviceConfig` JSON document.
    pub fn open_session_json(
        &mut self,
        config_json: &str,
        inflight_limit: u32,
        response_limit: u32,
    ) -> Result<u64> {
        self.open_session("", config_json, inflight_limit, response_limit)
    }

    fn open_session(
        &mut self,
        preset: &str,
        config_json: &str,
        inflight_limit: u32,
        response_limit: u32,
    ) -> Result<u64> {
        let reply = self.roundtrip(&Frame::OpenSession {
            preset: preset.to_string(),
            config_json: config_json.to_string(),
            inflight_limit,
            response_limit,
        })?;
        match reply {
            Frame::SessionOpened { session } => Ok(session),
            other => Err(frame_error(&other)),
        }
    }

    /// Submit a batch of operations. BUSY is a normal return, not an
    /// error — callers poll and retry.
    pub fn submit(&mut self, session: u64, ops: &[WireOp]) -> Result<SubmitResult> {
        let reply = self.roundtrip(&Frame::SubmitBatch {
            session,
            ops: ops.to_vec(),
        })?;
        match reply {
            Frame::BatchAccepted {
                accepted,
                queue_free,
            } => Ok(SubmitResult::Accepted {
                accepted,
                queue_free,
            }),
            Frame::Busy {
                reason,
                retry_hint_ms,
            } => Ok(SubmitResult::Busy {
                reason,
                retry_hint_ms,
            }),
            other => Err(frame_error(&other)),
        }
    }

    /// Submit a whole batch under the default [`RetryPolicy`],
    /// resubmitting unaccepted suffixes until every op is admitted.
    pub fn submit_all(&mut self, session: u64, ops: &[WireOp]) -> Result<()> {
        self.submit_all_with(session, ops, &RetryPolicy::default())
            .map(|_| ())
    }

    /// Submit a whole batch, absorbing BUSY backpressure with the given
    /// bounded backoff policy. Partial admissions reset the attempt
    /// counter; `policy.max_attempts` *consecutive* BUSY replies fail
    /// with a typed [`HmcError::Wire`] naming the reason and the count.
    pub fn submit_all_with(
        &mut self,
        session: u64,
        ops: &[WireOp],
        policy: &RetryPolicy,
    ) -> Result<SubmitReport> {
        let mut rest = ops;
        let mut report = SubmitReport::default();
        let mut consecutive = 0u32;
        let mut jitter = policy.jitter_seed;
        while !rest.is_empty() {
            match self.submit(session, rest)? {
                SubmitResult::Accepted { accepted, .. } => {
                    rest = &rest[accepted as usize..];
                    consecutive = 0;
                }
                SubmitResult::Busy {
                    reason,
                    retry_hint_ms,
                } => {
                    if consecutive >= policy.max_attempts {
                        return Err(HmcError::Wire(format!(
                            "still BUSY ({}) after {} consecutive submit attempts \
                             ({} ops unadmitted)",
                            busy_reason_label(reason),
                            consecutive,
                            rest.len()
                        )));
                    }
                    let delay = policy.backoff_delay(consecutive, retry_hint_ms, &mut jitter);
                    consecutive += 1;
                    report.busy_retries += 1;
                    report.backoff_ms += delay;
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
            }
        }
        Ok(report)
    }

    /// Poll up to `max` responses (`0` = server default).
    pub fn poll(&mut self, session: u64, max: u32) -> Result<PollResult> {
        let reply = self.roundtrip(&Frame::Poll { session, max })?;
        match reply {
            Frame::Responses {
                items,
                outstanding,
                idle,
            } => Ok(PollResult {
                items,
                outstanding,
                idle,
            }),
            other => Err(frame_error(&other)),
        }
    }

    /// Snapshot the session's metrics.
    pub fn stats(&mut self, session: u64) -> Result<WireStats> {
        match self.roundtrip(&Frame::SnapshotStats { session })? {
            Frame::Stats(s) => Ok(s),
            other => Err(frame_error(&other)),
        }
    }

    /// Close the session, returning its final metrics.
    pub fn close(&mut self, session: u64) -> Result<WireStats> {
        match self.roundtrip(&Frame::CloseSession { session })? {
            Frame::Closed(s) => Ok(s),
            other => Err(frame_error(&other)),
        }
    }

    /// Ask the server to begin its graceful drain.
    pub fn shutdown_server(&mut self) -> Result<()> {
        match self.roundtrip(&Frame::Shutdown)? {
            Frame::ShuttingDown => Ok(()),
            other => Err(frame_error(&other)),
        }
    }
}

/// Decode a BUSY reason for reports.
pub fn busy_reason_label(reason: u8) -> &'static str {
    match BusyReason::from_u8(reason) {
        Some(BusyReason::SessionsFull) => "sessions-full",
        Some(BusyReason::InflightFull) => "inflight-full",
        Some(BusyReason::ResponsesFull) => "responses-full",
        None => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let p = RetryPolicy::default()
            .with_base_delay_ms(1)
            .with_max_delay_ms(64);
        let mut jitter = p.jitter_seed;
        let mut prev_base = 0u64;
        for attempt in 0..12 {
            let d = p.backoff_delay(attempt, 0, &mut jitter);
            let base = (1u64 << attempt.min(16)).min(64);
            assert!(
                d >= base / 2 && d <= base,
                "attempt {attempt}: delay {d} outside [{}, {base}]",
                base / 2
            );
            assert!(base >= prev_base, "exponential shape is monotone");
            prev_base = base;
        }
    }

    #[test]
    fn backoff_respects_the_server_hint_as_a_floor() {
        let p = RetryPolicy::default()
            .with_base_delay_ms(1)
            .with_max_delay_ms(100);
        let mut jitter = 7;
        let d = p.backoff_delay(0, 40, &mut jitter);
        assert!((20..=40).contains(&d), "hinted delay {d} outside [20, 40]");
        // The cap still wins over an absurd hint.
        let d = p.backoff_delay(0, 5_000, &mut jitter);
        assert!(d <= 100, "cap must bound the hint, got {d}");
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_varies_across_seeds() {
        let p = RetryPolicy::default().with_max_delay_ms(1 << 20);
        let run = |seed: u64| -> Vec<u64> {
            let mut jitter = seed;
            (0..8).map(|a| p.backoff_delay(a, 0, &mut jitter)).collect()
        };
        assert_eq!(run(1), run(1), "same seed, same schedule");
        assert_ne!(run(1), run(2), "distinct seeds de-phase the fleet");
    }

    #[test]
    fn zero_attempt_policies_are_clamped_to_one() {
        assert_eq!(RetryPolicy::default().with_max_attempts(0).max_attempts, 1);
    }
}
