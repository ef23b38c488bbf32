//! Session lifecycle and the bounded worker pool.
//!
//! The manager owns every live session, admits new ones under a
//! concurrent-session cap, runs sessions one quantum at a time, reaps
//! sessions idle past their timeout, and coordinates the graceful drain
//! (stop admitting, pump everything to quiescence, then let the server
//! exit 0).
//!
//! The thread that receives a `SubmitBatch` or an empty-handed `Poll`
//! runs the session's next quantum itself, so a batch that fits one
//! quantum never waits for a worker; a fixed pool of worker threads runs
//! every quantum after that one. The session mutex is held across a
//! quantum, so one thread at a time pumps a session.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hmc_core::SimParams;
use hmc_types::{DeviceConfig, Frame, HmcError, Result, WireErrorCode, WireOp};

use crate::session::{PumpOutcome, SessionLimits, SessionState};

/// Service-level configuration for the daemon and loopback tests.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Admission cap on concurrently open sessions.
    pub max_sessions: usize,
    /// Worker threads running the quanta after a frame's first: the
    /// thread that receives a submit or a poll runs one quantum itself.
    pub threads: usize,
    /// Default per-session limits (clients may request smaller bounds).
    pub limits: SessionLimits,
    /// Close sessions untouched for this long; `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Suggested client retry delay carried in BUSY frames.
    pub retry_hint_ms: u32,
    /// Server-wide simulation parameters every session's device is
    /// built under. The session's own `DeviceConfig` is laid over them
    /// (`SimParams::with_device_axes`): it always names its timing
    /// backend and fabric, and a fault block it arms wins over the
    /// server's — so a `link_faults` block here is the daemon-wide
    /// degraded-link default.
    pub params: SimParams,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            threads: 4,
            limits: SessionLimits::default(),
            idle_timeout: Some(Duration::from_secs(300)),
            retry_hint_ms: 2,
            params: SimParams::default(),
        }
    }
}

struct SessionHandle {
    id: u64,
    state: Mutex<SessionState>,
    /// True while the session sits in the run queue (dedup guard).
    queued: AtomicBool,
    last_touch: Mutex<Instant>,
}

struct Inner {
    cfg: ServerConfig,
    sessions: Mutex<HashMap<u64, Arc<SessionHandle>>>,
    next_id: AtomicU64,
    /// Runnable session IDs; workers block on the condvar.
    run_queue: Mutex<std::collections::VecDeque<u64>>,
    work_ready: Condvar,
    /// Set once: stop admitting sessions and submissions.
    draining: AtomicBool,
    /// Set once: workers exit after the queue runs dry.
    stop: AtomicBool,
}

/// The concurrent session manager. Cheap to clone (`Arc` inside);
/// connection threads and workers share one instance.
#[derive(Clone)]
pub struct SessionManager {
    inner: Arc<Inner>,
}

impl SessionManager {
    /// Start the manager and its worker pool; returns once every worker
    /// is running. Threads that start in a fixed order (workers, then
    /// connections) take the allocator's per-thread arenas in a fixed
    /// order too, so a server started and stopped again and again does
    /// not drift to a larger resident set when a connection thread
    /// happens to start before a worker.
    pub fn start(cfg: ServerConfig) -> (SessionManager, Vec<std::thread::JoinHandle<()>>) {
        let mgr = SessionManager {
            inner: Arc::new(Inner {
                cfg,
                sessions: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(1),
                run_queue: Mutex::new(std::collections::VecDeque::new()),
                work_ready: Condvar::new(),
                draining: AtomicBool::new(false),
                stop: AtomicBool::new(false),
            }),
        };
        let running = Arc::new(Barrier::new(cfg.threads.max(1) + 1));
        let workers = (0..cfg.threads.max(1))
            .map(|i| {
                let (m, running) = (mgr.clone(), running.clone());
                std::thread::Builder::new()
                    .name(format!("hmc-serve-worker-{i}"))
                    .spawn(move || {
                        running.wait();
                        m.worker_loop()
                    })
                    .expect("spawn worker")
            })
            .collect();
        running.wait();
        (mgr, workers)
    }

    /// The configured admission cap.
    pub fn max_sessions(&self) -> usize {
        self.inner.cfg.max_sessions
    }

    /// Sessions currently open.
    pub fn active_sessions(&self) -> usize {
        self.inner.sessions.lock().unwrap().len()
    }

    /// True once a drain has begun (no new sessions or submissions).
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    fn busy(&self, reason: hmc_types::BusyReason) -> Frame {
        Frame::Busy {
            reason: reason as u8,
            retry_hint_ms: self.inner.cfg.retry_hint_ms,
        }
    }

    fn error(code: WireErrorCode, message: impl Into<String>) -> Frame {
        Frame::Error {
            code: code as u8,
            message: message.into(),
        }
    }

    fn session(&self, id: u64) -> Option<Arc<SessionHandle>> {
        self.inner.sessions.lock().unwrap().get(&id).cloned()
    }

    fn touch(handle: &SessionHandle) {
        *handle.last_touch.lock().unwrap() = Instant::now();
    }

    /// Put a session on the run queue if it is not already there.
    fn schedule(&self, handle: &SessionHandle) {
        if handle.queued.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.run_queue.lock().unwrap().push_back(handle.id);
        self.inner.work_ready.notify_one();
    }

    /// Open a session under the admission cap. `preset` wins over
    /// `config_json`; requested limits are clamped to the server's.
    pub fn open_session(
        &self,
        preset: &str,
        config_json: &str,
        inflight_limit: u32,
        response_limit: u32,
    ) -> Frame {
        if self.draining() {
            return Self::error(WireErrorCode::ShuttingDown, "server is draining");
        }
        let config: DeviceConfig = if !preset.is_empty() {
            match DeviceConfig::by_name(preset) {
                Some(c) => c,
                None => {
                    return Self::error(
                        WireErrorCode::BadConfig,
                        format!("unknown preset {preset:?}"),
                    )
                }
            }
        } else if !config_json.is_empty() {
            match serde_json::from_str(config_json) {
                Ok(c) => c,
                Err(e) => {
                    return Self::error(WireErrorCode::BadConfig, format!("config JSON: {e}"))
                }
            }
        } else {
            return Self::error(WireErrorCode::BadConfig, "no preset and no config body");
        };

        let defaults = self.inner.cfg.limits;
        let clamp = |requested: u32, default: usize| -> usize {
            if requested == 0 {
                default
            } else {
                (requested as usize).min(default)
            }
        };
        let limits = SessionLimits {
            inflight_limit: clamp(inflight_limit, defaults.inflight_limit),
            response_limit: clamp(response_limit, defaults.response_limit),
            slice_cycles: defaults.slice_cycles,
        };

        let state = match SessionState::with_params(config, limits, self.inner.cfg.params) {
            Ok(s) => s,
            Err(e) => return Self::error(WireErrorCode::BadConfig, e.to_string()),
        };

        let mut sessions = self.inner.sessions.lock().unwrap();
        if sessions.len() >= self.inner.cfg.max_sessions {
            return self.busy(hmc_types::BusyReason::SessionsFull);
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        sessions.insert(
            id,
            Arc::new(SessionHandle {
                id,
                state: Mutex::new(state),
                queued: AtomicBool::new(false),
                last_touch: Mutex::new(Instant::now()),
            }),
        );
        Frame::SessionOpened { session: id }
    }

    /// Submit a batch; replies BatchAccepted, Busy, or Error.
    pub fn submit(&self, id: u64, ops: &[WireOp]) -> Frame {
        if self.draining() {
            return Self::error(WireErrorCode::ShuttingDown, "server is draining");
        }
        let Some(handle) = self.session(id) else {
            return Self::error(WireErrorCode::UnknownSession, format!("session {id}"));
        };
        Self::touch(&handle);
        let mut state = handle.state.lock().unwrap();
        let accepted = match state.submit(ops) {
            Ok(0) if !ops.is_empty() => return self.busy(hmc_types::BusyReason::InflightFull),
            Ok(n) => n as u32,
            Err(e) => return Self::error(WireErrorCode::BadFrame, e.to_string()),
        };
        if accepted > 0 {
            // Run the batch's first quantum here instead of waiting for a
            // worker to wake; a batch that fits one never queues.
            state = match self.run_quantum(&handle, state) {
                Ok(state) => state,
                Err(e) => return Self::failed(id, &e),
            };
        }
        Frame::BatchAccepted {
            accepted,
            queue_free: state.queue_free() as u32,
        }
    }

    /// Poll up to `max` responses; replies Responses or Error.
    pub fn poll(&self, id: u64, max: u32) -> Frame {
        let Some(handle) = self.session(id) else {
            return Self::error(WireErrorCode::UnknownSession, format!("session {id}"));
        };
        Self::touch(&handle);
        let mut state = handle.state.lock().unwrap();
        if state.buffered() == 0 && state.has_work() {
            // Run the quantum a worker would rather than answer empty —
            // one, so a poll is bounded exactly as a worker's slice is.
            state = match self.run_quantum(&handle, state) {
                Ok(state) => state,
                Err(e) => return Self::failed(id, &e),
            };
        }
        let was_paused = state.paused();
        let max = if max == 0 { u32::MAX } else { max };
        let items = state.take_responses(max as usize);
        let resume = was_paused && !state.paused() && state.has_work();
        let outstanding = state.outstanding() as u32;
        let idle = !state.has_work() && state.buffered() == 0;
        drop(state);
        if resume {
            self.schedule(&handle);
        }
        Frame::Responses {
            items,
            outstanding,
            idle,
        }
    }

    /// Snapshot a session's metrics; replies Stats or Error.
    pub fn stats(&self, id: u64) -> Frame {
        let Some(handle) = self.session(id) else {
            return Self::error(WireErrorCode::UnknownSession, format!("session {id}"));
        };
        Self::touch(&handle);
        let snap = handle.state.lock().unwrap().snapshot();
        Frame::Stats(snap)
    }

    /// Close a session, returning its final metrics; replies Closed or
    /// Error.
    pub fn close(&self, id: u64) -> Frame {
        let Some(handle) = self.inner.sessions.lock().unwrap().remove(&id) else {
            return Self::error(WireErrorCode::UnknownSession, format!("session {id}"));
        };
        let snap = handle.state.lock().unwrap().snapshot();
        Frame::Closed(snap)
    }

    /// Close sessions whose last client activity predates the timeout.
    /// Returns how many were reaped. Sessions still pumping work are
    /// spared: the timeout measures client neglect, not device busyness.
    pub fn reap_idle(&self) -> usize {
        let Some(timeout) = self.inner.cfg.idle_timeout else {
            return 0;
        };
        let mut sessions = self.inner.sessions.lock().unwrap();
        let before = sessions.len();
        sessions.retain(|_, handle| {
            let stale = handle
                .last_touch
                .lock()
                .map(|t| t.elapsed() > timeout)
                .unwrap_or(false);
            if !stale {
                return true;
            }
            // A session mid-pump keeps its slot this round.
            match handle.state.try_lock() {
                Ok(state) => state.has_work(),
                Err(_) => true,
            }
        });
        before - sessions.len()
    }

    /// Begin the graceful drain: refuse new sessions and submissions,
    /// and schedule every session so buffered work pumps to quiescence.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
        let handles: Vec<_> = self.inner.sessions.lock().unwrap().values().cloned().collect();
        for handle in handles {
            self.schedule(&handle);
        }
    }

    /// Block until every session is drained (quiescent device, nothing
    /// queued or outstanding) or `timeout` passes. Returns success.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let all_drained = {
                let sessions = self.inner.sessions.lock().unwrap();
                sessions.values().all(|h| match h.state.try_lock() {
                    Ok(state) => !state.has_work(),
                    Err(_) => false,
                })
            };
            if all_drained {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stop the worker pool. Callers join the handles returned by
    /// [`SessionManager::start`] afterwards.
    pub fn stop_workers(&self) {
        self.inner.stop.store(true, Ordering::Release);
        self.inner.work_ready.notify_all();
    }

    /// Run one quantum of `handle`'s session on the calling thread and
    /// apply the rules that follow every quantum: a session with work
    /// left past its slice goes back on the run queue, and a session whose
    /// simulation failed is dropped, so its clients get `UnknownSession`
    /// rather than a wedged queue. Hands the guard back unless the
    /// session failed.
    fn run_quantum<'a>(
        &self,
        handle: &SessionHandle,
        mut state: MutexGuard<'a, SessionState>,
    ) -> Result<MutexGuard<'a, SessionState>> {
        match state.pump() {
            Ok(PumpOutcome::Working) => self.schedule(handle),
            Ok(PumpOutcome::Idle) | Ok(PumpOutcome::Paused) => {}
            Err(e) => {
                drop(state);
                eprintln!("hmc-serve: session {} failed: {e}", handle.id);
                self.inner.sessions.lock().unwrap().remove(&handle.id);
                return Err(e);
            }
        }
        Ok(state)
    }

    /// The reply to a frame whose quantum failed the session.
    fn failed(id: u64, e: &HmcError) -> Frame {
        Self::error(WireErrorCode::Internal, format!("session {id} failed: {e}"))
    }

    fn worker_loop(&self) {
        loop {
            let id = {
                let mut queue = self.inner.run_queue.lock().unwrap();
                loop {
                    if let Some(id) = queue.pop_front() {
                        break id;
                    }
                    if self.inner.stop.load(Ordering::Acquire) {
                        return;
                    }
                    let (q, _) = self
                        .inner
                        .work_ready
                        .wait_timeout(queue, Duration::from_millis(100))
                        .unwrap();
                    queue = q;
                }
            };
            let Some(handle) = self.session(id) else {
                continue;
            };
            handle.queued.store(false, Ordering::Release);
            // A failed session is logged and dropped inside; a worker
            // has no frame to answer.
            drop(self.run_quantum(&handle, handle.state.lock().unwrap()));
        }
    }

    /// Dispatch one decoded client frame (connection-thread entry point).
    /// `Hello` and `Shutdown` are handled by the server, not here.
    pub fn handle(&self, frame: &Frame) -> Frame {
        match frame {
            Frame::OpenSession {
                preset,
                config_json,
                inflight_limit,
                response_limit,
            } => self.open_session(preset, config_json, *inflight_limit, *response_limit),
            Frame::SubmitBatch { session, ops } => self.submit(*session, ops),
            Frame::Poll { session, max } => self.poll(*session, *max),
            Frame::SnapshotStats { session } => self.stats(*session),
            Frame::CloseSession { session } => self.close(*session),
            other => Self::error(
                WireErrorCode::BadFrame,
                format!("unexpected frame 0x{:02x}", other.opcode()),
            ),
        }
    }
}

/// Convert a manager error frame into an `HmcError` (client-side helper).
pub fn frame_error(frame: &Frame) -> HmcError {
    match frame {
        Frame::Error { code, message } => HmcError::Wire(format!(
            "server error {:?}: {message}",
            WireErrorCode::from_u8(*code)
        )),
        Frame::Busy {
            reason,
            retry_hint_ms,
        } => HmcError::Wire(format!(
            "server busy ({:?}, retry in {retry_hint_ms} ms)",
            hmc_types::BusyReason::from_u8(*reason)
        )),
        other => HmcError::Wire(format!("unexpected reply 0x{:02x}", other.opcode())),
    }
}

/// `Result`-flavored unwrap for client replies that should be `T`.
pub fn expect_frame<T>(frame: Frame, extract: impl FnOnce(&Frame) -> Option<T>) -> Result<T> {
    match extract(&frame) {
        Some(v) => Ok(v),
        None => Err(frame_error(&frame)),
    }
}
