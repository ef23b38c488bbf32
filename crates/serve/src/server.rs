//! Socket frontends: accept loops, per-connection frame dispatch, and
//! the graceful-drain choreography.
//!
//! Listeners run nonblocking with a short poll interval so the accept
//! loop notices the shutdown flag promptly (a raw SIGTERM handler can
//! only set an atomic — it cannot interrupt a blocking accept portably).
//! Connection threads use socket read timeouts for the same reason.

use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hmc_types::{Frame, HmcError, Result, WireErrorCode, WIRE_VERSION};

use crate::manager::{ServerConfig, SessionManager};
use crate::proto::{write_frame, Conn, FrameReader, ReadOutcome};

const ACCEPT_POLL: Duration = Duration::from_millis(25);
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// How a server run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Every session quiesced inside the drain window.
    Drained,
    /// The drain window expired with sessions still busy.
    TimedOut,
}

/// A running service: listeners + manager + worker pool.
pub struct Server {
    mgr: SessionManager,
    workers: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    uds: Vec<(UnixListener, PathBuf)>,
    tcp: Vec<TcpListener>,
}

impl Server {
    /// Create the service and start its worker pool (no listeners yet).
    pub fn new(cfg: ServerConfig) -> Server {
        let (mgr, workers) = SessionManager::start(cfg);
        Server {
            mgr,
            workers,
            shutdown: Arc::new(AtomicBool::new(false)),
            uds: Vec::new(),
            tcp: Vec::new(),
        }
    }

    /// The session manager (loopback tests drive it directly).
    pub fn manager(&self) -> SessionManager {
        self.mgr.clone()
    }

    /// The flag that stops the accept loop; a signal handler or another
    /// thread sets it to trigger the graceful drain.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Bind a Unix-domain listener. A stale socket file from a previous
    /// run is removed first.
    pub fn bind_uds(&mut self, path: &Path) -> Result<()> {
        if path.exists() {
            std::fs::remove_file(path)
                .map_err(|e| HmcError::Wire(format!("{}: {e}", path.display())))?;
        }
        let listener = UnixListener::bind(path)
            .map_err(|e| HmcError::Wire(format!("bind {}: {e}", path.display())))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| HmcError::Wire(format!("nonblocking: {e}")))?;
        self.uds.push((listener, path.to_path_buf()));
        Ok(())
    }

    /// Bind a TCP listener. Returns the bound address (use port 0 to let
    /// the OS pick).
    pub fn bind_tcp(&mut self, addr: &str) -> Result<std::net::SocketAddr> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| HmcError::Wire(format!("bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| HmcError::Wire(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| HmcError::Wire(format!("nonblocking: {e}")))?;
        self.tcp.push(listener);
        Ok(local)
    }

    /// Serve until the shutdown flag is set, then drain gracefully:
    /// stop accepting, pump every session to quiescence (bounded by
    /// `drain_timeout`), stop the workers, and remove socket files.
    ///
    /// Idle-session reaping runs on the accept loop's cadence.
    pub fn run(mut self, drain_timeout: Duration) -> DrainOutcome {
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        let conn_exit = Arc::new(AtomicBool::new(false));
        let mut reap_tick = 0u32;

        while !self.shutdown.load(Ordering::Acquire) {
            // Finished connection threads are detached as they go.
            conns.retain(|c| !c.is_finished());
            let mut accepted = false;
            for (listener, _) in &self.uds {
                while let Ok((stream, _)) = listener.accept() {
                    accepted = true;
                    conns.extend(self.spawn_conn(Conn::Uds(stream), &conn_exit));
                }
            }
            for listener in &self.tcp {
                while let Ok((stream, _)) = listener.accept() {
                    accepted = true;
                    conns.extend(self.spawn_conn(Conn::Tcp(stream), &conn_exit));
                }
            }
            if !accepted {
                std::thread::sleep(ACCEPT_POLL);
            }
            reap_tick += 1;
            if reap_tick >= 40 {
                reap_tick = 0;
                let reaped = self.mgr.reap_idle();
                if reaped > 0 {
                    eprintln!("hmc-serve: reaped {reaped} idle session(s)");
                }
            }
        }

        // Graceful drain: stop accepting (listeners drop below), refuse
        // new work, pump buffered work dry, then stop the pool.
        drop(std::mem::take(&mut self.tcp));
        self.mgr.begin_drain();
        let outcome = if self.mgr.wait_drained(drain_timeout) {
            DrainOutcome::Drained
        } else {
            DrainOutcome::TimedOut
        };

        // Give connected clients a moment to poll flushed responses,
        // then retire connection threads: those that finished are joined,
        // so they are gone before the workers stop; one still running at
        // the deadline is left detached.
        conn_exit.store(true, Ordering::Release);
        let conn_deadline = std::time::Instant::now() + Duration::from_secs(2);
        while conns.iter().any(|c| !c.is_finished()) && std::time::Instant::now() < conn_deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        for c in conns {
            if c.is_finished() {
                let _ = c.join();
            }
        }

        self.mgr.stop_workers();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        for (listener, path) in self.uds.drain(..) {
            drop(listener);
            let _ = std::fs::remove_file(&path);
        }
        outcome
    }

    fn spawn_conn(&self, stream: Conn, conn_exit: &Arc<AtomicBool>) -> Option<JoinHandle<()>> {
        let mgr = self.mgr.clone();
        let shutdown = self.shutdown.clone();
        let exit = conn_exit.clone();
        std::thread::Builder::new()
            .name("hmc-serve-conn".into())
            .spawn(move || {
                if let Err(e) = serve_connection(stream, &mgr, &shutdown, &exit) {
                    // Client protocol violations end the connection only.
                    eprintln!("hmc-serve: connection error: {e}");
                }
            })
            .ok()
    }
}

impl Conn {
    /// Blocking reads that time out every [`READ_TIMEOUT`], so the
    /// connection thread can poll the shutdown flag; no Nagle delay on TCP.
    fn prepare(&self) -> std::io::Result<()> {
        match self {
            Conn::Uds(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(READ_TIMEOUT))
            }
            Conn::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(READ_TIMEOUT))
            }
        }
    }
}

/// One connection's request/reply loop. The first frame must be `Hello`
/// with a matching protocol version.
fn serve_connection(
    mut stream: Conn,
    mgr: &SessionManager,
    shutdown: &AtomicBool,
    conn_exit: &AtomicBool,
) -> Result<()> {
    stream
        .prepare()
        .map_err(|e| HmcError::Wire(format!("socket options: {e}")))?;
    let mut reader = FrameReader::new();
    let mut greeted = false;
    loop {
        if conn_exit.load(Ordering::Acquire) {
            return Ok(());
        }
        let frame = match reader.poll(&mut stream)? {
            ReadOutcome::Frame(f) => f,
            ReadOutcome::Eof => return Ok(()),
            ReadOutcome::TimedOut => continue,
            ReadOutcome::Malformed(reason) => {
                // The body was garbage but the framing held: answer with
                // a typed error and keep serving the connection.
                let reply = Frame::Error {
                    code: WireErrorCode::BadFrame as u8,
                    message: format!("undecodable frame: {reason}"),
                };
                write_frame(&mut stream, &reply)?;
                continue;
            }
        };
        let reply = match &frame {
            Frame::Hello { version } => {
                if *version != WIRE_VERSION {
                    let reply = Frame::Error {
                        code: WireErrorCode::VersionMismatch as u8,
                        message: format!(
                            "client speaks v{version}, server speaks v{WIRE_VERSION}"
                        ),
                    };
                    write_frame(&mut stream, &reply)?;
                    return Ok(());
                }
                greeted = true;
                Frame::HelloAck {
                    version: WIRE_VERSION,
                    max_sessions: mgr.max_sessions() as u32,
                    active_sessions: mgr.active_sessions() as u32,
                }
            }
            Frame::Shutdown => {
                write_frame(&mut stream, &Frame::ShuttingDown)?;
                shutdown.store(true, Ordering::Release);
                continue;
            }
            _ if !greeted => {
                let reply = Frame::Error {
                    code: WireErrorCode::BadFrame as u8,
                    message: "the first frame must be Hello".into(),
                };
                write_frame(&mut stream, &reply)?;
                return Ok(());
            }
            other => mgr.handle(other),
        };
        write_frame(&mut stream, &reply)?;
    }
}
