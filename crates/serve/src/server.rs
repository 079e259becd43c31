//! The resident analysis server.
//!
//! One [`Server`] owns a [`std::net::TcpListener`], a pool of
//! connection reader threads, one executor thread per available core,
//! and the process-wide warm state: a single
//! [`cr_campaign::AnalysisCache`] shared by every request (filter
//! verdicts, module summaries, resident parsed images) plus the
//! `cr-symex` normalized-query memo, which is process-global already.
//! The Nth request for a module therefore does zero image generation,
//! zero parsing, and zero solver calls. The solver counts, cache hits
//! and `parse` class in a `Done` frame are that request's own campaign
//! metrics, tallied per attempt on the threads that ran it, so
//! concurrent requests never show in each other's frames.
//!
//! ## Admission and backpressure
//!
//! Requests pass a bounded admission queue
//! ([`ServeConfig::admit_capacity`]). A request arriving at a full
//! queue is answered immediately with a [`FrameKind::Busy`] frame
//! carrying `retry_after_ms` — explicit backpressure instead of
//! unbounded buffering. Admitted requests start strictly in admission
//! order, each on the next free executor. There is one executor per
//! core ([`std::thread::available_parallelism`]; a 1-core host keeps a
//! single one), so a warm lookup does not wait behind another client's
//! compute. The campaign inside a request still fans out over the
//! `cr-campaign` work-stealing pool (`jobs` option).
//!
//! ## Cancellation, deadlines and drain
//!
//! A [`FrameKind::Cancel`] frame (or the per-request wall deadline)
//! sets the request's abort flag; the campaign pool fails unstarted
//! tasks fast as `cancelled` and the response reports
//! `status:"cancelled"`. A [`FrameKind::Shutdown`] frame — the
//! SIGTERM-equivalent, since portable `std` cannot trap signals —
//! stops admission, drains already-admitted work, persists the cache
//! atomically (write-then-rename, inherited from the cache layer) and
//! lets [`Server::run`] return.

use crate::proto::{
    negotiate, parse_hello, read_frame, Frame, FrameError, FrameKind, PROTO_VERSION,
};
use cr_campaign::json::Json;
use cr_campaign::{
    run_campaign_with_cache, AnalysisCache, CampaignSpec, EngineConfig, TaskErrorKind,
    DEFAULT_DEADLINE_MS,
};
use cr_chaos::{FaultInjector, FaultKind, Site};
use serde::Deserialize;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Idle poll period for connection readers.
const POLL_MS: u64 = 25;

/// Idle poll period for the accept loop. Much shorter than the reader
/// poll: a fresh connection's first byte waits on this, and the fleet
/// router opens dispatch and heartbeat connections constantly — an
/// accept stall is pure added latency on every cold path.
const ACCEPT_POLL_MS: u64 = 2;

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Campaign worker threads per request.
    pub jobs: usize,
    /// Extra attempts for a failing task.
    pub retries: u32,
    /// Per-attempt virtual-time deadline, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Default per-request wall-clock deadline, milliseconds; a
    /// request may override it with its `deadline_ms` option. `None`
    /// lets requests run unbounded.
    pub request_deadline_ms: Option<u64>,
    /// Admission queue capacity; requests beyond it get `Busy`.
    pub admit_capacity: usize,
    /// `retry_after_ms` hint carried in `Busy` replies.
    pub busy_retry_ms: u64,
    /// Patience for a peer stalled *mid-frame* (slow loris),
    /// milliseconds. Idle connections (no frame started) are never
    /// timed out.
    pub read_timeout_ms: u64,
    /// Cache directory: loaded at bind, persisted at shutdown.
    /// `None` keeps the warm state memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Fault injector for the serve-layer sites (`serve.conn`,
    /// `serve.frame`, `serve.loris`).
    pub injector: Option<Arc<FaultInjector>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            jobs: 1,
            retries: 1,
            deadline_ms: Some(DEFAULT_DEADLINE_MS),
            request_deadline_ms: None,
            admit_capacity: 8,
            busy_retry_ms: 50,
            read_timeout_ms: 2_000,
            cache_dir: None,
            injector: None,
        }
    }
}

/// Counters the server accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct ServeStats {
    /// Connections accepted.
    pub conns_accepted: u64,
    /// Connections dropped by injected `serve.conn` faults.
    pub conns_dropped: u64,
    /// Requests admitted to the queue.
    pub requests_admitted: u64,
    /// Requests whose campaign actually started executing.
    pub requests_executed: u64,
    /// Requests answered with a final `Done` frame.
    pub requests_completed: u64,
    /// Requests that ended cancelled (flag set before or during run).
    pub requests_cancelled: u64,
    /// Requests rejected with `Busy` (queue full).
    pub busy_rejections: u64,
    /// Malformed frames received (bad magic/CRC/kind/length).
    pub bad_frames: u64,
    /// Connections closed for stalling mid-frame.
    pub loris_closed: u64,
    /// Response frames fully written.
    pub frames_sent: u64,
    /// Response frames truncated by injected `serve.frame` faults.
    pub frames_truncated: u64,
    /// Heartbeat `Ping` frames answered with a `Pong`.
    pub pings_answered: u64,
    /// `SyncPull` replication requests served.
    pub sync_pulls: u64,
    /// `SyncPush` replication merges applied.
    pub sync_pushes: u64,
    /// Execution-ledger entries retired (connection closed) with the
    /// invariant intact — exactly one execution.
    pub exec_retired: u64,
    /// Execution-ledger entries retired with more than one execution:
    /// the no-double-execution invariant was violated.
    pub exec_violations: u64,
}

#[derive(Default)]
struct Counters {
    conns_accepted: AtomicU64,
    conns_dropped: AtomicU64,
    requests_admitted: AtomicU64,
    requests_executed: AtomicU64,
    requests_completed: AtomicU64,
    requests_cancelled: AtomicU64,
    busy_rejections: AtomicU64,
    bad_frames: AtomicU64,
    loris_closed: AtomicU64,
    frames_sent: AtomicU64,
    frames_truncated: AtomicU64,
    pings_answered: AtomicU64,
    sync_pulls: AtomicU64,
    sync_pushes: AtomicU64,
    exec_retired: AtomicU64,
    exec_violations: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServeStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServeStats {
            conns_accepted: get(&self.conns_accepted),
            conns_dropped: get(&self.conns_dropped),
            requests_admitted: get(&self.requests_admitted),
            requests_executed: get(&self.requests_executed),
            requests_completed: get(&self.requests_completed),
            requests_cancelled: get(&self.requests_cancelled),
            busy_rejections: get(&self.busy_rejections),
            bad_frames: get(&self.bad_frames),
            loris_closed: get(&self.loris_closed),
            frames_sent: get(&self.frames_sent),
            frames_truncated: get(&self.frames_truncated),
            pings_answered: get(&self.pings_answered),
            sync_pulls: get(&self.sync_pulls),
            sync_pushes: get(&self.sync_pushes),
            exec_retired: get(&self.exec_retired),
            exec_violations: get(&self.exec_violations),
        }
    }
}

/// The response side of one connection: serialized frame writes with
/// the serve-layer fault sites threaded through. Shared between the
/// connection's reader thread and the executors (a request may outlive
/// its reader).
struct ConnWriter {
    stream: Mutex<TcpStream>,
    /// This connection's id, mixed into the frame scope key so fault
    /// decisions differ across connections, not just across ordinals.
    conn_id: u64,
    /// Set after a write failure or injected disconnect; later sends
    /// become no-ops instead of error spam.
    dead: AtomicBool,
    /// Response frame ordinal within this connection — combined with
    /// `conn_id`, the stable scope key for `serve.frame` decisions.
    frame_seq: AtomicU64,
    injector: Option<Arc<FaultInjector>>,
    counters: Arc<Counters>,
}

impl ConnWriter {
    /// Write one frame; returns whether the peer can still be reached.
    fn send(&self, frame: &Frame) -> bool {
        if self.dead.load(Ordering::Relaxed) {
            return false;
        }
        let seq = self.frame_seq.fetch_add(1, Ordering::Relaxed);
        // A fault decision depends only on the scope key, so the key
        // must identify this (connection, frame) pair uniquely or the
        // same ordinal would fault on every connection at once.
        let key = (self.conn_id << 20) | (seq & 0xF_FFFF);
        let bytes = frame.encode();
        if let Some(inj) = &self.injector {
            if let Some(FaultKind::Stall { virtual_ms }) = inj.fires(Site::ServeStall, key, 0) {
                // The server itself becomes the slow peer: stall
                // mid-response so clients exercise their patience.
                std::thread::sleep(Duration::from_millis(virtual_ms));
            }
            match inj.fires(Site::ServeFrame, key, 0) {
                Some(FaultKind::Truncate { keep_per_mille }) => {
                    let keep = bytes.len() * keep_per_mille as usize / 1000;
                    let mut stream = self.stream.lock().unwrap();
                    let _ = stream.write_all(&bytes[..keep]);
                    let _ = stream.flush();
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    self.dead.store(true, Ordering::Relaxed);
                    self.counters
                        .frames_truncated
                        .fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                Some(FaultKind::Disconnect) => {
                    let stream = self.stream.lock().unwrap();
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    self.dead.store(true, Ordering::Relaxed);
                    self.counters
                        .frames_truncated
                        .fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                _ => {}
            }
        }
        let mut stream = self.stream.lock().unwrap();
        match stream.write_all(&bytes).and_then(|()| stream.flush()) {
            Ok(()) => {
                self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.dead.store(true, Ordering::Relaxed);
                false
            }
        }
    }
}

/// One admitted request.
struct Job {
    conn_id: u64,
    request_id: u64,
    spec: CampaignSpec,
    jobs: usize,
    retries: u32,
    deadline_ms: Option<u64>,
    request_deadline_ms: Option<u64>,
    writer: Arc<ConnWriter>,
    cancel: Arc<AtomicBool>,
}

struct Shared {
    cfg: ServeConfig,
    cache: AnalysisCache,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Abrupt-death flag (the fleet's simulated node crash): unlike
    /// `shutdown` there is no drain — sockets are severed, queued jobs
    /// are abandoned, the warm cache is *not* persisted.
    killed: AtomicBool,
    /// Executors inside a campaign right now; `Pong` reports whether
    /// any is, so a supervisor can judge serving-phase liveness.
    executing: AtomicUsize,
    /// One cloned socket per live connection, keyed by conn id, so
    /// `kill` can sever them out from under both reader and writer;
    /// each entry is removed when its connection's reader exits.
    conns: Mutex<HashMap<u64, TcpStream>>,
    counters: Arc<Counters>,
    /// `(conn_id, request_id) -> times an executor started the
    /// campaign`. The no-double-execution invariant: every value is 1.
    /// Entries for closed connections are retired into the
    /// `exec_retired` / `exec_violations` counters so the ledger stays
    /// bounded by live connections, not server lifetime.
    executions: Mutex<HashMap<(u64, u64), u32>>,
    /// Cancel flags of admitted-but-unfinished requests.
    inflight: Mutex<HashMap<(u64, u64), Arc<AtomicBool>>>,
}

/// A cloneable handle onto a running server — stats, the execution
/// ledger, and a programmatic shutdown trigger (used by tests and the
/// in-process chaos harness; network peers use the Shutdown frame).
#[derive(Clone)]
pub struct ServerHandle(Arc<Shared>);

impl ServerHandle {
    /// Current counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.0.counters.snapshot()
    }

    /// How many times each admitted request's campaign was started,
    /// keyed by `(conn_id, request_id)`. Every value must be exactly 1
    /// — the serve chaos invariant. Covers live connections only:
    /// entries for closed connections are retired into the
    /// `exec_retired` / `exec_violations` stats counters.
    pub fn execution_counts(&self) -> Vec<((u64, u64), u32)> {
        let mut v: Vec<_> = self
            .0
            .executions
            .lock()
            .unwrap()
            .iter()
            .map(|(&k, &n)| (k, n))
            .collect();
        v.sort_unstable();
        v
    }

    /// Connections currently registered (and thus holding a cloned
    /// fd). Bounded by live clients: every connection deregisters on
    /// exit.
    pub fn live_conns(&self) -> usize {
        self.0.conns.lock().unwrap().len()
    }

    /// Trigger the same graceful drain a Shutdown frame does.
    pub fn shutdown(&self) {
        self.0.shutdown.store(true, Ordering::Relaxed);
        self.0.queue_cv.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.0.shutdown.load(Ordering::Relaxed)
    }

    /// Kill the server abruptly — the fleet's simulated node crash.
    ///
    /// Unlike [`ServerHandle::shutdown`] there is no drain: every live
    /// connection is severed immediately (in-flight responses fail),
    /// queued jobs are abandoned without a reply, any running campaign
    /// is aborted via its cancel flag, and the warm cache is *not*
    /// persisted. `Server::run` still returns so the supervisor can
    /// join the worker thread and restart a fresh generation.
    pub fn kill(&self) {
        self.0.killed.store(true, Ordering::Relaxed);
        self.0.shutdown.store(true, Ordering::Relaxed);
        // Abort whatever the executors are inside of.
        for cancel in self.0.inflight.lock().unwrap().values() {
            cancel.store(true, Ordering::Relaxed);
        }
        // Sever the sockets: writers see broken pipes, readers see EOF.
        for conn in self.0.conns.lock().unwrap().values() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        self.0.queue_cv.notify_all();
    }

    /// Whether the server was killed abruptly (vs drained).
    pub fn is_killed(&self) -> bool {
        self.0.killed.load(Ordering::Relaxed)
    }
}

/// The resident server. [`Server::bind`] acquires the socket and warm
/// state; [`Server::run`] blocks until a graceful shutdown completes.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    /// Executor threads [`Server::run`] starts: one per available core.
    executors: usize,
}

impl Server {
    /// Bind the listener and load the warm cache.
    ///
    /// # Errors
    ///
    /// Socket bind failure or unreadable cache directory.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let cache = match &cfg.cache_dir {
            Some(dir) => AnalysisCache::load(dir)?,
            None => AnalysisCache::new(),
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cfg,
                cache,
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                killed: AtomicBool::new(false),
                executing: AtomicUsize::new(0),
                conns: Mutex::new(HashMap::new()),
                counters: Arc::new(Counters::default()),
                executions: Mutex::new(HashMap::new()),
                inflight: Mutex::new(HashMap::new()),
            }),
            executors: std::thread::available_parallelism().map_or(1, |n| n.get()),
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket's `local_addr` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for stats, the execution ledger, and programmatic
    /// shutdown.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle(self.shared.clone())
    }

    /// Serve until shutdown, then drain in-flight work, persist the
    /// cache, and return the final stats.
    ///
    /// # Errors
    ///
    /// Accept-loop I/O failure or an unwritable cache directory at
    /// drain time.
    pub fn run(self) -> io::Result<ServeStats> {
        let executors: Vec<_> = (0..self.executors)
            .map(|_| {
                let shared = self.shared.clone();
                std::thread::spawn(move || run_executor(&shared))
            })
            .collect();
        let mut conn_threads = Vec::new();
        let mut next_conn_id = 0u64;
        self.listener.set_nonblocking(true)?;
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Reap readers whose connection already ended, so a
                    // long-running server holds handles for live
                    // connections only.
                    conn_threads.retain(|t: &std::thread::JoinHandle<()>| !t.is_finished());
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    self.shared
                        .counters
                        .conns_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    let shared = self.shared.clone();
                    conn_threads.push(std::thread::spawn(move || {
                        serve_conn(&shared, stream, conn_id)
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(ACCEPT_POLL_MS));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain: the executors finish every admitted job before they
        // exit; reader threads notice the flag at their next idle poll.
        self.shared.queue_cv.notify_all();
        for t in executors {
            let _ = t.join();
        }
        for t in conn_threads {
            let _ = t.join();
        }
        let killed = self.shared.killed.load(Ordering::Relaxed);
        if let Some(dir) = &self.shared.cfg.cache_dir {
            if !killed {
                // Atomic by construction: the cache layer writes a
                // temporary sibling and renames it into place. A
                // killed node deliberately loses its warm state — that
                // is what fleet replication exists to cover.
                self.shared.cache.save(dir)?;
            }
        }
        Ok(self.shared.counters.snapshot())
    }
}

/// Blocking frame reader over a polled socket. Distinguishes the two
/// kinds of read timeout the protocol cares about: *idle* (no byte of
/// the next frame yet — surface it so the caller can poll the
/// shutdown flag) and *mid-frame stall* (a slow-loris peer — retried
/// up to `patience`, then surfaced as `TimedOut`).
struct FrameReader<'a> {
    stream: &'a TcpStream,
    consumed: usize,
    patience: Duration,
}

impl Read for FrameReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut stalled = Duration::ZERO;
        loop {
            match self.stream.read(buf) {
                Ok(n) => {
                    self.consumed += n;
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.consumed == 0 {
                        return Err(e); // idle: let the caller poll
                    }
                    stalled += Duration::from_millis(POLL_MS);
                    if stalled >= self.patience {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "peer stalled mid-frame",
                        ));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn error_frame(request_id: u64, code: &str, message: &str) -> Frame {
    use serde::Serialize;
    Frame::text(
        FrameKind::Error,
        request_id,
        format!(
            "{{\"code\":{},\"message\":{}}}",
            code.to_json(),
            message.to_json()
        ),
    )
}

/// One connection: register its kill handle, run the frame loop, then
/// deregister and retire the connection's execution-ledger entries.
fn serve_conn(shared: &Arc<Shared>, stream: TcpStream, conn_id: u64) {
    if let Some(inj) = &shared.cfg.injector {
        if inj.fires(Site::ServeConnDrop, conn_id, 0).is_some() {
            // Injected connection drop right after accept: the peer
            // sees a reset before any frame.
            let _ = stream.shutdown(std::net::Shutdown::Both);
            shared
                .counters
                .conns_dropped
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    // Frames are small and latency-bound: never let Nagle hold one
    // back waiting for an ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(POLL_MS)));
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    if let Ok(kill_handle) = stream.try_clone() {
        // Registered so `ServerHandle::kill` can sever this socket out
        // from under us; removed again below once the connection ends,
        // so a long-running server holds one fd per *live* connection.
        shared.conns.lock().unwrap().insert(conn_id, kill_handle);
    }
    conn_loop(shared, stream, &reader_stream, conn_id);
    shared.conns.lock().unwrap().remove(&conn_id);
    retire_conn_executions(shared, conn_id);
}

/// Retire a closed connection's execution-ledger entries into the
/// retired/violation counters, so the ledger stays bounded by live
/// connections. Entries still in flight are left for their executor,
/// which retires them when it finishes (the connection is gone by
/// then).
fn retire_conn_executions(shared: &Shared, conn_id: u64) {
    let pending: Vec<(u64, u64)> = shared
        .inflight
        .lock()
        .unwrap()
        .keys()
        .filter(|k| k.0 == conn_id)
        .copied()
        .collect();
    let mut executions = shared.executions.lock().unwrap();
    let done: Vec<(u64, u64)> = executions
        .keys()
        .filter(|k| k.0 == conn_id && !pending.contains(k))
        .copied()
        .collect();
    for key in done {
        if let Some(times) = executions.remove(&key) {
            retire_execution(&shared.counters, times);
        }
    }
}

fn retire_execution(counters: &Counters, times: u32) {
    if times == 1 {
        counters.exec_retired.fetch_add(1, Ordering::Relaxed);
    } else {
        counters.exec_violations.fetch_add(1, Ordering::Relaxed);
    }
}

/// The frame loop behind [`serve_conn`]: handshake, then frames until
/// EOF, error, or shutdown.
fn conn_loop(shared: &Arc<Shared>, stream: TcpStream, reader_stream: &TcpStream, conn_id: u64) {
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(stream),
        conn_id,
        dead: AtomicBool::new(false),
        frame_seq: AtomicU64::new(0),
        injector: shared.cfg.injector.clone(),
        counters: shared.counters.clone(),
    });

    let mut negotiated = false;
    loop {
        let mut reader = FrameReader {
            stream: reader_stream,
            consumed: 0,
            patience: Duration::from_millis(shared.cfg.read_timeout_ms),
        };
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(e) if e.is_timeout() && reader.consumed == 0 => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                continue;
            }
            Err(e) if e.is_timeout() => {
                // Mid-frame stall: slow loris. Close rather than hold
                // a reader thread hostage.
                shared.counters.loris_closed.fetch_add(1, Ordering::Relaxed);
                writer.send(&error_frame(0, "timeout", &e.to_string()));
                break;
            }
            Err(FrameError::Eof) => break,
            Err(e @ FrameError::Io(_)) => {
                // Truncated frame or hard I/O failure.
                shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                writer.send(&error_frame(0, "truncated", &e.to_string()));
                break;
            }
            Err(e) => {
                // Bad magic / CRC / kind / length: protocol violation.
                shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                writer.send(&error_frame(0, "bad_frame", &e.to_string()));
                break;
            }
        };

        if !negotiated {
            if frame.kind != FrameKind::Hello {
                writer.send(&error_frame(
                    frame.request_id,
                    "protocol",
                    "first frame must be Hello",
                ));
                break;
            }
            let (min, max) = parse_hello(&frame.payload);
            match negotiate(min, max) {
                Some(version) => {
                    negotiated = true;
                    writer.send(&Frame::text(
                        FrameKind::HelloAck,
                        0,
                        format!(
                            "{{\"version\":{version},\"server\":\"crash-resist\",\"queue_capacity\":{}}}",
                            shared.cfg.admit_capacity
                        ),
                    ));
                }
                None => {
                    writer.send(&error_frame(
                        0,
                        "version",
                        &format!(
                            "no shared protocol version: client [{min},{max}], server [{},{}]",
                            crate::proto::PROTO_MIN_VERSION,
                            PROTO_VERSION
                        ),
                    ));
                    break;
                }
            }
            continue;
        }

        match frame.kind {
            FrameKind::Request => handle_request(shared, &writer, conn_id, &frame),
            FrameKind::Ping => {
                // Serving-phase liveness: answered from the reader
                // thread, but the payload exposes what the *serving
                // loop* is doing so a supervisor can tell "alive but
                // wedged" from "alive and draining its queue".
                let queue_len = shared.queue.lock().unwrap().len();
                let executing = shared.executing.load(Ordering::Relaxed) > 0;
                let completed = shared.counters.requests_completed.load(Ordering::Relaxed);
                let draining = shared.shutdown.load(Ordering::Relaxed);
                shared
                    .counters
                    .pings_answered
                    .fetch_add(1, Ordering::Relaxed);
                writer.send(&Frame::text(
                    FrameKind::Pong,
                    frame.request_id,
                    format!(
                        "{{\"queue_len\":{queue_len},\"executing\":{executing},\
                         \"completed\":{completed},\"draining\":{draining}}}"
                    ),
                ));
            }
            FrameKind::SyncPull => {
                shared.counters.sync_pulls.fetch_add(1, Ordering::Relaxed);
                writer.send(&Frame {
                    kind: FrameKind::SyncState,
                    request_id: frame.request_id,
                    payload: shared.cache.export_jsonl().into_bytes(),
                });
            }
            FrameKind::SyncPush => {
                let (merged, rejected) = match std::str::from_utf8(&frame.payload) {
                    Ok(text) => shared.cache.merge_jsonl(text),
                    Err(_) => (0, 1),
                };
                shared.counters.sync_pushes.fetch_add(1, Ordering::Relaxed);
                writer.send(&Frame::text(
                    FrameKind::SyncAck,
                    frame.request_id,
                    format!("{{\"merged\":{merged},\"rejected\":{rejected}}}"),
                ));
            }
            FrameKind::Cancel => {
                let key = (conn_id, frame.request_id);
                match shared.inflight.lock().unwrap().get(&key) {
                    Some(cancel) => cancel.store(true, Ordering::Relaxed),
                    None => {
                        writer.send(&error_frame(
                            frame.request_id,
                            "unknown_request",
                            "no such in-flight request on this connection",
                        ));
                    }
                }
            }
            FrameKind::Shutdown => {
                shared.shutdown.store(true, Ordering::Relaxed);
                shared.queue_cv.notify_all();
                writer.send(&Frame::text(FrameKind::ShutdownAck, 0, "{\"drain\":true}"));
                break;
            }
            FrameKind::Hello => {
                writer.send(&error_frame(0, "protocol", "duplicate Hello"));
                break;
            }
            other => {
                writer.send(&error_frame(
                    frame.request_id,
                    "protocol",
                    &format!("unexpected client frame kind {other:?}"),
                ));
                break;
            }
        }
    }
}

/// Parse, dedup, and admit one Request frame.
fn handle_request(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, conn_id: u64, frame: &Frame) {
    let request_id = frame.request_id;
    let Ok(text) = std::str::from_utf8(&frame.payload) else {
        writer.send(&error_frame(
            request_id,
            "bad_request",
            "payload is not UTF-8",
        ));
        return;
    };
    // Reserved option keys ride in the same JSON document as the spec;
    // the spec decoder ignores unknown top-level keys by design.
    let parsed = Json::parse(text).and_then(|root| Ok((CampaignSpec::read_json(&root)?, root)));
    let (spec, opts) = match parsed {
        Ok(p) => p,
        Err(e) => {
            writer.send(&error_frame(request_id, "bad_request", &e));
            return;
        }
    };
    let opt_u64 = |k: &str| opts.get(k).and_then(Json::as_u64);
    let key = (conn_id, request_id);
    {
        let executed = shared.executions.lock().unwrap().contains_key(&key);
        if executed || shared.inflight.lock().unwrap().contains_key(&key) {
            writer.send(&error_frame(
                request_id,
                "duplicate",
                "request id already used on this connection",
            ));
            return;
        }
    }
    let mut queue = shared.queue.lock().unwrap();
    if shared.shutdown.load(Ordering::Relaxed) {
        drop(queue);
        writer.send(&error_frame(
            request_id,
            "shutting_down",
            "server is draining",
        ));
        return;
    }
    if queue.len() >= shared.cfg.admit_capacity {
        drop(queue);
        shared
            .counters
            .busy_rejections
            .fetch_add(1, Ordering::Relaxed);
        writer.send(&Frame::text(
            FrameKind::Busy,
            request_id,
            format!(
                "{{\"code\":\"busy\",\"retry_after_ms\":{}}}",
                shared.cfg.busy_retry_ms
            ),
        ));
        return;
    }
    let cancel = Arc::new(AtomicBool::new(false));
    shared.inflight.lock().unwrap().insert(key, cancel.clone());
    let depth = queue.len() + 1;
    queue.push_back(Job {
        conn_id,
        request_id,
        spec,
        jobs: opt_u64("jobs").map_or(shared.cfg.jobs, |v| v as usize),
        retries: opt_u64("retries").map_or(shared.cfg.retries, |v| v as u32),
        deadline_ms: shared.cfg.deadline_ms,
        request_deadline_ms: opt_u64("deadline_ms").or(shared.cfg.request_deadline_ms),
        writer: writer.clone(),
        cancel,
    });
    drop(queue);
    shared
        .counters
        .requests_admitted
        .fetch_add(1, Ordering::Relaxed);
    writer.send(&Frame::text(
        FrameKind::Progress,
        request_id,
        format!("{{\"event\":\"queued\",\"depth\":{depth}}}"),
    ));
    shared.queue_cv.notify_one();
}

/// One executor's loop: pop the oldest admitted job, run its campaign
/// against the shared warm cache, stream the response. Exits once the
/// queue is empty *and* shutdown was requested — that is the drain.
fn run_executor(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if shared.killed.load(Ordering::Relaxed) {
                    // Abrupt death: abandon queued jobs without a
                    // reply — the fleet router's failover answers them.
                    break None;
                }
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(POLL_MS))
                    .unwrap();
                queue = guard;
            }
        };
        let Some(job) = job else { break };
        execute_job(shared, &job);
        let key = (job.conn_id, job.request_id);
        shared.inflight.lock().unwrap().remove(&key);
        if !shared.conns.lock().unwrap().contains_key(&job.conn_id) {
            // The connection ended mid-execution: its reader already
            // swept the ledger, so retire this entry here.
            if let Some(times) = shared.executions.lock().unwrap().remove(&key) {
                retire_execution(&shared.counters, times);
            }
        }
    }
}

fn execute_job(shared: &Arc<Shared>, job: &Job) {
    let key = (job.conn_id, job.request_id);
    if job.cancel.load(Ordering::Relaxed) {
        // Cancelled while queued: never executed.
        shared
            .counters
            .requests_cancelled
            .fetch_add(1, Ordering::Relaxed);
        job.writer.send(&Frame::text(
            FrameKind::Done,
            job.request_id,
            "{\"status\":\"cancelled\",\"executed\":false}",
        ));
        return;
    }
    *shared.executions.lock().unwrap().entry(key).or_insert(0) += 1;
    shared
        .counters
        .requests_executed
        .fetch_add(1, Ordering::Relaxed);
    job.writer.send(&Frame::text(
        FrameKind::Progress,
        job.request_id,
        "{\"event\":\"running\"}",
    ));

    // Per-request wall deadline: a watchdog flips the same abort flag
    // a Cancel frame does; the campaign pool then fails unstarted
    // tasks fast as `cancelled`.
    let done = Arc::new(AtomicBool::new(false));
    let watchdog = job.request_deadline_ms.map(|ms| {
        let cancel = job.cancel.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_millis(ms);
            while !done.load(Ordering::Relaxed) {
                if Instant::now() >= deadline {
                    cancel.store(true, Ordering::Relaxed);
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    });
    let engine_cfg = EngineConfig {
        jobs: job.jobs,
        retries: job.retries,
        cache_dir: None, // the server owns persistence
        deadline_ms: job.deadline_ms,
        wall_watchdog_ms: None,
        backoff_base_ms: 1,
        injector: None, // serve-layer faults live on the wire, not in the campaign
        abort: Some(job.cancel.clone()),
    };
    let started = Instant::now();
    shared.executing.fetch_add(1, Ordering::Relaxed);
    let report = run_campaign_with_cache(&job.spec, &engine_cfg, &shared.cache);
    shared.executing.fetch_sub(1, Ordering::Relaxed);
    done.store(true, Ordering::Relaxed);
    if let Some(w) = watchdog {
        let _ = w.join();
    }
    let wall_us = started.elapsed().as_micros() as u64;

    // The deterministic document travels verbatim: its bytes must
    // equal a one-shot `crash-resist campaign` run of the same spec.
    job.writer.send(&Frame {
        kind: FrameKind::Result,
        request_id: job.request_id,
        payload: report.results_json().into_bytes(),
    });

    let m = &report.metrics;
    let parse = if m.cache.image_misses == 0 {
        if m.cache.image_hits > 0 {
            "cached"
        } else {
            "none"
        }
    } else {
        "fresh"
    };
    let cancelled = report
        .records
        .iter()
        .any(|r| matches!(&r.error, Some(e) if e.kind == TaskErrorKind::Cancelled));
    if cancelled {
        shared
            .counters
            .requests_cancelled
            .fetch_add(1, Ordering::Relaxed);
    }
    let sent = job.writer.send(&Frame::text(
        FrameKind::Done,
        job.request_id,
        format!(
            "{{\"status\":\"{}\",\"executed\":true,\"degraded\":{},\"solver_calls\":{},\
             \"solver_memo_hits\":{},\"parse\":\"{parse}\",\"filter_hits\":{},\
             \"module_hits\":{},\"image_hits\":{},\"wall_us\":{wall_us}}}",
            if cancelled { "cancelled" } else { "ok" },
            report.degraded,
            m.solver_calls,
            m.solver_memo_hits,
            m.cache.filter_hits,
            m.cache.module_hits,
            m.cache.image_hits,
        ),
    ));
    if sent {
        shared
            .counters
            .requests_completed
            .fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    const SPEC: &str = r#"{"name":"serve-unit","seed":7,"tasks":[{"PocScan":"ie"}]}"#;

    #[test]
    fn end_to_end_request_and_graceful_shutdown() {
        let server = Server::bind(ServeConfig::default()).expect("bind ephemeral");
        let addr = server.local_addr().unwrap().to_string();
        let runner = std::thread::spawn(move || server.run().expect("clean drain"));

        let mut client = Client::connect(&addr).expect("connect");
        assert_eq!(client.version, PROTO_VERSION);
        let response = client.request(SPEC).expect("request");
        assert!(response.completed(), "error={:?}", response.error);
        assert!(response.result.is_some());
        assert_eq!(response.done_str("status").as_deref(), Some("ok"));
        assert!(
            response.progress.iter().any(|p| p.contains("\"queued\"")),
            "progress={:?}",
            response.progress
        );
        client.shutdown().expect("shutdown ack");

        let stats = runner.join().expect("server thread");
        assert_eq!(stats.conns_accepted, 1);
        assert_eq!(stats.requests_admitted, 1);
        assert_eq!(stats.requests_completed, 1);
        assert_eq!(stats.busy_rejections, 0);
    }

    #[test]
    fn closed_connections_release_their_fd_and_retire_the_ledger() {
        let server = Server::bind(ServeConfig::default()).expect("bind");
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run().expect("drain"));

        // A stream of short-lived connections — the supervisor
        // heartbeat pattern. Each must deregister its kill handle on
        // disconnect, or a resident server leaks one fd per probe.
        for round in 0..5 {
            let mut client = Client::connect(&addr).expect("connect");
            if round == 0 {
                let response = client.request(SPEC).expect("request");
                assert!(response.completed(), "error={:?}", response.error);
            } else {
                client.ping().expect("ping");
            }
            drop(client);
            let deadline = Instant::now() + Duration::from_secs(5);
            while handle.live_conns() > 0 {
                assert!(Instant::now() < deadline, "connection never deregistered");
                std::thread::sleep(Duration::from_millis(5));
            }
        }

        // The executed request's ledger entry retired with its
        // connection instead of accumulating for the server lifetime.
        assert!(handle.execution_counts().is_empty());
        handle.shutdown();
        let stats = runner.join().unwrap();
        assert_eq!(stats.conns_accepted, 5);
        assert_eq!(stats.exec_retired, 1);
        assert_eq!(stats.exec_violations, 0);
    }

    /// A negotiated raw connection, for pipelining a Cancel behind a
    /// Request the blocking client would wait on.
    fn raw_conn(addr: &str) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let hello = Frame::text(FrameKind::Hello, 0, crate::proto::hello_payload());
        crate::proto::write_frame(&mut stream, &hello).unwrap();
        let ack = read_frame(&mut stream).expect("HelloAck");
        assert_eq!(ack.kind, FrameKind::HelloAck);
        stream
    }

    #[test]
    fn pong_reports_executing_while_any_executor_runs() {
        let mut server = Server::bind(ServeConfig::default()).expect("bind");
        server.executors = 2;
        let addr = server.local_addr().unwrap().to_string();
        let runner = std::thread::spawn(move || server.run().expect("drain"));

        // A long request (many short tasks, so a Cancel lands fast)...
        let tasks = vec![r#"{"PocScan":"ie"}"#; 400].join(",");
        let long_spec = format!(r#"{{"name":"serve-long","seed":7,"tasks":[{tasks}]}}"#);
        let mut long = raw_conn(&addr);
        let request = Frame::text(FrameKind::Request, 1, long_spec);
        crate::proto::write_frame(&mut long, &request).unwrap();
        let mut probe = Client::connect(&addr).expect("connect");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !probe.ping().expect("ping").executing {
            assert!(Instant::now() < deadline, "the long request never started");
            std::thread::sleep(Duration::from_millis(2));
        }

        // ...overlapped by a short one on the other executor. When the
        // short one finishes, the long one still runs.
        let short = probe.request(SPEC).expect("short request");
        assert_eq!(short.done_str("status").as_deref(), Some("ok"));
        let pong = probe.ping().expect("ping");
        assert!(pong.executing, "one executor still runs: {pong:?}");

        let cancel = Frame::text(FrameKind::Cancel, 1, "{}");
        crate::proto::write_frame(&mut long, &cancel).unwrap();
        let done = loop {
            let frame = read_frame(&mut long).expect("long request frames");
            if frame.kind == FrameKind::Done {
                break frame.payload_str();
            }
        };
        assert!(done.contains("\"status\":\"cancelled\""), "done={done}");
        let pong = probe.ping().expect("ping");
        assert!(!pong.executing, "both requests are done: {pong:?}");
        probe.shutdown().expect("shutdown ack");
        drop(long);
        let stats = runner.join().unwrap();
        assert_eq!((stats.requests_executed, stats.exec_violations), (2, 0));
    }

    #[test]
    fn cancel_while_queued_reports_cancelled_without_execution() {
        // Capacity 1 and a cancel sent immediately: with an empty
        // executor the race is benign — either the request ran (ok)
        // or was skipped (cancelled, executed:false); both keep the
        // no-double-execution ledger at <= 1.
        let server = Server::bind(ServeConfig::default()).expect("bind");
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run().expect("drain"));

        let mut client = Client::connect(&addr).expect("connect");
        let response = client.request(SPEC).expect("request");
        assert!(response.completed());
        for (_, n) in handle.execution_counts() {
            assert!(n <= 1, "double execution");
        }
        handle.shutdown();
        let _ = runner.join().unwrap();
    }
}
