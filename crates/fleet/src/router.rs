//! The fleet front: one listener speaking the ordinary serve
//! protocol, so any [`cr_serve::Client`] talks to a fleet without
//! knowing it is one.
//!
//! ## Admission, coalescing, idempotent failover
//!
//! A Request is admitted once per *admission key* — the hash of its
//! payload bytes. Concurrent requests with the same key coalesce onto
//! one in-flight admission and all receive the single campaign's
//! frames; results are deterministic, so byte-identical payloads have
//! byte-identical answers. Each admission is dispatched to the worker
//! owning its *route key* (hashed from the spec's task labels, i.e.
//! the modules involved), and on worker death, partition, or any
//! transport failure it fails over along the consistent-hash ring.
//! The admission uid dedups across attempts: however many workers the
//! request visits, each waiter gets exactly one Result frame, and the
//! deterministic document is byte-identical regardless of which node
//! produced it.

use crate::supervisor::Supervisor;
use crate::{FleetConfig, FleetCounters};
use cr_campaign::CampaignSpec;
use cr_chaos::{derive_seed, hash_str, mix64, Site};
use cr_serve::proto::{
    negotiate, parse_hello, read_frame, write_frame, Frame, FrameError, FrameKind,
};
use cr_serve::Client;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Idle poll period for connection readers and the dispatch retry
/// sleep.
const POLL_MS: u64 = 25;

/// Idle poll period for the accept loop — short, because a client's
/// very first frame waits on it.
const ACCEPT_POLL_MS: u64 = 2;

/// `retry_after_ms` hint in router Busy replies.
const BUSY_RETRY_MS: u64 = 25;

/// Per-attempt read deadline on a dispatched request, milliseconds —
/// a wedged worker surfaces as a failover, not a hung admission.
const REQUEST_TIMEOUT_MS: u64 = 30_000;

/// Upper bound on full ring sweeps for one admission before the fleet
/// gives up and reports the last error. Between sweeps the dispatcher
/// sleeps, so this is also the patience window for the supervisor to
/// restart a crashed owner.
const MAX_SWEEPS: u32 = 200;

/// The writer half of one front connection, shared between its reader
/// thread and every dispatcher delivering to it.
struct FrontConn {
    stream: Mutex<TcpStream>,
    conn_id: u64,
    dead: AtomicBool,
}

impl FrontConn {
    fn send(&self, frame: &Frame) -> bool {
        if self.dead.load(Ordering::Relaxed) {
            return false;
        }
        let mut stream = self.stream.lock().unwrap();
        let ok = write_frame(&mut *stream, frame).is_ok();
        if !ok {
            self.dead.store(true, Ordering::Relaxed);
        }
        ok
    }
}

/// One in-flight admission: the connections waiting on its single
/// execution.
struct Admission {
    waiters: Vec<(Arc<FrontConn>, u64)>,
}

/// The admission table plus an index of every `(conn, request_id)`
/// pair currently waiting on some admission. The index answers the
/// duplicate-id check and [`Router::conn_has_waiters`] without walking
/// every admission's waiter list — under 8 dispatcher threads that
/// linear scan (held inside the admissions lock) was a measurable
/// serialization point.
struct Admissions {
    by_key: HashMap<u64, Admission>,
    waiting: HashSet<(u64, u64)>,
}

/// The delivery ledger. Live connections' counts stay queryable (the
/// exactly-once invariant witness); a closed connection's entries are
/// retired into the `ledger_retired` / `ledger_violations` counters so
/// the map is bounded by live connections, not fleet lifetime.
struct Ledger {
    /// Front connections currently open.
    live: HashSet<u64>,
    /// `(front conn, client request id) -> Result frames delivered`.
    /// The fleet invariant: every admitted pair maps to exactly 1.
    counts: HashMap<(u64, u64), u32>,
}

/// Everything the router threads share.
pub struct Router {
    cfg: FleetConfig,
    supervisor: Arc<Supervisor>,
    ring: crate::ring::HashRing,
    counters: Arc<FleetCounters>,
    admissions: Mutex<Admissions>,
    delivered: Mutex<Ledger>,
    /// Warm dispatch connections, tagged with the worker generation
    /// they were opened against: a fresh connect pays the worker's
    /// accept-poll latency, so the router keeps healthy connections and
    /// lazily discards ones from dead generations. One shard (lock) per
    /// worker: dispatchers bound for different workers never contend on
    /// checkout/checkin.
    pool: Vec<Mutex<Vec<(u32, Client)>>>,
    shutdown: AtomicBool,
    next_uid: AtomicU64,
}

impl Router {
    pub(crate) fn new(
        cfg: FleetConfig,
        supervisor: Arc<Supervisor>,
        counters: Arc<FleetCounters>,
    ) -> Router {
        let ring = crate::ring::HashRing::new(cfg.workers);
        let pool = (0..cfg.workers.max(1))
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        Router {
            cfg,
            supervisor,
            ring,
            counters,
            admissions: Mutex::new(Admissions {
                by_key: HashMap::new(),
                waiting: HashSet::new(),
            }),
            delivered: Mutex::new(Ledger {
                live: HashSet::new(),
                counts: HashMap::new(),
            }),
            pool,
            shutdown: AtomicBool::new(false),
            next_uid: AtomicU64::new(0),
        }
    }

    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Admissions still in flight (join gates on zero).
    pub(crate) fn inflight(&self) -> usize {
        self.admissions.lock().unwrap().by_key.len()
    }

    /// The live delivery ledger, sorted: `((conn, request),
    /// results_sent)`. Closed connections' entries live on only as the
    /// `ledger_retired` / `ledger_violations` counters.
    pub(crate) fn delivery_counts(&self) -> Vec<((u64, u64), u32)> {
        let mut v: Vec<_> = self
            .delivered
            .lock()
            .unwrap()
            .counts
            .iter()
            .map(|(&k, &n)| (k, n))
            .collect();
        v.sort_unstable();
        v
    }

    /// Whether `conn_id` still has waiters on any in-flight admission.
    fn conn_has_waiters(&self, conn_id: u64) -> bool {
        self.admissions
            .lock()
            .unwrap()
            .waiting
            .iter()
            .any(|&(c, _)| c == conn_id)
    }

    /// Accept loop; returns when shutdown is requested.
    pub(crate) fn serve(self: &Arc<Router>, listener: &TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut conn_threads = Vec::new();
        let mut next_conn_id = 0u64;
        while !self.is_shutdown() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // Reap readers whose connection already ended.
                    conn_threads.retain(|t: &std::thread::JoinHandle<()>| !t.is_finished());
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    let router = self.clone();
                    conn_threads.push(std::thread::spawn(move || {
                        router.serve_conn(stream, conn_id);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(ACCEPT_POLL_MS));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        for t in conn_threads {
            let _ = t.join();
        }
        Ok(())
    }

    /// One front connection: handshake, then frames until EOF or
    /// shutdown.
    fn serve_conn(self: &Arc<Router>, stream: TcpStream, conn_id: u64) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(POLL_MS)));
        let reader_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let conn = Arc::new(FrontConn {
            stream: Mutex::new(stream),
            conn_id,
            dead: AtomicBool::new(false),
        });
        self.delivered.lock().unwrap().live.insert(conn_id);
        self.conn_loop(&reader_stream, &conn);
        self.retire_conn(conn_id);
    }

    /// Drop a closed connection from the ledger, folding its delivery
    /// counts into the retired/violation counters.
    fn retire_conn(&self, conn_id: u64) {
        let mut ledger = self.delivered.lock().unwrap();
        ledger.live.remove(&conn_id);
        let done: Vec<(u64, u64)> = ledger
            .counts
            .keys()
            .filter(|k| k.0 == conn_id)
            .copied()
            .collect();
        for key in done {
            if let Some(n) = ledger.counts.remove(&key) {
                let counter = if n == 1 {
                    &self.counters.ledger_retired
                } else {
                    &self.counters.ledger_violations
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The frame loop behind [`Router::serve_conn`].
    fn conn_loop(self: &Arc<Router>, reader_stream: &TcpStream, conn: &Arc<FrontConn>) {
        let conn_id = conn.conn_id;
        let mut negotiated = false;
        loop {
            let frame = match read_polled(reader_stream) {
                Ok(Some(f)) => f,
                Ok(None) => {
                    if self.is_shutdown() {
                        break;
                    }
                    continue;
                }
                Err(_) => break,
            };
            if !negotiated {
                if frame.kind != FrameKind::Hello {
                    conn.send(&error_frame(
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
                        conn.send(&Frame::text(
                            FrameKind::HelloAck,
                            0,
                            format!(
                                "{{\"version\":{version},\"server\":\"crash-resist-fleet\",\
                                 \"workers\":{}}}",
                                self.cfg.workers
                            ),
                        ));
                    }
                    None => {
                        conn.send(&error_frame(0, "version", "no shared protocol version"));
                        break;
                    }
                }
                continue;
            }
            match frame.kind {
                FrameKind::Request => self.handle_request(conn, &frame),
                FrameKind::Ping => {
                    let inflight = self.inflight();
                    conn.send(&Frame::text(
                        FrameKind::Pong,
                        frame.request_id,
                        format!(
                            "{{\"queue_len\":{inflight},\"executing\":{},\"completed\":{},\
                             \"draining\":{}}}",
                            inflight > 0,
                            self.counters.results_delivered.load(Ordering::Relaxed),
                            self.is_shutdown(),
                        ),
                    ));
                }
                FrameKind::Shutdown => {
                    self.shutdown();
                    conn.send(&Frame::text(FrameKind::ShutdownAck, 0, "{\"drain\":true}"));
                    break;
                }
                FrameKind::Cancel => {
                    // An admission may be shared by coalesced waiters on
                    // other connections; one client must not cancel it.
                    conn.send(&error_frame(
                        frame.request_id,
                        "unsupported",
                        "the fleet router does not cancel shared admissions",
                    ));
                }
                other => {
                    conn.send(&error_frame(
                        frame.request_id,
                        "protocol",
                        &format!("unexpected client frame kind {other:?}"),
                    ));
                    break;
                }
            }
            if self.is_shutdown() && !self.conn_has_waiters(conn_id) {
                // Draining with nothing left to deliver here: stop
                // reading, so a client that keeps sending frames
                // cannot hold the reader thread — and Fleet::join —
                // hostage past shutdown.
                break;
            }
        }
    }

    /// Admit (or coalesce) one Request frame.
    fn handle_request(self: &Arc<Router>, conn: &Arc<FrontConn>, frame: &Frame) {
        let request_id = frame.request_id;
        let Ok(text) = std::str::from_utf8(&frame.payload) else {
            conn.send(&error_frame(
                request_id,
                "bad_request",
                "payload is not UTF-8",
            ));
            return;
        };
        let spec = match CampaignSpec::from_json(text) {
            Ok(s) => s,
            Err(e) => {
                conn.send(&error_frame(request_id, "bad_request", &e));
                return;
            }
        };
        if self.is_shutdown() {
            conn.send(&error_frame(
                request_id,
                "shutting_down",
                "fleet is draining",
            ));
            return;
        }
        {
            let delivered = self.delivered.lock().unwrap();
            if delivered.counts.contains_key(&(conn.conn_id, request_id)) {
                drop(delivered);
                conn.send(&error_frame(
                    request_id,
                    "duplicate",
                    "request id already used on this connection",
                ));
                return;
            }
        }
        // The admission key is the payload hash: byte-identical
        // requests share one execution. The route key hashes only the
        // task labels, so the same modules land on the same worker
        // regardless of option keys like `jobs`.
        let admission_key = mix64(derive_seed(&[hash_str(text)]));
        let mut labels: Vec<String> = spec.tasks.iter().map(|t| t.label()).collect();
        labels.sort_unstable();
        let route_key = hash_str(&labels.join(","));

        let mut admissions = self.admissions.lock().unwrap();
        // A request id may wait on at most one admission per
        // connection: reusing it while the first is still in flight —
        // even under a different payload — is a duplicate, or the
        // exactly-once ledger would double-count the pair. The waiting
        // index answers this in one hash probe.
        if admissions.waiting.contains(&(conn.conn_id, request_id)) {
            drop(admissions);
            conn.send(&error_frame(
                request_id,
                "duplicate",
                "request id already waiting on this connection",
            ));
            return;
        }
        if let Some(adm) = admissions.by_key.get_mut(&admission_key) {
            // Coalesce: ride the in-flight execution.
            adm.waiters.push((conn.clone(), request_id));
            admissions.waiting.insert((conn.conn_id, request_id));
            drop(admissions);
            self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            self.counters
                .requests_admitted
                .fetch_add(1, Ordering::Relaxed);
            conn.send(&Frame::text(
                FrameKind::Progress,
                request_id,
                "{\"event\":\"coalesced\"}",
            ));
            return;
        }
        if admissions.by_key.len() >= self.cfg.admit_capacity {
            drop(admissions);
            self.counters
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            conn.send(&Frame::text(
                FrameKind::Busy,
                request_id,
                format!("{{\"code\":\"busy\",\"retry_after_ms\":{BUSY_RETRY_MS}}}"),
            ));
            return;
        }
        let uid = self.next_uid.fetch_add(1, Ordering::Relaxed) + 1;
        admissions.by_key.insert(
            admission_key,
            Admission {
                waiters: vec![(conn.clone(), request_id)],
            },
        );
        admissions.waiting.insert((conn.conn_id, request_id));
        drop(admissions);
        self.counters
            .requests_admitted
            .fetch_add(1, Ordering::Relaxed);
        conn.send(&Frame::text(
            FrameKind::Progress,
            request_id,
            format!("{{\"event\":\"queued\",\"admission\":{uid}}}"),
        ));
        let router = self.clone();
        let payload = text.to_string();
        std::thread::spawn(move || {
            router.dispatch(admission_key, route_key, uid, &payload);
        });
    }

    /// Drive one admission to completion: route, fail over, deliver.
    fn dispatch(self: &Arc<Router>, admission_key: u64, route_key: u64, uid: u64, payload: &str) {
        let mut failovers = 0u32;
        let mut last_error = String::from("no routable workers");
        let mut outcome = None;
        let mut tries = 0u32;
        'sweeps: for sweep in 0..MAX_SWEEPS {
            for id in self.ring.sequence(route_key) {
                let Some((addr, generation, in_flight)) = self.supervisor.dispatch_target(id)
                else {
                    continue;
                };
                // Injected partition: this attempt cannot reach the
                // worker; the ring successor takes it, and the next
                // sweep (attempt index > 0) heals.
                if self.cfg.injector.as_ref().is_some_and(|inj| {
                    inj.fires(Site::FleetPartition, derive_seed(&[uid, id as u64]), sweep)
                        .is_some()
                }) {
                    self.counters.partitions.fetch_add(1, Ordering::Relaxed);
                    failovers += 1;
                    last_error = format!("partitioned from worker {id}");
                    continue;
                }
                in_flight.fetch_add(1, Ordering::Relaxed);
                let result = self.try_worker(id, &addr, generation, uid, tries, payload);
                tries += 1;
                in_flight.fetch_sub(1, Ordering::Relaxed);
                match result {
                    Ok(answer) => {
                        outcome = Some((id, answer));
                        break 'sweeps;
                    }
                    Err(e) => {
                        let _span =
                            cr_trace::span_advisory(cr_trace::Stage::Schedule, "fleet.failover");
                        self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                        failovers += 1;
                        last_error = e.to_string();
                    }
                }
            }
            if self.is_shutdown() {
                break;
            }
            // Whole ring failed this sweep: give the supervisor time
            // to restart someone before trying again.
            std::thread::sleep(Duration::from_millis(POLL_MS));
        }

        let waiters = {
            let mut admissions = self.admissions.lock().unwrap();
            let waiters = admissions
                .by_key
                .remove(&admission_key)
                .map(|a| a.waiters)
                .unwrap_or_default();
            for (conn, request_id) in &waiters {
                admissions.waiting.remove(&(conn.conn_id, *request_id));
            }
            waiters
        };
        match outcome {
            Some((worker, answer)) => {
                for (conn, request_id) in &waiters {
                    // The frame writes happen outside the delivery
                    // ledger lock: a slow or dead front connection must
                    // not stall every other dispatcher's bookkeeping
                    // (the per-conn stream mutex already serializes
                    // writers on one connection).
                    conn.send(&Frame::text(
                        FrameKind::Progress,
                        *request_id,
                        format!(
                            "{{\"event\":\"fleet\",\"worker\":{worker},\"failovers\":{failovers}}}"
                        ),
                    ));
                    conn.send(&Frame {
                        kind: FrameKind::Result,
                        request_id: *request_id,
                        payload: answer.result.clone(),
                    });
                    conn.send(&Frame::text(
                        FrameKind::Done,
                        *request_id,
                        answer.done.clone(),
                    ));
                    let mut delivered = self.delivered.lock().unwrap();
                    if delivered.live.contains(&conn.conn_id) {
                        *delivered
                            .counts
                            .entry((conn.conn_id, *request_id))
                            .or_insert(0) += 1;
                    } else {
                        // The waiter's connection closed while we
                        // executed: its ledger was already swept, so
                        // this single delivery retires directly.
                        self.counters.ledger_retired.fetch_add(1, Ordering::Relaxed);
                    }
                    drop(delivered);
                    self.counters
                        .results_delivered
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                for (conn, request_id) in &waiters {
                    conn.send(&error_frame(*request_id, "fleet_exhausted", &last_error));
                }
            }
        }
    }

    /// One attempt against one worker. `Ok` only for a complete,
    /// uncancelled answer; anything else fails over.
    fn try_worker(
        &self,
        id: usize,
        addr: &str,
        generation: u32,
        uid: u64,
        attempt: u32,
        payload: &str,
    ) -> io::Result<Answer> {
        let mut client = match self.checkout(id, generation) {
            Some(c) => c,
            None => {
                let mut c = Client::connect(addr)?;
                c.set_read_timeout(Some(Duration::from_millis(REQUEST_TIMEOUT_MS)))?;
                c
            }
        };
        // Node-kill chaos fires per admission, on the admission's
        // first dispatch attempt only: the worker is killed right
        // after it has the request — the hardest point in the
        // request's life to lose a node — and the failover retries
        // must then succeed, not be killed in turn.
        let kill = self
            .cfg
            .injector
            .as_ref()
            .is_some_and(|inj| inj.fires(Site::FleetNodeKill, uid, attempt).is_some())
            || (self.cfg.kill_at_admission == Some(uid) && attempt == 0);
        let mut response = client.request_with_hook(payload, || {
            if kill {
                self.supervisor.kill_worker(id);
            }
        })?;
        // A deep worker queue can still answer Busy under pathological
        // load; honor the hint a few times before failing over.
        for _ in 0..5 {
            if response.busy.is_none() {
                break;
            }
            let hint = response.retry_after_ms().unwrap_or(10);
            std::thread::sleep(Duration::from_millis(hint));
            response = client.request(payload)?;
        }
        if let Some(err) = response.error {
            return Err(io::Error::other(format!("worker {id} error: {err}")));
        }
        let status = response.done_str("status");
        let (Some(result), Some(done)) = (response.result, response.done.clone()) else {
            return Err(io::Error::other(format!(
                "worker {id}: incomplete response"
            )));
        };
        if status.as_deref() != Some("ok") {
            // A cancelled or degraded answer is not the deterministic
            // document the fleet promised; treat it as a failed node.
            return Err(io::Error::other(format!(
                "worker {id}: status {status:?}, failing over"
            )));
        }
        // A conn that just served a clean answer is worth keeping —
        // unless this attempt killed the worker out from under it.
        if !kill {
            self.checkin(id, generation, client);
        }
        Ok(Answer { result, done })
    }

    /// Take a pooled connection to worker `id` from its shard, lazily
    /// discarding any opened against an older (dead) generation.
    fn checkout(&self, id: usize, generation: u32) -> Option<Client> {
        let mut conns = self.pool.get(id)?.lock().unwrap();
        while let Some((g, client)) = conns.pop() {
            if g == generation {
                return Some(client);
            }
        }
        None
    }

    /// Return a healthy connection for reuse; a handful per worker
    /// covers the dispatcher concurrency.
    fn checkin(&self, id: usize, generation: u32, client: Client) {
        let Some(shard) = self.pool.get(id) else {
            return;
        };
        let mut conns = shard.lock().unwrap();
        if conns.len() < 8 {
            conns.push((generation, client));
        }
    }
}

/// One worker's accepted answer.
struct Answer {
    result: Vec<u8>,
    done: String,
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

/// One polled frame read: `Ok(None)` means idle (no byte arrived
/// within the poll window), `Err` means the connection is over.
fn read_polled(stream: &TcpStream) -> Result<Option<Frame>, FrameError> {
    let mut reader = PolledReader {
        stream,
        consumed: 0,
    };
    match read_frame(&mut reader) {
        Ok(f) => Ok(Some(f)),
        Err(e) if e.is_timeout() && reader.consumed == 0 => Ok(None),
        Err(e) => Err(e),
    }
}

/// Like the server's reader, but with a fixed mid-frame patience of
/// one second — fleet clients are other programs, not slow humans.
struct PolledReader<'a> {
    stream: &'a TcpStream,
    consumed: usize,
}

impl Read for PolledReader<'_> {
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
                        return Err(e);
                    }
                    stalled += Duration::from_millis(POLL_MS);
                    if stalled >= Duration::from_secs(1) {
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
