//! The blocking client side of the framed protocol.

use crate::proto::{hello_payload, read_frame, write_frame, Frame, FrameError, FrameKind};
use cr_campaign::json::Json;
use cr_chaos::{derive_seed, mix64};
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Ceiling for one exponentially-backed-off Busy retry sleep.
const BACKOFF_CAP_MS: u64 = 2_000;

/// The sleep before Busy retry number `attempt` (0-based): the
/// server's `retry_after_ms` hint doubled per attempt, capped at
/// [`BACKOFF_CAP_MS`], plus seeded jitter in `[0, delay/2]` so a herd
/// of rejected clients does not re-arrive in lockstep. Deterministic
/// in `(seed, request_id, attempt)`.
pub fn backoff_delay_ms(hint_ms: u64, attempt: u32, seed: u64, request_id: u64) -> u64 {
    let doubled = hint_ms.saturating_mul(1u64 << attempt.min(16));
    let delay = doubled.clamp(1, BACKOFF_CAP_MS);
    let jitter = mix64(derive_seed(&[seed, request_id, u64::from(attempt)])) % (delay / 2 + 1);
    delay + jitter
}

/// Everything the server streamed back for one request.
#[derive(Debug, Default)]
pub struct Response {
    /// The request id this response answers.
    pub request_id: u64,
    /// Progress frame payloads, in arrival order.
    pub progress: Vec<String>,
    /// The deterministic results document, verbatim bytes.
    pub result: Option<Vec<u8>>,
    /// The final Done payload (status + advisory stats).
    pub done: Option<String>,
    /// A Busy payload, when the admission queue rejected the request.
    pub busy: Option<String>,
    /// An Error payload, when the request failed at the protocol or
    /// admission layer.
    pub error: Option<String>,
}

impl Response {
    /// Whether the request ran to a final Done frame.
    pub fn completed(&self) -> bool {
        self.done.is_some()
    }

    /// Parse `retry_after_ms` out of a Busy payload.
    pub fn retry_after_ms(&self) -> Option<u64> {
        let busy = self.busy.as_deref()?;
        Json::parse(busy).ok()?.get("retry_after_ms")?.as_u64()
    }

    /// Extract one numeric field from the Done payload.
    pub fn done_u64(&self, key: &str) -> Option<u64> {
        let done = self.done.as_deref()?;
        Json::parse(done).ok()?.get(key)?.as_u64()
    }

    /// Extract one string field from the Done payload.
    pub fn done_str(&self, key: &str) -> Option<String> {
        let done = self.done.as_deref()?;
        Some(Json::parse(done).ok()?.get(key)?.as_str()?.to_string())
    }
}

/// One serving-phase heartbeat answer (a parsed Pong payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pong {
    /// Admitted jobs waiting for an executor.
    pub queue_len: u64,
    /// Whether any executor is inside a campaign right now.
    pub executing: bool,
    /// Requests answered with a final Done frame so far.
    pub completed: u64,
    /// Whether the server is draining toward shutdown.
    pub draining: bool,
}

/// A negotiated connection to a resident server.
pub struct Client {
    stream: TcpStream,
    /// Protocol version agreed in the handshake.
    pub version: u16,
    next_request_id: u64,
    /// The address we connected to, kept for transparent reconnect.
    addr: String,
    /// Seed for retry jitter (see [`backoff_delay_ms`]).
    retry_seed: u64,
    /// The configured read timeout, re-applied after a transparent
    /// reconnect so a wedged server still surfaces as `TimedOut`.
    read_timeout: Option<Duration>,
}

fn other_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

impl Client {
    /// Connect and negotiate the protocol version.
    ///
    /// # Errors
    ///
    /// Connection failure, a rejected handshake (disjoint version
    /// ranges surface the server's Error payload), or a malformed
    /// server reply.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client {
            stream,
            version: 0,
            next_request_id: 0,
            addr: addr.to_string(),
            retry_seed: 2017,
            read_timeout: None,
        };
        client.write(&Frame::text(FrameKind::Hello, 0, hello_payload()))?;
        let ack = client.read()?;
        match ack.kind {
            FrameKind::HelloAck => {
                let payload = ack.payload_str();
                let version = Json::parse(&payload)
                    .ok()
                    .and_then(|v| v.get("version")?.as_u64())
                    .ok_or_else(|| other_err("HelloAck without version"))?;
                client.version = version as u16;
                Ok(client)
            }
            FrameKind::Error => Err(other_err(format!(
                "handshake rejected: {}",
                ack.payload_str()
            ))),
            other => Err(other_err(format!("unexpected handshake reply {other:?}"))),
        }
    }

    /// Send one campaign request (a spec JSON document, optionally
    /// with `jobs`/`retries`/`deadline_ms` option keys) and collect
    /// the full response stream.
    ///
    /// # Errors
    ///
    /// Transport failure or a malformed server frame. A Busy or Error
    /// reply is a *successful* call — inspect [`Response::busy`] /
    /// [`Response::error`].
    pub fn request(&mut self, payload: &str) -> io::Result<Response> {
        self.next_request_id += 1;
        let request_id = self.next_request_id;
        self.write(&Frame::text(FrameKind::Request, request_id, payload))?;
        self.collect(request_id)
    }

    /// Seed the deterministic retry jitter (see [`backoff_delay_ms`]);
    /// defaults to the calibration seed 2017.
    pub fn with_retry_seed(mut self, seed: u64) -> Client {
        self.retry_seed = seed;
        self
    }

    /// [`Client::request`], retrying (with a fresh request id) for as
    /// long as the server answers Busy. Each sleep starts from the
    /// server's `retry_after_ms` hint and backs off exponentially with
    /// seeded jitter ([`backoff_delay_ms`]). Campaign requests are
    /// idempotent (results are deterministic and the server dedups by
    /// request id), so one transport failure is also retried — the
    /// client reconnects once and resends before giving up.
    ///
    /// # Errors
    ///
    /// As [`Client::request`] after the reconnect budget is spent; the
    /// final Busy response is returned (not an error) when every retry
    /// was rejected. A Busy payload that does not parse to a
    /// `retry_after_ms` hint is an [`io::ErrorKind::InvalidData`]
    /// malformed-frame error — never silently treated as success.
    pub fn request_with_retry(&mut self, payload: &str, max_retries: u32) -> io::Result<Response> {
        let mut reconnected = false;
        let mut response = self.request_or_reconnect(payload, &mut reconnected)?;
        for attempt in 0..max_retries {
            if response.busy.is_none() {
                break;
            }
            let Some(hint) = response.retry_after_ms() else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "malformed Busy payload (no retry_after_ms): {:?}",
                        response.busy.as_deref().unwrap_or_default()
                    ),
                ));
            };
            let delay = backoff_delay_ms(hint, attempt, self.retry_seed, response.request_id);
            std::thread::sleep(Duration::from_millis(delay));
            response = self.request_or_reconnect(payload, &mut reconnected)?;
        }
        if response.completed() {
            return Ok(response);
        }
        if response.busy.is_some() && response.retry_after_ms().is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "malformed Busy payload (no retry_after_ms): {:?}",
                    response.busy.as_deref().unwrap_or_default()
                ),
            ));
        }
        Ok(response)
    }

    /// One request attempt with a single-reconnect budget shared
    /// across the whole retry loop.
    fn request_or_reconnect(
        &mut self,
        payload: &str,
        reconnected: &mut bool,
    ) -> io::Result<Response> {
        match self.request(payload) {
            Ok(r) => Ok(r),
            Err(e) if !*reconnected => {
                *reconnected = true;
                let fresh = Client::connect(&self.addr).map_err(|c| {
                    io::Error::new(e.kind(), format!("{e} (reconnect failed: {c})"))
                })?;
                self.stream = fresh.stream;
                self.version = fresh.version;
                // Carry the configured read deadline over to the fresh
                // socket: a reconnected client must not block forever
                // on a wedged server.
                if self.read_timeout.is_some() {
                    self.stream.set_read_timeout(self.read_timeout)?;
                }
                self.request(payload)
            }
            Err(e) => Err(e),
        }
    }

    /// Send one Request frame and run `after_send` before collecting
    /// the response — the fleet router's hook point for injecting a
    /// node kill *mid-request* (after the worker has the frame, before
    /// it answers).
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn request_with_hook(
        &mut self,
        payload: &str,
        after_send: impl FnOnce(),
    ) -> io::Result<Response> {
        self.next_request_id += 1;
        let request_id = self.next_request_id;
        self.write(&Frame::text(FrameKind::Request, request_id, payload))?;
        after_send();
        self.collect(request_id)
    }

    /// Heartbeat: send a Ping, parse the Pong. Combine with
    /// [`Client::set_read_timeout`] so a wedged peer surfaces as a
    /// timeout error, not a hung supervisor.
    ///
    /// # Errors
    ///
    /// Transport failure, an unexpected reply kind, or an unparseable
    /// Pong payload.
    pub fn ping(&mut self) -> io::Result<Pong> {
        self.next_request_id += 1;
        let id = self.next_request_id;
        self.write(&Frame::text(FrameKind::Ping, id, "{}"))?;
        let frame = self.read()?;
        if frame.kind != FrameKind::Pong {
            return Err(other_err(format!("expected Pong, got {:?}", frame.kind)));
        }
        let payload = frame.payload_str();
        let v = Json::parse(&payload).map_err(other_err)?;
        let field = |k: &str| v.get(k).and_then(Json::as_u64);
        let flag = |k: &str| v.get(k).and_then(Json::as_bool);
        Ok(Pong {
            queue_len: field("queue_len").ok_or_else(|| other_err("Pong without queue_len"))?,
            executing: flag("executing").unwrap_or(false),
            completed: field("completed").unwrap_or(0),
            draining: flag("draining").unwrap_or(false),
        })
    }

    /// Pull the server's warm-cache records (CRC-framed JSONL, the
    /// replication payload).
    ///
    /// # Errors
    ///
    /// Transport failure or an unexpected reply kind.
    pub fn sync_pull(&mut self) -> io::Result<String> {
        self.next_request_id += 1;
        let id = self.next_request_id;
        self.write(&Frame::text(FrameKind::SyncPull, id, "{}"))?;
        let frame = self.read()?;
        if frame.kind != FrameKind::SyncState {
            return Err(other_err(format!(
                "expected SyncState, got {:?}",
                frame.kind
            )));
        }
        Ok(frame.payload_str())
    }

    /// Push warm-cache records into the server; returns the server's
    /// `(merged, rejected)` line counts from its SyncAck.
    ///
    /// # Errors
    ///
    /// Transport failure or an unexpected reply kind.
    pub fn sync_push(&mut self, records: &str) -> io::Result<(u64, u64)> {
        self.next_request_id += 1;
        let id = self.next_request_id;
        self.write(&Frame::text(FrameKind::SyncPush, id, records))?;
        let frame = self.read()?;
        if frame.kind != FrameKind::SyncAck {
            return Err(other_err(format!("expected SyncAck, got {:?}", frame.kind)));
        }
        let payload = frame.payload_str();
        let v = Json::parse(&payload).map_err(other_err)?;
        let field = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
        Ok((field("merged"), field("rejected")))
    }

    /// Bound every read on this connection; `None` blocks forever.
    ///
    /// # Errors
    ///
    /// Propagates the socket's `set_read_timeout` failure.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(())
    }

    /// Cancel an in-flight request by id (fire-and-forget; the
    /// server's answer arrives in that request's own stream).
    ///
    /// # Errors
    ///
    /// Transport failure.
    pub fn cancel(&mut self, request_id: u64) -> io::Result<()> {
        self.write(&Frame::text(FrameKind::Cancel, request_id, "{}"))
    }

    /// Ask the server to drain and exit; waits for the ShutdownAck.
    ///
    /// # Errors
    ///
    /// Transport failure or a reply other than ShutdownAck.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.write(&Frame::text(FrameKind::Shutdown, 0, "{}"))?;
        let ack = self.read()?;
        if ack.kind == FrameKind::ShutdownAck {
            Ok(())
        } else {
            Err(other_err(format!(
                "expected ShutdownAck, got {:?}: {}",
                ack.kind,
                ack.payload_str()
            )))
        }
    }

    fn collect(&mut self, request_id: u64) -> io::Result<Response> {
        let mut response = Response {
            request_id,
            ..Response::default()
        };
        loop {
            let frame = self.read()?;
            if frame.request_id != request_id && frame.request_id != 0 {
                // A frame for another request (pipelined caller):
                // out of scope for the blocking client, skip it.
                continue;
            }
            match frame.kind {
                FrameKind::Progress => response.progress.push(frame.payload_str()),
                FrameKind::Result => response.result = Some(frame.payload),
                FrameKind::Done => {
                    response.done = Some(frame.payload_str());
                    return Ok(response);
                }
                FrameKind::Busy => {
                    response.busy = Some(frame.payload_str());
                    return Ok(response);
                }
                FrameKind::Error => {
                    response.error = Some(frame.payload_str());
                    return Ok(response);
                }
                other => {
                    return Err(other_err(format!("unexpected server frame {other:?}")));
                }
            }
        }
    }

    fn write(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut self.stream, frame)
    }

    fn read(&mut self) -> io::Result<Frame> {
        match read_frame(&mut self.stream) {
            Ok(f) => Ok(f),
            Err(FrameError::Eof) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Err(FrameError::Io(e)) => Err(e),
            Err(e) => Err(other_err(e)),
        }
    }
}
