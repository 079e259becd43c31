//! The framed wire protocol.
//!
//! Every message is one *frame*: a fixed 24-byte header followed by a
//! CRC-checked payload. All integers are little-endian.
//!
//! ```text
//! offset  size  field
//!      0     4  magic          b"CRSV"
//!      4     2  version        u16 (PROTO_VERSION)
//!      6     1  kind           u8  (FrameKind)
//!      7     1  reserved       0
//!      8     8  request_id     u64
//!     16     4  payload_len    u32 (<= MAX_PAYLOAD)
//!     20     4  payload_crc    u32 (CRC-32/IEEE over the payload)
//!     24     …  payload        payload_len bytes
//! ```
//!
//! The CRC is the same CRC-32/IEEE the analysis cache frames its
//! persisted records with ([`cr_campaign::crc32`]), so one checksum
//! implementation guards both the disk format and the wire format.
//!
//! ## Version negotiation
//!
//! The first frame on a connection must be [`FrameKind::Hello`] with a
//! `{"min":M,"max":N}` JSON payload. The server picks the highest
//! version both sides support and replies [`FrameKind::HelloAck`] with
//! `{"version":V,…}`, or an [`FrameKind::Error`] frame with
//! `code:"version"` when the ranges are disjoint — a graceful reject,
//! not a dropped connection.

use cr_campaign::crc32;
use cr_campaign::json::Json;
use std::io::{self, Read, Write};

/// Protocol version this build speaks. Version 2 added the fleet
/// supervisor's Ping/Pong heartbeats.
pub const PROTO_VERSION: u16 = 2;

/// Oldest protocol version this build still accepts in a Hello.
pub const PROTO_MIN_VERSION: u16 = 1;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"CRSV";

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 24;

/// Upper bound on one frame's payload (16 MiB) — a corrupt or hostile
/// length field must not convince the server to allocate gigabytes.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// What a frame means. The discriminants are the wire encoding; codes
/// 14–17 are retired (an earlier cache-sync exchange) and stay
/// unassigned, so they decode as [`FrameError::UnknownKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum FrameKind {
    /// Client → server: version negotiation opener.
    Hello,
    /// Server → client: negotiation accepted, carries chosen version.
    HelloAck,
    /// Client → server: run a campaign spec.
    Request,
    /// Server → client: progress event for an in-flight request.
    Progress,
    /// Server → client: the deterministic results document.
    Result,
    /// Server → client: request finished (status + advisory stats).
    Done,
    /// Server → client: admission queue full, retry later.
    Busy,
    /// Server → client: request-level or protocol-level failure.
    Error,
    /// Client → server: cancel an in-flight request.
    Cancel,
    /// Client → server: drain in-flight work and exit (the
    /// SIGTERM-equivalent; `std` cannot portably trap signals).
    Shutdown,
    /// Server → client: shutdown acknowledged, drain begins.
    ShutdownAck,
    /// Client → server: heartbeat probe (the fleet supervisor's
    /// liveness check).
    Ping,
    /// Server → client: heartbeat answer carrying serving-phase state
    /// (queue depth, executor activity, completed count) so health is
    /// judged by the serving loop, not just process liveness.
    Pong,
}

impl FrameKind {
    /// Wire encoding of this kind.
    pub fn code(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::HelloAck => 2,
            FrameKind::Request => 3,
            FrameKind::Progress => 4,
            FrameKind::Result => 5,
            FrameKind::Done => 6,
            FrameKind::Busy => 7,
            FrameKind::Error => 8,
            FrameKind::Cancel => 9,
            FrameKind::Shutdown => 10,
            FrameKind::ShutdownAck => 11,
            FrameKind::Ping => 12,
            FrameKind::Pong => 13,
        }
    }

    /// Decode a wire kind byte.
    pub fn from_code(code: u8) -> Option<FrameKind> {
        Some(match code {
            1 => FrameKind::Hello,
            2 => FrameKind::HelloAck,
            3 => FrameKind::Request,
            4 => FrameKind::Progress,
            5 => FrameKind::Result,
            6 => FrameKind::Done,
            7 => FrameKind::Busy,
            8 => FrameKind::Error,
            9 => FrameKind::Cancel,
            10 => FrameKind::Shutdown,
            11 => FrameKind::ShutdownAck,
            12 => FrameKind::Ping,
            13 => FrameKind::Pong,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame means.
    pub kind: FrameKind,
    /// The request this frame belongs to (0 for connection-scoped
    /// frames: Hello, HelloAck, Shutdown, ShutdownAck).
    pub request_id: u64,
    /// CRC-checked payload bytes (JSON for every kind except
    /// [`FrameKind::Result`], whose payload is the verbatim
    /// `results_json()` document).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with a UTF-8 payload.
    pub fn text(kind: FrameKind, request_id: u64, payload: impl Into<String>) -> Frame {
        Frame {
            kind,
            request_id,
            payload: payload.into().into_bytes(),
        }
    }

    /// The payload as UTF-8 (lossy — diagnostics only).
    pub fn payload_str(&self) -> String {
        String::from_utf8_lossy(&self.payload).into_owned()
    }

    /// Encode to wire bytes (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        out.push(self.kind.code());
        out.push(0);
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// I/O failure (including read timeouts; the caller distinguishes
    /// idle timeouts from mid-frame stalls by where they happen).
    Io(io::Error),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The header carried an unsupported protocol version.
    BadVersion(u16),
    /// The header carried an unknown kind byte.
    UnknownKind(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// The payload failed its CRC check.
    CrcMismatch {
        /// CRC declared in the header.
        want: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversize(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            FrameError::CrcMismatch { want, got } => {
                write!(
                    f,
                    "payload CRC mismatch: header {want:08x}, payload {got:08x}"
                )
            }
        }
    }
}

impl FrameError {
    /// Whether this is a timeout (`WouldBlock`/`TimedOut`) rather than
    /// a hard failure.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            )
        )
    }
}

/// Read one frame. Distinguishes a clean close ([`FrameError::Eof`],
/// zero bytes before the header) from a truncated frame (EOF
/// mid-header or mid-payload, surfaced as [`FrameError::Io`] with
/// `UnexpectedEof`).
///
/// # Errors
///
/// See [`FrameError`]; a timeout on the *first* header byte also lands
/// in [`FrameError::Io`] — callers treat it as "idle, poll again" via
/// [`FrameError::is_timeout`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // First byte separately: zero bytes here is a clean close, not a
    // truncation.
    match r.read(&mut header[..1]) {
        Ok(0) => return Err(FrameError::Eof),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    r.read_exact(&mut header[1..]).map_err(FrameError::Io)?;
    if header[..4] != MAGIC {
        return Err(FrameError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if !(PROTO_MIN_VERSION..=PROTO_VERSION).contains(&version) {
        return Err(FrameError::BadVersion(version));
    }
    let kind = FrameKind::from_code(header[6]).ok_or(FrameError::UnknownKind(header[6]))?;
    let request_id = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let payload_len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
    if payload_len > MAX_PAYLOAD {
        return Err(FrameError::Oversize(payload_len));
    }
    let want = u32::from_le_bytes(header[20..24].try_into().expect("4 bytes"));
    let mut payload = vec![0u8; payload_len as usize];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    let got = crc32(&payload);
    if got != want {
        return Err(FrameError::CrcMismatch { want, got });
    }
    Ok(Frame {
        kind,
        request_id,
        payload,
    })
}

/// Write one frame.
///
/// # Errors
///
/// Underlying stream I/O failure.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}

/// The client's Hello payload advertising its supported version range.
pub fn hello_payload() -> String {
    format!("{{\"min\":{PROTO_MIN_VERSION},\"max\":{PROTO_VERSION},\"client\":\"cr-serve\"}}")
}

/// `(min, max)` from a Hello payload; a malformed payload degrades to
/// `(0, 0)`, which [`negotiate`] rejects gracefully. Values above
/// `u16::MAX` clamp to it.
pub fn parse_hello(payload: &[u8]) -> (u16, u16) {
    let Some(v) = std::str::from_utf8(payload)
        .ok()
        .and_then(|text| Json::parse(text).ok())
    else {
        return (0, 0);
    };
    let field = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .map_or(0, |n| n.min(u64::from(u16::MAX)) as u16)
    };
    (field("min"), field("max"))
}

/// Pick the protocol version for a Hello advertising `[min, max]`:
/// the highest version both sides speak, or `None` when the ranges are
/// disjoint.
pub fn negotiate(min: u16, max: u16) -> Option<u16> {
    let chosen = max.min(PROTO_VERSION);
    (chosen >= min && chosen >= PROTO_MIN_VERSION && min <= max).then_some(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::text(FrameKind::Request, 42, r#"{"name":"t","tasks":[]}"#)
    }

    #[test]
    fn frames_round_trip() {
        let frame = sample();
        let bytes = frame.encode();
        assert_eq!(bytes.len(), HEADER_LEN + frame.payload.len());
        let back = read_frame(&mut &bytes[..]).expect("decodes");
        assert_eq!(back, frame);
    }

    #[test]
    fn every_kind_round_trips() {
        for code in 1..=13u8 {
            let kind = FrameKind::from_code(code).expect("valid code");
            assert_eq!(kind.code(), code);
            let frame = Frame {
                kind,
                request_id: u64::from(code),
                payload: vec![code; 3],
            };
            let back = read_frame(&mut &frame.encode()[..]).unwrap();
            assert_eq!(back, frame);
        }
        // 0, the retired cache-sync codes 14..=17 and everything past
        // them are unassigned.
        for code in [0u8, 14, 15, 16, 17, 18] {
            assert_eq!(FrameKind::from_code(code), None, "code {code}");
            let mut wire = sample().encode();
            wire[6] = code;
            assert!(
                matches!(read_frame(&mut &wire[..]), Err(FrameError::UnknownKind(c)) if c == code),
                "code {code} must decode as UnknownKind"
            );
        }
    }

    #[test]
    fn clean_close_is_eof_not_truncation() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut { empty }), Err(FrameError::Eof)));
    }

    #[test]
    fn truncated_header_and_payload_are_io_errors() {
        let bytes = sample().encode();
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 2] {
            let err = read_frame(&mut &bytes[..cut]).unwrap_err();
            assert!(matches!(err, FrameError::Io(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut bytes = sample().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_version_kind_and_length_are_rejected() {
        let good = sample().encode();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[4..6].copy_from_slice(&99u16.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(FrameError::BadVersion(99))
        ));

        let mut bad = good.clone();
        bad[6] = 200;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(FrameError::UnknownKind(200))
        ));

        let mut bad = good;
        bad[16..20].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(FrameError::Oversize(_))
        ));
    }

    #[test]
    fn negotiation_picks_highest_shared_version() {
        assert_eq!(negotiate(1, 1), Some(1));
        assert_eq!(negotiate(1, 7), Some(PROTO_VERSION));
        assert_eq!(negotiate(PROTO_VERSION + 1, PROTO_VERSION + 3), None);
        assert_eq!(negotiate(5, 2), None, "inverted range is a reject");
    }

    #[test]
    fn hello_parses_its_own_payload() {
        assert_eq!(
            parse_hello(hello_payload().as_bytes()),
            (PROTO_MIN_VERSION, PROTO_VERSION)
        );
    }

    #[test]
    fn malformed_hello_degrades_to_zero() {
        for bad in [&b"\xff\xfe"[..], b"", b"{", b"[1,2]", b"{\"min\":\"1\"}"] {
            assert_eq!(parse_hello(bad), (0, 0), "{bad:?}");
        }
        assert_eq!(negotiate(0, 0), None);
    }

    #[test]
    fn hello_values_above_u16_max_are_clamped() {
        assert_eq!(parse_hello(br#"{"min":1,"max":4294967297}"#), (1, u16::MAX));
        assert_eq!(negotiate(1, u16::MAX), Some(PROTO_VERSION));
    }

    #[test]
    fn result_payload_is_verbatim_bytes() {
        // The Result frame carries the deterministic document
        // untouched — byte-identical comparison against a one-shot run
        // depends on this.
        let doc = r#"{"spec":{},"records":[],"degraded":false}"#;
        let frame = Frame::text(FrameKind::Result, 7, doc);
        let back = read_frame(&mut &frame.encode()[..]).unwrap();
        assert_eq!(back.payload, doc.as_bytes());
    }
}
