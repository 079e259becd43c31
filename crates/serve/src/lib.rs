//! # cr-serve — the resident discovery service
//!
//! The paper's pipeline is batch-oriented: one binary in, Tables
//! I–III out. This crate turns the accumulated machinery — the
//! sharded campaign engine, the content-addressed verdict cache, the
//! normalized-query solver memo, deterministic tracing, seeded fault
//! injection — into a long-lived analysis daemon, the shape a
//! production deployment actually runs.
//!
//! Three layers:
//!
//! * [`proto`] — a length-prefixed, versioned, CRC-checked frame
//!   protocol over TCP, with graceful version negotiation;
//! * [`server`] — the daemon: bounded admission queue, one executor
//!   per core feeding the `cr-campaign` pool, process-wide warm state shared
//!   across requests (verdicts, module summaries, resident parsed
//!   images, the solver memo), per-request deadlines and
//!   cancellation, `Busy{retry_after}` backpressure, graceful drain
//!   with atomic cache persistence, and `cr-chaos` fault points for
//!   connection drops, truncated frames and slow-loris peers;
//! * [`client`] — the blocking client used by `crash-resist client`,
//!   the load bench, and the integration tests.
//!
//! ## Determinism contract
//!
//! The [`crate::proto::FrameKind::Result`] frame carries the
//! campaign's deterministic document (`results_json()`) verbatim: for
//! the same spec it is byte-identical to a one-shot
//! `crash-resist campaign` run, no matter how warm the server is or
//! how many workers ran it. Everything scheduling- or cache-dependent
//! — latency, solver-call counts, parse classification, queue depth —
//! travels in Progress/Done frames, which are advisory by the same
//! rule that splits campaign metrics from campaign results.

pub mod client;
pub mod proto;
pub mod server;

pub use client::{backoff_delay_ms, Client, Pong, Response};
pub use proto::{
    Frame, FrameError, FrameKind, HEADER_LEN, MAGIC, MAX_PAYLOAD, PROTO_MIN_VERSION, PROTO_VERSION,
};
pub use server::{ServeConfig, ServeStats, Server, ServerHandle};
