//! cr-trace: the crash-resist observability spine.
//!
//! A zero-cost-when-disabled structured tracing facility for the
//! campaign pipeline. Instrumented crates (`cr-image`, `cr-symex`,
//! `cr-chaos`, `cr-campaign`) call [`span`]/[`emit`] unconditionally;
//! when no session is active each call is a single relaxed atomic
//! load. When a session is active ([`start`] … [`finish`]), events
//! flow into per-thread ring buffers ([`ring::Ring`]) and drain into a
//! global session at task boundaries, yielding a [`Trace`] that can be
//! written to JSONL, merged with other traces, and summarized into
//! per-stage latency histograms ([`Histogram`]).
//!
//! ## Determinism
//!
//! Events split the same way campaign reports do: deterministic fields
//! (`run`, `task`, `attempt`, `seq`, `stage`, `name`, `detail`,
//! `virtual_ms`) are reproducible at any `--jobs` count, while wall
//! stamps (`wall_us`, `dur_us`) are explicitly non-deterministic and
//! stripped by [`Trace::deterministic_json`]. Sites whose *execution
//! count* depends on scheduling (a solver call elided because another
//! worker already cached the verdict) use [`span_advisory`] and are
//! excluded from the deterministic sequence entirely.
//!
//! ```
//! use cr_trace::{Stage, Trace};
//!
//! cr_trace::start();
//! cr_trace::begin_run("demo");
//! let outcome = cr_trace::task_scope(0, 0, || {
//!     let mut span = cr_trace::span(Stage::Parse, "pe.parse");
//!     span.set_detail(|| "bytes=4096".into());
//!     "ok"
//! });
//! assert_eq!(outcome, "ok");
//! let trace: Trace = cr_trace::finish();
//! assert_eq!(trace.events.len(), 2); // run.begin + the parse span
//! assert_eq!(trace.stages(), vec![Stage::Parse, Stage::Schedule]);
//! ```

pub mod collect;
pub mod envelope;
pub mod event;
pub mod hist;
pub mod json;
pub mod ring;
#[allow(clippy::module_inception)]
pub mod trace;

pub use collect::{
    advance_virtual, begin_run, emit, enabled, finish, flush_local, span, span_advisory, start,
    start_with_capacity, task_scope, Span, DEFAULT_RING_CAPACITY,
};
pub use envelope::{
    envelope_prefix, ReportEnvelope, ReportEnvelopeBuilder, ReportKind, SCHEMA_VERSION,
};
pub use event::{Event, Stage};
pub use hist::{bucket_index, bucket_upper_bound, Histogram, BUCKETS};
pub use json::Json;
pub use ring::Ring;
pub use trace::{StageStats, Trace, TRACE_SCHEMA_VERSION};
