//! The workspace's JSON reader, re-exported from the `serde` shim,
//! which both writes and reads JSON. Trace JSONL, report envelopes and
//! every other `cr_trace::Json` use read through this one codec.

pub use serde::Json;
