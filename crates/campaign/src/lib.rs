//! # cr-campaign — sharded discovery campaigns
//!
//! The paper's evaluation is a *campaign*: the same analyses repeated
//! over many independent targets — five servers (Table I), 187 system
//! modules (§V-C), an API-funnel run (§V-B) and the §VI PoC oracles.
//! This crate turns that into an engine:
//!
//! * [`spec::CampaignSpec`] — a serializable enumeration of tasks;
//! * [`pool`] — a work-stealing worker pool (`--jobs N`) with per-task
//!   panic isolation, virtual-time deadlines, and seeded retry
//!   backoff (fresh seed per attempt);
//! * [`error`] — the structured failure taxonomy
//!   ([`error::TaskErrorKind`]) every failed attempt is classified
//!   into, aggregated per class in the report;
//! * [`cache::AnalysisCache`] — a content-addressed cache: filter
//!   verdicts keyed by the hash of the filter's code bytes, module
//!   analyses by the image hash, static-scan summaries by the ELF
//!   hash, arena strategy rows by their full configuration, persisted
//!   as CRC-framed JSONL
//!   (corrupt lines are quarantined, saves are atomic) so a warm
//!   rerun skips all symbolic execution and probing simulation;
//! * [`engine::run_campaign`] — fan-out, re-ordering and metrics,
//!   optionally under a [`cr_chaos::FaultInjector`]. The
//!   deterministic half of the report
//!   ([`engine::CampaignReport::results_json`]) is byte-identical
//!   across worker counts, fault plans included.
//!
//! # Examples
//!
//! ```
//! use cr_campaign::prelude::*;
//!
//! let spec = CampaignSpec::builder()
//!     .name("doc")
//!     .seh("xmllite")
//!     .build()
//!     .expect("one task, non-empty name");
//! let report = run_campaign(&spec, &EngineConfig::default())?;
//! assert_eq!(report.records.len(), 1);
//! assert!(report.records[0].result.is_some());
//! let envelope = report.to_report();
//! assert!(envelope.to_json().starts_with("{\"schema_version\":1,\"kind\":\"campaign\""));
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod builder;
pub mod cache;
pub mod engine;
pub mod error;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod prelude;
pub mod report;
pub mod spec;

pub use builder::{CampaignSpecBuilder, SpecError};
pub use cache::{
    crc32, tally_lookups, AnalysisCache, CacheCounts, ImageArtifact, ScanSummary, SehSummary,
    SharedVerdictCache, CACHE_FILE, QUARANTINE_FILE,
};
pub use engine::{
    expected_error_counts, run_campaign, run_campaign_with_cache, CampaignReport, EngineConfig,
    TaskRecord, TaskResult,
};
pub use error::{ErrorCounts, TaskError, TaskErrorKind};
pub use metrics::{CampaignMetrics, TaskMetrics};
pub use pool::{run_pool, PoolConfig, TaskCtx, TaskExecution, DEFAULT_DEADLINE_MS};
pub use report::{Report, ReportKind, SCHEMA_VERSION};
pub use spec::{CampaignSpec, CampaignTask, TaskKind, DEFAULT_SEED};
