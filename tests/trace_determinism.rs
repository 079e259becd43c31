//! Trace acceptance tests (the cr-trace tentpole):
//!
//! * the deterministic event sequence of a traced campaign is
//!   **byte-identical** across worker counts, fault injection
//!   included — only wall stamps may differ;
//! * tracing only observes: traced and untraced runs give
//!   byte-identical results;
//! * a trace round-trips through its JSONL form losslessly;
//! * a chaos campaign's trace covers every pipeline stage, fault
//!   events included, and `report`-style stage statistics see them.

use cr_campaign::prelude::*;
use cr_chaos::{FaultInjector, FaultPlan};
use cr_trace::{Stage, Trace};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The trace collector is process-wide (one active session); every
/// test takes this lock so the harness's parallelism can't interleave
/// sessions.
static SOLO: Mutex<()> = Mutex::new(());

fn solo() -> std::sync::MutexGuard<'static, ()> {
    SOLO.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cr-trace-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every task family plus retries and faults: the mayhem plan panics,
/// stalls, starves the solver, flips image bytes, and corrupts cache
/// records.
fn spec() -> CampaignSpec {
    CampaignSpec::builder()
        .name("trace-det")
        .seed(2017)
        .server("nginx")
        .seh("xmllite")
        .seh("jscript9")
        .funnel(200)
        .poc("ie")
        .scan("vsftpd")
        .arena("bisect")
        .build()
        .expect("trace spec is valid")
}

/// Run the spec under the mayhem fault plan against a fresh cache
/// directory (so cache spans and `cache.record` faults appear) and
/// return its deterministic results document.
fn run(jobs: usize, tag: &str) -> String {
    let dir = scratch(tag);
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::builtin("mayhem")
            .expect("builtin plan")
            .with_seed(2017),
    ));
    let report = run_campaign(
        &spec(),
        &EngineConfig {
            jobs,
            retries: 1,
            cache_dir: Some(dir.clone()),
            injector: Some(injector),
            ..EngineConfig::default()
        },
    )
    .expect("campaign cache I/O");
    let _ = std::fs::remove_dir_all(&dir);
    report.results_json()
}

/// [`run`] inside a trace session.
fn traced_run(jobs: usize, tag: &str) -> (Trace, String) {
    assert!(cr_trace::start(), "no other session may be active");
    let results = run(jobs, tag);
    (cr_trace::finish(), results)
}

#[test]
fn deterministic_events_are_byte_identical_across_jobs() {
    let _guard = solo();
    let (serial, serial_results) = traced_run(1, "serial");
    let (sharded, sharded_results) = traced_run(8, "sharded");
    assert_eq!(
        serial_results, sharded_results,
        "results stay deterministic"
    );
    assert_eq!(
        serial.deterministic_json(),
        sharded.deterministic_json(),
        "deterministic event sequence must not depend on --jobs"
    );
    assert_eq!(serial.dropped, 0, "ring capacity fits a smoke campaign");
}

/// Tracing only observes: a traced run's deterministic results are
/// byte-identical to an untraced run's.
#[test]
fn traced_and_untraced_runs_give_identical_results() {
    let _guard = solo();
    let untraced = run(2, "untraced");
    let (trace, traced) = traced_run(2, "traced");
    assert!(!trace.events.is_empty(), "the traced run must emit events");
    assert_eq!(untraced, traced, "tracing must not change results_json");
}

#[test]
fn trace_round_trips_through_jsonl() {
    let _guard = solo();
    let (trace, _) = traced_run(2, "roundtrip");
    let back = Trace::parse_jsonl(&trace.to_jsonl()).expect("own JSONL parses");
    assert_eq!(back, trace, "JSONL round-trip is lossless");
}

#[test]
fn chaos_trace_covers_every_stage_with_fault_events() {
    let _guard = solo();
    let (trace, _) = traced_run(2, "stages");
    assert_eq!(
        trace.stages(),
        Stage::ALL.to_vec(),
        "a faulted campaign exercises every pipeline stage"
    );
    let faults: Vec<&cr_trace::Event> = trace
        .events
        .iter()
        .filter(|e| e.stage == Stage::Fault)
        .collect();
    assert!(!faults.is_empty(), "mayhem must fire at least one fault");
    assert!(
        faults.iter().all(|e| e.detail.contains("kind=")),
        "fault events carry the injected kind"
    );
    let stats = trace.stage_stats();
    let sched = stats
        .iter()
        .find(|s| s.stage == Stage::Schedule)
        .expect("schedule stage present");
    assert!(sched.spans > 0, "attempt/pool spans carry durations");
    assert!(
        sched.hist.p50().is_some() && sched.hist.max() > 0,
        "stage histogram sees span durations"
    );
    // Wall stamps live only in the non-deterministic fields: stripping
    // them is exactly what the deterministic view does.
    assert!(
        !trace.deterministic_json().contains("wall_us"),
        "deterministic view carries no wall stamps"
    );
}
