//! Campaign engine acceptance tests (the cr-campaign tentpole):
//!
//! * a `--jobs 8` campaign produces **byte-identical** deterministic
//!   results to a serial run of the same spec;
//! * a warm rerun against a persisted cache is served almost entirely
//!   from the cache and never invokes the SAT solver;
//! * a run's solver and path counters count its own work only, even
//!   while another campaign runs in the same process.

use cr_campaign::prelude::*;
use cr_campaign::{run_campaign_with_cache, AnalysisCache};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

/// A mixed-family spec that touches every task kind without taking
/// minutes: three SEH modules, one server, a small funnel, one oracle.
/// The deliberate duplicate task would be rejected by the validating
/// builder, so it is appended to the built spec directly — determinism
/// must hold even for degenerate task lists.
fn mixed_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::builder()
        .name("determinism")
        .seed(2017)
        .seh("xmllite")
        .seh("jscript9")
        .server("nginx")
        .funnel(200)
        .poc("nginx")
        .build()
        .expect("valid base spec");
    spec.tasks.push(CampaignTask::SehAnalysis("xmllite".into()));
    spec
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cr-campaign-test-{tag}-{}", std::process::id()))
}

#[test]
fn sharded_campaign_is_byte_identical_to_serial() {
    let spec = mixed_spec();
    let serial = run_campaign(
        &spec,
        &EngineConfig {
            jobs: 1,
            retries: 0,
            ..EngineConfig::default()
        },
    )
    .expect("serial run");
    let sharded = run_campaign(
        &spec,
        &EngineConfig {
            jobs: 8,
            retries: 0,
            ..EngineConfig::default()
        },
    )
    .expect("sharded run");

    assert_eq!(serial.records.len(), spec.tasks.len());
    assert!(
        serial.records.iter().all(|r| r.result.is_some()),
        "all tasks succeed"
    );
    assert_eq!(serial.results_json(), sharded.results_json());
    // Scheduling metadata may differ; outcome counts must not.
    assert_eq!(serial.metrics.succeeded, sharded.metrics.succeeded);
    assert_eq!(sharded.metrics.failed, 0);
}

#[test]
fn warm_rerun_is_served_from_the_cache_without_the_solver() {
    let dir = scratch("warm");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CampaignSpec::builder()
        .name("warm")
        .seed(2017)
        .seh("xmllite")
        .seh("jscript9")
        .seh("user32")
        .build()
        .expect("warm spec is valid");
    let cfg = EngineConfig {
        jobs: 2,
        retries: 0,
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };

    let cold = run_campaign(&spec, &cfg).expect("cold run");
    assert_eq!(
        cold.metrics.cache.module_hits, 0,
        "first run cannot hit the module cache"
    );

    let warm = run_campaign(&spec, &cfg).expect("warm run");

    assert_eq!(
        warm.metrics.solver_calls, 0,
        "warm rerun skips all symbolic execution"
    );
    let s = warm.metrics.cache;
    assert!(
        s.hit_rate() >= 0.95,
        "warm rerun must be served >=95% from the cache, got {:.3} ({s:?})",
        s.hit_rate()
    );
    assert_eq!(s.module_hits, 3);
    assert_eq!(s.module_misses, 0);
    assert_eq!(
        warm.results_json(),
        cold.results_json(),
        "cache must not change results"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_tasks_are_isolated_and_reported() {
    let spec = CampaignSpec::builder()
        .name("isolation")
        .seed(2017)
        .seh("no-such-module")
        .seh("xmllite")
        .build()
        .expect("isolation spec is valid");
    let report = run_campaign(
        &spec,
        &EngineConfig {
            jobs: 2,
            retries: 1,
            ..EngineConfig::default()
        },
    )
    .expect("campaign survives task panics");
    assert_eq!(report.metrics.failed, 1);
    assert_eq!(report.metrics.succeeded, 1);
    let bad = &report.records[0];
    assert!(bad.result.is_none());
    let err = bad.error.as_ref().expect("failed task carries its error");
    assert_eq!(err.kind, TaskErrorKind::Panic, "unknown module panics");
    assert!(err.message.contains("no-such-module"));
    assert!(report.degraded, "a result-less task degrades the report");
    assert_eq!(report.errors.panic, 2, "both attempts are counted");
    assert_eq!(
        report.metrics.tasks[0].attempts, 2,
        "one retry before giving up"
    );
    assert!(
        report.records[1].result.is_some(),
        "healthy task unaffected"
    );
}

#[test]
fn concurrent_runs_count_only_their_own_work() {
    let spec = CampaignSpec::builder()
        .name("own-work")
        .seed(2017)
        .seh("loopy")
        .build()
        .expect("loopy spec is valid");
    let cfg = EngineConfig {
        jobs: 1,
        retries: 0,
        ..EngineConfig::default()
    };
    // Memo hits depend on what the memo already holds, so they are the
    // one counter left out.
    let work = |m: &CampaignMetrics| {
        (
            m.solver_calls,
            m.solver_memo_lookups,
            m.paths_completed,
            m.paths_pruned,
        )
    };
    let solo = work(&run_campaign_with_cache(&spec, &cfg, &AnalysisCache::new()).metrics);
    assert!(solo.0 > 0 && solo.2 > 0, "a cold run solves and explores");
    let warm_cache = AnalysisCache::new();
    run_campaign_with_cache(&spec, &cfg, &warm_cache);

    // Each round, thread A runs the spec cold while thread B keeps
    // rerunning it warm until A is done. Nothing is asserted inside the
    // threads, so a failure cannot leave the other one waiting.
    const ROUNDS: usize = 3;
    let start = Barrier::new(2);
    let cold_done = AtomicUsize::new(0);
    let (cold, warm) = std::thread::scope(|s| {
        let cold = s.spawn(|| {
            (0..ROUNDS)
                .map(|_| {
                    start.wait();
                    let report = run_campaign_with_cache(&spec, &cfg, &AnalysisCache::new());
                    cold_done.fetch_add(1, Ordering::SeqCst);
                    work(&report.metrics)
                })
                .collect::<Vec<_>>()
        });
        let warm = s.spawn(|| {
            let mut runs = Vec::new();
            for round in 0..ROUNDS {
                start.wait();
                loop {
                    let m = run_campaign_with_cache(&spec, &cfg, &warm_cache).metrics;
                    runs.push((m.solver_calls, m.paths_completed));
                    if cold_done.load(Ordering::SeqCst) > round {
                        break;
                    }
                }
            }
            runs
        });
        (cold.join().unwrap(), warm.join().unwrap())
    });
    for (i, c) in cold.iter().enumerate() {
        assert_eq!(*c, solo, "cold run {i} counted other work than a solo run");
    }
    assert!(warm.len() >= ROUNDS);
    for (i, w) in warm.iter().enumerate() {
        assert_eq!(*w, (0, 0), "warm run {i} counted the cold run's work");
    }
}
