//! Campaign scaling bench: serial vs sharded wall time, cold vs warm
//! content-addressed cache, as machine-readable JSON.
//!
//! Three runs over the same SEH campaign (a slice of the §V-C module
//! population, `CAMPAIGN_MODULES` wide, default 24):
//!
//! 1. **serial cold** — `jobs = 1`, fresh cache directory;
//! 2. **sharded cold** — `jobs = CAMPAIGN_JOBS` (default 8), another
//!    fresh cache directory;
//! 3. **sharded warm** — same jobs, rerun against run 2's cache;
//! 4. **sharded cold, traced** — run 2 again under an active cr-trace
//!    session, to price the observability spine. Because a single cold
//!    run's wall time is scheduling-noise-dominated at the default
//!    workload, the `trace_overhead` ratio compares best-of-N wall
//!    times from `CAMPAIGN_PRICE_ROUNDS` (default 3) alternating
//!    untraced/traced cold pairs; expect it near 1.0 (within ~5%) on a
//!    quiet machine.
//!
//! Asserts the paper-level invariants while it measures: serial,
//! sharded, and traced runs must produce byte-identical deterministic
//! reports, and the warm rerun must not invoke the SAT solver at all.

use cr_campaign::{run_campaign, CampaignSpec, CampaignTask, EngineConfig};
use serde::Serialize;
use std::path::PathBuf;

#[derive(serde::Serialize)]
struct RunStats {
    wall_us: u64,
    filter_hits: u64,
    filter_misses: u64,
    module_hits: u64,
    module_misses: u64,
    hit_rate: f64,
    solver_calls: u64,
}

#[derive(serde::Serialize)]
struct ScaleReport {
    modules: usize,
    jobs: usize,
    serial_cold: RunStats,
    sharded_cold: RunStats,
    sharded_warm: RunStats,
    sharded_cold_traced: RunStats,
    trace_events: usize,
    trace_dropped: u64,
    /// Traced / untraced best-of-N sharded-cold wall ratio (1.0 = free).
    trace_overhead: f64,
    /// How many untraced/traced cold pairs fed `trace_overhead`.
    price_rounds: usize,
    sharded_speedup: f64,
    warm_speedup: f64,
    deterministic: bool,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    cr_bench::banner("campaign scaling — serial vs sharded, cold vs warm cache");
    let modules = env_usize("CAMPAIGN_MODULES", 24);
    let jobs = env_usize("CAMPAIGN_JOBS", 8);
    let price_rounds = env_usize("CAMPAIGN_PRICE_ROUNDS", 3).max(1);

    let specs = cr_targets::browsers::full_population_specs();
    let tasks: Vec<CampaignTask> = specs
        .iter()
        .take(modules)
        .map(|s| CampaignTask::SehAnalysis(s.name.clone()))
        .collect();
    let spec = CampaignSpec::builder()
        .name("campaign-scale")
        .seed(2017)
        .tasks(tasks)
        .build()
        .expect("scale spec is valid");

    let scratch = std::env::temp_dir().join(format!("cr-campaign-scale-{}", std::process::id()));
    let serial_dir = scratch.join("serial");
    let sharded_dir = scratch.join("sharded");

    let run = |jobs: usize, dir: PathBuf| {
        let report = run_campaign(
            &spec,
            &EngineConfig {
                jobs,
                retries: 0,
                cache_dir: Some(dir),
                ..EngineConfig::default()
            },
        )
        .expect("campaign cache I/O");
        (report.metrics.clone(), report.results_json())
    };

    eprintln!("[campaign_scale] serial cold ({modules} modules) ...");
    let (serial_m, serial_results) = run(1, serial_dir);
    eprintln!("[campaign_scale] sharded cold (jobs={jobs}) ...");
    let (cold_m, cold_results) = run(jobs, sharded_dir.clone());
    eprintln!("[campaign_scale] sharded warm ...");
    let (warm_m, warm_results) = run(jobs, sharded_dir);

    // Price the tracing spine. One cold run's wall time swings far more
    // than the spine costs, so run paired cold runs — flipping which of
    // untraced/traced goes first each round to cancel in-pair ordering
    // drift — and compare the best (minimum) wall on each side, the
    // standard noise-resistant estimator for a near-zero overhead.
    eprintln!("[campaign_scale] pricing the trace spine ({price_rounds} cold pair(s)) ...");
    let mut untraced_best = cold_m.total_wall_us;
    let mut traced_best = u64::MAX;
    let mut traced_first = None;
    let run_traced = |round: usize, traced_best: &mut u64, traced_first: &mut Option<_>| {
        cr_trace::start();
        let (m, results) = run(jobs, scratch.join(format!("price-traced-{round}")));
        let trace = cr_trace::finish();
        *traced_best = (*traced_best).min(m.total_wall_us);
        if traced_first.is_none() {
            *traced_first = Some((m, results, trace));
        }
    };
    for round in 0..price_rounds {
        if round % 2 == 0 {
            let (m, _) = run(jobs, scratch.join(format!("price-untraced-{round}")));
            untraced_best = untraced_best.min(m.total_wall_us);
            run_traced(round, &mut traced_best, &mut traced_first);
        } else {
            run_traced(round, &mut traced_best, &mut traced_first);
            let (m, _) = run(jobs, scratch.join(format!("price-untraced-{round}")));
            untraced_best = untraced_best.min(m.total_wall_us);
        }
    }
    let (traced_m, traced_results, trace) = traced_first.expect("at least one traced round ran");

    let stats = |m: &cr_campaign::CampaignMetrics| RunStats {
        wall_us: m.total_wall_us,
        filter_hits: m.cache.filter_hits,
        filter_misses: m.cache.filter_misses,
        module_hits: m.cache.module_hits,
        module_misses: m.cache.module_misses,
        hit_rate: m.cache.hit_rate(),
        solver_calls: m.solver_calls,
    };
    let deterministic = serial_results == cold_results
        && cold_results == warm_results
        && cold_results == traced_results;
    let report = ScaleReport {
        modules,
        jobs,
        serial_cold: stats(&serial_m),
        sharded_cold: stats(&cold_m),
        sharded_warm: stats(&warm_m),
        sharded_cold_traced: stats(&traced_m),
        trace_events: trace.events.len(),
        trace_dropped: trace.dropped,
        trace_overhead: traced_best as f64 / untraced_best.max(1) as f64,
        price_rounds,
        sharded_speedup: serial_m.total_wall_us as f64 / cold_m.total_wall_us.max(1) as f64,
        warm_speedup: cold_m.total_wall_us as f64 / warm_m.total_wall_us.max(1) as f64,
        deterministic,
    };
    println!("{}", report.to_json());

    let _ = std::fs::remove_dir_all(&scratch);
    assert!(
        deterministic,
        "serial, sharded, and traced reports must be byte-identical"
    );
    assert_eq!(
        warm_m.solver_calls, 0,
        "warm rerun must not touch the SAT solver"
    );
    assert!(
        !trace.events.is_empty(),
        "the traced run must produce events"
    );
}
