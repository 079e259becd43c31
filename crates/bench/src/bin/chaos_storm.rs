//! Chaos storm: the smoke campaign under every built-in fault plan,
//! serial and sharded, as machine-readable JSON.
//!
//! For each plan this runs the campaign at `jobs = 1` and
//! `jobs = CHAOS_JOBS` (default 8) and asserts the chaos layer's core
//! invariants while it measures:
//!
//! * the deterministic report halves are **byte-identical** across
//!   worker counts — fault injection is keyed on task identity, not
//!   scheduling;
//! * per-class error counts equal the simulated expectation for the
//!   injected faults;
//! * with one retry, every built-in plan recovers: `degraded` stays
//!   `false`.

use cr_campaign::{expected_error_counts, run_campaign, CampaignSpec, EngineConfig};
use cr_chaos::{FaultInjector, FaultPlan, Site, BUILTIN_PLANS};
use serde::Serialize;
use std::sync::Arc;

#[derive(serde::Serialize)]
struct PlanStats {
    plan: String,
    serial_wall_us: u64,
    sharded_wall_us: u64,
    faults_fired: u64,
    errors: cr_campaign::ErrorCounts,
    backoff_ms: u64,
    degraded: bool,
    deterministic: bool,
    accounted: bool,
}

#[derive(serde::Serialize)]
struct StormReport {
    tasks: usize,
    jobs: usize,
    plans: Vec<PlanStats>,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    print!(
        "{}",
        cr_core::report::banner("chaos storm — smoke campaign under every built-in fault plan")
    );
    let jobs = env_usize("CHAOS_JOBS", 8);
    let spec = CampaignSpec::smoke(2017);

    let mut plans = Vec::new();
    for name in BUILTIN_PLANS {
        let plan = FaultPlan::builtin(name).expect("built-in plan");
        let run = |jobs: usize| {
            let injector = Arc::new(FaultInjector::new(plan.clone()));
            let cfg = EngineConfig {
                jobs,
                injector: Some(injector.clone()),
                ..EngineConfig::default()
            };
            let report = run_campaign(&spec, &cfg).expect("in-memory campaign");
            (report, injector, cfg)
        };

        eprintln!("[chaos_storm] plan {name} ...");
        let (serial, _, serial_cfg) = run(1);
        let (sharded, inj, _) = run(jobs);

        let expected = expected_error_counts(&spec, &serial_cfg);
        let deterministic = serial.results_json() == sharded.results_json();
        let accounted = serial.errors == expected && sharded.errors == expected;
        let stats = PlanStats {
            plan: name.to_string(),
            serial_wall_us: serial.metrics.total_wall_us,
            sharded_wall_us: sharded.metrics.total_wall_us,
            faults_fired: Site::ALL.iter().map(|&s| inj.fired_count(s)).sum(),
            errors: serial.errors,
            backoff_ms: serial.metrics.backoff_ms,
            degraded: serial.degraded || sharded.degraded,
            deterministic,
            accounted,
        };
        assert!(deterministic, "plan {name}: reports differ across jobs");
        assert!(
            accounted,
            "plan {name}: error counts do not match simulation"
        );
        assert!(
            !stats.degraded,
            "plan {name}: a retry must recover every task"
        );
        plans.push(stats);
    }

    let report = StormReport {
        tasks: spec.tasks.len(),
        jobs,
        plans,
    };
    println!("{}", report.to_json());
}
