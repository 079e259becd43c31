//! Fleet-layer acceptance (the cr-fleet tentpole): the supervised
//! fleet answers every admitted request with a Result frame
//! byte-identical to a one-shot campaign run, no matter which worker
//! answers, which worker dies mid-request, or whether the whole fleet
//! is rolling-restarted under load. The delivery ledger must show
//! exactly one Result per request throughout.

use cr_campaign::{run_campaign, CampaignSpec, EngineConfig};
use cr_chaos::{FaultInjector, FaultPlan};
use cr_fleet::{Fleet, FleetConfig, WorkerState};
use cr_serve::{Client, Response};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Each fleet spins up several serve workers; serialize the tests so
/// they don't compete for cores and trip heartbeat thresholds.
static SOLO: Mutex<()> = Mutex::new(());

fn solo() -> std::sync::MutexGuard<'static, ()> {
    SOLO.lock().unwrap_or_else(|e| e.into_inner())
}

/// A small spec with a distinct SEH module per index, so each request
/// has its own consistent-hash route key.
fn spec_for(n: usize) -> CampaignSpec {
    let calib = cr_targets::browsers::CALIBRATION;
    CampaignSpec::builder()
        .name(format!("fleet-{n}"))
        .seed(2017)
        .seh(calib[n % calib.len()].name)
        .build()
        .expect("fleet spec is valid")
}

fn payload_for(spec: &CampaignSpec) -> String {
    use serde::Serialize;
    spec.to_json()
}

/// One-shot reference: what every fleet answer must match, byte for
/// byte.
fn reference_for(spec: &CampaignSpec) -> String {
    let report = run_campaign(spec, &EngineConfig::default()).expect("one-shot run");
    report.results_json()
}

/// Send one request over a fresh front connection and return the
/// completed response.
fn ask_response(addr: &str, payload: &str) -> Response {
    let mut client = Client::connect(addr).expect("connect to fleet front");
    let response = client
        .request_with_retry(payload, 10)
        .expect("fleet request");
    assert!(response.completed(), "error={:?}", response.error);
    assert_eq!(response.done_str("status").as_deref(), Some("ok"));
    response
}

/// Send one request over a fresh front connection and return the
/// Result document.
fn ask(addr: &str, payload: &str) -> String {
    let response = ask_response(addr, payload);
    String::from_utf8(response.result.expect("result document")).expect("UTF-8 result")
}

fn assert_exactly_once(fleet: &Fleet) {
    for ((conn, request), deliveries) in fleet.delivery_counts() {
        assert_eq!(
            deliveries, 1,
            "request {request} on front conn {conn} must get exactly one Result"
        );
    }
    // Closed connections' ledger entries are retired into counters;
    // the invariant must have held for them too.
    assert_eq!(
        fleet.stats().ledger_violations,
        0,
        "every retired ledger entry must have had exactly one Result"
    );
}

#[test]
fn fleet_answers_are_byte_identical_to_oneshot_and_coalesce() {
    let _guard = solo();
    let specs: Vec<CampaignSpec> = (0..3).map(spec_for).collect();
    let refs: Vec<String> = specs.iter().map(reference_for).collect();

    let fleet = Fleet::start(FleetConfig {
        workers: 2,
        ..FleetConfig::default()
    })
    .expect("fleet starts");
    let addr = fleet.addr().to_string();

    // Sequential distinct requests land on ring-chosen workers.
    for (spec, reference) in specs.iter().zip(&refs) {
        assert_eq!(&ask(&addr, &payload_for(spec)), reference);
    }

    // A concurrent burst of byte-identical requests: coalescing
    // candidates, each still owed its own byte-identical Result.
    let burst_payload = payload_for(&specs[0]);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| s.spawn(|| ask(&addr, &burst_payload)))
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("burst thread"), refs[0]);
        }
    });

    assert_exactly_once(&fleet);
    let stats = fleet.join();
    assert_eq!(stats.results_delivered, 6);
    assert_eq!(stats.requests_admitted, 6);
    assert_eq!(stats.kills, 0);
}

/// Routing is the fleet's only warmth mechanism: the second request
/// for a spec, even over a new front connection, must land on the
/// worker that analyzed it first and be served from its warm state.
#[test]
fn repeat_request_is_warm_on_its_ring_owner() {
    let _guard = solo();
    let fleet = Fleet::start(FleetConfig {
        workers: 2,
        ..FleetConfig::default()
    })
    .expect("fleet starts");
    let addr = fleet.addr().to_string();

    for spec in (0..3).map(spec_for) {
        let payload = payload_for(&spec);
        // Parsed images and module summaries live per worker; the
        // solver memo is process-wide, so it cannot tell workers apart.
        let cold = ask_response(&addr, &payload);
        assert_eq!(cold.done_str("parse").as_deref(), Some("fresh"));
        assert_eq!(cold.done_u64("module_hits"), Some(0));
        let warm = ask_response(&addr, &payload);
        assert_eq!(
            warm.done_u64("solver_calls"),
            Some(0),
            "{}: a repeat must reach the warm owner, done={:?}",
            spec.name,
            warm.done
        );
        assert_eq!(warm.done_str("parse").as_deref(), Some("cached"));
        assert!(
            warm.done_u64("module_hits") > Some(0),
            "done={:?}",
            warm.done
        );
        assert_eq!(
            warm.result, cold.result,
            "{}: bytes must not change",
            spec.name
        );
    }

    assert_exactly_once(&fleet);
    let stats = fleet.join();
    assert_eq!(stats.results_delivered, 6);
    assert_eq!(stats.coalesced, 0, "sequential requests never coalesce");
}

#[test]
fn node_kill_mid_request_fails_over_without_changing_a_byte() {
    let _guard = solo();
    let spec = spec_for(0);
    let reference = reference_for(&spec);

    let fleet = Fleet::start(FleetConfig {
        workers: 3,
        // Kill the serving worker right after it receives admission 1.
        kill_at_admission: Some(1),
        ..FleetConfig::default()
    })
    .expect("fleet starts");
    let addr = fleet.addr().to_string();

    // The killed admission must still complete — on a sibling — with
    // the exact reference bytes.
    assert_eq!(ask(&addr, &payload_for(&spec)), reference);
    // And the fleet keeps serving afterwards.
    assert_eq!(ask(&addr, &payload_for(&spec)), reference);

    // The supervisor notices the death and respawns the slot.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let states = fleet.worker_states();
        let all_healthy = states.iter().all(|&(_, s, _)| s == WorkerState::Healthy);
        let respawned = states.iter().any(|&(_, _, generation)| generation > 0);
        if all_healthy && respawned {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "killed worker never came back: {states:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    assert_exactly_once(&fleet);
    let stats = fleet.join();
    assert_eq!(stats.kills, 1, "exactly one injected kill");
    assert!(stats.failovers >= 1, "the kill must surface as a failover");
    assert!(stats.restarts >= 1, "the dead slot must be respawned");
    assert_eq!(stats.results_delivered, 2);
}

#[test]
fn rolling_restart_under_load_drops_nothing() {
    let _guard = solo();
    let specs: Vec<CampaignSpec> = (0..4).map(spec_for).collect();
    let refs: Vec<String> = specs.iter().map(reference_for).collect();

    let fleet = Fleet::start(FleetConfig {
        workers: 2,
        ..FleetConfig::default()
    })
    .expect("fleet starts");
    let addr = fleet.addr().to_string();

    // Warm the fleet, then rotate every worker while requests keep
    // flowing: the drain must be invisible to clients.
    assert_eq!(ask(&addr, &payload_for(&specs[0])), refs[0]);
    std::thread::scope(|s| {
        s.spawn(|| fleet.rolling_restart());
        for (spec, reference) in specs.iter().zip(&refs).cycle().take(8) {
            assert_eq!(&ask(&addr, &payload_for(spec)), reference);
        }
    });

    assert_exactly_once(&fleet);
    let stats = fleet.join();
    assert_eq!(stats.rolling_restarts, 2, "every worker rotated");
    assert_eq!(stats.results_delivered, 9);
    assert_eq!(stats.kills, 0, "rolling restarts are graceful");
}

#[test]
fn fleet_chaos_plan_preserves_every_invariant() {
    let _guard = solo();
    let specs: Vec<CampaignSpec> = (0..4).map(spec_for).collect();
    let refs: Vec<String> = specs.iter().map(reference_for).collect();

    let plan = FaultPlan::builtin("fleet")
        .expect("fleet plan exists")
        .with_seed(7);
    let fleet = Fleet::start(FleetConfig {
        workers: 3,
        injector: Some(Arc::new(FaultInjector::new(plan))),
        ..FleetConfig::default()
    })
    .expect("fleet starts");
    let addr = fleet.addr().to_string();

    // Node kills, partitions and heartbeat drops are armed; every
    // request must still complete with the reference bytes.
    for (spec, reference) in specs.iter().zip(&refs) {
        assert_eq!(&ask(&addr, &payload_for(spec)), reference);
    }

    assert_exactly_once(&fleet);
    let stats = fleet.join();
    assert_eq!(stats.results_delivered, 4);
    assert_eq!(stats.requests_admitted, 4);
}
