//! Serve-layer load bench: cold-vs-warm request cost and concurrent
//! client throughput against an in-process resident server, as
//! machine-readable JSON written to `BENCH_serve.json`.
//!
//! One server, `SERVE_LOAD_CLIENTS` concurrent client connections
//! (default 8, the acceptance floor), `SERVE_LOAD_REQUESTS` requests
//! each (default 4). The first request is the cold one — it populates
//! the process-wide warm state (resident parsed image, module
//! summaries, verdicts, solver memo) — and every subsequent request
//! measures the warm path.
//!
//! Asserts the serve determinism contract while it measures: every
//! completed request's result document must be byte-identical, warm
//! requests must never reach the solver, and no request may execute
//! more than once. Wall-time numbers are recorded, never asserted.
//!
//! A second phase scales the same warm workload across a supervised
//! fleet at 1/2/4/8 workers (`fleet` entries in the report): eight
//! distinct single-module specs spread over the consistent-hash ring,
//! hammered by the same client pool, byte-identity and exactly-once
//! delivery asserted on every repetition. Each point repeats its
//! client phase [`FLEET_REPETITIONS`] times and records the median
//! throughput, p50 and p95, so one scheduler stall cannot decide a
//! point. Monotonic throughput scaling across worker counts is a
//! *soft* invariant: recorded as `fleet_monotonic` and warned about,
//! never asserted (timing stays out of CI pass/fail). Set
//! `SERVE_LOAD_FLEET=0` to skip.

use cr_fleet::{Fleet, FleetConfig};
use cr_serve::{Client, ServeConfig, Server};
use serde::Serialize;
use std::sync::Barrier;
use std::time::Instant;

#[derive(serde::Serialize)]
struct ServeLoadReport {
    clients: usize,
    requests_per_client: usize,
    total_requests: usize,
    cold_us: u64,
    /// One warm request with no concurrent load: the pure cache win.
    warm_solo_us: u64,
    /// Client-observed warm latencies under full concurrency —
    /// queueing delay included, which is the point of a load bench.
    warm_p50_us: u64,
    warm_p95_us: u64,
    warm_max_us: u64,
    /// Completed warm requests per second across all clients.
    throughput_rps: f64,
    /// Wall time of the concurrent warm phase.
    warm_phase_us: u64,
    /// Cold latency over solo warm latency: what the warm state buys.
    cold_vs_warm: f64,
    busy_rejections: u64,
    requests_completed: u64,
    frames_sent: u64,
    solver_calls_warm: u64,
    deterministic: bool,
    /// Fleet scaling points (1/2/4/8 workers over the warm workload);
    /// empty when the fleet phase is skipped.
    fleet: Vec<FleetScalePoint>,
    /// Soft invariant: fleet throughput never dropped more than 10%
    /// when workers were added (warned, never asserted — timing).
    fleet_monotonic: bool,
}

/// Client phases timed per fleet point.
const FLEET_REPETITIONS: usize = 25;

/// One fleet worker-count measurement.
#[derive(serde::Serialize)]
struct FleetScalePoint {
    workers: usize,
    /// Client phases timed ([`FLEET_REPETITIONS`]).
    repetitions: usize,
    /// Requests over every repetition.
    total_requests: usize,
    /// Median over repetitions of completed warm requests per second
    /// across all clients.
    throughput_rps: f64,
    /// Median over repetitions of each phase's latency percentile.
    p50_us: u64,
    p95_us: u64,
    /// Requests that coalesced onto an in-flight identical admission.
    coalesced: u64,
    /// Dispatch attempts that failed over mid-measurement (healthy
    /// runs should show 0).
    failovers: u64,
    /// Workers killed by the supervisor mid-measurement.
    kills: u64,
    /// Worker restarts mid-measurement.
    restarts: u64,
    /// Every result byte-identical to its one-shot reference.
    deterministic: bool,
    /// Delivery ledger held exactly one Result per request.
    exactly_once: bool,
}

/// Eight distinct single-module SEH specs: distinct consistent-hash
/// route keys, so the mix spreads across every ring size measured.
fn fleet_specs() -> Vec<String> {
    cr_targets::browsers::CALIBRATION
        .iter()
        .take(8)
        .map(|c| {
            format!(
                r#"{{"name":"fleet-load-{0}","seed":2017,"tasks":[{{"SehAnalysis":"{0}"}}]}}"#,
                c.name
            )
        })
        .collect()
}

/// One fleet scaling point: start a `workers`-node fleet, warm every
/// spec once, then drive the client pool over the spec mix
/// [`FLEET_REPETITIONS`] times.
fn fleet_point(
    workers: usize,
    clients: usize,
    requests_per_client: usize,
    specs: &[String],
    references: &[Vec<u8>],
) -> FleetScalePoint {
    let fleet = Fleet::start(FleetConfig {
        workers,
        admit_capacity: clients * 4,
        ..FleetConfig::default()
    })
    .expect("fleet starts");
    let addr = fleet.addr().to_string();

    // Warm-up: every spec once, so the ring owner of each spec is
    // warm before the clock starts.
    for (spec, reference) in specs.iter().zip(references) {
        let mut client = Client::connect(&addr).expect("warm-up connect");
        let response = client
            .request_with_retry(spec, 50)
            .expect("warm-up request");
        assert!(response.completed(), "warm-up error={:?}", response.error);
        assert_eq!(response.result.as_deref(), Some(reference.as_slice()));
    }

    let mut throughputs = Vec::with_capacity(FLEET_REPETITIONS);
    let mut p50s = Vec::with_capacity(FLEET_REPETITIONS);
    let mut p95s = Vec::with_capacity(FLEET_REPETITIONS);
    let mut total_requests = 0;
    let mut deterministic = true;
    let mut exactly_once = true;
    for _ in 0..FLEET_REPETITIONS {
        let (latencies, phase_us, identical) =
            fleet_phase(&addr, clients, requests_per_client, specs, references);
        total_requests += latencies.len();
        throughputs.push(latencies.len() as f64 / (phase_us.max(1) as f64 / 1e6));
        p50s.push(percentile(&latencies, 0.50));
        p95s.push(percentile(&latencies, 0.95));
        deterministic &= identical;
        exactly_once &= fleet
            .delivery_counts()
            .iter()
            .all(|&(_, deliveries)| deliveries == 1)
            && fleet.stats().ledger_violations == 0;
    }
    let stats = fleet.join();
    exactly_once &= stats.ledger_violations == 0;
    throughputs.sort_by(f64::total_cmp);
    p50s.sort_unstable();
    p95s.sort_unstable();
    FleetScalePoint {
        workers,
        repetitions: FLEET_REPETITIONS,
        total_requests,
        throughput_rps: throughputs[FLEET_REPETITIONS / 2],
        p50_us: p50s[FLEET_REPETITIONS / 2],
        p95_us: p95s[FLEET_REPETITIONS / 2],
        coalesced: stats.coalesced,
        failovers: stats.failovers,
        kills: stats.kills,
        restarts: stats.restarts,
        deterministic,
        exactly_once,
    }
}

/// One timed client phase against a fleet front: `(sorted latencies
/// in µs, phase wall µs, every result byte-identical)`.
fn fleet_phase(
    addr: &str,
    clients: usize,
    requests_per_client: usize,
    specs: &[String],
    references: &[Vec<u8>],
) -> (Vec<u64>, u64, bool) {
    // Every client connects before the clock starts: a connect waits
    // on the front's accept poll, which would otherwise dominate a
    // phase of a few milliseconds.
    let ready = Barrier::new(clients + 1);
    let (results, phase_us): (Vec<(Vec<u64>, bool)>, u64) = std::thread::scope(|s| {
        let ready = &ready;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("fleet connect");
                    ready.wait();
                    let mut latencies = Vec::with_capacity(requests_per_client);
                    let mut identical = true;
                    for r in 0..requests_per_client {
                        let n = (c + r) % specs.len();
                        let started = Instant::now();
                        let response = client
                            .request_with_retry(&specs[n], 50)
                            .expect("fleet request transport");
                        latencies.push(started.elapsed().as_micros() as u64);
                        assert!(
                            response.completed(),
                            "fleet request rejected: busy={:?} error={:?}",
                            response.busy,
                            response.error
                        );
                        identical &= response.result.as_deref() == Some(references[n].as_slice());
                    }
                    (latencies, identical)
                })
            })
            .collect();
        ready.wait();
        let phase_started = Instant::now();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("fleet client thread"))
            .collect();
        (results, phase_started.elapsed().as_micros() as u64)
    });

    let mut latencies: Vec<u64> = Vec::new();
    let mut deterministic = true;
    for (lat, identical) in results {
        latencies.extend(lat);
        deterministic &= identical;
    }
    latencies.sort_unstable();
    (latencies, phase_us, deterministic)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

// Two SEH modules: the fully cacheable workload, so the warm path
// exercises exactly the resident-image + summary + verdict caches.
const SPEC: &str = r#"{"name":"serve-load","seed":2017,"tasks":[{"SehAnalysis":"xmllite"},{"SehAnalysis":"jscript9"}]}"#;

fn main() {
    print!(
        "{}",
        cr_core::report::banner("serve load — cold vs warm latency, concurrent client throughput")
    );
    let clients = env_usize("SERVE_LOAD_CLIENTS", 8);
    let requests_per_client = env_usize("SERVE_LOAD_REQUESTS", 4);
    let out_path = std::env::var("SERVE_LOAD_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());

    let server = Server::bind(ServeConfig {
        // Deep enough that backpressure is visible but not dominant.
        admit_capacity: clients * 2,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("clean drain"));

    // Cold request: populates every layer of the warm state.
    eprintln!("[serve_load] cold request ...");
    let mut warmup = Client::connect(&addr).expect("connect");
    let started = Instant::now();
    let cold = warmup.request(SPEC).expect("cold request");
    let cold_us = started.elapsed().as_micros() as u64;
    assert!(cold.completed(), "cold error={:?}", cold.error);
    let reference = cold.result.clone().expect("cold result document");

    // Warm phase: `clients` threads hammering the same spec.
    eprintln!(
        "[serve_load] warm phase: {clients} client(s) x {requests_per_client} request(s) ..."
    );
    let phase_started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("warm connect");
                let mut latencies = Vec::with_capacity(requests_per_client);
                let mut identical = true;
                let mut solver_calls = 0;
                for _ in 0..requests_per_client {
                    let started = Instant::now();
                    let response = client
                        .request_with_retry(SPEC, 50)
                        .expect("warm request transport");
                    latencies.push(started.elapsed().as_micros() as u64);
                    assert!(
                        response.completed(),
                        "warm request rejected: busy={:?} error={:?}",
                        response.busy,
                        response.error
                    );
                    identical &= response.result.as_deref() == Some(reference.as_slice());
                    solver_calls += response
                        .done_u64("solver_calls")
                        .expect("Done frame carries solver_calls");
                }
                (latencies, identical, solver_calls)
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    let mut deterministic = true;
    let mut solver_calls_warm = 0;
    for w in workers {
        let (lat, identical, solver_calls) = w.join().expect("client thread");
        latencies.extend(lat);
        deterministic &= identical;
        solver_calls_warm += solver_calls;
    }
    let warm_phase_us = phase_started.elapsed().as_micros() as u64;

    // One more warm request with the server otherwise idle: the pure
    // per-request warm cost, no queueing delay.
    let started = Instant::now();
    let solo = warmup.request(SPEC).expect("solo warm request");
    let warm_solo_us = started.elapsed().as_micros() as u64;
    assert!(solo.completed(), "solo error={:?}", solo.error);
    deterministic &= solo.result.as_deref() == Some(reference.as_slice());

    for ((conn, req), n) in handle.execution_counts() {
        assert_eq!(n, 1, "request ({conn},{req}) executed {n} times");
    }

    // Drain and collect lifetime stats.
    let mut closer = Client::connect(&addr).expect("closer connect");
    closer.shutdown().expect("shutdown ack");
    let stats = runner.join().expect("server thread");
    assert_eq!(
        stats.exec_violations, 0,
        "retired execution-ledger entries must each be exactly one"
    );

    // Fleet scaling phase: the same warm workload behind 1/2/4/8
    // supervised workers.
    let fleet_points = if env_usize("SERVE_LOAD_FLEET", 1) != 0 {
        let specs = fleet_specs();
        eprintln!(
            "[serve_load] fleet phase: computing {} one-shot references ...",
            specs.len()
        );
        let references: Vec<Vec<u8>> = specs
            .iter()
            .map(|spec| {
                let parsed = cr_campaign::CampaignSpec::from_json(spec).expect("fleet spec parses");
                cr_campaign::run_campaign(&parsed, &cr_campaign::EngineConfig::default())
                    .expect("fleet reference run")
                    .results_json()
                    .into_bytes()
            })
            .collect();
        [1usize, 2, 4, 8]
            .iter()
            .map(|&w| {
                eprintln!("[serve_load] fleet phase: {w} worker(s) ...");
                let point = fleet_point(w, clients, requests_per_client, &specs, &references);
                eprintln!(
                    "[serve_load]   {w} worker(s): {:.0} rps (p50 {} us)",
                    point.throughput_rps, point.p50_us
                );
                point
            })
            .collect()
    } else {
        Vec::new()
    };

    // Soft scaling invariant: adding workers should not lose
    // throughput. Timing is hardware- and load-dependent, so a
    // violation warns (and is recorded in the JSON) but never fails
    // the bench; 10% slack sheds run-to-run scheduler noise.
    let mut fleet_monotonic = true;
    for pair in fleet_points.windows(2) {
        if pair[1].throughput_rps < pair[0].throughput_rps * 0.9 {
            eprintln!(
                "[serve_load] WARN: throughput dropped {}w -> {}w ({:.0} -> {:.0} rps)",
                pair[0].workers, pair[1].workers, pair[0].throughput_rps, pair[1].throughput_rps
            );
            fleet_monotonic = false;
        }
    }

    latencies.sort_unstable();
    let total_requests = latencies.len();
    let warm_p50_us = percentile(&latencies, 0.50);
    let report = ServeLoadReport {
        clients,
        requests_per_client,
        total_requests,
        cold_us,
        warm_solo_us,
        warm_p50_us,
        warm_p95_us: percentile(&latencies, 0.95),
        warm_max_us: latencies.last().copied().unwrap_or(0),
        throughput_rps: total_requests as f64 / (warm_phase_us.max(1) as f64 / 1e6),
        warm_phase_us,
        cold_vs_warm: cold_us as f64 / warm_solo_us.max(1) as f64,
        busy_rejections: stats.busy_rejections,
        requests_completed: stats.requests_completed,
        frames_sent: stats.frames_sent,
        solver_calls_warm,
        deterministic,
        fleet: fleet_points,
        fleet_monotonic,
    };
    let json = report.to_json();
    println!("{json}");
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench report");
    eprintln!("[serve_load] wrote {out_path}");

    assert!(
        deterministic,
        "every warm result must be byte-identical to the cold one"
    );
    assert_eq!(
        solver_calls_warm, 0,
        "warm requests must never reach the solver"
    );
    assert_eq!(
        stats.requests_completed,
        (total_requests + 2) as u64,
        "every admitted request must complete ({stats:?})"
    );
    for point in &report.fleet {
        assert!(
            point.deterministic,
            "fleet results at {} worker(s) must be byte-identical",
            point.workers
        );
        assert!(
            point.exactly_once,
            "fleet delivery at {} worker(s) must be exactly-once",
            point.workers
        );
    }
}
