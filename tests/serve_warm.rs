//! Serve-layer warm-state acceptance:
//!
//! Two identical requests over one connection. The second must be
//! served entirely from the process-wide warm state — zero solver
//! calls, zero re-parses — and both results must be byte-identical to
//! a one-shot `campaign` run of the same spec.
//!
//! Two connections interleaving warm lookups with a compute: every
//! `Done` reports only its own request's work, and with two or more
//! cores a lookup does not wait for the compute.

use cr_campaign::{run_campaign, CampaignSpec, CampaignSpecBuilder, EngineConfig};
use cr_serve::{Client, Response, ServeConfig, Server};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn warm_spec() -> CampaignSpec {
    CampaignSpec::builder()
        .name("serve-warm")
        .seed(2017)
        .seh("xmllite")
        .seh("jscript9")
        .poc("ie")
        .build()
        .expect("warm spec is valid")
}

#[test]
fn second_request_is_served_from_warm_state_byte_identical() {
    let spec = warm_spec();

    // The reference: a one-shot batch campaign, no serve layer at all.
    let oneshot = run_campaign(&spec, &EngineConfig::default()).expect("one-shot run");
    assert!(!oneshot.degraded, "reference run must be healthy");
    let reference = oneshot.results_json();

    let server = Server::bind(ServeConfig::default()).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("clean drain"));

    let mut client = Client::connect(&addr).expect("connect");
    let payload = {
        use serde::Serialize;
        spec.to_json()
    };

    // Cold request: the server's cache is fresh, so the image is
    // generated and parsed ("fresh") and the module summaries are
    // computed from scratch.
    let cold = client.request(&payload).expect("cold request");
    assert!(cold.completed(), "cold error={:?}", cold.error);
    assert_eq!(cold.done_str("status").as_deref(), Some("ok"));
    assert_eq!(cold.done_str("parse").as_deref(), Some("fresh"));
    assert_eq!(
        cold.result.as_deref(),
        Some(reference.as_bytes()),
        "cold serve result must be byte-identical to the one-shot run"
    );

    // Warm request, same connection: resident parsed image, module
    // summaries, verdicts — zero parsing, zero solver work.
    let warm = client.request(&payload).expect("warm request");
    assert!(warm.completed(), "warm error={:?}", warm.error);
    assert_eq!(warm.done_str("status").as_deref(), Some("ok"));
    assert_eq!(
        warm.done_u64("solver_calls"),
        Some(0),
        "warm request must never reach the solver (done={:?})",
        warm.done
    );
    assert_eq!(
        warm.done_str("parse").as_deref(),
        Some("cached"),
        "warm request must reuse the resident parsed image"
    );
    assert!(
        warm.done_u64("module_hits").unwrap_or(0) >= 2,
        "both SEH modules served from the summary cache (done={:?})",
        warm.done
    );
    assert_eq!(
        warm.result.as_deref(),
        Some(reference.as_bytes()),
        "warm state must not change a single byte of the results"
    );

    client.shutdown().expect("shutdown ack");
    let stats = runner.join().expect("server thread");
    assert_eq!(stats.requests_completed, 2);
    assert_eq!(stats.requests_cancelled, 0);
    for ((_, _), n) in handle.execution_counts() {
        assert_eq!(n, 1, "every request executed exactly once");
    }
    assert_eq!(stats.exec_violations, 0);
    assert_eq!(
        stats.exec_retired + handle.execution_counts().len() as u64,
        2,
        "both executions accounted for, live or retired"
    );
}

/// The `Done` fields a request's own work determines: solver calls,
/// the three cache-hit counts and the parse class.
fn own_work(r: &Response) -> (Vec<Option<u64>>, Option<String>) {
    let counts = ["solver_calls", "filter_hits", "module_hits", "image_hits"]
        .iter()
        .map(|k| r.done_u64(k))
        .collect();
    (counts, r.done_str("parse"))
}

fn single(name: &str, build: impl FnOnce(CampaignSpecBuilder) -> CampaignSpecBuilder) -> String {
    use serde::Serialize;
    build(CampaignSpec::builder().name(name).seed(2017))
        .build()
        .expect("valid spec")
        .to_json()
}

#[test]
fn concurrent_requests_report_only_their_own_work() {
    let lookups = [
        single("warm-seh-xmllite", |b| b.seh("xmllite")),
        single("warm-seh-jscript9", |b| b.seh("jscript9")),
        single("warm-scan-nginx", |b| b.scan("nginx")),
        single("warm-scan-vsftpd", |b| b.scan("vsftpd")),
    ];
    // Work no cache holds, long enough that a lookup fits inside it.
    let compute = single("compute", |b| b.funnel(2_000).poc("ie").server("nginx"));
    let every: Vec<&String> = lookups.iter().chain([&compute]).collect();

    let oneshot: HashMap<&String, String> = every
        .iter()
        .map(|&payload| {
            let spec = CampaignSpec::from_json(payload).expect("spec parses");
            let report = run_campaign(&spec, &EngineConfig::default()).expect("one-shot run");
            (payload, report.results_json())
        })
        .collect();

    let server = Server::bind(ServeConfig::default()).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("clean drain"));

    // Warm every table, then record each request's Done when it runs
    // alone: the numbers it must report under concurrency too.
    let mut solo_client = Client::connect(&addr).expect("connect");
    for payload in &every {
        assert!(solo_client.request(payload).expect("warm-up").completed());
    }
    let solo: HashMap<&String, _> = every
        .iter()
        .map(|&payload| {
            let r = solo_client.request(payload).expect("solo request");
            assert!(r.completed(), "solo error={:?}", r.error);
            (payload, own_work(&r))
        })
        .collect();
    for payload in &lookups {
        let (counts, parse) = &solo[payload];
        assert_eq!(counts[0], Some(0), "a warm lookup never reaches the solver");
        let want = if payload.contains("Seh") {
            "cached"
        } else {
            "none"
        };
        assert_eq!(parse.as_deref(), Some(want));
    }

    // Two connections: one sends the compute and then every lookup,
    // the other waits for the compute to start and then sends lookups
    // while it runs.
    let started = std::sync::mpsc::channel::<()>();
    let compute_back = AtomicBool::new(false);
    let (mut a, mut b) = (
        Client::connect(&addr).expect("connect"),
        Client::connect(&addr).expect("connect"),
    );
    let (answers_a, answers_b, overlapped) = std::thread::scope(|s| {
        let (tx, rx) = started;
        let (lookups, compute, compute_back) = (&lookups, &compute, &compute_back);
        let conn_a = s.spawn(move || {
            let first = a
                .request_with_hook(compute, move || tx.send(()).expect("signal"))
                .expect("compute");
            compute_back.store(true, Ordering::SeqCst);
            let mut answers = vec![(compute, first)];
            for payload in lookups {
                answers.push((payload, a.request(payload).expect("lookup")));
            }
            answers
        });
        let conn_b = s.spawn(move || {
            rx.recv().expect("compute sent");
            let deadline = Instant::now() + Duration::from_secs(30);
            while !b.ping().expect("ping").executing {
                assert!(Instant::now() < deadline, "the compute never started");
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut answers = Vec::new();
            let mut overlapped = false;
            for round in 0..3 {
                for payload in lookups.iter().rev() {
                    answers.push((payload, b.request(payload).expect("lookup")));
                    if round == 0 && answers.len() == 1 {
                        // Still executing, and the compute's answer has
                        // not come back: the lookup finished inside it.
                        let pong = b.ping().expect("ping");
                        overlapped = pong.executing && !compute_back.load(Ordering::SeqCst);
                    }
                }
            }
            (answers, overlapped)
        });
        let (answers_b, overlapped) = conn_b.join().expect("connection b");
        (conn_a.join().expect("connection a"), answers_b, overlapped)
    });

    for (payload, r) in answers_a.iter().chain(&answers_b) {
        assert!(r.completed(), "error={:?} busy={:?}", r.error, r.busy);
        assert_eq!(
            r.result.as_deref(),
            Some(oneshot[payload].as_bytes()),
            "served result must equal the one-shot bytes"
        );
        assert_eq!(
            own_work(r),
            solo[payload],
            "a Done reports its own request's work (done={:?})",
            r.done
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        assert!(
            overlapped,
            "with {cores} cores a warm lookup must finish while the compute runs"
        );
    }

    solo_client.shutdown().expect("shutdown ack");
    let stats = runner.join().expect("server thread");
    assert_eq!(stats.exec_violations, 0);
    assert_eq!(stats.requests_cancelled, 0);
    for ((_, _), n) in handle.execution_counts() {
        assert_eq!(n, 1, "every request executed exactly once");
    }
}
