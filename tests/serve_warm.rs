//! Serve-layer warm-state acceptance (the cr-serve tentpole):
//!
//! Two identical requests over one connection. The second must be
//! served entirely from the process-wide warm state — zero solver
//! calls, zero re-parses — and both results must be byte-identical to
//! a one-shot `campaign` run of the same spec.

use cr_campaign::{run_campaign, CampaignSpec, EngineConfig};
use cr_serve::{Client, ServeConfig, Server};

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
