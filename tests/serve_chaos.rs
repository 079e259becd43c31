//! Serve-layer chaos invariants: the `wire` fault plan (connection
//! drops, truncated response frames, slow-loris stalls) and hand-made
//! protocol garbage must never double-execute a request or wedge the
//! server — a degraded connection is the client's problem, a degraded
//! *campaign* is reported in-band via the `degraded` flag.

use cr_chaos::{FaultInjector, FaultPlan};
use cr_serve::proto::{read_frame, write_frame, Frame, FrameKind};
use cr_serve::{Client, ServeConfig, Server};
use std::net::TcpStream;
use std::sync::Arc;

const SPEC: &str = r#"{"name":"serve-chaos","seed":2017,"tasks":[{"PocScan":"ie"}]}"#;

/// A raw connection that has completed the Hello handshake by hand.
fn raw_session(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("raw connect");
    write_frame(
        &mut stream,
        &Frame::text(FrameKind::Hello, 0, cr_serve::proto::hello_payload()),
    )
    .expect("hello");
    let ack = read_frame(&mut stream).expect("hello ack");
    assert_eq!(ack.kind, FrameKind::HelloAck);
    stream
}

#[test]
fn wire_plan_never_double_executes_requests() {
    let cfg = ServeConfig {
        injector: Some(Arc::new(FaultInjector::new(
            FaultPlan::builtin("wire")
                .expect("wire is built in")
                .with_seed(2017),
        ))),
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("clean drain"));

    // Enough fresh connections to let every armed wire fault fire at
    // least its max_triggers. Transport failures (injected drops or
    // truncations) are expected; the invariant is what the *server*
    // did, not what the client saw.
    let mut completed = 0u32;
    for _ in 0..8 {
        let Ok(mut client) = Client::connect(&addr) else {
            continue; // connection dropped during the handshake
        };
        match client.request(SPEC) {
            Ok(response) if response.completed() => {
                completed += 1;
                assert_eq!(response.done_str("status").as_deref(), Some("ok"));
                // A healthy single-oracle campaign is never degraded;
                // the flag must not be polluted by wire-level faults.
                assert!(
                    !response
                        .done
                        .as_deref()
                        .unwrap_or("")
                        .contains("\"degraded\":true"),
                    "wire faults must not mark the campaign degraded"
                );
            }
            _ => {} // dropped or truncated mid-response: acceptable
        }
    }

    for ((conn, req), n) in handle.execution_counts() {
        assert_eq!(n, 1, "request ({conn},{req}) executed {n} times");
    }
    assert!(completed >= 1, "some requests must survive the wire plan");

    // The server must still be fully functional afterwards. Fresh
    // connections are still under the fault plan, so allow a few
    // attempts before requiring a clean end-to-end round trip.
    let mut post_chaos_ok = false;
    for _ in 0..10 {
        let Ok(mut client) = Client::connect(&addr) else {
            continue;
        };
        if let Ok(response) = client.request(SPEC) {
            if response.completed() {
                post_chaos_ok = true;
                if client.shutdown().is_ok() {
                    break;
                }
            }
        }
    }
    assert!(post_chaos_ok, "server must keep serving after the storm");
    handle.shutdown(); // idempotent if the Shutdown frame already landed

    let stats = runner.join().expect("server thread");
    assert!(
        stats.conns_dropped + stats.frames_truncated >= 1,
        "the wire plan must actually fire ({stats:?})"
    );
    assert_eq!(stats.requests_cancelled, 0);
    assert_eq!(
        stats.exec_violations, 0,
        "no request may execute more than once ({stats:?})"
    );
}

#[test]
fn corrupt_frames_are_rejected_without_execution() {
    let server = Server::bind(ServeConfig::default()).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("clean drain"));

    // Handshake by hand, then send a Request frame whose payload is
    // flipped after the CRC was computed.
    let mut stream = raw_session(&addr);
    let mut bytes = Frame::text(FrameKind::Request, 1, SPEC).encode();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff; // corrupt the payload under an intact CRC
    {
        use std::io::Write as _;
        stream.write_all(&bytes).expect("send corrupt frame");
    }
    let reply = read_frame(&mut stream).expect("error reply");
    assert_eq!(reply.kind, FrameKind::Error);
    assert!(
        reply.payload_str().contains("bad_frame"),
        "payload={}",
        reply.payload_str()
    );
    drop(stream);

    // A frame under a retired kind code: 14..=17 once carried a
    // cache-sync exchange and now decode as an unknown kind, a
    // protocol violation counted like any other bad frame.
    let bad_before = handle.stats().bad_frames;
    let mut stream = raw_session(&addr);
    let mut bytes = Frame::text(FrameKind::Ping, 2, "{}").encode();
    bytes[6] = 14;
    {
        use std::io::Write as _;
        stream.write_all(&bytes).expect("send retired-kind frame");
    }
    let reply = read_frame(&mut stream).expect("error reply");
    assert_eq!(reply.kind, FrameKind::Error);
    assert!(
        reply.payload_str().contains("bad_frame") && reply.payload_str().contains("kind 14"),
        "payload={}",
        reply.payload_str()
    );
    assert_eq!(handle.stats().bad_frames, bad_before + 1);
    drop(stream);

    // A frame that dies mid-payload (claimed length never arrives).
    let mut stream = raw_session(&addr);
    let bytes = Frame::text(FrameKind::Request, 1, SPEC).encode();
    {
        use std::io::Write as _;
        stream
            .write_all(&bytes[..bytes.len() / 2])
            .expect("send truncated frame");
    }
    drop(stream); // half a frame, then gone

    // Neither connection may have executed anything.
    assert!(
        handle.execution_counts().is_empty(),
        "corrupt frames must never reach the executor: {:?}",
        handle.execution_counts()
    );

    // And an honest client still gets full service.
    let mut client = Client::connect(&addr).expect("honest connect");
    let response = client.request(SPEC).expect("honest request");
    assert!(response.completed(), "error={:?}", response.error);
    client.shutdown().expect("shutdown ack");

    let stats = runner.join().expect("server thread");
    assert!(stats.bad_frames >= 2, "stats={stats:?}");
    assert_eq!(stats.requests_admitted, 1);
    assert_eq!(stats.requests_completed, 1);
}
