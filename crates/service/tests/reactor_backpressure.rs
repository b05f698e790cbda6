//! Write backpressure on the reactor transport, end to end: a peer
//! that floods requests and never reads its responses must be severed
//! once its unread backlog exceeds `PARTREE_WRITE_CAP_BYTES` — and the
//! rest of the server must not notice.
//!
//! This lives in its own integration-test binary because the cap is a
//! process-wide environment knob read when the reactor spawns; setting
//! it here cannot race another test's reactor.

use partree_service::frame::{encode_request, Request};
use partree_service::{Client, Server, Service, ServiceConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn never_reading_peer_is_severed_at_the_write_cap() {
    // Small cap so the trip needs only the kernel socket buffers plus
    // a few KiB of queued responses. Set before the reactor spawns.
    std::env::set_var("PARTREE_WRITE_CAP_BYTES", "4096");
    let svc = Service::start(ServiceConfig {
        store_dir: None,
        ..ServiceConfig::default()
    });
    let server = Server::bind(svc.clone(), "127.0.0.1:0").expect("bind reactor");
    let addr = server.addr();

    // The hostile peer: pump Stats requests (answered inline, ~1 KiB
    // each) and read nothing. Responses pile up in the kernel buffers,
    // then in the reactor's per-connection queue, then the cap trips
    // and the server closes the socket — our writes start failing.
    let mut flood = TcpStream::connect(addr).expect("connect");
    flood
        .set_write_timeout(Some(Duration::from_secs(1)))
        .expect("write timeout");
    let frame = encode_request(0, &Request::Stats);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut severed = false;
    while Instant::now() < deadline {
        if flood.write_all(&frame).is_err() {
            severed = true;
            break;
        }
    }
    assert!(severed, "the never-reading peer was not severed in 30s");

    // The sever was the typed overflow, not collateral damage: the
    // counter moved, and a well-behaved client still gets answers.
    let mut probe = Client::connect(addr).expect("fresh connection works");
    let stats = probe.stats().expect("server still serving");
    assert!(
        stats.write_overflows >= 1,
        "sever must be attributed to write backpressure, got {stats:?}"
    );
    server.shutdown().expect("clean shutdown");
}
