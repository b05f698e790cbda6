//! Tier-0 hits answered at submission, over TCP. On an idle replica
//! the reactor thread codes a resident hit itself and pushes the
//! completion onto its own completion queue, so the answer goes out on
//! the next loop turn with no batch worker involved. What a hit saw
//! before must still hold: fault injection applies to it, and every
//! pipelined request id is answered exactly once, deadline sweep
//! included.

use partree_service::frame::{
    decode_response, encode_request, read_frame, write_frame, Histogram, Request, Response,
};
use partree_service::{Client, FamilyId, Server, Service, ServiceConfig};
use std::collections::HashSet;
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const COUNTS: [u32; 6] = [40, 21, 9, 5, 3, 1];

fn payload() -> Vec<u8> {
    (0..2048u32).map(|i| ((i * 7 + i / 5) % 6) as u8).collect()
}

fn encode() -> Request {
    Request::Encode {
        family: FamilyId::Huffman,
        histogram: Histogram::new(COUNTS.to_vec()).unwrap(),
        payload: payload(),
    }
}

/// A replica whose tier 0 already holds the codebook, adopted through
/// `WarmUp` from a donor's hot set (the gateway's warm-up path), plus
/// the donor's answer to [`encode`] as the reference bytes.
fn warm_replica(cfg: ServiceConfig) -> (Server, Response) {
    let donor = Service::start(ServiceConfig::default());
    let reference = donor.submit(encode());
    assert!(
        matches!(reference, Response::Encoded { .. }),
        "{reference:?}"
    );
    let Response::HotSet { entries } = donor.submit(Request::HotSet { max: 1 }) else {
        panic!("donor hot set");
    };
    donor.shutdown();
    let server = Server::bind(Service::start(cfg), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.warm_up(entries).unwrap(), (1, 0));
    (server, reference)
}

/// No batch workers: nothing but an answer at submission can reach the
/// client, and nothing else takes the queue lock.
fn paused() -> ServiceConfig {
    ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    }
}

fn stats(server: &Server) -> partree_service::MetricsSnapshot {
    Client::connect(server.addr()).unwrap().stats().unwrap()
}

#[test]
fn fault_drop_and_delay_still_apply_to_hits() {
    let (server, reference) = warm_replica(paused());
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.request(&encode()).unwrap(), reference);
    assert_eq!(stats(&server).inline_hits, 1);

    // A dropped hit severs the connection before anything is coded.
    server.faults().set_drop_pct(100);
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(
        client.request(&encode()).is_err(),
        "the hit was not dropped"
    );
    let m = stats(&server);
    assert_eq!((m.inline_hits, m.accepted), (1, 1));

    // A delayed hit waits out the delay, then is answered at submission.
    server.faults().set_drop_pct(0);
    server.faults().set_delay_ms(150);
    let mut client = Client::connect(server.addr()).unwrap();
    let start = Instant::now();
    assert_eq!(client.request(&encode()).unwrap(), reference);
    assert!(
        start.elapsed() >= Duration::from_millis(150),
        "the hit skipped its delay"
    );
    assert_eq!(stats(&server).inline_hits, 2);
    server.shutdown().unwrap();
}

#[test]
fn pipelined_hits_are_answered_once_per_id() {
    const N: u64 = 64;
    // A 1-ms deadline: the sweep runs while the answers are in flight
    // and again after, and must find nothing left to answer.
    let (server, reference) = warm_replica(ServiceConfig {
        request_timeout: Duration::from_millis(1),
        ..paused()
    });
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let request = encode();
    let wire: Vec<u8> = (0..N).flat_map(|id| encode_request(id, &request)).collect();
    write_frame(&mut stream, &wire).unwrap();

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut seen = HashSet::new();
    for _ in 0..N {
        let raw = read_frame(&mut stream).unwrap().expect("an answer");
        assert!(seen.insert(raw.id), "id {} answered twice", raw.id);
        let response = decode_response(raw.opcode, &raw.body).unwrap();
        assert_eq!(response, reference, "id {}", raw.id);
    }
    assert_eq!(seen, (0..N).collect::<HashSet<_>>());

    // Several deadline sweeps later, nothing more arrives.
    stream
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    match read_frame(&mut stream) {
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) => {}
        other => panic!("expected silence after {N} answers, got {other:?}"),
    }
    let m = stats(&server);
    assert_eq!((m.inline_hits, m.encoded, m.timeouts), (N, N, 0));
    server.shutdown().unwrap();
}
