//! The failover battery shared by `gateway_failover.rs` and
//! `reactor_failover.rs`: three codec replicas behind one gateway,
//! concurrent clients, one replica slowed past the hedge threshold and
//! another killed mid-load. Every replica serves from its epoll reactor
//! and every gateway attempt runs on the gateway's RPC reactor, so a
//! transport bug — a dropped frame, a completion misrouted to a reused
//! connection slot, a stall under a dead peer — fails the bar: ≥99% of
//! requests succeed and every success is byte-identical to a direct
//! in-process service run.

use partree::gateway::{Gateway, GatewayConfig, GatewaySnapshot};
use partree::service::frame::{Histogram, Request, Response};
use partree::service::net::Server;
use partree::service::server::{Service, ServiceConfig};
use partree::service::FamilyId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic xorshift payload over an `n`-symbol alphabet, led by
/// one of each symbol so every histogram count is nonzero.
pub fn payload(n: usize, seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut out: Vec<u8> = (0..n as u16).map(|sym| sym as u8).collect();
    out.extend((0..len).map(|_| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % n as u64) as u8
    }));
    out
}

/// A workload item pre-answered on a direct (in-process, no gateway)
/// service: the ground truth for bit-identity.
struct Expected {
    hist: Histogram,
    payload: Vec<u8>,
    bit_len: u64,
    data: Vec<u8>,
}

fn build_expected() -> Vec<Expected> {
    let direct = Service::start(ServiceConfig::default());
    let out = (0..20u64)
        .map(|i| {
            let n = [2usize, 6, 16, 64, 256][i as usize % 5];
            let msg = payload(n, i, 48 + (i as usize % 96));
            let hist = Histogram::of_payload(n, &msg).unwrap();
            match direct.submit(Request::Encode {
                family: FamilyId::Huffman,
                histogram: hist.clone(),
                payload: msg.clone(),
            }) {
                Response::Encoded { bit_len, data } => Expected {
                    hist,
                    payload: msg,
                    bit_len,
                    data,
                },
                other => panic!("direct encode {i} failed: {other:?}"),
            }
        })
        .collect();
    direct.shutdown();
    out
}

/// Runs the battery and returns the gateway's final snapshot after
/// asserting the shared bar (≥99% success, bit-identity, retries, the
/// killed replica's breaker opened). With `decode_too`, every second
/// request of the load phase is a decode checked against the original
/// payload; otherwise the load is all encodes.
pub fn failover_battery(decode_too: bool) -> GatewaySnapshot {
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 60;
    /// Pacing between a client's requests so the load phase spans the
    /// mid-run kill rather than finishing before it.
    const PACE: Duration = Duration::from_millis(3);

    let expected = Arc::new(build_expected());

    let mut servers: Vec<Option<Server>> = (0..3)
        .map(|_| {
            Some(Server::bind(Service::start(ServiceConfig::default()), "127.0.0.1:0").unwrap())
        })
        .collect();
    let addrs = servers.iter().map(|s| s.as_ref().unwrap().addr()).collect();

    let mut cfg = GatewayConfig::new(addrs);
    cfg.deadline = Duration::from_secs(2);
    cfg.probe_interval = Duration::from_millis(25);
    cfg.breaker.open_cooldown = Duration::from_millis(200);
    let gw = Arc::new(Gateway::start(cfg));

    // Warm pass: primes every replica's codebook cache and the
    // gateway's latency EWMA, and checks bit-identity of both
    // directions on a calm fleet.
    for (i, e) in expected.iter().enumerate() {
        let (bits, data) = gw.encode(&e.hist, &e.payload).unwrap();
        assert_eq!(
            (bits, &data),
            (e.bit_len, &e.data),
            "warm {i}: gateway differs from direct run"
        );
        let back = gw.decode(&e.hist, e.bit_len, &e.data).unwrap();
        assert_eq!(back, e.payload, "warm {i}: decode differs");
    }

    // Slow replica 2 past the hedge threshold for the first half of the
    // load, so hedges fire while the traffic is live.
    servers[2].as_ref().unwrap().faults().set_delay_ms(120);

    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let gw = Arc::clone(&gw);
            let expected = Arc::clone(&expected);
            let ok = Arc::clone(&ok);
            let shed = Arc::clone(&shed);
            std::thread::spawn(move || {
                for r in 0..PER_CLIENT {
                    std::thread::sleep(PACE);
                    let e = &expected[(c * 5 + r) % expected.len()];
                    let succeeded = if decode_too && r % 2 == 1 {
                        gw.decode(&e.hist, e.bit_len, &e.data).map(|back| {
                            assert_eq!(
                                back, e.payload,
                                "client {c} req {r}: decode differs from direct run"
                            );
                        })
                    } else {
                        gw.encode(&e.hist, &e.payload).map(|(bits, data)| {
                            assert_eq!(
                                (bits, &data),
                                (e.bit_len, &e.data),
                                "client {c} req {r}: bytes differ from direct run"
                            );
                        })
                    };
                    match succeeded {
                        Ok(()) => ok.fetch_add(1, Ordering::Relaxed),
                        Err(_) => shed.fetch_add(1, Ordering::Relaxed),
                    };
                }
            })
        })
        .collect();

    // Kill replica 1 while the clients are mid-flight; its connections
    // in the gateway's reactor die and the requests must retry
    // elsewhere.
    std::thread::sleep(Duration::from_millis(120));
    servers[1].take().unwrap().shutdown().unwrap();
    // Un-slow replica 2 for the tail so the fleet recovers fully.
    std::thread::sleep(Duration::from_millis(150));
    servers[2].as_ref().unwrap().faults().set_delay_ms(0);

    for w in workers {
        w.join().unwrap();
    }

    let ok = ok.load(Ordering::Relaxed);
    let shed = shed.load(Ordering::Relaxed);
    let total = (CLIENTS * PER_CLIENT) as u64;
    assert_eq!(ok + shed, total);
    assert!(
        shed * 100 <= total,
        "failover success rate below 99%: {ok}/{total}"
    );

    let snap = gw.snapshot();
    assert!(snap.retries > 0, "kill produced no retries: {snap:?}");
    assert!(
        snap.replicas[1].breaker_opened > 0,
        "killed replica's breaker never opened: {snap:?}"
    );
    assert_eq!(snap.replicas.len(), 3);

    let gw = Arc::try_unwrap(gw).unwrap_or_else(|_| panic!("gateway still shared"));
    gw.shutdown();
    for s in servers.into_iter().flatten() {
        s.shutdown().unwrap();
    }
    snap
}
