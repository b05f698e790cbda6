//! The first attempt of a request runs on the caller's thread over an
//! idle pooled connection. These tests pin what that path must keep:
//! one connection serves sequential requests inline, a hedge still
//! fires past its threshold and the adopted loser's connection is
//! pooled again after its late reply, a retry sent after a backoff
//! crossed the hedge point is not hedged, a replica restart found in
//! the pool is no data-attempt failure and is reported once, and a
//! hedge loser still out at shutdown completes exactly once.

use partree_gateway::route::preference_order;
use partree_gateway::{BreakerState, Gateway, GatewayConfig, GatewaySnapshot};
use partree_service::frame::{
    encode_response, read_frame, write_frame, Histogram, Opcode, Request, Response,
};
use partree_service::net::Server;
use partree_service::server::{Service, ServiceConfig};
use partree_service::FamilyId;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A stand-in replica: answers `Ping` with `Pong` and any other frame
/// with a fixed `Encoded` (or `Busy`, while `busy` counts down), each
/// after `delay_ms`, and counts the connections it accepted.
struct FakeReplica {
    addr: SocketAddr,
    accepted: Arc<AtomicU64>,
    delay_ms: Arc<AtomicU64>,
    busy: Arc<AtomicU64>,
}

impl FakeReplica {
    fn start() -> FakeReplica {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicU64::new(0));
        let delay_ms = Arc::new(AtomicU64::new(0));
        let busy = Arc::new(AtomicU64::new(0));
        let (a, d, b) = (
            Arc::clone(&accepted),
            Arc::clone(&delay_ms),
            Arc::clone(&busy),
        );
        // Detached: the listener thread and its connection threads die
        // with the test process.
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                a.fetch_add(1, Ordering::SeqCst);
                let (d, b) = (Arc::clone(&d), Arc::clone(&b));
                thread::spawn(move || {
                    while let Ok(Some(raw)) = read_frame(&mut stream) {
                        thread::sleep(Duration::from_millis(d.load(Ordering::SeqCst)));
                        let shed = || {
                            b.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                                .is_ok()
                        };
                        let resp = match raw.opcode {
                            Opcode::Ping => Response::Pong { draining: false },
                            _ if shed() => Response::Busy,
                            _ => answer(),
                        };
                        if write_frame(&mut stream, &encode_response(raw.id, &resp)).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        FakeReplica {
            addr,
            accepted,
            delay_ms,
            busy,
        }
    }

    fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }

    fn set_delay_ms(&self, ms: u64) {
        self.delay_ms.store(ms, Ordering::SeqCst);
    }

    /// Answers the next `n` codec requests with `Busy`.
    fn shed_next(&self, n: u64) {
        self.busy.store(n, Ordering::SeqCst);
    }
}

/// What a [`FakeReplica`] answers to every codec request.
fn answer() -> Response {
    Response::Encoded {
        bit_len: 12,
        data: vec![0xAB, 0xC0],
    }
}

/// An encode request whose routing key homes on replica `home` of a
/// fleet of `n`.
fn request_homed_on(home: usize, n: usize) -> Request {
    (2u32..200)
        .map(|k| {
            let payload: Vec<u8> = (0..64).map(|i| (i % k as usize) as u8).collect();
            let histogram = Histogram::of_payload(k as usize, &payload).unwrap();
            (histogram, payload)
        })
        .find(|(h, _)| preference_order(FamilyId::Huffman.tagged_key(h.hash64()), n)[0] == home)
        .map(|(histogram, payload)| Request::Encode {
            family: FamilyId::Huffman,
            histogram,
            payload,
        })
        .expect("some histogram homes there")
}

/// Probes only at start (the prober's first round dials and pools one
/// connection per replica), and a hedge after at least 5 ms.
fn quiet_cfg(addrs: Vec<SocketAddr>) -> GatewayConfig {
    let mut cfg = GatewayConfig::new(addrs);
    cfg.probe_interval = Duration::from_secs(30);
    cfg.hedge_after_min = Duration::from_millis(5);
    cfg
}

fn wait_for(gw: &Gateway, what: &str, done: impl Fn(&GatewaySnapshot) -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !done(&gw.snapshot()) {
        assert!(
            Instant::now() < give_up,
            "timed out waiting for {what}: {:?}",
            gw.snapshot()
        );
        thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn sequential_requests_on_a_warm_pool_ride_one_connection_inline() {
    const N: u64 = 40;
    let replica = FakeReplica::start();
    let gw = Gateway::start(quiet_cfg(vec![replica.addr]));
    wait_for(&gw, "the first probe", |s| s.replicas[0].pings_ok >= 1);
    let request = request_homed_on(0, 1);
    for _ in 0..N {
        assert_eq!(gw.request(&request).unwrap(), answer());
    }
    let snap = gw.snapshot();
    assert_eq!(snap.inline_attempts, N, "{snap:?}");
    assert_eq!(snap.completed, N, "{snap:?}");
    assert_eq!(snap.hedges_issued, 0, "{snap:?}");
    assert_eq!(replica.accepted(), 1, "one connection, the probe's");
    gw.shutdown();
}

#[test]
fn a_hedge_still_fires_and_the_adopted_connection_is_pooled_after_its_late_reply() {
    let replicas = [FakeReplica::start(), FakeReplica::start()];
    let gw = Gateway::start(quiet_cfg(replicas.iter().map(|r| r.addr).collect()));
    wait_for(&gw, "the first probes", |s| {
        s.replicas.iter().all(|r| r.pings_ok >= 1)
    });
    let request = request_homed_on(0, 2);
    // Latency data pulls the hedge threshold down to its 5-ms floor.
    for _ in 0..8 {
        assert_eq!(gw.request(&request).unwrap(), answer());
    }
    let before = gw.snapshot();
    assert_eq!(before.inline_attempts, 8, "{before:?}");

    replicas[0].set_delay_ms(150);
    let t0 = Instant::now();
    assert_eq!(gw.request(&request).unwrap(), answer());
    assert!(
        t0.elapsed() < Duration::from_millis(150),
        "the hedge answered before the slow home: {:?}",
        t0.elapsed()
    );
    let after = gw.snapshot();
    assert_eq!(after.hedges_issued - before.hedges_issued, 1, "{after:?}");
    assert_eq!(after.hedges_won - before.hedges_won, 1, "{after:?}");
    assert_eq!(
        after.completed - before.completed,
        1,
        "one answer came back"
    );
    assert_eq!(after.inline_attempts, before.inline_attempts, "{after:?}");

    // The home's late reply is accounted on the reactor, and its
    // connection goes back to the pool: the next request to the home
    // rides it inline, with no new dial.
    let home_ok = before.replicas[0].successes;
    wait_for(&gw, "the loser's late reply", |s| {
        s.replicas[0].successes > home_ok
    });
    replicas[0].set_delay_ms(0);
    assert_eq!(gw.request(&request).unwrap(), answer());
    let last = gw.snapshot();
    assert_eq!(last.inline_attempts, before.inline_attempts + 1, "{last:?}");
    assert_eq!(last.completed - after.completed, 1);
    assert_eq!(replicas[0].accepted(), 1, "the home's one connection");
    assert_eq!(replicas[1].accepted(), 1, "the hedge rode the probe's");
    assert_eq!(last.replicas[0].transport_errors, 0, "{last:?}");
    gw.shutdown();
}

#[test]
fn a_retry_launched_after_a_backoff_crossed_the_hedge_point_is_not_hedged() {
    let replicas = [FakeReplica::start(), FakeReplica::start()];
    let mut cfg = quiet_cfg(replicas.iter().map(|r| r.addr).collect());
    // Every backoff (20-40 ms) outlasts the 5-ms hedge point.
    cfg.backoff_base = Duration::from_millis(40);
    let gw = Gateway::start(cfg);
    wait_for(&gw, "the first probes", |s| {
        s.replicas.iter().all(|r| r.pings_ok >= 1)
    });
    let request = request_homed_on(0, 2);
    for _ in 0..8 {
        assert_eq!(gw.request(&request).unwrap(), answer());
    }

    // The home sheds the first attempt at once; the retry goes out past
    // the hedge point, and the hedge races only what was out at it.
    replicas[0].shed_next(1);
    assert_eq!(gw.request(&request).unwrap(), answer());
    let snap = gw.snapshot();
    assert_eq!(snap.retries, 1, "{snap:?}");
    assert_eq!(snap.hedges_issued, 0, "{snap:?}");
    assert_eq!(snap.replicas[0].busy, 1, "{snap:?}");
    gw.shutdown();
}

#[test]
fn a_restart_found_in_the_pool_is_no_data_failure_and_is_reported_once() {
    let first = Server::bind(Service::start(ServiceConfig::default()), "127.0.0.1:0").unwrap();
    let addr = first.addr();
    let mut cfg = GatewayConfig::new(vec![addr]);
    cfg.probe_interval = Duration::from_millis(200);
    let gw = Gateway::start(cfg);
    wait_for(&gw, "the first probe", |s| s.replicas[0].pings_ok >= 1);
    let payload: Vec<u8> = (0..256).map(|i| (i % 5) as u8).collect();
    let hist = Histogram::of_payload(5, &payload).unwrap();
    let expected = gw.encode(&hist, &payload).unwrap();

    // Restart the replica right after a probe round, so that no probe
    // sees its port closed: only the idle connection it closed tells.
    let pings = gw.snapshot().replicas[0].pings_ok;
    wait_for(&gw, "the next probe", |s| s.replicas[0].pings_ok > pings);
    first.shutdown().unwrap();
    let revived = Server::bind(Service::start(ServiceConfig::default()), &addr.to_string())
        .expect("rebind the replica's address");

    // The next request finds the closed socket at checkout, drops it
    // and dials afresh: no error, no retry, no breaker failure.
    assert_eq!(gw.encode(&hist, &payload).unwrap(), expected);
    let snap = gw.snapshot();
    assert_eq!(snap.replicas[0].transport_errors, 0, "{snap:?}");
    assert_eq!(snap.retries, 0, "{snap:?}");
    assert_eq!(snap.replicas[0].breaker, BreakerState::Closed, "{snap:?}");

    // The prober reports the restart as one failed round, then the
    // replica probes clean again.
    let pings = snap.replicas[0].pings_ok;
    wait_for(&gw, "two more probe rounds", |s| {
        s.replicas[0].pings_ok >= pings + 2
    });
    let snap = gw.snapshot();
    assert_eq!(snap.replicas[0].pings_failed, 1, "{snap:?}");
    assert_eq!(snap.replicas[0].breaker_opened, 0, "{snap:?}");
    gw.shutdown();
    revived.shutdown().unwrap();
}

#[test]
fn shutdown_during_an_adopted_call_completes_it_exactly_once() {
    let replicas = [FakeReplica::start(), FakeReplica::start()];
    let mut cfg = quiet_cfg(replicas.iter().map(|r| r.addr).collect());
    let deadline = Duration::from_millis(300);
    cfg.deadline = deadline;
    let gw = Gateway::start(cfg);
    wait_for(&gw, "the first probes", |s| {
        s.replicas.iter().all(|r| r.pings_ok >= 1)
    });
    let request = request_homed_on(0, 2);
    for _ in 0..8 {
        assert_eq!(gw.request(&request).unwrap(), answer());
    }

    // The home never answers in time: its first attempt is handed to
    // the reactor at the hedge point, and the hedge wins.
    replicas[0].set_delay_ms(60_000);
    assert_eq!(gw.request(&request).unwrap(), answer());
    let snap = gw.snapshot();
    assert_eq!(snap.hedges_won, 1, "{snap:?}");

    // Shutdown waits for every outstanding attempt, up to `deadline +
    // 1 s`. The adopted loser's deadline sweep completes it well before
    // that; a call that never completed, or completed twice (the live
    // count would wrap), would hold shutdown to the full wait.
    let t0 = Instant::now();
    gw.shutdown();
    assert!(
        t0.elapsed() < deadline + Duration::from_millis(500),
        "shutdown waited {:?} for the adopted call",
        t0.elapsed()
    );
}
