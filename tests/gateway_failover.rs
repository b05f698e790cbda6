//! Integration: the replica gateway under fire — the shared failover
//! battery (`common/mod.rs`: three replicas, one slowed to force
//! hedging, another killed mid-run to force retries and failover) with
//! an all-encode load, where the router's metrics must also show the
//! hedges winning — plus the router's own Stats/Drain control plane.

mod common;

use common::payload;
use partree::gateway::{Gateway, GatewayConfig};
use partree::service::frame::{Histogram, Request, Response};
use partree::service::net::Server;
use partree::service::server::{Service, ServiceConfig};
use partree::service::FamilyId;

#[test]
fn failover_under_load_stays_bit_identical() {
    let snap = common::failover_battery(false);
    assert!(
        snap.hedges_issued > 0 && snap.hedges_won > 0,
        "slow replica produced no winning hedges: {snap:?}"
    );
}

#[test]
fn gateway_stats_and_drain_roundtrip() {
    let servers: Vec<Server> = (0..2)
        .map(|_| Server::bind(Service::start(ServiceConfig::default()), "127.0.0.1:0").unwrap())
        .collect();
    let cfg = GatewayConfig::new(servers.iter().map(|s| s.addr()).collect());
    let gw = Gateway::start(cfg);

    let msg = payload(16, 7, 64);
    let hist = Histogram::of_payload(16, &msg).unwrap();
    let (bit_len, data) = gw.encode(&hist, &msg).unwrap();
    assert_eq!(gw.decode(&hist, bit_len, &data).unwrap(), msg);

    // Stats answered by the router itself: valid JSON-ish shape with
    // one entry per replica.
    match gw.request(&Request::Stats).unwrap() {
        Response::Stats { json } => {
            assert!(json.contains("\"replicas\":["), "{json}");
            assert!(json.matches("\"breaker\":").count() == 2, "{json}");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // Drain flips the router into shedding mode: control plane still
    // answers, data plane sheds with Busy.
    assert!(matches!(
        gw.request(&Request::Drain).unwrap(),
        Response::DrainOk
    ));
    match gw.request(&Request::Ping).unwrap() {
        Response::Pong { draining } => assert!(draining),
        other => panic!("expected pong, got {other:?}"),
    }
    assert!(matches!(
        gw.request(&Request::Encode {
            family: FamilyId::Huffman,
            histogram: hist.clone(),
            payload: msg.clone(),
        })
        .unwrap(),
        Response::Busy
    ));

    gw.shutdown();
    for s in servers {
        s.shutdown().unwrap();
    }
}
