//! Integration: the four code families as first-class wire citizens.
//!
//! Every family — classic Huffman (legacy opcodes `0x01`/`0x02`),
//! Shannon–Fano (`0x08`/`0x09`), minimax (`0x0A`/`0x0B`), and
//! choosable-edge (`0x0C`/`0x0D`) — must roundtrip over loopback TCP
//! with bytes identical to a direct in-process run,
//! show up in the service's flat-JSON stats under its own
//! `family_<name>_*` counters, and route through the gateway with the
//! same bytes and per-family request counters. A mixed-family store
//! directory must answer a restart entirely out of tier 1, and
//! Shannon–Fano's wire-visible cost must stay within Claim 7.1's one
//! extra bit per symbol of Huffman's.

use partree::gateway::{Gateway, GatewayConfig};
use partree::service::frame::{Histogram, Request, Response};
use partree::service::net::Server;
use partree::service::server::{Service, ServiceConfig};
use partree::service::{Client, FamilyId};
use std::time::Duration;

/// A payload over `n` symbols leading with one of each so every
/// histogram count is nonzero.
fn payload(n: usize, len: usize) -> Vec<u8> {
    let mut s = 0x9e37_79b9u64 | 1;
    let mut out: Vec<u8> = (0..n as u16).map(|x| x as u8).collect();
    while out.len() < len {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        out.push((s % n as u64) as u8);
    }
    out
}

/// Direct in-process encode, the byte-identity baseline.
fn direct_encode(svc: &Service, f: FamilyId, hist: &Histogram, msg: &[u8]) -> (u64, Vec<u8>) {
    match svc.submit(Request::Encode {
        family: f,
        histogram: hist.clone(),
        payload: msg.to_vec(),
    }) {
        Response::Encoded { bit_len, data } => (bit_len, data),
        other => panic!("direct {f} encode failed: {other:?}"),
    }
}

#[test]
fn every_family_roundtrips_with_wire_counters() {
    let msg = payload(8, 256);
    let hist = Histogram::of_payload(8, &msg).unwrap();
    let direct = Service::start(ServiceConfig::default());
    let server = Server::bind(Service::start(ServiceConfig::default()), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for f in FamilyId::ALL {
        let (bits, data) = client.encode_with(f, &hist, &msg).unwrap();
        let (d_bits, d_data) = direct_encode(&direct, f, &hist, &msg);
        assert_eq!((bits, &data), (d_bits, &d_data), "{f}: wire == direct");
        let back = client.decode_with(f, &hist, bits, &data).unwrap();
        assert_eq!(back, msg, "{f}: decode roundtrip");
    }

    // The flat-JSON stats must survive the wire with per-family
    // counters intact: one encode + one decode per family, one
    // construction each, and the decode hitting the encode's entry.
    let snap = client.stats().unwrap();
    assert_eq!(
        snap.family_requests,
        [2, 2, 2, 2],
        "requests counted per family"
    );
    assert_eq!(
        snap.family_constructions,
        [1, 1, 1, 1],
        "one build per family"
    );
    assert_eq!(
        snap.family_hits,
        [1, 1, 1, 1],
        "each decode reused its family's codebook"
    );

    server.shutdown().unwrap();
    direct.shutdown();
}

#[test]
fn gateway_serves_every_family_with_per_family_counters() {
    let msg = payload(6, 300);
    let hist = Histogram::of_payload(6, &msg).unwrap();
    let direct = Service::start(ServiceConfig::default());

    let servers: Vec<Server> = (0..3)
        .map(|_| Server::bind(Service::start(ServiceConfig::default()), "127.0.0.1:0").unwrap())
        .collect();
    let mut cfg = GatewayConfig::new(servers.iter().map(|s| s.addr()).collect());
    cfg.deadline = Duration::from_secs(5);
    let gw = Gateway::start(cfg);

    for f in FamilyId::ALL {
        let (bits, data) = gw.encode_with(f, &hist, &msg).unwrap();
        let (d_bits, d_data) = direct_encode(&direct, f, &hist, &msg);
        assert_eq!((bits, &data), (d_bits, &d_data), "{f}: gateway == direct");
        assert_eq!(gw.decode_with(f, &hist, bits, &data).unwrap(), msg);
    }

    // The gateway's own flat JSON carries one requests counter per
    // family (encode + decode = 2 each).
    let json = match gw.request(&Request::Stats).unwrap() {
        Response::Stats { json } => json,
        other => panic!("expected Stats, got {other:?}"),
    };
    for f in FamilyId::ALL {
        let key = format!("\"family_{}_requests\":2", f.name());
        assert!(json.contains(&key), "missing {key} in {json}");
    }

    gw.shutdown();
    for s in servers {
        s.shutdown().unwrap();
    }
    direct.shutdown();
}

#[test]
fn mixed_family_store_answers_restart_without_reconstruction() {
    let dir = std::env::temp_dir().join(format!("partree-mixed-family-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServiceConfig {
        workers: 1,
        store_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let msg = payload(10, 200);
    let hist = Histogram::of_payload(10, &msg).unwrap();

    // Cold: one construction per family, all written through under
    // family-tagged keys (Huffman's record stays v1 on disk).
    let svc = Service::start(cfg());
    let cold: Vec<(u64, Vec<u8>)> = FamilyId::ALL
        .into_iter()
        .map(|f| direct_encode(&svc, f, &hist, &msg))
        .collect();
    assert_eq!(svc.metrics().constructions, 4);
    svc.shutdown();

    // Warm restart: every family's codebook comes off the log — zero
    // reconstructions, bytes identical.
    let svc = Service::start(cfg());
    let warm: Vec<(u64, Vec<u8>)> = FamilyId::ALL
        .into_iter()
        .map(|f| direct_encode(&svc, f, &hist, &msg))
        .collect();
    assert_eq!(warm, cold, "mixed-family restart is bit-identical");
    let m = svc.metrics();
    assert_eq!(m.constructions, 0, "all four served from tier 1: {m:?}");
    assert_eq!(m.tier1_hits, 4);
    assert_eq!(m.store_errors, 0);
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shannon_fano_stays_within_one_bit_per_symbol_on_the_wire() {
    // Claim 7.1 at the service boundary: for the same payload, the
    // Shannon–Fano encoding spends at most one extra bit per symbol
    // over Huffman's optimum — and never beats it.
    let server = Server::bind(Service::start(ServiceConfig::default()), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for n in [2usize, 5, 17, 64] {
        let msg = payload(n, 400);
        let hist = Histogram::of_payload(n, &msg).unwrap();
        let (huff_bits, _) = client.encode_with(FamilyId::Huffman, &hist, &msg).unwrap();
        let (sf_bits, _) = client
            .encode_with(FamilyId::ShannonFano, &hist, &msg)
            .unwrap();
        assert!(sf_bits >= huff_bits, "n={n}: Huffman is optimal");
        assert!(
            sf_bits <= huff_bits + msg.len() as u64,
            "n={n}: SF {sf_bits} bits vs Huffman {huff_bits} + {} symbols",
            msg.len()
        );
    }
    server.shutdown().unwrap();
}
