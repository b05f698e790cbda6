//! Golden test for the gateway's `Stats` JSON: flat gateway counters,
//! per-family request keys, then one row per replica (schema in
//! `EXPERIMENTS.md` § E15). The exact bytes are an operator contract.

use partree_gateway::{BreakerState, GatewaySnapshot, ReplicaSnapshot};

fn replica(id: usize, base: u64, breaker: BreakerState, draining: bool) -> ReplicaSnapshot {
    ReplicaSnapshot {
        id,
        addr: format!("127.0.0.1:{}", 7000 + id),
        attempts: base + 1,
        successes: base + 2,
        transport_errors: base + 3,
        busy: base + 4,
        pings_ok: base + 5,
        pings_failed: base + 6,
        latency: (0..20).map(|b| base + 100 + b).collect(),
        latency_us_total: base + 7,
        latency_us_max: base + 8,
        breaker,
        breaker_opened: base + 9,
        draining,
    }
}

#[test]
fn gateway_snapshot_json_is_byte_exact() {
    let snap = GatewaySnapshot {
        requests: 1,
        completed: 2,
        retries: 3,
        failovers: 4,
        inline_attempts: 5,
        hedges_issued: 6,
        hedges_won: 7,
        deadline_exceeded: 8,
        no_healthy_replica: 9,
        rejected_shutdown: 10,
        warmups: 11,
        warmup_keys_sent: 12,
        family_requests: [13, 14, 15, 16],
        replicas: vec![
            replica(0, 20, BreakerState::Open, true),
            replica(1, 40, BreakerState::HalfOpen, false),
        ],
    };
    let expected = "{\"requests\":1,\"completed\":2,\"retries\":3,\"failovers\":4,\
\"inline_attempts\":5,\"hedges_issued\":6,\"hedges_won\":7,\"deadline_exceeded\":8,\
\"no_healthy_replica\":9,\"rejected_shutdown\":10,\"warmups\":11,\"warmup_keys_sent\":12,\
\"family_huffman_requests\":13,\"family_sf_requests\":14,\"family_minimax_requests\":15,\
\"family_choosable_requests\":16,\"replicas\":[\
{\"id\":0,\"addr\":\"127.0.0.1:7000\",\"attempts\":21,\"successes\":22,\
\"transport_errors\":23,\"busy\":24,\"pings_ok\":25,\"pings_failed\":26,\
\"latency_us_total\":27,\"latency_us_max\":28,\"breaker\":\"open\",\"breaker_opened\":29,\
\"draining\":true,\"latency_log2_us\":[120,121,122,123,124,125,126,127,128,129,130,131,\
132,133,134,135,136,137,138,139]},\
{\"id\":1,\"addr\":\"127.0.0.1:7001\",\"attempts\":41,\"successes\":42,\
\"transport_errors\":43,\"busy\":44,\"pings_ok\":45,\"pings_failed\":46,\
\"latency_us_total\":47,\"latency_us_max\":48,\"breaker\":\"half_open\",\"breaker_opened\":49,\
\"draining\":false,\"latency_log2_us\":[140,141,142,143,144,145,146,147,148,149,150,151,\
152,153,154,155,156,157,158,159]}]}";
    assert_eq!(snap.to_json(), expected);
}
