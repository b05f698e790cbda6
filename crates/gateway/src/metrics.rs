//! Gateway counters: request-level outcomes plus one latency histogram
//! and health view per replica, declared once through the
//! `partree_exec::counters!` registry (the schema is in `EXPERIMENTS.md`
//! § E15).

use crate::breaker::BreakerState;
use partree_exec::metrics::{self as registry, raise_max, Log2Histogram};
use partree_service::{FamilyId, FAMILY_COUNT};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;

partree_exec::counters! {
    /// Per-replica counters (all relaxed atomics).
    #[derive(Debug, Default)]
    pub struct ReplicaMetrics {
        /// Successful-attempt latency histogram (log₂ µs buckets).
        pub latency: Log2Histogram,
    }

    /// Plain-data per-replica view, as exported.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct ReplicaSnapshot {
        /// Replica index (position in the gateway's replica list).
        pub id: usize,
        /// Replica address.
        pub addr: String,
        /// Attempts sent to this replica (including hedges and probes are
        /// *not* counted here — data requests only).
        attempts,
        /// Attempts that returned a terminal response.
        successes,
        /// Attempts that failed at the liveness layer: transport errors
        /// plus `ShuttingDown` responses. These are the breaker's inputs.
        transport_errors,
        /// `Busy`/`Timeout` responses (replica alive but couldn't serve:
        /// queue full, draining, or server-side deadline miss).
        busy,
        /// Health probes answered.
        pings_ok,
        /// Health probes failed.
        pings_failed,
        /// Successful-attempt latency histogram (log₂ µs buckets).
        pub latency: Vec<u64>,
        /// Sum of successful-attempt latencies, µs.
        latency_us_total,
        /// Max successful-attempt latency, µs.
        latency_us_max,
        /// Breaker state at snapshot time.
        pub breaker: BreakerState,
        /// Times this replica's breaker has opened.
        pub breaker_opened: u64,
        /// True when the replica advertises draining.
        pub draining: bool,
    }
}

impl ReplicaMetrics {
    /// Folds one successful attempt latency into the histogram.
    pub fn record_latency(&self, us: u64) {
        self.latency.record(us);
        // ordering: Relaxed — statistical counter.
        self.latency_us_total.fetch_add(us, Ordering::Relaxed);
        raise_max(&self.latency_us_max, us);
    }
}

partree_exec::counters! {
    /// Gateway-level counters (all relaxed atomics).
    #[derive(Debug, Default)]
    pub struct Metrics;

    /// Plain-data gateway view, as exported.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct GatewaySnapshot {
        /// Requests entering the router.
        requests,
        /// Requests answered with a terminal response inside the deadline.
        completed,
        /// Retry attempts launched (beyond each request's first attempt;
        /// hedges are counted separately).
        retries,
        /// Requests whose *winning* attempt ran on a replica other than the
        /// rendezvous home shard.
        failovers,
        /// First attempts finished on the caller's thread over an idle
        /// pooled connection (an answer or a transport error), with no
        /// RPC reactor hand-off.
        inline_attempts,
        /// Hedge attempts launched after the adaptive latency threshold.
        hedges_issued,
        /// Hedges whose response arrived before the primary's.
        hedges_won,
        /// Requests that exhausted their deadline budget.
        deadline_exceeded,
        /// Requests routed with every breaker open (best-effort fallback to
        /// the full preference order).
        no_healthy_replica,
        /// Requests rejected because the gateway is shutting down.
        rejected_shutdown,
        /// Warm-up rounds completed: a recovered replica was refilled from
        /// a healthy donor's hot set before its breaker re-closed.
        warmups,
        /// Codebooks donated across all warm-up rounds.
        warmup_keys_sent,
        [FAMILY_COUNT; FamilyId::ALL.map(FamilyId::name)] {
            /// Codec requests entering the router, by code family (indexed
            /// by [`FamilyId::index`]; legacy opcodes count as Huffman).
            family_requests,
        },
        /// Per-replica views.
        pub replicas: Vec<ReplicaSnapshot>,
    }
}

impl Metrics {
    /// Freezes the gateway-level counters (replica rows are appended by
    /// the gateway, which owns the breaker/drain state).
    pub fn snapshot(&self, replicas: Vec<ReplicaSnapshot>) -> GatewaySnapshot {
        GatewaySnapshot {
            replicas,
            ..self.load()
        }
    }
}

impl GatewaySnapshot {
    /// One JSON object: flat gateway counters plus a `replicas` array
    /// (schema in `EXPERIMENTS.md` § E15).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        registry::write_fields(self, &mut out);
        out.push_str(",\"replicas\":[");
        for (i, r) in self.replicas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":{},\"addr\":\"{}\",", r.id, r.addr);
            registry::write_fields(r, &mut out);
            let _ = write!(
                out,
                ",\"breaker\":\"{}\",\"breaker_opened\":{},\"draining\":{},\"latency_log2_us\":[",
                r.breaker.name(),
                r.breaker_opened,
                r.draining,
            );
            for (j, b) in r.latency.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partree_exec::metrics::{latency_bucket, LATENCY_BUCKETS};

    #[test]
    fn histogram_and_json_shape() {
        let rm = ReplicaMetrics::default();
        rm.record_latency(100);
        rm.record_latency(100);
        rm.record_latency(5000);
        assert_eq!(rm.latency.buckets()[latency_bucket(100)], 2);
        assert_eq!(rm.latency_us_max.load(Ordering::Relaxed), 5000);

        let m = Metrics::default();
        m.requests.store(7, Ordering::Relaxed);
        m.family_requests[FamilyId::ShannonFano.index()].store(4, Ordering::Relaxed);
        let snap = m.snapshot(vec![ReplicaSnapshot {
            id: 0,
            addr: "127.0.0.1:9".into(),
            latency: (0..LATENCY_BUCKETS as u64).collect(),
            ..rm.load()
        }]);
        let json = snap.to_json();
        assert!(json.starts_with("{\"requests\":7,"));
        assert_eq!(snap.family_requests, [0, 4, 0, 0]);
        assert!(json.contains("\"family_sf_requests\":4"));
        assert!(json.contains("\"family_huffman_requests\":0"));
        assert!(json.contains("\"latency_us_total\":5200"));
        assert!(json.contains("\"breaker\":\"closed\""));
        assert!(json.contains("\"latency_log2_us\":[0,1,2,"));
        assert!(json.ends_with("]}"));
    }
}
