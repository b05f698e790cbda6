//! Aggregate service counters, exported as JSON.
//!
//! The counters are declared once, below, through the
//! `partree_exec::counters!` registry: relaxed atomic cells (they cross
//! batch-worker and connection threads), the snapshot struct, the copy
//! between them and the flat integer-valued JSON all come from that one
//! list. Key order is declaration order; unknown keys are for readers to
//! skip, as in the span-tree conventions of `EXPERIMENTS.md`.

use partree_codecs::family::FAMILY_COUNT;
use partree_codecs::FamilyId;
use partree_exec::metrics as registry;

partree_exec::counters! {
    /// Monotonic counters for one [`crate::server::Service`].
    #[derive(Debug, Default)]
    pub struct Metrics;

    /// A plain-data copy of [`Metrics`] plus cache and executor counters,
    /// as exported.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct MetricsSnapshot {
        /// Codec requests accepted: queued, or answered at submission
        /// (`inline_hits`).
        accepted,
        /// Encode requests completed successfully.
        encoded,
        /// Decode requests completed successfully.
        decoded,
        /// Requests rejected with `Busy` (queue full — load shed).
        busy,
        /// Requests whose submitter gave up waiting (deadline missed).
        timeouts,
        /// Jobs dropped at drain time because their deadline had already
        /// passed (the submitter timed out while they sat in the queue;
        /// distinct from `timeouts`, which the submitter counts, so one
        /// request is never tallied twice).
        expired,
        /// Requests answered with an `Error` response.
        errors,
        /// Scheduling ticks executed by batch workers, plus one per
        /// request answered at submission (a one-job tick).
        batches,
        /// Requests processed across all ticks (`batched_requests /
        /// batches` is the mean batch size — the amortization factor).
        batched_requests,
        /// Largest single batch observed.
        max_batch,
        /// Tier-0 hits answered by the submitting thread while the
        /// queue was empty, skipping the batch workers (each also counts
        /// as a one-job tick above).
        inline_hits,
        /// Codebook constructions actually performed. With no tier-1
        /// store this equals `cache_misses`; with one attached it is the
        /// misses tier 1 could not answer.
        external constructions,
        /// Codebook cache hits.
        external cache_hits,
        /// Codebook cache misses.
        external cache_misses,
        /// Codebook cache evictions.
        external cache_evictions,
        /// Tier-0 (in-memory) hits; alias of `cache_hits` under the
        /// tiered-store naming, kept separate so E16 charts both tiers
        /// with symmetric keys.
        external tier0_hits,
        /// Tier-0 misses answered by the tier-1 store (no construction).
        external tier1_hits,
        /// Tier-1 records promoted into tier 0.
        external tier1_promotions,
        /// Tier-1 store operations that failed (read or write-through).
        external store_errors,
        /// Warm-up entries adopted from a peer via the `WarmUp` opcode.
        external warmup_accepted,
        // Per code family, indexed by `FamilyId::index` (JSON keys
        // `family_<name>_{requests,hits,constructions}`).
        [FAMILY_COUNT; FamilyId::ALL.map(FamilyId::name)] {
            /// Encode/decode requests accepted per code family.
            family_requests,
            /// Tier-0 cache hits per code family.
            external family_hits,
            /// Constructions per code family.
            external family_constructions,
        },
        /// Delta requests processed (`EncodeDelta` + `DecodeDelta`).
        delta_requests,
        /// Delta requests served by a patch rule (or an already-resident
        /// drifted codebook) — no full construction ran.
        delta_patched,
        /// Delta requests that fell back to a full from-scratch rebuild
        /// (structural drift, a tie refusal, or a family with no patch
        /// rule).
        delta_fallbacks,
        /// Delta requests rejected because the named base codebook was
        /// resident in neither tier.
        delta_unknown_base,
        /// Traced PRAM work across all batch span trees.
        work,
        /// Traced PRAM depth across all batch span trees (sequential
        /// composition over batches; within a batch, Brent's rules apply).
        depth,
        /// Payload bytes received in encode requests.
        bytes_in,
        /// Encoded bytes produced by encode responses.
        bytes_out,
        /// Sum of queue→response latencies, microseconds.
        latency_us_total,
        /// Largest single queue→response latency, microseconds.
        latency_us_max,
        /// Gauge: 1 once the service is draining (new work shed as `Busy`).
        draining,
        /// Connections severed by the reactor's per-connection write-queue
        /// cap (a peer stopped reading while responses kept accumulating).
        write_overflows,
        /// Executor: successful steals on the shared `partree-exec` pool
        /// (process-wide — the pool is shared by everything in-process).
        external exec_steals,
        /// Executor: worker park events (idle transitions).
        external exec_parks,
        /// Executor: jobs waiting in the injector right now (gauge).
        external exec_injector_depth,
        /// Executor: jobs (lane blocks + join halves) executed.
        external exec_blocks,
    }
}

impl Metrics {
    /// Freezes the counters together with the cache's hit/miss/eviction
    /// numbers (the cache owns those so lookups stay lock-free here) and
    /// the shared executor pool's scheduling counters (zeros if no
    /// parallel work has run in-process yet).
    pub fn snapshot(&self, cache: &crate::codebook::CodebookCache) -> MetricsSnapshot {
        let exec = partree_exec::global_snapshot();
        MetricsSnapshot {
            constructions: cache.constructions(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
            tier0_hits: cache.hits(),
            tier1_hits: cache.tier1_hits(),
            tier1_promotions: cache.tier1_promotions(),
            store_errors: cache.store_errors(),
            warmup_accepted: cache.warmup_accepted(),
            family_hits: cache.family_hits(),
            family_constructions: cache.family_constructions(),
            exec_steals: exec.steals,
            exec_parks: exec.parks,
            exec_injector_depth: exec.injector_depth,
            exec_blocks: exec.blocks_executed,
            ..self.load()
        }
    }
}

impl MetricsSnapshot {
    /// One flat JSON object, keys in declaration order.
    pub fn to_json(&self) -> String {
        registry::to_json(self)
    }

    /// Parses a JSON object produced by [`MetricsSnapshot::to_json`].
    /// Unknown keys are ignored; missing keys default to 0.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        registry::from_json(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook::CodebookCache;
    use std::sync::atomic::Ordering;

    #[test]
    fn json_roundtrip() {
        let m = Metrics::default();
        m.accepted.store(10, Ordering::Relaxed);
        m.encoded.store(6, Ordering::Relaxed);
        m.busy.store(1, Ordering::Relaxed);
        m.family_requests[FamilyId::ShannonFano.index()].store(5, Ordering::Relaxed);
        m.family_requests[FamilyId::ChoosableEdge.index()].store(2, Ordering::Relaxed);
        registry::raise_max(&m.max_batch, 4);
        registry::raise_max(&m.max_batch, 2); // no-op, 4 stays
        let cache = CodebookCache::new(2, 4);
        let snap = m.snapshot(&cache);
        assert_eq!(snap.max_batch, 4);
        assert_eq!(snap.family_requests, [0, 5, 0, 2]);
        let json = snap.to_json();
        assert!(json.contains("\"family_sf_requests\":5"));
        assert!(json.contains("\"family_choosable_requests\":2"));
        assert!(json.contains("\"family_minimax_hits\":0"));
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn from_json_ignores_unknown_and_rejects_garbage() {
        let s = MetricsSnapshot::from_json("{\"accepted\":3,\"new_key\":9}").unwrap();
        assert_eq!(s.accepted, 3);
        assert!(MetricsSnapshot::from_json("not json").is_err());
        assert!(MetricsSnapshot::from_json("{\"accepted\":\"x\"}").is_err());
    }
}
