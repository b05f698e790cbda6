//! Golden tests for the `Stats` JSON surface: the exact bytes a
//! `MetricsSnapshot` serializes to, and the parser's round trip over
//! arbitrary counter values. The key set and order are an operator
//! contract (schema in `EXPERIMENTS.md`), so any change here must be
//! deliberate.

use partree_service::MetricsSnapshot;
use proptest::prelude::*;

/// Number of `u64` values a `MetricsSnapshot` carries (scalars plus the
/// three four-family arrays).
const VALUES: usize = 48;

/// Fills every counter, in JSON key order, from `v`.
fn snap_from(v: &[u64]) -> MetricsSnapshot {
    assert_eq!(v.len(), VALUES);
    let arr = |i: usize| [v[i], v[i + 1], v[i + 2], v[i + 3]];
    MetricsSnapshot {
        accepted: v[0],
        encoded: v[1],
        decoded: v[2],
        busy: v[3],
        timeouts: v[4],
        expired: v[5],
        errors: v[6],
        batches: v[7],
        batched_requests: v[8],
        max_batch: v[9],
        inline_hits: v[10],
        constructions: v[11],
        cache_hits: v[12],
        cache_misses: v[13],
        cache_evictions: v[14],
        tier0_hits: v[15],
        tier1_hits: v[16],
        tier1_promotions: v[17],
        store_errors: v[18],
        warmup_accepted: v[19],
        family_requests: arr(20),
        family_hits: arr(24),
        family_constructions: arr(28),
        delta_requests: v[32],
        delta_patched: v[33],
        delta_fallbacks: v[34],
        delta_unknown_base: v[35],
        work: v[36],
        depth: v[37],
        bytes_in: v[38],
        bytes_out: v[39],
        latency_us_total: v[40],
        latency_us_max: v[41],
        draining: v[42],
        write_overflows: v[43],
        exec_steals: v[44],
        exec_parks: v[45],
        exec_injector_depth: v[46],
        exec_blocks: v[47],
    }
}

const GOLDEN: &str = "{\"accepted\":1,\"encoded\":2,\"decoded\":3,\"busy\":4,\
\"timeouts\":5,\"expired\":6,\"errors\":7,\"batches\":8,\"batched_requests\":9,\
\"max_batch\":10,\"inline_hits\":11,\"constructions\":12,\"cache_hits\":13,\"cache_misses\":14,\
\"cache_evictions\":15,\"tier0_hits\":16,\"tier1_hits\":17,\"tier1_promotions\":18,\
\"store_errors\":19,\"warmup_accepted\":20,\
\"family_huffman_requests\":21,\"family_huffman_hits\":25,\"family_huffman_constructions\":29,\
\"family_sf_requests\":22,\"family_sf_hits\":26,\"family_sf_constructions\":30,\
\"family_minimax_requests\":23,\"family_minimax_hits\":27,\"family_minimax_constructions\":31,\
\"family_choosable_requests\":24,\"family_choosable_hits\":28,\"family_choosable_constructions\":32,\
\"delta_requests\":33,\"delta_patched\":34,\"delta_fallbacks\":35,\"delta_unknown_base\":36,\
\"work\":37,\"depth\":38,\"bytes_in\":39,\"bytes_out\":40,\"latency_us_total\":41,\
\"latency_us_max\":42,\"draining\":43,\"write_overflows\":44,\"exec_steals\":45,\
\"exec_parks\":46,\"exec_injector_depth\":47,\"exec_blocks\":48}";

#[test]
fn metrics_snapshot_json_is_byte_exact() {
    let v: Vec<u64> = (1..=VALUES as u64).collect();
    let snap = snap_from(&v);
    assert_eq!(snap.to_json(), GOLDEN);
    assert_eq!(MetricsSnapshot::from_json(GOLDEN).unwrap(), snap);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn from_json_inverts_to_json(v in prop::collection::vec(any::<u64>(), VALUES..=VALUES)) {
        let snap = snap_from(&v);
        prop_assert_eq!(MetricsSnapshot::from_json(&snap.to_json()).unwrap(), snap);
    }
}
