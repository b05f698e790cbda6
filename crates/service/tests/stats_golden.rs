//! Golden tests for the `Stats` JSON surface: the exact bytes a
//! `MetricsSnapshot` serializes to, and the parser's round trip over
//! arbitrary counter values. The key set and order are an operator
//! contract (schema in `EXPERIMENTS.md`), so any change here must be
//! deliberate.

use partree_service::MetricsSnapshot;
use proptest::prelude::*;

/// Number of `u64` values a `MetricsSnapshot` carries (scalars plus the
/// three four-family arrays).
const VALUES: usize = 47;

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
        constructions: v[10],
        cache_hits: v[11],
        cache_misses: v[12],
        cache_evictions: v[13],
        tier0_hits: v[14],
        tier1_hits: v[15],
        tier1_promotions: v[16],
        store_errors: v[17],
        warmup_accepted: v[18],
        family_requests: arr(19),
        family_hits: arr(23),
        family_constructions: arr(27),
        delta_requests: v[31],
        delta_patched: v[32],
        delta_fallbacks: v[33],
        delta_unknown_base: v[34],
        work: v[35],
        depth: v[36],
        bytes_in: v[37],
        bytes_out: v[38],
        latency_us_total: v[39],
        latency_us_max: v[40],
        draining: v[41],
        write_overflows: v[42],
        exec_steals: v[43],
        exec_parks: v[44],
        exec_injector_depth: v[45],
        exec_blocks: v[46],
    }
}

const GOLDEN: &str = "{\"accepted\":1,\"encoded\":2,\"decoded\":3,\"busy\":4,\
\"timeouts\":5,\"expired\":6,\"errors\":7,\"batches\":8,\"batched_requests\":9,\
\"max_batch\":10,\"constructions\":11,\"cache_hits\":12,\"cache_misses\":13,\
\"cache_evictions\":14,\"tier0_hits\":15,\"tier1_hits\":16,\"tier1_promotions\":17,\
\"store_errors\":18,\"warmup_accepted\":19,\
\"family_huffman_requests\":20,\"family_huffman_hits\":24,\"family_huffman_constructions\":28,\
\"family_sf_requests\":21,\"family_sf_hits\":25,\"family_sf_constructions\":29,\
\"family_minimax_requests\":22,\"family_minimax_hits\":26,\"family_minimax_constructions\":30,\
\"family_choosable_requests\":23,\"family_choosable_hits\":27,\"family_choosable_constructions\":31,\
\"delta_requests\":32,\"delta_patched\":33,\"delta_fallbacks\":34,\"delta_unknown_base\":35,\
\"work\":36,\"depth\":37,\"bytes_in\":38,\"bytes_out\":39,\"latency_us_total\":40,\
\"latency_us_max\":41,\"draining\":42,\"write_overflows\":43,\"exec_steals\":44,\
\"exec_parks\":45,\"exec_injector_depth\":46,\"exec_blocks\":47}";

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
