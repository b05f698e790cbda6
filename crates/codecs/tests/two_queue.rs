//! Differential tests pinning family 0 to the Theorem 5.1 pipeline: the
//! two-queue kernel may answer only where its answer is the pipeline's,
//! and the family's served lengths must equal the pipeline's on every
//! histogram class — separated, skewed, tie-heavy and all-equal.

use partree_codecs::two_queue::separated_lengths;
use partree_codecs::{family, FamilyId};
use partree_huffman::parallel::huffman_parallel;
use proptest::prelude::*;

fn pipeline(counts: &[u32]) -> Vec<u32> {
    let weights: Vec<f64> = counts.iter().map(|&c| f64::from(c)).collect();
    huffman_parallel(&weights).expect("valid weights").lengths
}

/// Zipf-like counts (exponent 1.25, total near 2²⁰, jitter 0..=3), the
/// shape of cold-construction traffic; `keys[i]` ranks symbol `i` and
/// draws its jitter.
fn skewed(keys: Vec<u64>) -> Vec<u32> {
    let n = keys.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&s| (keys[s], s));
    let weight = |rank: usize| {
        let r = (rank + 1) as f64;
        1.0 / (r * r.sqrt().sqrt())
    };
    let sum: f64 = (0..n).map(weight).sum();
    let mut counts = vec![0u32; n];
    for (rank, &sym) in order.iter().enumerate() {
        let c = (f64::from(1u32 << 20) * weight(rank) / sum) as u32;
        counts[sym] = c.max(1) + (keys[sym] % 4) as u32;
    }
    counts
}

/// Random, skewed, tie-heavy (counts in `0..=3`) and all-equal
/// histograms.
fn histograms() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        proptest::collection::vec(1u32..1_000_000, 2..=64),
        proptest::collection::vec(0u64..u64::MAX, 2..=96).prop_map(skewed),
        proptest::collection::vec(0u32..=3, 2..=48),
        proptest::collection::vec(1u32..1000, 2..=48).prop_map(|v| vec![v[0]; v.len()]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn huffman_family_serves_the_pipeline_lengths(counts in histograms()) {
        prop_assume!(counts.iter().any(|&c| c > 0));
        let reference = pipeline(&counts);
        if let Some(lengths) = separated_lengths(&counts) {
            prop_assert_eq!(&lengths, &reference, "the gate accepted a non-reference answer");
        }
        let served = family(FamilyId::Huffman).lengths(&counts).unwrap();
        prop_assert_eq!(served, reference);
    }
}

#[test]
fn gate_accepts_most_skewed_histograms() {
    // The differential above is only as strong as the share of inputs
    // the gate accepts: on the skewed shape nearly all of n = 32 is
    // separated, and every acceptance must be the pipeline's answer.
    let mut accepted = 0;
    for seed in 0..64u64 {
        let keys: Vec<u64> = (0..32u64)
            .map(|i| {
                (seed * 32 + i)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left(29)
            })
            .collect();
        let counts = skewed(keys);
        if let Some(lengths) = separated_lengths(&counts) {
            assert_eq!(lengths, pipeline(&counts), "{counts:?}");
            accepted += 1;
        }
    }
    assert!(accepted >= 56, "gate accepted only {accepted}/64");
}
