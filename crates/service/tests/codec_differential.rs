//! Differential tests of the served codec against the tree oracle.
//!
//! `Codebook::encode` must produce exactly the bytes and bit length of
//! `canonical_code(lengths).encode` — the paper's construction realized
//! as a tree — and `Codebook::decode` must agree with the tree decoder,
//! for every family over random, tie-heavy and payload-derived
//! histograms, including codes up to 64 bits. Malformed input keeps its
//! typed errors: `SymbolOutOfRange` for a byte outside the alphabet and
//! `CorruptPayload` for an overlong declared length, a truncated
//! codeword or bits that match no codeword.

use partree_codes::canonical::canonical_code;
use partree_pram::CostTracer;
use partree_service::frame::{ErrorCode, Histogram};
use partree_service::{Codebook, FamilyId};
use proptest::prelude::*;

/// Checks one built book on one payload, plus truncated, padded,
/// garbage and out-of-alphabet variants of it.
fn check(book: &Codebook, payload: &[u8], garbage: &[u8], cut: u64) {
    let n = book.lengths.len();
    let ctx = format!("{} lengths {:?}", book.family, book.lengths);
    let oracle = canonical_code(&book.lengths).unwrap();
    let symbols: Vec<usize> = payload.iter().map(|&b| usize::from(b)).collect();
    let (bytes, bits) = book.encode(payload).unwrap();
    assert_eq!(
        (bytes.clone(), bits),
        oracle.encode(&symbols).unwrap(),
        "{ctx}: encode differs from the tree oracle"
    );
    assert_eq!(book.decode(&bytes, bits).unwrap(), payload, "{ctx}");

    // Decode parity with the tree decoder on truncated, padded and
    // garbage streams; every failure is CorruptPayload.
    let mut padded = bytes.clone();
    padded.extend_from_slice(garbage);
    let total = padded.len() as u64 * 8;
    let probes = [
        (&bytes, bits.saturating_sub(cut)),
        (&padded, bits),
        (&padded, total.saturating_sub(cut)),
        (&padded, total),
    ];
    for (data, declared) in probes {
        let served = book.decode(data, declared);
        let tree = oracle
            .decode(data, declared)
            .ok()
            .map(|s| s.into_iter().map(|x| x as u8).collect::<Vec<u8>>());
        match served {
            Ok(got) => assert_eq!(Some(got), tree, "{ctx}: decode of {declared} bits"),
            Err(e) => {
                assert_eq!(tree, None, "{ctx}: served decode failed: {e}");
                assert_eq!(e.code, ErrorCode::CorruptPayload, "{ctx}");
            }
        }
    }

    // A declared length past the buffer.
    let e = book.decode(&bytes, bytes.len() as u64 * 8 + 1).unwrap_err();
    assert_eq!(e.code, ErrorCode::CorruptPayload, "{ctx}");

    // A byte outside the alphabet, anywhere in the payload.
    if n < 256 {
        let mut bad = payload.to_vec();
        bad.insert(bad.len() / 2, n as u8);
        let e = book.encode(&bad).unwrap_err();
        assert_eq!(e.code, ErrorCode::SymbolOutOfRange, "{ctx}");
        assert_eq!(e.message, format!("symbol {n} outside alphabet of {n}"));
    }
}

/// Builds `histogram` under every family that accepts it and checks
/// each book on `payload` (reduced into the alphabet).
fn check_all_families(histogram: &Histogram, payload: &[u8], garbage: &[u8], cut: u64) {
    let n = histogram.alphabet();
    let payload: Vec<u8> = payload
        .iter()
        .map(|&b| (usize::from(b) % n) as u8)
        .collect();
    for family in FamilyId::ALL {
        // Families have alphabet caps and depth bounds (minimax on a
        // long skewed tail needs more than 64 bits); construction
        // failures are not what this test is about.
        if let Ok(book) = Codebook::build(histogram, family, &CostTracer::disabled()) {
            check(&book, &payload, garbage, cut);
        }
    }
}

/// Counts halving from `2^30` down a tail of ones: Huffman realizes
/// the halving run as a chain (codes up to 31 bits).
fn skewed(n: usize) -> Vec<u32> {
    (0..n).map(|i| (1u32 << 30 >> i.min(30)).max(1)).collect()
}

/// Counts `1, 2, …, n`: every minimax merge `max(a, b) + 1` ties with
/// the next leaf, so the tree is a chain and `n = 65` reaches a 64-bit
/// codeword.
fn staircase(n: usize) -> Vec<u32> {
    (1..=n as u32).collect()
}

#[test]
fn deep_codes_up_to_64_bits_match_the_oracle() {
    let payload: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
    let garbage = [0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xFF];
    let mut deepest = 0;
    for n in [2, 3, 8, 31, 32, 33, 57, 58, 63, 64, 65] {
        for counts in [skewed(n), staircase(n)] {
            let histogram = Histogram::new(counts).unwrap();
            check_all_families(&histogram, &payload, &garbage, 3);
            let book = Codebook::build(&histogram, FamilyId::Minimax, &CostTracer::disabled());
            if let Ok(book) = book {
                deepest = deepest.max(*book.lengths.iter().max().unwrap());
            }
        }
    }
    assert_eq!(deepest, 64, "the sweep must reach a 64-bit codeword");
}

#[test]
fn all_zero_stream_and_all_ones_stream() {
    // Long runs of one bit value walk the deepest codeword (all zeros
    // in the deepest-first convention) and the shortest one.
    for n in [2, 16, 64, 65] {
        for counts in [skewed(n), staircase(n)] {
            let histogram = Histogram::new(counts).unwrap();
            check_all_families(&histogram, &[0; 300], &[0xFF; 16], 1);
            check_all_families(&histogram, &[(n - 1) as u8; 300], &[0x00; 16], 7);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random histograms (zeros allowed), random payloads.
    #[test]
    fn random_histograms(
        counts in prop::collection::vec(0u32..5000, 2..=256),
        payload in prop::collection::vec(any::<u8>(), 0..600),
        garbage in prop::collection::vec(any::<u8>(), 0..24),
        cut in 0u64..72,
    ) {
        if let Ok(histogram) = Histogram::new(counts) {
            check_all_families(&histogram, &payload, &garbage, cut);
        }
    }

    /// Tie-heavy histograms: every count equal.
    #[test]
    fn equal_count_histograms(
        n in 2usize..=256,
        count in 1u32..1000,
        payload in prop::collection::vec(any::<u8>(), 0..600),
        garbage in prop::collection::vec(any::<u8>(), 0..24),
        cut in 0u64..72,
    ) {
        let histogram = Histogram::new(vec![count; n]).unwrap();
        check_all_families(&histogram, &payload, &garbage, cut);
    }

    /// Histograms derived from the payload itself, as a client builds
    /// them: few distinct counts, many ties, zero-count symbols.
    #[test]
    fn payload_derived_histograms(
        n in 2usize..=256,
        raw in prop::collection::vec(0u8..24, 1..600),
        garbage in prop::collection::vec(any::<u8>(), 0..24),
        cut in 0u64..72,
    ) {
        let payload: Vec<u8> = raw.iter().map(|&b| (usize::from(b) % n) as u8).collect();
        let histogram = Histogram::of_payload(n, &payload).unwrap();
        check_all_families(&histogram, &payload, &garbage, cut);
    }
}
