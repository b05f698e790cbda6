//! Property tests: prefix-code round trips, canonical codes from
//! arbitrary feasible lengths, Shannon–Fano bounds on arbitrary
//! weights.

use partree_codes::analysis::{entropy, expected_length, kraft_slack, redundancy};
use partree_codes::canonical::canonical_code;
use partree_codes::decoder::CanonicalDecoder;
use partree_codes::prefix::PrefixCode;
use partree_codes::shannon_fano::shannon_fano;
use partree_codes::table::canonical_kernels;
use partree_huffman::sequential::huffman_heap;
use partree_trees::kraft::kraft_feasible;
use proptest::prelude::*;

/// Bends arbitrary raw lengths (each clamped to `1..=64`) into a
/// Kraft-feasible vector, in symbol order: every length grows only as
/// far as the remaining budget (exact, in units of `2^-64`) forces it,
/// so the result mixes short and 64-bit codes and is underfull
/// whenever budget is left over.
fn feasible(raw: &[u32]) -> Vec<u32> {
    let mut budget: u128 = 1 << 64;
    let mut out = Vec::with_capacity(raw.len());
    for (i, &r) in raw.iter().enumerate() {
        let later = (raw.len() - i - 1) as u128;
        let mut l = r.clamp(1, 64);
        while budget < (1u128 << (64 - l)) + later && l < 64 {
            l += 1;
        }
        budget -= 1u128 << (64 - l);
        out.push(l);
    }
    out
}

/// Kraft-feasible length vectors over the shapes the serving path
/// meets: random mixes up to 64 bits (often underfull), tie-heavy
/// vectors of one or two repeated lengths, Huffman lengths of random
/// and equal weights, minimax-style chains `1, 2, …, m, m` up to
/// `m = 64`, and the single-symbol alphabet `[0]`.
fn code_lengths() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        prop::collection::vec(1u32..=64, 1..40).prop_map(|raw| feasible(&raw)),
        prop::collection::vec(1u32..=64, 4..5).prop_map(|v| {
            let (a, b, na, nb) = (v[0] % 8 + 1, v[1], v[2] % 40, v[3] % 40);
            feasible(&[vec![a; na as usize + 1], vec![b; nb as usize]].concat())
        }),
        prop::collection::vec(1u32..300, 2..40).prop_map(|ws| {
            let w: Vec<f64> = ws.iter().map(|&x| f64::from(x)).collect();
            huffman_heap(&w).unwrap().lengths
        }),
        (2usize..200).prop_map(|n| huffman_heap(&vec![1.0; n]).unwrap().lengths),
        (1u32..=64).prop_map(|m| (1..=m).chain([m]).collect()),
        Just(vec![0u32]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode ∘ encode = id for Huffman codes over arbitrary weights
    /// and arbitrary messages.
    /// (Single-symbol alphabets have the empty codeword and decode by
    /// out-of-band counts — see `PrefixCode::decode` — so the roundtrip
    /// property starts at 2 symbols.)
    #[test]
    fn roundtrip_arbitrary_messages(
        ws in prop::collection::vec(1u32..300, 2..24),
        msg_idx in prop::collection::vec(0usize..1000, 0..200),
    ) {
        let w: Vec<f64> = ws.iter().map(|&x| f64::from(x)).collect();
        let h = huffman_heap(&w).unwrap();
        let code = PrefixCode::from_tree(&h.tree, w.len()).unwrap();
        let msg: Vec<usize> = msg_idx.iter().map(|&i| i % w.len()).collect();
        let (bytes, bits) = code.encode(&msg).unwrap();
        prop_assert_eq!(code.decode(&bytes, bits).unwrap(), msg);
    }

    /// Canonical codes accept exactly the Kraft-feasible length vectors
    /// and reproduce the requested lengths.
    #[test]
    fn canonical_iff_kraft(lengths in prop::collection::vec(0u32..12, 1..24)) {
        match canonical_code(&lengths) {
            Ok(code) => {
                prop_assert!(kraft_feasible(&lengths));
                prop_assert_eq!(code.lengths(), lengths);
            }
            Err(_) => prop_assert!(!kraft_feasible(&lengths)),
        }
    }

    /// The table decoder and the tree decoder agree on every canonical
    /// code and message.
    #[test]
    fn table_decoder_equals_tree_decoder(
        ws in prop::collection::vec(1u32..300, 2..24),
        msg_idx in prop::collection::vec(0usize..1000, 0..120),
    ) {
        let w: Vec<f64> = ws.iter().map(|&x| f64::from(x)).collect();
        let h = huffman_heap(&w).unwrap();
        let canon = canonical_code(&h.lengths).unwrap();
        let dec = CanonicalDecoder::from_lengths(&h.lengths).unwrap();
        let msg: Vec<usize> = msg_idx.iter().map(|&i| i % w.len()).collect();
        let (bytes, bits) = canon.encode(&msg).unwrap();
        prop_assert_eq!(canon.decode(&bytes, bits).unwrap(), msg.clone());
        prop_assert_eq!(dec.decode(&bytes, bits).unwrap(), msg);
    }

    /// The serving kernels accept exactly the length vectors the tree
    /// construction accepts.
    #[test]
    fn kernels_accept_what_canonical_code_accepts(
        lengths in prop::collection::vec(0u32..=66, 1..12),
    ) {
        prop_assert_eq!(canonical_kernels(&lengths).is_ok(), canonical_code(&lengths).is_ok());
        prop_assert_eq!(
            CanonicalDecoder::from_lengths(&lengths).is_ok(),
            canonical_code(&lengths).is_ok()
        );
    }

    /// Byte-identical encode against the tree oracle on every code
    /// shape, and the same refusal of an out-of-alphabet symbol.
    #[test]
    fn table_encoder_matches_tree_oracle(
        lengths in code_lengths(),
        msg_idx in prop::collection::vec(0usize..1000, 0..200),
        stray in 0usize..1000,
    ) {
        let oracle = canonical_code(&lengths).unwrap();
        let (enc, _) = canonical_kernels(&lengths).unwrap();
        let n = lengths.len();
        let mut msg: Vec<usize> = msg_idx.iter().map(|&i| i % n).collect();
        prop_assert_eq!(enc.encode(&msg).unwrap(), oracle.encode(&msg).unwrap());
        msg.insert(stray % (msg.len() + 1), n + stray);
        prop_assert!(enc.encode(&msg).is_err());
        prop_assert!(oracle.encode(&msg).is_err());
    }

    /// Differential decode against the tree oracle on every code shape
    /// (lengths up to 64, underfull, single-symbol): valid streams
    /// decode to the message, and on truncated, padded or garbage
    /// input the table decoder and the tree decoder agree on `Ok`
    /// (with the same symbols) versus `Err`.
    #[test]
    fn table_decoder_matches_tree_oracle(
        lengths in code_lengths(),
        msg_idx in prop::collection::vec(0usize..1000, 0..160),
        garbage in prop::collection::vec(any::<u8>(), 0..48),
        cut in 0u64..80,
    ) {
        let oracle = canonical_code(&lengths).unwrap();
        let dec = CanonicalDecoder::from_lengths(&lengths).unwrap();
        let msg: Vec<usize> = msg_idx.iter().map(|&i| i % lengths.len()).collect();
        let (bytes, bits) = oracle.encode(&msg).unwrap();
        if lengths != [0] {
            prop_assert_eq!(dec.decode(&bytes, bits).unwrap(), msg);
        }
        let short = bits.saturating_sub(cut);
        prop_assert_eq!(dec.decode(&bytes, short).ok(), oracle.decode(&bytes, short).ok());
        let mut padded = bytes.clone();
        padded.extend_from_slice(&garbage);
        let total = padded.len() as u64 * 8;
        for declared in [bits, total.saturating_sub(cut), total, total + 1] {
            prop_assert_eq!(
                dec.decode(&padded, declared).ok(),
                oracle.decode(&padded, declared).ok()
            );
        }
    }

    /// Shannon–Fano: entropy ≤ expected length < entropy + 1 (its
    /// textbook guarantee) and Claim 7.1 against Huffman, on arbitrary
    /// positive weights.
    #[test]
    fn shannon_fano_bounds(ws in prop::collection::vec(1u32..5000, 1..40)) {
        let w: Vec<f64> = ws.iter().map(|&x| f64::from(x)).collect();
        let sf = shannon_fano(&w).unwrap();
        let h = entropy(&w).unwrap();
        let el = expected_length(&w, &sf.lengths).unwrap();
        prop_assert!(el >= h - 1e-9, "below entropy: {} < {}", el, h);
        prop_assert!(el < h + 1.0 + 1e-9, "beyond entropy+1: {} vs {}", el, h);
        let huff = huffman_heap(&w).unwrap();
        let total: f64 = w.iter().sum();
        let h_avg = huff.cost.value() / total;
        prop_assert!(el >= h_avg - 1e-9);
        prop_assert!(el <= h_avg + 1.0 + 1e-9);
    }

    /// Decoder hardening: feeding random byte strings (with random
    /// declared bit lengths, including lengths longer than the buffer)
    /// to a random codebook never panics — every outcome is `Ok` with
    /// in-alphabet symbols or a structured `Err`. Both the table
    /// decoder and the tree decoder are exercised.
    #[test]
    fn decoding_garbage_never_panics(
        lengths in prop::collection::vec(0u32..=64, 1..24),
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        slack in 0u64..32,
        overshoot in any::<bool>(),
    ) {
        let total_bits = bytes.len() as u64 * 8;
        let declared = if overshoot {
            total_bits + slack
        } else {
            total_bits.saturating_sub(slack)
        };
        if let Ok(dec) = CanonicalDecoder::from_lengths(&lengths) {
            if let Ok(syms) = dec.decode(&bytes, declared) {
                prop_assert!(syms.iter().all(|&s| s < lengths.len()));
            }
        }
        if let Ok(code) = canonical_code(&lengths) {
            if let Ok(syms) = code.decode(&bytes, declared) {
                prop_assert!(syms.iter().all(|&s| s < lengths.len()));
            }
        }
    }

    /// Redundancy of Huffman codes lies in [0, 1); Kraft slack of a
    /// Huffman code is zero (complete code).
    #[test]
    fn huffman_redundancy_and_slack(ws in prop::collection::vec(1u32..800, 2..32)) {
        let w: Vec<f64> = ws.iter().map(|&x| f64::from(x)).collect();
        let h = huffman_heap(&w).unwrap();
        let r = redundancy(&w, &h.lengths).unwrap();
        prop_assert!((0.0 - 1e-9..1.0).contains(&r), "redundancy {}", r);
        let (complete, slack) = kraft_slack(&h.lengths);
        prop_assert!(complete);
        prop_assert!(slack.abs() < 1e-9);
    }
}
