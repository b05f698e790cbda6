//! Golden bytes for family 0 (Huffman): the lengths
//! `family(Huffman).lengths` returns and the bytes `Codebook::build`
//! encodes for a fixed payload, over a fixed set of histograms. Every
//! replica must serve these bytes, so a change to how family 0 builds
//! its codes must leave this file untouched.
//!
//! The set spans both sides of the two-queue separation gate: skewed
//! counts whose `2n−1` merge weights are pairwise distinct (one optimal
//! length vector), and tie-heavy, all-equal, zero-count and large-`n`
//! skewed histograms, where the optimum is not unique and the paper
//! pipeline's tie order decides. Each case also pins which side of the
//! gate it falls on, through the delta engine's Huffman patch rule.

use partree_codecs::{family, FamilyId};
use partree_delta::patch::patch;
use partree_pram::CostTracer;
use partree_service::codebook::Codebook;
use partree_service::frame::Histogram;

/// SplitMix64, so every input is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}

/// Zipf-like counts with exponent 1.25 (total near 2²⁰, every count at
/// least 1, small jitter) in a shuffled symbol order. `r^1.25` is
/// computed as `r·√√r`: square roots are correctly rounded in IEEE
/// arithmetic, so the counts are the same on every platform.
fn skewed(seed: u64, n: usize) -> Vec<u32> {
    let mut rng = Rng(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let weights: Vec<f64> = (1..=n)
        .map(|r| {
            let r = r as f64;
            1.0 / (r * r.sqrt().sqrt())
        })
        .collect();
    let sum: f64 = weights.iter().sum();
    let mut counts = vec![0u32; n];
    for (rank, &sym) in order.iter().enumerate() {
        let c = (f64::from(1u32 << 20) * weights[rank] / sum) as u32;
        counts[sym] = c.max(1) + rng.below(4) as u32;
    }
    counts
}

/// `len` symbols drawn in proportion to `counts`.
fn sample(seed: u64, counts: &[u32], len: usize) -> Vec<u8> {
    let mut rng = Rng(seed);
    let mut cum = Vec::with_capacity(counts.len());
    let mut total = 0u64;
    for &c in counts {
        total += u64::from(c);
        cum.push(total);
    }
    (0..len)
        .map(|_| {
            let x = rng.below(total);
            cum.partition_point(|&c| c <= x) as u8
        })
        .collect()
}

/// 64-bit FNV-1a.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// One pinned case: what the family serves for `counts`, and what a
/// codebook built from it encodes.
struct Golden {
    name: &'static str,
    counts: Vec<u32>,
    /// Whether all `2n−1` two-queue merge weights are pairwise distinct.
    separated: bool,
    /// `Σ wᵢ·lᵢ` of the served lengths.
    cost: u64,
    /// FNV-1a over the served lengths' little-endian `u32` bytes.
    lengths_fnv: u64,
    /// Bit length of the encoded payload.
    bit_len: u64,
    /// FNV-1a over the encoded payload bytes.
    data_fnv: u64,
}

fn cases() -> Vec<Golden> {
    let near_max: Vec<u32> = [0u32, 1, 3, 7, 20, 55, 150, 400]
        .iter()
        .map(|&d| u32::MAX - d)
        .collect();
    let mut one_zero = skewed(7, 16);
    one_zero[5] = 0;
    let mut two_zeros = skewed(7, 16);
    two_zeros[5] = 0;
    two_zeros[11] = 0;
    let payload_counts = {
        let payload = sample(64, &skewed(64, 64), 1024);
        Histogram::of_payload(64, &payload)
            .expect("valid payload")
            .counts()
            .to_vec()
    };
    #[rustfmt::skip]
    let table = [
        ("skewed_32", skewed(1, 32), true, 3876924, 0x469c84d0d92250d3, 7592, 0xde0ee95ff50bc7cb),
        ("skewed_64", skewed(2, 64), true, 4406513, 0x66f16461e2f869a6, 8547, 0x71cc584781934d99),
        ("skewed_96", skewed(4, 96), true, 4691669, 0xc6abd2076bc6dbf4, 9121, 0xd2531eaa9aceb706),
        ("skewed_96_tied", skewed(3, 96), false, 4691691, 0x1a0ae81c6ff72f94, 9340, 0x969d3ce7860f8c4b),
        ("payload_64", payload_counts, false, 4296, 0x6dc1fa2f242b99ea, 8552, 0xa5cf0d5c41f7d4e0),
        ("all_equal", vec![7; 16], false, 448, 0x232bf181d0bf7625, 8192, 0x01a6bb803b112dd2),
        ("one_zero", one_zero, false, 3146540, 0x1a3d652a1269d3d7, 6264, 0x8ae6ad84f6dc64b0),
        ("two_zeros", two_zeros, false, 2115926, 0x5fa497093372b1a4, 6915, 0x75bb16ca4d861b61),
        ("n2", vec![3, 10], true, 13, 0xb89f91317360ac35, 2048, 0x8c8bd8a5bf2a433c),
        ("near_max", near_max, true, 103079213172, 0x6a94c93ec58217e5, 6144, 0x3503ac98b099321d),
        ("skewed_256", skewed(4, 256), false, 5318081, 0xffef0005f98b27fb, 10470, 0x51d86d009ea73658),
    ];
    table
        .into_iter()
        .map(
            |(name, counts, separated, cost, lengths_fnv, bit_len, data_fnv)| Golden {
                name,
                counts,
                separated,
                cost,
                lengths_fnv,
                bit_len,
                data_fnv,
            },
        )
        .collect()
}

#[test]
fn huffman_serves_the_pinned_lengths_and_bytes() {
    let mut report = Vec::new();
    let mut moved = Vec::new();
    for g in cases() {
        let lengths = family(FamilyId::Huffman)
            .lengths(&g.counts)
            .expect("valid counts");
        let cost: u64 = g
            .counts
            .iter()
            .zip(&lengths)
            .map(|(&c, &l)| u64::from(c) * u64::from(l))
            .sum();
        let lengths_fnv = fnv(lengths.iter().flat_map(|l| l.to_le_bytes()));

        let histogram = Histogram::new(g.counts.clone()).expect("valid histogram");
        let book = Codebook::build(&histogram, FamilyId::Huffman, &CostTracer::new())
            .expect("codebook builds");
        assert_eq!(book.lengths, lengths, "{}: traced build differs", g.name);
        let payload = sample(0x5eed ^ g.counts.len() as u64, &g.counts, 2048);
        let (data, bit_len) = book.encode(&payload).expect("payload encodes");
        assert_eq!(
            book.decode(&data, bit_len).expect("payload decodes"),
            payload,
            "{}: roundtrip",
            g.name
        );
        let separated = patch(FamilyId::Huffman, &g.counts).is_some();
        let data_fnv = fnv(data.iter().copied());
        report.push(format!(
            "(\"{}\", {separated}, {cost}, {lengths_fnv:#018x}, {bit_len}, {data_fnv:#018x}),",
            g.name
        ));
        let measured = (separated, cost, lengths_fnv, bit_len, data_fnv);
        if measured != (g.separated, g.cost, g.lengths_fnv, g.bit_len, g.data_fnv) {
            moved.push(g.name);
        }
    }
    assert!(
        moved.is_empty(),
        "served bytes moved for {moved:?}; measured:\n{}",
        report.join("\n")
    );
}
