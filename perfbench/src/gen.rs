//! Deterministic inputs: every histogram, payload and op the benchmark
//! sends is a pure function of the seed, the workload and the op index.

use partree_service::frame::Histogram;
use partree_service::FamilyId;

/// SplitMix64: small, fast and good enough to draw benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator keyed by a path of integers (seed, stream, index…),
    /// so any op can be drawn without drawing the ones before it.
    pub fn keyed(parts: &[u64]) -> Rng {
        let mut h = 0x243f_6a88_85a3_08d3u64;
        for &p in parts {
            h = mix(h ^ p.wrapping_add(0x9e37_79b9_7f4a_7c15));
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Stream tags keep the workloads' and the warm-ups' draws apart.
pub mod stream {
    pub const WARM: u64 = 1;
    pub const COLD: u64 = 2;
    pub const COLD_WARMUP: u64 = 3;
    pub const DRIFT: u64 = 4;
    pub const DRIFT_WARMUP: u64 = 5;
    pub const OPS: u64 = 6;
    pub const WARM_WARMUP: u64 = 7;
}

/// Exponent of [`skewed_counts`]. It is the same for every seed: a seed
/// only permutes the symbols and draws the samples, so the work an op
/// does, and with it every metric, does not depend on the seed.
const ZIPF_EXPONENT: f64 = 1.2;

/// Zipf-like counts over `n` symbols in a random symbol order, total
/// near 2²⁰, every count at least 1. The spread from ~2¹⁹ down to 1 is
/// what makes minimax trees deep.
pub fn skewed_counts(rng: &mut Rng, n: usize) -> Vec<u32> {
    let s = ZIPF_EXPONENT;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let sum: f64 = weights.iter().sum();
    let mut counts = vec![0u32; n];
    for (rank, &sym) in order.iter().enumerate() {
        let c = (f64::from(1u32 << 20) * weights[rank] / sum) as u32;
        counts[sym] = c.max(1) + rng.below(4) as u32;
    }
    counts
}

/// `n` pairwise-distinct counts in `[1000, 1_001_000)`, so Huffman's
/// leaf weights never tie.
pub fn distinct_counts(rng: &mut Rng, n: usize) -> Vec<u32> {
    let mut counts: Vec<u32> = Vec::with_capacity(n);
    while counts.len() < n {
        let c = 1000 + rng.below(1_000_000) as u32;
        if !counts.contains(&c) {
            counts.push(c);
        }
    }
    counts
}

/// `len` symbols drawn in proportion to `counts` (zero counts never
/// appear).
pub fn sample_payload(rng: &mut Rng, counts: &[u32], len: usize) -> Vec<u8> {
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

/// At most four sparse deltas, each at most 10% of its symbol's count
/// and at least 1, that keep every touched count at least 1.
pub fn sparse_drift(rng: &mut Rng, counts: &[u32]) -> Vec<(u16, i32)> {
    let k = 1 + rng.below(4) as usize;
    let mut deltas: Vec<(u16, i32)> = Vec::with_capacity(k);
    for _ in 0..k * 4 {
        if deltas.len() == k {
            break;
        }
        let s = rng.below(counts.len() as u64) as usize;
        let c = counts[s];
        if c == 0 || deltas.iter().any(|&(t, _)| usize::from(t) == s) {
            continue;
        }
        let mag = 1 + rng.below(u64::from(c / 10) + 1) as i32;
        let down = c > 1 && rng.below(2) == 0;
        let d = if down { -mag.min(c as i32 - 1) } else { mag };
        deltas.push((s as u16, d));
    }
    deltas.sort_unstable();
    deltas
}

/// Applies sparse deltas (the generator keeps every count ≥ 0).
pub fn apply_drift(counts: &[u32], deltas: &[(u16, i32)]) -> Vec<u32> {
    let mut out = counts.to_vec();
    for &(s, d) in deltas {
        let c = &mut out[usize::from(s)];
        *c = (i64::from(*c) + i64::from(d)) as u32;
    }
    out
}

pub fn histogram(counts: Vec<u32>) -> Histogram {
    Histogram::new(counts).expect("generated histograms are valid")
}

/// One item of the warm working set.
#[derive(Debug, Clone)]
pub struct WarmItem {
    pub family: FamilyId,
    pub histogram: Histogram,
    pub payloads: Vec<Vec<u8>>,
}

/// Payloads per warm item: an op picks one, so the payload bytes are
/// not all the same and their reference encodings fit in memory.
pub const WARM_PAYLOADS: usize = 4;
pub const WARM_PAYLOAD_LEN: usize = 16 * 1024;

/// The warm working set: Huffman, Shannon–Fano and minimax at
/// n = 32/64/128/256 and choosable-edge at n = 8/12/16/24.
pub fn warm_items(seed: u64) -> Vec<WarmItem> {
    let mut items = Vec::new();
    for family in FamilyId::ALL {
        let sizes: [usize; 4] = match family {
            FamilyId::ChoosableEdge => [8, 12, 16, 24],
            _ => [32, 64, 128, 256],
        };
        for n in sizes {
            let mut rng = Rng::keyed(&[seed, stream::WARM, family.tag().into(), n as u64]);
            let counts = skewed_counts(&mut rng, n);
            let payloads = (0..WARM_PAYLOADS)
                .map(|_| sample_payload(&mut rng, &counts, WARM_PAYLOAD_LEN))
                .collect();
            items.push(WarmItem {
                family,
                histogram: histogram(counts),
                payloads,
            });
        }
    }
    items
}

/// One warm op: encode or decode payload `payload` of item `item`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmOp {
    pub item: usize,
    pub payload: usize,
    pub decode: bool,
}

/// Op `i` of the warm op stream `tag`, drawn over the `live` item
/// indices.
pub fn warm_op(seed: u64, tag: u64, i: u64, live: &[usize]) -> WarmOp {
    let mut rng = Rng::keyed(&[seed, stream::OPS, tag, i]);
    WarmOp {
        item: live[rng.below(live.len() as u64) as usize],
        payload: rng.below(WARM_PAYLOADS as u64) as usize,
        decode: rng.below(2) == 1,
    }
}

pub const COLD_PAYLOAD_LEN: usize = 256;

/// A cold op: a histogram never seen before and a payload to encode.
#[derive(Debug, Clone)]
pub struct ColdOp {
    pub family: FamilyId,
    pub histogram: Histogram,
    pub payload: Vec<u8>,
}

/// Cold op `i` of `stream`: 60% Huffman (30% at n = 32, 20% at
/// n = 64, 10% at n = 96), 20% Shannon–Fano at n = 256, 10% minimax at
/// n = 64, 10% choosable-edge at n = 12. The split of the Huffman share
/// keeps the median op inside the n = 32 cluster of construction times
/// rather than in the gap between two clusters, where it would jump.
pub fn cold_op(seed: u64, stream: u64, i: u64) -> ColdOp {
    let mut rng = Rng::keyed(&[seed, stream, i]);
    let (family, n) = match rng.below(10) {
        0..=2 => (FamilyId::Huffman, 32),
        3 | 4 => (FamilyId::Huffman, 64),
        5 => (FamilyId::Huffman, 96),
        6 | 7 => (FamilyId::ShannonFano, 256),
        8 => (FamilyId::Minimax, 64),
        _ => (FamilyId::ChoosableEdge, 12),
    };
    let counts = skewed_counts(&mut rng, n);
    let payload = sample_payload(&mut rng, &counts, COLD_PAYLOAD_LEN);
    ColdOp {
        family,
        histogram: histogram(counts),
        payload,
    }
}

pub const DRIFT_PAYLOAD_LEN: usize = 1024;
/// Drift steps per chain; a chain is one seed encode plus this many
/// `EncodeDelta`/`DecodeDelta` pairs.
pub const DRIFT_STEPS: u64 = 8;

/// The four chain kinds, in rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainKind {
    /// Huffman n = 64 with distinct counts: the patch path.
    HuffmanDistinct,
    /// Huffman n = 64 from a payload's counts, which tie: the fallback.
    HuffmanPayload,
    /// Shannon–Fano n = 256.
    ShannonFano,
    /// Minimax n = 64.
    Minimax,
}

impl ChainKind {
    pub fn of(chain: u64) -> ChainKind {
        match chain % 4 {
            0 => ChainKind::HuffmanDistinct,
            1 => ChainKind::HuffmanPayload,
            2 => ChainKind::ShannonFano,
            _ => ChainKind::Minimax,
        }
    }

    pub fn family(self) -> FamilyId {
        match self {
            ChainKind::HuffmanDistinct | ChainKind::HuffmanPayload => FamilyId::Huffman,
            ChainKind::ShannonFano => FamilyId::ShannonFano,
            ChainKind::Minimax => FamilyId::Minimax,
        }
    }
}

/// One drift chain: the base histogram and, per step, the deltas
/// against the previous step and the step's payload.
#[derive(Debug, Clone)]
pub struct Chain {
    pub kind: ChainKind,
    /// `hists[0]` is the base; `hists[s]` is the histogram after step `s`.
    pub hists: Vec<Histogram>,
    /// `deltas[s - 1]` moves `hists[s - 1]` to `hists[s]`.
    pub deltas: Vec<Vec<(u16, i32)>>,
    /// `payloads[s]` is sent at step `s` (index 0 with the seed encode).
    pub payloads: Vec<Vec<u8>>,
}

/// Chain `c` of `stream`.
pub fn chain(seed: u64, stream: u64, c: u64) -> Chain {
    let kind = ChainKind::of(c);
    let mut rng = Rng::keyed(&[seed, stream, c]);
    let base = match kind {
        ChainKind::HuffmanDistinct => distinct_counts(&mut rng, 64),
        ChainKind::HuffmanPayload => {
            let shape = skewed_counts(&mut rng, 64);
            let p = sample_payload(&mut rng, &shape, DRIFT_PAYLOAD_LEN);
            let mut counts = vec![0u32; 64];
            for b in p {
                counts[usize::from(b)] += 1;
            }
            counts
        }
        ChainKind::ShannonFano => skewed_counts(&mut rng, 256),
        ChainKind::Minimax => skewed_counts(&mut rng, 64),
    };
    let mut hists = vec![histogram(base.clone())];
    let mut deltas = Vec::new();
    let mut payloads = vec![sample_payload(&mut rng, &base, DRIFT_PAYLOAD_LEN)];
    let mut counts = base;
    for _ in 0..DRIFT_STEPS {
        let d = sparse_drift(&mut rng, &counts);
        counts = apply_drift(&counts, &d);
        payloads.push(sample_payload(&mut rng, &counts, DRIFT_PAYLOAD_LEN));
        hists.push(histogram(counts.clone()));
        deltas.push(d);
    }
    Chain {
        kind,
        hists,
        deltas,
        payloads,
    }
}
