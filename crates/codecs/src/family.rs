//! Code families: the identity tags, the construction trait, and the
//! family-tagged cache key.
//!
//! A **family** maps a histogram to canonical code lengths under its
//! own objective. The service keys codebooks (tier-0 cache, tier-1
//! store records, gateway HRW routing) by [`FamilyId::tagged_key`], so
//! two families never collide on the same histogram — and the Huffman
//! tag is the *identity* mapping, which keeps every pre-existing store
//! record and routing decision exactly where it was.

use crate::{choosable, minimax, shannon_fano, tie_kernel, two_queue};
use partree_core::{Error, Result};
use partree_pram::CostTracer;

/// Identifies one code family on the wire, in cache keys, and in store
/// records. The numeric tags are a stable protocol contract: `Huffman`
/// is 0 so every legacy artifact (v1 store records, untagged warm-up
/// entries) reads back as the family it was built by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum FamilyId {
    /// Classic Huffman — minimize `Σ wᵢ·lᵢ` (the default, tag 0).
    #[default]
    Huffman = 0,
    /// Shannon–Fano (Theorem 7.4) — `lᵢ = ⌈log₂(W/wᵢ)⌉`, within one
    /// bit of Huffman in expected length (Claim 7.1).
    ShannonFano = 1,
    /// Minimax trees — minimize `maxᵢ (wᵢ + lᵢ)` (arXiv 0812.2868).
    Minimax = 2,
    /// Generalized Huffman with choosable edge lengths drawn from the
    /// pair system `{1,3}/{2,2}` (arXiv 1402.3435).
    ChoosableEdge = 3,
}

/// Number of families (array-of-counters dimension in the metrics).
pub const FAMILY_COUNT: usize = 4;

impl FamilyId {
    /// All families, in tag order.
    pub const ALL: [FamilyId; FAMILY_COUNT] = [
        FamilyId::Huffman,
        FamilyId::ShannonFano,
        FamilyId::Minimax,
        FamilyId::ChoosableEdge,
    ];

    /// Parses a wire/store tag.
    pub fn from_u8(tag: u8) -> Option<FamilyId> {
        match tag {
            0 => Some(FamilyId::Huffman),
            1 => Some(FamilyId::ShannonFano),
            2 => Some(FamilyId::Minimax),
            3 => Some(FamilyId::ChoosableEdge),
            _ => None,
        }
    }

    /// The wire/store tag.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Dense index for per-family counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short stable name, used in metrics keys and experiment output.
    pub fn name(self) -> &'static str {
        match self {
            FamilyId::Huffman => "huffman",
            FamilyId::ShannonFano => "sf",
            FamilyId::Minimax => "minimax",
            FamilyId::ChoosableEdge => "choosable",
        }
    }

    /// Mixes the family into a histogram hash to form the cache/store/
    /// routing key. Huffman is the **identity**: the tagged key of the
    /// default family equals the raw `Histogram::hash64`, so tier-1
    /// records written by Huffman-only builds keep their keys and HRW
    /// placement. Other families pass through a splitmix64 finalizer
    /// seeded by the tag, which spreads them over the whole key space
    /// (per-family HRW routing falls out of the same `home()` function
    /// unchanged).
    pub fn tagged_key(self, histogram_hash: u64) -> u64 {
        if self == FamilyId::Huffman {
            return histogram_hash;
        }
        let mut z = histogram_hash ^ (u64::from(self.tag()).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl std::fmt::Display for FamilyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One code family: histogram counts in, canonical code lengths out.
///
/// Contract shared by every implementation:
///
/// * **Determinism** — same counts, same lengths, bit for bit, at any
///   pool width. The service's first-insert-wins cache and the fleet's
///   bit-identical-response guarantee both rest on this.
/// * **Kraft feasibility** — returned lengths always satisfy
///   `Σ 2^{-lᵢ} ≤ 1`, so canonical realization downstream cannot fail
///   for structural reasons.
/// * **One construction path** — [`CodeFamily::lengths`] is
///   [`CodeFamily::lengths_traced`] under a disabled tracer; spans only
///   account for the work, they never change the lengths.
pub trait CodeFamily: Send + Sync {
    /// The family's identity tag.
    fn id(&self) -> FamilyId;

    /// Largest alphabet the family accepts. Requests beyond it are
    /// `UnsupportedAlphabet` at the service layer, not a panic here.
    fn max_alphabet(&self) -> usize;

    /// Upper bound on any length this family can emit for `n` symbols
    /// with `u32` counts — the per-family depth bound the cost model
    /// and the wire's one-byte length encoding rely on.
    fn depth_bound(&self, n: usize) -> u32;

    /// Code length per symbol, in symbol order: the family's one
    /// construction, untraced.
    fn lengths(&self, counts: &[u32]) -> Result<Vec<u32>> {
        self.lengths_traced(counts, &CostTracer::disabled())
    }

    /// The family's construction, with per-phase work/depth spans
    /// opened on `tracer`.
    fn lengths_traced(&self, counts: &[u32], tracer: &CostTracer) -> Result<Vec<u32>>;

    /// The family's cost model evaluated on a candidate length vector:
    /// `Σ wᵢ·lᵢ` for the sum-objective families, `maxᵢ (wᵢ + lᵢ)` for
    /// minimax. Exact integer arithmetic.
    fn cost(&self, counts: &[u32], lengths: &[u32]) -> u64;
}

/// Validates a histogram against a family's alphabet bounds. Shared by
/// the family implementations so they reject exactly alike.
pub(crate) fn check_counts(counts: &[u32], max_alphabet: usize) -> Result<()> {
    if counts.len() < 2 {
        return Err(Error::invalid("need at least two symbols"));
    }
    if counts.len() > max_alphabet {
        return Err(Error::invalid(format!(
            "alphabet size {} exceeds this family's cap of {max_alphabet}",
            counts.len()
        )));
    }
    if counts.iter().all(|&c| c == 0) {
        return Err(Error::invalid("histogram has no nonzero count"));
    }
    Ok(())
}

/// `Σ wᵢ·lᵢ` in exact `u64` arithmetic (counts are `u32`, lengths stay
/// below 256, alphabets below 257 — no overflow possible).
pub(crate) fn weighted_sum(counts: &[u32], lengths: &[u32]) -> u64 {
    counts
        .iter()
        .zip(lengths)
        .map(|(&w, &l)| u64::from(w) * u64::from(l))
        .sum()
}

struct HuffmanFamily;

impl CodeFamily for HuffmanFamily {
    fn id(&self) -> FamilyId {
        FamilyId::Huffman
    }

    fn max_alphabet(&self) -> usize {
        256
    }

    fn depth_bound(&self, n: usize) -> u32 {
        n.saturating_sub(1) as u32
    }

    // The Theorem 5.1 pipeline's tie rule is the reference for this
    // family: the service has always served its lengths, and sequential
    // Huffman (`partree_huffman::sequential`) can legally pick a
    // different optimal tree where weights tie. The two-queue kernel
    // answers where the optimum is unique — all 2n−1 merge weights
    // pairwise distinct. Everywhere else the tie kernel computes the
    // pipeline's `A_H` exactly and runs the pipeline's own first-wins
    // argmins over it, so both return the pipeline's lengths without
    // running the pipeline.
    fn lengths_traced(&self, counts: &[u32], tracer: &CostTracer) -> Result<Vec<u32>> {
        check_counts(counts, self.max_alphabet())?;
        Ok(two_queue::separated_lengths_traced(counts, tracer)
            .unwrap_or_else(|| tie_kernel::huffman_lengths_traced(counts, tracer)))
    }

    fn cost(&self, counts: &[u32], lengths: &[u32]) -> u64 {
        weighted_sum(counts, lengths)
    }
}

struct ShannonFanoFamily;

impl CodeFamily for ShannonFanoFamily {
    fn id(&self) -> FamilyId {
        FamilyId::ShannonFano
    }

    fn max_alphabet(&self) -> usize {
        256
    }

    fn depth_bound(&self, _n: usize) -> u32 {
        // ⌈log₂(256 · 2³²)⌉ = 40: the worst case is one unit count
        // against a total near 2⁴⁰.
        40
    }

    fn lengths_traced(&self, counts: &[u32], tracer: &CostTracer) -> Result<Vec<u32>> {
        check_counts(counts, self.max_alphabet())?;
        Ok(shannon_fano::sf_lengths_traced(counts, tracer))
    }

    fn cost(&self, counts: &[u32], lengths: &[u32]) -> u64 {
        weighted_sum(counts, lengths)
    }
}

struct MinimaxFamily;

impl CodeFamily for MinimaxFamily {
    fn id(&self) -> FamilyId {
        FamilyId::Minimax
    }

    fn max_alphabet(&self) -> usize {
        256
    }

    fn depth_bound(&self, n: usize) -> u32 {
        n.saturating_sub(1) as u32
    }

    fn lengths_traced(&self, counts: &[u32], tracer: &CostTracer) -> Result<Vec<u32>> {
        check_counts(counts, self.max_alphabet())?;
        Ok(minimax::minimax_lengths_traced(counts, tracer))
    }

    fn cost(&self, counts: &[u32], lengths: &[u32]) -> u64 {
        minimax::minimax_cost(counts, lengths)
    }
}

struct ChoosableEdgeFamily;

impl CodeFamily for ChoosableEdgeFamily {
    fn id(&self) -> FamilyId {
        FamilyId::ChoosableEdge
    }

    fn max_alphabet(&self) -> usize {
        choosable::MAX_ALPHABET
    }

    fn depth_bound(&self, n: usize) -> u32 {
        // The longest edge in the pair system is 3.
        3 * n.saturating_sub(1) as u32
    }

    fn lengths_traced(&self, counts: &[u32], tracer: &CostTracer) -> Result<Vec<u32>> {
        check_counts(counts, self.max_alphabet())?;
        choosable::choosable_lengths_traced(counts, tracer)
    }

    fn cost(&self, counts: &[u32], lengths: &[u32]) -> u64 {
        weighted_sum(counts, lengths)
    }
}

static HUFFMAN: HuffmanFamily = HuffmanFamily;
static SHANNON_FANO: ShannonFanoFamily = ShannonFanoFamily;
static MINIMAX: MinimaxFamily = MinimaxFamily;
static CHOOSABLE: ChoosableEdgeFamily = ChoosableEdgeFamily;

/// The registry: one shared implementation per [`FamilyId`].
pub fn family(id: FamilyId) -> &'static dyn CodeFamily {
    match id {
        FamilyId::Huffman => &HUFFMAN,
        FamilyId::ShannonFano => &SHANNON_FANO,
        FamilyId::Minimax => &MINIMAX,
        FamilyId::ChoosableEdge => &CHOOSABLE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partree_trees::kraft::kraft_feasible;

    #[test]
    fn tags_roundtrip_and_reject_garbage() {
        for f in FamilyId::ALL {
            assert_eq!(FamilyId::from_u8(f.tag()), Some(f));
            assert_eq!(family(f).id(), f);
            assert_eq!(FamilyId::ALL[f.index()], f);
        }
        assert_eq!(FamilyId::from_u8(4), None);
        assert_eq!(FamilyId::from_u8(0xFF), None);
        assert_eq!(FamilyId::default(), FamilyId::Huffman);
    }

    #[test]
    fn huffman_tagged_key_is_identity_and_others_spread() {
        let hashes = [0u64, 1, 0xDEAD_BEEF, u64::MAX, 0x1234_5678_9ABC_DEF0];
        for &h in &hashes {
            assert_eq!(FamilyId::Huffman.tagged_key(h), h);
            let mut keys: Vec<u64> = FamilyId::ALL.iter().map(|f| f.tagged_key(h)).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), 4, "families collide on hash {h:#x}");
        }
        // Deterministic across calls.
        assert_eq!(
            FamilyId::Minimax.tagged_key(42),
            FamilyId::Minimax.tagged_key(42)
        );
    }

    #[test]
    fn every_family_emits_kraft_feasible_deterministic_lengths() {
        let cases: [&[u32]; 5] = [
            &[45, 13, 12, 16, 9, 5],
            &[1, 1],
            &[1, 2, 4, 8, 16],
            &[0, 0, 5, 1],
            &[7; 16],
        ];
        for f in FamilyId::ALL {
            for counts in cases {
                let a = family(f).lengths(counts).unwrap();
                let b = family(f).lengths(counts).unwrap();
                let t = family(f)
                    .lengths_traced(counts, &CostTracer::named("t"))
                    .unwrap();
                assert_eq!(a, b, "{f} nondeterministic on {counts:?}");
                assert_eq!(a, t, "{f} traced path diverges on {counts:?}");
                assert!(kraft_feasible(&a), "{f} infeasible on {counts:?}: {a:?}");
                assert_eq!(a.len(), counts.len());
                let bound = family(f).depth_bound(counts.len());
                assert!(
                    a.iter().all(|&l| l <= bound),
                    "{f} exceeds depth bound {bound} on {counts:?}: {a:?}"
                );
            }
        }
    }

    #[test]
    fn families_reject_bad_histograms() {
        for f in FamilyId::ALL {
            assert!(family(f).lengths(&[5]).is_err(), "{f} took 1 symbol");
            assert!(family(f).lengths(&[0, 0]).is_err(), "{f} took all-zero");
            let too_big = vec![1u32; family(f).max_alphabet() + 1];
            assert!(family(f).lengths(&too_big).is_err(), "{f} took oversized");
        }
    }
}
