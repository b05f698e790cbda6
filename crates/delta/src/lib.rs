//! # partree-delta
//!
//! Incremental codebook maintenance for drifting histograms.
//!
//! Real traffic histograms drift: counts wobble within a bounded ratio
//! while the shape of the distribution — and usually the optimal code —
//! stays put. This crate gives the service a cheap path for a changed
//! histogram key: given the cached **base** codebook and the
//! **drifted** counts, [`classify`] the drift (per-symbol weight ratio
//! against a configurable bound, added/removed symbols, alphabet
//! changes) and [`apply`] either a per-family **patch rule** or the
//! family's full from-scratch construction.
//!
//! The patch rules are *exact by construction*, never heuristic:
//!
//! * **Huffman** — the family's own two-queue kernel
//!   (`partree_codecs::two_queue::separated_lengths`): a merge over the
//!   sorted leaves, `O(n log n)`, accepted only under **strict
//!   separation** — all `2n−1` node weights pairwise distinct — which
//!   forces every greedy merge and makes the optimal depth vector
//!   unique (the maximal-chain view of Foldes, arXiv 1306.5497), and
//!   witnessed by a sibling-property check. `family(Huffman)` runs the
//!   same kernel first, so a patch is the from-scratch answer; on a tie
//!   the rebuild runs the family's tie kernel (an exact sequential
//!   `O(n²)` height-bounded DP with the Theorem 5.1 pipeline's tie
//!   rule).
//! * **Shannon–Fano** — the closed form `lᵢ = ⌈log₂(W/wᵢ)⌉` *is* the
//!   family's reference; the patch recomputes it directly (`O(n log W)`)
//!   and is identical to from-scratch by definition.
//! * **Minimax**, **choosable-edge** — no patch rule: minimax's
//!   reference is already near-linear and choosable-edge's
//!   exponential-state DP has no separable spine region, so both take
//!   the per-family fallback (counted by the service as
//!   `delta_fallbacks`).
//!
//! [`apply`] reports which path ran ([`DeltaPath`]) plus a work
//! estimate for both paths, so callers (and experiment E18) can see the
//! patched-vs-rebuild crossover that makes the default drift bound
//! defensible.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod drift;
pub mod patch;

pub use drift::{apply_sparse, classify, DeltaConfig, Drift};

use partree_codecs::{family, FamilyId};
use partree_core::Result;

/// Which path produced the served lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaPath {
    /// The per-family patch rule ran and its exact verification passed.
    Patched,
    /// Full from-scratch reconstruction (drift out of bounds, a family
    /// without a patch rule, or a patch-rule verification failure).
    Rebuilt,
}

impl DeltaPath {
    /// Stable wire tag (`DeltaOk` responses carry it).
    pub fn tag(self) -> u8 {
        match self {
            DeltaPath::Patched => 0,
            DeltaPath::Rebuilt => 1,
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: u8) -> Option<DeltaPath> {
        match tag {
            0 => Some(DeltaPath::Patched),
            1 => Some(DeltaPath::Rebuilt),
            _ => None,
        }
    }
}

/// The outcome of [`apply`]: the lengths to serve, which path produced
/// them, the classified drift, and the work model for both paths.
#[derive(Debug, Clone)]
pub struct DeltaResult {
    /// Code lengths for the drifted histogram, in symbol order —
    /// bit-identical to `family(id).lengths(drifted)` whichever path
    /// ran.
    pub lengths: Vec<u32>,
    /// Which path ran.
    pub path: DeltaPath,
    /// The drift classification that chose the path.
    pub drift: Drift,
    /// Estimated operations for the patch path at this alphabet size.
    pub patch_work: u64,
    /// Estimated operations for a full rebuild at this alphabet size.
    pub rebuild_work: u64,
}

/// Maintains a codebook across a drift: classifies `drifted` against
/// the base, runs the family's patch rule when the drift is bounded and
/// the rule's exact verification accepts, and falls back to full
/// reconstruction otherwise. The returned lengths are bit-identical to
/// `family(id).lengths(drifted)` in every case; only the cost differs.
///
/// `base_lengths` must be the lengths the family built for
/// `base_counts` (the cached codebook's); they are served directly when
/// the drift is [`Drift::Unchanged`].
pub fn apply(
    id: FamilyId,
    base_counts: &[u32],
    base_lengths: &[u32],
    drifted: &[u32],
    cfg: &DeltaConfig,
) -> Result<DeltaResult> {
    let fam = family(id);
    let n = drifted.len();
    let drift = classify(base_counts, drifted, cfg);
    let patch_work = patch::patch_estimate(id, n);
    let rebuild_work = patch::rebuild_estimate(id, n);
    let done = |lengths: Vec<u32>, path: DeltaPath| DeltaResult {
        lengths,
        path,
        drift,
        patch_work,
        rebuild_work,
    };

    if drift == Drift::Unchanged && base_lengths.len() == n {
        return Ok(done(base_lengths.to_vec(), DeltaPath::Patched));
    }

    // Patch only bounded drifts of well-formed histograms; everything
    // else goes through the family layer, which owns validation and
    // error wording.
    let well_formed = (2..=fam.max_alphabet()).contains(&n) && drifted.iter().any(|&c| c > 0);
    if matches!(drift, Drift::Bounded { .. }) && well_formed {
        if let Some(lengths) = patch::patch(id, drifted) {
            return Ok(done(lengths, DeltaPath::Patched));
        }
    }
    Ok(done(fam.lengths(drifted)?, DeltaPath::Rebuilt))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Deterministic pseudo-random counts with mostly-distinct values.
    fn counts(n: usize, seed: u64) -> Vec<u32> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| (xorshift(&mut s) % 1_000_000 + 1) as u32)
            .collect()
    }

    /// Bounded drift: each count multiplied by a factor in [0.75, 1.33].
    fn drift_bounded(base: &[u32], seed: u64) -> Vec<u32> {
        let mut s = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        base.iter()
            .map(|&c| {
                let r = xorshift(&mut s) % 100;
                let c = u64::from(c);
                let d = (c * (75 + r) / 100).clamp(1, u64::from(u32::MAX));
                d as u32
            })
            .collect()
    }

    #[test]
    fn unchanged_drift_serves_base_lengths_as_patched() {
        let base = counts(20, 1);
        for f in FamilyId::ALL {
            if base.len() > family(f).max_alphabet() {
                continue;
            }
            let lengths = family(f).lengths(&base).unwrap();
            let r = apply(f, &base, &lengths, &base, &DeltaConfig::default()).unwrap();
            assert_eq!(r.path, DeltaPath::Patched, "{f}");
            assert_eq!(r.lengths, lengths, "{f}");
            assert_eq!(r.drift, Drift::Unchanged);
        }
    }

    #[test]
    fn patched_lengths_match_from_scratch_for_every_family() {
        let cfg = DeltaConfig::default();
        for seed in 0..10u64 {
            for &n in &[2usize, 3, 8, 17, 32, 96] {
                let base = counts(n, seed);
                let drifted = drift_bounded(&base, seed + 1000);
                for f in FamilyId::ALL {
                    if n > family(f).max_alphabet() {
                        continue;
                    }
                    let base_lengths = family(f).lengths(&base).unwrap();
                    let r = apply(f, &base, &base_lengths, &drifted, &cfg).unwrap();
                    let scratch = family(f).lengths(&drifted).unwrap();
                    assert_eq!(
                        r.lengths, scratch,
                        "{f} n={n} seed={seed} path={:?}",
                        r.path
                    );
                }
            }
        }
    }

    #[test]
    fn huffman_and_sf_patch_on_bounded_drift_of_distinct_counts() {
        // Large distinct counts: ties in the 2n−1 merge values are
        // vanishingly rare, so the Huffman patch rule must accept.
        let cfg = DeltaConfig::default();
        let mut patched = [0usize; 2];
        for seed in 0..12u64 {
            let base = counts(64, seed);
            let drifted = drift_bounded(&base, seed + 7);
            for (slot, f) in [FamilyId::Huffman, FamilyId::ShannonFano]
                .iter()
                .enumerate()
            {
                let bl = family(*f).lengths(&base).unwrap();
                let r = apply(*f, &base, &bl, &drifted, &cfg).unwrap();
                if r.path == DeltaPath::Patched {
                    patched[slot] += 1;
                }
            }
        }
        assert!(patched[0] >= 9, "huffman patched only {}/12", patched[0]);
        assert_eq!(patched[1], 12, "sf patch rule is total");
    }

    #[test]
    fn families_without_patch_rules_fall_back() {
        let cfg = DeltaConfig::default();
        let base = counts(16, 3);
        let drifted = drift_bounded(&base, 4);
        for f in [FamilyId::Minimax, FamilyId::ChoosableEdge] {
            let bl = family(f).lengths(&base).unwrap();
            let r = apply(f, &base, &bl, &drifted, &cfg).unwrap();
            assert_eq!(r.path, DeltaPath::Rebuilt, "{f}");
            assert_eq!(r.lengths, family(f).lengths(&drifted).unwrap());
        }
    }

    #[test]
    fn tied_histograms_fall_back_and_stay_exact() {
        // Uniform counts tie everywhere: strict separation fails, the
        // patch rule must refuse, and the fallback (the tie kernel) must
        // serve the pipeline's exact lengths.
        let base = vec![7u32; 16];
        let drifted = vec![8u32; 16];
        let bl = family(FamilyId::Huffman).lengths(&base).unwrap();
        let r = apply(
            FamilyId::Huffman,
            &base,
            &bl,
            &drifted,
            &DeltaConfig::default(),
        )
        .unwrap();
        assert_eq!(r.path, DeltaPath::Rebuilt);
        assert_eq!(
            r.lengths,
            family(FamilyId::Huffman).lengths(&drifted).unwrap()
        );
    }

    #[test]
    fn out_of_bound_drift_rebuilds() {
        let base = counts(16, 9);
        let mut drifted = base.clone();
        drifted[3] = drifted[3].saturating_mul(5);
        let bl = family(FamilyId::Huffman).lengths(&base).unwrap();
        let r = apply(
            FamilyId::Huffman,
            &base,
            &bl,
            &drifted,
            &DeltaConfig::default(),
        )
        .unwrap();
        assert_eq!(r.path, DeltaPath::Rebuilt);
        assert!(matches!(r.drift, Drift::ExceedsBound { symbol: 3, .. }));
    }

    #[test]
    fn invalid_drifted_histograms_error_like_the_family_layer() {
        let base = vec![5u32, 5];
        let bl = vec![1u32, 1];
        let cfg = DeltaConfig::default();
        // All-zero drift.
        assert!(apply(FamilyId::Huffman, &base, &bl, &[0, 0], &cfg).is_err());
        // Over the family's alphabet cap.
        let big = vec![1u32; 33];
        assert!(apply(FamilyId::ChoosableEdge, &big[..32], &bl, &big, &cfg).is_err());
    }

    #[test]
    fn work_estimates_favor_the_patch_for_huffman() {
        for &n in &[16usize, 64, 256] {
            let patch = patch::patch_estimate(FamilyId::Huffman, n);
            let rebuild = patch::rebuild_estimate(FamilyId::Huffman, n);
            assert!(
                patch * 8 < rebuild,
                "n={n}: patch {patch} not clearly under rebuild {rebuild}"
            );
        }
    }

    #[test]
    fn path_tags_roundtrip() {
        for p in [DeltaPath::Patched, DeltaPath::Rebuilt] {
            assert_eq!(DeltaPath::from_tag(p.tag()), Some(p));
        }
        assert_eq!(DeltaPath::from_tag(2), None);
    }
}
