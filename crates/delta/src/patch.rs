//! Per-family patch rules and the work model.
//!
//! A patch rule may serve lengths for a drifted histogram **only** when
//! it can prove they equal what the family's from-scratch construction
//! would emit. The rules here earn that proof differently:
//!
//! * Huffman runs the family's own exact kernel,
//!   [`two_queue::separated_lengths`]: a two-queue merge over the sorted
//!   leaves that answers only under *strict separation* (all `2n−1`
//!   node weights pairwise distinct, so the optimal depth vector is
//!   unique) and after a sibling-property check. `family(Huffman)`
//!   tries the same kernel first, so a patch is the from-scratch answer
//!   by construction; a refusal here means the rebuild runs the
//!   family's tie kernel ([`tie_kernel`]), the exact sequential `A_H`
//!   DP with the Theorem 5.1 pipeline's tie rule.
//! * Shannon–Fano re-evaluates the family's own closed form, so
//!   equality is definitional.
//!
//! Minimax and choosable-edge return `None` unconditionally: the caller
//! falls back to the family layer.

use partree_codecs::{shannon_fano, tie_kernel, two_queue, FamilyId};

/// True if `id` has a patch rule at all (minimax and choosable-edge do
/// not — their fallbacks are counted separately by the service).
pub fn patchable(id: FamilyId) -> bool {
    matches!(id, FamilyId::Huffman | FamilyId::ShannonFano)
}

/// Runs the family's patch rule on the drifted counts. `None` means the
/// rule refused (no rule for this family, or exact verification
/// failed); the caller must rebuild from scratch. `Some(lengths)` is
/// guaranteed bit-identical to `family(id).lengths(counts)`.
///
/// The counts must already be well-formed for the family (≥ 2 symbols,
/// within its alphabet cap, at least one nonzero count).
pub fn patch(id: FamilyId, counts: &[u32]) -> Option<Vec<u32>> {
    match id {
        FamilyId::Huffman => two_queue::separated_lengths(counts),
        FamilyId::ShannonFano => Some(shannon_fano::sf_lengths(counts)),
        FamilyId::Minimax | FamilyId::ChoosableEdge => None,
    }
}

/// `⌈log₂ n⌉` for `n ≥ 1`.
fn ceil_log2(n: usize) -> u64 {
    u64::from(usize::BITS - n.saturating_sub(1).leading_zeros())
}

/// Estimated operations for a full from-scratch build at alphabet size
/// `n`. Huffman is modelled by its worst case, a tied histogram: the
/// most steps the tie kernel's span can charge at `n`
/// ([`tie_kernel::step_bound`]; a separated histogram rebuilds through
/// the patch's own kernel); Shannon–Fano is the 40-turn doubling per
/// symbol; minimax is sort + linear merge; choosable-edge is the
/// level-synchronous slot DP, whose state space is why the family caps
/// alphabets at 32.
pub fn rebuild_estimate(id: FamilyId, n: usize) -> u64 {
    let n64 = n as u64;
    let logn = ceil_log2(n.max(1));
    match id {
        FamilyId::Huffman => tie_kernel::step_bound(n),
        FamilyId::ShannonFano => 40 * n64,
        FamilyId::Minimax => n64 * logn + n64,
        FamilyId::ChoosableEdge => n64 * n64 * 64,
    }
}

/// Estimated operations for the patch path at alphabet size `n`. For
/// families without a patch rule this equals [`rebuild_estimate`] —
/// the fallback *is* their patch path.
pub fn patch_estimate(id: FamilyId, n: usize) -> u64 {
    let n64 = n as u64;
    let logn = ceil_log2(n.max(1));
    match id {
        // Sort + merge + separation check + sibling verification.
        FamilyId::Huffman => n64 * logn + 4 * n64,
        FamilyId::ShannonFano => 40 * n64,
        FamilyId::Minimax | FamilyId::ChoosableEdge => rebuild_estimate(id, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partree_codecs::family;
    use partree_pram::CostTracer;

    #[test]
    fn huffman_patch_is_the_family_reference_on_separated_counts() {
        for counts in [&[45u32, 13, 12, 16, 9, 5][..], &[100, 1, 3, 7, 31, 200, 55]] {
            assert_eq!(
                patch(FamilyId::Huffman, counts).expect("separated counts patch"),
                family(FamilyId::Huffman).lengths(counts).unwrap()
            );
        }
        assert_eq!(
            patch(FamilyId::Huffman, &[5, 5, 9]),
            None,
            "a leaf tie refuses"
        );
    }

    #[test]
    fn sf_patch_is_the_family_reference() {
        for counts in [&[4u32, 2, 1, 1][..], &[0, 0, 5, 1], &[7; 12]] {
            assert_eq!(
                patch(FamilyId::ShannonFano, counts).unwrap(),
                family(FamilyId::ShannonFano).lengths(counts).unwrap()
            );
        }
    }

    #[test]
    fn unpatchable_families_refuse() {
        assert!(!patchable(FamilyId::Minimax));
        assert!(!patchable(FamilyId::ChoosableEdge));
        assert_eq!(patch(FamilyId::Minimax, &[1, 2, 4]), None);
        assert_eq!(patch(FamilyId::ChoosableEdge, &[1, 2, 4]), None);
        assert!(patchable(FamilyId::Huffman));
        assert!(patchable(FamilyId::ShannonFano));
    }

    #[test]
    fn huffman_rebuild_estimate_bounds_the_tie_kernel_span() {
        // All-equal counts tie everywhere, so the family rebuilds
        // through the tie kernel; its span must stay within the model
        // and the model must not be vacuous.
        for n in [2usize, 3, 16, 64, 100, 256] {
            let t = CostTracer::named("rebuild");
            family(FamilyId::Huffman)
                .lengths_traced(&vec![3; n], &t)
                .unwrap();
            let work = t
                .snapshot()
                .find("tie_kernel")
                .expect("tie_kernel span")
                .work;
            let estimate = rebuild_estimate(FamilyId::Huffman, n);
            assert!(
                work <= estimate && 2 * work >= estimate,
                "n={n}: span {work} against estimate {estimate}"
            );
        }
    }

    #[test]
    fn estimates_are_monotone_in_n() {
        for id in FamilyId::ALL {
            let mut prev = (0, 0);
            for n in [2usize, 8, 32, 256] {
                let cur = (patch_estimate(id, n), rebuild_estimate(id, n));
                assert!(cur > prev, "{id} n={n}");
                prev = cur;
            }
        }
    }
}
