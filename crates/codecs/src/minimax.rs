//! Minimax trees: code lengths minimizing `maxᵢ (wᵢ + lᵢ)`.
//!
//! Golumbic's *combinatorial merging* is Huffman's greedy with the
//! combine rule swapped: merging nodes of values `a ≤ b` produces a
//! parent of value `max(a, b) + 1 = b + 1`, and repeatedly merging the
//! two globally smallest values yields a tree whose root value
//! `maxᵢ (wᵢ + depthᵢ)` is optimal for integer weights. (Gawrychowski–
//! Gagie, arXiv 0812.2868, push the real-weight variant to `O(n)` on
//! sorted input; the integer case here is the classic result.)
//!
//! The implementation is the two-queue linear pass over sorted leaves
//! that Huffman shares ([`crate::two_queue`]). It needs created parents
//! to be non-decreasing, and they are: a parent's value `b + 1` is at
//! least the value of anything popped before it. Its tie order —
//! `(value, creation order)`, leaves created in `(weight, symbol
//! index)` order — makes every emitted length deterministic.

use crate::two_queue::{ceil_log2, leaf_depths, merge, sorted_leaves};
use partree_pram::CostTracer;

/// Minimax code lengths for `counts`, in symbol order, traced: a `sort`
/// span (the `⌈log₂ n⌉`
/// PRAM merge-sort rounds it stands in for) and a `merge` span for the
/// linear two-queue pass (`n − 1` merges; inherently sequential here,
/// so work and depth are both `n − 1`). The caller guarantees at least
/// two symbols (family-layer validation); the untraced entry point is
/// `family(FamilyId::Minimax).lengths`.
pub fn minimax_lengths_traced(counts: &[u32], tracer: &CostTracer) -> Vec<u32> {
    let n = counts.len();
    debug_assert!(n >= 2);

    let sort = tracer.span("sort");
    let order = sorted_leaves(counts);
    sort.add_work(n as u64);
    sort.add_depth(ceil_log2(n));

    let merge_span = tracer.span("merge");
    let forest = merge(counts, &order, |a, b| a.max(b) + 1);
    merge_span.add_work((n - 1) as u64);
    merge_span.add_depth((n - 1) as u64);

    leaf_depths(&order, &forest.parent)
}

/// The minimax objective `maxᵢ (wᵢ + lᵢ)` in exact integer arithmetic.
pub fn minimax_cost(counts: &[u32], lengths: &[u32]) -> u64 {
    counts
        .iter()
        .zip(lengths)
        .map(|(&w, &l)| u64::from(w) + u64::from(l))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{family, FamilyId};
    use partree_trees::kraft::kraft_feasible;

    fn minimax_lengths(counts: &[u32]) -> Vec<u32> {
        family(FamilyId::Minimax).lengths(counts).unwrap()
    }

    #[test]
    fn equal_weights_give_a_balanced_tree() {
        let l = minimax_lengths(&[5, 5, 5, 5]);
        assert_eq!(l, vec![2, 2, 2, 2]);
        assert_eq!(minimax_cost(&[5, 5, 5, 5], &l), 7);
    }

    #[test]
    fn heavy_symbol_floats_to_the_root() {
        let counts = [100u32, 1, 1, 1];
        let l = minimax_lengths(&counts);
        assert_eq!(l[0], 1, "heaviest symbol shallowest: {l:?}");
        assert_eq!(minimax_cost(&counts, &l), 101);
        assert!(kraft_feasible(&l));
    }

    #[test]
    fn zero_weights_sink_deepest_but_stay_feasible() {
        let counts = [0u32, 0, 9, 4];
        let l = minimax_lengths(&counts);
        assert!(kraft_feasible(&l), "{l:?}");
        assert!(l[0] >= l[2] && l[1] >= l[2]);
    }

    #[test]
    fn deterministic_under_permuted_ties() {
        // All-equal weights: ties everywhere; output must be stable.
        let a = minimax_lengths(&[3; 7]);
        let b = minimax_lengths(&[3; 7]);
        assert_eq!(a, b);
        assert!(kraft_feasible(&a));
    }

    #[test]
    fn geometric_weights_build_a_spine() {
        // 1,2,4,8,…: merging two smallest chains left-to-right.
        let counts = [1u32, 2, 4, 8, 16];
        let l = minimax_lengths(&counts);
        assert!(kraft_feasible(&l), "{l:?}");
        // Lightest symbols deepest, monotone in weight.
        for w in l.windows(2) {
            assert!(w[0] >= w[1], "{l:?}");
        }
    }
}
