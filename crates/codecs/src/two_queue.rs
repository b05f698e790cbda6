//! The two-queue merge over sorted leaves, and the exact Huffman kernel
//! built on it.
//!
//! Sorting the leaves by `(count, symbol)` and merging the two globally
//! smallest nodes `n − 1` times builds a greedy merge forest in linear
//! time after the sort: created parents come out non-decreasing, so a
//! FIFO of parents stays sorted and each merge pops the smaller fronts
//! of two queues. Leaves win ties (they were created first), which
//! makes the forest — and every length read off it — a deterministic
//! function of the counts. Minimax combines with `max(a, b) + 1`,
//! Huffman with `a + b`.
//!
//! [`separated_lengths`] serves Huffman lengths only where they are
//! unique. When all `2n−1` node weights of the Huffman merge are
//! pairwise distinct (*strict separation*), every greedy selection is
//! forced: the two lightest nodes of each round must sit at the deepest
//! level of every optimal tree, or an exchange would strictly lower the
//! cost. Induction over the rounds leaves one optimal depth vector — in
//! Foldes' terms (arXiv 1306.5497), one optimal chain of the partition
//! lattice. Any optimal construction returns it, the Theorem 5.1
//! pipeline included, so serving it changes no byte. On a tie the
//! kernel refuses and the caller runs [`crate::tie_kernel`], which
//! reproduces the pipeline's tie order (the family's reference)
//! without running the pipeline. Before release the forest is also
//! checked against the Faller–Gallager–Knuth sibling property, which
//! holds iff it is a Huffman tree.
//!
//! All arithmetic is `u64`, exact for any sum of at most 256 `u32`
//! counts; the pipeline's `f64` sums stay below `2⁴⁰ < 2⁵³`, so the two
//! compare the same weights.

use partree_pram::CostTracer;

/// `⌈log₂ n⌉` for `n ≥ 1`: the PRAM merge-sort rounds a sort of `n`
/// leaves stands in for.
pub(crate) fn ceil_log2(n: usize) -> u64 {
    u64::from(usize::BITS - n.saturating_sub(1).leading_zeros())
}

/// Symbols sorted by `(count, symbol)`: the leaf order of the merge.
pub(crate) fn sorted_leaves(counts: &[u32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by_key(|&s| (counts[s], s));
    order
}

/// A merge forest: nodes `0..n` are the sorted leaves, parents follow
/// in creation order, and the last node is the root.
pub(crate) struct Forest {
    /// Weight per node.
    pub(crate) value: Vec<u64>,
    /// Parent per node; `usize::MAX` for the root.
    pub(crate) parent: Vec<usize>,
}

/// The two-queue merge of the leaves in `order` (at least two), where
/// merging nodes of weights `a ≤ b` creates a parent of weight
/// `combine(a, b)`. `combine` must not return less than `b`, so the
/// parents stay sorted.
pub(crate) fn merge(counts: &[u32], order: &[usize], combine: impl Fn(u64, u64) -> u64) -> Forest {
    let n = order.len();
    debug_assert!(n >= 2);
    let mut value: Vec<u64> = Vec::with_capacity(2 * n - 1);
    value.extend(order.iter().map(|&s| u64::from(counts[s])));
    let mut parent: Vec<usize> = Vec::with_capacity(2 * n - 1);
    parent.resize(n, usize::MAX);

    let mut leaf_at = 0usize; // next unmerged leaf (indices 0..n)
    let mut node_at = n; // next unmerged parent (indices n..)
    let mut pop = |value: &[u64]| {
        // Leaves win ties: they were created earlier.
        if leaf_at < n && (node_at >= value.len() || value[leaf_at] <= value[node_at]) {
            leaf_at += 1;
            leaf_at - 1
        } else {
            node_at += 1;
            node_at - 1
        }
    };
    for _ in 0..n - 1 {
        let a = pop(&value);
        let b = pop(&value);
        let p = value.len();
        value.push(combine(value[a], value[b]));
        parent.push(usize::MAX);
        parent[a] = p;
        parent[b] = p;
    }
    Forest { value, parent }
}

/// Depth of each leaf in symbol order, given the forest's parents and
/// the leaf order it was built from.
pub(crate) fn leaf_depths(order: &[usize], parent: &[usize]) -> Vec<u32> {
    // Parents have larger indices than their children, so one reverse
    // sweep sees every parent first.
    let mut depth = vec![0u32; parent.len()];
    for v in (0..parent.len() - 1).rev() {
        depth[v] = depth[parent[v]] + 1;
    }
    let mut lengths = vec![0u32; order.len()];
    for (sorted_idx, &sym) in order.iter().enumerate() {
        lengths[sym] = depth[sorted_idx];
    }
    lengths
}

/// Huffman code lengths for `counts` (at least two symbols), in symbol
/// order, when all `2n−1` merge weights are pairwise distinct; `None`
/// on any tie (see the module docs). `Some` is bit-identical to the
/// Theorem 5.1 pipeline's lengths, because the optimum is unique.
pub fn separated_lengths(counts: &[u32]) -> Option<Vec<u32>> {
    separated_lengths_traced(counts, &CostTracer::disabled())
}

/// [`separated_lengths`] with one `two_queue` span: work is the sort's
/// `n⌈log₂ n⌉` comparisons plus the `n − 1` merges, depth the
/// `⌈log₂ n⌉` PRAM merge-sort rounds the sort stands in for plus the
/// `n − 1` sequential merges. Refusals are charged too.
pub(crate) fn separated_lengths_traced(counts: &[u32], tracer: &CostTracer) -> Option<Vec<u32>> {
    let n = counts.len();
    let span = tracer.span("two_queue");
    let logn = ceil_log2(n);
    span.add_work(n as u64 * logn + n.saturating_sub(1) as u64);
    span.add_depth(logn + n.saturating_sub(1) as u64);

    let order = sorted_leaves(counts);
    let forest = merge(counts, &order, |a, b| a + b);

    // Strict separation: any duplicate among the 2n−1 node weights
    // means a tie could have been broken differently somewhere in the
    // lattice of optimal codes.
    let mut sorted_values = forest.value.clone();
    sorted_values.sort_unstable();
    if sorted_values.windows(2).any(|w| w[0] == w[1]) {
        return None;
    }

    // Under strict separation the two-queue construction guarantees the
    // sibling property, but the check is cheap and makes the gate
    // independent of the construction above.
    if !sibling_property(&forest) {
        return None;
    }
    Some(leaf_depths(&order, &forest.parent))
}

/// The Faller–Gallager–Knuth sibling property: listing all non-root
/// nodes in ascending weight order, consecutive pairs `(2k, 2k+1)` must
/// be siblings. A tree has this property iff it is a Huffman tree,
/// which is what licenses serving its depths as the family's optimum.
fn sibling_property(forest: &Forest) -> bool {
    let Forest { value, parent } = forest;
    let root = value.len() - 1;
    let mut by_weight: Vec<usize> = (0..root).collect();
    by_weight.sort_by_key(|&v| (value[v], v));
    by_weight.len().is_multiple_of(2)
        && by_weight
            .chunks(2)
            .all(|pair| parent[pair[0]] == parent[pair[1]] && parent[pair[0]] != usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use partree_huffman::parallel::huffman_parallel;

    fn pipeline(counts: &[u32]) -> Vec<u32> {
        let w: Vec<f64> = counts.iter().map(|&c| f64::from(c)).collect();
        huffman_parallel(&w).unwrap().lengths
    }

    #[test]
    fn separated_counts_match_the_pipeline() {
        let cases: [&[u32]; 4] = [
            &[45, 13, 12, 16, 9, 5],
            &[1, 2, 4, 8, 16],
            &[100, 1, 3, 7, 31, 200, 55],
            &[3, 10],
        ];
        for counts in cases {
            let lengths = separated_lengths(counts).expect("distinct merge weights accept");
            assert_eq!(lengths, pipeline(counts), "counts {counts:?}");
        }
    }

    #[test]
    fn ties_are_refused() {
        // Duplicate leaves.
        assert_eq!(separated_lengths(&[5, 5, 9]), None);
        // Distinct leaves whose merge collides with a leaf: 1 + 2 = 3.
        assert_eq!(separated_lengths(&[1, 2, 3, 100]), None);
        // Two zero counts tie as leaves.
        assert_eq!(separated_lengths(&[0, 7, 0, 30]), None);
        // One zero count merges into a copy of its sibling's weight.
        assert_eq!(separated_lengths(&[0, 7, 12, 30]), None);
    }

    #[test]
    fn sibling_property_detects_a_corrupted_forest() {
        // Leaves [1,2,4,9] then parents [3,7,16]; wiring leaf 0 to the
        // second parent breaks adjacent pairing.
        let counts = [1u32, 2, 4, 9];
        let order = sorted_leaves(&counts);
        let good = merge(&counts, &order, |a, b| a + b);
        assert_eq!(good.value, [1, 2, 4, 9, 3, 7, 16]);
        assert_eq!(good.parent, [4, 4, 5, 6, 5, 6, usize::MAX]);
        assert!(sibling_property(&good));
        let bad = Forest {
            value: good.value.clone(),
            parent: vec![5, 4, 4, 6, 5, 6, usize::MAX],
        };
        assert!(!sibling_property(&bad));
    }

    #[test]
    fn traced_span_counts_sort_and_merges_even_on_refusal() {
        for counts in [&[8u32, 4, 2, 1, 1][..], &[45, 13, 12, 16, 9, 5]] {
            let t = CostTracer::named("build");
            let traced = separated_lengths_traced(counts, &t);
            assert_eq!(traced, separated_lengths(counts));
            let span = t.snapshot();
            let span = span.find("two_queue").expect("two_queue span");
            let n = counts.len() as u64;
            assert_eq!((span.work, span.depth), (n * 3 + n - 1, 3 + n - 1));
        }
    }
}
