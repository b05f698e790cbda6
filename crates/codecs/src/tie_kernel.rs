//! The exact sequential Huffman kernel for histograms whose merge
//! weights tie.
//!
//! Where [`crate::two_queue::separated_lengths`] refuses, several
//! optimal depth vectors exist and the family must pick one by a fixed
//! rule. The rule is the Theorem 5.1 pipeline's
//! (`partree_huffman::parallel`), and it is fixed by three things only:
//!
//! 1. the leaf order, `(count, symbol)` ascending;
//! 2. the *values* of `A_H`, the cheapest height-≤`H` trees over every
//!    run of sorted leaves, `H = ⌈log₂ n⌉` — the pipeline keeps no
//!    argmins from its concave squarings;
//! 3. two sequential first-wins argmins over those values: the backward
//!    spine sweep (strict `<` over ascending `i`) and Knuth's alphabetic
//!    DP on each spine segment (strict `<` inside the monotone-root
//!    window, default root `a + 1`).
//!
//! So any exact computation of `A_H` followed by the same two argmins
//! serves the same bytes. This kernel computes `A_H` with the paper's
//! recurrence `A_h = min(A_{h−1}, A_{h−1} ⋆ A_{h−1} + S)` in one flat
//! sequential loop per round. Each split `k` of cell `(i, j)` is
//! restricted to the finite band (both halves of height `h − 1`) and to
//! Knuth's window `opt(i, j−1) ≤ k ≤ opt(i+1, j)`. `A_{h−1}` is Monge
//! (Lemma 5.1), so the leftmost argmin of the product is monotone in
//! both `i` and `j` and lies inside the window; the windowed minimum is
//! the exact one. Per round the windows telescope to `O(n)` per
//! diagonal, so `A_H` costs `O(n²)` in all and the whole kernel stays
//! `O(n²)` — against the pipeline's `⌈log n⌉` concave products over
//! `f64` matrices plus a `Tree` per segment.
//!
//! All arithmetic is `u64`. Every entry is below `n · H · 2³²`, so the
//! pipeline's `f64` values of the same quantities are exact integers
//! and the two compare alike. Scratch is per call and one allocation:
//! two `n(n+1)/2` `u64` triangles (the previous and current round),
//! which the segment DPs reuse for their costs and roots.

use crate::two_queue::{ceil_log2, sorted_leaves};
use partree_pram::CostTracer;

/// An `A_H` entry with no tree: `j ≤ i`, or more than `2^H` leaves.
pub const INFINITE: u64 = u64::MAX;

/// Huffman code lengths for `counts` (at least two symbols), in symbol
/// order: the leftmost spine decomposition with leftmost Knuth roots,
/// bit-identical to the Theorem 5.1 pipeline's lengths on every
/// histogram, tied or not.
pub fn huffman_lengths(counts: &[u32]) -> Vec<u32> {
    huffman_lengths_traced(counts, &CostTracer::disabled())
}

/// [`huffman_lengths`] with one `tie_kernel` span. The kernel is
/// sequential, so work and depth are both its step count: the sort's
/// `n⌈log₂ n⌉` comparisons plus every split the `A_H` rounds, the spine
/// sweep and the segment DPs evaluate. [`step_bound`] bounds it.
pub fn huffman_lengths_traced(counts: &[u32], tracer: &CostTracer) -> Vec<u32> {
    let span = tracer.span("tie_kernel");
    let (lengths, steps) = run(counts);
    span.add_work(steps);
    span.add_depth(steps);
    lengths
}

/// The most steps the `tie_kernel` span can charge for any histogram of
/// `n` symbols: the sort, `(n − 1) + Σ_{d ≥ 3} (2n − d)` split
/// evaluations per `A_H` round (the Knuth windows of one diagonal
/// telescope), the sweep's `n(n−1)/2` candidates, and `2(n − 1)²` for
/// the segment DPs, whose leaves sum to `n − 1`.
pub fn step_bound(n: usize) -> u64 {
    if n < 2 {
        return 0;
    }
    let n64 = n as u64;
    let mut bound = n64 * ceil_log2(n);
    for h in 1..=height(n) {
        let band = n.min(1 << h) as u64;
        bound += (n64 - 1) + (3..=band).map(|d| 2 * n64 - d).sum::<u64>();
    }
    bound + n64 * (n64 - 1) / 2 + 2 * (n64 - 1) * (n64 - 1)
}

/// The height bound `H = ⌈log₂ n⌉`, at least 1 (the pipeline's
/// `default_height`).
fn height(n: usize) -> u32 {
    (ceil_log2(n) as u32).max(1)
}

/// `A_H` over `sorted` (non-decreasing weights), flat row-major
/// `(n+1)²` with [`INFINITE`] off the band. Exposed so the windowed
/// recurrence can be checked entry by entry against a plain min-plus
/// product.
pub fn height_bounded_costs(sorted: &[u64]) -> Vec<u64> {
    let n = sorted.len();
    let start = diagonal_starts(n);
    let mut buf = vec![0u64; n * (n + 1)];
    let (at, _) = height_bounded(&prefix_sums(sorted), &start, &mut buf);
    let mut rows = vec![INFINITE; (n + 1) * (n + 1)];
    for d in 1..=n {
        for i in 0..=n - d {
            rows[i * (n + 1) + i + d] = buf[at + start[d] + i];
        }
    }
    rows
}

fn prefix_sums(sorted: &[u64]) -> Vec<u64> {
    let mut prefix = Vec::with_capacity(sorted.len() + 1);
    prefix.push(0);
    let mut acc = 0;
    for &w in sorted {
        acc += w;
        prefix.push(acc);
    }
    prefix
}

/// The DP tables here are upper triangles stored by diagonal: cell
/// `(i, i + d)` of an `n`-leaf table sits at `start[d] + i`, so a sweep
/// along one diagonal reads its operands near-sequentially, and the
/// whole table takes `n(n+1)/2` entries.
fn diagonal_starts(n: usize) -> Vec<usize> {
    let mut start = vec![0; n + 1];
    for d in 2..=n {
        start[d] = start[d - 1] + (n + 2 - d);
    }
    start
}

/// Computes `A_H` in `buf`, two `n(n+1)/2` triangles (the previous and
/// the current round). Returns where in `buf` the triangle holding
/// `A_H` starts, and the split evaluations made. Only cells inside the
/// current band are read or written, and the window needs only the
/// previous diagonal's splits, so the splits live in two rows.
fn height_bounded(prefix: &[u64], start: &[usize], buf: &mut [u64]) -> (usize, u64) {
    let n = prefix.len() - 1;
    let (mut a, mut next) = buf.split_at_mut(n * (n + 1) / 2);
    a[..n].fill(0);
    next[..n].fill(0);
    let mut at = 0;
    let mut opt_prev = vec![0u32; n + 1];
    let mut opt = vec![0u32; n + 1];
    let mut steps = 0u64;
    for h in 1..=height(n) {
        // Both halves of a split must fit height h − 1, whose band is
        // `half` leaves wide.
        let half = 1usize << (h - 1);
        let band = n.min(half * 2);
        for d in 2..=band {
            for i in 0..=n - d {
                let j = i + d;
                let mut lo = (i + 1).max(j.saturating_sub(half));
                let mut hi = (j - 1).min(i + half);
                if d > 2 {
                    // Knuth's window: opt(i, j−1) ≤ k ≤ opt(i+1, j).
                    lo = lo.max(opt_prev[i] as usize);
                    hi = hi.min(opt_prev[i + 1] as usize);
                }
                debug_assert!(lo <= hi, "empty Knuth window at ({i}, {j})");
                let mut best = INFINITE;
                let mut arg = lo;
                for k in lo..=hi {
                    let cand = a[start[k - i] + i] + a[start[j - k] + k];
                    if cand < best {
                        best = cand;
                        arg = k;
                    }
                }
                steps += (hi + 1).saturating_sub(lo) as u64;
                let mut cost = best.saturating_add(prefix[j] - prefix[i]);
                if d <= half {
                    cost = cost.min(a[start[d] + i]);
                }
                next[start[d] + i] = cost;
                opt[i] = arg as u32;
            }
            std::mem::swap(&mut opt_prev, &mut opt);
        }
        std::mem::swap(&mut a, &mut next);
        at = n * (n + 1) / 2 - at;
    }
    (at, steps)
}

/// The kernel: lengths in symbol order and the steps it took.
fn run(counts: &[u32]) -> (Vec<u32>, u64) {
    let n = counts.len();
    debug_assert!(n >= 2);
    let order = sorted_leaves(counts);
    let sorted: Vec<u64> = order.iter().map(|&s| u64::from(counts[s])).collect();
    let prefix = prefix_sums(&sorted);
    let mut steps = n as u64 * ceil_log2(n);

    // One allocation for every table, so a repeated build reuses the
    // same heap block.
    let start = diagonal_starts(n);
    let mut buf = vec![0u64; n * (n + 1)];
    let (at, dp_steps) = height_bounded(&prefix, &start, &mut buf);
    steps += dp_steps;
    let a_h = &buf[at..];

    // The spine sweep: best[j] = min_i best[i] + A_H[i, j] + S[0, j],
    // first win over ascending i. Every A_H[i, j] with 1 ≤ i < j ≤ n is
    // finite, since j − i < n ≤ 2^H.
    let mut best = vec![INFINITE; n + 1];
    let mut from = vec![0usize; n + 1];
    best[1] = 0;
    for j in 2..=n {
        for i in 1..j {
            let cand = best[i] + a_h[start[j - i] + i] + prefix[j];
            if cand < best[j] {
                best[j] = cand;
                from[j] = i;
            }
        }
        steps += j as u64 - 1;
    }
    let mut bounds = vec![n];
    while bounds[bounds.len() - 1] != 1 {
        bounds.push(from[bounds[bounds.len() - 1]]);
    }
    bounds.reverse();

    // The spine: leaf 0 sits under one spine node per segment, and
    // segment t's subtree hangs one level below the spine node above it.
    let segments = bounds.len() - 1;
    let mut depth = vec![0u32; n];
    depth[0] = segments as u32;
    for (t, seg) in bounds.windows(2).enumerate() {
        let top = (segments - t) as u32;
        steps += alphabetic_depths(&prefix, seg[0], seg[1], top, &mut buf, &mut depth);
    }
    debug_assert_eq!(
        sorted
            .iter()
            .zip(&depth)
            .map(|(&w, &d)| w * u64::from(d))
            .sum::<u64>(),
        best[n],
        "reconstructed depths must cost the sweep's optimum"
    );

    let mut lengths = vec![0u32; n];
    for (s, &sym) in order.iter().enumerate() {
        lengths[sym] = depth[s];
    }
    (lengths, steps)
}

/// Knuth's alphabetic DP over the sorted leaves `lo..hi`, with the
/// pipeline's exact tie order (`partree_huffman::alphabetic`), writing
/// each leaf's depth plus `top` into `depth`. `buf` holds the cost and
/// root triangles, stored by diagonal like `A_H`. Returns the splits
/// evaluated.
fn alphabetic_depths(
    prefix: &[u64],
    lo: usize,
    hi: usize,
    top: u32,
    buf: &mut [u64],
    depth: &mut [u32],
) -> u64 {
    let m = hi - lo;
    let start = diagonal_starts(m);
    let (e, root) = buf.split_at_mut(m * (m + 1) / 2);
    let mut steps = 0u64;
    for a in 0..m {
        e[a] = 0;
        root[a] = a as u64 + 1;
    }
    for d in 2..=m {
        for a in 0..=m - d {
            let b = a + d;
            let (klo, khi) = if d > 2 {
                let prev = start[d - 1] + a;
                (root[prev] as usize, root[prev + 1] as usize)
            } else {
                (a + 1, b - 1)
            };
            let khi = khi.min(b - 1).max(klo);
            let mut best = INFINITE;
            let mut arg = a + 1;
            for k in klo..=khi {
                let cand = e[start[k - a] + a] + e[start[b - k] + k];
                if cand < best {
                    best = cand;
                    arg = k;
                }
            }
            steps += (khi - klo + 1) as u64;
            e[start[d] + a] = best + (prefix[lo + b] - prefix[lo + a]);
            root[start[d] + a] = arg as u64;
        }
    }
    // Walk the root table: each interval of two or more leaves is one
    // internal node.
    let mut stack = vec![(0usize, m, top)];
    while let Some((a, b, level)) = stack.pop() {
        if b == a + 1 {
            depth[lo + a] = level;
        } else {
            let k = root[start[b - a] + a] as usize;
            stack.push((a, k, level + 1));
            stack.push((k, b, level + 1));
        }
    }
    steps
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
    fn tied_counts_match_the_pipeline() {
        let cases: [&[u32]; 6] = [
            &[5, 5, 9],
            &[1, 1],
            &[1, 2, 3, 100],
            &[0, 7, 0, 30],
            &[3; 7],
            &[1, 1, 2, 2, 3, 3, 4, 4, 0, 9],
        ];
        for counts in cases {
            assert_eq!(
                huffman_lengths(counts),
                pipeline(counts),
                "counts {counts:?}"
            );
        }
    }

    #[test]
    fn height_bounded_costs_hold_the_band() {
        // Four equal leaves: a balanced tree (cost 8) fits H = 2, and
        // no run of more than 4 leaves exists.
        let a = height_bounded_costs(&[1, 1, 1, 1]);
        assert_eq!(a[4], 8);
        assert_eq!(a[5 + 2], 0, "a single leaf costs nothing");
        assert_eq!(a[5 * 2 + 1], INFINITE, "j < i has no tree");
    }

    #[test]
    fn traced_span_charges_work_equal_to_depth_within_the_bound() {
        for counts in [&[1u32, 1, 1, 1, 1][..], &[4, 0, 4, 1, 2, 2, 3, 0, 1]] {
            let t = CostTracer::named("build");
            assert_eq!(huffman_lengths_traced(counts, &t), huffman_lengths(counts));
            let snap = t.snapshot();
            let span = snap.find("tie_kernel").expect("tie_kernel span");
            assert!(span.work > 0 && span.work == span.depth);
            assert!(span.work <= step_bound(counts.len()), "{counts:?}");
        }
    }
}
