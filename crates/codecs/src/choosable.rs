//! Generalized Huffman with choosable edge lengths (Maßberg, arXiv
//! 1402.3435), for the pair system `{1,3} / {2,2}`.
//!
//! Every internal node picks the lengths of its two child edges from a
//! fixed set of pairs; the objective is the usual `Σ wᵢ·depthᵢ` with
//! depth measured in *edge length* units. With the unit pair `{1,1}`
//! this degenerates to classic Huffman; the `{1,3}/{2,2}` system is
//! the smallest genuinely two-sided instance — a node either balances
//! its children (`2,2`) or trades one fast edge for one slow one
//! (`1,3`) — so the optimizer faces a real choice at every node.
//!
//! ## Algorithm
//!
//! An exact level-synchronous DP over *open slots*, the standard
//! technique for unequal letter costs. A state after processing level
//! `l` is `(m, a, b, c)`: `m` leaves placed so far, and `a/b/c` open
//! slots at levels `l+1 / l+2 / l+3` (3 is the longest edge, so no
//! slot can be born further ahead). At each level every current slot
//! either becomes a leaf or an internal node with a chosen pair, and
//! the transition charges the total weight of still-unplaced leaves —
//! summing those charges over levels telescopes to `Σ wᵢ·depthᵢ`.
//!
//! Weights are placed heaviest-first (an exchange argument: for any
//! fixed multiset of leaf depths, pairing sorted-descending weights
//! with sorted-ascending depths minimizes the sum), so a state never
//! needs to remember *which* leaves were placed, only how many.
//! Dominated states are pruned: a live state needs
//! `1 ≤ a+b+c ≤ n−m` (every open slot must eventually host at least
//! one leaf — dangling slots never help, since deleting a dangling
//! slot's parent only raises its sibling).
//!
//! State count is polynomial in `n` but the constant is real, so the
//! family caps its alphabet at [`MAX_ALPHABET`]; the service surfaces
//! requests beyond the cap as `UnsupportedAlphabet`, mirroring the
//! 256-symbol cap of the binary families.

use partree_core::{Error, Result};
use partree_pram::CostTracer;
use std::collections::BTreeMap;

/// Alphabet cap for the choosable-edge family: the exact DP is
/// `poly(n)` with a real constant (~470 ms at 32 symbols in release on
/// a 2-vCPU host, even with branch-and-bound), so the family serves
/// small-to-mid alphabets only and relies on the codebook cache for
/// repeats.
pub const MAX_ALPHABET: usize = 32;

/// The edge-length pair system. Each internal node assigns one pair to
/// its two child edges (either orientation).
pub const EDGE_PAIRS: [(u32, u32); 2] = [(1, 3), (2, 2)];

/// `(m, a, b, c)`: leaves placed, open slots at the next three levels.
type State = (u16, u16, u16, u16);

/// Optimal choosable-edge code lengths for `counts`, in symbol order,
/// traced: a `sort` span for the weight ordering and a `level_dp` span whose depth is the number of
/// levels swept (states within a level expand independently — one
/// PRAM round per level) and whose work is the transitions examined.
/// The untraced entry point is `family(FamilyId::ChoosableEdge).lengths`.
pub fn choosable_lengths_traced(counts: &[u32], tracer: &CostTracer) -> Result<Vec<u32>> {
    let n = counts.len();
    debug_assert!((2..=MAX_ALPHABET).contains(&n));

    let sort = tracer.span("sort");
    // Heaviest first; index breaks ties so the order — and with it the
    // symbol↔depth pairing — is deterministic.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| counts[y].cmp(&counts[x]).then(x.cmp(&y)));
    sort.add_work(n as u64);
    sort.add_depth(u64::from(usize::BITS - n.saturating_sub(1).leading_zeros()));

    // suffix[m] = total weight of the leaves still unplaced once the m
    // heaviest are down — the per-level charge.
    let mut suffix = vec![0u64; n + 1];
    for m in (0..n).rev() {
        suffix[m] = suffix[m + 1] + u64::from(counts[order[m]]);
    }

    let dp = tracer.span("level_dp");
    let max_level = longest_edge() as usize * (n - 1);
    let mut frontier: BTreeMap<State, u64> = BTreeMap::new();
    frontier.insert((0, 1, 0, 0), 0);
    // preds[l] maps a level-(l+1) state to (level-l predecessor, k):
    // the transition placed k leaves at depth l.
    let mut preds: Vec<BTreeMap<State, (State, u16)>> = Vec::with_capacity(max_level + 1);
    let mut best: Option<(u64, usize)> = None; // (cost, completion level)
    let mut transitions = 0u64;

    // Branch-and-bound incumbent: doubling every Shannon–Fano length
    // realizes the same binary tree with all-{2,2} pairs, so twice its
    // cost is a valid choosable-edge tree cost. Charges never decrease
    // along a path, so any state whose prefix cost already *exceeds*
    // the incumbent cannot start an optimal completion — the optimal
    // path itself survives because each of its prefixes costs at most
    // the optimum, which is at most the incumbent.
    let sf = crate::shannon_fano::sf_lengths(counts);
    let mut bound: u64 = 2 * crate::family::weighted_sum(counts, &sf);

    for level in 0..=max_level {
        let mut next: BTreeMap<State, u64> = BTreeMap::new();
        let mut pred: BTreeMap<State, (State, u16)> = BTreeMap::new();
        for (&(m, a, b, c), &cost) in &frontier {
            let remaining = n as u16 - m;
            for k in 0..=a.min(remaining) {
                // t slots pick the {1,3} pair, the rest pick {2,2}.
                for t in 0..=(a - k) {
                    transitions += 1;
                    let two_two = a - k - t;
                    let m2 = m + k;
                    let s = (m2, b + t, c + 2 * two_two, t);
                    let open = s.1 + s.2 + s.3;
                    let cost2 = cost + suffix[m2 as usize];
                    if cost2 > bound {
                        continue;
                    }
                    if m2 == n as u16 {
                        if open == 0 {
                            match best {
                                Some((bc, _)) if bc <= cost2 => {}
                                _ => {
                                    best = Some((cost2, level + 1));
                                    bound = bound.min(cost2);
                                    pred.insert(s, ((m, a, b, c), k));
                                }
                            }
                        }
                        continue;
                    }
                    // Live states: at least one slot, and no more
                    // slots than leaves left to host them.
                    if open == 0 || open > n as u16 - m2 {
                        continue;
                    }
                    match next.get(&s) {
                        Some(&seen) if seen <= cost2 => {}
                        _ => {
                            next.insert(s, cost2);
                            pred.insert(s, ((m, a, b, c), k));
                        }
                    }
                }
            }
        }
        preds.push(pred);
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    dp.add_work(transitions);
    dp.add_depth(preds.len() as u64);

    let (_, end_level) = best.ok_or_else(|| {
        Error::Internal(format!(
            "choosable-edge DP found no complete tree for {n} symbols"
        ))
    })?;

    // Walk the predecessor chain from the completion state back to the
    // root, recovering how many leaves each level took.
    let mut depth_sorted = vec![0u32; n];
    let mut state: State = (n as u16, 0, 0, 0);
    for level in (0..end_level).rev() {
        let &(prev, k) = preds[level]
            .get(&state)
            .ok_or_else(|| Error::Internal("choosable-edge DP predecessor chain broken".into()))?;
        for j in prev.0..prev.0 + k {
            depth_sorted[j as usize] = level as u32;
        }
        state = prev;
    }

    let mut lengths = vec![0u32; n];
    for (sorted_idx, &sym) in order.iter().enumerate() {
        lengths[sym] = depth_sorted[sorted_idx];
    }
    Ok(lengths)
}

/// The longest edge in [`EDGE_PAIRS`] — bounds how far ahead a slot
/// can be born and the deepest useful level.
fn longest_edge() -> u32 {
    let mut max = 0;
    let mut i = 0;
    while i < EDGE_PAIRS.len() {
        let (x, y) = EDGE_PAIRS[i];
        if x > max {
            max = x;
        }
        if y > max {
            max = y;
        }
        i += 1;
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::weighted_sum;
    use crate::{family, FamilyId};
    use partree_trees::kraft::kraft_feasible;

    fn choosable_lengths(counts: &[u32]) -> Result<Vec<u32>> {
        family(FamilyId::ChoosableEdge).lengths(counts)
    }

    #[test]
    fn two_symbols_pick_the_cheaper_pair() {
        // Balanced weights: {2,2} costs 2w₀+2w₁; {1,3} costs w₀+3w₁.
        // Equal weights → both cost the same; skew → {1,3} wins.
        let l = choosable_lengths(&[10, 1]).unwrap();
        assert_eq!(l, vec![1, 3], "skewed: fast edge to the heavy symbol");
        let l = choosable_lengths(&[5, 5]).unwrap();
        assert_eq!(weighted_sum(&[5, 5], &l), 20, "either pair costs 20");
    }

    #[test]
    fn lengths_are_kraft_feasible_and_deterministic() {
        let cases: [&[u32]; 5] = [
            &[10, 1],
            &[1, 1, 1, 1],
            &[8, 4, 2, 1, 1],
            &[0, 3, 0, 7],
            &[6, 6, 6, 6, 6, 6, 6, 6],
        ];
        for counts in cases {
            let a = choosable_lengths(counts).unwrap();
            let b = choosable_lengths(counts).unwrap();
            assert_eq!(a, b, "{counts:?}");
            assert!(kraft_feasible(&a), "{counts:?} → {a:?}");
            // Heavier symbols never sit deeper than lighter ones.
            let mut idx: Vec<usize> = (0..counts.len()).collect();
            idx.sort_by(|&x, &y| counts[y].cmp(&counts[x]).then(x.cmp(&y)));
            for w in idx.windows(2) {
                assert!(a[w[0]] <= a[w[1]], "{counts:?} → {a:?}");
            }
        }
    }

    #[test]
    fn uniform_four_symbols_beat_the_balanced_tree() {
        // The {2,2}-only tree puts 4 leaves at depth 4 (cost 16·w) —
        // but mixing pairs does better even for equal weights: depths
        // {3,3,4,5} (root {1,3} plus two {1,3} internals) cost 15.
        let counts = [1u32; 4];
        let l = choosable_lengths(&counts).unwrap();
        assert_eq!(weighted_sum(&counts, &l), 15, "{l:?}");
    }

    #[test]
    fn traced_path_is_identical_and_opens_spans() {
        let counts = [9u32, 4, 2, 1, 1];
        let t = CostTracer::named("choosable");
        let traced = choosable_lengths_traced(&counts, &t).unwrap();
        assert_eq!(traced, choosable_lengths(&counts).unwrap());
        let snap = t.snapshot();
        assert!(snap.find("level_dp").unwrap().work > 0);
        assert!(snap.find("sort").is_some());
    }

    #[test]
    fn mid_size_alphabets_complete() {
        let counts: Vec<u32> = (1..=32).map(|i| i * i).collect();
        let l = choosable_lengths(&counts).unwrap();
        assert!(kraft_feasible(&l));
        assert_eq!(l.len(), 32);
    }
}
