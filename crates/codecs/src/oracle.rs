//! Brute-force ground truth for small alphabets.
//!
//! Both optimizing families (minimax, choosable-edge) admit the same
//! exhaustive check: enumerate every *depth multiset* a full binary
//! tree over `n` leaves can realize — recursively, as the two child
//! subtrees' multisets shifted by the chosen edge lengths — then score
//! each multiset with the family's objective under the optimal
//! weight↔depth pairing. For a sum objective that pairing is
//! heaviest-to-shallowest by the rearrangement inequality; for the
//! minimax objective the same pairing is optimal by a two-element
//! exchange (swapping a lighter-shallow/heavier-deep pair never raises
//! the max). The multiset count is tiny for `n ≤ 7` — depth profiles
//! collapse the Catalan-many shapes — so the differential tests can
//! afford exact optima as hard assertions.

use std::collections::BTreeSet;

/// Largest alphabet the oracles accept; enumeration beyond this is
/// pointlessly slow for a test oracle.
pub const MAX_ORACLE_ALPHABET: usize = 7;

/// All depth multisets (sorted ascending) of full binary trees with
/// `n` leaves, where each internal node draws its two edge lengths
/// from `pairs` (either orientation).
fn depth_multisets(n: usize, pairs: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let mut memo: Vec<Option<Vec<Vec<u32>>>> = vec![None; n + 1];
    fill(n, pairs, &mut memo);
    memo[n].take().unwrap()
}

fn fill(n: usize, pairs: &[(u32, u32)], memo: &mut Vec<Option<Vec<Vec<u32>>>>) {
    if memo[n].is_some() {
        return;
    }
    if n == 1 {
        memo[1] = Some(vec![vec![0]]);
        return;
    }
    let mut out: BTreeSet<Vec<u32>> = BTreeSet::new();
    for left in 1..n {
        let right = n - left;
        fill(left, pairs, memo);
        fill(right, pairs, memo);
        let lhs = memo[left].clone().unwrap();
        let rhs = memo[right].clone().unwrap();
        for &(e1, e2) in pairs {
            for orient in [(e1, e2), (e2, e1)] {
                for dl in &lhs {
                    for dr in &rhs {
                        let mut merged: Vec<u32> = dl
                            .iter()
                            .map(|&d| d + orient.0)
                            .chain(dr.iter().map(|&d| d + orient.1))
                            .collect();
                        merged.sort_unstable();
                        out.insert(merged);
                    }
                }
            }
        }
    }
    memo[n] = Some(out.into_iter().collect());
}

/// Weights sorted heaviest-first — the optimal assignment order for
/// depths sorted ascending, under both objectives.
fn weights_desc(counts: &[u32]) -> Vec<u64> {
    let mut w: Vec<u64> = counts.iter().map(|&c| u64::from(c)).collect();
    w.sort_unstable_by(|a, b| b.cmp(a));
    w
}

/// Exact optimal minimax cost `min over trees of maxᵢ (wᵢ + depthᵢ)`
/// with unit edges, by exhaustive depth-multiset enumeration. `n ≤ 7`.
pub fn minimax_optimal_cost(counts: &[u32]) -> u64 {
    let n = counts.len();
    assert!((2..=MAX_ORACLE_ALPHABET).contains(&n));
    let w = weights_desc(counts);
    depth_multisets(n, &[(1, 1)])
        .iter()
        .map(|depths| {
            depths
                .iter()
                .zip(&w)
                .map(|(&d, &wt)| wt + u64::from(d))
                .max()
                .unwrap()
        })
        .min()
        .unwrap()
}

/// Exact optimal choosable-edge cost `min over trees of Σ wᵢ·depthᵢ`
/// under an edge-length pair system, by exhaustive depth-multiset
/// enumeration. `n ≤ 7`.
pub fn choosable_optimal_cost(counts: &[u32], pairs: &[(u32, u32)]) -> u64 {
    let n = counts.len();
    assert!((2..=MAX_ORACLE_ALPHABET).contains(&n));
    let w = weights_desc(counts);
    depth_multisets(n, pairs)
        .iter()
        .map(|depths| {
            depths
                .iter()
                .zip(&w)
                .map(|(&d, &wt)| wt * u64::from(d))
                .sum::<u64>()
        })
        .min()
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::choosable::EDGE_PAIRS;
    use crate::FamilyId;

    #[test]
    fn unit_pair_multisets_are_classic_tree_profiles() {
        // n=2: only {1,1}. n=3: only {1,2,2}. n=4: {2,2,2,2} and
        // {1,2,3,3} (and permuted spines collapse into them).
        assert_eq!(depth_multisets(2, &[(1, 1)]), vec![vec![1, 1]]);
        assert_eq!(depth_multisets(3, &[(1, 1)]), vec![vec![1, 2, 2]]);
        let d4 = depth_multisets(4, &[(1, 1)]);
        assert_eq!(d4, vec![vec![1, 2, 3, 3], vec![2, 2, 2, 2]]);
    }

    #[test]
    fn minimax_oracle_on_hand_checked_cases() {
        // Equal weights: balanced tree, cost w + ⌈log₂ n⌉.
        assert_eq!(minimax_optimal_cost(&[5, 5]), 6);
        assert_eq!(minimax_optimal_cost(&[5, 5, 5, 5]), 7);
        // One dominant weight: it must sit at depth 1 → cost 101.
        assert_eq!(minimax_optimal_cost(&[100, 1, 1, 1]), 101);
    }

    #[test]
    fn choosable_oracle_on_hand_checked_cases() {
        // Two symbols: {2,2} costs 2(w₀+w₁); {1,3} costs w₀+3w₁.
        assert_eq!(choosable_optimal_cost(&[5, 5], &EDGE_PAIRS), 20);
        assert_eq!(choosable_optimal_cost(&[10, 1], &EDGE_PAIRS), 13);
        // Equal quadruple: depths {3,3,4,5} (three {1,3} nodes) cost
        // 15, beating the all-{2,2} balanced tree's 16.
        assert_eq!(choosable_optimal_cost(&[1, 1, 1, 1], &EDGE_PAIRS), 15);
    }

    #[test]
    fn oracles_agree_with_the_fast_implementations() {
        let cases: [&[u32]; 4] = [&[9, 4, 2, 1], &[7, 7, 7], &[0, 3, 11], &[6, 5, 4, 3, 2, 1]];
        for counts in cases {
            let l = crate::family(FamilyId::Minimax).lengths(counts).unwrap();
            assert_eq!(
                crate::minimax::minimax_cost(counts, &l),
                minimax_optimal_cost(counts),
                "minimax {counts:?}"
            );
            let l = crate::family(FamilyId::ChoosableEdge)
                .lengths(counts)
                .unwrap();
            assert_eq!(
                crate::family::weighted_sum(counts, &l),
                choosable_optimal_cost(counts, &EDGE_PAIRS),
                "choosable {counts:?}"
            );
        }
    }
}
