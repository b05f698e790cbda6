//! Exact integer Shannon–Fano lengths over histogram counts
//! (Theorem 7.4 / §7.3, service-facing variant).
//!
//! `partree_codes::shannon_fano` works on `f64` weights and builds the
//! full tree. The service only needs *lengths* — realization is the
//! shared canonical pipeline (itself the Theorem 7.1 monotone
//! leaf-pattern builder) — so this module computes
//! `lᵢ = ⌈log₂(W/wᵢ)⌉` in exact `u64` arithmetic: the smallest `l`
//! with `wᵢ·2^l ≥ W`, found by doubling. No float rounding can ever
//! flip a length, which is what makes the family deterministic enough
//! to key a distributed cache.
//!
//! **Zero counts** are floored to one occurrence first. Shannon–Fano's
//! length rule needs positive weights; a zero-weight symbol contributes
//! nothing to expected length wherever it lands, so the floor only
//! fixes *where* it lands — and keeps Kraft feasibility by the usual
//! argument (`Σ 2^{-lᵢ} ≤ Σ wᵢ'/W' = 1` over the floored weights).

use partree_pram::CostTracer;

/// Shannon–Fano code lengths for `counts`, in symbol order. The caller
/// guarantees at least two symbols and one nonzero count (the family
/// layer validates).
pub fn sf_lengths(counts: &[u32]) -> Vec<u32> {
    let total: u64 = counts.iter().map(|&c| u64::from(c.max(1))).sum();
    counts
        .iter()
        .map(|&c| ideal_length(u64::from(c.max(1)), total))
        .collect()
}

/// [`sf_lengths`] with tracing: one `sf_lengths` span covering the
/// per-symbol length computation — a single PRAM round (`O(1)` depth,
/// the doubling loop is `O(log W)` local work per processor).
pub fn sf_lengths_traced(counts: &[u32], tracer: &CostTracer) -> Vec<u32> {
    let span = tracer.span("sf_lengths");
    let lengths = sf_lengths(counts);
    span.step(counts.len() as u64);
    lengths
}

/// The smallest `l` with `w · 2^l ≥ total`, i.e. `⌈log₂(total/w)⌉`,
/// by doubling. `w ≥ 1` and `total < 2⁴⁰` bound the loop at 40 turns.
fn ideal_length(w: u64, total: u64) -> u32 {
    debug_assert!(w >= 1 && w <= total);
    let mut l = 0u32;
    let mut scaled = w;
    while scaled < total {
        scaled <<= 1;
        l += 1;
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use partree_trees::kraft::kraft_feasible;

    #[test]
    fn matches_the_float_reference_on_positive_counts() {
        let cases: [&[u32]; 4] = [
            &[4, 2, 1, 1],
            &[45, 13, 12, 16, 9, 5],
            &[1, 1000],
            &[3, 3, 3, 3, 3, 3, 3],
        ];
        for counts in cases {
            let ours = sf_lengths(counts);
            let weights: Vec<f64> = counts.iter().map(|&c| f64::from(c)).collect();
            let reference = partree_codes::shannon_fano::shannon_fano(&weights).unwrap();
            assert_eq!(ours, reference.lengths, "counts {counts:?}");
        }
    }

    #[test]
    fn dyadic_counts_hit_ideal_lengths() {
        assert_eq!(sf_lengths(&[4, 2, 1, 1]), vec![1, 2, 3, 3]);
        assert_eq!(sf_lengths(&[1, 1]), vec![1, 1]);
    }

    #[test]
    fn zero_counts_are_floored_and_stay_kraft_feasible() {
        let l = sf_lengths(&[0, 0, 5, 1]);
        assert!(kraft_feasible(&l), "{l:?}");
        // The floor makes zeros behave like unit counts.
        assert_eq!(l, sf_lengths(&[1, 1, 5, 1]));
        // Nonzero symbols keep sane lengths.
        assert!(l[2] <= l[3]);
    }

    #[test]
    fn traced_path_is_identical_and_opens_the_span() {
        let counts = [9u32, 3, 0, 1, 7];
        let t = CostTracer::named("sf");
        assert_eq!(sf_lengths_traced(&counts, &t), sf_lengths(&counts));
        let snap = t.snapshot();
        let span = snap.find("sf_lengths").expect("span opened");
        assert_eq!(span.work, counts.len() as u64);
    }

    #[test]
    fn worst_case_length_is_bounded_by_40() {
        let mut counts = vec![u32::MAX; 256];
        counts[0] = 1;
        let l = sf_lengths(&counts);
        assert!(l.iter().all(|&x| x <= 40), "{:?}", l.iter().max());
        assert!(kraft_feasible(&l));
    }
}
