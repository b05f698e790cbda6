//! Differential tests pinning the tie kernel to the Theorem 5.1
//! pipeline: the same lengths on every tie-heavy histogram class up to
//! the family's alphabet cap, with the pipeline run inside an installed
//! pool of width 2, and the windowed `A_H` equal entry by entry to a
//! plain `O(n³)` min-plus recurrence.
//!
//! Each test also checks the span's step count against
//! `step_bound(n)`: a Knuth window that stops telescoping leaves every
//! value exact but blows that bound.

use partree_codecs::tie_kernel::{
    height_bounded_costs, huffman_lengths, huffman_lengths_traced, step_bound, INFINITE,
};
use partree_codecs::{family, FamilyId};
use partree_huffman::parallel::huffman_parallel;
use partree_pram::CostTracer;

fn pipeline(counts: &[u32]) -> Vec<u32> {
    let weights: Vec<f64> = counts.iter().map(|&c| f64::from(c)).collect();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("pool");
    pool.install(|| huffman_parallel(&weights).expect("valid weights").lengths)
}

/// The kernel, traced: asserts the span's work is its depth and within
/// [`step_bound`], and that the family serves the same lengths.
fn kernel(counts: &[u32]) -> Vec<u32> {
    let t = CostTracer::named("build");
    let lengths = huffman_lengths_traced(counts, &t);
    let snap = t.snapshot();
    let span = snap.find("tie_kernel").expect("tie_kernel span");
    assert_eq!(
        span.work, span.depth,
        "a sequential kernel's depth is its work"
    );
    assert!(
        span.work <= step_bound(counts.len()),
        "n = {}: {} steps over the bound {}",
        counts.len(),
        span.work,
        step_bound(counts.len())
    );
    assert_eq!(lengths, huffman_lengths(counts));
    assert_eq!(
        family(FamilyId::Huffman)
            .lengths(counts)
            .expect("valid counts"),
        lengths
    );
    lengths
}

fn check(class: &str, counts: &[u32]) {
    if counts.iter().all(|&c| c == 0) {
        return;
    }
    assert_eq!(
        kernel(counts),
        pipeline(counts),
        "{class}, counts {counts:?}"
    );
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, m: u64) -> u64 {
        self.next() % m
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn rng(n: usize, salt: u64) -> Rng {
    Rng((n as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt | 1)
}

/// Alphabet sizes covering 2..=256: every size up to 16, then a stride
/// that still lands on powers of two and their neighbours.
fn sizes() -> Vec<usize> {
    let mut ns: Vec<usize> = (2..=16).collect();
    ns.extend((17..=256).step_by(13));
    ns.extend([31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256]);
    ns.sort_unstable();
    ns.dedup();
    ns
}

/// Cumulative Zipf(`s`) over ranks `1..=n`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += (r as f64).powf(-s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    perm
}

#[test]
fn small_uniform_counts_match_the_pipeline() {
    for n in sizes() {
        let mut r = rng(n, 1);
        let ones: Vec<u32> = (0..n).map(|_| 1 + r.below(4) as u32).collect();
        check("counts in 1..=4", &ones);
        let zeros: Vec<u32> = (0..n).map(|_| r.below(4) as u32).collect();
        check("counts in 0..=3", &zeros);
    }
}

#[test]
fn zipf_payload_counts_match_the_pipeline() {
    // Per-symbol counts of a 1-KiB payload drawn from Zipf(1.2): many
    // zeros and small ties at large n, the shape of payload traffic.
    for n in sizes() {
        let mut r = rng(n, 2);
        let cdf = zipf_cdf(n, 1.2);
        let perm = shuffled(n, &mut r);
        let mut counts = vec![0u32; n];
        for _ in 0..1024 {
            let u = r.unit();
            let rank = cdf.partition_point(|&c| c < u).min(n - 1);
            counts[perm[rank]] += 1;
        }
        check("1-KiB Zipf(1.2) payload", &counts);
    }
}

#[test]
fn skewed_counts_with_noise_match_the_pipeline_at_256() {
    for seed in 0..6 {
        let n = 256;
        let mut r = rng(n, 3 + seed);
        let cdf = zipf_cdf(n, 1.2);
        let perm = shuffled(n, &mut r);
        let mut counts = vec![0u32; n];
        for (rank, &sym) in perm.iter().enumerate() {
            let p = cdf[rank] - if rank == 0 { 0.0 } else { cdf[rank - 1] };
            counts[sym] = (p * f64::from(1u32 << 20)) as u32 + 1 + r.below(4) as u32;
        }
        check("skewed Zipf(1.2) plus noise", &counts);
    }
}

#[test]
fn all_equal_and_zero_counts_match_the_pipeline() {
    for n in sizes() {
        let mut r = rng(n, 4);
        let c = 1 + r.below(1000) as u32;
        check("all equal", &vec![c; n]);
        // A few zero counts among distinct-ish weights: the zeros tie
        // with each other and with the merges they feed.
        let mut counts: Vec<u32> = (0..n).map(|_| 1 + r.below(50_000) as u32).collect();
        for _ in 0..(1 + n / 32).min(n - 1) {
            let i = r.below(n as u64) as usize;
            counts[i] = 0;
        }
        check("a few zero counts", &counts);
    }
}

/// `A_H` by the paper's recurrence with every split tried: `A_0` is
/// zero on single leaves, and `A_h = min(A_{h−1}, A_{h−1} ⋆ A_{h−1} + S)`.
fn cubic_height_bounded(sorted: &[u64]) -> Vec<u64> {
    let n = sorted.len();
    let at = |i: usize, j: usize| i * (n + 1) + j;
    let weight = |i: usize, j: usize| sorted[i..j].iter().sum::<u64>();
    let mut a = vec![INFINITE; (n + 1) * (n + 1)];
    for i in 0..n {
        a[at(i, i + 1)] = 0;
    }
    let height = (usize::BITS - (n - 1).leading_zeros()).max(1);
    for _ in 0..height {
        let mut next = a.clone();
        for i in 0..n {
            for j in i + 2..=n {
                let best = (i + 1..j)
                    .filter(|&k| a[at(i, k)] != INFINITE && a[at(k, j)] != INFINITE)
                    .map(|k| a[at(i, k)] + a[at(k, j)])
                    .min();
                if let Some(best) = best {
                    next[at(i, j)] = next[at(i, j)].min(best + weight(i, j));
                }
            }
        }
        a = next;
    }
    a
}

#[test]
fn windowed_a_h_equals_the_cubic_recurrence() {
    let mut ns: Vec<usize> = (2..=24).collect();
    ns.extend([31, 32, 33, 47, 64, 65]);
    for n in ns {
        let mut r = rng(n, 5);
        for class in 0..4 {
            let mut sorted: Vec<u64> = (0..n)
                .map(|_| match class {
                    0 => 1 + r.below(4),
                    1 => r.below(4),
                    2 => 7,
                    _ => 1 + r.below(1 << 20),
                })
                .collect();
            sorted.sort_unstable();
            let windowed = height_bounded_costs(&sorted);
            let cubic = cubic_height_bounded(&sorted);
            for i in 0..=n {
                for j in 0..=n {
                    assert_eq!(
                        windowed[i * (n + 1) + j],
                        cubic[i * (n + 1) + j],
                        "A_H[{i}, {j}] for sorted weights {sorted:?}"
                    );
                }
            }
        }
    }
}
