//! E9 (Theorem 7.4, Claim 7.1): Shannon–Fano vs Huffman.
//!
//! Construction-time series (SF's `n/log n`-processor construction is
//! asymptotically cheaper than exact Huffman) plus encode/decode
//! throughput of the resulting canonical code: the table-driven serving
//! kernels against the tree oracle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use partree_bench::Distribution;
use partree_codes::canonical::canonical_code;
use partree_codes::shannon_fano::shannon_fano;
use partree_codes::table::canonical_kernels;
use partree_core::gen;
use partree_huffman::sequential::huffman_heap;

fn bench_codes(c: &mut Criterion) {
    let mut g = c.benchmark_group("code_construction");
    g.sample_size(10);
    for &n in &[1_000usize, 10_000, 100_000] {
        let w = Distribution::Zipf.weights(n, 9);
        g.bench_with_input(BenchmarkId::new("shannon_fano", n), &n, |b, _| {
            b.iter(|| shannon_fano(&w).unwrap().lengths.len())
        });
        g.bench_with_input(BenchmarkId::new("huffman_heap", n), &n, |b, _| {
            b.iter(|| huffman_heap(&w).unwrap().lengths.len())
        });
    }
    g.finish();

    // The serving kernels (table encoder, primary-table decoder) next
    // to the tree oracle, on the same canonical code and payload.
    let mut g = c.benchmark_group("encode_decode");
    let n_sym = 256usize;
    let w = Distribution::Zipf.weights(n_sym, 4);
    let huff = huffman_heap(&w).unwrap();
    let tree = canonical_code(&huff.lengths).unwrap();
    let (enc, dec) = canonical_kernels(&huff.lengths).unwrap();
    let payload = gen::random_string(100_000, &(0..=255u8).collect::<Vec<_>>(), 7);
    let msg: Vec<usize> = payload.iter().map(|&b| usize::from(b)).collect();
    g.throughput(Throughput::Elements(msg.len() as u64));
    g.bench_function("encode_100k_symbols_tree", |b| {
        b.iter(|| tree.encode(&msg).unwrap().1)
    });
    g.bench_function("encode_100k_symbols_table", |b| {
        b.iter(|| enc.encode(&payload).unwrap().1)
    });
    let (bytes, bits) = enc.encode(&payload).unwrap();
    g.bench_function("decode_100k_symbols_tree", |b| {
        b.iter(|| tree.decode(&bytes, bits).unwrap().len())
    });
    g.bench_function("decode_100k_symbols_table", |b| {
        b.iter(|| dec.decode_bytes(&bytes, bits).unwrap().len())
    });
    g.finish();
}

criterion_group!(benches, bench_codes);
criterion_main!(benches);
