//! Integration: determinism of the parallel algorithms — same inputs
//! give bit-identical outputs run to run (ties broken by smallest
//! index, as the paper's `Cut` definition specifies), regardless of
//! scheduling. Every pipeline is exercised under 1, 2, and 8 worker
//! threads; the cost tracer's span trees must also be identical,
//! because depth is counted in synchronous PRAM rounds rather than
//! wall-clock scheduling.

use partree::core::gen;
use partree::huffman::parallel::{huffman_parallel, huffman_parallel_cost_traced};
use partree::lcfl::grammar::even_palindromes;
use partree::lcfl::{parse_divide, recognize_divide};
use partree::monge::cut::concave_mul;
use partree::monge::dense::Matrix;
use partree::monge::smawk::smawk_mul;
use partree::obst::approx::approx_optimal_bst;
use partree::obst::ObstInstance;
use partree::pram::model::with_threads;
use partree::pram::CostTracer;
use partree::service::frame::Histogram;
use partree::service::CodebookCache;
use partree::service::FamilyId;
use partree::trees::finger::build_general;

const POOLS: [usize; 3] = [1, 2, 8];

#[test]
fn concave_mul_is_deterministic_across_runs_and_pools() {
    let a = Matrix::from_rows(&gen::random_monge(120, 95, 3));
    let b = Matrix::from_rows(&gen::random_monge(95, 130, 4));
    let baseline = concave_mul(&a, &b, &CostTracer::disabled());
    for threads in POOLS {
        for _ in 0..3 {
            let again = with_threads(threads, || concave_mul(&a, &b, &CostTracer::disabled()));
            assert_eq!(again.cut, baseline.cut, "threads={threads}");
            assert!(again.values.approx_eq(&baseline.values, 0.0));
        }
    }
}

#[test]
fn smawk_mul_is_stable_across_pools_and_runs() {
    // SMAWK-based (min,+) multiplication on the persistent executor:
    // racing steals may move lane blocks between workers, but the value
    // matrix must not wobble by a bit.
    let a = Matrix::from_rows(&gen::random_monge(100, 80, 7));
    let b = Matrix::from_rows(&gen::random_monge(80, 110, 8));
    let baseline = smawk_mul(&a, &b, &CostTracer::disabled());
    for threads in POOLS {
        for _ in 0..3 {
            let again = with_threads(threads, || smawk_mul(&a, &b, &CostTracer::disabled()));
            assert!(again.approx_eq(&baseline, 0.0), "threads={threads}");
        }
    }
}

#[test]
fn f64_reductions_are_bit_identical_under_racing_steals() {
    // Non-associative floating-point folds are the sharpest determinism
    // probe: the shim folds fixed 256-element blocks in index order on
    // the executor, so neither the pool width nor which worker stole
    // which block may perturb rounding.
    use rayon::prelude::*;
    let xs: Vec<f64> = (1..60_000).map(|i| 1.0 / (i as f64).sqrt()).collect();
    let baseline: f64 = with_threads(1, || xs.par_iter().copied().sum());
    for threads in POOLS {
        for _ in 0..5 {
            let sum: f64 = with_threads(threads, || xs.par_iter().copied().sum());
            assert_eq!(sum.to_bits(), baseline.to_bits(), "threads={threads}");
        }
    }
}

#[test]
fn huffman_parallel_outputs_are_stable() {
    let w = gen::zipf_weights(80, 1.1, 9);
    let first = huffman_parallel(&w).unwrap();
    for threads in POOLS {
        let again = with_threads(threads, || huffman_parallel(&w).unwrap());
        assert_eq!(again.lengths, first.lengths, "threads={threads}");
        assert_eq!(again.cost(), first.cost());
        assert_eq!(again.tree.leaf_levels(), first.tree.leaf_levels());
    }
}

#[test]
fn finger_reduction_is_stable() {
    let p = gen::pattern_with_fingers(16, 32, 5);
    let first = build_general(&p).unwrap();
    for threads in POOLS {
        let again = with_threads(threads, || build_general(&p).unwrap());
        assert_eq!(again.rounds, first.rounds, "threads={threads}");
        assert_eq!(again.tree.leaf_levels(), first.tree.leaf_levels());
    }
}

#[test]
fn approx_obst_is_stable() {
    let inst = ObstInstance::random(48, 200, 11);
    let first = approx_optimal_bst(&inst, 0.02).unwrap();
    for threads in POOLS {
        let again = with_threads(threads, || approx_optimal_bst(&inst, 0.02).unwrap());
        assert_eq!(again.cost, first.cost, "threads={threads}");
        assert_eq!(again.tree, first.tree);
    }
}

#[test]
fn lcfl_recognizer_and_parser_are_stable() {
    let g = even_palindromes();
    let good = gen::palindrome(40, 3);
    let mut bad = good.clone();
    bad[0] = if bad[0] == b'a' { b'b' } else { b'a' };
    let first = parse_divide(&g, &good).expect("accepted");
    for threads in POOLS {
        let (acc, rej, d) = with_threads(threads, || {
            (
                recognize_divide(&g, &good),
                recognize_divide(&g, &bad),
                parse_divide(&g, &good).expect("accepted"),
            )
        });
        assert!(acc, "threads={threads}");
        assert!(!rej, "threads={threads}");
        assert_eq!(d.rules, first.rules, "threads={threads}");
    }
}

#[test]
fn service_codebooks_are_bit_identical_across_pools() {
    // The service's cache must hand back the same canonical codebook
    // whatever pool width built it — for every code family: same code
    // lengths, same encoded bytes for a probe payload. This is what
    // makes first-insert-wins sound for racing misses.
    let hist = Histogram::new(vec![45, 13, 12, 16, 9, 5, 31, 2, 2, 8]).unwrap();
    let probe: Vec<u8> = (0..64).map(|i| (i * 7 % 10) as u8).collect();

    for family in FamilyId::ALL {
        let baseline = {
            let cache = CodebookCache::new(4, 16);
            let book = cache
                .get_or_build(&hist, family, &CostTracer::disabled())
                .unwrap();
            (book.lengths.clone(), book.encode(&probe).unwrap())
        };
        for threads in POOLS {
            let (lengths, encoded) = with_threads(threads, || {
                let cache = CodebookCache::new(4, 16);
                let book = cache
                    .get_or_build(&hist, family, &CostTracer::disabled())
                    .unwrap();
                (book.lengths.clone(), book.encode(&probe).unwrap())
            });
            assert_eq!(lengths, baseline.0, "{family} threads={threads}");
            assert_eq!(encoded, baseline.1, "{family} threads={threads}");
        }
    }
}

#[test]
fn racing_cache_misses_converge_on_one_codebook() {
    // Eight threads hit a cold cache with the same histogram at once.
    // Every thread may build, but construction is deterministic, so
    // all of them must return bit-identical codebooks, and the cache
    // must end up with a single resident entry.
    type Probe = (Vec<u32>, (Vec<u8>, u64));
    let hist = Histogram::new((1..=24).map(|i| i * i).collect()).unwrap();
    let probe: Vec<u8> = (0..48).map(|i| (i % 24) as u8).collect();
    for threads in POOLS {
        let cache = CodebookCache::new(8, 32);
        let results: Vec<Probe> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = &cache;
                    let hist = &hist;
                    let probe = &probe;
                    s.spawn(move || {
                        let book = with_threads(threads, || {
                            cache
                                .get_or_build(hist, FamilyId::Huffman, &CostTracer::disabled())
                                .unwrap()
                        });
                        (book.lengths.clone(), book.encode(probe).unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results[1..] {
            assert_eq!(r.0, results[0].0, "threads={threads}: lengths diverged");
            assert_eq!(r.1, results[0].1, "threads={threads}: encodings diverged");
        }
        assert_eq!(cache.len(), 1, "threads={threads}: duplicate entries");
        assert!(cache.misses() >= 1, "threads={threads}");
        // Hits + misses account for all eight lookups.
        assert_eq!(cache.hits() + cache.misses(), 8, "threads={threads}");
    }
}

#[test]
fn delta_patches_are_bit_identical_across_pools() {
    // The delta engine's patch-or-rebuild decision and the lengths it
    // serves must not depend on pool width: both the exact two-queue
    // patch verification and the fallback construction are
    // deterministic, so a drifted codebook patched under one thread
    // is byte-for-byte the codebook rebuilt under eight.
    use partree::delta::{apply, DeltaConfig};
    // 24 symbols fits every family (the choosable-edge DP caps at 32).
    let base: Vec<u32> = (1..=24u32).map(|i| i * i + i).collect();
    let cfg = DeltaConfig::default();
    for family in FamilyId::ALL {
        let n = base.len();
        let base = &base[..];
        let base_lengths = {
            let h = Histogram::new(base.to_vec()).unwrap();
            let cache = CodebookCache::new(1, 4);
            cache
                .get_or_build(&h, family, &CostTracer::disabled())
                .unwrap()
                .lengths
                .clone()
        };
        let mut drifted = base.to_vec();
        drifted[0] += drifted[0] / 2;
        drifted[n - 1] += 1;
        let baseline = apply(family, base, &base_lengths, &drifted, &cfg).unwrap();
        for threads in POOLS {
            let again = with_threads(threads, || {
                apply(family, base, &base_lengths, &drifted, &cfg).unwrap()
            });
            assert_eq!(again.path, baseline.path, "{family} threads={threads}");
            assert_eq!(
                again.lengths, baseline.lengths,
                "{family} threads={threads}"
            );
        }
    }
}

#[test]
fn delta_responses_are_bit_identical_over_tcp() {
    // A drifted encode served over the wire patches the base with the
    // deltas into exactly the bytes of a direct from-scratch encode of
    // the drifted histogram.
    use partree::service::net::Server;
    use partree::service::server::{Service, ServiceConfig};
    use partree::service::Client;

    let base_counts = vec![40u32, 20, 10, 5];
    let deltas = [(0u16, 8i32), (2, -3)];
    let drifted = Histogram::new(vec![48, 20, 7, 5]).unwrap();
    let payload: Vec<u8> = (0..96).map(|i| (i % 4) as u8).collect();

    let expected = {
        let svc = Service::start(ServiceConfig::default());
        let resp = svc.submit(partree::service::frame::Request::Encode {
            family: FamilyId::Huffman,
            histogram: drifted.clone(),
            payload: payload.clone(),
        });
        svc.shutdown();
        match resp {
            partree::service::frame::Response::Encoded { bit_len, data } => (bit_len, data),
            other => panic!("direct encode failed: {other:?}"),
        }
    };

    let server = Server::bind(Service::start(ServiceConfig::default()), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let base = Histogram::new(base_counts).unwrap();
    client.encode(&base, &payload).unwrap();
    let base_key = FamilyId::Huffman.tagged_key(base.hash64());
    let (path, bit_len, data) = client
        .encode_delta(FamilyId::Huffman, base_key, &deltas, &payload)
        .unwrap();
    assert_eq!(path, 0, "bounded drift patches");
    assert_eq!(
        (bit_len, &data),
        (expected.0, &expected.1),
        "patched bytes == from-scratch bytes"
    );
    let back = client
        .decode_delta(FamilyId::Huffman, base_key, &deltas, bit_len, &data)
        .unwrap();
    assert_eq!(back, payload);
    server.shutdown().unwrap();
}

#[test]
fn tracer_span_trees_are_pool_independent() {
    // Depth is counted in synchronous rounds, so the whole span tree —
    // names, nesting, work, depth — must not depend on how many OS
    // threads rayon actually used.
    let w = gen::zipf_weights(96, 1.1, 7);
    let baseline = {
        let t = CostTracer::named("huffman");
        let _ = huffman_parallel_cost_traced(&w, &t).unwrap();
        t.snapshot()
    };
    for threads in POOLS {
        let snap = with_threads(threads, || {
            let t = CostTracer::named("huffman");
            let _ = huffman_parallel_cost_traced(&w, &t).unwrap();
            t.snapshot()
        });
        assert_eq!(snap, baseline, "threads={threads}");
    }
}
