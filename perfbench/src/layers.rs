//! Per-layer metrics of the traced run. Each layer is timed from the
//! outside, around calls to its public functions, on the workload's
//! own inputs: the same request goes through `Gateway::request`,
//! through `Client::request` to the replica that served it, through
//! that replica's `Service::submit`, and through the `Codebook` call it
//! wraps, so each layer's self time is its span minus the next one in.

use crate::fleet::{service_config, Fleet};
use crate::gen::{self, stream, Rng};
use crate::stats::median;
use crate::trace::{SpanLog, NO_PARENT};
use crate::workload::{self, build, drift_request, encode_req, route_key, Kind, Prepared};
use crate::Metric;
use partree_delta::{DeltaConfig, DeltaPath};
use partree_service::codebook::{Codebook, CodebookCache};
use partree_service::frame::{
    decode_request, decode_response, encode_request, encode_response, read_frame, Histogram,
    Request, Response,
};
use partree_service::{Client, FamilyId};
use std::sync::Arc;
use std::time::Instant;

/// One replayed request with what it takes to replay it.
struct Replay {
    op: u64,
    request: Request,
    /// Sent untimed first, so the timed calls find the key resident.
    prime: Vec<Request>,
    family: FamilyId,
    /// The codebook the replica serves the request from.
    book: Arc<Codebook>,
}

/// Ops replayed per workload.
const REPLAYS: u64 = 300;

fn replays(kind: Kind, seed: u64, prep: &Prepared) -> Vec<Replay> {
    match kind {
        Kind::WarmCodec => {
            let warm = prep.warm.as_ref().expect("warm state");
            (0..REPLAYS)
                .map(|i| {
                    let op = gen::warm_op(seed, workload::measured_stream(kind), i, &warm.live);
                    let request = warm.request(op).clone();
                    Replay {
                        op: i,
                        prime: vec![request.clone()],
                        request,
                        family: warm.items[op.item].family,
                        book: Arc::clone(warm.books[op.item].as_ref().expect("live item")),
                    }
                })
                .collect()
        }
        Kind::ColdConstruct => (0..REPLAYS)
            .map(|i| {
                let op = gen::cold_op(seed, stream::COLD, i);
                let request = encode_req(op.family, &op.histogram, &op.payload);
                Replay {
                    op: i,
                    prime: vec![request.clone()],
                    request,
                    family: op.family,
                    book: Arc::new(build(&op.histogram, op.family).expect("cold builds")),
                }
            })
            .collect(),
        Kind::DriftStream => {
            let mut out = Vec::new();
            let chains = REPLAYS / workload::OPS_PER_CHAIN;
            for c in 0..chains {
                let chain = gen::chain(seed, stream::DRIFT, c);
                let family = chain.kind.family();
                let books: Vec<Arc<Codebook>> = chain
                    .hists
                    .iter()
                    .map(|h| Arc::new(build(h, family).expect("drift builds")))
                    .collect();
                for pos in 0..workload::OPS_PER_CHAIN {
                    let step = pos.div_ceil(2) as usize;
                    let (data, bits) = books[step]
                        .encode(&chain.payloads[step])
                        .expect("payload fits");
                    let request = drift_request(&chain, pos, &(bits, data));
                    let mut prime = Vec::new();
                    if pos > 0 {
                        // Seed the base on the replica the step routes
                        // to, then let the step install its drift.
                        let base = step - 1;
                        prime.push(encode_req(
                            family,
                            &chain.hists[base],
                            &chain.payloads[base],
                        ));
                    }
                    prime.push(request.clone());
                    out.push(Replay {
                        op: c * workload::OPS_PER_CHAIN + pos,
                        request,
                        prime,
                        family,
                        book: Arc::clone(&books[step]),
                    });
                }
            }
            out
        }
    }
}

fn ok(resp: &Response) -> bool {
    matches!(
        resp,
        Response::Encoded { .. } | Response::Decoded { .. } | Response::DeltaEncoded { .. }
    )
}

/// Frame codec round trip of one request and its response, as both
/// ends of a connection run it; returns what the far ends decoded.
fn frame_round_trip(req: &Request, resp: &Response) -> Option<(Request, Response)> {
    let wire = encode_request(7, req);
    let raw = read_frame(&mut wire.as_slice()).ok()??;
    let req = decode_request(raw.opcode, &raw.body).ok()?;
    let wire = encode_response(7, resp);
    let raw = read_frame(&mut wire.as_slice()).ok()??;
    Some((req, decode_response(raw.opcode, &raw.body).ok()?))
}

fn med(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        median(&mut v)
    }
}

/// Median of `reps` timings of `f`, µs.
fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    med((0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect())
}

/// Timed calls per layer and replayed op; the fastest is the span.
/// Differences of single calls drown a layer of tens of µs in the
/// noise of a 16-KiB payload's coding time.
const REPS: usize = 3;

/// Runs `f` [`REPS`] times and records its fastest run as the span.
fn fastest<R>(
    log: &mut SpanLog,
    name: &'static str,
    op: u64,
    parent: u32,
    mut f: impl FnMut() -> R,
) -> (u32, R) {
    let mut best: Option<(Instant, Instant, R)> = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        if best.as_ref().is_none_or(|(a, b, _)| t1 - t0 < *b - *a) {
            best = Some((t0, t1, r));
        }
    }
    let (t0, t1, r) = best.expect("at least one repetition");
    (log.record(name, op, parent, t0, t1), r)
}

/// A stand-in input for a family the workload never sends (only
/// choosable-edge on `drift_stream`), so every family's codec and
/// construction metrics exist on every workload.
fn stand_in(seed: u64, family: FamilyId) -> (Histogram, Vec<u8>) {
    let mut rng = Rng::keyed(&[seed, 0x5A, family.tag().into()]);
    let n = if family == FamilyId::ChoosableEdge {
        12
    } else {
        64
    };
    let counts = gen::skewed_counts(&mut rng, n);
    let payload = gen::sample_payload(&mut rng, &counts, gen::DRIFT_PAYLOAD_LEN);
    (gen::histogram(counts), payload)
}

/// Replays the workload's first ops through every layer and measures
/// the layers that run inside one request.
pub fn measure(kind: Kind, seed: u64, prep: &Prepared, fleet: &Fleet) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| out.push((name.into(), value, unit));
    let replays = replays(kind, seed, prep);
    let gw = &fleet.gateway;
    let mut clients: Vec<Client> = fleet
        .servers
        .iter()
        .map(|s| Client::connect(s.addr()).expect("connect to replica"))
        .collect();

    let mut log = SpanLog::new(Instant::now());
    for r in &replays {
        if !r.prime.iter().all(|p| gw.request(p).is_ok_and(|x| ok(&x))) {
            continue;
        }
        let home = Fleet::home(route_key(&r.request));
        let mut submits = vec![r.request.clone(); REPS];
        let root = log.open("op", r.op, NO_PARENT);
        let (g, resp) = fastest(&mut log, "gateway.request", r.op, root, || {
            gw.request(&r.request)
        });
        let (c, resp_c) = fastest(&mut log, "client.request", r.op, g, || {
            clients[home].request(&r.request)
        });
        let svc = fleet.servers[home].service();
        let (s, resp_s) = fastest(&mut log, "service.submit", r.op, c, || {
            svc.submit(submits.pop().expect("one request per repetition"))
        });
        let (_, codec_ok) = fastest(&mut log, "codebook.call", r.op, s, || match &r.request {
            Request::Encode { payload, .. } | Request::EncodeDelta { payload, .. } => {
                std::hint::black_box(r.book.encode(payload)).is_ok()
            }
            Request::Decode { bit_len, data, .. } | Request::DecodeDelta { bit_len, data, .. } => {
                std::hint::black_box(r.book.decode(data, *bit_len)).is_ok()
            }
            _ => false,
        });
        let (_, frame_back) = fastest(&mut log, "frame.codec", r.op, root, || {
            frame_round_trip(&r.request, &resp_s)
        });
        let frame_ok = frame_back.is_some_and(|(q, p)| q == r.request && p == resp_s);
        log.close(root);
        if resp_c.is_err() {
            // A connection that errored may be mid-frame: never reuse it.
            clients[home] =
                Client::connect(fleet.servers[home].addr()).expect("reconnect to replica");
        }
        let all_ok = resp.is_ok_and(|x| ok(&x))
            && resp_c.is_ok_and(|x| ok(&x))
            && ok(&resp_s)
            && codec_ok
            && frame_ok;
        if !all_ok {
            // A replay that hit an error (a hedge answered from a replica
            // without the base) is not a sample of the happy path.
            let first = root as usize;
            log.spans.truncate(first);
        }
    }
    drop(clients);
    put(
        "gateway.overhead_us",
        med(log.self_us("gateway.request")),
        "us",
    );
    put("net.overhead_us", med(log.self_us("client.request")), "us");
    put(
        "service.overhead_us",
        med(log.self_us("service.submit")),
        "us",
    );
    put("frame.codec_us", med(log.dur_us("frame.codec")), "us");

    // Payload coding per family, on the workload's (book, payload) pairs.
    let family_pairs = |f: FamilyId| -> Vec<(Arc<Codebook>, Vec<u8>)> {
        let mut pairs: Vec<(Arc<Codebook>, Vec<u8>)> = replays
            .iter()
            .filter(|r| r.family == f)
            .filter_map(|r| match &r.request {
                Request::Encode { payload, .. } | Request::EncodeDelta { payload, .. } => {
                    Some((Arc::clone(&r.book), payload.clone()))
                }
                _ => None,
            })
            .take(16)
            .collect();
        if pairs.is_empty() {
            let (h, p) = stand_in(seed, f);
            pairs.push((Arc::new(build(&h, f).expect("stand-in builds")), p));
        }
        pairs
    };
    for f in FamilyId::ALL {
        let pairs = family_pairs(f);
        let mut enc = Vec::new();
        let mut dec = Vec::new();
        for (book, payload) in &pairs {
            let (data, bits) = book.encode(payload).expect("payload fits");
            let mb = payload.len() as f64;
            enc.push(mb / time_us(5, || book.encode(payload)));
            dec.push(mb / time_us(5, || book.decode(&data, bits)));
        }
        put(&format!("codes.encode_mb_s.{}", f.name()), med(enc), "MB/s");
        put(&format!("codes.decode_mb_s.{}", f.name()), med(dec), "MB/s");
    }

    // Tier-0 cache hits on the workload's resident keys, in a cache
    // with the service's shard count whose every shard can hold all of
    // them, so no probe can miss on an eviction.
    let cfg = service_config();
    let mut resident: Vec<(Histogram, FamilyId)> = Vec::new();
    for r in &replays {
        let h = r.book.histogram.clone();
        if resident.len() < 32 && !resident.iter().any(|(x, f)| *x == h && *f == r.family) {
            resident.push((h, r.family));
        }
    }
    let cache = CodebookCache::new(cfg.cache_shards, cfg.cache_shards * resident.len());
    let tracer = partree_pram::CostTracer::disabled();
    for (h, f) in &resident {
        let _ = cache.get_or_build(h, *f, &tracer);
    }
    let hits_before = cache.hits();
    let mut hit = Vec::new();
    for _ in 0..20 {
        for (h, f) in &resident {
            hit.push(time_us(1, || cache.get_or_build(h, *f, &tracer)));
        }
    }
    assert_eq!(
        cache.hits() - hits_before,
        hit.len() as u64,
        "cache probes must all hit"
    );
    put("cache.hit_us", med(hit), "us");

    // Construction per family at the service's pool width, and the
    // Huffman speedup of that width over width 1.
    let wide = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.pool_threads)
        .build()
        .expect("pool");
    let narrow = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let hists_of = |f: FamilyId| -> Vec<Histogram> {
        let mut hs: Vec<Histogram> = Vec::new();
        let mut push = |h: &Histogram| {
            if hs.len() < 8 && !hs.contains(h) {
                hs.push(h.clone());
            }
        };
        match &prep.warm {
            Some(warm) => warm
                .items
                .iter()
                .zip(&warm.books)
                .filter(|(it, b)| it.family == f && b.is_ok())
                .for_each(|(it, _)| push(&it.histogram)),
            None => replays
                .iter()
                .filter(|r| r.family == f)
                .for_each(|r| push(&r.book.histogram)),
        }
        if hs.is_empty() {
            hs.push(stand_in(seed, f).0);
        }
        hs
    };
    let build_us = |pool: &rayon::ThreadPool, hs: &[Histogram], f: FamilyId| -> f64 {
        med(hs
            .iter()
            .map(|h| time_us(3, || pool.install(|| build(h, f))))
            .collect())
    };
    for f in FamilyId::ALL {
        let hs = hists_of(f);
        let wide_us = build_us(&wide, &hs, f);
        put(&format!("codecs.build_us.{}", f.name()), wide_us, "us");
        if f == FamilyId::Huffman {
            let narrow_us = build_us(&narrow, &hs, f);
            put("exec.pool_speedup.huffman", narrow_us / wide_us, "x");
        }
    }

    // The delta engine, split by the path it takes: the workload's own
    // drift steps, or (warm, cold) a bounded drift of its histograms.
    let delta_cfg = DeltaConfig::from_ratio_pct(cfg.delta_ratio_pct);
    let mut apply_us = [Vec::new(), Vec::new()];
    let mut drifts: Vec<(FamilyId, Vec<u32>, Vec<u32>)> = Vec::new();
    if kind == Kind::DriftStream {
        for r in &replays {
            if let Request::EncodeDelta { deltas, .. } = &r.request {
                let drifted = r.book.histogram.counts().to_vec();
                let inverse: Vec<(u16, i32)> = deltas.iter().map(|&(s, d)| (s, -d)).collect();
                drifts.push((r.family, gen::apply_drift(&drifted, &inverse), drifted));
            }
        }
    } else {
        for (i, r) in replays.iter().enumerate().take(64) {
            let base = r.book.histogram.counts().to_vec();
            let mut rng = Rng::keyed(&[seed, 0xDE, i as u64]);
            let d = gen::sparse_drift(&mut rng, &base);
            let drifted = gen::apply_drift(&base, &d);
            drifts.push((r.family, base, drifted));
        }
    }
    // Shannon–Fano always patches and minimax always rebuilds, so a
    // stand-in drift of each guarantees both paths have samples.
    for f in [FamilyId::ShannonFano, FamilyId::Minimax] {
        let base = stand_in(seed, f).0.counts().to_vec();
        let d = gen::sparse_drift(&mut Rng::keyed(&[seed, 0xDF, f.tag().into()]), &base);
        let drifted = gen::apply_drift(&base, &d);
        drifts.push((f, base, drifted));
    }
    for (f, base, drifted) in &drifts {
        let Ok(base_book) = build(&gen::histogram(base.clone()), *f) else {
            continue;
        };
        let mut path = DeltaPath::Rebuilt;
        let us = time_us(3, || {
            let r = wide.install(|| {
                partree_delta::apply(*f, base, &base_book.lengths, drifted, &delta_cfg)
            });
            if let Ok(r) = r {
                path = r.path;
            }
        });
        apply_us[usize::from(path.tag())].push(us);
    }
    let [patched, rebuilt] = apply_us;
    put("delta.apply_us.patched", med(patched), "us");
    put("delta.apply_us.rebuilt", med(rebuilt), "us");
    out
}
