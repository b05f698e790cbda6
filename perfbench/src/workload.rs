//! The three workloads: their requests, their deterministic warm-up,
//! the client loop's per-op step, and the correctness gate.

use crate::gen::{self, stream, Chain, WarmItem};
use crate::trace::{SpanLog, NO_PARENT};
use partree_gateway::Gateway;
use partree_pram::CostTracer;
use partree_service::codebook::Codebook;
use partree_service::frame::{ErrorCode, Histogram, Request, Response};
use partree_service::FamilyId;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WarmCodec,
    ColdConstruct,
    DriftStream,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::WarmCodec, Kind::ColdConstruct, Kind::DriftStream];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmCodec => "warm_codec",
            Kind::ColdConstruct => "cold_construct",
            Kind::DriftStream => "drift_stream",
        }
    }
}

/// A response whose bytes differ from the in-process reference. It
/// aborts the run.
#[derive(Debug)]
pub struct Mismatch(pub String);

/// A response the gate checks after the measured phase, when building
/// its reference no longer competes with the fleet for the cores.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// Cold op `op` of `stream` answered with these encoded bytes.
    Cold { stream: u64, op: u64, hash: u64 },
    /// Chain `chain` of `stream`: payload `payload` encoded under the
    /// histogram after step `hist`.
    Drift {
        stream: u64,
        chain: u64,
        hist: usize,
        payload: usize,
        hash: u64,
    },
}

pub fn encoded_hash(bit_len: u64, data: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bit_len.hash(&mut h);
    data.hash(&mut h);
    h.finish()
}

pub fn build(histogram: &Histogram, family: FamilyId) -> Result<Codebook, ErrorCode> {
    Codebook::build(histogram, family, &CostTracer::disabled()).map_err(|e| e.code)
}

/// The reference encoding the gate compares a response against.
pub fn reference_hash(book: &Codebook, payload: &[u8]) -> Result<u64, Mismatch> {
    let (data, bit_len) = book
        .encode(payload)
        .map_err(|e| Mismatch(format!("reference encode failed: {e}")))?;
    match book.decode(&data, bit_len) {
        Ok(p) if p == payload => Ok(encoded_hash(bit_len, &data)),
        _ => Err(Mismatch("reference codebook does not round-trip".into())),
    }
}

pub fn encode_req(family: FamilyId, histogram: &Histogram, payload: &[u8]) -> Request {
    Request::Encode {
        family,
        histogram: histogram.clone(),
        payload: payload.to_vec(),
    }
}

/// The warm working set with its in-process references.
pub struct WarmSet {
    pub items: Vec<WarmItem>,
    /// `Err` where the in-process build fails (minimax at n = 128/256
    /// on these skewed histograms overflows 64-bit codewords).
    pub books: Vec<Result<Arc<Codebook>, ErrorCode>>,
    /// `refs[item][payload]` = the reference `(bit_len, bytes)`.
    pub refs: Vec<Vec<(u64, Vec<u8>)>>,
    /// Items whose codebook builds: the only ones ops are drawn over.
    pub live: Vec<usize>,
    /// `requests[item][payload]` = the (encode, decode) requests, built
    /// once so an op allocates no copy of its 16-KiB payload; empty for
    /// the items that fail to build.
    requests: Vec<Vec<[Request; 2]>>,
}

impl WarmSet {
    pub fn new(seed: u64) -> WarmSet {
        let items = gen::warm_items(seed);
        let books: Vec<_> = items
            .iter()
            .map(|it| build(&it.histogram, it.family).map(Arc::new))
            .collect();
        let refs: Vec<Vec<(u64, Vec<u8>)>> = items
            .iter()
            .zip(&books)
            .map(|(it, book)| match book {
                Ok(b) => it
                    .payloads
                    .iter()
                    .map(|p| {
                        let (data, bits) = b.encode(p).expect("warm payloads fit their alphabet");
                        (bits, data)
                    })
                    .collect(),
                Err(_) => Vec::new(),
            })
            .collect();
        let live = (0..items.len()).filter(|&i| books[i].is_ok()).collect();
        let requests = items
            .iter()
            .zip(&refs)
            .map(|(it, item_refs)| {
                item_refs
                    .iter()
                    .zip(&it.payloads)
                    .map(|((bit_len, data), payload)| {
                        [
                            encode_req(it.family, &it.histogram, payload),
                            Request::Decode {
                                family: it.family,
                                histogram: it.histogram.clone(),
                                bit_len: *bit_len,
                                data: data.clone(),
                            },
                        ]
                    })
                    .collect()
            })
            .collect();
        WarmSet {
            items,
            books,
            refs,
            live,
            requests,
        }
    }

    /// The request for a warm op of a live item.
    pub fn request(&self, op: gen::WarmOp) -> &Request {
        &self.requests[op.item][op.payload][usize::from(op.decode)]
    }

    /// Builds the working set on the fleet: every payload of every item
    /// encoded and decoded once. The items whose in-process build fails
    /// stay in the set: the fleet must fail them with the same error.
    /// Returns how many failed so.
    fn load(&self, gw: &Gateway) -> Result<usize, Mismatch> {
        let mut known_failures = 0;
        for (idx, it) in self.items.iter().enumerate() {
            if let Err(code) = &self.books[idx] {
                match gw.request(&encode_req(it.family, &it.histogram, &it.payloads[0])) {
                    Ok(Response::Error { code: c, .. }) if c == *code => known_failures += 1,
                    other => {
                        return Err(Mismatch(format!(
                            "warm item {idx}: in-process build fails with {code:?}, fleet answered {other:?}"
                        )))
                    }
                }
                continue;
            }
            for payload in 0..it.payloads.len() {
                for decode in [false, true] {
                    let op = gen::WarmOp {
                        item: idx,
                        payload,
                        decode,
                    };
                    let resp = gw.request(self.request(op));
                    if !resp.as_ref().map_or(Ok(false), |r| self.check(op, r))? {
                        return Err(Mismatch(format!("warm-up op failed: {resp:?}")));
                    }
                }
            }
        }
        Ok(known_failures)
    }

    /// The gate for a warm response.
    pub fn check(&self, op: gen::WarmOp, resp: &Response) -> Result<bool, Mismatch> {
        let ok = match resp {
            Response::Encoded { bit_len, data } if !op.decode => {
                let (rb, rd) = &self.refs[op.item][op.payload];
                rb == bit_len && rd == data
            }
            Response::Decoded { payload } if op.decode => {
                *payload == self.items[op.item].payloads[op.payload]
            }
            Response::Error { .. } | Response::Busy | Response::Timeout => return Ok(false),
            _ => false,
        };
        if ok {
            Ok(true)
        } else {
            Err(Mismatch(format!(
                "warm item {} payload {} ({}): response differs from the in-process build",
                op.item,
                op.payload,
                if op.decode { "decode" } else { "encode" }
            )))
        }
    }
}

/// Attempts per drift step, re-seeds included.
const MAX_DELTA_ATTEMPTS: usize = 16;

/// The drift chains' request plan: ops per chain and the request for
/// each position.
pub const OPS_PER_CHAIN: u64 = 1 + 2 * gen::DRIFT_STEPS;

/// The request at `pos` of `chain`; a decode step carries `encoded`,
/// the previous encode step's `(bit_len, bytes)`.
pub fn drift_request(chain: &Chain, pos: u64, encoded: &(u64, Vec<u8>)) -> Request {
    let family = chain.kind.family();
    if pos == 0 {
        return encode_req(family, &chain.hists[0], &chain.payloads[0]);
    }
    let step = pos.div_ceil(2) as usize;
    let base_key = family.tagged_key(chain.hists[step - 1].hash64());
    let deltas = chain.deltas[step - 1].clone();
    if pos % 2 == 1 {
        Request::EncodeDelta {
            family,
            base_key,
            deltas,
            payload: chain.payloads[step].clone(),
        }
    } else {
        Request::DecodeDelta {
            family,
            base_key,
            deltas,
            bit_len: encoded.0,
            data: encoded.1.clone(),
        }
    }
}

/// Routing key the gateway uses for a codec request.
pub fn route_key(req: &Request) -> u64 {
    match req {
        Request::Encode {
            family, histogram, ..
        }
        | Request::Decode {
            family, histogram, ..
        } => family.tagged_key(histogram.hash64()),
        Request::EncodeDelta { base_key, .. } | Request::DecodeDelta { base_key, .. } => *base_key,
        _ => 0,
    }
}

/// One closed-loop client: its op stream and what the gate still has
/// to check.
pub struct Client<'a> {
    kind: Kind,
    seed: u64,
    warm: Option<&'a WarmSet>,
    /// The op stream: measured or warm-up.
    stream: u64,
    pub next_op: u64,
    pub checks: Vec<Check>,
    /// Drift steps run: ops that send `EncodeDelta` or `DecodeDelta`.
    pub delta_ops: u64,
    /// Delta requests this client sent, re-tries included.
    pub delta_sent: u64,
    /// Drift steps answered `UnknownBase` at least once.
    pub unknown_base: u64,
    /// When set, every op and every gateway call in it is a span.
    pub spans: Option<SpanLog>,
    op_span: u32,
    chain: Option<(u64, Chain)>,
    /// The last `EncodeDelta` answer and the (chain, step) it is for: a
    /// decode step sends it back.
    encoded: (u64, Vec<u8>),
    encoded_for: Option<(u64, usize)>,
}

/// An op drawn and turned into its request before its timer starts, so
/// input generation is not part of the measured latency. A warm op's
/// request is the working set's own.
pub struct Planned {
    op: u64,
    request: Option<Request>,
    warm: Option<gen::WarmOp>,
}

impl Planned {
    /// The request of a cold or drift op.
    fn owned(&self) -> &Request {
        self.request
            .as_ref()
            .expect("cold and drift ops carry their request")
    }
}

impl<'a> Client<'a> {
    pub fn new(kind: Kind, seed: u64, warm: Option<&'a WarmSet>, stream: u64) -> Client<'a> {
        Client {
            kind,
            seed,
            warm,
            stream,
            next_op: 0,
            checks: Vec::new(),
            delta_ops: 0,
            delta_sent: 0,
            unknown_base: 0,
            spans: None,
            op_span: NO_PARENT,
            chain: None,
            encoded: (0, Vec::new()),
            encoded_for: None,
        }
    }

    /// Draws the next op.
    pub fn plan(&mut self) -> Planned {
        let i = self.next_op;
        self.next_op += 1;
        match self.kind {
            Kind::WarmCodec => {
                let warm = self.warm.expect("warm clients carry the working set");
                let op = gen::warm_op(self.seed, self.stream, i, &warm.live);
                Planned {
                    op: i,
                    request: None,
                    warm: Some(op),
                }
            }
            Kind::ColdConstruct => {
                let op = gen::cold_op(self.seed, self.stream, i);
                Planned {
                    op: i,
                    request: Some(encode_req(op.family, &op.histogram, &op.payload)),
                    warm: None,
                }
            }
            Kind::DriftStream => {
                let c = i / OPS_PER_CHAIN;
                if self.chain.as_ref().map(|(k, _)| *k) != Some(c) {
                    self.chain = Some((c, gen::chain(self.seed, self.stream, c)));
                }
                let chain = &self.chain.as_ref().expect("just set").1;
                Planned {
                    op: i,
                    request: Some(drift_request(chain, i % OPS_PER_CHAIN, &self.encoded)),
                    warm: None,
                }
            }
        }
    }

    /// Draws and runs the next op.
    pub fn step(&mut self, gw: &Gateway) -> Result<bool, Mismatch> {
        let p = self.plan();
        self.exec(gw, p)
    }

    fn call(&mut self, gw: &Gateway, op: u64, req: &Request) -> io::Result<Response> {
        let parent = self.op_span;
        match self.spans.as_mut() {
            Some(log) => {
                log.time("gateway.request", op, parent, || gw.request(req))
                    .1
            }
            None => gw.request(req),
        }
    }

    /// Runs a planned op through `gw`. `Ok(true)` = succeeded and (for
    /// warm ops) checked; `Ok(false)` = an error response or transport
    /// failure, counted as a failed op; `Err` = a byte mismatch.
    pub fn exec(&mut self, gw: &Gateway, p: Planned) -> Result<bool, Mismatch> {
        if let Some(log) = self.spans.as_mut() {
            self.op_span = log.open("op", p.op, NO_PARENT);
        }
        let r = match self.kind {
            Kind::WarmCodec => {
                let warm = self.warm.expect("warm clients carry the working set");
                let op = p.warm.expect("warm ops are planned as such");
                match self.call(gw, p.op, warm.request(op)) {
                    Ok(resp) => warm.check(op, &resp),
                    Err(_) => Ok(false),
                }
            }
            Kind::ColdConstruct => match self.call(gw, p.op, p.owned()) {
                Ok(Response::Encoded { bit_len, data }) => {
                    self.checks.push(Check::Cold {
                        stream: self.stream,
                        op: p.op,
                        hash: encoded_hash(bit_len, &data),
                    });
                    Ok(true)
                }
                Ok(Response::Error { .. } | Response::Busy | Response::Timeout) | Err(_) => {
                    Ok(false)
                }
                Ok(other) => Err(Mismatch(format!("cold op {}: unexpected {other:?}", p.op))),
            },
            Kind::DriftStream => {
                let (c, chain) = self
                    .chain
                    .take()
                    .expect("drift ops are planned with their chain");
                let r = self.drift_exec(gw, c, &chain, p);
                self.chain = Some((c, chain));
                r
            }
        };
        if let Some(log) = self.spans.as_mut() {
            log.close(self.op_span);
        }
        r
    }

    fn drift_exec(
        &mut self,
        gw: &Gateway,
        c: u64,
        chain: &Chain,
        p: Planned,
    ) -> Result<bool, Mismatch> {
        let stream = self.stream;
        let pos = p.op % OPS_PER_CHAIN;
        let step = pos.div_ceil(2) as usize;
        let family = chain.kind.family();
        let mut reseeded = false;
        if pos > 0 {
            self.delta_ops += 1;
        }
        if pos > 0 && pos.is_multiple_of(2) && self.encoded_for != Some((c, step)) {
            // The step's encode failed (or ran before this phase): there
            // is nothing to decode, so the decode fails with it.
            return Ok(false);
        }
        // The documented client contract for `UnknownBase`: re-seed the
        // base with a full encode, then retry. The answer can come from
        // a hedge to a replica that never held the base while the home
        // replica still works on the step, so one re-seed is not always
        // enough; the bound only turns a replica that keeps losing the
        // base into a failed op.
        for _attempt in 0..MAX_DELTA_ATTEMPTS {
            if pos > 0 {
                self.delta_sent += 1;
            }
            let resp = match self.call(gw, p.op, p.owned()) {
                Ok(r) => r,
                Err(_) => return Ok(false),
            };
            match resp {
                Response::Encoded { bit_len, data } if pos == 0 => {
                    self.checks.push(Check::Drift {
                        stream,
                        chain: c,
                        hist: 0,
                        payload: 0,
                        hash: encoded_hash(bit_len, &data),
                    });
                    return Ok(true);
                }
                Response::DeltaEncoded { bit_len, data, .. } if pos % 2 == 1 => {
                    self.checks.push(Check::Drift {
                        stream,
                        chain: c,
                        hist: step,
                        payload: step,
                        hash: encoded_hash(bit_len, &data),
                    });
                    self.encoded = (bit_len, data);
                    self.encoded_for = Some((c, step));
                    return Ok(true);
                }
                Response::Decoded { payload } if pos > 0 && pos.is_multiple_of(2) => {
                    if payload != chain.payloads[step] {
                        return Err(Mismatch(format!(
                            "drift chain {c} step {step}: decode differs from the payload"
                        )));
                    }
                    return Ok(true);
                }
                Response::Error {
                    code: ErrorCode::UnknownBase,
                    ..
                } if pos > 0 => {
                    if !reseeded {
                        self.unknown_base += 1;
                        reseeded = true;
                    }
                    let base = step - 1;
                    let reseed = encode_req(family, &chain.hists[base], &chain.payloads[base]);
                    match self.call(gw, p.op, &reseed) {
                        Ok(Response::Encoded { bit_len, data }) => {
                            self.checks.push(Check::Drift {
                                stream,
                                chain: c,
                                hist: base,
                                payload: base,
                                hash: encoded_hash(bit_len, &data),
                            });
                        }
                        _ => return Ok(false),
                    }
                }
                Response::Error { .. } | Response::Busy | Response::Timeout => return Ok(false),
                other => {
                    return Err(Mismatch(format!(
                        "drift chain {c} position {pos}: unexpected {other:?}"
                    )))
                }
            }
        }
        Ok(false)
    }
}

/// Checks every deferred response against an in-process build of the
/// same (family, histogram). Runs on `threads` threads, each building
/// at pool width 1.
pub fn verify(seed: u64, checks: &[Check], threads: usize) -> Result<usize, Mismatch> {
    if checks.is_empty() {
        return Ok(0);
    }
    let per = checks.len().div_ceil(threads.max(1));
    std::thread::scope(|s| {
        let handles: Vec<_> = checks
            .chunks(per)
            .map(|part| s.spawn(move || verify_part(seed, part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread panicked"))
            .sum::<Result<usize, Mismatch>>()
    })
}

fn verify_part(seed: u64, checks: &[Check]) -> Result<usize, Mismatch> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    pool.install(|| {
        let mut chain: Option<((u64, u64), Chain)> = None;
        let mut books: Vec<Option<Codebook>> = Vec::new();
        for check in checks {
            match *check {
                Check::Cold { stream, op, hash } => {
                    let op_in = gen::cold_op(seed, stream, op);
                    let book = build(&op_in.histogram, op_in.family).map_err(|e| {
                        Mismatch(format!("cold op {op}: served bytes, in-process build {e:?}"))
                    })?;
                    if reference_hash(&book, &op_in.payload)? != hash {
                        return Err(Mismatch(format!(
                            "cold op {op}: encoded bytes differ from the in-process build"
                        )));
                    }
                }
                Check::Drift {
                    stream,
                    chain: c,
                    hist,
                    payload,
                    hash,
                } => {
                    if chain.as_ref().map(|(k, _)| *k) != Some((stream, c)) {
                        let ch = gen::chain(seed, stream, c);
                        books = (0..ch.hists.len()).map(|_| None).collect();
                        chain = Some(((stream, c), ch));
                    }
                    let ch = &chain.as_ref().expect("just set").1;
                    if books[hist].is_none() {
                        books[hist] = Some(build(&ch.hists[hist], ch.kind.family()).map_err(
                            |e| Mismatch(format!("drift chain {c}: in-process build {e:?}")),
                        )?);
                    }
                    let book = books[hist].as_ref().expect("just built");
                    if reference_hash(book, &ch.payloads[payload])? != hash {
                        return Err(Mismatch(format!(
                            "drift chain {c} histogram {hist}: encoded bytes differ from a from-scratch build"
                        )));
                    }
                }
            }
        }
        Ok(checks.len())
    })
}

/// Ops each warm-up runs through the gateway after loading the
/// working set (warm), sized so one set-up takes about a second on a
/// quiet 2-core host and thread start-up is a small part of it.
pub fn warmup_ops(kind: Kind) -> u64 {
    match kind {
        Kind::WarmCodec => 700,
        Kind::ColdConstruct => 500,
        Kind::DriftStream => 50 * OPS_PER_CHAIN,
    }
}

/// The workload's in-process inputs, built once before any fleet
/// starts, and what its warm-up found.
pub struct Prepared {
    pub warm: Option<WarmSet>,
    /// Warm items whose build fails in-process and on the fleet alike.
    pub known_failures: usize,
}

impl Prepared {
    pub fn new(kind: Kind, seed: u64) -> Prepared {
        Prepared {
            warm: (kind == Kind::WarmCodec).then(|| WarmSet::new(seed)),
            known_failures: 0,
        }
    }
}

/// The deterministic warm-up of a fresh fleet: builds the working set
/// on it (warm), then runs a fixed count of ops from the workload's
/// warm-up stream, so the gateway's latency average and its hedges
/// have settled before the first timed op. Warm responses are checked
/// as they arrive; the others are returned for [`verify`].
pub fn warm_up(
    kind: Kind,
    seed: u64,
    prep: &mut Prepared,
    gw: &Gateway,
) -> Result<Vec<Check>, Mismatch> {
    if let Some(warm) = &prep.warm {
        prep.known_failures = warm.load(gw)?;
    }
    let warmup_stream = match kind {
        Kind::WarmCodec => stream::WARM_WARMUP,
        Kind::ColdConstruct => stream::COLD_WARMUP,
        Kind::DriftStream => stream::DRIFT_WARMUP,
    };
    let mut client = Client::new(kind, seed, prep.warm.as_ref(), warmup_stream);
    for _ in 0..warmup_ops(kind) {
        if !client.step(gw)? {
            return Err(Mismatch("a warm-up op failed".into()));
        }
    }
    Ok(client.checks)
}

/// The measured op stream.
pub fn measured_stream(kind: Kind) -> u64 {
    match kind {
        Kind::WarmCodec => stream::WARM,
        Kind::ColdConstruct => stream::COLD,
        Kind::DriftStream => stream::DRIFT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partree_service::frame::encode_request;

    /// The wire bytes of the first `n` measured requests of a workload,
    /// with decode steps carrying the in-process reference encoding.
    fn op_bytes(kind: Kind, seed: u64, n: u64) -> Vec<Vec<u8>> {
        match kind {
            Kind::WarmCodec => {
                let warm = WarmSet::new(seed);
                (0..n)
                    .map(|i| {
                        let op =
                            gen::warm_op(seed, measured_stream(Kind::WarmCodec), i, &warm.live);
                        encode_request(i, warm.request(op))
                    })
                    .collect()
            }
            Kind::ColdConstruct => (0..n)
                .map(|i| {
                    let op = gen::cold_op(seed, stream::COLD, i);
                    encode_request(i, &encode_req(op.family, &op.histogram, &op.payload))
                })
                .collect(),
            Kind::DriftStream => (0..n)
                .map(|i| {
                    let chain = gen::chain(seed, stream::DRIFT, i / OPS_PER_CHAIN);
                    let pos = i % OPS_PER_CHAIN;
                    let step = pos.div_ceil(2) as usize;
                    let book = build(&chain.hists[step], chain.kind.family()).unwrap();
                    let (data, bits) = book.encode(&chain.payloads[step]).unwrap();
                    encode_request(i, &drift_request(&chain, pos, &(bits, data)))
                })
                .collect(),
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_ops() {
        for kind in Kind::ALL {
            let a = op_bytes(kind, 7, 40);
            assert_eq!(a, op_bytes(kind, 7, 40), "{}", kind.name());
            assert_ne!(a, op_bytes(kind, 8, 40), "{}", kind.name());
        }
    }

    #[test]
    fn warm_set_keeps_the_failing_minimax_items() {
        for seed in [1, 7, 1000, 1009] {
            let warm = WarmSet::new(seed);
            assert_eq!(warm.items.len(), 16);
            let failing: Vec<usize> = (0..16).filter(|&i| warm.books[i].is_err()).collect();
            // Minimax at n = 128 and 256, on every seed.
            assert_eq!(failing.len(), 2, "seed {seed}");
            for &i in &failing {
                assert_eq!(warm.items[i].family, FamilyId::Minimax);
                assert!(warm.items[i].histogram.alphabet() >= 128);
            }
            assert_eq!(warm.live.len() + failing.len(), 16);
        }
    }

    #[test]
    fn gate_flags_a_corrupted_warm_response() {
        let warm = WarmSet::new(3);
        let item = warm.live[0];
        let enc = gen::WarmOp {
            item,
            payload: 1,
            decode: false,
        };
        let (bit_len, data) = warm.refs[item][1].clone();
        let good = Response::Encoded {
            bit_len,
            data: data.clone(),
        };
        assert!(warm.check(enc, &good).unwrap());
        let mut bad = data;
        bad[0] ^= 0x10;
        let bad = Response::Encoded { bit_len, data: bad };
        assert!(warm.check(enc, &bad).is_err());

        let dec = gen::WarmOp {
            decode: true,
            ..enc
        };
        let mut payload = warm.items[item].payloads[1].clone();
        assert!(warm
            .check(
                dec,
                &Response::Decoded {
                    payload: payload.clone()
                }
            )
            .unwrap());
        payload[5] = payload[5].wrapping_add(1);
        assert!(warm.check(dec, &Response::Decoded { payload }).is_err());
        // An error response is a failed op, not a mismatch.
        assert!(!warm.check(enc, &Response::Busy).unwrap());
    }

    #[test]
    fn gate_flags_corrupted_deferred_responses() {
        let seed = 5;
        let op = gen::cold_op(seed, stream::COLD, 3);
        let book = build(&op.histogram, op.family).unwrap();
        let (data, bit_len) = book.encode(&op.payload).unwrap();
        let good = Check::Cold {
            stream: stream::COLD,
            op: 3,
            hash: encoded_hash(bit_len, &data),
        };
        assert_eq!(verify(seed, &[good], 1).unwrap(), 1);
        let mut bad = data;
        bad[0] ^= 1;
        let bad = Check::Cold {
            stream: stream::COLD,
            op: 3,
            hash: encoded_hash(bit_len, &bad),
        };
        assert!(verify(seed, &[good, bad], 2).is_err());

        let chain = gen::chain(seed, stream::DRIFT, 2);
        let book = build(&chain.hists[4], chain.kind.family()).unwrap();
        let (data, bit_len) = book.encode(&chain.payloads[4]).unwrap();
        let drift = |bit_len| Check::Drift {
            stream: stream::DRIFT,
            chain: 2,
            hist: 4,
            payload: 4,
            hash: encoded_hash(bit_len, &data),
        };
        assert_eq!(verify(seed, &[drift(bit_len)], 1).unwrap(), 1);
        assert!(verify(seed, &[drift(bit_len + 1)], 1).is_err());
    }
}
