//! The router itself: deadline-budgeted attempts over a rendezvous
//! preference order, with bounded retries, one hedge, and health-gated
//! replica selection.
//!
//! ## Attempt lifecycle
//!
//! Each codec request walks its key's preference order. Every attempt is
//! a non-blocking call on the gateway's one RPC reactor
//! ([`crate::reactor`]), which multiplexes all replica connections on a
//! single epoll thread; the call's completion callback reports back over
//! a channel, and the router's event loop decides what each outcome
//! means:
//!
//! | outcome                         | class     | breaker        |
//! |---------------------------------|-----------|----------------|
//! | `Encoded`/`Decoded`/`Stats`     | terminal  | success        |
//! | `Error` (malformed, bad symbol…)| terminal  | success        |
//! | `Busy`                          | retryable | success        |
//! | `Timeout` (server-side)         | retryable | success        |
//! | `Error(ShuttingDown)`           | retryable | **failure**    |
//! | transport `io::Error`           | retryable | **failure**    |
//!
//! The split in the last column is deliberate: `Busy`/`Timeout` prove
//! the replica is alive (it parsed the frame and answered), so they
//! must not open the breaker — only liveness failures do.
//!
//! ## Hedging
//!
//! If the first attempt has not answered after an adaptive threshold —
//! `max(hedge_after_min, 3 × EWMA of successful attempt latency)`, or
//! `deadline / 4` before any data exists — one hedge is launched at the
//! next replica in the preference order and the first response wins.
//! The loser's completion callback still runs on the reactor thread,
//! recording its replica's metrics, and its connection goes back to the
//! idle pool, because the event loop may already have returned to the
//! caller.
//!
//! ## Determinism
//!
//! The gateway adds no compute: a response that arrives is byte-for-byte
//! what the serving replica produced, and every replica produces
//! identical bytes for identical requests (the service's determinism
//! contract). Retries, failover, and hedging therefore never change
//! *what* is returned, only *which* replica returns it.

use crate::breaker::{Breaker, BreakerConfig, BreakerState};
use crate::metrics::{Metrics, ReplicaMetrics, ReplicaSnapshot};
use crate::reactor::RpcClient;
use crate::route::{home, preference_order};
use partree_service::frame::{ErrorCode, Histogram, Request, Response, WarmEntry};
use partree_service::FamilyId;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Router tunables. `new` fills in defaults sized for loopback
/// replicas; every field is public for tests and experiments.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Replica addresses; index in this list is the replica id.
    pub addrs: Vec<SocketAddr>,
    /// Total per-request budget: attempts, backoff, and hedging all
    /// spend from it.
    pub deadline: Duration,
    /// Extra attempts allowed after the first (hedges not counted).
    pub max_retries: u32,
    /// First backoff step; doubles per retry up to `backoff_cap`.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Floor for the adaptive hedge threshold.
    pub hedge_after_min: Duration,
    /// Idle connections kept per replica.
    pub pool_cap: usize,
    /// TCP connect budget per attempt (also the whole budget of each
    /// probe and warm-up call).
    pub connect_timeout: Duration,
    /// Per-replica breaker tunables.
    pub breaker: BreakerConfig,
    /// Health-probe period.
    pub probe_interval: Duration,
    /// Most codebooks donated to a recovered replica before its
    /// breaker re-closes (fleet warm-up). `0` disables warm-up.
    pub warmup_keys: usize,
    /// Most breaker-closed donors whose hot sets are merged (deduped
    /// on family-tagged keys) into one warm-up push. More donors see
    /// more of the fleet's heat at the cost of extra `HotSet` fetches
    /// per recovery. Defaults from `PARTREE_WARM_DONORS` (2 when
    /// unset); `0` disables warm-up.
    pub warm_donors: usize,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl GatewayConfig {
    /// Defaults for a loopback fleet at `addrs`.
    pub fn new(addrs: Vec<SocketAddr>) -> GatewayConfig {
        GatewayConfig {
            addrs,
            deadline: Duration::from_secs(2),
            max_retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            hedge_after_min: Duration::from_millis(1),
            pool_cap: 8,
            connect_timeout: Duration::from_millis(500),
            breaker: BreakerConfig::default(),
            probe_interval: Duration::from_millis(100),
            warmup_keys: 32,
            warm_donors: env_usize("PARTREE_WARM_DONORS", 2),
        }
    }
}

/// One replica as the gateway sees it.
#[derive(Debug)]
struct Replica {
    id: usize,
    addr: SocketAddr,
    breaker: Breaker,
    metrics: ReplicaMetrics,
    /// Last drain bit reported by a probe or inferred from `Busy`-free
    /// traffic; draining replicas are skipped while alternatives exist.
    draining: AtomicBool,
}

impl Replica {
    /// Eligible for new attempts: breaker allows (this call performs
    /// the open → half-open transition when the cooldown has elapsed)
    /// and the replica is not draining.
    fn healthy(&self) -> bool {
        !self.draining.load(Ordering::Relaxed) && self.breaker.allow()
    }
}

struct Inner {
    cfg: GatewayConfig,
    replicas: Vec<Replica>,
    metrics: Metrics,
    /// EWMA of successful data-attempt latency, µs (0 = no data yet).
    ewma_us: AtomicU64,
    /// Set by [`Gateway::drain`]: new requests are shed as `Busy`.
    draining: AtomicBool,
    /// Set by shutdown: stops the prober thread.
    stopped: AtomicBool,
    /// Codec requests currently inside [`Gateway::request`].
    inflight: AtomicU64,
    /// Reactor calls currently outstanding (hedge losers included).
    attempts_live: AtomicU64,
    /// Jitter state for backoff.
    jitter_seed: AtomicU64,
    /// The reactor every attempt, probe and warm-up call runs on.
    rpc: RpcClient,
}

impl Inner {
    fn next_jitter(&self) -> u64 {
        let mut x = self.jitter_seed.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_seed.store(x, Ordering::Relaxed);
        x
    }

    /// `base·2^(retry-1)` capped, jittered into `[½, 1]×`, clamped to
    /// the remaining budget.
    fn backoff(&self, retry: u32, remaining: Duration) -> Duration {
        let exp = self
            .cfg
            .backoff_base
            .saturating_mul(1u32 << (retry.saturating_sub(1)).min(16))
            .min(self.cfg.backoff_cap);
        let jitter = self.next_jitter() % 1024;
        let d = exp / 2 + exp.mul_f64(jitter as f64 / 2048.0);
        d.min(remaining)
    }

    fn observe_latency(&self, us: u64) {
        let old = self.ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 { us } else { old - old / 8 + us / 8 };
        self.ewma_us.store(new.max(1), Ordering::Relaxed);
    }

    fn hedge_threshold(&self) -> Duration {
        let ewma = self.ewma_us.load(Ordering::Relaxed);
        if ewma == 0 {
            self.cfg.deadline / 4
        } else {
            Duration::from_micros(ewma.saturating_mul(3)).max(self.cfg.hedge_after_min)
        }
    }
}

/// What one attempt's completion callback reports back to the event
/// loop.
struct AttemptReport {
    replica: usize,
    hedge: bool,
    outcome: io::Result<Response>,
}

/// How the event loop treats a response.
#[derive(PartialEq, Eq)]
enum Class {
    Terminal,
    Retryable,
}

fn classify(resp: &Response) -> Class {
    match resp {
        Response::Busy | Response::Timeout => Class::Retryable,
        Response::Error {
            code: ErrorCode::ShuttingDown,
            ..
        } => Class::Retryable,
        _ => Class::Terminal,
    }
}

/// The sharded replica router. Cheap to share (`request` takes `&self`)
/// — open one per fleet, not one per thread.
pub struct Gateway {
    inner: Arc<Inner>,
    prober: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("replicas", &self.inner.replicas.len())
            .finish()
    }
}

impl Gateway {
    /// Builds the router and starts its background health prober.
    /// Connections are dialed lazily; replicas may come up after this
    /// call (their breakers simply stay open until a probe succeeds).
    pub fn start(cfg: GatewayConfig) -> Gateway {
        assert!(!cfg.addrs.is_empty(), "gateway needs at least one replica");
        let replicas = cfg
            .addrs
            .iter()
            .enumerate()
            .map(|(id, &addr)| Replica {
                id,
                addr,
                breaker: Breaker::new(cfg.breaker),
                metrics: ReplicaMetrics::default(),
                draining: AtomicBool::new(false),
            })
            .collect();
        let rpc = RpcClient::start(cfg.pool_cap)
            // lint: allow(no-unwrap): reactor startup happens once at gateway startup; failure there is resource exhaustion before any request exists
            .expect("start rpc reactor");
        let inner = Arc::new(Inner {
            replicas,
            metrics: Metrics::default(),
            ewma_us: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            attempts_live: AtomicU64::new(0),
            jitter_seed: AtomicU64::new(0x853c_49e6_748f_ea9b),
            rpc,
            cfg,
        });
        let prober = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("gateway-prober".into())
                .spawn(move || prober_loop(&inner))
                // lint: allow(no-unwrap): prober spawn happens once at gateway startup; failure there is resource exhaustion before any request exists
                .expect("spawn prober")
        };
        Gateway {
            inner,
            prober: Some(prober),
        }
    }

    /// Routes one request. Control requests (`Stats`, `Ping`, `Drain`)
    /// are answered by the gateway itself; `Encode`/`Decode` go through
    /// the full retry/hedge machinery. `Err` is transport-level only —
    /// server-side failures arrive as `Response::Error`/`Busy`/`Timeout`
    /// exactly as a direct [`partree_service::client::Client`] would
    /// surface them.
    pub fn request(&self, request: &Request) -> io::Result<Response> {
        match request {
            Request::Stats => Ok(Response::Stats {
                json: self.stats_json(),
            }),
            Request::Ping => Ok(Response::Pong {
                draining: self.inner.draining.load(Ordering::Relaxed),
            }),
            Request::Drain => {
                self.drain();
                Ok(Response::DrainOk)
            }
            // Warm-up frames are replica-to-replica transfers the
            // gateway's own prober issues; routing one *through* the
            // router has no meaningful target replica.
            Request::WarmUp { .. } | Request::HotSet { .. } => Ok(Response::Error {
                code: ErrorCode::Malformed,
                message: "warm-up opcodes address a single replica; \
                          the gateway issues them itself during recovery"
                    .into(),
            }),
            // The routing key is family-tagged (matching the service's
            // cache key), so different families over the same histogram
            // may home on different replicas — each replica then serves
            // its (histogram, family) pair from a warm cache. Huffman's
            // tag is the identity, so legacy traffic routes exactly as
            // before.
            Request::Encode {
                family, histogram, ..
            }
            | Request::Decode {
                family, histogram, ..
            } => self.route_codec(request, *family, family.tagged_key(histogram.hash64())),
            // Delta requests route by the *base* key — already
            // family-tagged, and exactly the key the base's own
            // encode/decode traffic routed on — so the drift lands on
            // the replica whose cache holds the base hot.
            Request::EncodeDelta {
                family, base_key, ..
            }
            | Request::DecodeDelta {
                family, base_key, ..
            } => self.route_codec(request, *family, *base_key),
        }
    }

    /// Encodes `payload` under `histogram`'s classic Huffman code via
    /// the fleet; mirrors [`partree_service::client::Client::encode`].
    pub fn encode(&self, histogram: &Histogram, payload: &[u8]) -> io::Result<(u64, Vec<u8>)> {
        self.encode_with(FamilyId::Huffman, histogram, payload)
    }

    /// Decodes `bit_len` bits of `data` under `histogram`'s classic
    /// Huffman code via the fleet; mirrors
    /// [`partree_service::client::Client::decode`].
    pub fn decode(&self, histogram: &Histogram, bit_len: u64, data: &[u8]) -> io::Result<Vec<u8>> {
        self.decode_with(FamilyId::Huffman, histogram, bit_len, data)
    }

    /// Encodes `payload` under the code `family` builds for `histogram`
    /// via the fleet; mirrors
    /// [`partree_service::client::Client::encode_with`].
    pub fn encode_with(
        &self,
        family: FamilyId,
        histogram: &Histogram,
        payload: &[u8],
    ) -> io::Result<(u64, Vec<u8>)> {
        let resp = self.request(&Request::Encode {
            family,
            histogram: histogram.clone(),
            payload: payload.to_vec(),
        })?;
        match resp {
            Response::Encoded { bit_len, data } => Ok((bit_len, data)),
            other => Err(io::Error::other(format!("expected Encoded, got {other:?}"))),
        }
    }

    /// Decodes `bit_len` bits of `data` under the code `family` builds
    /// for `histogram` via the fleet; mirrors
    /// [`partree_service::client::Client::decode_with`].
    pub fn decode_with(
        &self,
        family: FamilyId,
        histogram: &Histogram,
        bit_len: u64,
        data: &[u8],
    ) -> io::Result<Vec<u8>> {
        let resp = self.request(&Request::Decode {
            family,
            histogram: histogram.clone(),
            bit_len,
            data: data.to_vec(),
        })?;
        match resp {
            Response::Decoded { payload } => Ok(payload),
            other => Err(io::Error::other(format!("expected Decoded, got {other:?}"))),
        }
    }

    /// Encodes `payload` against a drift of the base codebook named by
    /// `base_key` via the fleet; mirrors
    /// [`partree_service::client::Client::encode_delta`]. Returns
    /// `(path, bit_len, bytes)` with `path` the `DeltaPath` tag
    /// (0 = patched, 1 = rebuilt by the serving replica).
    pub fn encode_delta(
        &self,
        family: FamilyId,
        base_key: u64,
        deltas: &[(u16, i32)],
        payload: &[u8],
    ) -> io::Result<(u8, u64, Vec<u8>)> {
        let resp = self.request(&Request::EncodeDelta {
            family,
            base_key,
            deltas: deltas.to_vec(),
            payload: payload.to_vec(),
        })?;
        match resp {
            Response::DeltaEncoded {
                path,
                bit_len,
                data,
            } => Ok((path, bit_len, data)),
            other => Err(io::Error::other(format!(
                "expected DeltaEncoded, got {other:?}"
            ))),
        }
    }

    /// Decodes `bit_len` bits of `data` under the drifted codebook
    /// named by `(base_key, deltas)` via the fleet; mirrors
    /// [`partree_service::client::Client::decode_delta`].
    pub fn decode_delta(
        &self,
        family: FamilyId,
        base_key: u64,
        deltas: &[(u16, i32)],
        bit_len: u64,
        data: &[u8],
    ) -> io::Result<Vec<u8>> {
        let resp = self.request(&Request::DecodeDelta {
            family,
            base_key,
            deltas: deltas.to_vec(),
            bit_len,
            data: data.to_vec(),
        })?;
        match resp {
            Response::Decoded { payload } => Ok(payload),
            other => Err(io::Error::other(format!("expected Decoded, got {other:?}"))),
        }
    }

    /// Stops accepting new requests (they are shed as `Busy`);
    /// in-flight requests complete. Irreversible.
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::Relaxed);
    }

    /// Drains, waits for in-flight requests and outstanding attempts
    /// (hedge losers included) to finish, stops the prober, and stops
    /// the RPC reactor, closing every connection. Waits at most
    /// `deadline + 1s` past the drain before giving up on stragglers.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.drain();
        let give_up = Instant::now() + self.inner.cfg.deadline + Duration::from_secs(1);
        while (self.inner.inflight.load(Ordering::Relaxed) > 0
            || self.inner.attempts_live.load(Ordering::Relaxed) > 0)
            && Instant::now() < give_up
        {
            thread::sleep(Duration::from_millis(1));
        }
        self.inner.stopped.store(true, Ordering::Relaxed);
        if let Some(h) = self.prober.take() {
            let _ = h.join();
        }
        // Straggler calls complete with a shutdown error via their drop
        // guards as the reactor unwinds.
        self.inner.rpc.shutdown_in_place();
    }

    /// Current counters, breaker states, and latency histograms.
    pub fn snapshot(&self) -> crate::metrics::GatewaySnapshot {
        let rows = self
            .inner
            .replicas
            .iter()
            .map(|r| ReplicaSnapshot {
                id: r.id,
                addr: r.addr.to_string(),
                latency: r.metrics.latency.buckets(),
                breaker: r.breaker.state(),
                breaker_opened: r.breaker.opened_total(),
                draining: r.draining.load(Ordering::Relaxed),
                ..r.metrics.load()
            })
            .collect();
        self.inner.metrics.snapshot(rows)
    }

    /// [`Gateway::snapshot`] as JSON (schema in `EXPERIMENTS.md` § E15).
    pub fn stats_json(&self) -> String {
        self.snapshot().to_json()
    }

    /// Number of replicas in the fleet.
    pub fn replica_count(&self) -> usize {
        self.inner.replicas.len()
    }

    /// The routing event loop for one codec request.
    fn route_codec(&self, request: &Request, family: FamilyId, key: u64) -> io::Result<Response> {
        let inner = &self.inner;
        if inner.draining.load(Ordering::Relaxed) {
            inner
                .metrics
                .rejected_shutdown
                .fetch_add(1, Ordering::Relaxed);
            return Ok(Response::Busy);
        }
        inner.metrics.requests.fetch_add(1, Ordering::Relaxed);
        inner.metrics.family_requests[family.index()].fetch_add(1, Ordering::Relaxed);
        inner.inflight.fetch_add(1, Ordering::Relaxed);
        let result = self.route_codec_inner(request, key);
        inner.inflight.fetch_sub(1, Ordering::Relaxed);
        result
    }

    fn route_codec_inner(&self, request: &Request, key: u64) -> io::Result<Response> {
        let inner = &self.inner;
        let n = inner.replicas.len();
        let start = Instant::now();
        let deadline = start + inner.cfg.deadline;
        let order = preference_order(key, n);
        let home = order[0];
        let hedge_at = start + inner.hedge_threshold();
        let request = Arc::new(request.clone());
        let (tx, rx) = mpsc::channel::<AttemptReport>();

        let mut rank = 0usize; // next position in the routing sequence
        let mut in_flight: Vec<usize> = Vec::with_capacity(2);
        let mut retries_used = 0u32;
        let mut hedged = false;

        let first = self.pick(&order, &mut rank, &in_flight);
        self.launch(first, &request, false, deadline, &tx);
        in_flight.push(first);

        loop {
            let now = Instant::now();
            if now >= deadline {
                inner
                    .metrics
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "gateway deadline of {:?} exhausted after {} attempt(s)",
                        inner.cfg.deadline,
                        in_flight.len() as u32 + retries_used
                    ),
                ));
            }
            // Wake at the hedge point while the hedge is still armed,
            // otherwise at the deadline.
            let wait = if !hedged && !in_flight.is_empty() && hedge_at > now {
                (hedge_at - now).min(deadline - now)
            } else {
                deadline - now
            };
            match rx.recv_timeout(wait) {
                Ok(report) => {
                    in_flight.retain(|&r| r != report.replica);
                    match report.outcome {
                        Ok(resp) if classify(&resp) == Class::Terminal => {
                            inner.metrics.completed.fetch_add(1, Ordering::Relaxed);
                            if report.replica != home {
                                inner.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                            }
                            if report.hedge {
                                inner.metrics.hedges_won.fetch_add(1, Ordering::Relaxed);
                            }
                            return Ok(resp);
                        }
                        outcome => {
                            // Retryable: Busy / Timeout / ShuttingDown /
                            // transport error.
                            if retries_used < inner.cfg.max_retries {
                                retries_used += 1;
                                inner.metrics.retries.fetch_add(1, Ordering::Relaxed);
                                // Back off only when nothing is in
                                // flight — otherwise the outstanding
                                // attempt *is* the wait.
                                if in_flight.is_empty() {
                                    let pause = inner.backoff(
                                        retries_used,
                                        deadline.saturating_duration_since(Instant::now()),
                                    );
                                    if !pause.is_zero() {
                                        thread::sleep(pause);
                                    }
                                }
                                let next = self.pick(&order, &mut rank, &in_flight);
                                self.launch(next, &request, false, deadline, &tx);
                                in_flight.push(next);
                            } else if in_flight.is_empty() {
                                // Budget exhausted: surface the failure
                                // as a direct client would.
                                return outcome;
                            }
                            // Budget exhausted but an attempt is still
                            // out — keep waiting for it.
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if !hedged && !in_flight.is_empty() && Instant::now() >= hedge_at {
                        hedged = true;
                        inner.metrics.hedges_issued.fetch_add(1, Ordering::Relaxed);
                        let next = self.pick(&order, &mut rank, &in_flight);
                        self.launch(next, &request, true, deadline, &tx);
                        in_flight.push(next);
                    }
                    // Deadline handling happens at the top of the loop.
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("event loop holds a sender")
                }
            }
        }
    }

    /// Next attempt target: walk the preference order (cyclically from
    /// `rank`), preferring healthy replicas not already in flight; if
    /// none qualifies, fall back to any not-in-flight replica (counted
    /// as `no_healthy_replica`), and as a last resort reuse the order
    /// head.
    fn pick(&self, order: &[usize], rank: &mut usize, in_flight: &[usize]) -> usize {
        let inner = &self.inner;
        let n = order.len();
        for _ in 0..n {
            let r = order[*rank % n];
            *rank += 1;
            if !in_flight.contains(&r) && inner.replicas[r].healthy() {
                return r;
            }
        }
        inner
            .metrics
            .no_healthy_replica
            .fetch_add(1, Ordering::Relaxed);
        for _ in 0..n {
            let r = order[*rank % n];
            *rank += 1;
            if !in_flight.contains(&r) {
                return r;
            }
        }
        let r = order[*rank % n];
        *rank += 1;
        r
    }

    /// Launches one attempt: a non-blocking reactor call whose
    /// completion callback (run on the reactor thread, hedge losers
    /// included) feeds the breaker and counters through
    /// [`account_attempt`] and reports to the event loop.
    fn launch(
        &self,
        replica: usize,
        request: &Arc<Request>,
        hedge: bool,
        deadline: Instant,
        tx: &mpsc::Sender<AttemptReport>,
    ) {
        let inner = Arc::clone(&self.inner);
        let tx = tx.clone();
        let r = &self.inner.replicas[replica];
        self.inner.attempts_live.fetch_add(1, Ordering::Relaxed);
        r.metrics.attempts.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        self.inner.rpc.call(
            r.addr,
            Arc::clone(request),
            deadline,
            self.inner.cfg.connect_timeout,
            move |outcome| {
                let outcome = account_attempt(&inner, replica, t0, outcome);
                let _ = tx.send(AttemptReport {
                    replica,
                    hedge,
                    outcome,
                });
                inner.attempts_live.fetch_sub(1, Ordering::Relaxed);
            },
        );
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        if self.prober.is_some() {
            self.shutdown_in_place();
        }
    }
}

/// The tail of an attempt, run in its completion callback: feeds the
/// breaker and the per-replica counters, then hands the outcome back
/// unchanged.
fn account_attempt(
    inner: &Inner,
    replica: usize,
    t0: Instant,
    result: io::Result<Response>,
) -> io::Result<Response> {
    let r = &inner.replicas[replica];
    if breaker_counts_as_failure(&result) {
        r.breaker.record_failure();
    } else {
        r.breaker.record_success();
    }
    match &result {
        Ok(resp) => match resp {
            Response::Busy | Response::Timeout => {
                r.metrics.busy.fetch_add(1, Ordering::Relaxed);
            }
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            } => {
                r.metrics.transport_errors.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                let us = t0.elapsed().as_micros() as u64;
                r.metrics.successes.fetch_add(1, Ordering::Relaxed);
                r.metrics.record_latency(us);
                inner.observe_latency(us);
            }
        },
        Err(_) => {
            r.metrics.transport_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    result
}

/// The liveness line the module docs promise: transport errors and
/// `ShuttingDown` count as breaker failures; every reachable-replica
/// outcome — including `Busy`/`Timeout` backpressure — counts as a
/// breaker success. Public so the breaker property tests drive this
/// exact classification instead of re-stating it.
pub fn breaker_counts_as_failure(outcome: &io::Result<Response>) -> bool {
    match outcome {
        Ok(Response::Error {
            code: ErrorCode::ShuttingDown,
            ..
        }) => true,
        Ok(_) => false,
        Err(_) => true,
    }
}

/// Background health prober: pings every replica each period, feeding
/// the breakers and the drain flags. Probes bypass `Breaker::allow`,
/// which is how an open breaker learns its replica recovered — one
/// good ping re-closes it without waiting for half-open data traffic.
fn prober_loop(inner: &Arc<Inner>) {
    while !inner.stopped.load(Ordering::Relaxed) {
        for r in &inner.replicas {
            if inner.stopped.load(Ordering::Relaxed) {
                return;
            }
            // A replica that closed our idle connections went down
            // since the last round, even if it is back already: the
            // round counts as a failed probe, so the next good one
            // warms it before its breaker re-closes.
            let pong = if inner.rpc.take_idle_lost(r.addr) {
                None
            } else {
                inner
                    .rpc
                    .call_blocking(r.addr, Request::Ping, inner.cfg.connect_timeout)
                    .ok()
            };
            match pong {
                Some(Response::Pong { draining }) => {
                    r.metrics.pings_ok.fetch_add(1, Ordering::Relaxed);
                    r.draining.store(draining, Ordering::Relaxed);
                    // A good ping from a replica whose breaker is not
                    // closed means it just came back (restart or
                    // recovery). Refill its cache from a healthy donor
                    // *before* re-closing the breaker — data traffic
                    // only resumes once `record_success` runs, so the
                    // replica's first real requests land warm.
                    if !draining
                        && inner.cfg.warmup_keys > 0
                        && r.breaker.state() != BreakerState::Closed
                    {
                        warm_up_replica(inner, r);
                    }
                    r.breaker.record_success();
                }
                // A transport error, any answer but `Pong`, or a restart.
                _ => {
                    r.metrics.pings_failed.fetch_add(1, Ordering::Relaxed);
                    r.breaker.record_failure();
                    // Idle connections to a failing replica are suspect.
                    inner.rpc.purge(r.addr);
                }
            }
        }
        // Sleep in short slices so shutdown is prompt.
        let until = Instant::now() + inner.cfg.probe_interval;
        while Instant::now() < until && !inner.stopped.load(Ordering::Relaxed) {
            thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Fleet warm-up: stream healthy donors' hottest codebooks to a
/// replica that just came back, so its first data requests after the
/// breaker re-closes hit a warm cache instead of paying construction
/// (or, with a persistent store, so tier 0 is hot before tier 1 is
/// even consulted).
///
/// Donors are the other breaker-closed, non-draining replicas — up to
/// `warm_donors` of them, their hot sets merged and deduped on the
/// family-tagged key before the single `WarmUp` push, so a key that
/// failed over to different survivors at different times is donated
/// once. Only entries whose rendezvous home is the recovering replica
/// are pushed (those are exactly the keys that failed over *away*
/// from it while it was down, and the keys it will serve again the
/// moment routing resumes). Every call is a blocking bridge over the
/// RPC reactor and best-effort: a failed donation changes nothing but
/// the number of cold misses the replica pays later.
fn warm_up_replica(inner: &Inner, target: &Replica) {
    let n = inner.replicas.len();
    let budget = inner.cfg.connect_timeout;
    let max = inner.cfg.warmup_keys;
    let mut entries: Vec<WarmEntry> = Vec::new();
    let mut donors_used = 0usize;
    for donor in &inner.replicas {
        if donors_used >= inner.cfg.warm_donors {
            break;
        }
        if donor.id == target.id
            || donor.draining.load(Ordering::Relaxed)
            || donor.breaker.state() != BreakerState::Closed
        {
            continue;
        }
        let hot = inner.rpc.call_blocking(
            donor.addr,
            Request::HotSet {
                max: max.min(u16::MAX as usize) as u16,
            },
            budget,
        );
        let Ok(Response::HotSet { entries: hot }) = hot else {
            continue;
        };
        donors_used += 1;
        for e in hot {
            if entries.len() >= max {
                break;
            }
            // Donated entries carry their family; home them on the same
            // family-tagged key the router uses for data traffic, so a
            // recovering replica is warmed with exactly the
            // (histogram, family) pairs it is about to serve.
            let key = e.family.tagged_key(e.histogram.hash64());
            if home(key, n) != target.id {
                continue;
            }
            if entries
                .iter()
                .any(|x| x.family.tagged_key(x.histogram.hash64()) == key)
            {
                continue;
            }
            entries.push(e);
        }
        if entries.len() >= max {
            break;
        }
    }
    if entries.is_empty() {
        return;
    }
    let sent = entries.len() as u64;
    let pushed = inner
        .rpc
        .call_blocking(target.addr, Request::WarmUp { entries }, budget);
    if let Ok(Response::WarmedUp { .. }) = pushed {
        inner.metrics.warmups.fetch_add(1, Ordering::Relaxed);
        inner
            .metrics
            .warmup_keys_sent
            .fetch_add(sent, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partree_service::net::Server;
    use partree_service::server::{Service, ServiceConfig};

    fn fleet(n: usize) -> (Vec<Server>, Vec<SocketAddr>) {
        let servers: Vec<Server> = (0..n)
            .map(|_| Server::bind(Service::start(ServiceConfig::default()), "127.0.0.1:0").unwrap())
            .collect();
        let addrs = servers.iter().map(|s| s.addr()).collect();
        (servers, addrs)
    }

    /// Routing, not hedging, is under test: on a loaded host a hedge
    /// lands the request on a second replica too (an extra success
    /// there, or a fast `UnknownBase` for a delta that wins the race).
    /// Both hedge thresholds — `deadline / 4` before any latency data,
    /// `hedge_after_min` after — are pushed out of reach.
    fn unhedged_cfg(addrs: Vec<SocketAddr>) -> GatewayConfig {
        let mut cfg = tiny_cfg(addrs);
        cfg.deadline = Duration::from_secs(10);
        cfg.hedge_after_min = cfg.deadline;
        cfg
    }

    fn tiny_cfg(addrs: Vec<SocketAddr>) -> GatewayConfig {
        let mut cfg = GatewayConfig::new(addrs);
        cfg.deadline = Duration::from_secs(2);
        cfg.backoff_base = Duration::from_millis(2);
        cfg.probe_interval = Duration::from_millis(20);
        cfg.breaker.open_cooldown = Duration::from_millis(100);
        cfg
    }

    #[test]
    fn roundtrips_and_matches_direct_service() {
        let (servers, addrs) = fleet(3);
        let gw = Gateway::start(tiny_cfg(addrs));
        let direct = Service::start(ServiceConfig::default());

        for seed in 0u64..20 {
            let payload: Vec<u8> = (0..512).map(|i| ((seed * 31 + i) % 7) as u8).collect();
            let hist = Histogram::of_payload(7, &payload).unwrap();
            let (bits, data) = gw.encode(&hist, &payload).unwrap();
            let via_direct = direct.submit(Request::Encode {
                family: FamilyId::Huffman,
                histogram: hist.clone(),
                payload: payload.clone(),
            });
            match via_direct {
                Response::Encoded {
                    bit_len,
                    data: d_data,
                } => {
                    assert_eq!((bits, &data), (bit_len, &d_data), "gateway == direct");
                }
                other => panic!("direct encode failed: {other:?}"),
            }
            let back = gw.decode(&hist, bits, &data).unwrap();
            assert_eq!(back, payload);
        }

        let snap = gw.snapshot();
        assert_eq!(snap.requests, 40);
        assert_eq!(snap.completed, 40);
        assert_eq!(snap.deadline_exceeded, 0);
        assert!(
            snap.replicas.iter().any(|r| r.pings_ok > 0),
            "rpc prober reached the fleet: {snap:?}"
        );

        direct.shutdown();
        gw.shutdown();
        for s in servers {
            s.shutdown().unwrap();
        }
    }

    #[test]
    fn same_histogram_routes_to_the_same_replica() {
        let (servers, addrs) = fleet(4);
        let gw = Gateway::start(unhedged_cfg(addrs));
        let payload: Vec<u8> = (0..256).map(|i| (i % 5) as u8).collect();
        let hist = Histogram::of_payload(5, &payload).unwrap();
        for _ in 0..10 {
            gw.encode(&hist, &payload).unwrap();
        }
        let snap = gw.snapshot();
        let served: Vec<u64> = snap.replicas.iter().map(|r| r.successes).collect();
        assert_eq!(
            served.iter().sum::<u64>(),
            10,
            "all attempts succeeded: {served:?}"
        );
        assert_eq!(
            served.iter().filter(|&&c| c > 0).count(),
            1,
            "one home shard served everything: {served:?}"
        );
        gw.shutdown();
        for s in servers {
            s.shutdown().unwrap();
        }
    }

    #[test]
    fn dead_replica_fails_over_and_opens_its_breaker() {
        let (mut servers, addrs) = fleet(2);
        let mut cfg = tiny_cfg(addrs);
        // Keep the prober quiet so the breaker is driven by data
        // traffic: the first attempt must actually hit the dead home
        // (recording a retry) rather than be routed around it by a
        // probe that already opened the breaker.
        cfg.probe_interval = Duration::from_secs(30);
        cfg.breaker.failure_threshold = 2;
        let gw = Gateway::start(cfg);

        // Find a histogram homed on replica 0, then kill replica 0.
        let mut homed = None;
        for n in 2u32..40 {
            let payload: Vec<u8> = (0..128).map(|i| (i % n as usize) as u8).collect();
            let hist = Histogram::of_payload(n as usize, &payload).unwrap();
            if preference_order(hist.hash64(), 2)[0] == 0 {
                homed = Some((hist, payload));
                break;
            }
        }
        let (hist, payload) = homed.expect("some histogram homes on replica 0");
        servers.remove(0).shutdown().unwrap();

        let (bits, data) = gw.encode(&hist, &payload).unwrap();
        let back = gw.decode(&hist, bits, &data).unwrap();
        assert_eq!(back, payload);

        let snap = gw.snapshot();
        assert!(snap.failovers >= 1, "winner was not the home: {snap:?}");
        assert!(snap.retries >= 1, "dead home forced a retry: {snap:?}");
        assert!(
            snap.replicas[0].breaker_opened >= 1,
            "breaker opened on the dead replica: {snap:?}"
        );
        gw.shutdown();
        for s in servers {
            s.shutdown().unwrap();
        }
    }

    #[test]
    fn slow_replica_is_hedged_and_the_hedge_wins() {
        let (servers, addrs) = fleet(2);
        let mut cfg = tiny_cfg(addrs);
        cfg.hedge_after_min = Duration::from_millis(1);
        let gw = Gateway::start(cfg);

        // Warm the EWMA so the hedge threshold is data-driven and small.
        let warm: Vec<u8> = (0..64).map(|i| (i % 3) as u8).collect();
        let warm_hist = Histogram::of_payload(3, &warm).unwrap();
        for _ in 0..5 {
            gw.encode(&warm_hist, &warm).unwrap();
        }

        // Find a histogram homed on replica 0 and make replica 0 slow.
        let mut homed = None;
        for n in 2u32..40 {
            let payload: Vec<u8> = (0..128).map(|i| (i % n as usize) as u8).collect();
            let hist = Histogram::of_payload(n as usize, &payload).unwrap();
            if preference_order(hist.hash64(), 2)[0] == 0 {
                homed = Some((hist, payload));
                break;
            }
        }
        let (hist, payload) = homed.unwrap();
        servers[0].faults().set_delay_ms(300);

        let t0 = Instant::now();
        let (bits, data) = gw.encode(&hist, &payload).unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "hedge answered before the slow home: {:?}",
            t0.elapsed()
        );
        let back = gw.decode(&hist, bits, &data).unwrap();
        assert_eq!(back, payload);

        let snap = gw.snapshot();
        assert!(snap.hedges_issued >= 1, "hedge launched: {snap:?}");
        assert!(snap.hedges_won >= 1, "hedge won: {snap:?}");
        gw.shutdown();
        for s in servers {
            s.shutdown().unwrap();
        }
    }

    #[test]
    fn recovered_replica_is_warmed_before_rejoining() {
        let (mut servers, addrs) = fleet(2);
        let mut cfg = tiny_cfg(addrs.clone());
        cfg.probe_interval = Duration::from_millis(20);
        cfg.breaker.failure_threshold = 1;
        cfg.breaker.open_cooldown = Duration::from_millis(50);
        let gw = Gateway::start(cfg);

        // A histogram homed on replica 0.
        let mut homed = None;
        for n in 2u32..40 {
            let payload: Vec<u8> = (0..128).map(|i| (i % n as usize) as u8).collect();
            let hist = Histogram::of_payload(n as usize, &payload).unwrap();
            if preference_order(hist.hash64(), 2)[0] == 0 {
                homed = Some((hist, payload));
                break;
            }
        }
        let (hist, payload) = homed.expect("some histogram homes on replica 0");

        // Kill the home; traffic fails over to replica 1, which builds
        // the codebook and accumulates tier-0 hits on it.
        servers.remove(0).shutdown().unwrap();
        let expected = gw.encode(&hist, &payload).unwrap();
        for _ in 0..4 {
            assert_eq!(gw.encode(&hist, &payload).unwrap(), expected);
        }

        // Revive replica 0 on the same address, empty-cached.
        let svc0 = Service::start(ServiceConfig::default());
        let revived = Server::bind(svc0.clone(), &addrs[0].to_string())
            .expect("rebind the killed replica's address");

        // The prober notices, warms it from replica 1, then re-closes
        // the breaker.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline && gw.snapshot().warmups == 0 {
            thread::sleep(Duration::from_millis(10));
        }
        let snap = gw.snapshot();
        assert!(snap.warmups >= 1, "no warm-up round ran: {snap:?}");
        assert!(snap.warmup_keys_sent >= 1, "no keys donated: {snap:?}");
        assert!(
            svc0.metrics().warmup_accepted >= 1,
            "revived replica adopted nothing: {:?}",
            svc0.metrics()
        );

        // Once routing resumes, the home serves the adopted codebook
        // bit-identically — without ever constructing it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline && svc0.metrics().encoded == 0 {
            assert_eq!(gw.encode(&hist, &payload).unwrap(), expected);
        }
        let m0 = svc0.metrics();
        assert!(m0.encoded >= 1, "home never rejoined routing: {m0:?}");
        assert_eq!(m0.constructions, 0, "warm cache: no construction: {m0:?}");

        gw.shutdown();
        revived.shutdown().unwrap();
        for s in servers {
            s.shutdown().unwrap();
        }
    }

    #[test]
    fn replica_restarted_between_probes_is_noticed() {
        let (mut servers, addrs) = fleet(2);
        let mut cfg = tiny_cfg(addrs.clone());
        cfg.breaker.failure_threshold = 1;
        cfg.breaker.open_cooldown = Duration::from_millis(50);
        let gw = Gateway::start(cfg);
        let deadline = Instant::now() + Duration::from_secs(10);
        while gw.snapshot().replicas[0].pings_ok == 0 {
            assert!(Instant::now() < deadline, "prober never reached replica 0");
            thread::sleep(Duration::from_millis(5));
        }

        // Kill replica 0 and bring it back on the same address before
        // the next probe can find the port closed: only the closed
        // idle probe connection tells the prober it restarted.
        servers.remove(0).shutdown().unwrap();
        let revived = Server::bind(
            Service::start(ServiceConfig::default()),
            &addrs[0].to_string(),
        )
        .expect("rebind the killed replica's address");

        let deadline = Instant::now() + Duration::from_secs(10);
        while gw.snapshot().replicas[0].breaker_opened == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        let snap = gw.snapshot();
        assert!(snap.replicas[0].pings_failed >= 1, "{snap:?}");
        assert!(snap.replicas[0].breaker_opened >= 1, "{snap:?}");
        // The next good probe re-admits it.
        while gw.snapshot().replicas[0].breaker != BreakerState::Closed && Instant::now() < deadline
        {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(gw.snapshot().replicas[0].breaker, BreakerState::Closed);

        gw.shutdown();
        revived.shutdown().unwrap();
        for s in servers {
            s.shutdown().unwrap();
        }
    }

    #[test]
    fn families_route_independently_and_are_counted() {
        let (servers, addrs) = fleet(3);
        let gw = Gateway::start(tiny_cfg(addrs));
        let direct = Service::start(ServiceConfig::default());

        let payload: Vec<u8> = (0..256).map(|i| (i % 6) as u8).collect();
        let hist = Histogram::of_payload(6, &payload).unwrap();
        for f in FamilyId::ALL {
            let (bits, data) = gw.encode_with(f, &hist, &payload).unwrap();
            match direct.submit(Request::Encode {
                family: f,
                histogram: hist.clone(),
                payload: payload.clone(),
            }) {
                Response::Encoded {
                    bit_len,
                    data: d_data,
                } => assert_eq!((bits, &data), (bit_len, &d_data), "{f}: gateway == direct"),
                other => panic!("direct {f} encode failed: {other:?}"),
            }
            assert_eq!(gw.decode_with(f, &hist, bits, &data).unwrap(), payload);
        }

        let snap = gw.snapshot();
        assert_eq!(snap.requests, 8);
        assert_eq!(snap.completed, 8);
        assert_eq!(snap.family_requests, [2, 2, 2, 2]);
        let json = snap.to_json();
        for f in FamilyId::ALL {
            assert!(
                json.contains(&format!("\"family_{}_requests\":2", f.name())),
                "{f} missing from {json}"
            );
        }

        direct.shutdown();
        gw.shutdown();
        for s in servers {
            s.shutdown().unwrap();
        }
    }

    #[test]
    fn delta_requests_follow_the_base_key_to_the_hot_replica() {
        let (servers, addrs) = fleet(4);
        let gw = Gateway::start(unhedged_cfg(addrs));
        let direct = Service::start(ServiceConfig::default());

        // Seed a well-separated base through the gateway, then drift
        // it within the patch bound (distinct merge sums throughout,
        // so the Huffman patch rule applies).
        let payload: Vec<u8> = (0..256).map(|i| (i % 4) as u8).collect();
        let base = Histogram::new(vec![40, 20, 10, 5]).unwrap();
        gw.encode(&base, &payload).unwrap();
        let base_key = FamilyId::Huffman.tagged_key(base.hash64());
        let deltas = [(0u16, 8i32), (2, -3)];
        let drifted_counts = vec![48u32, 20, 7, 5];

        let (path, bits, data) = gw
            .encode_delta(FamilyId::Huffman, base_key, &deltas, &payload)
            .unwrap();
        assert_eq!(path, 0, "bounded drift patches");
        // Differential at the gateway boundary: identical bits to a
        // from-scratch encode of the drifted histogram.
        match direct.submit(Request::Encode {
            family: FamilyId::Huffman,
            histogram: Histogram::new(drifted_counts).unwrap(),
            payload: payload.clone(),
        }) {
            Response::Encoded { bit_len, data: d } => {
                assert_eq!((bits, &data), (bit_len, &d), "patched == direct");
            }
            other => panic!("direct encode failed: {other:?}"),
        }
        let back = gw
            .decode_delta(FamilyId::Huffman, base_key, &deltas, bits, &data)
            .unwrap();
        assert_eq!(back, payload);

        // Base seeding + both delta requests rode the same replica:
        // the base key pinned them to the base's home.
        let snap = gw.snapshot();
        let served: Vec<u64> = snap.replicas.iter().map(|r| r.successes).collect();
        assert_eq!(served.iter().sum::<u64>(), 3, "{served:?}");
        assert_eq!(
            served.iter().filter(|&&c| c > 0).count(),
            1,
            "deltas routed away from the base's replica: {served:?}"
        );

        direct.shutdown();
        gw.shutdown();
        for s in servers {
            s.shutdown().unwrap();
        }
    }

    #[test]
    fn warm_up_merges_hot_sets_from_multiple_donors() {
        let (mut servers, addrs) = fleet(3);
        let mut cfg = tiny_cfg(addrs.clone());
        cfg.probe_interval = Duration::from_millis(20);
        cfg.breaker.failure_threshold = 1;
        cfg.breaker.open_cooldown = Duration::from_millis(50);
        cfg.warm_donors = 2;
        let gw = Gateway::start(cfg);

        // Two histograms homed on replica 0 whose failover targets
        // differ — after the kill, each survivor holds one of them, so
        // a full donation requires merging both donors' hot sets.
        let mut to_1 = None;
        let mut to_2 = None;
        for n in 2u32..200 {
            let payload: Vec<u8> = (0..128).map(|i| (i % n as usize) as u8).collect();
            let hist = Histogram::of_payload(n as usize, &payload).unwrap();
            let order = preference_order(hist.hash64(), 3);
            if order[0] == 0 && order[1] == 1 && to_1.is_none() {
                to_1 = Some((hist, payload));
            } else if order[0] == 0 && order[1] == 2 && to_2.is_none() {
                to_2 = Some((hist, payload));
            }
            if to_1.is_some() && to_2.is_some() {
                break;
            }
        }
        let (h1, p1) = to_1.expect("a key homed 0 → 1");
        let (h2, p2) = to_2.expect("a key homed 0 → 2");

        servers.remove(0).shutdown().unwrap();
        for _ in 0..3 {
            gw.encode(&h1, &p1).unwrap();
            gw.encode(&h2, &p2).unwrap();
        }

        let svc0 = Service::start(ServiceConfig::default());
        let revived = Server::bind(svc0.clone(), &addrs[0].to_string())
            .expect("rebind the killed replica's address");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline && svc0.metrics().warmup_accepted < 2 {
            thread::sleep(Duration::from_millis(10));
        }
        assert!(
            svc0.metrics().warmup_accepted >= 2,
            "both donors' books should arrive in the merged push: {:?}",
            svc0.metrics()
        );
        gw.shutdown();
        revived.shutdown().unwrap();
        for s in servers {
            s.shutdown().unwrap();
        }
    }

    #[test]
    fn draining_gateway_sheds_and_answers_control_plane() {
        let (servers, addrs) = fleet(1);
        let gw = Gateway::start(tiny_cfg(addrs));
        match gw.request(&Request::Ping).unwrap() {
            Response::Pong { draining } => assert!(!draining),
            other => panic!("expected Pong, got {other:?}"),
        }
        assert_eq!(gw.request(&Request::Drain).unwrap(), Response::DrainOk);
        match gw.request(&Request::Ping).unwrap() {
            Response::Pong { draining } => assert!(draining),
            other => panic!("expected Pong, got {other:?}"),
        }
        let payload = vec![0u8, 1, 0, 1];
        let hist = Histogram::of_payload(2, &payload).unwrap();
        assert_eq!(
            gw.request(&Request::Encode {
                family: FamilyId::Huffman,
                histogram: hist,
                payload,
            })
            .unwrap(),
            Response::Busy,
            "draining gateway sheds codec work"
        );
        let snap = gw.snapshot();
        assert_eq!(snap.rejected_shutdown, 1);
        gw.shutdown();
        for s in servers {
            s.shutdown().unwrap();
        }
    }
}
