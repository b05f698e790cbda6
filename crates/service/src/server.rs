//! The in-process service: bounded queue, batch workers, backpressure.
//!
//! ## Scheduling model
//!
//! Requests land in one bounded queue. Each of the `workers` batch
//! threads repeatedly drains up to `max_batch` requests in one
//! *scheduling tick*, groups them by weight histogram, and runs **one**
//! codebook construction per distinct histogram (cache misses only) —
//! the batching regime where the paper's `n²/log n`-processor
//! construction pays for itself: the `O(log² n)` critical path is paid
//! once per histogram per tick, not once per request.
//!
//! ## Backpressure
//!
//! The queue never grows past `queue_capacity`: a submit against a full
//! queue returns [`Response::Busy`] immediately instead of buffering.
//! Combined with the per-request deadline (`request_timeout`, enforced
//! by the submitting side waiting on its reply channel) every request
//! resolves in bounded time — `Busy` now, a result, or `Timeout`.
//!
//! ## Observability
//!
//! Every tick builds a [`CostTracer`] span tree: one parallel group of
//! `histogram:…` spans (independent alphabets are PRAM-parallel), each
//! holding the construction spans of a cache miss plus one parallel
//! `req:…` span per request. The aggregate work/depth folds into the
//! service [`Metrics`], exported as JSON via [`Service::stats_json`].

use crate::codebook::{Codebook, CodebookCache};
use crate::frame::{ErrorCode, Histogram, Request, Response, WarmEntry};
use crate::metrics::{Metrics, MetricsSnapshot};
use partree_codecs::FamilyId;
use partree_delta::{DeltaConfig, DeltaPath};
use partree_exec::metrics::raise_max;
use partree_pram::CostTracer;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tunables for [`Service::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Batch worker threads. `0` starts the service *paused*: requests
    /// queue (and shed as `Busy` once full) but nothing drains — useful
    /// for deterministic backpressure tests.
    pub workers: usize,
    /// Width of the rayon pool codebook constructions run on.
    /// `0` = the machine default.
    pub pool_threads: usize,
    /// Bounded queue length; submits beyond it get `Busy`.
    pub queue_capacity: usize,
    /// Most requests one worker drains per scheduling tick.
    pub max_batch: usize,
    /// Deadline a submitter waits for its reply before `Timeout`.
    pub request_timeout: Duration,
    /// Codebook cache shard count.
    pub cache_shards: usize,
    /// Codebook cache total capacity (entries across shards).
    pub cache_capacity: usize,
    /// Directory of the tier-1 persistent codebook store. `None` keeps
    /// the cache memory-only (the historical behaviour). The default
    /// reads `PARTREE_STORE_DIR` from the environment, so persistence
    /// is opt-in per process without touching call sites.
    pub store_dir: Option<PathBuf>,
    /// Per-family tier-0 residency quota as a percentage of each cache
    /// shard's capacity; `100` disables quotas (plain per-shard LRU).
    /// With a quota, one family's burst evicts within that family
    /// first, so it cannot push another family's hot set out. The
    /// default reads `PARTREE_CACHE_FAMILY_PCT`.
    pub cache_family_pct: u32,
    /// Per-symbol ratio bound for the delta path, in percent: `200`
    /// (the default) lets a count drift by up to a factor of two
    /// before the engine refuses to patch and rebuilds. The default
    /// reads `PARTREE_DELTA_RATIO_PCT`.
    pub delta_ratio_pct: u32,
}

/// Reads a `u32` environment knob, falling back to `default` when the
/// variable is unset or unparseable.
fn env_u32(name: &str, default: u32) -> u32 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            pool_threads: 0,
            queue_capacity: 1024,
            max_batch: 256,
            request_timeout: Duration::from_secs(5),
            cache_shards: 8,
            cache_capacity: 64,
            store_dir: std::env::var_os("PARTREE_STORE_DIR").map(PathBuf::from),
            cache_family_pct: env_u32("PARTREE_CACHE_FAMILY_PCT", 100),
            delta_ratio_pct: env_u32("PARTREE_DELTA_RATIO_PCT", 200),
        }
    }
}

/// Where a job's response goes. An in-process caller of
/// [`Service::submit`] waits on a channel; the reactor registers a
/// callback that runs on whichever worker thread finishes the job (it
/// pushes the response onto the reactor's completion queue — cheap and
/// non-blocking).
pub(crate) enum ReplySink {
    /// The submitter blocks on the receiving end ([`Service::submit`]).
    Channel(mpsc::Sender<Response>),
    /// The response is handed to a callback ([`Service::submit_async`]).
    Callback(CompletionSink),
}

impl ReplySink {
    fn deliver(self, response: Response) {
        match self {
            // The submitter may have timed out and dropped its
            // receiver; a failed send is that race, not an error.
            ReplySink::Channel(tx) => {
                let _ = tx.send(response);
            }
            ReplySink::Callback(sink) => sink.complete(response),
        }
    }

    /// Expiry at drain time. A channel submitter already returned
    /// `Timeout` on its own clock, so the channel is just dropped; a
    /// callback sink has nobody waiting on a clock for it, so the
    /// `Timeout` is delivered here (the reactor discards it if its own
    /// deadline sweep answered first).
    fn expire(self) {
        if let ReplySink::Callback(sink) = self {
            sink.complete(Response::Timeout);
        }
    }
}

/// A single-shot response callback with a drop guarantee: if the
/// service drops the job without answering (shutdown clears the
/// queue), the callback still fires with a `ShuttingDown` error — the
/// reactor must never be left holding a connection whose request
/// silently evaporated.
pub(crate) struct CompletionSink {
    f: Option<Box<dyn FnOnce(Response) + Send>>,
}

impl CompletionSink {
    pub(crate) fn new(f: impl FnOnce(Response) + Send + 'static) -> CompletionSink {
        CompletionSink {
            f: Some(Box::new(f)),
        }
    }

    fn complete(mut self, response: Response) {
        if let Some(f) = self.f.take() {
            f(response);
        }
    }
}

impl Drop for CompletionSink {
    fn drop(&mut self) {
        if let Some(f) = self.f.take() {
            f(Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "service dropped the request during shutdown".into(),
            });
        }
    }
}

impl std::fmt::Debug for CompletionSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionSink")
            .field("answered", &self.f.is_none())
            .finish()
    }
}

struct Job {
    seq: u64,
    request: Request,
    enqueued: Instant,
    reply: ReplySink,
}

struct Inner {
    cfg: ServiceConfig,
    queue: Mutex<VecDeque<Job>>,
    wake: Condvar,
    stopping: AtomicBool,
    draining: AtomicBool,
    next_seq: AtomicU64,
    cache: CodebookCache,
    delta_cfg: DeltaConfig,
    metrics: Metrics,
    pool: rayon::ThreadPool,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Handle to a running service. Cloning shares the same instance.
#[derive(Clone)]
pub struct Service {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("cfg", &self.inner.cfg)
            .field(
                "queued",
                &self.inner.queue.lock().map(|q| q.len()).unwrap_or(0),
            )
            .finish()
    }
}

impl Service {
    /// Builds the cache and rayon pool and spawns the batch workers.
    pub fn start(cfg: ServiceConfig) -> Service {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(cfg.pool_threads)
            .build()
            // lint: allow(no-unwrap): vendored rayon's builder is infallible by construction; see vendor/rayon
            .expect("the vendored rayon pool builder cannot fail");
        // A broken tier-1 store must not take the service down with it:
        // the store is a cache of a pure function, so losing it costs
        // reconstruction work, never correctness. Degrade to
        // memory-only and say so on stderr.
        let tier1 = cfg.store_dir.as_ref().and_then(|dir| {
            match partree_store::open_log_store(dir) {
                Ok(store) => Some(Arc::new(store) as Arc<dyn partree_store::CodebookStore>),
                Err(e) => {
                    eprintln!(
                        "partree-service: tier-1 store at {} unavailable ({e}); running memory-only",
                        dir.display()
                    );
                    None
                }
            }
        });
        let inner = Arc::new(Inner {
            cache: CodebookCache::with_config(
                cfg.cache_shards,
                cfg.cache_capacity,
                tier1,
                cfg.cache_family_pct,
            ),
            delta_cfg: DeltaConfig::from_ratio_pct(cfg.delta_ratio_pct),
            queue: Mutex::new(VecDeque::with_capacity(cfg.queue_capacity.min(4096))),
            wake: Condvar::new(),
            stopping: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            next_seq: AtomicU64::new(0),
            metrics: Metrics::default(),
            pool,
            workers: Mutex::new(Vec::new()),
            cfg,
        });
        let svc = Service { inner };
        // lint: allow(no-unwrap): a poisoned worker registry means a panic mid-startup; no request traffic exists yet
        let mut handles = svc.inner.workers.lock().expect("worker registry poisoned");
        for k in 0..svc.inner.cfg.workers {
            let worker = Arc::clone(&svc.inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("partree-batch-{k}"))
                    .spawn(move || batch_loop(&worker))
                    // lint: allow(no-unwrap): batch-worker spawn happens once at startup; failure is resource exhaustion before any request exists
                    .expect("spawning a batch worker cannot fail"),
            );
        }
        drop(handles);
        svc
    }

    /// Enqueues a request without waiting for the reply. `Err` carries
    /// the immediate response (`Busy` on a full queue, `Error` when
    /// shutting down); `Ok` is the channel the reply will arrive on.
    pub fn try_enqueue(&self, request: Request) -> Result<mpsc::Receiver<Response>, Response> {
        let (tx, rx) = mpsc::channel();
        match self.enqueue(request, ReplySink::Channel(tx)) {
            Ok(()) => Ok(rx),
            Err((resp, _sink)) => Err(resp),
        }
    }

    /// Enqueues a codec request whose response is delivered through
    /// `done` instead of a channel — the reactor transport's entry
    /// point. Shedding (`Busy`), shutdown errors, and inline control
    /// answers all arrive through the same callback, so the caller has
    /// exactly one response per submission, always.
    pub(crate) fn submit_async(&self, request: Request, done: CompletionSink) {
        match request {
            Request::Stats => {
                return done.complete(Response::Stats {
                    json: self.stats_json(),
                })
            }
            Request::Ping => {
                return done.complete(Response::Pong {
                    draining: self.is_draining(),
                })
            }
            Request::Drain => {
                self.drain();
                return done.complete(Response::DrainOk);
            }
            // Warm-up traffic is control-plane work: adoption skips
            // construction entirely (`O(n log n)` canonicalization per
            // entry), so answering inline keeps it off the batch queue
            // and ahead of any encode backlog.
            Request::WarmUp { entries } => {
                return done.complete(self.warm_up(entries));
            }
            Request::HotSet { max } => {
                return done.complete(self.hot_set(max));
            }
            Request::Encode { .. }
            | Request::Decode { .. }
            | Request::EncodeDelta { .. }
            | Request::DecodeDelta { .. } => {}
        }
        if let Err((resp, sink)) = self.enqueue(request, ReplySink::Callback(done)) {
            sink.deliver(resp);
        }
    }

    /// Adopts donated codebooks into the cache (and tier-1 store, when
    /// configured). Invalid or already-resident entries are counted as
    /// rejected, never errors: warm-up is best-effort by design.
    fn warm_up(&self, entries: Vec<WarmEntry>) -> Response {
        let mut accepted = 0u32;
        let mut rejected = 0u32;
        for e in entries {
            if self.inner.cache.adopt(&e.histogram, e.family, e.lengths) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        Response::WarmedUp { accepted, rejected }
    }

    /// Reports the hottest cached codebooks, ranked by tier-0 hits.
    fn hot_set(&self, max: u16) -> Response {
        let entries = self
            .inner
            .cache
            .hottest(max as usize)
            .into_iter()
            .map(|h| WarmEntry {
                hits: h.hits,
                family: h.family,
                histogram: h.histogram,
                lengths: h.lengths,
            })
            .collect();
        Response::HotSet { entries }
    }

    /// The shared enqueue path behind [`Service::try_enqueue`] and
    /// [`Service::submit_async`]. An immediate rejection hands the sink
    /// back with the response so the caller delivers it (the sink must
    /// not be consumed here while the queue lock is held).
    fn enqueue(&self, request: Request, reply: ReplySink) -> Result<(), (Response, ReplySink)> {
        let family = match &request {
            Request::Encode { family, .. }
            | Request::Decode { family, .. }
            | Request::EncodeDelta { family, .. }
            | Request::DecodeDelta { family, .. } => Some(*family),
            _ => None,
        };
        {
            // lint: allow(no-unwrap): a poisoned batch queue means a panic mid-enqueue; batches may be half-recorded and crashing beats serving them
            let mut queue = self.inner.queue.lock().expect("queue poisoned");
            // Checked under the queue lock: `shutdown` sets the flag and
            // clears the queue under the same lock, so a request either
            // sees the flag here or is dropped by that clear (its
            // submitter then observes the disconnected reply channel).
            if self.inner.stopping.load(Ordering::Acquire) {
                return Err((
                    Response::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "service is shutting down".into(),
                    },
                    reply,
                ));
            }
            // A draining service sheds new work the same way a full
            // queue does: `Busy` is retryable, so a router fails the
            // request over to another replica instead of erroring.
            if self.inner.draining.load(Ordering::Acquire)
                || queue.len() >= self.inner.cfg.queue_capacity
            {
                self.inner.metrics.busy.fetch_add(1, Ordering::Relaxed);
                return Err((Response::Busy, reply));
            }
            queue.push_back(Job {
                seq: self.inner.next_seq.fetch_add(1, Ordering::Relaxed),
                request,
                enqueued: Instant::now(),
                reply,
            });
        }
        self.inner.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        if let Some(f) = family {
            self.inner.metrics.family_requests[f.index()].fetch_add(1, Ordering::Relaxed);
        }
        self.inner.wake.notify_one();
        Ok(())
    }

    /// Submits a request and blocks for its response: the codec result,
    /// `Busy` (not queued), `Timeout` (deadline missed), or `Error`.
    /// `Stats` requests are answered inline and never queue.
    pub fn submit(&self, request: Request) -> Response {
        match request {
            Request::Stats => {
                return Response::Stats {
                    json: self.stats_json(),
                }
            }
            Request::Ping => {
                return Response::Pong {
                    draining: self.is_draining(),
                }
            }
            Request::Drain => {
                self.drain();
                return Response::DrainOk;
            }
            Request::WarmUp { entries } => return self.warm_up(entries),
            Request::HotSet { max } => return self.hot_set(max),
            Request::Encode { .. }
            | Request::Decode { .. }
            | Request::EncodeDelta { .. }
            | Request::DecodeDelta { .. } => {}
        }
        let rx = match self.try_enqueue(request) {
            Ok(rx) => rx,
            Err(resp) => return resp,
        };
        match rx.recv_timeout(self.inner.cfg.request_timeout) {
            Ok(resp) => resp,
            Err(RecvTimeoutError::Timeout) => {
                self.inner.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                Response::Timeout
            }
            Err(RecvTimeoutError::Disconnected) => Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "service dropped the request during shutdown".into(),
            },
        }
    }

    /// The per-request deadline, shared with the reactor transport so
    /// its deadline sweep and the batch workers' drain-time expiry
    /// agree on when a request is dead.
    pub(crate) fn request_timeout(&self) -> Duration {
        self.inner.cfg.request_timeout
    }

    /// Counts a deadline miss observed by a transport (the reactor's
    /// sweep), mirroring what [`Service::submit`] counts when its
    /// channel wait times out.
    pub(crate) fn note_timeout(&self) {
        self.inner.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a connection severed by the reactor's write-backpressure
    /// cap (the peer stopped reading its responses).
    pub(crate) fn note_write_overflow(&self) {
        self.inner
            .metrics
            .write_overflows
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The aggregate counters as a flat JSON object.
    pub fn stats_json(&self) -> String {
        self.metrics().to_json()
    }

    /// The aggregate counters as plain data.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot(&self.inner.cache)
    }

    /// Codebooks currently resident in the cache.
    pub fn cached_codebooks(&self) -> usize {
        self.inner.cache.len()
    }

    /// Stops accepting new work (submits shed as `Busy`) while queued
    /// work still completes and workers stay up. Health probes keep
    /// answering, with the drain bit set, so a router routes away
    /// before the process exits. Irreversible; idempotent.
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
        self.inner
            .metrics
            .draining
            .store(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// True once [`Service::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Stops accepting work, drains the queue (pending jobs are
    /// dropped; their submitters see a shutdown error), and joins every
    /// batch worker. Idempotent; returns the number of jobs dropped.
    pub fn shutdown(&self) -> usize {
        self.inner.stopping.store(true, Ordering::Release);
        let dropped = {
            // lint: allow(no-unwrap): poisoned batch queue, as above
            let mut queue = self.inner.queue.lock().expect("queue poisoned");
            let n = queue.len();
            queue.clear();
            n
        };
        self.inner.wake.notify_all();
        let handles: Vec<_> = {
            // lint: allow(no-unwrap): poisoned worker registry, as above
            let mut reg = self.inner.workers.lock().expect("worker registry poisoned");
            reg.drain(..).collect()
        };
        for h in handles {
            // lint: allow(no-unwrap): shutdown path: re-raising a batch worker's panic is the contract, not a request-path crash
            h.join().expect("batch worker panicked");
        }
        dropped
    }
}

/// One worker: drain a batch, process it, repeat until shutdown.
fn batch_loop(inner: &Inner) {
    loop {
        let batch = {
            // lint: allow(no-unwrap): poisoned batch queue, as above
            let mut queue = inner.queue.lock().expect("queue poisoned");
            loop {
                if !queue.is_empty() {
                    let take = queue.len().min(inner.cfg.max_batch);
                    break queue.drain(..take).collect::<Vec<Job>>();
                }
                if inner.stopping.load(Ordering::Acquire) {
                    return;
                }
                queue = inner
                    .wake
                    .wait_timeout(queue, Duration::from_millis(50))
                    // lint: allow(no-unwrap): poisoned batch queue, as above
                    .expect("queue poisoned")
                    .0;
            }
        };
        process_batch(inner, batch);
    }
}

/// Groups a batch by histogram, constructs each codebook once, answers
/// every request, and folds the tick's span tree into the metrics.
fn process_batch(inner: &Inner, batch: Vec<Job>) {
    let m = &inner.metrics;
    // A job past its deadline has no audience — its submitter already
    // returned `Timeout` and dropped the receiver — so building and
    // encoding it would only amplify the overload that caused the
    // timeout. Drop such jobs undone, counted under `expired`.
    let deadline = inner.cfg.request_timeout;
    let batch: Vec<Job> = batch
        .into_iter()
        .filter_map(|job| {
            if job.enqueued.elapsed() < deadline {
                return Some(job);
            }
            m.expired.fetch_add(1, Ordering::Relaxed);
            job.reply.expire();
            None
        })
        .collect();
    if batch.is_empty() {
        return;
    }
    m.batches.fetch_add(1, Ordering::Relaxed);
    m.batched_requests
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    raise_max(&m.max_batch, batch.len() as u64);

    // Group jobs by the family-tagged histogram hash, preserving
    // arrival order within a group (stable drain order keeps
    // processing deterministic). Tagging means one construction per
    // distinct (histogram, family) pair per tick.
    let mut groups: Vec<(u64, Vec<Job>)> = Vec::new();
    for job in batch {
        let key = match &job.request {
            Request::Encode {
                family, histogram, ..
            }
            | Request::Decode {
                family, histogram, ..
            } => family.tagged_key(histogram.hash64()),
            // Delta jobs group on (family, base, drift): identical
            // drift requests share one delta application per tick, the
            // same way plain codec jobs share one construction.
            Request::EncodeDelta {
                family,
                base_key,
                deltas,
                ..
            }
            | Request::DecodeDelta {
                family,
                base_key,
                deltas,
                ..
            } => delta_group_key(*family, *base_key, deltas),
            // Control requests are answered inline by `submit` and
            // never queued; answer defensively anyway.
            Request::Stats => {
                respond(
                    inner,
                    job,
                    Response::Stats {
                        json: inner.metrics.snapshot(&inner.cache).to_json(),
                    },
                );
                continue;
            }
            Request::Ping => {
                let draining = inner.draining.load(Ordering::Acquire);
                respond(inner, job, Response::Pong { draining });
                continue;
            }
            Request::Drain => {
                inner.draining.store(true, Ordering::Release);
                inner.metrics.draining.store(1, Ordering::Relaxed);
                respond(inner, job, Response::DrainOk);
                continue;
            }
            Request::WarmUp { entries } => {
                let mut accepted = 0u32;
                let mut rejected = 0u32;
                for e in entries {
                    if inner.cache.adopt(&e.histogram, e.family, e.lengths.clone()) {
                        accepted += 1;
                    } else {
                        rejected += 1;
                    }
                }
                respond(inner, job, Response::WarmedUp { accepted, rejected });
                continue;
            }
            Request::HotSet { max } => {
                let entries = inner
                    .cache
                    .hottest(*max as usize)
                    .into_iter()
                    .map(|h| WarmEntry {
                        hits: h.hits,
                        family: h.family,
                        histogram: h.histogram,
                        lengths: h.lengths,
                    })
                    .collect();
                respond(inner, job, Response::HotSet { entries });
                continue;
            }
        };
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, jobs)) => jobs.push(job),
            None => groups.push((key, vec![job])),
        }
    }

    let tick = CostTracer::named("batch");
    for (key, jobs) in groups {
        // Distinct histograms are independent: parallel siblings under
        // the tick (Brent: the tick's depth is the max over groups).
        let group_span = tick.par_span(&format!("histogram:{key:016x}"));
        if matches!(
            jobs[0].request,
            Request::EncodeDelta { .. } | Request::DecodeDelta { .. }
        ) {
            process_delta_group(inner, &group_span, jobs);
            continue;
        }
        let (histogram, family) = match &jobs[0].request {
            Request::Encode {
                family, histogram, ..
            }
            | Request::Decode {
                family, histogram, ..
            } => (histogram.clone(), *family),
            _ => unreachable!("control jobs answered above"),
        };
        let construct_span = group_span.span("construct");
        let book = inner.pool.install(|| {
            inner
                .cache
                .get_or_build(&histogram, family, &construct_span)
        });
        let book = match book {
            Ok(book) => book,
            Err(e) => {
                m.errors.fetch_add(jobs.len() as u64, Ordering::Relaxed);
                for job in jobs {
                    respond(inner, job, Response::from(e.clone()));
                }
                continue;
            }
        };
        for job in jobs {
            let seq = job.seq;
            let req_span = group_span.par_span(&format!("req:{seq}"));
            let response = match &job.request {
                Request::Encode { payload, .. } => match book.encode(payload) {
                    Ok((data, bit_len)) => {
                        m.encoded.fetch_add(1, Ordering::Relaxed);
                        m.bytes_in
                            .fetch_add(payload.len() as u64, Ordering::Relaxed);
                        m.bytes_out.fetch_add(data.len() as u64, Ordering::Relaxed);
                        req_span.step(bit_len);
                        Response::Encoded { bit_len, data }
                    }
                    Err(e) => {
                        m.errors.fetch_add(1, Ordering::Relaxed);
                        Response::from(e)
                    }
                },
                Request::Decode { bit_len, data, .. } => match book.decode(data, *bit_len) {
                    Ok(payload) => {
                        m.decoded.fetch_add(1, Ordering::Relaxed);
                        m.bytes_in.fetch_add(data.len() as u64, Ordering::Relaxed);
                        m.bytes_out
                            .fetch_add(payload.len() as u64, Ordering::Relaxed);
                        req_span.step(*bit_len);
                        Response::Decoded { payload }
                    }
                    Err(e) => {
                        m.errors.fetch_add(1, Ordering::Relaxed);
                        Response::from(e)
                    }
                },
                _ => unreachable!("control jobs answered above"),
            };
            respond(inner, job, response);
        }
    }

    let tick_cost = tick.aggregate();
    m.work.fetch_add(tick_cost.work, Ordering::Relaxed);
    m.depth.fetch_add(tick_cost.depth, Ordering::Relaxed);
}

/// Group key for delta jobs: FNV-1a over the family tag, the base key,
/// and the sparse deltas, spread apart from the histogram-hash keyspace
/// by a domain byte. Identical `(family, base, drift)` requests batch
/// into one delta application per tick.
fn delta_group_key(family: FamilyId, base_key: u64, deltas: &[(u16, i32)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let eat = |h: &mut u64, b: u8| {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x1000_0000_01b3);
    };
    eat(&mut h, 0xD1); // domain separator: delta group
    eat(&mut h, family.tag());
    for b in base_key.to_le_bytes() {
        eat(&mut h, b);
    }
    for &(symbol, delta) in deltas {
        for b in symbol.to_le_bytes() {
            eat(&mut h, b);
        }
        for b in delta.to_le_bytes() {
            eat(&mut h, b);
        }
    }
    h
}

/// Resolves one delta group: base lookup (both cache tiers, never a
/// construction), sparse drift application, the delta engine's
/// patch-or-rebuild decision, installation of the drifted codebook
/// under its own key (tier-1 write-through included), and one response
/// per job. The served codebook is bit-identical to a from-scratch
/// build of the drifted histogram — [`partree_delta::apply`]'s
/// contract — so a later plain `Encode` of the same histogram shares
/// the cache entry installed here.
fn process_delta_group(inner: &Inner, group_span: &CostTracer, jobs: Vec<Job>) {
    let m = &inner.metrics;
    m.delta_requests
        .fetch_add(jobs.len() as u64, Ordering::Relaxed);
    let (family, base_key, deltas) = match &jobs[0].request {
        Request::EncodeDelta {
            family,
            base_key,
            deltas,
            ..
        }
        | Request::DecodeDelta {
            family,
            base_key,
            deltas,
            ..
        } => (*family, *base_key, deltas.clone()),
        _ => unreachable!("non-delta jobs never reach a delta group"),
    };
    let fail = |jobs: Vec<Job>, response: Response| {
        m.errors.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        for job in jobs {
            respond(inner, job, response.clone());
        }
    };

    let Some(base) = inner.cache.lookup_key(base_key, family, None) else {
        m.delta_unknown_base
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        fail(
            jobs,
            Response::Error {
                code: ErrorCode::UnknownBase,
                message: format!("no {family} codebook resident under base key {base_key:#018x}"),
            },
        );
        return;
    };
    let drifted_counts = match partree_delta::apply_sparse(base.histogram.counts(), &deltas) {
        Ok(counts) => counts,
        Err(e) => {
            fail(
                jobs,
                Response::Error {
                    code: ErrorCode::Malformed,
                    message: format!("sparse drift rejected: {e}"),
                },
            );
            return;
        }
    };
    let drifted_hist = match Histogram::new(drifted_counts) {
        Ok(h) => h,
        Err(e) => {
            fail(jobs, Response::from(e));
            return;
        }
    };
    let new_key = family.tagged_key(drifted_hist.hash64());
    // A resident drifted codebook (either tier) is served as the patch
    // path — no engine work runs at all. Otherwise the engine decides
    // patch vs rebuild on the worker pool and the result is installed
    // under the drifted key.
    let (book, path_tag) = match inner.cache.lookup_key(new_key, family, Some(&drifted_hist)) {
        Some(book) => {
            m.delta_patched
                .fetch_add(jobs.len() as u64, Ordering::Relaxed);
            (book, DeltaPath::Patched.tag())
        }
        None => {
            let delta_span = group_span.span("delta");
            let result = inner.pool.install(|| {
                partree_delta::apply(
                    family,
                    base.histogram.counts(),
                    &base.lengths,
                    drifted_hist.counts(),
                    &inner.delta_cfg,
                )
            });
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    fail(
                        jobs,
                        Response::Error {
                            code: ErrorCode::Internal,
                            message: format!("delta engine failed for a valid drift: {e}"),
                        },
                    );
                    return;
                }
            };
            let counter = match result.path {
                DeltaPath::Patched => &m.delta_patched,
                DeltaPath::Rebuilt => &m.delta_fallbacks,
            };
            counter.fetch_add(jobs.len() as u64, Ordering::Relaxed);
            // Charge the work model of the path that actually ran.
            delta_span.step(match result.path {
                DeltaPath::Patched => result.patch_work,
                DeltaPath::Rebuilt => result.rebuild_work,
            });
            let book =
                match Codebook::from_lengths(&drifted_hist, family, result.lengths, &delta_span) {
                    Ok(book) => book,
                    Err(e) => {
                        fail(jobs, Response::from(e));
                        return;
                    }
                };
            (inner.cache.install(book), result.path.tag())
        }
    };
    for job in jobs {
        let seq = job.seq;
        let req_span = group_span.par_span(&format!("req:{seq}"));
        let response = match &job.request {
            Request::EncodeDelta { payload, .. } => match book.encode(payload) {
                Ok((data, bit_len)) => {
                    m.encoded.fetch_add(1, Ordering::Relaxed);
                    m.bytes_in
                        .fetch_add(payload.len() as u64, Ordering::Relaxed);
                    m.bytes_out.fetch_add(data.len() as u64, Ordering::Relaxed);
                    req_span.step(bit_len);
                    Response::DeltaEncoded {
                        path: path_tag,
                        bit_len,
                        data,
                    }
                }
                Err(e) => {
                    m.errors.fetch_add(1, Ordering::Relaxed);
                    Response::from(e)
                }
            },
            Request::DecodeDelta { bit_len, data, .. } => match book.decode(data, *bit_len) {
                Ok(payload) => {
                    m.decoded.fetch_add(1, Ordering::Relaxed);
                    m.bytes_in.fetch_add(data.len() as u64, Ordering::Relaxed);
                    m.bytes_out
                        .fetch_add(payload.len() as u64, Ordering::Relaxed);
                    req_span.step(*bit_len);
                    Response::Decoded { payload }
                }
                Err(e) => {
                    m.errors.fetch_add(1, Ordering::Relaxed);
                    Response::from(e)
                }
            },
            _ => unreachable!("non-delta jobs never reach a delta group"),
        };
        respond(inner, job, response);
    }
}

fn respond(inner: &Inner, job: Job, response: Response) {
    let us = job.enqueued.elapsed().as_micros() as u64;
    inner
        .metrics
        .latency_us_total
        .fetch_add(us, Ordering::Relaxed);
    raise_max(&inner.metrics.latency_us_max, us);
    job.reply.deliver(response);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Histogram;
    use partree_codecs::FamilyId;

    fn hist(counts: &[u32]) -> Histogram {
        Histogram::new(counts.to_vec()).unwrap()
    }

    fn encode_req(counts: &[u32], payload: &[u8]) -> Request {
        Request::Encode {
            family: FamilyId::Huffman,
            histogram: hist(counts),
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn roundtrip_through_the_service() {
        let svc = Service::start(ServiceConfig::default());
        let payload = vec![0u8, 1, 2, 0, 0, 1, 3, 3, 3, 0];
        let counts = [10u32, 4, 2, 7];
        let (bit_len, data) = match svc.submit(encode_req(&counts, &payload)) {
            Response::Encoded { bit_len, data } => (bit_len, data),
            other => panic!("expected Encoded, got {other:?}"),
        };
        let back = match svc.submit(Request::Decode {
            family: FamilyId::Huffman,
            histogram: hist(&counts),
            bit_len,
            data,
        }) {
            Response::Decoded { payload } => payload,
            other => panic!("expected Decoded, got {other:?}"),
        };
        assert_eq!(back, payload);
        let m = svc.metrics();
        assert_eq!((m.encoded, m.decoded), (1, 1));
        assert_eq!(m.cache_hits, 1, "decode reused the encode's codebook");
        assert!(m.work > 0 && m.depth > 0, "tick span trees folded in");
        assert_eq!(svc.shutdown(), 0);
    }

    #[test]
    fn every_family_roundtrips_and_is_counted() {
        let svc = Service::start(ServiceConfig::default());
        let payload = vec![0u8, 1, 2, 0, 0, 1, 3, 3, 3, 0];
        let counts = [10u32, 4, 2, 7];
        for f in FamilyId::ALL {
            let (bit_len, data) = match svc.submit(Request::Encode {
                family: f,
                histogram: hist(&counts),
                payload: payload.clone(),
            }) {
                Response::Encoded { bit_len, data } => (bit_len, data),
                other => panic!("{f}: expected Encoded, got {other:?}"),
            };
            let back = match svc.submit(Request::Decode {
                family: f,
                histogram: hist(&counts),
                bit_len,
                data,
            }) {
                Response::Decoded { payload } => payload,
                other => panic!("{f}: expected Decoded, got {other:?}"),
            };
            assert_eq!(back, payload, "{f}");
        }
        let m = svc.metrics();
        assert_eq!((m.encoded, m.decoded), (4, 4));
        assert_eq!(m.family_requests, [2, 2, 2, 2]);
        assert_eq!(m.family_constructions, [1, 1, 1, 1]);
        assert_eq!(m.family_hits, [1, 1, 1, 1], "decode reused each book");
        assert_eq!(m.cache_misses, 4, "one slot per family, no collisions");
        svc.shutdown();
    }

    #[test]
    fn oversized_family_alphabet_is_a_structured_error() {
        // 33 symbols: past the choosable-edge DP's cap, fine elsewhere.
        let svc = Service::start(ServiceConfig::default());
        let counts = vec![1u32; 33];
        match svc.submit(Request::Encode {
            family: FamilyId::ChoosableEdge,
            histogram: hist(&counts),
            payload: vec![0, 1, 2],
        }) {
            Response::Error {
                code: ErrorCode::UnsupportedAlphabet,
                ..
            } => {}
            other => panic!("expected UnsupportedAlphabet, got {other:?}"),
        }
        match svc.submit(Request::Encode {
            family: FamilyId::ShannonFano,
            histogram: hist(&counts),
            payload: vec![0, 1, 2],
        }) {
            Response::Encoded { .. } => {}
            other => panic!("expected Encoded, got {other:?}"),
        }
        assert_eq!(svc.metrics().errors, 1);
        svc.shutdown();
    }

    #[test]
    fn busy_when_queue_full() {
        // Paused service (workers = 0), capacity 2: the third enqueue
        // must shed.
        let svc = Service::start(ServiceConfig {
            workers: 0,
            queue_capacity: 2,
            ..ServiceConfig::default()
        });
        let r1 = svc.try_enqueue(encode_req(&[1, 1], &[0, 1]));
        let r2 = svc.try_enqueue(encode_req(&[1, 1], &[0, 1]));
        assert!(r1.is_ok() && r2.is_ok());
        match svc.try_enqueue(encode_req(&[1, 1], &[0, 1])) {
            Err(Response::Busy) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        assert_eq!(svc.metrics().busy, 1);
        assert_eq!(svc.shutdown(), 2, "pending jobs dropped at shutdown");
    }

    #[test]
    fn timeout_when_nothing_drains() {
        let svc = Service::start(ServiceConfig {
            workers: 0,
            request_timeout: Duration::from_millis(50),
            ..ServiceConfig::default()
        });
        match svc.submit(encode_req(&[1, 1], &[0])) {
            Response::Timeout => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert_eq!(svc.metrics().timeouts, 1);
        svc.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let svc = Service::start(ServiceConfig::default());
        svc.shutdown();
        match svc.submit(encode_req(&[1, 1], &[0])) {
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            } => {}
            other => panic!("expected shutdown error, got {other:?}"),
        }
        // Idempotent.
        assert_eq!(svc.shutdown(), 0);
    }

    #[test]
    fn batching_amortizes_construction() {
        // The cache is consulted once per histogram *group*, not once
        // per request. Sequential submits make that deterministic:
        // every batch holds exactly one request, so 24 submits over 3
        // histograms are 3 misses + 21 hits.
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let hists: [&[u32]; 3] = [&[5, 1], &[1, 5, 5], &[9, 9, 9, 1]];
        for k in 0..24 {
            let payload = vec![0u8; 8];
            match svc.submit(encode_req(hists[k % 3], &payload)) {
                Response::Encoded { .. } => {}
                other => panic!("expected Encoded, got {other:?}"),
            }
        }
        let m = svc.metrics();
        assert_eq!(m.encoded, 24);
        assert_eq!(m.cache_misses, 3, "one construction per histogram");
        assert_eq!(m.constructions, 3);
        assert_eq!(m.cache_hits, 21);
        assert_eq!(m.batches, 24);

        // A concurrent wave may group same-histogram requests into one
        // batch (fewer lookups), but never rebuilds: misses stay at 3.
        std::thread::scope(|s| {
            for k in 0..24 {
                let svc = svc.clone();
                let counts = hists[k % 3];
                s.spawn(move || {
                    let payload = vec![0u8; 8];
                    match svc.submit(encode_req(counts, &payload)) {
                        Response::Encoded { .. } => {}
                        other => panic!("expected Encoded, got {other:?}"),
                    }
                });
            }
        });
        let m = svc.metrics();
        assert_eq!(m.encoded, 48);
        assert_eq!(m.cache_misses, 3, "warm cache: no rebuilds under load");
        assert!(m.cache_hits >= 24);
        assert_eq!(m.batched_requests, 48);
        svc.shutdown();
    }

    #[test]
    fn expired_jobs_are_dropped_undone_at_drain() {
        let svc = Service::start(ServiceConfig {
            workers: 0,
            request_timeout: Duration::from_millis(50),
            ..ServiceConfig::default()
        });
        let stale_enqueued = Instant::now()
            .checked_sub(Duration::from_secs(1))
            .expect("monotonic clock is at least 1s past boot");
        let (stale_tx, stale_rx) = mpsc::channel();
        let (fresh_tx, fresh_rx) = mpsc::channel();
        process_batch(
            &svc.inner,
            vec![
                Job {
                    seq: 0,
                    request: encode_req(&[1, 1], &[0]),
                    enqueued: stale_enqueued,
                    reply: ReplySink::Channel(stale_tx),
                },
                Job {
                    seq: 1,
                    request: encode_req(&[1, 1], &[0]),
                    enqueued: Instant::now(),
                    reply: ReplySink::Channel(fresh_tx),
                },
            ],
        );
        assert!(stale_rx.try_recv().is_err(), "stale job must not be built");
        match fresh_rx.try_recv() {
            Ok(Response::Encoded { .. }) => {}
            other => panic!("expected Encoded, got {other:?}"),
        }
        let m = svc.metrics();
        assert_eq!(m.expired, 1);
        assert_eq!(m.encoded, 1, "expired work is not counted as encoded");
        assert_eq!(m.timeouts, 0, "drain-time expiry is not double-counted");
        assert_eq!(m.batched_requests, 1, "only live jobs count toward ticks");
        svc.shutdown();
    }

    #[test]
    fn async_submission_answers_exactly_once_per_request() {
        let svc = Service::start(ServiceConfig::default());
        let (tx, rx) = mpsc::channel();
        let sink_tx = tx.clone();
        svc.submit_async(
            encode_req(&[3, 1], &[0, 0, 1]),
            CompletionSink::new(move |r| {
                let _ = sink_tx.send(r);
            }),
        );
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Response::Encoded { .. }) => {}
            other => panic!("expected Encoded, got {other:?}"),
        }
        // Control requests answer inline through the same callback.
        let sink_tx = tx.clone();
        svc.submit_async(
            Request::Ping,
            CompletionSink::new(move |r| {
                let _ = sink_tx.send(r);
            }),
        );
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Response::Pong { draining: false }) => {}
            other => panic!("expected Pong, got {other:?}"),
        }
        svc.shutdown();
        // Past shutdown, the rejection also arrives via the callback.
        svc.submit_async(
            encode_req(&[1, 1], &[0]),
            CompletionSink::new(move |r| {
                let _ = tx.send(r);
            }),
        );
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }) => {}
            other => panic!("expected shutdown error, got {other:?}"),
        }
    }

    #[test]
    fn dropped_callback_jobs_still_answer_shutting_down() {
        // Paused service: the async job sits queued until shutdown
        // clears the queue, and the sink's drop guard must turn that
        // silent drop into a ShuttingDown error.
        let svc = Service::start(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        svc.submit_async(
            encode_req(&[1, 1], &[0]),
            CompletionSink::new(move |r| {
                let _ = tx.send(r);
            }),
        );
        assert!(rx.try_recv().is_err(), "job is parked, not answered");
        assert_eq!(svc.shutdown(), 1);
        match rx.try_recv() {
            Ok(Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }) => {}
            other => panic!("expected ShuttingDown from the drop guard, got {other:?}"),
        }
    }

    #[test]
    fn expired_callback_jobs_are_answered_with_timeout() {
        let svc = Service::start(ServiceConfig {
            workers: 0,
            request_timeout: Duration::from_millis(50),
            ..ServiceConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let stale_enqueued = Instant::now()
            .checked_sub(Duration::from_secs(1))
            .expect("monotonic clock is at least 1s past boot");
        process_batch(
            &svc.inner,
            vec![Job {
                seq: 0,
                request: encode_req(&[1, 1], &[0]),
                enqueued: stale_enqueued,
                reply: ReplySink::Callback(CompletionSink::new(move |r| {
                    let _ = tx.send(r);
                })),
            }],
        );
        match rx.try_recv() {
            Ok(Response::Timeout) => {}
            other => panic!("expected Timeout at expiry, got {other:?}"),
        }
        assert_eq!(svc.metrics().expired, 1);
        svc.shutdown();
    }

    #[test]
    fn drain_sheds_new_work_but_keeps_answering_pings() {
        let svc = Service::start(ServiceConfig::default());
        match svc.submit(Request::Ping) {
            Response::Pong { draining: false } => {}
            other => panic!("expected serving Pong, got {other:?}"),
        }
        match svc.submit(Request::Drain) {
            Response::DrainOk => {}
            other => panic!("expected DrainOk, got {other:?}"),
        }
        match svc.submit(Request::Ping) {
            Response::Pong { draining: true } => {}
            other => panic!("expected draining Pong, got {other:?}"),
        }
        match svc.submit(encode_req(&[1, 1], &[0, 1])) {
            Response::Busy => {}
            other => panic!("expected Busy after drain, got {other:?}"),
        }
        assert_eq!(svc.metrics().draining, 1);
        svc.shutdown();
    }

    #[test]
    fn error_responses_for_bad_requests() {
        let svc = Service::start(ServiceConfig::default());
        // Declared bit length exceeds the buffer: always corrupt.
        let resp = svc.submit(Request::Decode {
            family: FamilyId::Huffman,
            histogram: hist(&[1, 1]),
            bit_len: 9,
            data: vec![0xFF],
        });
        match resp {
            Response::Error {
                code: ErrorCode::CorruptPayload,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        // Mid-symbol truncation: a length-2 codeword cut after 1 bit.
        let resp = svc.submit(Request::Decode {
            family: FamilyId::Huffman,
            histogram: hist(&[1, 1, 2]),
            bit_len: 1,
            data: vec![0x00],
        });
        match resp {
            Response::Error {
                code: ErrorCode::CorruptPayload,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(svc.metrics().errors, 2);
        svc.shutdown();
    }

    /// Seeds a base codebook via a plain `Encode` and returns its
    /// family-tagged base key.
    fn seed_base(svc: &Service, family: FamilyId, counts: &[u32]) -> u64 {
        let h = hist(counts);
        match svc.submit(Request::Encode {
            family,
            histogram: h.clone(),
            payload: vec![0, 1],
        }) {
            Response::Encoded { .. } => {}
            other => panic!("seeding {family}: expected Encoded, got {other:?}"),
        }
        family.tagged_key(h.hash64())
    }

    #[test]
    fn delta_patch_is_bit_identical_to_direct_encode() {
        let svc = Service::start(ServiceConfig::default());
        let base_counts = [40u32, 20, 10, 5];
        let base_key = seed_base(&svc, FamilyId::Huffman, &base_counts);
        // Bounded drift, all ratios within the default factor-of-two.
        let deltas = vec![(0u16, 8i32), (2, -3)];
        let drifted = [48u32, 20, 7, 5];
        let payload = vec![0u8, 1, 2, 3, 0, 0, 1, 2];

        let (path, bit_len, data) = match svc.submit(Request::EncodeDelta {
            family: FamilyId::Huffman,
            base_key,
            deltas: deltas.clone(),
            payload: payload.clone(),
        }) {
            Response::DeltaEncoded {
                path,
                bit_len,
                data,
            } => (path, bit_len, data),
            other => panic!("expected DeltaEncoded, got {other:?}"),
        };
        assert_eq!(path, DeltaPath::Patched.tag(), "distinct counts patch");

        // The differential invariant at the wire: a from-scratch Encode
        // of the drifted histogram yields the same bits.
        let direct = Service::start(ServiceConfig::default());
        match direct.submit(Request::Encode {
            family: FamilyId::Huffman,
            histogram: hist(&drifted),
            payload: payload.clone(),
        }) {
            Response::Encoded {
                bit_len: b,
                data: d,
            } => assert_eq!((b, d), (bit_len, data.clone()), "patched != from-scratch"),
            other => panic!("expected Encoded, got {other:?}"),
        }
        direct.shutdown();

        // DecodeDelta resolves the same drifted book and inverts it.
        match svc.submit(Request::DecodeDelta {
            family: FamilyId::Huffman,
            base_key,
            deltas,
            bit_len,
            data,
        }) {
            Response::Decoded { payload: p } => assert_eq!(p, payload),
            other => panic!("expected Decoded, got {other:?}"),
        }

        let m = svc.metrics();
        assert_eq!(m.delta_requests, 2);
        assert_eq!(m.delta_patched, 2, "encode patched, decode hit the key");
        assert_eq!((m.delta_fallbacks, m.delta_unknown_base), (0, 0));
        // A later plain Encode of the drifted histogram reuses the
        // installed entry — no construction.
        let before = svc.metrics().constructions;
        match svc.submit(Request::Encode {
            family: FamilyId::Huffman,
            histogram: hist(&drifted),
            payload: vec![0, 1],
        }) {
            Response::Encoded { .. } => {}
            other => panic!("expected Encoded, got {other:?}"),
        }
        assert_eq!(
            svc.metrics().constructions,
            before,
            "installed drifted book serves plain Encode"
        );
        svc.shutdown();
    }

    #[test]
    fn delta_unknown_base_is_a_structured_error() {
        let svc = Service::start(ServiceConfig::default());
        match svc.submit(Request::EncodeDelta {
            family: FamilyId::Huffman,
            base_key: 0xDEAD_BEEF,
            deltas: vec![(0, 1)],
            payload: vec![0],
        }) {
            Response::Error {
                code: ErrorCode::UnknownBase,
                ..
            } => {}
            other => panic!("expected UnknownBase, got {other:?}"),
        }
        let m = svc.metrics();
        assert_eq!((m.delta_requests, m.delta_unknown_base), (1, 1));
        assert_eq!(m.errors, 1);
        svc.shutdown();
    }

    #[test]
    fn families_without_patch_rules_fall_back_to_rebuild() {
        let svc = Service::start(ServiceConfig::default());
        let base_counts = [40u32, 20, 10, 5];
        let payload = vec![0u8, 1, 2, 3];
        for family in [FamilyId::Minimax, FamilyId::ChoosableEdge] {
            let base_key = seed_base(&svc, family, &base_counts);
            match svc.submit(Request::EncodeDelta {
                family,
                base_key,
                deltas: vec![(1, 5)],
                payload: payload.clone(),
            }) {
                Response::DeltaEncoded { path, .. } => {
                    assert_eq!(path, DeltaPath::Rebuilt.tag(), "{family} has no patch rule");
                }
                other => panic!("{family}: expected DeltaEncoded, got {other:?}"),
            }
        }
        let m = svc.metrics();
        assert_eq!(m.delta_fallbacks, 2);
        assert_eq!(m.delta_patched, 0);
        svc.shutdown();
    }

    #[test]
    fn structural_drift_rebuilds_and_bad_drift_is_malformed() {
        let svc = Service::start(ServiceConfig::default());
        let base_key = seed_base(&svc, FamilyId::Huffman, &[40, 20, 10, 5]);
        // Structural drift: symbol 2 drops to zero — alphabet shrinks.
        match svc.submit(Request::EncodeDelta {
            family: FamilyId::Huffman,
            base_key,
            deltas: vec![(2, -10)],
            payload: vec![0, 1, 3],
        }) {
            Response::DeltaEncoded { path, .. } => {
                assert_eq!(path, DeltaPath::Rebuilt.tag(), "removed symbol rebuilds");
            }
            other => panic!("expected DeltaEncoded, got {other:?}"),
        }
        // A drift that drives a count negative is malformed, not a panic.
        match svc.submit(Request::EncodeDelta {
            family: FamilyId::Huffman,
            base_key,
            deltas: vec![(0, -100)],
            payload: vec![0],
        }) {
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            } => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
        let m = svc.metrics();
        assert_eq!(m.delta_fallbacks, 1);
        assert_eq!(m.errors, 1);
        svc.shutdown();
    }

    #[test]
    fn delta_payload_symbols_validated_against_drifted_alphabet() {
        let svc = Service::start(ServiceConfig::default());
        let base_key = seed_base(&svc, FamilyId::Huffman, &[40, 20, 10]);
        // Symbol 3 is outside the 3-symbol drifted alphabet.
        match svc.submit(Request::EncodeDelta {
            family: FamilyId::Huffman,
            base_key,
            deltas: vec![(0, 1)],
            payload: vec![0, 3],
        }) {
            Response::Error { .. } => {}
            other => panic!("expected an error, got {other:?}"),
        }
        assert_eq!(svc.metrics().errors, 1);
        svc.shutdown();
    }
}
