//! `partree-exec` — a persistent work-stealing executor.
//!
//! The vendored rayon shim originally spawned scoped OS threads for every
//! `par_iter`/`join` call, so a single parallel Huffman run paid
//! O(rounds × width) thread spawns and the codec service paid them again
//! on every batch tick. This crate replaces that with the substrate real
//! fork-join runtimes use: a fixed set of worker threads that live for
//! the life of the pool.
//!
//! ## Architecture
//!
//! * **Per-worker Chase–Lev deques** ([`deque`]): the owner pushes and
//!   pops its LIFO end without contention; idle workers steal the FIFO
//!   end, so the oldest (largest) work moves and cache-warm work stays.
//! * **Global injector**: threads outside the pool submit through a
//!   mutexed queue; workers drain it between deque scans.
//! * **Condvar park/unpark**: a worker that finds no work anywhere
//!   registers as a sleeper and blocks on a condvar. Submitters run a
//!   Dekker-style handshake (seq-cst fences around the sleeper count,
//!   epoch bump under the sleep mutex) so a push can never slip between a
//!   worker's last scan and its sleep — no lost wakeups, and a parked
//!   pool burns zero CPU.
//! * **Nested parallelism**: a worker that must wait for a forked task
//!   (`join`'s second half, or a `run_all` batch) does not block the OS
//!   thread — it re-enters the scheduler and executes other ready work
//!   (its own deque, the injector, steals) until the awaited latch
//!   completes. Waits-for edges only point down the fork tree, so this
//!   cannot cycle; a bounded `wait_timeout` backstop keeps every helper
//!   re-scanning even in pathological interleavings.
//! * **Graceful shutdown**: dropping the pool wakes and joins every
//!   worker. The API blocks submitters until their jobs finish, so no
//!   queued work can outlive its caller.
//!
//! ## Determinism
//!
//! The executor itself is scheduling-agnostic: *which worker* runs a job
//! is racy by design. Callers (the rayon shim) preserve partree's
//! determinism contract by pre-splitting work into fixed blocks whose
//! results are written to disjoint slots and folded in index order —
//! the executor never reorders, merges, or splits submitted jobs.

mod deque;
mod latch;
pub mod metrics;
#[cfg(partree_model)]
pub mod model;
mod sync;

pub use metrics::ExecSnapshot;

use crate::sync::{fence, AtomicBool, AtomicUsize, Condvar, Mutex, Ordering};
use deque::{Deque, Steal};
use latch::CountLatch;
use metrics::{bump, Metrics};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// An erased, heap-owned unit of work.
struct Job(Box<dyn FnOnce() + Send + 'static>);

/// Raw job pointer that may cross threads (ownership transfers with it).
struct JobPtr(*mut Job);
// SAFETY: a JobPtr is a unique owner of its heap Job; exactly one
// thread converts it back with Box::from_raw (see `execute`), so
// sending it transfers ownership rather than sharing it.
unsafe impl Send for JobPtr {}

/// Erases a scoped closure to `'static` for queueing.
///
/// # Safety
/// The caller must not return (and must keep every borrow in `f` alive)
/// until the job has finished executing. All submission paths in this
/// crate block on a completion latch, which upholds this.
unsafe fn erase<'a>(f: Box<dyn FnOnce() + Send + 'a>) -> Box<dyn FnOnce() + Send + 'static> {
    // SAFETY: only the lifetime is transmuted; the caller (per the
    // contract above) outlives the job's execution.
    unsafe { std::mem::transmute(f) }
}

thread_local! {
    /// `(pool id, worker index)` when the current thread is a pool
    /// worker; `(usize::MAX, _)` otherwise.
    static WORKER: Cell<(usize, usize)> = const { Cell::new((usize::MAX, usize::MAX)) };
}

// Real std atomic on purpose: pool ids are harness-level bookkeeping,
// not synchronization the checker should model.
static NEXT_POOL_ID: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(1);

/// Shared state between the [`Pool`] handle and its workers.
struct Inner {
    id: usize,
    deques: Vec<Deque<Job>>,
    injector: Mutex<VecDeque<JobPtr>>,
    /// Mirror of the injector length, readable without the lock (gauge).
    injector_len: AtomicUsize,
    /// Bumped (under the lock) on every wake; the sleep predicate.
    sleep_epoch: Mutex<u64>,
    wake_cv: Condvar,
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    metrics: Metrics,
}

impl Inner {
    /// Builds the shared pool state without spawning any workers.
    /// [`Pool::new`] wraps it in OS worker threads; the model scenarios
    /// in [`model`] drive the same state directly on checker strands, so
    /// the park/unpark handshake explored there is the shipping one.
    fn bare(workers: usize) -> Arc<Inner> {
        // ordering: Relaxed — a unique-id counter; nothing synchronizes
        // through it.
        let id = NEXT_POOL_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Arc::new(Inner {
            id,
            deques: (0..workers).map(|_| Deque::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            injector_len: AtomicUsize::new(0),
            sleep_epoch: Mutex::new(0),
            wake_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            metrics: Metrics::default(),
        })
    }
}

/// A persistent work-stealing thread pool.
///
/// Workers spawn eagerly in [`Pool::new`] and are joined when the pool
/// drops. Both entry points — [`Pool::run_all`] and [`Pool::join`] —
/// block the submitting thread until the submitted work has completed,
/// which is what lets them accept non-`'static` closures.
pub struct Pool {
    inner: Arc<Inner>,
    // Real std mutex on purpose: join handles are teardown bookkeeping,
    // not part of the modeled synchronization.
    handles: std::sync::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Pool {
    /// Spawns a pool of exactly `workers` threads (min 1).
    pub fn new(workers: usize) -> Pool {
        let workers = workers.max(1);
        let inner = Inner::bare(workers);
        let id = inner.id;
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    // Short prefix so /proc/<tid>/comm (15 bytes) keeps
                    // the pool id — the leak/idle tests filter on it.
                    .name(format!("pexec{id}-{i}"))
                    .spawn(move || worker_main(inner, i))
                    .expect("partree-exec: worker spawn failed")
            })
            .collect();
        Pool {
            inner,
            handles: std::sync::Mutex::new(handles),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.deques.len()
    }

    /// The `/proc/<tid>/comm` prefix of this pool's workers (tests use
    /// it to attribute thread counts and CPU time to one pool).
    pub fn thread_name_prefix(&self) -> String {
        format!("pexec{}-", self.inner.id)
    }

    /// Runs every task to completion, potentially in parallel.
    ///
    /// Tasks may borrow from the caller's stack: the call does not return
    /// until all of them have finished. Order of *execution* is
    /// unspecified; callers that need ordered results give each task its
    /// own output slot. The first panicking task's payload is re-raised
    /// here after the whole batch has quiesced.
    pub fn run_all<'s>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 's>>) {
        if tasks.is_empty() {
            return;
        }
        let latch = CountLatch::new(tasks.len());
        let me = self.current_worker();
        for task in tasks {
            // SAFETY: run_all blocks on the latch below until every task
            // (and thus every borrow in it) has finished.
            let task = unsafe { erase(task) };
            let l = Arc::clone(&latch);
            let job = Box::into_raw(Box::new(Job(Box::new(move || {
                if let Err(p) = catch_unwind(AssertUnwindSafe(task)) {
                    l.poison(p);
                }
                l.count_down();
            }))));
            match me {
                // SAFETY: `me` is this thread's own worker index, so this
                // is the owner pushing to its own deque.
                Some(i) => unsafe { self.inner.deques[i].push(job) },
                None => self.inject(job),
            }
        }
        wake_sleepers(&self.inner);
        match me {
            Some(i) => help_until(&self.inner, i, &latch),
            None => latch.wait_done(),
        }
        latch.rethrow();
    }

    /// Runs both closures, potentially in parallel, and returns both
    /// results. `a` executes on the calling thread; `b` is queued for the
    /// pool (and popped right back by the caller when no one steals it,
    /// preserving the sequential fast path). Panics from either side
    /// propagate after both have quiesced.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        bump(&self.inner.metrics.joins);
        let latch = CountLatch::new(1);
        let slot: Arc<Mutex<Option<RB>>> = Arc::new(Mutex::new(None));
        let me = self.current_worker();
        {
            let l = Arc::clone(&latch);
            let slot = Arc::clone(&slot);
            let wrapped: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                match catch_unwind(AssertUnwindSafe(b)) {
                    Ok(v) => *slot.lock().expect("join slot poisoned") = Some(v),
                    Err(p) => l.poison(p),
                }
                l.count_down();
            });
            // SAFETY: join blocks on the latch below until `b` finishes,
            // keeping its borrows alive for the job's whole run.
            let job = Box::into_raw(Box::new(Job(unsafe { erase(wrapped) })));
            match me {
                // SAFETY: `me` is this thread's own worker index (owner
                // push, see run_all).
                Some(i) => unsafe { self.inner.deques[i].push(job) },
                None => self.inject(job),
            }
        }
        wake_sleepers(&self.inner);
        let ra = catch_unwind(AssertUnwindSafe(a));
        match me {
            Some(i) => help_until(&self.inner, i, &latch),
            None => latch.wait_done(),
        }
        latch.rethrow();
        let ra = match ra {
            Ok(v) => v,
            Err(p) => resume_unwind(p),
        };
        let rb = slot
            .lock()
            .expect("join slot poisoned")
            .take()
            .expect("join: task completed without a result or a panic");
        (ra, rb)
    }

    /// Freezes this pool's counters and gauges.
    pub fn metrics_snapshot(&self) -> ExecSnapshot {
        ExecSnapshot {
            // ordering: Relaxed — gauge read for display only.
            injector_depth: self.inner.injector_len.load(Ordering::Relaxed) as u64,
            ..self.inner.metrics.load()
        }
    }

    fn current_worker(&self) -> Option<usize> {
        let (pid, idx) = WORKER.with(Cell::get);
        (pid == self.inner.id).then_some(idx)
    }

    fn inject(&self, job: *mut Job) {
        inject_job(&self.inner, job);
    }

    /// Signals shutdown and joins every worker. Idempotent; also run by
    /// `Drop`.
    pub fn shutdown(&self) {
        signal_shutdown(&self.inner);
        let handles = std::mem::take(&mut *self.handles.lock().expect("handle lock poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Queues a job on the global injector (submission path for threads
/// outside the pool). Callers follow up with [`wake_sleepers`].
fn inject_job(inner: &Inner, job: *mut Job) {
    let mut q = inner.injector.lock().expect("injector poisoned");
    q.push_back(JobPtr(job));
    inner.injector_len.store(q.len(), Ordering::Release);
    drop(q);
    bump(&inner.metrics.injected);
}

/// The signal half of shutdown: raise the flag, then bump the epoch and
/// notify under the sleep lock so every parked worker re-checks it.
/// Unlike [`wake_sleepers`] this wakes unconditionally — shutdown must
/// reach workers that are *about* to sleep as well as those already
/// waiting, and the epoch bump covers both.
fn signal_shutdown(inner: &Inner) {
    inner.shutdown.store(true, Ordering::Release);
    let mut g = inner.sleep_epoch.lock().expect("sleep lock poisoned");
    *g = g.wrapping_add(1);
    inner.wake_cv.notify_all();
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("id", &self.inner.id)
            .field("workers", &self.workers())
            .finish()
    }
}

fn worker_main(inner: Arc<Inner>, me: usize) {
    WORKER.with(|w| w.set((inner.id, me)));
    bump(&inner.metrics.workers);
    loop {
        if let Some(job) = find_work(&inner, me) {
            execute(&inner, job);
            continue;
        }
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        park(&inner, me);
    }
}

/// One full scan: own deque (LIFO), then the injector, then a stealing
/// sweep over the other workers' deques.
fn find_work(inner: &Inner, me: usize) -> Option<*mut Job> {
    // SAFETY: `me` is the calling worker's own index — worker_main and
    // help_until only pass their own slot — so this is the owner popping.
    if let Some(job) = unsafe { inner.deques[me].pop() } {
        return Some(job);
    }
    if inner.injector_len.load(Ordering::Acquire) > 0 {
        let mut q = inner.injector.lock().expect("injector poisoned");
        if let Some(JobPtr(job)) = q.pop_front() {
            inner.injector_len.store(q.len(), Ordering::Release);
            return Some(job);
        }
    }
    let n = inner.deques.len();
    for off in 1..n {
        let victim = (me + off) % n;
        loop {
            match inner.deques[victim].steal() {
                Steal::Success(job) => {
                    bump(&inner.metrics.steals);
                    return Some(job);
                }
                // CAS failure means another thread made progress; the
                // retry loop is therefore lock-free overall.
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
    }
    None
}

fn execute(inner: &Inner, job: *mut Job) {
    bump(&inner.metrics.blocks_executed);
    // Every queued job is wrapped in catch_unwind by its submission path,
    // so this call does not unwind through the worker loop.
    // SAFETY: `job` came from Box::into_raw at submission and the deque/
    // injector protocol hands each pointer out exactly once.
    (unsafe { Box::from_raw(job) }.0)();
}

/// Hint scan used by the park protocol's final re-check.
fn has_work(inner: &Inner) -> bool {
    inner.injector_len.load(Ordering::Acquire) > 0
        || inner.deques.iter().any(|d| !d.is_empty_hint())
}

/// Fault-injection hook for the checker's falsifiability test: weakens
/// park's sleeper-side SeqCst synchronization — the Dekker fence *and*
/// the sleeper-count RMW it anchors — to Relaxed, opening the classic
/// lost-wakeup window (the worker's final scan misses a push whose
/// submitter missed the sleeper count). Both points must weaken
/// together because the model deliberately over-approximates C11: every
/// SeqCst operation joins one global SC clock (acting like a full SC
/// fence), so a SeqCst `fetch_add` alone would mask the fence's removal
/// even though real hardware provides no such rescue. `verify --mutate`
/// flips the hook and asserts the model reports the resulting deadlock
/// with a replayable seed — proving the suite can actually see this
/// family of bugs. Compiled out of shipping builds entirely.
#[cfg(partree_model)]
pub(crate) mod park_mutation {
    use super::Ordering;
    // Real std atomic on purpose: this is checker-harness state, not part
    // of the modeled program, so it must not create decision points.
    use std::sync::atomic::AtomicBool;

    pub(crate) static WEAKEN_PARK_FENCE: AtomicBool = AtomicBool::new(false);

    pub(crate) fn park_ordering() -> Ordering {
        // ordering: Relaxed — harness flag, toggled only between (never
        // during) model explorations.
        if WEAKEN_PARK_FENCE.load(std::sync::atomic::Ordering::Relaxed) {
            Ordering::Relaxed // ordering: the weakened value under test
        } else {
            Ordering::SeqCst
        }
    }
}

/// Blocks until new work may exist. Pairs with [`wake_sleepers`]: the
/// sleeper count is incremented *before* the final scan and checked by
/// submitters *after* their push (both sides seq-cst fenced), so either
/// the scan sees the push or the submitter sees the sleeper and bumps the
/// epoch this worker is about to wait on.
fn park(inner: &Inner, _me: usize) {
    // ordering: SeqCst RMW — the sleeper registration must take a slot
    // in the same total order as the submitter's post-push sleeper read.
    #[cfg(not(partree_model))]
    inner.sleepers.fetch_add(1, Ordering::SeqCst);
    // ordering: model builds take the same SeqCst unless the mutation
    // harness deliberately weakens the park side to Relaxed.
    #[cfg(partree_model)]
    inner.sleepers.fetch_add(1, park_mutation::park_ordering());
    // ordering: SeqCst fence — Dekker handshake with wake_sleepers: the
    // sleeper bump above and the work scan below cannot reorder past it,
    // so a submitter's post-push fence either sees this sleeper or this
    // scan sees the push.
    #[cfg(not(partree_model))]
    fence(Ordering::SeqCst);
    // ordering: model builds take the same SeqCst fence unless the
    // mutation harness deliberately weakens it to Relaxed.
    #[cfg(partree_model)]
    fence(park_mutation::park_ordering());
    let epoch = *inner.sleep_epoch.lock().expect("sleep lock poisoned");
    if has_work(inner) || inner.shutdown.load(Ordering::Acquire) {
        inner.sleepers.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    let mut g = inner.sleep_epoch.lock().expect("sleep lock poisoned");
    if *g == epoch && !inner.shutdown.load(Ordering::Acquire) {
        bump(&inner.metrics.parks);
        while *g == epoch && !inner.shutdown.load(Ordering::Acquire) {
            g = inner.wake_cv.wait(g).expect("sleep lock poisoned");
        }
    }
    drop(g);
    inner.sleepers.fetch_sub(1, Ordering::SeqCst);
}

/// Wakes parked workers after a submission (see [`park`]).
fn wake_sleepers(inner: &Inner) {
    // ordering: SeqCst fence — the submitter's half of the park Dekker
    // handshake: orders the job push before the sleeper-count read.
    fence(Ordering::SeqCst);
    if inner.sleepers.load(Ordering::SeqCst) > 0 {
        let mut g = inner.sleep_epoch.lock().expect("sleep lock poisoned");
        *g = g.wrapping_add(1);
        inner.wake_cv.notify_all();
    }
}

/// A worker waiting on `latch` re-enters the scheduler instead of
/// blocking its OS thread: it executes any ready work until the latch
/// completes. The brief timed wait after an idle streak caps the rescan
/// rate without risking a missed completion (the latch notifies its own
/// condvar) or a deadlock (every helper re-scans at least every 200 µs).
fn help_until(inner: &Inner, me: usize, latch: &CountLatch) {
    let mut idle_streak = 0u32;
    while !latch.probe_done() {
        if let Some(job) = find_work(inner, me) {
            execute(inner, job);
            idle_streak = 0;
            continue;
        }
        idle_streak += 1;
        if idle_streak < 32 {
            std::thread::yield_now();
        } else {
            latch.wait_done_timeout(Duration::from_micros(200));
        }
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// Worker count for the shared global pool: `PARTREE_EXEC_THREADS` if
/// set, else the machine's logical-CPU count (floored at 2 so stealing
/// paths stay exercised even on single-core runners).
fn default_workers() -> usize {
    std::env::var("PARTREE_EXEC_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(2)
        })
}

/// The process-wide shared pool, spawned on first use and never dropped.
/// All rayon-shim drivers delegate here.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(default_workers()))
}

/// Metrics of the global pool without forcing it into existence: all
/// zeros when no parallel work has run yet.
pub fn global_snapshot() -> ExecSnapshot {
    GLOBAL
        .get()
        .map_or_else(ExecSnapshot::default, Pool::metrics_snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_all_executes_every_task_once() {
        let pool = Pool::new(4);
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = counters
            .iter()
            .map(|c| {
                Box::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_all(tasks);
        for c in &counters {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
        assert_eq!(pool.metrics_snapshot().blocks_executed, 100);
    }

    #[test]
    fn join_returns_both_results_from_any_thread() {
        let pool = Pool::new(2);
        let (a, b) = pool.join(|| 2 + 2, || "ok");
        assert_eq!((a, b), (4, "ok"));
    }

    #[test]
    fn nested_joins_do_not_deadlock_and_fold_in_order() {
        let pool = Pool::new(4);
        // Recursive pairwise sum over a fixed split: the shape (and thus
        // the f64 rounding) is independent of scheduling.
        fn sum(pool: &Pool, xs: &[f64]) -> f64 {
            if xs.len() <= 8 {
                return xs.iter().fold(0.0, |acc, &x| acc + x);
            }
            let mid = xs.len() / 2;
            let (l, r) = pool.join(|| sum(pool, &xs[..mid]), || sum(pool, &xs[mid..]));
            l + r
        }
        let xs: Vec<f64> = (1..=10_000).map(|i| 1.0 / i as f64).collect();
        let expect = {
            fn seq(xs: &[f64]) -> f64 {
                if xs.len() <= 8 {
                    return xs.iter().fold(0.0, |acc, &x| acc + x);
                }
                let mid = xs.len() / 2;
                seq(&xs[..mid]) + seq(&xs[mid..])
            }
            seq(&xs)
        };
        for _ in 0..10 {
            assert_eq!(sum(&pool, &xs).to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let pool = Pool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| 1, || -> usize { panic!("boom from b") });
        }));
        assert!(caught.is_err());
        // The pool survives a panicked task.
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn external_threads_share_one_pool_safely() {
        let pool = Pool::new(3);
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..50 {
                        let (a, b) = pool.join(|| t * i, || t + i);
                        assert_eq!((a, b), (t * i, t + i));
                    }
                });
            }
        });
    }
}
