//! Pool lifecycle regressions: worker threads are fully joined on drop
//! (no leaks, even over many build/drop cycles) and a parked pool burns
//! no measurable CPU.
//!
//! Thread accounting goes through procfs and filters by each pool's
//! distinctive `/proc/<tid>/comm` prefix, so these tests stay correct
//! when the harness runs other tests (with their own pools) in parallel.
//! On non-Linux hosts without `/proc` they pass vacuously.

use partree_exec::Pool;
use std::time::Duration;

/// TIDs of live threads whose comm starts with `prefix`, or `None` when
/// procfs is unavailable.
fn threads_with_prefix(prefix: &str) -> Option<Vec<u64>> {
    let entries = std::fs::read_dir("/proc/self/task").ok()?;
    let mut tids = Vec::new();
    for e in entries.flatten() {
        let comm = std::fs::read_to_string(e.path().join("comm")).unwrap_or_default();
        if comm.trim_end().starts_with(prefix) {
            if let Ok(tid) = e.file_name().to_string_lossy().parse::<u64>() {
                tids.push(tid);
            }
        }
    }
    Some(tids)
}

/// utime+stime (clock ticks) consumed so far by thread `tid`.
fn thread_cpu_ticks(tid: u64) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap_or_default();
    // Fields after the parenthesized comm; utime and stime are the 12th
    // and 13th post-comm fields (man proc: fields 14 and 15 overall).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11).and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.get(12).and_then(|v| v.parse().ok()).unwrap_or(0);
    utime + stime
}

fn poll_until<F: FnMut() -> bool>(mut ok: F, timeout: Duration) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if ok() {
            return true;
        }
        if std::time::Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn workers_appear_and_vanish_with_the_pool() {
    let pool = Pool::new(4);
    let prefix = pool.thread_name_prefix();
    if threads_with_prefix(&prefix).is_none() {
        return; // no procfs on this host
    }
    // Freshly spawned threads set their comm from inside the new thread,
    // so appearance is asynchronous — poll for it.
    assert!(
        poll_until(
            || threads_with_prefix(&prefix).is_some_and(|t| t.len() == 4),
            Duration::from_secs(5),
        ),
        "expected 4 live workers for {prefix}*"
    );
    drop(pool); // joins every worker synchronously
    assert!(
        poll_until(
            || threads_with_prefix(&prefix).is_none_or(|t| t.is_empty()),
            Duration::from_secs(5),
        ),
        "workers with prefix {prefix} survived pool drop"
    );
}

#[test]
fn fifty_build_drop_cycles_leak_no_threads() {
    for cycle in 0..50 {
        let pool = Pool::new(3);
        let prefix = pool.thread_name_prefix();
        // Exercise all submission paths so the drop races real work.
        let total: u64 = {
            let (a, b) = pool.join(|| 1u64 + cycle, || 2u64);
            a + b
        };
        assert_eq!(total, 3 + cycle);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
            .map(|_| Box::new(|| std::hint::black_box(())) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        pool.run_all(tasks);
        // Drop joins every worker synchronously, but a joined thread's
        // `/proc/self/task` entry can outlive `pthread_join` briefly, so
        // poll like the sibling test does; a worker still listed after
        // the bound is a real leak.
        drop(pool);
        assert!(
            poll_until(
                || threads_with_prefix(&prefix).is_none_or(|t| t.is_empty()),
                Duration::from_secs(5),
            ),
            "cycle {cycle}: {} worker(s) leaked ({prefix}*)",
            threads_with_prefix(&prefix).map_or(0, |t| t.len())
        );
    }
}

#[test]
fn parked_pool_consumes_no_measurable_cpu() {
    let pool = Pool::new(4);
    let prefix = pool.thread_name_prefix();
    // Warm every worker, then give the pool time to park.
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..32)
        .map(|_| Box::new(|| std::hint::black_box(())) as Box<dyn FnOnce() + Send + '_>)
        .collect();
    pool.run_all(tasks);
    if threads_with_prefix(&prefix).is_none() {
        return; // no procfs on this host
    }
    assert!(
        poll_until(
            || threads_with_prefix(&prefix).is_some_and(|t| t.len() == 4),
            Duration::from_secs(5),
        ),
        "expected 4 live workers for {prefix}*"
    );
    // Let the last worker finish parking before the measurement window.
    std::thread::sleep(Duration::from_millis(50));
    let tids = threads_with_prefix(&prefix).unwrap_or_default();
    let before: u64 = tids.iter().map(|&t| thread_cpu_ticks(t)).sum();
    std::thread::sleep(Duration::from_millis(200));
    let after: u64 = tids.iter().map(|&t| thread_cpu_ticks(t)).sum();
    // Parked workers sit in a condvar wait: zero ticks expected. Allow
    // one tick (typically 10 ms) of slop for bookkeeping charged late.
    assert!(
        after - before <= 1,
        "idle pool burned {} clock ticks over a 200ms window",
        after - before
    );
    // And parking is what the metrics say happened.
    assert!(
        pool.metrics_snapshot().parks > 0,
        "workers never parked despite an idle window"
    );
}
