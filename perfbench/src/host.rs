//! What the run happened on: core count, CPU model, a calibration loop
//! that uses no repository code, CPU time, stolen time, and the
//! process's resident set.
//! The calibration is a diagnostic for telling host drift from a
//! program change; no metric or gate depends on it.

use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A fixed integer loop (xorshift plus a small insertion sort),
/// milliseconds to run it once.
pub fn calibrate_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut buf = [0u32; 64];
    for round in 0..40_000u32 {
        for slot in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = x as u32;
        }
        for i in 1..buf.len() {
            let mut j = i;
            while j > 0 && buf[j - 1] > buf[j] {
                buf.swap(j - 1, j);
                j -= 1;
            }
        }
        x = x.wrapping_add(u64::from(buf[(round % 64) as usize]));
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// A field of `/proc/self/status` given in kB (`VmHWM:`, `VmRSS:`),
/// in MB (MiB).
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time the hypervisor ran other guests while this host's CPUs wanted
/// to run (the `steal` column of `/proc/stat`), seconds summed over
/// CPUs.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let f: Vec<&str> = s.lines().next()?.split_whitespace().collect();
            f.get(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0) // USER_HZ on Linux
}

/// CPU time this process has used (user + system), seconds.
pub fn cpu_seconds() -> f64 {
    let ticks_per_s = 100.0; // USER_HZ on Linux
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / ticks_per_s)
        })
        .unwrap_or(0.0)
}

/// A fixed thread hand-off loop: two threads pass a token back and
/// forth through a mutex and condition variable; µs per round trip.
/// The fleet hands every request between threads many times, so this
/// tracks the host's wake-up latency, which the integer loop misses.
pub fn handoff_us() -> f64 {
    use std::sync::{Arc, Condvar, Mutex};
    const ROUNDS: u32 = 2000;
    let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
    let other = Arc::clone(&pair);
    let t = Instant::now();
    let peer = std::thread::spawn(move || {
        let (m, cv) = &*other;
        let mut g = m.lock().expect("handoff lock");
        for i in 0..ROUNDS {
            while *g != 2 * i + 1 {
                g = cv.wait(g).expect("handoff lock");
            }
            *g += 1;
            cv.notify_one();
        }
    });
    {
        let (m, cv) = &*pair;
        let mut g = m.lock().expect("handoff lock");
        for i in 0..ROUNDS {
            *g = 2 * i + 1;
            cv.notify_one();
            while *g != 2 * i + 2 {
                g = cv.wait(g).expect("handoff lock");
            }
        }
    }
    peer.join().expect("handoff peer");
    t.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS)
}
