//! Per-replica circuit breaker: closed → open → half-open → closed.
//!
//! The breaker converts a *stream* of failures into a routing decision.
//! Closed passes everything; a run of `failure_threshold` consecutive
//! failures opens it, which removes the replica from routing for
//! `open_cooldown`; after the cooldown the first `allow` transitions to
//! half-open and admits exactly **one** probe request — concurrent
//! `allow` calls are refused until that probe resolves. One success
//! re-closes, one failure re-opens and restarts the cooldown. The
//! single-probe rule is what keeps a recovering replica from being
//! trampled: without it, every waiting caller rushes in the instant the
//! cooldown ends, and a replica that is up-but-cold gets re-opened by
//! its own thundering herd.
//!
//! The state machine is small enough to check, so it is: the scenarios
//! in [`crate::model`] run this exact source under the bounded model
//! checker (`--cfg partree_model`), covering the concurrent-trip and
//! probe-admission races.
//!
//! What counts as a failure is the *caller's* decision, and partree
//! draws the line at liveness: transport errors and `ShuttingDown`
//! trip the breaker, while `Busy`/`Timeout` do not — a saturated
//! replica is alive, and opening on backpressure would amputate
//! capacity exactly when it is scarcest.

use crate::sync::{AtomicU64, Mutex, Ordering};
use std::time::{Duration, Instant};

/// Where the breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: requests flow.
    #[default]
    Closed,
    /// Tripped: requests are routed elsewhere until the cooldown ends.
    Open,
    /// Probing: letting traffic through to learn whether the replica
    /// recovered.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name, used in metrics JSON.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Breaker tunables.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a closed breaker.
    pub failure_threshold: u32,
    /// How long an open breaker blocks before probing.
    pub open_cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_millis(500),
        }
    }
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    /// A half-open probe has been admitted and has not yet resolved;
    /// further `allow` calls are refused until it does.
    probe_inflight: bool,
}

/// One replica's breaker. All methods are cheap (one short mutex) and
/// callable from any thread.
#[derive(Debug)]
pub struct Breaker {
    cfg: BreakerConfig,
    inner: Mutex<Inner>,
    /// Times the breaker has transitioned closed/half-open → open.
    opened_total: AtomicU64,
}

impl Breaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> Breaker {
        Breaker {
            cfg,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                probe_inflight: false,
            }),
            opened_total: AtomicU64::new(0),
        }
    }

    /// Routing gate. `Closed` allows; `Open` blocks until the cooldown
    /// has elapsed, at which point this call itself performs the
    /// open → half-open transition and admits the probe; `HalfOpen`
    /// refuses everything while the probe is in flight — exactly one
    /// caller wins the probe slot per half-open episode.
    pub fn allow(&self) -> bool {
        // lint: allow(no-unwrap): a poisoned breaker lock means a panic mid-transition; its state is untrustworthy and crashing beats routing on it
        let mut g = self.inner.lock().expect("breaker poisoned");
        match g.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => !std::mem::replace(&mut g.probe_inflight, true),
            BreakerState::Open => {
                let elapsed = g.opened_at.map(|t| t.elapsed()).unwrap_or(Duration::ZERO);
                if elapsed >= self.cfg.open_cooldown {
                    g.state = BreakerState::HalfOpen;
                    g.probe_inflight = true;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// A liveness success: resets the failure run, resolves any
    /// in-flight probe, and re-closes a half-open breaker.
    pub fn record_success(&self) {
        // lint: allow(no-unwrap): poisoned breaker lock, as above
        let mut g = self.inner.lock().expect("breaker poisoned");
        g.consecutive_failures = 0;
        g.state = BreakerState::Closed;
        g.opened_at = None;
        g.probe_inflight = false;
    }

    /// A liveness failure: trips a closed breaker at the threshold and
    /// re-opens a half-open one immediately (a failed probe restarts
    /// the cooldown).
    pub fn record_failure(&self) {
        // lint: allow(no-unwrap): poisoned breaker lock, as above
        let mut g = self.inner.lock().expect("breaker poisoned");
        g.consecutive_failures = g.consecutive_failures.saturating_add(1);
        g.probe_inflight = false;
        let trip = match g.state {
            BreakerState::Closed => g.consecutive_failures >= self.cfg.failure_threshold,
            BreakerState::HalfOpen => true,
            BreakerState::Open => false,
        };
        if trip {
            g.state = BreakerState::Open;
            g.opened_at = Some(Instant::now());
            // ordering: Relaxed — monotonic metrics counter.
            self.opened_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current state (open breakers are *not* auto-promoted here; only
    /// [`Breaker::allow`] performs the half-open transition).
    pub fn state(&self) -> BreakerState {
        // lint: allow(no-unwrap): poisoned breaker lock, as above
        self.inner.lock().expect("breaker poisoned").state
    }

    /// Times this breaker has opened.
    pub fn opened_total(&self) -> u64 {
        // ordering: Relaxed — metrics read.
        self.opened_total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_millis(30),
        }
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let b = Breaker::new(fast());
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());
        assert_eq!(b.opened_total(), 1);
    }

    #[test]
    fn success_resets_the_failure_run() {
        let b = Breaker::new(fast());
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "run was reset");
    }

    #[test]
    fn cooldown_leads_to_half_open_then_closed_or_reopened() {
        let b = Breaker::new(fast());
        for _ in 0..3 {
            b.record_failure();
        }
        assert!(!b.allow());
        std::thread::sleep(Duration::from_millis(40));
        assert!(b.allow(), "cooldown elapsed: probe allowed");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Failed probe re-opens immediately and restarts the cooldown.
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());
        assert_eq!(b.opened_total(), 2);
        std::thread::sleep(Duration::from_millis(40));
        assert!(b.allow());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn half_open_admits_exactly_one_probe_per_episode() {
        let b = Breaker::new(BreakerConfig {
            failure_threshold: 1,
            open_cooldown: Duration::ZERO,
        });
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // Zero cooldown: the next allow is the probe...
        assert!(b.allow(), "first caller wins the probe slot");
        // ...and everyone else is refused until it resolves.
        assert!(!b.allow());
        assert!(!b.allow());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe failure re-opens and frees the slot for the next episode.
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(), "new episode, new probe");
        assert!(!b.allow());
        // Probe success re-closes; traffic flows freely again.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow() && b.allow());
    }
}
