//! Model-check scenarios for the circuit breaker and the shared idle
//! pool.
//!
//! Only compiled under `--cfg partree_model`. The breaker's and the idle
//! pool's mutexes and counters route through [`crate::sync`]'s shadow
//! types, so these scenarios explore the *shipping* `breaker.rs` and
//! `idle.rs` under every bounded interleaving. Cooldowns are pinned to
//! `Duration::ZERO` or effectively-infinite so wall-clock reads in
//! `Breaker::allow` never become nondeterministic branches.

use crate::breaker::{Breaker, BreakerConfig, BreakerState};
use crate::idle::IdlePool;
use partree_verify::{thread, Config, Scenario};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex as StdMutex, PoisonError};
use std::time::Duration;

/// A threshold-1 breaker with no cooldown: the first failure opens it,
/// the next `allow` probes.
fn instant_cfg() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: 1,
        open_cooldown: Duration::ZERO,
    }
}

/// Three callers racing for the probe slot after the cooldown: exactly
/// one may be admitted, in every interleaving.
fn breaker_single_probe_admission() {
    let b = Arc::new(Breaker::new(instant_cfg()));
    b.record_failure();
    let rivals: Vec<_> = (0..2)
        .map(|_| {
            let b2 = Arc::clone(&b);
            thread::spawn(move || b2.allow())
        })
        .collect();
    let mut admitted = b.allow() as u32;
    for rival in rivals {
        admitted += rival.join().expect("rival panicked") as u32;
    }
    assert_eq!(admitted, 1, "half-open admitted {admitted} probes");
    assert_eq!(b.state(), BreakerState::HalfOpen);
}

/// Concurrent failures crossing the threshold, with a concurrent
/// success racing the run: the breaker may not double-count a trip —
/// `opened_total` moves by at most one, and the final state is
/// consistent with whether the success landed before or after the trip.
fn breaker_concurrent_trip_opens_once() {
    let b = Arc::new(Breaker::new(BreakerConfig {
        failure_threshold: 2,
        // Effectively infinite: no allow() in this scenario may promote.
        open_cooldown: Duration::from_secs(3600),
    }));
    let (b1, b2) = (Arc::clone(&b), Arc::clone(&b));
    let t1 = thread::spawn(move || b1.record_failure());
    let t2 = thread::spawn(move || b2.record_failure());
    t1.join().expect("failer 1 panicked");
    t2.join().expect("failer 2 panicked");
    assert_eq!(b.state(), BreakerState::Open);
    assert_eq!(b.opened_total(), 1, "threshold crossing double-counted");
    assert!(!b.allow(), "open breaker within cooldown must refuse");
    // A third failure while already open must not re-count.
    b.record_failure();
    assert_eq!(b.opened_total(), 1, "open breaker re-counted a failure");
}

/// A failed probe racing a late rival `allow`: whoever won the slot,
/// the failure re-opens the breaker, a fresh episode admits a fresh
/// probe, and `opened_total` counts both openings exactly.
fn breaker_probe_failure_reopens() {
    let b = Arc::new(Breaker::new(instant_cfg()));
    b.record_failure();
    let rivals: Vec<_> = (0..2)
        .map(|_| {
            let b2 = Arc::clone(&b);
            thread::spawn(move || b2.allow())
        })
        .collect();
    let mut admitted = b.allow() as u32;
    for rival in rivals {
        admitted += rival.join().expect("rival panicked") as u32;
    }
    assert_eq!(admitted, 1, "probe slot admitted {admitted}");
    b.record_failure();
    assert_eq!(b.state(), BreakerState::Open);
    assert_eq!(b.opened_total(), 2);
    assert!(b.allow(), "new episode must admit a new probe");
    b.record_success();
    assert_eq!(b.state(), BreakerState::Closed);
}

/// A successful probe racing concurrent traffic: after the winner's
/// `record_success`, the breaker is closed and everyone flows again.
fn breaker_probe_success_recloses() {
    let b = Arc::new(Breaker::new(instant_cfg()));
    b.record_failure();
    let b2 = Arc::clone(&b);
    let prober = thread::spawn(move || {
        if b2.allow() {
            b2.record_success();
            true
        } else {
            false
        }
    });
    let mine = b.allow();
    let probed = prober.join().expect("prober panicked");
    if mine {
        // This thread won the slot; resolve it so the scenario ends in
        // a quiescent state in every branch.
        b.record_success();
    } else {
        assert!(probed, "slot admitted no one");
    }
    assert_eq!(b.state(), BreakerState::Closed);
    assert!(b.allow() && b.allow(), "closed breaker must flow freely");
}

/// A socket stand-in for the idle pool: its id and whether its peer
/// closed it. Dropping one logs its id, as closing a socket ends it.
struct Sock {
    id: u32,
    peer_closed: bool,
    closed: Arc<StdMutex<Vec<u32>>>,
}

impl Drop for Sock {
    fn drop(&mut self) {
        // A plain std lock: never contended, since the model runs one
        // thread at a time and takes no step inside it.
        self.closed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(self.id);
    }
}

/// A caller's checkout, the reactor's check-in of a just-answered
/// connection, a purge and the prober's `take_lost` race over one
/// address whose most recently idle socket was closed by its peer, in a
/// pool that is full when the race starts. In every interleaving each
/// socket ends with exactly one owner (the caller, the pool, or
/// closed), none is pooled twice, the caller never gets the dead one,
/// a socket is closed only by a purge, a full pool or its dead peer,
/// and the loss is reported exactly once unless a purge closed the dead
/// socket before anyone looked at it.
fn idle_pool_sockets_have_one_owner() {
    let addr: SocketAddr = ([127, 0, 0, 1], 7000).into();
    let closed = Arc::new(StdMutex::new(Vec::new()));
    let sock = |id, peer_closed| Sock {
        id,
        peer_closed,
        closed: Arc::clone(&closed),
    };
    let live = |s: &Sock| !s.peer_closed;
    let pool = Arc::new(IdlePool::new(2));
    // Sock 0 is on top, and dead.
    for s in [sock(1, false), sock(0, true)] {
        assert!(pool.check_in(addr, s).is_ok());
    }
    let answered = sock(2, false);

    let p = Arc::clone(&pool);
    let caller = thread::spawn(move || p.check_out(addr, live));
    let p = Arc::clone(&pool);
    let reactor = thread::spawn(move || p.check_in(addr, answered).is_err());
    let p = Arc::clone(&pool);
    let purger = thread::spawn(move || p.purge(addr).iter().map(|s| s.id).collect::<Vec<_>>());
    let p = Arc::clone(&pool);
    let prober = thread::spawn(move || p.take_lost(addr, live));

    let checked_out = caller.join().expect("caller panicked");
    let rejected = reactor.join().expect("reactor panicked");
    let purged = purger.join().expect("purger panicked");
    let mut reports = u32::from(prober.join().expect("prober panicked"));
    reports += u32::from(pool.take_lost(addr, live));
    let pooled = pool.purge(addr);

    assert!(
        checked_out.as_ref().map_or(true, |s| !s.peer_closed),
        "a closed socket was checked out"
    );
    let mut dropped = closed
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    dropped.sort_unstable();
    let mut decided = purged.clone();
    decided.extend(rejected.then_some(2));
    decided.extend((!purged.contains(&0)).then_some(0));
    decided.sort_unstable();
    assert_eq!(dropped, decided, "a socket closed that no one closed");
    let mut owners = dropped;
    owners.extend(checked_out.iter().map(|s| s.id));
    owners.extend(pooled.iter().map(|s| s.id));
    owners.sort_unstable();
    assert_eq!(owners, [0, 1, 2], "a socket with no owner or two");
    let expected = u32::from(!purged.contains(&0));
    assert_eq!(reports, expected, "loss reported {reports} times");
}

/// The gateway's scenario registry, run by `cargo run -p xtask --
/// verify` and the gateway model test suite.
pub fn scenarios() -> Vec<Scenario> {
    let cfg = Config {
        preemption_bound: 3,
        max_executions: 120_000,
        max_steps: 5_000,
        read_window: 4,
    };
    vec![
        Scenario {
            name: "breaker_single_probe_admission",
            cfg,
            body: breaker_single_probe_admission,
        },
        Scenario {
            name: "breaker_concurrent_trip_opens_once",
            cfg,
            body: breaker_concurrent_trip_opens_once,
        },
        Scenario {
            name: "breaker_probe_failure_reopens",
            cfg,
            body: breaker_probe_failure_reopens,
        },
        Scenario {
            name: "breaker_probe_success_recloses",
            cfg,
            body: breaker_probe_success_recloses,
        },
        Scenario {
            name: "idle_pool_sockets_have_one_owner",
            cfg,
            body: idle_pool_sockets_have_one_owner,
        },
    ]
}
