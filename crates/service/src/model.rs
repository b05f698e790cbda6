//! Model-check scenarios for the reactor's cross-thread waker
//! handshake ([`crate::waker`]).
//!
//! Only compiled under `--cfg partree_model`. The flag and the
//! completion queue route their atomic and mutex through
//! [`crate::sync`]'s shadow types, so these scenarios explore the
//! *shipping* `waker.rs` under every bounded interleaving.
//!
//! The property under test is lost-wakeup freedom, stated without any
//! blocking call (the checker never parks): whenever the consumer's
//! `try_sleep` commits — the moment either shipping reactor enters
//! `epoll_wait`, both through `conn::Conns::wait` — every producer
//! that publishes afterwards must get `push() == true`, i.e. must be
//! told it owes the `eventfd` write that would lift the reactor out of
//! `epoll_wait`. An interleaving
//! where the consumer committed and no producer was told to wake is
//! exactly the lost-wakeup bug, and shows up here as an assert.

use crate::waker::CompletionQueue;
use partree_verify::{thread, Config, Scenario};
use std::sync::Arc;

/// One producer racing the consumer's commit: either the consumer
/// refuses the sleep (and drains), or the producer owes the wake.
/// Neither-nor is the lost wakeup.
fn waker_no_lost_wakeup() {
    let q = Arc::new(CompletionQueue::new());
    let q2 = Arc::clone(&q);
    let producer = thread::spawn(move || q2.push(7u32));
    let slept = q.try_sleep();
    // The consumer is "inside epoll_wait" here iff `slept`; the model
    // cannot block, so the wake obligation is checked after the fact.
    let owes_wake = producer.join().expect("producer panicked");
    if slept {
        assert!(
            owes_wake,
            "consumer committed to sleep, yet the producer was not told to wake it"
        );
        q.wake_up();
    }
    let mut got = Vec::new();
    q.drain(&mut got);
    assert_eq!(got, vec![7], "the pushed completion was lost");
}

/// Two producers racing one committed sleep: at most one `eventfd`
/// write is owed in total (the syscall-per-sleep economy the flag
/// exists for), it is owed whenever the consumer committed, and both
/// items survive.
fn waker_two_producers_single_wake() {
    let q = Arc::new(CompletionQueue::new());
    let producers: Vec<_> = (1u32..=2)
        .map(|i| {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(i))
        })
        .collect();
    let slept = q.try_sleep();
    let wakes: u32 = producers
        .into_iter()
        .map(|t| t.join().expect("producer panicked") as u32)
        .sum();
    assert!(wakes <= 1, "{wakes} producers owed a wake for one sleep");
    if slept {
        assert_eq!(wakes, 1, "committed sleep with no producer owing the wake");
        q.wake_up();
    }
    let mut got = Vec::new();
    q.drain(&mut got);
    got.sort_unstable();
    assert_eq!(got, vec![1, 2], "a completion was lost");
}

/// The poll re-arm race: the reactor wakes, drains, and immediately
/// tries to sleep again while a late producer is still publishing. The
/// pending-`NOTIFIED` path must abort the first sleep, and a commit on
/// the re-arm must again be covered by a wake obligation — a notify
/// falling between drain and re-commit may never evaporate.
fn waker_rearm_race_redrains() {
    let q = Arc::new(CompletionQueue::new());
    // Inline push while awake: no wake owed, flag left NOTIFIED.
    assert!(!q.push(1u32), "awake consumer must not cost a syscall");
    let q2 = Arc::clone(&q);
    let late = thread::spawn(move || q2.push(2u32));
    let mut got = Vec::new();
    assert!(!q.try_sleep(), "pending notify must refuse the first sleep");
    q.drain(&mut got);
    // The drain may already have picked up the late item — then its
    // notify was consumed with it and a silent re-armed sleep is
    // correct. Only an *undrained* push must cover a committed sleep
    // with a wake obligation.
    let drained_early = got.contains(&2);
    let slept = q.try_sleep();
    let owes_wake = late.join().expect("late producer panicked");
    if slept {
        assert!(
            owes_wake || drained_early,
            "re-armed sleep committed over an undrained push, yet the producer owes no wake"
        );
        q.wake_up();
    }
    q.drain(&mut got);
    got.sort_unstable();
    assert_eq!(got, vec![1, 2], "the re-arm race dropped a completion");
}

/// The waker scenario registry, run by `cargo run -p xtask -- verify`
/// and the service model test suite.
pub fn scenarios() -> Vec<Scenario> {
    let cfg = Config {
        preemption_bound: 3,
        max_executions: 200_000,
        max_steps: 10_000,
        read_window: 4,
    };
    vec![
        Scenario {
            name: "waker_no_lost_wakeup",
            cfg,
            body: waker_no_lost_wakeup,
        },
        Scenario {
            name: "waker_two_producers_single_wake",
            cfg,
            body: waker_two_producers_single_wake,
        },
        Scenario {
            name: "waker_rearm_race_redrains",
            cfg,
            body: waker_rearm_race_redrains,
        },
    ]
}
