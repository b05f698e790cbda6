//! The reactor's cross-thread wakeup handshake.
//!
//! A reactor thread spends its idle time inside `epoll_wait`; batch
//! workers (and, in the gateway, attempt completions) finish work on
//! other threads and must hand results back. The expensive part is the
//! wakeup: an `eventfd` write is a syscall, and paying it on every
//! completion under load would serialize the workers on the reactor.
//! [`WakeFlag`] is the classic three-state flag that reduces the
//! syscall to *once per reactor sleep*:
//!
//! ```text
//! AWAKE     the reactor is running its loop; completions just queue
//! ASLEEP    the reactor committed to epoll_wait; a producer that
//!           transitions the flag out of this state OWES the eventfd
//!           write — exactly one producer observes ASLEEP per sleep
//! NOTIFIED  work arrived since the reactor last drained; the next
//!           try_sleep refuses, so the reactor re-drains instead of
//!           sleeping on a non-empty queue
//! ```
//!
//! The race this must win (the lost-wakeup): the reactor checks the
//! queue, finds it empty, and blocks — while a producer pushes in the
//! gap and its notification evaporates. The handshake closes the gap
//! because both sides RMW the *same* atomic: [`WakeFlag::try_sleep`]'s
//! CAS and [`WakeFlag::notify`]'s swap are totally ordered, so either
//! the producer's swap observes `ASLEEP` (and issues the wake) or the
//! consumer's CAS observes `NOTIFIED` (and refuses to sleep). There is
//! no interleaving with neither — model-checked over every bounded
//! interleaving in [`crate::model`], via the [`crate::sync`] shim.
//!
//! [`CompletionQueue`] packages the flag with the mutex-protected
//! vector both reactors ship, so the checked composition is the
//! shipping composition. Both reactors take the consumer step
//! (`try_sleep`, `epoll_wait`, `wake_up`) through one function,
//! [`crate::conn::Conns::wait`].

use crate::sync::{AtomicUsize, Mutex, Ordering};

const AWAKE: usize = 0;
const ASLEEP: usize = 1;
const NOTIFIED: usize = 2;

/// Three-state wakeup flag; see the module docs for the protocol.
#[derive(Debug)]
pub struct WakeFlag {
    state: AtomicUsize,
}

impl Default for WakeFlag {
    fn default() -> WakeFlag {
        WakeFlag::new()
    }
}

impl WakeFlag {
    /// A flag in the `AWAKE` state.
    pub fn new() -> WakeFlag {
        WakeFlag {
            state: AtomicUsize::new(AWAKE),
        }
    }

    /// Producer side, called *after* publishing work. Returns `true`
    /// when the caller owes the reactor a wake (it observed `ASLEEP`);
    /// at most one producer per reactor sleep gets `true`.
    pub fn notify(&self) -> bool {
        // ordering: AcqRel RMW — the Release half publishes the queue
        // push to the consumer's next acquire on this flag, and the
        // total RMW order on `state` is what makes exactly one of
        // {producer sees ASLEEP, consumer CAS fails} hold.
        self.state.swap(NOTIFIED, Ordering::AcqRel) == ASLEEP
    }

    /// Consumer side: attempt to commit to sleeping. `true` means the
    /// flag is now `ASLEEP` — the caller must re-check its queue and,
    /// if empty, may block; any notify from this moment on wakes it.
    /// `false` means a notify is pending; the caller must drain first.
    pub fn try_sleep(&self) -> bool {
        // ordering: AcqRel RMW — Acquire pairs with the producer's
        // swap so a failed CAS sees the pushed work; Release orders the
        // commit before the consumer's queue re-check for producers.
        self.state
            .compare_exchange(AWAKE, ASLEEP, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Consumer side, on leaving the blocked/committed state. Resets to
    /// `AWAKE`; returns `true` if a notify arrived since the commit
    /// (there may be work to drain).
    pub fn wake_up(&self) -> bool {
        // ordering: AcqRel RMW — Acquire pairs with notify's Release so
        // the drain that follows sees every push that set NOTIFIED.
        self.state.swap(AWAKE, Ordering::AcqRel) == NOTIFIED
    }
}

/// A producer→reactor handoff: mutex-protected batch vector plus a
/// [`WakeFlag`]. [`CompletionQueue::push`] tells the producer whether
/// it owes the external wake (the reactors answer by writing their
/// `eventfd`); the reactor calls [`CompletionQueue::try_sleep`] before
/// blocking and [`CompletionQueue::drain`] after waking.
#[derive(Debug)]
pub struct CompletionQueue<T> {
    items: Mutex<Vec<T>>,
    flag: WakeFlag,
}

impl<T> Default for CompletionQueue<T> {
    fn default() -> CompletionQueue<T> {
        CompletionQueue::new()
    }
}

impl<T> CompletionQueue<T> {
    /// An empty queue with an `AWAKE` consumer.
    pub fn new() -> CompletionQueue<T> {
        CompletionQueue {
            items: Mutex::new(Vec::new()),
            flag: WakeFlag::new(),
        }
    }

    /// Publishes one item. Returns `true` when the caller must deliver
    /// the external wake (write the eventfd) because the consumer had
    /// committed to sleep.
    pub fn push(&self, item: T) -> bool {
        {
            // lint: allow(no-unwrap): a poisoned completion queue means a reactor-side panic mid-drain; completions may be half-delivered and crashing beats silently dropping responses
            let mut items = self.items.lock().expect("completion queue poisoned");
            items.push(item);
        }
        self.flag.notify()
    }

    /// Consumer: moves every queued item into `into` (appending),
    /// preserving push order per producer.
    pub fn drain(&self, into: &mut Vec<T>) {
        // lint: allow(no-unwrap): poisoned completion queue, as above
        let mut items = self.items.lock().expect("completion queue poisoned");
        into.append(&mut items);
    }

    /// Consumer: commit to sleeping. `true` = committed with an empty
    /// queue — the consumer may block, and whichever producer pushes
    /// next is guaranteed to return `true` from [`CompletionQueue::push`].
    /// `false` = work is (or just became) pending; drain instead.
    pub fn try_sleep(&self) -> bool {
        if !self.flag.try_sleep() {
            // A notify is pending: consume it and report "don't sleep".
            self.flag.wake_up();
            return false;
        }
        // Committed — but re-check under the lock for the push that may
        // have landed just before the CAS (its notify saw AWAKE and
        // skipped the wake, legitimately: we had not committed yet).
        let empty = {
            // lint: allow(no-unwrap): poisoned completion queue, as above
            let items = self.items.lock().expect("completion queue poisoned");
            items.is_empty()
        };
        if !empty {
            self.flag.wake_up();
            return false;
        }
        true
    }

    /// Consumer, after its blocking call returns: re-arm to `AWAKE`.
    /// Returns `true` if a notify arrived while committed.
    pub fn wake_up(&self) -> bool {
        self.flag.wake_up()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn notify_while_awake_owes_no_wake() {
        let q = CompletionQueue::new();
        assert!(!q.push(1u32), "consumer is awake; no syscall owed");
        assert!(!q.try_sleep(), "pending notify must refuse the sleep");
        let mut got = Vec::new();
        q.drain(&mut got);
        assert_eq!(got, vec![1]);
        assert!(q.try_sleep(), "drained and quiet: sleep is allowed");
        assert!(!q.wake_up(), "no notify arrived while committed");
    }

    #[test]
    fn notify_after_commit_owes_the_wake() {
        let q = CompletionQueue::new();
        assert!(q.try_sleep());
        assert!(q.push(7u32), "consumer committed: producer owes the wake");
        assert!(q.wake_up(), "the notify is visible on wake");
        let mut got = Vec::new();
        q.drain(&mut got);
        assert_eq!(got, vec![7]);
    }

    #[test]
    fn at_most_one_producer_owes_the_wake() {
        for _ in 0..200 {
            let q = Arc::new(CompletionQueue::new());
            assert!(q.try_sleep());
            let producers: Vec<_> = (0..4)
                .map(|i| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || q.push(i))
                })
                .collect();
            let owed = producers
                .into_iter()
                .map(|t| t.join().unwrap() as u32)
                .sum::<u32>();
            assert_eq!(owed, 1, "exactly one producer per sleep owes the wake");
            q.wake_up();
            let mut got = Vec::new();
            q.drain(&mut got);
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3]);
        }
    }
}
