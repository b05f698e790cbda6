//! The gateway's idle connections: per-address LIFO stacks, shared by
//! the RPC reactor and every calling thread.
//!
//! A connection is in exactly one place at a time: on a stack here, in
//! the hands of the one thread that checked it out, or closed. Pooled
//! sockets are registered with no poll, so no thread reads one until it
//! checks it out. Nothing watches an idle socket, so a peer that closes
//! it (a replica shutting down) is noticed by a liveness check instead:
//! at checkout, where the dead socket is dropped and the next one
//! tried, and in [`IdlePool::take_lost`], which the prober calls once a
//! round. Either way the address is reported lost once.
//!
//! The lock routes through [`crate::sync`], so `model.rs` explores this
//! source under `--cfg partree_model`, with plain tokens in place of
//! sockets.

use crate::sync::Mutex;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::PoisonError;

/// Idle connections of type `C` per address, at most `cap` each.
pub(crate) struct IdlePool<C> {
    cap: usize,
    inner: Mutex<Pools<C>>,
}

struct Pools<C> {
    /// Most recently checked in last.
    idle: HashMap<SocketAddr, Vec<C>>,
    /// Addresses whose peer closed an idle connection since the last
    /// [`IdlePool::take_lost`] for that address.
    lost: HashSet<SocketAddr>,
}

impl<C> IdlePool<C> {
    pub(crate) fn new(cap: usize) -> IdlePool<C> {
        IdlePool {
            cap,
            inner: Mutex::new(Pools {
                idle: HashMap::new(),
                lost: HashSet::new(),
            }),
        }
    }

    fn lock(&self) -> crate::sync::MutexGuard<'_, Pools<C>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The most recently idle connection to `addr` that `live` accepts.
    /// Each rejected one is dropped (closed) outside the lock and marks
    /// `addr` lost.
    pub(crate) fn check_out(&self, addr: SocketAddr, live: impl Fn(&C) -> bool) -> Option<C> {
        loop {
            let conn = self.lock().idle.get_mut(&addr)?.pop()?;
            if live(&conn) {
                return Some(conn);
            }
            self.lock().lost.insert(addr);
        }
    }

    /// Pools `conn` as `addr`'s most recently idle connection, or hands
    /// it back when `addr` already has `cap` of them.
    pub(crate) fn check_in(&self, addr: SocketAddr, conn: C) -> Result<(), C> {
        let mut pools = self.lock();
        let stack = pools.idle.entry(addr).or_default();
        if stack.len() >= self.cap {
            return Err(conn);
        }
        stack.push(conn);
        Ok(())
    }

    /// Takes every idle connection to `addr` out of the pool; the caller
    /// drops them outside the lock.
    pub(crate) fn purge(&self, addr: SocketAddr) -> Vec<C> {
        self.lock().idle.remove(&addr).unwrap_or_default()
    }

    /// Whether `addr`'s peer closed an idle connection since the last
    /// call for `addr`: one noticed at a checkout, or one still pooled
    /// that `live` rejects now (it is taken out and dropped).
    pub(crate) fn take_lost(&self, addr: SocketAddr, live: impl Fn(&C) -> bool) -> bool {
        let (noticed, dead) = {
            let mut pools = self.lock();
            let stack = pools.idle.remove(&addr).unwrap_or_default();
            let (keep, dead): (Vec<C>, Vec<C>) = stack.into_iter().partition(|c| live(c));
            if !keep.is_empty() {
                pools.idle.insert(addr, keep);
            }
            (pools.lost.remove(&addr), dead)
        };
        // `dead` is dropped (closed) here, outside the lock.
        noticed || !dead.is_empty()
    }
}
