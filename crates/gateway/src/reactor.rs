//! The gateway's RPC engine: every replica connection multiplexed on
//! one epoll thread.
//!
//! [`RpcClient::call`] hands a request to a single reactor thread that
//! owns all sockets on the connection core the replica's server runs
//! on too ([`partree_service::conn`]: slot table, write path, frame
//! reader, sleep handshake). What is left here is the client's policy:
//! non-blocking connects (`SO_ERROR` read once the socket polls
//! writable), per-address LIFO idle pools capped at `pool_cap`, and a
//! deadline sweep that turns stuck connects or replies into `TimedOut`
//! errors. Data attempts use the callback form; the prober's health
//! probes and warm-up transfers use [`RpcClient::call_blocking`], a
//! channel bridge over the same call, so the gateway holds no blocking
//! connections.
//!
//! Each connection follows the blocking client's rules:
//!
//! * one outstanding request per connection — a connection is returned
//!   to its idle pool only after a complete, id-matched response, and
//!   discarded on **any** error (a mid-frame stream can never be
//!   reused). Reading stops at the first complete frame, and bytes
//!   after it are a protocol breach;
//! * response ids must echo request ids, and undecodable responses
//!   surface as `InvalidData`, the same classification the blocking
//!   [`partree_service::client::Client`] makes;
//! * every submitted call gets **exactly one** callback invocation,
//!   enforced by a drop guard: calls still queued or in flight when
//!   the client shuts down complete with an error instead of
//!   vanishing (the gateway's `attempts_live` accounting depends on
//!   this).
//!
//! Submission reuses the model-checked
//! [`partree_service::waker::CompletionQueue`] handshake in the
//! opposite direction: request threads are the producers, the reactor
//! is the sleeping consumer, and at most one `eventfd` write is paid
//! per reactor sleep.

use partree_service::conn::Conns;
use partree_service::frame::{decode_response, encode_request, RawFrame, Request, Response};
use partree_service::waker::CompletionQueue;
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

const WAKER: mio::Token = mio::Token(0);
/// Connection slot `i` registers under token `FIRST_CONN + i`.
const FIRST_CONN: usize = 1;
const EVENT_CAPACITY: usize = 256;
/// Poll timeout ceiling; bounds deadline-sweep latency.
const TICK: Duration = Duration::from_millis(50);

fn bad_data(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Single-shot completion callback with a drop guarantee: an
/// unanswered call completes with a shutdown error instead of leaking.
struct CallSink {
    f: Option<Box<dyn FnOnce(io::Result<Response>) + Send>>,
}

impl CallSink {
    fn new(f: impl FnOnce(io::Result<Response>) + Send + 'static) -> CallSink {
        CallSink {
            f: Some(Box::new(f)),
        }
    }

    fn complete(mut self, outcome: io::Result<Response>) {
        if let Some(f) = self.f.take() {
            f(outcome);
        }
    }
}

impl Drop for CallSink {
    fn drop(&mut self) {
        if let Some(f) = self.f.take() {
            f(Err(io::Error::other(
                "rpc client dropped the call during shutdown",
            )));
        }
    }
}

/// One queued attempt.
struct Call {
    addr: SocketAddr,
    request: Arc<Request>,
    deadline: Instant,
    connect_timeout: Duration,
    done: CallSink,
}

/// Messages from gateway threads to the reactor.
enum Msg {
    Call(Call),
    /// Close every idle connection to `addr` (the prober does this
    /// when a replica fails its ping).
    Purge(SocketAddr),
}

struct Shared {
    submits: CompletionQueue<Msg>,
    waker: mio::Waker,
    stop: AtomicBool,
    /// Addresses whose peer closed an idle connection since the last
    /// [`RpcClient::take_idle_lost`] for that address.
    idle_lost: Mutex<HashSet<SocketAddr>>,
}

/// Handle to the reactor thread; the gateway owns exactly one.
pub(crate) struct RpcClient {
    shared: Arc<Shared>,
    thread: Mutex<Option<std::thread::JoinHandle<io::Result<()>>>>,
}

impl std::fmt::Debug for RpcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcClient").finish()
    }
}

impl RpcClient {
    /// Starts the reactor thread. `pool_cap` bounds idle connections
    /// kept per replica address.
    pub(crate) fn start(pool_cap: usize) -> io::Result<RpcClient> {
        let poll = mio::Poll::new()?;
        let waker = mio::Waker::new(&poll, WAKER)?;
        let shared = Arc::new(Shared {
            submits: CompletionQueue::new(),
            waker,
            stop: AtomicBool::new(false),
            idle_lost: Mutex::new(HashSet::new()),
        });
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("gateway-rpc".into())
            .spawn(move || {
                Loop {
                    conns: Conns::new(poll, FIRST_CONN),
                    shared: loop_shared,
                    idle: HashMap::new(),
                    pool_cap,
                    next_id: 0,
                }
                .run()
            })
            .map_err(|e| io::Error::other(format!("spawning the rpc reactor thread: {e}")))?;
        Ok(RpcClient {
            shared,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Submits one attempt; `done` fires exactly once with the outcome
    /// (on the reactor thread — it must not block).
    pub(crate) fn call(
        &self,
        addr: SocketAddr,
        request: Arc<Request>,
        deadline: Instant,
        connect_timeout: Duration,
        done: impl FnOnce(io::Result<Response>) + Send + 'static,
    ) {
        self.send(Msg::Call(Call {
            addr,
            request,
            deadline,
            connect_timeout,
            done: CallSink::new(done),
        }));
    }

    /// Sends `request` to `addr` and blocks the calling thread until the
    /// outcome arrives. `budget` bounds the connect and the whole call
    /// (the reactor's deadline sweep enforces it); a `TimedOut` error
    /// past `budget` plus a short slack for the sweep's tick is only a
    /// backstop, because the call's drop guard answers even across
    /// shutdown.
    pub(crate) fn call_blocking(
        &self,
        addr: SocketAddr,
        request: Request,
        budget: Duration,
    ) -> io::Result<Response> {
        let (tx, rx) = mpsc::channel();
        self.call(
            addr,
            Arc::new(request),
            Instant::now() + budget,
            budget,
            move |outcome| {
                let _ = tx.send(outcome);
            },
        );
        rx.recv_timeout(budget + 5 * TICK).unwrap_or_else(|_| {
            Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "rpc reply never arrived",
            ))
        })
    }

    /// Whether the peer at `addr` closed one of its idle connections
    /// since the last call for `addr`. A replica closes idle
    /// connections only when it shuts down, so this is how the prober
    /// learns that a replica went away between two probes even when it
    /// is already back on the same address.
    pub(crate) fn take_idle_lost(&self, addr: SocketAddr) -> bool {
        self.shared
            .idle_lost
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&addr)
    }

    /// Drops every idle connection to `addr`.
    pub(crate) fn purge(&self, addr: SocketAddr) {
        self.send(Msg::Purge(addr));
    }

    fn send(&self, msg: Msg) {
        if self.shared.submits.push(msg) {
            // The reactor committed to epoll_wait; this push owes the
            // eventfd write that lifts it out.
            let _ = self.shared.waker.wake();
        }
    }

    /// Stops the reactor and joins it. Queued and in-flight calls
    /// complete with a shutdown error via their drop guards (their
    /// connections are dropped when the loop's slab unwinds).
    pub(crate) fn shutdown_in_place(&self) {
        self.shared.stop.store(true, Ordering::Release);
        let _ = self.shared.waker.wake();
        // lint: allow(no-unwrap): a poisoned handle mutex means a concurrent shutdown panicked mid-join; nothing sane is left to do
        if let Some(t) = self.thread.lock().expect("rpc handle poisoned").take() {
            let _ = t.join();
        }
    }
}

impl Drop for RpcClient {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// The request the connection currently carries.
struct Pending {
    id: u64,
    deadline: Instant,
    done: CallSink,
}

enum Phase {
    /// Non-blocking connect in flight; the call is parked until the
    /// socket polls writable and `SO_ERROR` is read.
    Connecting { call: Call, give_up: Instant },
    /// Request written (or being written); awaiting the response frame.
    Active { pending: Pending },
    /// Checked into the per-address idle pool.
    Idle,
}

impl Phase {
    /// Completes the call this phase carries, if any, with `error`.
    fn fail(self, error: io::Error) {
        match self {
            Phase::Connecting { call, .. } => call.done.complete(Err(error)),
            Phase::Active { pending } => pending.done.complete(Err(error)),
            Phase::Idle => {}
        }
    }
}

/// The client's state for one connection.
struct Link {
    addr: SocketAddr,
    phase: Phase,
}

struct Loop {
    conns: Conns<Link>,
    shared: Arc<Shared>,
    /// Idle slot indices per address (LIFO: most recently used first).
    idle: HashMap<SocketAddr, Vec<usize>>,
    pool_cap: usize,
    next_id: u64,
}

impl Loop {
    fn run(mut self) -> io::Result<()> {
        let mut events = mio::Events::with_capacity(EVENT_CAPACITY);
        let mut inbox = Vec::new();
        while !self.shared.stop.load(Ordering::Acquire) {
            self.shared.submits.drain(&mut inbox);
            for msg in inbox.drain(..) {
                match msg {
                    Msg::Call(call) => self.start_call(call),
                    Msg::Purge(addr) => self.purge(addr),
                }
            }
            self.sweep_deadlines();

            self.conns.wait(&mut events, &self.shared.submits, TICK)?;
            for ev in events.iter() {
                match ev.token() {
                    WAKER => self.shared.waker.drain(),
                    mio::Token(t) => self.conn_event(t - FIRST_CONN, ev),
                }
            }
        }
        Ok(())
    }

    /// Routes a new call onto an idle connection or a fresh
    /// non-blocking connect.
    fn start_call(&mut self, call: Call) {
        // Reuse the most recently idle connection to this address.
        while let Some(slot) = self.idle.get_mut(&call.addr).and_then(Vec::pop) {
            if self.is_idle(slot, call.addr) {
                self.activate(slot, call);
                return;
            }
        }
        let stream = match mio::net::connect_nonblocking(call.addr) {
            Ok(s) => s,
            Err(e) => return call.done.complete(Err(e)),
        };
        let link = Link {
            addr: call.addr,
            phase: Phase::Connecting {
                give_up: (Instant::now() + call.connect_timeout).min(call.deadline),
                call,
            },
        };
        if let Err((e, link)) = self.conns.insert(stream, mio::Interest::WRITABLE, link) {
            link.phase.fail(e);
        }
    }

    /// Whether `slot` holds an idle connection to `addr` (an idle-list
    /// entry goes stale once its connection closes).
    fn is_idle(&self, slot: usize, addr: SocketAddr) -> bool {
        self.conns
            .get(slot)
            .is_some_and(|c| matches!(c.state.phase, Phase::Idle) && c.state.addr == addr)
    }

    /// Writes the request frame on a connected socket and arms the
    /// response wait.
    fn activate(&mut self, slot: usize, call: Call) {
        let id = self.next_id;
        self.next_id += 1;
        let Some(conn) = self.conns.get_mut(slot) else {
            return call
                .done
                .complete(Err(io::Error::other("rpc slot vanished")));
        };
        conn.out
            .extend_from_slice(&encode_request(id, &call.request));
        conn.state.phase = Phase::Active {
            pending: Pending {
                id,
                deadline: call.deadline,
                done: call.done,
            },
        };
        if self.conns.flush(slot).is_err() {
            self.fail(slot, None);
        }
    }

    fn conn_event(&mut self, slot: usize, ev: mio::Event) {
        let Some(conn) = self.conns.get_mut(slot) else {
            return; // closed earlier in this same event batch
        };
        match &conn.state.phase {
            Phase::Connecting { .. } => {
                if !(ev.is_writable() || ev.is_error() || ev.is_read_closed()) {
                    return;
                }
                if let Err(e) = mio::net::take_error(&conn.stream) {
                    return self.fail(slot, Some(e));
                }
                if let Phase::Connecting { call, .. } =
                    std::mem::replace(&mut conn.state.phase, Phase::Idle)
                {
                    self.activate(slot, call);
                }
            }
            Phase::Active { .. } => {
                if ev.is_writable() && self.conns.flush(slot).is_err() {
                    self.fail(slot, None);
                } else if ev.is_readable() {
                    self.read_response(slot);
                }
            }
            Phase::Idle => {
                // Any readiness on an idle connection means the peer
                // closed it (or broke protocol): drop it and note the
                // address for the prober. The idle-list entry goes
                // stale and is skipped on pop.
                self.shared
                    .idle_lost
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(conn.state.addr);
                self.conns.close(slot);
            }
        }
    }

    /// Reads up to the first complete frame; an id-matched one
    /// finishes the call and returns the connection to the pool.
    fn read_response(&mut self, slot: usize) {
        let mut frames = Vec::with_capacity(1);
        match self.conns.read(slot, usize::MAX, 1, &mut frames) {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => self.fail(
                slot,
                Some(bad_data("server closed the connection mid-request")),
            ),
            Err(e) => self.fail(slot, Some(e)),
            // Without a frame the reply is still mid-frame: keep waiting.
            Ok(()) => {
                if let Some(raw) = frames.pop() {
                    self.finish_call(slot, raw);
                }
            }
        }
    }

    fn finish_call(&mut self, slot: usize, raw: RawFrame) {
        let Some(conn) = self.conns.get_mut(slot) else {
            return;
        };
        let Phase::Active { pending } = std::mem::replace(&mut conn.state.phase, Phase::Idle)
        else {
            // A response with no call outstanding: drop the connection.
            self.conns.close(slot);
            return;
        };
        if raw.id != pending.id {
            pending.done.complete(Err(bad_data(format!(
                "response id {} does not echo request id {}",
                raw.id, pending.id
            ))));
            self.conns.close(slot);
            return;
        }
        let addr = conn.state.addr;
        pending
            .done
            .complete(decode_response(raw.opcode, &raw.body).map_err(bad_data));
        // Check the cleanly-answered connection into its address pool,
        // or close it when the pool is full.
        let pool = self.idle.entry(addr).or_default();
        if pool.len() >= self.pool_cap || self.conns.flush(slot).is_err() {
            self.conns.close(slot);
        } else {
            pool.push(slot);
        }
    }

    /// Closes the connection, completing its call (if any) with `error`
    /// or a generic transport error.
    fn fail(&mut self, slot: usize, error: Option<io::Error>) {
        if let Some(conn) = self.conns.close(slot) {
            let e = error.unwrap_or_else(|| io::Error::other("rpc connection failed"));
            conn.state.phase.fail(e);
        }
    }

    /// Times out stuck connects and overdue responses.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let overdue: Vec<usize> = self
            .conns
            .iter_mut()
            .filter_map(|(slot, conn)| {
                let due = match &conn.state.phase {
                    Phase::Connecting { call, give_up } => (*give_up).min(call.deadline),
                    Phase::Active { pending } => pending.deadline,
                    Phase::Idle => return None,
                };
                (due <= now).then_some(slot)
            })
            .collect();
        for slot in overdue {
            self.fail(
                slot,
                Some(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "rpc attempt missed its deadline",
                )),
            );
        }
    }

    fn purge(&mut self, addr: SocketAddr) {
        for slot in self.idle.remove(&addr).unwrap_or_default() {
            if self.is_idle(slot, addr) {
                self.conns.close(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partree_service::frame::{encode_response, read_frame, write_frame};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicU64;

    /// A stand-in replica that answers every frame with `Pong` after
    /// `delay_ms`, counting the connections it accepted and the ones
    /// the client closed — the two numbers pool reuse and the idle cap
    /// show up in.
    struct FakeReplica {
        addr: SocketAddr,
        accepted: Arc<AtomicU64>,
        closed: Arc<AtomicU64>,
        delay_ms: Arc<AtomicU64>,
    }

    impl FakeReplica {
        fn start(delay_ms: u64) -> FakeReplica {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let accepted = Arc::new(AtomicU64::new(0));
            let closed = Arc::new(AtomicU64::new(0));
            let delay_ms = Arc::new(AtomicU64::new(delay_ms));
            let (a, c, d) = (
                Arc::clone(&accepted),
                Arc::clone(&closed),
                Arc::clone(&delay_ms),
            );
            // Detached: the listener thread and its connection threads
            // die with the test process.
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(mut stream) = stream else { return };
                    a.fetch_add(1, Ordering::SeqCst);
                    let (c, d) = (Arc::clone(&c), Arc::clone(&d));
                    std::thread::spawn(move || {
                        while let Ok(Some(raw)) = read_frame(&mut stream) {
                            std::thread::sleep(Duration::from_millis(d.load(Ordering::SeqCst)));
                            let pong = encode_response(raw.id, &Response::Pong { draining: false });
                            if write_frame(&mut stream, &pong).is_err() {
                                break;
                            }
                        }
                        c.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            FakeReplica {
                addr,
                accepted,
                closed,
                delay_ms,
            }
        }

        fn counts(&self) -> (u64, u64) {
            (
                self.accepted.load(Ordering::SeqCst),
                self.closed.load(Ordering::SeqCst),
            )
        }

        /// Polls until the counts reach `want` (connection closes land
        /// asynchronously), failing after five seconds.
        fn await_counts(&self, want: (u64, u64)) {
            let give_up = Instant::now() + Duration::from_secs(5);
            while self.counts() != want && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(self.counts(), want, "(accepted, closed)");
        }
    }

    fn ping(rpc: &RpcClient, addr: SocketAddr) -> io::Result<Response> {
        rpc.call_blocking(addr, Request::Ping, Duration::from_secs(2))
    }

    #[test]
    fn idle_connections_are_reused_and_capped_per_address() {
        const POOL_CAP: usize = 2;
        let replica = FakeReplica::start(100);
        let rpc = RpcClient::start(POOL_CAP).unwrap();

        // Four calls outstanding at once need four connections (one
        // request per connection). When they finish, POOL_CAP go idle
        // and the rest are closed.
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            let tx = tx.clone();
            rpc.call(
                replica.addr,
                Arc::new(Request::Ping),
                Instant::now() + Duration::from_secs(2),
                Duration::from_secs(2),
                move |outcome| {
                    let _ = tx.send(outcome);
                },
            );
        }
        for _ in 0..4 {
            let outcome = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(outcome.unwrap(), Response::Pong { draining: false });
        }
        replica.await_counts((4, 4 - POOL_CAP as u64));

        // Sequential calls ride the idle connections: no new dials.
        replica.delay_ms.store(0, Ordering::SeqCst);
        for _ in 0..5 {
            assert_eq!(
                ping(&rpc, replica.addr).unwrap(),
                Response::Pong { draining: false }
            );
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(replica.counts(), (4, 4 - POOL_CAP as u64), "reused");

        // A purge closes exactly the idle ones.
        rpc.purge(replica.addr);
        replica.await_counts((4, 4));
        rpc.shutdown_in_place();
    }

    #[test]
    fn peer_closing_an_idle_connection_is_reported_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Answer one ping, then close the connection, as a replica
        // shutting down does to every connection it holds.
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let raw = read_frame(&mut stream).unwrap().unwrap();
            let pong = encode_response(raw.id, &Response::Pong { draining: false });
            write_frame(&mut stream, &pong).unwrap();
        });
        let rpc = RpcClient::start(2).unwrap();
        assert_eq!(
            ping(&rpc, addr).unwrap(),
            Response::Pong { draining: false }
        );
        peer.join().unwrap();
        let give_up = Instant::now() + Duration::from_secs(5);
        while !rpc.take_idle_lost(addr) {
            assert!(Instant::now() < give_up, "idle close never reported");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!rpc.take_idle_lost(addr), "reported once per close");
        rpc.shutdown_in_place();
    }

    #[test]
    fn call_to_a_dead_replica_fails_within_the_connect_timeout() {
        let connect_timeout = Duration::from_millis(300);
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        }; // dropped: nothing listens there any more
        let rpc = RpcClient::start(2).unwrap();
        let t0 = Instant::now();
        assert!(rpc
            .call_blocking(addr, Request::Ping, connect_timeout)
            .is_err());
        assert!(
            t0.elapsed() < connect_timeout,
            "refused connect took {:?}",
            t0.elapsed()
        );

        // A replica that accepts but never answers is cut off by the
        // deadline sweep, not left hanging.
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        let t0 = Instant::now();
        let err = rpc
            .call_blocking(silent.local_addr().unwrap(), Request::Ping, connect_timeout)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(
            t0.elapsed() < connect_timeout + 5 * TICK,
            "silent replica held the call for {:?}",
            t0.elapsed()
        );
        rpc.shutdown_in_place();
    }
}
