//! The gateway's RPC engine: calls run on the calling thread whenever
//! they can, and on one epoll thread for everything that needs
//! multiplexing.
//!
//! [`RpcClient::try_inline`] runs a call on the calling thread when an
//! idle connection to its replica is pooled: the caller writes the
//! request frame from its own reused buffer, waits on that one socket,
//! and on an id-matched answer checks the connection back in. No
//! message reaches the reactor, and no thread is woken. A call goes to
//! the reactor thread instead when
//!
//! * no idle connection is pooled ([`RpcClient::call`]): the reactor
//!   dials a non-blocking connect (`SO_ERROR` read once the socket polls
//!   writable);
//! * the caller's wait bound passes first, or the socket did not take
//!   the whole request ([`RpcClient::adopt`], `Msg::Adopt`): the socket,
//!   its unsent bytes and its frame decoder's state move to the reactor,
//!   which carries the call on from where the caller stopped.
//!
//! The reactor owns its sockets on the connection core the replica's
//! server runs on too ([`partree_service::conn`]: slot table, write
//! path, frame reader, sleep handshake). It also runs purges and a
//! deadline sweep that turns stuck connects or replies into `TimedOut`
//! errors. Data attempts use the callback form; the prober's health
//! probes and warm-up transfers use [`RpcClient::call_blocking`], which
//! tries the inline path first and otherwise bridges the same call over
//! a channel.
//!
//! Idle connections live in one pool shared by the reactor and the
//! callers ([`crate::idle`]), LIFO per address and capped at
//! `pool_cap`. A pooled socket is registered with no poll, so exactly
//! one thread reads a socket at a time: its current owner. Since nothing
//! watches an idle socket, a replica closing one is found by a
//! non-blocking `peek` instead, at checkout (the socket is dropped and
//! the next one tried) or when the prober asks
//! [`RpcClient::take_idle_lost`].
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
//! * every call handed to the reactor gets **exactly one** callback
//!   invocation, enforced by a drop guard: calls still queued or in
//!   flight when the client shuts down complete with an error instead
//!   of vanishing (the gateway's `attempts_live` accounting depends on
//!   this).
//!
//! Submission reuses the model-checked
//! [`partree_service::waker::CompletionQueue`] handshake in the
//! opposite direction: request threads are the producers, the reactor
//! is the sleeping consumer, and at most one `eventfd` write is paid
//! per reactor sleep.

use crate::idle::IdlePool;
use partree_service::conn::{read_frames, write_nonblocking, Conn, Conns};
use partree_service::frame::{
    decode_response, encode_request_into, FrameDecoder, RawFrame, Request, Response,
};
use partree_service::waker::CompletionQueue;
use std::cell::RefCell;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

const WAKER: mio::Token = mio::Token(0);
/// Connection slot `i` registers under token `FIRST_CONN + i`.
const FIRST_CONN: usize = 1;
const EVENT_CAPACITY: usize = 256;
/// Poll timeout ceiling; bounds deadline-sweep latency.
const TICK: Duration = Duration::from_millis(50);
/// Largest request buffer a calling thread keeps between inline calls;
/// a larger one is freed once its call is written.
const KEPT_BUFFER: usize = 256 * 1024;

thread_local! {
    /// The calling thread's request buffer, reused by every inline call
    /// it makes.
    static REQUEST_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

fn bad_data(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// The error a failed reply read surfaces as.
fn read_error(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        bad_data("server closed the connection mid-request")
    } else {
        e
    }
}

/// The outcome a reply frame carries for request `id`, or the error
/// that makes its connection unusable (an id that does not echo).
fn reply(id: u64, raw: &RawFrame) -> io::Result<io::Result<Response>> {
    if raw.id != id {
        return Err(bad_data(format!(
            "response id {} does not echo request id {id}",
            raw.id
        )));
    }
    Ok(decode_response(raw.opcode, &raw.body).map_err(bad_data))
}

/// Whether an idle socket is still open and clean: its peer has neither
/// closed it nor sent anything since the last reply.
fn still_idle(stream: &TcpStream) -> bool {
    matches!(stream.peek(&mut [0u8; 1]), Err(e) if e.kind() == io::ErrorKind::WouldBlock)
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

/// A call written on the calling thread whose answer is not in yet:
/// the socket, the request bytes it did not take, and the frame decoder
/// holding whatever part of the reply arrived.
pub(crate) struct InFlight {
    addr: SocketAddr,
    stream: TcpStream,
    id: u64,
    unsent: Vec<u8>,
    decoder: FrameDecoder,
}

/// How [`RpcClient::try_inline`] ended.
pub(crate) enum Inline {
    /// No idle connection to the address was pooled; nothing was sent.
    NoIdle,
    /// The call finished on the calling thread: the decoded answer, or
    /// the error that closed the connection.
    Done(io::Result<Response>),
    /// The wait bound passed first, or the socket did not take the whole
    /// request: [`RpcClient::adopt`] carries the call on.
    Unfinished(InFlight),
}

/// Messages from gateway threads to the reactor.
enum Msg {
    Call(Call),
    /// Carry on a call a caller started inline.
    Adopt {
        flight: InFlight,
        deadline: Instant,
        done: CallSink,
    },
    /// Close every idle connection to `addr` (the prober does this
    /// when a replica fails its ping).
    Purge(SocketAddr),
}

struct Shared {
    submits: CompletionQueue<Msg>,
    waker: mio::Waker,
    stop: AtomicBool,
    /// Idle connections, registered with no poll.
    idle: IdlePool<TcpStream>,
    /// Request ids; a reply must echo its request's.
    next_id: AtomicU64,
}

impl Shared {
    fn next_id(&self) -> u64 {
        // ordering: Relaxed — ids only need to be distinct.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }
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
            idle: IdlePool::new(pool_cap),
            next_id: AtomicU64::new(0),
        });
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("gateway-rpc".into())
            .spawn(move || {
                Loop {
                    conns: Conns::new(poll, FIRST_CONN),
                    shared: loop_shared,
                }
                .run()
            })
            .map_err(|e| io::Error::other(format!("spawning the rpc reactor thread: {e}")))?;
        Ok(RpcClient {
            shared,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Runs `request` to `addr` on the calling thread over an idle
    /// pooled connection, waiting for the answer until `until` at the
    /// latest. A clean answer checks the connection back in.
    pub(crate) fn try_inline(&self, addr: SocketAddr, request: &Request, until: Instant) -> Inline {
        let Some(mut stream) = self.shared.idle.check_out(addr, still_idle) else {
            return Inline::NoIdle;
        };
        let id = self.shared.next_id();
        let unsent = REQUEST_BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.clear();
            encode_request_into(&mut buf, id, request);
            let unsent = write_nonblocking(&mut stream, &buf).map(|n| buf[n..].to_vec());
            if buf.capacity() > KEPT_BUFFER {
                *buf = Vec::new();
            }
            unsent
        });
        let unsent = match unsent {
            Ok(unsent) => unsent,
            Err(e) => return Inline::Done(Err(e)),
        };
        let mut flight = InFlight {
            addr,
            stream,
            id,
            unsent,
            decoder: FrameDecoder::new(),
        };
        if !flight.unsent.is_empty() {
            return Inline::Unfinished(flight);
        }
        let mut frames = Vec::with_capacity(1);
        loop {
            let now = Instant::now();
            if now >= until {
                return Inline::Unfinished(flight);
            }
            match mio::net::wait_readable(&flight.stream, until - now) {
                Ok(true) => {}
                Ok(false) => continue,
                Err(e) => return Inline::Done(Err(e)),
            }
            let read = read_frames(
                &mut flight.stream,
                &mut flight.decoder,
                usize::MAX,
                1,
                &mut frames,
            );
            if let Err(e) = read {
                return Inline::Done(Err(read_error(e)));
            }
            if let Some(raw) = frames.pop() {
                let outcome = reply(id, &raw);
                if outcome.is_ok() {
                    let _ = self.shared.idle.check_in(addr, flight.stream);
                }
                return Inline::Done(outcome.and_then(|decoded| decoded));
            }
        }
    }

    /// Hands a call [`RpcClient::try_inline`] left unfinished to the
    /// reactor; `done` fires exactly once with the outcome (on the
    /// reactor thread — it must not block).
    pub(crate) fn adopt(
        &self,
        flight: InFlight,
        deadline: Instant,
        done: impl FnOnce(io::Result<Response>) + Send + 'static,
    ) {
        self.send(Msg::Adopt {
            flight,
            deadline,
            done: CallSink::new(done),
        });
    }

    /// Submits one attempt to the reactor; `done` fires exactly once
    /// with the outcome (on the reactor thread — it must not block).
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
    /// outcome arrives: inline over an idle pooled connection when there
    /// is one, through the reactor otherwise. `budget` bounds the
    /// connect and the whole call (the reactor's deadline sweep enforces
    /// it); a `TimedOut` error past `budget` plus a short slack for the
    /// sweep's tick is only a backstop, because the call's drop guard
    /// answers even across shutdown.
    pub(crate) fn call_blocking(
        &self,
        addr: SocketAddr,
        request: Request,
        budget: Duration,
    ) -> io::Result<Response> {
        let deadline = Instant::now() + budget;
        let flight = match self.try_inline(addr, &request, deadline) {
            Inline::Done(outcome) => return outcome,
            Inline::Unfinished(flight) => Some(flight),
            Inline::NoIdle => None,
        };
        let (tx, rx) = mpsc::channel();
        let done = move |outcome| {
            let _ = tx.send(outcome);
        };
        match flight {
            Some(flight) => self.adopt(flight, deadline, done),
            None => self.call(addr, Arc::new(request), deadline, budget, done),
        }
        rx.recv_timeout((deadline + 5 * TICK).saturating_duration_since(Instant::now()))
            .unwrap_or_else(|_| {
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "rpc reply never arrived",
                ))
            })
    }

    /// Whether the peer at `addr` closed one of its idle connections
    /// since the last call for `addr`: one found at a checkout, or one
    /// still pooled that a `peek` finds closed now. A replica closes
    /// idle connections only when it shuts down, so this is how the
    /// prober learns that a replica went away between two probes even
    /// when it is already back on the same address.
    pub(crate) fn take_idle_lost(&self, addr: SocketAddr) -> bool {
        self.shared.idle.take_lost(addr, still_idle)
    }

    /// Drops every idle connection to `addr` (on the reactor thread).
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
}

impl Phase {
    /// Completes the call this phase carries with `error`.
    fn fail(self, error: io::Error) {
        match self {
            Phase::Connecting { call, .. } => call.done.complete(Err(error)),
            Phase::Active { pending } => pending.done.complete(Err(error)),
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
                    Msg::Adopt {
                        flight,
                        deadline,
                        done,
                    } => self.adopt(flight, deadline, done),
                    Msg::Purge(addr) => drop(self.shared.idle.purge(addr)),
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
        // Calls submitted before the stop complete now, through their
        // drop guards, rather than whenever the last handle goes.
        self.shared.submits.drain(&mut inbox);
        Ok(())
    }

    /// Routes a new call onto an idle connection or a fresh
    /// non-blocking connect.
    fn start_call(&mut self, call: Call) {
        if let Some(stream) = self.shared.idle.check_out(call.addr, still_idle) {
            return self.send_on(stream, call);
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

    /// Writes `call`'s request frame on a connected socket and arms the
    /// response wait.
    fn send_on(&mut self, stream: TcpStream, call: Call) {
        let id = self.shared.next_id();
        let Call {
            addr,
            request,
            deadline,
            done,
            ..
        } = call;
        self.activate(addr, stream, Pending { id, deadline, done }, |conn| {
            encode_request_into(&mut conn.out, id, &request);
        });
    }

    /// Carries on a call a caller started inline: its unsent bytes
    /// queue for writing, and its decoder resumes mid-reply.
    fn adopt(&mut self, flight: InFlight, deadline: Instant, done: CallSink) {
        let InFlight {
            addr,
            stream,
            id,
            unsent,
            decoder,
        } = flight;
        self.activate(addr, stream, Pending { id, deadline, done }, |conn| {
            conn.out = unsent;
            conn.decoder = decoder;
        });
    }

    /// Registers a connected socket as carrying `pending`, lets `fill`
    /// queue its request bytes (and resume its decoder), and starts
    /// writing.
    fn activate(
        &mut self,
        addr: SocketAddr,
        stream: TcpStream,
        pending: Pending,
        fill: impl FnOnce(&mut Conn<Link>),
    ) {
        let link = Link {
            addr,
            phase: Phase::Active { pending },
        };
        match self.conns.insert(stream, mio::Interest::READABLE, link) {
            Err((e, link)) => link.phase.fail(e),
            Ok(slot) => {
                if let Some(conn) = self.conns.get_mut(slot) {
                    fill(conn);
                }
                if self.conns.flush(slot).is_err() {
                    self.fail(slot, None);
                }
            }
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
                // Connected: the socket moves to a fresh registration
                // that carries the call.
                if let Some(conn) = self.conns.close(slot) {
                    if let Phase::Connecting { call, .. } = conn.state.phase {
                        self.send_on(conn.stream, call);
                    }
                }
            }
            Phase::Active { .. } => {
                if ev.is_writable() && self.conns.flush(slot).is_err() {
                    self.fail(slot, None);
                } else if ev.is_readable() {
                    self.read_response(slot);
                }
            }
        }
    }

    /// Reads up to the first complete frame; an id-matched one
    /// finishes the call and returns the connection to the pool.
    fn read_response(&mut self, slot: usize) {
        let mut frames = Vec::with_capacity(1);
        match self.conns.read(slot, usize::MAX, 1, &mut frames) {
            Err(e) => self.fail(slot, Some(read_error(e))),
            // Without a frame the reply is still mid-frame: keep waiting.
            Ok(()) => {
                if let Some(raw) = frames.pop() {
                    self.finish_call(slot, raw);
                }
            }
        }
    }

    fn finish_call(&mut self, slot: usize, raw: RawFrame) {
        let Some(conn) = self.conns.close(slot) else {
            return;
        };
        let pending = match conn.state.phase {
            Phase::Active { pending } => pending,
            connecting => {
                return connecting.fail(bad_data("a reply arrived before the request was sent"))
            }
        };
        match reply(pending.id, &raw) {
            Ok(outcome) => {
                // Pool a cleanly answered connection before waking the
                // caller, so its next call can take it inline.
                if conn.out.is_empty() {
                    let _ = self.shared.idle.check_in(conn.state.addr, conn.stream);
                }
                pending.done.complete(outcome);
            }
            Err(e) => pending.done.complete(Err(e)),
        }
    }

    /// Closes the connection, completing its call with `error` or a
    /// generic transport error.
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

    #[test]
    fn a_pooled_connection_serves_calls_inline_and_skips_a_closed_one() {
        let replica = FakeReplica::start(0);
        let rpc = RpcClient::start(2).unwrap();
        // The first call dials on the reactor; the rest ride its
        // connection on this thread.
        ping(&rpc, replica.addr).unwrap();
        for _ in 0..5 {
            let until = Instant::now() + Duration::from_secs(2);
            match rpc.try_inline(replica.addr, &Request::Ping, until) {
                Inline::Done(outcome) => {
                    assert_eq!(outcome.unwrap(), Response::Pong { draining: false });
                }
                _ => panic!("the pooled connection was not used inline"),
            }
        }
        assert_eq!(replica.counts(), (1, 0));

        // A peer that closed its idle end is found at checkout: the
        // socket is dropped, nothing is sent, and the loss is noted once.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let raw = read_frame(&mut stream).unwrap().unwrap();
            let pong = encode_response(raw.id, &Response::Pong { draining: false });
            write_frame(&mut stream, &pong).unwrap();
        });
        ping(&rpc, addr).unwrap();
        peer.join().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let until = Instant::now() + Duration::from_secs(2);
        assert!(matches!(
            rpc.try_inline(addr, &Request::Ping, until),
            Inline::NoIdle
        ));
        assert!(rpc.take_idle_lost(addr), "checkout noted the closed socket");
        assert!(!rpc.take_idle_lost(addr), "reported once per close");
        rpc.shutdown_in_place();
    }

    /// A call started inline on an idle connection to `addr` that gives
    /// up waiting at once: what a caller hands over at its hedge point.
    fn unfinished_ping(rpc: &RpcClient, addr: SocketAddr) -> InFlight {
        let give_up = Instant::now() + Duration::from_secs(5);
        loop {
            match rpc.try_inline(addr, &Request::Ping, Instant::now()) {
                Inline::Unfinished(flight) => return flight,
                // Dial one on the reactor; it is pooled once answered.
                Inline::NoIdle => drop(ping(rpc, addr).unwrap()),
                Inline::Done(outcome) => panic!("finished inline: {outcome:?}"),
            }
            assert!(Instant::now() < give_up, "no idle connection to {addr}");
        }
    }

    #[test]
    fn an_adopted_call_racing_the_deadline_sweep_completes_once() {
        const CALLS: usize = 24;
        let replica = FakeReplica::start(2);
        let rpc = RpcClient::start(4).unwrap();
        let counts: Arc<Vec<AtomicU64>> = Arc::new((0..CALLS).map(|_| AtomicU64::new(0)).collect());
        for i in 0..CALLS {
            let flight = unfinished_ping(&rpc, replica.addr);
            // From already overdue to just past the 2-ms reply: the
            // sweep and the reply race for the call.
            let deadline = Instant::now() + Duration::from_micros(125 * i as u64);
            let c = Arc::clone(&counts);
            rpc.adopt(flight, deadline, move |_| {
                c[i].fetch_add(1, Ordering::SeqCst);
            });
            let give_up = Instant::now() + Duration::from_secs(5);
            while counts[i].load(Ordering::SeqCst) == 0 {
                assert!(Instant::now() < give_up, "adopted call {i} never completed");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // A second completion would have landed within a few sweeps.
        std::thread::sleep(3 * TICK);
        rpc.shutdown_in_place();
        let got: Vec<u64> = counts.iter().map(|c| c.load(Ordering::SeqCst)).collect();
        assert_eq!(got, vec![1; CALLS], "completions per adopted call");
    }

    #[test]
    fn shutdown_completes_adopted_calls_exactly_once() {
        let replica = FakeReplica::start(50);
        let rpc = RpcClient::start(2).unwrap();
        // Two calls at once dial two connections, pooled once answered.
        let (tx, rx) = mpsc::channel();
        for _ in 0..2 {
            let tx = tx.clone();
            let deadline = Instant::now() + Duration::from_secs(2);
            rpc.call(
                replica.addr,
                Arc::new(Request::Ping),
                deadline,
                Duration::from_secs(2),
                move |outcome| {
                    let _ = tx.send(outcome);
                },
            );
        }
        for _ in 0..2 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        }
        // The replica now holds every reply past the test's end.
        replica.delay_ms.store(60_000, Ordering::SeqCst);
        let count = Arc::new(AtomicU64::new(0));
        let adopt = |flight| {
            let c = Arc::clone(&count);
            let deadline = Instant::now() + Duration::from_secs(60);
            rpc.adopt(flight, deadline, move |outcome| {
                assert!(outcome.is_err(), "{outcome:?}");
                c.fetch_add(1, Ordering::SeqCst);
            });
        };
        // One call is registered on the reactor when the stop comes; the
        // other races it, still queued or just registered.
        adopt(unfinished_ping(&rpc, replica.addr));
        std::thread::sleep(2 * TICK);
        adopt(unfinished_ping(&rpc, replica.addr));
        rpc.shutdown_in_place();
        assert_eq!(count.load(Ordering::SeqCst), 2, "each call completed once");
        drop(rpc);
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }
}
