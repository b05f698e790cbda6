//! The server's transport: one epoll thread owning every socket.
//!
//! A thread per connection would cost 10k stacks and 10k parked reads
//! at 10k mostly-idle connections. This module serves them all from a
//! single thread around a [`mio::Poll`]:
//!
//! * the listener and every connection are registered non-blocking;
//! * partial reads feed each connection's incremental
//!   [`FrameDecoder`], so a frame split across arbitrary TCP segments
//!   resumes where it left off;
//! * decoded codec requests enter the service's bounded queue and
//!   batch workers through [`Service::submit_async`];
//! * workers hand finished responses back through a
//!   [`CompletionQueue`] and wake the reactor out of `epoll_wait` via
//!   an `eventfd` [`mio::Waker`] — at most one wake syscall per
//!   reactor sleep (the [`crate::waker`] handshake, model-checked in
//!   [`crate::model`]).
//!
//! Reply routing is guarded twice: completions carry the connection
//! slot's *generation*, so a completion for a connection that died
//! (and whose slot was reused) is discarded; and each connection
//! tracks its in-flight request ids with deadlines, so the reactor's
//! deadline sweep answers `Timeout` on the wire exactly once and a
//! late completion for an already-timed-out id is dropped.
//!
//! Fault injection: `drop` severs the connection before the request is
//! submitted; `delay` parks the request on a timer wheel (a plain scan
//! — the knob is test-only) and submits when due. Control requests
//! (`Stats`/`Ping`/`Drain`) and warm-up frames are answered inline,
//! bypassing both faults and the queue.

use crate::frame::{decode_request, encode_response, FrameDecoder, RawFrame, Request, Response};
use crate::net::FaultInjection;
use crate::server::{CompletionSink, Service};
use crate::waker::CompletionQueue;
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Connection slot `i` registers under token `FIRST_CONN + i`.
const FIRST_CONN: usize = 2;
/// Event buffer size per poll; more ready fds just take extra polls.
const EVENT_CAPACITY: usize = 1024;
/// Poll timeout ceiling: bounds deadline-sweep latency and makes the
/// loop self-healing even if a wake were ever lost.
const TICK: Duration = Duration::from_millis(100);
/// Per-`read` scratch size.
const READ_CHUNK: usize = 16 * 1024;
/// Reads per readable event before yielding back to the poll loop
/// (level-triggered registration re-announces leftover bytes).
const READS_PER_EVENT: usize = 4;
/// Accepts per listener event before yielding (same re-announce logic).
const ACCEPTS_PER_EVENT: usize = 256;
/// Default ceiling on unflushed response bytes queued per connection.
/// A peer that stops reading while requests keep completing would
/// otherwise grow `Conn::out` without bound — one slow consumer
/// becoming the whole process's memory problem. Overridable via
/// `PARTREE_WRITE_CAP_BYTES` (tests shrink it to trip deterministically).
const DEFAULT_WRITE_CAP_BYTES: usize = 32 << 20;

/// Reads `PARTREE_WRITE_CAP_BYTES`; unset, unparsable, or zero falls
/// back to [`DEFAULT_WRITE_CAP_BYTES`].
fn write_cap_from_env() -> usize {
    std::env::var("PARTREE_WRITE_CAP_BYTES")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(DEFAULT_WRITE_CAP_BYTES)
}

/// Typed cause for a connection severed by write backpressure: the
/// peer's unread responses exceeded the per-connection cap. Carried
/// inside the [`io::Error`] that closes the connection so callers (and
/// tests) can distinguish the cap from a transport failure.
#[derive(Debug, PartialEq, Eq)]
pub struct WriteOverflow {
    /// Unflushed bytes queued when the cap tripped.
    pub queued: usize,
    /// The configured cap.
    pub cap: usize,
}

impl std::fmt::Display for WriteOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "write backpressure: {} bytes queued for a peer that is not reading (cap {})",
            self.queued, self.cap
        )
    }
}

impl std::error::Error for WriteOverflow {}

/// `Ok` while the queued-byte count is under the cap; the typed
/// overflow error otherwise. Factored out of [`Reactor::queue_write`]
/// so the trip condition is unit-testable without a live socket.
fn check_write_cap(queued: usize, cap: usize) -> io::Result<()> {
    if queued > cap {
        return Err(io::Error::other(WriteOverflow { queued, cap }));
    }
    Ok(())
}

/// A finished response traveling from a batch worker to the reactor.
struct Completion {
    slot: usize,
    generation: u64,
    id: u64,
    response: Response,
}

/// A fault-delayed request waiting for its due time.
struct Delayed {
    due: Instant,
    slot: usize,
    generation: u64,
    id: u64,
    request: Request,
}

/// Owner handle for a running reactor thread.
pub(crate) struct ReactorHandle {
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl ReactorHandle {
    /// Stops the loop, joins the thread, and surfaces any I/O error
    /// that killed the loop early.
    pub(crate) fn shutdown(mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::Release);
        let _ = self.waker.wake();
        match self.thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| io::Error::other("reactor thread panicked"))?,
            None => Ok(()),
        }
    }
}

/// Spawns the reactor thread over an already-bound listener.
pub(crate) fn spawn(
    service: Service,
    listener: TcpListener,
    faults: Arc<FaultInjection>,
) -> io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let poll = Poll::new()?;
    poll.register(&listener, LISTENER, Interest::READABLE)?;
    let waker = Arc::new(Waker::new(&poll, WAKER)?);
    let stop = Arc::new(AtomicBool::new(false));
    let reactor = Reactor {
        poll,
        listener,
        service,
        faults,
        stop: Arc::clone(&stop),
        waker: Arc::clone(&waker),
        completions: Arc::new(CompletionQueue::new()),
        slots: Vec::new(),
        free: Vec::new(),
        accepted: 0,
        next_generation: 0,
        delayed: Vec::new(),
        next_sweep: Instant::now(),
        write_cap: write_cap_from_env(),
    };
    let thread = std::thread::Builder::new()
        .name("partree-reactor".into())
        .spawn(move || reactor.run())
        // lint: allow(no-unwrap): reactor-thread spawn happens once at server startup, before any connection exists
        .expect("spawning the reactor thread cannot fail");
    Ok(ReactorHandle {
        stop,
        waker,
        thread: Some(thread),
    })
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Bytes queued for the peer; `written` of them are already sent.
    out: Vec<u8>,
    written: usize,
    /// The interest currently registered with the poll.
    interest: Interest,
    /// Stamps completions/timers so slot reuse cannot misroute them.
    generation: u64,
    /// Fault-injection RNG, seeded from the accept index so a fault
    /// schedule replays identically run to run.
    rng: u64,
    /// In-flight request ids and their deadlines.
    pending: HashMap<u64, Instant>,
}

struct Reactor {
    poll: Poll,
    listener: TcpListener,
    service: Service,
    faults: Arc<FaultInjection>,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    completions: Arc<CompletionQueue<Completion>>,
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    accepted: u64,
    next_generation: u64,
    delayed: Vec<Delayed>,
    next_sweep: Instant,
    /// Per-connection unflushed-byte ceiling (see [`write_cap_from_env`]).
    write_cap: usize,
}

impl Reactor {
    fn run(mut self) -> io::Result<()> {
        let mut events = Events::with_capacity(EVENT_CAPACITY);
        let mut completed = Vec::new();
        // Slots freed during this iteration. Reuse is deferred to the
        // end of the loop: a poll batch may hold several events for one
        // token, and a slot closed by the first must not be handed to a
        // fresh accept while the second is still in the batch.
        let mut freed = Vec::new();
        while !self.stop.load(Ordering::Acquire) {
            self.completions.drain(&mut completed);
            for c in completed.drain(..) {
                self.deliver(c, &mut freed);
            }
            self.fire_delayed();
            self.sweep_deadlines(&mut freed);

            let timeout = self.next_timeout();
            if self.completions.try_sleep() {
                let res = self.poll.poll(&mut events, Some(timeout));
                self.completions.wake_up();
                res?;
            } else {
                // A completion landed since the drain above: poll
                // without blocking, then loop around to re-drain.
                self.poll.poll(&mut events, Some(Duration::ZERO))?;
            }

            for ev in events.iter() {
                match ev.token() {
                    WAKER => self.waker.drain(),
                    LISTENER => self.accept_ready(),
                    Token(t) => self.conn_ready(t - FIRST_CONN, ev, &mut freed),
                }
            }
            self.free.append(&mut freed);
        }
        Ok(())
    }

    /// The poll timeout: capped at [`TICK`], shortened to the nearest
    /// fault-delay due time so injected delays fire promptly.
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        self.delayed
            .iter()
            .map(|d| d.due.saturating_duration_since(now))
            .fold(TICK, Duration::min)
    }

    fn accept_ready(&mut self) {
        for _ in 0..ACCEPTS_PER_EVENT {
            match self.listener.accept() {
                Ok((stream, _)) => self.install(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Persistent failure (e.g. EMFILE): back off instead
                    // of hot-spinning on a level-triggered listener.
                    std::thread::sleep(Duration::from_millis(50));
                    return;
                }
            }
        }
    }

    fn install(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Per-connection fault seed from the accept index, so a fault
        // schedule replays identically run to run.
        let rng = self.accepted.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        self.accepted += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        if self
            .poll
            .register(&stream, Token(FIRST_CONN + slot), Interest::READABLE)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.next_generation += 1;
        self.slots[slot] = Some(Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            written: 0,
            interest: Interest::READABLE,
            generation: self.next_generation,
            rng,
            pending: HashMap::new(),
        });
    }

    fn conn_ready(&mut self, slot: usize, ev: mio::Event, freed: &mut Vec<usize>) {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return; // closed earlier in this same event batch
        };
        if ev.is_writable() && flush(conn).is_err() {
            self.close(slot, freed);
            return;
        }
        if !ev.is_readable() {
            self.update_interest(slot, freed);
            return;
        }
        let mut frames = Vec::new();
        let mut close = false;
        let mut buf = [0u8; READ_CHUNK];
        'reading: for _ in 0..READS_PER_EVENT {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    close = true; // EOF, clean or mid-frame
                    break;
                }
                Ok(n) => {
                    let mut off = 0;
                    while off < n {
                        match conn.decoder.advance(&buf[off..n]) {
                            Ok((used, frame)) => {
                                off += used;
                                if let Some(f) = frame {
                                    frames.push(f);
                                }
                            }
                            Err(_) => {
                                // Desynchronized stream: sever (no
                                // in-protocol reply possible).
                                close = true;
                                break 'reading;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    close = true;
                    break;
                }
            }
        }
        for frame in frames {
            if close {
                break;
            }
            close = !self.handle_frame(slot, frame);
        }
        if close {
            self.close(slot, freed);
        } else {
            self.update_interest(slot, freed);
        }
    }

    /// Routes one decoded frame. Returns `false` when the connection
    /// must be severed (fault injection or write failure).
    fn handle_frame(&mut self, slot: usize, raw: RawFrame) -> bool {
        let inline = match decode_request(raw.opcode, &raw.body) {
            // Control requests bypass both the queue and the fault
            // knobs: a saturated or faulty replica still answers its
            // health probes truthfully.
            Ok(Request::Stats) => Some(Response::Stats {
                json: self.service.stats_json(),
            }),
            Ok(Request::Ping) => Some(Response::Pong {
                draining: self.service.is_draining(),
            }),
            Ok(Request::Drain) => {
                self.service.drain();
                Some(Response::DrainOk)
            }
            // Warm-up is control-plane: answered inline by `submit`
            // (adoption never constructs, so it cannot stall the
            // event loop), bypassing fault knobs like the probes do.
            Ok(request @ (Request::WarmUp { .. } | Request::HotSet { .. })) => {
                Some(self.service.submit(request))
            }
            Ok(request) => {
                let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
                    return false;
                };
                if self.faults.should_drop(&mut conn.rng) {
                    // Sever without a reply: the peer observes a
                    // transport error mid-request.
                    return false;
                }
                let delay = self.faults.delay();
                if !delay.is_zero() {
                    // Park the request; `fire_delayed` submits it when
                    // due. The deadline clock starts at submission.
                    self.delayed.push(Delayed {
                        due: Instant::now() + delay,
                        slot,
                        generation: conn.generation,
                        id: raw.id,
                        request,
                    });
                } else {
                    self.submit(slot, raw.id, request);
                }
                None
            }
            Err(e) => Some(Response::from(e)),
        };
        match inline {
            Some(response) => self.queue_write(slot, raw.id, &response).is_ok(),
            None => true,
        }
    }

    /// Hands a codec request to the service; the response comes back
    /// through the completion queue, stamped with slot + generation.
    fn submit(&mut self, slot: usize, id: u64, request: Request) {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let generation = conn.generation;
        conn.pending
            .insert(id, Instant::now() + self.service.request_timeout());
        let completions = Arc::clone(&self.completions);
        let waker = Arc::clone(&self.waker);
        self.service.submit_async(
            request,
            CompletionSink::new(move |response| {
                if completions.push(Completion {
                    slot,
                    generation,
                    id,
                    response,
                }) {
                    // The reactor committed to epoll_wait; this push
                    // owes the eventfd write that lifts it out.
                    let _ = waker.wake();
                }
            }),
        );
    }

    /// Routes one completion back to its connection, unless the
    /// connection died (generation mismatch) or the deadline sweep
    /// already answered this id.
    fn deliver(&mut self, c: Completion, freed: &mut Vec<usize>) {
        let Some(conn) = self.slots.get_mut(c.slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.generation != c.generation || conn.pending.remove(&c.id).is_none() {
            return;
        }
        if self.queue_write(c.slot, c.id, &c.response).is_err() {
            self.close(c.slot, freed);
        }
    }

    /// Submits fault-delayed requests whose due time has passed.
    fn fire_delayed(&mut self) {
        let now = Instant::now();
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].due > now {
                i += 1;
                continue;
            }
            let d = self.delayed.swap_remove(i);
            let live = self
                .slots
                .get(d.slot)
                .and_then(Option::as_ref)
                .is_some_and(|c| c.generation == d.generation);
            if live {
                self.submit(d.slot, d.id, d.request);
            }
        }
    }

    /// Answers `Timeout` on the wire for in-flight requests past their
    /// deadline; their late completions are then discarded by
    /// [`Reactor::deliver`]. Runs at most every `TICK / 2`.
    fn sweep_deadlines(&mut self, freed: &mut Vec<usize>) {
        let now = Instant::now();
        if now < self.next_sweep {
            return;
        }
        self.next_sweep = now + TICK / 2;
        let mut expired: Vec<(usize, u64)> = Vec::new();
        for (slot, entry) in self.slots.iter_mut().enumerate() {
            let Some(conn) = entry.as_mut() else { continue };
            let dead: Vec<u64> = conn
                .pending
                .iter()
                .filter(|&(_, &deadline)| deadline <= now)
                .map(|(&id, _)| id)
                .collect();
            for id in dead {
                conn.pending.remove(&id);
                expired.push((slot, id));
            }
        }
        for (slot, id) in expired {
            self.service.note_timeout();
            if self.queue_write(slot, id, &Response::Timeout).is_err() {
                self.close(slot, freed);
            }
        }
    }

    /// Appends one response frame to the connection's write buffer and
    /// flushes as much as the socket accepts right now. Severs the
    /// connection (typed [`WriteOverflow`] error) if the peer's unread
    /// backlog exceeds the write cap even after flushing.
    fn queue_write(&mut self, slot: usize, id: u64, response: &Response) -> io::Result<()> {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return Ok(()); // connection already gone; nothing to say
        };
        conn.out.extend_from_slice(&encode_response(id, response));
        flush(conn)?;
        if let Err(e) = check_write_cap(conn.out.len() - conn.written, self.write_cap) {
            self.service.note_write_overflow();
            return Err(e);
        }
        self.reconcile_interest(slot)
    }

    /// Re-registers the connection with `READABLE | WRITABLE` while
    /// bytes are queued and back to `READABLE` once drained — a
    /// level-triggered WRITABLE with nothing to write would hot-spin.
    fn reconcile_interest(&mut self, slot: usize) -> io::Result<()> {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return Ok(());
        };
        let want = if conn.written < conn.out.len() {
            Interest::READABLE.add(Interest::WRITABLE)
        } else {
            Interest::READABLE
        };
        if want != conn.interest {
            self.poll
                .reregister(&conn.stream, Token(FIRST_CONN + slot), want)?;
            conn.interest = want;
        }
        Ok(())
    }

    fn update_interest(&mut self, slot: usize, freed: &mut Vec<usize>) {
        if self.reconcile_interest(slot).is_err() {
            self.close(slot, freed);
        }
    }

    fn close(&mut self, slot: usize, freed: &mut Vec<usize>) {
        if let Some(conn) = self.slots.get_mut(slot).and_then(Option::take) {
            // Dropping the stream closes the fd (which also removes the
            // epoll registration); the explicit deregister keeps the
            // bookkeeping symmetrical and costs one no-op-able syscall.
            let _ = self.poll.deregister(&conn.stream);
            freed.push(slot);
        }
    }
}

/// Writes queued bytes until the socket would block or the buffer
/// empties. `Ok` with leftover bytes means "wait for WRITABLE".
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.written < conn.out.len() {
        match conn.stream.write(&conn.out[conn.written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.written == conn.out.len() {
        conn.out.clear();
        conn.written = 0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_cap_trips_with_a_typed_error() {
        assert!(check_write_cap(100, 100).is_ok());
        let err = check_write_cap(101, 100).expect_err("over cap");
        let overflow = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<WriteOverflow>())
            .expect("cause is WriteOverflow");
        assert_eq!(
            overflow,
            &WriteOverflow {
                queued: 101,
                cap: 100
            }
        );
        assert!(err.to_string().contains("write backpressure"));
    }

    #[test]
    fn write_cap_env_parsing() {
        // Read-only check against the default: the env var is unset in
        // the test runner (the integration test that sets it runs in
        // its own process).
        if std::env::var_os("PARTREE_WRITE_CAP_BYTES").is_none() {
            assert_eq!(write_cap_from_env(), DEFAULT_WRITE_CAP_BYTES);
        }
    }
}
