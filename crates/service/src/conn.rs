//! The connection core under both epoll reactors.
//!
//! The replica's server reactor ([`crate::net::Server`]) and the
//! gateway's RPC client each own all their sockets on one thread, and
//! do the same things with each socket. Those things live here, once:
//!
//! * a slot table of [`Conn`]s, each registered under token
//!   `first_token + slot`. A slot closed during an event batch is reused
//!   only from the next [`Conns::wait`] on, because a later event of the
//!   same batch may still name it;
//! * the out-buffer write ([`Conns::flush`]), which registers WRITABLE
//!   only while bytes are queued: a level-triggered WRITABLE with
//!   nothing to write would spin the loop;
//! * one read loop feeding the connection's incremental
//!   [`FrameDecoder`] ([`Conns::read`]), so a frame split across TCP
//!   segments resumes where it left off;
//! * the consumer side of the [`crate::waker`] handshake
//!   ([`Conns::wait`]): commit to sleep, `epoll_wait`, re-arm.
//!
//! Each reactor keeps its own policy: the per-connection state `S`, the
//! token layout, event capacity and tick, how many reads and frames one
//! event may take, and what a decoded frame means.

use crate::frame::{FrameDecoder, RawFrame};
use crate::waker::CompletionQueue;
use mio::{Events, Interest, Poll, Token};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Per-`read` scratch size.
const READ_CHUNK: usize = 16 * 1024;

/// One registered socket: its byte queues, plus the owning reactor's
/// per-connection state.
pub struct Conn<S> {
    /// The non-blocking socket.
    pub stream: TcpStream,
    /// Bytes queued for the peer; the first `written` are already sent.
    pub out: Vec<u8>,
    written: usize,
    decoder: FrameDecoder,
    /// The interest currently registered with the poll.
    interest: Interest,
    /// The owning reactor's state for this connection.
    pub state: S,
}

/// A reactor's connections and the poll they are registered with.
pub struct Conns<S> {
    poll: Poll,
    first_token: usize,
    slots: Vec<Option<Conn<S>>>,
    free: Vec<usize>,
    /// Slots closed since the last [`Conns::wait`].
    freed: Vec<usize>,
}

impl<S> Conns<S> {
    /// An empty table over `poll`. Slot `i` registers under token
    /// `first_token + i`; tokens below it are the caller's own.
    pub fn new(poll: Poll, first_token: usize) -> Conns<S> {
        Conns {
            poll,
            first_token,
            slots: Vec::new(),
            free: Vec::new(),
            freed: Vec::new(),
        }
    }

    /// Fills `events`, sleeping up to `timeout` only if `queue`'s
    /// handshake commits to sleep; an item pushed since the caller's
    /// last drain makes this a non-blocking poll, and the caller loops
    /// back to drain it. Slots closed before this call become free: the
    /// batch that could still name them is handled.
    pub fn wait<T>(
        &mut self,
        events: &mut Events,
        queue: &CompletionQueue<T>,
        timeout: Duration,
    ) -> io::Result<()> {
        self.free.append(&mut self.freed);
        if !queue.try_sleep() {
            return self.poll.poll(events, Some(Duration::ZERO));
        }
        let res = self.poll.poll(events, Some(timeout));
        queue.wake_up();
        res
    }

    /// Registers `stream` with `interest` under a free slot and returns
    /// the slot, or hands `state` back with the registration error.
    pub fn insert(
        &mut self,
        stream: TcpStream,
        interest: Interest,
        state: S,
    ) -> Result<usize, (io::Error, S)> {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        if let Err(e) = self
            .poll
            .register(&stream, Token(self.first_token + slot), interest)
        {
            self.free.push(slot);
            return Err((e, state));
        }
        let _ = stream.set_nodelay(true);
        self.slots[slot] = Some(Conn {
            stream,
            out: Vec::new(),
            written: 0,
            decoder: FrameDecoder::new(),
            interest,
            state,
        });
        Ok(slot)
    }

    /// The live connection in `slot`.
    pub fn get(&self, slot: usize) -> Option<&Conn<S>> {
        self.slots.get(slot)?.as_ref()
    }

    /// The live connection in `slot`, mutably.
    pub fn get_mut(&mut self, slot: usize) -> Option<&mut Conn<S>> {
        self.slots.get_mut(slot)?.as_mut()
    }

    /// Every live connection with its slot.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut Conn<S>)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(slot, c)| Some((slot, c.as_mut()?)))
    }

    /// Writes `slot`'s queued bytes until the socket would block or the
    /// queue empties, then registers WRITABLE exactly while bytes
    /// remain. Returns how many remain; an error leaves the connection
    /// unusable, and the caller closes it. A closed slot has none.
    pub fn flush(&mut self, slot: usize) -> io::Result<usize> {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return Ok(0);
        };
        while conn.written < conn.out.len() {
            match conn.stream.write(&conn.out[conn.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let queued = conn.out.len() - conn.written;
        let want = if queued == 0 {
            conn.out.clear();
            conn.written = 0;
            Interest::READABLE
        } else {
            Interest::READABLE.add(Interest::WRITABLE)
        };
        if want != conn.interest {
            self.poll
                .reregister(&conn.stream, Token(self.first_token + slot), want)?;
            conn.interest = want;
        }
        Ok(queued)
    }

    /// Reads `slot`'s socket into its frame decoder and appends each
    /// complete frame to `frames`, in order. Stops when the socket would
    /// block, after `max_reads` reads, or once `frames` holds
    /// `max_frames`; bytes already read past that frame are a breach
    /// (`InvalidData`). The peer closing its end is `UnexpectedEof`.
    /// Any error, a desynchronized stream included, leaves the
    /// connection unusable: the caller closes it and drops `frames`.
    pub fn read(
        &mut self,
        slot: usize,
        max_reads: usize,
        max_frames: usize,
        frames: &mut Vec<RawFrame>,
    ) -> io::Result<()> {
        let Some(conn) = self.get_mut(slot) else {
            return Ok(());
        };
        let mut buf = [0u8; READ_CHUNK];
        let mut reads = 0;
        while reads < max_reads {
            let n = match conn.stream.read(&mut buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            reads += 1;
            let mut off = 0;
            while off < n {
                let (used, frame) = conn.decoder.advance(&buf[off..n])?;
                off += used;
                let Some(frame) = frame else { continue };
                frames.push(frame);
                if frames.len() >= max_frames {
                    if off < n {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "unexpected extra bytes after response",
                        ));
                    }
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Deregisters `slot`'s connection and returns it, or `None` if the
    /// slot is already closed. The slot is reused from the next
    /// [`Conns::wait`] on.
    pub fn close(&mut self, slot: usize) -> Option<Conn<S>> {
        let conn = self.slots.get_mut(slot)?.take()?;
        // Dropping the stream closes the fd, which also removes the
        // registration; deregistering first keeps the caller free to
        // hold the connection a little longer.
        let _ = self.poll.deregister(&conn.stream);
        self.freed.push(slot);
        Some(conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_response, Response};
    use std::net::TcpListener;
    use std::time::Instant;

    const FIRST: usize = 3;

    /// A connected loopback pair: the peer's blocking end, and the
    /// other end registered in `conns` (READABLE) under the returned slot.
    fn pair(conns: &mut Conns<()>) -> (TcpStream, usize) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (ours, _) = listener.accept().unwrap();
        ours.set_nonblocking(true).unwrap();
        let slot = conns.insert(ours, Interest::READABLE, ()).unwrap();
        (peer, slot)
    }

    fn table() -> Conns<()> {
        Conns::new(Poll::new().unwrap(), FIRST)
    }

    /// One non-blocking poll round: the readiness events of `slot`.
    fn events_of(conns: &mut Conns<()>, slot: usize, timeout: Duration) -> Vec<mio::Event> {
        let mut events = Events::with_capacity(16);
        conns
            .wait(&mut events, &CompletionQueue::<()>::new(), timeout)
            .unwrap();
        events
            .iter()
            .filter(|e| e.token() == Token(FIRST + slot))
            .collect()
    }

    /// Polls until `slot` is readable, then reads it once.
    fn read_when_ready(conns: &mut Conns<()>, slot: usize) -> io::Result<Vec<RawFrame>> {
        let give_up = Instant::now() + Duration::from_secs(5);
        while !events_of(conns, slot, Duration::from_millis(50))
            .iter()
            .any(mio::Event::is_readable)
        {
            assert!(
                Instant::now() < give_up,
                "slot {slot} never became readable"
            );
        }
        let mut frames = Vec::new();
        conns
            .read(slot, 4, usize::MAX, &mut frames)
            .map(|()| frames)
    }

    fn pong(id: u64) -> Vec<u8> {
        encode_response(id, &Response::Pong { draining: false })
    }

    #[test]
    fn a_slot_closed_in_a_batch_is_reused_only_after_it() {
        let mut conns = table();
        let (_pa, a) = pair(&mut conns);
        let (_pb, b) = pair(&mut conns);
        assert_eq!((a, b), (0, 1));
        assert!(conns.close(a).is_some());
        assert!(conns.close(a).is_none(), "closing twice is a no-op");
        // Still inside the batch that closed `a`: a later event may name
        // it, so an accept or connect must not land there.
        let (_pc, c) = pair(&mut conns);
        assert_eq!(c, 2, "slot {a} was reused inside the batch that closed it");
        assert!(conns.get(a).is_none());
        // The next wait ends the batch; from then on the slot is free.
        events_of(&mut conns, a, Duration::ZERO);
        let (_pd, d) = pair(&mut conns);
        assert_eq!(d, a);
        let live: Vec<usize> = conns.iter_mut().map(|(slot, _)| slot).collect();
        assert_eq!(live, vec![0, 1, 2]);
    }

    #[test]
    fn writable_is_registered_only_while_bytes_are_queued() {
        let mut conns = table();
        let (mut peer, slot) = pair(&mut conns);
        // More than the loopback socket buffers (a few MiB) hold while
        // the peer is not reading.
        let total = 16 << 20;
        conns.get_mut(slot).unwrap().out = vec![7u8; total];
        let queued = conns.flush(slot).unwrap();
        assert!(queued > 0, "the socket took all {total} bytes at once");
        assert_eq!(
            conns.get(slot).unwrap().interest,
            Interest::READABLE.add(Interest::WRITABLE)
        );

        // A slow peer drains it; each WRITABLE event flushes more.
        let reader = std::thread::spawn(move || {
            let mut chunk = vec![0u8; 64 << 10];
            let mut got = 0;
            while got < total {
                let n = peer
                    .read(&mut chunk[..(total - got).min(64 << 10)])
                    .unwrap();
                assert!(n > 0 && chunk[..n].iter().all(|&b| b == 7));
                got += n;
                std::thread::sleep(Duration::from_micros(50));
            }
            peer
        });
        let give_up = Instant::now() + Duration::from_secs(20);
        let mut left = queued;
        while left > 0 {
            assert!(Instant::now() < give_up, "{left} bytes never drained");
            if events_of(&mut conns, slot, Duration::from_millis(50))
                .iter()
                .any(mio::Event::is_writable)
            {
                left = conns.flush(slot).unwrap();
            }
        }
        let mut peer = reader.join().unwrap();
        assert_eq!(conns.get(slot).unwrap().interest, Interest::READABLE);
        assert!(conns.get(slot).unwrap().out.is_empty());

        // Nothing queued: a level-triggered WRITABLE would fire on every
        // poll. None may.
        for _ in 0..3 {
            let evs = events_of(&mut conns, slot, Duration::from_millis(20));
            assert!(evs.is_empty(), "idle connection reported {evs:?}");
        }
        // READABLE is still registered: the peer's next frame arrives.
        peer.write_all(&pong(9)).unwrap();
        let frames = read_when_ready(&mut conns, slot).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].id, 9);
    }

    #[test]
    fn frames_split_across_reads_decode_in_order() {
        let mut conns = table();
        let (mut peer, slot) = pair(&mut conns);
        peer.set_nodelay(true).unwrap();
        let wire: Vec<u8> = (1..=3).flat_map(pong).collect();
        let one = pong(1).len();
        // Half a frame; the rest of it and the start of the second; the
        // rest of the stream.
        let cuts = [0, one / 2, one + 5, wire.len()];
        let mut got = Vec::new();
        for (i, w) in cuts.windows(2).enumerate() {
            peer.write_all(&wire[w[0]..w[1]]).unwrap();
            let frames = read_when_ready(&mut conns, slot).unwrap();
            let ids: Vec<u64> = frames.iter().map(|f| f.id).collect();
            let want: &[u64] = [&[][..], &[1], &[2, 3]][i];
            assert_eq!(ids, want, "after write {i}");
            got.extend(frames);
        }
        for (f, id) in got.iter().zip(1u64..) {
            let body = &pong(id)[crate::frame::HEADER_LEN..];
            assert_eq!((f.id, &f.body[..]), (id, body));
        }
        // The peer leaving is an EOF the caller closes on.
        drop(peer);
        let err = read_when_ready(&mut conns, slot).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn one_frame_reads_report_trailing_bytes_as_a_breach() {
        let mut conns = table();
        let (mut peer, slot) = pair(&mut conns);
        // A clean reply: one frame, nothing after it.
        peer.write_all(&pong(4)).unwrap();
        let give_up = Instant::now() + Duration::from_secs(5);
        let mut frames = Vec::new();
        while frames.is_empty() {
            assert!(Instant::now() < give_up, "reply never arrived");
            events_of(&mut conns, slot, Duration::from_millis(50));
            conns.read(slot, usize::MAX, 1, &mut frames).unwrap();
        }
        assert_eq!(frames[0].id, 4);

        // A reply followed by extra bytes in the same read.
        let mut wire = pong(5);
        wire.extend_from_slice(&[0xAB; 3]);
        peer.write_all(&wire).unwrap();
        let mut frames = Vec::new();
        let err = loop {
            assert!(Instant::now() < give_up, "reply never arrived");
            events_of(&mut conns, slot, Duration::from_millis(50));
            if let Err(e) = conns.read(slot, usize::MAX, 1, &mut frames) {
                break e;
            }
            assert!(
                frames.is_empty(),
                "a frame with trailing bytes was accepted"
            );
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("extra bytes"), "{err}");
    }
}
