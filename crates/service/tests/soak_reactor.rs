//! Soak battery for the reactor transport: one epoll thread must hold
//! thousands of idle connections while staying responsive on the
//! active ones, shed load deterministically, and — the part `/proc`
//! can prove — leak neither file descriptors nor threads once the
//! sockets go away.
//!
//! The connection count adapts to `RLIMIT_NOFILE`: the test holds both
//! ends of every connection in this one process (client socket +
//! accepted socket), so the 10k-idle target needs ~20k fds plus slack.
//! `mio::net::raise_nofile_limit` asks for headroom first (root can
//! raise the hard limit too); whatever is actually granted scales the
//! idle herd down gracefully rather than failing the test on a
//! constrained runner.
//!
//! The two tests share this process's fd table, so they are serialised
//! on [`SERIAL`]: the shedding test holds a few hundred sockets, and if
//! it ran while the soak read `/proc/self/fd` those would count as the
//! soak's leak.

use partree_service::frame::{encode_request, read_frame, Histogram, Opcode, Request, Response};
use partree_service::net::Server;
use partree_service::server::{Service, ServiceConfig};
use partree_service::Client;
use partree_service::FamilyId;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

/// Held for the whole of each test in this file (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`], shrugging off poison: a failed sibling test has
/// already reported itself, and must not fail this one too.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Open descriptors of this process, `read_dir`'s own fd included —
/// the bias is identical in every call, so equality comparisons hold.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Connect `count` sockets and leave them idle. Paced in bursts well
/// under the listener backlog (128) so no SYN is ever dropped while
/// the single-threaded reactor drains its accept queue.
fn connect_idle_herd(addr: std::net::SocketAddr, count: usize) -> Vec<TcpStream> {
    let mut herd = Vec::with_capacity(count);
    for burst in 0..count.div_ceil(64) {
        for _ in 0..64.min(count - burst * 64) {
            herd.push(TcpStream::connect(addr).unwrap());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    herd
}

#[test]
fn reactor_soaks_thousands_of_idle_connections_without_leaks() {
    let _serial = serial();
    // Ask for room for the full 10k-idle herd; scale to what we get.
    let granted = mio::net::raise_nofile_limit(64 * 1024).unwrap_or(1024);
    let budget = granted.saturating_sub(2048); // slack for everything else
    let idle_target = 10_000.min((budget / 2).saturating_sub(1_100)) as usize;
    assert!(
        idle_target >= 1_000,
        "fd limit {granted} too low to soak anything meaningful"
    );

    // Warm the process-wide thread pools before taking baselines, so
    // lazily-spawned pool threads don't read as leaks.
    {
        let svc = Service::start(ServiceConfig::default());
        let hist = Histogram::new(vec![3, 2, 1]).unwrap();
        svc.submit(Request::Encode {
            family: FamilyId::Huffman,
            histogram: hist,
            payload: vec![0, 1, 2],
        });
        svc.shutdown();
    }
    let fd_baseline = open_fds();
    let thread_baseline = live_threads();

    {
        let server = Server::bind(Service::start(ServiceConfig::default()), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let idle = connect_idle_herd(addr, idle_target);
        assert_eq!(idle.len(), idle_target);

        // 1k active connections through the herd: every one dials,
        // pings, and encodes — the reactor must stay responsive with
        // `idle_target` registered-but-silent sockets around it.
        let expected = {
            let direct = Service::start(ServiceConfig::default());
            let payload: Vec<u8> = (0..256).map(|i| (i % 7) as u8).collect();
            let hist = Histogram::of_payload(7, &payload).unwrap();
            let resp = direct.submit(Request::Encode {
                family: FamilyId::Huffman,
                histogram: hist.clone(),
                payload: payload.clone(),
            });
            direct.shutdown();
            match resp {
                Response::Encoded { bit_len, data } => (hist, payload, bit_len, data),
                other => panic!("direct encode failed: {other:?}"),
            }
        };
        let (hist, payload, want_bits, want_data) = expected;
        for i in 0..1_000 {
            let mut client = Client::connect(addr).unwrap();
            assert!(!client.ping().unwrap(), "server draining early at {i}");
            if i % 50 == 0 {
                let (bits, data) = client.encode(&hist, &payload).unwrap();
                assert_eq!(
                    (bits, &data),
                    (want_bits, &want_data),
                    "active conn {i}: bytes differ from direct run under soak"
                );
            }
        }

        drop(idle);
        server.shutdown().unwrap();
    }

    // Everything opened by the soak is gone: sockets (both ends), the
    // reactor's epoll/eventfd, worker threads, the reactor thread.
    // Closing 2×idle_target sockets is kernel work; give /proc a
    // moment to settle before calling a residue a leak.
    let mut fds = open_fds();
    let mut threads = live_threads();
    for _ in 0..50 {
        if fds == fd_baseline && threads == thread_baseline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        fds = open_fds();
        threads = live_threads();
    }
    assert_eq!(fds, fd_baseline, "file descriptors leaked by the soak");
    assert_eq!(threads, thread_baseline, "threads leaked by the soak");
}

#[test]
fn paused_service_sheds_busy_deterministically_over_the_reactor() {
    let _serial = serial();
    const QUEUE: usize = 32;
    const CONNS: usize = 200;

    // workers: 0 pauses the drain side entirely, so exactly QUEUE
    // submissions are accepted and every later one sheds as Busy —
    // no timing, no racing workers.
    let server = Server::bind(
        Service::start(ServiceConfig {
            workers: 0,
            queue_capacity: QUEUE,
            request_timeout: Duration::from_secs(30), // keep Timeout out of the count
            ..ServiceConfig::default()
        }),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr();

    let payload: Vec<u8> = (0..64).map(|i| (i % 3) as u8).collect();
    let hist = Histogram::of_payload(3, &payload).unwrap();
    let wire = encode_request(
        5,
        &Request::Encode {
            family: FamilyId::Huffman,
            histogram: hist,
            payload,
        },
    );

    // Fire one Encode per connection, then collect responses: a Busy
    // frame for the shed ones, a read timeout for the queued ones.
    let mut conns = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&wire).unwrap();
        conns.push(s);
    }
    let mut busy = 0usize;
    let mut queued = 0usize;
    for s in &mut conns {
        s.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        match read_frame(s) {
            Ok(Some(frame)) => {
                assert_eq!(frame.opcode, Opcode::Busy, "unexpected response");
                assert_eq!(frame.id, 5, "response id must echo the request id");
                busy += 1;
            }
            Ok(None) => panic!("server closed an accepted connection"),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                queued += 1;
            }
            Err(e) => panic!("transport error collecting shed counts: {e}"),
        }
    }
    assert_eq!(
        (busy, queued),
        (CONNS - QUEUE, QUEUE),
        "paused service must shed everything beyond its queue, exactly"
    );

    drop(conns);
    server.shutdown().unwrap();
}
