//! Wire transport for `congestd`.
//!
//! The one protocol: 4-byte little-endian length prefix followed by one
//! JSON-encoded [`Request`]; the reply comes back the same way. One
//! request per frame, many frames per connection. Frames are capped at
//! [`MAX_FRAME`] so a hostile (or torn) prefix cannot make the daemon
//! allocate gigabytes: a prefix over the cap gets a typed `error` reply
//! and the connection is closed. (So does an HTTP request line: `POST`
//! and `GET ` read as prefixes far over the cap.)
//!
//! The one front-end, [`serve_event_loop`], is a single acceptor plus an
//! event loop over nonblocking sockets that blocks in poll(2) until a
//! socket or a reply is ready, so an idle daemon uses no CPU. Connections
//! are plain state machines (read buffer → in-order pending replies →
//! write buffer) and requests enter the server via the nonblocking
//! [`Server::submit`], which answers a `source` cache hit on an idle
//! server itself and queues everything else, so connection count is
//! bounded by memory, not by threads, and per-connection pipelining falls
//! out for free. A reply from the reply cache is written into the
//! connection's buffer from the entry's stored text, around its id. A
//! connection that stops reading its replies, or that owes as many
//! replies as the admission queue holds, stops being read
//! (backpressure). Unix only: the loop polls raw descriptors.

use crate::proto::{Reply, Request};
use crate::server::{PendingReply, Server};
use poll::{PollFd, POLLIN, POLLOUT};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc};

/// Largest accepted frame (64 MiB — a full-design batch is well under).
pub const MAX_FRAME: u32 = 64 << 20;

/// Bytes one connection may pull per loop pass, so one chatty peer cannot
/// starve the others.
const READ_PER_PASS: usize = 256 * 1024;

/// Replies a connection may owe before the loop stops reading from it;
/// fewer if the admission queue is smaller (see `Conn::backpressured`).
const MAX_PENDING_REPLIES: usize = 1024;

/// Unflushed reply bytes a connection may hold before the loop stops
/// reading from it.
const MAX_UNFLUSHED_BYTES: usize = 1 << 20;

/// Write one length-prefixed JSON frame.
pub fn write_frame(w: &mut impl Write, json: &str) -> std::io::Result<()> {
    let bytes = json.as_bytes();
    if bytes.len() as u64 > MAX_FRAME as u64 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                bytes.len()
            ),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_le_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one length-prefixed JSON frame. `Ok(None)` on clean EOF at a frame
/// boundary.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Bind `addr` and serve until the server shuts down, using a single
/// acceptor plus an event loop over nonblocking sockets that blocks in
/// poll(2) until a socket or a reply is ready. `on_bound` receives the
/// bound address before the loop starts (so callers can bind port 0).
/// Replies per connection are written in request order. Returns once
/// shutdown is observed and every in-flight reply has been flushed.
///
/// # Errors
/// Bind, accept and poll failures, and a second loop on the same server.
pub fn serve_event_loop(
    server: Arc<Server>,
    addr: &str,
    on_bound: impl FnOnce(SocketAddr),
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    // Workers write a byte to the server's end after each reply, and
    // `Server::shutdown` writes one too, so the loop needs no clock.
    let (wake, waker) = UnixStream::pair()?;
    wake.set_nonblocking(true)?;
    waker.set_nonblocking(true)?;
    server.register_waker(waker)?;
    on_bound(bound);
    let served = run_event_loop(&server, &listener, &wake);
    server.clear_waker();
    served
}

fn run_event_loop(
    server: &Arc<Server>,
    listener: &TcpListener,
    wake: &UnixStream,
) -> std::io::Result<()> {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        let shutting_down = server.is_shutting_down();
        if shutting_down && conns.iter().all(Conn::drained) {
            break;
        }
        fds.clear();
        fds.push(PollFd::new(wake.as_raw_fd(), POLLIN));
        if !shutting_down {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        // A connection that waits only for replies is left out: poll
        // reports a hung-up socket even when asked for nothing, which
        // would spin the loop, and the reply's wake covers it.
        fds.extend(conns.iter().filter_map(|c| {
            let events = c.interest(server);
            (events != 0).then(|| PollFd::new(c.stream.as_raw_fd(), events))
        }));
        poll::wait(&mut fds)?;
        // Drain before stepping: a reply delivered after this read, or
        // after a poll that saw no wake, leaves a byte behind, so the next
        // poll returns at once.
        if fds[0].ready() {
            drain_wakes(wake)?;
        }
        if !shutting_down && fds[1].ready() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(true)?;
                        conns.push(Conn::new(stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
        }
        let mut i = 0;
        while i < conns.len() {
            if conns[i].step(server) {
                i += 1;
            } else {
                conns.swap_remove(i);
            }
        }
    }
    Ok(())
}

/// Empty the wake socket without blocking.
fn drain_wakes(mut wake: &UnixStream) -> std::io::Result<()> {
    let mut buf = [0u8; 256];
    loop {
        match wake.read(&mut buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "the server dropped the event loop's wake socket",
                ))
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Per-connection state machine for the event loop: bytes in, frames
/// parsed, requests submitted (nonblocking), replies polled in order,
/// bytes out — every step tolerates `WouldBlock`.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    pending: VecDeque<PendingReply>,
    write_buf: Vec<u8>,
    written: usize,
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            pending: VecDeque::new(),
            write_buf: Vec::new(),
            written: 0,
            eof: false,
        }
    }

    /// No replies owed and nothing left to flush.
    fn drained(&self) -> bool {
        self.pending.is_empty() && self.written >= self.write_buf.len()
    }

    /// The client is not reading its replies fast enough, or owes as many
    /// as `server`'s admission queue holds: stop reading its requests until
    /// it catches up. Every queued request of this connection is among the
    /// replies it owes, so it alone never fills the queue and sheds its own
    /// oldest request.
    fn backpressured(&self, server: &Server) -> bool {
        self.pending.len() >= MAX_PENDING_REPLIES.min(server.queue_capacity())
            || self.write_buf.len() - self.written >= MAX_UNFLUSHED_BYTES
    }

    /// The poll(2) events this connection waits for: input while it may
    /// read, output while it has unflushed bytes.
    fn interest(&self, server: &Server) -> i16 {
        let mut events = 0;
        if !self.eof && !self.backpressured(server) {
            events |= POLLIN;
        }
        if self.written < self.write_buf.len() {
            events |= POLLOUT;
        }
        events
    }

    /// One pass over the connection; `false` once it is finished (end of
    /// stream and drained) or failed, and should be dropped.
    fn step(&mut self, server: &Server) -> bool {
        // 1. Pull whatever bytes are ready, bounded per pass, and none
        //    while backpressured.
        let mut scratch = [0u8; 4096];
        let mut pulled = 0usize;
        while !self.eof && !self.backpressured(server) && pulled < READ_PER_PASS {
            match self.stream.read(&mut scratch) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.read_buf.extend_from_slice(&scratch[..n]);
                    pulled += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return false,
            }
        }
        // 2. Submit buffered frames, collect replies, flush — again while
        //    flushing lifts the backpressure that stopped the submitting,
        //    so no decodable frame is left behind with nothing to wake
        //    the loop for it.
        loop {
            let stopped = self.submit_frames(server);
            self.collect_replies();
            if !self.flush() {
                return false;
            }
            if !stopped || self.backpressured(server) {
                break;
            }
        }
        !(self.eof && self.drained())
    }

    /// Parse complete frames and submit them; the reply receiver queues in
    /// arrival order so responses cannot reorder. The parsed frames leave
    /// the read buffer in one drain at the end. Returns `true` when it
    /// stopped because the connection is backpressured.
    fn submit_frames(&mut self, server: &Server) -> bool {
        let mut at = 0;
        let mut stopped = false;
        while self.read_buf.len() - at >= 4 {
            if self.backpressured(server) {
                stopped = true;
                break;
            }
            let prefix = self.read_buf[at..at + 4]
                .try_into()
                .expect("a 4-byte slice");
            let len = u32::from_le_bytes(prefix);
            if len > MAX_FRAME {
                self.enqueue_now(Reply::error(
                    0,
                    format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
                ));
                self.eof = true; // poison the stream: flush then close
                self.read_buf.clear();
                at = 0;
                break;
            }
            let total = 4 + len as usize;
            if self.read_buf.len() - at < total {
                break;
            }
            let decoded = match std::str::from_utf8(&self.read_buf[at + 4..at + total]) {
                Ok(json) => Request::from_json(json)
                    .map_err(|e| Reply::error(0, format!("bad request: {e}"))),
                Err(_) => Err(Reply::error(0, "frame is not UTF-8")),
            };
            at += total;
            match decoded {
                Ok(req) => self.pending.push_back(server.submit(req)),
                Err(reply) => self.enqueue_now(reply),
            }
        }
        self.read_buf.drain(..at);
        stopped
    }

    /// Write ready replies (front first — strict request order) into the
    /// write buffer, length prefixes included.
    fn collect_replies(&mut self) {
        while let Some(pending) = self.pending.front() {
            let answer = match pending.0.try_recv() {
                Ok(answer) => answer,
                Err(mpsc::TryRecvError::Empty) => break,
                // Should not happen (exactly-one-reply contract), but
                // never wedge the connection on it.
                Err(mpsc::TryRecvError::Disconnected) => {
                    Reply::error(0, "reply channel closed").into()
                }
            };
            self.pending.pop_front();
            answer.write_frame(&mut self.write_buf);
        }
    }

    /// Write as much as the socket accepts; `false` when the peer is gone.
    fn flush(&mut self) -> bool {
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return false,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return false,
            }
        }
        if self.written >= self.write_buf.len() && !self.write_buf.is_empty() {
            self.write_buf.clear();
            self.written = 0;
        }
        true
    }

    /// Queue an immediately-available reply without going through the
    /// server, preserving the in-order pending discipline.
    fn enqueue_now(&mut self, reply: Reply) {
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(reply.into());
        self.pending.push_back(PendingReply(rx));
    }
}

/// Client helper: connect, send one request, read one reply.
///
/// # Errors
/// Socket/framing errors; a reply that fails to parse maps to
/// `InvalidData`.
pub fn request(addr: impl ToSocketAddrs, req: &Request) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, &req.to_json())?;
    let json = read_frame(&mut stream)?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before reply",
        )
    })?;
    Reply::from_json(&json).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// poll(2), the one foreign call in servekit. Std has no readiness API
/// for sockets, and it already links libc, so a declaration is all the
/// loop needs; no crate is vendored for it.
#[allow(unsafe_code)]
mod poll {
    use std::ffi::{c_int, c_short};
    use std::io;
    use std::os::fd::RawFd;

    /// Readable, or at end of stream.
    pub const POLLIN: c_short = 0x1;
    /// Writable without blocking.
    pub const POLLOUT: c_short = 0x4;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    pub struct PollFd {
        fd: RawFd,
        events: c_short,
        /// Written by the kernel. The loop reads it for the wake socket and
        /// the listener; it steps every connection anyway, since a reply
        /// arrives by channel, not by socket.
        revents: c_short,
    }

    impl PollFd {
        pub fn new(fd: RawFd, events: c_short) -> PollFd {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }

        /// The last `wait` reported an event here: input, end of stream,
        /// or an error.
        pub fn ready(&self) -> bool {
            self.revents != 0
        }
    }

    /// `nfds_t`: `unsigned long` on Linux, `unsigned int` elsewhere.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::ffi::c_uint;

    unsafe extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Block until at least one descriptor in `fds` is ready. There is no
    /// timeout: an idle loop sleeps in the kernel until a peer or a wake
    /// byte arrives. Retries on `EINTR`.
    pub fn wait(fds: &mut [PollFd]) -> io::Result<()> {
        let nfds = Nfds::try_from(fds.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many sockets to poll"))?;
        loop {
            // SAFETY: `fds` is an exclusively borrowed slice of
            // `#[repr(C)]` records laid out as `struct pollfd`, and `nfds`
            // is its length, so poll(2) reads and writes only inside the
            // slice, and only until it returns.
            let ready = unsafe { poll(fds.as_mut_ptr(), nfds, -1) };
            if ready >= 0 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ReplyStatus;
    use crate::queue::WorkGate;
    use crate::server::ServeConfig;
    use std::time::Duration;

    fn started() -> Arc<Server> {
        let (s, _) = Server::start(ServeConfig::default(), None, None).unwrap();
        Arc::new(s)
    }

    type Front = std::thread::JoinHandle<std::io::Result<()>>;

    fn spawn_event_loop(server: Arc<Server>) -> (SocketAddr, Front) {
        let (tx, rx) = std::sync::mpsc::channel();
        let front = std::thread::spawn(move || {
            serve_event_loop(server, "127.0.0.1:0", move |addr| {
                let _ = tx.send(addr);
            })
        });
        (rx.recv().unwrap(), front)
    }

    /// Shut the server down and join its event loop: a loop that misses
    /// the shutdown wake hangs here instead of leaking a thread.
    fn stop(server: &Server, front: Front) {
        server.shutdown();
        front
            .join()
            .expect("event loop panicked")
            .expect("event loop returned an error");
    }

    fn call_frame(stream: &mut TcpStream, json: &str) -> Reply {
        write_frame(stream, json).unwrap();
        Reply::from_json(&read_frame(stream).unwrap().unwrap()).unwrap()
    }

    #[test]
    fn frames_round_trip_and_cap_is_enforced() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"x\":1}").unwrap();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), "{\"x\":1}");
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF");

        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let e = read_frame(&mut std::io::Cursor::new(oversized)).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn native_protocol_serves_and_shuts_down() {
        let server = started();
        let (addr, front) = spawn_event_loop(server.clone());
        let reply = request(addr, &Request::predict(7, vec![vec![1.0; 8]])).unwrap();
        assert_eq!(reply.id, 7);
        assert_eq!(reply.status, ReplyStatus::Degraded, "no model installed");
        // Garbage frame gets a typed error, not a dropped connection.
        let mut stream = TcpStream::connect(addr).unwrap();
        let r = call_frame(&mut stream, "not json");
        assert_eq!(r.status, ReplyStatus::Error);
        // Shutdown request stops the accept loop.
        let r = request(
            addr,
            &Request {
                id: 9,
                deadline_ms: None,
                body: crate::proto::RequestBody::Shutdown,
            },
        )
        .unwrap();
        assert_eq!(r.status, ReplyStatus::Ok);
        stop(&server, front);
    }

    #[test]
    fn deeply_nested_frame_gets_a_typed_error_and_the_daemon_keeps_serving() {
        let server = started();
        let (addr, front) = spawn_event_loop(server.clone());
        let mut stream = TcpStream::connect(addr).unwrap();
        let r = call_frame(&mut stream, &"[".repeat(100_000));
        assert_eq!(r.status, ReplyStatus::Error);
        let error = r.error.unwrap_or_default();
        assert!(error.contains("nesting"), "{error}");
        // The same connection and a fresh one are both still answered.
        let r = call_frame(
            &mut stream,
            &Request::predict(8, vec![vec![1.0; 4]]).to_json(),
        );
        assert_eq!((r.id, r.status), (8, ReplyStatus::Degraded));
        let r = request(addr, &Request::predict(9, vec![vec![1.0; 4]])).unwrap();
        assert_eq!(r.id, 9);
        stop(&server, front);
    }

    #[test]
    fn oversized_frame_length_gets_a_typed_error_then_close() {
        let server = started();
        let (addr, front) = spawn_event_loop(server.clone());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        let r = Reply::from_json(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
        assert_eq!(r.status, ReplyStatus::Error);
        assert!(r.error.unwrap_or_default().contains("cap"));
        // The stream is poisoned and closed; the daemon is not.
        assert!(read_frame(&mut stream).unwrap().is_none());
        let r = request(addr, &Request::predict(4, vec![vec![1.0; 4]])).unwrap();
        assert_eq!(r.id, 4);
        stop(&server, front);
    }

    #[test]
    fn non_utf8_frame_gets_a_typed_error_and_the_connection_keeps_serving() {
        let server = started();
        let (addr, front) = spawn_event_loop(server.clone());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&2u32.to_le_bytes()).unwrap();
        stream.write_all(&[0xff, 0xfe]).unwrap();
        let r = Reply::from_json(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
        assert_eq!(r.status, ReplyStatus::Error);
        assert!(r.error.unwrap_or_default().contains("UTF-8"));
        let r = call_frame(
            &mut stream,
            &Request::predict(5, vec![vec![1.0; 4]]).to_json(),
        );
        assert_eq!(r.id, 5);
        stop(&server, front);
    }

    #[test]
    fn event_loop_serves_pipelined_frames_in_order() {
        let server = started();
        let (addr, front) = spawn_event_loop(server.clone());
        // Pipeline several frames on one connection without reading
        // between writes.
        let mut stream = TcpStream::connect(addr).unwrap();
        for id in 1..=5u64 {
            write_frame(
                &mut stream,
                &Request::predict(id, vec![vec![id as f64; 4]]).to_json(),
            )
            .unwrap();
        }
        for id in 1..=5u64 {
            let json = read_frame(&mut stream).unwrap().unwrap();
            let reply = Reply::from_json(&json).unwrap();
            assert_eq!(reply.id, id, "replies must come back in request order");
        }
        stop(&server, front);
    }

    #[test]
    fn one_write_of_1024_pipelined_frames_gets_1024_replies_in_order() {
        // Sixteen times the default queue in one write: the connection
        // stops reading once it owes a queue's worth of replies, so none
        // of its own requests is shed.
        let server = started();
        assert!(server.queue_capacity() < 1024);
        let (addr, front) = spawn_event_loop(server.clone());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut frames = Vec::new();
        for id in 1..=1024u64 {
            write_frame(
                &mut frames,
                &Request::predict(id, vec![vec![id as f64; 4]]).to_json(),
            )
            .unwrap();
        }
        stream.write_all(&frames).unwrap();
        for id in 1..=1024u64 {
            let reply = Reply::from_json(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
            assert_eq!(reply.id, id, "replies must come back in request order");
            assert_eq!(reply.status, ReplyStatus::Degraded, "no model installed");
        }
        stop(&server, front);
    }

    #[test]
    fn a_reply_wakes_the_loop_blocked_in_poll() {
        // The worker waits on a closed pacing gate, so once the request is
        // admitted the loop has nothing to do and blocks; only the reply's
        // wake can get the reply out.
        let gate = Arc::new(WorkGate::closed());
        let cfg = ServeConfig {
            pace_gate: Some(gate.clone()),
            ..ServeConfig::default()
        };
        let server = Arc::new(Server::start(cfg, None, None).unwrap().0);
        let (addr, front) = spawn_event_loop(server.clone());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_frame(
            &mut stream,
            &Request::predict(11, vec![vec![1.0; 4]]).to_json(),
        )
        .unwrap();
        while server.metrics().counters.get("serve.admitted") != Some(&1) {
            std::thread::yield_now();
        }
        gate.open();
        let r = Reply::from_json(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
        assert_eq!(r.id, 11);
        stop(&server, front);
    }

    #[test]
    fn a_client_that_stops_reading_is_no_longer_read() {
        let server = started();
        let (addr, front) = spawn_event_loop(server.clone());
        let mut stream = TcpStream::connect(addr).unwrap();
        // A write that moves nothing for half a second fails with
        // `WouldBlock`; a server that keeps reading frees space long before.
        stream
            .set_write_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // ~4 KB frames of an unknown kind: each `error` reply quotes the
        // kind, so it names its frame and is about as large. The kernel
        // buffers both ways then hold a few MB, and a server that stops
        // reading stalls the writer long before 64 MiB.
        let frame = |i: usize| {
            let json = format!("{{\"kind\":\"junk-{i:06}-{}\"}}", "x".repeat(4000));
            let mut bytes = (json.len() as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(json.as_bytes());
            bytes
        };
        let (mut frames, mut total) = (0usize, 0usize);
        let (mut current, mut offset) = (frame(0), 0usize);
        loop {
            assert!(
                total < 64 << 20,
                "the server kept reading a client that never reads"
            );
            match stream.write(&current[offset..]) {
                Ok(n) => {
                    offset += n;
                    total += n;
                    if offset == current.len() {
                        frames += 1;
                        (current, offset) = (frame(frames), 0);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("write failed: {e}"),
            }
        }
        // Read every reply while finishing the frame cut short.
        let owed = frames + usize::from(offset > 0);
        stream.set_write_timeout(None).unwrap();
        let mut reader = stream.try_clone().unwrap();
        let replies = std::thread::spawn(move || {
            (0..owed)
                .map(|_| Reply::from_json(&read_frame(&mut reader).unwrap().unwrap()).unwrap())
                .collect::<Vec<_>>()
        });
        stream.write_all(&current[offset..]).unwrap();
        let replies = replies.join().unwrap();
        assert!(owed > 0);
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(r.status, ReplyStatus::Error);
            let error = r.error.as_deref().unwrap_or_default();
            assert!(
                error.contains(&format!("junk-{i:06}-")),
                "reply {i}: {error:.80}"
            );
        }
        let r = request(addr, &Request::predict(12, vec![vec![1.0; 4]])).unwrap();
        assert_eq!(r.id, 12);
        stop(&server, front);
    }

    #[test]
    fn event_loop_holds_many_idle_connections() {
        let server = started();
        let (addr, front) = spawn_event_loop(server.clone());
        // Far more connections than worker threads (the server has 1).
        let idle: Vec<TcpStream> = (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let reply = request(addr, &Request::predict(42, vec![vec![1.0; 4]])).unwrap();
        assert_eq!(reply.id, 42);
        drop(idle);
        stop(&server, front);
    }
}
