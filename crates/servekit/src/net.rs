//! Wire transport for `congestd`.
//!
//! Native protocol: 4-byte little-endian length prefix followed by one
//! JSON-encoded [`Request`]; the reply comes back the same way. One
//! request per frame, many frames per connection. Frames are capped so a
//! hostile (or torn) prefix cannot make the daemon allocate gigabytes.
//!
//! Convenience protocol: the front-end sniffs the first bytes of each
//! connection — `POST`/`GET ` switches to a minimal HTTP/1.1 handler so
//! `curl -d '{...}' http://addr/` works for demos and smoke tests. This is
//! deliberately not a web server: one request per connection, only
//! `Content-Length` bodies, JSON in, JSON out.
//!
//! The one front-end, [`serve_event_loop`], is a single acceptor plus a
//! readiness-polled event loop over nonblocking sockets. Connections are
//! plain state machines (read buffer → in-order pending replies → write
//! buffer) and requests enter the admission queue via the nonblocking
//! [`Server::submit`], so connection count is bounded by memory, not by
//! threads, and per-connection pipelining falls out for free. Only HTTP
//! stragglers get a thread (they are demo traffic by definition).

use crate::proto::{Reply, Request};
use crate::server::Server;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Largest accepted frame (64 MiB — a full-design batch is well under).
pub const MAX_FRAME: u32 = 64 << 20;

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
/// acceptor plus a readiness-polled event loop over nonblocking sockets.
/// `on_bound` receives the bound address before the loop starts (so
/// callers can bind port 0). Speaks both wire protocols; replies per
/// connection are written in request order. Returns once shutdown is
/// observed and every in-flight reply has been flushed.
pub fn serve_event_loop(
    server: Arc<Server>,
    addr: &str,
    on_bound: impl FnOnce(SocketAddr),
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    on_bound(listener.local_addr()?);
    let mut conns: Vec<Conn> = Vec::new();
    let mut http_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let mut progressed = false;
        let shutting_down = server.is_shutting_down();
        if !shutting_down {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(true)?;
                        conns.push(Conn::new(stream));
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
        }
        let mut i = 0;
        while i < conns.len() {
            match conns[i].step(&server) {
                ConnStep::Keep(p) => {
                    progressed |= p;
                    i += 1;
                }
                ConnStep::Close => {
                    conns.swap_remove(i);
                    progressed = true;
                }
                ConnStep::Http => {
                    let conn = conns.swap_remove(i);
                    let server = server.clone();
                    http_threads.push(std::thread::spawn(move || {
                        let _ = handle_http(&server, conn.stream, conn.read_buf);
                    }));
                    progressed = true;
                }
            }
        }
        if shutting_down && conns.iter().all(Conn::drained) {
            break;
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
        http_threads.retain(|h| !h.is_finished());
    }
    for h in http_threads {
        let _ = h.join();
    }
    Ok(())
}

enum ConnStep {
    /// Connection stays registered; `true` when any byte or reply moved.
    Keep(bool),
    /// Connection finished (EOF + drained) or errored; drop it.
    Close,
    /// First bytes were an HTTP verb; hand the stream to a thread.
    Http,
}

/// Per-connection state machine for the event loop: bytes in, frames
/// parsed, requests submitted (nonblocking), replies polled in order,
/// bytes out — every step tolerates `WouldBlock`.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    pending: VecDeque<mpsc::Receiver<Reply>>,
    write_buf: Vec<u8>,
    written: usize,
    sniffed: bool,
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
            sniffed: false,
            eof: false,
        }
    }

    /// No replies owed and nothing left to flush.
    fn drained(&self) -> bool {
        self.pending.is_empty() && self.written >= self.write_buf.len()
    }

    fn step(&mut self, server: &Server) -> ConnStep {
        let mut progressed = false;
        // 1. Pull whatever bytes are ready (bounded per pass so one chatty
        //    peer cannot starve the loop).
        let mut scratch = [0u8; 4096];
        let mut pulled = 0usize;
        while !self.eof && pulled < 256 * 1024 {
            match self.stream.read(&mut scratch) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.read_buf.extend_from_slice(&scratch[..n]);
                    pulled += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return ConnStep::Close,
            }
        }
        // 2. Protocol sniff, once.
        if !self.sniffed && self.read_buf.len() >= 4 {
            self.sniffed = true;
            if &self.read_buf[..4] == b"POST" || &self.read_buf[..4] == b"GET " {
                return ConnStep::Http;
            }
        }
        // 3. Parse complete frames and submit them; the reply receiver
        //    queues in arrival order so responses cannot reorder.
        while self.sniffed && self.read_buf.len() >= 4 {
            let len = u32::from_le_bytes(self.read_buf[..4].try_into().unwrap());
            if len > MAX_FRAME {
                self.enqueue_now(Reply::error(
                    0,
                    format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
                ));
                self.eof = true; // poison the stream: flush then close
                self.read_buf.clear();
                progressed = true;
                break;
            }
            let total = 4 + len as usize;
            if self.read_buf.len() < total {
                break;
            }
            let frame: Vec<u8> = self.read_buf.drain(..total).skip(4).collect();
            match String::from_utf8(frame) {
                Ok(json) => match Request::from_json(&json) {
                    Ok(req) => self.pending.push_back(server.submit(req)),
                    Err(e) => self.enqueue_now(Reply::error(0, format!("bad request: {e}"))),
                },
                Err(_) => self.enqueue_now(Reply::error(0, "frame is not UTF-8")),
            }
            progressed = true;
        }
        // 4. Move ready replies (front first — strict request order) into
        //    the write buffer.
        while let Some(rx) = self.pending.front() {
            match rx.try_recv() {
                Ok(reply) => {
                    self.pending.pop_front();
                    let json = reply.to_json();
                    self.write_buf
                        .extend_from_slice(&(json.len() as u32).to_le_bytes());
                    self.write_buf.extend_from_slice(json.as_bytes());
                    progressed = true;
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    // Should not happen (exactly-one-reply contract), but
                    // never wedge the connection on it.
                    self.pending.pop_front();
                    let json = Reply::error(0, "reply channel closed").to_json();
                    self.write_buf
                        .extend_from_slice(&(json.len() as u32).to_le_bytes());
                    self.write_buf.extend_from_slice(json.as_bytes());
                    progressed = true;
                }
            }
        }
        // 5. Flush as much as the socket accepts.
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return ConnStep::Close,
                Ok(n) => {
                    self.written += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return ConnStep::Close,
            }
        }
        if self.written >= self.write_buf.len() && !self.write_buf.is_empty() {
            self.write_buf.clear();
            self.written = 0;
        }
        if self.eof && self.drained() {
            return ConnStep::Close;
        }
        ConnStep::Keep(progressed)
    }

    /// Queue an immediately-available reply without going through the
    /// server, preserving the in-order pending discipline.
    fn enqueue_now(&mut self, reply: Reply) {
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(reply);
        self.pending.push_back(rx);
    }
}

/// HTTP handoff from the event loop: `prefix` holds bytes already pulled
/// off the (nonblocking) socket; the stream goes back to blocking mode
/// for the thread that owns it from here on.
fn handle_http(server: &Server, stream: TcpStream, prefix: Vec<u8>) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    let mut write_half = stream.try_clone()?;
    let mut reader = BufReader::new(std::io::Cursor::new(prefix).chain(stream));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let is_get = request_line.starts_with("GET ");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse::<usize>().ok())
        {
            content_length = v;
        }
    }
    let reply = if is_get {
        // `curl http://addr/` — a bare status probe.
        server.call(Request {
            id: 0,
            deadline_ms: None,
            body: crate::proto::RequestBody::Status,
        })
    } else if content_length as u64 > MAX_FRAME as u64 {
        Reply::error(0, "request body exceeds the frame cap")
    } else {
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        // A body that does not parse still gets a typed `Error` reply.
        match String::from_utf8(body) {
            Ok(json) => match Request::from_json(&json) {
                Ok(req) => server.call(req),
                Err(e) => Reply::error(0, format!("bad request: {e}")),
            },
            Err(_) => Reply::error(0, "request body is not UTF-8"),
        }
    };
    let json = reply.to_json();
    write!(
        write_half,
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        json.len(),
        json
    )?;
    write_half.flush()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ReplyStatus;
    use crate::server::ServeConfig;

    fn started() -> Arc<Server> {
        let (s, _) = Server::start(ServeConfig::default(), None, None).unwrap();
        Arc::new(s)
    }

    fn spawn_event_loop(server: Arc<Server>) -> SocketAddr {
        let (tx, rx) = std::sync::mpsc::channel();
        let srv = server.clone();
        std::thread::spawn(move || {
            serve_event_loop(srv, "127.0.0.1:0", move |addr| {
                let _ = tx.send(addr);
            })
            .unwrap();
        });
        rx.recv().unwrap()
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
        let addr = spawn_event_loop(server.clone());
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
        server.shutdown();
    }

    #[test]
    fn deeply_nested_frame_gets_a_typed_error_and_the_daemon_keeps_serving() {
        let server = started();
        let addr = spawn_event_loop(server.clone());
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
        server.shutdown();
    }

    #[test]
    fn oversized_frame_length_gets_a_typed_error_then_close() {
        let server = started();
        let addr = spawn_event_loop(server.clone());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        let r = Reply::from_json(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
        assert_eq!(r.status, ReplyStatus::Error);
        assert!(r.error.unwrap_or_default().contains("cap"));
        // The stream is poisoned and closed; the daemon is not.
        assert!(read_frame(&mut stream).unwrap().is_none());
        let r = request(addr, &Request::predict(4, vec![vec![1.0; 4]])).unwrap();
        assert_eq!(r.id, 4);
        server.shutdown();
    }

    #[test]
    fn non_utf8_frame_gets_a_typed_error_and_the_connection_keeps_serving() {
        let server = started();
        let addr = spawn_event_loop(server.clone());
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
        server.shutdown();
    }

    #[test]
    fn event_loop_serves_pipelined_frames_in_order() {
        let server = started();
        let addr = spawn_event_loop(server.clone());
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
        server.shutdown();
    }

    #[test]
    fn event_loop_holds_many_idle_connections() {
        let server = started();
        let addr = spawn_event_loop(server.clone());
        // Far more connections than worker threads (the server has 1).
        let idle: Vec<TcpStream> = (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let reply = request(addr, &Request::predict(42, vec![vec![1.0; 4]])).unwrap();
        assert_eq!(reply.id, 42);
        drop(idle);
        server.shutdown();
    }

    #[test]
    fn http_fallback_answers_curl_style_requests() {
        let server = started();
        let addr = spawn_event_loop(server.clone());
        // HTTP straggler handed off to a thread.
        let mut stream = TcpStream::connect(addr).unwrap();
        let body = "{\"id\":3,\"kind\":\"status\"}";
        write!(
            stream,
            "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        let json = resp.split("\r\n\r\n").nth(1).unwrap();
        let reply = Reply::from_json(json).unwrap();
        assert_eq!(reply.id, 3);
        assert_eq!(reply.model, "analytic");
        server.shutdown();
    }

    #[test]
    fn http_body_with_deep_nesting_gets_a_typed_error() {
        let server = started();
        let addr = spawn_event_loop(server.clone());
        let mut stream = TcpStream::connect(addr).unwrap();
        let body = "[".repeat(100_000);
        write!(
            stream,
            "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        let json = resp.split("\r\n\r\n").nth(1).unwrap();
        let reply = Reply::from_json(json).unwrap();
        assert_eq!(reply.status, ReplyStatus::Error);
        assert!(reply.error.unwrap_or_default().contains("nesting"));
        let r = request(addr, &Request::predict(6, vec![vec![1.0; 4]])).unwrap();
        assert_eq!(r.id, 6);
        server.shutdown();
    }
}
