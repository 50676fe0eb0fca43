//! Hostile input against the real `congestd` process: a `source` request
//! nested far past the MiniHLS parser's cap, or an HTTP request on the
//! framed socket, must come back as a typed `error` reply, and the daemon
//! must keep serving afterwards.

use fpga_hls_congestion::servekit::{
    read_frame, request, Reply, ReplyStatus, Request, RequestBody, MAX_FRAME,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// A spawned daemon, killed if the test ends before it shuts down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `hls_congest serve` with no model (it serves degraded) and return
/// the daemon and its bound address.
fn spawn_congestd() -> (Daemon, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hls_congest"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn congestd");
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    let mut addr = String::new();
    while reader.read_line(&mut line).unwrap_or(0) > 0 {
        if let Some(rest) = line.split("listening on ").nth(1) {
            addr = rest.split_whitespace().next().unwrap_or("").to_string();
            break;
        }
        line.clear();
    }
    assert!(!addr.is_empty(), "congestd never reported a bound address");
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).unwrap_or(0) > 0 {
            sink.clear();
        }
    });
    (Daemon(child), addr)
}

fn call(addr: &str, id: u64, body: RequestBody) -> std::io::Result<Reply> {
    request(
        addr,
        &Request {
            id,
            deadline_ms: None,
            body,
        },
    )
}

#[test]
fn deeply_nested_source_gets_a_typed_error_and_the_daemon_keeps_serving() {
    let (mut daemon, addr) = spawn_congestd();
    // 2000 nested parentheses (4030 bytes): uncapped, the parser's
    // recursion overflows a worker's stack and aborts the whole daemon.
    let text = format!(
        "int32 f(int32 a) {{ return {}a{}; }}",
        "(".repeat(2000),
        ")".repeat(2000)
    );
    let reply = call(
        &addr,
        1,
        RequestBody::Source {
            name: "deep".into(),
            text,
        },
    )
    .expect("congestd must answer a hostile source request");
    assert_eq!(reply.status, ReplyStatus::Error, "{reply:?}");
    let error = reply.error.unwrap_or_default();
    assert!(error.contains("nesting"), "{error}");

    let status = call(&addr, 2, RequestBody::Status).expect("status after the hostile request");
    assert_eq!(status.status, ReplyStatus::Ok, "{status:?}");

    let shutdown = call(&addr, 3, RequestBody::Shutdown).expect("shutdown");
    assert_eq!(shutdown.status, ReplyStatus::Ok);
    assert!(
        daemon.0.wait().unwrap().success(),
        "clean exit after shutdown"
    );
}

/// Threads the daemon runs now, where the platform lists them.
fn threads(daemon: &Daemon) -> Option<usize> {
    let tasks = std::fs::read_dir(format!("/proc/{}/task", daemon.0.id())).ok()?;
    Some(tasks.count())
}

/// An HTTP request on the framed socket: its first four bytes read as a
/// length prefix far over the frame cap, so it gets the typed frame-cap
/// reply and the connection is closed. No thread is started for it, and
/// a request line that never ends holds nothing.
#[test]
fn http_requests_get_the_frame_cap_reply_and_no_thread() {
    let (mut daemon, addr) = spawn_congestd();
    let before = threads(&daemon);
    let body = r#"{"id":3,"kind":"status"}"#;
    let post = format!(
        "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    for (verb, text) in [
        ("POST", post.as_str()),
        ("GET ", "GET / HTTP/1.0\r\n\r\n"),
        ("POST", "POST / HTTP/1.1\r\n"),
    ] {
        let prefix = u32::from_le_bytes(verb.as_bytes().try_into().unwrap());
        assert!(prefix > MAX_FRAME, "{verb:?} reads as {prefix}");
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(text.as_bytes()).unwrap();
        let json = read_frame(&mut stream)
            .expect("a framed reply")
            .expect("the daemon answers before closing");
        let reply = Reply::from_json(&json).expect("a typed reply");
        assert_eq!(reply.status, ReplyStatus::Error, "{reply:?}");
        let error = reply.error.unwrap_or_default();
        assert!(
            error.contains(&format!("frame length {prefix} exceeds")) && error.contains("cap"),
            "{error}"
        );
        assert!(
            read_frame(&mut stream).unwrap_or(None).is_none(),
            "the connection is closed after the cap reply"
        );
    }
    assert_eq!(threads(&daemon), before, "an HTTP client got a thread");

    let status = call(&addr, 4, RequestBody::Status).expect("status after HTTP clients");
    assert_eq!(status.status, ReplyStatus::Ok, "{status:?}");
    let shutdown = call(&addr, 5, RequestBody::Shutdown).expect("shutdown");
    assert_eq!(shutdown.status, ReplyStatus::Ok);
    assert!(daemon.0.wait().unwrap().success());
}
