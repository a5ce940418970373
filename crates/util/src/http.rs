//! HTTP/1.1 for every role in the workspace: percent-decoding and
//! query-string parsing, a tiny blocking client, and the one server core
//! that `banks serve` and `banks route` both run.
//!
//! Both halves speak the same dialect: one request per connection
//! (`Connection: close`), `Content-Length` bodies, no chunked encoding.
//!
//! * **Client** — [`http_request`] buffers the response body,
//!   [`http_request_to_writer`] streams it to a sink; both go through
//!   one connect/send/parse path. Leader, follower, router and CLI all
//!   frame requests with it.
//! * **Server** — [`HttpServer`]: one listener, an acceptor thread, a
//!   bounded queue of accepted connections stamped with their accept
//!   time, and a fixed worker pool. The core does the framing and the
//!   limits ([`MAX_HEAD_BYTES`], the body cap, the head-read timeout)
//!   and contains handler panics; admission control and routing belong
//!   to the handler each role passes in.

use crate::json::Json;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Decode `%XX` escapes and `+`-as-space in a URL component.
///
/// Invalid escapes are passed through literally rather than erroring —
/// the server treats a malformed query as a search for the literal text.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                (Some(h), Some(l)) => {
                    out.push(h * 16 + l);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    match b? {
        c @ b'0'..=b'9' => Some(c - b'0'),
        c @ b'a'..=b'f' => Some(c - b'a' + 10),
        c @ b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

/// Split a `k1=v1&k2=v2` query string into decoded pairs. Keys without a
/// value decode to an empty string.
pub fn parse_query_string(qs: &str) -> Vec<(String, String)> {
    qs.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// First value for `key` in a parsed query string.
pub fn query_param<'a>(params: &'a [(String, String)], key: &str) -> Option<&'a str> {
    params
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Percent-encode a query-string value (RFC 3986 unreserved characters
/// pass through), so caller-supplied text cannot mangle a request line.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            b => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Strip an optional `http://` scheme and trailing `/` so flags accept
/// either `host:port` or `http://host:port` spellings of a peer address.
pub fn host_port(url: &str) -> &str {
    url.strip_prefix("http://")
        .unwrap_or(url)
        .trim_end_matches('/')
}

/// Why a client request failed — retry policy hangs off this split.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection could not be established (refused, unreachable,
    /// name resolution). **Nothing was sent**, so retrying can never
    /// duplicate a server-side effect.
    Connect(std::io::Error),
    /// I/O failed after the connection was up — bytes may have reached
    /// the server, so a non-idempotent request must not blindly retry.
    Io(std::io::Error),
    /// The peer answered with something that is not parseable HTTP/1.1.
    Malformed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect: {e}"),
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Malformed(what) => write!(f, "malformed response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A parsed HTTP/1.1 response.
#[derive(Debug)]
pub struct HttpResponse<B = Vec<u8>> {
    /// Numeric status code (200, 409, …).
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, raw (may be binary: replication frames, bundles) — or,
    /// from [`http_request_to_writer`], the count of bytes sent to the sink.
    pub body: B,
}

impl<B> HttpResponse<B> {
    /// First header value for `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

impl HttpResponse {
    /// The body as UTF-8 text (lossy — error bodies are always ASCII
    /// JSON in this workspace).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One blocking HTTP/1.1 request over a fresh connection.
///
/// `addr` is `host:port` (or `http://host:port`). `timeout` bounds the
/// connect and each read/write syscall — a long-polling endpoint should
/// pass its poll window plus slack. The body is read to `Content-Length`
/// when present, else to EOF (the servers here always close).
pub fn http_request(
    addr: &str,
    method: &str,
    target: &str,
    body_in: Option<&[u8]>,
    timeout: Duration,
) -> Result<HttpResponse, ClientError> {
    let mut body = Vec::new();
    let head = http_request_to_writer(
        addr,
        method,
        target,
        body_in.unwrap_or(&[]),
        timeout,
        &mut body,
    )?;
    Ok(HttpResponse {
        status: head.status,
        headers: head.headers,
        body,
    })
}

/// Like [`http_request`], but the response body streams into `sink`
/// in fixed-size chunks instead of accumulating in memory — a follower
/// bootstrapping from a multi-gigabyte snapshot bundle writes it
/// straight to disk. A short body against a declared length is
/// [`ClientError::Malformed`] (the sink then holds a truncated copy the
/// caller must discard).
pub fn http_request_to_writer(
    addr: &str,
    method: &str,
    target: &str,
    body: &[u8],
    timeout: Duration,
    sink: &mut dyn Write,
) -> Result<HttpResponse<u64>, ClientError> {
    let addr = host_port(addr);
    crate::fault::maybe_fault("http.connect").map_err(ClientError::Connect)?;
    let sock = addr
        .to_socket_addrs()
        .map_err(ClientError::Connect)?
        .next()
        .ok_or_else(|| {
            ClientError::Connect(std::io::Error::other(format!("{addr}: no usable address")))
        })?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout).map_err(ClientError::Connect)?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(ClientError::Io)?;

    let mut request = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request).map_err(ClientError::Io)?;
    stream.flush().map_err(ClientError::Io)?;

    crate::fault::maybe_fault("http.read").map_err(ClientError::Io)?;
    read_response(&mut stream, sink)
}

/// Read from `stream` into `buf` until it holds a whole head (up to the
/// blank line): `Ok(Some(len))` is the head's length, `Ok(None)` that
/// `cap` bytes came without one. EOF first is `UnexpectedEof`.
fn read_head(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<Option<usize>> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            return Ok(Some(at));
        }
        let room = (cap - buf.len()).min(chunk.len());
        if room == 0 {
            return Ok(None);
        }
        match stream.read(&mut chunk[..room])? {
            0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// Read one response from `stream`: the head, then the body into `sink`
/// — to `Content-Length` when declared (trailing bytes from a peer that
/// closes late never reach the sink), else to EOF.
fn read_response(
    stream: &mut impl Read,
    sink: &mut dyn Write,
) -> Result<HttpResponse<u64>, ClientError> {
    let mut buf = Vec::with_capacity(4096);
    let end = match read_head(stream, &mut buf, 64 * 1024) {
        Ok(Some(end)) => end,
        Ok(None) => return Err(ClientError::Malformed("unbounded header block".into())),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            return Err(ClientError::Malformed("no header terminator".into()))
        }
        Err(e) => return Err(ClientError::Io(e)),
    };
    let head = std::str::from_utf8(&buf[..end])
        .map_err(|_| ClientError::Malformed("non-UTF-8 header block".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut resp = HttpResponse {
        status: status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Malformed(format!("bad status line `{status_line}`")))?,
        headers: lines
            .filter_map(|line| line.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect(),
        body: 0,
    };
    let length: Option<u64> = resp.header("content-length").and_then(|v| v.parse().ok());
    let mut chunk = [0u8; 16 * 1024];
    let mut pending = &buf[end + 4..];
    loop {
        let take = length.map_or(pending.len(), |len| {
            (len - resp.body).min(pending.len() as u64) as usize
        });
        sink.write_all(&pending[..take]).map_err(ClientError::Io)?;
        resp.body += take as u64;
        if length.is_some_and(|len| resp.body >= len) {
            break;
        }
        let n = stream.read(&mut chunk).map_err(ClientError::Io)?;
        if n == 0 {
            if let Some(len) = length {
                return Err(ClientError::Malformed(format!(
                    "body truncated: {} of {len} bytes",
                    resp.body
                )));
            }
            break;
        }
        pending = &chunk[..n];
    }
    sink.flush().map_err(ClientError::Io)?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// The server: one listener, a bounded accept queue, a worker pool.
// ---------------------------------------------------------------------------

/// Longest request head (request line, headers, blank line) a server
/// reads; an unterminated head of this size is answered `431`.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Default cap on a request body; a larger declared `Content-Length` is
/// answered `413` before any body byte is read.
pub const MAX_BODY_BYTES: u64 = 8 * 1024 * 1024;
/// Default budget for reading the request head: a slowloris-style
/// client that trickles header bytes is disconnected after it.
pub const HEADER_READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Timeout for reading the body and for each write of the response.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// How an [`HttpServer`] listens.
#[derive(Debug, Clone)]
pub struct ListenConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Worker threads.
    pub workers: usize,
    /// Accepted connections that may wait for a worker before accepts block.
    pub backlog: usize,
    /// Largest request body accepted.
    pub max_body_bytes: u64,
    /// Budget for reading the request head.
    pub header_read_timeout: Duration,
    /// Thread-name prefix: `{name}-accept`, `{name}-0`, …
    pub name: &'static str,
}

/// One well-framed request, as a handler sees it.
#[derive(Debug)]
pub struct Request {
    /// Method token (`GET`, `POST`, …).
    pub method: String,
    /// The path plus an optional `?query`.
    pub target: String,
    /// Header lines after the request line, as received.
    headers: String,
    /// Exactly `Content-Length` bytes.
    pub body: Vec<u8>,
    /// The peer's IP, when the socket still knows it.
    pub peer: Option<IpAddr>,
    /// When the acceptor queued the connection (queue wait and the head
    /// read come after it).
    pub enqueued_at: Instant,
}

impl Request {
    /// The target without its query string.
    pub fn path(&self) -> &str {
        self.target.split_once('?').map_or(&self.target, |(p, _)| p)
    }

    /// The raw query string (empty when there is none).
    pub fn query(&self) -> &str {
        self.target.split_once('?').map_or("", |(_, q)| q)
    }

    /// First value of header `name` (case-insensitive), trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .split("\r\n")
            .filter_map(|line| line.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case(name))
            .map(|(_, v)| v.trim())
    }
}

/// One response; the server adds `Content-Length` and
/// `Connection: close`.
#[derive(Debug)]
pub struct Response {
    /// Status code; the reason phrase follows from it.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers, in order.
    pub headers: Vec<(&'static str, String)>,
    /// The body, raw.
    pub body: Vec<u8>,
}

impl Response {
    /// A response without extra headers.
    pub fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Response {
        let headers = Vec::new();
        Response {
            status,
            content_type,
            headers,
            body,
        }
    }

    /// A JSON body.
    pub fn json(status: u16, body: String) -> Response {
        Response::new(status, "application/json", body.into_bytes())
    }

    /// A Prometheus text exposition (format 0.0.4).
    pub fn metrics(text: String) -> Response {
        let content_type = "text/plain; version=0.0.4; charset=utf-8";
        Response::new(200, content_type, text.into_bytes())
    }

    /// `{"error":"<message>"}`.
    pub fn error(status: u16, message: &str) -> Response {
        let body = Json::obj([("error", Json::Str(message.to_string()))]);
        Response::json(status, body.compact())
    }

    /// Add a header.
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

type Handler = dyn Fn(Request) -> Response + Send + Sync;

/// A running HTTP/1.1 server: an acceptor thread feeds a bounded queue
/// that a fixed pool of workers drains, one request per connection.
/// Dropping it shuts it down.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queued: Arc<AtomicUsize>,
    threads: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `config.addr` and answer every request with `handler` on
    /// background threads.
    ///
    /// The handler sees well-framed requests only: a head over
    /// [`MAX_HEAD_BYTES`] is answered `431`, a malformed request line or
    /// `Content-Length` `400`, a body over `max_body_bytes` `413`. A
    /// client that has not sent its head within `header_read_timeout` is
    /// disconnected. A handler that panics loses its connection, not its
    /// worker.
    pub fn bind<H>(config: &ListenConfig, handler: H) -> std::io::Result<HttpServer>
    where
        H: Fn(Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let queued = Arc::new(AtomicUsize::new(0));
        // Each queued connection carries its accept time, for the
        // handler's queue-wait and deadline accounting.
        let (tx, rx) = sync_channel::<(TcpStream, Instant)>(config.backlog);
        let rx = Arc::new(Mutex::new(rx));
        let handler: Arc<Handler> = Arc::new(handler);
        let mut threads = Vec::with_capacity(config.workers.max(1) + 1);
        for i in 0..config.workers.max(1) {
            let (rx, handler, queued) = (rx.clone(), handler.clone(), queued.clone());
            let config = config.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{}-{i}", config.name))
                    .spawn(move || loop {
                        let Ok((stream, enqueued_at)) = rx.lock().expect("accept queue").recv()
                        else {
                            return; // acceptor gone and queue drained
                        };
                        queued.fetch_sub(1, Ordering::Relaxed);
                        // A dead worker is never respawned: without this,
                        // requests that panic the handler would shrink the
                        // pool until nothing is served.
                        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            serve(stream, enqueued_at, &config, &*handler)
                        }));
                    })?,
            );
        }
        let (stop, depth) = (shutdown.clone(), queued.clone());
        threads.push(
            std::thread::Builder::new()
                .name(format!("{}-accept", config.name))
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else {
                            // Back off on transient accept errors (EMFILE,
                            // ECONNABORTED) instead of spinning.
                            std::thread::sleep(Duration::from_millis(10));
                            continue;
                        };
                        depth.fetch_add(1, Ordering::Relaxed);
                        if tx.send((stream, Instant::now())).is_err() {
                            depth.fetch_sub(1, Ordering::Relaxed);
                            break;
                        }
                    }
                    // `tx` drops here: the workers drain the queue and exit.
                })?,
        );
        Ok(HttpServer {
            addr,
            shutdown,
            queued,
            threads,
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live count of accepted connections waiting for a worker.
    pub fn queue_depth(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.queued)
    }

    /// Stop accepting, let the workers drain the queue, and join them.
    pub fn shutdown(self) {}

    /// Block until every thread has exited (the CLI foreground mode).
    pub fn join(mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept so it sees the flag. A wildcard bind
        // is not connectable everywhere, so poke loopback on its port.
        let mut poke = self.addr;
        if poke.ip().is_unspecified() {
            poke.set_ip(match poke {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if TcpStream::connect_timeout(&poke, Duration::from_secs(1)).is_err() {
            // Our own listener is unreachable (a firewalled interface
            // bind): detach rather than deadlock; the threads die with
            // the process.
            self.threads.clear();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

fn serve(
    mut stream: TcpStream,
    enqueued_at: Instant,
    config: &ListenConfig,
    handler: &Handler,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(config.header_read_timeout))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let response = match read_request(&mut stream, enqueued_at, config.max_body_bytes)? {
        Ok(request) => handler(request),
        Err(rejection) => rejection,
    };
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
    );
    for (name, value) in &response.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("Connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// Read and frame one request. `Ok(Err(response))` is a request the
/// handler never sees; an I/O error (the head-read timeout, a reset, EOF
/// before the head ends) drops the connection unanswered.
fn read_request(
    stream: &mut TcpStream,
    enqueued_at: Instant,
    max_body_bytes: u64,
) -> std::io::Result<Result<Request, Response>> {
    let mut buf = Vec::with_capacity(1024);
    let Some(end) = read_head(stream, &mut buf, MAX_HEAD_BYTES)? else {
        return Ok(Err(Response::error(431, "request too large")));
    };
    let head = std::str::from_utf8(&buf[..end]).unwrap_or("");
    let (line, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    let parts: Vec<&str> = line.split(' ').collect();
    let &[method, target, version] = parts.as_slice() else {
        return Ok(Err(Response::error(400, "malformed request line")));
    };
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Ok(Err(Response::error(400, "malformed request line")));
    }
    let mut request = Request {
        method: method.to_string(),
        target: target.to_string(),
        headers: headers.to_string(),
        body: Vec::new(),
        peer: stream.peer_addr().ok().map(|a| a.ip()),
        enqueued_at,
    };
    // An unparseable length is an error, not a silent 0 that would skip
    // the cap and drop the body.
    let length = match request.header("content-length").map(str::parse::<u64>) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => return Ok(Err(Response::error(400, "bad Content-Length header"))),
    };
    if length > max_body_bytes {
        return Ok(Err(Response::error(413, "request body too large")));
    }
    // Body bytes that came with the head first; the buffer grows with
    // what arrives, not with what the client declared.
    let early = &buf[end + 4..];
    let early = &early[..early.len().min(length as usize)];
    request.body = Vec::with_capacity(length.min(64 * 1024) as usize);
    request.body.extend_from_slice(early);
    let missing = length - early.len() as u64;
    if missing > 0 {
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        (&mut *stream)
            .take(missing)
            .read_to_end(&mut request.body)?;
        if (request.body.len() as u64) < length {
            return Ok(Err(Response::error(
                400,
                "request body shorter than Content-Length",
            )));
        }
    }
    Ok(Ok(request))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_escapes_plus_and_utf8() {
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("%C3%A9"), "é");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%ZZ"), "%ZZ");
    }

    #[test]
    fn parses_query_strings() {
        let params = parse_query_string("q=soumen+sunita&limit=5&flag");
        assert_eq!(query_param(&params, "q"), Some("soumen sunita"));
        assert_eq!(query_param(&params, "limit"), Some("5"));
        assert_eq!(query_param(&params, "flag"), Some(""));
        assert_eq!(query_param(&params, "missing"), None);
    }

    #[test]
    fn encodes_round_trip() {
        assert_eq!(percent_encode("1753880000"), "1753880000");
        assert_eq!(percent_encode("a b&c=d"), "a%20b%26c%3Dd");
        assert_eq!(percent_decode(&percent_encode("é ~x_1")), "é ~x_1");
    }

    #[test]
    fn host_port_strips_scheme_and_slash() {
        assert_eq!(host_port("http://127.0.0.1:7331/"), "127.0.0.1:7331");
        assert_eq!(host_port("127.0.0.1:7331"), "127.0.0.1:7331");
    }

    /// Parse a canned response through the client's read path.
    fn parse(raw: &[u8]) -> Result<HttpResponse, ClientError> {
        let mut body = Vec::new();
        let head = read_response(&mut &raw[..], &mut body)?;
        Ok(HttpResponse {
            status: head.status,
            headers: head.headers,
            body,
        })
    }

    #[test]
    fn parses_responses() {
        let resp = parse(
            b"HTTP/1.1 409 Conflict\r\nContent-Type: application/json\r\nRetry-After: 1\r\nContent-Length: 13\r\n\r\n{\"error\":\"x\"}",
        )
        .unwrap();
        assert_eq!(resp.status, 409);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.header("Retry-After"), Some("1"));
        assert_eq!(resp.text(), r#"{"error":"x"}"#);

        // Binary body, length respected even with trailing garbage.
        let resp = parse(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n\x00\x01\x02junk").unwrap();
        assert_eq!(resp.body, vec![0, 1, 2]);

        // Truncated body is an error, not a silent short read.
        assert!(parse(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc").is_err());
        assert!(parse(b"garbage").is_err());
    }

    #[test]
    fn streams_body_to_writer() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let body: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let expected = body.clone();
        let handle = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = sock.read(&mut buf);
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nX-Banks-Epoch: 7\r\n\r\n",
                body.len()
            );
            sock.write_all(head.as_bytes()).unwrap();
            sock.write_all(&body).unwrap();
            // Trailing garbage past Content-Length must not reach the sink.
            let _ = sock.write_all(b"junk");
        });
        let mut sink = Vec::new();
        let resp = http_request_to_writer(
            &addr.to_string(),
            "GET",
            "/replication/snapshot",
            &[],
            Duration::from_secs(5),
            &mut sink,
        )
        .unwrap();
        handle.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("X-Banks-Epoch"), Some("7"));
        assert_eq!(resp.body, expected.len() as u64);
        assert_eq!(sink, expected);
    }

    #[test]
    fn connect_refused_is_typed() {
        // Port 1 on loopback is essentially never listening.
        let err = http_request(
            "127.0.0.1:1",
            "GET",
            "/health",
            None,
            Duration::from_millis(300),
        )
        .unwrap_err();
        assert!(matches!(err, ClientError::Connect(_)), "{err}");
    }

    fn serve(
        workers: usize,
        handler: impl Fn(Request) -> Response + Send + Sync + 'static,
    ) -> HttpServer {
        let config = ListenConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            backlog: 8,
            max_body_bytes: 64,
            header_read_timeout: Duration::from_millis(300),
            name: "test-http",
        };
        HttpServer::bind(&config, handler).unwrap()
    }

    fn call(
        server: &HttpServer,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
    ) -> Result<HttpResponse, ClientError> {
        http_request(
            &server.local_addr().to_string(),
            method,
            target,
            body,
            Duration::from_secs(5),
        )
    }

    #[test]
    fn handler_sees_method_target_headers_and_body() {
        let server = serve(1, |req| {
            Response::json(
                200,
                format!(
                    "{} {} {} {:?} {}",
                    req.method,
                    req.path(),
                    req.query(),
                    req.header("HOST").is_some(),
                    String::from_utf8_lossy(&req.body)
                ),
            )
            .with_header("X-Banks-Epoch", "3".to_string())
        });
        let resp = call(&server, "POST", "/ingest?ts=t0", Some(b"{}")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), "POST /ingest ts=t0 true {}");
        assert_eq!(resp.header("x-banks-epoch"), Some("3"));
        assert_eq!(resp.header("connection"), Some("close"));
    }

    #[test]
    fn a_panicking_handler_costs_its_connection_not_its_worker() {
        let server = serve(1, |req| {
            assert_ne!(req.path(), "/boom", "handler panics on purpose");
            Response::json(200, "{}".to_string())
        });
        let err = call(&server, "GET", "/boom", None).unwrap_err();
        assert!(
            matches!(err, ClientError::Malformed(_) | ClientError::Io(_)),
            "{err}"
        );
        // The pool's only worker survived and answers the next request.
        for _ in 0..2 {
            assert_eq!(call(&server, "GET", "/ok", None).unwrap().status, 200);
        }
        server.shutdown();
    }
}
