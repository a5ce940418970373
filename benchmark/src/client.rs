//! A raw `TcpStream` HTTP/1.1 client: one request per connection, read to
//! EOF. Deliberately not `banks_util::http`, so the instrument does not
//! change when that module does.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// `EADDRNOTAVAIL`: the client ran out of local ports. The harness
/// asserts this never happens (it would be the generator failing, not
/// the program).
const EADDRNOTAVAIL: i32 = 99;

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// Time spent in `connect()`.
    pub connect: Duration,
}

#[derive(Debug, PartialEq, Eq)]
pub enum ClientError {
    AddrNotAvailable,
    Io(String),
    Malformed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::AddrNotAvailable => write!(f, "EADDRNOTAVAIL"),
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Malformed(e) => write!(f, "malformed response: {e}"),
        }
    }
}

fn io_error(e: std::io::Error) -> ClientError {
    if e.raw_os_error() == Some(EADDRNOTAVAIL) {
        ClientError::AddrNotAvailable
    } else {
        ClientError::Io(e.to_string())
    }
}

/// Send one request and read the whole response. A `body` makes it a
/// `POST`; `timeout` bounds connect, and each read and write.
pub fn request(
    addr: SocketAddr,
    target: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<Response, ClientError> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(io_error)?;
    let connect = t0.elapsed();
    stream.set_nodelay(true).map_err(io_error)?;
    stream.set_read_timeout(Some(timeout)).map_err(io_error)?;
    stream.set_write_timeout(Some(timeout)).map_err(io_error)?;
    let head = match body {
        Some(b) => format!(
            "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{b}",
            b.len()
        ),
        None => format!("GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"),
    };
    stream.write_all(head.as_bytes()).map_err(io_error)?;
    let mut raw = Vec::with_capacity(8192);
    stream.read_to_end(&mut raw).map_err(io_error)?;
    parse_response(&raw, connect)
}

fn parse_response(raw: &[u8], connect: Duration) -> Result<Response, ClientError> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| ClientError::Malformed("no header terminator".into()))?;
    let head = std::str::from_utf8(&raw[..split])
        .map_err(|_| ClientError::Malformed("non-UTF-8 head".into()))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| ClientError::Malformed("no status code".into()))?;
    let body = &raw[split + 4..];
    let declared = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse::<usize>().ok())?
    });
    if declared.is_some_and(|n| n != body.len()) {
        return Err(ClientError::Malformed(format!(
            "Content-Length {} but {} body bytes",
            declared.unwrap_or(0),
            body.len()
        )));
    }
    let body = String::from_utf8(body.to_vec())
        .map_err(|_| ClientError::Malformed("non-UTF-8 body".into()))?;
    Ok(Response {
        status,
        body,
        connect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_body_and_checks_length() {
        let ok = parse_response(
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nhi",
            Duration::ZERO,
        )
        .unwrap();
        assert_eq!((ok.status, ok.body.as_str()), (200, "hi"));
        let short = parse_response(
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhi",
            Duration::ZERO,
        );
        assert!(matches!(short, Err(ClientError::Malformed(_))));
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n", Duration::ZERO).is_err());
        assert!(parse_response(b"garbage\r\n\r\n", Duration::ZERO).is_err());
    }

    #[test]
    fn round_trips_against_a_local_listener() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 512];
            let n = s.read(&mut buf).unwrap();
            let got = String::from_utf8_lossy(&buf[..n]).to_string();
            s.write_all(b"HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nnope")
                .ok();
            got
        });
        // Body longer than declared → refused as malformed.
        let err = request(addr, "/x?y=1", None, Duration::from_secs(2)).unwrap_err();
        assert!(matches!(err, ClientError::Malformed(_)));
        assert!(server
            .join()
            .unwrap()
            .starts_with("GET /x?y=1 HTTP/1.1\r\n"));
    }
}
