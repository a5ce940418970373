//! The `banks ingest` subcommand: apply a JSON/CSV delta file against a
//! running server or a local corpus.
//!
//! ```text
//! # against a running `banks serve` instance (POST /ingest):
//! banks ingest --file deltas.json --server 127.0.0.1:7331
//!
//! # against a local corpus (offline dry run / experimentation):
//! banks ingest --file deltas.csv --corpus dblp --seed 1
//! ```
//!
//! The format is inferred from the file extension (`.json` / `.csv`)
//! and can be forced with `--format`. Batches are validated by parsing
//! before anything is sent, and applied atomically — a rejected op
//! leaves the target snapshot unchanged.

use banks_core::Banks;
use banks_ingest::DeltaBatch;
use banks_server::{IngestEndpoint, QueryService, ServiceConfig};
use banks_util::http::{http_request, percent_encode, ClientError};
use banks_util::retry::{parse_retry_after, Outcome, RetryPolicy};
use banks_util::{log_info, log_warn};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Parsed `ingest` arguments.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IngestArgs {
    /// Delta file path.
    pub file: String,
    /// `json` or `csv`; inferred from the extension when empty.
    pub format: String,
    /// Remote mode: `HOST:PORT` of a running `banks serve`.
    pub server: Option<String>,
    /// Local mode: corpus name.
    pub corpus: Option<String>,
    /// Local mode: generation seed.
    pub seed: u64,
    /// Caller-supplied publication timestamp (`--ts`); defaults to the
    /// current unix time in seconds.
    pub ts: Option<String>,
}

impl IngestArgs {
    /// Parse `--flag value` pairs (everything after `banks ingest`).
    pub fn parse(args: &[String]) -> Result<IngestArgs, String> {
        let mut parsed = IngestArgs {
            seed: 1,
            ..IngestArgs::default()
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--file" => parsed.file = value("--file")?,
                "--format" => parsed.format = value("--format")?,
                "--server" => parsed.server = Some(value("--server")?),
                "--corpus" => parsed.corpus = Some(value("--corpus")?),
                "--seed" => {
                    parsed.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed must be an integer".to_string())?
                }
                "--ts" => parsed.ts = Some(value("--ts")?),
                other => return Err(format!("unknown ingest flag `{other}` — see `banks help`")),
            }
        }
        if parsed.file.is_empty() {
            return Err("--file is required".into());
        }
        if parsed.server.is_some() == parsed.corpus.is_some() {
            return Err("exactly one of --server or --corpus is required".into());
        }
        if parsed.format.is_empty() {
            parsed.format = if parsed.file.ends_with(".csv") {
                "csv".into()
            } else {
                "json".into()
            };
        }
        if parsed.format != "json" && parsed.format != "csv" {
            return Err(format!("unknown format `{}` (json|csv)", parsed.format));
        }
        Ok(parsed)
    }
}

/// Load and parse the delta file per the arguments.
pub fn load_batch(args: &IngestArgs) -> Result<DeltaBatch, String> {
    let text =
        std::fs::read_to_string(&args.file).map_err(|e| format!("read {}: {e}", args.file))?;
    let batch = match args.format.as_str() {
        "csv" => DeltaBatch::from_csv(&text),
        _ => DeltaBatch::from_json(&text),
    }
    .map_err(|e| e.to_string())?;
    if batch.is_empty() {
        return Err(format!("{}: no operations", args.file));
    }
    Ok(batch)
}

fn default_ts() -> String {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs().to_string())
        .unwrap_or_default()
}

/// How many POST attempts are made before giving up.
const POST_ATTEMPTS: u32 = 5;
/// Backoff base for the first retry (scales by 2× with full jitter).
const POST_BACKOFF: Duration = Duration::from_millis(200);
/// Backoff ceiling across retries.
const POST_MAX_BACKOFF: Duration = Duration::from_secs(2);
/// Longest server `Retry-After` hint the CLI will honor — a hostile or
/// miscounting server must not stall the tool for minutes.
const MAX_RETRY_AFTER: Duration = Duration::from_secs(5);

/// How one POST `/ingest` attempt failed, and whether retrying is safe.
enum PostFault {
    /// Nothing reached the server (refused, unreachable) — always safe
    /// to retry.
    Connect(String),
    /// The connection was up but the request died mid-flight; the batch
    /// may already have been applied, so this is terminal.
    Transport(String),
    /// The server explicitly refused before doing any work — a 409/503
    /// carrying `Retry-After` — and told us when to come back.
    Busy {
        status: u16,
        body: String,
        after: Duration,
    },
    /// Any other rejection is terminal.
    Rejected { status: u16, body: String },
}

impl PostFault {
    fn describe(&self, addr: &str) -> String {
        match self {
            PostFault::Connect(e) => format!("connect {addr}: {e}"),
            PostFault::Transport(e) => format!("{addr}: {e}"),
            PostFault::Busy { status, body, .. } => {
                format!("server busy ({status}): {body}")
            }
            PostFault::Rejected { status, body } => {
                format!("server rejected the batch ({status}): {body}")
            }
        }
    }
}

/// POST a batch to a running server's `/ingest`. Returns the response
/// body on success.
///
/// Ingest is not idempotent — replaying an insert can publish a second
/// epoch — so retries are limited to failures where the batch provably
/// was **not** applied: connect errors (no byte reached the server) and
/// explicit `409`/`503` refusals that carry a `Retry-After` hint (the
/// server rejected the request before doing any work — overload
/// shedding, replication lag). The shared [`RetryPolicy`] paces the
/// retries with capped exponential backoff and full jitter, stretched
/// to the server's `Retry-After` when it asks for longer. A `409`/`503`
/// *without* the hint (a read-only follower, a real conflict) and any
/// error after the connection was up are reported to the caller
/// immediately.
pub fn post_to_server(addr: &str, batch: &DeltaBatch, ts: &str) -> Result<String, String> {
    let target = format!("/ingest?ts={}", percent_encode(ts));
    let body = batch.to_json().compact();
    let policy = RetryPolicy {
        attempts: POST_ATTEMPTS,
        base: POST_BACKOFF,
        cap: POST_MAX_BACKOFF,
        ..RetryPolicy::default()
    };
    let outcome = policy.run(
        None,
        |_| {
            let resp = match http_request(
                addr,
                "POST",
                &target,
                Some(body.as_bytes()),
                Duration::from_secs(60),
            ) {
                Ok(resp) => resp,
                Err(ClientError::Connect(e)) => return Err(PostFault::Connect(e.to_string())),
                Err(e) => return Err(PostFault::Transport(e.to_string())),
            };
            match resp.status {
                409 | 503 => match parse_retry_after(resp.header("retry-after")) {
                    Some(after) => Err(PostFault::Busy {
                        status: resp.status,
                        body: resp.text(),
                        after: after.min(MAX_RETRY_AFTER),
                    }),
                    None => Err(PostFault::Rejected {
                        status: resp.status,
                        body: resp.text(),
                    }),
                },
                _ => Ok(resp),
            }
        },
        |fault| match fault {
            PostFault::Connect(_) | PostFault::Busy { .. } => Outcome::Retryable,
            PostFault::Transport(_) | PostFault::Rejected { .. } => Outcome::Fatal,
        },
        |attempt, fault, sleep| {
            let sleep = match fault {
                PostFault::Busy { after, .. } => sleep.max(*after),
                _ => sleep,
            };
            log_warn!(
                "ingest",
                "{} — retrying in {}ms (attempt {attempt}/{POST_ATTEMPTS})",
                fault.describe(addr),
                sleep.as_millis(),
            );
            sleep
        },
    );
    let resp = outcome.map_err(|fault| fault.describe(addr))?;
    if resp.status != 200 {
        return Err(format!(
            "server rejected the batch ({}): {}",
            resp.status,
            resp.text()
        ));
    }
    Ok(resp.text())
}

/// Apply a batch against a locally generated corpus and report what the
/// equivalent publication would do.
pub fn apply_locally(args: &IngestArgs, batch: &DeltaBatch, ts: &str) -> Result<String, String> {
    let corpus = args.corpus.as_deref().expect("local mode");
    let db = crate::corpus::open(corpus, args.seed)?;
    let banks = Arc::new(Banks::new(db).map_err(|e| e.to_string())?);
    let before_nodes = banks.tuple_graph().node_count();
    let before_edges = banks.tuple_graph().graph().edge_count();

    // Through the same endpoint type the server uses, so local apply and
    // POST /ingest can never drift semantically.
    let service = Arc::new(QueryService::new(banks, ServiceConfig::default()));
    let endpoint = IngestEndpoint::new(Arc::clone(&service));
    let info = endpoint
        .ingest(batch, Some(ts.to_string()))
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "corpus {corpus} (seed {}): epoch {} published — {} ops (+{} / ~{} / -{}), graph {} → {} nodes, {} → {} edges ({})",
        args.seed,
        info.epoch,
        info.ops,
        info.counts.inserted,
        info.counts.updated,
        info.counts.deleted,
        before_nodes,
        info.nodes,
        before_edges,
        info.edges,
        if info.incremental { "incremental" } else { "rebuilt" },
    ))
}

/// Entry point for `banks ingest`.
pub fn run(args: &[String]) -> Result<(), String> {
    let args = IngestArgs::parse(args)?;
    let batch = load_batch(&args)?;
    let ts = args.ts.clone().unwrap_or_else(default_ts);
    log_info!(
        "ingest",
        "{}: {} operations ({})",
        args.file,
        batch.len(),
        args.format
    );
    let report = match &args.server {
        Some(addr) => post_to_server(addr, &batch, &ts)?,
        None => apply_locally(&args, &batch, &ts)?,
    };
    println!("{report}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_modes_and_format_inference() {
        let remote = IngestArgs::parse(&strings(&[
            "--file",
            "d.json",
            "--server",
            "127.0.0.1:7331",
        ]))
        .unwrap();
        assert_eq!(remote.format, "json");
        assert_eq!(remote.server.as_deref(), Some("127.0.0.1:7331"));

        let local = IngestArgs::parse(&strings(&[
            "--file", "d.csv", "--corpus", "dblp", "--seed", "7", "--ts", "t0",
        ]))
        .unwrap();
        assert_eq!(local.format, "csv");
        assert_eq!(local.corpus.as_deref(), Some("dblp"));
        assert_eq!(local.seed, 7);
        assert_eq!(local.ts.as_deref(), Some("t0"));

        // Explicit format overrides the extension.
        let forced = IngestArgs::parse(&strings(&[
            "--file", "d.txt", "--format", "csv", "--corpus", "dblp",
        ]))
        .unwrap();
        assert_eq!(forced.format, "csv");
    }

    #[test]
    fn parse_rejects_bad_combinations() {
        assert!(IngestArgs::parse(&strings(&["--file", "d.json"])).is_err());
        assert!(IngestArgs::parse(&strings(&[
            "--file", "d.json", "--server", "x", "--corpus", "dblp"
        ]))
        .is_err());
        assert!(IngestArgs::parse(&strings(&["--server", "x"])).is_err());
        assert!(IngestArgs::parse(&strings(&[
            "--file", "d.json", "--corpus", "dblp", "--format", "xml"
        ]))
        .is_err());
        assert!(IngestArgs::parse(&strings(&["--file"])).is_err());
        assert!(IngestArgs::parse(&strings(&["--wat"])).is_err());
    }

    #[test]
    fn local_apply_publishes_an_epoch() {
        let path =
            std::env::temp_dir().join(format!("banks_ingest_cli_{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{"ops":[
                {"op":"insert","relation":"Author",
                 "values":["CliAuthor","Cli Test Author"]}
            ]}"#,
        )
        .unwrap();
        let args = IngestArgs::parse(&strings(&[
            "--file",
            path.to_str().unwrap(),
            "--corpus",
            "dblp",
        ]))
        .unwrap();
        let batch = load_batch(&args).unwrap();
        let report = apply_locally(&args, &batch, "t-test").unwrap();
        assert!(report.contains("epoch 1"), "{report}");
        assert!(report.contains("incremental"), "{report}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ts_is_url_encoded() {
        assert_eq!(percent_encode("1753880000"), "1753880000");
        assert_eq!(
            percent_encode("2026-07-30 12:00&x=1"),
            "2026-07-30%2012%3A00%26x%3D1"
        );
        assert_eq!(percent_encode("t~0_a.b-c"), "t~0_a.b-c");
    }

    fn tiny_batch() -> DeltaBatch {
        DeltaBatch::from_json(
            r#"{"ops":[{"op":"insert","relation":"Author",
                        "values":["RetryAuthor","Retry Author"]}]}"#,
        )
        .unwrap()
    }

    /// Answer one request on `stream`: read it whole (headers, then
    /// `Content-Length` body bytes) before replying, since closing a
    /// socket with request bytes still unread sends an RST that can
    /// reach the client before the response does.
    fn respond(stream: &mut std::net::TcpStream, status: &str, extra: &str, body: &str) {
        use std::io::{Read, Write};
        let mut request = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(end) = request.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&request[..end]).to_ascii_lowercase();
                let body_len = head
                    .lines()
                    .find_map(|line| line.strip_prefix("content-length:"))
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .unwrap_or(0);
                if request.len() >= end + 4 + body_len {
                    break;
                }
            }
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => request.extend_from_slice(&buf[..n]),
            }
        }
        let _ = write!(
            stream,
            "HTTP/1.1 {status}\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n{body}",
            body.len()
        );
    }

    /// Serve exactly one canned HTTP response on `listener`.
    fn answer_once(listener: std::net::TcpListener, status: &'static str, body: &'static str) {
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            respond(&mut stream, status, "", body);
        });
    }

    #[test]
    fn post_retries_connection_refused_then_succeeds() {
        // Reserve a port, then close it: the first attempt is refused
        // (nothing sent — safe to retry), and a listener comes up before
        // the backoff expires.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let rebind = addr.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let listener = std::net::TcpListener::bind(&rebind).unwrap();
            answer_once(listener, "200 OK", "epoch 1 published");
        });
        let out = post_to_server(&addr, &tiny_batch(), "t0").unwrap();
        assert_eq!(out, "epoch 1 published");
    }

    /// Serve a fixed sequence of canned responses, one per connection.
    /// `retry_after` adds a `Retry-After` header to that response.
    fn answer_sequence(
        listener: std::net::TcpListener,
        responses: Vec<(&'static str, &'static str, Option<&'static str>)>,
    ) {
        std::thread::spawn(move || {
            for (status, body, retry_after) in responses {
                let (mut stream, _) = listener.accept().unwrap();
                let extra = retry_after
                    .map(|v| format!("Retry-After: {v}\r\n"))
                    .unwrap_or_default();
                respond(&mut stream, status, &extra, body);
            }
        });
    }

    #[test]
    fn post_honors_retry_after_on_503_then_succeeds() {
        // A 503 *with* Retry-After means "rejected before any work, come
        // back" — the client must retry and then succeed.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        answer_sequence(
            listener,
            vec![
                ("503 Service Unavailable", "shedding", Some("0")),
                ("200 OK", "epoch 2 published", None),
            ],
        );
        let out = post_to_server(&addr, &tiny_batch(), "t0").unwrap();
        assert_eq!(out, "epoch 2 published");
    }

    #[test]
    fn post_treats_409_without_retry_after_as_fatal() {
        // A 409 with no Retry-After is a real conflict, not backpressure:
        // one canned response — a retry would hang on accept.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        answer_sequence(listener, vec![("409 Conflict", "stale epoch", None)]);
        let err = post_to_server(&addr, &tiny_batch(), "t0").unwrap_err();
        assert!(err.contains("409"), "{err}");
        assert!(err.contains("stale epoch"), "{err}");
    }

    #[test]
    fn post_does_not_retry_a_server_rejection() {
        // One canned 503: if the client retried, the second attempt
        // would hang on accept — an immediate error proves it didn't.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        answer_once(listener, "503 Service Unavailable", "read-only");
        let err = post_to_server(&addr, &tiny_batch(), "t0").unwrap_err();
        assert!(err.contains("503"), "{err}");
        assert!(err.contains("read-only"), "{err}");
    }

    #[test]
    fn load_batch_reports_errors() {
        let args = IngestArgs::parse(&strings(&[
            "--file",
            "/nonexistent/deltas.json",
            "--corpus",
            "dblp",
        ]))
        .unwrap();
        assert!(load_batch(&args).is_err());
    }
}
