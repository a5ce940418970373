//! The std-only HTTP/1.1 JSON front end.
//!
//! The listener, worker pool and request framing (`431`, `400`, `413`)
//! are [`banks_util::http::HttpServer`], shared with `banks route`. This
//! module is the handler: admission control (shedding, rate limits,
//! deadlines), per-endpoint metrics, and the routes below, answered from
//! the shared [`QueryService`] (or the [`IngestEndpoint`] write path).
//!
//! | route | parameters | response |
//! |---|---|---|
//! | `GET /search` | `q` (required), `limit`, `strategy` = `backward`\|`forward` | ranked connection trees + serving epoch |
//! | `GET /node` | `id` (graph node id) | the tuple behind one graph node |
//! | `GET /stats` | — | cache + service + graph counters, snapshot epoch |
//! | `GET /epochs` | — | current epoch + recent publication history |
//! | `POST /ingest` | `ts` (caller timestamp); body = delta JSON | publishes a new epoch |
//! | `GET /health` | — | liveness probe + current epoch, build version, uptime |
//! | `GET /metrics` | — | Prometheus text exposition (format 0.0.4) |
//! | `GET /debug/slow` | `limit` | worst cold queries with per-phase span breakdowns |
//! | `GET /replication/snapshot` | — | newest snapshot bundle, raw bytes (`X-Banks-Epoch` header) |
//! | `GET /replication/wal` | `from_epoch` (required), `wait_ms` | WAL frames past `from_epoch`, raw bytes; long-polls; `410` when compacted away |
//!
//! `/search` additionally accepts `min_epoch` (+ `wait_ms`): the
//! read-your-writes barrier for followers — wait until the serving epoch
//! reaches it, else `409` with a `Retry-After` header and a leader
//! redirect hint. `trace=1` adds a `trace` section with the per-phase
//! span breakdown of the result's cold run.
//!
//! The replication endpoints serve the **on-disk byte formats verbatim**
//! (bundle file, WAL frames), so a follower persists and parses exactly
//! what recovery would.

use crate::ingest::{epoch_info_json, IngestEndpoint};
use crate::metrics::{
    install_queue_metrics, install_service_metrics, install_store_metrics, ServerMetrics,
};
use crate::service::{QueryOptions, QueryService};
use banks_core::SearchStrategy;
use banks_graph::NodeId;
use banks_ingest::DeltaBatch;
use banks_telemetry::Registry;
use banks_util::http::{
    parse_query_string, query_param, HttpServer, ListenConfig, Request, Response,
    HEADER_READ_TIMEOUT, MAX_BODY_BYTES,
};
use banks_util::json::Json;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// HTTP server options.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the default, for tests).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Pending-connection queue depth before accepts block.
    pub backlog: usize,
    /// Where writes really go, when this server is a replication
    /// follower: surfaced as the `leader` redirect hint on `min_epoch`
    /// 409s and on rejected `POST /ingest`.
    pub leader_hint: Option<String>,
    /// Hard cap on a request body (`--max-body-bytes`; only
    /// `POST /ingest` uses one); larger declared bodies are rejected
    /// with 413 before any read.
    pub max_body_bytes: u64,
    /// Deadline budget granted to a request that does not carry an
    /// `X-Banks-Deadline-Ms` header (`--default-deadline-ms`). `None`
    /// disables deadlines for unannotated requests.
    pub default_deadline_ms: Option<u64>,
    /// Cap on a client-supplied `X-Banks-Deadline-Ms` budget, so a
    /// client cannot grant itself an unbounded hold on a worker.
    pub max_deadline_ms: u64,
    /// Admission bound: a request that waited longer than this between
    /// accept and its handler (queue plus head read) is shed with a
    /// `503` and `Retry-After` instead of being served (the work it
    /// would trigger is already late, and the clients behind it are
    /// better served by fast failure). `/health` and `/metrics` are
    /// exempt.
    pub shed_after: Duration,
    /// Per-client (peer IP) token-bucket rate limit in requests/second;
    /// over-limit requests get `429` + `Retry-After`. `None` (the
    /// default) disables rate limiting. `/health` and `/metrics` are
    /// exempt.
    pub rate_limit_rps: Option<f64>,
    /// Budget for reading the request line + headers. A slowloris-style
    /// client that trickles header bytes is cut off after this long
    /// instead of pinning a worker for the full request timeout.
    pub header_read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            backlog: 256,
            leader_hint: None,
            max_body_bytes: MAX_BODY_BYTES,
            default_deadline_ms: None,
            max_deadline_ms: 60_000,
            shed_after: Duration::from_secs(5),
            rate_limit_rps: None,
            header_read_timeout: HEADER_READ_TIMEOUT,
        }
    }
}

/// A running HTTP server; dropping it shuts the server down.
pub struct BanksServer {
    http: HttpServer,
}

impl BanksServer {
    /// Bind and start serving on background threads. `ingest` is the
    /// write path (without it `POST /ingest` answers 503). `store` backs
    /// the persistence counters and replication feeds when no `ingest`
    /// carries one (durable read-only servers, followers); it wins when
    /// both do. `registry` may carry extra collectors (a follower's
    /// replication counters); `None` means a fresh one.
    pub fn bind(
        service: Arc<QueryService>,
        ingest: Option<Arc<IngestEndpoint>>,
        store: Option<Arc<banks_persist::PersistentStore>>,
        registry: Option<Arc<Registry>>,
        config: ServerConfig,
    ) -> std::io::Result<BanksServer> {
        let metrics = ServerMetrics::new(registry.unwrap_or_default());
        install_service_metrics(metrics.registry(), Arc::clone(&service));
        // `/stats` resolves the durable store the same way: explicit
        // binding first, else the one riding inside the ingest endpoint.
        let metric_store = store
            .clone()
            .or_else(|| ingest.as_ref().and_then(|i| i.store().cloned()));
        if let Some(store) = metric_store {
            install_store_metrics(metrics.registry(), store);
        }
        let registry = Arc::clone(metrics.registry());

        let listen = ListenConfig {
            addr: config.addr.clone(),
            workers: config.workers,
            backlog: config.backlog,
            max_body_bytes: config.max_body_bytes,
            header_read_timeout: config.header_read_timeout,
            name: "banks-http",
        };
        let shared = Shared {
            service,
            ingest,
            store,
            metrics,
            started: Instant::now(),
            limiter: config.rate_limit_rps.map(RateLimiter::new),
            config,
        };
        let http = HttpServer::bind(&listen, move |request| handle(request, &shared))?;
        install_queue_metrics(&registry, http.queue_depth());
        Ok(BanksServer { http })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// Signal shutdown and wait for all threads to finish.
    pub fn shutdown(self) {
        self.http.shutdown();
    }

    /// Block until the server is shut down from another thread (the CLI
    /// foreground mode).
    pub fn join(self) {
        self.http.join();
    }
}

/// Everything a worker needs to answer any route, shared once per server.
struct Shared {
    service: Arc<QueryService>,
    ingest: Option<Arc<IngestEndpoint>>,
    store: Option<Arc<banks_persist::PersistentStore>>,
    metrics: ServerMetrics,
    /// Bind time, for `/health`'s `uptime_s`.
    started: Instant,
    limiter: Option<RateLimiter>,
    config: ServerConfig,
}

/// Per-client token-bucket rate limiter, keyed by peer IP.
///
/// Buckets refill continuously at `rps` and hold at most `burst`
/// tokens (2× the rate, min 1), so a client gets a small surge
/// allowance but sustained traffic is clamped to the configured rate.
struct RateLimiter {
    rps: f64,
    burst: f64,
    buckets: Mutex<std::collections::HashMap<std::net::IpAddr, (f64, Instant)>>,
}

impl RateLimiter {
    /// Keys retained before the table is reset — an address-spoofing
    /// flood must not grow server memory without bound. Resetting hands
    /// every live client a fresh burst once, which is acceptable
    /// exactly because it takes tens of thousands of distinct IPs.
    const MAX_TRACKED_CLIENTS: usize = 65_536;

    fn new(rps: f64) -> RateLimiter {
        RateLimiter {
            rps: rps.max(f64::MIN_POSITIVE),
            burst: (rps * 2.0).max(1.0),
            buckets: Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Take one token for `ip`; `false` means over limit (429).
    fn admit(&self, ip: std::net::IpAddr) -> bool {
        let now = Instant::now();
        let mut buckets = self.buckets.lock().expect("rate limiter lock");
        if buckets.len() >= Self::MAX_TRACKED_CLIENTS && !buckets.contains_key(&ip) {
            buckets.clear();
        }
        let (tokens, last) = buckets.entry(ip).or_insert((self.burst, now));
        *tokens = (*tokens + now.duration_since(*last).as_secs_f64() * self.rps).min(self.burst);
        *last = now;
        if *tokens >= 1.0 {
            *tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Seconds until one token exists again, for `Retry-After`.
    fn retry_after_secs(&self) -> u64 {
        (1.0 / self.rps).ceil().max(1.0) as u64
    }
}

/// Longest a long-polling route (`/replication/wal`, `min_epoch` search)
/// may park before answering with whatever state exists.
const MAX_WAIT_MS: u64 = 30_000;

/// Raw bytes stamped with the epoch they represent — even an empty WAL
/// range carries `X-Banks-Epoch`, which is how a caught-up follower
/// learns the leader's durable epoch without a second request.
fn bytes_response(epoch: u64, body: Vec<u8>) -> Response {
    Response::new(200, "application/octet-stream", body)
        .with_header("X-Banks-Epoch", epoch.to_string())
}

/// Admission control, routing and per-endpoint accounting for one
/// request.
fn handle(request: Request, shared: &Shared) -> Response {
    let t0 = Instant::now();
    let queue_wait = t0.duration_since(request.enqueued_at);
    let path = request.path();
    // Probes and scrapes are exempt from every admission control: an
    // overloaded server must stay observable (and must not be restarted
    // by a health-checker that mistakes shedding for death).
    let exempt = path == "/health" || path == "/metrics";

    // The request's absolute deadline, anchored at *accept* time —
    // queue wait spends the same budget that searching does. A
    // client-supplied budget is capped; without one, the configured
    // default (if any) applies.
    let deadline = request
        .header("x-banks-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map(|ms| ms.min(shared.config.max_deadline_ms))
        .or(shared.config.default_deadline_ms)
        .map(|ms| request.enqueued_at + Duration::from_millis(ms));

    let response = if !exempt && queue_wait > shared.config.shed_after {
        // Load shedding: this connection already waited so long that
        // serving it would only delay everything behind it further.
        shared.metrics.shed_total.inc();
        Response::error(503, "server overloaded, request shed")
            .with_header("Retry-After", "1".to_string())
    } else if let Some(limiter) = shared
        .limiter
        .as_ref()
        .filter(|_| !exempt)
        .filter(|l| !request.peer.is_none_or(|ip| l.admit(ip)))
    {
        shared.metrics.rate_limited_total.inc();
        Response::error(429, "client rate limit exceeded")
            .with_header("Retry-After", limiter.retry_after_secs().to_string())
    } else if !exempt && deadline.is_some_and(|d| Instant::now() >= d) {
        // The budget lapsed before any work started (queue wait ate
        // it); answering 504 now is strictly cheaper than searching.
        shared.metrics.deadline_exceeded_total.inc();
        Response::error(504, "deadline exceeded before processing")
            .with_header("Retry-After", "1".to_string())
    } else {
        route(&request, deadline, shared)
    };
    // Per-endpoint accounting: handler entry through computed response
    // (client write time excluded — a slow reader is not server time).
    let endpoint = shared.metrics.endpoint(path);
    endpoint.requests.inc();
    endpoint.latency.record_duration(t0.elapsed());
    response
}

fn route(request: &Request, deadline: Option<Instant>, shared: &Shared) -> Response {
    let service = shared.service.as_ref();
    let ingest = shared.ingest.as_deref();
    let store = shared.store.as_deref();
    let path = request.path();
    let params = parse_query_string(request.query());
    match (request.method.as_str(), path) {
        // Invalid UTF-8 is rejected rather than replaced: the delta would
        // otherwise publish corrupted text.
        ("POST", "/ingest") => match std::str::from_utf8(&request.body) {
            Ok(body) => handle_ingest(&params, body, ingest, shared),
            Err(_) => Response::error(400, "request body is not valid UTF-8"),
        },
        (_, "/ingest") => Response::error(405, "/ingest requires POST"),
        ("GET", _) => match path {
            "/search" => handle_search(&params, deadline, service, shared),
            "/node" => handle_node(&params, service),
            "/stats" => Response::json(200, stats_json(service, ingest, store).compact()),
            "/epochs" => handle_epochs(service, ingest),
            // The epoch rides in the liveness probe so a router can
            // track staleness with the request it already makes; the
            // build identity and uptime make probe output self-locating.
            "/health" => Response::json(
                200,
                Json::obj([
                    ("status", Json::Str("ok".into())),
                    ("epoch", Json::Uint(service.epoch())),
                    ("version", Json::Str(banks_util::build::version())),
                    ("uptime_s", Json::Uint(shared.started.elapsed().as_secs())),
                ])
                .compact(),
            ),
            "/metrics" => Response::metrics(shared.metrics.registry().render()),
            "/debug/slow" => handle_slow(&params, service),
            "/replication/snapshot" | "/replication/wal" => match store {
                None => Response::error(
                    503,
                    "replication requires a data directory (serve --data-dir)",
                ),
                Some(store) if path == "/replication/wal" => handle_replication_wal(&params, store),
                Some(store) => handle_replication_snapshot(store),
            },
            _ => Response::error(404, "unknown path"),
        },
        _ => Response::error(405, "only GET is supported"),
    }
}

fn handle_ingest(
    params: &[(String, String)],
    request_body: &str,
    ingest: Option<&IngestEndpoint>,
    shared: &Shared,
) -> Response {
    let Some(endpoint) = ingest else {
        // A follower (or read-only server) points writers at the leader.
        let mut fields = vec![("error", Json::Str("ingestion is disabled".into()))];
        if let Some(leader) = &shared.config.leader_hint {
            fields.push(("leader", Json::Str(leader.clone())));
        }
        return Response::json(503, Json::obj(fields).compact());
    };
    let batch = match DeltaBatch::from_json(request_body) {
        Ok(batch) => batch,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    if batch.is_empty() {
        // Malformed request, not a data conflict: 409 is reserved for
        // batches the current database rejects.
        return Response::error(400, "empty delta batch");
    }
    let published_at = query_param(params, "ts")
        .filter(|ts| !ts.is_empty())
        .map(str::to_string);
    match endpoint.ingest(&batch, published_at) {
        Ok(info) => Response::json(200, epoch_info_json(&info).compact()),
        Err(e) => Response::error(409, &e.to_string()),
    }
}

fn handle_epochs(service: &QueryService, ingest: Option<&IngestEndpoint>) -> Response {
    let doc = match ingest {
        Some(endpoint) => endpoint.epochs_json(),
        None => Json::obj([
            ("epoch", Json::Uint(service.epoch())),
            ("history", Json::Arr(Vec::new())),
        ]),
    };
    Response::json(200, doc.compact())
}

/// The follower-bootstrap feed: the newest snapshot bundle, byte for
/// byte as it sits on disk, stamped with its epoch.
fn handle_replication_snapshot(store: &banks_persist::PersistentStore) -> Response {
    match store.newest_snapshot() {
        Ok((epoch, bytes)) => bytes_response(epoch, bytes),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// The WAL tail feed: raw frames past `from_epoch`, long-polling up to
/// `wait_ms` when the follower is already caught up. `410 Gone` means
/// compaction dropped a needed frame — re-bootstrap from the snapshot.
fn handle_replication_wal(
    params: &[(String, String)],
    store: &banks_persist::PersistentStore,
) -> Response {
    let Some(from_epoch) = query_param(params, "from_epoch").and_then(|v| v.parse::<u64>().ok())
    else {
        return Response::error(400, "missing or invalid required parameter `from_epoch`");
    };
    let wait_ms = query_param(params, "wait_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
        .min(MAX_WAIT_MS);
    let mut range = store.wal_since(from_epoch);
    if wait_ms > 0 && matches!(&range, Ok(Some(bytes)) if bytes.is_empty()) {
        // Caught up: park until a write lands (or the window closes),
        // then re-read — the long-poll half of the protocol.
        store.wait_past_epoch(from_epoch, Duration::from_millis(wait_ms));
        range = store.wal_since(from_epoch);
    }
    match range {
        Ok(Some(bytes)) => bytes_response(store.durable_epoch(), bytes),
        Ok(None) => Response::json(
            410,
            Json::obj([
                (
                    "error",
                    Json::Str(format!(
                        "WAL frames past epoch {from_epoch} were compacted away; \
                         re-bootstrap from /replication/snapshot"
                    )),
                ),
                ("from_epoch", Json::Uint(from_epoch)),
            ])
            .compact(),
        )
        .with_header("X-Banks-Epoch", store.durable_epoch().to_string()),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

fn handle_search(
    params: &[(String, String)],
    deadline: Option<Instant>,
    service: &QueryService,
    shared: &Shared,
) -> Response {
    let Some(q) = query_param(params, "q") else {
        return Response::error(400, "missing required parameter `q`");
    };
    // Read-your-writes: a client that saw the leader ack epoch N asks a
    // follower for `min_epoch=N` and parks (bounded) until the tailer
    // catches up. On timeout: 409 + Retry-After + a leader hint, never a
    // silently stale answer.
    if let Some(raw) = query_param(params, "min_epoch").filter(|v| !v.is_empty()) {
        let Ok(min_epoch) = raw.parse::<u64>() else {
            return Response::error(400, "min_epoch must be an unsigned integer");
        };
        let wait_ms = query_param(params, "wait_ms")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(2_000)
            .min(MAX_WAIT_MS);
        let reached = service.wait_for_min_epoch(min_epoch, Duration::from_millis(wait_ms));
        if reached < min_epoch {
            let mut fields = vec![
                (
                    "error",
                    Json::Str(format!(
                        "serving epoch {reached} has not reached min_epoch {min_epoch}"
                    )),
                ),
                ("epoch", Json::Uint(reached)),
                ("min_epoch", Json::Uint(min_epoch)),
            ];
            if let Some(leader) = &shared.config.leader_hint {
                fields.push(("leader", Json::Str(leader.clone())));
            }
            return Response::json(409, Json::obj(fields).compact())
                .with_header("Retry-After", "1".to_string());
        }
    }
    let strategy = match query_param(params, "strategy") {
        None | Some("") | Some("backward") => SearchStrategy::Backward,
        Some("forward") => SearchStrategy::Forward,
        Some(other) => {
            return Response::error(
                400,
                &format!("unknown strategy `{other}` (backward|forward)"),
            )
        }
    };
    let limit = match query_param(params, "limit") {
        None | Some("") => None,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => return Response::error(400, "limit must be a positive integer"),
        },
    };
    let trace = matches!(query_param(params, "trace"), Some("1") | Some("true"));

    let response = match service.search(
        q,
        QueryOptions {
            strategy,
            limit,
            trace,
            deadline,
        },
    ) {
        Ok(response) => response,
        Err(e) => return Response::error(400, &e.to_string()),
    };

    // Deadline semantics: an expired search that still produced answers
    // returns them flagged `partial: true` (the prefix is correct, just
    // incomplete); an expired search with nothing to show is a 504 —
    // there is no useful body and the client should retry with a larger
    // budget or against a less loaded node.
    let partial = response.result.stats.deadline_expirations > 0;
    if partial {
        shared.metrics.deadline_exceeded_total.inc();
        if response.result.answers.is_empty() {
            return Response::error(504, "deadline exceeded during search")
                .with_header("Retry-After", "1".to_string());
        }
    }

    // The heavy part of the body — rendered trees and search counters —
    // is identical for every request reading this cache entry. A miss
    // renders it for its own response only: most cold results are never
    // read again, and holding their JSON would multiply the cache's
    // memory. The first hit renders it again and memoizes it on the
    // entry, so later hits only build the small volatile envelope around
    // it. Rendering goes through the snapshot that produced the result
    // (`response.banks`): node ids are snapshot-relative, and the current
    // snapshot may already be a newer epoch by the time this executes.
    let render_t0 = Instant::now();
    let rendered;
    let fragment: &str = if response.cached {
        response
            .result
            .http_fragment
            .get_or_init(|| answers_fragment(&response.banks, &response.result).into())
    } else {
        rendered = answers_fragment(&response.banks, &response.result);
        &rendered
    };
    let render_ns = render_t0.elapsed().as_nanos() as u64;

    let mut fields = vec![
        ("query", Json::Str(q.to_string())),
        (
            "normalized",
            Json::Arr(
                response
                    .key
                    .terms
                    .iter()
                    .map(|t| Json::Str(t.clone()))
                    .collect(),
            ),
        ),
        ("cached", Json::Bool(response.cached)),
        ("partial", Json::Bool(partial)),
        ("epoch", Json::Uint(response.epoch)),
        (
            "elapsed_us",
            Json::Uint(response.elapsed.as_micros() as u64),
        ),
        (
            "cold_elapsed_us",
            Json::Uint(response.result.cold_elapsed.as_micros() as u64),
        ),
    ];
    if trace {
        // The spans describe the *cold* run that produced this result —
        // on a hit, that run happened earlier; `render_ns` is this
        // request's own serialization cost (non-zero on a miss and on
        // the first hit, memoized away after that).
        fields.push((
            "trace",
            Json::obj([
                ("spans", spans_json(&response.result.spans)),
                ("render_ns", Json::Uint(render_ns)),
            ]),
        ));
    }
    let volatile = Json::obj(fields).compact();
    // Splice: `{volatile…,fragment…}`.
    let body = format!("{},{fragment}}}", &volatile[..volatile.len() - 1]);
    Response::json(200, body)
}

fn spans_json(spans: &[banks_telemetry::Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("index", Json::Uint(s.index as u64)),
                    ("start_ns", Json::Uint(s.start_ns)),
                    ("end_ns", Json::Uint(s.end_ns)),
                ])
            })
            .collect(),
    )
}

/// `GET /debug/slow`: the worst cold queries with span breakdowns,
/// slowest first. `limit` trims the list (default: everything retained).
fn handle_slow(params: &[(String, String)], service: &QueryService) -> Response {
    let limit = query_param(params, "limit")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(usize::MAX);
    let mut entries = service.slow_log().snapshot();
    entries.truncate(limit);
    let body = Json::obj([
        ("capacity", Json::Uint(service.slow_log().capacity() as u64)),
        ("count", Json::Uint(entries.len() as u64)),
        (
            "slowest",
            Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("query", Json::Str(e.query.clone())),
                            ("total_us", Json::Uint(e.total_us)),
                            ("epoch", Json::Uint(e.epoch)),
                            ("unix_ms", Json::Uint(e.unix_ms)),
                            ("spans", spans_json(&e.spans)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Response::json(200, body.compact())
}

/// Serialize the cacheable part of a search response:
/// `"count":…,"answers":[…],"search_stats":{…}` (no braces), against
/// the snapshot that computed it.
fn answers_fragment(banks: &banks_core::Banks, result: &crate::service::CachedResult) -> String {
    let answers: Vec<Json> = result
        .answers
        .iter()
        .enumerate()
        .map(|(rank, answer)| {
            let tree = &answer.tree;
            Json::obj([
                ("rank", Json::Uint(rank as u64 + 1)),
                ("relevance", Json::Num(answer.relevance)),
                ("root", node_json(banks, tree.root)),
                ("weight", Json::Num(tree.weight)),
                (
                    "keyword_nodes",
                    Json::Arr(
                        tree.keyword_nodes
                            .iter()
                            .map(|n| Json::Uint(n.0 as u64))
                            .collect(),
                    ),
                ),
                (
                    "edges",
                    Json::Arr(
                        tree.edges
                            .iter()
                            .map(|&(f, t, w)| {
                                Json::Arr(vec![
                                    Json::Uint(f.0 as u64),
                                    Json::Uint(t.0 as u64),
                                    Json::Num(w),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("rendered", Json::Str(banks.render_answer(answer))),
            ])
        })
        .collect();
    let stats = &result.stats;
    format!(
        r#""count":{},"answers":{},"search_stats":{}"#,
        answers.len(),
        Json::Arr(answers).compact(),
        Json::obj([
            ("iterators", Json::Uint(stats.iterators as u64)),
            ("pops", Json::Uint(stats.pops as u64)),
            ("trees_generated", Json::Uint(stats.trees_generated as u64)),
            ("trees_emitted", Json::Uint(stats.trees_emitted as u64)),
            ("early_terminated", Json::Bool(stats.early_terminations > 0),),
        ])
        .compact(),
    )
}

fn handle_node(params: &[(String, String)], service: &QueryService) -> Response {
    let Some(raw) = query_param(params, "id") else {
        return Response::error(400, "missing required parameter `id`");
    };
    let Ok(id) = raw.parse::<u32>() else {
        return Response::error(400, "id must be a graph node id (u32)");
    };
    // Pin one snapshot for both the bounds check and the rendering.
    let banks = service.banks();
    if (id as usize) >= banks.tuple_graph().node_count() {
        return Response::error(404, "no such node");
    }
    Response::json(200, node_json(&banks, NodeId(id)).compact())
}

/// JSON description of one graph node: its tuple, relation, prestige,
/// and connectivity — enough for a client to browse the neighbourhood.
fn node_json(banks: &banks_core::Banks, node: NodeId) -> Json {
    let tg = banks.tuple_graph();
    let graph = tg.graph();
    let rid = tg.rid(node);
    let table = banks.db().table(rid.relation);
    let values: Vec<Json> = match banks.db().tuple(rid) {
        Ok(tuple) => tuple
            .values()
            .iter()
            .map(|v| Json::Str(v.to_string()))
            .collect(),
        Err(_) => Vec::new(),
    };
    Json::obj([
        ("id", Json::Uint(node.0 as u64)),
        ("relation", Json::Str(table.schema().name.clone())),
        ("slot", Json::Uint(rid.slot as u64)),
        ("values", Json::Arr(values)),
        ("prestige", Json::Num(graph.node_weight(node))),
        ("in_degree", Json::Uint(graph.in_degree(node) as u64)),
        ("out_degree", Json::Uint(graph.out_degree(node) as u64)),
    ])
}

fn stats_json(
    service: &QueryService,
    ingest: Option<&IngestEndpoint>,
    store: Option<&banks_persist::PersistentStore>,
) -> Json {
    // One atomic counter snapshot + the snapshot it was read against.
    // Storage figures below reuse `banks` instead of re-pinning the
    // current snapshot, so the document can't mix two epochs when a
    // publish lands mid-request.
    let (stats, banks) = service.stats_with_snapshot();
    let mut doc = Json::obj([
        ("queries", Json::Uint(stats.queries)),
        ("errors", Json::Uint(stats.errors)),
        ("epoch", Json::Uint(stats.epoch)),
        (
            "last_publish",
            match &stats.last_publish {
                Some(ts) => Json::Str(ts.clone()),
                None => Json::Null,
            },
        ),
        (
            "last_publish_unix_ms",
            match stats.last_publish_unix_ms {
                Some(ms) => Json::Uint(ms),
                None => Json::Null,
            },
        ),
        (
            "epoch_lag",
            match stats.epoch_lag {
                Some(lag) => Json::Uint(lag),
                None => Json::Null,
            },
        ),
        (
            "cache",
            Json::obj([
                ("hits", Json::Uint(stats.cache.hits)),
                ("misses", Json::Uint(stats.cache.misses)),
                ("insertions", Json::Uint(stats.cache.insertions)),
                ("evictions", Json::Uint(stats.cache.evictions)),
                ("invalidations", Json::Uint(stats.cache.invalidations)),
                ("entries", Json::Uint(stats.cache.entries as u64)),
                ("capacity", Json::Uint(stats.cache.capacity as u64)),
                ("bytes", Json::Uint(stats.cache_bytes as u64)),
                ("hit_ratio", Json::Num(stats.cache.hit_ratio())),
                (
                    "invalidations_by_epoch",
                    Json::Obj(
                        stats
                            .invalidations_by_epoch
                            .iter()
                            .map(|&(e, n)| (e.to_string(), Json::Uint(n)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "graph",
            Json::obj([
                ("nodes", Json::Uint(stats.graph_nodes as u64)),
                ("edges", Json::Uint(stats.graph_edges as u64)),
                ("memory_bytes", Json::Uint(stats.memory_bytes as u64)),
            ]),
        ),
        ("early_terminations", Json::Uint(stats.early_terminations)),
        ("uptime_secs", Json::Num(stats.uptime_secs)),
    ]);
    // Storage backend: how the stats snapshot holds its graph and
    // text index. In-RAM is the classic fully-decoded backend; a paged
    // backend (serve --paged) reports its budget and paging counters.
    {
        let storage = match banks.tuple_graph().graph().storage_stats() {
            Some(s) => {
                let mut pairs = vec![
                    ("backend".to_string(), Json::Str("paged".into())),
                    (
                        "budget_bytes".to_string(),
                        Json::Uint(s.budget_bytes as u64),
                    ),
                    (
                        "resident_bytes".to_string(),
                        Json::Uint(s.resident_bytes as u64),
                    ),
                    (
                        "segments".to_string(),
                        Json::obj([
                            ("total", Json::Uint(s.segment_count as u64)),
                            ("resident", Json::Uint(s.resident_segments as u64)),
                        ]),
                    ),
                    ("page_ins".to_string(), Json::Uint(s.page_ins)),
                    ("evictions".to_string(), Json::Uint(s.evictions)),
                    (
                        "decode_micros".to_string(),
                        Json::Uint(s.decode_nanos / 1_000),
                    ),
                ];
                if let Some((cached, total, cached_bytes)) = banks.text_index().lazy_cache_stats() {
                    pairs.push((
                        "text_index".to_string(),
                        Json::obj([
                            ("cached_terms", Json::Uint(cached as u64)),
                            ("total_terms", Json::Uint(total as u64)),
                            ("cached_bytes", Json::Uint(cached_bytes as u64)),
                        ]),
                    ));
                }
                // Lazy tuple store (v3 bundles): block residency in the
                // same page cache (and budget) as the graph segments.
                if let Some(t) = banks.db().tuple_store_stats() {
                    pairs.push((
                        "tuples".to_string(),
                        Json::obj([
                            ("resident_bytes", Json::Uint(t.resident_bytes as u64)),
                            (
                                "blocks",
                                Json::obj([
                                    ("total", Json::Uint(t.block_count as u64)),
                                    ("resident", Json::Uint(t.resident_blocks as u64)),
                                ]),
                            ),
                            ("page_ins", Json::Uint(t.page_ins)),
                            ("evictions", Json::Uint(t.evictions)),
                            ("decode_micros", Json::Uint(t.decode_nanos / 1_000)),
                        ]),
                    ));
                }
                Json::Obj(pairs)
            }
            None => Json::obj([("backend", Json::Str("in-ram".into()))]),
        };
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("storage".to_string(), storage));
        }
    }
    // Persistence counters, when the server runs with a data directory
    // — either via the write path's store or (durable read-only mode)
    // the explicitly bound one.
    if let Some(store) = store.or_else(|| ingest.and_then(|i| i.store().map(Arc::as_ref))) {
        let p = store.stats();
        let section = Json::obj([
            ("wal_bytes", Json::Uint(p.wal_bytes)),
            ("wal_batches", Json::Uint(p.wal_batches)),
            ("compactions", Json::Uint(p.compactions)),
            (
                "last_compaction",
                match p.last_compaction_epoch {
                    Some(e) => Json::Uint(e),
                    None => Json::Null,
                },
            ),
            (
                "recovered_epoch",
                match p.recovered_epoch {
                    Some(e) => Json::Uint(e),
                    None => Json::Null,
                },
            ),
            ("replayed_batches", Json::Uint(p.replayed_batches)),
            ("truncated_wal_bytes", Json::Uint(p.truncated_wal_bytes)),
            ("fsync", Json::Bool(p.fsync)),
            ("fsync_count", Json::Uint(p.fsync_count)),
            ("fsync_us", Json::Uint(p.fsync_nanos / 1_000)),
        ]);
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("persistence".to_string(), section));
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use banks_core::Banks;
    use banks_storage::{ColumnType, Database, RelationSchema, Value};
    use banks_util::http::{http_request, HttpResponse};

    fn dblp() -> Database {
        let mut db = Database::new("dblp");
        db.create_relation(
            RelationSchema::builder("Author")
                .column("AuthorId", ColumnType::Text)
                .column("AuthorName", ColumnType::Text)
                .primary_key(&["AuthorId"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("PaperId", ColumnType::Text)
                .column("PaperName", ColumnType::Text)
                .primary_key(&["PaperId"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Writes")
                .column("AuthorId", ColumnType::Text)
                .column("PaperId", ColumnType::Text)
                .primary_key(&["AuthorId", "PaperId"])
                .foreign_key(&["AuthorId"], "Author")
                .foreign_key(&["PaperId"], "Paper")
                .build()
                .unwrap(),
        )
        .unwrap();
        for (id, name) in [("MohanC", "C. Mohan"), ("SudarshanS", "S. Sudarshan")] {
            db.insert("Author", vec![Value::text(id), Value::text(name)])
                .unwrap();
        }
        db.insert(
            "Paper",
            vec![
                Value::text("P1"),
                Value::text("Transaction Recovery Methods"),
            ],
        )
        .unwrap();
        for a in ["MohanC", "SudarshanS"] {
            db.insert("Writes", vec![Value::text(a), Value::text("P1")])
                .unwrap();
        }
        db
    }

    fn server(workers: usize) -> BanksServer {
        server_with(ServerConfig {
            workers,
            ..ServerConfig::default()
        })
    }

    fn server_with(config: ServerConfig) -> BanksServer {
        let banks = Arc::new(Banks::new(dblp()).unwrap());
        let service = Arc::new(crate::service::QueryService::new(
            banks,
            ServiceConfig::default(),
        ));
        BanksServer::bind(service, None, None, None, config).unwrap()
    }

    /// One raw request with arbitrary extra header lines — for the
    /// admission-control tests (`X-Banks-Deadline-Ms`, oversized
    /// `Content-Length`) that the plain client helper cannot send.
    fn raw_request(addr: SocketAddr, head: &str, body: &str) -> (u16, String) {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("{head}\r\n{body}").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        (status, response)
    }

    fn get(addr: SocketAddr, target: &str) -> HttpResponse {
        http_request(
            &addr.to_string(),
            "GET",
            target,
            None,
            Duration::from_secs(10),
        )
        .unwrap()
    }

    #[test]
    fn metrics_exposes_documented_families_after_traffic() {
        let server = server(2);
        let addr = server.local_addr();
        // One cold query, one hit.
        assert_eq!(get(addr, "/search?q=mohan+sudarshan").status, 200);
        assert_eq!(get(addr, "/search?q=sudarshan+mohan").status, 200);

        let resp = get(addr, "/metrics");
        assert_eq!(resp.status, 200);
        assert!(resp
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain; version=0.0.4")));
        let body = resp.text();
        for family in [
            "banks_http_requests_total",
            "banks_http_request_seconds",
            "banks_http_queue_depth",
            "banks_shed_total",
            "banks_rate_limited_total",
            "banks_deadline_exceeded_total",
            "banks_query_seconds",
            "banks_queries_total",
            "banks_query_errors_total",
            "banks_cache_hits_total",
            "banks_cache_misses_total",
            "banks_cache_entries",
            "banks_cache_bytes",
            "banks_epoch",
            "banks_graph_nodes",
            "banks_graph_edges",
            "banks_memory_bytes",
            "banks_search_early_terminations_total",
            "banks_uptime_seconds",
            "banks_pager_budget_bytes",
            "banks_pager_resident_bytes",
            "banks_pager_page_ins_total",
            "banks_tuple_resident_bytes",
            "banks_tuple_page_ins_total",
            "banks_tuple_evictions_total",
        ] {
            assert!(
                body.contains(&format!("# TYPE {family} ")),
                "family {family} missing from /metrics:\n{body}"
            );
        }
        // The cold/hit split is labeled, histogram-shaped, and counted.
        assert!(body.contains(r#"banks_query_seconds_count{cache="miss"} 1"#));
        assert!(body.contains(r#"banks_query_seconds_count{cache="hit"} 1"#));
        assert!(body.contains(r#"banks_query_seconds_bucket{cache="miss",le="+Inf"} 1"#));
        // Per-endpoint request counters carry the endpoint label.
        assert!(body.contains(r#"banks_http_requests_total{endpoint="/search"} 2"#));
        // The in-RAM backend still exports pager families, as zeros.
        assert!(body.contains("banks_pager_budget_bytes 0"));
        assert!(body.contains("banks_tuple_resident_bytes 0"));
    }

    #[test]
    fn unknown_paths_fold_into_other_endpoint_label() {
        let server = server(1);
        let addr = server.local_addr();
        assert_eq!(get(addr, "/no/such/path").status, 404);
        assert_eq!(get(addr, "/another?x=1").status, 404);
        let body = get(addr, "/metrics").text();
        assert!(body.contains(r#"banks_http_requests_total{endpoint="other"} 2"#));
    }

    #[test]
    fn search_trace_param_returns_span_breakdown() {
        let server = server(1);
        let addr = server.local_addr();
        // Without trace: no trace object in the envelope.
        let plain = get(addr, "/search?q=mohan").text();
        assert!(!plain.contains(r#""trace""#));
        // With trace=1: spans + this request's render time.
        let traced = get(addr, "/search?q=mohan&trace=1").text();
        assert!(traced.contains(r#""trace":{"spans":["#), "{traced}");
        assert!(traced.contains(r#""render_ns""#));
        for span in ["parse", "match", "expand", "score"] {
            assert!(
                traced.contains(&format!(r#""name":"{span}""#)),
                "span {span} missing: {traced}"
            );
        }
        // A cache hit replays the cold run's spans.
        let hit = get(addr, "/search?q=mohan&trace=true").text();
        assert!(hit.contains(r#""cached":true"#));
        assert!(hit.contains(r#""name":"parse""#));
    }

    #[test]
    fn debug_slow_lists_recorded_queries() {
        let server = server(1);
        let addr = server.local_addr();
        get(addr, "/search?q=mohan+sudarshan");
        get(addr, "/search?q=sudarshan");
        let body = get(addr, "/debug/slow").text();
        assert!(body.contains(r#""capacity":16"#), "{body}");
        assert!(body.contains(r#""count":2"#), "{body}");
        assert!(body.contains(r#""query":"mohan sudarshan""#));
        assert!(body.contains(r#""spans""#));
        // `limit` trims the list to the slowest entries.
        let trimmed = get(addr, "/debug/slow?limit=1").text();
        assert!(trimmed.contains(r#""count":1"#), "{trimmed}");
    }

    #[test]
    fn health_reports_version_and_uptime() {
        let server = server(1);
        let addr = server.local_addr();
        let body = get(addr, "/health").text();
        assert!(body.contains(r#""status":"ok""#), "{body}");
        assert!(
            body.contains(&format!(r#""version":"{}""#, banks_util::build::version())),
            "{body}"
        );
        assert!(body.contains(r#""uptime_s""#), "{body}");
    }

    /// The saturation regression: with the shedding bound at zero every
    /// regular request is "too late" the moment a worker picks it up —
    /// 503 + `Retry-After` — but `/health` and `/metrics` are exempt
    /// from all admission control and keep answering 200, and the
    /// scrape taken *during* the shedding reports it.
    #[test]
    fn health_and_metrics_answer_while_everything_else_sheds() {
        let server = server_with(ServerConfig {
            workers: 2,
            shed_after: Duration::ZERO,
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        for _ in 0..3 {
            let resp = get(addr, "/search?q=mohan");
            assert_eq!(resp.status, 503, "{}", resp.text());
            assert_eq!(resp.header("retry-after"), Some("1"));
            assert!(resp.text().contains("shed"), "{}", resp.text());
        }
        assert_eq!(get(addr, "/stats").status, 503, "stats is not exempt");
        let health = get(addr, "/health");
        assert_eq!(health.status, 200, "{}", health.text());
        let scrape = get(addr, "/metrics");
        assert_eq!(scrape.status, 200);
        let body = scrape.text();
        assert!(body.contains("banks_shed_total 4"), "{body}");
    }

    /// Per-client token-bucket rate limiting: a burst past the bucket
    /// answers 429 + `Retry-After`; probes stay exempt; the metric
    /// counts the rejections.
    #[test]
    fn rate_limit_answers_429_and_exempts_probes() {
        let server = server_with(ServerConfig {
            workers: 1,
            rate_limit_rps: Some(1.0), // burst = 2 tokens
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let mut statuses = Vec::new();
        for _ in 0..5 {
            statuses.push(get(addr, "/search?q=mohan").status);
        }
        assert_eq!(
            statuses.iter().filter(|&&s| s == 200).count(),
            2,
            "{statuses:?}"
        );
        assert_eq!(
            statuses.iter().filter(|&&s| s == 429).count(),
            3,
            "{statuses:?}"
        );
        // Probes never count against (or get caught by) the bucket.
        for _ in 0..4 {
            assert_eq!(get(addr, "/health").status, 200);
        }
        let body = get(addr, "/metrics").text();
        assert!(body.contains("banks_rate_limited_total 3"), "{body}");
    }

    /// A declared body over the cap is refused with 413 before any read;
    /// the limit applies only to routes that consume a body.
    #[test]
    fn oversized_ingest_body_is_rejected_413() {
        let server = server_with(ServerConfig {
            workers: 1,
            max_body_bytes: 64,
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let body = "x".repeat(256);
        let (status, response) = raw_request(
            addr,
            &format!(
                "POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n",
                body.len()
            ),
            &body,
        );
        assert_eq!(status, 413, "{response}");
        // A tiny body passes the size gate (and fails later, on parsing).
        let (status, response) = raw_request(
            addr,
            "POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nConnection: close\r\n",
            "{}",
        );
        assert_ne!(status, 413, "{response}");
    }

    /// An exhausted deadline budget answers 504 before any search work,
    /// and the client-supplied budget is capped by the server.
    #[test]
    fn zero_deadline_budget_answers_504_before_work() {
        let server = server_with(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let (status, response) = raw_request(
            addr,
            "GET /search?q=mohan HTTP/1.1\r\nHost: x\r\nX-Banks-Deadline-Ms: 0\r\nConnection: close\r\n",
            "",
        );
        assert_eq!(status, 504, "{response}");
        assert!(response.contains("Retry-After"), "{response}");
        assert!(response.contains("deadline exceeded"), "{response}");
        // A generous budget on the same server serves normally.
        let (status, _) = raw_request(
            addr,
            "GET /search?q=mohan HTTP/1.1\r\nHost: x\r\nX-Banks-Deadline-Ms: 30000\r\nConnection: close\r\n",
            "",
        );
        assert_eq!(status, 200);
        let body = get(addr, "/metrics").text();
        assert!(body.contains("banks_deadline_exceeded_total 1"), "{body}");
    }

    /// Regression: `/stats` and `/metrics` must answer from counter
    /// snapshots, never behind a lock a slow query can hold. One worker
    /// parks in a `min_epoch` wait; the remaining worker must keep
    /// serving observability endpoints promptly.
    #[test]
    fn stats_and_metrics_stay_responsive_while_query_parks_a_worker() {
        let server = server(2);
        let addr = server.local_addr();
        let parked = std::thread::spawn(move || {
            // Epoch 999 never arrives; this holds its worker for ~3s.
            get(addr, "/search?q=mohan&min_epoch=999&wait_ms=3000")
        });
        // Give the parked request time to reach its worker.
        std::thread::sleep(Duration::from_millis(200));
        let t0 = Instant::now();
        assert_eq!(get(addr, "/stats").status, 200);
        assert_eq!(get(addr, "/metrics").status, 200);
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(1500),
            "observability endpoints stalled {elapsed:?} behind a parked query"
        );
        assert_eq!(parked.join().unwrap().status, 409);
    }
}
