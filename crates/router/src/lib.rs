//! # banks-router
//!
//! A query-routing front door for a replicated BANKS cluster: one
//! leader (`banks serve --data-dir`), any number of WAL-tailing
//! followers (`banks-replica`), and this broker in front deciding who
//! answers what.
//!
//! * **Circuit-broken registry** — each backend carries a three-state
//!   breaker. **Closed**: in rotation, probed on a fixed cadence;
//!   `eject_after` consecutive failures (or one in-request connect
//!   failure) trip it. **Open**: out of rotation, no traffic at all,
//!   for a doubling backoff window. **Half-open**: the window lapsed;
//!   exactly one trial probe is allowed — success re-closes the breaker
//!   (re-admission), failure re-opens it with a longer window. Clients
//!   never pay to discover a dead backend twice.
//! * **Cache-affinity routing** — `/search` traffic is spread over
//!   followers by **rendezvous (highest-random-weight) hashing** of the
//!   PR-1 normalized query key ([`banks_server::QueryKey`]): `mohan
//!   sudarshan` and `Sudarshan  Mohan` hash identically, so a repeated
//!   query lands on the follower that already has it cached, while
//!   distinct queries spread evenly and a dead follower redistributes
//!   only its own keys.
//! * **Leader-only writes** — `POST /ingest` (and `/epochs`) always
//!   forward to the leader; followers never see a write.
//! * **Staleness-aware fallback** — every probe records the backend's
//!   epoch. A follower lagging more than `staleness_bound` epochs
//!   behind the newest known epoch leaves rotation until it catches
//!   up; if *every* follower lags, reads fall back to the leader.
//! * **Failover, not errors** — a connect failure, timeout, or 5xx
//!   from a follower marks it down and retries the next candidate,
//!   ending at the leader; a follower's `409` (a `min_epoch` the
//!   follower couldn't reach) retries against the leader, which by
//!   definition has the newest epoch. Clients see a failed read only
//!   when **no** backend at all is reachable — answered as `503` with
//!   a `Retry-After` hint and a JSON error body.
//!
//! The router is deliberately dumb about payloads: responses stream
//! back verbatim (status, content type, epoch headers), so everything
//! the backends guarantee — deterministic ranking, epoch stamps,
//! `min_epoch` semantics — passes through unchanged. Writes keep the
//! client's method. Requests are read by [`banks_util::http::HttpServer`],
//! the core `banks serve` runs, under the server's default head and body
//! limits (`431` over 16 KiB of head, `413` over 8 MiB of body).

#![forbid(unsafe_code)]

use banks_server::{QueryKey, QueryOptions};
use banks_telemetry::{CollectedFamily, Kind, Registry, Sample};
use banks_util::fxhash::FxHasher;
use banks_util::http::{
    http_request, parse_query_string, query_param, ClientError, HttpResponse, HttpServer,
    ListenConfig, Request, Response,
};
use banks_util::json::Json;
use banks_util::retry::{Outcome, RetryPolicy};
use std::hash::Hasher;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Router tuning. `Default` matches a small local cluster.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`127.0.0.1:0` for tests).
    pub addr: String,
    /// The leader's address (`host:port`).
    pub leader: String,
    /// Follower addresses.
    pub followers: Vec<String>,
    /// Worker threads serving client connections.
    pub workers: usize,
    /// Accept queue depth.
    pub backlog: usize,
    /// Cadence of `/health` probes against healthy backends.
    pub probe_interval: Duration,
    /// Consecutive probe failures before a backend's breaker opens.
    pub eject_after: u32,
    /// Max epochs a follower may lag behind the newest known epoch and
    /// still serve reads.
    pub staleness_bound: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            leader: "127.0.0.1:7331".to_string(),
            followers: Vec::new(),
            workers: 4,
            backlog: 64,
            probe_interval: Duration::from_millis(500),
            eject_after: 2,
            staleness_bound: 8,
        }
    }
}

/// Per-probe timeout.
const PROBE_TIMEOUT: Duration = Duration::from_secs(1);

/// Per-forwarded-request timeout (must exceed the backends' `min_epoch`
/// wait ceiling for pass-through waits to work).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(40);

/// Ceiling for the doubling open-window of a tripped breaker.
const MAX_PROBE_BACKOFF: Duration = Duration::from_secs(5);

/// Retry policy for forwarded requests that failed before any byte
/// reached the backend (connect errors — idempotent-safe).
fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        base: Duration::from_millis(50),
        cap: Duration::from_millis(500),
        ..RetryPolicy::default()
    }
}

/// Retry tokens shared across all forwarded requests; a dead backend
/// drains them and later calls fail fast (storm protection).
const RETRY_BUDGET_TOKENS: u64 = 64;

/// Breaker position of one backend.
///
/// `Closed` is the only state that serves client traffic. `Open` means
/// the breaker tripped and the backend is resting out its backoff
/// window. `HalfOpen` means the window lapsed and the prober owes it
/// one trial probe; the outcome snaps the breaker shut or re-opens it
/// with a doubled window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// In rotation; failures are being counted against `eject_after`.
    Closed,
    /// Tripped; no traffic until the backoff window lapses.
    Open,
    /// Probation: one trial probe decides closed vs re-opened.
    HalfOpen,
}

impl BreakerState {
    /// Stable label for `/stats` and the `banks_breaker_state` gauge.
    pub(crate) fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Gauge encoding: 0 closed, 1 half-open, 2 open (higher = worse).
    pub(crate) fn gauge(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }
}

/// One backend as the registry currently sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendSnapshot {
    /// Address.
    pub url: String,
    /// `"leader"` or `"follower"`.
    pub role: &'static str,
    /// In rotation? (breaker closed)
    pub healthy: bool,
    /// Breaker position.
    pub breaker: BreakerState,
    /// Serving epoch at the last successful probe.
    pub epoch: u64,
    /// Requests forwarded here.
    pub forwarded: u64,
    /// Times ejected from rotation.
    pub ejections: u64,
    /// Times re-admitted after an ejection.
    pub readmissions: u64,
    /// Round-trip time of the last successful `/health` probe, in
    /// microseconds (0 until the first success).
    pub last_probe_us: u64,
}

/// Router-level counters plus the registry.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// `/search` requests routed.
    pub searches: u64,
    /// `POST /ingest` requests forwarded to the leader.
    pub ingests: u64,
    /// Mid-request failovers (backend errored, next candidate tried).
    pub failovers: u64,
    /// Reads that fell back to the leader because every follower was
    /// out of rotation or past the staleness bound.
    pub leader_fallbacks: u64,
    /// Requests answered `503` because no backend was reachable.
    pub unavailable: u64,
    /// Health probes sent.
    pub probes: u64,
    /// Forwarding retries performed under the shared retry policy.
    pub retries: u64,
    /// Whole retry tokens left in the shared budget.
    pub retry_tokens: u64,
    /// Registry snapshot (leader first).
    pub backends: Vec<BackendSnapshot>,
}

struct Backend {
    url: String,
    is_leader: bool,
    breaker: BreakerState,
    consecutive_failures: u32,
    /// Open-window length; doubles on every re-open up to the ceiling.
    open_backoff: Duration,
    /// Closed: next cadence probe. Open: when the window lapses and the
    /// breaker may go half-open. HalfOpen: probe due immediately.
    next_probe: Instant,
    epoch: u64,
    forwarded: u64,
    ejections: u64,
    readmissions: u64,
    last_probe_us: u64,
}

impl Backend {
    fn new(url: String, is_leader: bool, now: Instant) -> Backend {
        Backend {
            url,
            is_leader,
            breaker: BreakerState::Closed,
            consecutive_failures: 0,
            open_backoff: Duration::ZERO,
            next_probe: now, // probe immediately on startup
            epoch: 0,
            forwarded: 0,
            ejections: 0,
            readmissions: 0,
            last_probe_us: 0,
        }
    }

    fn healthy(&self) -> bool {
        self.breaker == BreakerState::Closed
    }

    fn snapshot(&self) -> BackendSnapshot {
        BackendSnapshot {
            url: self.url.clone(),
            role: if self.is_leader { "leader" } else { "follower" },
            healthy: self.healthy(),
            breaker: self.breaker,
            epoch: self.epoch,
            forwarded: self.forwarded,
            ejections: self.ejections,
            readmissions: self.readmissions,
            last_probe_us: self.last_probe_us,
        }
    }
}

#[derive(Default)]
struct Counters {
    searches: AtomicU64,
    ingests: AtomicU64,
    failovers: AtomicU64,
    leader_fallbacks: AtomicU64,
    unavailable: AtomicU64,
    probes: AtomicU64,
    retries: AtomicU64,
}

struct Shared {
    config: RouterConfig,
    backends: Mutex<Vec<Backend>>,
    counters: Counters,
    shutdown: AtomicBool,
    registry: Registry,
    started: Instant,
    retry_budget: banks_util::retry::RetryBudget,
}

impl Shared {
    /// Every backend closed and due for a probe now, and the registry's
    /// scrape collector installed.
    fn new(config: RouterConfig) -> Arc<Shared> {
        let now = Instant::now();
        let backends = std::iter::once((&config.leader, true))
            .chain(config.followers.iter().map(|f| (f, false)))
            .map(|(url, is_leader)| Backend::new(url.clone(), is_leader, now))
            .collect();
        let shared = Arc::new(Shared {
            backends: Mutex::new(backends),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            retry_budget: banks_util::retry::RetryBudget::new(RETRY_BUDGET_TOKENS),
            config,
            registry: Registry::new(),
            started: now,
        });
        // The registry lives inside `Shared`, so the scrape collector
        // holds a `Weak` back-reference to avoid an `Arc` cycle.
        let weak = Arc::downgrade(&shared);
        shared.registry.register_collector(move || {
            weak.upgrade()
                .map(|shared| router_families(&shared))
                .unwrap_or_default()
        });
        shared
    }

    fn with_backend(&self, url: &str, f: impl FnOnce(&mut Backend)) {
        let mut backends = self.backends.lock().expect("registry lock");
        if let Some(backend) = backends.iter_mut().find(|b| b.url == url) {
            f(backend);
        }
    }

    /// A probe (or in-request attempt) failed. A closed breaker takes
    /// `eject_after` strikes (one, for an in-request connect failure)
    /// before tripping open; a half-open breaker re-opens immediately
    /// with its backoff window doubled — probation admits no strikes.
    fn note_failure(&self, url: &str, immediate: bool) {
        let (interval, eject_after) = (self.config.probe_interval, self.config.eject_after);
        self.with_backend(url, |b| {
            b.consecutive_failures = b.consecutive_failures.saturating_add(1);
            match b.breaker {
                BreakerState::Closed => {
                    if immediate || b.consecutive_failures >= eject_after {
                        b.breaker = BreakerState::Open;
                        b.ejections += 1;
                        b.open_backoff = interval;
                    }
                }
                BreakerState::HalfOpen | BreakerState::Open => {
                    b.breaker = BreakerState::Open;
                    b.open_backoff = (b.open_backoff * 2).min(MAX_PROBE_BACKOFF).max(interval);
                }
            }
            b.next_probe = Instant::now()
                + match b.breaker {
                    BreakerState::Closed => interval,
                    _ => b.open_backoff,
                };
        });
    }

    /// A probe succeeded at `epoch` after `latency`: snap the breaker
    /// shut (re-admission when it was open/half-open), reset strikes,
    /// record the round trip.
    fn note_success(&self, url: &str, epoch: u64, latency: Duration) {
        let interval = self.config.probe_interval;
        self.with_backend(url, |b| {
            if b.breaker != BreakerState::Closed {
                b.readmissions += 1;
            }
            b.breaker = BreakerState::Closed;
            b.consecutive_failures = 0;
            b.open_backoff = Duration::ZERO;
            b.epoch = epoch.max(b.epoch);
            b.last_probe_us = latency.as_micros() as u64;
            b.next_probe = Instant::now() + interval;
        });
    }

    /// Breakers whose open window has lapsed move to half-open; the
    /// returned URLs owe a trial probe *now*. Runs under the same lock
    /// as the due-probe scan, so a window cannot lapse twice.
    fn take_due_probes(&self, now: Instant) -> Vec<String> {
        let mut backends = self.backends.lock().expect("registry lock");
        backends
            .iter_mut()
            .filter(|b| b.next_probe <= now)
            .map(|b| {
                if b.breaker == BreakerState::Open {
                    b.breaker = BreakerState::HalfOpen;
                }
                b.url.clone()
            })
            .collect()
    }

    fn note_forward(&self, url: &str) {
        self.with_backend(url, |b| b.forwarded += 1);
    }

    /// Candidate order for a read: eligible followers by descending
    /// rendezvous score, then the leader as the unconditional last
    /// resort. Returns `(candidates, fell_back_to_leader_only)`.
    fn read_plan(&self, affinity: u64) -> (Vec<String>, bool) {
        let backends = self.backends.lock().expect("registry lock");
        // The staleness reference is the newest epoch any backend has
        // reported — the leader's, unless the leader is unreachable and
        // a follower is ahead of our last sighting of it.
        let newest = backends.iter().map(|b| b.epoch).max().unwrap_or(0);
        let mut scored: Vec<(u64, &str)> = backends
            .iter()
            .filter(|b| {
                !b.is_leader
                    && b.healthy()
                    && newest.saturating_sub(b.epoch) <= self.config.staleness_bound
            })
            .map(|b| (rendezvous_score(&b.url, affinity), b.url.as_str()))
            .collect();
        scored.sort_unstable_by(|a, b| b.cmp(a));
        let had_followers = backends.iter().any(|b| !b.is_leader);
        let leader_only = had_followers && scored.is_empty();
        let mut plan: Vec<String> = scored.into_iter().map(|(_, url)| url.to_string()).collect();
        if let Some(leader) = backends.iter().find(|b| b.is_leader) {
            plan.push(leader.url.clone());
        }
        (plan, leader_only)
    }

    fn stats(&self) -> RouterStats {
        let backends = self.backends.lock().expect("registry lock");
        RouterStats {
            searches: self.counters.searches.load(Ordering::Relaxed),
            ingests: self.counters.ingests.load(Ordering::Relaxed),
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            leader_fallbacks: self.counters.leader_fallbacks.load(Ordering::Relaxed),
            unavailable: self.counters.unavailable.load(Ordering::Relaxed),
            probes: self.counters.probes.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
            retry_tokens: self.retry_budget.available(),
            backends: backends.iter().map(Backend::snapshot).collect(),
        }
    }
}

/// Rendezvous (highest-random-weight) score of one backend for one
/// affinity key: every router instance ranks backends identically, and
/// removing a backend reassigns only the keys it owned.
fn rendezvous_score(url: &str, affinity: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write(url.as_bytes());
    h.write_u64(affinity);
    h.finish()
}

/// Affinity of a `/search` target: the PR-1 normalized cache key terms
/// (sorted, case-folded — `mohan sudarshan` ≡ `Sudarshan  Mohan`) plus
/// the raw strategy/limit parameters.
fn search_affinity(params: &[(String, String)]) -> u64 {
    let q = query_param(params, "q").unwrap_or("");
    let key = QueryKey::normalize(q, QueryOptions::default(), 0, 0);
    let mut h = FxHasher::default();
    for term in key.terms() {
        h.write(term.as_bytes());
        h.write_u8(0xff);
    }
    h.write(query_param(params, "strategy").unwrap_or("").as_bytes());
    h.write_u8(0xff);
    h.write(query_param(params, "limit").unwrap_or("").as_bytes());
    h.finish()
}

/// Affinity of any other read: the raw target string.
fn target_affinity(target: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(target.as_bytes());
    h.finish()
}

// ---------------------------------------------------------------------------
// The router server.
// ---------------------------------------------------------------------------

/// A running router. Dropping (or [`Router::shutdown`]) stops the
/// prober and the HTTP server.
pub struct Router {
    http: Option<HttpServer>,
    shared: Arc<Shared>,
    prober: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Bind and start routing.
    pub fn bind(config: RouterConfig) -> std::io::Result<Router> {
        let listen = ListenConfig {
            addr: config.addr.clone(),
            workers: config.workers,
            backlog: config.backlog,
            name: "banks-router",
        };
        let shared = Shared::new(config);
        let http = {
            let shared = Arc::clone(&shared);
            HttpServer::bind(&listen, move |request| route(&shared, &request))?
        };
        let prober = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("banks-router-probe".to_string())
                .spawn(move || prober_loop(&shared))?
        };

        Ok(Router {
            http: Some(http),
            shared,
            prober: Some(prober),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.http.as_ref().expect("router is running").local_addr()
    }

    /// Counters + registry snapshot.
    pub fn stats(&self) -> RouterStats {
        self.shared.stats()
    }

    /// Stop and join all threads.
    pub fn shutdown(self) {}

    /// Block until the router is shut down from another thread (the CLI
    /// foreground mode).
    pub fn join(mut self) {
        if let Some(http) = self.http.take() {
            http.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(self.http.take());
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
    }
}

/// Probe every due backend, apply results, nap, repeat. An open
/// breaker whose window lapsed flips to half-open here and gets its
/// trial probe in the same pass.
fn prober_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let due = shared.take_due_probes(Instant::now());
        for url in due {
            shared.counters.probes.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            match probe(&url, PROBE_TIMEOUT) {
                Some(epoch) => shared.note_success(&url, epoch, t0.elapsed()),
                None => shared.note_failure(&url, false),
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One `/health` probe: `Some(epoch)` on a parseable 200.
fn probe(url: &str, timeout: Duration) -> Option<u64> {
    let resp = http_request(url, "GET", "/health", None, timeout).ok()?;
    if resp.status != 200 {
        return None;
    }
    Json::parse(&resp.text()).ok()?.get("epoch")?.as_u64()
}

// ---------------------------------------------------------------------------
// Request handling.
// ---------------------------------------------------------------------------

/// A backend response relayed verbatim: status, body, content type, and
/// the headers clients act on (`Retry-After`, `X-Banks-Epoch`).
fn passthrough(resp: HttpResponse) -> Response {
    let content_type = match resp.header("content-type") {
        Some(ct) if ct.starts_with("application/octet-stream") => "application/octet-stream",
        Some(ct) if ct.starts_with("text/plain") => "text/plain; charset=utf-8",
        _ => "application/json",
    };
    let headers = ["Retry-After", "X-Banks-Epoch"]
        .into_iter()
        .filter_map(|name| Some((name, resp.header(name)?.to_string())))
        .collect();
    Response {
        status: resp.status,
        content_type,
        headers,
        body: resp.body,
    }
}

fn route(shared: &Shared, request: &Request) -> Response {
    let target = request.target.as_str();
    match (request.method.as_str(), request.path()) {
        ("GET", "/health") => health_reply(shared),
        ("GET", "/stats") => stats_reply(shared),
        ("GET", "/metrics") => Response::metrics(shared.registry.render()),
        // The leader judges the method: a `GET /ingest` gets the
        // leader's own 405, a bodiless `POST` its 400.
        (method, "/ingest") | (method @ "GET", "/epochs") => {
            forward_write(shared, method, target, &request.body)
        }
        ("GET", path) => {
            let affinity = if path == "/search" {
                shared.counters.searches.fetch_add(1, Ordering::Relaxed);
                search_affinity(&parse_query_string(request.query()))
            } else {
                target_affinity(target)
            };
            forward_read(shared, target, affinity)
        }
        _ => Response::error(405, "only GET (and POST /ingest) are supported"),
    }
}

/// One forwarded request under the shared retry policy: only connect
/// failures — where no byte reached the backend, so nothing can
/// double-apply — are retried, with full-jitter backoff and the
/// router-wide retry budget. Everything else surfaces to the caller's
/// failover logic.
fn forward_with_retry(
    shared: &Shared,
    url: &str,
    method: &str,
    target: &str,
    body: Option<&[u8]>,
) -> Result<HttpResponse, ClientError> {
    retry_policy().run(
        Some(&shared.retry_budget),
        |_| http_request(url, method, target, body, REQUEST_TIMEOUT),
        |e| match e {
            ClientError::Connect(_) => Outcome::Retryable,
            _ => Outcome::Fatal,
        },
        |_, _, sleep| {
            shared.counters.retries.fetch_add(1, Ordering::Relaxed);
            sleep
        },
    )
}

/// Reads: walk the rendezvous plan, failing over past dead or lagging
/// backends; the leader is always the last resort.
fn forward_read(shared: &Shared, target: &str, affinity: u64) -> Response {
    let (plan, leader_only) = shared.read_plan(affinity);
    if leader_only {
        shared
            .counters
            .leader_fallbacks
            .fetch_add(1, Ordering::Relaxed);
    }
    let total = plan.len();
    for (i, url) in plan.iter().enumerate() {
        let is_last = i + 1 == total;
        match forward_with_retry(shared, url, "GET", target, None) {
            Ok(resp) if resp.status == 409 && !is_last => {
                // This backend couldn't reach the client's `min_epoch`
                // in time; someone later in the plan (ultimately the
                // leader) has a newer epoch.
                shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            Ok(resp) if resp.status >= 500 && !is_last => {
                shared.note_failure(url, true);
                shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            Ok(resp) => {
                shared.note_forward(url);
                return passthrough(resp);
            }
            Err(_) => {
                shared.note_failure(url, true);
                if !is_last {
                    shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
        }
    }
    unavailable(
        shared,
        r#"{"error":"no healthy backend","hint":"all backends unreachable; retry shortly"}"#.into(),
    )
}

/// `503` + `Retry-After`: no backend could take the request.
fn unavailable(shared: &Shared, body: String) -> Response {
    shared.counters.unavailable.fetch_add(1, Ordering::Relaxed);
    Response::json(503, body).with_header("Retry-After", "1".to_string())
}

/// Writes (and `/epochs`) go to the leader, never a follower, with the
/// client's method.
fn forward_write(shared: &Shared, method: &str, target: &str, body: &[u8]) -> Response {
    shared.counters.ingests.fetch_add(1, Ordering::Relaxed);
    let leader = shared.config.leader.clone();
    match forward_with_retry(shared, &leader, method, target, Some(body)) {
        Ok(resp) => {
            shared.note_forward(&leader);
            passthrough(resp)
        }
        Err(e) => {
            shared.note_failure(&leader, true);
            let detail = e.to_string().replace('"', "'");
            unavailable(
                shared,
                format!(r#"{{"error":"leader unreachable","detail":"{detail}"}}"#),
            )
        }
    }
}

fn health_reply(shared: &Shared) -> Response {
    let stats = shared.stats();
    let healthy = stats.backends.iter().filter(|b| b.healthy).count();
    Response::json(
        200,
        Json::obj([
            ("status", Json::Str("ok".to_string())),
            ("version", Json::Str(banks_util::build::version())),
            ("uptime_s", Json::Uint(shared.started.elapsed().as_secs())),
            ("backends", Json::Uint(stats.backends.len() as u64)),
            ("healthy", Json::Uint(healthy as u64)),
        ])
        .compact(),
    )
}

fn stats_reply(shared: &Shared) -> Response {
    let stats = shared.stats();
    let backends = stats
        .backends
        .iter()
        .map(|b| {
            Json::obj([
                ("url", Json::Str(b.url.clone())),
                ("role", Json::Str(b.role.to_string())),
                ("healthy", Json::Bool(b.healthy)),
                ("breaker", Json::Str(b.breaker.label().to_string())),
                ("epoch", Json::Uint(b.epoch)),
                ("forwarded", Json::Uint(b.forwarded)),
                ("ejections", Json::Uint(b.ejections)),
                ("readmissions", Json::Uint(b.readmissions)),
                ("last_probe_us", Json::Uint(b.last_probe_us)),
            ])
        })
        .collect();
    Response::json(
        200,
        Json::obj([
            (
                "router",
                Json::obj([
                    ("searches", Json::Uint(stats.searches)),
                    ("ingests", Json::Uint(stats.ingests)),
                    ("failovers", Json::Uint(stats.failovers)),
                    ("leader_fallbacks", Json::Uint(stats.leader_fallbacks)),
                    ("unavailable", Json::Uint(stats.unavailable)),
                    ("probes", Json::Uint(stats.probes)),
                    ("retries", Json::Uint(stats.retries)),
                    ("retry_tokens", Json::Uint(stats.retry_tokens)),
                ]),
            ),
            ("backends", Json::Arr(backends)),
        ])
        .compact(),
    )
}

/// The router's Prometheus families, collected at scrape time from the
/// same counter snapshot `/stats` reads: routing totals plus one
/// labeled sample per backend (`backend`, `role`).
fn router_families(shared: &Shared) -> Vec<CollectedFamily> {
    let stats = shared.stats();
    let c = Kind::Counter;
    let g = Kind::Gauge;
    let mut fams = vec![
        CollectedFamily::scalar(
            "banks_router_searches_total",
            "`/search` requests routed.",
            c,
            stats.searches as f64,
        ),
        CollectedFamily::scalar(
            "banks_router_ingests_total",
            "Write requests forwarded to the leader.",
            c,
            stats.ingests as f64,
        ),
        CollectedFamily::scalar(
            "banks_router_failovers_total",
            "Mid-request failovers to the next read candidate.",
            c,
            stats.failovers as f64,
        ),
        CollectedFamily::scalar(
            "banks_router_leader_fallbacks_total",
            "Reads answered by the leader because no follower was eligible.",
            c,
            stats.leader_fallbacks as f64,
        ),
        CollectedFamily::scalar(
            "banks_router_unavailable_total",
            "Requests answered 503 with no reachable backend.",
            c,
            stats.unavailable as f64,
        ),
        CollectedFamily::scalar(
            "banks_router_probes_total",
            "Health probes sent.",
            c,
            stats.probes as f64,
        ),
        CollectedFamily::scalar(
            "banks_retries_total",
            "Forwarding retries under the shared retry policy.",
            c,
            stats.retries as f64,
        ),
        CollectedFamily::scalar(
            "banks_retry_budget_tokens",
            "Whole retry tokens left in the router's shared budget.",
            g,
            stats.retry_tokens as f64,
        ),
        CollectedFamily::scalar(
            "banks_router_uptime_seconds",
            "Seconds since the router was bound.",
            g,
            shared.started.elapsed().as_secs_f64(),
        ),
    ];
    let labeled = |f: fn(&BackendSnapshot) -> f64| -> Vec<Sample> {
        stats
            .backends
            .iter()
            .map(|b| Sample {
                labels: vec![("backend", b.url.clone()), ("role", b.role.to_string())],
                value: f(b),
            })
            .collect()
    };
    for (name, help, kind, f) in [
        (
            "banks_router_backend_healthy",
            "1 when the backend is in rotation.",
            g,
            (|b| if b.healthy { 1.0 } else { 0.0 }) as fn(&BackendSnapshot) -> f64,
        ),
        (
            "banks_breaker_state",
            "Backend circuit breaker: 0 closed, 1 half-open, 2 open.",
            g,
            |b| b.breaker.gauge(),
        ),
        (
            "banks_router_backend_epoch",
            "Serving epoch at the backend's last successful probe.",
            g,
            |b| b.epoch as f64,
        ),
        (
            "banks_router_backend_forwarded_total",
            "Requests forwarded to the backend.",
            c,
            |b| b.forwarded as f64,
        ),
        (
            "banks_router_backend_ejections_total",
            "Times the backend left rotation.",
            c,
            |b| b.ejections as f64,
        ),
        (
            "banks_router_backend_readmissions_total",
            "Times the backend re-entered rotation.",
            c,
            |b| b.readmissions as f64,
        ),
        (
            "banks_router_backend_last_probe_seconds",
            "Round-trip time of the backend's last successful probe.",
            g,
            |b| b.last_probe_us as f64 * 1e-6,
        ),
    ] {
        fams.push(CollectedFamily {
            name,
            help,
            kind,
            samples: labeled(f),
        });
    }
    fams
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_is_deterministic_and_minimal() {
        let urls = ["127.0.0.1:1001", "127.0.0.1:1002", "127.0.0.1:1003"];
        let rank = |affinity: u64, pool: &[&str]| -> Vec<String> {
            let mut scored: Vec<(u64, &str)> = pool
                .iter()
                .map(|u| (rendezvous_score(u, affinity), *u))
                .collect();
            scored.sort_unstable_by(|a, b| b.cmp(a));
            scored.into_iter().map(|(_, u)| u.to_string()).collect()
        };
        for affinity in [0u64, 7, 42, 0xdead_beef] {
            // Order-independent: the ranking ignores registration order.
            let a = rank(affinity, &urls);
            let mut shuffled = urls;
            shuffled.reverse();
            let b = rank(affinity, &shuffled);
            assert_eq!(a, b);
            // Minimal disruption: removing a non-winner never changes
            // the winner.
            let winner = a[0].clone();
            for dropped in &urls {
                if *dropped == winner {
                    continue;
                }
                let pool: Vec<&str> = urls.iter().filter(|u| *u != dropped).copied().collect();
                assert_eq!(rank(affinity, &pool)[0], winner, "dropped {dropped}");
            }
        }
    }

    #[test]
    fn search_affinity_matches_the_cache_key() {
        let parse = |qs: &str| parse_query_string(qs);
        // Order- and case-insensitive, like QueryKey.
        assert_eq!(
            search_affinity(&parse("q=mohan+sudarshan")),
            search_affinity(&parse("q=Sudarshan++mohan"))
        );
        // Different terms, strategies, or limits split.
        assert_ne!(
            search_affinity(&parse("q=mohan")),
            search_affinity(&parse("q=sudarshan"))
        );
        assert_ne!(
            search_affinity(&parse("q=mohan&strategy=iterator")),
            search_affinity(&parse("q=mohan"))
        );
        assert_ne!(
            search_affinity(&parse("q=mohan&limit=3")),
            search_affinity(&parse("q=mohan&limit=5"))
        );
    }

    #[test]
    fn registry_ejects_and_readmits() {
        let shared = Shared::new(RouterConfig {
            leader: "l:1".to_string(),
            followers: vec!["f:1".to_string()],
            ..RouterConfig::default()
        });
        // Two strikes eject; the plan then holds only the leader.
        shared.note_failure("f:1", false);
        assert!(shared.stats().backends[1].healthy);
        shared.note_failure("f:1", false);
        let stats = shared.stats();
        assert!(!stats.backends[1].healthy);
        assert_eq!(stats.backends[1].ejections, 1);
        let (plan, leader_only) = shared.read_plan(1);
        assert_eq!(plan, vec!["l:1".to_string()]);
        assert!(leader_only);
        // A successful probe re-admits and records its round trip.
        shared.note_success("f:1", 9, Duration::from_micros(250));
        let stats = shared.stats();
        assert!(stats.backends[1].healthy);
        assert_eq!(stats.backends[1].readmissions, 1);
        assert_eq!(stats.backends[1].epoch, 9);
        assert_eq!(stats.backends[1].last_probe_us, 250);
        let (plan, _) = shared.read_plan(1);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.last().unwrap(), "l:1");
    }

    #[test]
    fn breaker_walks_closed_open_half_open() {
        let shared = Shared::new(RouterConfig {
            leader: "l:1".to_string(),
            followers: vec!["f:1".to_string()],
            probe_interval: Duration::from_millis(10),
            ..RouterConfig::default()
        });
        let breaker = |shared: &Shared| shared.stats().backends[1].breaker;
        // An in-request connect failure trips the breaker immediately.
        shared.note_failure("f:1", true);
        assert_eq!(breaker(&shared), BreakerState::Open);
        // Open absorbs traffic-free time; the window lapsing (simulated
        // by a far-future scan instant) flips it to half-open and owes
        // exactly one trial probe.
        let due = shared.take_due_probes(Instant::now() + Duration::from_secs(60));
        assert!(due.contains(&"f:1".to_string()));
        assert_eq!(breaker(&shared), BreakerState::HalfOpen);
        // A failed trial re-opens with a doubled window — no strikes in
        // probation.
        shared.note_failure("f:1", false);
        assert_eq!(breaker(&shared), BreakerState::Open);
        {
            let backends = shared.backends.lock().unwrap();
            assert_eq!(backends[1].open_backoff, Duration::from_millis(20));
            assert_eq!(backends[1].ejections, 1, "re-open is not a new ejection");
        }
        // Second lapse + successful trial: breaker snaps shut and the
        // backend is back in rotation.
        shared.take_due_probes(Instant::now() + Duration::from_secs(60));
        assert_eq!(breaker(&shared), BreakerState::HalfOpen);
        shared.note_success("f:1", 4, Duration::from_micros(100));
        assert_eq!(breaker(&shared), BreakerState::Closed);
        let stats = shared.stats();
        assert!(stats.backends[1].healthy);
        assert_eq!(stats.backends[1].readmissions, 1);
        assert!(shared.read_plan(1).0.contains(&"f:1".to_string()));
    }

    #[test]
    fn stale_followers_leave_rotation() {
        let shared = Shared::new(RouterConfig {
            leader: "l:1".to_string(),
            followers: vec!["f:1".to_string(), "f:2".to_string()],
            staleness_bound: 2,
            ..RouterConfig::default()
        });
        shared.note_success("l:1", 10, Duration::ZERO);
        shared.note_success("f:1", 9, Duration::ZERO); // within bound
        shared.note_success("f:2", 3, Duration::ZERO); // hopelessly behind
        let (plan, leader_only) = shared.read_plan(1);
        assert!(!leader_only);
        assert_eq!(plan, vec!["f:1".to_string(), "l:1".to_string()]);
        // Every follower stale → leader-only fallback.
        shared.note_success("l:1", 20, Duration::ZERO);
        let (plan, leader_only) = shared.read_plan(1);
        assert_eq!(plan, vec!["l:1".to_string()]);
        assert!(leader_only);
    }

    #[test]
    fn metrics_cover_router_totals_and_labeled_backends() {
        let shared = Shared::new(RouterConfig {
            leader: "l:1".to_string(),
            followers: vec!["f:1".to_string()],
            ..RouterConfig::default()
        });
        shared.counters.searches.fetch_add(3, Ordering::Relaxed);
        shared.note_success("f:1", 7, Duration::from_micros(100));
        let text = shared.registry.render();
        for family in [
            "banks_router_searches_total",
            "banks_router_ingests_total",
            "banks_router_failovers_total",
            "banks_router_leader_fallbacks_total",
            "banks_router_unavailable_total",
            "banks_router_probes_total",
            "banks_retries_total",
            "banks_retry_budget_tokens",
            "banks_router_uptime_seconds",
            "banks_router_backend_healthy",
            "banks_breaker_state",
            "banks_router_backend_epoch",
            "banks_router_backend_forwarded_total",
            "banks_router_backend_ejections_total",
            "banks_router_backend_readmissions_total",
            "banks_router_backend_last_probe_seconds",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "family {family} missing:\n{text}"
            );
        }
        assert!(text.contains("banks_router_searches_total 3"));
        assert!(text.contains(r#"banks_router_backend_epoch{backend="f:1",role="follower"} 7"#));
        assert!(text.contains(r#"banks_router_backend_healthy{backend="l:1",role="leader"} 1"#));
        // The probe round trip exports in seconds (value check is done
        // on the collected sample — text rendering of floats varies).
        let fams = router_families(&shared);
        let probe = fams
            .iter()
            .find(|f| f.name == "banks_router_backend_last_probe_seconds")
            .and_then(|f| {
                f.samples
                    .iter()
                    .find(|s| s.labels.iter().any(|(_, v)| v == "f:1"))
            })
            .expect("f:1 probe sample");
        assert!((probe.value - 100e-6).abs() < 1e-9, "{}", probe.value);
    }
}
