//! Loopback integration tests for `banks-server`: start the HTTP server
//! on an ephemeral port, issue real TCP requests — including ≥ 8
//! concurrent clients — and check that ranked answers match the
//! single-threaded search path and that `/stats` accounts every
//! hit and miss exactly. Malformed requests get the same answers from
//! the server and from the router in front of it.

use banks_core::Banks;
use banks_datagen::dblp::{generate, DblpConfig};
use banks_eval::workload::{dblp_eval_config, dblp_workload};
use banks_router::{Router, RouterConfig};
use banks_server::{BanksServer, QueryService, ServerConfig, ServiceConfig};
use banks_util::http::http_request;
use banks_util::json::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One tiny corpus + server shared per test (each test builds its own so
/// `/stats` counters start from zero).
struct Fixture {
    banks: Arc<Banks>,
    service: Arc<QueryService>,
    server: BanksServer,
}

fn fixture() -> Fixture {
    let dataset = generate(DblpConfig::tiny(1)).expect("datagen");
    let banks =
        Arc::new(Banks::with_config(dataset.db.clone(), dblp_eval_config()).expect("banks builds"));
    let service = Arc::new(QueryService::new(
        Arc::clone(&banks),
        ServiceConfig::default(),
    ));
    let config = ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    };
    let server =
        BanksServer::bind(Arc::clone(&service), None, None, None, config).expect("bind loopback");
    Fixture {
        banks,
        service,
        server,
    }
}

/// One GET through the shared client: `(status, body)`.
fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    let resp = http_request(
        &addr.to_string(),
        "GET",
        target,
        None,
        Duration::from_secs(30),
    )
    .expect("request");
    (resp.status, resp.text())
}

/// URL-encode just enough for query text (spaces).
fn encode(q: &str) -> String {
    q.replace(' ', "+")
}

/// The cacheable part of a `/search` body: everything from `"count"` up
/// to the closing brace.
fn fragment(body: &str) -> &str {
    &body[body.find(r#""count""#).expect("fragment")..body.len() - 1]
}

/// `/stats` `cache.bytes` and `cache.entries`.
fn cache_bytes_and_entries(addr: SocketAddr) -> (u64, u64) {
    let (status, body) = http_get(addr, "/stats");
    assert_eq!(status, 200);
    let cache = Json::parse(&body).expect("stats JSON");
    let cache = cache.get("cache").expect("cache section");
    let field = |name: &str| cache.get(name).and_then(Json::as_u64).expect(name);
    (field("bytes"), field("entries"))
}

#[test]
fn health_node_and_error_routes() {
    let fx = fixture();
    let addr = fx.server.local_addr();

    let (status, body) = http_get(addr, "/health");
    assert_eq!(status, 200);
    assert!(body.contains(r#""status":"ok""#));
    assert!(body.contains(r#""epoch":"#));

    let (status, body) = http_get(addr, "/node?id=0");
    assert_eq!(status, 200);
    assert!(body.contains(r#""id":0"#));
    assert!(body.contains(r#""relation":"#));
    assert!(body.contains(r#""prestige":"#));

    let node_count = fx.banks.tuple_graph().node_count();
    let (status, _) = http_get(addr, &format!("/node?id={node_count}"));
    assert_eq!(status, 404);

    assert_eq!(http_get(addr, "/node?id=xyz").0, 400);
    assert_eq!(http_get(addr, "/search").0, 400, "missing q");
    assert_eq!(http_get(addr, "/search?q=mohan&strategy=sideways").0, 400);
    assert_eq!(http_get(addr, "/search?q=mohan&limit=0").0, 400);
    assert_eq!(http_get(addr, "/nope").0, 404);

    // Non-GET is rejected.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /search HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 405"), "{response}");
}

#[test]
fn search_results_match_single_threaded_path() {
    let fx = fixture();
    let addr = fx.server.local_addr();
    let dataset = generate(DblpConfig::tiny(1)).expect("datagen");

    for query in dblp_workload(&dataset.planted) {
        let direct = fx.banks.search(query.text).expect("direct search");
        let (status, body) = http_get(addr, &format!("/search?q={}", encode(query.text)));
        assert_eq!(status, 200, "query {}", query.id);
        assert!(
            body.contains(&format!(r#""count":{}"#, direct.len())),
            "{}: answer count must match the single-threaded path",
            query.id
        );
        // The top-ranked rendered tree must be byte-identical. Rendering
        // the expected tree through the JSON escaper makes the comparison
        // robust to escaping.
        if let Some(top) = direct.first() {
            let expected = Json::Str(fx.banks.render_answer(top)).compact();
            assert!(
                body.contains(&expected),
                "{}: top answer differs\nexpected fragment: {expected}\nbody: {body}",
                query.id
            );
            let expected_relevance = Json::Num(top.relevance).compact();
            assert!(
                body.contains(&format!(r#""relevance":{expected_relevance}"#)),
                "{}: top relevance differs",
                query.id
            );
        }
    }
}

#[test]
fn concurrent_clients_get_consistent_answers_and_exact_stats() {
    let fx = fixture();
    let addr = fx.server.local_addr();
    let dataset = generate(DblpConfig::tiny(1)).expect("datagen");
    let workload = dblp_workload(&dataset.planted);
    // 8 queries × 8 clients; every client issues every query.
    let queries: Vec<&str> = workload.iter().map(|q| q.text).take(8).collect();
    let clients = 8usize;

    let bodies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let queries = queries.clone();
                scope.spawn(move || {
                    queries
                        .iter()
                        // Stagger start order so clients race different keys.
                        .cycle()
                        .skip(c)
                        .take(queries.len())
                        .map(|q| {
                            let (status, body) =
                                http_get(addr, &format!("/search?q={}", encode(q)));
                            assert_eq!(status, 200);
                            (q.to_string(), body)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut per_query: std::collections::BTreeMap<String, Vec<String>> = Default::default();
        for h in handles {
            for (q, body) in h.join().expect("client thread") {
                per_query.entry(q).or_default().push(body);
            }
        }
        per_query.into_values().collect()
    });

    // Every client saw the same ranked answers for the same query
    // (ignoring the volatile cached/elapsed fields).
    for versions in &bodies {
        let answers = |body: &str| {
            body.split_once(r#""answers":"#)
                .map(|(_, a)| a.to_string())
                .expect("answers field")
        };
        let first = answers(&versions[0]);
        for other in &versions[1..] {
            assert_eq!(
                first,
                answers(other),
                "clients must agree on ranked answers"
            );
        }
    }

    // The service executed each distinct query once; every other request
    // was a cache hit. /stats must account for all of them exactly.
    let total = (clients * queries.len()) as u64;
    let distinct = queries.len() as u64;
    let stats = fx.service.stats();
    assert_eq!(stats.queries, total);
    assert_eq!(stats.cache.hits + stats.cache.misses, total);
    assert_eq!(stats.cache.entries as u64, distinct);
    assert!(
        stats.cache.misses >= distinct,
        "each distinct query misses at least once"
    );
    // Racing clients may compute the same cold query concurrently, but
    // never more often than once per client.
    assert!(stats.cache.misses <= distinct * clients as u64);
    assert!(stats.cache.hits >= total - distinct * clients as u64);

    // And the HTTP view agrees with the in-process counters.
    let (status, body) = http_get(addr, "/stats");
    assert_eq!(status, 200);
    let stats_after = fx.service.stats();
    assert!(body.contains(&format!(r#""misses":{}"#, stats_after.cache.misses)));
    assert!(body.contains(&format!(r#""queries":{}"#, stats_after.queries)));
    assert!(body.contains(&format!(r#""entries":{}"#, stats_after.cache.entries)));
}

#[test]
fn repeated_query_is_served_from_cache() {
    let fx = fixture();
    let addr = fx.server.local_addr();

    let (_, cold) = http_get(addr, "/search?q=mohan");
    assert!(cold.contains(r#""cached":false"#));
    let (_, warm) = http_get(addr, "/search?q=mohan");
    assert!(warm.contains(r#""cached":true"#));
    // Normalization: different spacing/case/order, same cache entry.
    let (_, also_warm) = http_get(addr, "/search?q=++MOHAN++");
    assert!(also_warm.contains(r#""cached":true"#));

    let stats = fx.service.stats();
    assert_eq!(stats.cache.hits, 2);
    assert_eq!(stats.cache.misses, 1);

    // Graceful shutdown releases the port and joins all threads.
    fx.server.shutdown();
}

/// A miss renders its JSON for its own response only; the first hit
/// memoizes it on the entry and a second hit reuses it. The bodies agree
/// byte for byte, and `cache.bytes` moves by exactly the memo.
#[test]
fn rendered_json_is_memoized_on_the_first_hit_only() {
    let fx = fixture();
    let addr = fx.server.local_addr();
    let dataset = generate(DblpConfig::tiny(1)).expect("datagen");
    let mut targets: Vec<String> = dblp_workload(&dataset.planted)
        .iter()
        .take(4)
        .map(|q| format!("/search?q={}", encode(q.text)))
        .collect();
    targets.push("/search?q=mohan&limit=2".to_string());

    for target in &targets {
        let (before, _) = cache_bytes_and_entries(addr);
        let (status, miss) = http_get(addr, target);
        assert_eq!(status, 200, "{target}");
        assert!(miss.contains(r#""cached":false"#), "{target}: {miss}");
        let terms: Vec<String> = Json::parse(&miss)
            .expect("search JSON")
            .get("normalized")
            .and_then(Json::as_arr)
            .expect("normalized terms")
            .iter()
            .map(|t| t.as_str().expect("term").to_string())
            .collect();
        let (key_bytes, entry) = fx
            .service
            .cache()
            .fold(None, |found, key, result| {
                found.or_else(|| {
                    (key.terms == terms).then(|| (key.heap_bytes(), Arc::clone(result)))
                })
            })
            .expect("the miss was cached");
        assert!(
            entry.http_fragment.get().is_none(),
            "{target}: a miss memoizes nothing"
        );
        let (after_miss, _) = cache_bytes_and_entries(addr);
        assert_eq!(
            after_miss - before,
            (key_bytes + entry.heap_bytes()) as u64,
            "{target}"
        );

        let (_, hit) = http_get(addr, target);
        assert!(hit.contains(r#""cached":true"#), "{target}: {hit}");
        let (after_hit, _) = cache_bytes_and_entries(addr);
        assert_eq!(
            entry.http_fragment.get().map(|f| &**f),
            Some(fragment(&hit))
        );
        assert_eq!(
            after_hit - after_miss,
            fragment(&hit).len() as u64,
            "{target}"
        );

        let (_, again) = http_get(addr, target);
        assert!(again.contains(r#""cached":true"#), "{target}: {again}");
        assert_eq!(cache_bytes_and_entries(addr).0, after_hit, "{target}");

        assert_eq!(fragment(&miss), fragment(&hit), "{target}");
        assert_eq!(fragment(&hit), fragment(&again), "{target}");
    }
}

/// On a `datagen` 10K corpus, a cache filled by distinct cold queries
/// holds only ranked answers: a few KiB an entry, where memoizing every
/// miss's JSON cost ~16 KiB.
#[test]
fn cold_entries_on_a_10k_corpus_stay_under_4_kib() {
    use banks_datagen::names::{FIRST_NAMES, LAST_NAMES};
    use banks_datagen::stream::{build_database, generate_to_dir, StreamConfig};

    let dir = std::env::temp_dir().join(format!("banks_loopback_10k_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    generate_to_dir(&StreamConfig::new(3, 10_000), &dir).expect("datagen");
    let banks = Arc::new(Banks::new(build_database(&dir).expect("load corpus")).unwrap());
    std::fs::remove_dir_all(&dir).ok();
    let service = Arc::new(QueryService::new(banks, ServiceConfig::default()));
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server =
        BanksServer::bind(Arc::clone(&service), None, None, None, config).expect("bind loopback");
    let addr = server.local_addr();

    const K: usize = 24;
    let mut answers = 0;
    for i in 0..K {
        let first = FIRST_NAMES[i % FIRST_NAMES.len()].to_lowercase();
        let last = LAST_NAMES[(7 * i) % LAST_NAMES.len()].to_lowercase();
        let (status, body) = http_get(addr, &format!("/search?q={first}+{last}"));
        assert_eq!(status, 200, "{first} {last}: {body}");
        assert!(body.contains(r#""cached":false"#), "{first} {last}");
        answers += Json::parse(&body)
            .expect("search JSON")
            .get("count")
            .and_then(Json::as_u64)
            .expect("count");
    }
    let (bytes, entries) = cache_bytes_and_entries(addr);
    assert_eq!(entries, K as u64);
    assert!(answers >= 5 * K as u64, "entries must hold real answers");
    assert!(
        bytes / entries <= 4 << 10,
        "{bytes} bytes over {entries} entries"
    );
    server.shutdown();
}

/// Send `request` raw, then read until the peer closes. Returns the
/// response status (0 when the connection closed without one) and the
/// time from connect to close.
fn raw_exchange(addr: SocketAddr, request: &[u8]) -> (u16, Duration) {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request).expect("send request");
    let mut response = Vec::new();
    // A reset after the response counts as a close.
    let _ = stream.read_to_end(&mut response);
    let status = String::from_utf8_lossy(&response)
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, t0.elapsed())
}

/// Both roles frame requests with the same HTTP core, so a malformed
/// request gets the same answer from `banks serve` and from `banks
/// route`, under the server's default limits (16 KiB head, 8 MiB body,
/// 2 s to send the head). The router answers these itself; none reaches
/// the leader.
#[test]
fn malformed_requests_get_the_same_answer_from_server_and_router() {
    let fx = fixture();
    let router = Router::bind(RouterConfig {
        leader: fx.server.local_addr().to_string(),
        workers: 2,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let padding = "x".repeat(20 * 1024);
    let rows: [(&str, String, u16, Duration); 5] = [
        (
            "unparseable Content-Length",
            "POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n{}".to_string(),
            400,
            Duration::from_secs(1),
        ),
        (
            "20 KiB header block",
            format!("GET /health HTTP/1.1\r\nHost: x\r\nX-Pad: {padding}\r\n\r\n"),
            431,
            Duration::from_secs(1),
        ),
        (
            "declared body over the cap, none sent",
            "POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 9000000\r\n\r\n".to_string(),
            413,
            Duration::from_secs(1),
        ),
        (
            "garbage request line",
            "GARBAGE\r\n\r\n".to_string(),
            400,
            Duration::from_secs(1),
        ),
        (
            "client stops mid-header",
            "GET /health HTTP/1.1\r\nHost: x\r\n".to_string(),
            0,
            Duration::from_secs(4),
        ),
    ];
    for (role, addr) in [
        ("server", fx.server.local_addr()),
        ("router", router.local_addr()),
    ] {
        for (what, request, want, within) in &rows {
            let (status, elapsed) = raw_exchange(addr, request.as_bytes());
            assert_eq!(status, *want, "{role}: {what}");
            assert!(elapsed < *within, "{role}: {what} took {elapsed:?}");
        }
    }
    assert_eq!(router.stats().backends[0].forwarded, 0);
    router.shutdown();
}
