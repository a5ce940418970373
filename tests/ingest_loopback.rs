//! Concurrent live-ingestion loopback test: a real HTTP server, 8 query
//! clients hammering `/search` while a writer publishes epochs through
//! `POST /ingest`. Asserts: no panics, every response carries a valid
//! epoch, no stale-epoch cache hits (epochs observed by one client never
//! go backwards), and exact `/stats` accounting under publication churn.

use banks_core::Banks;
use banks_datagen::dblp::{generate, DblpConfig};
use banks_server::{BanksServer, IngestEndpoint, QueryService, ServerConfig, ServiceConfig};
use banks_util::http::http_request;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

struct Fixture {
    service: Arc<QueryService>,
    server: BanksServer,
}

fn fixture() -> Fixture {
    let dataset = generate(DblpConfig::tiny(1)).expect("datagen");
    let banks = Arc::new(Banks::new(dataset.db.clone()).expect("banks builds"));
    let service = Arc::new(QueryService::new(banks, ServiceConfig::default()));
    let ingest = IngestEndpoint::new(Arc::clone(&service));
    let config = ServerConfig {
        workers: 10,
        ..ServerConfig::default()
    };
    let server = BanksServer::bind(Arc::clone(&service), Some(ingest), None, None, config)
        .expect("bind loopback");
    Fixture { service, server }
}

/// One request through the shared client: `(status, body)`.
fn http(addr: SocketAddr, method: &str, target: &str, body: Option<&str>) -> (u16, String) {
    let addr = addr.to_string();
    let body = body.map(str::as_bytes);
    let resp = http_request(&addr, method, target, body, Duration::from_secs(30)).expect("request");
    (resp.status, resp.text())
}

fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    http(addr, "GET", target, None)
}

fn http_post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    http(addr, "POST", target, Some(body))
}

/// Extract `"field":<u64>` from a flat JSON body.
fn json_u64(body: &str, field: &str) -> Option<u64> {
    let idx = body.find(&format!("\"{field}\":"))?;
    let rest = &body[idx + field.len() + 3..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn insert_batch(tag: &str) -> String {
    // Referencing nothing: a standalone author is always valid.
    format!(
        r#"{{"ops":[{{"op":"insert","relation":"Author","values":["ingest-{tag}","Ingested Author {tag}"]}}]}}"#
    )
}

#[test]
fn eight_clients_query_while_a_writer_publishes_epochs() {
    let fx = fixture();
    let addr = fx.server.local_addr();
    let clients = 8usize;
    let queries_per_client = 30usize;
    let queries = ["mohan", "sudarshan", "transaction", "mohan sudarshan"];

    let published = std::thread::scope(|scope| {
        let reader_handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut last_epoch = 0u64;
                    for i in 0..queries_per_client {
                        let q = queries[(c + i) % queries.len()];
                        let (status, body) =
                            http_get(addr, &format!("/search?q={}", q.replace(' ', "+")));
                        assert_eq!(status, 200, "client {c} query {i}");
                        // Every response carries a valid epoch…
                        let epoch = json_u64(&body, "epoch")
                            .unwrap_or_else(|| panic!("client {c}: no epoch in {body:.200}"));
                        // …and epochs observed by one client never go
                        // backwards: serving a stale cached entry after
                        // a newer epoch was observed would violate this.
                        assert!(
                            epoch >= last_epoch,
                            "client {c}: epoch went backwards ({epoch} < {last_epoch})"
                        );
                        last_epoch = epoch;
                    }
                    last_epoch
                })
            })
            .collect();

        // Writer: publish epochs while the readers run.
        let writer = scope.spawn(|| {
            let mut epochs = Vec::new();
            for round in 0..6 {
                let (status, body) = http_post(
                    addr,
                    &format!("/ingest?ts=t{round}"),
                    &insert_batch(&format!("w{round}")),
                );
                assert_eq!(status, 200, "publish {round}: {body}");
                let epoch = json_u64(&body, "epoch").expect("ingest response has epoch");
                epochs.push(epoch);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            epochs
        });

        for h in reader_handles {
            h.join().expect("reader client must not panic");
        }
        writer.join().expect("writer must not panic")
    });

    // The writer saw strictly increasing epochs 1..=6.
    assert_eq!(published, vec![1, 2, 3, 4, 5, 6]);

    // Quiesced: a repeat query serves the final epoch, and its repeat is
    // a cache hit on that same epoch.
    let (_, cold) = http_get(addr, "/search?q=mohan");
    assert_eq!(json_u64(&cold, "epoch"), Some(6));
    let (_, warm) = http_get(addr, "/search?q=mohan");
    assert_eq!(json_u64(&warm, "epoch"), Some(6));
    assert!(warm.contains(r#""cached":true"#), "{warm}");
    // The tuples ingested mid-run are searchable now.
    let (status, body) = http_get(addr, "/search?q=ingested");
    assert_eq!(status, 200);
    assert!(json_u64(&body, "count").unwrap() >= 1, "{body:.200}");

    // Stats: epoch, caller timestamp, exact hit/miss accounting, and
    // per-epoch invalidation counts present.
    let stats = fx.service.stats();
    assert_eq!(stats.epoch, 6);
    assert_eq!(stats.last_publish.as_deref(), Some("t5"));
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        stats.queries,
        "every lookup accounted under churn"
    );
    let invalidated: u64 = stats.invalidations_by_epoch.iter().map(|&(_, n)| n).sum();
    assert_eq!(invalidated, stats.cache.invalidations);
    let (_, stats_body) = http_get(addr, "/stats");
    assert!(stats_body.contains(r#""epoch":6"#), "{stats_body}");
    assert!(
        stats_body.contains(r#""last_publish":"t5""#),
        "{stats_body}"
    );
    assert!(stats_body.contains(r#""invalidations""#), "{stats_body}");

    // /epochs reports the full history with caller timestamps.
    let (status, epochs_body) = http_get(addr, "/epochs");
    assert_eq!(status, 200);
    assert!(epochs_body.contains(r#""epoch":6"#), "{epochs_body}");
    assert!(
        epochs_body.contains(r#""published_at":"t0""#),
        "{epochs_body}"
    );
    assert!(
        epochs_body.contains(r#""incremental":true"#),
        "{epochs_body}"
    );

    fx.server.shutdown();
}

#[test]
fn ingest_error_paths_over_http() {
    let fx = fixture();
    let addr = fx.server.local_addr();

    // Malformed JSON body.
    let (status, body) = http_post(addr, "/ingest", "{nope");
    assert_eq!(status, 400, "{body}");

    // Empty batch: malformed request (400), not a data conflict (409).
    let (status, body) = http_post(addr, "/ingest", r#"{"ops":[]}"#);
    assert_eq!(status, 400, "{body}");

    // Valid JSON, invalid op (dangling FK) → rejected, epoch unchanged.
    let (status, body) = http_post(
        addr,
        "/ingest",
        r#"{"ops":[{"op":"insert","relation":"Writes","values":["ghost","nope"]}]}"#,
    );
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("delta rejected"), "{body}");
    assert_eq!(fx.service.epoch(), 0);

    // Wrong method.
    let (status, _) = http_get(addr, "/ingest");
    assert_eq!(status, 405);

    // Unknown relation.
    let (status, _) = http_post(
        addr,
        "/ingest",
        r#"{"ops":[{"op":"delete","relation":"Nope","key":["x"]}]}"#,
    );
    assert_eq!(status, 409);

    // A good batch still lands after all those failures.
    let (status, body) = http_post(addr, "/ingest?ts=now", &insert_batch("ok"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(fx.service.epoch(), 1);

    fx.server.shutdown();
}

#[test]
fn read_only_server_disables_ingest() {
    let dataset = generate(DblpConfig::tiny(1)).expect("datagen");
    let banks = Arc::new(Banks::new(dataset.db.clone()).expect("banks builds"));
    let service = Arc::new(QueryService::new(banks, ServiceConfig::default()));
    let server = BanksServer::bind(
        Arc::clone(&service),
        None,
        None,
        None,
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr();

    let (status, body) = http_post(addr, "/ingest", &insert_batch("x"));
    assert_eq!(status, 503, "{body}");
    // /epochs still answers, with an empty history.
    let (status, body) = http_get(addr, "/epochs");
    assert_eq!(status, 200);
    assert!(body.contains(r#""epoch":0"#), "{body}");
    assert!(body.contains(r#""history":[]"#), "{body}");
    server.shutdown();
}
