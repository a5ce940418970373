//! Whole-cluster integration: a durable leader, two followers tailing
//! its WAL (`banks-replica`), and the routing front door
//! (`banks-router`) — all in one process, over real loopback HTTP.
//!
//! The scenario mirrors the deployment story end to end:
//!
//! 1. writes enter through the **router** and land on the leader;
//! 2. both followers converge to the leader's epoch and serve
//!    bit-identical ranked answers;
//! 3. one follower is killed mid-traffic — every in-flight and
//!    subsequent read still answers `200` (failover, not errors);
//! 4. the follower restarts from its **persisted** state (no snapshot
//!    re-download) and the router re-admits it into rotation.
//!
//! The killed follower sits behind a tiny test-owned TCP relay so its
//! advertised address survives the restart: the relay's listener is
//! never rebound (a follower that died seconds ago leaves TIME_WAIT
//! sockets that would make a plain std rebind flaky), while the real
//! follower comes back on a fresh port behind it.

use banks_core::{Banks, BanksConfig};
use banks_datagen::dblp::{generate, DblpConfig};
use banks_ingest::SnapshotPublisher;
use banks_persist::{PersistOptions, PersistentStore};
use banks_replica::{Replica, ReplicaConfig};
use banks_router::{Router, RouterConfig};
use banks_server::{BanksServer, IngestEndpoint, QueryService, ServerConfig, ServiceConfig};
use banks_util::http::{http_request, HttpResponse};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "banks_cluster_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable leader over `dir`, mirroring `banks serve --data-dir`.
fn leader(dir: &Path) -> (Arc<QueryService>, BanksServer, Arc<IngestEndpoint>) {
    let config = BanksConfig::default();
    let (store, recovery) =
        PersistentStore::open(dir, &config, PersistOptions::default()).expect("open leader");
    let (banks, epoch) = match recovery.banks {
        Some(banks) => (banks, recovery.epoch),
        None => {
            let dataset = generate(DblpConfig::tiny(7)).expect("datagen");
            let banks = Arc::new(Banks::new(dataset.db.clone()).expect("banks"));
            store.save_snapshot(&banks, 0).expect("initial bundle");
            (banks, 0)
        }
    };
    let service = Arc::new(QueryService::with_epoch(
        Arc::clone(&banks),
        epoch,
        ServiceConfig::default(),
    ));
    let mut publisher = SnapshotPublisher::with_epoch(banks, epoch);
    publisher.set_durability_hook(store.wal_hook());
    let ingest = IngestEndpoint::with_publisher(Arc::clone(&service), publisher, Some(store));
    let server = BanksServer::bind(
        Arc::clone(&service),
        Some(Arc::clone(&ingest)),
        ingest.store().cloned(),
        None,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind leader");
    (service, server, ingest)
}

/// A follower over `dir`, mirroring `banks serve --follow --data-dir`.
fn follower(dir: &Path, leader_addr: SocketAddr) -> (Replica, BanksServer) {
    let replica = Replica::start(
        ReplicaConfig {
            leader: leader_addr.to_string(),
            data_dir: dir.to_path_buf(),
            poll_wait_ms: 500,
            retry_backoff: Duration::from_millis(20),
            ..ReplicaConfig::default()
        },
        ServiceConfig::default(),
    )
    .expect("follower start");
    let config = ServerConfig {
        workers: 2,
        leader_hint: Some(leader_addr.to_string()),
        ..ServerConfig::default()
    };
    let server = BanksServer::bind(replica.service(), None, Some(replica.store()), None, config)
        .expect("bind follower");
    (replica, server)
}

/// A one-connection-at-a-time TCP relay with a stable public address
/// and a swappable target. `set_target(None)` is the kill switch:
/// accepted connections are dropped on the floor, which the router
/// sees as a dead backend.
struct Relay {
    addr: SocketAddr,
    target: Arc<Mutex<Option<SocketAddr>>>,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Relay {
    fn new(target: SocketAddr) -> Relay {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
        let addr = listener.local_addr().expect("relay addr");
        let target = Arc::new(Mutex::new(Some(target)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let target = Arc::clone(&target);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(mut down) = conn else { continue };
                    let Some(to) = *target.lock().expect("relay target") else {
                        continue; // kill switch: drop the connection
                    };
                    let Ok(mut up) = TcpStream::connect(to) else {
                        continue;
                    };
                    std::thread::spawn(move || {
                        let (Ok(mut up_rx), Ok(mut down_rx)) = (up.try_clone(), down.try_clone())
                        else {
                            return;
                        };
                        let forward = std::thread::spawn(move || {
                            let _ = std::io::copy(&mut down_rx, &mut up);
                            let _ = up.shutdown(Shutdown::Write);
                        });
                        let _ = std::io::copy(&mut up_rx, &mut down);
                        let _ = down.shutdown(Shutdown::Write);
                        let _ = forward.join();
                    });
                }
            })
        };
        Relay {
            addr,
            target,
            shutdown,
            handle: Some(handle),
        }
    }

    fn set_target(&self, to: Option<SocketAddr>) {
        *self.target.lock().expect("relay target") = to;
    }

    fn stop(mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr); // wake the accept loop
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn get(addr: SocketAddr, target: &str) -> HttpResponse {
    http_request(
        &addr.to_string(),
        "GET",
        target,
        None,
        Duration::from_secs(30),
    )
    .expect("router GET")
}

fn post(addr: SocketAddr, target: &str, body: &str) -> HttpResponse {
    http_request(
        &addr.to_string(),
        "POST",
        target,
        Some(body.as_bytes()),
        Duration::from_secs(30),
    )
    .expect("router POST")
}

fn json_u64(body: &str, field: &str) -> Option<u64> {
    let idx = body.find(&format!("\"{field}\":"))?;
    let rest = &body[idx + field.len() + 3..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn ingest_body(id: &str) -> String {
    format!(
        r#"{{"ops":[{{"op":"insert","relation":"Author","values":["{id}","Clustered Author {id}"]}}]}}"#
    )
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Ranked answers must be fingerprint-identical across two services:
/// same trees (by signature) in the same order with bit-equal scores.
fn assert_same_answers(a: &QueryService, b: &QueryService, q: &str) {
    let x = a.search(q, Default::default()).expect("search a");
    let y = b.search(q, Default::default()).expect("search b");
    assert_eq!(x.result.answers.len(), y.result.answers.len(), "{q}");
    for (p, r) in x.result.answers.iter().zip(&y.result.answers) {
        assert_eq!(p.tree.signature(), r.tree.signature(), "{q}");
        assert_eq!(p.relevance.to_bits(), r.relevance.to_bits(), "{q}");
    }
}

#[test]
fn cluster_converges_and_survives_a_follower_kill() {
    let leader_dir = tmp_dir("leader");
    let f1_dir = tmp_dir("f1");
    let f2_dir = tmp_dir("f2");

    let (leader_service, leader_server, _ingest) = leader(&leader_dir);
    let leader_addr = leader_server.local_addr();
    let (f1, f1_server) = follower(&f1_dir, leader_addr);
    let (f2, f2_server) = follower(&f2_dir, leader_addr);
    let relay = Relay::new(f1_server.local_addr());

    let router = Router::bind(RouterConfig {
        addr: "127.0.0.1:0".into(),
        leader: leader_addr.to_string(),
        followers: vec![relay.addr.to_string(), f2_server.local_addr().to_string()],
        workers: 2,
        probe_interval: Duration::from_millis(50),
        eject_after: 2,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let front = router.local_addr();

    // Writes enter through the router and land on the leader.
    for i in 1..=3u64 {
        let resp = post(front, "/ingest", &ingest_body(&format!("cl-{i}")));
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(json_u64(&resp.text(), "epoch"), Some(i));
    }
    assert_eq!(leader_service.epoch(), 3);

    // The router forwards the client's method: a bodiless POST reaches
    // the leader as a POST (400, empty batch), not as a GET (405), and
    // a GET gets the leader's own 405.
    let resp = post(front, "/ingest", "");
    assert_eq!(resp.status, 400, "{}", resp.text());
    let resp = get(front, "/ingest");
    assert_eq!(resp.status, 405, "{}", resp.text());
    assert_eq!(leader_service.epoch(), 3);

    // Both followers converge to the leader's epoch and to
    // fingerprint-identical ranked answers.
    wait_for("followers at epoch 3", || {
        f1.service().epoch() == 3 && f2.service().epoch() == 3
    });
    for q in ["clustered", "mohan", "clustered author"] {
        assert_same_answers(&leader_service, &f1.service(), q);
        assert_same_answers(&leader_service, &f2.service(), q);
    }

    // Read-your-writes through the full stack: ingest via the router,
    // then demand the new epoch on the very next read.
    let resp = post(front, "/ingest", &ingest_body("cl-4"));
    assert_eq!(json_u64(&resp.text(), "epoch"), Some(4));
    let resp = get(front, "/search?q=clustered&min_epoch=4");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(json_u64(&resp.text(), "epoch").unwrap() >= 4);
    assert_eq!(json_u64(&resp.text(), "count"), Some(4), "{}", resp.text());
    wait_for("followers at epoch 4", || {
        f1.service().epoch() == 4 && f2.service().epoch() == 4
    });

    // Find a query whose rendezvous winner is follower 1, so the kill
    // provably faces traffic aimed at the dead backend (affinity could
    // otherwise happen to send every test query to follower 2).
    let forwarded_to_relay = || {
        router
            .stats()
            .backends
            .iter()
            .find(|b| b.url == relay.addr.to_string())
            .map(|b| b.forwarded)
            .unwrap_or(0)
    };
    let mut pinned = None;
    for i in 0..64 {
        let q = format!("clustered+{i}");
        let before = forwarded_to_relay();
        let resp = get(front, &format!("/search?q={q}"));
        assert_eq!(resp.status, 200, "{}", resp.text());
        if forwarded_to_relay() > before {
            pinned = Some(q);
            break;
        }
    }
    let pinned = pinned.expect("some query must route to follower 1");

    // Kill follower 1 mid-traffic. Every read during and after the kill
    // must still answer 200 — the router fails over, clients never see
    // the death.
    relay.set_target(None);
    f1_server.shutdown();
    f1.shutdown();
    let queries = ["clustered", "mohan", "clustered+author", "sunita", "soumen"];
    let resp = get(front, &format!("/search?q={pinned}"));
    assert_eq!(resp.status, 200, "pinned read during kill: {}", resp.text());
    for round in 0..6 {
        let q = queries[round % queries.len()];
        let resp = get(front, &format!("/search?q={q}"));
        assert_eq!(resp.status, 200, "read during kill: {}", resp.text());
    }
    wait_for("follower 1 ejection", || {
        router
            .stats()
            .backends
            .iter()
            .any(|b| b.url == relay.addr.to_string() && !b.healthy)
    });
    for q in &queries {
        let resp = get(front, &format!("/search?q={q}"));
        assert_eq!(resp.status, 200, "read after ejection: {}", resp.text());
    }

    // Restart follower 1 from its own directory: it resumes from the
    // persisted snapshot + WAL (no re-download) and catches up.
    let (f1b, f1b_server) = follower(&f1_dir, leader_addr);
    assert_eq!(
        f1b.stats().snapshots_downloaded,
        0,
        "restart must resume from persisted state, not re-download"
    );
    wait_for("restarted follower caught up", || {
        f1b.service().epoch() == 4
    });
    assert_same_answers(&leader_service, &f1b.service(), "clustered");

    // The router's prober re-admits the same registry entry.
    relay.set_target(Some(f1b_server.local_addr()));
    wait_for("follower 1 re-admission", || {
        router
            .stats()
            .backends
            .iter()
            .any(|b| b.url == relay.addr.to_string() && b.healthy && b.epoch == 4)
    });
    let stats = router.stats();
    let relayed = stats
        .backends
        .iter()
        .find(|b| b.url == relay.addr.to_string())
        .expect("relay backend");
    assert!(relayed.ejections >= 1, "{relayed:?}");
    assert!(relayed.readmissions >= 1, "{relayed:?}");
    // The pinned read either failed over mid-request or arrived after
    // the probes had already ejected follower 1 — both are the router
    // absorbing the death; `unavailable` is what clients would see.
    assert_eq!(stats.unavailable, 0, "no client-visible outage: {stats:?}");

    // Back in rotation: reads keep answering 200.
    for q in &queries {
        let resp = get(front, &format!("/search?q={q}"));
        assert_eq!(resp.status, 200, "read after re-admission: {}", resp.text());
    }

    router.shutdown();
    relay.stop();
    f1b_server.shutdown();
    f1b.shutdown();
    f2_server.shutdown();
    f2.shutdown();
    leader_server.shutdown();
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&f1_dir).ok();
    std::fs::remove_dir_all(&f2_dir).ok();
}

#[test]
fn router_error_surfaces_carry_retry_hints() {
    // A router with nothing behind it: reads exhaust the (empty) plan
    // and answer 503 with a Retry-After and a JSON error body.
    let router = Router::bind(RouterConfig {
        addr: "127.0.0.1:0".into(),
        leader: "127.0.0.1:1".into(), // nothing listens there
        followers: Vec::new(),
        workers: 1,
        probe_interval: Duration::from_secs(3600), // stay out of the way
        ..RouterConfig::default()
    })
    .expect("bind router");
    let front = router.local_addr();

    let resp = get(front, "/search?q=anything");
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(resp.text().contains(r#""error""#), "{}", resp.text());

    let resp = post(front, "/ingest", &ingest_body("nope"));
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(
        resp.text().contains("leader unreachable"),
        "{}",
        resp.text()
    );

    // The router's own health/stats endpoints always answer.
    let resp = get(front, "/health");
    assert_eq!(resp.status, 200);
    let resp = get(front, "/stats");
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains(r#""backends""#), "{}", resp.text());

    router.shutdown();
}
