//! Chaos suite: the whole stack under deterministic injected faults.
//!
//! Compiled against the real fault registry only with the
//! `fault-injection` feature:
//!
//! ```text
//! cargo test -p banks-testsuite --test chaos --features fault-injection
//! ```
//!
//! Three scenarios, mirroring the failure modes the serving stack
//! promises to absorb:
//!
//! 1. **Durability under WAL faults** — a live HTTP server acks ingest
//!    batches while `wal.append.fsync` errors and `wal.append.write`
//!    torn writes fire; after an ungraceful death, recovery must hold
//!    the ack contract exactly: every acked batch survives, every
//!    failed ack is absent, answers are byte-identical.
//! 2. **Paged storage faults** — bundle section reads fail loudly at
//!    open (typed error, not corruption); page-in delays never change
//!    answers; page-in I/O errors panic (loud) instead of serving
//!    wrong bytes. The tuple-block lane (`data.block.read`) holds the
//!    same contract for the lazy DATA section.
//! 3. **Network chaos through the cluster** — leader + follower +
//!    router with `http.connect` / `http.read` faults firing on every
//!    internal hop: the client-visible error rate stays bounded, no
//!    acked write is lost, and the follower converges to bit-identical
//!    answers once the network heals.
//!
//! Every fault stream is seeded, so a failure reproduces exactly.
#![cfg(feature = "fault-injection")]

use banks_core::{Banks, BanksConfig};
use banks_datagen::dblp::{generate, DblpConfig};
use banks_ingest::SnapshotPublisher;
use banks_persist::{PersistOptions, PersistentStore};
use banks_replica::{Replica, ReplicaConfig};
use banks_router::{Router, RouterConfig};
use banks_server::{BanksServer, IngestEndpoint, QueryService, ServerConfig, ServiceConfig};
use banks_util::fault::{self, FaultPoint};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fault registry is process-global; scenarios must not overlap.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "banks_chaos_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// Raw-TCP HTTP client: the test must NOT use `banks_util::http`, or the
// armed `http.connect` / `http.read` points would fire on the test's
// own requests and the measured error rate would include self-inflicted
// client faults.
fn http(addr: SocketAddr, request: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    stream.write_all(request.as_bytes()).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let status = response.split_whitespace().nth(1)?.parse().ok()?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Some((status, body))
}

fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    http(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
    )
    .unwrap_or((0, String::new()))
}

fn http_post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        ),
    )
    .unwrap_or((0, String::new()))
}

fn json_u64(body: &str, field: &str) -> Option<u64> {
    let idx = body.find(&format!("\"{field}\":"))?;
    let rest = &body[idx + field.len() + 3..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn ingest_body(id: &str) -> String {
    format!(
        r#"{{"ops":[{{"op":"insert","relation":"Author","values":["{id}","Chaos Author {id}"]}}]}}"#
    )
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A durable leader over `dir`, mirroring `banks serve --data-dir`.
fn durable_server(dir: &Path) -> (Arc<QueryService>, BanksServer, Arc<PersistentStore>) {
    let config = BanksConfig::default();
    let (store, recovery) =
        PersistentStore::open(dir, &config, PersistOptions::default()).expect("open store");
    let (banks, epoch) = match recovery.banks {
        Some(banks) => (banks, recovery.epoch),
        None => {
            let dataset = generate(DblpConfig::tiny(3)).expect("datagen");
            let banks = Arc::new(Banks::new(dataset.db.clone()).expect("banks"));
            store.save_snapshot(&banks, 0).expect("initial snapshot");
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
    let ingest =
        IngestEndpoint::with_publisher(Arc::clone(&service), publisher, Some(Arc::clone(&store)));
    let server = BanksServer::bind(
        Arc::clone(&service),
        Some(ingest),
        Some(Arc::clone(&store)),
        None,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind leader");
    (service, server, store)
}

/// Ranked answers must be fingerprint-identical across two services.
fn assert_same_answers(a: &QueryService, b: &QueryService, q: &str) {
    let x = a.search(q, Default::default()).expect("search a");
    let y = b.search(q, Default::default()).expect("search b");
    if x.result.answers.len() != y.result.answers.len() {
        // Enough context to diagnose a flake from the CI log alone.
        eprintln!(
            "MISMATCH {q}: a cached={} epoch={} {:?} vs b cached={} epoch={} {:?}",
            x.cached,
            x.epoch,
            x.result
                .answers
                .iter()
                .map(|p| (p.tree.signature(), p.relevance))
                .collect::<Vec<_>>(),
            y.cached,
            y.epoch,
            y.result
                .answers
                .iter()
                .map(|p| (p.tree.signature(), p.relevance))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(x.result.answers.len(), y.result.answers.len(), "{q}");
    for (p, r) in x.result.answers.iter().zip(&y.result.answers) {
        assert_eq!(p.tree.signature(), r.tree.signature(), "{q}");
        assert_eq!(p.relevance.to_bits(), r.relevance.to_bits(), "{q}");
    }
}

/// Scenario 1: WAL fsync errors + torn frame writes under live HTTP
/// ingest, then an ungraceful death. The ack contract must hold exactly
/// on recovery — acked batches all present, failed acks all absent.
#[test]
fn wal_faults_never_lose_an_acked_write_or_apply_a_failed_one() {
    let _guard = serial();
    let dir = tmp_dir("wal");

    let (acked, nacked, walled_before) = {
        let (_service, server, _store) = durable_server(&dir);
        let addr = server.local_addr();
        fault::arm("wal.append.fsync", FaultPoint::ReturnErr, 0.35, 42);
        fault::arm("wal.append.write", FaultPoint::TornWrite, 0.25, 7);

        let mut acked = Vec::new();
        let mut nacked = Vec::new();
        for i in 0..24u32 {
            let id = format!("chaos-{i}");
            let (status, body) = http_post(addr, "/ingest", &ingest_body(&id));
            if status == 200 {
                // Each ack's epoch must be the next in sequence: failed
                // appends never advance the published state.
                assert_eq!(
                    json_u64(&body, "epoch"),
                    Some(acked.len() as u64 + 1),
                    "{body}"
                );
                acked.push(id);
            } else {
                // Ingest failures are 409s; a WAL fault must say so
                // explicitly, not masquerade as a validation error.
                assert_eq!(status, 409, "unexpected status for a WAL fault: {body}");
                assert!(body.contains("durability failure"), "{body}");
                nacked.push(id);
            }
        }
        // The seeded streams must actually exercise both branches.
        assert!(fault::fired("wal.append.fsync") > 0, "fsync faults fired");
        assert!(fault::fired("wal.append.write") > 0, "torn writes fired");
        assert!(acked.len() >= 4, "some acks: {acked:?}");
        assert!(nacked.len() >= 4, "some failures: {nacked:?}");

        fault::clear();
        let (_, walled) = http_get(addr, "/search?q=chaos");
        server.shutdown();
        (acked, nacked, walled)
        // Ungraceful: no snapshot roll, just Drop.
    };

    // Recovery: exact epoch, every acked author, no nacked author.
    let (service, server, store) = durable_server(&dir);
    assert_eq!(store.stats().recovered_epoch, Some(acked.len() as u64));
    for id in &acked {
        let result = service.search(id, Default::default()).expect("search");
        assert_eq!(result.result.answers.len(), 1, "acked {id} lost");
    }
    for id in &nacked {
        let result = service.search(id, Default::default()).expect("search");
        assert!(
            result.result.answers.is_empty(),
            "failed ack {id} was applied"
        );
    }
    // The full rendered answer payload is byte-identical to pre-crash.
    let (_, walled_after) = http_get(server.local_addr(), "/search?q=chaos");
    let strip = |body: &str| body[body.find(r#""count""#).expect("count")..].to_string();
    assert_eq!(strip(&walled_after), strip(&walled_before));
    server.shutdown();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// Scenario 2: paged-storage faults. Section-read errors at open are
/// typed failures (never a mangled graph); page-in delays never change
/// answers; page-in errors panic loudly instead of serving wrong bytes.
#[test]
fn paged_read_faults_are_loud_never_corrupt() {
    let _guard = serial();
    fault::clear();
    let dir = tmp_dir("paged");
    let config = BanksConfig::default();
    let dataset = generate(DblpConfig::tiny(5)).expect("datagen");
    let in_ram = Banks::new(dataset.db.clone()).expect("banks");
    {
        let (store, _) =
            PersistentStore::open(&dir, &config, PersistOptions::default()).expect("open");
        store
            .save_snapshot(&Arc::new(Banks::new(dataset.db.clone()).expect("banks")), 0)
            .expect("snapshot");
    }
    let bundle = dir.join(banks_persist::snapshot_file(0));

    // Injected section-read errors surface as a typed open error.
    fault::arm("bundle.section.read", FaultPoint::ReturnErr, 1.0, 21);
    let err = banks_persist::open_bundle_paged(&bundle, 1 << 20, &config);
    assert!(err.is_err(), "section faults must fail the open");
    assert!(
        err.err()
            .map(|e| e.to_string())
            .unwrap_or_default()
            .contains("injected fault"),
        "the injected fault must be visible in the error chain"
    );
    fault::clear();

    // Page-in delays: slower, never different. Answers stay bit-equal
    // to the in-RAM backend under a 50%-rate injected stall. The tiny
    // budget forces evictions, so multi-keyword tree expansions must
    // page segments back in mid-search.
    fault::arm(
        "pager.page_in",
        FaultPoint::Delay(Duration::from_millis(2)),
        0.5,
        33,
    );
    let (paged, _) = banks_persist::open_bundle_paged(&bundle, 1024, &config).expect("paged open");
    for q in ["soumen sunita", "author sunita", "transaction"] {
        let a = in_ram.search(q).expect("in-ram search");
        let b = paged.search(q).expect("paged search");
        assert_eq!(a.len(), b.len(), "{q}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tree.signature(), y.tree.signature(), "{q}");
            assert_eq!(x.relevance.to_bits(), y.relevance.to_bits(), "{q}");
        }
    }
    assert!(fault::fired("pager.page_in") > 0, "delays fired");
    fault::clear();

    // Page-in I/O errors panic (the adjacency accessors have no error
    // channel) — loud refusal, never silently wrong answers. A fresh
    // paged instance, so the poisoned cache cannot leak into other
    // assertions.
    let (doomed, _) = banks_persist::open_bundle_paged(&bundle, 1024, &config).expect("paged open");
    fault::arm("pager.page_in", FaultPoint::ReturnErr, 1.0, 9);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // A tiny budget forces page-ins even if open warmed some
        // segments; the first fault then panics the search.
        for q in ["soumen sunita", "author sunita", "transaction"] {
            let _ = doomed.search(q);
        }
    }));
    assert!(panicked.is_err(), "page-in faults must panic, not corrupt");
    fault::clear();
    drop(doomed);
    std::fs::remove_dir_all(&dir).ok();
}

/// Scenario 2b: tuple-block faults on the lazy DATA section. Block
/// reads under injected delays stay bit-equal to the in-RAM database
/// (rendered answers included); block read errors panic loudly instead
/// of serving fabricated tuples.
#[test]
fn tuple_block_faults_are_loud_never_corrupt() {
    let _guard = serial();
    fault::clear();
    let dir = tmp_dir("tuple_blocks");
    let config = BanksConfig::default();
    let dataset = generate(DblpConfig::tiny(5)).expect("datagen");
    let in_ram = Banks::new(dataset.db.clone()).expect("banks");
    {
        let (store, _) =
            PersistentStore::open(&dir, &config, PersistOptions::default()).expect("open");
        store
            .save_snapshot(&Arc::new(Banks::new(dataset.db.clone()).expect("banks")), 0)
            .expect("snapshot");
    }
    let bundle = dir.join(banks_persist::snapshot_file(0));

    // Block-read delays: slower, never different. The 1 KiB budget
    // keeps almost nothing resident, so every rendered answer and
    // every raw value read must page tuple blocks back in through the
    // armed fault point.
    fault::arm(
        "data.block.read",
        FaultPoint::Delay(Duration::from_millis(2)),
        0.5,
        51,
    );
    let (paged, _) = banks_persist::open_bundle_paged(&bundle, 1024, &config).expect("paged open");
    assert!(
        paged.db().tuple_store_stats().is_some(),
        "a v3 bundle must open with a lazy tuple store"
    );
    for q in ["soumen sunita", "author sunita", "transaction"] {
        let a = in_ram.search(q).expect("in-ram search");
        let b = paged.search(q).expect("paged search");
        assert_eq!(a.len(), b.len(), "{q}");
        for (x, y) in a.iter().zip(&b) {
            // Rendering is what decodes tuple values — this is the
            // read path the fault point sits on.
            assert_eq!(in_ram.render_answer(x), paged.render_answer(y), "{q}");
        }
    }
    // And a full raw sweep: every live slot of every relation decodes
    // to the exact same tuple despite the stalls.
    for (ft, pt) in in_ram.db().relations().zip(paged.db().relations()) {
        for slot in 0..ft.slot_count() as u32 {
            assert_eq!(ft.get(slot), pt.get(slot));
        }
    }
    assert!(fault::fired("data.block.read") > 0, "block delays fired");
    fault::clear();
    drop(paged);

    // Block-read I/O errors panic (the tuple accessors have no error
    // channel) — loud refusal, never a fabricated tuple. Fresh
    // instance so nothing warm survives from the delay phase.
    let (doomed, _) = banks_persist::open_bundle_paged(&bundle, 1024, &config).expect("paged open");
    fault::arm("data.block.read", FaultPoint::ReturnErr, 1.0, 13);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for table in doomed.db().relations() {
            for slot in 0..table.slot_count() as u32 {
                let _ = table.get(slot);
            }
        }
    }));
    assert!(panicked.is_err(), "block faults must panic, not corrupt");
    fault::clear();
    drop(doomed);
    std::fs::remove_dir_all(&dir).ok();
}

/// Scenario 3: network chaos across every internal hop of a
/// leader + follower + router cluster. Client-visible error rate stays
/// bounded, no acked write is lost, and the follower converges to
/// bit-identical answers once the network heals.
#[test]
fn network_chaos_through_router_keeps_errors_bounded_and_writes_safe() {
    let _guard = serial();
    fault::clear();
    let leader_dir = tmp_dir("net_leader");
    let follower_dir = tmp_dir("net_follower");

    let (leader_service, leader_server, _store) = durable_server(&leader_dir);
    let leader_addr = leader_server.local_addr();
    let replica = Replica::start(
        ReplicaConfig {
            leader: leader_addr.to_string(),
            data_dir: follower_dir.clone(),
            poll_wait_ms: 300,
            retry_backoff: Duration::from_millis(20),
            ..ReplicaConfig::default()
        },
        ServiceConfig::default(),
    )
    .expect("follower start");
    let follower_server = BanksServer::bind(
        replica.service(),
        None,
        Some(replica.store()),
        None,
        ServerConfig {
            workers: 2,
            leader_hint: Some(leader_addr.to_string()),
            ..ServerConfig::default()
        },
    )
    .expect("bind follower");
    let router = Router::bind(RouterConfig {
        addr: "127.0.0.1:0".into(),
        leader: leader_addr.to_string(),
        followers: vec![follower_server.local_addr().to_string()],
        workers: 2,
        probe_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let front = router.local_addr();

    // A healthy write before the storm, so convergence is provable.
    let (status, _) = http_post(front, "/ingest", &ingest_body("net-pre"));
    assert_eq!(status, 200);
    wait_for("follower at epoch 1", || replica.service().epoch() == 1);

    // The storm: every internal banks_util::http hop — router→backend
    // forwards, router probes, replica tailing — rolls these streams.
    fault::arm("http.connect", FaultPoint::ReturnErr, 0.15, 11);
    fault::arm("http.read", FaultPoint::ReturnErr, 0.10, 13);

    let mut reads = 0u32;
    let mut read_errors = 0u32;
    let mut acked = vec!["net-pre".to_string()];
    for i in 0..30u32 {
        let (status, _) = http_get(front, &format!("/search?q=chaos+{i}"));
        reads += 1;
        if status != 200 {
            read_errors += 1;
        }
        if i % 5 == 0 {
            let id = format!("net-{i}");
            let (status, body) = http_post(front, "/ingest", &ingest_body(&id));
            if status == 200 {
                assert!(json_u64(&body, "epoch").is_some(), "{body}");
                acked.push(id);
            }
        }
    }
    assert!(
        fault::fired("http.connect") > 0 || fault::fired("http.read") > 0,
        "the storm must have fired"
    );
    // Bounded client error rate: the router's retries + plan-walk
    // failover absorb most injected faults. The bound is generous on
    // purpose — the promise is "bounded", not "zero".
    assert!(
        read_errors * 4 <= reads,
        "client error rate too high: {read_errors}/{reads}"
    );

    // Heal. A write the router 502'd (injected read fault on the
    // response) can still be mid-apply on the leader — wait for the
    // leader to go quiescent before pinning the convergence target.
    fault::clear();
    wait_for("leader quiescent", || {
        let epoch = leader_service.epoch();
        std::thread::sleep(Duration::from_millis(200));
        leader_service.epoch() == epoch
    });
    // Every acked write must be on the leader, and the follower must
    // converge to the leader's exact epoch and answers.
    for id in &acked {
        let result = leader_service
            .search(id, Default::default())
            .expect("search");
        assert_eq!(result.result.answers.len(), 1, "acked {id} lost");
    }
    let leader_epoch = leader_service.epoch();
    wait_for("follower converged", || {
        replica.service().epoch() == leader_epoch
    });
    for q in ["chaos", "mohan", "chaos author"] {
        assert_same_answers(&leader_service, &replica.service(), q);
    }

    // Reads through the healed front door answer again, and the
    // router's chaos telemetry families are exposed.
    wait_for("front door healthy", || {
        http_get(front, "/search?q=chaos").0 == 200
    });
    let (status, metrics) = http_get(front, "/metrics");
    assert_eq!(status, 200);
    for family in [
        "banks_retries_total",
        "banks_retry_budget_tokens",
        "banks_breaker_state",
    ] {
        assert!(
            metrics.contains(&format!("# TYPE {family} ")),
            "family {family} missing from router /metrics"
        );
    }

    router.shutdown();
    follower_server.shutdown();
    replica.shutdown();
    leader_server.shutdown();
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}
