//! Chaos suite: the whole stack under deterministic injected faults.
//!
//! The fault registry (`banks_util::fault`) is process-global, so every
//! test that arms a site lives in this binary and runs under
//! [`serial`]. Three scenarios, mirroring the failure modes the serving
//! stack promises to absorb:
//!
//! 1. **Durability under WAL faults** — a live HTTP server acks ingest
//!    batches while `wal.append.fsync` errors and `wal.append.write`
//!    torn writes fire; after an ungraceful death, recovery must hold
//!    the ack contract exactly: every acked batch survives, every
//!    failed ack is absent, answers are byte-identical. The same
//!    contract holds at the store level, one fault at a time.
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

use banks_core::answer::TreeSignature;
use banks_core::{Answer, Banks, BanksConfig};
use banks_datagen::dblp::{generate, DblpConfig};
use banks_ingest::{DeltaBatch, SnapshotPublisher, TupleOp};
use banks_persist::{PersistOptions, PersistentStore};
use banks_replica::{Replica, ReplicaConfig};
use banks_router::{Router, RouterConfig};
use banks_server::{BanksServer, IngestEndpoint, QueryService, ServerConfig, ServiceConfig};
use banks_storage::Value;
use banks_util::fault::{self, FaultPoint, Site};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::assert_identical;

/// The fault registry is process-global; tests must not overlap. Each
/// starts disarmed, even after one that panicked with a site armed.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    guard
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

/// A store + publisher pair over `dir`, seeded with the tiny corpus
/// generated from `seed`.
fn durable_publisher(dir: &Path, seed: u64) -> (Arc<PersistentStore>, SnapshotPublisher) {
    let config = BanksConfig::default();
    let (store, recovery) =
        PersistentStore::open(dir, &config, PersistOptions::default()).expect("open store");
    let (banks, epoch) = match recovery.banks {
        Some(banks) => (banks, recovery.epoch),
        None => {
            let dataset = generate(DblpConfig::tiny(seed)).expect("datagen");
            let banks = Arc::new(Banks::new(dataset.db.clone()).expect("banks"));
            store.save_snapshot(&banks, 0).expect("initial snapshot");
            (banks, 0)
        }
    };
    let mut publisher = SnapshotPublisher::with_epoch(banks, epoch);
    publisher.set_durability_hook(store.wal_hook());
    (store, publisher)
}

/// A durable leader over `dir`, mirroring `banks serve --data-dir`.
fn durable_server(dir: &Path) -> (Arc<QueryService>, BanksServer, Arc<PersistentStore>) {
    let (store, publisher) = durable_publisher(dir, 3);
    let service = Arc::new(QueryService::with_epoch(
        publisher.current(),
        publisher.epoch(),
        ServiceConfig::default(),
    ));
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

/// Ranked answers' tree signatures and relevance bits, in rank order.
fn fingerprint(answers: &[Answer]) -> Vec<(TreeSignature, u64)> {
    let print = |p: &Answer| (p.tree.signature(), p.relevance.to_bits());
    answers.iter().map(print).collect()
}

/// Ranked answers must be bit-identical across two services.
fn assert_same_answers(a: &QueryService, b: &QueryService, q: &str) {
    let [x, y] = [a, b].map(|s| s.search(q, Default::default()).expect("search"));
    let at = [&x, &y].map(|r| (r.cached, r.epoch));
    let [x, y] = [x, y].map(|r| fingerprint(&r.result.answers));
    assert_eq!(x, y, "{q}: (cached, epoch) {at:?}");
}

/// Ranked answers must be bit-identical across two systems.
fn assert_same_search(a: &Banks, b: &Banks, queries: &[&str]) {
    for q in queries {
        let [x, y] = [a, b].map(|s| fingerprint(&s.search(q).expect("search")));
        assert_eq!(x, y, "{q}");
    }
}

/// A snapshot bundle of the tiny corpus under a fresh `dir`, and the
/// same corpus in RAM to compare against: `(dir, bundle, in_ram)`.
fn bundle_fixture(tag: &str) -> (PathBuf, PathBuf, Banks) {
    let dir = tmp_dir(tag);
    let dataset = generate(DblpConfig::tiny(5)).expect("datagen");
    let in_ram = Banks::new(dataset.db.clone()).expect("banks");
    let options = PersistOptions::default();
    let (store, _) = PersistentStore::open(&dir, &BanksConfig::default(), options).expect("open");
    let banks = Arc::new(Banks::new(dataset.db).expect("banks"));
    store.save_snapshot(&banks, 0).expect("snapshot");
    let bundle = dir.join(banks_persist::snapshot_file(0));
    (dir, bundle, in_ram)
}

/// Multi-keyword queries whose answers page the tiny corpus back in.
const PAGED_QUERIES: [&str; 3] = ["soumen sunita", "author sunita", "transaction"];

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
        fault::arm(Site::WalAppendFsync, FaultPoint::ReturnErr, 0.35, 42);
        fault::arm(Site::WalAppendWrite, FaultPoint::TornWrite, 0.25, 7);

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
        assert!(fault::fired(Site::WalAppendFsync) > 0, "fsync faults fired");
        assert!(fault::fired(Site::WalAppendWrite) > 0, "torn writes fired");
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
    let (dir, bundle, in_ram) = bundle_fixture("paged");
    let config = BanksConfig::default();

    // Injected section-read errors surface as a typed open error.
    fault::arm(Site::BundleSectionRead, FaultPoint::ReturnErr, 1.0, 21);
    let err = banks_persist::open_bundle_paged(&bundle, 1 << 20, &config).err();
    let err = err.expect("section faults must fail the open").to_string();
    // The injected fault must be visible in the error chain.
    assert!(err.contains("injected fault: bundle.section.read"), "{err}");
    fault::clear();

    // Page-in delays: slower, never different. Answers stay bit-equal
    // to the in-RAM backend under a 50%-rate injected stall. The tiny
    // budget forces evictions, so multi-keyword tree expansions must
    // page segments back in mid-search.
    let stall = FaultPoint::Delay(Duration::from_millis(2));
    fault::arm(Site::PagerPageIn, stall, 0.5, 33);
    let (paged, _) = banks_persist::open_bundle_paged(&bundle, 1024, &config).expect("paged open");
    assert_same_search(&in_ram, &paged, &PAGED_QUERIES);
    assert!(fault::fired(Site::PagerPageIn) > 0, "delays fired");
    fault::clear();

    // Page-in I/O errors panic (the adjacency accessors have no error
    // channel) — loud refusal, never silently wrong answers. A fresh
    // paged instance, so the poisoned cache cannot leak into other
    // assertions.
    let (doomed, _) = banks_persist::open_bundle_paged(&bundle, 1024, &config).expect("paged open");
    fault::arm(Site::PagerPageIn, FaultPoint::ReturnErr, 1.0, 9);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // A tiny budget forces page-ins even if open warmed some
        // segments; the first fault then panics the search.
        for q in PAGED_QUERIES {
            let _ = doomed.search(q);
        }
    }));
    assert!(panicked.is_err(), "page-in faults must panic, not corrupt");
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
    let (dir, bundle, in_ram) = bundle_fixture("tuple_blocks");
    let config = BanksConfig::default();

    // Block-read delays: slower, never different. The 1 KiB budget
    // keeps almost nothing resident, so every rendered answer and
    // every raw value read must page tuple blocks back in through the
    // armed fault point.
    let stall = FaultPoint::Delay(Duration::from_millis(2));
    fault::arm(Site::DataBlockRead, stall, 0.5, 51);
    let (paged, _) = banks_persist::open_bundle_paged(&bundle, 1024, &config).expect("paged open");
    assert!(
        paged.db().tuple_store_stats().is_some(),
        "a v3 bundle must open with a lazy tuple store"
    );
    for q in PAGED_QUERIES {
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
    assert!(fault::fired(Site::DataBlockRead) > 0, "block delays fired");
    fault::clear();
    drop(paged);

    // Block-read I/O errors panic (the tuple accessors have no error
    // channel) — loud refusal, never a fabricated tuple. Fresh
    // instance so nothing warm survives from the delay phase.
    let (doomed, _) = banks_persist::open_bundle_paged(&bundle, 1024, &config).expect("paged open");
    fault::arm(Site::DataBlockRead, FaultPoint::ReturnErr, 1.0, 13);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for table in doomed.db().relations() {
            for slot in 0..table.slot_count() as u32 {
                let _ = table.get(slot);
            }
        }
    }));
    assert!(panicked.is_err(), "block faults must panic, not corrupt");
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
    fault::arm(Site::HttpConnect, FaultPoint::ReturnErr, 0.15, 11);
    fault::arm(Site::HttpRead, FaultPoint::ReturnErr, 0.10, 13);

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
        fault::fired(Site::HttpConnect) > 0 || fault::fired(Site::HttpRead) > 0,
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

// ---------------------------------------------------------------------------
// WAL append faults at the store level, one site at a time. An ack is
// never lost; a failed ack is never applied — not in memory, not on
// disk, not after recovery.
// ---------------------------------------------------------------------------

/// Publish one `Author` insert through the durable path; true if acked.
fn publish_author(publisher: &mut SnapshotPublisher, id: &str) -> bool {
    let values = vec![Value::text(id), Value::text(format!("Faulted Author {id}"))];
    let ops = vec![TupleOp::Insert {
        relation: "Author".into(),
        values,
    }];
    publisher.publish(&DeltaBatch { ops }, None).is_ok()
}

fn hits(banks: &Banks, q: &str) -> usize {
    banks.search(q).expect("search").len()
}

/// The store `dir` recovers to: its epoch and its system.
fn reopen(dir: &Path) -> (u64, Arc<Banks>) {
    let (_store, recovery) =
        PersistentStore::open(dir, &BanksConfig::default(), PersistOptions::default())
            .expect("reopen");
    (recovery.epoch, recovery.banks.expect("recovered"))
}

#[test]
fn fsync_fault_fails_the_ack_and_leaves_no_trace() {
    let _guard = serial();
    let dir = tmp_dir("fsync_fault");
    {
        let (_store, mut publisher) = durable_publisher(&dir, 1);
        assert!(publish_author(&mut publisher, "kept"));

        fault::arm(Site::WalAppendFsync, FaultPoint::ReturnErr, 1.0, 5);
        assert!(
            !publish_author(&mut publisher, "lost"),
            "a failed fsync fails the ack"
        );
        // The failed publish is invisible in memory: epoch untouched,
        // the author absent from the serving snapshot.
        assert_eq!(publisher.epoch(), 1);
        assert_eq!(hits(&publisher.current(), "lost"), 0);
        fault::clear();

        // The writer rolled the partial frame back — the very next
        // append lands on a clean boundary and succeeds.
        assert!(publish_author(&mut publisher, "after"));
        assert_eq!(publisher.epoch(), 2);
    }
    // Recovery agrees: the failed ack never happened.
    let (epoch, recovered) = reopen(&dir);
    assert_eq!(epoch, 2);
    let found = ["kept", "after", "lost"].map(|id| hits(&recovered, id));
    assert_eq!(found, [1, 1, 0]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_append_rolls_back_to_the_acked_boundary() {
    let _guard = serial();
    let dir = tmp_dir("torn_fault");
    let wal_len = || std::fs::metadata(dir.join("wal.log")).expect("wal").len();
    let live = {
        let (_store, mut publisher) = durable_publisher(&dir, 1);
        assert!(publish_author(&mut publisher, "first"));
        let acked_len = wal_len();

        // Every append tears mid-frame until cleared: each attempt must
        // fail the ack AND truncate back to the acked prefix, byte for
        // byte.
        fault::arm(Site::WalAppendWrite, FaultPoint::TornWrite, 1.0, 17);
        for attempt in 0..3 {
            assert!(!publish_author(&mut publisher, "torn"), "attempt {attempt}");
            assert_eq!(wal_len(), acked_len, "attempt {attempt} left partial bytes");
        }
        assert_eq!(fault::fired(Site::WalAppendWrite), 3);
        fault::clear();

        assert!(publish_author(&mut publisher, "second"));
        assert_eq!(publisher.epoch(), 2);
        publisher.current()
    };
    // Recovery replays exactly the two acked frames, bit-identical.
    let (epoch, recovered) = reopen(&dir);
    assert_eq!(epoch, 2);
    assert_eq!(hits(&recovered, "torn"), 0);
    assert_identical(&live, &recovered, &["faulted", "first second", "mohan"]);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// The registry itself: `arm`, `clear`, `fired` and the hooks they drive.
// ---------------------------------------------------------------------------

#[test]
fn registry_arms_clears_and_counts_fires() {
    let _guard = serial();
    let read = || fault::maybe_fault(Site::HttpRead);
    assert!((0..100).all(|_| read().is_ok()), "unarmed sites never fire");

    let stall = FaultPoint::Delay(Duration::from_millis(120));
    fault::arm(Site::HttpRead, FaultPoint::ReturnErr, 1.0, 9);
    fault::arm(Site::HttpConnect, stall, 1.0, 7);
    for _ in 0..50 {
        assert_eq!(read().unwrap_err().to_string(), "injected fault: http.read");
    }
    let before = Instant::now();
    assert!(fault::maybe_fault(Site::HttpConnect).is_ok());
    assert!(
        before.elapsed() >= Duration::from_millis(120),
        "delays sleep"
    );
    let fires = (
        fault::fired(Site::HttpRead),
        fault::fired(Site::HttpConnect),
    );
    assert_eq!(fires, (50, 1));

    // Re-arming restarts the stream, so a torn cut repeats.
    let torn = || {
        fault::arm(Site::WalAppendWrite, FaultPoint::TornWrite, 1.0, 77);
        fault::torn_write(Site::WalAppendWrite, 1000).unwrap()
    };
    assert_eq!(torn(), torn());
    assert!(torn().is_some_and(|cut| cut < 1000));

    // `clear` disarms every site, and a refused spec arms none.
    fault::clear();
    let err = fault::arm_spec("http.read:err:1:1,wal.apend.fsync:err:0.2:7").unwrap_err();
    assert!(err.contains("`wal.apend.fsync:err:0.2:7`"), "{err}");
    assert!(read().is_ok());
    assert_eq!(fault::arm_spec("http.read:err:1:1").unwrap(), ["http.read"]);
    assert!(read().is_err());
}
