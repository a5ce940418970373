//! Crash-recovery integration tests for `banks-persist`.
//!
//! * A property test proving snapshot → WAL-replay reconstructs the
//!   in-memory post-ingest state **bit for bit**: epoch, tuples and
//!   their slots, graph node weights and edges, text-index postings,
//!   and ranked query results.
//! * A loopback "kill -9" simulation: a real HTTP server acks
//!   `POST /ingest` batches and is then torn down with **no** graceful
//!   snapshot; a second server recovered from the same `--data-dir`
//!   must serve the exact epoch and identical query results. (The CI
//!   recovery suite repeats this with a real `kill -9` against the
//!   `banks serve` binary.)
//! * Snapshot-bundle round trips of the dblp evaluation workload and
//!   the thesis corpus: a saved and reloaded system is identical.
//! * Torn-tail behavior at the store level: a partial append past the
//!   last acked frame is truncated, never replayed, never fatal.

use banks_core::{Banks, BanksConfig};
use banks_datagen::dblp::{generate, DblpConfig};
use banks_datagen::rng::Rng;
use banks_datagen::thesis::{self, ThesisConfig};
use banks_eval::workload::{dblp_eval_config, dblp_workload};
use banks_ingest::{DeltaBatch, SnapshotPublisher, TupleOp};
use banks_persist::{load_bundle, save_bundle, PersistOptions, PersistentStore};
use banks_server::{BanksServer, IngestEndpoint, QueryService, ServerConfig, ServiceConfig};
use banks_storage::Value;
use banks_util::http::http_request;
use proptest::prelude::*;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "banks_recovery_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic batch generator: inserts new authors writing existing
/// papers, renames previously inserted authors, and deletes previously
/// inserted links+authors — every op kind the delta log supports.
struct BatchGen {
    rng: Rng,
    paper_ids: Vec<String>,
    /// Authors inserted so far and still present: (id, has_link).
    minted: Vec<(String, bool)>,
    serial: usize,
}

impl BatchGen {
    fn new(seed: u64, banks: &Banks) -> BatchGen {
        let paper_ids = banks
            .db()
            .relation("Paper")
            .expect("dblp has Paper")
            .scan()
            .map(|(_, t)| t.values()[0].as_text().expect("text pk").to_string())
            .collect();
        BatchGen {
            rng: Rng::new(seed),
            paper_ids,
            minted: Vec::new(),
            serial: 0,
        }
    }

    fn next_batch(&mut self) -> DeltaBatch {
        let mut ops = Vec::new();
        for _ in 0..self.rng.range(1, 4) {
            let id = format!("rec-{}", self.serial);
            self.serial += 1;
            ops.push(TupleOp::Insert {
                relation: "Author".into(),
                values: vec![
                    Value::text(&id),
                    Value::text(format!("Recovered Author {id}")),
                ],
            });
            let linked = self.rng.chance(0.8);
            if linked {
                let paper = self.rng.pick(&self.paper_ids).clone();
                ops.push(TupleOp::Insert {
                    relation: "Writes".into(),
                    values: vec![Value::text(&id), Value::text(paper)],
                });
            }
            self.minted.push((id, linked));
        }
        // Rename one earlier author.
        if !self.minted.is_empty() && self.rng.chance(0.5) {
            let (id, _) = self.rng.pick(&self.minted).clone();
            ops.push(TupleOp::Update {
                relation: "Author".into(),
                key: vec![Value::text(&id)],
                set: vec![(
                    "AuthorName".into(),
                    Value::text(format!("Renamed {} v{}", id, self.serial)),
                )],
            });
        }
        // Delete one earlier author (links first — ops apply in order).
        if self.minted.len() > 1 && self.rng.chance(0.3) {
            let at = self.rng.range(0, self.minted.len());
            let (id, linked) = self.minted.remove(at);
            if linked {
                // The link's paper key is whatever it was inserted with;
                // deleting by the author side requires knowing the paper.
                // Deletes of linked authors are skipped — deleting only
                // unlinked ones keeps the generator stateless about
                // which paper each link used.
                self.minted.insert(at, (id, linked));
            } else {
                ops.push(TupleOp::Delete {
                    relation: "Author".into(),
                    key: vec![Value::text(&id)],
                });
            }
        }
        DeltaBatch { ops }
    }
}

/// Assert two systems are bit-for-bit interchangeable: database slots,
/// graph, text index, and ranked results.
fn assert_identical(live: &Banks, recovered: &Banks, queries: &[&str]) {
    // Tuples, slot-exact.
    assert_eq!(live.db().total_tuples(), recovered.db().total_tuples());
    assert_eq!(live.db().link_count(), recovered.db().link_count());
    for (a, b) in live.db().relations().zip(recovered.db().relations()) {
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.slot_count(), b.slot_count(), "{}", a.schema().name);
        let av: Vec<_> = a.scan().collect();
        let bv: Vec<_> = b.scan().collect();
        assert_eq!(av, bv, "slot drift in {}", a.schema().name);
    }
    // Graph: nodes, weights, edges — bit-exact (f64::to_bits).
    let (g, h) = (live.tuple_graph().graph(), recovered.tuple_graph().graph());
    assert_eq!(g.node_count(), h.node_count());
    assert_eq!(g.edge_count(), h.edge_count());
    for v in g.nodes() {
        assert_eq!(
            g.node_weight(v).to_bits(),
            h.node_weight(v).to_bits(),
            "node weight {v:?}"
        );
        let ge: Vec<_> = g.out_edges(v).map(|(t, w)| (t, w.to_bits())).collect();
        let he: Vec<_> = h.out_edges(v).map(|(t, w)| (t, w.to_bits())).collect();
        assert_eq!(ge, he, "out edges of {v:?}");
    }
    // Text index: every token's postings.
    assert_eq!(
        live.text_index().distinct_tokens(),
        recovered.text_index().distinct_tokens()
    );
    assert_eq!(
        live.text_index().posting_count(),
        recovered.text_index().posting_count()
    );
    for token in live.text_index().tokens() {
        assert_eq!(
            live.text_index().lookup(token),
            recovered.text_index().lookup(token),
            "postings for {token}"
        );
    }
    // Ranked results.
    for q in queries {
        let a = live.search(q).unwrap();
        let b = recovered.search(q).unwrap();
        assert_eq!(a.len(), b.len(), "{q}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tree.signature(), y.tree.signature(), "{q}");
            assert_eq!(x.relevance.to_bits(), y.relevance.to_bits(), "{q}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot → WAL-replay equals the in-memory post-ingest state, for
    /// random batch streams and a random mid-stream snapshot roll.
    #[test]
    fn recovered_state_is_bit_identical(
        seed in 0u64..1_000_000,
        batches in 1usize..6,
        roll_at in 0usize..6,
    ) {
        let dir = tmp_dir(&format!("prop_{seed}_{batches}_{roll_at}"));
        let config = BanksConfig::default();
        let dataset = generate(DblpConfig::tiny(seed % 17 + 1)).expect("datagen");
        let base = Arc::new(Banks::new(dataset.db.clone()).expect("banks"));

        let live = {
            let (store, recovery) =
                PersistentStore::open(&dir, &config, PersistOptions::default()).unwrap();
            prop_assert!(recovery.banks.is_none());
            store.save_snapshot(&base, 0).unwrap();
            let mut publisher = SnapshotPublisher::with_epoch(Arc::clone(&base), 0);
            publisher.set_durability_hook(store.wal_hook());
            let mut generator = BatchGen::new(seed, &base);
            for i in 0..batches {
                let batch = generator.next_batch();
                let published = publisher.publish(&batch, None).unwrap();
                if i == roll_at {
                    // A mid-stream snapshot: recovery must combine
                    // bundle load + replay of the remaining frames.
                    store.save_snapshot(&published.banks, published.info.epoch).unwrap();
                }
            }
            prop_assert_eq!(publisher.epoch(), batches as u64);
            publisher.current()
            // store drops here — no graceful teardown beyond Drop.
        };

        let (_store, recovery) =
            PersistentStore::open(&dir, &config, PersistOptions::default()).unwrap();
        prop_assert_eq!(recovery.epoch, batches as u64);
        let recovered = recovery.banks.expect("recovered");
        assert_identical(&live, &recovered, &["recovered", "mohan", "author recovered"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Save `banks` as a snapshot bundle file, load it back, and assert the
/// two systems bit-for-bit interchangeable on `queries`.
fn assert_bundle_roundtrip(tag: &str, banks: &Banks, queries: &[&str]) {
    let dir = tmp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.banks");
    save_bundle(banks, 0, &path).unwrap();
    let (restored, meta) = load_bundle(&path, banks.config()).unwrap();
    assert_eq!(meta.epoch, 0);
    assert_identical(banks, &restored, queries);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bundle_roundtrip_preserves_dblp_workload_results() {
    let dataset = generate(DblpConfig::tiny(1)).unwrap();
    let banks = Banks::with_config(dataset.db, dblp_eval_config()).unwrap();
    let workload = dblp_workload(&dataset.planted);
    let queries: Vec<&str> = workload.iter().map(|q| q.text).collect();
    assert_bundle_roundtrip("dblp_workload", &banks, &queries);
}

#[test]
fn bundle_roundtrip_preserves_thesis_database() {
    let dataset = thesis::generate(ThesisConfig::tiny(4)).unwrap();
    let banks = Banks::new(dataset.db).unwrap();
    assert!(!banks.search("sudarshan aditya").unwrap().is_empty());
    assert_bundle_roundtrip("thesis", &banks, &["sudarshan aditya"]);
}

// ---------------------------------------------------------------------------
// Loopback crash simulation over real HTTP.
// ---------------------------------------------------------------------------

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

fn json_u64(body: &str, field: &str) -> Option<u64> {
    let idx = body.find(&format!("\"{field}\":"))?;
    let rest = &body[idx + field.len() + 3..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Build a durable server over `dir`, mirroring `banks serve --data-dir`.
fn durable_server(dir: &std::path::Path) -> (Arc<QueryService>, BanksServer, Arc<PersistentStore>) {
    let config = BanksConfig::default();
    let (store, recovery) =
        PersistentStore::open(dir, &config, PersistOptions::default()).expect("open store");
    let (banks, epoch) = match recovery.banks {
        Some(banks) => (banks, recovery.epoch),
        None => {
            let dataset = generate(DblpConfig::tiny(1)).expect("datagen");
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
    let config = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let server = BanksServer::bind(Arc::clone(&service), Some(ingest), None, None, config)
        .expect("bind loopback");
    (service, server, store)
}

#[test]
fn acked_ingest_survives_ungraceful_death() {
    let dir = tmp_dir("loopback");

    // First life: ack two ingest batches over real HTTP, then die with
    // no graceful snapshot (exactly what kill -9 leaves behind: the
    // initial bundle + two WAL frames).
    let (mohan_before, ingested_before, epoch_before) = {
        let (_service, server, _store) = durable_server(&dir);
        let addr = server.local_addr();
        for (i, tag) in ["alpha", "beta"].iter().enumerate() {
            let body = format!(
                r#"{{"ops":[{{"op":"insert","relation":"Author","values":["wal-{tag}","Walled Author {tag}"]}}]}}"#
            );
            let (status, resp) = http_post(addr, &format!("/ingest?ts=t{i}"), &body);
            assert_eq!(status, 200, "{resp}");
            assert_eq!(json_u64(&resp, "epoch"), Some(i as u64 + 1));
        }
        // The acked writes are queryable and the WAL holds both frames.
        let (status, stats) = http_get(addr, "/stats");
        assert_eq!(status, 200);
        assert!(stats.contains(r#""persistence""#), "{stats}");
        assert_eq!(json_u64(&stats, "wal_batches"), Some(2), "{stats}");
        let (_, mohan) = http_get(addr, "/search?q=mohan");
        let (status, walled) = http_get(addr, "/search?q=walled");
        assert_eq!(status, 200);
        assert_eq!(json_u64(&walled, "count"), Some(2), "{walled}");
        let epoch = json_u64(&walled, "epoch").unwrap();
        assert_eq!(epoch, 2);
        server.shutdown();
        (mohan, walled, epoch)
        // store + service drop with no snapshot written.
    };

    // Second life: recovery must land on the exact epoch and serve
    // byte-identical answer sets.
    let (_service, server, store) = durable_server(&dir);
    let addr = server.local_addr();
    let stats = store.stats();
    assert_eq!(stats.recovered_epoch, Some(epoch_before));
    assert_eq!(stats.replayed_batches, 2);

    let (status, walled) = http_get(addr, "/search?q=walled");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&walled, "epoch"), Some(epoch_before), "{walled}");
    assert_eq!(
        json_u64(&walled, "count"),
        json_u64(&ingested_before, "count"),
        "{walled}"
    );
    // The rendered connection trees — the full answer payload — match.
    let strip_volatile = |body: &str| {
        let at = body.find(r#""count""#).expect("count field");
        body[at..].to_string()
    };
    assert_eq!(strip_volatile(&walled), strip_volatile(&ingested_before));
    let (_, mohan) = http_get(addr, "/search?q=mohan");
    assert_eq!(strip_volatile(&mohan), strip_volatile(&mohan_before));

    // /stats reports the recovery.
    let (_, stats_body) = http_get(addr, "/stats");
    assert!(
        stats_body.contains(r#""recovered_epoch":2"#),
        "{stats_body}"
    );
    assert!(
        stats_body.contains(r#""replayed_batches":2"#),
        "{stats_body}"
    );

    server.shutdown();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// WAL append faults (only with `--features fault-injection`): the ack
// contract at the store level. An ack is never lost; a failed ack is
// never applied — not in memory, not on disk, not after recovery.
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-injection")]
mod wal_faults {
    use super::*;
    use banks_util::fault::{self, FaultPoint};

    /// The fault registry is process-global; these tests must not overlap.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn author_batch(id: &str) -> DeltaBatch {
        DeltaBatch {
            ops: vec![TupleOp::Insert {
                relation: "Author".into(),
                values: vec![Value::text(id), Value::text(format!("Faulted Author {id}"))],
            }],
        }
    }

    /// A store + publisher pair over `dir`, seeded with the tiny corpus.
    fn durable_publisher(dir: &std::path::Path) -> (Arc<PersistentStore>, SnapshotPublisher) {
        let config = BanksConfig::default();
        let (store, recovery) =
            PersistentStore::open(dir, &config, PersistOptions::default()).expect("open store");
        let (banks, epoch) = match recovery.banks {
            Some(banks) => (banks, recovery.epoch),
            None => {
                let dataset = generate(DblpConfig::tiny(1)).expect("datagen");
                let banks = Arc::new(Banks::new(dataset.db.clone()).expect("banks"));
                store.save_snapshot(&banks, 0).expect("initial snapshot");
                (banks, 0)
            }
        };
        let mut publisher = SnapshotPublisher::with_epoch(banks, epoch);
        publisher.set_durability_hook(store.wal_hook());
        (store, publisher)
    }

    #[test]
    fn fsync_fault_fails_the_ack_and_leaves_no_trace() {
        let _guard = serial();
        fault::clear();
        let dir = tmp_dir("fsync_fault");
        {
            let (_store, mut publisher) = durable_publisher(&dir);
            publisher
                .publish(&author_batch("kept"), None)
                .expect("clean publish");

            fault::arm("wal.append.fsync", FaultPoint::ReturnErr, 1.0, 5);
            let err = publisher.publish(&author_batch("lost"), None);
            assert!(err.is_err(), "a failed fsync must fail the ack");
            // The failed publish is invisible in memory: epoch untouched,
            // the author absent from the serving snapshot.
            assert_eq!(publisher.epoch(), 1);
            assert!(publisher
                .current()
                .search("lost")
                .expect("search")
                .is_empty());
            fault::clear();

            // The writer rolled the partial frame back — the very next
            // append lands on a clean boundary and succeeds.
            publisher
                .publish(&author_batch("after"), None)
                .expect("post-fault publish");
            assert_eq!(publisher.epoch(), 2);
        }
        // Recovery agrees: the failed ack never happened.
        let (_store, recovery) =
            PersistentStore::open(&dir, &BanksConfig::default(), PersistOptions::default())
                .expect("reopen");
        assert_eq!(recovery.epoch, 2);
        let recovered = recovery.banks.expect("recovered");
        assert_eq!(recovered.search("kept").expect("search").len(), 1);
        assert_eq!(recovered.search("after").expect("search").len(), 1);
        assert!(recovered.search("lost").expect("search").is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_append_rolls_back_to_the_acked_boundary() {
        let _guard = serial();
        fault::clear();
        let dir = tmp_dir("torn_fault");
        let live = {
            let (_store, mut publisher) = durable_publisher(&dir);
            publisher
                .publish(&author_batch("first"), None)
                .expect("clean publish");
            let acked_len = std::fs::metadata(dir.join("wal.log")).expect("wal").len();

            // Every append tears mid-frame until cleared: each attempt
            // must fail the ack AND truncate back to the acked prefix,
            // byte for byte.
            fault::arm("wal.append.write", FaultPoint::TornWrite, 1.0, 17);
            for attempt in 0..3 {
                assert!(
                    publisher.publish(&author_batch("torn"), None).is_err(),
                    "attempt {attempt}"
                );
                assert_eq!(
                    std::fs::metadata(dir.join("wal.log")).expect("wal").len(),
                    acked_len,
                    "attempt {attempt} left partial bytes past the acked frame"
                );
            }
            assert_eq!(fault::fired("wal.append.write"), 3);
            fault::clear();

            publisher
                .publish(&author_batch("second"), None)
                .expect("post-fault publish");
            assert_eq!(publisher.epoch(), 2);
            publisher.current()
        };
        // Recovery replays exactly the two acked frames, bit-identical.
        let (_store, recovery) =
            PersistentStore::open(&dir, &BanksConfig::default(), PersistOptions::default())
                .expect("reopen");
        assert_eq!(recovery.epoch, 2);
        let recovered = recovery.banks.expect("recovered");
        assert!(recovered.search("torn").expect("search").is_empty());
        assert_identical(&live, &recovered, &["faulted", "first second", "mohan"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn torn_wal_tail_past_acked_frames_is_dropped() {
    let dir = tmp_dir("torn_store");

    // Ack one batch, then corrupt the log tail with a partial frame —
    // what a crash mid-append leaves when the client never got its ack.
    {
        let (_service, server, _store) = durable_server(&dir);
        let addr = server.local_addr();
        let (status, _) = http_post(
            addr,
            "/ingest",
            r#"{"ops":[{"op":"insert","relation":"Author","values":["wal-keep","Kept Author"]}]}"#,
        );
        assert_eq!(status, 200);
        server.shutdown();
    }
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0x42, 0x00, 0x00, 0x00, 0xde, 0xad]); // garbage partial frame
    std::fs::write(&wal, &bytes).unwrap();

    let (_service, server, store) = durable_server(&dir);
    let stats = store.stats();
    assert_eq!(
        stats.recovered_epoch,
        Some(1),
        "only the acked frame counts"
    );
    assert!(stats.truncated_wal_bytes > 0);
    let (status, body) = http_get(server.local_addr(), "/search?q=kept");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&body, "count"), Some(1), "{body}");
    server.shutdown();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
