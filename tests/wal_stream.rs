//! The WAL replication feed (`GET /replication/wal`) against the local
//! log it streams from.
//!
//! * A property test proving the feed is the **on-disk format
//!   verbatim**: for random batch streams with a compaction in the
//!   middle of the tail, every HTTP body is byte-identical to the
//!   corresponding `wal.log` suffix, the decoded frames reproduce the
//!   applied batches exactly, and a `from_epoch` that compaction ran
//!   past answers `410 Gone`.
//! * Protocol edges over a live server: missing `from_epoch` is a
//!   `400`, a caught-up poll returns an empty `200` stamped with
//!   `X-Banks-Epoch`, and a long poll parks until a write lands.

use banks_core::{Banks, BanksConfig};
use banks_datagen::dblp::{generate, DblpConfig};
use banks_datagen::rng::Rng;
use banks_ingest::{DeltaBatch, SnapshotPublisher, TupleOp};
use banks_persist::{scan_frames, PersistOptions, PersistentStore};
use banks_server::{BanksServer, IngestEndpoint, QueryService, ServerConfig, ServiceConfig};
use banks_storage::Value;
use banks_util::http::{http_request, HttpResponse};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "banks_wal_stream_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable leader over `dir`, replication endpoints enabled —
/// mirroring `banks serve --data-dir`.
fn leader(
    dir: &Path,
    seed: u64,
) -> (
    Arc<QueryService>,
    BanksServer,
    Arc<IngestEndpoint>,
    Arc<PersistentStore>,
) {
    let config = BanksConfig::default();
    let (store, recovery) =
        PersistentStore::open(dir, &config, PersistOptions::default()).expect("open leader");
    assert!(recovery.banks.is_none(), "tests start on fresh directories");
    let dataset = generate(DblpConfig::tiny(seed % 17 + 1)).expect("datagen");
    let banks = Arc::new(Banks::new(dataset.db.clone()).expect("banks"));
    store.save_snapshot(&banks, 0).expect("initial bundle");
    let service = Arc::new(QueryService::with_epoch(
        Arc::clone(&banks),
        0,
        ServiceConfig::default(),
    ));
    let mut publisher = SnapshotPublisher::with_epoch(banks, 0);
    publisher.set_durability_hook(store.wal_hook());
    let ingest =
        IngestEndpoint::with_publisher(Arc::clone(&service), publisher, Some(Arc::clone(&store)));
    let server = BanksServer::bind(
        Arc::clone(&service),
        Some(Arc::clone(&ingest)),
        Some(Arc::clone(&store)),
        None,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind leader");
    (service, server, ingest, store)
}

/// Deterministic batch stream: fresh authors plus occasional renames of
/// earlier ones — enough op-shape variety to exercise the frame codec.
fn next_batch(rng: &mut Rng, serial: &mut usize) -> DeltaBatch {
    let mut ops = Vec::new();
    for _ in 0..rng.range(1, 4) {
        let id = format!("wal-{}", *serial);
        *serial += 1;
        ops.push(TupleOp::Insert {
            relation: "Author".into(),
            values: vec![Value::text(&id), Value::text(format!("Wal Author {id}"))],
        });
    }
    if *serial > 1 && rng.chance(0.4) {
        let pick = rng.range(0, *serial - 1);
        ops.push(TupleOp::Update {
            relation: "Author".into(),
            key: vec![Value::text(format!("wal-{pick}"))],
            set: vec![(
                "AuthorName".into(),
                Value::text(format!("Renamed wal-{pick}")),
            )],
        });
    }
    DeltaBatch { ops }
}

fn feed(addr: std::net::SocketAddr, from_epoch: u64, wait_ms: u64) -> HttpResponse {
    http_request(
        &addr.to_string(),
        "GET",
        &format!("/replication/wal?from_epoch={from_epoch}&wait_ms={wait_ms}"),
        None,
        Duration::from_secs(10),
    )
    .expect("wal feed request")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every feed body is the exact byte suffix of `wal.log`, before and
    /// after a compaction in the middle of the tail, and the decoded
    /// frames replay the applied batch stream verbatim.
    #[test]
    fn streamed_frames_are_byte_identical_to_the_local_wal(
        seed in 0u64..1_000_000,
        batches in 2usize..6,
    ) {
        let dir = tmp_dir(&format!("prop_{seed}_{batches}"));
        let (service, server, ingest, store) = leader(&dir, seed);
        let addr = server.local_addr();
        let wal_path = dir.join("wal.log");
        let mut rng = Rng::new(seed);
        let mut serial = 0usize;
        let mut applied: Vec<DeltaBatch> = Vec::new();

        // First half of the stream, then a feed read from genesis.
        let mid = 1 + (seed as usize) % (batches - 1).max(1);
        for _ in 0..mid {
            let batch = next_batch(&mut rng, &mut serial);
            ingest.ingest(&batch, None).expect("leader ingest");
            applied.push(batch);
        }
        let first = feed(addr, 0, 0);
        prop_assert_eq!(first.status, 200);
        prop_assert_eq!(first.header("x-banks-epoch"), Some(&*mid.to_string()));
        // Byte-identical to the whole log (nothing compacted yet).
        prop_assert_eq!(&first.body, &std::fs::read(&wal_path).unwrap());
        let scan = scan_frames(&first.body).expect("decode feed");
        prop_assert_eq!(scan.torn_bytes, 0);
        prop_assert_eq!(scan.frames.len(), mid);

        // Compaction in the middle of the tail: the leader rolls a
        // snapshot at `mid` and prunes every frame the bundle covers.
        store
            .save_snapshot(&service.banks(), mid as u64)
            .expect("mid-stream compaction");

        // Second half, then a feed read from the compaction point.
        for _ in mid..batches {
            let batch = next_batch(&mut rng, &mut serial);
            ingest.ingest(&batch, None).expect("leader ingest");
            applied.push(batch);
        }
        let second = feed(addr, mid as u64, 0);
        prop_assert_eq!(second.status, 200);
        prop_assert_eq!(second.header("x-banks-epoch"), Some(&*batches.to_string()));
        prop_assert_eq!(&second.body, &std::fs::read(&wal_path).unwrap());

        // The two bodies concatenated decode to the applied stream,
        // epochs 1..=batches in order, batches bit-for-bit equal.
        let mut stream = first.body.clone();
        stream.extend_from_slice(&second.body);
        let scan = scan_frames(&stream).expect("decode concatenated feeds");
        prop_assert_eq!(scan.torn_bytes, 0);
        prop_assert_eq!(scan.valid_bytes, stream.len() as u64);
        prop_assert_eq!(scan.frames.len(), batches);
        for (i, frame) in scan.frames.iter().enumerate() {
            prop_assert_eq!(frame.epoch, i as u64 + 1);
            prop_assert_eq!(&frame.batch, &applied[i]);
        }

        // Frames at or before the compaction point are gone for good.
        let gone = feed(addr, 0, 0);
        prop_assert_eq!(gone.status, 410);
        prop_assert_eq!(gone.header("x-banks-epoch"), Some(&*batches.to_string()));
        prop_assert!(gone.text().contains("re-bootstrap"), "{}", gone.text());

        // A caught-up reader gets an empty 200, not an error.
        let caught_up = feed(addr, batches as u64, 0);
        prop_assert_eq!(caught_up.status, 200);
        prop_assert!(caught_up.body.is_empty());

        server.shutdown();
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn feed_protocol_edges() {
    let dir = tmp_dir("edges");
    let (_service, server, ingest, store) = leader(&dir, 3);
    let addr = server.local_addr();

    // from_epoch is required.
    let resp = http_request(
        &addr.to_string(),
        "GET",
        "/replication/wal",
        None,
        Duration::from_secs(5),
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("from_epoch"), "{}", resp.text());

    // The snapshot endpoint serves the newest bundle, epoch-stamped.
    let bundle = http_request(
        &addr.to_string(),
        "GET",
        "/replication/snapshot",
        None,
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(bundle.status, 200);
    assert_eq!(bundle.header("x-banks-epoch"), Some("0"));
    assert!(!bundle.body.is_empty());

    // A long poll parks until a write lands, then ships the new frame.
    let poller = std::thread::spawn(move || feed(addr, 0, 5_000));
    std::thread::sleep(Duration::from_millis(100));
    ingest
        .ingest(
            &DeltaBatch {
                ops: vec![TupleOp::Insert {
                    relation: "Author".into(),
                    values: vec![Value::text("poll-1"), Value::text("Polled Author")],
                }],
            },
            None,
        )
        .expect("ingest during poll");
    let resp = poller.join().expect("poller thread");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-banks-epoch"), Some("1"));
    let scan = scan_frames(&resp.body).expect("decode long-poll body");
    assert_eq!(scan.frames.len(), 1);
    assert_eq!(scan.frames[0].epoch, 1);

    server.shutdown();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
