//! Replication and routing benchmarks: what the cluster story costs.
//!
//! **Phase 1 — follower bootstrap.** A cold `banks-replica` start
//! against a live leader: snapshot download over loopback HTTP,
//! bundle decode, local persist, serving. This is the "add capacity"
//! latency — how long until a new follower answers queries.
//!
//! **Phase 2 — replication lag.** Publish batches at the leader and
//! time how long each takes to become visible at a tailing follower
//! (ack at the leader → follower epoch advance). The long-poll WAL
//! feed should keep the median in single-digit milliseconds.
//!
//! **Phase 3 — router overhead.** The same `/search` measured directly
//! against a backend and through `banks-router` (one extra loopback
//! hop, affinity hashing, registry bookkeeping). The delta is the
//! front door's per-read price.
//!
//! Run with `cargo bench -p banks-bench --bench replication`. Knobs:
//! `BANKS_BENCH_SCALE` (`tiny`|`small`|`paper`, default `small`),
//! `BANKS_BENCH_OPS` (batches in phase 2 / reads in phase 3,
//! default 40).

use banks_bench::corpus;
use banks_core::{Banks, BanksConfig};
use banks_ingest::{DeltaBatch, SnapshotPublisher, TupleOp};
use banks_persist::{PersistOptions, PersistentStore};
use banks_replica::{Replica, ReplicaConfig};
use banks_router::{Router, RouterConfig};
use banks_server::{BanksServer, IngestEndpoint, QueryService, ServerConfig, ServiceConfig};
use banks_storage::Value;
use banks_util::http::http_request;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("banks_bench_repl_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn leader(dir: &Path, banks: Arc<Banks>) -> (Arc<QueryService>, BanksServer, Arc<IngestEndpoint>) {
    let (store, _) = PersistentStore::open(dir, &BanksConfig::default(), PersistOptions::default())
        .expect("open leader store");
    store.save_snapshot(&banks, 0).expect("initial bundle");
    let service = Arc::new(QueryService::with_epoch(
        Arc::clone(&banks),
        0,
        ServiceConfig::default(),
    ));
    let mut publisher = SnapshotPublisher::with_epoch(banks, 0);
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

fn follower(dir: &Path, leader_addr: SocketAddr) -> (Replica, BanksServer) {
    let replica = Replica::start(
        ReplicaConfig {
            leader: leader_addr.to_string(),
            data_dir: dir.to_path_buf(),
            poll_wait_ms: 2_000,
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

fn one_author_batch(tag: &str) -> DeltaBatch {
    DeltaBatch {
        ops: vec![TupleOp::Insert {
            relation: "Author".into(),
            values: vec![
                Value::text(format!("repl-{tag}")),
                Value::text(format!("Replicated Author {tag}")),
            ],
        }],
    }
}

fn timed_get(addr: SocketAddr, target: &str) -> Duration {
    let t0 = Instant::now();
    let resp = http_request(
        &addr.to_string(),
        "GET",
        target,
        None,
        Duration::from_secs(30),
    )
    .expect("GET");
    assert_eq!(resp.status, 200, "{}", resp.text());
    t0.elapsed()
}

fn main() {
    let scale = std::env::var("BANKS_BENCH_SCALE").unwrap_or_else(|_| "small".to_string());
    let ops = env_usize("BANKS_BENCH_OPS", 40).max(4);

    let dataset = corpus(&scale);
    let banks = Arc::new(Banks::new(dataset.db.clone()).expect("banks builds"));
    println!(
        "corpus {scale}: {} tuples, {} nodes, {} edges",
        banks.db().total_tuples(),
        banks.tuple_graph().node_count(),
        banks.tuple_graph().graph().edge_count(),
    );

    let leader_dir = tmp_dir("leader");
    let (_leader_service, leader_server, ingest) = leader(&leader_dir, Arc::clone(&banks));
    let leader_addr = leader_server.local_addr();

    // Phase 1: cold bootstrap (download + decode + persist + serve).
    let boot_dir = tmp_dir("boot");
    let t0 = Instant::now();
    let (replica, follower_server) = follower(&boot_dir, leader_addr);
    let bootstrap = t0.elapsed();
    assert_eq!(replica.stats().snapshots_downloaded, 1);
    println!(
        "bootstrap: {:>10.3} ms (snapshot download → decode → persist → serving)",
        bootstrap.as_secs_f64() * 1e3,
    );

    // Phase 2: leader-ack → follower-visible lag per batch.
    let mut lags = Vec::with_capacity(ops);
    for i in 0..ops {
        let target = replica.service().epoch() + 1;
        let t0 = Instant::now();
        ingest
            .ingest(&one_author_batch(&i.to_string()), None)
            .expect("leader ingest");
        while replica.service().epoch() < target {
            std::thread::yield_now();
        }
        lags.push(t0.elapsed());
    }
    println!(
        "replication lag: {:>8.3} ms median over {ops} batches (leader ack → follower visible)",
        median(lags).as_secs_f64() * 1e3,
    );

    // Phase 3: direct read vs routed read.
    let router = Router::bind(RouterConfig {
        addr: "127.0.0.1:0".into(),
        leader: leader_addr.to_string(),
        followers: vec![follower_server.local_addr().to_string()],
        workers: 2,
        probe_interval: Duration::from_millis(200),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let front = router.local_addr();
    let target = "/search?q=replicated+author";
    let mut direct = Vec::with_capacity(ops);
    let mut routed = Vec::with_capacity(ops);
    timed_get(follower_server.local_addr(), target); // warm both caches
    timed_get(front, target);
    for _ in 0..ops {
        direct.push(timed_get(follower_server.local_addr(), target));
        routed.push(timed_get(front, target));
    }
    let (d, r) = (median(direct), median(routed));
    println!(
        "read latency: direct {:>8.3} ms | routed {:>8.3} ms | front-door overhead {:+.3} ms",
        d.as_secs_f64() * 1e3,
        r.as_secs_f64() * 1e3,
        (r.as_secs_f64() - d.as_secs_f64()) * 1e3,
    );

    router.shutdown();
    follower_server.shutdown();
    replica.shutdown();
    leader_server.shutdown();
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&boot_dir).ok();
}
