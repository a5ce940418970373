//! The out-of-core backend must be invisible: a bundle opened paged
//! under *any* memory budget answers every query bit-for-bit like the
//! in-RAM backend — same answers, same rendered trees, same relevance
//! bits, same search counters — across search strategies, corpus
//! seeds, and an ingest-driven epoch change; every tuple value decoded
//! through the lazy DATA section is bit-equal too. And a bundle whose
//! paged-graph segment directory is torn or corrupted must be rejected
//! with a typed error, never a wrong answer.

use banks_core::{Banks, BanksConfig, SearchStrategy};
use banks_datagen::dblp::{generate, DblpConfig};
use banks_datagen::stream::{build_database, generate_to_dir, StreamConfig};
use banks_ingest::{DeltaBatch, SnapshotPublisher, TupleOp};
use banks_pager::{encode_paged_blob, PagerError};
use banks_persist::{
    open_bundle_paged, save_bundle, snapshot_file, write_bundle_sections, PersistError,
    PersistOptions, PersistentStore,
};
use banks_server::{BanksServer, QueryService, ServerConfig, ServiceConfig};
use banks_storage::blocks::encode_database_v3_with_span;
use banks_storage::Value;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const QUERIES: &[&str] = &["soumen sunita", "mohan", "transaction", "author sunita"];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "banks_paged_eq_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Assert the two systems answer every query × strategy identically:
/// answer count, tree signatures, relevance bits, and the
/// execution-semantic search counters.
fn assert_search_equivalent(in_ram: &Banks, paged: &Banks) {
    for query in QUERIES {
        for strategy in [SearchStrategy::Backward, SearchStrategy::Forward] {
            let a = in_ram
                .search_with(query, strategy, in_ram.config())
                .unwrap();
            let b = paged.search_with(query, strategy, paged.config()).unwrap();
            assert_eq!(a.answers.len(), b.answers.len(), "{query} {strategy:?}");
            for (x, y) in a.answers.iter().zip(&b.answers) {
                assert_eq!(
                    x.tree.signature(),
                    y.tree.signature(),
                    "{query} {strategy:?}"
                );
                assert_eq!(
                    x.relevance.to_bits(),
                    y.relevance.to_bits(),
                    "{query} {strategy:?}"
                );
                // Rendering decodes tuple values, so this is the path
                // that pulls blocks through the lazy DATA section.
                assert_eq!(
                    in_ram.render_answer(x),
                    paged.render_answer(y),
                    "{query} {strategy:?}"
                );
            }
            let counters = |s: &banks_core::SearchStats| {
                (
                    s.iterators,
                    s.pops,
                    s.trees_generated,
                    s.trees_emitted,
                    s.duplicates_discarded,
                    s.duplicates_replaced,
                    s.early_terminations,
                )
            };
            assert_eq!(
                counters(&a.stats),
                counters(&b.stats),
                "{query} {strategy:?}"
            );
        }
    }
}

/// The lazy tuple store must have actually paged blocks in, and graph
/// segments plus tuple blocks — one page cache holds both — must
/// together sit inside the budget. The only way over it is a single
/// page larger than the whole budget, held alone.
fn assert_budget_respected(paged: &Banks) {
    let g = paged
        .tuple_graph()
        .graph()
        .storage_stats()
        .expect("paged backend reports storage stats");
    let t = paged
        .db()
        .tuple_store_stats()
        .expect("paged v3 bundle opens with a lazy tuple store");
    assert!(t.page_ins > 0, "value reads must page blocks in");
    assert_eq!(g.budget_bytes, t.budget_bytes, "one budget for both stores");
    assert!(
        g.resident_bytes + t.resident_bytes <= g.budget_bytes
            || g.resident_segments + t.resident_blocks == 1,
        "graph {} B in {} segments + tuples {} B in {} blocks over budget {}",
        g.resident_bytes,
        g.resident_segments,
        t.resident_bytes,
        t.resident_blocks,
        g.budget_bytes,
    );
}

/// Every slot of every relation must decode to the same tuple through
/// both backends — the raw read path of the lazy DATA section, below
/// rendering.
fn assert_tuples_equivalent(in_ram: &Banks, paged: &Banks) {
    for (ft, pt) in in_ram.db().relations().zip(paged.db().relations()) {
        assert_eq!(ft.slot_count(), pt.slot_count(), "{}", ft.schema().name);
        for slot in 0..ft.slot_count() as u32 {
            assert_eq!(
                ft.get(slot).cloned(),
                pt.get(slot).cloned(),
                "{} slot {slot}",
                ft.schema().name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Paged ≡ InRam for random corpora and random budgets, from a
    /// bundle written by the in-RAM system.
    #[test]
    fn paged_open_is_bit_identical_to_in_ram(
        seed in 1u64..1_000,
        budget in (4u32..2_048).prop_map(|kib| kib as usize * 1024),
    ) {
        let dir = tmp_dir(&format!("prop_{seed}_{budget}"));
        std::fs::create_dir_all(&dir).unwrap();
        let dataset = generate(DblpConfig::tiny(seed)).unwrap();
        let in_ram = Banks::new(dataset.db).unwrap();
        let path = dir.join("bundle.banks");
        save_bundle(&in_ram, 3, &path).unwrap();

        let (paged, meta) = open_bundle_paged(&path, budget, &BanksConfig::default()).unwrap();
        prop_assert_eq!(meta.epoch, 3);
        prop_assert!(paged.text_index().is_lazy());
        assert_search_equivalent(&in_ram, &paged);
        assert_tuples_equivalent(&in_ram, &paged);
        assert_budget_respected(&paged);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Paged ≡ InRam across an ingest-driven epoch change: both recover
    /// the same data directory after batches advance the epoch past the
    /// last snapshot, one fully loaded and one paged.
    #[test]
    fn paged_recovery_matches_full_recovery_after_ingest(
        seed in 1u64..1_000,
        batches in 1usize..4,
        budget in (4u32..512).prop_map(|kib| kib as usize * 1024),
    ) {
        let dir = tmp_dir(&format!("ingest_{seed}_{batches}_{budget}"));
        let config = BanksConfig::default();
        {
            let dataset = generate(DblpConfig::tiny(seed)).unwrap();
            let base = Arc::new(Banks::new(dataset.db).unwrap());
            let (store, _) =
                PersistentStore::open(&dir, &config, PersistOptions::default()).unwrap();
            store.save_snapshot(&base, 0).unwrap();
            let mut publisher = SnapshotPublisher::with_epoch(base, 0);
            publisher.set_durability_hook(store.wal_hook());
            for i in 0..batches {
                let batch = DeltaBatch {
                    ops: vec![TupleOp::Insert {
                        relation: "Author".into(),
                        values: vec![
                            Value::text(format!("paged-{i}")),
                            Value::text(format!("Paged Author {i}")),
                        ],
                    }],
                };
                publisher.publish(&batch, None).unwrap();
            }
            // Roll a snapshot at the final epoch so the paged reopen has
            // a bundle carrying the post-ingest state.
            store
                .save_snapshot(&publisher.current(), publisher.epoch())
                .unwrap();
        }

        let (_s1, full) = PersistentStore::open(&dir, &config, PersistOptions::default()).unwrap();
        let paged_options = PersistOptions {
            paged_budget: Some(budget as u64),
            ..PersistOptions::default()
        };
        let (_s2, paged) = PersistentStore::open(&dir, &config, paged_options).unwrap();
        prop_assert_eq!(full.epoch, batches as u64);
        prop_assert_eq!(paged.epoch, batches as u64);
        let full = full.banks.expect("full recovery");
        let paged = paged.banks.expect("paged recovery");
        assert_search_equivalent(&full, &paged);
        assert_tuples_equivalent(&full, &paged);
        prop_assert!(
            paged.db().tuple_store_stats().is_some(),
            "recovery from a v3 bundle must keep the tuple store lazy"
        );
        // The ingested rows are visible through the paged backend.
        let hits = paged.search("paged").unwrap();
        prop_assert!(!hits.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One GET through the shared client: `(status, body)`.
fn http_get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    let resp = banks_util::http::http_request(
        &addr.to_string(),
        "GET",
        target,
        None,
        std::time::Duration::from_secs(30),
    )
    .expect("request");
    (resp.status, resp.text())
}

/// A server over a paged bundle under a starvation-level budget serves
/// `/node` and rendered answers byte-identical to a server over the
/// in-RAM backend, while tuple residency stays bounded and the
/// eviction counter advances — the HTTP layer cannot tell the
/// difference, it is just slower.
#[test]
fn paged_server_serves_bit_identical_node_and_answer_json() {
    let dir = tmp_dir("server");
    std::fs::create_dir_all(&dir).unwrap();
    let dataset = generate(DblpConfig::tiny(7)).unwrap();
    let in_ram = Arc::new(Banks::new(dataset.db).unwrap());
    let path = dir.join("bundle.banks");
    save_bundle(&in_ram, 0, &path).unwrap();

    // 1 KiB for graph + tuples together: essentially nothing stays
    // resident, so every request re-pages what it touches.
    const BUDGET: usize = 1024;
    let (paged, _) = open_bundle_paged(&path, BUDGET, &BanksConfig::default()).unwrap();
    let paged = Arc::new(paged);

    let serve = |banks: &Arc<Banks>| {
        let service = Arc::new(QueryService::new(
            Arc::clone(banks),
            ServiceConfig::default(),
        ));
        BanksServer::bind(
            service,
            None,
            None,
            None,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback")
    };
    let ram_server = serve(&in_ram);
    let paged_server = serve(&paged);

    // Every node document — tuple values included — is byte-identical.
    for id in 0..in_ram.tuple_graph().node_count() {
        let (sa, a) = http_get(ram_server.local_addr(), &format!("/node?id={id}"));
        let (sb, b) = http_get(paged_server.local_addr(), &format!("/node?id={id}"));
        assert_eq!((sa, &a), (sb, &b), "node {id}");
    }

    // Rendered answer payloads are byte-identical past the volatile
    // envelope (timings differ; everything from `count` on is the
    // fragment built from tuple values). A miss renders it for its own
    // response; the hit renders it again — paging tuple blocks back in
    // after the evictions in between — and memoizes it. Both must match.
    for q in QUERIES {
        let target = format!("/search?q={}", q.replace(' ', "+"));
        let mut fragments = Vec::new();
        for cached in [false, true] {
            for server in [&ram_server, &paged_server] {
                let (status, body) = http_get(server.local_addr(), &target);
                assert_eq!(status, 200, "{q}");
                assert!(
                    body.contains(&format!(r#""cached":{cached}"#)),
                    "{q}: {body}"
                );
                fragments.push(body[body.find(r#""count""#).expect("fragment")..].to_string());
            }
        }
        assert!(
            fragments.iter().all(|f| *f == fragments[0]),
            "{q}: {fragments:?}"
        );
    }

    let t = paged
        .db()
        .tuple_store_stats()
        .expect("paged v3 bundle opens with a lazy tuple store");
    assert!(t.evictions > 0, "a 1 KiB budget must evict");
    assert_budget_respected(&paged);

    ram_server.shutdown();
    paged_server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Bundles written before the page spans were fitted to the reads
/// (4096-slot tuple blocks, 2048-node graph segments) carry their spans
/// in the section headers, so they still open paged and answer
/// bit-identically — an existing data directory keeps working.
#[test]
fn bundle_written_at_the_old_spans_still_opens_paged() {
    let dir = tmp_dir("old_spans");
    std::fs::create_dir_all(&dir).unwrap();
    let dataset = generate(DblpConfig::tiny(5)).unwrap();
    let in_ram = Banks::new(dataset.db).unwrap();
    let data = encode_database_v3_with_span(in_ram.db(), 4096).unwrap();
    let grph = encode_paged_blob(in_ram.tuple_graph().graph(), 2048);
    let path = dir.join("bundle.banks");
    let file = std::fs::File::create(&path).unwrap();
    write_bundle_sections(&in_ram, 9, &data, &grph, file).unwrap();

    let (paged, meta) = open_bundle_paged(&path, 64 << 10, &BanksConfig::default()).unwrap();
    assert_eq!(meta.epoch, 9);
    assert_eq!(paged.db().tuple_store().unwrap().block_span(), 4096);
    assert_search_equivalent(&in_ram, &paged);
    assert_tuples_equivalent(&in_ram, &paged);
    assert_budget_respected(&paged);

    // Re-saving the lazily opened database keeps its store's block span
    // (clean blocks are copied raw), and that bundle serves too.
    let resaved = dir.join("resaved.banks");
    save_bundle(&paged, 10, &resaved).unwrap();
    let (again, _) = open_bundle_paged(&resaved, 64 << 10, &BanksConfig::default()).unwrap();
    assert_eq!(again.db().tuple_store().unwrap().block_span(), 4096);
    assert_search_equivalent(&in_ram, &again);
    std::fs::remove_dir_all(&dir).ok();
}

/// The regression the split budgets had, as an exact count: with the
/// budget at ~70 % of the decoded graph and ~30 % of graph + tuples
/// (the proportions of the 100K-tuple / 8 MiB benchmark workload), a
/// serial replay of `pp`-style queries (two paper-id tokens, answers
/// rendered) must not decode the graph's segments over and over. Before
/// the one cache, tuple blocks pinned the whole budget, the graph kept
/// a single segment, and each query decoded every segment ~35 times;
/// now the worst of these queries decodes 2.6 segments per segment.
#[test]
fn serial_replay_pages_each_graph_segment_in_a_few_times_at_most() {
    const TUPLES: u64 = 10_000;
    const BUDGET: usize = 800 << 10;
    let dir = tmp_dir("serial_replay");
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let manifest = generate_to_dir(&StreamConfig::new(42, TUPLES), &corpus).unwrap();
    let in_ram = Banks::new(build_database(&corpus).unwrap()).unwrap();
    let path = dir.join("bundle.banks");
    save_bundle(&in_ram, 0, &path).unwrap();

    let replay = || {
        let (paged, _) = open_bundle_paged(&path, BUDGET, &BanksConfig::default()).unwrap();
        let stats = || paged.tuple_graph().graph().storage_stats().unwrap();
        let segments = stats().segment_count as u64;
        assert!(
            in_ram.tuple_graph().graph().memory_bytes() > BUDGET,
            "the budget must sit below the decoded graph alone"
        );
        let mut per_query = Vec::new();
        let mut state = 1u64;
        let mut paper = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1 + (state >> 33) % (manifest.counts.papers - 1)
        };
        for _ in 0..20 {
            let query = format!("p{:07} p{:07}", paper(), paper());
            let before = stats().page_ins;
            let answers = paged.search(&query).unwrap();
            let expected = in_ram.search(&query).unwrap();
            assert_eq!(answers.len(), expected.len(), "{query}");
            for (a, e) in answers.iter().zip(&expected) {
                assert_eq!(paged.render_answer(a), in_ram.render_answer(e), "{query}");
            }
            let page_ins = stats().page_ins - before;
            assert!(
                page_ins <= 4 * segments,
                "`{query}` paged {page_ins} segments in; the graph has {segments}"
            );
            per_query.push(page_ins);
        }
        assert_budget_respected(&paged);
        per_query
    };
    let first = replay();
    assert!(first.iter().sum::<u64>() > 0, "the replay must page");
    assert_eq!(first, replay(), "a serial replay is deterministic");
    std::fs::remove_dir_all(&dir).ok();
}

/// Locate the GRPH section payload inside a bundle file by walking
/// the 4-entry directory at offset 16 (32 bytes per entry: 8 magic,
/// 8 offset, 8 len, 8 checksum; GRPH is the fourth).
fn grph_offset(bytes: &[u8]) -> u64 {
    let entry = 16 + 3 * 32;
    assert_eq!(&bytes[entry..entry + 8], b"BNKSGRPH");
    u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap())
}

#[test]
fn torn_segment_directory_is_rejected_with_typed_error() {
    let dir = tmp_dir("torn_dir");
    std::fs::create_dir_all(&dir).unwrap();
    let dataset = generate(DblpConfig::tiny(11)).unwrap();
    let banks = Banks::new(dataset.db).unwrap();
    let path = dir.join("bundle.banks");
    save_bundle(&banks, 0, &path).unwrap();

    let clean = std::fs::read(&path).unwrap();
    let grph = grph_offset(&clean) as usize;

    // A flip inside the node-weight lane — part of the eagerly verified
    // segment directory region of the paged blob.
    let mut torn = clean.clone();
    torn[grph + 31] ^= 0x40;
    std::fs::write(&path, &torn).unwrap();
    let err = open_bundle_paged(&path, 1 << 20, &BanksConfig::default()).unwrap_err();
    assert!(
        matches!(err, PersistError::Pager(PagerError::BadDirectoryChecksum)),
        "{err:?}"
    );

    // Truncating mid-directory is equally fatal and equally typed. The
    // bundle-level directory check fires first (the file no longer ends
    // where the GRPH section claims), which is fine: the point is a
    // typed rejection, not a specific layer.
    std::fs::write(&path, &clean[..grph + 16]).unwrap();
    let err = open_bundle_paged(&path, 1 << 20, &BanksConfig::default()).unwrap_err();
    assert!(
        matches!(
            err,
            PersistError::Pager(_) | PersistError::Malformed(_) | PersistError::BadChecksum
        ),
        "{err:?}"
    );

    // The store-level open surfaces the same failure instead of serving
    // from a torn directory.
    std::fs::write(dir.join(snapshot_file(0)), &torn).unwrap();
    let store_dir = tmp_dir("torn_dir_store");
    std::fs::create_dir_all(&store_dir).unwrap();
    std::fs::write(store_dir.join(snapshot_file(0)), &torn).unwrap();
    let options = PersistOptions {
        paged_budget: Some(1 << 20),
        ..PersistOptions::default()
    };
    let result = PersistentStore::open(&store_dir, &BanksConfig::default(), options);
    match result {
        Err(PersistError::Pager(PagerError::BadDirectoryChecksum))
        | Err(PersistError::NoValidSnapshot { .. }) => {}
        Err(other) => panic!("unexpected error {other:?}"),
        Ok((_, recovery)) => assert!(
            recovery.banks.is_none(),
            "torn snapshot must not recover silently"
        ),
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&store_dir).ok();
}
