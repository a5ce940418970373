//! The cold build — shards → database → data graph → text index →
//! bundle — must produce the same bytes no matter how it is computed.
//!
//! * a pinned `datagen --tuples 10000 --seed 42` bundle: its length, a
//!   whole-file digest, and a digest over the graph's node weights and
//!   forward CSR;
//! * `TupleGraph::build` against a reference derivation that resolves
//!   every foreign key of every tuple again (`Database::resolve_fk`),
//!   on the dblp / thesis / tpcd generators, on a lazily reopened v3
//!   database, and after random ingest batches;
//! * the tokenizer against a char-by-char reference on arbitrary
//!   Unicode, and `TextIndex::build` against an index built value by
//!   value with `add_value`;
//! * the corpus writer (staged rows → bundle, no `Database`) against
//!   `save_bundle` of the system built from the same corpus: the same
//!   bytes on every generator and a `datagen` directory, and the same
//!   error for a corpus that does not load.

use banks_core::{Banks, BanksConfig, GraphConfig, NodeWeightMode, TupleGraph};
use banks_datagen::stream::{build_database, generate_to_dir, stage_rows, StreamConfig};
use banks_datagen::{dblp, thesis, tpcd, DblpConfig, ThesisConfig, TpcdConfig};
use banks_graph::{Adjacency, Graph, GraphBuilder, NodeId};
use banks_ingest::{DeltaBatch, SnapshotPublisher, TupleOp};
use banks_persist::{inspect_bundle, open_bundle_paged, save_bundle, write_corpus_bundle};
use banks_storage::{ColumnType, Database, Rid, RowArena, TextIndex, Tokenizer, Value};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "banks_cold_build_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 64-bit FNV-1a: a digest independent of every hasher under test.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn u64(self, v: u64) -> Fnv {
        self.bytes(&v.to_le_bytes())
    }
}

/// Digest of node weights plus the forward CSR: per node, its
/// out-degree, then every `(target, weight bits)` in adjacency order.
fn graph_digest(graph: &Graph) -> u64 {
    let mut h = Fnv::new().u64(graph.node_count() as u64);
    for node in graph.nodes() {
        h = h.u64(graph.node_weight(node).to_bits());
    }
    for node in graph.nodes() {
        h = graph.with_out_adjacency(node, |adjacency| {
            let mut h = h.u64(adjacency.len() as u64);
            for (t, w) in adjacency.iter() {
                h = h.u64(u64::from(t)).u64(w.to_bits());
            }
            h
        });
    }
    h.0
}

/// The pinned corpus: `banks datagen --tuples 10000 --seed 42`.
#[test]
fn datagen_10k_bundle_is_pinned() {
    let dir = tmp_dir("pin");
    let corpus = dir.join("corpus");
    generate_to_dir(&StreamConfig::new(42, 10_000), &corpus).unwrap();
    let banks = Banks::new(build_database(&corpus).unwrap()).unwrap();
    let path = dir.join("bundle.banks");
    save_bundle(&banks, 0, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    assert_eq!(bytes.len(), 1_179_136, "bundle length");
    assert_eq!(
        Fnv::new().bytes(&bytes).0,
        0x96c8_b7bd_c009_736e,
        "whole-bundle digest"
    );
    assert_eq!(
        graph_digest(banks.tuple_graph().graph()),
        0xd534_6228_0db4_e2db,
        "node weights + forward CSR digest"
    );
    // The corpus writer never builds the system, and writes the same
    // bytes.
    let written = dir.join("written.banks");
    let rows = stage_rows(&corpus).unwrap().finish();
    write_corpus_bundle(rows, &BanksConfig::default(), 0, &written).unwrap();
    assert_eq!(
        std::fs::read(&written).unwrap(),
        bytes,
        "corpus writer bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// On the pinned corpus, `banks snapshot inspect` reports the token and
/// posting counts `TextIndex::build` has, read from the TIDX header; and
/// one 10-op batch published on the paged bundle leaves its text index
/// over the term table, with no more lists cached than the batch has
/// distinct tokens (a publish copies the lists it changes and caches
/// none), answering as a rebuild does.
#[test]
fn datagen_10k_bundle_inspects_and_publishes_off_its_term_table() {
    let dir = tmp_dir("tidx");
    let corpus = dir.join("corpus");
    generate_to_dir(&StreamConfig::new(42, 10_000), &corpus).unwrap();
    let db = build_database(&corpus).unwrap();
    let tokenizer = Tokenizer::new();
    let built = TextIndex::build(&db, &tokenizer);
    let path = dir.join("bundle.banks");
    save_bundle(&Banks::new(db).unwrap(), 0, &path).unwrap();
    let info = inspect_bundle(&path).unwrap();
    assert_eq!(
        (info.tokens, info.postings),
        (built.distinct_tokens(), built.posting_count())
    );

    let (paged, _) = open_bundle_paged(&path, 8 << 20, &BanksConfig::default()).unwrap();
    let mut publisher = SnapshotPublisher::with_epoch(Arc::new(paged), 0);
    // Four authors, four papers, two authorship links: new terms beside
    // ones the base holds ("soumen", "mining").
    let insert = |relation: &str, values: [String; 2]| TupleOp::Insert {
        relation: relation.into(),
        values: values.into_iter().map(Value::text).collect(),
    };
    let mut ops = Vec::new();
    for i in 0..4 {
        ops.push(insert(
            "Author",
            [format!("ZA{i}"), format!("Soumen Writer{i}")],
        ));
        ops.push(insert(
            "Paper",
            [format!("ZP{i}"), format!("Mining Streams {i}")],
        ));
    }
    for i in 0..2 {
        ops.push(insert("Writes", [format!("ZA{i}"), format!("ZP{i}")]));
    }
    let mut tokens = std::collections::BTreeSet::new();
    for op in &ops {
        if let TupleOp::Insert { values, .. } = op {
            for text in values.iter().filter_map(Value::as_text) {
                tokens.extend(tokenizer.tokenize(text));
            }
        }
    }
    assert!(!built.lookup("soumen").is_empty() && !built.lookup("mining").is_empty());
    publisher.publish(&DeltaBatch { ops }, None).unwrap();

    let after = publisher.current();
    let (cached, total, _) = after
        .text_index()
        .lazy_cache_stats()
        .expect("still over its term table");
    assert_eq!(total, built.distinct_tokens());
    assert!(
        cached <= tokens.len(),
        "{cached} lists cached for {} tokens",
        tokens.len()
    );
    let rebuilt = TextIndex::build(after.db(), &tokenizer);
    for token in &tokens {
        assert_eq!(
            after.text_index().lookup(token),
            rebuilt.lookup(token),
            "{token}"
        );
    }
    assert_eq!(
        after.text_index().distinct_tokens(),
        rebuilt.distinct_tokens()
    );
    assert_eq!(after.text_index().posting_count(), rebuilt.posting_count());
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// The corpus writer against save_bundle of the built system.
// ---------------------------------------------------------------------

/// `write_corpus_bundle(rows)` and `save_bundle(Banks::with_config(db))`
/// must write the same file.
fn assert_writer_matches(
    db: Database,
    rows: RowArena,
    config: &BanksConfig,
    dir: &std::path::Path,
    what: &str,
) {
    let want = dir.join(format!("{what}.want.banks"));
    let got = dir.join(format!("{what}.got.banks"));
    save_bundle(&Banks::with_config(db, config.clone()).unwrap(), 3, &want).unwrap();
    let written = write_corpus_bundle(rows.finish(), config, 3, &got).unwrap();
    let want = std::fs::read(&want).unwrap();
    assert_eq!(written.bytes, want.len() as u64, "{what}: reported size");
    assert!(
        std::fs::read(&got).unwrap() == want,
        "{what}: bundles differ"
    );
}

#[test]
fn corpus_writer_matches_save_bundle_on_every_corpus() {
    let dir = tmp_dir("writer");
    let stream = dir.join("corpus");
    generate_to_dir(&StreamConfig::new(42, 2_000), &stream).unwrap();
    let defaults = BanksConfig::default();
    let mut transfer = BanksConfig {
        graph: GraphConfig {
            node_weight: NodeWeightMode::AuthorityTransfer {
                iterations: 3,
                damping: 0.5,
            },
            default_similarity: 0.5,
            indegree_backward_weights: false,
        },
        ..BanksConfig::default()
    };
    transfer.score.lambda = 0.7;

    // A datagen directory streams straight into the arena.
    let db = build_database(&stream).unwrap();
    assert_writer_matches(
        db,
        stage_rows(&stream).unwrap(),
        &defaults,
        &dir,
        "datagen 2k",
    );
    // The generators insert across relations in their own order; the
    // arena copies each target's references in the database's order.
    for (kind, name) in [(0, "dblp"), (1, "thesis"), (2, "tpcd")] {
        for (config, tag) in [(&defaults, "defaults"), (&transfer, "transfer")] {
            let db = corpus(kind, 7);
            let rows = RowArena::from_database(&db).unwrap();
            assert_writer_matches(db, rows, config, &dir, &format!("{name} {tag}"));
        }
    }
    // Tombstoned slots stay tombstones (unreferenced Cites rows deleted).
    let mut db = corpus(0, 11);
    let cites = db.relation("Cites").unwrap();
    let dead: Vec<Rid> = cites
        .live_slots()
        .step_by(3)
        .map(|s| Rid::new(cites.id(), s))
        .collect();
    for rid in dead {
        db.delete(rid).unwrap();
    }
    let rows = RowArena::from_database(&db).unwrap();
    assert_writer_matches(db, rows, &defaults, &dir, "dblp with tombstones");
    std::fs::remove_dir_all(&dir).ok();
}

/// A corpus that does not load fails the same way on both paths: the
/// first bad row, the same typed error.
#[test]
fn corpus_writer_rejects_what_the_database_rejects() {
    let dir = tmp_dir("writer_errors");
    let stream = dir.join("corpus");
    let manifest = generate_to_dir(&StreamConfig::new(5, 500), &stream).unwrap();
    let shard = manifest.shard_path(&stream, 0);
    let text = std::fs::read_to_string(&shard).unwrap();
    let line = text.lines().find(|l| l.starts_with("Writes\t")).unwrap();
    let bad = line.replacen("Writes\t", "Writes\tNoSuchAuthor", 1);
    let (author, paper) = bad["Writes\t".len()..].split_once('\t').unwrap();
    std::fs::write(&shard, text.replacen(line, &bad, 1)).unwrap();
    let want = build_database(&stream).unwrap_err();
    assert!(want.contains("foreign key"), "{want}");
    assert_eq!(stage_rows(&stream).unwrap_err(), want);

    // Row by row: every refusal of `Database::insert` is `RowArena::insert`'s.
    let mut db = banks_datagen::dblp::dblp_schema().unwrap();
    let mut arena = RowArena::new(db.empty_like().unwrap());
    let rows: Vec<(&str, [&str; 2])> = vec![
        ("Author", ["a1", "Ann"]),
        ("Paper", ["p1", "Paper One"]),
        ("Writes", ["a1", "p1"]),
        ("Writes", [author, paper]),
        ("Writes", ["a1", "p1"]),
        ("Author", ["a1", "Ann Again"]),
        ("Nope", ["x", "y"]),
    ];
    for (table, [a, b]) in rows {
        let want = db.insert(table, vec![Value::text(a), Value::text(b)]);
        let got = arena.insert(table, &[Value::text(a), Value::text(b)]);
        assert_eq!(got, want, "{table} {a} {b}");
    }
    let arity = arena.insert("Author", &[Value::text("only one")]);
    assert_eq!(arity, db.insert("Author", vec![Value::text("only one")]));
    assert!(arity.is_err());
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Data graph: TupleGraph::build against the resolve-every-FK reference.
// ---------------------------------------------------------------------

/// The derivation the build used before it walked the reverse-reference
/// index: every foreign key of every live tuple is resolved again with
/// `Database::resolve_fk`, node prestige and `IN_{R}(t)` are counted
/// from those links, and the builder's sort and min-coalescing make the
/// CSR.
fn reference_graph(db: &Database, config: &GraphConfig) -> Graph {
    let mut rid_nodes = banks_util::fxhash::FxHashMap::default();
    let mut rids = Vec::new();
    for table in db.relations() {
        for slot in table.live_slots() {
            let rid = Rid::new(table.id(), slot);
            rid_nodes.insert(rid, NodeId(rids.len() as u32));
            rids.push(rid);
        }
    }
    // (from, to, similarity) in scan order.
    let mut links = Vec::new();
    for table in db.relations() {
        for (rid, _) in table.scan() {
            for (fk_index, fk) in table.schema().foreign_keys.iter().enumerate() {
                if let Some(target) = db.resolve_fk(rid, fk_index).unwrap() {
                    let sim = fk.similarity.unwrap_or(config.default_similarity);
                    links.push((rid, target, sim));
                }
            }
        }
    }
    let indegree = |t: Rid| links.iter().filter(|l| l.1 == t).count();
    let indegree_from = |t: Rid, r| {
        links
            .iter()
            .filter(|l| l.1 == t && l.0.relation == r)
            .count()
    };

    let mut builder = GraphBuilder::new();
    for &rid in &rids {
        builder.add_node(match config.node_weight {
            NodeWeightMode::Uniform => 1.0,
            _ => indegree(rid) as f64,
        });
    }
    for &(from, to, sim) in &links {
        let (f, t) = (rid_nodes[&from], rid_nodes[&to]);
        builder.add_edge(f, t, sim);
        let back = if config.indegree_backward_weights {
            sim * indegree_from(to, from.relation).max(1) as f64
        } else {
            sim
        };
        builder.add_edge(t, f, back);
    }
    if let NodeWeightMode::AuthorityTransfer {
        iterations,
        damping,
    } = config.node_weight
    {
        let weights = banks_core::prestige::authority_transfer(db, &rid_nodes, iterations, damping);
        for (node, w) in weights.into_iter().enumerate() {
            builder.set_node_weight(NodeId(node as u32), w);
        }
    }
    builder.build()
}

/// Same nodes, weights and adjacency in both directions, bit for bit.
fn assert_same_graph(got: &Graph, want: &Graph, what: &str) {
    assert_eq!(got.node_count(), want.node_count(), "{what}: nodes");
    assert_eq!(got.edge_count(), want.edge_count(), "{what}: edges");
    let bits = |adjacency: Adjacency<'_>| -> Vec<(u32, u64)> {
        adjacency.iter().map(|(t, w)| (t, w.to_bits())).collect()
    };
    for node in want.nodes() {
        assert_eq!(
            got.node_weight(node).to_bits(),
            want.node_weight(node).to_bits(),
            "{what}: weight of {node:?}"
        );
        assert_eq!(
            got.with_out_adjacency(node, bits),
            want.with_out_adjacency(node, bits),
            "{what}: out-edges of {node:?}"
        );
        assert_eq!(
            got.with_in_adjacency(node, bits),
            want.with_in_adjacency(node, bits),
            "{what}: in-edges of {node:?}"
        );
    }
}

fn assert_build_matches_reference(db: &Database, config: &GraphConfig, what: &str) {
    let built = TupleGraph::build(db, config).unwrap();
    assert_same_graph(built.graph(), &reference_graph(db, config), what);
}

/// A generated corpus: 0 dblp, 1 thesis, 2 tpcd, 3 a `datagen` stream.
fn corpus(kind: u8, seed: u64) -> Database {
    match kind {
        0 => dblp::generate(DblpConfig::tiny(seed)).unwrap().db,
        1 => thesis::generate(ThesisConfig::tiny(seed)).unwrap().db,
        2 => tpcd::generate(TpcdConfig::tiny(seed)).unwrap().db,
        _ => {
            let dir = tmp_dir(&format!("stream_{seed}"));
            generate_to_dir(&StreamConfig::new(seed, 1_500), &dir).unwrap();
            let db = build_database(&dir).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            db
        }
    }
}

fn graph_config() -> impl Strategy<Value = GraphConfig> {
    (
        0u8..4,
        any::<bool>(),
        prop_oneof![Just(1.0), Just(0.5), Just(3.0)],
    )
        .prop_map(|(mode, scaled, default_similarity)| GraphConfig {
            node_weight: match mode {
                0 => NodeWeightMode::Uniform,
                1 => NodeWeightMode::AuthorityTransfer {
                    iterations: 3,
                    damping: 0.5,
                },
                _ => NodeWeightMode::Indegree,
            },
            default_similarity,
            indegree_backward_weights: scaled,
        })
}

/// One random op against the current state, concretized so it is valid
/// more often than not (a batch with an invalid op is rejected whole,
/// which is a valid outcome too). `salt` drives every choice.
fn random_op(db: &Database, code: u8, salt: u64) -> Option<TupleOp> {
    let pick = |n: usize, shift: u32| (salt.rotate_right(shift) % n.max(1) as u64) as usize;
    let table = db.relations().nth(pick(db.relation_count(), 0))?;
    let schema = table.schema();
    if !schema.has_primary_key() {
        return None;
    }
    let live: Vec<u32> = table.live_slots().collect();
    let row = table
        .get(*live.get(pick(live.len(), 8))?)?
        .values()
        .to_vec();
    let key: Vec<Value> = schema.primary_key.iter().map(|&c| row[c].clone()).collect();
    // A live key of `relation`, for pointing a foreign key at.
    let target_key = |relation: &str, shift: u32| -> Option<Vec<Value>> {
        let target = db.relation(relation).ok()?;
        let slots: Vec<u32> = target.live_slots().collect();
        let tuple = target.get(*slots.get(pick(slots.len(), shift))?)?;
        Some(
            target
                .schema()
                .key_of(tuple.values())
                .into_iter()
                .cloned()
                .collect(),
        )
    };
    let fresh = |ty: ColumnType| match ty {
        ColumnType::Int => Value::Int(1_000_000 + (salt % 1_000_000) as i64),
        ColumnType::Float => Value::Float((salt % 1000) as f64 / 8.0),
        ColumnType::Bool => Value::Bool(salt & 1 == 1),
        ColumnType::Text => Value::text(format!("fresh {salt:x} Σ ß")),
    };
    let relation = schema.name.clone();
    match code {
        0 => Some(TupleOp::Delete { relation, key }),
        1 => {
            // Repoint one foreign key, or rewrite one plain column.
            let mut set = Vec::new();
            match schema.foreign_keys.get(pick(schema.foreign_keys.len(), 16)) {
                Some(fk) if !fk.columns.iter().any(|c| schema.primary_key.contains(c)) => {
                    let to = target_key(&fk.ref_relation, 24)?;
                    for (&c, v) in fk.columns.iter().zip(to) {
                        set.push((schema.columns[c].name.clone(), v));
                    }
                }
                _ => {
                    let c = (0..schema.arity())
                        .filter(|c| !schema.primary_key.contains(c))
                        .filter(|c| !schema.foreign_keys.iter().any(|fk| fk.columns.contains(c)))
                        .nth(pick(schema.arity(), 32) % schema.arity())?;
                    set.push((schema.columns[c].name.clone(), fresh(schema.columns[c].ty)));
                }
            }
            Some(TupleOp::Update { relation, key, set })
        }
        _ => {
            // A copy of a live row under a fresh key, its foreign keys
            // pointed at random live targets.
            let mut values = row;
            for &c in &schema.primary_key {
                values[c] = fresh(schema.columns[c].ty);
            }
            for (i, fk) in schema.foreign_keys.iter().enumerate() {
                if let Some(to) = target_key(&fk.ref_relation, 40 + i as u32) {
                    for (&c, v) in fk.columns.iter().zip(to) {
                        values[c] = v;
                    }
                }
            }
            Some(TupleOp::Insert { relation, values })
        }
    }
}

/// Publish `batches` random batches; returns how many were applied.
fn ingest(publisher: &mut SnapshotPublisher, batches: &[Vec<(u8, u64)>]) -> usize {
    let mut applied = 0;
    for ops in batches {
        let current = publisher.current();
        let batch = DeltaBatch {
            ops: ops
                .iter()
                .filter_map(|&(code, salt)| random_op(current.db(), code, salt))
                .collect(),
        };
        if !batch.is_empty() && publisher.publish(&batch, None).is_ok() {
            applied += 1;
        }
    }
    applied
}

fn batches() -> impl Strategy<Value = Vec<Vec<(u8, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..3, any::<u64>()), 1..4),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every generator, random seeds, random graph options.
    #[test]
    fn build_matches_reference_on_generated_corpora(
        kind in 0u8..4,
        seed in 1u64..10_000,
        config in graph_config(),
    ) {
        let db = corpus(kind, seed);
        assert_build_matches_reference(&db, &config, &format!("corpus {kind} seed {seed}"));
    }

    /// A lazily reopened v3 database: links come out of the tuple
    /// blocks' reverse-reference lanes, under a budget small enough to
    /// evict while the build walks them.
    #[test]
    fn build_matches_reference_on_a_lazy_v3_database(
        kind in 0u8..4,
        seed in 1u64..10_000,
        budget_kib in 4usize..256,
    ) {
        let db = corpus(kind, seed);
        let eager = Banks::new(db).unwrap();
        let dir = tmp_dir(&format!("lazy_{kind}_{seed}"));
        let path = dir.join("bundle.banks");
        save_bundle(&eager, 0, &path).unwrap();
        let (paged, _) =
            open_bundle_paged(&path, budget_kib * 1024, &BanksConfig::default()).unwrap();
        prop_assert!(paged.db().tuple_store().is_some(), "v3 reopens lazily");
        let config = GraphConfig::default();
        let built = TupleGraph::build(paged.db(), &config).unwrap();
        assert_same_graph(built.graph(), &reference_graph(paged.db(), &config), "lazy");
        assert_same_graph(built.graph(), eager.tuple_graph().graph(), "lazy vs eager");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// After random batches of inserts, updates and deletes, on an
    /// eager database and on a lazy one (whose changes live in
    /// overlays above the tuple blocks).
    #[test]
    fn build_matches_reference_after_random_ingest(
        kind in 0u8..4,
        seed in 1u64..10_000,
        lazy in any::<bool>(),
        batches in batches(),
    ) {
        let eager = Banks::new(corpus(kind, seed)).unwrap();
        let dir = tmp_dir(&format!("ingest_{kind}_{seed}"));
        let banks = if lazy {
            let path = dir.join("bundle.banks");
            save_bundle(&eager, 0, &path).unwrap();
            open_bundle_paged(&path, 64 << 10, &BanksConfig::default()).unwrap().0
        } else {
            eager
        };
        let mut publisher = SnapshotPublisher::with_epoch(Arc::new(banks), 0);
        ingest(&mut publisher, &batches);
        let current = publisher.current();
        let config = GraphConfig::default();
        let built = TupleGraph::build(current.db(), &config).unwrap();
        assert_same_graph(built.graph(), &reference_graph(current.db(), &config), "ingest");
        // The incrementally patched graph the publisher serves agrees.
        assert_same_graph(current.tuple_graph().graph(), built.graph(), "patched");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The random ingest above must actually change the database, or the
/// property says nothing about overlays and relinked references.
#[test]
fn random_ingest_applies_batches() {
    let mut publisher =
        SnapshotPublisher::with_epoch(Arc::new(Banks::new(corpus(0, 7)).unwrap()), 0);
    let batches: Vec<Vec<(u8, u64)>> = (0..40u64)
        .map(|i| vec![((i % 3) as u8, i.wrapping_mul(0x9e37_79b9_7f4a_7c15))])
        .collect();
    let applied = ingest(&mut publisher, &batches);
    assert!(applied >= 10, "only {applied} of 40 batches applied");
}

// ---------------------------------------------------------------------
// Text: the tokenizer and TextIndex::build.
// ---------------------------------------------------------------------

/// The char-by-char tokenizer the fast path replaced.
fn reference_tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
        } else if !current.is_empty() {
            out.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Characters chosen to stress case folding and token boundaries:
/// `İ` lowercases to two chars, `ß` has no one-char uppercase, `Σ` has
/// two lowercase forms, `ǅ` is titlecase, `٣` and `²` are non-ASCII
/// numerics, U+0301 is a combining mark (not alphanumeric).
const TRICKY: &[char] = &[
    'a', 'Z', 'q', 'M', '0', '7', '_', '-', '.', ',', '\'', ' ', '\t', '\n', 'İ', 'ı', 'ß', 'ẞ',
    'Σ', 'σ', 'ς', 'ǅ', 'é', 'É', '٣', '²', '\u{301}', '漢', '🦀', 'Ⅻ', 'ﬁ', 'K',
];

fn unicode_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((any::<bool>(), any::<u32>()), 0..48).prop_map(|draws| {
        draws
            .into_iter()
            .map(|(tricky, n)| {
                if tricky {
                    TRICKY[n as usize % TRICKY.len()]
                } else {
                    // Arbitrary scalar values, weighted toward the BMP.
                    char::from_u32(n % 0x3_0000).unwrap_or('\u{fffd}')
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tokenizer_matches_char_by_char_reference(text in unicode_text()) {
        let tokenizer = Tokenizer::new();
        let want = reference_tokenize(&text);
        prop_assert_eq!(tokenizer.tokenize(&text), want.clone());
        // The streaming form, through a buffer dirtied by an earlier call.
        let mut buf = String::from("İSTANBUL leftovers");
        let mut got = Vec::new();
        tokenizer.for_each_token(&text, &mut buf, |t| got.push(t.to_owned()));
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The bulk build equals an index grown value by value.
    #[test]
    fn text_index_build_matches_value_by_value_index(
        kind in 0u8..4,
        seed in 1u64..10_000,
    ) {
        let db = corpus(kind, seed);
        let tokenizer = Tokenizer::new();
        let bulk = TextIndex::build(&db, &tokenizer);
        let mut grown = TextIndex::default();
        for table in db.relations() {
            for (rid, tuple) in table.scan() {
                for (col, value) in tuple.values().iter().enumerate() {
                    if let (ColumnType::Text, Some(text)) =
                        (table.schema().columns[col].ty, value.as_text())
                    {
                        grown.add_value(rid, col as u32, text, &tokenizer);
                    }
                }
            }
        }
        prop_assert_eq!(bulk.distinct_tokens(), grown.distinct_tokens());
        prop_assert_eq!(bulk.posting_count(), grown.posting_count());
        for token in bulk.tokens() {
            prop_assert_eq!(bulk.lookup(token), grown.lookup(token), "{}", token);
        }
    }
}
