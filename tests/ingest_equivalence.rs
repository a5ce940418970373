//! Property test: applying a random delta batch incrementally yields a
//! graph identical — nodes, edges, weights — to a from-scratch rebuild
//! of the mutated database, and a text index identical to a bulk
//! re-index. This is the correctness contract of `banks-ingest`'s
//! touched-neighborhood patching. The text index is checked both as
//! built and as opened from its packed bytes — in memory, and off a
//! paged bundle — where a batch copies the lists it touches into an
//! overlay and a clone taken before the batch must not see it.

use banks_core::{Banks, BanksConfig, TupleGraph};
use banks_ingest::{apply_batch, DeltaBatch, TupleOp};
use banks_pager::ByteSource;
use banks_persist::{open_bundle_paged, save_bundle};
use banks_storage::postings::write_packed_postings;
use banks_storage::{ColumnType, Database, RelationSchema, Rid, TextIndex, Tokenizer, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Abstract op codes, concretized against an evolving shadow state so
/// every generated batch is valid by construction (validity errors are
/// covered by unit tests; this property targets the patch math).
#[derive(Debug, Clone, Copy)]
enum OpCode {
    InsertAuthor,
    InsertPaper,
    /// Link a random author to a random paper.
    InsertWrite,
    /// Delete a random Writes tuple (leaf: never RESTRICTed).
    DeleteWrite,
    /// Repoint a random Writes tuple at another paper (FK update).
    RepointWrite,
    /// Rename a random author (text-only update).
    RenameAuthor,
    /// Delete a random unreferenced author.
    DeleteFreeAuthor,
}

fn op_code() -> impl Strategy<Value = OpCode> {
    (0u8..7).prop_map(|c| match c {
        0 => OpCode::InsertAuthor,
        1 => OpCode::InsertPaper,
        2 => OpCode::InsertWrite,
        3 => OpCode::DeleteWrite,
        4 => OpCode::RepointWrite,
        5 => OpCode::RenameAuthor,
        _ => OpCode::DeleteFreeAuthor,
    })
}

/// Mirror of the database contents sufficient to concretize ops.
struct Shadow {
    authors: Vec<String>,
    papers: Vec<String>,
    /// (write id, author id, paper id)
    writes: Vec<(String, String, String)>,
    next_id: usize,
}

impl Shadow {
    fn pick<T>(items: &[T], salt: usize) -> Option<&T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[salt % items.len()])
        }
    }

    fn concretize(&mut self, code: OpCode, salt: usize) -> Option<TupleOp> {
        self.next_id += 1;
        let fresh = self.next_id;
        match code {
            OpCode::InsertAuthor => {
                let id = format!("a{fresh}");
                self.authors.push(id.clone());
                Some(TupleOp::Insert {
                    relation: "Author".into(),
                    values: vec![
                        Value::text(&id),
                        Value::text(format!("Generated Author {fresh} keywords")),
                    ],
                })
            }
            OpCode::InsertPaper => {
                let id = format!("p{fresh}");
                self.papers.push(id.clone());
                Some(TupleOp::Insert {
                    relation: "Paper".into(),
                    values: vec![
                        Value::text(&id),
                        Value::text(format!("Generated Paper {fresh} mining graphs")),
                    ],
                })
            }
            OpCode::InsertWrite => {
                let author = Self::pick(&self.authors, salt)?.clone();
                let paper = Self::pick(&self.papers, salt / 7 + 1)?.clone();
                let id = format!("w{fresh}");
                self.writes
                    .push((id.clone(), author.clone(), paper.clone()));
                Some(TupleOp::Insert {
                    relation: "Writes".into(),
                    values: vec![Value::text(&id), Value::text(author), Value::text(paper)],
                })
            }
            OpCode::DeleteWrite => {
                if self.writes.is_empty() {
                    return None;
                }
                let (id, ..) = self.writes.swap_remove(salt % self.writes.len());
                Some(TupleOp::Delete {
                    relation: "Writes".into(),
                    key: vec![Value::text(id)],
                })
            }
            OpCode::RepointWrite => {
                if self.writes.is_empty() {
                    return None;
                }
                let idx = salt % self.writes.len();
                let paper = Self::pick(&self.papers, salt / 3 + 1)?.clone();
                self.writes[idx].2 = paper.clone();
                let id = self.writes[idx].0.clone();
                Some(TupleOp::Update {
                    relation: "Writes".into(),
                    key: vec![Value::text(id)],
                    set: vec![("PaperId".into(), Value::text(paper))],
                })
            }
            OpCode::RenameAuthor => {
                let id = Self::pick(&self.authors, salt)?.clone();
                Some(TupleOp::Update {
                    relation: "Author".into(),
                    key: vec![Value::text(id)],
                    set: vec![(
                        "AuthorName".into(),
                        Value::text(format!("Renamed Author {fresh} databases")),
                    )],
                })
            }
            OpCode::DeleteFreeAuthor => {
                let referenced: std::collections::HashSet<&str> =
                    self.writes.iter().map(|(_, a, _)| a.as_str()).collect();
                let free: Vec<usize> = self
                    .authors
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| !referenced.contains(a.as_str()))
                    .map(|(i, _)| i)
                    .collect();
                let &idx = Self::pick(&free, salt)?;
                let id = self.authors.swap_remove(idx);
                Some(TupleOp::Delete {
                    relation: "Author".into(),
                    key: vec![Value::text(id)],
                })
            }
        }
    }
}

/// Seed database: `authors × papers` bibliography with one write per
/// author (hub-shaped: everyone writes paper 0, plus a spread).
fn seed(authors: usize, papers: usize) -> (Database, Shadow) {
    let mut db = Database::new("prop");
    db.create_relation(
        RelationSchema::builder("Author")
            .column("AuthorId", ColumnType::Text)
            .column("AuthorName", ColumnType::Text)
            .primary_key(&["AuthorId"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_relation(
        RelationSchema::builder("Paper")
            .column("PaperId", ColumnType::Text)
            .column("PaperName", ColumnType::Text)
            .primary_key(&["PaperId"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_relation(
        RelationSchema::builder("Writes")
            .column("WriteId", ColumnType::Text)
            .column("AuthorId", ColumnType::Text)
            .column("PaperId", ColumnType::Text)
            .primary_key(&["WriteId"])
            .foreign_key(&["AuthorId"], "Author")
            .foreign_key(&["PaperId"], "Paper")
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut shadow = Shadow {
        authors: Vec::new(),
        papers: Vec::new(),
        writes: Vec::new(),
        next_id: 0,
    };
    for i in 0..papers {
        let id = format!("seed-p{i}");
        db.insert(
            "Paper",
            vec![
                Value::text(&id),
                Value::text(format!("Seed Paper {i} searching browsing")),
            ],
        )
        .unwrap();
        shadow.papers.push(id);
    }
    for i in 0..authors {
        let id = format!("seed-a{i}");
        db.insert(
            "Author",
            vec![
                Value::text(&id),
                Value::text(format!("Seed Author {i} sudarshan")),
            ],
        )
        .unwrap();
        shadow.authors.push(id.clone());
        // Everyone writes paper 0 (a hub), plus a spread write.
        let spread: &[usize] = if i % papers == 0 {
            &[0]
        } else {
            &[0, i % papers]
        };
        for &paper_idx in spread {
            let wid = format!("seed-w{i}-{paper_idx}");
            let pid = &shadow.papers[paper_idx];
            db.insert(
                "Writes",
                vec![Value::text(&wid), Value::text(&id), Value::text(pid)],
            )
            .unwrap();
            shadow.writes.push((wid, id.clone(), pid.clone()));
        }
    }
    (db, shadow)
}

fn edges_by_rid(tg: &TupleGraph) -> Vec<(Rid, Rid, u64)> {
    let g = tg.graph();
    let mut out = Vec::with_capacity(g.edge_count());
    for v in g.nodes() {
        for (t, w) in g.out_edges(v) {
            out.push((tg.rid(v), tg.rid(t), w.to_bits()));
        }
    }
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn incremental_apply_equals_full_rebuild(
        authors in 2usize..8,
        papers in 1usize..5,
        raw_ops in proptest::collection::vec((op_code(), 0usize..1_000_000), 1..40),
    ) {
        let (mut db, mut shadow) = seed(authors, papers);
        let ops: Vec<TupleOp> = raw_ops
            .into_iter()
            .filter_map(|(code, salt)| shadow.concretize(code, salt))
            .collect();
        if ops.is_empty() {
            return;
        }
        let batch = DeltaBatch { ops };

        let config = BanksConfig::default().graph;
        let tokenizer = Tokenizer::new();
        let old = TupleGraph::build(&db, &config).unwrap();
        let mut text = TextIndex::build(&db, &tokenizer);

        let (patched, _stats) =
            apply_batch(&mut db, &old, &mut text, &batch, &config, &tokenizer)
                .expect("generated batches are valid");

        // Graph: node-for-node, edge-for-edge, bit-for-bit weights.
        let rebuilt = TupleGraph::build(&db, &config).unwrap();
        prop_assert_eq!(patched.node_count(), rebuilt.node_count());
        for node in rebuilt.graph().nodes() {
            prop_assert_eq!(patched.rid(node), rebuilt.rid(node));
            prop_assert_eq!(
                patched.graph().node_weight(node).to_bits(),
                rebuilt.graph().node_weight(node).to_bits(),
                "prestige of {} diverged", node
            );
        }
        prop_assert_eq!(edges_by_rid(&patched), edges_by_rid(&rebuilt));
        prop_assert_eq!(
            patched.graph().min_edge_weight().to_bits(),
            rebuilt.graph().min_edge_weight().to_bits()
        );
        prop_assert_eq!(
            patched.graph().max_node_weight().to_bits(),
            rebuilt.graph().max_node_weight().to_bits()
        );

        // Text index: same tokens, same postings.
        let fresh = TextIndex::build(&db, &tokenizer);
        prop_assert_eq!(text.distinct_tokens(), fresh.distinct_tokens());
        prop_assert_eq!(text.posting_count(), fresh.posting_count());
        for token in fresh.tokens() {
            prop_assert_eq!(text.lookup(token), fresh.lookup(token), "token {}", token);
        }
    }
}

fn packed(index: &TextIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_packed_postings(index, &mut bytes).unwrap();
    bytes
}

/// `got` answers exactly as `want`: the token set, every token's list,
/// both counts, and the packed bytes.
fn assert_same_index(got: &TextIndex, want: &TextIndex, what: &str) {
    let mut got_tokens: Vec<&str> = got.tokens().collect();
    let mut want_tokens: Vec<&str> = want.tokens().collect();
    got_tokens.sort_unstable();
    want_tokens.sort_unstable();
    assert_eq!(got_tokens, want_tokens, "{what}: tokens");
    for token in &want_tokens {
        assert_eq!(got.lookup(token), want.lookup(token), "{what}: {token}");
    }
    assert_eq!(got.distinct_tokens(), want.distinct_tokens(), "{what}");
    assert_eq!(got.posting_count(), want.posting_count(), "{what}");
    assert_eq!(packed(got), packed(want), "{what}: packed bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Batches applied over an index opened from packed bytes — an
    /// in-memory source, or a paged bundle's file — leave it equal to a
    /// bulk re-index after every batch, and a clone taken before a batch
    /// still answers as the index did then.
    #[test]
    fn incremental_apply_over_an_opened_base_equals_rebuild(
        authors in 2usize..8,
        papers in 1usize..5,
        paged in proptest::bool::ANY,
        raw_batches in proptest::collection::vec(
            proptest::collection::vec((op_code(), 0usize..1_000_000), 1..12),
            1..4,
        ),
    ) {
        let (seed_db, mut shadow) = seed(authors, papers);
        let config = BanksConfig::default().graph;
        let tokenizer = Tokenizer::new();
        let dir = std::env::temp_dir().join(format!(
            "banks_ingest_equivalence_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let (mut db, mut graph, mut text) = if paged {
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("bundle.banks");
            save_bundle(&Banks::new(seed_db).unwrap(), 0, &path).unwrap();
            let (banks, _) = open_bundle_paged(&path, 1 << 16, &BanksConfig::default()).unwrap();
            (
                banks.db().clone(),
                banks.tuple_graph().clone(),
                banks.text_index().clone(),
            )
        } else {
            let built = packed(&TextIndex::build(&seed_db, &tokenizer));
            let text = TextIndex::open(Arc::new(ByteSource::Mem(built.into()))).unwrap();
            let graph = TupleGraph::build(&seed_db, &config).unwrap();
            (seed_db, graph, text)
        };
        prop_assert!(text.lazy_cache_stats().is_some(), "an opened base");

        for raw_ops in raw_batches {
            let ops: Vec<TupleOp> = raw_ops
                .into_iter()
                .filter_map(|(code, salt)| shadow.concretize(code, salt))
                .collect();
            if ops.is_empty() {
                continue;
            }
            let before = text.clone();
            let before_rebuilt = TextIndex::build(&db, &tokenizer);
            let (patched, _stats) = apply_batch(
                &mut db,
                &graph,
                &mut text,
                &DeltaBatch { ops },
                &config,
                &tokenizer,
            )
            .expect("generated batches are valid");
            graph = patched;
            assert_same_index(&text, &TextIndex::build(&db, &tokenizer), "after the batch");
            assert_same_index(&before, &before_rebuilt, "a clone taken before the batch");
            prop_assert!(text.lazy_cache_stats().is_some(), "still over its base");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
