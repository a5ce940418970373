//! Property-based tests spanning crates: storage mutation fuzzing, v3
//! DATA-section round-trips over adversarial values, tokenizer laws,
//! tree-signature invariance, and whole-pipeline search invariants on
//! random corpora.

use banks_core::{Banks, ConnectionTree};
use banks_datagen::dblp::{generate, DblpConfig};
use banks_graph::NodeId;
use banks_storage::blocks::encode_database_v3;
use banks_storage::{
    ColumnType, Database, RelationSchema, ResidentTupleStore, Tokenizer, TupleStore, Value,
};
use proptest::prelude::*;

// ---------- storage mutation fuzzing -------------------------------------

/// A randomized mutation against a two-relation database.
#[derive(Debug, Clone)]
enum Op {
    InsertParent(u16),
    InsertChild { id: u16, parent: u16 },
    DeleteParent(u16),
    DeleteChild(u16),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..32).prop_map(Op::InsertParent),
        (0u16..64, 0u16..32).prop_map(|(id, parent)| Op::InsertChild { id, parent }),
        (0u16..32).prop_map(Op::DeleteParent),
        (0u16..64).prop_map(Op::DeleteChild),
    ]
}

fn fuzz_db() -> Database {
    let mut db = Database::new("fuzz");
    db.create_relation(
        RelationSchema::builder("Parent")
            .column("Id", ColumnType::Int)
            .primary_key(&["Id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_relation(
        RelationSchema::builder("Child")
            .column("Id", ColumnType::Int)
            .column("Parent", ColumnType::Int)
            .primary_key(&["Id"])
            .foreign_key(&["Parent"], "Parent")
            .build()
            .unwrap(),
    )
    .unwrap();
    db
}

proptest! {
    /// Whatever sequence of inserts and deletes is applied — including
    /// rejected ones — the catalog's invariants hold: link counts match a
    /// full rescan, indegrees match back-references, no dangling foreign
    /// keys, and RESTRICT prevents deleting referenced tuples.
    #[test]
    fn storage_invariants_under_mutation(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut db = fuzz_db();
        for op in ops {
            match op {
                Op::InsertParent(id) => {
                    let _ = db.insert("Parent", vec![Value::Int(id as i64)]);
                }
                Op::InsertChild { id, parent } => {
                    let _ = db.insert(
                        "Child",
                        vec![Value::Int(id as i64), Value::Int(parent as i64)],
                    );
                }
                Op::DeleteParent(id) => {
                    if let Some(rid) = db.relation("Parent").unwrap().lookup_pk(&[Value::Int(id as i64)]) {
                        let referenced = !db.referencing(rid).is_empty();
                        let result = db.delete(rid);
                        prop_assert_eq!(result.is_err(), referenced, "RESTRICT semantics");
                    }
                }
                Op::DeleteChild(id) => {
                    if let Some(rid) = db.relation("Child").unwrap().lookup_pk(&[Value::Int(id as i64)]) {
                        db.delete(rid).unwrap();
                    }
                }
            }
        }
        // Invariant 1: every child's FK resolves (no dangling links).
        let mut resolved_links = 0usize;
        for (rid, _) in db.relation("Child").unwrap().scan() {
            prop_assert!(db.resolve_fk(rid, 0).unwrap().is_some());
            resolved_links += 1;
        }
        // Invariant 2: link_count equals the rescan.
        prop_assert_eq!(db.link_count(), resolved_links);
        // Invariant 3: Σ indegree over parents == link count.
        let indegree_sum: usize = db
            .relation("Parent")
            .unwrap()
            .scan()
            .map(|(rid, _)| db.indegree(rid))
            .sum();
        prop_assert_eq!(indegree_sum, resolved_links);
        // Invariant 4: back-references point at live tuples that really
        // reference the target.
        for (rid, _) in db.relation("Parent").unwrap().scan() {
            for backref in db.referencing(rid).iter() {
                let resolved = db.resolve_fk(backref.from, backref.fk_index).unwrap();
                prop_assert_eq!(resolved, Some(rid));
            }
        }
    }

    /// v3 DATA-section round-trips survive adversarial text: quotes,
    /// commas, newlines, unicode, empty strings, and NULLs.
    #[test]
    fn v3_roundtrip_adversarial_values(
        rows in proptest::collection::vec(
            (any::<Option<String>>(), any::<Option<i64>>()),
            0..25
        )
    ) {
        let mut db = Database::new("t");
        db.create_relation(
            RelationSchema::builder("T")
                .column("Id", ColumnType::Int)
                .nullable_column("Text", ColumnType::Text)
                .nullable_column("Num", ColumnType::Int)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        for (i, (text, num)) in rows.iter().enumerate() {
            db.insert(
                "T",
                vec![
                    Value::Int(i as i64),
                    text.clone().map(Value::Text).unwrap_or(Value::Null),
                    num.map(Value::Int).unwrap_or(Value::Null),
                ],
            )
            .unwrap();
        }
        let store = ResidentTupleStore::open(&encode_database_v3(&db).unwrap()).unwrap();
        let schema_text = store.directory().layout.schema_text.clone();
        let reloaded = Database::open_lazy(&schema_text, store).unwrap();
        prop_assert_eq!(reloaded.relation("T").unwrap().len(), rows.len());
        for (rid, tuple) in db.relation("T").unwrap().scan() {
            let key = vec![tuple.values()[0].clone()];
            let rid2 = reloaded.relation("T").unwrap().lookup_pk(&key).unwrap();
            prop_assert_eq!(
                db.tuple(rid).unwrap().values(),
                reloaded.tuple(rid2).unwrap().values()
            );
        }
    }

    /// Tokenizer laws: lowercase alphanumeric output, and re-tokenizing
    /// the joined tokens is the identity.
    #[test]
    fn tokenizer_laws(text in ".{0,120}") {
        let tokenizer = Tokenizer::new();
        let tokens = tokenizer.tokenize(&text);
        for t in &tokens {
            prop_assert!(!t.is_empty());
            prop_assert!(t.chars().all(char::is_alphanumeric), "{t:?}");
            prop_assert_eq!(t.to_lowercase(), t.clone());
        }
        let rejoined = tokenizer.tokenize(&tokens.join(" "));
        prop_assert_eq!(rejoined, tokens);
    }

    /// Tree signatures are invariant under edge-direction flips and root
    /// relabeling — the §3 duplicate definition ("isomorphic modulo
    /// direction … even if the roots were different").
    #[test]
    fn tree_signature_direction_invariance(
        edges in proptest::collection::vec((0u32..12, 0u32..12, 1u32..5), 1..12),
        flips in proptest::collection::vec(any::<bool>(), 12),
        root_a in 0u32..12,
        root_b in 0u32..12,
    ) {
        let fwd: Vec<(NodeId, NodeId, f64)> = edges
            .iter()
            .map(|&(f, t, w)| (NodeId(f), NodeId(t), w as f64))
            .collect();
        let flipped: Vec<(NodeId, NodeId, f64)> = edges
            .iter()
            .zip(flips.iter().cycle())
            .map(|(&(f, t, w), &flip)| {
                if flip {
                    (NodeId(t), NodeId(f), w as f64)
                } else {
                    (NodeId(f), NodeId(t), w as f64)
                }
            })
            .collect();
        let a = ConnectionTree::new(NodeId(root_a), vec![], fwd);
        let b = ConnectionTree::new(NodeId(root_b), vec![], flipped);
        // Self-loops flip onto themselves; general edges flip direction —
        // either way the undirected signature is unchanged.
        prop_assert_eq!(a.signature(), b.signature());
    }
}

// ---------- whole-pipeline invariants on random corpora -------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Any two-token query built from indexed tokens returns valid,
    /// deduplicated, relevance-bounded answers on a random tiny corpus.
    #[test]
    fn random_queries_never_violate_answer_invariants(
        seed in 0u64..500,
        pick_a in 0usize..5000,
        pick_b in 0usize..5000,
    ) {
        let dataset = generate(DblpConfig::tiny(seed)).unwrap();
        let banks = Banks::new(dataset.db.clone()).unwrap();
        let mut tokens: Vec<String> = banks
            .text_index()
            .tokens()
            .map(|t| t.to_string())
            .collect();
        tokens.sort();
        let a = &tokens[pick_a % tokens.len()];
        let b = &tokens[pick_b % tokens.len()];
        let answers = banks.search(&format!("{a} {b}")).unwrap();
        let mut sigs = Vec::new();
        for answer in &answers {
            prop_assert!((0.0..=1.0).contains(&answer.relevance));
            prop_assert_eq!(answer.tree.keyword_nodes.len(), 2);
            sigs.push(answer.tree.signature());
            // Tree weight equals the sum of its edge weights.
            let sum: f64 = answer.tree.edges.iter().map(|e| e.2).sum();
            prop_assert!((sum - answer.tree.weight).abs() < 1e-9);
        }
        let before = sigs.len();
        sigs.sort();
        sigs.dedup();
        prop_assert_eq!(before, sigs.len(), "duplicate answers for `{} {}`", a, b);
    }
}
