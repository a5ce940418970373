//! The incremental applier: patch the database, the data graph, and the
//! text index in place of a from-scratch rebuild.
//!
//! The expensive artifacts of `Banks` construction are the data graph
//! (per-link foreign-key resolution — hash lookups on composite keys —
//! followed by an O(m log m) edge sort) and the text index (re-tokenizing
//! every attribute of every tuple). A delta batch touches a tiny
//! fraction of either, so [`apply_batch`] re-derives only the **touched
//! neighborhood** and copies everything else through:
//!
//! * the mutated database yields a *monotone* node remap (tuple scan
//!   order is append-only per relation), letting the old graph stream
//!   straight into [`banks_graph::GraphPatch`];
//! * node prestige (indegree) is recomputed only for nodes whose
//!   indegree changed; other weights are copied;
//! * edge weights are re-derived only for **dirty pairs** — pairs with a
//!   link added or removed, plus every `(target, referencer)` pair whose
//!   backward weight depends on an indegree count that changed
//!   (equation 1's `IN_{R(r)}(t)` hub-damping term);
//! * the text index gets posting insertions and tombstones for exactly
//!   the tuples the batch wrote.
//!
//! Equivalence with a full rebuild is enforced by unit tests here and by
//! the repository-level property test (`tests/ingest_equivalence.rs`).

use crate::delta::{DeltaBatch, TupleOp};
use crate::error::{IngestError, IngestResult};
use banks_core::{GraphConfig, NodeWeightMode, TupleGraph};
use banks_graph::{GraphPatch, NodeId};
use banks_storage::{
    ColumnType, Database, RelationSchema, Rid, StorageError, TextIndex, Tokenizer, Value,
};
use banks_util::fxhash::{FxHashMap, FxHashSet};

/// Per-kind operation counts of an applied batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Tuples inserted.
    pub inserted: usize,
    /// Tuples updated (one per update op, regardless of column count).
    pub updated: usize,
    /// Tuples deleted.
    pub deleted: usize,
}

/// What a batch did to the database (and, when patched incrementally,
/// to the graph).
#[derive(Debug, Clone, Default)]
pub struct ApplyStats {
    /// Operation counts.
    pub counts: OpCounts,
    /// Ordered node pairs whose edges were re-derived.
    pub dirty_pairs: usize,
    /// Re-derived edges actually present in the new graph.
    pub replacement_edges: usize,
}

/// Everything the database mutation recorded for the graph patch.
#[derive(Debug, Default)]
pub(crate) struct DbChanges {
    /// Rids inserted by the batch and still alive at its end — an
    /// insert-then-delete of the same tuple nets out of both lists.
    pub inserted: Vec<Rid>,
    /// Rids that existed before the batch and were deleted by it.
    pub deleted: Vec<Rid>,
    /// Foreign-key links that came into existence: `(referencer, target)`.
    pub added_links: Vec<(Rid, Rid)>,
    /// Foreign-key links that ceased to exist: `(referencer, target)`.
    pub removed_links: Vec<(Rid, Rid)>,
    /// Operation counts.
    pub counts: OpCounts,
}

/// Coerce a textual value to the column's type — the CSV wire format
/// carries text only. Unparseable text is left as-is so the storage
/// layer reports its usual typed mismatch error.
fn coerce(value: Value, ty: ColumnType) -> Value {
    match (&value, ty) {
        (Value::Text(s), ColumnType::Int) => s.parse().map(Value::Int).unwrap_or(value),
        (Value::Text(s), ColumnType::Float) => s.parse().map(Value::Float).unwrap_or(value),
        (Value::Text(s), ColumnType::Bool) => match s.as_str() {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => value,
        },
        _ => value,
    }
}

/// Coerce a primary-key value to the key columns' types.
fn coerce_key(schema: &RelationSchema, key: Vec<Value>) -> Vec<Value> {
    key.into_iter()
        .enumerate()
        .map(|(i, v)| match schema.primary_key.get(i) {
            Some(&col) => coerce(v, schema.columns[col].ty),
            None => v,
        })
        .collect()
}

fn lookup_key(db: &Database, relation: &str, key: &[Value]) -> IngestResult<Rid> {
    db.relation(relation)?.lookup_pk(key).ok_or_else(|| {
        IngestError::Storage(StorageError::InvalidRid(format!(
            "no `{relation}` tuple with key {key:?}"
        )))
    })
}

/// Text-column indices of a schema.
fn text_columns(schema: &RelationSchema) -> Vec<usize> {
    schema
        .columns
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c.ty, ColumnType::Text))
        .map(|(i, _)| i)
        .collect()
}

/// Apply a batch to the database only, recording link-level changes and
/// (optionally) maintaining a text index alongside.
///
/// Operations are validated by the storage layer (schema arity/types,
/// primary keys, the FK catalog, RESTRICT deletes) and applied in order;
/// the first failure aborts with earlier ops already applied — callers
/// wanting atomic semantics apply to a scratch clone and promote it only
/// on success, which is exactly what
/// [`SnapshotPublisher`](crate::SnapshotPublisher) does.
pub(crate) fn apply_to_database(
    db: &mut Database,
    batch: &DeltaBatch,
    mut text: Option<(&mut TextIndex, &Tokenizer)>,
) -> IngestResult<DbChanges> {
    let mut changes = DbChanges::default();
    for op in &batch.ops {
        match op {
            TupleOp::Insert { relation, values } => {
                let schema = db.relation(relation)?.schema().clone();
                let values: Vec<Value> = if values.len() == schema.arity() {
                    values
                        .iter()
                        .cloned()
                        .zip(schema.columns.iter())
                        .map(|(v, c)| coerce(v, c.ty))
                        .collect()
                } else {
                    values.clone() // let insert raise ArityMismatch
                };
                let rid = db.insert(relation, values)?;
                for fk_index in 0..schema.foreign_keys.len() {
                    if let Some(target) = db.resolve_fk(rid, fk_index)? {
                        changes.added_links.push((rid, target));
                    }
                }
                if let Some((index, tokenizer)) = text.as_mut() {
                    let tuple = db.tuple(rid)?.values().to_vec();
                    for col in text_columns(&schema) {
                        if let Some(s) = tuple[col].as_text() {
                            index.add_value(rid, col as u32, s, tokenizer);
                        }
                    }
                }
                changes.inserted.push(rid);
                changes.counts.inserted += 1;
            }
            TupleOp::Delete { relation, key } => {
                let schema = db.relation(relation)?.schema().clone();
                let rid = lookup_key(db, relation, &coerce_key(&schema, key.clone()))?;
                let mut dropped = Vec::new();
                for fk_index in 0..schema.foreign_keys.len() {
                    if let Some(target) = db.resolve_fk(rid, fk_index)? {
                        dropped.push((rid, target));
                    }
                }
                // RESTRICT semantics can still reject; record only after
                // the delete actually happened.
                let tuple = db.delete(rid)?;
                changes.removed_links.extend(dropped);
                // Deleting a tuple this same batch inserted nets out:
                // it neither survives nor existed before the batch.
                if let Some(pos) = changes.inserted.iter().position(|r| *r == rid) {
                    changes.inserted.swap_remove(pos);
                } else {
                    changes.deleted.push(rid);
                }
                if let Some((index, tokenizer)) = text.as_mut() {
                    for col in text_columns(&schema) {
                        if let Some(s) = tuple.values()[col].as_text() {
                            index.remove_value(rid, col as u32, s, tokenizer);
                        }
                    }
                }
                changes.counts.deleted += 1;
            }
            TupleOp::Update { relation, key, set } => {
                let schema = db.relation(relation)?.schema().clone();
                let rid = lookup_key(db, relation, &coerce_key(&schema, key.clone()))?;
                let mut assignments = Vec::with_capacity(set.len());
                for (col_name, value) in set {
                    let col = schema.column_index(col_name).ok_or_else(|| {
                        StorageError::UnknownColumn {
                            relation: schema.name.clone(),
                            column: col_name.clone(),
                        }
                    })?;
                    if assignments.iter().any(|&(a, _)| a == col) {
                        return Err(IngestError::Parse(format!(
                            "duplicate column `{col_name}` in update of `{relation}`"
                        )));
                    }
                    assignments.push((col, coerce(value.clone(), schema.columns[col].ty)));
                }
                let affected: Vec<usize> = schema
                    .foreign_keys
                    .iter()
                    .enumerate()
                    .filter(|(_, fk)| {
                        fk.columns
                            .iter()
                            .any(|c| assignments.iter().any(|&(a, _)| a == *c))
                    })
                    .map(|(i, _)| i)
                    .collect();
                let mut before = Vec::with_capacity(affected.len());
                for &fk_index in &affected {
                    before.push(db.resolve_fk(rid, fk_index)?);
                }
                // One unit: composite FKs spanning several updated
                // columns validate against the final state only.
                let old_values = db.update_columns(rid, &assignments)?;
                for (&fk_index, old_target) in affected.iter().zip(before) {
                    let new_target = db.resolve_fk(rid, fk_index)?;
                    if old_target != new_target {
                        if let Some(t) = old_target {
                            changes.removed_links.push((rid, t));
                        }
                        if let Some(t) = new_target {
                            changes.added_links.push((rid, t));
                        }
                    }
                }
                if let Some((index, tokenizer)) = text.as_mut() {
                    for (&(col, ref value), old_value) in assignments.iter().zip(&old_values) {
                        if !matches!(schema.columns[col].ty, ColumnType::Text) {
                            continue;
                        }
                        if let Some(s) = old_value.as_text() {
                            index.remove_value(rid, col as u32, s, tokenizer);
                        }
                        if let Some(s) = value.as_text() {
                            index.add_value(rid, col as u32, s, tokenizer);
                        }
                    }
                }
                changes.counts.updated += 1;
            }
        }
    }
    Ok(changes)
}

/// Edge weight for the ordered node pair `(a, b)` under the paper's
/// equation (1), derived directly from the live database: the minimum
/// over forward contributions (links `a → b`, weight `s(R(a), R(b))`)
/// and backward contributions (links `b → a`, weight
/// `s(R(b), R(a)) · IN_{R(b)}(a)`). `None` when no link connects the
/// pair — the semantics [`banks_core::TupleGraph::build`] realizes via
/// min-coalescing in the bulk path.
fn pair_weight(db: &Database, a: Rid, b: Rid, config: &GraphConfig) -> IngestResult<Option<f64>> {
    let mut weight = f64::INFINITY;
    let schema_a = db.table(a.relation).schema();
    for (fk_index, fk) in schema_a.foreign_keys.iter().enumerate() {
        if db.resolve_fk(a, fk_index)? == Some(b) {
            weight = weight.min(fk.similarity.unwrap_or(config.default_similarity));
        }
    }
    let schema_b = db.table(b.relation).schema();
    for (fk_index, fk) in schema_b.foreign_keys.iter().enumerate() {
        if db.resolve_fk(b, fk_index)? == Some(a) {
            let sim = fk.similarity.unwrap_or(config.default_similarity);
            let back = if config.indegree_backward_weights {
                sim * db.indegree_from(a, b.relation).max(1) as f64
            } else {
                sim
            };
            weight = weight.min(back);
        }
    }
    Ok(weight.is_finite().then_some(weight))
}

/// Apply `batch` to `db`, patching `text_index` and deriving the
/// successor of `old` incrementally. Returns the new tuple graph plus
/// apply statistics.
///
/// `old` must be the graph of `db`'s pre-batch state (the caller's
/// current snapshot), and `config` the graph configuration it was built
/// under. Authority-transfer prestige is a global fixed-point iteration
/// and cannot be patched locally — it returns
/// [`IngestError::Unsupported`], and callers fall back to a full
/// rebuild.
pub fn apply_batch(
    db: &mut Database,
    old: &TupleGraph,
    text_index: &mut TextIndex,
    batch: &DeltaBatch,
    config: &GraphConfig,
    tokenizer: &Tokenizer,
) -> IngestResult<(TupleGraph, ApplyStats)> {
    if let NodeWeightMode::AuthorityTransfer { .. } = config.node_weight {
        return Err(IngestError::Unsupported(
            "authority-transfer prestige is a global iteration; rebuild instead".into(),
        ));
    }
    let changes = apply_to_database(db, batch, Some((text_index, tokenizer)))?;

    // New node order (deterministic relations-scan order, the same
    // contract `TupleGraph::build`/`rebind` use) and the monotone remap
    // from old node ids.
    let total = db.total_tuples();
    let mut new_rids: Vec<Rid> = Vec::with_capacity(total);
    for table in db.relations() {
        let id = table.id();
        // Liveness only — on a lazily-opened database this walks the
        // presence bitmaps without decoding any tuple block.
        for slot in table.live_slots() {
            new_rids.push(Rid::new(id, slot));
        }
    }
    let mut node_of: FxHashMap<Rid, u32> = FxHashMap::default();
    node_of.reserve(total);
    let mut remap: Vec<Option<u32>> = vec![None; old.node_count()];
    for (i, &rid) in new_rids.iter().enumerate() {
        node_of.insert(rid, i as u32);
        if let Some(o) = old.node(rid) {
            remap[o.index()] = Some(i as u32);
        }
    }

    // Targets whose indegree changed, with the referencing relations
    // whose counts moved (those drive the backward-edge weights).
    let mut changed_in: FxHashMap<Rid, FxHashSet<u32>> = FxHashMap::default();
    for &(r, t) in changes.added_links.iter().chain(&changes.removed_links) {
        changed_in.entry(t).or_default().insert(r.relation.0);
    }

    // New node weights: recompute only brand-new nodes and nodes whose
    // indegree changed; copy everything else through.
    let mut weights = Vec::with_capacity(total);
    for &rid in &new_rids {
        let old_node = old.node(rid);
        let weight = match old_node {
            Some(o) if !changed_in.contains_key(&rid) => old.graph().node_weight(o),
            _ => match config.node_weight {
                NodeWeightMode::Uniform => 1.0,
                NodeWeightMode::Indegree => db.indegree(rid) as f64,
                NodeWeightMode::AuthorityTransfer { .. } => unreachable!("rejected above"),
            },
        };
        weights.push(weight);
    }

    // Dirty pairs: both orientations of every changed link, plus
    // `(target, referencer)` for every surviving referencer from a
    // relation whose fan-in to that target changed (their backward
    // weights embed the changed `IN` count).
    let alive = |rid: &Rid| node_of.contains_key(rid);
    let mut dirty: FxHashSet<(Rid, Rid)> = FxHashSet::default();
    for &(r, t) in changes.added_links.iter().chain(&changes.removed_links) {
        if alive(&r) && alive(&t) {
            dirty.insert((r, t));
            dirty.insert((t, r));
        }
    }
    for (&t, relations) in &changed_in {
        if !alive(&t) {
            continue;
        }
        for backref in db.referencing(t).iter() {
            if relations.contains(&backref.from.relation.0) && alive(&backref.from) {
                dirty.insert((t, backref.from));
            }
        }
    }

    let mut patch = GraphPatch::new(remap, weights);
    let mut replacement_edges = 0usize;
    for &(a, b) in &dirty {
        let (na, nb) = (NodeId(node_of[&a]), NodeId(node_of[&b]));
        match pair_weight(db, a, b, config)? {
            Some(w) => {
                patch.set_edge(na, nb, w);
                replacement_edges += 1;
            }
            None => patch.mark_dirty(na, nb),
        }
    }
    let stats = ApplyStats {
        counts: changes.counts,
        dirty_pairs: patch.dirty_pairs(),
        replacement_edges,
    };
    let graph = patch.apply(old.graph());
    let tuple_graph = TupleGraph::rebind(db, graph)?;
    Ok((tuple_graph, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_core::BanksConfig;
    use banks_storage::RelationSchema;

    /// Bibliography schema with an extra non-key FK column so updates
    /// can repoint links.
    fn schema_db() -> Database {
        let mut db = Database::new("t");
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
                .column("Year", ColumnType::Int)
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
        for (id, name) in [("A1", "Soumen Chakrabarti"), ("A2", "Sunita Sarawagi")] {
            db.insert("Author", vec![Value::text(id), Value::text(name)])
                .unwrap();
        }
        for (id, title, year) in [
            ("P1", "Mining Surprising Patterns", 1998),
            ("P2", "Scalable Classification", 2000),
        ] {
            db.insert(
                "Paper",
                vec![Value::text(id), Value::text(title), Value::Int(year)],
            )
            .unwrap();
        }
        for (w, a, p) in [("W1", "A1", "P1"), ("W2", "A2", "P1"), ("W3", "A1", "P2")] {
            db.insert(
                "Writes",
                vec![Value::text(w), Value::text(a), Value::text(p)],
            )
            .unwrap();
        }
        db
    }

    fn graph_edges(tg: &TupleGraph) -> Vec<(Rid, Rid, u64)> {
        let g = tg.graph();
        let mut out = Vec::new();
        for v in g.nodes() {
            for (t, w) in g.out_edges(v) {
                out.push((tg.rid(v), tg.rid(t), w.to_bits()));
            }
        }
        out.sort_unstable();
        out
    }

    /// Assert the incrementally patched state equals a full rebuild of
    /// the mutated database — graph (nodes, edges, weights) and text
    /// index both.
    fn assert_matches_rebuild(db: &Database, tg: &TupleGraph, text: &TextIndex) {
        let config = BanksConfig::default().graph;
        let rebuilt = TupleGraph::build(db, &config).unwrap();
        assert_eq!(tg.node_count(), rebuilt.node_count(), "node counts");
        for node in rebuilt.graph().nodes() {
            assert_eq!(
                tg.graph().node_weight(node),
                rebuilt.graph().node_weight(node),
                "weight of node {node}"
            );
            assert_eq!(tg.rid(node), rebuilt.rid(node), "rid of node {node}");
        }
        assert_eq!(graph_edges(tg), graph_edges(&rebuilt), "edge sets");

        let fresh_text = TextIndex::build(db, &Tokenizer::new());
        assert_eq!(text.distinct_tokens(), fresh_text.distinct_tokens());
        assert_eq!(text.posting_count(), fresh_text.posting_count());
        for token in fresh_text.tokens() {
            assert_eq!(
                text.lookup(token),
                fresh_text.lookup(token),
                "token {token}"
            );
        }
    }

    fn run_batch(db: &mut Database, batch: &DeltaBatch) -> (TupleGraph, TextIndex, ApplyStats) {
        let config = BanksConfig::default().graph;
        let tokenizer = Tokenizer::new();
        let old = TupleGraph::build(db, &config).unwrap();
        let mut text = TextIndex::build(db, &tokenizer);
        let (tg, stats) = apply_batch(db, &old, &mut text, batch, &config, &tokenizer).unwrap();
        (tg, text, stats)
    }

    #[test]
    fn insert_batch_matches_rebuild() {
        let mut db = schema_db();
        let batch = DeltaBatch {
            ops: vec![
                TupleOp::Insert {
                    relation: "Author".into(),
                    values: vec![Value::text("A3"), Value::text("Byron Dom")],
                },
                TupleOp::Insert {
                    relation: "Writes".into(),
                    values: vec![Value::text("W4"), Value::text("A3"), Value::text("P1")],
                },
                // CSV-style text year coerced to Int.
                TupleOp::Insert {
                    relation: "Paper".into(),
                    values: vec![
                        Value::text("P3"),
                        Value::text("Keyword Searching in Databases"),
                        Value::text("2002"),
                    ],
                },
            ],
        };
        let (tg, text, stats) = run_batch(&mut db, &batch);
        assert_eq!(stats.counts.inserted, 3);
        assert!(stats.dirty_pairs >= 4, "P1 hub neighborhood re-derived");
        assert_matches_rebuild(&db, &tg, &text);
    }

    #[test]
    fn delete_batch_matches_rebuild() {
        let mut db = schema_db();
        let batch = DeltaBatch {
            ops: vec![TupleOp::Delete {
                relation: "Writes".into(),
                key: vec![Value::text("W2")],
            }],
        };
        let (tg, text, stats) = run_batch(&mut db, &batch);
        assert_eq!(stats.counts.deleted, 1);
        assert_matches_rebuild(&db, &tg, &text);
    }

    #[test]
    fn update_repointing_fk_matches_rebuild() {
        let mut db = schema_db();
        let batch = DeltaBatch {
            ops: vec![
                TupleOp::Update {
                    relation: "Writes".into(),
                    key: vec![Value::text("W2")],
                    set: vec![("PaperId".into(), Value::text("P2"))],
                },
                TupleOp::Update {
                    relation: "Paper".into(),
                    key: vec![Value::text("P1")],
                    set: vec![("PaperName".into(), Value::text("Mining Renamed Patterns"))],
                },
            ],
        };
        let (tg, text, stats) = run_batch(&mut db, &batch);
        assert_eq!(stats.counts.updated, 2);
        assert_matches_rebuild(&db, &tg, &text);
        // The renamed title is searchable, the old one is gone.
        assert!(!text.lookup("renamed").is_empty());
        assert!(text.lookup("surprising").is_empty());
    }

    #[test]
    fn mixed_batch_including_insert_then_delete() {
        let mut db = schema_db();
        let batch = DeltaBatch {
            ops: vec![
                TupleOp::Insert {
                    relation: "Author".into(),
                    values: vec![Value::text("A9"), Value::text("Ephemeral Author")],
                },
                TupleOp::Insert {
                    relation: "Writes".into(),
                    values: vec![Value::text("W9"), Value::text("A9"), Value::text("P2")],
                },
                TupleOp::Delete {
                    relation: "Writes".into(),
                    key: vec![Value::text("W9")],
                },
                TupleOp::Delete {
                    relation: "Author".into(),
                    key: vec![Value::text("A9")],
                },
                TupleOp::Delete {
                    relation: "Writes".into(),
                    key: vec![Value::text("W1")],
                },
            ],
        };
        let (tg, text, _) = run_batch(&mut db, &batch);
        assert_matches_rebuild(&db, &tg, &text);
        assert!(text.lookup("ephemeral").is_empty());
    }

    #[test]
    fn insert_then_delete_nets_out_of_changes() {
        let mut db = schema_db();
        let batch = DeltaBatch {
            ops: vec![
                TupleOp::Insert {
                    relation: "Author".into(),
                    values: vec![Value::text("A9"), Value::text("Ephemeral")],
                },
                TupleOp::Delete {
                    relation: "Author".into(),
                    key: vec![Value::text("A9")],
                },
                TupleOp::Delete {
                    relation: "Writes".into(),
                    key: vec![Value::text("W1")],
                },
            ],
        };
        let changes = apply_to_database(&mut db, &batch, None).unwrap();
        assert!(
            changes.inserted.is_empty(),
            "in-batch insert+delete must not survive in `inserted`"
        );
        assert_eq!(changes.deleted.len(), 1, "only the pre-existing W1");
        // Op counts still reflect what was executed.
        assert_eq!(changes.counts.inserted, 1);
        assert_eq!(changes.counts.deleted, 2);
    }

    #[test]
    fn composite_fk_update_applies_as_a_unit() {
        // Schema where a two-column FK can only be repointed atomically.
        let mut db = Database::new("t");
        db.create_relation(
            RelationSchema::builder("Slot")
                .column("Room", ColumnType::Text)
                .column("Hour", ColumnType::Text)
                .column("Label", ColumnType::Text)
                .primary_key(&["Room", "Hour"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Booking")
                .column("Id", ColumnType::Text)
                .column("Room", ColumnType::Text)
                .column("Hour", ColumnType::Text)
                .primary_key(&["Id"])
                .foreign_key(&["Room", "Hour"], "Slot")
                .build()
                .unwrap(),
        )
        .unwrap();
        for (r, h, l) in [
            ("r1", "h1", "morning lecture"),
            ("r2", "h2", "evening seminar"),
        ] {
            db.insert("Slot", vec![Value::text(r), Value::text(h), Value::text(l)])
                .unwrap();
        }
        db.insert(
            "Booking",
            vec![Value::text("b"), Value::text("r1"), Value::text("h1")],
        )
        .unwrap();

        let batch = DeltaBatch {
            ops: vec![TupleOp::Update {
                relation: "Booking".into(),
                key: vec![Value::text("b")],
                set: vec![
                    ("Room".into(), Value::text("r2")),
                    ("Hour".into(), Value::text("h2")),
                ],
            }],
        };
        let (tg, text, stats) = run_batch(&mut db, &batch);
        assert_eq!(stats.counts.updated, 1);
        assert_matches_rebuild(&db, &tg, &text);

        // Duplicate columns in one update are rejected up front.
        let dup = DeltaBatch {
            ops: vec![TupleOp::Update {
                relation: "Booking".into(),
                key: vec![Value::text("b")],
                set: vec![
                    ("Room".into(), Value::text("r1")),
                    ("Room".into(), Value::text("r2")),
                ],
            }],
        };
        let config = BanksConfig::default().graph;
        let tokenizer = Tokenizer::new();
        let old = TupleGraph::build(&db, &config).unwrap();
        let mut text = TextIndex::build(&db, &tokenizer);
        assert!(matches!(
            apply_batch(&mut db, &old, &mut text, &dup, &config, &tokenizer).unwrap_err(),
            IngestError::Parse(_)
        ));
    }

    #[test]
    fn constraint_violations_are_typed_errors() {
        let config = BanksConfig::default().graph;
        let tokenizer = Tokenizer::new();

        // Dangling FK insert.
        let mut db = schema_db();
        let old = TupleGraph::build(&db, &config).unwrap();
        let mut text = TextIndex::build(&db, &tokenizer);
        let dangling = DeltaBatch {
            ops: vec![TupleOp::Insert {
                relation: "Writes".into(),
                values: vec![Value::text("W9"), Value::text("ghost"), Value::text("P1")],
            }],
        };
        assert!(matches!(
            apply_batch(&mut db, &old, &mut text, &dangling, &config, &tokenizer).unwrap_err(),
            IngestError::Storage(StorageError::ForeignKeyViolation { .. })
        ));

        // RESTRICT delete of a referenced paper.
        let mut db = schema_db();
        let old = TupleGraph::build(&db, &config).unwrap();
        let mut text = TextIndex::build(&db, &tokenizer);
        let restricted = DeltaBatch {
            ops: vec![TupleOp::Delete {
                relation: "Paper".into(),
                key: vec![Value::text("P1")],
            }],
        };
        assert!(matches!(
            apply_batch(&mut db, &old, &mut text, &restricted, &config, &tokenizer).unwrap_err(),
            IngestError::Storage(StorageError::ForeignKeyViolation { .. })
        ));

        // Unknown relation / missing key / unknown column.
        for batch in [
            DeltaBatch {
                ops: vec![TupleOp::Insert {
                    relation: "Nope".into(),
                    values: vec![],
                }],
            },
            DeltaBatch {
                ops: vec![TupleOp::Delete {
                    relation: "Author".into(),
                    key: vec![Value::text("missing")],
                }],
            },
            DeltaBatch {
                ops: vec![TupleOp::Update {
                    relation: "Author".into(),
                    key: vec![Value::text("A1")],
                    set: vec![("Nope".into(), Value::Null)],
                }],
            },
        ] {
            let mut db = schema_db();
            let old = TupleGraph::build(&db, &config).unwrap();
            let mut text = TextIndex::build(&db, &tokenizer);
            assert!(matches!(
                apply_batch(&mut db, &old, &mut text, &batch, &config, &tokenizer).unwrap_err(),
                IngestError::Storage(_)
            ));
        }
    }

    #[test]
    fn authority_transfer_config_is_unsupported() {
        let mut db = schema_db();
        let mut config = BanksConfig::default().graph;
        config.node_weight = NodeWeightMode::AuthorityTransfer {
            iterations: 3,
            damping: 0.85,
        };
        let old = TupleGraph::build(&db, &config).unwrap();
        let mut text = TextIndex::build(&db, &Tokenizer::new());
        let batch = DeltaBatch {
            ops: vec![TupleOp::Delete {
                relation: "Writes".into(),
                key: vec![Value::text("W1")],
            }],
        };
        let err =
            apply_batch(&mut db, &old, &mut text, &batch, &config, &Tokenizer::new()).unwrap_err();
        assert!(matches!(err, IngestError::Unsupported(_)));
        // Nothing was applied: the check precedes mutation.
        assert_eq!(db.total_tuples(), 7);
    }
}
