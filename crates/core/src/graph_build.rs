//! Building the BANKS data graph from a relational database (§2.2).
//!
//! * one node per tuple, with prestige weight (indegree by default);
//! * for each foreign-key link `r → t` (tuple `r` references tuple `t`):
//!   - a **forward** edge `(r, t)` with weight `s(R(r), R(t))` — the link
//!     type's similarity, default 1;
//!   - a **backward** edge `(t, r)` with weight
//!     `s(R(r), R(t)) · IN_{R(r)}(t)`, where `IN_{R(r)}(t)` is the number
//!     of tuples of `r`'s relation referencing `t`. This is the paper's
//!     hub-damping: a department with many students yields heavy backward
//!     edges, lowering the spurious proximity between its students.
//! * when both directions receive a contribution for the same ordered node
//!   pair, the minimum wins (equation 1; [`banks_graph::GraphBuilder`]
//!   coalesces duplicates by minimum).
//!
//! Each link is resolved exactly once, when its tuple is inserted:
//! [`Database::insert`] (or, for a cold bundle write, the staged-row
//! arena of `banks_storage::arena`) probes the key against the target's
//! primary-key index and records the link under its target. The build
//! does not resolve any key again. [`derive_graph`] walks the links
//! target by target, which yields every link `r → t` of `t` together, so
//! `IN_{R(r)}(t)` is one count per target rather than a rescan of `t`'s
//! list per link. Nodes keep their scan order, and the builder's sort
//! and min-coalescing make the graph independent of the order edges are
//! added in.

use crate::config::{GraphConfig, NodeWeightMode};
use crate::prestige;
use banks_graph::{Graph, GraphBuilder, NodeId};
use banks_storage::{BackRef, Database, Rid, StorageResult};
use banks_util::fxhash::FxHashMap;

/// The BANKS data graph plus the bijection between graph nodes and tuples.
#[derive(Debug, Clone)]
pub struct TupleGraph {
    graph: Graph,
    node_rids: Vec<Rid>,
    rid_nodes: FxHashMap<Rid, NodeId>,
    /// `relation_of[node]` = relation id of the node's tuple, kept dense
    /// for fast root-exclusion checks during search.
    relation_of: Vec<u32>,
}

impl TupleGraph {
    /// One node per tuple, in deterministic relations-scan order. This
    /// ordering is the contract that lets [`TupleGraph::rebind`] attach
    /// a snapshot graph to a freshly loaded database: both paths derive
    /// their maps from this single function.
    ///
    /// Walks liveness only (`live_slots`), never tuple values — on a
    /// lazily-opened database this costs zero block decodes, which is
    /// what keeps a paged bundle open independent of tuple count.
    fn rid_maps(db: &Database) -> (Vec<Rid>, FxHashMap<Rid, NodeId>, Vec<u32>) {
        let n = db.total_tuples();
        let mut node_rids = Vec::with_capacity(n);
        let mut rid_nodes = FxHashMap::default();
        rid_nodes.reserve(n);
        let mut relation_of = Vec::with_capacity(n);
        for table in db.relations() {
            let id = table.id();
            for slot in table.live_slots() {
                let rid = Rid::new(id, slot);
                let node = NodeId(node_rids.len() as u32);
                node_rids.push(rid);
                rid_nodes.insert(rid, node);
                relation_of.push(rid.relation.0);
            }
        }
        (node_rids, rid_nodes, relation_of)
    }

    /// Build the data graph for `db` under `config`: its tuples, with
    /// each target's reverse references ([`Database::referencing`]) fed
    /// to [`derive_graph`].
    pub fn build(db: &Database, config: &GraphConfig) -> StorageResult<TupleGraph> {
        let (node_rids, rid_nodes, relation_of) = Self::rid_maps(db);
        let graph = derive_graph(
            db,
            node_rids.len(),
            db.link_count(),
            node_rids.iter().map(|&rid| db.referencing(rid)),
            |rid| rid_nodes[&rid],
            config,
        );
        Ok(TupleGraph {
            graph,
            node_rids,
            rid_nodes,
            relation_of,
        })
    }

    /// Re-attach a pre-materialized graph (e.g. decoded from a
    /// `banks-persist` snapshot bundle) to its database.
    ///
    /// Node order is the deterministic scan order `build` uses, so only
    /// the rid maps need rebuilding — the expensive part of `build`
    /// (foreign-key edge derivation and weighting) is skipped entirely.
    /// Fails with the typed [`StorageError::SnapshotMismatch`] if the
    /// graph's node count doesn't match the tuple count; a mismatch the
    /// count can't see (an edited database with equal cardinality but a
    /// different per-relation layout) is caught by
    /// `TupleGraph::verify_catalog`, which [`crate::Banks::with_graph`]
    /// runs on every attach.
    ///
    /// [`StorageError::SnapshotMismatch`]: banks_storage::StorageError::SnapshotMismatch
    pub fn rebind(db: &Database, graph: Graph) -> StorageResult<TupleGraph> {
        let n = db.total_tuples();
        if graph.node_count() != n {
            return Err(banks_storage::StorageError::SnapshotMismatch {
                expected: format!("{} nodes", graph.node_count()),
                actual: format!("{n} tuples"),
            });
        }
        let (node_rids, rid_nodes, relation_of) = Self::rid_maps(db);
        Ok(TupleGraph {
            graph,
            node_rids,
            rid_nodes,
            relation_of,
        })
    }

    /// Verify that this tuple graph actually describes `db`: same total
    /// node count, same relation catalog width, same per-relation tuple
    /// counts, and every node's rid resolving to a live tuple of the
    /// expected relation. O(n) over liveness bitmaps — no tuple decodes
    /// on a lazy database — cheap next to an index build, and the
    /// check that stops a same-cardinality-but-different-database
    /// snapshot from being silently accepted.
    pub(crate) fn verify_catalog(&self, db: &Database) -> StorageResult<()> {
        use banks_storage::StorageError;
        if self.node_count() != db.total_tuples() {
            return Err(StorageError::SnapshotMismatch {
                expected: format!("{} nodes", self.node_count()),
                actual: format!("{} tuples", db.total_tuples()),
            });
        }
        let relations = db.relation_count();
        let mut per_relation = vec![0usize; relations];
        for &rid in &self.node_rids {
            if rid.relation.index() >= relations {
                return Err(StorageError::SnapshotMismatch {
                    expected: format!("a relation #{}", rid.relation.0),
                    actual: format!("{relations} relations"),
                });
            }
            per_relation[rid.relation.index()] += 1;
            if !db.is_live(rid) {
                return Err(StorageError::SnapshotMismatch {
                    expected: format!("live tuple {rid}"),
                    actual: "no such tuple".to_string(),
                });
            }
        }
        for table in db.relations() {
            let counted = per_relation[table.id().index()];
            if counted != table.len() {
                return Err(StorageError::SnapshotMismatch {
                    expected: format!("{} `{}` tuples", counted, table.schema().name),
                    actual: format!("{}", table.len()),
                });
            }
        }
        Ok(())
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The tuple behind a node.
    pub fn rid(&self, node: NodeId) -> Rid {
        self.node_rids[node.index()]
    }

    /// The node for a tuple, if it was present at build time.
    pub fn node(&self, rid: Rid) -> Option<NodeId> {
        self.rid_nodes.get(&rid).copied()
    }

    /// Relation id of the tuple behind `node` (raw u32 form).
    pub(crate) fn relation_of(&self, node: NodeId) -> u32 {
        self.relation_of[node.index()]
    }

    /// Number of nodes (== tuples at build time).
    pub fn node_count(&self) -> usize {
        self.node_rids.len()
    }

    /// Approximate heap footprint: graph arrays plus the rid maps. This is
    /// the figure comparable to the paper's §5.2 "120 MB" measurement.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.graph.memory_bytes()
            + self.node_rids.capacity() * size_of::<Rid>()
            + self.relation_of.capacity() * size_of::<u32>()
            // HashMap entries: key + value + ~1 byte control overhead each.
            + self.rid_nodes.capacity() * (size_of::<(Rid, NodeId)>() + 1)
    }
}

/// The §2.2 derivation: the data graph from every tuple's reverse
/// references. The one copy of the node-prestige and edge-weight rules,
/// shared by [`TupleGraph::build`] (references from the database) and
/// the staged-corpus bundle writer (references sorted by target).
///
/// `refs` yields one list per graph node, in node order: the references
/// to that node's tuple, each naming the referencing tuple and foreign
/// key of `catalog`'s relations. `node_of` maps a referencing tuple to
/// its node. Nodes keep that order, and the builder's sort and
/// min-coalescing make the graph independent of the order edges are
/// added in.
pub fn derive_graph(
    catalog: &Database,
    node_count: usize,
    link_count: usize,
    refs: impl Iterator<Item = impl AsRef<[BackRef]>>,
    node_of: impl Fn(Rid) -> NodeId,
    config: &GraphConfig,
) -> Graph {
    let mut builder = GraphBuilder::with_capacity(node_count, link_count * 2);
    let uniform = matches!(config.node_weight, NodeWeightMode::Uniform);
    for _ in 0..node_count {
        builder.add_node(if uniform { 1.0 } else { 0.0 });
    }
    // `similarity[r][i]`: foreign key `i` of relation `r`.
    let similarity: Vec<Vec<f64>> = catalog
        .relations()
        .map(|table| {
            table
                .schema()
                .foreign_keys
                .iter()
                .map(|fk| fk.similarity.unwrap_or(config.default_similarity))
                .collect()
        })
        .collect();
    // Authority transfer starts from indegree and pushes prestige along
    // the link direction: `(indegree, out_links)` per node.
    let mut transfer: Option<(Vec<f64>, Vec<Vec<u32>>)> =
        matches!(config.node_weight, NodeWeightMode::AuthorityTransfer { .. })
            .then(|| (vec![0.0; node_count], vec![Vec::new(); node_count]));
    // `fanin[r]` = IN_r(t) for the current target `t`.
    let mut fanin = vec![0usize; catalog.relation_count()];
    for (to, refs) in refs.enumerate() {
        let refs = refs.as_ref();
        let to = NodeId(to as u32);
        if !uniform {
            builder.set_node_weight(to, refs.len() as f64);
        }
        if let Some((base, _)) = &mut transfer {
            base[to.index()] = refs.len() as f64;
        }
        if config.indegree_backward_weights {
            for r in refs {
                fanin[r.from.relation.index()] += 1;
            }
        }
        for r in refs {
            let relation = r.from.relation.index();
            let from = node_of(r.from);
            let sim = similarity[relation][r.fk_index];
            // Forward edge r → t.
            builder.add_edge(from, to, sim);
            // Backward edge t → r, indegree-scaled per eq. (1).
            let back = if config.indegree_backward_weights {
                sim * fanin[relation].max(1) as f64
            } else {
                sim
            };
            builder.add_edge(to, from, back);
            if let Some((_, out_links)) = &mut transfer {
                out_links[from.index()].push(to.0);
            }
        }
        if config.indegree_backward_weights {
            for r in refs {
                fanin[r.from.relation.index()] = 0;
            }
        }
    }

    if let (
        NodeWeightMode::AuthorityTransfer {
            iterations,
            damping,
        },
        Some((base, out_links)),
    ) = (config.node_weight, transfer)
    {
        let weights = prestige::transfer(base, &out_links, iterations, damping);
        for (node_idx, w) in weights.into_iter().enumerate() {
            builder.set_node_weight(NodeId(node_idx as u32), w);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_storage::{ColumnType, RelationSchema, Value};

    /// A university-style DB exhibiting the hub phenomenon of §2.1: one
    /// department with many students, one with few.
    fn university(big: usize, small: usize) -> Database {
        let mut db = Database::new("uni");
        db.create_relation(
            RelationSchema::builder("Dept")
                .column("Id", ColumnType::Text)
                .column("Name", ColumnType::Text)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Student")
                .column("Id", ColumnType::Text)
                .column("Dept", ColumnType::Text)
                .primary_key(&["Id"])
                .foreign_key(&["Dept"], "Dept")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert("Dept", vec![Value::text("big"), Value::text("Big Dept")])
            .unwrap();
        db.insert(
            "Dept",
            vec![Value::text("small"), Value::text("Small Dept")],
        )
        .unwrap();
        for i in 0..big {
            db.insert(
                "Student",
                vec![Value::text(format!("b{i}")), Value::text("big")],
            )
            .unwrap();
        }
        for i in 0..small {
            db.insert(
                "Student",
                vec![Value::text(format!("s{i}")), Value::text("small")],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn node_and_edge_counts() {
        let db = university(5, 2);
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        assert_eq!(tg.node_count(), 9);
        // 7 links → 14 directed edges.
        assert_eq!(tg.graph().edge_count(), 14);
    }

    #[test]
    fn rid_node_bijection() {
        let db = university(3, 1);
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        for table in db.relations() {
            for (rid, _) in table.scan() {
                let node = tg.node(rid).unwrap();
                assert_eq!(tg.rid(node), rid);
                assert_eq!(tg.relation_of(node), rid.relation.0);
            }
        }
    }

    #[test]
    fn forward_weight_is_similarity_backward_scales_with_fanin() {
        let db = university(5, 2);
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        let g = tg.graph();
        let big = db
            .relation("Dept")
            .unwrap()
            .lookup_pk(&[Value::text("big")])
            .unwrap();
        let small = db
            .relation("Dept")
            .unwrap()
            .lookup_pk(&[Value::text("small")])
            .unwrap();
        let b0 = db
            .relation("Student")
            .unwrap()
            .lookup_pk(&[Value::text("b0")])
            .unwrap();
        let s0 = db
            .relation("Student")
            .unwrap()
            .lookup_pk(&[Value::text("s0")])
            .unwrap();
        let (n_big, n_small) = (tg.node(big).unwrap(), tg.node(small).unwrap());
        let (n_b0, n_s0) = (tg.node(b0).unwrap(), tg.node(s0).unwrap());
        // Forward: student → dept at similarity 1.
        assert_eq!(g.edge_weight(n_b0, n_big), Some(1.0));
        // Backward: dept → student scaled by dept's student fan-in.
        assert_eq!(g.edge_weight(n_big, n_b0), Some(5.0));
        assert_eq!(g.edge_weight(n_small, n_s0), Some(2.0));
    }

    #[test]
    fn node_prestige_is_indegree() {
        let db = university(5, 2);
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        let big = db
            .relation("Dept")
            .unwrap()
            .lookup_pk(&[Value::text("big")])
            .unwrap();
        let b0 = db
            .relation("Student")
            .unwrap()
            .lookup_pk(&[Value::text("b0")])
            .unwrap();
        assert_eq!(tg.graph().node_weight(tg.node(big).unwrap()), 5.0);
        assert_eq!(tg.graph().node_weight(tg.node(b0).unwrap()), 0.0);
    }

    #[test]
    fn uniform_mode_flattens_prestige() {
        let db = university(5, 2);
        let cfg = GraphConfig {
            node_weight: NodeWeightMode::Uniform,
            ..GraphConfig::default()
        };
        let tg = TupleGraph::build(&db, &cfg).unwrap();
        for node in tg.graph().nodes() {
            assert_eq!(tg.graph().node_weight(node), 1.0);
        }
    }

    #[test]
    fn symmetric_ablation_drops_indegree_scaling() {
        let db = university(5, 2);
        let cfg = GraphConfig {
            indegree_backward_weights: false,
            ..GraphConfig::default()
        };
        let tg = TupleGraph::build(&db, &cfg).unwrap();
        let big = db
            .relation("Dept")
            .unwrap()
            .lookup_pk(&[Value::text("big")])
            .unwrap();
        let b0 = db
            .relation("Student")
            .unwrap()
            .lookup_pk(&[Value::text("b0")])
            .unwrap();
        let g = tg.graph();
        assert_eq!(
            g.edge_weight(tg.node(big).unwrap(), tg.node(b0).unwrap()),
            Some(1.0)
        );
    }

    #[test]
    fn per_fk_similarity_respected() {
        // Cites-style relation with explicit similarity 2.0.
        let mut db = Database::new("bib");
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("Id", ColumnType::Text)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Cites")
                .column("Citing", ColumnType::Text)
                .column("Cited", ColumnType::Text)
                .primary_key(&["Citing", "Cited"])
                .foreign_key_with_similarity(&["Citing"], "Paper", 2.0)
                .foreign_key_with_similarity(&["Cited"], "Paper", 2.0)
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert("Paper", vec![Value::text("a")]).unwrap();
        db.insert("Paper", vec![Value::text("b")]).unwrap();
        let c = db
            .insert("Cites", vec![Value::text("a"), Value::text("b")])
            .unwrap();
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        let a = db
            .relation("Paper")
            .unwrap()
            .lookup_pk(&[Value::text("a")])
            .unwrap();
        let g = tg.graph();
        assert_eq!(
            g.edge_weight(tg.node(c).unwrap(), tg.node(a).unwrap()),
            Some(2.0)
        );
        // backward: paper a ← cites c, fan-in 1 → 2.0 × 1.
        assert_eq!(
            g.edge_weight(tg.node(a).unwrap(), tg.node(c).unwrap()),
            Some(2.0)
        );
    }

    #[test]
    fn memory_accounting_positive() {
        let db = university(10, 3);
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        assert!(tg.memory_bytes() > 0);
    }
}
