//! Answer summarization (§7): "group the output tuples into sets that have
//! the same tree structure, and allow the user to look for further answers
//! with a particular tree structure."
//!
//! Two answers share a group when their trees have the same *schema-level
//! shape*: the rooted tree obtained by replacing every tuple node with its
//! relation. E.g. all `Paper(Writes→Author, Writes→Author)` co-authorship
//! answers group together regardless of which paper and authors they bind.

use crate::answer::Answer;
use crate::graph_build::TupleGraph;
use banks_storage::Database;
use std::collections::HashMap;

/// A group of answers sharing one schema-level tree shape.
#[derive(Debug, Clone)]
pub struct AnswerGroup {
    /// Raw shape key (relation ids), stable across runs for one database.
    pub shape: String,
    /// Human-readable shape using relation names.
    pub label: String,
    /// Members, in their original rank order.
    pub answers: Vec<Answer>,
    /// Best (maximum) relevance among members.
    pub best_relevance: f64,
}

/// Group `answers` by tree shape, ordered by best member relevance.
pub(crate) fn summarize(
    db: &Database,
    tuple_graph: &TupleGraph,
    answers: &[Answer],
) -> Vec<AnswerGroup> {
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, AnswerGroup> = HashMap::new();
    for answer in answers {
        let shape = answer.tree.shape_signature(tuple_graph);
        let group = groups.entry(shape.clone()).or_insert_with(|| {
            order.push(shape.clone());
            AnswerGroup {
                label: label_shape(db, &shape),
                shape,
                answers: Vec::new(),
                best_relevance: f64::NEG_INFINITY,
            }
        });
        group.best_relevance = group.best_relevance.max(answer.relevance);
        group.answers.push(answer.clone());
    }
    let mut out: Vec<AnswerGroup> = order
        .into_iter()
        .map(|s| groups.remove(&s).unwrap())
        .collect();
    out.sort_by(|a, b| b.best_relevance.total_cmp(&a.best_relevance));
    out
}

/// Replace `R<id>` tokens in a shape signature with relation names.
fn label_shape(db: &Database, shape: &str) -> String {
    let mut out = String::with_capacity(shape.len());
    let mut chars = shape.chars().peekable();
    while let Some(c) = chars.next() {
        if c == 'R' && chars.peek().is_some_and(|d| d.is_ascii_digit()) {
            let mut num = String::new();
            while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                num.push(chars.next().unwrap());
            }
            let id: u32 = num.parse().unwrap();
            let name = db
                .relations()
                .nth(id as usize)
                .map(|t| t.schema().name.clone())
                .unwrap_or_else(|| format!("R{id}"));
            out.push_str(&name);
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::ConnectionTree;
    use crate::config::GraphConfig;
    use banks_graph::NodeId;
    use banks_storage::{ColumnType, RelationSchema, Value};

    fn fixture() -> (Database, TupleGraph) {
        let mut db = Database::new("d");
        db.create_relation(
            RelationSchema::builder("Author")
                .column("Id", ColumnType::Text)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("Id", ColumnType::Text)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Writes")
                .column("A", ColumnType::Text)
                .column("P", ColumnType::Text)
                .primary_key(&["A", "P"])
                .foreign_key(&["A"], "Author")
                .foreign_key(&["P"], "Paper")
                .build()
                .unwrap(),
        )
        .unwrap();
        for a in ["a1", "a2"] {
            db.insert("Author", vec![Value::text(a)]).unwrap();
        }
        for p in ["p1", "p2"] {
            db.insert("Paper", vec![Value::text(p)]).unwrap();
        }
        for (a, p) in [("a1", "p1"), ("a2", "p1"), ("a1", "p2"), ("a2", "p2")] {
            db.insert("Writes", vec![Value::text(a), Value::text(p)])
                .unwrap();
        }
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        (db, tg)
    }

    fn paper_tree(db: &Database, tg: &TupleGraph, p: &str, rel: f64) -> Answer {
        let paper = tg
            .node(
                db.relation("Paper")
                    .unwrap()
                    .lookup_pk(&[Value::text(p)])
                    .unwrap(),
            )
            .unwrap();
        let w1 = tg
            .node(
                db.relation("Writes")
                    .unwrap()
                    .lookup_pk(&[Value::text("a1"), Value::text(p)])
                    .unwrap(),
            )
            .unwrap();
        let w2 = tg
            .node(
                db.relation("Writes")
                    .unwrap()
                    .lookup_pk(&[Value::text("a2"), Value::text(p)])
                    .unwrap(),
            )
            .unwrap();
        let a1 = tg
            .node(
                db.relation("Author")
                    .unwrap()
                    .lookup_pk(&[Value::text("a1")])
                    .unwrap(),
            )
            .unwrap();
        let a2 = tg
            .node(
                db.relation("Author")
                    .unwrap()
                    .lookup_pk(&[Value::text("a2")])
                    .unwrap(),
            )
            .unwrap();
        let tree = ConnectionTree::new(
            paper,
            vec![a1, a2],
            vec![
                (paper, w1, 1.0),
                (w1, a1, 1.0),
                (paper, w2, 1.0),
                (w2, a2, 1.0),
            ],
        );
        Answer {
            tree,
            relevance: rel,
        }
    }

    fn single_node(_tg: &TupleGraph, node: NodeId, rel: f64) -> Answer {
        Answer {
            tree: ConnectionTree::new(node, vec![node], vec![]),
            relevance: rel,
        }
    }

    #[test]
    fn same_shape_groups_together() {
        let (db, tg) = fixture();
        let answers = vec![
            paper_tree(&db, &tg, "p1", 0.9),
            paper_tree(&db, &tg, "p2", 0.7),
            single_node(&tg, NodeId(0), 0.5),
        ];
        let groups = summarize(&db, &tg, &answers);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].answers.len(), 2, "both co-authorship trees");
        assert_eq!(groups[0].best_relevance, 0.9);
        assert_eq!(groups[1].answers.len(), 1);
    }

    #[test]
    fn labels_use_relation_names() {
        let (db, tg) = fixture();
        let groups = summarize(&db, &tg, &[paper_tree(&db, &tg, "p1", 0.9)]);
        assert_eq!(groups[0].label, "Paper(Writes(Author),Writes(Author))");
    }

    #[test]
    fn groups_sorted_by_best_relevance() {
        let (db, tg) = fixture();
        let answers = vec![
            single_node(&tg, NodeId(0), 0.95),
            paper_tree(&db, &tg, "p1", 0.9),
            paper_tree(&db, &tg, "p2", 0.99),
        ];
        let groups = summarize(&db, &tg, &answers);
        assert_eq!(groups[0].best_relevance, 0.99);
        assert_eq!(groups[1].best_relevance, 0.95);
    }

    #[test]
    fn empty_input_empty_output() {
        let (db, tg) = fixture();
        assert!(summarize(&db, &tg, &[]).is_empty());
    }
}
