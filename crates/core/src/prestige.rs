//! Node prestige beyond plain indegree: authority transfer (§7).
//!
//! The paper sets prestige to indegree but notes "Extensions to handle
//! transfer of prestige (as is done, e.g., in Google's PageRank) can be
//! easily added to the model" (§2.2) and lists authority transfer as
//! ongoing work (§7: "wherein nodes pointed to by heavy nodes … become
//! heavier"). This module implements that extension as a damped power
//! iteration over the *database link* direction: each tuple pushes a
//! `damping` fraction of its prestige to the tuples it references, split
//! evenly, on top of a base share of its indegree.

use banks_graph::{FxHashMap, NodeId};
use banks_storage::{Database, Rid};

/// Compute authority-transfer prestige for every node.
///
/// `rid_nodes` supplies the tuple→node mapping being used by the graph
/// builder; the returned vector is indexed by node id.
pub fn authority_transfer(
    db: &Database,
    rid_nodes: &FxHashMap<Rid, NodeId>,
    iterations: usize,
    damping: f64,
) -> Vec<f64> {
    let n = rid_nodes.len();
    // Base prestige: indegree (normalized later by the scorer, so raw
    // scale is fine).
    let mut base = vec![0.0f64; n];
    // Outgoing links per node, in node-id space.
    let mut out_links: Vec<Vec<u32>> = vec![Vec::new(); n];
    for table in db.relations() {
        let fk_count = table.schema().foreign_keys.len();
        for (rid, _) in table.scan() {
            let Some(&node) = rid_nodes.get(&rid) else {
                continue;
            };
            base[node.index()] = db.indegree(rid) as f64;
            for fk in 0..fk_count {
                if let Ok(Some(target)) = db.resolve_fk(rid, fk) {
                    if let Some(&t) = rid_nodes.get(&target) {
                        out_links[node.index()].push(t.0);
                    }
                }
            }
        }
    }

    transfer(base, &out_links, iterations, damping)
}

/// The damped power iteration itself: `base` is each node's indegree,
/// `out_links[i]` the nodes `i` references (one entry per link). Each
/// node's additions arrive in node order, so the result does not depend
/// on the order within an `out_links` list.
pub fn transfer(
    base: Vec<f64>,
    out_links: &[Vec<u32>],
    iterations: usize,
    damping: f64,
) -> Vec<f64> {
    let n = base.len();
    let mut weights = base.clone();
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        for slot in next.iter_mut() {
            *slot = 0.0;
        }
        for (i, targets) in out_links.iter().enumerate() {
            if targets.is_empty() {
                continue;
            }
            let share = damping * weights[i] / targets.len() as f64;
            for &t in targets {
                next[t as usize] += share;
            }
        }
        for i in 0..n {
            next[i] += (1.0 - damping) * base[i];
        }
        std::mem::swap(&mut weights, &mut next);
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_storage::{ColumnType, RelationSchema, Value};

    /// paper chain: c1 cites p, c2 cites p; p cites q (via a Cites table
    /// modeled directly with nullable self FK for simplicity).
    fn citation_db() -> (Database, Vec<Rid>) {
        let mut db = Database::new("c");
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("Id", ColumnType::Text)
                .nullable_column("Cites", ColumnType::Text)
                .primary_key(&["Id"])
                .nullable_foreign_key(&["Cites"], "Paper")
                .build()
                .unwrap(),
        )
        .unwrap();
        let q = db
            .insert("Paper", vec![Value::text("q"), Value::Null])
            .unwrap();
        let p = db
            .insert("Paper", vec![Value::text("p"), Value::text("q")])
            .unwrap();
        let c1 = db
            .insert("Paper", vec![Value::text("c1"), Value::text("p")])
            .unwrap();
        let c2 = db
            .insert("Paper", vec![Value::text("c2"), Value::text("p")])
            .unwrap();
        (db, vec![q, p, c1, c2])
    }

    fn node_map(rids: &[Rid]) -> FxHashMap<Rid, NodeId> {
        rids.iter()
            .enumerate()
            .map(|(i, &r)| (r, NodeId(i as u32)))
            .collect()
    }

    #[test]
    fn zero_iterations_is_indegree() {
        let (db, rids) = citation_db();
        let w = authority_transfer(&db, &node_map(&rids), 0, 0.5);
        assert_eq!(w, vec![1.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn transfer_flows_to_referenced_papers() {
        let (db, rids) = citation_db();
        let w = authority_transfer(&db, &node_map(&rids), 5, 0.5);
        // q is cited by the well-cited p: its prestige must now exceed its
        // raw indegree share, and p stays the heaviest.
        assert!(w[0] > 0.5, "q received transferred prestige: {w:?}");
        assert!(w[1] >= w[0]);
        assert!(w[2] < w[0] && w[3] < w[0], "leaf citers stay light");
    }

    #[test]
    fn damping_zero_reduces_to_scaled_indegree() {
        let (db, rids) = citation_db();
        let w = authority_transfer(&db, &node_map(&rids), 3, 0.0);
        assert_eq!(w, vec![1.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn weights_stay_finite_and_nonnegative() {
        let (db, rids) = citation_db();
        let w = authority_transfer(&db, &node_map(&rids), 50, 0.9);
        for v in w {
            assert!(v.is_finite() && v >= 0.0);
        }
    }
}
