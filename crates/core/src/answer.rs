//! Query answers: rooted directed connection trees (§2.1/§2.3).
//!
//! An answer is "a rooted directed tree containing a directed path from the
//! root to each keyword node"; the root is the *information node*. The
//! tree may contain intermediate (Steiner) nodes that match no keyword.
//!
//! Duplicate answers — "isomorphic modulo direction; that is, their
//! undirected versions are same" (§3) — are identified by a canonical
//! [`ConnectionTree::signature`] built from the undirected edge set.

use crate::graph_build::TupleGraph;
use banks_graph::NodeId;
use banks_storage::Database;
use std::collections::BTreeMap;

/// A rooted connection tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionTree {
    /// The information node.
    pub root: NodeId,
    /// Directed edges `(from, to, weight)`, each oriented as it exists in
    /// the graph, forming root→leaf paths. Sorted and deduplicated: paths
    /// to different keyword nodes may share a prefix.
    pub edges: Vec<(NodeId, NodeId, f64)>,
    /// For each query term (in term order), the keyword node the tree
    /// connects for that term. A node may serve several terms.
    pub keyword_nodes: Vec<NodeId>,
    /// Total edge weight (each distinct edge counted once) — the tree
    /// weight of §2.1.
    pub weight: f64,
}

impl ConnectionTree {
    /// Construct a tree from a root, per-term keyword nodes, and the union
    /// of root→keyword path edges. Edges are deduplicated and the weight
    /// recomputed here so callers can pass raw path unions.
    pub fn new(
        root: NodeId,
        keyword_nodes: Vec<NodeId>,
        mut edges: Vec<(NodeId, NodeId, f64)>,
    ) -> ConnectionTree {
        edges.sort_unstable_by_key(|a| (a.0, a.1));
        edges.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        let weight = edges.iter().map(|e| e.2).sum();
        ConnectionTree {
            root,
            edges,
            keyword_nodes,
            weight,
        }
    }

    /// All distinct nodes of the tree (root, keyword nodes, Steiner nodes).
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes = vec![self.root];
        nodes.extend(self.keyword_nodes.iter().copied());
        for &(f, t, _) in &self.edges {
            nodes.push(f);
            nodes.push(t);
        }
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Number of distinct children of the root: the §3 rule discards trees
    /// whose root has exactly one child ("the tree formed by removing the
    /// root node would also have been generated, and would be a better
    /// answer").
    pub(crate) fn root_child_count(&self) -> usize {
        let mut children: Vec<NodeId> = self
            .edges
            .iter()
            .filter(|e| e.0 == self.root)
            .map(|e| e.1)
            .collect();
        children.sort_unstable();
        children.dedup();
        children.len()
    }

    /// Canonical signature for duplicate detection: the sorted undirected
    /// edge set, or the node set for edgeless trees. "We considered
    /// answers to be the same if their trees were the same, even if the
    /// roots were different" (§5.3).
    pub fn signature(&self) -> TreeSignature {
        if self.edges.is_empty() {
            return TreeSignature::Nodes(self.nodes().iter().map(|n| n.0).collect());
        }
        let mut undirected: Vec<(u32, u32)> = self
            .edges
            .iter()
            .map(|&(f, t, _)| (f.0.min(t.0), f.0.max(t.0)))
            .collect();
        undirected.sort_unstable();
        undirected.dedup();
        TreeSignature::Edges(undirected)
    }

    /// Schema-level shape signature, used by answer summarization (§7:
    /// "group the output tuples into sets that have the same tree
    /// structure"): the tree with every node replaced by its relation.
    pub(crate) fn shape_signature(&self, tuple_graph: &TupleGraph) -> String {
        fn render(
            node: NodeId,
            children: &BTreeMap<u32, Vec<NodeId>>,
            tg: &TupleGraph,
            out: &mut String,
        ) {
            out.push_str(&format!("R{}", tg.relation_of(node)));
            if let Some(kids) = children.get(&node.0) {
                let mut parts: Vec<String> = kids
                    .iter()
                    .map(|k| {
                        let mut s = String::new();
                        render(*k, children, tg, &mut s);
                        s
                    })
                    .collect();
                parts.sort();
                out.push('(');
                out.push_str(&parts.join(","));
                out.push(')');
            }
        }
        let mut children: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
        for &(f, t, _) in &self.edges {
            children.entry(f.0).or_default().push(t);
        }
        let mut out = String::new();
        render(self.root, &children, tuple_graph, &mut out);
        out
    }

    /// Render the tree as indented text in the style of the paper's
    /// Figure 2: one line per node showing relation and attributes, with
    /// keyword nodes marked `*`.
    pub(crate) fn render(&self, db: &Database, tuple_graph: &TupleGraph) -> String {
        let mut children: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
        for &(f, t, _) in &self.edges {
            children.entry(f.0).or_default().push(t);
        }
        for kids in children.values_mut() {
            kids.sort_unstable();
            kids.dedup();
        }
        let mut out = String::new();
        let mut visited: Vec<u32> = Vec::new();
        self.render_node(
            self.root,
            &children,
            db,
            tuple_graph,
            0,
            &mut visited,
            &mut out,
        );
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn render_node(
        &self,
        node: NodeId,
        children: &BTreeMap<u32, Vec<NodeId>>,
        db: &Database,
        tuple_graph: &TupleGraph,
        depth: usize,
        visited: &mut Vec<u32>,
        out: &mut String,
    ) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        if self.keyword_nodes.contains(&node) {
            out.push('*');
        }
        let rid = tuple_graph.rid(node);
        match db.describe_tuple(rid) {
            Ok(desc) => out.push_str(&desc),
            Err(_) => out.push_str(&rid.to_string()),
        }
        if visited.contains(&node.0) {
            out.push_str(" (…)\n");
            return;
        }
        visited.push(node.0);
        out.push('\n');
        if let Some(kids) = children.get(&node.0) {
            for &kid in kids {
                self.render_node(kid, children, db, tuple_graph, depth + 1, visited, out);
            }
        }
    }
}

/// Canonical duplicate-detection key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TreeSignature {
    /// Undirected edge set (non-degenerate trees).
    Edges(Vec<(u32, u32)>),
    /// Node set (single-node trees).
    Nodes(Vec<u32>),
}

/// A scored answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The connection tree.
    pub tree: ConnectionTree,
    /// Overall relevance in `[0,1]`, per §2.3.
    pub relevance: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn dedup_and_weight() {
        let t = ConnectionTree::new(
            n(0),
            vec![n(2), n(3)],
            vec![
                (n(0), n(1), 1.0),
                (n(1), n(2), 2.0),
                (n(0), n(1), 1.0), // shared prefix duplicated by two paths
                (n(1), n(3), 4.0),
            ],
        );
        assert_eq!(t.edges.len(), 3);
        assert_eq!(t.weight, 7.0);
        assert_eq!(t.nodes(), vec![n(0), n(1), n(2), n(3)]);
        assert_eq!(t.root_child_count(), 1);
    }

    #[test]
    fn signature_ignores_direction_and_root() {
        let a = ConnectionTree::new(
            n(0),
            vec![n(1), n(2)],
            vec![(n(0), n(1), 1.0), (n(0), n(2), 1.0)],
        );
        // Same undirected structure rooted elsewhere with flipped edges.
        let b = ConnectionTree::new(
            n(1),
            vec![n(1), n(2)],
            vec![(n(1), n(0), 3.0), (n(0), n(2), 1.0)],
        );
        assert_eq!(a.signature(), b.signature());
        let c = ConnectionTree::new(
            n(0),
            vec![n(1), n(3)],
            vec![(n(0), n(1), 1.0), (n(0), n(3), 1.0)],
        );
        assert_ne!(a.signature(), c.signature());
    }

    #[test]
    fn single_node_signature_uses_nodes() {
        let a = ConnectionTree::new(n(5), vec![n(5), n(5)], vec![]);
        let b = ConnectionTree::new(n(6), vec![n(6)], vec![]);
        assert_ne!(a.signature(), b.signature());
        assert_eq!(a.root_child_count(), 0);
        match a.signature() {
            TreeSignature::Nodes(nodes) => assert_eq!(nodes, vec![5]),
            _ => panic!("expected node signature"),
        }
    }

    #[test]
    fn root_children_counted_distinctly() {
        let t = ConnectionTree::new(
            n(0),
            vec![n(1), n(2)],
            vec![(n(0), n(1), 1.0), (n(0), n(2), 1.0)],
        );
        assert_eq!(t.root_child_count(), 2);
    }
}
