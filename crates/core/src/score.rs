//! Relevance scoring (§2.3).
//!
//! Node weights and edge weights give two separate relevance measures,
//! each normalized into a scale-free quantity, then combined:
//!
//! * per-edge score `e = w(e)/w_min` (or `log2(1 + w(e)/w_min)`), overall
//!   edge score `Escore = 1 / (1 + Σ e)` ∈ (0,1] — lower for large trees;
//! * per-node score `n = w(v)/w_max` (or `log2(1+w(v))/log2(1+w_max)`),
//!   overall node score `Nscore` = the average over **leaf keyword nodes
//!   and the root only**, a node counted once per search term it carries;
//! * combined: additive `(1−λ)·Escore + λ·Nscore` or multiplicative
//!   `Escore · Nscore^λ`.

use crate::answer::ConnectionTree;
use crate::config::{CombineMode, EdgeScoreMode, NodeScoreMode, ScoreParams};
use banks_graph::{Graph, NodeId};

/// A relevance scorer bound to one graph (for its normalizers).
#[derive(Debug, Clone)]
pub(crate) struct Scorer<'g> {
    graph: &'g Graph,
    params: ScoreParams,
    w_min_edge: f64,
    w_max_node: f64,
}

impl<'g> Scorer<'g> {
    /// Create a scorer over `graph` with the given parameters.
    pub(crate) fn new(graph: &'g Graph, params: ScoreParams) -> Scorer<'g> {
        Scorer {
            graph,
            params,
            w_min_edge: graph.min_edge_weight(),
            w_max_node: graph.max_node_weight(),
        }
    }

    /// Normalized score of one edge weight.
    pub(crate) fn edge_score(&self, weight: f64) -> f64 {
        if !self.w_min_edge.is_finite() || self.w_min_edge <= 0.0 {
            return 0.0;
        }
        let scaled = weight / self.w_min_edge;
        match self.params.edge_score {
            EdgeScoreMode::Linear => scaled,
            EdgeScoreMode::Log => (1.0 + scaled).log2(),
        }
    }

    /// Overall edge score of a tree: `1/(1+Σ)`; 1.0 for edgeless trees.
    ///
    /// In log mode the per-edge term is read from the graph's
    /// precomputed score array ([`Graph::log_edge_score`]) instead of
    /// recomputing the `log2` — the hot path of cross-product-heavy
    /// queries, where every generated tree re-scores its edges. The
    /// lookup validates the weight bits and falls back to computing, so
    /// the result is bit-identical either way (trees whose edges came
    /// from the search kernel carry exact CSR weights and always hit).
    pub(crate) fn tree_edge_score(&self, tree: &ConnectionTree) -> f64 {
        let sum: f64 = match self.params.edge_score {
            EdgeScoreMode::Log => tree
                .edges
                .iter()
                .map(|&(f, t, w)| {
                    self.graph
                        .log_edge_score(f, t, w)
                        .unwrap_or_else(|| self.edge_score(w))
                })
                .sum(),
            EdgeScoreMode::Linear => tree.edges.iter().map(|e| self.edge_score(e.2)).sum(),
        };
        1.0 / (1.0 + sum)
    }

    /// Normalized prestige score of one node, in `[0,1]`.
    pub(crate) fn node_score(&self, node: NodeId) -> f64 {
        if self.w_max_node <= 0.0 {
            return 0.0;
        }
        let w = self.graph.node_weight(node);
        match self.params.node_score {
            NodeScoreMode::Linear => (w / self.w_max_node).clamp(0.0, 1.0),
            NodeScoreMode::Log => {
                ((1.0 + w).log2() / (1.0 + self.w_max_node).log2()).clamp(0.0, 1.0)
            }
        }
    }

    /// Overall node score: average over the root and the keyword leaves,
    /// with keyword multiplicity ("a node containing multiple search terms
    /// is counted as many times as the number of search terms it
    /// contains"). The root contributes once unless it is itself one of
    /// the keyword nodes (then its term contributions already cover it).
    pub(crate) fn tree_node_score(&self, tree: &ConnectionTree) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for &leaf in &tree.keyword_nodes {
            total += self.node_score(leaf);
            count += 1;
        }
        if !tree.keyword_nodes.contains(&tree.root) {
            total += self.node_score(tree.root);
            count += 1;
        }
        if count == 0 {
            return 0.0;
        }
        total / count as f64
    }

    /// Upper bound on the relevance of *any* connection tree whose total
    /// edge weight is at least `min_weight` and whose node score is at
    /// most `max_node_score` — the early-termination bound of the search
    /// kernel (pass `max_node_score = 1.0` when nothing tighter is known).
    ///
    /// Soundness: (1) both node-score modes clamp to `[0,1]`, so any
    /// honest `max_node_score` cap applies; (2) for a tree of weight
    /// `W ≥ min_weight`, the per-edge score sum satisfies
    /// `Σᵢ e(wᵢ) ≥ e(Σᵢ wᵢ) = e(W) ≥ e(min_weight)` — exactly additive in
    /// linear mode, and superadditive in log mode since
    /// `Π(1+aᵢ) ≥ 1+Σaᵢ` for non-negative `aᵢ` — so
    /// `Escore = 1/(1+Σ) ≤ 1/(1+e(min_weight))`; (3) both combination
    /// modes are monotone in `Escore` and `Nscore`. On an edgeless graph
    /// `edge_score` degenerates to 0 and the bound to 1, which simply
    /// never terminates early.
    pub(crate) fn max_relevance_for_weight(&self, min_weight: f64, max_node_score: f64) -> f64 {
        let e = 1.0 / (1.0 + self.edge_score(min_weight));
        let n = max_node_score.clamp(0.0, 1.0);
        let lambda = self.params.lambda;
        match self.params.combine {
            CombineMode::Additive => (1.0 - lambda) * e + lambda * n,
            CombineMode::Multiplicative => e.powf(1.0 - lambda) * n.powf(lambda),
        }
    }

    /// Upper bound on the node score ([`Scorer::tree_node_score`]) of any
    /// tree whose per-term keyword leaves are drawn from `keyword_sets`.
    ///
    /// `tree_node_score` averages the `k` per-term leaf scores plus the
    /// root's (the root is skipped when it is itself a keyword node).
    /// With `Mⱼ = max_{v ∈ Sⱼ} ns(v)` and an arbitrary root bounded by 1:
    /// root counted → `N ≤ (ΣMⱼ + 1)/(k+1)`; root a keyword node →
    /// `N ≤ ΣMⱼ/k ≤ (ΣMⱼ + 1)/(k+1)` (since every `Mⱼ ≤ 1`). So the
    /// first form dominates both cases.
    pub(crate) fn max_node_score_for_sets(&self, keyword_sets: &[Vec<NodeId>]) -> f64 {
        let k = keyword_sets.len();
        if k == 0 {
            return 1.0;
        }
        let sum: f64 = keyword_sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|&n| self.node_score(n))
                    .fold(0.0f64, f64::max)
            })
            .sum();
        ((sum + 1.0) / (k as f64 + 1.0)).min(1.0)
    }

    /// Overall relevance of a tree, combining edge and node scores.
    pub(crate) fn relevance(&self, tree: &ConnectionTree) -> f64 {
        let e = self.tree_edge_score(tree);
        let n = self.tree_node_score(tree);
        let lambda = self.params.lambda;
        match self.params.combine {
            CombineMode::Additive => (1.0 - lambda) * e + lambda * n,
            // Geometric counterpart of the additive blend: λ shifts
            // weight from edge score to node score in both modes, which
            // is what lets the paper observe that the combination mode
            // "has almost no impact on the ranking".
            CombineMode::Multiplicative => e.powf(1.0 - lambda) * n.powf(lambda),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::GraphBuilder;
    use proptest::prelude::*;

    /// Star graph: hub node 0 (weight 10) with 3 leaves (weights 0, 5, 10),
    /// edges hub→leaf of weights 1, 2, 4.
    fn star() -> Graph {
        let mut b = GraphBuilder::new();
        let hub = b.add_node(10.0);
        let l1 = b.add_node(0.0);
        let l2 = b.add_node(5.0);
        let l3 = b.add_node(10.0);
        b.add_edge(hub, l1, 1.0);
        b.add_edge(hub, l2, 2.0);
        b.add_edge(hub, l3, 4.0);
        b.build()
    }

    fn tree_two_leaves() -> ConnectionTree {
        ConnectionTree::new(
            NodeId(0),
            vec![NodeId(1), NodeId(2)],
            vec![(NodeId(0), NodeId(1), 1.0), (NodeId(0), NodeId(2), 2.0)],
        )
    }

    #[test]
    fn edge_score_linear_and_log() {
        let g = star();
        let lin = Scorer::new(
            &g,
            ScoreParams {
                edge_score: EdgeScoreMode::Linear,
                ..ScoreParams::default()
            },
        );
        assert_eq!(lin.edge_score(1.0), 1.0, "w_min is 1");
        assert_eq!(lin.edge_score(4.0), 4.0);
        let log = Scorer::new(
            &g,
            ScoreParams {
                edge_score: EdgeScoreMode::Log,
                ..ScoreParams::default()
            },
        );
        assert_eq!(log.edge_score(1.0), 1.0, "log2(1+1) = 1");
        assert!(log.edge_score(4.0) < lin.edge_score(4.0), "log compresses");
    }

    #[test]
    fn tree_edge_score_decreases_with_size() {
        let g = star();
        let s = Scorer::new(&g, ScoreParams::default());
        let small = ConnectionTree::new(
            NodeId(0),
            vec![NodeId(1)],
            vec![(NodeId(0), NodeId(1), 1.0)],
        );
        let big = tree_two_leaves();
        assert!(s.tree_edge_score(&small) > s.tree_edge_score(&big));
        let single = ConnectionTree::new(NodeId(1), vec![NodeId(1)], vec![]);
        assert_eq!(s.tree_edge_score(&single), 1.0);
    }

    #[test]
    fn node_score_normalized_to_max() {
        let g = star();
        let s = Scorer::new(
            &g,
            ScoreParams {
                node_score: NodeScoreMode::Linear,
                ..ScoreParams::default()
            },
        );
        assert_eq!(s.node_score(NodeId(0)), 1.0);
        assert_eq!(s.node_score(NodeId(1)), 0.0);
        assert_eq!(s.node_score(NodeId(2)), 0.5);
        let slog = Scorer::new(
            &g,
            ScoreParams {
                node_score: NodeScoreMode::Log,
                ..ScoreParams::default()
            },
        );
        assert_eq!(slog.node_score(NodeId(0)), 1.0);
        assert!(slog.node_score(NodeId(2)) > 0.5, "log lifts mid weights");
    }

    #[test]
    fn tree_node_score_averages_root_and_leaves() {
        let g = star();
        let s = Scorer::new(
            &g,
            ScoreParams {
                node_score: NodeScoreMode::Linear,
                ..ScoreParams::default()
            },
        );
        // leaves 1 (0.0) and 2 (0.5) + root 0 (1.0) → avg 0.5
        let t = tree_two_leaves();
        assert!((s.tree_node_score(&t) - 0.5).abs() < 1e-12);
        // A keyword node matching both terms counts twice: leaves (2,2)
        // plus root 0 → (0.5 + 0.5 + 1.0)/3
        let t2 = ConnectionTree::new(
            NodeId(0),
            vec![NodeId(2), NodeId(2)],
            vec![(NodeId(0), NodeId(2), 2.0)],
        );
        assert!((s.tree_node_score(&t2) - 2.0 / 3.0).abs() < 1e-12);
        // Root that is itself a keyword node is not double counted.
        let t3 = ConnectionTree::new(NodeId(0), vec![NodeId(0), NodeId(0)], vec![]);
        assert!((s.tree_node_score(&t3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lambda_extremes() {
        let g = star();
        let t = tree_two_leaves();
        let edge_only = Scorer::new(
            &g,
            ScoreParams {
                lambda: 0.0,
                combine: CombineMode::Additive,
                edge_score: EdgeScoreMode::Linear,
                node_score: NodeScoreMode::Linear,
            },
        );
        assert!((edge_only.relevance(&t) - edge_only.tree_edge_score(&t)).abs() < 1e-12);
        let node_only = Scorer::new(
            &g,
            ScoreParams {
                lambda: 1.0,
                combine: CombineMode::Additive,
                edge_score: EdgeScoreMode::Linear,
                node_score: NodeScoreMode::Linear,
            },
        );
        assert!((node_only.relevance(&t) - node_only.tree_node_score(&t)).abs() < 1e-12);
    }

    #[test]
    fn multiplicative_combination() {
        let g = star();
        let t = tree_two_leaves();
        let s = Scorer::new(
            &g,
            ScoreParams {
                lambda: 0.5,
                combine: CombineMode::Multiplicative,
                edge_score: EdgeScoreMode::Linear,
                node_score: NodeScoreMode::Linear,
            },
        );
        let expect = s.tree_edge_score(&t).powf(0.5) * s.tree_node_score(&t).powf(0.5);
        assert!((s.relevance(&t) - expect).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_degenerates_gracefully() {
        let g = GraphBuilder::new().build();
        let s = Scorer::new(&g, ScoreParams::default());
        assert_eq!(s.edge_score(1.0), 0.0);
    }

    proptest! {
        /// Relevance stays in [0,1] for additive combination over valid λ.
        #[test]
        fn additive_relevance_bounded(
            lambda in 0.0f64..=1.0,
            weights in proptest::collection::vec(1.0f64..100.0, 1..8),
            edge_log in proptest::bool::ANY,
            node_log in proptest::bool::ANY,
        ) {
            let mut b = GraphBuilder::new();
            let root = b.add_node(3.0);
            let mut edges = Vec::new();
            let mut leaves = Vec::new();
            for w in &weights {
                let leaf = b.add_node(*w % 7.0);
                edges.push((root, leaf, *w));
                b.add_edge(root, leaf, *w);
                leaves.push(leaf);
            }
            let g = b.build();
            let s = Scorer::new(&g, ScoreParams {
                lambda,
                combine: CombineMode::Additive,
                edge_score: if edge_log { EdgeScoreMode::Log } else { EdgeScoreMode::Linear },
                node_score: if node_log { NodeScoreMode::Log } else { NodeScoreMode::Linear },
            });
            let t = ConnectionTree::new(root, leaves, edges);
            let r = s.relevance(&t);
            prop_assert!((0.0..=1.0).contains(&r), "relevance {r}");
        }

        /// The early-termination bound dominates the true relevance of
        /// every tree at least as heavy as the bound's weight argument.
        #[test]
        fn max_relevance_bound_is_sound(
            lambda in 0.0f64..=1.0,
            weights in proptest::collection::vec(1.0f64..100.0, 1..8),
            node_weights in proptest::collection::vec(0.0f64..20.0, 1..8),
            edge_log in proptest::bool::ANY,
            node_log in proptest::bool::ANY,
            multiplicative in proptest::bool::ANY,
            slack in 0.0f64..5.0,
        ) {
            let mut b = GraphBuilder::new();
            let root = b.add_node(3.0);
            let mut edges = Vec::new();
            let mut leaves = Vec::new();
            for (i, w) in weights.iter().enumerate() {
                let leaf = b.add_node(node_weights[i % node_weights.len()]);
                edges.push((root, leaf, *w));
                b.add_edge(root, leaf, *w);
                leaves.push(leaf);
            }
            let g = b.build();
            let s = Scorer::new(&g, ScoreParams {
                lambda,
                combine: if multiplicative { CombineMode::Multiplicative } else { CombineMode::Additive },
                edge_score: if edge_log { EdgeScoreMode::Log } else { EdgeScoreMode::Linear },
                node_score: if node_log { NodeScoreMode::Log } else { NodeScoreMode::Linear },
            });
            let t = ConnectionTree::new(root, leaves.clone(), edges);
            let r = s.relevance(&t);
            // Bound at the exact weight, and at any smaller weight.
            prop_assert!(r <= s.max_relevance_for_weight(t.weight, 1.0) + 1e-12);
            prop_assert!(r <= s.max_relevance_for_weight((t.weight - slack).max(0.0), 1.0) + 1e-12);
            // The keyword-set node-score cap is honest too: treat each
            // leaf as its own single-node keyword set.
            let sets: Vec<Vec<NodeId>> = leaves.iter().map(|&l| vec![l]).collect();
            let n_cap = s.max_node_score_for_sets(&sets);
            prop_assert!(s.tree_node_score(&t) <= n_cap + 1e-12);
            prop_assert!(r <= s.max_relevance_for_weight((t.weight - slack).max(0.0), n_cap) + 1e-12);
        }

        /// Adding an edge never increases the edge score.
        #[test]
        fn edge_score_monotone_in_tree_size(
            weights in proptest::collection::vec(1.0f64..50.0, 2..8),
        ) {
            let mut b = GraphBuilder::new();
            let root = b.add_node(1.0);
            let mut all_edges = Vec::new();
            let mut leaves = Vec::new();
            for w in &weights {
                let leaf = b.add_node(1.0);
                b.add_edge(root, leaf, *w);
                all_edges.push((root, leaf, *w));
                leaves.push(leaf);
            }
            let g = b.build();
            let s = Scorer::new(&g, ScoreParams::default());
            for k in 1..all_edges.len() {
                let smaller = ConnectionTree::new(root, leaves[..k].to_vec(), all_edges[..k].to_vec());
                let larger = ConnectionTree::new(root, leaves[..k + 1].to_vec(), all_edges[..k + 1].to_vec());
                prop_assert!(s.tree_edge_score(&smaller) >= s.tree_edge_score(&larger));
            }
        }
    }
}
