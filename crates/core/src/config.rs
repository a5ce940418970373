//! Configuration for graph construction, matching, scoring and search.
//!
//! The paper's §2.3 evaluation sweeps three binary options (edge-score
//! scaling, node-score scaling, combination mode) and the weight factor λ;
//! those live in [`ScoreParams`]. Everything else — the knobs the paper
//! describes in prose (heap size, answer count, metadata matching, root
//! exclusion) — lives in the surrounding structs.

use crate::error::{BanksError, BanksResult};

/// How the per-edge score is normalized (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeScoreMode {
    /// `w(e) / w_min` — raw scale-free weight.
    Linear,
    /// `log2(1 + w(e)/w_min)` — "reducing the edge weight range by
    /// log-scaling was important" (§5.3).
    Log,
}

/// How the per-node score is normalized (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeScoreMode {
    /// `w(v) / w_max`.
    Linear,
    /// `log2(1 + w(v)) / log2(1 + w_max)`.
    Log,
}

/// How edge score and node score combine into overall relevance (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CombineMode {
    /// `(1-λ)·Escore + λ·Nscore`.
    Additive,
    /// `Escore^(1−λ) · Nscore^λ` (the geometric counterpart; the paper
    /// leaves the multiplicative exponents implicit).
    Multiplicative,
}

/// The ranking parameters of §2.3 / Figure 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreParams {
    /// Relative weight of node score vs edge score, in `[0,1]`.
    /// The paper finds λ = 0.2 with log edge scaling best (§5.3).
    pub lambda: f64,
    /// Edge score normalization.
    pub edge_score: EdgeScoreMode,
    /// Node score normalization.
    pub node_score: NodeScoreMode,
    /// Combination mode.
    pub combine: CombineMode,
}

impl Default for ScoreParams {
    /// The paper's best setting: λ=0.2, log-scaled edges, additive.
    fn default() -> Self {
        ScoreParams {
            lambda: 0.2,
            edge_score: EdgeScoreMode::Log,
            node_score: NodeScoreMode::Linear,
            combine: CombineMode::Additive,
        }
    }
}

impl ScoreParams {
    /// Validate ranges.
    pub(crate) fn validate(&self) -> BanksResult<()> {
        if !(0.0..=1.0).contains(&self.lambda) {
            return Err(BanksError::BadConfig(format!(
                "lambda must be in [0,1], got {}",
                self.lambda
            )));
        }
        Ok(())
    }
}

/// How node prestige (§2.2 node weights) is assigned at graph build time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeWeightMode {
    /// Indegree of the tuple — the paper's implementation.
    Indegree,
    /// All nodes weigh 1 (ablation: ignore prestige structure).
    Uniform,
    /// Authority transfer (§7 "a form of spreading activation"): iterate
    /// prestige flow along links.
    AuthorityTransfer {
        /// Number of power iterations.
        iterations: usize,
        /// Fraction of prestige transferred per step (like PageRank's
        /// damping factor).
        damping: f64,
    },
}

/// Graph construction options.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphConfig {
    /// Node prestige assignment.
    pub node_weight: NodeWeightMode,
    /// Default similarity `s(R1,R2)` for links without a per-FK override.
    pub default_similarity: f64,
    /// Ablation toggle: when `false`, backward edges get the plain
    /// similarity weight instead of the indegree-scaled weight of eq. (1),
    /// i.e. the graph degenerates to a symmetric one — the configuration
    /// the paper argues *against* in §2.1 (hub problem).
    pub indegree_backward_weights: bool,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            node_weight: NodeWeightMode::Indegree,
            default_similarity: 1.0,
            indegree_backward_weights: true,
        }
    }
}

/// Keyword matching options (§2.3 and the §7 extensions).
#[derive(Debug, Clone, PartialEq)]
pub struct MatchConfig {
    /// Match keywords against relation/column names ("BANKS allows query
    /// keywords to match data … and meta data").
    pub match_metadata: bool,
    /// Approximate token matching at edit distance ≤ 1 (a §7 plan:
    /// "some form of approximate matching"). Off by default.
    pub approximate: bool,
    /// Window for `approx(n)` numeric terms: a value `v` matches when
    /// `|v − n| ≤ window` ("concurrency approx(1988)", §7).
    pub approx_window: i64,
    /// Node relevance assigned to edit-distance matches (§2.3's
    /// node-relevance extension); exact matches always score 1.0.
    pub approx_penalty: f64,
    /// Allow queries where some terms match nothing: those terms are
    /// dropped instead of producing zero answers ("the condition that one
    /// node from each S_i must be present can be relaxed", §2.3).
    pub allow_missing_terms: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            match_metadata: true,
            approximate: false,
            approx_window: 2,
            approx_penalty: 0.5,
            allow_missing_terms: false,
        }
    }
}

/// Search algorithm options (§3).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Number of answers to produce. The paper's evaluation stops at 10.
    pub max_results: usize,
    /// Capacity of the fixed-size output heap used to approximately
    /// re-sort generated trees by relevance ("a reasonably small heap
    /// size", §3).
    pub output_heap_size: usize,
    /// Bound on each Dijkstra iterator's search radius.
    pub max_distance: f64,
    /// Bound on total iterator pops, a safety valve for the metadata-query
    /// blow-up discussed in §7.
    pub max_pops: usize,
    /// Bound on cross-product combinations generated per visited node.
    pub max_cross_product: usize,
    /// Discard trees whose root has exactly one child ("the tree formed by
    /// removing the root node would also have been generated, and would be
    /// a better answer", §3).
    pub discard_single_child_root: bool,
    /// Detect and keep only the best representative of duplicate trees
    /// ("isomorphic modulo direction", §3).
    pub deduplicate: bool,
    /// Relations whose tuples may not serve as information nodes ("we may
    /// restrict the information node to be from a selected set", §2.1 —
    /// e.g. exclude `Writes`).
    pub excluded_root_relations: Vec<String>,
    /// Per-candidate-root node budget for the §7 forward-search heuristic
    /// (nodes settled by each forward probe).
    pub forward_probe_budget: usize,
    /// §3 extension: "the distance measure can be extended to include
    /// node weights of nodes matching keywords". When enabled, each
    /// iterator's origin starts at distance
    /// `(1 − Nscore(origin)) · w_min`, so iterators from prestigious
    /// keyword nodes expand — and connect — first.
    pub node_weight_in_distance: bool,
    /// Stop expanding once the top `max_results` can no longer change:
    /// every un-generated tree's relevance is bounded above by
    /// `crate::score::Scorer::max_relevance_for_weight` of the frontier
    /// distance, and when that bound falls strictly below the worst
    /// retained answer no future tree can enter (or reorder) the output.
    /// The termination is exact — disable only to measure the exhaustive
    /// baseline.
    pub early_termination: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_results: 10,
            output_heap_size: 30,
            max_distance: f64::INFINITY,
            max_pops: 2_000_000,
            max_cross_product: 100_000,
            discard_single_child_root: true,
            deduplicate: true,
            excluded_root_relations: Vec::new(),
            forward_probe_budget: 4096,
            node_weight_in_distance: false,
            early_termination: true,
        }
    }
}

/// Top-level configuration bundle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BanksConfig {
    /// Graph construction.
    pub graph: GraphConfig,
    /// Keyword matching.
    pub matching: MatchConfig,
    /// Ranking.
    pub score: ScoreParams,
    /// Search execution.
    pub search: SearchConfig,
}

impl BanksConfig {
    /// Validate all sections.
    pub fn validate(&self) -> BanksResult<()> {
        self.score.validate()?;
        if self.search.output_heap_size == 0 {
            return Err(BanksError::BadConfig("output_heap_size must be ≥ 1".into()));
        }
        if !(self.graph.default_similarity.is_finite() && self.graph.default_similarity > 0.0) {
            return Err(BanksError::BadConfig(
                "default_similarity must be finite and positive".into(),
            ));
        }
        if let NodeWeightMode::AuthorityTransfer { damping, .. } = self.graph.node_weight {
            if !(0.0..=1.0).contains(&damping) {
                return Err(BanksError::BadConfig("damping must be in [0,1]".into()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_best() {
        let p = ScoreParams::default();
        assert_eq!(p.lambda, 0.2);
        assert_eq!(p.edge_score, EdgeScoreMode::Log);
        assert_eq!(p.combine, CombineMode::Additive);
        assert!(BanksConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = BanksConfig::default();
        c.score.lambda = 1.5;
        assert!(c.validate().is_err());

        let mut c = BanksConfig::default();
        c.search.output_heap_size = 0;
        assert!(c.validate().is_err());

        let mut c = BanksConfig::default();
        c.graph.default_similarity = 0.0;
        assert!(c.validate().is_err());

        let mut c = BanksConfig::default();
        c.graph.node_weight = NodeWeightMode::AuthorityTransfer {
            iterations: 3,
            damping: 2.0,
        };
        assert!(c.validate().is_err());
    }
}
