//! Query execution: the backward expanding search of §3 plus the §7
//! forward-search extension.
//!
//! Both algorithms run on reusable scratch memory: callers that serve
//! many queries thread a [`SearchArena`] through the `*_in` entry points
//! so the kernel's Dijkstra state tables, origin lists and cross-product
//! buffers are recycled instead of reallocated per query.

pub mod backward;
pub mod forward;
pub mod output_heap;

pub use backward::backward_search_in;
pub use banks_graph::SearchArena;
pub use forward::forward_search_in;
pub use output_heap::OutputHeap;

use crate::answer::{Answer, ConnectionTree};
use crate::config::SearchConfig;
use crate::graph_build::TupleGraph;
use crate::score::Scorer;
use banks_graph::{FxHashSet, NodeId};

/// Counters describing one search execution, for diagnostics, tests and
/// the evaluation harness.
///
/// **Equality** compares the *execution-semantic* counters only — the
/// numbers that must be bit-identical between a fresh and a reused arena,
/// or between the in-RAM and paged backends. The environment-descriptive
/// fields ([`SearchStats::arena_retained_bytes`],
/// [`SearchStats::deadline_expirations`]) describe *how* the query ran
/// and are excluded.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Shortest-path iterators created (Σ|Sᵢ| in the paper's notation).
    pub iterators: usize,
    /// Total nodes settled across all iterators.
    pub pops: usize,
    /// Connection trees constructed (before any filtering).
    pub trees_generated: usize,
    /// Trees dropped because the root had exactly one child.
    pub discarded_single_child: usize,
    /// Answers actually emitted to the caller.
    pub trees_emitted: usize,
    /// Trees dropped because the root's relation is excluded.
    pub excluded_roots: usize,
    /// Duplicates discarded (an equal-or-better twin existed).
    pub duplicates_discarded: usize,
    /// Duplicates that replaced a worse twin still in the buffer.
    pub duplicates_replaced: usize,
    /// Cross products truncated by the per-node combination cap.
    pub cross_product_truncations: usize,
    /// 1 when the expansion stopped via the top-k relevance bound instead
    /// of exhausting its iterators or budgets.
    pub early_terminations: usize,
    /// Bytes of origin-list cloning the flattened arena pool avoided
    /// (the old kernel cloned every other-term list per visited node).
    pub clone_bytes_saved: usize,
    /// Bytes pinned by the caller's [`SearchArena`] pools after this
    /// query (post shrink-policy). Excluded from equality.
    pub arena_retained_bytes: usize,
    /// 1 when the expansion was cut short by the caller's deadline
    /// token and the answers are a (possibly empty) prefix of the full
    /// result. Timing-dependent, so excluded from equality.
    pub deadline_expirations: usize,
}

impl PartialEq for SearchStats {
    fn eq(&self, other: &Self) -> bool {
        // Execution-semantic counters only; see the struct docs.
        self.iterators == other.iterators
            && self.pops == other.pops
            && self.trees_generated == other.trees_generated
            && self.discarded_single_child == other.discarded_single_child
            && self.trees_emitted == other.trees_emitted
            && self.excluded_roots == other.excluded_roots
            && self.duplicates_discarded == other.duplicates_discarded
            && self.duplicates_replaced == other.duplicates_replaced
            && self.cross_product_truncations == other.cross_product_truncations
            && self.early_terminations == other.early_terminations
            && self.clone_bytes_saved == other.clone_bytes_saved
    }
}

impl Eq for SearchStats {}

/// The result of a search: ranked answers plus execution counters.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Answers in decreasing relevance order (approximately — the output
    /// buffer makes the order heuristic, exactly as in the paper).
    pub answers: Vec<Answer>,
    /// Execution counters.
    pub stats: SearchStats,
}

/// The root-admission rules shared by every search strategy: the §2.1
/// excluded-relation restriction ("we may restrict the information node
/// to be from a selected set") and the §3 single-child-root discard.
/// One implementation, so the multi-term loop, the single-term fast path
/// and the forward-search probe cannot drift apart.
pub(crate) struct RootPolicy<'a> {
    tuple_graph: &'a TupleGraph,
    excluded_roots: &'a FxHashSet<u32>,
    discard_single_child_root: bool,
}

impl<'a> RootPolicy<'a> {
    pub(crate) fn new(
        tuple_graph: &'a TupleGraph,
        excluded_roots: &'a FxHashSet<u32>,
        config: &SearchConfig,
    ) -> RootPolicy<'a> {
        RootPolicy {
            tuple_graph,
            excluded_roots,
            discard_single_child_root: config.discard_single_child_root,
        }
    }

    /// May tuples of `root`'s relation serve as information nodes at all?
    pub(crate) fn root_excluded(&self, root: NodeId) -> bool {
        self.excluded_roots
            .contains(&self.tuple_graph.relation_of(root))
    }

    /// §3: "the tree formed by removing the root node would also have
    /// been generated, and would be a better answer" — unless the root
    /// itself carries a keyword, in which case removing it would
    /// invalidate the answer and the justification does not apply.
    pub(crate) fn discards_single_child(&self, tree: &ConnectionTree) -> bool {
        self.discard_single_child_root
            && tree.root_child_count() == 1
            && !tree.keyword_nodes.contains(&tree.root)
    }
}

/// Sound top-k early termination.
///
/// Iterator pops arrive in globally non-decreasing distance order, and a
/// tree generated at frontier distance `d` contains a full root→origin
/// path of weight at least `d − h` (`h` = the largest origin handicap
/// when `node_weight_in_distance` folds keyword prestige into the start
/// distance, 0 otherwise). [`Scorer::max_relevance_for_weight`] turns
/// that weight floor — together with the keyword-set node-score cap of
/// [`Scorer::max_node_score_for_sets`], since every future tree's leaves
/// are drawn from the same `Sᵢ` sets — into a relevance ceiling; once the
/// ceiling falls *strictly* below the k-th best buffered answer (k =
/// answers still owed), no future tree can enter the final top-k, replace
/// a buffered twin that would reach it, or reorder it — so stopping is
/// exact, not a heuristic.
pub(crate) struct EarlyStop<'a, 'g> {
    enabled: bool,
    max_results: usize,
    max_handicap: f64,
    max_node_score: f64,
    scorer: &'a Scorer<'g>,
    /// Memoized cutoff: `(output version, answers owed, cutoff)`.
    cached: Option<(u64, usize, f64)>,
}

impl<'a, 'g> EarlyStop<'a, 'g> {
    pub(crate) fn new(
        config: &SearchConfig,
        scorer: &'a Scorer<'g>,
        max_handicap: f64,
        keyword_sets: &[Vec<NodeId>],
    ) -> EarlyStop<'a, 'g> {
        EarlyStop {
            enabled: config.early_termination,
            max_results: config.max_results,
            max_handicap,
            max_node_score: if config.early_termination {
                scorer.max_node_score_for_sets(keyword_sets)
            } else {
                1.0
            },
            scorer,
            cached: None,
        }
    }

    /// Whether the search may stop before popping a node at
    /// `frontier_dist`. `emitted_len` must be below `max_results` (the
    /// main loop's own bound).
    pub(crate) fn should_stop(
        &mut self,
        frontier_dist: f64,
        emitted_len: usize,
        output: &OutputHeap,
    ) -> bool {
        if !self.enabled {
            return false;
        }
        let remaining = self.max_results - emitted_len;
        let cutoff = match self.cached {
            Some((version, owed, cutoff)) if version == output.version() && owed == remaining => {
                cutoff
            }
            _ => {
                // O(1) when fewer than `remaining` answers are buffered.
                let Some(cutoff) = output.kth_best_relevance(remaining) else {
                    return false;
                };
                self.cached = Some((output.version(), remaining, cutoff));
                cutoff
            }
        };
        let min_weight = (frontier_dist - self.max_handicap).max(0.0);
        self.scorer
            .max_relevance_for_weight(min_weight, self.max_node_score)
            < cutoff
    }
}

#[cfg(test)]
mod tests {
    use super::SearchStats;

    #[test]
    fn stats_equality_ignores_environment_counters() {
        let mut a = SearchStats {
            pops: 7,
            ..SearchStats::default()
        };
        let b = SearchStats {
            pops: 7,
            arena_retained_bytes: 999,
            deadline_expirations: 1,
            ..SearchStats::default()
        };
        assert_eq!(a, b, "environment counters are not execution semantics");
        a.pops = 8;
        assert_ne!(a, b);
    }
}
