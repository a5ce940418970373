//! Forward search — the §7 optimization for keywords that match very many
//! nodes.
//!
//! "Query evaluation with keywords matching metadata can be relatively
//! slow, since a large number of tuples may be defined to be relevant to
//! the keyword … We are working on techniques to speed up such queries by
//! not performing backward search from large numbers of nodes, and instead
//! searching forwards from probable information nodes corresponding to
//! more selective keywords."
//!
//! Implementation: pick the most selective term (smallest `Sᵢ`), expand
//! backwards from *its* origins only (enumerating candidate information
//! nodes in increasing distance), and for each candidate root run a
//! bounded *forward* Dijkstra probe that stops as soon as it has touched
//! one node of every remaining keyword set. Each candidate yields at most
//! one tree (the nearest origin per term), making this an approximation
//! of the exhaustive backward search — the trade the paper proposes.
//!
//! Like the backward kernel, the probes run on pooled states: one
//! recycled [`banks_graph::DijkstraState`] serves *every* candidate root
//! (cleared per probe, keeping its table), where the old kernel allocated
//! three hash maps per candidate.

use crate::answer::{Answer, ConnectionTree, TreeSignature};
use crate::config::SearchConfig;
use crate::graph_build::TupleGraph;
use crate::score::Scorer;
use crate::search::backward::{self, DupState};
use crate::search::output_heap::OutputHeap;
use crate::search::{EarlyStop, RootPolicy, SearchOutcome, SearchStats, StopReason};
use banks_graph::{Dijkstra, Direction, NodeId, SearchArena};
use banks_util::fxhash::{FxHashMap, FxHashSet};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// How many nearest members of each keyword set a forward probe gathers.
const MAX_HITS_PER_TERM: usize = 4;

#[derive(Debug, Clone, Copy)]
struct IterEntry {
    dist: f64,
    idx: usize,
}

impl PartialEq for IterEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.idx == other.idx
    }
}
impl Eq for IterEntry {}
impl PartialOrd for IterEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for IterEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// Run forward search on a caller-owned [`SearchArena`]. Same contract
/// as [`backward::backward_search_in`].
pub(crate) fn forward_search_in(
    arena: &mut SearchArena,
    tuple_graph: &TupleGraph,
    scorer: &Scorer<'_>,
    keyword_sets: &[Vec<NodeId>],
    config: &SearchConfig,
    excluded_roots: &FxHashSet<u32>,
) -> SearchOutcome {
    let mut stats = SearchStats::default();
    if keyword_sets.is_empty() || keyword_sets.iter().any(|s| s.is_empty()) {
        return SearchOutcome {
            answers: Vec::new(),
            stats,
        };
    }
    if keyword_sets.len() == 1 {
        // Degenerates to the same fast path as backward search.
        return backward::backward_search_in(
            arena,
            tuple_graph,
            scorer,
            keyword_sets,
            config,
            excluded_roots,
        );
    }

    let graph = tuple_graph.graph();
    let n_terms = keyword_sets.len();
    let policy = RootPolicy::new(tuple_graph, excluded_roots, config);
    let selective = keyword_sets
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| s.len())
        .map(|(i, _)| i)
        .expect("non-empty keyword sets");

    // Membership sets for the non-selective terms.
    let membership: Vec<FxHashSet<u32>> = keyword_sets
        .iter()
        .map(|s| s.iter().map(|n| n.0).collect())
        .collect();

    // Backward expansion from the selective term's origins only.
    let mut iterators: Vec<Dijkstra<'_>> = Vec::with_capacity(keyword_sets[selective].len());
    let mut origins: Vec<NodeId> = Vec::with_capacity(keyword_sets[selective].len());
    for &origin in &keyword_sets[selective] {
        iterators.push(
            Dijkstra::new_in(graph, origin, Direction::Reverse, arena.checkout())
                .with_max_dist(config.max_distance),
        );
        origins.push(origin);
    }
    stats.iterators = iterators.len();
    let mut iter_heap: BinaryHeap<IterEntry> = BinaryHeap::with_capacity(iterators.len());
    for (idx, it) in iterators.iter_mut().enumerate() {
        if let Some(dist) = it.peek_dist() {
            iter_heap.push(IterEntry { dist, idx });
        }
    }

    // One recycled state block serves every forward probe.
    let mut probe_state = Some(arena.checkout());
    let cross = &mut arena.cross;
    let mut probed: FxHashSet<u32> = FxHashSet::default();
    let mut output = OutputHeap::new(config.output_heap_size);
    let mut dedup: FxHashMap<TreeSignature, DupState> = FxHashMap::with_capacity_and_hasher(
        config.output_heap_size + config.max_results,
        Default::default(),
    );
    let mut emitted: Vec<Answer> = Vec::with_capacity(config.max_results);
    // Forward iterators start at distance 0 (no prestige handicap), so
    // the frontier distance is itself the weight floor of future trees.
    let mut early_stop = EarlyStop::new(config, scorer, 0.0, keyword_sets);
    let mut hits: Vec<Vec<NodeId>> = vec![Vec::new(); n_terms];
    let mut backward_path: Vec<(NodeId, NodeId, f64)> = Vec::new();

    stats.stop = loop {
        if emitted.len() >= config.max_results {
            break StopReason::Exhausted;
        }
        let Some(&frontier) = iter_heap.peek() else {
            break StopReason::Exhausted;
        };
        if stats.pops >= config.max_pops {
            break StopReason::PopCap;
        }
        // Cooperative cancellation, same contract as the backward loop.
        if arena.deadline.expired() {
            break StopReason::Deadline;
        }
        if early_stop.should_stop(frontier.dist, emitted.len(), &output) {
            break StopReason::TopK;
        }
        let entry = iter_heap.pop().expect("peeked entry");
        let Some(visit) = iterators[entry.idx].next() else {
            continue;
        };
        stats.pops += 1;
        if let Some(dist) = iterators[entry.idx].peek_dist() {
            iter_heap.push(IterEntry {
                dist,
                idx: entry.idx,
            });
        }
        let u = visit.node;
        // Each candidate root is probed once, by the nearest selective
        // origin (iterators pop in global distance order).
        if !probed.insert(u.0) {
            continue;
        }
        if policy.root_excluded(u) {
            stats.excluded_roots += 1;
            continue;
        }

        // Forward probe: gather the nearest few members of every other
        // keyword set. A single nearest hit is not enough: when that hit
        // lies *on* the path to another keyword, the resulting tree fails
        // the single-child-root rule even though a sibling hit would
        // branch properly.
        let mut probe = Dijkstra::new_in(
            graph,
            u,
            Direction::Forward,
            probe_state.take().expect("probe state checked back in"),
        )
        .with_max_dist(config.max_distance)
        .with_max_settled(config.forward_probe_budget);
        for h in &mut hits {
            h.clear();
        }
        hits[selective].push(origins[entry.idx]);
        let mut satisfied = 1usize; // terms with ≥ 1 hit
        let mut saturated = 1usize; // terms with MAX_HITS_PER_TERM hits
        while saturated < n_terms {
            let Some(v) = probe.next() else {
                break;
            };
            stats.pops += 1;
            for (j, members) in membership.iter().enumerate() {
                if j != selective
                    && hits[j].len() < MAX_HITS_PER_TERM
                    && members.contains(&v.node.0)
                {
                    hits[j].push(v.node);
                    if hits[j].len() == 1 {
                        satisfied += 1;
                    }
                    if hits[j].len() == MAX_HITS_PER_TERM {
                        saturated += 1;
                    }
                }
            }
        }
        if satisfied < n_terms {
            probe_state = Some(probe.into_state());
            continue;
        }

        // Enumerate hit combinations (mixed-radix counter), assembling for
        // each the tree: backward path root→selective origin plus forward
        // probe paths root→each chosen keyword node.
        backward_path.clear();
        let ok = iterators[entry.idx].path_edges_into(u, &mut backward_path);
        debug_assert!(ok, "just settled u");
        let total: usize = hits
            .iter()
            .map(|h| h.len())
            .fold(1usize, |acc, len| acc.saturating_mul(len));
        let budget = total.min(config.max_cross_product);
        if total > budget {
            stats.cross_product_truncations += 1;
        }
        cross.counter.clear();
        cross.counter.resize(n_terms, 0);
        for _ in 0..budget {
            cross.origins.clear();
            cross.origins.resize(n_terms, NodeId(0));
            cross.edges.clear();
            cross.edges.extend_from_slice(&backward_path);
            for (j, hit_list) in hits.iter().enumerate() {
                let o = hit_list[cross.counter[j]];
                cross.origins[j] = o;
                if j != selective {
                    let ok = probe.path_edges_into(o, &mut cross.edges);
                    debug_assert!(ok, "probe settled hit");
                }
            }
            for pos in (0..n_terms).rev() {
                cross.counter[pos] += 1;
                if cross.counter[pos] < hits[pos].len() {
                    break;
                }
                cross.counter[pos] = 0;
            }
            let tree = ConnectionTree::new(u, cross.origins.clone(), cross.edges.clone());
            stats.trees_generated += 1;
            if policy.discards_single_child(&tree) {
                stats.discarded_single_child += 1;
                continue;
            }
            let relevance = scorer.relevance(&tree);
            backward::offer(
                Answer { tree, relevance },
                &mut output,
                &mut dedup,
                &mut emitted,
                config,
                &mut stats,
            );
            if emitted.len() >= config.max_results {
                break;
            }
        }
        probe_state = Some(probe.into_state());
    };

    let mut state_bytes = iterators.iter().map(Dijkstra::state_bytes).sum::<usize>();
    if let Some(state) = probe_state {
        state_bytes += state.retained_bytes();
        arena.recycle(state);
    }
    for iterator in iterators {
        arena.recycle(iterator.into_state());
    }
    let mut outcome = backward::finish(emitted, output, config, stats);
    outcome.stats.state_bytes = state_bytes;
    arena.trim();
    outcome.stats.arena_retained_bytes = arena.retained_bytes();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GraphConfig, ScoreParams};
    use crate::graph_build::TupleGraph;
    use banks_storage::{ColumnType, Database, RelationSchema, Value};

    /// Small DBLP-style fixture: two papers share author A; author B wrote
    /// only paper 1; author C wrote only paper 2.
    fn db() -> Database {
        let mut db = Database::new("d");
        db.create_relation(
            RelationSchema::builder("Author")
                .column("Id", ColumnType::Text)
                .column("Name", ColumnType::Text)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("Id", ColumnType::Text)
                .column("Title", ColumnType::Text)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Writes")
                .column("AuthorId", ColumnType::Text)
                .column("PaperId", ColumnType::Text)
                .primary_key(&["AuthorId", "PaperId"])
                .foreign_key(&["AuthorId"], "Author")
                .foreign_key(&["PaperId"], "Paper")
                .build()
                .unwrap(),
        )
        .unwrap();
        for (id, name) in [("A", "Alice"), ("B", "Bob"), ("C", "Carol")] {
            db.insert("Author", vec![Value::text(id), Value::text(name)])
                .unwrap();
        }
        for (id, title) in [("p1", "Paper One"), ("p2", "Paper Two")] {
            db.insert("Paper", vec![Value::text(id), Value::text(title)])
                .unwrap();
        }
        for (a, p) in [("A", "p1"), ("B", "p1"), ("A", "p2"), ("C", "p2")] {
            db.insert("Writes", vec![Value::text(a), Value::text(p)])
                .unwrap();
        }
        db
    }

    fn node(db: &Database, tg: &TupleGraph, rel: &str, id: &str) -> NodeId {
        let rid = db
            .relation(rel)
            .unwrap()
            .lookup_pk(&[Value::text(id)])
            .unwrap();
        tg.node(rid).unwrap()
    }

    fn node2(db: &Database, tg: &TupleGraph, rel: &str, k1: &str, k2: &str) -> NodeId {
        let rid = db
            .relation(rel)
            .unwrap()
            .lookup_pk(&[Value::text(k1), Value::text(k2)])
            .unwrap();
        tg.node(rid).unwrap()
    }

    #[test]
    fn finds_connecting_paper() {
        let db = db();
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        let scorer = Scorer::new(tg.graph(), ScoreParams::default());
        let a = node(&db, &tg, "Author", "A");
        let b = node(&db, &tg, "Author", "B");
        let outcome = forward_search_in(
            &mut SearchArena::new(),
            &tg,
            &scorer,
            &[vec![a], vec![b]],
            &SearchConfig::default(),
            &FxHashSet::default(),
        );
        assert!(!outcome.answers.is_empty());
        let best = &outcome.answers[0].tree;
        assert_eq!(best.root, node(&db, &tg, "Paper", "p1"));
        assert_eq!(best.keyword_nodes, vec![a, b]);
    }

    #[test]
    fn agrees_with_backward_on_top_answer() {
        let db = db();
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        let scorer = Scorer::new(tg.graph(), ScoreParams::default());
        let b = node(&db, &tg, "Author", "B");
        let c = node(&db, &tg, "Author", "C");
        let cfg = SearchConfig::default();
        let fwd = forward_search_in(
            &mut SearchArena::new(),
            &tg,
            &scorer,
            &[vec![b], vec![c]],
            &cfg,
            &FxHashSet::default(),
        );
        let bwd = backward::backward_search_in(
            &mut SearchArena::new(),
            &tg,
            &scorer,
            &[vec![b], vec![c]],
            &cfg,
            &FxHashSet::default(),
        );
        assert!(!fwd.answers.is_empty());
        assert!(!bwd.answers.is_empty());
        assert_eq!(
            fwd.answers[0].tree.signature(),
            bwd.answers[0].tree.signature(),
            "B and C connect through Alice's co-authorship"
        );
    }

    #[test]
    fn selective_term_drives_iterator_count() {
        let db = db();
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        let scorer = Scorer::new(tg.graph(), ScoreParams::default());
        let a = node(&db, &tg, "Author", "A");
        // "Metadata-style" term: every Writes tuple.
        let all_writes = vec![
            node2(&db, &tg, "Writes", "A", "p1"),
            node2(&db, &tg, "Writes", "B", "p1"),
            node2(&db, &tg, "Writes", "A", "p2"),
            node2(&db, &tg, "Writes", "C", "p2"),
        ];
        let outcome = forward_search_in(
            &mut SearchArena::new(),
            &tg,
            &scorer,
            &[vec![a], all_writes],
            &SearchConfig::default(),
            &FxHashSet::default(),
        );
        assert_eq!(
            outcome.stats.iterators, 1,
            "backward expansion only from the selective term"
        );
        assert!(!outcome.answers.is_empty());
    }

    #[test]
    fn probe_budget_limits_work() {
        let db = db();
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        let scorer = Scorer::new(tg.graph(), ScoreParams::default());
        let b = node(&db, &tg, "Author", "B");
        let c = node(&db, &tg, "Author", "C");
        let cfg = SearchConfig {
            forward_probe_budget: 1,
            ..SearchConfig::default()
        };
        let outcome = forward_search_in(
            &mut SearchArena::new(),
            &tg,
            &scorer,
            &[vec![b], vec![c]],
            &cfg,
            &FxHashSet::default(),
        );
        // A 1-node probe can only "find" the other keyword when the
        // candidate root *is* that keyword, so every surviving answer is a
        // keyword-rooted chain; the branching Alice-paper trees of the
        // default budget are unreachable.
        for a in &outcome.answers {
            assert!(
                a.tree.keyword_nodes.contains(&a.tree.root),
                "non-keyword-rooted tree should be impossible at budget 1"
            );
        }
        let full = forward_search_in(
            &mut SearchArena::new(),
            &tg,
            &scorer,
            &[vec![b], vec![c]],
            &SearchConfig::default(),
            &FxHashSet::default(),
        );
        assert!(
            full.answers[0].relevance
                >= outcome.answers.first().map(|a| a.relevance).unwrap_or(0.0)
        );
    }

    #[test]
    fn reused_arena_matches_one_shot_forward() {
        let db = db();
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        let scorer = Scorer::new(tg.graph(), ScoreParams::default());
        let a = node(&db, &tg, "Author", "A");
        let b = node(&db, &tg, "Author", "B");
        let c = node(&db, &tg, "Author", "C");
        let cfg = SearchConfig::default();
        let mut arena = SearchArena::new();
        for sets in [
            vec![vec![a], vec![b]],
            vec![vec![b], vec![c]],
            vec![vec![a, b, c], vec![c]],
        ] {
            let fresh = forward_search_in(
                &mut SearchArena::new(),
                &tg,
                &scorer,
                &sets,
                &cfg,
                &FxHashSet::default(),
            );
            let reused =
                forward_search_in(&mut arena, &tg, &scorer, &sets, &cfg, &FxHashSet::default());
            assert_eq!(fresh.stats, reused.stats);
            assert_eq!(fresh.answers.len(), reused.answers.len());
            for (x, y) in fresh.answers.iter().zip(&reused.answers) {
                assert_eq!(x.tree, y.tree);
                assert_eq!(x.relevance.to_bits(), y.relevance.to_bits());
            }
        }
    }
}
