//! Backward expanding search (§3, Figure 3).
//!
//! One Dijkstra iterator per keyword node runs over *reversed* edges; a
//! heap multiplexes the iterators by the distance of the next node each
//! would output. Every graph node `u` keeps one origin list per search
//! term (`u.Lᵢ`). When the iterator started at origin `o ∈ Sᵢ` visits `u`,
//! the cross product `{o} × Π_{j≠i} u.Lⱼ` enumerates exactly the new
//! connection trees rooted at `u`, after which `o` joins `u.Lᵢ`.
//!
//! The kernel runs on a [`SearchArena`]: sparse per-iterator Dijkstra
//! states, the `u.Lᵢ` lists flattened into a linked-entry pool, and
//! reused cross-product scratch — plus exact top-k early termination
//! (the `EarlyStop` bound documented on
//! [`crate::score::Scorer::max_relevance_for_weight`]).
//! Long-lived callers keep one arena per worker and pass it to every
//! [`backward_search_in`] call.

use crate::answer::{Answer, ConnectionTree, TreeSignature};
use crate::config::SearchConfig;
use crate::graph_build::TupleGraph;
use crate::score::Scorer;
use crate::search::output_heap::OutputHeap;
use crate::search::{EarlyStop, RootPolicy, SearchOutcome, SearchStats, StopReason};
use banks_graph::{
    CrossScratch, Dijkstra, Direction, DistHeap, GraphReader, NodeId, OriginListPool, SearchArena,
};
use banks_util::fxhash::{FxHashMap, FxHashSet};

/// Duplicate-tracking state per tree signature.
pub(super) enum DupState {
    /// Still buffered; may be replaced by a better-scoring twin.
    InHeap,
    /// Already output; later twins are discarded even if better (§3: "in
    /// that case we discard the new result").
    Emitted,
}

/// Run backward expanding search on a caller-owned [`SearchArena`] —
/// the steady-state serving path, where a worker thread's arena makes
/// the whole expansion allocation-free. Results are identical whether
/// the arena is fresh or reused, bit for bit.
///
/// `keyword_sets[i]` is the node set `Sᵢ` for term `i`; `excluded_roots`
/// holds relation ids whose tuples may not be information nodes.
pub(crate) fn backward_search_in(
    arena: &mut SearchArena,
    tuple_graph: &TupleGraph,
    scorer: &Scorer<'_>,
    keyword_sets: &[Vec<NodeId>],
    config: &SearchConfig,
    excluded_roots: &FxHashSet<u32>,
) -> SearchOutcome {
    if keyword_sets.is_empty() || keyword_sets.iter().any(|s| s.is_empty()) {
        return SearchOutcome {
            answers: Vec::new(),
            stats: SearchStats::default(),
        };
    }
    let span = arena.spans.begin();
    let mut outcome = if keyword_sets.len() == 1 {
        let policy = RootPolicy::new(tuple_graph, excluded_roots, config);
        single_term_search(scorer, &keyword_sets[0], config, &policy)
    } else {
        arena.with_reader(tuple_graph.graph(), |arena, reader| {
            multi_term_search(
                arena,
                reader,
                tuple_graph,
                &scorer.reading(reader),
                keyword_sets,
                config,
                excluded_roots,
            )
        })
    };
    arena.spans.end("expand", 0, span);
    arena.trim();
    outcome.stats.arena_retained_bytes = arena.retained_bytes();
    outcome
}

/// The multi-term kernel (PR-4 shape): all iterators multiplexed on one
/// heap, visits processed inline by the [`AnswerSink`]. Every graph
/// read goes through `graph`, the query's reader of
/// `tuple_graph.graph()`.
fn multi_term_search(
    arena: &mut SearchArena,
    graph: GraphReader<'_>,
    tuple_graph: &TupleGraph,
    scorer: &Scorer<'_>,
    keyword_sets: &[Vec<NodeId>],
    config: &SearchConfig,
    excluded_roots: &FxHashSet<u32>,
) -> SearchOutcome {
    let n_terms = keyword_sets.len();

    // One reverse-direction Dijkstra per keyword node, each running on a
    // pooled state block and bounded by `max_distance`.
    let total_origins: usize = keyword_sets.iter().map(|s| s.len()).sum();
    let mut iterators: Vec<Dijkstra<'_>> = Vec::with_capacity(total_origins);
    let mut infos: Vec<(usize, NodeId)> = Vec::with_capacity(total_origins);
    let mut iter_index: FxHashMap<(u32, u32), usize> =
        FxHashMap::with_capacity_and_hasher(total_origins, Default::default());
    let prestige_handicap = graph.graph().min_edge_weight().min(1.0);
    let mut max_handicap = 0.0f64;
    for (term, set) in keyword_sets.iter().enumerate() {
        for &origin in set {
            let idx = iterators.len();
            let mut iterator =
                Dijkstra::new_in(graph, origin, Direction::Reverse, arena.checkout())
                    .with_max_dist(config.max_distance);
            if config.node_weight_in_distance {
                // §3: fold keyword-node prestige into the distance —
                // low-prestige origins start behind by up to one w_min.
                let handicap = (1.0 - scorer.node_score(origin)) * prestige_handicap;
                iterator = iterator.with_initial_dist(handicap);
                max_handicap = max_handicap.max(handicap);
            }
            iterators.push(iterator);
            infos.push((term, origin));
            iter_index.insert((term as u32, origin.0), idx);
        }
    }

    // The iterator heap ("ordered on the distance of the first node it
    // will output"): `(dist, iterator index)` keys, least first.
    let mut iter_heap = DistHeap::default();
    for (idx, it) in iterators.iter_mut().enumerate() {
        if let Some(dist) = it.peek_dist() {
            iter_heap.push(dist, idx as u32);
        }
    }

    let policy = RootPolicy::new(tuple_graph, excluded_roots, config);
    let mut sink = AnswerSink::new(
        n_terms,
        &mut arena.lists,
        &mut arena.cross,
        policy,
        scorer,
        config,
        iter_index,
    );
    sink.stats.iterators = iterators.len();
    let mut early_stop = EarlyStop::new(config, scorer, max_handicap, keyword_sets);

    sink.stats.stop = loop {
        if sink.emitted.len() >= config.max_results {
            break StopReason::Exhausted;
        }
        let Some((frontier, idx)) = iter_heap.peek() else {
            break StopReason::Exhausted;
        };
        if sink.stats.pops >= config.max_pops {
            break StopReason::PopCap;
        }
        // Cooperative cancellation: an expired request stops burning
        // CPU and returns whatever prefix it has produced (the serving
        // layer flags the result as partial and never caches it).
        if arena.deadline.expired() {
            break StopReason::Deadline;
        }
        if early_stop.should_stop(frontier, sink.emitted.len(), &sink.output) {
            break StopReason::TopK;
        }
        // The iterator's next key replaces its entry in place; the
        // `(dist, idx)` order is total, so the pop sequence is the one a
        // pop and re-push would give.
        let Some(visit) = iterators[idx as usize].next() else {
            iter_heap.pop();
            continue;
        };
        match iterators[idx as usize].peek_dist() {
            Some(dist) => iter_heap.replace_top(dist, idx),
            None => {
                iter_heap.pop();
            }
        }
        sink.stats.pops += 1;
        let (term, origin) = infos[idx as usize];
        sink.process_visit(visit.node, term, origin, &iterators);
    };

    let state_bytes =
        sink.lists.retained_bytes() + iterators.iter().map(Dijkstra::state_bytes).sum::<usize>();
    let mut outcome = sink.finish();
    outcome.stats.state_bytes = state_bytes;
    for iterator in iterators {
        arena.recycle(iterator.into_state());
    }
    outcome
}

/// The §3 per-visit machinery: origin-list bookkeeping, cross-product
/// enumeration, duplicate handling, and answer buffering.
struct AnswerSink<'a, 'g> {
    n_terms: usize,
    lists: &'a mut OriginListPool,
    cross: &'a mut CrossScratch,
    policy: RootPolicy<'a>,
    scorer: &'a Scorer<'g>,
    config: &'a SearchConfig,
    /// `(term, origin) → global iterator index`, the paper's "iterator
    /// of `o ∈ Sⱼ`" lookup for path reconstruction.
    iter_index: FxHashMap<(u32, u32), usize>,
    output: OutputHeap,
    dedup: FxHashMap<TreeSignature, DupState>,
    emitted: Vec<Answer>,
    stats: SearchStats,
}

impl<'a, 'g> AnswerSink<'a, 'g> {
    fn new(
        n_terms: usize,
        lists: &'a mut OriginListPool,
        cross: &'a mut CrossScratch,
        policy: RootPolicy<'a>,
        scorer: &'a Scorer<'g>,
        config: &'a SearchConfig,
        iter_index: FxHashMap<(u32, u32), usize>,
    ) -> AnswerSink<'a, 'g> {
        lists.reset(n_terms);
        AnswerSink {
            n_terms,
            lists,
            cross,
            policy,
            scorer,
            config,
            iter_index,
            output: OutputHeap::new(config.output_heap_size),
            dedup: FxHashMap::with_capacity_and_hasher(
                config.output_heap_size + config.max_results,
                Default::default(),
            ),
            emitted: Vec::with_capacity(config.max_results),
            stats: SearchStats::default(),
        }
    }

    /// Handle one settled node `u`, visited by the iterator of `origin ∈
    /// S_term`: snapshot the other terms' origin lists, append `origin`
    /// to `u.L_term`, and enumerate the new cross products, reading each
    /// root→origin path from `iterators` (indexed by global iterator
    /// index).
    fn process_visit(
        &mut self,
        u: NodeId,
        term: usize,
        origin: NodeId,
        iterators: &[Dijkstra<'_>],
    ) {
        let base = self.lists.ensure(u.0);

        // Record the other terms' origin lists for the cross product,
        // borrowed straight from the flattened pool (the pool append
        // below only touches `term`'s own list).
        self.cross.clear_dims();
        let mut all_nonempty = true;
        for j in 0..self.n_terms {
            if j == term {
                continue;
            }
            let len = self.lists.len(base, j);
            if len == 0 {
                all_nonempty = false;
                break;
            }
            self.cross.push_dim(j, self.lists.head(base, j), len);
        }
        // "Insert origin in u.Lᵢ" — after the cross product snapshot.
        self.lists.push(base, term, origin.0);

        if !all_nonempty {
            return;
        }

        let total: usize = self
            .cross
            .lens
            .iter()
            .fold(1usize, |acc, &len| acc.saturating_mul(len));
        let budget = total.min(self.config.max_cross_product);
        if total > budget {
            self.stats.cross_product_truncations += 1;
        }
        if self.policy.root_excluded(u) {
            // Every combination would be discarded; account for them
            // without materializing a single tree.
            self.stats.trees_generated += budget;
            self.stats.excluded_roots += budget;
            return;
        }

        // Enumerate the cross product with a mixed-radix counter whose
        // cursors walk the pooled lists in insertion order.
        let dims = self.cross.terms.len();
        self.cross.counter.clear();
        self.cross.counter.resize(dims, 0);
        self.cross.cursors.clear();
        let (cursors, heads) = (&mut self.cross.cursors, &self.cross.heads);
        cursors.extend_from_slice(heads);
        for _ in 0..budget {
            self.cross.origins.clear();
            self.cross.origins.resize(self.n_terms, NodeId(0));
            self.cross.origins[term] = origin;
            for pos in 0..dims {
                self.cross.origins[self.cross.terms[pos]] =
                    NodeId(self.lists.origin(self.cross.cursors[pos]));
            }
            // Advance the counter for next combination.
            for pos in (0..dims).rev() {
                self.cross.counter[pos] += 1;
                if self.cross.counter[pos] < self.cross.lens[pos] {
                    self.cross.cursors[pos] = self.lists.next(self.cross.cursors[pos]);
                    break;
                }
                self.cross.counter[pos] = 0;
                self.cross.cursors[pos] = self.cross.heads[pos];
            }

            self.cross.edges.clear();
            for (j, &o) in self.cross.origins.iter().enumerate() {
                let idx = self.iter_index[&(j as u32, o.0)];
                let ok = iterators[idx].path_edges_into(u, &mut self.cross.edges);
                debug_assert!(ok, "iterator in u.Lj has settled u");
            }
            let tree = ConnectionTree::new(u, self.cross.origins.clone(), self.cross.edges.clone());
            self.stats.trees_generated += 1;

            if self.policy.discards_single_child(&tree) {
                self.stats.discarded_single_child += 1;
                continue;
            }
            let relevance = self.scorer.relevance(&tree);
            offer(
                Answer { tree, relevance },
                &mut self.output,
                &mut self.dedup,
                &mut self.emitted,
                self.config,
                &mut self.stats,
            );
            if self.emitted.len() >= self.config.max_results {
                break;
            }
        }
    }

    /// Drain the buffer into the final ranked list.
    fn finish(self) -> SearchOutcome {
        finish(self.emitted, self.output, self.config, self.stats)
    }
}

/// Insert an answer into the output buffer, handling duplicate trees.
pub(super) fn offer(
    answer: Answer,
    output: &mut OutputHeap,
    dedup: &mut FxHashMap<TreeSignature, DupState>,
    emitted: &mut Vec<Answer>,
    config: &SearchConfig,
    stats: &mut SearchStats,
) {
    let sig = answer.tree.signature();
    if config.deduplicate {
        match dedup.get(&sig) {
            Some(DupState::Emitted) => {
                stats.duplicates_discarded += 1;
                return;
            }
            Some(DupState::InHeap) => {
                let existing = output.relevance_of(&sig).unwrap_or(f64::NEG_INFINITY);
                if answer.relevance > existing {
                    output.remove(&sig);
                    stats.duplicates_replaced += 1;
                } else {
                    stats.duplicates_discarded += 1;
                    return;
                }
            }
            None => {}
        }
        dedup.insert(sig.clone(), DupState::InHeap);
    }
    if let Some((out_answer, out_sig)) = output.push(answer, sig) {
        if config.deduplicate {
            dedup.insert(out_sig, DupState::Emitted);
        }
        emitted.push(out_answer);
    }
}

/// Drain the buffer and assemble the final ranked list.
pub(super) fn finish(
    mut emitted: Vec<Answer>,
    output: OutputHeap,
    config: &SearchConfig,
    mut stats: SearchStats,
) -> SearchOutcome {
    for (answer, _) in output.drain_sorted() {
        if emitted.len() >= config.max_results {
            break;
        }
        emitted.push(answer);
    }
    emitted.truncate(config.max_results);
    stats.trees_emitted = emitted.len();
    SearchOutcome {
        answers: emitted,
        stats,
    }
}

/// Fast path for single-term queries.
///
/// With `n = 1` the general algorithm only ever keeps single-node trees
/// (every multi-node tree rooted away from the keyword node has exactly
/// one root child and is discarded), so the answers are precisely the
/// keyword nodes ranked by relevance — prestige decides, which is how the
/// paper's "Mohan" anecdote works. We build those directly instead of
/// expanding the whole graph.
fn single_term_search(
    scorer: &Scorer<'_>,
    set: &[NodeId],
    config: &SearchConfig,
    policy: &RootPolicy<'_>,
) -> SearchOutcome {
    let mut stats = SearchStats::default();
    let mut output = OutputHeap::new(config.output_heap_size);
    let mut dedup: FxHashMap<TreeSignature, DupState> = FxHashMap::default();
    let mut emitted: Vec<Answer> = Vec::new();
    for &node in set {
        stats.trees_generated += 1;
        if policy.root_excluded(node) {
            stats.excluded_roots += 1;
            continue;
        }
        let tree = ConnectionTree::new(node, vec![node], Vec::new());
        debug_assert!(
            !policy.discards_single_child(&tree),
            "single-node keyword trees are never single-child-discardable"
        );
        let relevance = scorer.relevance(&tree);
        offer(
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
    finish(emitted, output, config, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GraphConfig, ScoreParams};
    use crate::graph_build::TupleGraph;
    use banks_storage::{ColumnType, Database, RelationSchema, Value};

    /// The Fig. 1 database: one paper by three authors, linked via Writes.
    fn fig1_db() -> Database {
        let mut db = Database::new("dblp");
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
                .primary_key(&["PaperId"])
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
        db.insert(
            "Paper",
            vec![
                Value::text("ChakrabartiSD98"),
                Value::text("Mining Surprising Patterns"),
            ],
        )
        .unwrap();
        for (id, name) in [
            ("SoumenC", "Soumen Chakrabarti"),
            ("SunitaS", "Sunita Sarawagi"),
            ("ByronD", "Byron Dom"),
        ] {
            db.insert("Author", vec![Value::text(id), Value::text(name)])
                .unwrap();
            db.insert(
                "Writes",
                vec![Value::text(id), Value::text("ChakrabartiSD98")],
            )
            .unwrap();
        }
        db
    }

    struct Fixture {
        db: Database,
        tg: TupleGraph,
    }

    fn fixture() -> Fixture {
        let db = fig1_db();
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        Fixture { db, tg }
    }

    fn author_node(f: &Fixture, id: &str) -> NodeId {
        let rid =
            f.db.relation("Author")
                .unwrap()
                .lookup_pk(&[Value::text(id)])
                .unwrap();
        f.tg.node(rid).unwrap()
    }

    fn paper_node(f: &Fixture, id: &str) -> NodeId {
        let rid =
            f.db.relation("Paper")
                .unwrap()
                .lookup_pk(&[Value::text(id)])
                .unwrap();
        f.tg.node(rid).unwrap()
    }

    fn run(f: &Fixture, sets: Vec<Vec<NodeId>>, config: &SearchConfig) -> SearchOutcome {
        let scorer = Scorer::new(f.tg.graph(), ScoreParams::default());
        backward_search_in(
            &mut SearchArena::new(),
            &f.tg,
            &scorer,
            &sets,
            config,
            &FxHashSet::default(),
        )
    }

    #[test]
    fn fig1_two_authors_connect_through_paper() {
        let f = fixture();
        let soumen = author_node(&f, "SoumenC");
        let sunita = author_node(&f, "SunitaS");
        let outcome = run(
            &f,
            vec![vec![soumen], vec![sunita]],
            &SearchConfig::default(),
        );
        assert_eq!(outcome.answers.len(), 1, "exactly one connection tree");
        let tree = &outcome.answers[0].tree;
        assert_eq!(tree.root, paper_node(&f, "ChakrabartiSD98"));
        assert_eq!(tree.keyword_nodes, vec![soumen, sunita]);
        // Root (paper) → Writes → Author on both sides: 4 edges.
        assert_eq!(tree.edges.len(), 4);
        assert_eq!(tree.root_child_count(), 2);
        assert!(outcome.stats.trees_generated >= 1);
    }

    #[test]
    fn fig1_three_keywords_root_at_paper() {
        let f = fixture();
        let sets = vec![
            vec![author_node(&f, "SoumenC")],
            vec![author_node(&f, "SunitaS")],
            vec![author_node(&f, "ByronD")],
        ];
        let outcome = run(&f, sets, &SearchConfig::default());
        assert_eq!(outcome.answers.len(), 1);
        let tree = &outcome.answers[0].tree;
        assert_eq!(tree.root, paper_node(&f, "ChakrabartiSD98"));
        assert_eq!(tree.edges.len(), 6);
        assert_eq!(tree.root_child_count(), 3);
    }

    #[test]
    fn single_term_ranks_by_prestige() {
        let f = fixture();
        // Paper has indegree 3, authors 1 each: paper ranks first.
        let set = vec![
            author_node(&f, "SoumenC"),
            paper_node(&f, "ChakrabartiSD98"),
            author_node(&f, "ByronD"),
        ];
        let outcome = run(&f, vec![set], &SearchConfig::default());
        assert_eq!(outcome.answers.len(), 3);
        assert_eq!(
            outcome.answers[0].tree.root,
            paper_node(&f, "ChakrabartiSD98")
        );
        assert!(outcome.answers[0].relevance >= outcome.answers[1].relevance);
        assert!(outcome.stats.pops == 0, "fast path does not expand");
    }

    #[test]
    fn same_node_matching_both_terms_yields_single_node_tree() {
        let f = fixture();
        let soumen = author_node(&f, "SoumenC");
        // "soumen chakrabarti" — both terms match the same author node.
        let outcome = run(
            &f,
            vec![vec![soumen], vec![soumen]],
            &SearchConfig::default(),
        );
        assert!(!outcome.answers.is_empty());
        let best = &outcome.answers[0];
        assert_eq!(best.tree.root, soumen);
        assert!(best.tree.edges.is_empty());
        assert_eq!(best.tree.keyword_nodes, vec![soumen, soumen]);
    }

    #[test]
    fn excluded_root_relations_suppress_roots() {
        let f = fixture();
        let soumen = author_node(&f, "SoumenC");
        let sunita = author_node(&f, "SunitaS");
        let paper_rel = f.db.relation_id("Paper").unwrap().0;
        let mut excluded = FxHashSet::default();
        excluded.insert(paper_rel);
        let scorer = Scorer::new(f.tg.graph(), ScoreParams::default());
        let outcome = backward_search_in(
            &mut SearchArena::new(),
            &f.tg,
            &scorer,
            &[vec![soumen], vec![sunita]],
            &SearchConfig::default(),
            &excluded,
        );
        // With Paper excluded as information node, the same undirected
        // connection surfaces rooted at a Writes tuple instead (§3:
        // duplicates "represent the same result, except with different
        // information nodes").
        assert!(outcome.stats.excluded_roots > 0);
        for a in &outcome.answers {
            assert_ne!(
                f.tg.relation_of(a.tree.root),
                paper_rel,
                "no answer may be rooted at a Paper tuple"
            );
        }
    }

    #[test]
    fn empty_keyword_set_gives_no_answers() {
        let f = fixture();
        let soumen = author_node(&f, "SoumenC");
        let outcome = run(&f, vec![vec![soumen], vec![]], &SearchConfig::default());
        assert!(outcome.answers.is_empty());
    }

    #[test]
    fn max_results_bounds_output() {
        let f = fixture();
        let set = vec![
            author_node(&f, "SoumenC"),
            author_node(&f, "SunitaS"),
            author_node(&f, "ByronD"),
        ];
        let config = SearchConfig {
            max_results: 2,
            ..SearchConfig::default()
        };
        let outcome = run(&f, vec![set], &config);
        assert_eq!(outcome.answers.len(), 2);
    }

    #[test]
    fn disconnected_keywords_give_no_answers() {
        // Two papers, no links at all between them.
        let mut db = Database::new("x");
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("Id", ColumnType::Text)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let a = db.insert("Paper", vec![Value::text("a")]).unwrap();
        let b = db.insert("Paper", vec![Value::text("b")]).unwrap();
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        let scorer = Scorer::new(tg.graph(), ScoreParams::default());
        let outcome = backward_search_in(
            &mut SearchArena::new(),
            &tg,
            &scorer,
            &[vec![tg.node(a).unwrap()], vec![tg.node(b).unwrap()]],
            &SearchConfig::default(),
            &FxHashSet::default(),
        );
        assert!(outcome.answers.is_empty());
        assert!(outcome.stats.pops > 0, "iterators did run");
    }

    #[test]
    fn max_pops_safety_valve() {
        let f = fixture();
        let soumen = author_node(&f, "SoumenC");
        let sunita = author_node(&f, "SunitaS");
        let config = SearchConfig {
            max_pops: 1,
            ..SearchConfig::default()
        };
        let outcome = run(&f, vec![vec![soumen], vec![sunita]], &config);
        assert!(outcome.stats.pops <= 1);
        assert!(outcome.answers.is_empty());
        assert_eq!(outcome.stats.stop, StopReason::PopCap);
        assert!(outcome.stats.stop.truncated());
        let uncapped = run(
            &f,
            vec![vec![soumen], vec![sunita]],
            &SearchConfig::default(),
        );
        assert!(
            !uncapped.stats.stop.truncated(),
            "{:?}",
            uncapped.stats.stop
        );
    }

    #[test]
    fn node_weight_in_distance_still_finds_the_answer() {
        let f = fixture();
        let soumen = author_node(&f, "SoumenC");
        let sunita = author_node(&f, "SunitaS");
        let config = SearchConfig {
            node_weight_in_distance: true,
            ..SearchConfig::default()
        };
        let outcome = run(&f, vec![vec![soumen], vec![sunita]], &config);
        assert_eq!(outcome.answers.len(), 1);
        assert_eq!(
            outcome.answers[0].tree.root,
            paper_node(&f, "ChakrabartiSD98")
        );
        // Distances are shifted but paths (and thus tree weight) are not.
        let plain = run(
            &f,
            vec![vec![soumen], vec![sunita]],
            &SearchConfig::default(),
        );
        assert_eq!(outcome.answers[0].tree.weight, plain.answers[0].tree.weight);
    }

    #[test]
    fn answers_unique_by_signature() {
        let f = fixture();
        // Both terms match both authors: four iterator pairs, but dedup
        // keeps distinct trees only.
        let soumen = author_node(&f, "SoumenC");
        let sunita = author_node(&f, "SunitaS");
        let outcome = run(
            &f,
            vec![vec![soumen, sunita], vec![soumen, sunita]],
            &SearchConfig::default(),
        );
        let mut sigs: Vec<_> = outcome.answers.iter().map(|a| a.tree.signature()).collect();
        let before = sigs.len();
        sigs.sort();
        sigs.dedup();
        assert_eq!(before, sigs.len(), "duplicate trees in output");
    }

    #[test]
    fn reused_arena_is_bit_identical_to_one_shot() {
        let f = fixture();
        let scorer = Scorer::new(f.tg.graph(), ScoreParams::default());
        let queries: Vec<Vec<Vec<NodeId>>> = vec![
            vec![
                vec![author_node(&f, "SoumenC")],
                vec![author_node(&f, "SunitaS")],
            ],
            vec![
                vec![author_node(&f, "SoumenC"), author_node(&f, "ByronD")],
                vec![author_node(&f, "SunitaS")],
            ],
            vec![vec![paper_node(&f, "ChakrabartiSD98")]],
        ];
        let config = SearchConfig::default();
        let mut arena = SearchArena::new();
        for sets in &queries {
            let fresh = backward_search_in(
                &mut SearchArena::new(),
                &f.tg,
                &scorer,
                sets,
                &config,
                &FxHashSet::default(),
            );
            let reused = backward_search_in(
                &mut arena,
                &f.tg,
                &scorer,
                sets,
                &config,
                &FxHashSet::default(),
            );
            assert_eq!(fresh.stats, reused.stats);
            assert_eq!(fresh.answers.len(), reused.answers.len());
            for (a, b) in fresh.answers.iter().zip(&reused.answers) {
                assert_eq!(a.tree, b.tree);
                assert_eq!(a.relevance.to_bits(), b.relevance.to_bits());
            }
        }
        let (_, reuses) = arena.states.state_counters();
        assert!(reuses > 0, "later queries reuse pooled states");
    }

    #[test]
    fn traced_search_records_one_expand_span() {
        let f = fixture();
        let scorer = Scorer::new(f.tg.graph(), ScoreParams::default());
        let sets = vec![
            vec![author_node(&f, "SoumenC")],
            vec![author_node(&f, "SunitaS")],
        ];
        let config = SearchConfig::default();
        let excluded = FxHashSet::default();
        let mut arena = SearchArena::new();

        // Disabled buffer (the default): no spans.
        let plain = backward_search_in(&mut arena, &f.tg, &scorer, &sets, &config, &excluded);
        assert!(arena.spans.spans().is_empty());
        assert!(
            plain.stats.arena_retained_bytes > 0,
            "post-trim pinned arena bytes are reported"
        );

        // Traced: one closed expand span, results unchanged.
        arena.spans.enable();
        let traced = backward_search_in(&mut arena, &f.tg, &scorer, &sets, &config, &excluded);
        let spans = arena.spans.spans();
        assert_eq!(spans.iter().map(|s| s.name).collect::<Vec<_>>(), ["expand"]);
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert_eq!(traced.stats, plain.stats);
        assert_eq!(traced.answers.len(), plain.answers.len());
        arena.spans.disable();
    }

    #[test]
    fn early_termination_matches_exhaustive_run() {
        let f = fixture();
        // Both terms match every author: plenty of trees, so the bound
        // can fire once the top answers are settled.
        let all = vec![
            author_node(&f, "SoumenC"),
            author_node(&f, "SunitaS"),
            author_node(&f, "ByronD"),
        ];
        for max_results in [1usize, 2, 3] {
            let early = run(
                &f,
                vec![all.clone(), all.clone()],
                &SearchConfig {
                    max_results,
                    ..SearchConfig::default()
                },
            );
            let exhaustive = run(
                &f,
                vec![all.clone(), all.clone()],
                &SearchConfig {
                    max_results,
                    early_termination: false,
                    ..SearchConfig::default()
                },
            );
            assert_eq!(early.answers.len(), exhaustive.answers.len());
            for (a, b) in early.answers.iter().zip(&exhaustive.answers) {
                assert_eq!(a.tree.signature(), b.tree.signature());
                assert_eq!(a.relevance.to_bits(), b.relevance.to_bits());
            }
            assert!(early.stats.pops <= exhaustive.stats.pops);
            assert_ne!(exhaustive.stats.stop, StopReason::TopK);
        }
    }
}
