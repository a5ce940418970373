//! The `Banks` facade: load a database, build indexes and the data graph
//! once, then answer keyword queries.

use crate::answer::Answer;
use crate::config::BanksConfig;
use crate::error::BanksResult;
use crate::graph_build::TupleGraph;
use crate::matching::{match_query, TermMatch};
use crate::query::Query;
use crate::score::Scorer;
use crate::search::{backward_search_in, forward_search_in, SearchArena, SearchOutcome};
use crate::summarize::{summarize, AnswerGroup};
use banks_graph::{FxHashSet, NodeId};
use banks_storage::{Database, MetadataIndex, TextIndex, Tokenizer};

/// §2.3's node-relevance extension: when some keyword node matched only
/// approximately, scale each answer's relevance by the mean match
/// relevance of its chosen keyword nodes and restore descending order.
/// Exact matches all carry relevance 1.0, so the common path is a no-op.
fn apply_node_relevances(matches: &[crate::matching::TermMatch], outcome: &mut SearchOutcome) {
    if matches.iter().all(|m| m.relevances.is_empty()) {
        return;
    }
    for answer in &mut outcome.answers {
        let mut total = 0.0;
        let mut count = 0usize;
        for (term, &node) in matches.iter().zip(&answer.tree.keyword_nodes) {
            total += term.relevance(node);
            count += 1;
        }
        if count > 0 {
            answer.relevance *= total / count as f64;
        }
    }
    outcome
        .answers
        .sort_by(|a, b| b.relevance.total_cmp(&a.relevance));
}

/// Which search algorithm executes queries.
///
/// `Hash` so serving layers can key result caches on the strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchStrategy {
    /// Backward expanding search (§3) — the paper's algorithm.
    #[default]
    Backward,
    /// Forward search (§7) — faster when some term matches many nodes.
    Forward,
}

/// A ready-to-query BANKS instance.
///
/// Construction tokenizes and indexes every relation and materializes the
/// data graph (the paper's "graph load" phase, measured in §5.2). The
/// database is then owned immutably; rebuild the instance after bulk
/// updates.
///
/// ```
/// use banks_core::Banks;
/// use banks_storage::{ColumnType, Database, RelationSchema, Value};
///
/// let mut db = Database::new("mini");
/// db.create_relation(
///     RelationSchema::builder("Paper")
///         .column("Id", ColumnType::Text)
///         .column("Title", ColumnType::Text)
///         .primary_key(&["Id"])
///         .build()
///         .unwrap(),
/// )
/// .unwrap();
/// db.insert("Paper", vec![Value::text("p1"), Value::text("The Transaction Concept")])
///     .unwrap();
/// let banks = Banks::new(db).unwrap();
/// let answers = banks.search("transaction").unwrap();
/// assert_eq!(answers.len(), 1);
/// ```
#[derive(Debug)]
pub struct Banks {
    db: Database,
    config: BanksConfig,
    tokenizer: Tokenizer,
    text_index: TextIndex,
    metadata_index: MetadataIndex,
    tuple_graph: TupleGraph,
    excluded_roots: FxHashSet<u32>,
}

impl Banks {
    /// Build with the default configuration (the paper's best settings).
    pub fn new(db: Database) -> BanksResult<Banks> {
        Banks::with_config(db, BanksConfig::default())
    }

    /// Build with an explicit configuration.
    pub fn with_config(db: Database, config: BanksConfig) -> BanksResult<Banks> {
        // Validate before the (expensive) graph build; `with_graph`
        // validates again but that repeat is cheap.
        config.validate()?;
        let tuple_graph = TupleGraph::build(&db, &config.graph)?;
        Banks::with_graph(db, config, tuple_graph)
    }

    /// Build around a pre-materialized data graph, re-attached with
    /// [`TupleGraph::rebind`]: skips the §5.2 "graph load" phase of edge
    /// derivation, so only the text index is built.
    ///
    /// The graph must describe exactly this database (one node per tuple
    /// in scan order); node count **and** per-relation catalog layout are
    /// verified via [`TupleGraph::verify_catalog`], and a mismatched
    /// snapshot is rejected with the typed
    /// [`BanksError::SnapshotMismatch`](crate::BanksError::SnapshotMismatch).
    pub fn with_graph(
        db: Database,
        config: BanksConfig,
        tuple_graph: TupleGraph,
    ) -> BanksResult<Banks> {
        // Reject a bad config or an obviously mismatched snapshot before
        // paying for the text index — the most expensive derived build.
        // `from_parts` repeats these checks; the repeat is cheap.
        config.validate()?;
        tuple_graph.verify_catalog(&db)?;
        let tokenizer = Tokenizer::new();
        let text_index = TextIndex::build(&db, &tokenizer);
        Banks::from_parts(db, config, tuple_graph, text_index)
    }

    /// Re-snapshot hook: assemble a `Banks` from independently maintained
    /// parts — the publication path of live ingestion, where the data
    /// graph was patched incrementally (`banks-graph`'s `GraphPatch`) and
    /// the text index updated posting-by-posting instead of either being
    /// re-derived from scratch.
    ///
    /// The graph is validated against the database exactly as in
    /// [`Banks::with_graph`]; the text index is trusted (it has no
    /// derivable summary to check cheaply), which is the same contract a
    /// bulk [`TextIndex::build`] caller gets. The cheap derived
    /// structures — metadata index, excluded-root set — are rebuilt here,
    /// so callers never hand over internally inconsistent pieces.
    pub fn from_parts(
        db: Database,
        config: BanksConfig,
        tuple_graph: TupleGraph,
        text_index: TextIndex,
    ) -> BanksResult<Banks> {
        config.validate()?;
        tuple_graph.verify_catalog(&db)?;
        let tokenizer = Tokenizer::new();
        let metadata_index = MetadataIndex::build(&db, &tokenizer);
        let mut excluded_roots = FxHashSet::default();
        for name in &config.search.excluded_root_relations {
            if let Ok(id) = db.relation_id(name) {
                excluded_roots.insert(id.0);
            }
        }
        Ok(Banks {
            db,
            config,
            tokenizer,
            text_index,
            metadata_index,
            tuple_graph,
            excluded_roots,
        })
    }

    /// Answer a keyword query with the configured `max_results`.
    pub fn search(&self, query_text: &str) -> BanksResult<Vec<Answer>> {
        Ok(self.search_outcome(query_text)?.answers)
    }

    /// Answer a keyword query, also returning execution counters.
    pub fn search_outcome(&self, query_text: &str) -> BanksResult<SearchOutcome> {
        self.search_with(query_text, SearchStrategy::Backward, &self.config)
    }

    /// Full-control entry point: explicit strategy and configuration.
    ///
    /// Two parts of `config` are fixed at construction time and ignored
    /// here: the graph section (the graph is built once) and
    /// `search.excluded_root_relations` (resolved to relation ids when
    /// the instance was created). Everything else — matching, scoring,
    /// and the remaining search knobs — applies per call, which is how
    /// the Figure 5 parameter sweep reuses one graph across settings.
    pub fn search_with(
        &self,
        query_text: &str,
        strategy: SearchStrategy,
        config: &BanksConfig,
    ) -> BanksResult<SearchOutcome> {
        let query = Query::parse(query_text, &self.tokenizer)?;
        self.search_parsed_in(&query, strategy, config, &mut SearchArena::new())
    }

    /// As [`Banks::search_with`], for an already-parsed [`Query`] and
    /// executing on a caller-owned [`SearchArena`]. Serving layers parse
    /// once — to validate before touching their result cache — and
    /// reuse the parse here instead of paying for a second tokenization
    /// per cold query. This is the zero-allocation serving path: a worker
    /// thread keeps one arena for its lifetime and threads it through
    /// every query; the kernel's Dijkstra state tables, origin lists and
    /// cross-product scratch are then recycled instead of reallocated,
    /// and since a state is sized by the nodes it touches, they serve a
    /// snapshot of any graph size. Results are bit-identical to the
    /// fresh-allocation path.
    pub fn search_parsed_in(
        &self,
        query: &Query,
        strategy: SearchStrategy,
        config: &BanksConfig,
        arena: &mut SearchArena,
    ) -> BanksResult<SearchOutcome> {
        let span = arena.spans.begin();
        let matches = self.match_terms(query, config)?;
        arena.spans.end("match", 0, span);
        let keyword_sets: Vec<Vec<NodeId>> = matches.iter().map(|m| m.nodes.clone()).collect();
        let scorer = Scorer::new(self.tuple_graph.graph(), config.score);
        let mut outcome = match strategy {
            SearchStrategy::Backward => backward_search_in(
                arena,
                &self.tuple_graph,
                &scorer,
                &keyword_sets,
                &config.search,
                &self.excluded_roots,
            ),
            SearchStrategy::Forward => forward_search_in(
                arena,
                &self.tuple_graph,
                &scorer,
                &keyword_sets,
                &config.search,
                &self.excluded_roots,
            ),
        };
        let span = arena.spans.begin();
        apply_node_relevances(&matches, &mut outcome);
        arena.spans.end("score", 0, span);
        Ok(outcome)
    }

    /// Answer a keyword query on a caller-owned arena, with execution
    /// counters — the convenience form benchmarks and workers use.
    pub fn search_outcome_in(
        &self,
        query_text: &str,
        arena: &mut SearchArena,
    ) -> BanksResult<SearchOutcome> {
        let query = Query::parse(query_text, &self.tokenizer)?;
        self.search_parsed_in(&query, SearchStrategy::Backward, &self.config, arena)
    }

    /// Match query terms to node sets without running the search.
    pub fn match_terms(&self, query: &Query, config: &BanksConfig) -> BanksResult<Vec<TermMatch>> {
        match_query(
            &self.db,
            &self.text_index,
            &self.metadata_index,
            &self.tuple_graph,
            query,
            &config.matching,
        )
    }

    /// Parse query text with this instance's tokenizer.
    pub fn parse(&self, query_text: &str) -> BanksResult<Query> {
        Query::parse(query_text, &self.tokenizer)
    }

    /// Render an answer as indented text (Figure 2 style).
    pub fn render_answer(&self, answer: &Answer) -> String {
        answer.tree.render(&self.db, &self.tuple_graph)
    }

    /// Group answers by schema-level tree shape (§7 summarization).
    pub fn summarize(&self, answers: &[Answer]) -> Vec<AnswerGroup> {
        summarize(&self.db, &self.tuple_graph, answers)
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The data graph.
    pub fn tuple_graph(&self) -> &TupleGraph {
        &self.tuple_graph
    }

    /// The inverted keyword index.
    pub fn text_index(&self) -> &TextIndex {
        &self.text_index
    }

    /// The active configuration.
    pub fn config(&self) -> &BanksConfig {
        &self.config
    }

    /// Total index+graph memory, in bytes (§5.2 space accounting).
    pub fn memory_bytes(&self) -> usize {
        self.tuple_graph.memory_bytes() + self.text_index.memory_bytes()
    }
}

// A built `Banks` is immutable and interior-mutability-free, so one
// instance can be shared across any number of query threads (the
// multi-user serving scenario of the original web deployment). The
// serving layer (`banks-server`) relies on this; break it and this
// assertion fails to compile.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Banks>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use banks_storage::{ColumnType, RelationSchema, Value};

    /// The paper's Fig. 1 database plus a second paper to make ranking
    /// interesting.
    fn dblp() -> Database {
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
        for (id, name) in [
            ("SoumenC", "Soumen Chakrabarti"),
            ("SunitaS", "Sunita Sarawagi"),
            ("ByronD", "Byron Dom"),
        ] {
            db.insert("Author", vec![Value::text(id), Value::text(name)])
                .unwrap();
        }
        for (id, title) in [
            (
                "ChakrabartiSD98",
                "Mining Surprising Patterns Using Temporal Description Length",
            ),
            ("SarawagiC00", "Scalable Mining For Classification Rules"),
        ] {
            db.insert("Paper", vec![Value::text(id), Value::text(title)])
                .unwrap();
        }
        for (a, p) in [
            ("SoumenC", "ChakrabartiSD98"),
            ("SunitaS", "ChakrabartiSD98"),
            ("ByronD", "ChakrabartiSD98"),
            ("SoumenC", "SarawagiC00"),
            ("SunitaS", "SarawagiC00"),
        ] {
            db.insert("Writes", vec![Value::text(a), Value::text(p)])
                .unwrap();
        }
        db
    }

    #[test]
    fn soumen_sunita_returns_coauthored_papers() {
        let banks = Banks::new(dblp()).unwrap();
        let answers = banks.search("soumen sunita").unwrap();
        assert_eq!(answers.len(), 2, "two co-authored papers");
        for a in &answers {
            let rid = banks.tuple_graph().rid(a.tree.root);
            let rel = banks.db().table(rid.relation).schema().name.clone();
            assert_eq!(rel, "Paper", "information node is a paper");
        }
    }

    #[test]
    fn render_produces_figure2_style_output() {
        let banks = Banks::new(dblp()).unwrap();
        let answers = banks.search("soumen sunita").unwrap();
        let text = banks.render_answer(&answers[0]);
        assert!(text.contains("Paper("));
        assert!(text.contains("Writes("));
        assert!(text.contains("*Author("), "keyword nodes are starred");
        // Indentation grows along the tree.
        assert!(text.lines().any(|l| l.starts_with("    ")));
    }

    #[test]
    fn metadata_query_author_matches_all_authors() {
        let banks = Banks::new(dblp()).unwrap();
        // "author" matches the Author relation name (3 tuples) and the
        // AuthorId column of Writes (5 tuples): 8 single-node answers,
        // ranked by prestige, so the referenced Author tuples come first.
        let answers = banks.search("author").unwrap();
        assert_eq!(answers.len(), 8);
        for a in &answers[..3] {
            let rid = banks.tuple_graph().rid(a.tree.root);
            assert_eq!(banks.db().table(rid.relation).schema().name, "Author");
        }
    }

    #[test]
    fn qualified_search() {
        let banks = Banks::new(dblp()).unwrap();
        let answers = banks.search("AuthorName:byron").unwrap();
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn unmatched_term_yields_empty() {
        let banks = Banks::new(dblp()).unwrap();
        let answers = banks.search("soumen xyzzy").unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn empty_query_is_error() {
        let banks = Banks::new(dblp()).unwrap();
        assert!(banks.search("").is_err());
    }

    #[test]
    fn excluded_root_config_respected() {
        let mut config = BanksConfig::default();
        config.search.excluded_root_relations = vec!["Paper".into()];
        let banks = Banks::with_config(dblp(), config).unwrap();
        // The connection still surfaces, but rooted at a non-Paper tuple
        // (the duplicate rooted at a Writes node).
        let answers = banks.search("soumen sunita").unwrap();
        for a in &answers {
            let rid = banks.tuple_graph().rid(a.tree.root);
            assert_ne!(banks.db().table(rid.relation).schema().name, "Paper");
        }
    }

    #[test]
    fn forward_strategy_agrees_on_root_relation() {
        let banks = Banks::new(dblp()).unwrap();
        let outcome = banks
            .search_with("soumen byron", SearchStrategy::Forward, banks.config())
            .unwrap();
        assert!(!outcome.answers.is_empty());
        let rid = banks.tuple_graph().rid(outcome.answers[0].tree.root);
        assert_eq!(banks.db().table(rid.relation).schema().name, "Paper");
    }

    #[test]
    fn summarize_groups_equal_shapes() {
        let banks = Banks::new(dblp()).unwrap();
        let answers = banks.search("soumen sunita").unwrap();
        let groups = banks.summarize(&answers);
        assert_eq!(groups.len(), 1, "both answers share the coauthor shape");
        assert_eq!(groups[0].answers.len(), 2);
    }

    #[test]
    fn memory_reporting() {
        let banks = Banks::new(dblp()).unwrap();
        assert!(banks.memory_bytes() > 0);
    }

    #[test]
    fn node_relevance_ranks_exact_above_fuzzy() {
        // Add a decoy author whose name is one edit away from "sunita";
        // with approximate matching on, exact-match answers must outrank
        // fuzzy ones because of the §2.3 node-relevance adjustment.
        let mut db = dblp();
        db.insert(
            "Author",
            vec![Value::text("SunitaX"), Value::text("Sunitha Prestigious")],
        )
        .unwrap();
        // Decoy gets more references than the real Sunita so raw prestige
        // alone would put it first for a single-keyword query.
        db.insert(
            "Paper",
            vec![Value::text("PX1"), Value::text("Decoy Topics One")],
        )
        .unwrap();
        db.insert(
            "Paper",
            vec![Value::text("PX2"), Value::text("Decoy Topics Two")],
        )
        .unwrap();
        db.insert(
            "Paper",
            vec![Value::text("PX3"), Value::text("Decoy Topics Three")],
        )
        .unwrap();
        for p in ["PX1", "PX2", "PX3"] {
            db.insert("Writes", vec![Value::text("SunitaX"), Value::text(p)])
                .unwrap();
        }
        let mut config = BanksConfig::default();
        config.matching.approximate = true;
        let banks = Banks::with_config(db, config).unwrap();
        let answers = banks.search("sunita").unwrap();
        let top_rid = banks.tuple_graph().rid(answers[0].tree.root);
        let name = banks.db().tuple(top_rid).unwrap().values()[1]
            .as_text()
            .unwrap()
            .to_string();
        assert_eq!(
            name, "Sunita Sarawagi",
            "the exact match outranks the higher-prestige fuzzy decoy"
        );
        // Answers stay sorted descending after the adjustment.
        for pair in answers.windows(2) {
            assert!(pair[0].relevance >= pair[1].relevance - 1e-12);
        }
    }

    #[test]
    fn snapshot_rebind_reproduces_search_results() {
        // Rebind a copy of the live CSR graph to the database and get
        // identical ranked answers without re-deriving edges (the
        // bundle round-trip tests in `banks-persist` cover the same
        // after a save and load).
        let fresh = Banks::new(dblp()).unwrap();
        let graph = fresh.tuple_graph().graph().clone();
        let tuple_graph = TupleGraph::rebind(fresh.db(), graph).unwrap();
        let restored = Banks::with_graph(dblp(), BanksConfig::default(), tuple_graph).unwrap();
        let a = fresh.search("soumen sunita").unwrap();
        let b = restored.search("soumen sunita").unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tree.signature(), y.tree.signature());
            assert!((x.relevance - y.relevance).abs() < 1e-12);
        }
    }

    #[test]
    fn with_graph_rejects_mismatched_snapshot() {
        let fresh = Banks::new(dblp()).unwrap();
        let mut small = dblp();
        let victim = small
            .relation("Writes")
            .unwrap()
            .scan()
            .next()
            .map(|(rid, _)| rid)
            .unwrap();
        small.delete(victim).unwrap();
        // One tuple fewer than the snapshot's node count — rebind must
        // refuse with the typed error rather than mis-map rids.
        let err = TupleGraph::rebind(&small, fresh.tuple_graph().graph().clone()).unwrap_err();
        assert!(
            matches!(err, banks_storage::StorageError::SnapshotMismatch { .. }),
            "node-count mismatch must be the typed error, got {err:?}"
        );
    }

    #[test]
    fn with_graph_rejects_same_cardinality_catalog_drift() {
        // Same *total* tuple count, different per-relation layout: delete
        // a Writes row, add an Author. The node count alone can't tell
        // the snapshots apart — the catalog check must.
        let fresh = Banks::new(dblp()).unwrap();
        let mut drifted = dblp();
        let victim = drifted
            .relation("Writes")
            .unwrap()
            .scan()
            .next()
            .map(|(rid, _)| rid)
            .unwrap();
        drifted.delete(victim).unwrap();
        drifted
            .insert(
                "Author",
                vec![Value::text("NewA"), Value::text("New Author")],
            )
            .unwrap();
        assert_eq!(drifted.total_tuples(), fresh.db().total_tuples());

        let stale = TupleGraph::build(fresh.db(), &BanksConfig::default().graph).unwrap();
        let err = Banks::with_graph(drifted, BanksConfig::default(), stale).unwrap_err();
        assert!(
            matches!(err, crate::BanksError::SnapshotMismatch { .. }),
            "catalog drift must be the typed error, got {err:?}"
        );
    }

    #[test]
    fn from_parts_reuses_supplied_text_index() {
        let reference = Banks::new(dblp()).unwrap();
        let db = dblp();
        let tokenizer = banks_storage::Tokenizer::new();
        let text_index = banks_storage::TextIndex::build(&db, &tokenizer);
        let tuple_graph = TupleGraph::build(&db, &BanksConfig::default().graph).unwrap();
        let assembled =
            Banks::from_parts(db, BanksConfig::default(), tuple_graph, text_index).unwrap();
        let a = reference.search("soumen sunita").unwrap();
        let b = assembled.search("soumen sunita").unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tree.signature(), y.tree.signature());
        }
    }
}
