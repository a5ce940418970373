//! Locating keyword nodes: for each search term `t_i`, compute the set
//! `S_i` of graph nodes relevant to it (§2.3).
//!
//! A node is relevant to a term if the term occurs as a token of a textual
//! attribute value (data match, via the inverted index) or matches
//! metadata: a relation name (every tuple of the relation is relevant) or
//! a column name (every tuple with a non-NULL value in that column).
//! Extensions: attribute-qualified terms, `approx(n)` numeric proximity,
//! and edit-distance-1 approximate token matching.

use crate::config::MatchConfig;
use crate::error::{BanksError, BanksResult};
use crate::graph_build::TupleGraph;
use crate::query::{Query, Term};
use banks_graph::NodeId;
use banks_storage::{ColumnType, Database, MetadataIndex, MetadataTarget, Rid, TextIndex};
use banks_util::fxhash::{FxHashMap, FxHashSet};

/// Where a term's matches came from — reported for diagnostics and used by
/// the forward-search heuristic to pick selective terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MatchKind {
    /// Matched attribute values through the inverted index.
    Data,
    /// Matched relation/column names.
    Metadata,
    /// Matched both data and metadata.
    Mixed,
    /// Matched via an approximate mechanism (edit distance / numeric).
    Approximate,
}

/// The match set of one term.
#[derive(Debug, Clone)]
pub(crate) struct TermMatch {
    /// Matching nodes, deduplicated, in node-id order.
    pub nodes: Vec<NodeId>,
    /// Node relevances below 1.0 (§2.3's node-relevance extension):
    /// populated only for nodes matched approximately — by edit distance
    /// (`MatchConfig::approx_penalty`) or by numeric distance within an
    /// `approx(n)` window. Absent nodes match exactly (relevance 1.0).
    pub relevances: FxHashMap<u32, f64>,
    /// Provenance of the matches.
    pub kind: MatchKind,
}

impl TermMatch {
    /// Match relevance of one node of this term's set.
    pub(crate) fn relevance(&self, node: NodeId) -> f64 {
        self.relevances.get(&node.0).copied().unwrap_or(1.0)
    }
}

/// Match every term of `query`, producing one [`TermMatch`] per term.
///
/// Terms with empty match sets are an error unless
/// [`MatchConfig::allow_missing_terms`] is set, in which case they are
/// dropped (§2.3's relaxation). An error is also returned if *no* term
/// matches anything.
pub(crate) fn match_query(
    db: &Database,
    text_index: &TextIndex,
    metadata_index: &MetadataIndex,
    tuple_graph: &TupleGraph,
    query: &Query,
    config: &MatchConfig,
) -> BanksResult<Vec<TermMatch>> {
    let mut out = Vec::with_capacity(query.terms.len());
    for term in &query.terms {
        let m = match_term(db, text_index, metadata_index, tuple_graph, term, config);
        if m.nodes.is_empty() && !config.allow_missing_terms {
            return Ok(vec![TermMatch {
                nodes: Vec::new(),
                relevances: FxHashMap::default(),
                kind: m.kind,
            }]);
        }
        if !m.nodes.is_empty() {
            out.push(m);
        }
    }
    if out.is_empty() {
        return Err(BanksError::EmptyQuery);
    }
    Ok(out)
}

fn match_term(
    db: &Database,
    text_index: &TextIndex,
    metadata_index: &MetadataIndex,
    tuple_graph: &TupleGraph,
    term: &Term,
    config: &MatchConfig,
) -> TermMatch {
    let mut nodes: FxHashSet<NodeId> = FxHashSet::default();
    let mut relevances: FxHashMap<u32, f64> = FxHashMap::default();
    let mut kind = MatchKind::Data;
    match term {
        Term::Keyword(word) => {
            let mut data_hits = 0usize;
            for rid in text_index.lookup_rids(word) {
                if let Some(n) = tuple_graph.node(rid) {
                    nodes.insert(n);
                    data_hits += 1;
                }
            }
            let mut meta_hits = 0usize;
            if config.match_metadata {
                meta_hits = add_metadata_matches(db, metadata_index, tuple_graph, word, &mut nodes);
            }
            if config.approximate {
                let mut approx_nodes: FxHashSet<NodeId> = FxHashSet::default();
                let approx =
                    add_edit_distance_matches(text_index, tuple_graph, word, &mut approx_nodes);
                for n in approx_nodes {
                    // Nodes matched only approximately carry the penalty.
                    if nodes.insert(n) {
                        relevances.insert(n.0, config.approx_penalty);
                    }
                }
                if approx > 0 && data_hits == 0 && meta_hits == 0 {
                    kind = MatchKind::Approximate;
                }
            }
            kind = match (data_hits > 0, meta_hits > 0) {
                (true, true) => MatchKind::Mixed,
                (false, true) => MatchKind::Metadata,
                _ => kind,
            };
        }
        Term::Qualified { attribute, keyword } => {
            for (rel, col) in metadata_index.resolve_attribute(db, attribute) {
                for rid in text_index.lookup_in_column(keyword, rel, col) {
                    if let Some(n) = tuple_graph.node(rid) {
                        nodes.insert(n);
                    }
                }
            }
        }
        Term::Approx(n) => {
            kind = MatchKind::Approximate;
            add_numeric_matches(
                db,
                text_index,
                tuple_graph,
                *n,
                config.approx_window,
                &mut nodes,
                &mut relevances,
            );
        }
    }
    let mut nodes: Vec<NodeId> = nodes.into_iter().collect();
    nodes.sort_unstable();
    TermMatch {
        nodes,
        relevances,
        kind,
    }
}

/// Relation-name and column-name matches (§2.3 metadata matching).
fn add_metadata_matches(
    db: &Database,
    metadata_index: &MetadataIndex,
    tuple_graph: &TupleGraph,
    word: &str,
    nodes: &mut FxHashSet<NodeId>,
) -> usize {
    let mut hits = 0usize;
    for target in metadata_index.lookup(word) {
        match *target {
            MetadataTarget::Relation(rel) => {
                for slot in db.table(rel).live_slots() {
                    if let Some(n) = tuple_graph.node(Rid::new(rel, slot)) {
                        nodes.insert(n);
                        hits += 1;
                    }
                }
            }
            MetadataTarget::Column(rel, col) => {
                for (rid, tuple) in db.table(rel).scan() {
                    if !tuple.values()[col as usize].is_null() {
                        if let Some(n) = tuple_graph.node(rid) {
                            nodes.insert(n);
                            hits += 1;
                        }
                    }
                }
            }
        }
    }
    hits
}

/// Edit-distance ≤ 1 approximate token matching (a §7 planned feature).
fn add_edit_distance_matches(
    text_index: &TextIndex,
    tuple_graph: &TupleGraph,
    word: &str,
    nodes: &mut FxHashSet<NodeId>,
) -> usize {
    let mut hits = 0usize;
    let candidates: Vec<String> = text_index
        .tokens()
        .filter(|t| *t != word && within_edit_distance_one(word, t))
        .map(|t| t.to_string())
        .collect();
    for token in candidates {
        for rid in text_index.lookup_rids(&token) {
            if let Some(n) = tuple_graph.node(rid) {
                nodes.insert(n);
                hits += 1;
            }
        }
    }
    hits
}

/// `approx(n)`: integer columns within the window, plus text tokens that
/// parse to integers within the window (years in titles etc.). The match
/// relevance decays linearly with numeric distance:
/// `1 − |v − n| / (window + 1)` — an exact hit scores 1.
#[allow(clippy::too_many_arguments)]
fn add_numeric_matches(
    db: &Database,
    text_index: &TextIndex,
    tuple_graph: &TupleGraph,
    n: i64,
    window: i64,
    nodes: &mut FxHashSet<NodeId>,
    relevances: &mut FxHashMap<u32, f64>,
) {
    let record = |node: NodeId, dist: i64, relevances: &mut FxHashMap<u32, f64>| {
        let relevance = 1.0 - dist as f64 / (window + 1) as f64;
        match relevances.get(&node.0) {
            Some(&existing) if existing >= relevance => {}
            _ => {
                if dist > 0 {
                    relevances.insert(node.0, relevance);
                } else {
                    relevances.remove(&node.0);
                }
            }
        }
    };
    for table in db.relations() {
        let int_cols: Vec<usize> = table
            .schema()
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c.ty, ColumnType::Int))
            .map(|(i, _)| i)
            .collect();
        if int_cols.is_empty() {
            continue;
        }
        for (rid, tuple) in table.scan() {
            for &c in &int_cols {
                if let Some(v) = tuple.values()[c].as_int() {
                    if (v - n).abs() <= window {
                        if let Some(node) = tuple_graph.node(rid) {
                            nodes.insert(node);
                            record(node, (v - n).abs(), relevances);
                        }
                    }
                }
            }
        }
    }
    let numeric_tokens: Vec<(String, i64)> = text_index
        .tokens()
        .filter_map(|t| {
            t.parse::<i64>()
                .ok()
                .filter(|v| (v - n).abs() <= window)
                .map(|v| (t.to_string(), (v - n).abs()))
        })
        .collect();
    for (token, dist) in numeric_tokens {
        for rid in text_index.lookup_rids(&token) {
            if let Some(node) = tuple_graph.node(rid) {
                nodes.insert(node);
                record(node, dist, relevances);
            }
        }
    }
}

/// Levenshtein distance ≤ 1 without building the DP table.
fn within_edit_distance_one(a: &str, b: &str) -> bool {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    match long.len() - short.len() {
        0 => {
            // substitution
            let diffs = short
                .iter()
                .zip(long.iter())
                .filter(|(x, y)| x != y)
                .count();
            diffs <= 1
        }
        1 => {
            // insertion into `short`
            let mut i = 0;
            let mut j = 0;
            let mut skipped = false;
            while i < short.len() && j < long.len() {
                if short[i] == long[j] {
                    i += 1;
                    j += 1;
                } else if skipped {
                    return false;
                } else {
                    skipped = true;
                    j += 1;
                }
            }
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphConfig;
    use banks_storage::{RelationSchema, Tokenizer, Value};

    struct Fixture {
        db: Database,
        text: TextIndex,
        meta: MetadataIndex,
        tg: TupleGraph,
    }

    fn fixture() -> Fixture {
        let mut db = Database::new("t");
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
                .nullable_column("Year", ColumnType::Int)
                .primary_key(&["PaperId"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert("Author", vec![Value::text("a1"), Value::text("Alon Levy")])
            .unwrap();
        db.insert(
            "Author",
            vec![Value::text("a2"), Value::text("Levy Morrison")],
        )
        .unwrap();
        db.insert(
            "Paper",
            vec![
                Value::text("p1"),
                Value::text("Concurrency Control Methods"),
                Value::Int(1987),
            ],
        )
        .unwrap();
        db.insert(
            "Paper",
            vec![
                Value::text("p2"),
                Value::text("Levy flights in databases 1988"),
                Value::Int(1995),
            ],
        )
        .unwrap();
        let tokenizer = Tokenizer::new();
        let text = TextIndex::build(&db, &tokenizer);
        let meta = MetadataIndex::build(&db, &tokenizer);
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        Fixture { db, text, meta, tg }
    }

    fn run(f: &Fixture, q: &str, cfg: &MatchConfig) -> Vec<TermMatch> {
        let query = Query::parse(q, &Tokenizer::new()).unwrap();
        match_query(&f.db, &f.text, &f.meta, &f.tg, &query, cfg).unwrap()
    }

    #[test]
    fn data_match_by_token() {
        let f = fixture();
        let cfg = MatchConfig {
            match_metadata: false,
            ..MatchConfig::default()
        };
        let m = run(&f, "levy", &cfg);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].nodes.len(), 3, "two authors + one paper title");
        assert_eq!(m[0].kind, MatchKind::Data);
    }

    #[test]
    fn metadata_match_covers_relation() {
        let f = fixture();
        let m = run(&f, "author", &MatchConfig::default());
        // All Author tuples (2), via relation-name and column-name matches.
        assert!(m[0].nodes.len() >= 2);
        assert!(matches!(m[0].kind, MatchKind::Metadata | MatchKind::Mixed));
    }

    #[test]
    fn metadata_disabled_gives_no_author_match() {
        let f = fixture();
        let cfg = MatchConfig {
            match_metadata: false,
            ..MatchConfig::default()
        };
        let query = Query::parse("author", &Tokenizer::new()).unwrap();
        let m = match_query(&f.db, &f.text, &f.meta, &f.tg, &query, &cfg).unwrap();
        assert!(m[0].nodes.is_empty());
    }

    #[test]
    fn qualified_term_restricts_column() {
        let f = fixture();
        let m = run(&f, "AuthorName:levy", &MatchConfig::default());
        assert_eq!(
            m[0].nodes.len(),
            2,
            "only author-name matches, not the paper"
        );
        let m = run(&f, "Paper.PaperName:levy", &MatchConfig::default());
        assert_eq!(m[0].nodes.len(), 1);
    }

    #[test]
    fn approx_numeric_matches_int_columns_and_text_years() {
        let f = fixture();
        let m = run(&f, "approx(1988)", &MatchConfig::default());
        // p1 (year 1987 within window 2) and p2 (token "1988" in title).
        assert_eq!(m[0].nodes.len(), 2);
        assert_eq!(m[0].kind, MatchKind::Approximate);
        // tight window excludes p1's int column but "1988" token stays
        let cfg = MatchConfig {
            approx_window: 0,
            ..MatchConfig::default()
        };
        let m = run(&f, "approx(1988)", &cfg);
        assert_eq!(m[0].nodes.len(), 1);
    }

    #[test]
    fn edit_distance_matching_optional() {
        let f = fixture();
        let strict = MatchConfig {
            match_metadata: false,
            ..MatchConfig::default()
        };
        let query = Query::parse("levi", &Tokenizer::new()).unwrap();
        let m = match_query(&f.db, &f.text, &f.meta, &f.tg, &query, &strict).unwrap();
        assert!(m[0].nodes.is_empty());

        let fuzzy = MatchConfig {
            match_metadata: false,
            approximate: true,
            ..MatchConfig::default()
        };
        let m = match_query(&f.db, &f.text, &f.meta, &f.tg, &query, &fuzzy).unwrap();
        assert_eq!(m[0].nodes.len(), 3, "levi ~ levy");
        assert_eq!(m[0].kind, MatchKind::Approximate);
    }

    #[test]
    fn missing_term_behaviour() {
        let f = fixture();
        // Default: a no-match term short-circuits with an empty set.
        let m = run(&f, "levy zzzzz", &MatchConfig::default());
        assert_eq!(m.len(), 1);
        assert!(m[0].nodes.is_empty());
        // Relaxed: the missing term is dropped.
        let cfg = MatchConfig {
            allow_missing_terms: true,
            ..MatchConfig::default()
        };
        let m = run(&f, "levy zzzzz", &cfg);
        assert_eq!(m.len(), 1);
        assert!(!m[0].nodes.is_empty());
    }

    #[test]
    fn all_terms_missing_is_error() {
        let f = fixture();
        let cfg = MatchConfig {
            allow_missing_terms: true,
            ..MatchConfig::default()
        };
        let query = Query::parse("zzzzz qqqqq", &Tokenizer::new()).unwrap();
        let err = match_query(&f.db, &f.text, &f.meta, &f.tg, &query, &cfg).unwrap_err();
        assert_eq!(err, BanksError::EmptyQuery);
    }

    #[test]
    fn approximate_matches_carry_penalized_relevance() {
        let f = fixture();
        let fuzzy = MatchConfig {
            match_metadata: false,
            approximate: true,
            ..MatchConfig::default()
        };
        // "levy" matches exactly in three tuples; nothing approximate is
        // added on top, so all relevances stay 1.0.
        let query = Query::parse("levy", &Tokenizer::new()).unwrap();
        let m = match_query(&f.db, &f.text, &f.meta, &f.tg, &query, &fuzzy).unwrap();
        assert!(m[0].relevances.is_empty());
        for &n in &m[0].nodes {
            assert_eq!(m[0].relevance(n), 1.0);
        }
        // "levi" only matches via edit distance: every node is penalized.
        let query = Query::parse("levi", &Tokenizer::new()).unwrap();
        let m = match_query(&f.db, &f.text, &f.meta, &f.tg, &query, &fuzzy).unwrap();
        assert!(!m[0].nodes.is_empty());
        for &n in &m[0].nodes {
            assert_eq!(m[0].relevance(n), 0.5);
        }
    }

    #[test]
    fn numeric_approx_relevance_decays_with_distance() {
        let f = fixture();
        let m = run(&f, "approx(1988)", &MatchConfig::default());
        // p2 carries the exact token "1988" (distance 0 → relevance 1);
        // p1's Year column holds 1987 (distance 1 → 1 − 1/3).
        let p1 =
            f.tg.node(
                f.db.relation("Paper")
                    .unwrap()
                    .lookup_pk(&[banks_storage::Value::text("p1")])
                    .unwrap(),
            )
            .unwrap();
        let p2 =
            f.tg.node(
                f.db.relation("Paper")
                    .unwrap()
                    .lookup_pk(&[banks_storage::Value::text("p2")])
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(m[0].relevance(p2), 1.0);
        assert!((m[0].relevance(p1) - (1.0 - 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn edit_distance_helper() {
        assert!(within_edit_distance_one("levy", "levy"));
        assert!(within_edit_distance_one("levy", "levi"));
        assert!(within_edit_distance_one("levy", "evy"));
        assert!(within_edit_distance_one("levy", "levys"));
        assert!(!within_edit_distance_one("levy", "lefi"));
        assert!(!within_edit_distance_one("levy", "levying"));
        assert!(within_edit_distance_one("", "a"));
        assert!(!within_edit_distance_one("", "ab"));
    }
}
