//! Inverted keyword index: token → RIDs of tuples containing the token in
//! some textual attribute.
//!
//! This plays the role of the paper's "disk resident indices on keywords"
//! that map keywords to RIDs (§3); ours lives in memory. The index also
//! records, per posting, *which* column matched — needed for the
//! `attribute:keyword` query extension of §2.3/§7.

use crate::catalog::Database;
use crate::tokenizer::Tokenizer;
use crate::tuple::Rid;
use banks_util::fxhash::FxFoldHashMap;

/// One posting: a tuple and the column in which the token occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Posting {
    /// The matching tuple.
    pub rid: Rid,
    /// Column index within the tuple's relation.
    pub column: u32,
}

/// An inverted index over every text column of a database.
///
/// Two representations behind one API: the *eager* form (an Fx hash map
/// of owned posting lists — what [`TextIndex::build`] and live
/// ingestion maintain) and the *lazy* form (a
/// [`crate::postings::LazyTextIndex`] serving lookups straight off a
/// packed on-disk payload — what a paged bundle open hands over).
/// Mutation entry points ([`TextIndex::add_value`] /
/// [`TextIndex::remove_value`]) materialize a lazy index eagerly first,
/// so derived state stays identical whichever representation an index
/// started in.
#[derive(Debug, Clone, Default)]
pub struct TextIndex {
    repr: Repr,
}

/// Term → postings. Terms include every primary-key id (`"p0012345"`),
/// which plain Fx hashes into a few buckets, so the map re-mixes
/// ([`FxFoldHashMap`]).
type TermMap = FxFoldHashMap<String, Vec<Posting>>;

#[derive(Debug, Clone)]
enum Repr {
    /// Looked up per query term; built from the database or
    /// materialized from packed postings.
    Eager(TermMap),
    /// Shared lazy view of a packed payload (Arc: clones share the
    /// posting cache).
    Lazy(std::sync::Arc<crate::postings::LazyTextIndex>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Eager(TermMap::default())
    }
}

impl TextIndex {
    /// Build the index by scanning every relation of `db`.
    ///
    /// Tokens are borrowed from the tokenizer (see
    /// [`Tokenizer::for_each_token`]) and looked up by `&str`; the only
    /// per-token allocation left is the key of a term seen for the first
    /// time.
    pub fn build(db: &Database, tokenizer: &Tokenizer) -> TextIndex {
        let mut map = TermMap::default();
        let mut buf = String::new();
        for table in db.relations() {
            let text_cols: Vec<usize> = table
                .schema()
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| matches!(c.ty, crate::schema::ColumnType::Text))
                .map(|(i, _)| i)
                .collect();
            if text_cols.is_empty() {
                continue;
            }
            for (rid, tuple) in table.scan() {
                for &col in &text_cols {
                    let Some(text) = tuple.values()[col].as_text() else {
                        continue;
                    };
                    let posting = Posting {
                        rid,
                        column: col as u32,
                    };
                    tokenizer.for_each_token(text, &mut buf, |token| match map.get_mut(token) {
                        Some(list) => list.push(posting),
                        None => {
                            map.insert(token.to_owned(), vec![posting]);
                        }
                    });
                }
            }
        }
        let mut index = TextIndex {
            repr: Repr::Eager(map),
        };
        index.finish();
        index
    }

    /// Wrap a lazily-decoded packed payload (see [`crate::postings`]).
    pub fn from_lazy(lazy: std::sync::Arc<crate::postings::LazyTextIndex>) -> TextIndex {
        TextIndex {
            repr: Repr::Lazy(lazy),
        }
    }

    /// Whether lookups are served from a lazy packed payload.
    pub fn is_lazy(&self) -> bool {
        matches!(self.repr, Repr::Lazy(_))
    }

    /// `(cached terms, total terms, cached posting bytes)` when lazy.
    pub fn lazy_cache_stats(&self) -> Option<(usize, usize, usize)> {
        match &self.repr {
            Repr::Lazy(l) => Some(l.cache_stats()),
            Repr::Eager(_) => None,
        }
    }

    /// The eager map, materializing a lazy payload first. Mutations have
    /// no error channel, so a source torn after open panics here — the
    /// same contract as a lazy lookup.
    fn eager_mut(&mut self) -> &mut TermMap {
        if let Repr::Lazy(lazy) = &self.repr {
            let entries = lazy
                .materialize()
                .expect("packed postings source torn after open");
            self.repr = Repr::Eager(entries.into_iter().collect());
        }
        match &mut self.repr {
            Repr::Eager(map) => map,
            Repr::Lazy(_) => unreachable!("materialized above"),
        }
    }

    /// Sort and deduplicate posting lists (a token may occur several times
    /// in one attribute value; one posting per (rid, column) is enough).
    fn finish(&mut self) {
        for list in self.eager_mut().values_mut() {
            list.sort_by_key(|p| (p.rid, p.column));
            list.dedup();
            list.shrink_to_fit();
        }
    }

    /// Incrementally index one attribute value: add a posting for every
    /// distinct token of `text` under `(rid, column)`, preserving the
    /// sorted posting order [`TextIndex::build`] establishes. Already
    /// present postings are left alone, so re-adding is idempotent.
    pub fn add_value(&mut self, rid: Rid, column: u32, text: &str, tokenizer: &Tokenizer) {
        for token in Self::distinct_tokens_of(text, tokenizer) {
            let list = self.eager_mut().entry(token).or_default();
            let posting = Posting { rid, column };
            if let Err(pos) = list.binary_search_by_key(&(rid, column), |p| (p.rid, p.column)) {
                list.insert(pos, posting);
            }
        }
    }

    /// Incrementally un-index one attribute value: tombstone the posting
    /// `(rid, column)` under every distinct token of `text`. The posting
    /// is removed eagerly (the list is already sorted, so removal is a
    /// binary search + shift); token entries whose last posting dies are
    /// dropped entirely so lookups and memory accounting stay exact.
    pub fn remove_value(&mut self, rid: Rid, column: u32, text: &str, tokenizer: &Tokenizer) {
        for token in Self::distinct_tokens_of(text, tokenizer) {
            let map = self.eager_mut();
            let Some(list) = map.get_mut(&token) else {
                continue;
            };
            if let Ok(pos) = list.binary_search_by_key(&(rid, column), |p| (p.rid, p.column)) {
                list.remove(pos);
            }
            if list.is_empty() {
                map.remove(&token);
            }
        }
    }

    /// Tokenize `text` and deduplicate (a value's repeated token carries
    /// one posting — the invariant `finish` enforces for bulk builds).
    fn distinct_tokens_of(text: &str, tokenizer: &Tokenizer) -> Vec<String> {
        let mut tokens = tokenizer.tokenize(text);
        tokens.sort_unstable();
        tokens.dedup();
        tokens
    }

    /// Rebuild an index from deserialized posting lists — how packed
    /// postings materialize on a full bundle load. Lists serialized by
    /// a well-formed index are already sorted by `(rid, column)` and
    /// duplicate-free; that is
    /// verified with one linear scan, and only a list that fails it
    /// (hand-edited or foreign input) pays the sort + dedup
    /// normalization every other entry point maintains.
    pub fn from_postings<I>(entries: I) -> TextIndex
    where
        I: IntoIterator<Item = (String, Vec<Posting>)>,
    {
        TextIndex {
            repr: Repr::Eager(
                entries
                    .into_iter()
                    .filter(|(_, list)| !list.is_empty())
                    .map(|(token, mut list)| {
                        let sorted = list
                            .windows(2)
                            .all(|w| (w[0].rid, w[0].column) < (w[1].rid, w[1].column));
                        if !sorted {
                            list.sort_by_key(|p| (p.rid, p.column));
                            list.dedup();
                        }
                        (token, list)
                    })
                    .collect(),
            ),
        }
    }

    /// Postings for `token` (already lowercased by the tokenizer).
    pub fn lookup(&self, token: &str) -> &[Posting] {
        match &self.repr {
            Repr::Eager(map) => map.get(token).map(|v| v.as_slice()).unwrap_or(&[]),
            Repr::Lazy(lazy) => lazy.lookup(token),
        }
    }

    /// Distinct rids containing `token` in any column.
    pub fn lookup_rids(&self, token: &str) -> Vec<Rid> {
        let mut rids: Vec<Rid> = self.lookup(token).iter().map(|p| p.rid).collect();
        rids.dedup();
        rids
    }

    /// Rids containing `token` within a specific column of a specific
    /// relation (the `attribute:keyword` form).
    pub fn lookup_in_column(
        &self,
        token: &str,
        relation: crate::tuple::RelationId,
        column: u32,
    ) -> Vec<Rid> {
        self.lookup(token)
            .iter()
            .filter(|p| p.rid.relation == relation && p.column == column)
            .map(|p| p.rid)
            .collect()
    }

    /// Number of distinct tokens.
    pub fn distinct_tokens(&self) -> usize {
        match &self.repr {
            Repr::Eager(map) => map.len(),
            Repr::Lazy(lazy) => lazy.distinct_tokens(),
        }
    }

    /// Total number of postings across all tokens.
    pub fn posting_count(&self) -> usize {
        match &self.repr {
            Repr::Eager(map) => map.values().map(|v| v.len()).sum(),
            Repr::Lazy(lazy) => lazy.posting_count(),
        }
    }

    /// Iterate over all distinct tokens (used by approximate matching).
    pub fn tokens(&self) -> impl Iterator<Item = &str> + '_ {
        let iter: Box<dyn Iterator<Item = &str> + '_> = match &self.repr {
            Repr::Eager(map) => Box::new(map.keys().map(|s| s.as_str())),
            Repr::Lazy(lazy) => Box::new(lazy.tokens()),
        };
        iter
    }

    /// Approximate memory footprint in bytes (keys + posting arrays for
    /// the eager form; table + heap + cached lists for the lazy form),
    /// supporting the paper's §5.2 space accounting.
    pub fn memory_bytes(&self) -> usize {
        match &self.repr {
            Repr::Eager(map) => {
                let mut bytes = 0usize;
                for (k, v) in map {
                    bytes += k.len() + std::mem::size_of::<String>();
                    bytes += v.capacity() * std::mem::size_of::<Posting>();
                    bytes += std::mem::size_of::<Vec<Posting>>();
                }
                bytes
            }
            Repr::Lazy(lazy) => lazy.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, RelationSchema};
    use crate::value::Value;

    fn db_with_papers() -> (Database, Vec<Rid>) {
        let mut db = Database::new("t");
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("PaperId", ColumnType::Text)
                .column("PaperName", ColumnType::Text)
                .column("Year", ColumnType::Int)
                .primary_key(&["PaperId"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let rids = vec![
            db.insert(
                "Paper",
                vec![
                    Value::text("p1"),
                    Value::text("Temporal Mining of Patterns"),
                    Value::Int(1998),
                ],
            )
            .unwrap(),
            db.insert(
                "Paper",
                vec![
                    Value::text("p2"),
                    Value::text("Query Optimization Survey"),
                    Value::Int(1996),
                ],
            )
            .unwrap(),
            db.insert(
                "Paper",
                vec![
                    Value::text("p3"),
                    Value::text("Mining mining MINING"),
                    Value::Int(2000),
                ],
            )
            .unwrap(),
        ];
        (db, rids)
    }

    #[test]
    fn lookup_finds_matching_tuples() {
        let (db, rids) = db_with_papers();
        let idx = TextIndex::build(&db, &Tokenizer::new());
        assert_eq!(idx.lookup_rids("mining"), vec![rids[0], rids[2]]);
        assert_eq!(idx.lookup_rids("optimization"), vec![rids[1]]);
        assert!(idx.lookup_rids("nonexistent").is_empty());
    }

    #[test]
    fn repeated_tokens_deduplicate() {
        let (db, rids) = db_with_papers();
        let idx = TextIndex::build(&db, &Tokenizer::new());
        // "Mining mining MINING" contributes a single posting.
        let postings = idx.lookup("mining");
        let for_p3: Vec<_> = postings.iter().filter(|p| p.rid == rids[2]).collect();
        assert_eq!(for_p3.len(), 1);
    }

    #[test]
    fn pk_text_columns_are_indexed_too() {
        let (db, rids) = db_with_papers();
        let idx = TextIndex::build(&db, &Tokenizer::new());
        assert_eq!(idx.lookup_rids("p1"), vec![rids[0]]);
    }

    #[test]
    fn column_restricted_lookup() {
        let (db, rids) = db_with_papers();
        let idx = TextIndex::build(&db, &Tokenizer::new());
        let rel = db.relation_id("Paper").unwrap();
        // "mining" appears in PaperName (column 1), not PaperId (column 0).
        assert_eq!(
            idx.lookup_in_column("mining", rel, 1),
            vec![rids[0], rids[2]]
        );
        assert!(idx.lookup_in_column("mining", rel, 0).is_empty());
    }

    #[test]
    fn stats_and_memory_reporting() {
        let (db, _) = db_with_papers();
        let idx = TextIndex::build(&db, &Tokenizer::new());
        assert!(idx.distinct_tokens() > 5);
        assert!(idx.posting_count() >= idx.distinct_tokens());
        assert!(idx.memory_bytes() > 0);
        assert!(idx.tokens().any(|t| t == "temporal"));
    }

    #[test]
    fn incremental_add_remove_matches_bulk_build() {
        let tokenizer = Tokenizer::new();
        let (mut db, rids) = db_with_papers();
        let mut idx = TextIndex::build(&db, &tokenizer);

        // Add a fourth paper incrementally; the index must equal a bulk
        // rebuild over the mutated database.
        let r4 = db
            .insert(
                "Paper",
                vec![
                    Value::text("p4"),
                    Value::text("Mining the Query Stream"),
                    Value::Int(2002),
                ],
            )
            .unwrap();
        idx.add_value(r4, 0, "p4", &tokenizer);
        idx.add_value(r4, 1, "Mining the Query Stream", &tokenizer);
        let rebuilt = TextIndex::build(&db, &tokenizer);
        for token in rebuilt.tokens() {
            assert_eq!(idx.lookup(token), rebuilt.lookup(token), "token {token}");
        }
        assert_eq!(idx.distinct_tokens(), rebuilt.distinct_tokens());
        assert_eq!(idx.posting_count(), rebuilt.posting_count());
        assert_eq!(idx.lookup_rids("mining"), vec![rids[0], rids[2], r4]);

        // Re-adding is idempotent.
        idx.add_value(r4, 1, "Mining the Query Stream", &tokenizer);
        assert_eq!(idx.posting_count(), rebuilt.posting_count());

        // Remove it again: back to the original index, and tokens whose
        // last posting died ("stream") disappear entirely.
        idx.remove_value(r4, 0, "p4", &tokenizer);
        idx.remove_value(r4, 1, "Mining the Query Stream", &tokenizer);
        db.delete(r4).unwrap();
        let original = TextIndex::build(&db, &tokenizer);
        assert_eq!(idx.distinct_tokens(), original.distinct_tokens());
        assert_eq!(idx.posting_count(), original.posting_count());
        assert!(idx.lookup("stream").is_empty());
        // Removing something never indexed is a no-op.
        idx.remove_value(r4, 1, "totally absent tokens", &tokenizer);
        assert_eq!(idx.posting_count(), original.posting_count());
    }

    #[test]
    fn int_columns_not_text_indexed() {
        let (db, _) = db_with_papers();
        let idx = TextIndex::build(&db, &Tokenizer::new());
        // Years live in an Int column; the text index does not cover them.
        assert!(idx.lookup_rids("1998").is_empty());
    }
}
