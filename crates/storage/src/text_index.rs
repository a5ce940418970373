//! Inverted keyword index: token → RIDs of tuples containing the token in
//! some textual attribute.
//!
//! This plays the role of the paper's "disk resident indices on keywords"
//! that map keywords to RIDs (§3). An index opened from a bundle keeps
//! the packed term table of [`crate::postings`] as its base — in memory
//! after an in-RAM load, on the file after a paged open — and reads a
//! term's list only when it is looked up; the terms changed since open
//! live in an overlay. The index also records, per posting, *which*
//! column matched — needed for the `attribute:keyword` query extension
//! of §2.3/§7.

use crate::catalog::Database;
use crate::error::StorageResult;
use crate::postings::{LazyTextIndex, PostingSource};
use crate::schema::ColumnType;
use crate::tokenizer::Tokenizer;
use crate::tuple::Rid;
use banks_util::fxhash::FxFoldHashMap;
use banks_util::mem::{arc_bytes, table_bytes};
use std::alloc::Layout;
use std::sync::Arc;

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
/// One representation in two parts: an optional shared *base* — the
/// packed term table of a bundle's TIDX section, whose lists are read
/// on first lookup (see [`crate::postings`]) — and an *overlay* of the
/// terms changed since open, each with its whole sorted list. An index
/// built by [`TextIndex::build`] or [`TextIndex::from_texts`] has no
/// base, and every term is in its overlay; [`TextIndex::open`] starts
/// with an empty overlay. A change replaces a term's whole list in the
/// overlay, and an empty overlay list means the term is gone from the
/// base. Every list is an immutable `Arc<[Posting]>` that clones and
/// readers share, so a published snapshot copies no posting list.
#[derive(Debug, Clone, Default)]
pub struct TextIndex {
    base: Option<Arc<LazyTextIndex>>,
    overlay: Overlay,
    /// Terms with at least one posting.
    terms: usize,
    /// Postings across all terms.
    postings: usize,
}

/// Term → its whole sorted list. Terms include every primary-key id
/// (`"p0012345"`), which plain Fx hashes into a few buckets, so the map
/// re-mixes ([`FxFoldHashMap`]).
type Overlay = FxFoldHashMap<Arc<str>, Arc<[Posting]>>;

/// The order every posting list is kept in.
fn key(p: &Posting) -> (Rid, u32) {
    (p.rid, p.column)
}

impl TextIndex {
    /// Build the index by scanning every relation of `db`: its text
    /// values, fed in the order [`TextIndex::from_texts`] takes them.
    pub fn build(db: &Database, tokenizer: &Tokenizer) -> TextIndex {
        TextIndex::index(tokenizer, |add| {
            for table in db.relations() {
                let columns = &table.schema().columns;
                let text: Vec<usize> = (0..columns.len())
                    .filter(|&col| columns[col].ty == ColumnType::Text)
                    .collect();
                if text.is_empty() {
                    continue;
                }
                for (rid, tuple) in table.scan() {
                    for &col in &text {
                        if let Some(value) = tuple.values()[col].as_text() {
                            add(rid, col as u32, value);
                        }
                    }
                }
            }
        })
    }

    /// Index a stream of `(rid, column, text)` values — the text
    /// columns of every tuple — the one tokenizing derivation behind
    /// [`TextIndex::build`] and the staged-corpus bundle writer.
    pub fn from_texts<'t>(
        texts: impl IntoIterator<Item = (Rid, u32, &'t str)>,
        tokenizer: &Tokenizer,
    ) -> TextIndex {
        TextIndex::index(tokenizer, |add| {
            for (rid, column, text) in texts {
                add(rid, column, text);
            }
        })
    }

    /// Index every `(rid, column, text)` value `feed` hands its `add`.
    ///
    /// Tokens are borrowed from the tokenizer (see
    /// [`Tokenizer::for_each_token`]) and looked up by `&str`; the only
    /// per-token allocation left is the key of a term seen for the first
    /// time. Each list is then sorted and deduplicated (a token may occur
    /// several times in one attribute value; one posting per
    /// `(rid, column)` is enough).
    fn index(
        tokenizer: &Tokenizer,
        feed: impl FnOnce(&mut dyn FnMut(Rid, u32, &str)),
    ) -> TextIndex {
        let mut map: FxFoldHashMap<Arc<str>, Vec<Posting>> = FxFoldHashMap::default();
        let mut buf = String::new();
        feed(&mut |rid, column, text| {
            let posting = Posting { rid, column };
            tokenizer.for_each_token(text, &mut buf, |token| match map.get_mut(token) {
                Some(list) => list.push(posting),
                None => {
                    map.insert(Arc::from(token), vec![posting]);
                }
            });
        });
        let mut postings = 0;
        let overlay: Overlay = map
            .into_iter()
            .map(|(token, mut list)| {
                list.sort_by_key(key);
                list.dedup();
                postings += list.len();
                (token, list.into())
            })
            .collect();
        TextIndex {
            base: None,
            terms: overlay.len(),
            postings,
            overlay,
        }
    }

    /// Open a packed postings payload (see [`crate::postings`]) as the
    /// base of an index with nothing changed yet. The term table and
    /// string heap are read and checked here; a posting list is read from
    /// `source` when its term is first looked up or changed.
    pub fn open(source: Arc<dyn PostingSource>) -> StorageResult<TextIndex> {
        let base = LazyTextIndex::open(source)?;
        Ok(TextIndex {
            terms: base.distinct_tokens(),
            postings: base.posting_count(),
            base: Some(Arc::new(base)),
            overlay: Overlay::default(),
        })
    }

    /// `(cached terms, base terms, cache bytes)` of the base, for an
    /// opened index; `None` for a built one. The base caches a list when
    /// a lookup reads it, never when a change copies it to the overlay.
    pub fn lazy_cache_stats(&self) -> Option<(usize, usize, usize)> {
        self.base.as_ref().map(|base| base.cache_stats())
    }

    /// Incrementally index one attribute value: add a posting for every
    /// distinct token of `text` under `(rid, column)`, preserving the
    /// sorted posting order [`TextIndex::build`] establishes. Already
    /// present postings are left alone, so re-adding is idempotent.
    pub fn add_value(&mut self, rid: Rid, column: u32, text: &str, tokenizer: &Tokenizer) {
        let posting = Posting { rid, column };
        for token in Self::distinct_tokens_of(text, tokenizer) {
            let list = self.list(&token, false);
            if let Err(pos) = list.binary_search_by_key(&key(&posting), key) {
                let (head, tail) = list.split_at(pos);
                let grown = head.iter().chain([&posting]).chain(tail).copied();
                self.terms += usize::from(list.is_empty());
                self.postings += 1;
                self.put(&token, grown.collect());
            }
        }
    }

    /// Incrementally un-index one attribute value: remove the posting
    /// `(rid, column)` from the list of every distinct token of `text`.
    /// A term whose last posting goes stops counting and leaves
    /// [`TextIndex::tokens`]; its overlay entry stays, empty, only while
    /// the base still holds the term.
    pub fn remove_value(&mut self, rid: Rid, column: u32, text: &str, tokenizer: &Tokenizer) {
        let posting = Posting { rid, column };
        for token in Self::distinct_tokens_of(text, tokenizer) {
            let list = self.list(&token, false);
            let Ok(pos) = list.binary_search_by_key(&key(&posting), key) else {
                continue;
            };
            let rest: Arc<[Posting]> = list[..pos]
                .iter()
                .chain(&list[pos + 1..])
                .copied()
                .collect();
            self.postings -= 1;
            if rest.is_empty() {
                self.terms -= 1;
                if self.base.as_ref().is_none_or(|b| b.list_len(&token) == 0) {
                    self.overlay.remove(token.as_str());
                    continue;
                }
            }
            self.put(&token, rest);
        }
    }

    /// Make `list` the whole of `token`'s list, in the overlay.
    fn put(&mut self, token: &str, list: Arc<[Posting]>) {
        match self.overlay.get_mut(token) {
            Some(slot) => *slot = list,
            None => {
                self.overlay.insert(Arc::from(token), list);
            }
        }
    }

    /// Tokenize `text` and deduplicate (a value's repeated token carries
    /// one posting — the invariant a bulk build enforces).
    fn distinct_tokens_of(text: &str, tokenizer: &Tokenizer) -> Vec<String> {
        let mut tokens = tokenizer.tokenize(text);
        tokens.sort_unstable();
        tokens.dedup();
        tokens
    }

    /// Postings for `token` (already lowercased by the tokenizer): the
    /// overlay's list if the term changed, else the base's, cached.
    pub fn lookup(&self, token: &str) -> Arc<[Posting]> {
        self.list(token, true)
    }

    /// [`TextIndex::lookup`], filling the base's cache only if `keep`: a
    /// change or a bundle write reads each list once.
    pub(crate) fn list(&self, token: &str, keep: bool) -> Arc<[Posting]> {
        match self.overlay.get(token) {
            Some(list) => Arc::clone(list),
            None => self
                .base
                .as_ref()
                .and_then(|base| base.list(token, keep))
                .unwrap_or_else(|| Arc::from([])),
        }
    }

    /// Length of `token`'s list, read from the term table for a base term.
    pub(crate) fn list_len(&self, token: &str) -> usize {
        match self.overlay.get(token) {
            Some(list) => list.len(),
            None => self.base.as_ref().map_or(0, |base| base.list_len(token)),
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
        self.terms
    }

    /// Total number of postings across all tokens.
    pub fn posting_count(&self) -> usize {
        self.postings
    }

    /// Iterate over all distinct tokens (used by approximate matching):
    /// the base's terms the overlay does not override, in lexicographic
    /// order, then the overlay's non-empty terms.
    pub fn tokens(&self) -> impl Iterator<Item = &str> + '_ {
        let base = self
            .base
            .iter()
            .flat_map(|base| base.tokens())
            .filter(|token| !self.overlay.contains_key(*token));
        let changed = self
            .overlay
            .iter()
            .filter(|(_, list)| !list.is_empty())
            .map(|(token, _)| &**token);
        base.chain(changed)
    }

    /// Heap bytes of every allocation the index owns, allocator headers
    /// aside — the base (its `Arc`, source, term table, string heap and
    /// cache) and the overlay (its buckets, and per term the key's and
    /// the list's `Arc` and the list) — supporting the paper's §5.2 space
    /// accounting. Lists and a base shared with a clone count in each.
    pub fn memory_bytes(&self) -> usize {
        let base = self.base.as_ref().map_or(0, |base| {
            arc_bytes(Layout::new::<LazyTextIndex>()) + base.memory_bytes()
        });
        let lists: usize = self
            .overlay
            .iter()
            .map(|(token, list)| {
                arc_bytes(Layout::for_value(&**token)) + arc_bytes(Layout::for_value(&**list))
            })
            .sum();
        base + table_bytes::<(Arc<str>, Arc<[Posting]>)>(self.overlay.capacity()) + lists
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

    fn packed(index: &TextIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        crate::postings::write_packed_postings(index, &mut buf).unwrap();
        buf
    }

    fn open(bytes: Vec<u8>) -> TextIndex {
        TextIndex::open(Arc::new(crate::postings::tests::MemSource(bytes.into()))).unwrap()
    }

    /// "ab" in two tuples, "c" in one.
    fn two_terms() -> TextIndex {
        let rid = |slot| Rid::new(crate::tuple::RelationId(0), slot);
        TextIndex::from_texts([(rid(0), 0, "ab c"), (rid(1), 0, "ab")], &Tokenizer::new())
    }

    #[test]
    fn memory_bytes_match_a_hand_count() {
        assert_eq!(std::mem::size_of::<Posting>(), 12);
        let built = two_terms();
        assert_eq!(built.overlay.capacity(), 3, "four buckets");
        // Buckets: 4 × (16-byte key + 16-byte list pointer + 1 control
        // byte) + a 16-byte control group. Keys: 16 counts + 2 and + 1
        // bytes, each padded to 24. Lists: 16 counts + 2 and 1 postings
        // of 12 bytes, padded to 8.
        assert_eq!(built.memory_bytes(), 4 * 33 + 16 + 24 + 24 + 40 + 32);

        // Opened from its 107 packed bytes: the base's `Arc`, the
        // source's `Arc` (16 counts + a 16-byte boxed slice) and
        // payload, a 24-byte row per term and the 3-byte string heap.
        let bytes = packed(&built);
        assert_eq!(bytes.len(), 28 + 2 * 20 + 3 + 3 * 12);
        let base = 16 + std::mem::size_of::<LazyTextIndex>() + 32 + 107 + 2 * 24 + 3;
        let mut opened = open(bytes);
        assert_eq!(opened.memory_bytes(), base);
        // A lookup caches the list: 4 buckets of (u32, Arc<[Posting]>),
        // and one `Arc` of 16 counts + 2 postings.
        assert_eq!(opened.lookup("ab").len(), 2);
        let cache = 4 * 25 + 16 + (16 + 24);
        assert_eq!(opened.memory_bytes(), base + cache);
        assert_eq!(opened.lazy_cache_stats(), Some((1, 2, cache)));
        // Removing "c"'s one posting puts an empty list (its counts
        // alone) in the overlay, as the base still holds "c".
        let rid = Rid::new(crate::tuple::RelationId(0), 0);
        opened.remove_value(rid, 0, "c", &Tokenizer::new());
        assert_eq!(opened.overlay.capacity(), 3);
        let overlay = 4 * 33 + 16 + 24 + 16;
        assert_eq!(opened.memory_bytes(), base + cache + overlay);
        assert_eq!(
            opened.lazy_cache_stats(),
            Some((1, 2, cache)),
            "no cache fill"
        );
    }

    #[test]
    fn changes_over_an_opened_base_copy_only_the_touched_lists() {
        let tokenizer = Tokenizer::new();
        let (mut db, _) = db_with_papers();
        let built = TextIndex::build(&db, &tokenizer);
        let mut idx = open(packed(&built));
        let before = idx.clone();
        let r4 = db
            .insert(
                "Paper",
                vec![
                    Value::text("p4"),
                    Value::text("Mining Streams"),
                    Value::Int(2002),
                ],
            )
            .unwrap();
        idx.add_value(r4, 0, "p4", &tokenizer);
        idx.add_value(r4, 1, "Mining Streams", &tokenizer);
        let mut changed: Vec<&str> = idx.overlay.keys().map(|t| &**t).collect();
        changed.sort_unstable();
        assert_eq!(changed, ["mining", "p4", "streams"]);
        assert_eq!(idx.lazy_cache_stats().map(|s| s.0), Some(0));

        let rebuilt = TextIndex::build(&db, &tokenizer);
        assert_eq!(idx.distinct_tokens(), rebuilt.distinct_tokens());
        assert_eq!(idx.posting_count(), rebuilt.posting_count());
        for token in rebuilt.tokens() {
            assert_eq!(idx.lookup(token), rebuilt.lookup(token), "{token}");
        }
        assert_eq!(packed(&idx), packed(&rebuilt));

        // A term whose last posting goes leaves the index; one the base
        // does not hold leaves the overlay too.
        idx.remove_value(r4, 1, "Mining Streams", &tokenizer);
        let p1 = rebuilt.lookup_rids("p1")[0];
        idx.remove_value(p1, 0, "p1", &tokenizer);
        assert!(idx.lookup("streams").is_empty() && idx.lookup("p1").is_empty());
        assert!(!idx.overlay.contains_key("streams"));
        assert!(idx.overlay["p1"].is_empty(), "the base's term, removed");
        assert!(!idx.tokens().any(|t| t == "p1" || t == "streams"));
        assert_eq!(idx.distinct_tokens(), idx.tokens().count());

        // The clone taken before the changes answers as it did.
        assert_eq!(packed(&before), packed(&built));
        assert_eq!(before.distinct_tokens(), built.distinct_tokens());
        assert_eq!(before.posting_count(), built.posting_count());
    }
}
